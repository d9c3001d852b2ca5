//! Minimality checks for the synthesizer's greedy word cover.
//!
//! Synthesis places its loads in one greedy pass: a load over the first
//! uncovered target byte, clamped to the region (DESIGN §17 argues this
//! needs the fewest loads possible). This module checks that claim
//! against an independent reference, [`min_cover_loads`]: a dynamic
//! program that tries every clamped load covering the first uncovered
//! target and keeps the cheapest continuation. Every plan must also pass
//! `validate_plan` and cover every target byte, and the run's work
//! counters must stay within one step per byte of the pattern: synthesis
//! is total and linear, so it can run inline on the serving thread.

use sepe_core::pattern::KeyPattern;
use sepe_core::plan_io::{plan_to_string, validate_plan};
use sepe_core::synth::{synthesize, synthesize_with_stats, Family, Plan};

/// The fewest `width`-byte loads, each starting in `0..=region_len -
/// width`, that cover every byte position in `targets` (sorted
/// ascending, all below `region_len`).
///
/// `best[i]` is the minimum for the suffix `targets[i..]`: some load must
/// cover `targets[i]`, so try every start that does and continue from the
/// first target that load leaves uncovered.
///
/// # Panics
///
/// Panics if `region_len < width`.
#[must_use]
pub fn min_cover_loads(targets: &[usize], region_len: usize, width: usize) -> usize {
    assert!(region_len >= width, "no load fits in the region");
    let mut best = vec![0usize; targets.len() + 1];
    for i in (0..targets.len()).rev() {
        let t = targets[i];
        best[i] = (t.saturating_sub(width - 1)..=t.min(region_len - width))
            .map(|start| best[targets.partition_point(|&u| u < start + width)])
            .min()
            .expect("some start covers the target")
            + 1;
    }
    best[0]
}

/// Load width, covered region, and target bytes of a `family` plan for
/// `pattern` — the instance synthesis covers. `None` when synthesis places
/// no loads: an STL fallback, a mandatory prefix shorter than one load, or
/// an AES key short enough to be replicated into one block.
fn cover_instance(pattern: &KeyPattern, family: Family) -> Option<(usize, usize, Vec<usize>)> {
    let width = if family == Family::Aes { 16 } else { 8 };
    let region_len = if pattern.is_fixed_len() {
        pattern.max_len()
    } else {
        pattern.min_len()
    };
    if pattern.max_len() < 8 || region_len < width {
        return None;
    }
    let targets = (0..region_len)
        .filter(|&i| family == Family::Naive || !pattern.bytes()[i].is_const())
        .collect();
    Some((width, region_len, targets))
}

/// The load offsets of a plan (word or block loads; none for a fallback).
fn load_offsets(plan: &Plan) -> Vec<usize> {
    match plan {
        Plan::FixedWords { ops, .. } | Plan::VarWords { ops, .. } => {
            ops.iter().map(|op| op.offset as usize).collect()
        }
        Plan::FixedBlocks { offsets, .. } | Plan::VarBlocks { offsets, .. } => {
            offsets.iter().map(|&o| o as usize).collect()
        }
        Plan::StlFallback => Vec::new(),
    }
}

/// Synthesizes every family for `pattern` and requires each plan to pass
/// `validate_plan`, to cover every target byte, and to use exactly
/// [`min_cover_loads`] loads. Returns the number of plans checked.
///
/// # Errors
///
/// Describes the first plan that is invalid, misses a target byte, uses
/// a different number of loads than the minimum cover, or took more than
/// linear work (see [`check_linear_work`]).
pub fn check_minimal_cover(name: &str, pattern: &KeyPattern) -> Result<usize, String> {
    for family in Family::ALL {
        let plan = check_linear_work(name, pattern, family)?;
        validate_plan(&plan).map_err(|e| format!("{name} {family}: invalid plan: {e}"))?;
        let offsets = load_offsets(&plan);
        let Some((width, region_len, targets)) = cover_instance(pattern, family) else {
            if !offsets.is_empty() {
                return Err(format!(
                    "{name} {family}: {} loads where synthesis places none",
                    offsets.len()
                ));
            }
            continue;
        };
        if let Some(t) = targets
            .iter()
            .find(|&&t| !offsets.iter().any(|&o| o <= t && t < o + width))
        {
            return Err(format!(
                "{name} {family}: target byte {t} is not covered by {}",
                plan_to_string(&plan)
            ));
        }
        let minimum = min_cover_loads(&targets, region_len, width);
        if offsets.len() != minimum {
            return Err(format!(
                "{name} {family}: {} loads, but {minimum} suffice\nplan: {}",
                offsets.len(),
                plan_to_string(&plan)
            ));
        }
    }
    Ok(Family::ALL.len())
}

/// Synthesizes `family` for `pattern` and requires the run's work to be
/// linear in the pattern length: at most one expanded node and one
/// rejected candidate per byte. Returns the plan, which must equal
/// [`synthesize`]'s.
///
/// # Errors
///
/// Reports a run whose counters exceed the bound, or whose plan differs
/// from [`synthesize`]'s.
pub fn check_linear_work(name: &str, pattern: &KeyPattern, family: Family) -> Result<Plan, String> {
    let (plan, stats) = synthesize_with_stats(pattern, family);
    let len = pattern.max_len() as u64;
    if stats.nodes_expanded > len || stats.candidates_rejected > len {
        return Err(format!(
            "{name} {family}: {stats:?} exceeds one step per byte of a {len}-byte pattern"
        ));
    }
    if plan != synthesize(pattern, family) {
        return Err(format!(
            "{name} {family}: synthesize_with_stats diverged from synthesize"
        ));
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_core::regex::Regex;

    fn pattern(re: &str) -> KeyPattern {
        Regex::compile(re).expect("test regex compiles")
    }

    #[test]
    fn min_cover_counts_clamped_loads() {
        // 20 bytes: 0..8, 8..16, and a clamped 12..20.
        let all: Vec<usize> = (0..20).collect();
        assert_eq!(min_cover_loads(&all, 20, 8), 3);
        // Two targets one load apart share a load.
        assert_eq!(min_cover_loads(&[0, 7], 16, 8), 1);
        assert_eq!(min_cover_loads(&[0, 8], 16, 8), 2);
        // Gaps cost nothing: 0..8 takes 0 and 5, 9..17 takes 9 and 14,
        // and 23 and 31 are a full load apart.
        assert_eq!(min_cover_loads(&[0, 5, 9, 14, 23, 31], 40, 8), 4);
        assert_eq!(min_cover_loads(&[], 40, 8), 0);
    }

    #[test]
    fn paper_style_plans_are_minimal() {
        for re in [
            r"[0-9]{3}-[0-9]{2}-[0-9]{4}",
            r"[0-9]{100}",
            r"https://www\.[a-z]{8}\.com/[a-z0-9]{12}",
            r"key_[0-9]{4,16}",
            r"\d{4}",
        ] {
            let checked = check_minimal_cover(re, &pattern(re)).expect("minimal cover");
            assert_eq!(checked, Family::ALL.len());
        }
    }
}
