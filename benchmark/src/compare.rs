//! `sepe-bench compare <dir-a> <dir-b>`: per (workload, end-to-end
//! metric), each side's median and quartiles over its untraced result
//! files, the change in the median, and a verdict against the metric's
//! bound in `BENCHMARK.json`. Also checks that every exact count repeats.

use crate::json::Json;
use crate::measure::median;
use crate::WORKLOADS;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method), so spreads read the same here
/// as in any script that checks them.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        return [d.first().copied().unwrap_or(f64::NAN); 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    out
}

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds() -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json in the current directory: {e}"))?;
    let spec = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Arr(items)) = spec.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    items
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Json::as_str).map(str::to_owned);
            Ok(Bound {
                name: s("name").ok_or("metric without a name")?,
                unit: s("unit").ok_or("metric without a unit")?,
                lower_is_better: s("better").as_deref() == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Untraced result files in `dir`, by workload.
fn load(dir: &str) -> Result<BTreeMap<String, Vec<Json>>, String> {
    let mut by_workload: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {dir}: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("reading {dir}: {e}"))?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let r = Json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        if r.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let w = r
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned();
        by_workload.entry(w).or_default().push(r);
    }
    Ok(by_workload)
}

fn values(results: &[Json], metric: &str) -> Vec<f64> {
    results
        .iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: sepe-bench compare <dir-a> <dir-b>".into());
    };
    let bounds = bounds()?;
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    let mut ok = true;
    println!(
        "{:<13} {:<10} {:>5} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "median A", "median B", "IQR B", "delta", "bound"
    );
    for w in WORKLOADS {
        let (Some(ra), Some(rb)) = (runs_a.get(w), runs_b.get(w)) else {
            continue;
        };
        for m in &bounds {
            let (va, vb) = (values(ra, &m.name), values(rb, &m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<13} {:<10} missing", m.name);
                ok = false;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let spread = ((qa[2] - qa[0]) / ma).max((qb[2] - qb[0]) / mb);
            let delta = (mb - ma) / ma;
            let worse = if m.lower_is_better { delta } else { -delta };
            let verdict = if worse <= m.bound {
                "ok"
            } else if spread > m.bound {
                "unresolved (spread above bound)"
            } else {
                ok = false;
                "REGRESSION"
            };
            println!(
                "{w:<13} {:<10} {:>2}/{:<2} {:>14.4} {:>14.4} {:>14.4} {:>+7.2}% {:>5.0}%  {verdict}  [{}; A q1..q3 {:.4}..{:.4}, B q1..q3 {:.4}..{:.4}]",
                m.name,
                va.len(),
                vb.len(),
                ma,
                mb,
                qb[2] - qb[0],
                100.0 * delta,
                100.0 * m.bound,
                m.unit,
                qa[0],
                qa[2],
                qb[0],
                qb[2],
            );
        }
        let counts: Vec<String> = ra
            .iter()
            .chain(rb)
            .map(|r| r.get("counts").map_or_else(String::new, Json::to_string))
            .collect();
        if counts.iter().all(|c| *c == counts[0]) {
            println!(
                "{w:<13} counts     identical across {} runs: {}",
                counts.len(),
                counts[0]
            );
        } else {
            ok = false;
            println!("{w:<13} counts     DIFFER: {counts:?}");
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::{median, quartiles};

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), [1.5, 3.0, 4.5]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
