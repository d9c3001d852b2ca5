//! # sepe-cli
//!
//! The command-line surface of the reproduction:
//!
//! * `keybuilder` — reads example keys from stdin and prints the inferred
//!   regular expression (Figure 5a);
//! * `keysynth` — takes a regular expression and prints the synthesized
//!   hash-function source (Figure 5b/5c);
//! * `sepe-repro` — regenerates every table and figure of the paper's
//!   evaluation section.
//!
//! The table/figure generators live here (rather than in the binaries) so
//! they are unit-testable and reusable.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod repro;

use sepe_core::synth::Family;
use std::fmt;

/// A diagnostic error carried out of a CLI binary: the message the binary
/// prints (prefixed with its own name) before exiting nonzero.
///
/// Built either directly from a message or by attaching context to an
/// underlying error via the [`Context`] extension trait, anyhow-style:
/// `std::fs::read_to_string(p).context(format!("cannot read {p}"))` renders
/// as `cannot read FILE: No such file or directory`.
#[derive(Debug)]
pub struct CliError(String);

impl CliError {
    /// Wraps a plain diagnostic message.
    #[must_use]
    pub fn msg(message: impl Into<String>) -> Self {
        CliError(message.into())
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError(message.to_owned())
    }
}

/// Extension trait attaching human-readable context to fallible operations
/// on user-input paths, so binaries report `context: cause` and exit
/// nonzero instead of panicking.
pub trait Context<T> {
    /// Converts the error to a [`CliError`] prefixed with `context`.
    ///
    /// # Errors
    ///
    /// Forwards the original error, rendered as `context: cause`.
    fn context(self, context: impl fmt::Display) -> Result<T, CliError>;

    /// Like [`Context::context`], but builds the context lazily.
    ///
    /// # Errors
    ///
    /// Forwards the original error, rendered as `context: cause`.
    fn with_context<C: fmt::Display>(self, f: impl FnOnce() -> C) -> Result<T, CliError>;
}

impl<T, E: fmt::Display> Context<T> for Result<T, E> {
    fn context(self, context: impl fmt::Display) -> Result<T, CliError> {
        self.map_err(|e| CliError(format!("{context}: {e}")))
    }

    fn with_context<C: fmt::Display>(self, f: impl FnOnce() -> C) -> Result<T, CliError> {
        self.map_err(|e| CliError(format!("{}: {e}", f())))
    }
}

/// Parses a `--family` argument.
///
/// # Errors
///
/// Returns a message listing the accepted names when `s` is not one.
pub fn parse_family(s: &str) -> Result<Family, String> {
    match s.to_ascii_lowercase().as_str() {
        "naive" => Ok(Family::Naive),
        "offxor" => Ok(Family::OffXor),
        "aes" => Ok(Family::Aes),
        "pext" => Ok(Family::Pext),
        other => Err(format!(
            "unknown family {other:?}; expected one of: naive, offxor, aes, pext"
        )),
    }
}

/// Parses a `--lang` argument.
///
/// # Errors
///
/// Returns a message listing the accepted names when `s` is not one.
pub fn parse_language(s: &str) -> Result<sepe_core::codegen::Language, String> {
    match s.to_ascii_lowercase().as_str() {
        "cpp" | "c++" | "cxx" => Ok(sepe_core::codegen::Language::Cpp),
        "cpp-arm" | "cpp-aarch64" | "arm" | "aarch64" => {
            Ok(sepe_core::codegen::Language::CppAarch64)
        }
        "rust" | "rs" => Ok(sepe_core::codegen::Language::Rust),
        other => Err(format!(
            "unknown language {other:?}; expected cpp, cpp-arm or rust"
        )),
    }
}

/// Renders a human-readable analysis of a synthesized plan: what the
/// pattern looks like, which loads/masks the function performs, and whether
/// the extraction is a provable bijection. Backs `keysynth --explain`.
#[must_use]
pub fn explain_plan(
    pattern: &sepe_core::KeyPattern,
    family: Family,
    plan: &sepe_core::Plan,
) -> String {
    use sepe_core::Plan;
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(out, "family: {family}");
    let _ = writeln!(
        out,
        "format: {} byte(s){}, {} variable bit(s), {} constant run(s)",
        pattern.max_len(),
        if pattern.is_fixed_len() {
            String::from(" fixed")
        } else {
            format!(" (min {})", pattern.min_len())
        },
        pattern.variable_bits(),
        pattern.constant_runs().len()
    );
    match plan {
        Plan::StlFallback => {
            let _ = writeln!(
                out,
                "plan:   STL fallback (formats under 8 bytes are not specialized)"
            );
        }
        Plan::FixedWords { ops, .. } | Plan::VarWords { ops, .. } => {
            let _ = writeln!(out, "plan:   {} unrolled 8-byte load(s)", ops.len());
            for (i, op) in ops.iter().enumerate() {
                if family == Family::Pext {
                    let _ = writeln!(
                        out,
                        "  load {i}: offset {:>3}, mask {:#018x} ({} bits), shift {}",
                        op.offset,
                        op.mask,
                        op.mask.count_ones(),
                        op.shift
                    );
                } else {
                    let _ = writeln!(out, "  load {i}: offset {:>3}", op.offset);
                }
            }
            if let Plan::VarWords { tail_start, .. } = plan {
                let _ = writeln!(out, "  tail:   byte loop from offset {tail_start}");
            }
            match plan.bijection_bits() {
                Some(bits) if plan.injective_over(Family::Pext, pattern) => {
                    let _ = writeln!(
                        out,
                        "bijection: yes — distinct format keys map to distinct {bits}-bit values"
                    );
                }
                _ => {
                    let _ = writeln!(out, "bijection: no guarantee");
                }
            }
        }
        Plan::FixedBlocks { offsets, .. } | Plan::VarBlocks { offsets, .. } => {
            if offsets.is_empty() {
                let _ = writeln!(out, "plan:   one AES round over the replicated key block");
            } else {
                let _ = writeln!(
                    out,
                    "plan:   {} AES round(s) over 16-byte blocks at {:?}",
                    offsets.len(),
                    offsets
                );
            }
            if let Plan::VarBlocks { tail_start, .. } = plan {
                let _ = writeln!(out, "  tail:   block loop from offset {tail_start}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_reports_bijection_and_loads() {
        let pattern = sepe_core::regex::Regex::compile(r"\d{3}-\d{2}-\d{4}").expect("compiles");
        let plan = sepe_core::synthesize(&pattern, Family::Pext);
        let text = explain_plan(&pattern, Family::Pext, &plan);
        assert!(text.contains("36 variable bit(s)"), "{text}");
        assert!(text.contains("bijection: yes"), "{text}");
        assert!(text.contains("mask 0x0f000f0f000f0f0f"), "{text}");
    }

    #[test]
    fn explain_reports_fallback() {
        let pattern = sepe_core::regex::Regex::compile(r"\d{4}").expect("compiles");
        let plan = sepe_core::synthesize(&pattern, Family::OffXor);
        let text = explain_plan(&pattern, Family::OffXor, &plan);
        assert!(text.contains("STL fallback"), "{text}");
    }

    #[test]
    fn explain_reports_aes_blocks() {
        let pattern =
            sepe_core::regex::Regex::compile(r"([0-9a-f]{4}:){7}[0-9a-f]{4}").expect("compiles");
        let plan = sepe_core::synthesize(&pattern, Family::Aes);
        let text = explain_plan(&pattern, Family::Aes, &plan);
        assert!(text.contains("AES round"), "{text}");
    }

    #[test]
    fn families_parse_case_insensitively() {
        assert_eq!(parse_family("PEXT").unwrap(), Family::Pext);
        assert_eq!(parse_family("OffXor").unwrap(), Family::OffXor);
        assert!(parse_family("md5").is_err());
    }

    #[test]
    fn languages_parse() {
        assert!(parse_language("cpp").is_ok());
        assert!(parse_language("rust").is_ok());
        assert!(parse_language("fortran").is_err());
    }

    #[test]
    fn context_chains_render_cause_after_context() {
        let err: Result<(), _> = Err("No such file or directory");
        let chained = err.context("cannot read keys.txt").unwrap_err();
        assert_eq!(
            chained.to_string(),
            "cannot read keys.txt: No such file or directory"
        );
        let lazy: Result<(), _> = Err("bad digit");
        let chained = lazy.with_context(|| format!("line {}", 3)).unwrap_err();
        assert_eq!(chained.to_string(), "line 3: bad digit");
    }
}
