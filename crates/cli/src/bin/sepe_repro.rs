//! `sepe-repro` — regenerates the tables and figures of the paper's
//! evaluation section.
//!
//! ```text
//! sepe-repro table1                 # Table 1 at the default scale
//! sepe-repro --scale smoke all      # everything, fast
//! sepe-repro --scale paper fig13    # the paper's full counts (slow)
//! ```

use sepe_cli::repro;
use sepe_driver::analysis::RunScale;
use std::process::ExitCode;

const ARTIFACTS: [&str; 17] = [
    "table1",
    "table2",
    "table3",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "gradual",
    "significance",
    "avalanche",
    "bykey",
    "guard",
    "metrics",
];

fn scale_of(name: &str) -> Result<RunScale, String> {
    match name {
        "smoke" => Ok(RunScale::smoke()),
        "quick" => Ok(RunScale {
            affectations: 4000,
            samples: 1,
            ..RunScale::default()
        }),
        "default" => Ok(RunScale::default()),
        "paper" => Ok(RunScale {
            affectations: 10_000,
            samples: 10,
            ..RunScale::default()
        }),
        other => Err(format!(
            "unknown scale {other:?}; expected smoke|quick|default|paper"
        )),
    }
}

fn run(
    artifact: &str,
    scale: &RunScale,
    drift_threshold: f64,
    bundle: Option<&sepe_core::plan_io::SynthBundle>,
) -> Option<String> {
    let out = match artifact {
        "table1" => repro::table1(scale),
        "table2" => repro::table2(scale),
        "table3" => repro::table3(scale),
        "fig13" => repro::fig13(scale),
        "fig14" => repro::fig14(scale),
        "fig15" => repro::fig15(scale),
        "fig16" => repro::fig16(),
        "fig17" | "fig18" => repro::fig17_18(scale),
        "fig19" => repro::fig19(scale),
        "fig20" => repro::fig20(scale),
        "gradual" => repro::gradual(scale),
        "significance" => repro::significance(scale),
        "avalanche" => repro::avalanche(scale),
        "bykey" => repro::bykey(scale),
        "guard" => repro::guard(scale, drift_threshold, bundle),
        "metrics" => repro::metrics(scale),
        _ => return None,
    };
    Some(out)
}

fn main() -> ExitCode {
    let mut scale = RunScale::default();
    let mut artifacts: Vec<String> = Vec::new();
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut drift_threshold = 0.10;
    let mut plan_path: Option<String> = None;
    let mut check_metrics: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                eprintln!(
                    "usage: sepe-repro [--scale smoke|quick|default|paper] [--out DIR] \
                     [--drift-threshold T] [--plan FILE] [--check-metrics FILE] ARTIFACT...\n\
                     artifacts: {} | all",
                    ARTIFACTS.join(" | ")
                );
                return ExitCode::SUCCESS;
            }
            "--check-metrics" => {
                let v = match args.next() {
                    Some(v) => v,
                    None => {
                        eprintln!("sepe-repro: --check-metrics needs a file");
                        return ExitCode::FAILURE;
                    }
                };
                check_metrics = Some(v);
            }
            "--plan" => {
                let v = match args.next() {
                    Some(v) => v,
                    None => {
                        eprintln!("sepe-repro: --plan needs a file");
                        return ExitCode::FAILURE;
                    }
                };
                plan_path = Some(v);
            }
            "--drift-threshold" => {
                let v = match args.next() {
                    Some(v) => v,
                    None => {
                        eprintln!("sepe-repro: --drift-threshold needs a value");
                        return ExitCode::FAILURE;
                    }
                };
                drift_threshold = match v.parse::<f64>() {
                    Ok(t) if (0.0..=1.0).contains(&t) => t,
                    _ => {
                        eprintln!("sepe-repro: bad drift threshold {v:?}; expected 0..=1");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--out" | "-o" => {
                let v = match args.next() {
                    Some(v) => v,
                    None => {
                        eprintln!("sepe-repro: --out needs a directory");
                        return ExitCode::FAILURE;
                    }
                };
                out_dir = Some(std::path::PathBuf::from(v));
            }
            "--scale" | "-s" => {
                let v = match args.next() {
                    Some(v) => v,
                    None => {
                        eprintln!("sepe-repro: --scale needs a value");
                        return ExitCode::FAILURE;
                    }
                };
                scale = match scale_of(&v) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("sepe-repro: {e}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other => artifacts.push(other.to_owned()),
        }
    }
    // The snapshot trust boundary: a saved metrics file is re-parsed
    // through the strict `sepe-metrics/v1` parser. Any corruption —
    // malformed JSON, wrong schema, non-decimal values, bucket sums that
    // disagree with their count — is a typed error and a nonzero exit.
    if let Some(path) = &check_metrics {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sepe-repro: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match sepe_obs::Snapshot::parse(text.trim_end()) {
            Ok(snap) => {
                println!(
                    "{path}: valid {} snapshot ({} counters, {} gauges, {} histograms)",
                    sepe_obs::SCHEMA,
                    snap.counters.len(),
                    snap.gauges.len(),
                    snap.histograms.len()
                );
                if artifacts.is_empty() {
                    return ExitCode::SUCCESS;
                }
            }
            Err(e) => {
                eprintln!("sepe-repro: {path} is not a usable metrics snapshot: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if artifacts.is_empty() {
        eprintln!("sepe-repro: no artifact given; try `sepe-repro --scale quick all`");
        return ExitCode::FAILURE;
    }
    if artifacts.iter().any(|a| a == "all") {
        artifacts = ARTIFACTS.iter().map(|s| (*s).to_owned()).collect();
        // fig17 and fig18 print together.
        artifacts.retain(|a| a != "fig18");
    }

    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("sepe-repro: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    // The plan trust boundary: a bundle is version-checked, checksummed and
    // semantically validated here, before any artifact evaluates a hash
    // with it. A corrupted or hostile file is a typed error and a nonzero
    // exit, never a panic and never a loaded plan.
    let bundle = match &plan_path {
        None => None,
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("sepe-repro: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match sepe_core::plan_io::bundle_from_str(&text) {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("sepe-repro: {path} is not a usable synthesis bundle: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    for artifact in &artifacts {
        match run(artifact, &scale, drift_threshold, bundle.as_ref()) {
            Some(out) => {
                println!("{out}");
                if let Some(dir) = &out_dir {
                    let path = dir.join(format!("{artifact}.txt"));
                    if let Err(e) = std::fs::write(&path, &out) {
                        eprintln!("sepe-repro: cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            None => {
                eprintln!("sepe-repro: unknown artifact {artifact:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
