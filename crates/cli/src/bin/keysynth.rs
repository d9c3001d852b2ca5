//! `keysynth` — synthesizes specialized hash functions from a regular
//! expression (Figure 5b of the paper) and prints their source code.
//!
//! ```text
//! keysynth '(([0-9]{3})\.){3}[0-9]{3}'                 # all four families, C++
//! keysynth --family pext --lang rust '\d{3}-\d{2}-\d{4}'
//! keysynth --family pext --emit-plan '\d{16}' > plan.json
//! keysynth --plan plan.json --lang rust               # re-emit without re-synthesis
//! ```

use sepe_cli::{parse_family, parse_language, CliError, Context as _};
use sepe_core::codegen::{emit, Language};
use sepe_core::plan_io::{bundle_from_str, bundle_to_string, SynthBundle};
use sepe_core::regex::Regex;
use sepe_core::synth::{synthesize, Family, Plan};
use sepe_core::KeyPattern;
use std::process::ExitCode;

struct Options {
    families: Vec<Family>,
    language: Language,
    name: Option<String>,
    explain: bool,
    emit_plan: bool,
    plan_path: Option<String>,
    regex: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut families = Vec::new();
    let mut language = Language::Cpp;
    let mut name = None;
    let mut explain = false;
    let mut emit_plan = false;
    let mut plan_path = None;
    let mut regex = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                return Err(String::new());
            }
            "--family" | "-f" => {
                let v = args.next().ok_or("--family needs a value")?;
                families.push(parse_family(&v)?);
            }
            "--lang" | "-l" => {
                let v = args.next().ok_or("--lang needs a value")?;
                language = parse_language(&v)?;
            }
            "--name" | "-n" => {
                name = Some(args.next().ok_or("--name needs a value")?);
            }
            "--explain" | "-e" => {
                explain = true;
            }
            "--emit-plan" => {
                emit_plan = true;
            }
            "--plan" | "-p" => {
                plan_path = Some(args.next().ok_or("--plan needs a file path")?);
            }
            other if regex.is_none() && !other.starts_with('-') => {
                regex = Some(other.to_owned());
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if families.is_empty() {
        families = Family::ALL.to_vec();
    }
    if plan_path.is_none() && regex.is_none() {
        return Err("missing the key-format regular expression".to_owned());
    }
    if plan_path.is_some() && regex.is_some() {
        return Err("--plan replaces the regular expression; give one or the other".to_owned());
    }
    Ok(Options {
        families,
        language,
        name,
        explain,
        emit_plan,
        plan_path,
        regex,
    })
}

/// Renders one synthesized plan according to the output options.
fn render(opts: &Options, pattern: &KeyPattern, family: Family, plan: &Plan) {
    if opts.emit_plan {
        let bundle = SynthBundle {
            pattern: pattern.clone(),
            family,
            plan: plan.clone(),
        };
        println!("{}", bundle_to_string(&bundle));
        return;
    }
    if opts.explain {
        println!("{}", sepe_cli::explain_plan(pattern, family, plan));
        return;
    }
    let default_name = match opts.language {
        Language::Cpp | Language::CppAarch64 => format!("Synthesized{family}Hash"),
        Language::Rust => format!("synthesized_{}_hash", family.name().to_lowercase()),
    };
    let name = opts.name.clone().unwrap_or(default_name);
    println!("{}", emit(plan, family, opts.language, &name));
}

fn run(opts: &Options) -> Result<(), CliError> {
    if let Some(path) = &opts.plan_path {
        let text =
            std::fs::read_to_string(path).with_context(|| format!("cannot read plan {path}"))?;
        let bundle =
            bundle_from_str(&text).with_context(|| format!("{path} is not a synthesis bundle"))?;
        render(opts, &bundle.pattern, bundle.family, &bundle.plan);
        return Ok(());
    }
    let regex = opts.regex.as_deref().unwrap_or_default();
    let pattern = Regex::compile(regex).context("bad regular expression")?;
    for family in &opts.families {
        render(opts, &pattern, *family, &synthesize(&pattern, *family));
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("keysynth: {msg}");
            }
            eprintln!(
                "usage: keysynth [--family naive|offxor|aes|pext]... \
                 [--lang cpp|rust] [--name NAME] [--explain] [--emit-plan] \
                 (REGEX | --plan FILE)"
            );
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("keysynth: {e}");
            ExitCode::FAILURE
        }
    }
}
