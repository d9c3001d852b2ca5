//! `sepe-bench`: the end-to-end and per-layer benchmark of the SEPE
//! serving stack. See `README.md` for the workloads, the metrics and how
//! to run it.
//!
//! ```text
//! sepe-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! sepe-bench compare <dir-a> <dir-b>
//! sepe-bench ladder --seed <n> [--smoke]
//! ```

mod compare;
mod drift_attack;
mod flow_churn;
mod hash_stream;
mod inputs;
mod json;
mod ladder;
mod measure;
mod serve_mixed;
mod stack;
mod trace;

use json::Json;
use measure::{calibration_ms, machine_record, median, peak_rss_mb, LatencyHist, TAIL_QS};
use stack::{Cfg, Run};
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

pub const WORKLOADS: [&str; 4] = ["hash-stream", "serve-mixed", "flow-churn", "drift-attack"];

/// Names the `obs`-off build of this binary; set by `run.sh`.
const OBS_OFF_ENV: &str = "SEPE_BENCH_OBS_OFF";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: "benchmark/out".to_owned(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => a.out = value()?.clone(),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            a.workload
        ));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("ladder") => ladder_main(&args[1..]),
        _ => parse_args(&args).and_then(|a| run_main(&a)),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sepe-bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The `obs`-off half of the traced run: prints the ladder as JSON.
fn ladder_main(args: &[String]) -> Result<ExitCode, String> {
    let mut seed = 1;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    println!("{}", ladder::run(seed, smoke).0);
    Ok(ExitCode::SUCCESS)
}

/// Runs the `obs`-off build's ladder and waits for it.
fn obs_off_ladder(seed: u64, smoke: bool) -> Result<Json, String> {
    let bin = std::env::var(OBS_OFF_ENV)
        .map_err(|_| format!("{OBS_OFF_ENV} must name the obs-off build (run.sh sets it)"))?;
    let mut cmd = std::process::Command::new(&bin);
    cmd.args(["ladder", "--seed", &seed.to_string()]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("running {bin}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{bin} ladder failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Json::parse(text.lines().last().unwrap_or("")).map_err(|e| format!("{bin} ladder output: {e}"))
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn field(j: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(j, |j, k| j.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Latency histograms of the program and of the reference, all clients.
fn histograms(run: &Run) -> (LatencyHist, LatencyHist) {
    let (mut prog, mut reference) = (LatencyHist::default(), LatencyHist::default());
    for c in &run.clients {
        let (p, r) = c.all_latencies();
        prog.merge(&p);
        reference.merge(&r);
    }
    (prog, reference)
}

/// Raw throughput and latency of the program and of the reference: what
/// the ratios are made of, kept in the result file.
fn raw_metrics(run: &Run) -> Vec<Metric> {
    let (prog, reference) = histograms(run);
    let rates = |f: fn(&measure::ClientLog) -> &Vec<f64>| -> f64 {
        run.clients.iter().map(|c| median(f(c))).sum()
    };
    vec![
        m("ops_per_s", "1/s", rates(|c| &c.window_rates)),
        m("op_p50_ns", "ns", prog.quantile(0.50)),
        m("op_p99_ns", "ns", prog.quantile(0.99)),
        m("std_ops_per_s", "1/s", rates(|c| &c.ref_rates)),
        m("std_op_p50_ns", "ns", reference.quantile(0.50)),
        m("std_op_p99_ns", "ns", reference.quantile(0.99)),
    ]
}

/// The end-to-end metrics of an untraced run. Throughput and latency are
/// ratios to the `std` reference serving the same ops in alternation with
/// the program (see `measure::ClientLog`), medians over windows.
fn end_to_end(run: &Run, peak_mb: f64) -> Vec<Metric> {
    let ratios: Vec<f64> = run.clients.iter().flat_map(|c| c.window_ratios()).collect();
    // Short runs may close no tail window; then the whole run is one.
    let (prog, reference) = histograms(run);
    let tail = |i: usize| {
        let t: Vec<f64> = run
            .clients
            .iter()
            .flat_map(|c| c.tail_ratios.iter().map(|r| r[i]))
            .collect();
        if t.is_empty() {
            prog.quantile(TAIL_QS[i]) / reference.quantile(TAIL_QS[i])
        } else {
            median(&t)
        }
    };
    vec![
        m("throughput_vs_std", "x", median(&ratios)),
        m("p50_vs_std", "x", tail(0)),
        m("p99_vs_std", "x", tail(1)),
        m("setup_s", "s", median(&run.setup_s)),
        m("mem_mb", "MB", peak_mb),
    ]
}

/// The per-layer metrics of a traced run: the workload's own spans and
/// counts, and the ladder in this build and in the `obs`-off build.
fn per_layer(run: &Run, on: &Json, off: &Json, ladder_ticks: &[f64], timed_ns: f64) -> Vec<Metric> {
    let s = |j: &Json, k: &str| field(j, &["serve", k]);
    let f = |j: &Json, k: &str| field(j, &["flow", k]);
    // Workloads without ticks of their own report the ladder's.
    let ticks = if run.tick_ns.is_empty() {
        ladder_ticks
    } else {
        &run.tick_ns
    };
    let traced_ops: u64 = run.clients.iter().map(|c| c.traced_ops).sum();
    let allocs = run.clients.iter().fold((0, 0), |a, c| {
        (a.0 + c.traced_allocs.0, a.1 + c.traced_allocs.1)
    });
    let overhead: f64 = run.clients.iter().map(|c| c.rate(true)).sum::<f64>()
        / run.clients.iter().map(|c| c.rate(false)).sum::<f64>();
    let t = &run.transitions;
    let c = &run.census;
    vec![
        m("synth.calls", "count", run.synth_ns.len() as f64),
        m("synth.us_p50", "us", median(&run.synth_ns) / 1e3),
        m("synth.us_max", "us", max(&run.synth_ns) / 1e3),
        m("hash.ns_per_key", "ns", s(on, "hash")),
        m("hash.batch_ns_per_key", "ns", s(on, "hash_batch")),
        m("guard.self_ns", "ns", s(on, "guard") - s(on, "hash")),
        m(
            "guard.off_format_share",
            "share",
            ratio(run.guard.1, run.guard.0 + run.guard.1),
        ),
        m("table.self_ns", "ns", s(on, "table") - s(on, "hash")),
        m("table.flow_self_ns", "ns", f(on, "table") - f(on, "hash")),
        m("table.bucket_collisions", "count", c.collisions as f64),
        m("table.max_chain", "count", c.max_chain as f64),
        m("table.load_factor", "ratio", c.load_factor()),
        m("table.stale_reads", "count", c.stale_reads as f64),
        m(
            "table.migrating_op_share",
            "share",
            ratio(run.migrating.0, run.migrating.1),
        ),
        m("map.tick_us_p50", "us", median(ticks) / 1e3),
        m("map.tick_us_max", "us", max(ticks) / 1e3),
        m(
            "map.tick_share",
            "share",
            run.tick_ns.iter().fold(0.0, |a, b| a + b) / timed_ns,
        ),
        m("map.degrades", "count", t.degrades as f64),
        m("map.escalations", "count", t.escalations as f64),
        m("map.deescalations", "count", t.deescalations as f64),
        m("map.rotations", "count", t.rotations as f64),
        m("map.resynths", "count", t.resynths as f64),
        m("map.recover_ops", "count", run.recover_ops as f64),
        m("sharded.self_ns", "ns", s(on, "sharded") - s(on, "map")),
        m(
            "sharded.flow_self_ns",
            "ns",
            f(on, "sharded") - f(on, "map"),
        ),
        m("obs.self_ns", "ns", s(on, "map") - s(off, "map")),
        m(
            "obs.flow_self_ns",
            "ns",
            f(on, "sharded") - f(off, "sharded"),
        ),
        m(
            "obs.transition_diff",
            "count",
            field(on, &["drift_transitions"]) - field(off, &["drift_transitions"]),
        ),
        m("alloc.calls_per_op", "count", ratio(allocs.0, traced_ops)),
        m("alloc.bytes_per_op", "B", ratio(allocs.1, traced_ops)),
        m("trace.overhead", "ratio", overhead),
    ]
}

fn metrics_json(metrics: &[Metric]) -> Json {
    let mut j = Json::obj();
    for x in metrics {
        let mut v = Json::obj();
        v.set("value", x.value);
        v.set("unit", x.unit);
        j.set(x.name, v);
    }
    j
}

fn run_main(a: &Args) -> Result<ExitCode, String> {
    let cfg = Cfg {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        smoke: a.smoke,
        epoch: Instant::now(),
    };
    let machine = machine_record();
    let calibration_before = calibration_ms();
    let wall = Instant::now();
    let run = match a.workload.as_str() {
        "hash-stream" => hash_stream::run(&cfg),
        "serve-mixed" => serve_mixed::run(&cfg),
        "flow-churn" => flow_churn::run(&cfg),
        _ => drift_attack::run(&cfg),
    };
    let peak_mb = peak_rss_mb();
    let calibration_after = calibration_ms();

    let (hist, _) = histograms(&run);
    let metrics = if a.trace {
        let (on, ladder_ticks) = ladder::run(cfg.seed, cfg.smoke);
        let off = obs_off_ladder(cfg.seed, cfg.smoke)?;
        per_layer(&run, &on, &off, &ladder_ticks, timed_ns_of(&run))
    } else {
        end_to_end(&run, peak_mb)
    };

    let attempted = run.ops();
    let failed = run.failed();
    let ref_failed: u64 = run.clients.iter().map(|c| c.ref_failed).sum();
    let mut violations = run.violations.clone();
    if ref_failed > 0 {
        violations.push(format!(
            "the std reference returned {ref_failed} wrong results"
        ));
    }
    let correct = failed == 0 && violations.is_empty() && attempted > 0;

    // Human-readable report first; the JSON result is the last line.
    println!(
        "{} seed {} trace {}: {} ops, {} failed, {} latency samples, setup x{}, inputs {:.1} MB, peak RSS {:.1} MB, calibration {:.3} -> {:.3} ms",
        a.workload,
        a.seed,
        u8::from(a.trace),
        attempted,
        failed,
        hist.samples,
        run.setup_s.len(),
        run.inputs_mb,
        peak_mb,
        calibration_before,
        calibration_after
    );
    let raw = if a.trace {
        Vec::new()
    } else {
        raw_metrics(&run)
    };
    for x in metrics.iter().chain(&raw) {
        println!("  {:<28} {:>16.4} {}", x.name, x.value, x.unit);
    }
    for v in &violations {
        println!("  VIOLATION: {v}");
    }

    let mut result = Json::obj();
    result.set("correct", correct);
    result.set("attempted", attempted);
    result.set("failed", failed);
    result.set("metrics", metrics_json(&metrics));

    // The result file: the result plus what a reader needs to tell the
    // machine's drift from the code's.
    let mut r = Json::obj();
    r.set("workload", a.workload.as_str());
    r.set("seed", a.seed);
    r.set("trace", a.trace);
    r.set("smoke", a.smoke);
    r.set("seconds", a.seconds);
    r.set("machine", machine);
    let mut cal = Json::obj();
    cal.set("before_ms", calibration_before);
    cal.set("after_ms", calibration_after);
    r.set("calibration", cal);
    for (k, v) in result.entries() {
        r.set(k, v.clone());
    }
    r.set("error_rate", ratio(failed, attempted));
    r.set("raw", metrics_json(&raw));
    r.set("latency_samples", hist.samples);
    r.set(
        "window_rates",
        Json::Arr(
            run.clients
                .iter()
                .map(|c| Json::Arr(c.window_rates.iter().map(|&x| Json::from(x)).collect()))
                .collect(),
        ),
    );
    r.set(
        "window_ratios",
        Json::Arr(
            run.clients
                .iter()
                .flat_map(|c| c.window_ratios())
                .map(Json::from)
                .collect(),
        ),
    );
    r.set("timed_s", timed_ns_of(&run) / 1e9);
    r.set("wall_s", wall.elapsed().as_secs_f64());
    r.set("inputs_mb", run.inputs_mb);
    let mut counts = Json::obj();
    for (k, v) in &run.fingerprint {
        counts.set(k, *v);
    }
    r.set("counts", counts);
    let mut self_ns = Json::obj();
    for (name, ns, n) in trace::self_times(run.tracers.iter().flat_map(|t| t.spans())) {
        let mut e = Json::obj();
        e.set("self_ns", ns);
        e.set("spans", n);
        self_ns.set(name, e);
    }
    r.set("span_self_ns", self_ns);
    r.set(
        "spans_dropped",
        run.tracers.iter().map(|t| t.dropped).sum::<u64>(),
    );
    r.set(
        "violations",
        Json::Arr(violations.iter().map(|v| Json::from(v.as_str())).collect()),
    );
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let name = format!(
        "{}-seed{}-trace{}-{stamp}-{}.json",
        a.workload,
        a.seed,
        u8::from(a.trace),
        std::process::id()
    );
    write_file(&std::path::Path::new(&a.out).join("results"), &name, |w| {
        writeln!(w, "{r}")
    })?;
    if a.trace {
        write_file(
            std::path::Path::new(&a.out),
            &format!("trace-{}.json", a.workload),
            |w| {
                w.write_all(b"{\"traceEvents\": [\n")?;
                let mut first = true;
                for t in &run.tracers {
                    t.write_events(w, &mut first)?;
                }
                w.write_all(b"\n]}\n")
            },
        )?;
    }
    println!("{result}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Wall time of the program's windows, ns: the longest client's.
fn timed_ns_of(run: &Run) -> f64 {
    run.clients
        .iter()
        .map(|c| c.timed_ns as f64)
        .fold(0.0, f64::max)
}

/// Creates `dir` and writes `dir/name` through `body`, flushing it.
fn write_file(
    dir: &std::path::Path,
    name: &str,
    body: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let path = dir.join(name);
    let err = |e: std::io::Error| format!("writing {}: {e}", path.display());
    std::fs::create_dir_all(dir).map_err(err)?;
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path).map_err(err)?);
    body(&mut w).map_err(err)?;
    w.flush().map_err(err)
}
