//! End-to-end tests of the command-line binaries, including the composed
//! `keysynth "$(keybuilder < keys)"` workflow of Figure 5a.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn keybuilder() -> Command {
    Command::new(env!("CARGO_BIN_EXE_keybuilder"))
}

fn keysynth() -> Command {
    Command::new(env!("CARGO_BIN_EXE_keysynth"))
}

fn sepe_repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sepe-repro"))
}

fn run_with_stdin(mut cmd: Command, input: &str) -> (String, String, bool) {
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // A child that rejects its arguments exits before reading stdin; the
    // resulting BrokenPipe is expected, not a test failure.
    match child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(input.as_bytes())
    {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(e) => panic!("write stdin: {e}"),
    }
    let out = child.wait_with_output().expect("binary finishes");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn keybuilder_infers_ssn_regex() {
    let (stdout, _, ok) = run_with_stdin(keybuilder(), "000-00-0000\n555-55-5555\n");
    assert!(ok);
    assert_eq!(stdout.trim(), r"[0-9]{3}-[0-9]{2}-[0-9]{4}");
}

#[test]
fn keybuilder_rejects_empty_input() {
    let (_, stderr, ok) = run_with_stdin(keybuilder(), "");
    assert!(!ok);
    assert!(stderr.contains("zero example keys"), "{stderr}");
}

#[test]
fn keysynth_emits_all_four_families_by_default() {
    let out = keysynth()
        .arg(r"(([0-9]{3})\.){3}[0-9]{3}")
        .output()
        .expect("keysynth runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for family in ["Naive", "OffXor", "Aes", "Pext"] {
        assert!(
            stdout.contains(&format!("Synthesized{family}Hash")),
            "{family} missing"
        );
    }
}

#[test]
fn keysynth_rust_output_for_one_family() {
    let out = keysynth()
        .args([
            "--family", "offxor", "--lang", "rust", "--name", "my_hash", r"\d{16}",
        ])
        .output()
        .expect("keysynth runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pub fn my_hash(key: &[u8]) -> u64"));
    assert!(!stdout.contains("Pext"));
}

#[test]
fn keysynth_reports_regex_errors() {
    let out = keysynth().arg("a|b").output().expect("keysynth runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("alternation"), "{stderr}");
}

#[test]
fn keysynth_plan_round_trips_through_a_file() {
    let out = keysynth()
        .args(["--family", "pext", "--emit-plan", r"\d{16}"])
        .output()
        .expect("keysynth runs");
    assert!(out.status.success());
    let bundle = String::from_utf8_lossy(&out.stdout);
    assert!(bundle.contains("\"family\""), "{bundle}");

    let path = std::env::temp_dir().join(format!("keysynth-plan-{}.json", std::process::id()));
    std::fs::write(&path, bundle.trim()).expect("plan written");
    let out = keysynth()
        .args(["--lang", "rust", "--name", "replayed", "--plan"])
        .arg(&path)
        .output()
        .expect("keysynth runs");
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("pub fn replayed(key: &[u8]) -> u64"),
        "{stdout}"
    );
}

#[test]
fn keysynth_reports_unreadable_plan_files() {
    let out = keysynth()
        .args(["--plan", "/nonexistent/plan.json"])
        .output()
        .expect("keysynth runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read plan"), "{stderr}");
}

#[test]
fn keysynth_reports_malformed_plan_files() {
    let path = std::env::temp_dir().join(format!("keysynth-bad-plan-{}.json", std::process::id()));
    std::fs::write(&path, "{\"pattern\": 42}").expect("file written");
    let out = keysynth()
        .args(["--plan"])
        .arg(&path)
        .output()
        .expect("keysynth runs");
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not a synthesis bundle"), "{stderr}");
}

#[test]
fn figure_5a_pipeline_composes() {
    // keysynth "$(keybuilder < keys)"
    let (regex, _, ok) = run_with_stdin(keybuilder(), "000.000.000.000\n555.555.555.555\n");
    assert!(ok);
    let out = keysynth()
        .args(["--family", "pext", regex.trim()])
        .output()
        .expect("keysynth runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("_pext_u64"), "{stdout}");
}

#[test]
fn keybuilder_report_flags_thin_examples() {
    let mut cmd = keybuilder();
    cmd.arg("--report");
    let (stdout, stderr, ok) = run_with_stdin(cmd, "101\n121\n");
    assert!(ok);
    assert!(!stdout.trim().is_empty());
    assert!(stderr.contains("under-exercised"), "{stderr}");
}

#[test]
fn keybuilder_report_praises_good_examples() {
    let mut cmd = keybuilder();
    cmd.arg("--report");
    let (_, stderr, ok) =
        run_with_stdin(cmd, "000-00-0000\n555-55-5555\n912-83-1234\n384-67-6789\n");
    assert!(ok);
    assert!(stderr.contains("well exercised"), "{stderr}");
}

#[test]
fn sepe_repro_out_writes_artifact_files() {
    let dir = std::env::temp_dir().join(format!("sepe-repro-out-{}", std::process::id()));
    let out = sepe_repro()
        .args(["--scale", "smoke", "--out"])
        .arg(&dir)
        .arg("gradual")
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(dir.join("gradual.txt")).expect("artifact written");
    assert!(written.contains("Gradual specialization"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn keybench_reports_all_families_on_stdin_keys() {
    let keys: String = (0..256)
        .map(|i| format!("{:03}-{:02}-{:04}\n", i % 999, i % 97, i))
        .collect();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_keybench"));
    cmd.args(["--iterations", "2000"]);
    let (stdout, stderr, ok) = run_with_stdin(cmd, &keys);
    assert!(ok, "{stderr}");
    for row in [
        "sepe/Naive",
        "sepe/OffXor",
        "sepe/Aes",
        "sepe/Pext",
        "baseline/STL",
    ] {
        assert!(stdout.contains(row), "{row} missing from:\n{stdout}");
    }
    assert!(stdout.contains("Pext bijection possible"), "{stdout}");
}

#[test]
fn keybench_guard_reports_guarded_rows_and_drift_transition() {
    let keys: String = (0..256)
        .map(|i| format!("{:03}-{:02}-{:04}\n", i % 999, i % 97, i))
        .collect();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_keybench"));
    cmd.args([
        "--iterations",
        "2000",
        "--guard",
        "--drift-threshold",
        "0.1",
    ]);
    let (stdout, stderr, ok) = run_with_stdin(cmd, &keys);
    assert!(ok, "{stderr}");
    for row in ["sepe/Naive+guard", "sepe/OffXor+guard", "sepe/Pext+guard"] {
        assert!(stdout.contains(row), "{row} missing from:\n{stdout}");
    }
    assert!(stdout.contains("guard drift:"), "{stdout}");
    assert!(stdout.contains("drift window tripped after"), "{stdout}");
    assert!(stdout.contains("in the tripping window"), "{stdout}");
    assert!(
        stdout.contains("guarded route held, mode Guarded, epoch none"),
        "{stdout}"
    );
    assert!(!stdout.contains("Degraded"), "{stdout}");
}

#[test]
fn sepe_repro_guard_artifact_shows_the_state_machine() {
    let out = sepe_repro()
        .args(["--scale", "smoke", "--drift-threshold", "0.2", "guard"])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Format-drift trip"), "{stdout}");
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains('%') && !l.starts_with("Format"))
        .collect();
    assert!(!rows.is_empty(), "{stdout}");
    for row in rows {
        assert!(!row.contains("never"), "{row}");
        assert!(row.contains("Guarded") && row.ends_with("none"), "{row}");
    }
    assert!(!stdout.contains("Degraded"), "{stdout}");
}

#[test]
fn keybench_rejects_empty_input() {
    let (_, stderr, ok) = run_with_stdin(Command::new(env!("CARGO_BIN_EXE_keybench")), "\n\n");
    assert!(!ok);
    assert!(stderr.contains("no keys"), "{stderr}");

    // The report modes that moved to the serving-stack benchmark and
    // `sepe-repro` are unknown flags now, and the usage names none of them.
    let removed: [&[&str]; 7] = [
        &["--batch", "8"],
        &["--churn", "10"],
        &["--threads", "2"],
        &["--resynth"],
        &["--metrics"],
        &["--adversarial"],
        &["--synth"],
    ];
    for args in removed {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_keybench"));
        cmd.args(args);
        let (_, stderr, ok) = run_with_stdin(cmd, "000-00-0000\n");
        assert!(!ok, "{args:?} was accepted");
        assert!(stderr.contains("unexpected argument"), "{args:?}: {stderr}");
        let usage = stderr
            .lines()
            .find(|l| l.starts_with("usage:"))
            .expect("usage");
        assert!(!usage.contains(args[0]), "{usage}");
    }
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_keybench"));
    cmd.arg("--help");
    let (_, stderr, ok) = run_with_stdin(cmd, "");
    assert!(ok, "{stderr}");
    for flag in ["--iterations", "--guard", "--drift-threshold", "FILE"] {
        assert!(stderr.contains(flag), "{flag} missing from: {stderr}");
    }
}

#[test]
fn sepe_repro_lists_usage_and_rejects_unknowns() {
    let out = sepe_repro().arg("--help").output().expect("repro runs");
    assert!(out.status.success());
    let usage = String::from_utf8_lossy(&out.stderr);
    assert!(usage.contains("table1"));

    // `bench-json` was an artifact until its pipeline was folded into the
    // serving-stack benchmark; it is unknown now, like any other name.
    for artifact in ["nosuch", "bench-json"] {
        let out = sepe_repro()
            .args(["--scale", "smoke", artifact])
            .output()
            .expect("repro runs");
        assert!(!out.status.success(), "{artifact} was accepted");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown artifact"),
            "{artifact}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn sepe_repro_smoke_gradual_runs() {
    let out = sepe_repro()
        .args(["--scale", "smoke", "gradual"])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Gradual specialization"));
    assert!(stdout.contains("OffXor"));
}

/// The corrupted-plan fixtures, each with the typed error its corruption
/// must produce. Paths are relative to the crate root. A checksum with a
/// redundant leading zero is not a `u64` spelling the codec reads, so it
/// is malformed rather than mismatched.
const CORRUPTED_PLAN_FIXTURES: [(&str, &str); 5] = [
    ("plan_truncated.json", "malformed plan"),
    ("plan_noncanonical_checksum.json", "malformed plan"),
    (
        "plan_wrong_version.json",
        "plan schema version 1 is not supported",
    ),
    ("plan_bad_checksum.json", "plan checksum mismatch"),
    ("plan_oob_offset.json", "reads past the 11-byte key"),
];

fn fixture_path(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn keysynth_rejects_every_corrupted_plan_fixture_with_a_typed_error() {
    for (name, needle) in CORRUPTED_PLAN_FIXTURES {
        let out = keysynth()
            .args(["--plan", &fixture_path(name), "--lang", "rust"])
            .output()
            .expect("keysynth runs");
        assert!(!out.status.success(), "{name}: corrupted plan was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "{name}: expected {needle:?} in stderr, got: {stderr}"
        );
        // Typed rejection, not a crash: the binary exits via its error
        // path, so stdout carries no generated code.
        assert!(
            !stderr.contains("panicked"),
            "{name}: the binary panicked: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name}: code was emitted anyway");
    }
}

#[test]
fn sepe_repro_guard_rejects_every_corrupted_plan_fixture() {
    for (name, needle) in CORRUPTED_PLAN_FIXTURES {
        let out = sepe_repro()
            .args(["--scale", "smoke", "--plan", &fixture_path(name), "guard"])
            .output()
            .expect("repro runs");
        assert!(!out.status.success(), "{name}: corrupted plan was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("is not a usable synthesis bundle") && stderr.contains(needle),
            "{name}: expected typed rejection with {needle:?}, got: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{name}: the binary panicked: {stderr}"
        );
        // Rejected before any artifact ran: no guard table on stdout.
        assert!(out.stdout.is_empty(), "{name}: artifact ran anyway");
    }
}

#[test]
fn sepe_repro_guard_drives_a_valid_loaded_plan() {
    // Emit a pristine bundle, then feed it back through the guard artifact:
    // the loaded plan gets its own row in the drift table.
    let out = keysynth()
        .args(["--family", "offxor", "--emit-plan", r"\d{3}-\d{2}-\d{4}"])
        .output()
        .expect("keysynth runs");
    assert!(out.status.success());
    let dir = std::env::temp_dir().join(format!("sepe-plan-guard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let plan = dir.join("plan.json");
    std::fs::write(&plan, &out.stdout).expect("plan written");

    let out = sepe_repro()
        .args(["--scale", "smoke", "--plan"])
        .arg(&plan)
        .arg("guard")
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = stdout
        .lines()
        .find(|l| l.starts_with("plan/OffXor"))
        .unwrap_or_else(|| panic!("no plan row in:\n{stdout}"));
    assert!(
        !row.contains("never") && row.contains('/'),
        "loaded plan never tripped: {row}"
    );
    assert!(
        row.contains("Guarded") && row.ends_with("none"),
        "the trip did not hold the route: {row}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sepe_repro_metrics_artifact_is_byte_identical_across_runs() {
    let run = || {
        let out = sepe_repro()
            .args(["--scale", "smoke", "metrics"])
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "snapshot export is deterministic");
    let snap = sepe_obs::Snapshot::parse(first.trim_end()).expect("artifact is a valid snapshot");
    assert_eq!(
        snap.counter_family_total("table_epochs_opened"),
        snap.counter_family_total("table_epochs_finished"),
        "{snap:?}"
    );
}

/// The corrupted-snapshot fixtures, each with the typed error its
/// corruption must produce from `--check-metrics`.
const CORRUPTED_METRICS_FIXTURES: [(&str, &str); 2] = [
    ("metrics_wrong_schema.json", "is not \"sepe-metrics/v1\""),
    (
        "metrics_bad_bucket_sum.json",
        "bucket counts sum to 2 but count claims 3",
    ),
];

#[test]
fn sepe_repro_check_metrics_validates_and_rejects() {
    // A freshly emitted snapshot round-trips through the checker.
    let out = sepe_repro()
        .args(["--scale", "smoke", "metrics"])
        .output()
        .expect("repro runs");
    assert!(out.status.success());
    let dir = std::env::temp_dir().join(format!("sepe-check-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("snapshot.json");
    std::fs::write(&path, &out.stdout).expect("snapshot written");
    let out = sepe_repro()
        .arg("--check-metrics")
        .arg(&path)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("valid sepe-metrics/v1 snapshot"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Every corruption mode is a typed rejection and a nonzero exit.
    for (name, needle) in CORRUPTED_METRICS_FIXTURES {
        let out = sepe_repro()
            .args(["--check-metrics", &fixture_path(name)])
            .output()
            .expect("repro runs");
        assert!(
            !out.status.success(),
            "{name}: corrupted snapshot was accepted"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("is not a usable metrics snapshot") && stderr.contains(needle),
            "{name}: expected typed rejection with {needle:?}, got: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{name}: the binary panicked: {stderr}"
        );
    }

    // A missing file is an I/O error, not a crash.
    let out = sepe_repro()
        .args(["--check-metrics", "/nonexistent/snapshot.json"])
        .output()
        .expect("repro runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot read"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
