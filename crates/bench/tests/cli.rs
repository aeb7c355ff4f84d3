//! The `hb-bench` command line: every command checks its flags against its
//! own list, so a misspelled flag, a bad value or an unknown command is a
//! usage error — exit 2, one `error:` line, nothing on stdout — and never
//! runs a figure with the argument silently ignored.

use std::process::{Command, Output, Stdio};

fn hb_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hb-bench"))
        .args(args)
        .env("HB_SCALE", "tiny")
        .output()
        .unwrap()
}

#[track_caller]
fn assert_usage_error(args: &[&str]) {
    let out = hb_bench(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(
        stderr.lines().filter(|l| l.starts_with("error:")).count(),
        1,
        "{args:?}: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?} printed to stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    assert_usage_error(&["fig04", "--bogus"]);
    // An instrumented run has one route, `hb-bench inspect`.
    assert_usage_error(&["fig11", "--telemetry", "t.json"]);
    assert_usage_error(&["fig15", "--window", "200"]);
    // The figures run on the process's CPUs (`taskset` narrows them) and
    // keep no results directory: no command takes a worker count or a
    // store.
    for cmd in ["fig10", "fig15", "ablations"] {
        for n in ["2", "0", "abc"] {
            assert_usage_error(&[cmd, "--threads", n]);
        }
    }
    assert_usage_error(&["ablations", "--out", "d"]);
    // A fixture's finding counts are the ones it records, and no flag
    // names the suite: leaving out `--fixture` runs it.
    assert_usage_error(&[
        "race_check",
        "--fixture",
        "shared-row-ww",
        "--expect",
        "static=1,dynamic=1",
    ]);
    assert_usage_error(&["race_check", "--suite"]);
}

#[test]
fn a_misspelled_kernel_flag_runs_nothing() {
    assert_usage_error(&["inspect", "--kernal", "BFS"]);
}

/// A count of zero is refused, not quietly run as one (or as an empty
/// table).
#[test]
fn a_zero_count_is_a_usage_error() {
    assert_usage_error(&["inspect", "--window", "0"]);
    assert_usage_error(&["inspect", "--top", "0"]);
}

/// A value that parses but names nothing the command can run — a Cell no
/// machine can have, a fixture or kernel that does not exist — is a bad
/// invocation too, not a runtime failure.
#[test]
fn a_value_the_command_cannot_use_is_a_usage_error() {
    assert_usage_error(&["race_check", "--cell", "0x0"]);
    assert_usage_error(&["race_check", "--fixture", "nope"]);
}

/// A fixture is held to the finding counts `hb_kernels::fixtures` records
/// for it: they hold on its default Cell, and a one-tile Cell, where no
/// two tiles can race, misses the recorded dynamic race (exit 1).
#[test]
fn a_fixture_is_held_to_its_recorded_counts() {
    let out = hb_bench(&["race_check", "--fixture", "shared-row-ww"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("recorded finding counts: ok"), "{stdout}");
    let out = hb_bench(&["race_check", "--fixture", "shared-row-ww", "--cell", "1x1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("records static=1 dynamic=1, got static=1 dynamic=0"),
        "{stderr}"
    );
}

/// `--kernel` takes an `hb_kernels::kernels()` token; any other is refused
/// with the registry's list.
#[test]
fn an_unknown_kernel_token_names_the_registry() {
    assert_usage_error(&["inspect", "--kernel", "SGEMM@tiled"]);
    let out = hb_bench(&["inspect", "--kernel", "SGEMM@tiled"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    for (token, _) in hb_kernels::kernels() {
        assert!(stderr.contains(token), "{token} not listed: {stderr}");
    }
}

/// A closed stdout (`hb-bench inspect | head -3`) ends the run with no
/// panic text, and every artifact is still written.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let out_path = std::env::temp_dir().join(format!("hb-bench-pipe-{}", std::process::id()));
    let out_path = out_path.display().to_string();
    let mut child = Command::new(env!("CARGO_BIN_EXE_hb-bench"))
        .args(["inspect", "--out", &out_path])
        .env("HB_SCALE", "tiny")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let mut missing = Vec::new();
    for ext in ["trace.json", "trace.ndjson", "folded", "blocks.ndjson"] {
        let path = format!("{out_path}.{ext}");
        if std::fs::metadata(&path).map_or(true, |m| m.len() == 0) {
            missing.push(path.clone());
        }
        let _ = std::fs::remove_file(path);
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(missing.is_empty(), "not written or empty: {missing:?}");
}

#[test]
fn an_unknown_command_is_a_usage_error() {
    assert_usage_error(&["fig99"]);
    // The instrumented run is `inspect`: one run, every instrument.
    assert_usage_error(&["telemetry"]);
    assert_usage_error(&["profile"]);
}

/// Table I simulates nothing, so its checked-in file is cheap to reproduce
/// in a debug build (and it reads no `HB_SCALE`).
#[test]
fn table1_prints_its_results_file() {
    let out = hb_bench(&["table1_benchmarks"]);
    assert!(out.status.success());
    let want = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/table1_benchmarks.txt"
    ))
    .unwrap();
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&want)
    );
}

/// `HB_SCALE` is checked once, before any command runs: a misspelled
/// scale must not quietly run the default one.
#[test]
fn an_unknown_scale_is_a_usage_error() {
    for scale in ["ful", "", "Tiny"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hb-bench"))
            .arg("fig04")
            .env("HB_SCALE", scale)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "HB_SCALE={scale:?}: {stderr}");
        assert_eq!(
            stderr.lines().filter(|l| l.starts_with("error:")).count(),
            1,
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "HB_SCALE={scale:?} ran fig04");
    }
}
