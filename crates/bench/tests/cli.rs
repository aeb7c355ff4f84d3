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
    // Telemetry has one route, `hb-bench telemetry`.
    assert_usage_error(&["fig11", "--telemetry", "t.json"]);
    assert_usage_error(&["fig15", "--window", "200"]);
}

#[test]
fn a_misspelled_kernel_flag_runs_nothing() {
    assert_usage_error(&["telemetry", "--kernal", "BFS"]);
}

#[test]
fn a_bad_thread_count_is_a_usage_error() {
    assert_usage_error(&["fig10", "--threads", "abc"]);
}

/// A count of zero is refused, not quietly run as one.
#[test]
fn a_zero_count_is_a_usage_error() {
    for cmd in ["fig10", "fig15", "ablations"] {
        assert_usage_error(&[cmd, "--threads", "0"]);
    }
    assert_usage_error(&["telemetry", "--window", "0"]);
}

/// A closed stdout (`hb-bench telemetry | head -3`) ends the run with no
/// panic text.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let trace = std::env::temp_dir().join(format!("hb-bench-pipe-{}.json", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_hb-bench"))
        .args(["telemetry", "--out", &trace.display().to_string()])
        .env("HB_SCALE", "tiny")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(trace.with_extension("json.ndjson"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}

#[test]
fn an_unknown_command_is_a_usage_error() {
    assert_usage_error(&["fig99"]);
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
