//! The `hb-bench` command line: every command checks its flags against its
//! own list, so a misspelled flag, a bad value or an unknown command is a
//! usage error — exit 2, one `error:` line, nothing on stdout — and never
//! runs a figure with the argument silently ignored.

use std::process::{Command, Output};

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
