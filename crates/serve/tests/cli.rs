//! The `hb-serve` command line: a worker count of zero is a usage error
//! (exit 2, one `error:` line), not a run on one worker.

use std::process::Command;

#[test]
fn a_zero_thread_count_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("hb-serve-cli-{}", std::process::id()));
    for cmd in ["run", "resume"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hb-serve"))
            .args([cmd, "--dir", &dir.display().to_string(), "--threads", "0"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr}");
        assert_eq!(
            stderr.lines().filter(|l| l.starts_with("error:")).count(),
            1,
            "{cmd}: {stderr}"
        );
        assert!(!dir.exists(), "{cmd} touched its store");
    }
}
