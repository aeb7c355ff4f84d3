//! `hb-serve run --expect`: the exact-outcome contract CI's fault-smoke
//! job holds a campaign to. The counts are read off the AVF summary line of
//! the report the run writes, so a pass means `report.txt` says exactly
//! these counts.

use std::path::Path;
use std::process::{Command, Output};

fn run(dir: &Path, expect: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hb-serve"))
        .args(["run", "--dir", &dir.display().to_string()])
        .args(["--kernel", "jacobi", "--faults", "4", "--seed", "1"])
        .args(["--expect", expect])
        .output()
        .unwrap()
}

fn error_lines(out: &Output) -> usize {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|l| l.starts_with("error:"))
        .count()
}

#[test]
fn expect_holds_a_campaign_to_its_report_counts() {
    let dir = std::env::temp_dir().join(format!("hb-serve-expect-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let out = run(&dir, "masked=4,sdc=0,detected=0,hang=0");
    assert!(
        out.status.success(),
        "right counts failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("expected outcome counts: ok"));
    let report = std::fs::read_to_string(dir.join("report.txt")).unwrap();
    assert!(report.contains("\nsummary: masked=4 sdc=0 detected=0 hang=0\n"));

    // Wrong counts (the rerun is all cache hits): one error line, exit 1.
    let out = run(&dir, "masked=3,sdc=1,detected=0,hang=0");
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(error_lines(&out), 1);

    // A malformed expectation is a usage error before anything runs.
    for bad in ["masked=four", "masked", "corrupt=1", "masked=4"] {
        let out = run(&dir.join("never"), bad);
        assert_eq!(out.status.code(), Some(2), "--expect {bad}");
        assert_eq!(error_lines(&out), 1, "--expect {bad}");
        assert!(out.stdout.is_empty(), "--expect {bad}");
        assert!(!dir.join("never").exists(), "--expect {bad} ran a campaign");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
