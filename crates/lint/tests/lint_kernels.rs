//! The `lint-kernels` binary: its `--verbose` report is the checked-in
//! `results/lint_kernels.txt`, byte for byte, and every `--json` line is one
//! valid JSON value.

use std::process::{Command, Output};

fn lint_kernels(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_lint-kernels"))
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "lint-kernels {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn verbose_report_is_the_results_file() {
    let want = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/lint_kernels.txt"
    ))
    .unwrap();
    let got = lint_kernels(&["--verbose"]).stdout;
    assert!(
        got == want,
        "lint-kernels --verbose differs from results/lint_kernels.txt:\n{}",
        String::from_utf8_lossy(&got)
    );
}

#[test]
fn every_json_line_is_valid_json() {
    let out = lint_kernels(&["--json"]).stdout;
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        hb_kernels::kernels().len() + 1,
        "one line per kernel plus the total"
    );
    for line in lines {
        hb_mem::json::validate(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
}
