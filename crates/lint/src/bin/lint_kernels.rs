//! Lints every entry of `hb_kernels::kernels()`.
//!
//! ```text
//! cargo run -p hb-lint --bin lint-kernels [-- --deny-warnings] [--verbose] [--json]
//! ```
//!
//! Exits non-zero if any kernel produces an `Error`-severity diagnostic
//! (or, with `--deny-warnings`, a `Warning`). `Info` findings are counted
//! in the summary and printed only with `--verbose`.
//!
//! With `--json`, output is machine-readable NDJSON: one object per
//! kernel (`{"kernel":...,"instrs":...,"errors":...,"warnings":...,
//! "info":...,"diagnostics":[{"severity":...,"rule":...,"pc":...,
//! "message":...}]}`) plus a final `{"total":...}` summary line. Exit
//! codes are unchanged.

use hb_core::MachineConfig;
use hb_lint::{lint, render, LintConfig, Severity};
use hb_mem::json::escape;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let verbose = args.iter().any(|a| a == "--verbose" || a == "-v");
    let json = args.iter().any(|a| a == "--json");
    if let Some(bad) = args.iter().find(|a| {
        !matches!(
            a.as_str(),
            "--deny-warnings" | "--verbose" | "-v" | "--json"
        )
    }) {
        eprintln!("unknown argument `{bad}`");
        eprintln!("usage: lint-kernels [--deny-warnings] [--verbose] [--json]");
        return ExitCode::from(2);
    }

    let machine = MachineConfig::baseline_16x8();
    if let Err(e) = machine.validate() {
        eprintln!("machine configuration invalid: {e}");
        return ExitCode::from(2);
    }
    let config = LintConfig::for_machine(&machine);

    let mut total = [0usize; 3]; // info, warning, error
    let mut failed = false;
    for (name, kernel) in hb_kernels::kernels() {
        let program = kernel.program();
        let diags = lint(&program, &config);
        let count = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
        let (ni, nw, ne) = (
            count(Severity::Info),
            count(Severity::Warning),
            count(Severity::Error),
        );
        total[0] += ni;
        total[1] += nw;
        total[2] += ne;
        if json {
            let items: Vec<String> = diags
                .iter()
                .map(|d| {
                    format!(
                        "{{\"severity\":\"{}\",\"rule\":\"{}\",\"pc\":{},\"message\":\"{}\"}}",
                        d.severity,
                        d.rule.name(),
                        d.pc.map_or("null".to_owned(), |pc| pc.to_string()),
                        escape(&d.message)
                    )
                })
                .collect();
            println!(
                "{{\"kernel\":\"{}\",\"instrs\":{},\"errors\":{ne},\"warnings\":{nw},\
                 \"info\":{ni},\"diagnostics\":[{}]}}",
                escape(name),
                program.len(),
                items.join(",")
            );
        } else {
            println!(
                "{name:30} {:5} instrs   {ne} error(s), {nw} warning(s), {ni} info",
                program.len()
            );
            for d in &diags {
                let show = match d.severity {
                    Severity::Error | Severity::Warning => true,
                    Severity::Info => verbose,
                };
                if show {
                    println!("{}", render(&program, d));
                }
            }
        }
        if ne > 0 || (deny_warnings && nw > 0) {
            failed = true;
        }
    }
    if json {
        println!(
            "{{\"total\":{{\"errors\":{},\"warnings\":{},\"info\":{}}}}}",
            total[2], total[1], total[0]
        );
    } else {
        println!(
            "\ntotal: {} error(s), {} warning(s), {} info",
            total[2], total[1], total[0]
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
