//! Shared command-line helpers for the workspace binaries.
//!
//! Every harness binary follows the same contract: malformed arguments
//! print one `error:` line plus the usage text and exit **2**; runtime
//! failures (unwritable `--out`, invalid configuration) print one `error:`
//! line and exit **1**. These helpers keep the behavior uniform — `hb-bench`
//! re-exports this module so the figure binaries share it.

use std::fmt::Display;
use std::path::Path;

/// Prints `error: <msg>` and exits 1 (runtime failure).
pub fn fail(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Prints `error: <msg>`, the usage text, and exits 2 (bad invocation).
pub fn usage_fail(usage: &str, msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// The value following a flag, or a clean usage error naming the flag.
pub fn flag_value(argv: &[String], i: &mut usize, usage: &str) -> String {
    let flag = argv[*i].clone();
    *i += 1;
    argv.get(*i)
        .cloned()
        .unwrap_or_else(|| usage_fail(usage, format!("{flag} needs a value")))
}

/// The value of the first `--flag v` or `--flag=v` on this process's
/// command line, for binaries that probe a few optional flags instead of
/// walking argv with [`flag_value`].
pub fn arg_value(flag: &str) -> Option<String> {
    scan_args(std::env::args().skip(1), flag)
}

fn scan_args(mut args: impl Iterator<Item = String>, flag: &str) -> Option<String> {
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        } else if let Some(v) = a.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
            return Some(v.to_owned());
        }
    }
    None
}

/// Parses a flag's value, or a clean usage error naming flag and value.
pub fn parse_value<T: std::str::FromStr>(flag: &str, value: &str, usage: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_fail(usage, format!("bad value {value:?} for {flag}")))
}

/// Parses a `WxH` cell-dimension value (e.g. `4x4`).
pub fn parse_cell(value: &str, usage: &str) -> hb_core::CellDim {
    let bad = || -> ! {
        usage_fail(
            usage,
            format!("bad value {value:?} for --cell (expected WxH, e.g. 4x4)"),
        )
    };
    let (w, h) = value.split_once('x').unwrap_or_else(|| bad());
    hb_core::CellDim {
        x: w.parse().unwrap_or_else(|_| bad()),
        y: h.parse().unwrap_or_else(|_| bad()),
    }
}

/// Parses a `x,y[;x,y]` disabled-tile list.
pub fn parse_disabled(value: &str, usage: &str) -> Vec<(u8, u8)> {
    let bad = || -> ! {
        usage_fail(
            usage,
            format!("bad value {value:?} for --disable (expected x,y[;x,y])"),
        )
    };
    value
        .split(';')
        .map(|part| {
            let (x, y) = part.split_once(',').unwrap_or_else(|| bad());
            (
                x.trim().parse().unwrap_or_else(|_| bad()),
                y.trim().parse().unwrap_or_else(|_| bad()),
            )
        })
        .collect()
}

/// Creates an output file (creating parent directories), or a clean exit-1
/// error naming the path — never a panic backtrace.
pub fn create_out(path: &Path) -> std::fs::File {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            fail(format!("cannot create {}: {e}", dir.display()));
        }
    }
    std::fs::File::create(path)
        .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_helpers_accept_good_values() {
        let cell = parse_cell("4x8", "u");
        assert_eq!((cell.x, cell.y), (4, 8));
        assert_eq!(parse_disabled("1,2;3,4", "u"), vec![(1, 2), (3, 4)]);
        assert_eq!(parse_value::<u64>("--seed", "7", "u"), 7u64);
    }

    #[test]
    fn arg_scanner_takes_both_spellings_and_the_first_occurrence() {
        let argv = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let scan = |s: &str, flag: &str| scan_args(argv(s).into_iter(), flag);
        assert_eq!(scan("--out a --top 3", "--top").as_deref(), Some("3"));
        assert_eq!(scan("--out=a --out b", "--out").as_deref(), Some("a"));
        assert_eq!(scan("--outer=x", "--out"), None);
        assert_eq!(scan("--kernel", "--kernel"), None);
    }
}
