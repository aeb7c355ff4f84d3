//! Shared command-line handling for the workspace binaries.
//!
//! Every binary follows the same contract: malformed arguments — an
//! unknown flag, a missing or unparsable value, a value the command cannot
//! use (a machine configuration that does not validate, an unknown name) —
//! print one `error:` line plus the usage text and exit **2**; runtime
//! failures (an unwritable `--out`, a failed run) print one `error:` line
//! and exit **1**.
//! `hb-serve` and `hb-bench` check every command line with [`Args::walk`]
//! against the command's own flag list.

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

/// A command line checked against one command's flag list.
pub struct Args {
    usage: String,
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Checks `argv` against `flags`, a usage-style list such as
    /// `"--out FILE --top N --verbose"`: a flag followed by a word that is
    /// not a flag takes a value (given as `--out f` or `--out=f`), the
    /// others are switches. `--help` prints `usage` and exits 0; an
    /// unlisted argument, a flag given twice, a missing value or a value
    /// given to a switch is a usage error.
    pub fn walk(argv: &[String], flags: &str, usage: String) -> Args {
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            println!("{usage}");
            std::process::exit(0);
        }
        match Args::check(argv, flags) {
            Ok(given) => Args { usage, given },
            Err(msg) => usage_fail(&usage, msg),
        }
    }

    fn check(argv: &[String], flags: &str) -> Result<Vec<(String, Option<String>)>, String> {
        let mut given: Vec<(String, Option<String>)> = Vec::new();
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, v)) => (name, Some(v.to_owned())),
                None => (arg.as_str(), None),
            };
            let Some(takes_value) = takes_value(flags, name) else {
                return Err(format!("unknown option {arg:?}"));
            };
            let value = match (takes_value, inline) {
                (false, None) => None,
                (false, Some(_)) => return Err(format!("{name} takes no value")),
                (true, Some(v)) => Some(v),
                (true, None) => Some(rest.next().ok_or(format!("{name} needs a value"))?.clone()),
            };
            if given.iter().any(|(n, _)| n == name) {
                return Err(format!("{name} given twice"));
            }
            given.push((name.to_owned(), value));
        }
        Ok(given)
    }

    /// The value given for `flag`, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(n, _)| n == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// `flag`'s value parsed as `T`, if it was given; an unparsable value
    /// is a usage error naming flag and value.
    pub fn parse<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| parse_value(flag, v, &self.usage))
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(n, _)| n == flag)
    }

    /// The usage text errors print.
    pub fn usage(&self) -> &str {
        &self.usage
    }
}

/// Whether `name` takes a value in the flag list `flags`, or `None` if it
/// is not listed.
fn takes_value(flags: &str, name: &str) -> Option<bool> {
    let mut words = flags.split_whitespace().peekable();
    while let Some(flag) = words.next() {
        let takes = words.next_if(|w| !w.starts_with("--")).is_some();
        if flag == name {
            return Some(takes);
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

/// Parses a `key=n,key=n` list that names each of `keys` (in any order),
/// such as `--expect static=1,dynamic=1`, into counts in `keys` order.
pub fn parse_counts(flag: &str, value: &str, keys: &[&str], usage: &str) -> Vec<u64> {
    let mut counts = vec![None; keys.len()];
    for part in value.split(',') {
        let key = part.split_once('=').and_then(|(key, n)| {
            let i = keys.iter().position(|k| *k == key.trim())?;
            Some((i, n))
        });
        let Some((i, n)) = key else {
            usage_fail(usage, format!("bad {flag} component {part:?}"));
        };
        counts[i] = Some(parse_value(flag, n.trim(), usage));
    }
    counts
        .into_iter()
        .collect::<Option<_>>()
        .unwrap_or_else(|| {
            let want: Vec<String> = keys.iter().map(|k| format!("{k}=N")).collect();
            usage_fail(usage, format!("{flag} needs {}", want.join(",")))
        })
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

/// `cfg` if [`MachineConfig::validate`](hb_core::MachineConfig::validate)
/// accepts it, else a usage error with the
/// [`ConfigError`](hb_core::ConfigError) text: a configuration built from
/// flags that no machine can take is a bad invocation.
pub fn valid_config(cfg: hb_core::MachineConfig, usage: &str) -> hb_core::MachineConfig {
    if let Err(e) = cfg.validate() {
        usage_fail(usage, format!("invalid machine configuration: {e}"));
    }
    cfg
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
        let keys = ["static", "dynamic"];
        assert_eq!(
            parse_counts("--expect", "dynamic=2,static=1", &keys, "u"),
            [1, 2]
        );
    }

    #[test]
    fn walk_takes_both_spellings_and_refuses_what_is_not_listed() {
        let argv = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let flags = "--out FILE --top N --verbose";
        let check = |s: &str| Args::check(&argv(s), flags);
        let args = Args {
            usage: String::new(),
            given: check("--out a --top=3 --verbose").unwrap(),
        };
        assert_eq!(args.value("--out"), Some("a"));
        assert_eq!(args.parse::<u32>("--top"), Some(3));
        assert!(args.has("--verbose"));
        assert_eq!(args.value("--cycles"), None);
        let err = |s: &str| check(s).unwrap_err();
        assert_eq!(err("--outer=x"), "unknown option \"--outer=x\"");
        assert_eq!(err("BFS"), "unknown option \"BFS\"");
        assert_eq!(err("--top"), "--top needs a value");
        assert_eq!(err("--verbose=1"), "--verbose takes no value");
        assert_eq!(err("--out a --out=b"), "--out given twice");
    }
}
