//! What the host is, and how much memory this process has used.

use std::process::Command;

/// The rvr-style header printed above the metrics and repeated in the
/// report, so a number is never read without the machine it came from.
#[derive(Debug, Clone)]
pub struct SystemInfo {
    pub kernel: String,
    pub cpu: String,
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_owned())
}

impl SystemInfo {
    pub fn gather() -> SystemInfo {
        let unknown = || "unknown".to_owned();
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(unknown);
        SystemInfo {
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_owned()),
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rustc: first_line_of("rustc", &["--version"]).unwrap_or_else(unknown),
            // Asked only where the working directory is the repository's
            // root, so that git never searches the directories above it.
            commit: std::path::Path::new(".git")
                .exists()
                .then(|| first_line_of("git", &["rev-parse", "--short", "HEAD"]))
                .flatten()
                .unwrap_or_else(unknown),
        }
    }
}

/// `VmHWM` in MiB; 0.0 where `/proc` has none.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
