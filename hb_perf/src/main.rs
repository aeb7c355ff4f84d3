//! `hb_perf`: the repo's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! hb_perf [--seed S] [--out FILE] [--smoke]
//!     every workload round-robin, then a traced round and the component rows
//! hb_perf --workload W --seed S --seconds T --trace 0|1 [--out FILE] [--smoke]
//!     one workload for about T seconds; the last line is the result object
//! hb_perf compare BASE.json NEW.json
//!     verdict per workload x end-to-end metric; exit 1 on a regression
//! ```

mod components;
mod metrics;
mod report;
mod stats;
mod stream;
mod sysinfo;
mod trace;
mod workloads;

use hb_serve::cli;
use hb_serve::pool::panic_message;
use report::{Row, Tally, WorkloadResult};
use std::panic::catch_unwind;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Spans;
use workloads::{Layers, Scale, Tracer, Workload};

/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 15;

const USAGE: &str = "usage: hb_perf [--seed S] [--out FILE] [--smoke]\n       \
     hb_perf --workload NAME --seed S --seconds T --trace 0|1 [--out FILE] [--smoke]\n       \
     hb_perf compare BASE.json NEW.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    scale: Scale,
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: None,
        scale: Scale::Full,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--smoke" {
            args.scale = Scale::Smoke;
        } else {
            let value = cli::flag_value(argv, &mut i, USAGE);
            match flag {
                "--workload" => args.workload = Some(value),
                "--seed" => args.seed = cli::parse_value(flag, &value, USAGE),
                "--seconds" => args.seconds = cli::parse_value(flag, &value, USAGE),
                "--out" => args.out = Some(PathBuf::from(value)),
                "--trace" => args.trace = cli::parse_value::<u8>(flag, &value, USAGE) != 0,
                _ => cli::usage_fail(USAGE, format!("unknown argument {flag:?}")),
            }
        }
        i += 1;
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        cli::usage_fail(USAGE, "--seconds must be positive");
    }
    args
}

/// A scratch directory under the working directory, removed on drop.
struct TmpDir(PathBuf);

impl TmpDir {
    fn create() -> Result<TmpDir, String> {
        let dir = Path::new(".hb_perf_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TmpDir(dir))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the parent.
        let _ = std::fs::remove_dir(".hb_perf_tmp");
    }
}

/// Rounds of the all-workloads run.
const ROUNDS: usize = 8;

/// Whether a workload that runs in `k` of the eight rounds runs in round
/// `r`: its passes are spread evenly, and the last round runs every
/// workload.
fn scheduled(k: usize, r: usize) -> bool {
    (ROUNDS - 1 - r) * k % ROUNDS < k
}

/// One workload being measured. Both modes are made of these two passes.
struct Measured<'a> {
    w: &'a Workload,
    seed: u64,
    tmp: &'a Path,
    result: WorkloadResult,
}

impl<'a> Measured<'a> {
    fn new(w: &'a Workload, seed: u64, tmp: &'a Path) -> Measured<'a> {
        let result = WorkloadResult {
            name: w.name,
            ..WorkloadResult::default()
        };
        Measured {
            w,
            seed,
            tmp,
            result,
        }
    }

    /// One untraced pass: no observer attached, ordinary `Machine::tick`.
    /// `with_twin` follows it with a pass of the workload's one-thread
    /// twin, if it has one, for `core.pool_t2_vs_t1_x`.
    fn untraced_pass(&mut self, with_twin: bool) {
        let pass = workloads::run_pass(&self.w.jobs, self.seed, self.tmp, None);
        // Only the first pass is a fresh process's: later ones read
        // higher, and differently from run to run, as the allocator keeps
        // what the earlier ones freed.
        self.result
            .peak_rss_mb
            .get_or_insert_with(sysinfo::peak_rss_mb);
        eprintln!("untraced {:<18} {:.3}s", self.w.name, pass.wall_s);
        self.result.untraced.push(pass);
        if with_twin && !self.w.t1_jobs.is_empty() {
            let twin = workloads::run_pass(&self.w.t1_jobs, self.seed, self.tmp, None);
            self.result.t1.push(twin);
        }
    }

    /// One traced pass; its spans are appended to `spans`.
    fn traced_pass(&mut self, spans: &mut Spans) {
        let mut tracer = Tracer {
            spans: std::mem::take(spans),
            layers: Layers::default(),
        };
        let pass = workloads::run_pass(&self.w.jobs, self.seed, self.tmp, Some(&mut tracer));
        eprintln!("traced   {:<18} {:.3}s", self.w.name, pass.wall_s);
        self.result.traced.push((pass, tracer.layers));
        *spans = tracer.spans;
    }
}

/// The component rows under the pseudo-workload `label`. A component that
/// fails or panics is a counted failure whose rows read 0, not the end of
/// the run.
fn component_rows(label: &str, budget: Duration, tmp: &Path) -> (Vec<Row>, Tally) {
    let (values, error) = match catch_unwind(|| components::run_all(budget, tmp)) {
        Ok(Ok(values)) => (Some(values), None),
        Ok(Err(e)) => (None, Some(e)),
        Err(payload) => (None, Some(format!("panic: {}", panic_message(&*payload)))),
    };
    let rows = components::NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| Row {
            workload: label.to_owned(),
            def: metrics::def(name),
            stats: stats::summarize(values.map(|v| v[i]).as_slice()),
        })
        .collect();
    let tally = Tally {
        workload: "components".to_owned(),
        attempted: 1,
        failed: u64::from(error.is_some()),
        first_error: error.unwrap_or_default(),
    };
    (rows, tally)
}

/// Peak RSS of one pass of workload `name` in a process of its own. This
/// process has run other workloads, and the allocator keeps what they
/// freed, so its own `VmHWM` says little about any one of them (resetting
/// the mark through `/proc/self/clear_refs` read 39 MiB for every small
/// workload and 71 or 87 MiB for the campaign, run to run).
fn fresh_process_peak_rss(name: &str, args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = std::process::Command::new(exe);
    let seed = args.seed.to_string();
    child.args(["--workload", name, "--seed", &seed, "--seconds", "0.001"]);
    if args.scale == Scale::Smoke {
        child.arg("--smoke");
    }
    let out = child
        .output()
        .map_err(|e| format!("run {name} in a child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(|line| line.split("\"peak_rss_mb\": {\"value\": ").nth(1))
        .and_then(|rest| rest.split(',').next())
        .and_then(|value| value.parse().ok())
        .ok_or_else(|| format!("child run of {name} printed no peak_rss_mb:\n{stdout}"))
}

/// What a run measured, ready to print.
struct Outcome {
    rows: Vec<Row>,
    /// Jobs attempted and failed, per workload and for the components.
    tallies: Vec<Tally>,
    spans: Spans,
    /// Untraced passes of the workload that ran most of them.
    rounds: usize,
}

/// Every workload, round-robin: round `r` runs each scheduled workload
/// once, so slow drift of the host lands on all of them alike. In the last
/// round (the only one of a smoke run) each workload's untraced pass is
/// followed by its traced pass; then come the component rows.
fn run_all(args: &Args, tmp: &Path) -> Result<Outcome, String> {
    let all = workloads::all(args.scale);
    let mut measured: Vec<Measured> = all
        .iter()
        .map(|w| Measured::new(w, args.seed, tmp))
        .collect();
    let rounds = if args.scale == Scale::Smoke {
        1
    } else {
        ROUNDS
    };
    let mut spans = Spans::default();
    for r in ROUNDS - rounds..ROUNDS {
        for m in &mut measured {
            if scheduled(m.w.per_8_rounds, r) {
                m.untraced_pass(true);
            }
            if r == ROUNDS - 1 {
                m.traced_pass(&mut spans);
                m.result.peak_rss_mb = Some(fresh_process_peak_rss(m.w.name, args)?);
            }
        }
    }
    let budget = Duration::from_millis(if args.scale == Scale::Smoke { 20 } else { 800 });
    let (component_rows, component_tally) = component_rows("components", budget, tmp);

    let results = || measured.iter().map(|m| &m.result);
    let mut rows: Vec<Row> = results()
        .flat_map(WorkloadResult::end_to_end_rows)
        .collect();
    rows.extend(results().flat_map(WorkloadResult::layer_rows));
    rows.extend(component_rows);
    let mut tallies: Vec<Tally> = results().map(WorkloadResult::tally).collect();
    tallies.push(component_tally);
    Ok(Outcome {
        rows,
        tallies,
        spans,
        rounds,
    })
}

/// One workload for about `seconds`, as `BENCHMARK.json`'s command runs
/// it: untraced passes for the end-to-end rows, or (`--trace 1`) untraced
/// and traced passes in turn for the per-layer rows. The contract wants
/// every per-layer metric from every traced run, so each one also times
/// the components, for about a fifth of its seconds.
fn run_one(args: &Args, name: &str, tmp: &Path) -> Result<Outcome, String> {
    let all = workloads::all(args.scale);
    let w = all.iter().find(|w| w.name == name).ok_or_else(|| {
        format!(
            "no workload named {name:?}; there are {:?}",
            workloads::NAMES
        )
    })?;
    let component_budget = Duration::from_secs_f64(args.seconds / 75.0);
    let reserve = if args.trace {
        component_budget.as_secs_f64() * components::NAMES.len() as f64
    } else {
        0.0
    };
    let started = Instant::now();
    let mut m = Measured::new(w, args.seed, tmp);
    let mut spans = Spans::default();
    let mut rounds = 0;
    loop {
        m.untraced_pass(args.trace);
        if args.trace {
            m.traced_pass(&mut spans);
        }
        rounds += 1;
        // Stop once less than half a round's time is left, so that runs
        // last `--seconds` on average.
        let spent = started.elapsed().as_secs_f64();
        if args.seconds - reserve - spent < 0.5 * spent / rounds as f64 {
            break;
        }
    }
    let mut tallies = vec![m.result.tally()];
    let rows = if args.trace {
        let mut rows = m.result.layer_rows();
        let (component_rows, component_tally) = component_rows(w.name, component_budget, tmp);
        rows.extend(component_rows);
        tallies.push(component_tally);
        rows
    } else {
        m.result.end_to_end_rows()
    };
    Ok(Outcome {
        rows,
        tallies,
        spans,
        rounds,
    })
}

/// The last line of a one-workload run: the result object the acceptance
/// driver reads.
fn result_line(out: &Outcome) -> Result<String, String> {
    let metrics: Vec<String> = out
        .rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.def.name,
                report::number(r.stats.median, r.def.unit),
                r.def.unit
            )
        })
        .collect();
    let failed: u64 = out.tallies.iter().map(|t| t.failed).sum();
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        out.tallies.iter().map(|t| t.attempted).sum::<u64>(),
        metrics.join(", ")
    );
    hb_obs::json::validate(&line).map_err(|e| format!("result line is not JSON: {e}"))?;
    Ok(line)
}

fn compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        cli::usage_fail(USAGE, "compare takes two report files");
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let (table, bad) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(!bad)
}

/// Measures, prints every row and tally, writes `--out`; whether nothing
/// failed.
fn measure(args: &Args) -> Result<bool, String> {
    let tmp = TmpDir::create()?;
    let sys = sysinfo::SystemInfo::gather();
    let out = match &args.workload {
        Some(name) => run_one(args, name, &tmp.0)?,
        None => run_all(args, &tmp.0)?,
    };
    drop(tmp);
    report::print_header(&sys, args.seed, out.rounds);
    for w in workloads::all(args.scale) {
        if args.workload.as_deref().is_none_or(|name| name == w.name) {
            let ungated = if w.name == workloads::UNGATED {
                " (not in BENCHMARK.json: two-state on this host, see README)"
            } else {
                ""
            };
            println!("{:<18} {}{ungated}", w.name, w.why);
        }
    }
    report::print_rows(&out.rows);
    if out.rows.iter().any(|r| r.def.name.starts_with("ckpt.")) {
        println!("ckpt.* rows have no end-to-end workload yet (checkpointed campaigns are fsync-bound and do not repeat here)");
    }
    for t in &out.tallies {
        println!(
            "{:<18} failed_share {}/{} jobs",
            t.workload, t.failed, t.attempted
        );
    }
    for t in out.tallies.iter().filter(|t| t.failed > 0) {
        println!("{:<18} first error: {}", t.workload, t.first_error);
    }
    if let Some(path) = &args.out {
        let text = report::render(
            &sys,
            args.seed,
            out.rounds,
            &out.rows,
            &out.tallies,
            &out.spans,
        );
        hb_obs::json::validate(&text).map_err(|e| format!("report is not JSON: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("report written to {}", path.display());
    }
    if args.workload.is_some() {
        println!("{}", result_line(&out)?);
        return Ok(true); // the result object carries the failures
    }
    Ok(out.tallies.iter().all(|t| t.failed == 0))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().is_some_and(|a| a == "compare") {
        compare(&argv[1..])
    } else {
        measure(&parse_args(&argv))
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => cli::fail(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_runs_in_the_last_round_and_in_its_share_of_the_rounds() {
        for k in 1..=ROUNDS {
            assert!(scheduled(k, ROUNDS - 1));
            assert_eq!((0..ROUNDS).filter(|&r| scheduled(k, r)).count(), k);
        }
        let rounds_of = |k| (0..ROUNDS).filter(|&r| scheduled(k, r)).collect::<Vec<_>>();
        assert_eq!(rounds_of(3), [1, 4, 7]);
    }

    #[test]
    fn a_failing_component_is_a_counted_failure_with_empty_rows() {
        let nowhere = Path::new("/proc/hb_perf-no-such-dir");
        let (rows, tally) = component_rows("components", Duration::from_millis(2), nowhere);
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert!(tally.first_error.contains("store"), "{}", tally.first_error);
        assert_eq!(rows.len(), components::NAMES.len());
        assert!(rows.iter().all(|r| r.stats.n == 0 && r.stats.median == 0.0));
    }
}
