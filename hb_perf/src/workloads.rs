//! The six workloads and how one pass over a workload is run and timed.
//!
//! A workload is a fixed list of jobs; a *pass* runs every job once, in
//! order, on the calling thread (a closed loop with one client). A job is
//! one validated kernel run, one validated stream run, or one whole fault
//! campaign (which counts each of its campaign jobs).

use crate::stream;
use crate::trace::{probe, Probe, SimCounts, Spans};
use hb_core::{CellDim, MachineConfig, PhaseTimes};
use hb_kernels::{Benchmark, SizeClass};
use hb_serve::pool::panic_message;
use hb_serve::{
    Campaign, CancelToken, Executor, JobError, JobRecord, JobSpec, RunOpts, SimExecutor, Store,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The one workload `BENCHMARK.json` does not list, so that the acceptance
/// driver gates no PR on it. On this host its speed has two states, about
/// 35 k and 16 k cycles/s, each steady for minutes to a half-hour while
/// every one-thread workload is unchanged: `TilePool` sleeps and is woken
/// twice a cycle, so the workload prices the hypervisor's vCPU wake-up
/// latency. Two ten-run sets 20 minutes apart had spreads under 7% and
/// medians 55% apart, which fails the driver's rule for any bound it
/// allows. The all-workloads run still measures it, beside its one-thread
/// twin (`core.pool_t2_vs_t1_x`).
pub const UNGATED: &str = "suite_t2_16x8";

/// Workload names, in the order a round runs them. `BENCHMARK.json` lists
/// these, all but [`UNGATED`].
pub const NAMES: [&str; 6] = [
    "suite_busy_16x8",
    "suite_parked_16x8",
    "stream_16x8",
    "suite_t2_16x8",
    "fig15_points",
    "campaign_4x4",
];

/// Full-size workloads, or the seconds-long versions `--smoke` and the
/// tests run (4x2 Cell, `Tiny` inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

pub enum Job {
    Kernel {
        bench: Arc<dyn Benchmark>,
        size: SizeClass,
        cfg: MachineConfig,
    },
    Stream {
        cfg: MachineConfig,
        lines: usize,
    },
    Campaign {
        cfg: MachineConfig,
        runs: usize,
    },
}

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: which layers it loads that the others
    /// do not.
    pub why: &'static str,
    pub jobs: Vec<Job>,
    /// The same jobs on one host thread, where `jobs` uses two: the base
    /// of `core.pool_t2_vs_t1_x`, run pass for pass beside `jobs`.
    pub t1_jobs: Vec<Job>,
    /// In how many of the all-workloads run's eight rounds the workload
    /// runs; the long workloads run in fewer, spread evenly.
    pub per_8_rounds: usize,
}

fn kernel(name: &str) -> Arc<dyn Benchmark> {
    hb_kernels::suite()
        .into_iter()
        .find(|b| b.name() == name)
        .unwrap_or_else(|| panic!("hb-kernels has no kernel named {name}"))
        .into()
}

/// One Cell of `dim`, `threads` host threads, default (event) scheduler;
/// pinned so `HB_THREADS`/`HB_EVENT_CORE` cannot change what is measured.
fn cell(dim: (u8, u8), threads: usize) -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: dim.0, y: dim.1 },
        threads,
        event_core: true,
        ..MachineConfig::baseline_16x8()
    }
}

fn kernels(list: &[(&str, SizeClass)], cfg: &MachineConfig) -> Vec<Job> {
    list.iter()
        .map(|&(name, size)| Job::Kernel {
            bench: kernel(name),
            size,
            cfg: cfg.clone(),
        })
        .collect()
}

/// The simulation points of `fig15_doubling_resources`: every suite kernel
/// on the base Cell, a taller one, a wider one, and the base Cell with
/// half the HBM2 bandwidth.
fn fig15_jobs(base: (u8, u8), size: SizeClass) -> Vec<Job> {
    let base_cfg = cell(base, 1);
    let mut half_bw = base_cfg.clone();
    half_bw.hbm.burst_cycles *= 2;
    let variants = [
        base_cfg,
        cell((base.0, base.1 * 2), 1),
        cell((base.0 * 2, base.1), 1),
        half_bw,
    ];
    let mut jobs = Vec::new();
    for bench in hb_kernels::suite() {
        let bench: Arc<dyn Benchmark> = bench.into();
        jobs.extend(variants.iter().map(|cfg| Job::Kernel {
            bench: bench.clone(),
            size,
            cfg: cfg.clone(),
        }));
    }
    jobs
}

/// Builds the six workloads at `scale`.
pub fn all(scale: Scale) -> Vec<Workload> {
    use SizeClass::{Large, Small, Tiny};
    let full = scale == Scale::Full;
    let dim = if full { (16, 8) } else { (4, 2) };
    let pick = |size: SizeClass| if full { size } else { Tiny };
    let busy = [
        ("SW", pick(Large)),
        ("AES", pick(Large)),
        ("BS", pick(Large)),
        ("FFT", pick(Large)),
        ("Jacobi", pick(Small)),
    ];
    let parked = [
        ("PR", pick(Small)),
        ("BFS", pick(Large)),
        ("SGEMM", pick(Large)),
    ];
    let t2 = [
        ("Jacobi", pick(Small)),
        ("BFS", pick(Large)),
        ("SGEMM", pick(Large)),
        ("AES", pick(Large)),
    ];
    vec![
        Workload {
            name: NAMES[0],
            why: "tiles awake (22-50% of tile ticks skipped): Tile stepping and TileSched do the most work they ever do",
            jobs: kernels(&busy, &cell(dim, 1)),
            t1_jobs: Vec::new(),
            per_8_rounds: 8,
        },
        Workload {
            name: NAMES[1],
            why: "83-98% of tile ticks skipped, host time is phase_network: the O(machine)-per-cycle plumbing, and the bypass for tile-phase work",
            jobs: kernels(&parked, &cell(dim, 1)),
            t1_jobs: Vec::new(),
            per_8_rounds: 8,
        },
        Workload {
            name: NAMES[2],
            why: "every line misses, reads beside writes: densest HBM2 and flit traffic, where cache, DRAM and loaded-NoC changes show",
            jobs: vec![Job::Stream {
                cfg: cell(dim, 1),
                lines: if full { 16384 } else { 128 },
            }],
            t1_jobs: Vec::new(),
            per_8_rounds: 8,
        },
        Workload {
            name: NAMES[3],
            why: "threads = 2: the only workload that runs TilePool, so host-parallel changes must show their gain here",
            jobs: kernels(&t2, &cell(dim, 2)),
            t1_jobs: kernels(&t2, &cell(dim, 1)),
            per_8_rounds: 8,
        },
        Workload {
            name: NAMES[4],
            why: "the 40 short runs of Fig. 15 on four Cell shapes: set-up, golden models and validation are a visible share",
            jobs: fig15_jobs(if full { (8, 4) } else { (4, 2) }, pick(Small)),
            t1_jobs: Vec::new(),
            per_8_rounds: 3,
        },
        Workload {
            name: NAMES[5],
            why: "a 4x4 fault campaign through hb-serve: store, journal, pool, hb-fault and hang dumps outweigh the simulator",
            jobs: vec![Job::Campaign {
                cfg: cell((4, 4), 1),
                runs: if full { 48 } else { 3 },
            }],
            t1_jobs: Vec::new(),
            per_8_rounds: 6,
        },
    ]
}

/// Per-layer sums of one traced pass.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub phases: PhaseTimes,
    pub counts: SimCounts,
    pub simulate_s: f64,
    pub input_s: f64,
    pub load_s: f64,
    pub validate_s: f64,
    /// Σ `Executor::run` wall of the campaign's jobs.
    pub exec_s: f64,
    pub hang_jobs: u64,
    pub retries: u64,
    pub cached_jobs_per_s: f64,
}

/// Where a traced pass puts its spans and layer sums.
#[derive(Debug, Default)]
pub struct Tracer {
    pub spans: Spans,
    pub layers: Layers,
}

impl Tracer {
    /// Records one job as `job` ⊃ {`kernels.input`, `kernels.load`,
    /// `core.simulate` ⊃ six phases, `kernels.validate`}.
    fn record_job(&mut self, t0: Instant, t1: Instant, seen: &Probe) {
        let trace = self.spans.new_trace();
        let job = self.spans.push(trace, "job", None, t0, t1);
        let (Some(built), Some(first), Some(last)) =
            (seen.machine_built, seen.sims.first(), seen.sims.last())
        else {
            return; // failed before simulating anything
        };
        let l = &mut self.layers;
        l.input_s += (built - t0).as_secs_f64();
        l.load_s += first.start.saturating_duration_since(built).as_secs_f64();
        l.validate_s += (t1 - last.end).as_secs_f64();
        self.spans
            .push(trace, "kernels.input", Some(job), t0, built);
        self.spans
            .push(trace, "kernels.load", Some(job), built, first.start);
        for sim in &seen.sims {
            self.spans.push_sim(trace, Some(job), sim);
            l.simulate_s += (sim.end - sim.start).as_secs_f64();
            l.counts += sim.counts;
            l.phases.network += sim.phases.network;
            l.phases.memory += sim.phases.memory;
            l.phases.tiles += sim.phases.tiles;
            l.phases.sched += sim.phases.sched;
            l.phases.sync += sim.phases.sync;
            l.phases.inject += sim.phases.inject;
        }
        self.spans
            .push(trace, "kernels.validate", Some(job), last.end, t1);
    }
}

/// What one job reports into its pass.
#[derive(Debug, Default)]
struct JobOut {
    /// The job's wall time, ending before anything a traced pass does only
    /// for a per-layer row (the campaign's cached resubmits).
    wall_s: f64,
    setup_s: f64,
    cycles: u64,
    instrs: u64,
    jobs: u64,
    failed: u64,
    error: Option<String>,
}

impl JobOut {
    fn failure(wall_s: f64, error: String) -> JobOut {
        JobOut {
            wall_s,
            jobs: 1,
            failed: 1,
            error: Some(error),
            ..JobOut::default()
        }
    }
}

/// One pass over a workload.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Σ of the jobs' wall times.
    pub wall_s: f64,
    /// Time before simulation could start, summed over the pass's jobs:
    /// input generation, golden reference and `Machine::new` for a kernel;
    /// those plus assembly and DRAM load for the stream; store, manifest
    /// and golden job for the campaign.
    pub setup_s: f64,
    pub cycles: u64,
    pub instrs: u64,
    pub jobs: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Pass {
    pub fn sim_cycles_per_s(&self) -> f64 {
        self.cycles as f64 / (self.wall_s - self.setup_s).max(1e-9)
    }

    pub fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.wall_s.max(1e-9)
    }
}

fn run_kernel(
    bench: &dyn Benchmark,
    size: SizeClass,
    cfg: &MachineConfig,
    tracer: Option<&mut Tracer>,
) -> JobOut {
    let t0 = Instant::now();
    let (result, seen) = probe(tracer.is_some(), || {
        catch_unwind(AssertUnwindSafe(|| bench.run(cfg, size)))
    });
    let t1 = Instant::now();
    let label = format!(
        "{} {size:?} {}x{}",
        bench.name(),
        cfg.cell_dim.x,
        cfg.cell_dim.y
    );
    let wall_s = (t1 - t0).as_secs_f64();
    let stats = match result {
        Ok(Ok(stats)) => stats,
        Ok(Err(e)) => return JobOut::failure(wall_s, format!("{label}: {e}")),
        Err(payload) => {
            let text = panic_message(&*payload);
            return JobOut::failure(wall_s, format!("{label}: panic: {text}"));
        }
    };
    let mut out = JobOut {
        wall_s,
        setup_s: seen
            .machine_built
            .map_or(0.0, |built| (built - t0).as_secs_f64()),
        cycles: stats.cycles,
        instrs: stats.core.instrs,
        jobs: 1,
        ..JobOut::default()
    };
    if let Some(tracer) = tracer {
        let traced: u64 = seen.sims.iter().map(|s| s.counts.cycles).sum();
        if traced != stats.cycles {
            out.failed = 1;
            out.error = Some(format!(
                "{label}: traced run simulated {traced} cycles, the kernel reports {}",
                stats.cycles
            ));
        }
        tracer.record_job(t0, t1, &seen);
    }
    out
}

fn run_stream(cfg: &MachineConfig, lines: usize, seed: u64, tracer: Option<&mut Tracer>) -> JobOut {
    let t0 = Instant::now();
    let (result, seen) = probe(tracer.is_some(), || {
        catch_unwind(AssertUnwindSafe(|| stream::run(cfg, lines, seed)))
    });
    let t1 = Instant::now();
    let wall_s = (t1 - t0).as_secs_f64();
    let run = match result {
        Ok(Ok(run)) => run,
        Ok(Err(e)) => return JobOut::failure(wall_s, e),
        Err(payload) => {
            let text = panic_message(&*payload);
            return JobOut::failure(wall_s, format!("stream: panic: {text}"));
        }
    };
    if let Some(tracer) = tracer {
        tracer.record_job(t0, t1, &seen);
    }
    JobOut {
        wall_s,
        setup_s: (run.launched - t0).as_secs_f64(),
        cycles: run.cycles,
        instrs: run.instrs,
        jobs: 1,
        ..JobOut::default()
    }
}

/// Times and traces each campaign job around the real executor.
struct TracedExec<'a> {
    inner: &'a SimExecutor,
    tracer: Mutex<&'a mut Tracer>,
}

impl Executor for TracedExec<'_> {
    fn run(&self, spec: &JobSpec, store: &Store) -> Result<JobRecord, JobError> {
        let t0 = Instant::now();
        let (result, seen) = probe(true, || self.inner.run(spec, store));
        let t1 = Instant::now();
        let mut tracer = self.tracer.lock().expect("tracer lock: no holder panics");
        tracer.record_job(t0, t1, &seen);
        tracer.layers.exec_s += (t1 - t0).as_secs_f64();
        result
    }
}

/// Resubmissions of the finished campaign timed for
/// `serve.cached_jobs_per_s`.
const CACHED_RESUBMITS: usize = 20;

/// The campaign's first job seed (run `i` injects the fault plan of job
/// seed `FIRST_JOB_SEED + i`). It does not follow `--seed`, for two
/// reasons. A benchmark workload must be one on which nothing fails, and
/// the simulator is not yet clean under every single fault: of job seeds
/// 1..=3000, five (375, 581, 1280, 1927, 2657) end a 4x4 SGEMM run in a
/// panic, two with a `CacheBank` index out of bounds and three with "flush
/// with outstanding misses". And the fault plans decide how many runs
/// hang (1 to 5 of 48 over the first seven windows), which moves both
/// speed metrics by ~15% on its own: more than half their bound.
const FIRST_JOB_SEED: u64 = 1;

fn run_campaign(
    cfg: &MachineConfig,
    runs: usize,
    dir: &Path,
    mut tracer: Option<&mut Tracer>,
) -> Result<JobOut, String> {
    let io = |what: &str, e: std::io::Error| format!("campaign {what}: {e}");
    let t0 = Instant::now();
    let campaign = Campaign::fault("hb_perf", "sgemm", cfg, FIRST_JOB_SEED, runs);
    campaign.save(dir).map_err(|e| io("manifest", e))?;
    let store = Campaign::open_store(dir).map_err(|e| io("store", e))?;
    let golden = Campaign {
        name: campaign.name.clone(),
        specs: campaign.specs[..1].to_vec(),
    };
    let sim = SimExecutor::new(1);
    let opts = RunOpts::default();
    let cancel = CancelToken::new();
    let execute = |c: &Campaign, tracer: Option<&mut Tracer>| match tracer {
        Some(tracer) => {
            let exec = TracedExec {
                inner: &sim,
                tracer: Mutex::new(tracer),
            };
            c.run(&store, &exec, &opts, &cancel)
        }
        None => c.run(&store, &sim, &opts, &cancel),
    };
    execute(&golden, tracer.as_deref_mut());
    let setup_s = t0.elapsed().as_secs_f64();
    execute(&campaign, tracer.as_deref_mut());

    let mut out = JobOut {
        setup_s,
        jobs: campaign.specs.len() as u64,
        ..JobOut::default()
    };
    let (mut hangs, mut retries) = (0, 0);
    for (i, spec) in campaign.specs.iter().enumerate() {
        match store.get(&spec.hash()) {
            // The golden job ran as set-up, so its cycles are not among
            // those the time after set-up simulated.
            Some(_) if i == 0 => {}
            Some(rec) => {
                out.cycles += rec.cycles;
                out.instrs += rec.instrs;
                hangs += u64::from(rec.outcome == "hang");
                retries += u64::from(rec.retries);
            }
            None => out.failed += 1,
        }
    }
    if out.failed > 0 {
        out.error = store
            .journal()?
            .into_iter()
            .find(|e| e.status == "failed")
            .map(|e| format!("campaign job {}: {}", e.hash, e.detail));
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    if let Some(tracer) = tracer {
        let started = Instant::now();
        for _ in 0..CACHED_RESUBMITS {
            let s = campaign.run(&store, &sim, &opts, &cancel);
            if s.cached != campaign.specs.len() - out.failed as usize {
                return Err(format!(
                    "resubmitted campaign was not all cache hits: {}",
                    s.line()
                ));
            }
        }
        let l = &mut tracer.layers;
        l.cached_jobs_per_s = (CACHED_RESUBMITS * campaign.specs.len()) as f64
            / started.elapsed().as_secs_f64().max(1e-9);
        l.hang_jobs += hangs;
        l.retries += retries;
    }
    Ok(out)
}

/// Runs every job of `jobs` once. `tmp` is where a campaign keeps its
/// store for the length of its pass.
pub fn run_pass(jobs: &[Job], seed: u64, tmp: &Path, mut tracer: Option<&mut Tracer>) -> Pass {
    let mut pass = Pass::default();
    for job in jobs {
        let out = match job {
            Job::Kernel { bench, size, cfg } => {
                run_kernel(bench.as_ref(), *size, cfg, tracer.as_deref_mut())
            }
            Job::Stream { cfg, lines } => run_stream(cfg, *lines, seed, tracer.as_deref_mut()),
            Job::Campaign { cfg, runs } => {
                let dir = tmp.join("campaign");
                let t0 = Instant::now();
                let out = run_campaign(cfg, *runs, &dir, tracer.as_deref_mut())
                    .unwrap_or_else(|e| JobOut::failure(t0.elapsed().as_secs_f64(), e));
                let _ = std::fs::remove_dir_all(&dir);
                out
            }
        };
        pass.wall_s += out.wall_s;
        pass.setup_s += out.setup_s;
        pass.cycles += out.cycles;
        pass.instrs += out.instrs;
        pass.jobs += out.jobs;
        pass.failed += out.failed;
        if pass.first_error.is_none() {
            pass.first_error = out.error;
        }
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Panicker;

    impl Benchmark for Panicker {
        fn name(&self) -> &'static str {
            "PANICKER"
        }

        fn dwarf(&self) -> &'static str {
            "none"
        }

        fn run(
            &self,
            _: &MachineConfig,
            _: SizeClass,
        ) -> Result<hb_kernels::BenchStats, hb_core::SimError> {
            panic!("index out of bounds: the len is 8 but the index is 9")
        }
    }

    /// A job that panics is counted and named; the pass goes on.
    #[test]
    fn a_panicking_job_is_a_counted_failure_not_the_end_of_the_run() {
        let cfg = cell((4, 2), 1);
        let jobs = [
            Job::Kernel {
                bench: Arc::new(Panicker),
                size: SizeClass::Tiny,
                cfg: cfg.clone(),
            },
            Job::Kernel {
                bench: kernel("BS"),
                size: SizeClass::Tiny,
                cfg,
            },
        ];
        let pass = run_pass(&jobs, 1, Path::new("unused"), None);
        assert_eq!((pass.jobs, pass.failed), (2, 1));
        assert!(pass.cycles > 0, "the job after the panic still ran");
        let error = pass.first_error.expect("the first error text is kept");
        assert!(
            error.contains("PANICKER") && error.contains("index out of bounds"),
            "{error}"
        );
    }

    /// At the paper's Cell size the six phase rows account for the traced
    /// simulation time to within 2%. What is left over is the clock reads
    /// themselves and the observer's `all_done` check every cycle (about
    /// 1%), plus whatever the host takes between two clock reads. That
    /// last part only ever widens the gap, so the run is tried a few times
    /// and one undisturbed run shows the phases add up.
    #[test]
    fn traced_phases_account_for_simulate_time_and_cycles_repeat() {
        let cfg = cell((16, 8), 1);
        let untraced = run_kernel(kernel("BS").as_ref(), SizeClass::Small, &cfg, None);
        let mut tries = Vec::new();
        let tracer = loop {
            let mut tracer = Tracer::default();
            let traced = run_kernel(
                kernel("BS").as_ref(),
                SizeClass::Small,
                &cfg,
                Some(&mut tracer),
            );
            assert_eq!(traced.error, None);
            assert_eq!(
                (traced.cycles, traced.instrs),
                (untraced.cycles, untraced.instrs),
                "tracing must not change what is simulated"
            );
            let l = &tracer.layers;
            assert_eq!(l.counts.cycles, traced.cycles);
            assert_eq!(l.counts.instrs, traced.instrs);
            let share = l.phases.total().as_secs_f64() / l.simulate_s;
            assert!(share <= 1.0, "phases sum to {share} of the simulated time");
            if share >= 0.98 {
                break tracer;
            }
            tries.push(share);
            assert!(
                tries.len() < 5,
                "phases sum to {tries:?} of the simulated time"
            );
        };
        // job ⊃ {input, load, simulate ⊃ six phases, validate}, one trace id.
        let names: Vec<&str> = tracer.spans.list.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 11, "{names:?}");
        assert_eq!(
            names[..4],
            ["job", "kernels.input", "kernels.load", "core.simulate"]
        );
        assert_eq!(names[10], "kernels.validate");
        assert!(tracer.spans.list.iter().all(|s| s.trace == 1));
        // The job's children tile it end to end, so it has no self time.
        assert!(tracer.spans.self_seconds(0).abs() < 1e-6);
    }
}
