//! The simulation executor: turns a [`JobSpec`] into a [`JobRecord`] by
//! actually running the simulator. This is the execution core that
//! `fault_campaign` previously carried inline; it moved here so the
//! `hb-serve` binary, the bench harnesses and the tests all share one
//! implementation (and so every caller gains caching/resume for free).
//!
//! Golden/fault jobs run one of the two [`campaign_kernel`]s — the
//! SPM-blocked SGEMM or the Jacobi kernel, seeded inputs, identical initial
//! DRAM on every run — and classify against the campaign's golden record.
//! Ablation, profile and race-check jobs run any [`hb_kernels::kernels`]
//! token at a size class on a machine they build themselves.
//!
//! Fault jobs can additionally checkpoint: with an interval configured
//! (`with_ckpt_every`), each run periodically snapshots its machine into
//! the store under the job hash, a killed worker's next attempt restores
//! from the last snapshot instead of restarting, and a `warm:<kernel>`
//! campaign restores every run from one shared post-warmup checkpoint.
//! Restore is bit-exact (see `hb-ckpt`), so resumed and warm-started runs
//! classify identically to cold ones.

use crate::pool::{Executor, JobError};
use crate::spec::{JobKind, JobSpec, PlanSpec};
use crate::store::{JobRecord, Store};
use hb_core::{Machine, MachineConfig, SimError};
use hb_fault::{InjectionPlan, PlanShape};
use hb_kernels::{launch_on, run_on, Jacobi, Kernel, Sgemm, SizeClass};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

/// One row of the campaign table: what golden/fault/warm jobs can run. Two
/// rows, not the suite: a campaign needs live state on every tile of a 4x4
/// Cell for SPM faults to hit (hence the SPM-blocked SGEMM with 16 output
/// blocks), and its golden digests, cycle counts and `--expect` outcome
/// counts are recorded against exactly these inputs.
struct CampaignRow {
    /// Stable lowercase name (part of the warm-checkpoint store key).
    label: &'static str,
    /// [`Kernel::prepare`] at [`SizeClass::Small`] is the campaign set-up.
    kernel: &'static dyn Kernel,
    /// No barriers, so an `hb-iss` functional run executes the kernel to
    /// completion and can anchor the golden memory image.
    barrier_free: bool,
}

/// Resolves a campaign kernel name. A `warm:` prefix selects the shared
/// warm-checkpoint start for fault jobs and is otherwise transparent: the
/// simulated kernel, inputs and classification are identical.
fn campaign_row(name: &str) -> Result<CampaignRow, JobError> {
    let bare = name.strip_prefix("warm:").unwrap_or(name);
    Ok(match bare.to_ascii_lowercase().as_str() {
        "sgemm" => CampaignRow {
            label: "sgemm",
            kernel: &Sgemm {
                m: 32,
                k: 16,
                n: 32,
                blocked: true,
            },
            barrier_free: true,
        },
        "jacobi" => CampaignRow {
            label: "jacobi",
            kernel: &Jacobi { z: 32, steps: 2 },
            barrier_free: false,
        },
        _ => {
            return Err(JobError::Permanent(format!(
                "unknown campaign kernel {name:?}"
            )))
        }
    })
}

/// The kernel a campaign named `name` (`sgemm` or `jacobi`, optionally
/// `warm:`-prefixed) launches at [`SizeClass::Small`]; `None` for any
/// other name.
pub fn campaign_kernel(name: &str) -> Option<&'static dyn Kernel> {
    campaign_row(name).ok().map(|row| row.kernel)
}

/// What fault jobs need from their campaign's golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenInfo {
    /// Golden run length.
    pub cycles: u64,
    /// FNV-1a digest of the golden DRAM image.
    pub digest: u64,
}

impl GoldenInfo {
    /// Recovers golden info from a stored golden record.
    pub fn from_record(rec: &JobRecord) -> GoldenInfo {
        GoldenInfo {
            cycles: rec.cycles,
            digest: rec.dram_digest,
        }
    }
}

/// The shared simulation executor. Caches each campaign's golden info in
/// memory (and falls back to the store on resume) so thousands of fault
/// jobs classify against one golden run.
pub struct SimExecutor {
    goldens: Mutex<HashMap<String, GoldenInfo>>,
    /// Shared warm-start checkpoints by store key, decoded-once per process.
    warm_blobs: Mutex<HashMap<String, Arc<Vec<u8>>>>,
    /// Cycles between mid-job checkpoints of fault runs; `None` = off.
    ckpt_every: Option<u64>,
    /// Fault-injection hook for the crash/resume CI job: the process exits
    /// hard (code 3) after this many checkpoints have been written.
    crash_after: Option<Arc<AtomicI64>>,
}

impl SimExecutor {
    /// An executor. The argument has had no effect since PR 18 (workers are
    /// [`RunOpts::threads`](crate::RunOpts); every job's machine runs on
    /// the worker that claimed it); the arity is kept because the benchmark
    /// crate `hb_perf/` calls `SimExecutor::new(1)`, and goes with the
    /// benchmark-only follow-up (ROADMAP item 2).
    pub fn new(_workers: usize) -> SimExecutor {
        SimExecutor {
            goldens: Mutex::new(HashMap::new()),
            warm_blobs: Mutex::new(HashMap::new()),
            ckpt_every: None,
            crash_after: None,
        }
    }

    /// Enables mid-job checkpointing: every `every` cycles a fault run
    /// snapshots its machine into the store under the job hash, so a
    /// killed worker's next attempt resumes from the last snapshot instead
    /// of restarting. `every == 0` disables.
    #[must_use]
    pub fn with_ckpt_every(mut self, every: u64) -> SimExecutor {
        self.ckpt_every = (every > 0).then_some(every);
        self
    }

    /// Testing hook for the `ckpt-smoke` CI job: kill the whole process
    /// (exit code 3) after `n` mid-job checkpoints have been written —
    /// a deterministic stand-in for a mid-run `kill -9`.
    #[must_use]
    pub fn with_crash_after_ckpts(mut self, n: u64) -> SimExecutor {
        self.crash_after = Some(Arc::new(AtomicI64::new(n as i64)));
        self
    }

    /// Fetches (or computes and caches) the golden info for `spec`'s
    /// (kernel, config) — from memory, then the store, then a fresh run.
    fn golden_info(&self, spec: &JobSpec, store: &Store) -> Result<GoldenInfo, JobError> {
        let gspec = golden_spec(&spec.kernel, &spec.config);
        let ghash = gspec.hash();
        if let Some(info) = self.goldens.lock().unwrap().get(&ghash) {
            return Ok(*info);
        }
        let info = if let Some(rec) = store.get(&ghash) {
            GoldenInfo::from_record(&rec)
        } else {
            // A fault job arrived before its golden (e.g. a hand-built
            // manifest without one): run the golden inline. Not stored —
            // the pool owns store writes — but cached for this process.
            let rec = self.run_golden(&gspec)?;
            GoldenInfo::from_record(&rec)
        };
        self.goldens.lock().unwrap().insert(ghash, info);
        Ok(info)
    }

    fn run_golden(&self, spec: &JobSpec) -> Result<JobRecord, JobError> {
        let row = campaign_row(&spec.kernel)?;
        let kernel = row.kernel;
        let cfg = &spec.config;
        cfg.validate()
            .map_err(|e| JobError::Permanent(format!("invalid config: {e}")))?;
        let (gold_res, gold_machine) = run_once(kernel, cfg, None, GOLDEN_BUDGET);
        let gold = gold_res.map_err(|e| JobError::Permanent(format!("golden run failed: {e}")))?;
        let mut checks = vec!["empty-plan-identity"];

        // Bit-identity: installing an *empty* plan must change nothing —
        // the zero-injection hot path is one untaken branch.
        {
            let (empty_res, empty_machine) =
                run_once(kernel, cfg, Some(&InjectionPlan::default()), GOLDEN_BUDGET);
            let empty = empty_res
                .map_err(|e| JobError::Permanent(format!("empty-plan run failed: {e}")))?;
            if (empty.cycles, empty.core.instrs) != (gold.cycles, gold.core.instrs)
                || !same_memory(&empty_machine, &gold_machine)
            {
                return Err(JobError::Permanent(
                    "empty injection plan is not bit-identical to the uninstrumented run"
                        .to_owned(),
                ));
            }
        }

        // Anchor the golden image to the hb-iss functional model where the
        // kernel runs to completion functionally (no barriers).
        if row.barrier_free {
            let mut machine = Machine::new(cfg.clone());
            launch_on(&mut machine, kernel, SizeClass::Small);
            machine
                .warmup_functional(100_000_000)
                .map_err(|e| JobError::Permanent(format!("functional golden run failed: {e}")))?;
            machine.flush_all_caches();
            if !same_memory(&gold_machine, &machine) {
                return Err(JobError::Permanent(
                    "cycle-level golden memory diverges from the hb-iss functional run".to_owned(),
                ));
            }
            checks.push("iss-anchor");
        }

        Ok(JobRecord {
            kind: spec.kind.canonical(),
            kernel: spec.kernel.clone(),
            seed: spec.seed,
            outcome: "ok".to_owned(),
            cycles: gold.cycles,
            instrs: gold.core.instrs,
            dram_digest: digest(&gold_machine),
            checks: checks.join(","),
            ..JobRecord::default()
        })
    }

    /// Fetches (building and sharing on first use) the post-warmup
    /// checkpoint every run of a `warm:<kernel>` campaign restores from.
    /// Keyed by (kernel, canonical config) in the store's `ckpt/`
    /// directory, so parallel campaigns over the same point share one blob.
    fn warm_blob(
        &self,
        row: &CampaignRow,
        cfg: &MachineConfig,
        store: &Store,
    ) -> Result<Arc<Vec<u8>>, JobError> {
        let key = format!(
            "warm-{}-{:032x}",
            row.label,
            hb_mem::fnv1a128(cfg.canonical_text().as_bytes())
        );
        if let Some(blob) = self.warm_blobs.lock().unwrap().get(&key) {
            return Ok(blob.clone());
        }
        // A stored blob that fails to decode (torn write, older format) is
        // ignored and rebuilt — warm checkpoints are pure optimization.
        let stored = store
            .get_ckpt(&key)
            .filter(|bytes| hb_ckpt::decode(bytes).is_ok());
        let blob = Arc::new(match stored {
            Some(bytes) => bytes,
            None => {
                let mut machine = Machine::new(cfg.clone());
                launch_on(&mut machine, row.kernel, SizeClass::Small);
                while machine.cycle() < WARM_CYCLES {
                    machine.tick();
                }
                let bytes = hb_ckpt::encode(&machine);
                let _ = store.put_ckpt(&key, &bytes); // best-effort sharing
                bytes
            }
        });
        self.warm_blobs.lock().unwrap().insert(key, blob.clone());
        Ok(blob)
    }

    fn run_fault(&self, spec: &JobSpec, store: &Store) -> Result<JobRecord, JobError> {
        let row = campaign_row(&spec.kernel)?;
        let cfg = &spec.config;
        cfg.validate()
            .map_err(|e| JobError::Permanent(format!("invalid config: {e}")))?;
        let gold = self.golden_info(spec, store)?;

        let plan = match &spec.plan {
            PlanSpec::Explicit(plan) => plan.clone(),
            PlanSpec::Seeded { faults } => {
                InjectionPlan::random(spec.seed, *faults as usize, &plan_shape(cfg, gold.cycles))
            }
            PlanSpec::None => {
                return Err(JobError::Permanent(
                    "fault job without an injection plan".to_owned(),
                ))
            }
        };
        let (site, inj_cycle) = plan
            .injections
            .first()
            .map(|i| (i.site.kind().label().to_owned(), i.cycle))
            .unwrap_or_default();

        let budget = fault_budget(gold.cycles);
        let hash = spec.hash();
        let mut machine = Machine::new(cfg.clone());
        // Mid-job resume: a checkpoint left by a killed attempt carries
        // the whole state — injection plan, cursor and delivered faults
        // included — so the plan must NOT be reinstalled after restore
        // (rewinding the cursor would double-deliver injections).
        let mut resumed = false;
        if self.ckpt_every.is_some() {
            if let Some(blob) = store.get_ckpt(&hash) {
                if hb_ckpt::restore(&mut machine, &blob).is_ok() {
                    resumed = true;
                } else {
                    // Stale or torn: drop it and start over.
                    let _ = store.remove_ckpt(&hash);
                    machine = Machine::new(cfg.clone());
                }
            }
        }
        if !resumed {
            // Warm start only when every injection lands strictly after
            // the warmup horizon (seeded plans always do — `plan_shape`
            // floors at cycle 100; a cold run would already have delivered
            // an injection at cycle <= WARM_CYCLES by the capture point).
            // Explicit early injections fall back to a cold start.
            let warm = spec.kernel.starts_with("warm:")
                && plan.injections.iter().all(|i| i.cycle > WARM_CYCLES);
            if warm {
                let blob = self.warm_blob(&row, cfg, store)?;
                hb_ckpt::restore(&mut machine, &blob).map_err(|e| {
                    JobError::Permanent(format!("warm checkpoint restore failed: {e}"))
                })?;
            } else {
                launch_on(&mut machine, row.kernel, SizeClass::Small);
            }
            machine.set_injection_plan(&plan);
        }
        if let Some(every) = self.ckpt_every {
            let sink_store = Store::open(store.root())
                .map_err(|e| JobError::Transient(format!("cannot reopen store: {e}")))?;
            let key = hash.clone();
            let crash = self.crash_after.clone();
            machine.set_auto_checkpoint(every, move |m: &mut Machine| {
                let _ = sink_store.put_ckpt(&key, &hb_ckpt::encode(m));
                if let Some(left) = &crash {
                    if left.fetch_sub(1, Ordering::SeqCst) <= 1 {
                        // The ckpt-smoke stand-in for a mid-run kill -9.
                        std::process::exit(3);
                    }
                }
            });
        }

        // Budget in *total* cycles since launch, so a resumed or warm run
        // hangs (or finishes) at exactly the same machine cycle as a cold
        // one — the classification below is bit-identical either way.
        let result = machine.run(budget.saturating_sub(machine.cycle()));
        machine.clear_auto_checkpoint();
        let mut artifacts = String::new();
        if matches!(&result, Err(SimError::Timeout { .. })) {
            // Post-mortem: dump the hung state next to the HangReport so
            // the timeout is replayable (`hb-bench replay --ckpt ...`).
            let key = format!("hang-{hash}");
            if store.put_ckpt(&key, &hb_ckpt::encode(&machine)).is_ok() {
                artifacts = format!("ckpt/{key}.ckpt");
            }
        }
        machine.flush_all_caches();
        let dram_digest = digest(&machine);
        let total_cycles = machine.cycle();
        let (outcome, cycles, instrs) = match &result {
            Err(SimError::Fault(_)) => ("detected", 0, 0),
            Err(SimError::Timeout { .. }) => ("hang", 0, 0),
            Ok(s) if dram_digest == gold.digest => ("masked", total_cycles, s.core.instrs),
            Ok(s) => ("sdc", total_cycles, s.core.instrs),
        };
        // The run finished: its resume checkpoint is dead weight now.
        let _ = store.remove_ckpt(&hash);
        Ok(JobRecord {
            kind: spec.kind.canonical(),
            kernel: spec.kernel.clone(),
            seed: spec.seed,
            outcome: outcome.to_owned(),
            site,
            inj_cycle,
            cycles,
            instrs,
            dram_digest,
            artifacts,
            ..JobRecord::default()
        })
    }

    fn run_ablation(&self, spec: &JobSpec, size: &str) -> Result<JobRecord, JobError> {
        let size = parse_size(size)?;
        let kernel = suite_kernel(&spec.kernel)?;
        let cfg = &spec.config;
        cfg.validate()
            .map_err(|e| JobError::Permanent(format!("invalid config: {e}")))?;
        let stats = kernel
            .run(cfg, size)
            .map_err(|e| JobError::Permanent(format!("{} failed: {e}", kernel.name())))?;
        Ok(JobRecord {
            kind: spec.kind.canonical(),
            kernel: spec.kernel.clone(),
            seed: spec.seed,
            outcome: "ok".to_owned(),
            cycles: stats.cycles,
            instrs: stats.core.instrs,
            ..JobRecord::default()
        })
    }

    /// One profiled benchmark run: any suite kernel at a size class with
    /// guest-code profiling enabled. The record carries cycles (identical
    /// to an unprofiled run — profiling is observation-only) plus the
    /// top-5 hot basic blocks in `hb_prof::compact_top` form, which the
    /// report renders as a per-kernel hot-block section.
    fn run_profile(&self, spec: &JobSpec, size: &str) -> Result<JobRecord, JobError> {
        let size = parse_size(size)?;
        let kernel = suite_kernel(&spec.kernel)?;
        let cfg = &spec.config;
        cfg.validate()
            .map_err(|e| JobError::Permanent(format!("invalid config: {e}")))?;
        let mut machine = Machine::new(cfg.clone());
        machine.set_profile(true);
        let stats = run_on(&mut machine, kernel.as_ref(), size)
            .map_err(|e| JobError::Permanent(format!("{} failed: {e}", kernel.name())))?;
        let run = hb_prof::ProfRun::capture(&machine, Arc::new(kernel.program()))
            .ok_or_else(|| JobError::Permanent(format!("{} captured no profile", kernel.name())))?;
        let analysis = hb_prof::Analysis::analyze(kernel.name(), &run);
        Ok(JobRecord {
            kind: spec.kind.canonical(),
            kernel: spec.kernel.clone(),
            seed: spec.seed,
            outcome: "ok".to_owned(),
            cycles: stats.cycles,
            instrs: stats.core.instrs,
            checks: format!("retired={},stalled={}", analysis.retired, analysis.stalled),
            profile: hb_prof::compact_top(&analysis, 5),
            ..JobRecord::default()
        })
    }

    /// Two-sided race check for one suite kernel: the static phase-conflict
    /// pass over the program plus a full benchmark run (golden-validating)
    /// under the dynamic epoch sanitizer. Finding counts land in `checks`
    /// as `static=N,dynamic=M`; any finding makes the outcome `racy`.
    fn run_race_check(&self, spec: &JobSpec, size: &str) -> Result<JobRecord, JobError> {
        let size = parse_size(size)?;
        let kernel = suite_kernel(&spec.kernel)?;
        let cfg = &spec.config;
        cfg.validate()
            .map_err(|e| JobError::Permanent(format!("invalid config: {e}")))?;
        let statics = hb_race::static_conflicts(&kernel.program(), cfg);
        let mut machine = Machine::new(cfg.clone());
        machine.set_race_check(true);
        let stats = run_on(&mut machine, kernel.as_ref(), size)
            .map_err(|e| JobError::Permanent(format!("{} failed: {e}", kernel.name())))?;
        let races = machine.race_reports().len();
        let clean = statics.is_empty() && races == 0;
        Ok(JobRecord {
            kind: spec.kind.canonical(),
            kernel: spec.kernel.clone(),
            seed: spec.seed,
            outcome: if clean { "clean" } else { "racy" }.to_owned(),
            cycles: stats.cycles,
            instrs: stats.core.instrs,
            checks: format!("static={},dynamic={races}", statics.len()),
            ..JobRecord::default()
        })
    }
}

impl Executor for SimExecutor {
    fn run(&self, spec: &JobSpec, store: &Store) -> Result<JobRecord, JobError> {
        match &spec.kind {
            JobKind::Golden => self.run_golden(spec),
            JobKind::Fault => self.run_fault(spec, store),
            JobKind::Ablation { size } => self.run_ablation(spec, size),
            JobKind::RaceCheck { size } => self.run_race_check(spec, size),
            JobKind::Profile { size } => self.run_profile(spec, size),
        }
    }
}

/// Cycle budget for golden runs (generous; a golden that cannot finish in
/// this is a campaign configuration error).
const GOLDEN_BUDGET: u64 = 10_000_000;

/// Cycles simulated before capturing a `warm:<kernel>` shared checkpoint.
/// Must stay below the `plan_shape` injection floor (cycle 100) so seeded
/// plans always qualify for a warm start.
const WARM_CYCLES: u64 = 64;

/// The injected-run budget: leaves room for stall windows and retransmits
/// while still bounding frozen-tile hangs.
fn fault_budget(golden_cycles: u64) -> u64 {
    golden_cycles * 4 + 20_000
}

/// The fault-site shape drawn over: the machine geometry, with faults
/// landing in the golden run's active cycle range.
fn plan_shape(cfg: &MachineConfig, golden_cycles: u64) -> PlanShape {
    PlanShape {
        cells: cfg.num_cells,
        dim: (cfg.cell_dim.x, cfg.cell_dim.y),
        spm_words: (cfg.spm_bytes / 4).min(u32::from(u16::MAX)) as u16,
        icache_lines: (cfg.icache_bytes / cfg.line_bytes).min(u32::from(u16::MAX)) as u16,
        cycles: (100, (golden_cycles * 3 / 4).max(200)),
    }
}

/// The golden [`JobSpec`] every fault job of a (kernel, config) campaign
/// classifies against.
pub fn golden_spec(kernel: &str, config: &MachineConfig) -> JobSpec {
    JobSpec {
        kind: JobKind::Golden,
        kernel: kernel.to_owned(),
        seed: 0,
        plan: PlanSpec::None,
        config: config.clone(),
        label: "golden".to_owned(),
    }
}

/// Resolves the kernel token of an ablation, profile or race-check job:
/// any of [`hb_kernels::kernels`], case-insensitively.
fn suite_kernel(token: &str) -> Result<Box<dyn Kernel>, JobError> {
    hb_kernels::by_name(token)
        .ok_or_else(|| JobError::Permanent(format!("unknown kernel {token:?}")))
}

fn parse_size(s: &str) -> Result<SizeClass, JobError> {
    match s {
        "tiny" => Ok(SizeClass::Tiny),
        "small" => Ok(SizeClass::Small),
        "large" => Ok(SizeClass::Large),
        _ => Err(JobError::Permanent(format!("unknown size class {s:?}"))),
    }
}

/// Renders a [`SizeClass`] as its canonical token.
pub fn size_token(size: SizeClass) -> &'static str {
    match size {
        SizeClass::Tiny => "tiny",
        SizeClass::Small => "small",
        SizeClass::Large => "large",
    }
}

/// One full simulation: fresh machine, same seeded inputs, optional
/// injection plan. Returns the run result and the machine, caches flushed.
fn run_once(
    kernel: &dyn Kernel,
    cfg: &MachineConfig,
    plan: Option<&InjectionPlan>,
    budget: u64,
) -> (Result<hb_core::RunSummary, SimError>, Machine) {
    let mut machine = Machine::new(cfg.clone());
    launch_on(&mut machine, kernel, SizeClass::Small);
    if let Some(plan) = plan {
        machine.set_injection_plan(plan);
    }
    let result = machine.run(budget);
    machine.flush_all_caches();
    (result, machine)
}

/// The DRAM of every Cell of `machine`, in Cell order. Meaningful as "the
/// memory the kernel left behind" once the caches are flushed.
fn drams(machine: &Machine) -> impl Iterator<Item = &hb_mem::Dram> {
    (0..machine.num_cells()).map(|c| machine.cell(c as u8).dram())
}

/// FNV-1a-64 over every Cell's DRAM in Cell order, hashed where it lies:
/// the `dram_digest` of a job record. Only [`hb_mem::Dram::extents`] are
/// walked byte by byte. A zero byte's step is `h = (h ^ 0) * P`, so a run of
/// `n` of them is exactly `h * P^n mod 2^64`, and every image digests to
/// what the byte-serial walk over all of it gives.
pub fn digest(machine: &Machine) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let skip_zeros = |h: u64, n: usize| h.wrapping_mul(PRIME.wrapping_pow(n as u32));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for dram in drams(machine) {
        // `Dram` is addressed by `u32`, so every gap fits the exponent.
        let mut done = 0;
        for (offset, bytes) in dram.extents() {
            h = skip_zeros(h, offset - done);
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
            done = offset + bytes.len();
        }
        h = skip_zeros(h, dram.len() - done);
    }
    h
}

/// Whether two machines hold the same DRAM, byte for byte.
fn same_memory(a: &Machine, b: &Machine) -> bool {
    drams(a).eq(drams(b))
}
