//! The simulation executor: turns a [`JobSpec`] into a [`JobRecord`] by
//! actually running the simulator. The `hb-serve` binary and the tests
//! all run jobs through this one implementation (so every caller gains
//! caching/resume for free).
//!
//! Golden/fault jobs run one of the two [`campaign_kernel`]s — the
//! SPM-blocked SGEMM or the Jacobi kernel, seeded inputs, identical initial
//! DRAM on every run — and classify against the campaign's golden record.
//!
//! A fault job simulates only what follows its injection. Up to its first
//! injection it *is* the golden run, so it forks from the golden run: it
//! restores the last golden-prefix capture before that cycle, which the
//! executor keeps in memory (see [`SimExecutor`]), and installs its plan
//! there. Fault jobs can additionally checkpoint: with an interval
//! configured (`with_ckpt_every`), each run goes in legs of that many
//! cycles and snapshots its machine into the store under the job hash
//! between them, and a killed worker's next attempt restores from the last
//! snapshot instead of restarting. Restore is bit-exact (see `hb-ckpt`),
//! so forked and resumed runs classify identically to cold ones.

use crate::pool::{default_threads, run_ordered, Executor, JobError};
use crate::spec::{JobKind, JobSpec, PlanSpec};
use crate::store::{JobRecord, Store};
use hb_core::{Machine, MachineConfig, RunSummary, SimError};
use hb_fault::{InjectionPlan, PlanShape};
use hb_kernels::{launch_on, Jacobi, Kernel, Sgemm, SizeClass};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Mutex;

/// One row of the campaign table: what golden/fault jobs can run. Two
/// rows, not the suite: a campaign needs live state on every tile of a 4x4
/// Cell for SPM faults to hit (hence the SPM-blocked SGEMM with 16 output
/// blocks), and its golden digests, cycle counts and `--expect` outcome
/// counts are recorded against exactly these inputs.
struct CampaignRow {
    /// Stable lowercase name (part of the golden-prefix capture key).
    label: &'static str,
    /// [`Kernel::prepare`] at [`SizeClass::Small`] is the campaign set-up.
    kernel: &'static dyn Kernel,
    /// No barriers, so an `hb-iss` functional run executes the kernel to
    /// completion and can anchor the golden memory image.
    barrier_free: bool,
}

/// Resolves a campaign kernel name, in any case.
fn campaign_row(name: &str) -> Result<CampaignRow, JobError> {
    Ok(match name.to_ascii_lowercase().as_str() {
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
        _ => return Err(JobError(format!("unknown campaign kernel {name:?}"))),
    })
}

/// The kernel a campaign named `name` (`sgemm` or `jacobi`) launches at
/// [`SizeClass::Small`]; `None` for any other name.
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

/// The golden run's state at evenly spaced cycles (see [`capture_every`]),
/// as [`pack`]ed checkpoint bytes by cycle.
type Captures = BTreeMap<u64, Vec<u8>>;

/// Which golden run a capture belongs to: the campaign row's label, the
/// canonical config, and the park policy, which is host-only (not in the
/// canonical text) but is part of the state a checkpoint holds.
type CaptureKey = (&'static str, String, bool);

/// The shared simulation executor. Caches each campaign's golden info in
/// memory (and falls back to the store on resume) so thousands of fault
/// jobs classify against one golden run.
///
/// It also keeps each campaign's golden-prefix captures, which fault jobs
/// fork from. They are made by the fault jobs themselves, on the way to
/// their first injection, and are golden-prefix states by construction, so
/// it does not matter which job made one or on how many threads. They live
/// in memory only: no store object, no gc rule, no torn file to survive.
/// Most of a checkpoint's bytes are zero, so a capture is kept with its
/// zero runs packed (`pack`) and unpacked just before its restore.
pub struct SimExecutor {
    goldens: Mutex<HashMap<String, GoldenInfo>>,
    captures: Mutex<HashMap<CaptureKey, Captures>>,
    /// Cycles between mid-job checkpoints of fault runs; `None` = off.
    ckpt_every: Option<u64>,
    /// Fault-injection hook for the crash/resume CI job: the process exits
    /// hard (code 3) after this many checkpoints have been written.
    crash_after: Option<AtomicI64>,
}

impl SimExecutor {
    /// An executor. The argument has had no effect since PR 18 (workers are
    /// [`RunOpts::threads`](crate::RunOpts); every job's machine runs on
    /// the worker that claimed it, and a golden job's two reference runs
    /// on [`default_threads`] workers); the arity is kept because the
    /// benchmark crate `hb_perf/` calls `SimExecutor::new(1)`, and goes
    /// with ROADMAP's benchmark-only PR.
    pub fn new(_workers: usize) -> SimExecutor {
        SimExecutor {
            goldens: Mutex::new(HashMap::new()),
            captures: Mutex::new(HashMap::new()),
            ckpt_every: None,
            crash_after: None,
        }
    }

    /// Enables mid-job checkpointing: a fault run goes in legs of `every`
    /// cycles and snapshots its machine into the store under the job hash
    /// after each leg it is still running at, so a killed worker's next
    /// attempt resumes from the last snapshot instead of restarting.
    /// `every == 0` disables.
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
        self.crash_after = Some(AtomicI64::new(n as i64));
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
            let rec = run_golden(&gspec, default_threads())?;
            GoldenInfo::from_record(&rec)
        };
        self.goldens.lock().unwrap().insert(ghash, info);
        Ok(info)
    }

    /// Brings a fresh `machine` to the golden run's state at [`fork_point`]:
    /// it restores the latest capture at or before that cycle (or launches
    /// cold when there is none), then ticks forward without a plan,
    /// capturing each point it passes that nobody has captured yet.
    ///
    /// An attached observer may drive the machine from inside `tick` (the
    /// benchmark's phase probe does, in chunks), which would carry it past
    /// the fork point. It is detached over the prefix and sees the run from
    /// the fork on, so no capture holds observer state either.
    fn fork(
        &self,
        row: &CampaignRow,
        machine: &mut Machine,
        plan: &InjectionPlan,
        golden_cycles: u64,
    ) -> Result<(), JobError> {
        let every = capture_every(golden_cycles);
        let target = fork_point(plan, golden_cycles);
        let cfg = machine.config();
        let key = (row.label, cfg.canonical_text(), cfg.event_core);
        let observer = machine.detach_observer();
        let captures = || self.captures.lock().expect("no capture holder panics");
        let latest = (captures().get(&key))
            .and_then(|caps| caps.range(..=target).next_back().map(|(_, c)| unpack(c)));
        match latest {
            Some(blob) => {
                hb_ckpt::restore(machine, &blob).map_err(|e| {
                    JobError(format!("golden-prefix capture does not restore: {e}"))
                })?;
            }
            None => {
                launch_on(machine, row.kernel, SizeClass::Small);
            }
        }
        while machine.cycle() < target {
            machine.tick();
            let cycle = machine.cycle();
            if cycle.is_multiple_of(every) {
                // Encoded under the lock: two jobs passing the same point
                // at once make one capture, not two with one thrown away.
                let mut captures = captures();
                let caps = captures.entry(key.clone()).or_default();
                if let Entry::Vacant(slot) = caps.entry(cycle) {
                    slot.insert(pack(&hb_ckpt::encode(machine)));
                }
            }
        }
        if let Some(observer) = observer {
            machine.attach_observer(observer);
        }
        Ok(())
    }

    /// Runs `machine` until it finishes, traps or reaches cycle `budget`.
    /// With a checkpoint interval set it runs in legs of that many cycles
    /// and stores a resume checkpoint under `hash` after each leg the
    /// machine is still running at, counting it toward the crash hook.
    fn run_to(
        &self,
        machine: &mut Machine,
        budget: u64,
        store: &Store,
        hash: &str,
    ) -> Result<RunSummary, SimError> {
        let Some(every) = self.ckpt_every else {
            return machine.run(budget.saturating_sub(machine.cycle()));
        };
        loop {
            let left = budget.saturating_sub(machine.cycle());
            let result = machine.run(left.min(every));
            if left < every || !matches!(result, Err(SimError::Timeout { .. })) {
                return result;
            }
            let _ = store.put_ckpt(hash, &hb_ckpt::encode(machine));
            if let Some(n) = &self.crash_after {
                if n.fetch_sub(1, Ordering::SeqCst) <= 1 {
                    // The ckpt-smoke stand-in for a mid-run kill -9.
                    std::process::exit(3);
                }
            }
            if left == every {
                return result;
            }
        }
    }

    fn run_fault(&self, spec: &JobSpec, store: &Store) -> Result<JobRecord, JobError> {
        let row = campaign_row(&spec.kernel)?;
        let cfg = &spec.config;
        cfg.validate()
            .map_err(|e| JobError(format!("invalid config: {e}")))?;
        let gold = self.golden_info(spec, store)?;

        let plan = match &spec.plan {
            PlanSpec::Explicit(plan) => plan.clone(),
            PlanSpec::Seeded { faults } => {
                InjectionPlan::random(spec.seed, *faults as usize, &plan_shape(cfg, gold.cycles))
            }
            PlanSpec::None => {
                return Err(JobError("fault job without an injection plan".to_owned()))
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
            self.fork(&row, &mut machine, &plan, gold.cycles)?;
            machine.set_injection_plan(&plan);
        }
        // Budget in *total* cycles since launch, so a resumed or forked run
        // hangs (or finishes) at exactly the same machine cycle as a cold
        // one — the classification below is bit-identical either way.
        let result = self.run_to(&mut machine, budget, store, &hash);
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
}

impl Executor for SimExecutor {
    fn run(&self, spec: &JobSpec, store: &Store) -> Result<JobRecord, JobError> {
        match &spec.kind {
            JobKind::Golden => run_golden(spec, default_threads()),
            JobKind::Fault => self.run_fault(spec, store),
        }
    }
}

/// Cycle budget for golden runs (generous; a golden that cannot finish in
/// this is a campaign configuration error).
const GOLDEN_BUDGET: u64 = 10_000_000;

/// A golden job: the campaign kernel's uninstrumented run, held to two
/// identity checks — the same run under an empty injection plan, and, for
/// a barrier-free kernel, the `hb-iss` functional run's memory image. The
/// two cycle-level runs go side by side on up to `threads` workers; the
/// record is the same at any count.
fn run_golden(spec: &JobSpec, threads: usize) -> Result<JobRecord, JobError> {
    let row = campaign_row(&spec.kernel)?;
    let cfg = &spec.config;
    cfg.validate()
        .map_err(|e| JobError(format!("invalid config: {e}")))?;
    let (gold, gold_machine) = identity_runs(row.kernel, cfg, &InjectionPlan::default(), threads)?;
    let mut checks = vec!["empty-plan-identity"];
    if row.barrier_free {
        iss_anchor(row.kernel, cfg, &gold_machine)?;
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

/// Bit-identity: the uninstrumented run and the run with `plan` installed,
/// as two items of the pool on up to `threads` workers, must agree on
/// cycles, instructions and every DRAM byte. A golden job passes the empty
/// plan, whose zero-injection hot path is one untaken branch. Returns the
/// uninstrumented run and its machine; the other machine is dropped here.
fn identity_runs(
    kernel: &dyn Kernel,
    cfg: &MachineConfig,
    plan: &InjectionPlan,
    threads: usize,
) -> Result<(RunSummary, Machine), JobError> {
    let plans = [None, Some(plan)];
    let runs = run_ordered(&plans, threads, |_, plan| {
        run_once(kernel, cfg, *plan, GOLDEN_BUDGET)
    });
    let [(gold_res, gold_machine), (plan_res, plan_machine)]: [_; 2] =
        runs.try_into().expect("one run per plan");
    let gold = gold_res.map_err(|e| JobError(format!("golden run failed: {e}")))?;
    let planned = plan_res.map_err(|e| JobError(format!("empty-plan run failed: {e}")))?;
    if (planned.cycles, planned.core.instrs) != (gold.cycles, gold.core.instrs)
        || !same_memory(&plan_machine, &gold_machine)
    {
        return Err(JobError(
            "empty injection plan is not bit-identical to the uninstrumented run".to_owned(),
        ));
    }
    Ok((gold, gold_machine))
}

/// Anchors a golden memory image to the `hb-iss` functional model, for a
/// kernel that runs to completion functionally (no barriers): its
/// functional run must leave `gold` DRAM byte for byte.
fn iss_anchor(kernel: &dyn Kernel, cfg: &MachineConfig, gold: &Machine) -> Result<(), JobError> {
    let mut machine = Machine::new(cfg.clone());
    launch_on(&mut machine, kernel, SizeClass::Small);
    machine
        .warmup_functional(100_000_000)
        .map_err(|e| JobError(format!("functional golden run failed: {e}")))?;
    machine.flush_all_caches();
    if !same_memory(gold, &machine) {
        return Err(JobError(
            "cycle-level golden memory diverges from the hb-iss functional run".to_owned(),
        ));
    }
    Ok(())
}

/// Cycles between golden-prefix captures: a rule, not a knob. At most 16
/// per golden run, so a campaign's captures stay a few golden images, and
/// never closer than 1024 cycles, since each capture costs an encode and
/// each fork a restore.
fn capture_every(golden_cycles: u64) -> u64 {
    golden_cycles.div_ceil(16).max(1024)
}

/// Zero runs shorter than this stay among the literal bytes: breaking one
/// out costs two length bytes.
const MIN_ZERO_RUN: usize = 4;

/// Appends `n` as an unsigned LEB128 varint.
fn put_len(out: &mut Vec<u8>, mut n: usize) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Reads the LEB128 varint at `packed[*at..]` and steps past it.
fn take_len(packed: &[u8], at: &mut usize) -> usize {
    let mut n = 0;
    let mut shift = 0;
    loop {
        let byte = packed[*at];
        *at += 1;
        n |= usize::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return n;
        }
        shift += 7;
    }
}

/// Packs the zero runs of `raw`: its length, then groups of (literal
/// length, literal bytes, zero-run length), every length a LEB128 varint.
/// A golden-prefix capture of a 4x4 campaign shrinks 3–9x. Only
/// [`unpack`] reads the result, and only in this process.
fn pack(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() / 4);
    put_len(&mut out, raw.len());
    let (mut lit, mut i) = (0, 0);
    while i < raw.len() {
        if raw[i] != 0 {
            i += 1;
            continue;
        }
        let end = raw[i..]
            .iter()
            .position(|&b| b != 0)
            .map_or(raw.len(), |k| i + k);
        if end - i >= MIN_ZERO_RUN || end == raw.len() {
            put_len(&mut out, i - lit);
            out.extend_from_slice(&raw[lit..i]);
            put_len(&mut out, end - i);
            lit = end;
        }
        i = end;
    }
    if lit < raw.len() {
        put_len(&mut out, raw.len() - lit);
        out.extend_from_slice(&raw[lit..]);
        put_len(&mut out, 0);
    }
    // A capture lives as long as the executor: give back the slack.
    out.shrink_to_fit();
    out
}

/// The bytes [`pack`] was given.
fn unpack(packed: &[u8]) -> Vec<u8> {
    let mut at = 0;
    let mut raw = Vec::with_capacity(take_len(packed, &mut at));
    while at < packed.len() {
        let lit = take_len(packed, &mut at);
        raw.extend_from_slice(&packed[at..at + lit]);
        at += lit;
        let zeros = take_len(packed, &mut at);
        raw.resize(raw.len() + zeros, 0);
    }
    raw
}

/// The cycle a fault job forks from the golden run at: the last capture
/// point strictly before its first injection (every injection has
/// `cycle > c`, link faults included) and strictly inside the golden run,
/// which has not finished there. 0, a cold launch, when none qualifies.
fn fork_point(plan: &InjectionPlan, golden_cycles: u64) -> u64 {
    let first = plan.injections.iter().map(|i| i.cycle).min();
    let bound = first.unwrap_or(u64::MAX).min(golden_cycles);
    let every = capture_every(golden_cycles);
    bound.saturating_sub(1) / every * every
}

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

/// One full simulation: fresh machine, same seeded inputs, optional
/// injection plan. Returns the run result and the machine, caches flushed.
fn run_once(
    kernel: &dyn Kernel,
    cfg: &MachineConfig,
    plan: Option<&InjectionPlan>,
    budget: u64,
) -> (Result<RunSummary, SimError>, Machine) {
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
        for (offset, pages) in dram.extents() {
            h = skip_zeros(h, offset - done);
            done = offset;
            for bytes in pages {
                for &b in bytes {
                    h = (h ^ u64::from(b)).wrapping_mul(PRIME);
                }
                done += bytes.len();
            }
        }
        h = skip_zeros(h, dram.len() - done);
    }
    h
}

/// Whether two machines hold the same DRAM, byte for byte.
fn same_memory(a: &Machine, b: &Machine) -> bool {
    drams(a).eq(drams(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Campaign, CancelToken, RunOpts};
    use hb_core::CellDim;
    use hb_fault::{Injection, Site};

    fn campaign_cfg() -> MachineConfig {
        MachineConfig {
            cell_dim: CellDim { x: 4, y: 4 },
            ..MachineConfig::baseline_16x8()
        }
    }

    fn tmp_store(tag: &str) -> (std::path::PathBuf, Store) {
        let dir = std::env::temp_dir().join(format!("hb-serve-fork-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("a fresh store");
        (dir, store)
    }

    /// A fault job's record, with the hash the pool sets left out, and the
    /// hang dump the job stored.
    type Outcome = (JobRecord, Option<Vec<u8>>);

    fn forked(mut rec: JobRecord, hash: &str, store: &Store) -> Outcome {
        rec.hash.clear();
        (rec, store.get_ckpt(&format!("hang-{hash}")))
    }

    /// What `spec` records when it launches cold and runs its plan from
    /// cycle 0: the reference a forked job is held to, built here and not
    /// by the executor.
    fn cold(spec: &JobSpec, gold: GoldenInfo) -> Outcome {
        let plan = match &spec.plan {
            PlanSpec::Explicit(plan) => plan.clone(),
            PlanSpec::Seeded { faults } => {
                let shape = plan_shape(&spec.config, gold.cycles);
                InjectionPlan::random(spec.seed, *faults as usize, &shape)
            }
            PlanSpec::None => unreachable!("a fault job has a plan"),
        };
        let kernel = campaign_kernel(&spec.kernel).expect("a campaign kernel");
        let mut machine = Machine::new(spec.config.clone());
        launch_on(&mut machine, kernel, SizeClass::Small);
        machine.set_injection_plan(&plan);
        let result = machine.run(fault_budget(gold.cycles));
        let hung = matches!(result, Err(SimError::Timeout { .. }));
        let dump = hung.then(|| hb_ckpt::encode(&machine));
        machine.flush_all_caches();
        let dram_digest = digest(&machine);
        let (outcome, cycles, instrs) = match result {
            Err(SimError::Fault(_)) => ("detected", 0, 0),
            Err(_) => ("hang", 0, 0),
            Ok(s) if dram_digest == gold.digest => ("masked", machine.cycle(), s.core.instrs),
            Ok(s) => ("sdc", machine.cycle(), s.core.instrs),
        };
        let first = plan.injections.first();
        let artifacts = match dump {
            Some(_) => format!("ckpt/hang-{}.ckpt", spec.hash()),
            None => String::new(),
        };
        let record = JobRecord {
            kind: spec.kind.canonical(),
            kernel: spec.kernel.clone(),
            seed: spec.seed,
            outcome: outcome.to_owned(),
            site: (first.map(|i| i.site.kind().label().to_owned())).unwrap_or_default(),
            inj_cycle: first.map_or(0, |i| i.cycle),
            cycles,
            instrs,
            dram_digest,
            artifacts,
            ..JobRecord::default()
        };
        (record, dump)
    }

    fn fault_spec(kernel: &str, injections: Vec<Injection>) -> JobSpec {
        JobSpec {
            kind: JobKind::Fault,
            kernel: kernel.to_owned(),
            seed: 0,
            plan: PlanSpec::Explicit(InjectionPlan {
                seed: 0,
                injections,
            }),
            config: campaign_cfg(),
            label: "explicit".to_owned(),
        }
    }

    #[test]
    fn the_fork_point_is_the_last_capture_strictly_before_the_first_injection() {
        let at = |cycles: &[u64], golden| {
            let injections = (cycles.iter())
                .map(|&cycle| Injection {
                    cycle,
                    site: Site::HbmStall { cell: 0, window: 1 },
                })
                .collect();
            fork_point(
                &InjectionPlan {
                    seed: 0,
                    injections,
                },
                golden,
            )
        };
        // 4x4 SGEMM: 13,865 golden cycles, a capture every 1024.
        assert_eq!(capture_every(13_865), 1024);
        assert_eq!(capture_every(100_000), 6250);
        assert_eq!(at(&[1], 13_865), 0);
        assert_eq!(at(&[1024], 13_865), 0);
        assert_eq!(at(&[1025], 13_865), 1024);
        assert_eq!(at(&[9000, 5000], 13_865), 4096);
        // Past the golden run's end, and no injection at all: the last
        // point the golden run had not yet finished at.
        assert_eq!(at(&[50_000], 13_865), 13_312);
        assert_eq!(at(&[], 13_865), 13_312);
        assert_eq!(at(&[], 2048), 1024);
    }

    /// Forked fault jobs record what cold ones do, byte for byte including
    /// the hang dump, at one pool worker and at the default count: a
    /// Jacobi campaign with three hangs, whose records and report the two
    /// counts give alike, then explicit plans that sit on each edge of the
    /// rule — an injection at cycle 1, at a capture cycle and one past it,
    /// link faults only, and one past the golden run's end.
    #[test]
    fn forked_fault_jobs_match_cold_runs() {
        let campaign = Campaign::fault("fork", "jacobi", &campaign_cfg(), 7, 25);
        let counts = [("one", 1), ("default", RunOpts::default().threads)];
        let [one, (dir, store, sim)] = counts.map(|(tag, threads)| {
            let (dir, store) = tmp_store(&format!("jacobi-{tag}"));
            let sim = SimExecutor::new(1);
            let opts = RunOpts {
                threads,
                ..RunOpts::default()
            };
            let summary = campaign.run(&store, &sim, &opts, &CancelToken::new());
            assert_eq!((summary.run, summary.failed), (26, 0), "{summary:?}");
            (dir, store, sim)
        });
        assert_eq!(
            crate::report::build(&campaign, &one.1),
            crate::report::build(&campaign, &store)
        );
        let gold = sim.golden_info(&campaign.specs[1], &store).unwrap();
        assert_eq!(capture_every(gold.cycles), 1024);
        let mut hangs = 0;
        for spec in &campaign.specs[1..] {
            let hash = spec.hash();
            let rec = store.get(&hash).expect("a stored record");
            let want = cold(spec, gold);
            hangs += usize::from(want.1.is_some());
            let at_one = one.1.get(&hash).expect("a stored record");
            assert_eq!(forked(at_one, &hash, &one.1), want, "seed {}", spec.seed);
            assert_eq!(forked(rec, &hash, &store), want, "seed {}", spec.seed);
        }
        assert_eq!(hangs, 3);
        let _ = std::fs::remove_dir_all(&one.0);

        let flip = |cycle, x, y| Injection {
            cycle,
            site: Site::RegFile {
                cell: 0,
                x,
                y,
                reg: 10,
                bit: 4,
            },
        };
        let link = |cycle, port| Injection {
            cycle,
            site: Site::NocLink {
                cell: 0,
                x: 1,
                y: 2,
                port,
                req: cycle % 2 == 0,
            },
        };
        let plans = [
            vec![flip(1, 1, 1)],
            vec![flip(1024, 2, 1)],
            vec![flip(1025, 2, 1)],
            vec![flip(3100, 0, 3), flip(2048, 3, 3)],
            vec![link(1024, 1), link(2049, 2), link(2050, 3)],
            vec![flip(9000, 1, 2)],
        ];
        let row = campaign_row("jacobi").unwrap();
        for injections in plans {
            let spec = fault_spec("jacobi", injections);
            let hash = spec.hash();
            let rec = sim.run(&spec, &store).expect("the job runs");
            assert_eq!(forked(rec, &hash, &store), cold(&spec, gold), "{spec:?}");
            // And the whole machine, where the first injection lands: a
            // fork one cycle late still finds most injections harmless.
            let PlanSpec::Explicit(plan) = &spec.plan else {
                unreachable!("an explicit plan")
            };
            let mut fork = Machine::new(campaign_cfg());
            sim.fork(&row, &mut fork, plan, gold.cycles).unwrap();
            fork.set_injection_plan(plan);
            let mut cold = Machine::new(campaign_cfg());
            launch_on(&mut cold, row.kernel, SizeClass::Small);
            cold.set_injection_plan(plan);
            let first = plan.injections.iter().map(|i| i.cycle).min().unwrap();
            for machine in [&mut fork, &mut cold] {
                while machine.cycle() < first {
                    machine.tick();
                }
            }
            assert!(hb_ckpt::encode(&fork) == hb_ckpt::encode(&cold), "{spec:?}");
        }
        // Captures are made on the way, and never reach the store.
        let captures = sim.captures.lock().unwrap();
        let cycles: Vec<u64> = captures.values().flat_map(|c| c.keys().copied()).collect();
        assert_eq!(cycles, [1024, 2048, 3072, 4096]);
        let in_store = std::fs::read_dir(dir.join("ckpt")).unwrap();
        assert!(in_store
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .all(|name| name.starts_with("hang-")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A golden record is the same, field for field, whether its two
    /// cycle-level runs run on one worker or fan out: SGEMM with its
    /// `hb-iss` anchor, Jacobi without.
    #[test]
    fn a_golden_record_does_not_follow_the_worker_count() {
        for (kernel, checks) in [
            ("sgemm", "empty-plan-identity,iss-anchor"),
            ("jacobi", "empty-plan-identity"),
        ] {
            let spec = golden_spec(kernel, &campaign_cfg());
            let [one, two, default] = [1, 2, default_threads()]
                .map(|threads| run_golden(&spec, threads).expect("the golden passes"));
            assert_eq!(one.checks, checks);
            assert_eq!(one, two, "{kernel}");
            assert_eq!(one, default, "{kernel}");
        }
    }

    /// The empty-plan check refuses a run that differs: one HBM2 stall
    /// window in place of the empty plan, at one worker and at two.
    #[test]
    fn a_run_that_differs_fails_the_empty_plan_check() {
        let sgemm = campaign_kernel("sgemm").unwrap();
        let plan = InjectionPlan {
            seed: 0,
            injections: vec![Injection {
                cycle: 3000,
                site: Site::HbmStall { cell: 0, window: 8 },
            }],
        };
        let refusal = JobError(
            "empty injection plan is not bit-identical to the uninstrumented run".to_owned(),
        );
        for threads in [1, 2] {
            let runs = identity_runs(sgemm, &campaign_cfg(), &plan, threads);
            assert_eq!(runs.map(|_| ()), Err(refusal.clone()), "{threads} workers");
        }
    }

    /// The `hb-iss` anchor refuses a golden image with one flipped byte.
    #[test]
    fn a_flipped_golden_byte_fails_the_iss_anchor() {
        let sgemm = campaign_kernel("sgemm").unwrap();
        let cfg = campaign_cfg();
        let (_, mut gold) = identity_runs(sgemm, &cfg, &InjectionPlan::default(), 1).unwrap();
        assert_eq!(iss_anchor(sgemm, &cfg, &gold), Ok(()));
        let dram = gold.cell_mut(0).dram_mut();
        let (at, _) = dram.extents().next().expect("the kernel wrote DRAM");
        let at = at as u32;
        dram.write_u8(at, dram.read_u8(at) ^ 0x10);
        assert_eq!(
            iss_anchor(sgemm, &cfg, &gold),
            Err(JobError(
                "cycle-level golden memory diverges from the hb-iss functional run".to_owned()
            ))
        );
    }

    #[test]
    fn the_capture_codec_round_trips() {
        let mut runs = vec![1u8];
        for len in [1, 3, 4, 127, 128, 129, 300, 16_384] {
            runs.extend(std::iter::repeat_n(0, len));
            runs.push(len as u8 | 1);
        }
        let cases: [Vec<u8>; 6] = [
            Vec::new(),
            vec![0; 5000],
            (0..1000).map(|i| (i % 255 + 1) as u8).collect(),
            runs,
            [7, 0, 0, 9].into_iter().chain([0; 200]).collect(),
            vec![5, 0],
        ];
        for raw in &cases {
            let packed = pack(raw);
            assert_eq!(&unpack(&packed), raw, "{} bytes", raw.len());
            if !raw.is_empty() && raw.iter().all(|&b| b == 0) {
                assert!(packed.len() <= 6, "{packed:?}");
            }
        }
    }

    /// A fork restores an unpacked capture; the machine it gets is the one
    /// the raw checkpoint gives.
    #[test]
    fn a_packed_capture_restores_what_its_raw_blob_does() {
        let row = campaign_row("sgemm").unwrap();
        let mut machine = Machine::new(campaign_cfg());
        launch_on(&mut machine, row.kernel, SizeClass::Small);
        (0..2048).for_each(|_| machine.tick());
        let raw = hb_ckpt::encode(&machine);
        let packed = pack(&raw);
        assert!(
            packed.len() * 2 < raw.len(),
            "{} of {}",
            packed.len(),
            raw.len()
        );
        let restored = |blob: &[u8]| {
            let mut m = Machine::new(campaign_cfg());
            hb_ckpt::restore(&mut m, blob).unwrap();
            hb_ckpt::encode(&m)
        };
        assert!(restored(&unpack(&packed)) == restored(&raw));
    }

    /// An observer may drive the machine from inside `tick`, as the
    /// benchmark's phase probe does; a fork still stops at its point, and
    /// the observer is attached again for the rest of the run.
    #[test]
    fn a_driving_observer_does_not_carry_a_fork_past_its_point() {
        #[derive(Debug)]
        struct Driver;
        impl hb_core::MachineObserver for Driver {
            fn sample(&mut self, machine: &mut Machine) {
                (0..4096).for_each(|_| machine.tick());
            }
            fn next_due(&self) -> u64 {
                1
            }
            fn finish(&mut self, _: &mut Machine) {}
        }
        let (dir, store) = tmp_store("driven");
        let sim = SimExecutor::new(1);
        let gold = (sim.golden_info(&golden_spec("jacobi", &campaign_cfg()), &store)).unwrap();
        let row = campaign_row("jacobi").unwrap();
        let site = Site::HbmStall { cell: 0, window: 8 };
        let plan = InjectionPlan {
            seed: 0,
            injections: vec![Injection { cycle: 3000, site }],
        };
        // The first fork makes the captures, the second restores one.
        for _ in 0..2 {
            let mut machine = Machine::new(campaign_cfg());
            machine.attach_observer(Box::new(Driver));
            sim.fork(&row, &mut machine, &plan, gold.cycles).unwrap();
            assert_eq!(machine.cycle(), 2048);
            assert!(machine.is_observed());
        }
        let captures = sim.captures.lock().unwrap();
        let cycles: Vec<u64> = captures.values().flat_map(|c| c.keys().copied()).collect();
        assert_eq!(cycles, [1024, 2048]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The warm prefix, once an alias, is no longer one: a golden or fault
    /// job that names it fails as an unknown campaign kernel, once, with a
    /// `failed` journal line. The token is spelled in two parts, so that
    /// CI's grep for it keeps meaning that nothing else names one.
    #[test]
    fn a_warm_prefixed_kernel_is_an_unknown_campaign_kernel() {
        let kernel = ["warm", "jacobi"].join(":");
        assert!(campaign_kernel(&kernel).is_none());
        let (dir, store) = tmp_store("warm");
        let specs = Campaign::fault("warm", &kernel, &campaign_cfg(), 1, 1).specs;
        assert!(specs[1]
            .manifest_line()
            .contains(&format!("kind=fault kernel={kernel} ")));
        let opts = RunOpts {
            threads: 1,
            ..RunOpts::default()
        };
        let s = crate::run_jobs(
            &specs,
            &store,
            &SimExecutor::new(1),
            &opts,
            &CancelToken::new(),
        );
        assert_eq!((s.run, s.failed), (0, 2), "{s:?}");
        let refusal = format!("unknown campaign kernel {kernel:?}");
        let journal = store.journal().unwrap();
        assert_eq!(journal.len(), 2);
        for (entry, spec) in journal.iter().zip(&specs) {
            assert_eq!(
                (&entry.hash, &entry.status),
                (&spec.hash(), &"failed".to_owned())
            );
            assert_eq!(entry.detail, refusal);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Job seeds 375, 581, 1280, 1927 and 2657 of the 4x4 SGEMM campaign
    /// once ended in a host panic; each now traps (a register flip
    /// detected), forked or cold alike.
    #[test]
    fn sgemm_seeds_that_once_panicked_are_detected() {
        let (dir, store) = tmp_store("sgemm");
        let sim = SimExecutor::new(1);
        let cfg = campaign_cfg();
        let gold = sim
            .golden_info(&golden_spec("sgemm", &cfg), &store)
            .unwrap();
        let mut forks = Vec::new();
        for (seed, inj_cycle) in [
            (375, 4270),
            (581, 1666),
            (1280, 7659),
            (1927, 3727),
            (2657, 958),
        ] {
            let spec = Campaign::fault("pins", "sgemm", &cfg, seed, 1).specs[1].clone();
            let rec = sim.run(&spec, &store).expect("the job runs");
            let want = ("detected", "regfile", inj_cycle);
            assert_eq!(
                (&rec.outcome[..], &rec.site[..], rec.inj_cycle),
                want,
                "seed {seed}"
            );
            assert_eq!(forked(rec, &spec.hash(), &store), cold(&spec, gold));
            forks.push(fork_point(
                &InjectionPlan::random(seed, 1, &plan_shape(&cfg, gold.cycles)),
                gold.cycles,
            ));
        }
        assert_eq!(forks, [4096, 1024, 7168, 3072, 0]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
