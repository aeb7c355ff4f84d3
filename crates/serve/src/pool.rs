//! The workspace's one level of host parallelism: independent jobs fanned
//! out over scoped workers. A simulated machine runs on the thread that
//! ticks it; what scales is running many of them.
//!
//! [`run_ordered_results`] is the one claim loop — workers claim items by
//! atomic index, each item runs under `catch_unwind`, results come back in
//! item order. The figure binaries map their (kernel, configuration)
//! points through it ([`run_ordered`]); [`run_jobs`] maps a campaign
//! manifest through it against the store, with bounded in-flight memory
//! (one job per worker at a time; results stream to disk, and what comes
//! back per job is a counter-sized outcome), completed jobs skipped as
//! cache hits, bounded retries with backoff for transient failures,
//! cooperative cancellation, and a panicking job recorded as a `failed`
//! journal entry.

use crate::spec::JobSpec;
use crate::store::{JobRecord, Store};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One job's panic, caught and isolated by [`run_ordered_results`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Submission index of the job that panicked.
    pub index: usize,
    /// Best-effort panic payload message.
    pub message: String,
}

/// Runs `f` over every item on up to `threads` scoped workers and returns
/// one `Result` **per item, in item order** (work-stealing execution,
/// deterministic collection). Each job runs under `catch_unwind`, so a
/// panicking job yields `Err(JobPanic)` in its own slot and every other job
/// still completes — one bad simulation point cannot take down a
/// whole-figure sweep. With `threads <= 1` (or a single item) the loop
/// runs on the calling thread, in order, with the same isolation.
pub fn run_ordered_results<I, T, F>(items: &[I], threads: usize, f: F) -> Vec<Result<T, JobPanic>>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let n = items.len();
    let slots: Vec<Mutex<Option<Result<T, JobPanic>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let out = catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))).map_err(|payload| JobPanic {
            index: i,
            message: panic_message(payload.as_ref()),
        });
        *slots[i].lock().expect("unpoisoned: no job runs under it") = Some(out);
    };
    if threads <= 1 || n <= 1 {
        worker();
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads.min(n) {
                s.spawn(worker);
            }
        });
    }
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("unpoisoned: no job runs under it")
                .expect("every job completed")
        })
        .collect()
}

/// [`run_ordered_results`] for harnesses that treat any panic as fatal:
/// every *other* job still runs to completion first, then the first panic
/// (in item order) is re-raised with its index and message.
pub fn run_ordered<I, T, F>(items: &[I], threads: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    run_ordered_results(items, threads, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| panic!("job {} panicked: {}", p.index, p.message)))
        .collect()
}

/// How a job execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Worth retrying (I/O hiccup, resource exhaustion).
    Transient(String),
    /// Deterministic failure; retrying cannot help.
    Permanent(String),
}

impl JobError {
    /// The failure message.
    pub fn message(&self) -> &str {
        match self {
            JobError::Transient(m) | JobError::Permanent(m) => m,
        }
    }
}

/// Something that can execute one job. The simulation executor lives in
/// [`crate::exec`]; tests inject mock executors to exercise the pool's
/// retry/panic/cancellation paths without simulating anything.
pub trait Executor: Sync {
    /// Runs `spec` to completion and returns its record (the pool fills in
    /// `hash` and `retries`). May read `store` (e.g. to fetch the campaign
    /// golden on resume).
    ///
    /// # Errors
    ///
    /// [`JobError::Transient`] failures are retried with backoff;
    /// [`JobError::Permanent`] (and panics) become `failed` journal entries.
    fn run(&self, spec: &JobSpec, store: &Store) -> Result<JobRecord, JobError>;
}

/// Pool tuning.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Worker threads.
    pub threads: usize,
    /// Retries per job after the first attempt (transient failures only).
    pub retries: u32,
    /// Base backoff sleep; attempt `k` sleeps `backoff_ms << k`.
    pub backoff_ms: u64,
    /// Stop claiming new work after this many *executed* (non-cached) jobs —
    /// the deterministic stand-in for a mid-campaign kill used by tests and
    /// the `serve-smoke` CI job. `None` = run to completion.
    pub max_jobs: Option<usize>,
}

impl Default for RunOpts {
    fn default() -> RunOpts {
        RunOpts {
            threads: 1,
            retries: 2,
            backoff_ms: 20,
            max_jobs: None,
        }
    }
}

/// Cooperative cancellation: workers finish the job in hand, then stop.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// What the pool did with one manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignSummary {
    /// Jobs in the manifest.
    pub total: usize,
    /// Executed this invocation (cache misses that ran to a stored result).
    pub run: usize,
    /// Skipped because a valid result was already stored.
    pub cached: usize,
    /// Transient-failure retry attempts consumed (across all jobs).
    pub retried: usize,
    /// Jobs that ended in a terminal failure (panic or permanent error).
    pub failed: usize,
    /// Jobs not attempted (cancellation or `max_jobs` stop).
    pub skipped: usize,
    /// Wall-clock of this invocation.
    pub wall_ms: u64,
}

impl CampaignSummary {
    /// The stable one-line form the CI smoke job greps.
    pub fn line(&self) -> String {
        format!(
            "summary: total={} run={} cached={} retried={} failed={} skipped={} wall_ms={}",
            self.total,
            self.run,
            self.cached,
            self.retried,
            self.failed,
            self.skipped,
            self.wall_ms
        )
    }
}

/// What became of one job of a manifest (beside its retry count).
enum Outcome {
    /// Ran to a stored result.
    Stored,
    /// A valid result was already stored.
    Cached,
    /// Terminal failure, journaled.
    Failed,
    /// Not attempted.
    Skipped,
}

/// Executes `specs` over `opts.threads` workers. Jobs whose hash is already
/// stored are counted as cache hits and skipped; the rest run with per-job
/// `catch_unwind` isolation and bounded retries, streaming results into
/// `store` as they complete.
pub fn run_jobs(
    specs: &[JobSpec],
    store: &Store,
    exec: &dyn Executor,
    opts: &RunOpts,
    cancel: &CancelToken,
) -> CampaignSummary {
    let started = std::time::Instant::now();
    let executed = AtomicUsize::new(0);
    let run_one = |_, spec: &JobSpec| -> (Outcome, usize) {
        if cancel.is_cancelled() {
            return (Outcome::Skipped, 0);
        }
        let hash = spec.hash();
        if store.has(&hash) {
            return (Outcome::Cached, 0);
        }
        // The executed-budget claim happens before running so `max_jobs`
        // is exact: exactly that many cache misses execute.
        if let Some(max) = opts.max_jobs {
            if executed.fetch_add(1, Ordering::Relaxed) >= max {
                cancel.cancel();
                return (Outcome::Skipped, 0);
            }
        }
        let mut attempts: u32 = 0;
        let failure = loop {
            match catch_unwind(AssertUnwindSafe(|| exec.run(spec, store))) {
                Ok(Ok(mut rec)) => {
                    rec.hash = hash.clone();
                    rec.retries = attempts;
                    match store.put(&rec) {
                        Ok(()) => return (Outcome::Stored, attempts as usize),
                        Err(_) => return (Outcome::Failed, attempts as usize),
                    }
                }
                Ok(Err(JobError::Transient(_))) if attempts < opts.retries => {
                    std::thread::sleep(std::time::Duration::from_millis(
                        opts.backoff_ms << attempts.min(10),
                    ));
                    attempts += 1;
                }
                Ok(Err(e)) => break e.message().to_owned(),
                Err(payload) => break format!("panic: {}", panic_message(payload.as_ref())),
            }
        };
        let _ = store.record_failure(&hash, &failure, attempts);
        (Outcome::Failed, attempts as usize)
    };

    let mut summary = CampaignSummary {
        total: specs.len(),
        ..CampaignSummary::default()
    };
    for outcome in run_ordered_results(specs, opts.threads, run_one) {
        // A panic that escaped `run_one` came from the store, not the
        // executor: there is nothing to journal it with.
        let (outcome, retried) = outcome.unwrap_or((Outcome::Failed, 0));
        summary.retried += retried;
        match outcome {
            Outcome::Stored => summary.run += 1,
            Outcome::Cached => summary.cached += 1,
            Outcome::Failed => summary.failed += 1,
            Outcome::Skipped => summary.skipped += 1,
        }
    }
    summary.wall_ms = started.elapsed().as_millis() as u64;
    summary
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobKind, PlanSpec};
    use hb_core::MachineConfig;
    use std::sync::Mutex;

    fn specs(n: usize) -> Vec<JobSpec> {
        (0..n)
            .map(|i| JobSpec {
                kind: JobKind::Fault,
                kernel: "mock".to_owned(),
                seed: i as u64,
                plan: PlanSpec::Seeded { faults: 1 },
                config: MachineConfig::baseline_16x8(),
                label: format!("job {i}"),
            })
            .collect()
    }

    fn open_store(tag: &str) -> (Store, std::path::PathBuf) {
        let d =
            std::env::temp_dir().join(format!("hb-serve-pool-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        (Store::open(&d).unwrap(), d)
    }

    struct MockExec {
        /// seeds that panic every time
        panics: Vec<u64>,
        /// seeds that fail transiently this many times before succeeding
        flaky: Mutex<std::collections::HashMap<u64, u32>>,
    }

    impl MockExec {
        fn ok() -> MockExec {
            MockExec {
                panics: Vec::new(),
                flaky: Mutex::new(Default::default()),
            }
        }
    }

    impl Executor for MockExec {
        fn run(&self, spec: &JobSpec, _store: &Store) -> Result<JobRecord, JobError> {
            if self.panics.contains(&spec.seed) {
                panic!("job {} exploded", spec.seed);
            }
            if let Some(left) = self.flaky.lock().unwrap().get_mut(&spec.seed) {
                if *left > 0 {
                    *left -= 1;
                    return Err(JobError::Transient("flaky io".to_owned()));
                }
            }
            Ok(JobRecord {
                kind: spec.kind.canonical(),
                kernel: spec.kernel.clone(),
                seed: spec.seed,
                outcome: "masked".to_owned(),
                cycles: 100 + spec.seed,
                ..JobRecord::default()
            })
        }
    }

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..64).collect();
        let out = run_ordered(&items, 4, |i, &item| {
            assert_eq!(i, item);
            item * 10
        });
        assert_eq!(out, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_is_inline_and_ordered() {
        let caller = std::thread::current().id();
        let out = run_ordered(&["a", "b", "c"], 1, |i, s| {
            assert_eq!(std::thread::current().id(), caller);
            format!("{i}{s}")
        });
        assert_eq!(out, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = run_ordered(&[7usize], 16, |_, x| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn a_panicking_job_does_not_poison_the_pool() {
        let items: Vec<usize> = (0..8).collect();
        let out = run_ordered_results(&items, 4, |_, &item| {
            if item == 3 {
                panic!("point {item} exploded");
            }
            item * 10
        });
        assert_eq!(out.len(), 8);
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                let p = r.as_ref().unwrap_err();
                assert_eq!(p.index, 3);
                assert!(p.message.contains("point 3 exploded"), "{p:?}");
            } else {
                assert_eq!(*r, Ok(i * 10), "job {i} completed despite job 3");
            }
        }
        // Same isolation on the single-threaded path.
        let out = run_ordered_results(&[0usize, 1], 1, |_, &item| {
            if item == 0 {
                panic!("boom");
            }
            item
        });
        assert!(out[0].is_err());
        assert_eq!(out[1], Ok(1));
    }

    #[test]
    fn run_ordered_reraises_the_first_panic_in_order() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_ordered(&[0usize, 1, 2], 2, |_, &item| {
                if item >= 1 {
                    panic!("item {item} bad");
                }
                item
            })
        }));
        let msg = panic_message(caught.unwrap_err().as_ref());
        assert!(msg.contains("job 1 panicked"), "{msg}");
        assert!(msg.contains("item 1 bad"), "{msg}");
    }

    #[test]
    fn runs_all_then_all_cached() {
        let (store, dir) = open_store("basic");
        let specs = specs(16);
        let opts = RunOpts {
            threads: 4,
            ..RunOpts::default()
        };
        let s = run_jobs(&specs, &store, &MockExec::ok(), &opts, &CancelToken::new());
        assert_eq!((s.total, s.run, s.cached, s.failed), (16, 16, 0, 0));
        let s2 = run_jobs(&specs, &store, &MockExec::ok(), &opts, &CancelToken::new());
        assert_eq!(
            (s2.run, s2.cached),
            (0, 16),
            "identical rerun is 100% cache hits"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_job_fails_alone() {
        let (store, dir) = open_store("panic");
        let specs = specs(8);
        let exec = MockExec {
            panics: vec![3],
            flaky: Mutex::new(Default::default()),
        };
        let opts = RunOpts {
            threads: 4,
            ..RunOpts::default()
        };
        let s = run_jobs(&specs, &store, &exec, &opts, &CancelToken::new());
        assert_eq!((s.run, s.failed), (7, 1), "{s:?}");
        let journal = store.journal().unwrap();
        let fail: Vec<_> = journal.iter().filter(|e| e.status == "failed").collect();
        assert_eq!(fail.len(), 1);
        assert!(fail[0].detail.contains("job 3 exploded"), "{:?}", fail[0]);
        // The failed job re-runs on resume (and panics again deterministically).
        let s2 = run_jobs(&specs, &store, &exec, &opts, &CancelToken::new());
        assert_eq!((s2.run, s2.cached, s2.failed), (0, 7, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_failures_retry_with_bounded_attempts() {
        let (store, dir) = open_store("retry");
        let specs = specs(4);
        let exec = MockExec {
            panics: Vec::new(),
            flaky: Mutex::new([(1u64, 2u32), (2, 99)].into()),
        };
        let opts = RunOpts {
            threads: 2,
            retries: 2,
            backoff_ms: 1,
            ..RunOpts::default()
        };
        let s = run_jobs(&specs, &store, &exec, &opts, &CancelToken::new());
        // seed 1 succeeds on its 3rd attempt (2 retries); seed 2 exhausts
        // the retry budget and fails.
        assert_eq!((s.run, s.failed), (3, 1), "{s:?}");
        assert_eq!(s.retried, 4, "2 (seed 1) + 2 (seed 2)");
        let rec = store
            .get(&specs[1].hash())
            .expect("seed 1 eventually stored");
        assert_eq!(rec.retries, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_jobs_stops_exactly_and_resume_completes() {
        let (store, dir) = open_store("maxjobs");
        let specs = specs(10);
        let opts = RunOpts {
            threads: 2,
            max_jobs: Some(4),
            ..RunOpts::default()
        };
        let s = run_jobs(&specs, &store, &MockExec::ok(), &opts, &CancelToken::new());
        assert_eq!(s.run, 4, "{s:?}");
        assert_eq!(s.run + s.cached + s.skipped, 10, "{s:?}");
        let resumed = run_jobs(
            &specs,
            &store,
            &MockExec::ok(),
            &RunOpts {
                threads: 2,
                ..RunOpts::default()
            },
            &CancelToken::new(),
        );
        assert_eq!((resumed.run, resumed.cached), (6, 4), "{resumed:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancellation_skips_remaining_jobs() {
        let (store, dir) = open_store("cancel");
        let specs = specs(6);
        let cancel = CancelToken::new();
        cancel.cancel();
        let s = run_jobs(
            &specs,
            &store,
            &MockExec::ok(),
            &RunOpts::default(),
            &cancel,
        );
        assert_eq!((s.run, s.skipped), (0, 6));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
