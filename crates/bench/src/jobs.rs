//! Host-level job parallelism for the figure/table sweep binaries.
//!
//! The fig10/fig15/ablation harnesses run many *independent* (kernel,
//! configuration) simulation points; [`run_ordered`] fans them out across a
//! scoped worker pool and collects results in submission order, so table
//! rows print exactly as in the sequential harness. This is the second
//! level of parallelism on top of the per-Machine tile-phase pool
//! (`hb_core::TilePool`): when job-level fan-out is active, Machines should
//! run with `threads = 1` (see [`point_config`]) so the host is not
//! oversubscribed.

use hb_core::MachineConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Job-level worker count for a sweep binary: `--threads N` (or
/// `--threads=N`) on the command line wins, else the `HB_THREADS`
/// environment variable, else 1.
pub fn job_threads() -> usize {
    crate::cli::arg_value("--threads")
        .and_then(|v| v.parse::<usize>().ok())
        .map_or_else(hb_core::threads_from_env, |n| n.max(1))
}

/// The configuration a fanned-out simulation point should run with: when
/// more than one job runs at a time, each Machine keeps its tile phase
/// sequential (`threads = 1`) so total host threads ≈ `jobs`, not
/// `jobs * threads`. Simulated results are identical either way.
pub fn point_config(base: &MachineConfig, jobs: usize) -> MachineConfig {
    MachineConfig {
        threads: if jobs > 1 { 1 } else { base.threads },
        ..base.clone()
    }
}

/// One job's panic, caught and isolated by [`run_ordered_results`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Submission index of the job that panicked.
    pub index: usize,
    /// Best-effort panic payload message.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

/// Runs `f` over every item on up to `threads` scoped workers and returns
/// one `Result` **per item, in item order** (work-stealing execution,
/// deterministic collection). Each job runs under `catch_unwind`, so a
/// panicking job yields `Err(JobPanic)` in its own slot and every other job
/// still completes — one bad simulation point cannot take down a
/// whole-figure sweep. `threads <= 1` degrades to a plain in-order loop
/// (with the same isolation).
pub fn run_ordered_results<I, T, F>(items: Vec<I>, threads: usize, f: F) -> Vec<Result<T, JobPanic>>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let guarded = |i: usize, item: I| -> Result<T, JobPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|payload| JobPanic {
            index: i,
            message: panic_message(payload.as_ref()),
        })
    };
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| guarded(i, item))
            .collect();
    }
    let work: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let slots: Vec<Mutex<Option<Result<T, JobPanic>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i].lock().unwrap().take().expect("item claimed once");
                let out = guarded(i, item);
                *slots[i].lock().unwrap() = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every job completed"))
        .collect()
}

/// [`run_ordered_results`] for harnesses that treat any panic as fatal:
/// every *other* job still runs to completion first, then the first panic
/// (in item order) is re-raised with its index and message.
pub fn run_ordered<I, T, F>(items: Vec<I>, threads: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    run_ordered_results(items, threads, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| panic!("{p}")))
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
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

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..64).collect();
        let out = run_ordered(items, 4, |i, item| {
            assert_eq!(i, item);
            item * 10
        });
        assert_eq!(out, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_is_inline_and_ordered() {
        let out = run_ordered(vec!["a", "b", "c"], 1, |i, s| format!("{i}{s}"));
        assert_eq!(out, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = run_ordered(vec![7usize], 16, |_, x| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn a_panicking_job_does_not_poison_the_pool() {
        let items: Vec<usize> = (0..8).collect();
        let out = run_ordered_results(items, 4, |_, item| {
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
        let out = run_ordered_results(vec![0usize, 1], 1, |_, item| {
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
            run_ordered(vec![0usize, 1, 2], 2, |_, item| {
                if item >= 1 {
                    panic!("item {item} bad");
                }
                item
            })
        }));
        let msg = super::panic_message(caught.unwrap_err().as_ref());
        assert!(msg.contains("job 1 panicked"), "{msg}");
        assert!(msg.contains("item 1 bad"), "{msg}");
    }

    #[test]
    fn point_config_forces_sequential_tiles_under_fanout() {
        let mut base = MachineConfig::baseline_16x8();
        base.threads = 8;
        assert_eq!(point_config(&base, 4).threads, 1);
        assert_eq!(point_config(&base, 1).threads, 8);
    }
}
