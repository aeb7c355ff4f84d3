//! `hb-serve`: the campaign execution service.
//!
//! Fault-injection AVF campaigns and design-space ablation sweeps are
//! thousands of independent simulator runs. This crate turns them from
//! one-shot in-process loops into durable, resumable, cached campaigns:
//!
//! * [`spec`] — the job model. A [`JobSpec`] is the canonicalized
//!   (kind, kernel, seed, injection plan, [`MachineConfig`]) tuple with a
//!   stable content [`hash`](JobSpec::hash) that folds in a schema/binary
//!   revision, so results never alias across incompatible simulators.
//! * [`store`] — the content-addressed results [`Store`]: one JSON object
//!   per completed job under its hash, plus an append-only journal with
//!   truncated-tail recovery. Identical work is a cache hit forever.
//! * [`pool`] — the worker pool, the workspace's one level of host
//!   parallelism: an ordered, panic-isolating map over scoped workers, and
//!   on it the campaign runner — bounded in-flight memory, bounded retries
//!   with backoff, cooperative cancellation and an exact execution budget
//!   (`max_jobs`) for deterministic mid-run stops.
//! * [`exec`] — the [`SimExecutor`] that actually runs the simulator:
//!   golden references (with bit-identity and hb-iss anchoring checks),
//!   classified fault injections, and ablation benchmark points.
//! * [`campaign`] — named manifests of specs with save/load/status and
//!   phased (golden-first) execution.
//! * [`report`] — deterministic aggregation: AVF tables, sweep curves and
//!   completion counts, with no wall-clock in the artifact, so a resumed
//!   campaign reports byte-identically to an uninterrupted one.
//!
//! The `hb-serve` binary exposes this as `submit` / `run` / `profile` /
//! `status` / `resume` / `report` / `gc` (`run --expect` holds a fault
//! campaign to exact outcome counts); `hb-bench ablations` executes
//! through it too and inherits caching and resume. [`cli`] is the argument
//! walk both binaries share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod exec;
pub mod json;
pub mod pool;
pub mod report;
pub mod spec;
pub mod store;

pub use campaign::{Campaign, CampaignStatus};
pub use exec::{campaign_kernel, golden_spec, size_token, SimExecutor};
pub use pool::{
    default_threads, run_jobs, run_ordered, run_ordered_results, CampaignSummary, CancelToken,
    Executor, JobError, JobPanic, RunOpts,
};
pub use spec::{binary_rev, JobKind, JobSpec, PlanSpec, SCHEMA_REV};
pub use store::{GcStats, JobRecord, JournalEntry, Store};

#[cfg(doc)]
use hb_core::MachineConfig;
