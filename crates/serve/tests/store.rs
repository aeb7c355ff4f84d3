//! Integration tests for the caching contract: identical resubmission is a
//! cache hit, any change to seed or configuration is a miss, a mid-campaign
//! kill (journal truncation + missing objects) resumes cleanly, and the
//! resumed campaign's report is byte-identical to an uninterrupted one.
//!
//! A counting mock executor stands in for the simulator so these tests pin
//! the *service* semantics, not simulation results (`tests/resume.rs` does
//! the real-simulation end-to-end pass).

use hb_core::MachineConfig;
use hb_serve::{
    report, run_jobs, Campaign, CancelToken, Executor, JobError, JobRecord, JobSpec, RunOpts, Store,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingExec {
    executions: AtomicUsize,
}

impl CountingExec {
    fn new() -> CountingExec {
        CountingExec {
            executions: AtomicUsize::new(0),
        }
    }

    fn count(&self) -> usize {
        self.executions.load(Ordering::Relaxed)
    }
}

impl Executor for CountingExec {
    fn run(&self, spec: &JobSpec, _store: &Store) -> Result<JobRecord, JobError> {
        self.executions.fetch_add(1, Ordering::Relaxed);
        Ok(JobRecord {
            kind: spec.kind.canonical(),
            kernel: spec.kernel.clone(),
            seed: spec.seed,
            outcome: if spec.kind == hb_serve::JobKind::Fault {
                "masked".to_owned()
            } else {
                "ok".to_owned()
            },
            site: "regfile".to_owned(),
            inj_cycle: 100 + spec.seed,
            cycles: 1000 + spec.seed,
            instrs: 400 + spec.seed,
            dram_digest: 0xD1_6E57 ^ spec.seed,
            ..JobRecord::default()
        })
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hb-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn config() -> MachineConfig {
    // Host-only fields pinned to the values `from_canonical_text` restores,
    // so manifest roundtrips compare equal.
    MachineConfig {
        threads: 1,
        event_core: true,
        ..MachineConfig::baseline_16x8()
    }
}

#[test]
fn identical_resubmit_hits_changed_inputs_miss() {
    let dir = tmpdir("cache");
    let store = Store::open(dir.join("store")).unwrap();
    let exec = CountingExec::new();
    let opts = RunOpts {
        threads: 2,
        ..RunOpts::default()
    };

    let campaign = Campaign::fault("c", "sgemm", &config(), 7, 10);
    let s = campaign.run(&store, &exec, &opts, &CancelToken::new());
    assert_eq!((s.run, s.cached, s.failed), (11, 0, 0), "{s:?}");
    assert_eq!(exec.count(), 11);

    // Identical resubmission: zero executions, all cache hits.
    let s = campaign.run(&store, &exec, &opts, &CancelToken::new());
    assert_eq!((s.run, s.cached), (0, 11), "{s:?}");
    assert_eq!(exec.count(), 11, "cache hits must not re-execute");

    // Shifted base seed: identity is per-job (kind, kernel, seed, plan,
    // config), so the overlapping seeds 8..=16 and the golden all hit; only
    // the genuinely new seed 17 runs.
    let reseeded = Campaign::fault("c", "sgemm", &config(), 8, 10);
    let s = reseeded.run(&store, &exec, &opts, &CancelToken::new());
    assert_eq!((s.run, s.cached), (1, 10), "{s:?}");

    // Different machine configuration: everything misses.
    let mut cfg = config();
    cfg.ruche_factor = 0;
    let reconfigured = Campaign::fault("c", "sgemm", &cfg, 7, 10);
    let s = reconfigured.run(&store, &exec, &opts, &CancelToken::new());
    assert_eq!((s.run, s.cached), (11, 0), "{s:?}");

    // Host thread count is NOT part of the identity.
    let mut threaded_cfg = config();
    threaded_cfg.threads = 8;
    let threaded = Campaign::fault("c", "sgemm", &threaded_cfg, 7, 10);
    let s = threaded.run(&store, &exec, &opts, &CancelToken::new());
    assert_eq!((s.run, s.cached), (0, 11), "{s:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_campaign_resumes_to_a_byte_identical_report() {
    let dir_killed = tmpdir("killed");
    let dir_clean = tmpdir("clean");
    let campaign = Campaign::fault("avf", "sgemm", &config(), 3, 20);
    let opts = RunOpts {
        threads: 2,
        ..RunOpts::default()
    };

    // Uninterrupted twin.
    let store_clean = Store::open(dir_clean.join("store")).unwrap();
    let exec = CountingExec::new();
    let s = campaign.run(&store_clean, &exec, &opts, &CancelToken::new());
    assert_eq!(s.run, 21);
    let clean_report = report::build(&campaign, &store_clean);

    // "Killed" run: stop after 9 executions, then simulate the kill artifact
    // by truncating the journal mid-line.
    let store = Store::open(dir_killed.join("store")).unwrap();
    let exec = CountingExec::new();
    let s = campaign.run(
        &store,
        &exec,
        &RunOpts {
            max_jobs: Some(9),
            ..opts.clone()
        },
        &CancelToken::new(),
    );
    assert_eq!(s.run, 9, "{s:?}");
    assert!(s.skipped > 0, "{s:?}");
    let journal_path = dir_killed.join("store").join("journal.ndjson");
    let text = std::fs::read_to_string(&journal_path).unwrap();
    std::fs::write(&journal_path, &text[..text.len() - 7]).unwrap();

    // Resume: only the missing jobs run (the truncated journal line's object
    // was already durably stored, so it stays a cache hit).
    let s = campaign.run(&store, &exec, &opts, &CancelToken::new());
    assert_eq!((s.run, s.cached), (12, 9), "{s:?}");
    assert_eq!(exec.count(), 9 + 12);

    // The resumed report is byte-identical to the uninterrupted one.
    assert_eq!(report::build(&campaign, &store), clean_report);
    assert!(clean_report.contains("jobs: total=21 done=21 missing=0"));

    let _ = std::fs::remove_dir_all(&dir_killed);
    let _ = std::fs::remove_dir_all(&dir_clean);
}

#[test]
fn manifest_saves_and_loads_through_disk() {
    let dir = tmpdir("manifest");
    let campaign = Campaign::fault("disk", "jacobi", &config(), 11, 4);
    campaign.save(&dir).unwrap();
    let loaded = Campaign::load(&dir).unwrap();
    assert_eq!(loaded, campaign);
    assert_eq!(loaded.hashes(), campaign.hashes());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_counts_done_and_missing() {
    let dir = tmpdir("status");
    let store = Store::open(dir.join("store")).unwrap();
    let campaign = Campaign::fault("st", "sgemm", &config(), 5, 6);
    let exec = CountingExec::new();
    let s = run_jobs(
        &campaign.specs[..3],
        &store,
        &exec,
        &RunOpts::default(),
        &CancelToken::new(),
    );
    assert_eq!(s.run, 3);
    let status = campaign.status(&store);
    assert_eq!((status.done, status.missing), (3, 4));
    assert_eq!(
        status.line(),
        "status: done=3 missing=4 failed_previously=0"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
