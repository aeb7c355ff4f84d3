//! Integration tests for the caching contract: identical resubmission is a
//! cache hit, any change to seed or configuration is a miss, a mid-campaign
//! kill (journal truncation + missing objects) resumes cleanly, and the
//! resumed campaign's report is byte-identical to an uninterrupted one.
//! The journal is the failure log: a stored job leaves no line in it, a
//! failed one exactly one.
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
    /// Seeds whose job returns an error.
    errs: Vec<u64>,
    /// Seeds whose job panics.
    panics: Vec<u64>,
}

impl CountingExec {
    fn new() -> CountingExec {
        CountingExec::failing(&[], &[])
    }

    fn failing(errs: &[u64], panics: &[u64]) -> CountingExec {
        CountingExec {
            executions: AtomicUsize::new(0),
            errs: errs.to_vec(),
            panics: panics.to_vec(),
        }
    }

    fn count(&self) -> usize {
        self.executions.load(Ordering::Relaxed)
    }
}

impl Executor for CountingExec {
    fn run(&self, spec: &JobSpec, _store: &Store) -> Result<JobRecord, JobError> {
        self.executions.fetch_add(1, Ordering::Relaxed);
        if self.panics.contains(&spec.seed) {
            panic!("seed {} exploded", spec.seed);
        }
        if self.errs.contains(&spec.seed) {
            return Err(JobError(format!("seed {} refused", spec.seed)));
        }
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

    // "Killed" run: its golden job (seed 0) fails, then it stops after 9
    // executions; simulate the kill artifact by truncating the golden's
    // `failed` journal line mid-line.
    let store = Store::open(dir_killed.join("store")).unwrap();
    let failing = CountingExec::failing(&[0], &[]);
    let s = campaign.run(
        &store,
        &failing,
        &RunOpts {
            max_jobs: Some(9),
            ..opts.clone()
        },
        &CancelToken::new(),
    );
    assert_eq!((s.run, s.failed), (8, 1), "{s:?}");
    assert!(s.skipped > 0, "{s:?}");
    let journal_path = dir_killed.join("store").join("journal.ndjson");
    let text = std::fs::read_to_string(&journal_path).unwrap();
    assert!(text.starts_with(&format!(
        "{{\"hash\":\"{}\",\"status\":\"failed\"",
        campaign.hashes()[0]
    )));
    std::fs::write(&journal_path, &text[..text.len() - 7]).unwrap();
    assert_eq!(store.journal(), Ok(Vec::new()), "the torn line is dropped");

    // Resume: only the missing jobs run, the failed golden among them (a
    // failure leaves no object, whatever became of its journal line).
    let exec = CountingExec::new();
    let s = campaign.run(&store, &exec, &opts, &CancelToken::new());
    assert_eq!((s.run, s.cached), (13, 8), "{s:?}");
    assert_eq!(failing.count() + exec.count(), 9 + 13);

    // The resumed report is byte-identical to the uninterrupted one.
    assert_eq!(report::build(&campaign, &store), clean_report);
    assert!(clean_report.contains("jobs: total=21 done=21 missing=0"));

    let _ = std::fs::remove_dir_all(&dir_killed);
    let _ = std::fs::remove_dir_all(&dir_clean);
}

#[test]
fn a_campaign_whose_jobs_all_succeed_leaves_no_journal_line() {
    let dir = tmpdir("nojournal");
    let store = Store::open(dir.join("store")).unwrap();
    let campaign = Campaign::fault("ok", "sgemm", &config(), 1, 6);
    let s = campaign.run(
        &store,
        &CountingExec::new(),
        &RunOpts::default(),
        &CancelToken::new(),
    );
    assert_eq!((s.run, s.failed), (7, 0), "{s:?}");
    assert!(!dir.join("store").join("journal.ndjson").exists());
    assert_eq!(store.journal(), Ok(Vec::new()));
    assert_eq!(
        campaign.status(&store).line(),
        "status: done=7 missing=0 failed_previously=0"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_erring_or_panicking_job_leaves_one_failed_line() {
    let dir = tmpdir("failed");
    let store = Store::open(dir.join("store")).unwrap();
    let campaign = Campaign::fault("f", "sgemm", &config(), 5, 4);
    let exec = CountingExec::failing(&[5], &[7]);
    let opts = RunOpts {
        threads: 2,
        ..RunOpts::default()
    };
    let s = campaign.run(&store, &exec, &opts, &CancelToken::new());
    assert_eq!((s.run, s.failed), (3, 2), "{s:?}");
    assert_eq!(exec.count(), 5, "each job runs once");

    let mut journal = store.journal().unwrap();
    journal.sort_by_key(|e| e.detail.clone());
    let hashes = campaign.hashes();
    let lines: Vec<_> = (journal.iter())
        .map(|e| (&e.hash[..], &e.status[..], &e.detail[..], e.retries))
        .collect();
    assert_eq!(
        lines,
        [
            (&hashes[3][..], "failed", "panic: seed 7 exploded", 0),
            (&hashes[1][..], "failed", "seed 5 refused", 0),
        ]
    );
    assert_eq!(
        campaign.status(&store).line(),
        "status: done=3 missing=2 failed_previously=2"
    );

    // A resume runs the two failed jobs again, once each; the journal
    // keeps the earlier failures, and `status` counts only missing jobs.
    let exec = CountingExec::new();
    let s = campaign.run(&store, &exec, &opts, &CancelToken::new());
    assert_eq!((s.run, s.cached, s.failed), (2, 3, 0), "{s:?}");
    assert_eq!(store.journal().unwrap().len(), 2);
    assert_eq!(
        campaign.status(&store).line(),
        "status: done=5 missing=0 failed_previously=0"
    );
    let _ = std::fs::remove_dir_all(&dir);
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
