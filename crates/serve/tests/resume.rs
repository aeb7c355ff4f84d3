//! End-to-end: a real (small) fault campaign through the real
//! [`SimExecutor`] — killed mid-run via the deterministic execution budget,
//! resumed, and checked byte-identical against an uninterrupted twin. This
//! is the debug-build miniature of the CI `serve-smoke` job.

use hb_core::MachineConfig;
use hb_serve::{report, Campaign, CancelToken, RunOpts, SimExecutor, Store};

#[test]
fn real_campaign_kill_resume_and_cache() {
    let dir = std::env::temp_dir().join(format!("hb-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = MachineConfig::baseline_16x8();
    // Jacobi is the cheaper campaign kernel (no iss-anchor re-run); 4 fault
    // jobs keeps this tractable in debug builds.
    let campaign = Campaign::fault("e2e jacobi", "jacobi", &cfg, 1, 4);
    let opts = RunOpts {
        threads: 2,
        ..RunOpts::default()
    };

    // Uninterrupted twin.
    let clean_store = Store::open(dir.join("clean")).unwrap();
    let s = campaign.run(
        &clean_store,
        &SimExecutor::new(opts.threads),
        &opts,
        &CancelToken::new(),
    );
    assert_eq!((s.run, s.cached, s.failed), (5, 0, 0), "{s:?}");
    let clean_report = report::build(&campaign, &clean_store);
    assert!(clean_report.contains("jobs: total=5 done=5 missing=0"));
    assert!(
        clean_report.contains("golden: kernel=jacobi"),
        "{clean_report}"
    );
    assert!(clean_report.contains("summary: masked="), "{clean_report}");

    // Killed-at-half twin: execution budget stops after the golden + 2.
    let store = Store::open(dir.join("killed")).unwrap();
    let s = campaign.run(
        &store,
        &SimExecutor::new(opts.threads),
        &RunOpts {
            max_jobs: Some(3),
            ..opts.clone()
        },
        &CancelToken::new(),
    );
    assert_eq!(s.run, 3, "{s:?}");
    assert_eq!(campaign.status(&store).missing, 2);

    // Resume with a *fresh* executor (cold golden cache — it must recover
    // the golden record from the store, not re-simulate into a mismatch).
    let s = campaign.run(
        &store,
        &SimExecutor::new(opts.threads),
        &opts,
        &CancelToken::new(),
    );
    assert_eq!((s.run, s.cached), (2, 3), "{s:?}");

    // Byte-identical aggregate, exactly what CI asserts on the big run.
    assert_eq!(report::build(&campaign, &store), clean_report);

    // Identical re-submission: 100% cache hits.
    let s = campaign.run(
        &store,
        &SimExecutor::new(opts.threads),
        &opts,
        &CancelToken::new(),
    );
    assert_eq!((s.run, s.cached), (0, 5), "{s:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
