//! End-to-end mid-job crash/resume: the `ckpt-smoke` CI job in miniature.
//! Runs the real `hb-serve` binary with `--ckpt-every` plus the
//! deterministic `--crash-after-ckpts` kill (a stand-in for `kill -9`
//! mid-simulation), resumes the campaign, and asserts the final report is
//! byte-identical to an uninterrupted twin's — the whole point of
//! bit-exact checkpoint restore.

use std::path::Path;
use std::process::Command;

fn run_args(dir: &Path) -> Vec<String> {
    [
        "run",
        "--dir",
        &dir.display().to_string(),
        "--kernel",
        "jacobi",
        "--faults",
        "2",
        "--seed",
        "1",
        "--threads",
        "1",
        "--ckpt-every",
        "1000",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

#[test]
fn killed_campaign_resumes_mid_job_with_identical_report() {
    let bin = env!("CARGO_BIN_EXE_hb-serve");
    let base = std::env::temp_dir().join(format!("hb-serve-ckpt-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let clean = base.join("clean");
    let killed = base.join("killed");

    // Uninterrupted twin.
    let out = Command::new(bin).args(run_args(&clean)).output().unwrap();
    assert!(
        out.status.success(),
        "clean run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The same campaign, killed hard after two mid-job checkpoint writes.
    let mut kargs = run_args(&killed);
    kargs.extend(["--crash-after-ckpts".to_owned(), "2".to_owned()]);
    let out = Command::new(bin).args(kargs).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "expected the deterministic mid-run kill; stdout: {} stderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    // The kill left a resumable mid-job checkpoint in the store.
    let ckpt_dir = killed.join("store").join("ckpt");
    let resumable = std::fs::read_dir(&ckpt_dir).map(|d| d.count()).unwrap_or(0);
    assert!(
        resumable > 0,
        "no resume checkpoint under {}",
        ckpt_dir.display()
    );

    // Resume to completion; the restored job continues from its checkpoint.
    let out = Command::new(bin)
        .args([
            "resume",
            "--dir",
            &killed.display().to_string(),
            "--threads",
            "1",
            "--ckpt-every",
            "1000",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Byte-identical aggregate — exactly what CI `cmp`-asserts.
    let clean_report = std::fs::read(clean.join("report.txt")).unwrap();
    let killed_report = std::fs::read(killed.join("report.txt")).unwrap();
    assert_eq!(
        clean_report, killed_report,
        "resumed report diverges from the uninterrupted twin"
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// Where the checkpoints fall: a fault run checkpoints after each
/// `--ckpt-every` leg it is still running at, counting legs from the cycle
/// it forked or resumed at, and `--crash-after-ckpts k` exits on the k-th
/// write. So a crash run leaves one checkpoint, and its job and capture
/// cycle pin the cadence; the report identity above would not notice a
/// checkpoint written at another cycle. The jobs are those of the
/// `ckpt-smoke` CI campaign (k = 3 is its crash).
#[test]
fn crash_runs_leave_the_checkpoint_the_cadence_puts_there() {
    let bin = env!("CARGO_BIN_EXE_hb-serve");
    let base = std::env::temp_dir().join(format!("hb-serve-ckpt-cadence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let pins = [
        (1, "7ac0a55266bcc5375ae30ccad5a0b744", 3048),
        (2, "7ac0a55266bcc5375ae30ccad5a0b744", 4048),
        (3, "456aa4ff4249fffc7fc715fe6214f957", 3048),
        (5, "7e3ef06ccacb991940e7b4b6f64ed006", 1000),
    ];
    for (k, job, cycle) in pins {
        let dir = base.join(format!("k{k}"));
        let dir_arg = dir.display().to_string();
        let k_arg = k.to_string();
        let out = Command::new(bin)
            .args([
                "run", "--dir", &dir_arg, "--kernel", "jacobi", "--faults", "25",
            ])
            .args(["--seed", "7", "--threads", "1", "--ckpt-every", "1000"])
            .args(["--crash-after-ckpts", &k_arg])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(3), "k={k}: expected the kill");
        let files: Vec<_> = std::fs::read_dir(dir.join("store").join("ckpt"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files.len(), 1, "k={k}: {files:?}");
        assert_eq!(
            files[0].file_name().unwrap().to_str(),
            Some(format!("{job}.ckpt").as_str()),
            "k={k}"
        );
        let bytes = std::fs::read(&files[0]).unwrap();
        assert_eq!(hb_ckpt::decode(&bytes).unwrap().cycle, cycle, "k={k}");
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// What an existing store meets after a `CKPT_VERSION` bump — here 3 → 4,
/// the per-bank and per-strip clocks giving way to one memory clock, with
/// no version-3 reader kept: the resume checkpoint a killed worker left
/// behind says version 3. Whatever follows such a header is never looked
/// at, so it may not fail the campaign — the checkpoint is dropped and its
/// job starts over — and the report must not change.
#[test]
fn stale_version_checkpoints_are_discarded_on_resume() {
    let bin = env!("CARGO_BIN_EXE_hb-serve");
    let base = std::env::temp_dir().join(format!("hb-serve-ckpt-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let clean = base.join("clean");
    let killed = base.join("killed");

    let out = Command::new(bin).args(run_args(&clean)).output().unwrap();
    assert!(
        out.status.success(),
        "clean run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut kargs = run_args(&killed);
    kargs.extend(["--crash-after-ckpts".to_owned(), "2".to_owned()]);
    let out = Command::new(bin).args(kargs).output().unwrap();
    assert_eq!(out.status.code(), Some(3), "expected the mid-run kill");

    // Stamp every leftover checkpoint with the previous format version.
    assert_eq!(hb_ckpt::CKPT_VERSION, 4);
    let ckpt_dir = killed.join("store").join("ckpt");
    let leftovers: Vec<_> = std::fs::read_dir(&ckpt_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(
        !leftovers.is_empty(),
        "expected a resume checkpoint, found none"
    );
    for path in &leftovers {
        let mut bytes = std::fs::read(path).unwrap();
        assert_eq!(bytes[8..12], hb_ckpt::CKPT_VERSION.to_le_bytes());
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
        assert!(matches!(
            hb_ckpt::decode(&bytes),
            Err(hb_ckpt::CkptError::Version { found: 3 })
        ));
    }

    let out = Command::new(bin)
        .args([
            "resume",
            "--dir",
            &killed.display().to_string(),
            "--threads",
            "1",
            "--ckpt-every",
            "1000",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "resume over stale checkpoints failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    for path in &leftovers {
        assert!(!path.exists(), "stale resume checkpoint survived: {path:?}");
    }
    assert_eq!(
        std::fs::read(clean.join("report.txt")).unwrap(),
        std::fs::read(killed.join("report.txt")).unwrap(),
        "report over stale checkpoints diverges from the uninterrupted twin"
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// `--crash-after-ckpts` runs on one worker, whatever the host's count:
/// without `--threads` it kills the campaign at the checkpoint a
/// `--threads 1` run does and leaves the same bytes behind, and asking it
/// for more workers is a usage error before anything runs.
#[test]
fn a_crash_run_is_one_worker() {
    let bin = env!("CARGO_BIN_EXE_hb-serve");
    let base = std::env::temp_dir().join(format!("hb-serve-ckpt-one-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let crash = |dir: &Path, threads: Option<&str>| {
        let mut args = run_args(dir);
        let at = args.iter().position(|a| a == "--threads").unwrap();
        args.drain(at..at + 2);
        if let Some(n) = threads {
            args.extend(["--threads".to_owned(), n.to_owned()]);
        }
        args.extend(["--crash-after-ckpts".to_owned(), "2".to_owned()]);
        Command::new(bin).args(args).output().unwrap()
    };
    let ckpts = |dir: &Path| {
        let mut files: Vec<_> = std::fs::read_dir(dir.join("store").join("ckpt"))
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                (
                    path.file_name().unwrap().to_owned(),
                    std::fs::read(&path).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    };

    let one = crash(&base.join("one"), Some("1"));
    let default = crash(&base.join("default"), None);
    assert_eq!(one.status.code(), Some(3), "the --threads 1 kill");
    assert_eq!(default.status.code(), Some(3), "the default kill");
    assert!(!ckpts(&base.join("one")).is_empty());
    assert_eq!(ckpts(&base.join("one")), ckpts(&base.join("default")));

    let refused = crash(&base.join("two"), Some("2"));
    assert_eq!(refused.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert_eq!(
        stderr.lines().filter(|l| l.starts_with("error:")).count(),
        1
    );
    assert!(stderr.contains("--crash-after-ckpts"), "{stderr}");
    assert!(!base.join("two").exists(), "a refused run wrote a campaign");
    let _ = std::fs::remove_dir_all(&base);
}

/// A campaign forks every fault job from golden-prefix captures, which
/// stay in memory. The same campaign run again on the same executor (into
/// a second store) is a warm rerun; its fault jobs restore the captures
/// the cold run made, and must classify every seed exactly as the cold run
/// did.
#[test]
fn warm_campaign_classifies_identically_to_cold() {
    use hb_core::MachineConfig;
    use hb_serve::{Campaign, CancelToken, RunOpts, SimExecutor, Store};

    let base = std::env::temp_dir().join(format!("hb-serve-warm-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cfg = MachineConfig::baseline_16x8();
    let opts = RunOpts {
        threads: 1,
        ..RunOpts::default()
    };
    let sim = SimExecutor::new(1);
    let campaign = Campaign::fault("cold", "jacobi", &cfg, 1, 2);

    let cold_store = Store::open(base.join("cold")).unwrap();
    let s = campaign.run(&cold_store, &sim, &opts, &CancelToken::new());
    assert_eq!((s.run, s.failed), (3, 0), "{s:?}");

    let warm_store = Store::open(base.join("warm")).unwrap();
    let s = campaign.run(&warm_store, &sim, &opts, &CancelToken::new());
    assert_eq!((s.run, s.cached, s.failed), (3, 0, 0), "{s:?}");

    // Captures stay in memory: neither store holds a checkpoint.
    for store in ["cold", "warm"] {
        let ckpts = std::fs::read_dir(base.join(store).join("ckpt"))
            .map(|d| d.count())
            .unwrap_or(0);
        assert_eq!(ckpts, 0, "a checkpoint in the {store} store");
    }

    // Per-seed classification is bit-identical.
    for spec in &campaign.specs {
        let cr = cold_store.get(&spec.hash()).expect("cold record");
        let wr = warm_store.get(&spec.hash()).expect("warm record");
        assert_eq!(
            (
                &cr.outcome,
                cr.cycles,
                cr.instrs,
                cr.dram_digest,
                &cr.site,
                cr.inj_cycle
            ),
            (
                &wr.outcome,
                wr.cycles,
                wr.instrs,
                wr.dram_digest,
                &wr.site,
                wr.inj_cycle
            ),
            "the warm run diverged for seed {}",
            spec.seed
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}
