//! One resolver for every job kind: an `ablation:*`, `profile:*` or
//! `race:*` job accepts exactly the tokens of `hb_kernels::kernels()`.
//! (Before the registry the three disagreed: ablation knew
//! `SGEMM@blocked` but not `BFS@diropt`, profile knew neither.)

use hb_core::{CellDim, MachineConfig};
use hb_serve::{Executor, JobKind, JobSpec, PlanSpec, SimExecutor, Store};

fn spec(kind: JobKind, kernel: &str, config: &MachineConfig) -> JobSpec {
    JobSpec {
        kind,
        kernel: kernel.to_owned(),
        seed: 0,
        plan: PlanSpec::None,
        config: config.clone(),
        label: kernel.to_owned(),
    }
}

#[test]
fn every_registry_token_runs_as_every_suite_job_kind() {
    let dir = std::env::temp_dir().join(format!("hb-serve-tokens-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    let cfg = MachineConfig {
        cell_dim: CellDim { x: 4, y: 2 },
        ..MachineConfig::baseline_16x8()
    };
    let sim = SimExecutor::new(1);
    let size = || "tiny".to_owned();
    for (token, _) in hb_kernels::kernels() {
        // Tokens resolve case-insensitively, as `--kernels sgemm` always did.
        let lower = token.to_ascii_lowercase();
        let run = |kind: JobKind| {
            sim.run(&spec(kind.clone(), &lower, &cfg), &store)
                .unwrap_or_else(|e| panic!("{token} as {}: {}", kind.canonical(), e.message()))
        };
        let ablation = run(JobKind::Ablation { size: size() });
        assert_eq!(ablation.outcome, "ok", "{token}");
        let profile = run(JobKind::Profile { size: size() });
        assert!(!profile.profile.is_empty(), "{token}: no hot blocks");
        let race = run(JobKind::RaceCheck { size: size() });
        assert_eq!(race.outcome, "clean", "{token}: {}", race.checks);
        // Profiling and the sanitizer only observe.
        assert_eq!(profile.cycles, ablation.cycles, "{token}");
        assert_eq!(race.cycles, ablation.cycles, "{token}");
    }
    for kind in [
        JobKind::Ablation { size: size() },
        JobKind::Profile { size: size() },
        JobKind::RaceCheck { size: size() },
    ] {
        let err = sim
            .run(&spec(kind, "SGEMM@tiled", &cfg), &store)
            .expect_err("not a registry token");
        assert!(
            err.message().contains("unknown kernel"),
            "{}",
            err.message()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
