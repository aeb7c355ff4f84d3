//! One resolver for suite jobs: an `ablation:*` job accepts exactly the
//! tokens of `hb_kernels::kernels()`, case-insensitively.

use hb_core::{CellDim, MachineConfig};
use hb_serve::{Executor, JobKind, JobSpec, PlanSpec, SimExecutor, Store};

fn spec(kernel: &str, config: &MachineConfig) -> JobSpec {
    JobSpec {
        kind: JobKind::Ablation {
            size: "tiny".to_owned(),
        },
        kernel: kernel.to_owned(),
        seed: 0,
        plan: PlanSpec::None,
        config: config.clone(),
        label: kernel.to_owned(),
    }
}

#[test]
fn every_registry_token_runs_as_an_ablation_job() {
    let dir = std::env::temp_dir().join(format!("hb-serve-tokens-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    let cfg = MachineConfig {
        cell_dim: CellDim { x: 4, y: 2 },
        ..MachineConfig::baseline_16x8()
    };
    let sim = SimExecutor::new(1);
    for (token, _) in hb_kernels::kernels() {
        // Tokens resolve case-insensitively.
        let ablation = sim
            .run(&spec(&token.to_ascii_lowercase(), &cfg), &store)
            .unwrap_or_else(|e| panic!("{token}: {}", e.message()));
        assert_eq!(ablation.outcome, "ok", "{token}");
    }
    let err = sim
        .run(&spec("SGEMM@tiled", &cfg), &store)
        .expect_err("not a registry token");
    assert!(
        err.message().contains("unknown kernel"),
        "{}",
        err.message()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
