//! A fault campaign must classify every run; no injected fault may end
//! in a *host* panic. Five single-fault plans of the 4x4 SGEMM campaign
//! (job seeds found by the `hb_perf` benchmark's sweep of 1..=3000) flip
//! an address register so that a DRAM access straddles its cache line —
//! the bank would index past the line's data — or so that a tile traps
//! while misses are still in flight, which `CacheBank::flush_all` refuses.
//! The straddling access must trap the issuing tile (`detected`), and a
//! run that ends with misses in flight must drain them before the flush.

use hb_core::{CellDim, MachineConfig};
use hb_serve::{Campaign, Executor, SimExecutor, Store};

#[test]
fn the_five_panicking_seeds_classify() {
    let dir = std::env::temp_dir().join(format!("hb-serve-fault-panics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    let cfg = MachineConfig {
        cell_dim: CellDim { x: 4, y: 4 },
        ..MachineConfig::baseline_16x8()
    };
    let sim = SimExecutor::new(1);
    for seed in [375, 581, 1280, 1927, 2657] {
        let campaign = Campaign::fault("panics", "sgemm", &cfg, seed, 1);
        let rec = sim
            .run(&campaign.specs[1], &store)
            .unwrap_or_else(|e| panic!("seed {seed}: {}", e.message()));
        // All five corrupt an address register: the tile traps.
        assert_eq!(rec.outcome, "detected", "seed {seed}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
