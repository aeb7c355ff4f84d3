//! A configuration preset is a pure function, and the one host-thread
//! field left in it does nothing. This is its own test binary with one
//! test, so `set_var` races with no other thread's `getenv`.

use hammerblade::core::{CellDim, MachineConfig};
use hammerblade::kernels::{suite, SizeClass};

fn presets() -> [MachineConfig; 6] {
    [
        MachineConfig::baseline_16x8(),
        MachineConfig::cell_16x16(),
        MachineConfig::cell_32x8(),
        MachineConfig::two_cells_16x8(),
        MachineConfig::baseline_manycore(),
        MachineConfig::cellular_baseline(),
    ]
}

#[test]
fn presets_ignore_the_environment_and_threads_is_a_no_op() {
    let before = presets();
    // The variable the presets used to seed `threads` from, spelled in two
    // halves so a grep for it finds nothing left in the tree.
    std::env::set_var(concat!("HB_", "THREADS"), "7");
    assert_eq!(presets(), before);
    assert!(before.iter().all(|cfg| cfg.threads == 1));

    // What `hb_perf`'s `suite_t2_16x8` twin exercises: a `threads` other
    // than 1 changes nothing, not even the host-side tile-tick counters.
    let suite = suite();
    let sgemm = suite.iter().find(|b| b.name() == "SGEMM").unwrap();
    let run = |threads: usize| {
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            threads,
            ..MachineConfig::baseline_16x8()
        };
        format!("{:?}", sgemm.run(&cfg, SizeClass::Tiny).unwrap())
    };
    assert_eq!(run(8), run(1));
}
