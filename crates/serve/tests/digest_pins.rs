//! A stored `dram_digest` is part of what [`SCHEMA_REV`] names: fault jobs
//! are classified `masked` or `sdc` against the golden record's digest, and
//! a store written by one build is read by the next. Two pins hold it in
//! place. The golden records of the two 4x4 campaigns (the configuration
//! `fault_campaign` and the CI smoke jobs run) carry the digests, cycle and
//! instruction counts recorded from the build that introduced revision 3;
//! and [`digest`], which hashes each Cell's DRAM where it lies, equals the
//! definition it replaced — byte-serial FNV-1a-64 over a copy of every
//! Cell's image in Cell order — kept here as the reference.

use hb_core::{CellDim, Machine, MachineConfig, SnapshotDram};
use hb_kernels::{launch_on, SizeClass};
use hb_serve::exec::digest;
use hb_serve::{campaign_kernel, golden_spec, Executor, SimExecutor, Store, SCHEMA_REV};

fn campaign_cfg() -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: 4, y: 4 },
        ..MachineConfig::baseline_16x8()
    }
}

#[test]
fn golden_records_of_the_4x4_campaigns_have_not_moved() {
    // (kernel, cycles, instrs, dram_digest): re-record only together with a
    // `SCHEMA_REV` bump.
    const PINNED: [(&str, u64, u64, u64); 2] = [
        ("sgemm", 13_865, 143_520, 0xbed0_bb6d_4cc2_ddaf),
        ("jacobi", 4_955, 14_846, 0xb7f6_3477_9749_7c4d),
    ];
    assert_eq!(SCHEMA_REV, 3, "a new revision re-records PINNED");
    let dir = std::env::temp_dir().join(format!("hb-serve-digest-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    let sim = SimExecutor::new(1);
    for (kernel, cycles, instrs, dram_digest) in PINNED {
        let rec = sim
            .run(&golden_spec(kernel, &campaign_cfg()), &store)
            .unwrap_or_else(|e| panic!("{kernel}: {}", e.message()));
        assert_eq!(
            (rec.cycles, rec.instrs, rec.dram_digest),
            (cycles, instrs, dram_digest),
            "{kernel}: golden record moved ({:#018x})",
            rec.dram_digest
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_in_place_digest_is_fnv1a64_over_every_cells_image_in_cell_order() {
    // Two Cells, so that the order they are hashed in is part of the pin:
    // the campaign SGEMM on Cell 0, one stray word in Cell 1.
    let mut machine = Machine::new(MachineConfig {
        num_cells: 2,
        ..campaign_cfg()
    });
    let sgemm = campaign_kernel("sgemm").expect("a campaign kernel");
    launch_on(&mut machine, sgemm, SizeClass::Small);
    machine.cell_mut(1).dram_mut().write_u32(0x40, 0x5eed_f00d);
    machine.run(1_000_000).expect("sgemm finishes");
    machine.flush_all_caches();

    let copy = SnapshotDram::from_machine(&machine);
    let mut reference: u64 = 0xcbf2_9ce4_8422_2325;
    for cell in 0..2 {
        for &b in copy.cell(cell) {
            reference ^= u64::from(b);
            reference = reference.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(digest(&machine), reference);
}
