//! A stored `dram_digest` is part of what [`SCHEMA_REV`] names: fault jobs
//! are classified `masked` or `sdc` against the golden record's digest, and
//! a store written by one build is read by the next. Two pins hold it in
//! place. The golden records of the two 4x4 campaigns (the configuration
//! the CI fault-smoke and serve-smoke jobs run) carry the digests, cycle and
//! instruction counts recorded from the build that introduced revision 3;
//! and [`digest`], which walks only the non-zero extents of each Cell's DRAM
//! and steps over the zeros between them in closed form, equals its
//! definition — byte-serial FNV-1a-64 over every byte of every Cell's image
//! in Cell order — kept here as the reference, on the campaign's own memory
//! and on images built to sit on every edge of the extent scan.

use hb_core::{CellDim, Machine, MachineConfig};
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
    assert_eq!(SCHEMA_REV, 4, "a new revision re-records PINNED");
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

    assert_eq!(digest(&machine), reference(&machine));
}

/// The definition: one FNV-1a-64 step per byte, zero or not.
fn reference(machine: &Machine) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for cell in 0..machine.num_cells() {
        let dram = machine.cell(cell as u8).dram();
        let mut image = vec![0; dram.len()];
        dram.read_into(0, &mut image);
        for b in image {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn the_digest_steps_over_zeros_exactly() {
    const BLOCK: u32 = 4096;
    // Not a multiple of the scan's block: the last block is a partial one.
    const LEN: u32 = 24 * BLOCK + 1000;
    let cfg = |num_cells| MachineConfig {
        num_cells,
        dram_bytes_per_cell: LEN,
        cell_dim: CellDim { x: 2, y: 2 },
        ..MachineConfig::baseline_16x8()
    };
    cfg(2)
        .validate()
        .expect("a ragged DRAM size is a valid one");
    let mut seed: u64 = 0x5eed_0022;
    let mut draw = move |bound: u32| {
        // splitmix64
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % u64::from(bound)) as u32
    };
    let check = |what: &str, machine: &Machine| {
        assert_eq!(digest(machine), reference(machine), "{what}");
    };

    let mut machine = Machine::new(cfg(1));
    check("all zero", &machine);
    // One non-zero byte: at each end of a block, of a partial block and of
    // the image, and on each side of a block boundary.
    let edges = [
        0,
        BLOCK - 1,
        BLOCK,
        7 * BLOCK - 1,
        7 * BLOCK,
        24 * BLOCK - 1,
        24 * BLOCK,
        LEN - 1,
    ];
    for at in edges {
        machine.cell_mut(0).dram_mut().write_u8(at, 0x80);
        check(&format!("one byte at {at}"), &machine);
        machine.cell_mut(0).dram_mut().write_u8(at, 0);
    }
    for &at in &edges {
        machine
            .cell_mut(0)
            .dram_mut()
            .write_u8(at, 1 + (at % 255) as u8);
    }
    check("every edge at once", &machine);
    let image: Vec<u8> = (0..LEN).map(|_| 1 + draw(255) as u8).collect();
    machine.cell_mut(0).dram_mut().write_bytes(0, &image);
    check("all non-zero", &machine);

    // Random sparse pages, some adjacent, some partly zero inside.
    for round in 0..8 {
        let mut machine = Machine::new(cfg(2));
        for cell in 0..2 {
            for _ in 0..draw(6) {
                let at = draw(LEN);
                let len = (1 + draw(3 * BLOCK)).min(LEN - at);
                let bytes: Vec<u8> = (0..len).map(|_| draw(4) as u8 * 0x55).collect();
                machine.cell_mut(cell).dram_mut().write_bytes(at, &bytes);
            }
        }
        check(&format!("sparse round {round}"), &machine);
    }

    // The zero run that spans a Cell boundary: Cell 0 ends in zeros, Cell 1
    // begins with them — and the all-zero Cell on either side of a full one.
    let mut machine = Machine::new(cfg(2));
    machine.cell_mut(0).dram_mut().write_u8(3 * BLOCK + 5, 9);
    machine.cell_mut(1).dram_mut().write_u8(20 * BLOCK + 5, 9);
    check("zeros across the Cell boundary", &machine);
    for full in 0..2 {
        let mut machine = Machine::new(cfg(2));
        machine.cell_mut(full).dram_mut().write_bytes(0, &image);
        check(&format!("only Cell {full} non-zero"), &machine);
    }
}
