//! Fault injection, hang diagnosis and degraded-mode tests: seeded
//! `hb-fault` plans applied to the cycle-level machine, end to end.

use hb_asm::Assembler;
use hb_core::{pgas, CellDim, HbOps, Machine, MachineConfig, SimError};
use hb_fault::{InjectionPlan, Site, FREEZE_FOREVER};
use hb_isa::Gpr::*;
use std::sync::Arc;

fn small_cfg() -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: 4, y: 2 },
        ..MachineConfig::baseline_16x8()
    }
}

fn solo_cfg() -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: 1, y: 1 },
        ..MachineConfig::baseline_16x8()
    }
}

/// `s0 = 5`, a ~1200-cycle delay loop, then `out[0] = s0`.
fn delay_store_kernel() -> Arc<hb_asm::Program> {
    let mut a = Assembler::new();
    a.li(S0, 5);
    a.li(T0, 400);
    let top = a.here();
    a.addi(T0, T0, -1);
    a.bnez(T0, top);
    a.sw(S0, A0, 0);
    a.fence();
    a.ecall();
    Arc::new(a.assemble(0).unwrap())
}

/// Regression for the `running_tiles` undercount: tiles parked inside the
/// hardware barrier have not retired `ecall` and must be counted as
/// running when the run times out. Rank 0 exits immediately without
/// joining, so the other 7 wait forever.
#[test]
fn timeout_counts_barrier_parked_tiles() {
    let mut m = Machine::new(small_cfg());
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    let fin = a.new_label();
    a.beqz(T0, fin);
    a.barrier(T6);
    a.bind(fin);
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &p, &[]);
    match m.run(25_000) {
        Err(SimError::Timeout {
            running_tiles,
            hang,
            ..
        }) => {
            assert_eq!(running_tiles, 7, "parked barrier waiters must count");
            let hang = hang.expect("watchdog should classify the hang");
            assert_eq!(hang.class.label(), "barrier-stall");
            let rendered = hang.to_string();
            assert!(rendered.contains("barrier"), "{rendered}");
        }
        other => panic!("expected timeout, got {other:?}"),
    }
}

/// Degraded mode: with two tiles disabled the live CSRs renumber the
/// survivors densely, the barrier bypasses the dead tiles, and each of
/// the first k live tiles adopts the k-th dead tile.
#[test]
fn live_csrs_and_adoption_with_disabled_tiles() {
    let mut cfg = small_cfg();
    cfg.disabled_tiles = vec![(1, 0), (2, 1)];
    let mut m = Machine::new(cfg);
    // out[tg_rank*3 ..] = [live_rank, live_size, adopt]
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    a.tg_live_rank(S0, T6);
    a.tg_live_size(S1, T6);
    a.tg_adopt(S2, T6);
    a.barrier(T6);
    a.li(T1, 12);
    a.mul(T0, T0, T1);
    a.add(A0, A0, T0);
    a.sw(S0, A0, 0);
    a.sw(S1, A0, 4);
    a.sw(S2, A0, 8);
    a.fence();
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());

    let out = m.cell_mut(0).alloc(8 * 3 * 4, 64);
    m.cell_mut(0)
        .dram_mut()
        .write_u32_slice(out, &[0xFFFF_FFFF; 24]);
    m.launch(0, &p, &[pgas::local_dram(out)]);
    m.run(500_000).unwrap();
    m.cell_mut(0).flush_caches();
    let vals = m.cell(0).dram().read_u32_slice(out, 24);

    let none = pgas::NO_ADOPTEE;
    // Live tiles in row-major order: (0,0) (2,0) (3,0) (0,1) (1,1) (3,1).
    // Live 0 adopts dead (1,0); live 1 adopts dead (2,1).
    let expect: [[u32; 3]; 8] = [
        [0, 6, 1 << 8],       // (0,0) adopts (1,0)
        [0xFFFF_FFFF; 3],     // (1,0) dead: sentinel untouched
        [1, 6, (2 << 8) | 1], // (2,0)
        [2, 6, none],         // (3,0)
        [3, 6, none],         // (0,1)
        [4, 6, none],         // (1,1)
        [0xFFFF_FFFF; 3],     // (2,1) dead
        [5, 6, none],         // (3,1)
    ];
    for (rank, row) in expect.iter().enumerate() {
        assert_eq!(
            &vals[rank * 3..rank * 3 + 3],
            row,
            "physical rank {rank} live CSRs"
        );
    }
}

/// A register-file flip landed mid-delay-loop shows up bit-exactly in the
/// stored result; a flip of `x0` is architecturally masked.
#[test]
fn reg_flip_perturbs_stored_result() {
    let run = |site: Option<Site>| -> u32 {
        let mut m = Machine::new(solo_cfg());
        let out = m.cell_mut(0).alloc(4, 64);
        m.launch(0, &delay_store_kernel(), &[pgas::local_dram(out)]);
        if let Some(site) = site {
            m.set_injection_plan(&InjectionPlan::explicit([(100, site)]));
        }
        m.run(100_000).unwrap();
        m.cell_mut(0).flush_caches();
        m.cell(0).dram().read_u32(out)
    };
    assert_eq!(run(None), 5);
    let s0 = Site::RegFile {
        cell: 0,
        x: 0,
        y: 0,
        reg: S0 as u8,
        bit: 3,
    };
    assert_eq!(run(Some(s0)), 5 ^ 8, "bit 3 of s0 flips into the result");
    let x0 = Site::RegFile {
        cell: 0,
        x: 0,
        y: 0,
        reg: 0,
        bit: 3,
    };
    assert_eq!(run(Some(x0)), 5, "x0 flips are architecturally masked");
}

/// A scratchpad flip between a store and the load that reads it back
/// corrupts exactly the flipped bit.
#[test]
fn spm_flip_perturbs_stored_word() {
    let kernel = || {
        let mut a = Assembler::new();
        a.li(T0, 0x55);
        a.li(T1, 0x100);
        a.sw(T0, T1, 0);
        a.li(T2, 300);
        let top = a.here();
        a.addi(T2, T2, -1);
        a.bnez(T2, top);
        a.lw(T3, T1, 0);
        a.sw(T3, A0, 0);
        a.fence();
        a.ecall();
        Arc::new(a.assemble(0).unwrap())
    };
    let run = |plan: Option<InjectionPlan>| -> u32 {
        let mut m = Machine::new(solo_cfg());
        let out = m.cell_mut(0).alloc(4, 64);
        m.launch(0, &kernel(), &[pgas::local_dram(out)]);
        if let Some(p) = plan {
            m.set_injection_plan(&p);
        }
        m.run(100_000).unwrap();
        m.cell_mut(0).flush_caches();
        m.cell(0).dram().read_u32(out)
    };
    assert_eq!(run(None), 0x55);
    let site = Site::Spm {
        cell: 0,
        x: 0,
        y: 0,
        word: 0x100 / 4,
        bit: 0,
    };
    assert_eq!(
        run(Some(InjectionPlan::explicit([(200, site)]))),
        0x54,
        "bit 0 of SPM word 0x40 flips into the read-back"
    );
}

/// A bounded tile freeze delays completion without corrupting the result;
/// FREEZE_FOREVER hangs the run and the watchdog pins it on the frozen
/// tile as a livelock.
#[test]
fn tile_freeze_delays_then_forever_hangs() {
    let run = |cycles: u64, budget: u64| {
        let mut m = Machine::new(solo_cfg());
        let out = m.cell_mut(0).alloc(4, 64);
        m.launch(0, &delay_store_kernel(), &[pgas::local_dram(out)]);
        m.set_injection_plan(&InjectionPlan::explicit([(
            50,
            Site::TileFreeze {
                cell: 0,
                x: 0,
                y: 0,
                cycles,
            },
        )]));
        let res = m.run(budget);
        m.cell_mut(0).flush_caches();
        (res, m.cell(0).dram().read_u32(out))
    };
    // Clean baseline.
    let mut clean = Machine::new(solo_cfg());
    let out = clean.cell_mut(0).alloc(4, 64);
    clean.launch(0, &delay_store_kernel(), &[pgas::local_dram(out)]);
    let base = clean.run(100_000).unwrap().cycles;

    let (res, val) = run(600, 100_000);
    let cycles = res.unwrap().cycles;
    assert_eq!(val, 5, "a bounded freeze never corrupts the result");
    assert!(
        cycles >= base + 500,
        "600-cycle freeze should delay completion: {cycles} vs {base}"
    );

    let (res, _) = run(FREEZE_FOREVER, 30_000);
    match res {
        Err(SimError::Timeout {
            running_tiles,
            hang,
            ..
        }) => {
            assert_eq!(running_tiles, 1);
            let hang = hang.expect("watchdog should classify the hang");
            assert_eq!(hang.class.label(), "livelock");
            assert!(hang.to_string().contains("frozen"), "{hang}");
        }
        other => panic!("expected timeout, got {other:?}"),
    }
}

/// HBM channel stalls and icache parity invalidations cost latency only:
/// the run still completes with bit-identical results.
#[test]
fn hbm_stall_and_icache_faults_are_latency_only() {
    let kernel = || {
        // sum = Σ in[0..256]; out[0] = sum
        let mut a = Assembler::new();
        a.li(T0, 256);
        a.mv(S1, A0);
        a.li(S2, 0);
        let top = a.here();
        a.lw(T2, S1, 0);
        a.add(S2, S2, T2);
        a.addi(S1, S1, 4);
        a.addi(T0, T0, -1);
        a.bnez(T0, top);
        a.sw(S2, A1, 0);
        a.fence();
        a.ecall();
        Arc::new(a.assemble(0).unwrap())
    };
    let data: Vec<u32> = (0..256u32).map(|i| i * 7 + 3).collect();
    let run = |plan: Option<InjectionPlan>| -> (u64, u32) {
        let mut m = Machine::new(solo_cfg());
        let input = m.cell_mut(0).alloc(256 * 4, 64);
        let out = m.cell_mut(0).alloc(4, 64);
        m.cell_mut(0).dram_mut().write_u32_slice(input, &data);
        m.launch(
            0,
            &kernel(),
            &[pgas::local_dram(input), pgas::local_dram(out)],
        );
        if let Some(p) = plan {
            m.set_injection_plan(&p);
        }
        let cycles = m.run(500_000).unwrap().cycles;
        m.cell_mut(0).flush_caches();
        (cycles, m.cell(0).dram().read_u32(out))
    };
    let expect: u32 = data.iter().sum();
    let (base, clean) = run(None);
    assert_eq!(clean, expect);
    let plan = InjectionPlan::explicit([
        (
            60,
            Site::IcacheLine {
                cell: 0,
                x: 0,
                y: 0,
                line: 2,
            },
        ),
        (
            80,
            Site::HbmStall {
                cell: 0,
                window: 300,
            },
        ),
    ]);
    let (cycles, val) = run(Some(plan));
    assert_eq!(val, expect, "detected faults never corrupt data");
    assert!(
        cycles > base,
        "stall + refill must cost latency: {cycles} vs {base}"
    );
}

/// `sum_kernel`: tile `rank` sums `words` consecutive DRAM words starting
/// at `in + rank*words*4` and stores the sum to `out[rank]`.
fn sum_kernel(words: i32) -> Arc<hb_asm::Program> {
    let mut a = Assembler::new();
    a.tg_rank(S0, T6);
    a.li(T1, words * 4);
    a.mul(T1, S0, T1);
    a.add(S1, A0, T1);
    a.li(T0, words);
    a.li(S2, 0);
    let top = a.here();
    a.lw(T2, S1, 0);
    a.add(S2, S2, T2);
    a.addi(S1, S1, 4);
    a.addi(T0, T0, -1);
    a.bnez(T0, top);
    a.slli(T3, S0, 2);
    a.add(T3, A1, T3);
    a.sw(S2, T3, 0);
    a.fence();
    a.ecall();
    Arc::new(a.assemble(0).unwrap())
}

fn fill_and_launch(m: &mut Machine, words: u32) -> (u32, Vec<u32>) {
    let data: Vec<u32> = (0..8 * words).map(|i| i * 3 + 1).collect();
    let input = m.cell_mut(0).alloc(8 * words * 4, 64);
    let out = m.cell_mut(0).alloc(8 * 4, 64);
    m.cell_mut(0).dram_mut().write_u32_slice(input, &data);
    m.launch(
        0,
        &sum_kernel(words as i32),
        &[pgas::local_dram(input), pgas::local_dram(out)],
    );
    let sums = (0..8)
        .map(|r| {
            data[(r * words) as usize..((r + 1) * words) as usize]
                .iter()
                .sum()
        })
        .collect();
    (out, sums)
}

/// Link-level faults on busy mesh links are detected and replayed: the
/// retransmit counters tick, and every loaded word still arrives intact.
#[test]
fn link_faults_retransmit_and_preserve_data() {
    let mut m = Machine::new(small_cfg());
    let (out, expect) = fill_and_launch(&mut m, 256);
    // Arm the north-bound request ports of both tile rows and the
    // south-bound response ports of the bank strip; the load storm is
    // still in full flight at these cycles.
    let mut sites = Vec::new();
    for x in 0..4u8 {
        sites.push((
            60,
            Site::NocLink {
                cell: 0,
                x,
                y: 1,
                port: 1, // North
                req: true,
            },
        ));
        sites.push((
            80,
            Site::NocLink {
                cell: 0,
                x,
                y: 2,
                port: 1,
                req: true,
            },
        ));
        sites.push((
            100,
            Site::NocLink {
                cell: 0,
                x,
                y: 0,
                port: 2, // South, on the response network
                req: false,
            },
        ));
    }
    m.set_injection_plan(&InjectionPlan::explicit(sites));
    m.run(2_000_000).unwrap();
    m.cell_mut(0).flush_caches();
    let vals = m.cell(0).dram().read_u32_slice(out, 8);
    assert_eq!(vals, expect, "retransmission must preserve every word");
    let retransmits = m.cell(0).net_retransmits();
    assert!(
        retransmits >= 4,
        "armed link faults on busy ports should replay: {retransmits}"
    );
}
