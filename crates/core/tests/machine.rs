//! End-to-end machine tests: kernels assembled to RV32IMAF, run on the
//! cycle-level simulator, results read back through DRAM.

use hb_asm::Assembler;
use hb_core::{
    pgas, CellDim, GroupSpec, HangClass, HbOps, Machine, MachineConfig, SimError, StallKind,
};
use hb_isa::Gpr::*;
use std::sync::Arc;

fn small_cfg() -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: 4, y: 2 },
        ..MachineConfig::baseline_16x8()
    }
}

fn machine(cfg: MachineConfig) -> Machine {
    Machine::new(cfg)
}

#[test]
fn tiles_write_identity() {
    let mut m = machine(small_cfg());
    // out[rank] = tile_x * 100 + tile_y
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    a.csr_load(T1, pgas::csr::TILE_X, T6);
    a.csr_load(T2, pgas::csr::TILE_Y, T6);
    a.li(T3, 100);
    a.mul(T1, T1, T3);
    a.add(T1, T1, T2);
    a.slli(T0, T0, 2);
    a.add(A0, A0, T0);
    a.sw(T1, A0, 0);
    a.fence();
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());

    let out = m.cell_mut(0).alloc(8 * 4, 64);
    m.launch(0, &p, &[pgas::local_dram(out)]);
    m.run(200_000).unwrap();
    m.cell_mut(0).flush_caches();
    let vals = m.cell(0).dram().read_u32_slice(out, 8);
    // Rank is row-major: rank = y*4 + x.
    for y in 0..2u32 {
        for x in 0..4u32 {
            assert_eq!(vals[(y * 4 + x) as usize], x * 100 + y);
        }
    }
}

#[test]
fn amoadd_counts_every_tile() {
    let mut m = machine(small_cfg());
    // 50 times: amoadd.w zero, 1, (counter)
    let mut a = Assembler::new();
    a.li(T0, 50);
    a.li(T2, 1);
    let top = a.here();
    a.amoadd(Zero, T2, A0);
    a.addi(T0, T0, -1);
    a.bnez(T0, top);
    a.fence();
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());

    let counter = m.cell_mut(0).alloc(4, 64);
    m.launch(0, &p, &[pgas::local_dram(counter)]);
    m.run(500_000).unwrap();
    m.cell_mut(0).flush_caches();
    assert_eq!(m.cell(0).dram().read_u32(counter), 8 * 50);
}

#[test]
fn parallel_for_sums_array() {
    // The paper's Figure 8 idiom: work distribution with amoadd.
    let mut m = machine(small_cfg());
    const N: u32 = 256;
    // for (i = amoadd(q0,1); i < N; i = amoadd(q0,1)) sum += in[i]
    // partial sums combined with amoadd into a result word.
    let mut a = Assembler::new();
    // a0 = q0 ptr, a1 = in ptr, a2 = result ptr
    a.li(S0, 0); // local sum
    a.li(T2, 1);
    a.li(T3, N as i32);
    let loop_top = a.new_label();
    let done = a.new_label();
    a.bind(loop_top);
    a.amoadd(T0, T2, A0); // t0 = next index
    a.bge(T0, T3, done);
    a.slli(T1, T0, 2);
    a.add(T1, A1, T1);
    a.lw(T4, T1, 0);
    a.add(S0, S0, T4);
    a.j(loop_top);
    a.bind(done);
    a.amoadd(Zero, S0, A2);
    a.fence();
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());

    let q0 = m.cell_mut(0).alloc(4, 64);
    let input = m.cell_mut(0).alloc(N * 4, 64);
    let result = m.cell_mut(0).alloc(4, 64);
    let data: Vec<u32> = (0..N).map(|i| i * 3 + 1).collect();
    m.cell_mut(0).dram_mut().write_u32_slice(input, &data);
    m.launch(
        0,
        &p,
        &[
            pgas::local_dram(q0),
            pgas::local_dram(input),
            pgas::local_dram(result),
        ],
    );
    m.run(2_000_000).unwrap();
    m.cell_mut(0).flush_caches();
    let expect: u32 = data.iter().sum();
    assert_eq!(m.cell(0).dram().read_u32(result), expect);
}

#[test]
fn group_spm_neighbor_exchange() {
    // Each tile writes its rank into its east neighbor's SPM (wrapping),
    // barriers, then reports what landed in its own SPM.
    let mut m = machine(small_cfg());
    let mut a = Assembler::new();
    a.tg_rank(S0, T6);
    a.csr_load(T0, pgas::csr::TILE_X, T6); // x
    a.csr_load(T1, pgas::csr::TILE_Y, T6); // y
                                           // neighbor x = (x+1) % 4
    a.addi(T0, T0, 1);
    a.andi(T0, T0, 3);
    // EVA = (1<<30) | y<<24 | x<<18 | 0x200
    a.slli(T2, T1, 24);
    a.slli(T3, T0, 18);
    a.or(T2, T2, T3);
    a.li_u(T4, (1 << 30) | 0x200);
    a.or(T2, T2, T4);
    a.sw(S0, T2, 0);
    a.fence();
    a.barrier(T6);
    // Read own SPM 0x200 and store to out[rank].
    a.li(T5, 0x200);
    a.lw(T5, T5, 0);
    a.slli(S1, S0, 2);
    a.add(A0, A0, S1);
    a.sw(T5, A0, 0);
    a.fence();
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());

    let out = m.cell_mut(0).alloc(8 * 4, 64);
    m.launch(0, &p, &[pgas::local_dram(out)]);
    m.run(500_000).unwrap();
    m.cell_mut(0).flush_caches();
    let vals = m.cell(0).dram().read_u32_slice(out, 8);
    for y in 0..2u32 {
        for x in 0..4u32 {
            // The west neighbor (x-1 mod 4) wrote its rank here.
            let writer = y * 4 + (x + 3) % 4;
            assert_eq!(vals[(y * 4 + x) as usize], writer, "tile ({x},{y})");
        }
    }
}

#[test]
fn barrier_stalls_are_counted() {
    let mut m = machine(small_cfg());
    // Rank 0 spins a while before the barrier; everyone else waits in it.
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    let join = a.new_label();
    a.bnez(T0, join);
    a.li(T1, 2000);
    let spin = a.here();
    a.addi(T1, T1, -1);
    a.bnez(T1, spin);
    a.bind(join);
    a.barrier(T6);
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &p, &[]);
    let summary = m.run(100_000).unwrap();
    assert!(
        summary.core.stall(StallKind::Barrier) > 1000,
        "expected barrier stalls, got {}",
        summary.core.stall(StallKind::Barrier)
    );
}

/// A strided load kernel with rotating destination registers, so
/// non-blocking loads can overlap (no WAW serialization). Stride 256
/// avoids LPC merging.
fn load_chain_kernel(n: i32) -> Arc<hb_asm::Program> {
    let mut a = Assembler::new();
    a.li(T0, n / 4);
    a.mv(S1, A0);
    let top = a.here();
    a.lw(T1, S1, 0);
    a.lw(T2, S1, 256);
    a.lw(T3, S1, 512);
    a.lw(T4, S1, 768);
    a.addi(S1, S1, 1024);
    a.addi(T0, T0, -1);
    a.bnez(T0, top);
    a.fence();
    a.ecall();
    Arc::new(a.assemble(0).unwrap())
}

#[test]
fn blocking_loads_are_slower() {
    let run = |non_blocking: bool| -> u64 {
        let mut cfg = small_cfg();
        cfg.non_blocking_loads = non_blocking;
        let mut m = machine(cfg);
        let base = m.cell_mut(0).alloc(64 * 1024, 64);
        let p = load_chain_kernel(64);
        m.launch(0, &p, &[pgas::local_dram(base)]);
        m.run(5_000_000).unwrap().cycles
    };
    let nb = run(true);
    let blocking = run(false);
    assert!(
        blocking > nb,
        "blocking loads ({blocking} cycles) should be slower than non-blocking ({nb})"
    );
}

#[test]
fn lpc_merges_sequential_loads() {
    let seq_kernel = || {
        let mut a = Assembler::new();
        // 16 iterations of 4 sequential loads (unrolled).
        a.li(T0, 16);
        a.mv(S1, A0);
        let top = a.here();
        a.lw(T1, S1, 0);
        a.lw(T2, S1, 4);
        a.lw(T3, S1, 8);
        a.lw(T4, S1, 12);
        a.addi(S1, S1, 16);
        a.addi(T0, T0, -1);
        a.bnez(T0, top);
        a.fence();
        a.ecall();
        Arc::new(a.assemble(0).unwrap())
    };
    let run = |lpc: bool| {
        let mut cfg = small_cfg();
        cfg.load_packet_compression = lpc;
        let mut m = machine(cfg);
        let base = m.cell_mut(0).alloc(4096, 64);
        m.launch(0, &p_clone(&seq_kernel()), &[pgas::local_dram(base)]);
        let s = m.run(2_000_000).unwrap();
        (s.core.remote_requests, s.core.lpc_merged)
    };
    let (req_on, merged_on) = run(true);
    let (req_off, merged_off) = run(false);
    assert_eq!(merged_off, 0);
    assert!(merged_on > 0, "LPC should merge sequential loads");
    assert!(
        req_on < req_off,
        "LPC should reduce packet count: {req_on} vs {req_off}"
    );
}

fn p_clone(p: &Arc<hb_asm::Program>) -> Arc<hb_asm::Program> {
    p.clone()
}

#[test]
fn ipoly_defeats_partition_camping() {
    // Stride over DRAM by exactly (banks * line) bytes: modulo striping
    // pins every access on one bank.
    let strided_kernel = |stride: i32| {
        let mut a = Assembler::new();
        a.li(T0, 32);
        a.mv(S1, A0);
        a.li(S2, stride);
        let top = a.here();
        // Four independent in-flight loads per iteration.
        a.lw(T1, S1, 0);
        a.add(S1, S1, S2);
        a.lw(T2, S1, 0);
        a.add(S1, S1, S2);
        a.lw(T3, S1, 0);
        a.add(S1, S1, S2);
        a.lw(T4, S1, 0);
        a.add(S1, S1, S2);
        a.addi(T0, T0, -1);
        a.bnez(T0, top);
        a.fence();
        a.ecall();
        Arc::new(a.assemble(0).unwrap())
    };
    let run = |ipoly: bool| -> u64 {
        let mut cfg = small_cfg();
        cfg.ipoly_hashing = ipoly;
        let banks = cfg.banks_per_cell() as i32;
        let mut m = machine(cfg);
        let base = m.cell_mut(0).alloc(1 << 20, 64);
        let p = strided_kernel(banks * 64);
        m.launch(0, &p, &[pgas::local_dram(base)]);
        m.run(5_000_000).unwrap().cycles
    };
    let with_ipoly = run(true);
    let without = run(false);
    assert!(
        with_ipoly < without,
        "IPOLY ({with_ipoly} cycles) should beat striping ({without}) on 2^n strides"
    );
}

#[test]
fn write_validate_eliminates_fetches() {
    // Pure output-writing kernel.
    let mut a = Assembler::new();
    a.li(T0, 64);
    a.mv(S1, A0);
    let top = a.here();
    a.sw(T0, S1, 0);
    a.addi(S1, S1, 4);
    a.addi(T0, T0, -1);
    a.bnez(T0, top);
    a.fence();
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());

    let run = |wv: bool| -> (u64, u64) {
        let mut cfg = small_cfg();
        cfg.write_validate = wv;
        let mut m = machine(cfg);
        let base = m.cell_mut(0).alloc(4096, 64);
        m.launch(0, &p.clone(), &[pgas::local_dram(base)]);
        m.run(2_000_000).unwrap();
        let cs = m.cell(0).cache_stats();
        (cs.misses, cs.write_validate_fills)
    };
    let (misses_wv, fills_wv) = run(true);
    let (misses_wa, fills_wa) = run(false);
    assert_eq!(fills_wa, 0);
    assert!(fills_wv > 0);
    assert!(
        misses_wv < misses_wa,
        "write-validate should avoid fetch misses: {misses_wv} vs {misses_wa}"
    );
}

#[test]
fn producer_consumer_across_cells() {
    // Paper Figure 6: Cell 0 produces into Cell 1's Local DRAM, then sets a
    // flag; Cell 1 spins on the flag and checks the data.
    let mut cfg = small_cfg();
    cfg.num_cells = 2;
    let mut m = machine(cfg);
    let data = m.cell_mut(1).alloc(16 * 4, 64);
    let flag = m.cell_mut(1).alloc(4, 64);
    let out = m.cell_mut(1).alloc(4, 64);

    // Producer (cell 0, only rank 0 does the work).
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    let skip = a.new_label();
    a.bnez(T0, skip);
    // a0 = group_dram(1, data), a1 = group_dram(1, flag)
    a.li(T1, 16);
    a.li(T2, 7);
    let top = a.here();
    a.sw(T2, A0, 0);
    a.addi(A0, A0, 4);
    a.addi(T2, T2, 3);
    a.addi(T1, T1, -1);
    a.bnez(T1, top);
    a.fence();
    a.li(T3, 1);
    a.sw(T3, A1, 0);
    a.fence();
    a.bind(skip);
    a.ecall();
    let producer = Arc::new(a.assemble(0).unwrap());

    // Consumer (cell 1, rank 0): spin on flag, then sum data.
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    let skip = a.new_label();
    a.bnez(T0, skip);
    let spin = a.here();
    a.lw(T1, A1, 0);
    a.beqz(T1, spin);
    a.li(T2, 16);
    a.li(S0, 0);
    let top = a.here();
    a.lw(T3, A0, 0);
    a.add(S0, S0, T3);
    a.addi(A0, A0, 4);
    a.addi(T2, T2, -1);
    a.bnez(T2, top);
    a.sw(S0, A2, 0);
    a.fence();
    a.bind(skip);
    a.ecall();
    let consumer = Arc::new(a.assemble(0).unwrap());

    m.launch(
        0,
        &producer,
        &[pgas::group_dram(1, data), pgas::group_dram(1, flag)],
    );
    m.launch(
        1,
        &consumer,
        &[
            pgas::local_dram(data),
            pgas::local_dram(flag),
            pgas::local_dram(out),
        ],
    );
    m.run(5_000_000).unwrap();
    m.cell_mut(1).flush_caches();
    // sum of 7, 10, 13, ... (16 terms) = 16*7 + 3*(0+..+15)
    assert_eq!(m.cell(1).dram().read_u32(out), 16 * 7 + 3 * (15 * 16 / 2));
}

#[test]
fn infinite_loop_times_out() {
    let mut m = machine(small_cfg());
    let mut a = Assembler::new();
    let spin = a.here();
    a.j(spin);
    let p = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &p, &[]);
    match m.run(10_000) {
        Err(SimError::Timeout { running_tiles, .. }) => assert_eq!(running_tiles, 8),
        other => panic!("expected timeout, got {other:?}"),
    }
}

#[test]
fn relaunch_does_not_inherit_the_previous_kernels_pipeline_state() {
    // Kernel A hangs: rank 0 joins the barrier, everyone else exits
    // without joining. The timeout is A's own fault and says so.
    let mut m = machine(small_cfg());
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    let leave = a.new_label();
    a.bnez(T0, leave);
    a.barrier(T6);
    a.bind(leave);
    a.ecall();
    let hang = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &hang, &[]);
    match m.run(20_000) {
        Err(SimError::Timeout {
            hang: Some(report), ..
        }) => match &report.class {
            HangClass::BarrierStall { waiting, .. } => assert_eq!(waiting, &[(0, 0, 0)]),
            other => panic!("expected a barrier stall, got {other:?}"),
        },
        other => panic!("expected timeout, got {other:?}"),
    }
    assert!(m.cell(0).tile(0, 0).barrier_waiting);

    // Kernel B is a single `ecall` on the same machine. Nothing of A's
    // half-joined barrier may survive the launch: B finishes, on every
    // tile, as it would on a fresh machine.
    let mut b = Assembler::new();
    b.ecall();
    let done = Arc::new(b.assemble(0).unwrap());
    m.launch(0, &done, &[]);
    let summary = m
        .run(20_000)
        .unwrap_or_else(|e| panic!("the relaunched kernel inherited the old one's hang: {e}"));
    assert!(summary.cycles < 1_000, "{} cycles", summary.cycles);
}

#[test]
fn bad_eva_faults() {
    let mut m = machine(small_cfg());
    let mut a = Assembler::new();
    a.li_u(T0, 0x2000); // outside SPM and CSRs
    a.lw(T1, T0, 0);
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());
    m.launch(0, &p, &[]);
    match m.run(10_000) {
        Err(SimError::Fault(msg)) => assert!(msg.cause.contains("does not map")),
        other => panic!("expected fault, got {other:?}"),
    }
}

#[test]
fn fault_at_cycle_limit_reports_fault_not_timeout() {
    // A kernel that traps (load from an unmapped EVA) run with the cycle
    // budget expiring on exactly the trap cycle: fault detection must take
    // precedence over the timeout (and over "all done").
    let trap_kernel = || {
        let mut a = Assembler::new();
        a.li_u(T0, 0x2000); // outside SPM and CSRs
        a.lw(T1, T0, 0);
        a.ecall();
        Arc::new(a.assemble(0).unwrap())
    };
    // Probe run: find the exact cycle on which the trap surfaces.
    let mut probe = machine(small_cfg());
    probe.launch(0, &trap_kernel(), &[]);
    let mut fault_cycle = 0;
    while probe.cycle() < 10_000 {
        probe.tick();
        if probe.cell(0).fault().is_some() {
            fault_cycle = probe.cycle();
            break;
        }
    }
    assert!(fault_cycle > 0, "probe kernel never faulted");
    // Budget expires on the trap cycle itself.
    let mut m = machine(small_cfg());
    m.launch(0, &trap_kernel(), &[]);
    match m.run(fault_cycle) {
        Err(SimError::Fault(msg)) => assert!(msg.cause.contains("does not map"), "{msg}"),
        other => panic!("expected fault at the cycle limit, got {other:?}"),
    }
}

#[test]
fn ruche_speeds_up_cross_cell_traffic() {
    // All tiles hammer the far-column banks; ruche should finish faster on
    // a wide cell.
    let kernel = || {
        let mut a = Assembler::new();
        a.li(T0, 128);
        a.mv(S1, A0);
        let top = a.here();
        a.lw(T1, S1, 0);
        a.addi(S1, S1, 64);
        a.addi(T0, T0, -1);
        a.bnez(T0, top);
        a.fence();
        a.ecall();
        Arc::new(a.assemble(0).unwrap())
    };
    let run = |rf: u8| -> u64 {
        let mut cfg = MachineConfig::baseline_16x8();
        cfg.ruche_factor = rf;
        let mut m = machine(cfg);
        let base = m.cell_mut(0).alloc(1 << 20, 64);
        m.launch(0, &kernel(), &[pgas::local_dram(base)]);
        m.run(10_000_000).unwrap().cycles
    };
    let ruche = run(3);
    let mesh = run(0);
    assert!(
        ruche <= mesh,
        "ruche ({ruche} cycles) should not be slower than mesh ({mesh})"
    );
}

#[test]
fn tile_groups_partition_the_cell() {
    // Two 2x2 groups, each with its own barrier and rank space.
    let mut m = machine(small_cfg());
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    a.tg_size(T1, T6);
    a.barrier(T6);
    // out[arg1 + rank] = size
    a.slli(T0, T0, 2);
    a.add(A0, A0, T0);
    a.sw(T1, A0, 0);
    a.fence();
    a.ecall();
    let p = Arc::new(a.assemble(0).unwrap());

    let out = m.cell_mut(0).alloc(8 * 4, 64);
    let g0 = GroupSpec {
        origin: (0, 0),
        dim: (2, 2),
    };
    let g1 = GroupSpec {
        origin: (2, 0),
        dim: (2, 2),
    };
    let base0 = pgas::local_dram(out);
    let base1 = pgas::local_dram(out + 16);
    m.launch_groups(0, &p, &[(g0, vec![base0]), (g1, vec![base1])]);
    m.run(500_000).unwrap();
    m.cell_mut(0).flush_caches();
    let vals = m.cell(0).dram().read_u32_slice(out, 8);
    assert_eq!(vals, vec![4; 8], "each group of 4 tiles writes its size");
}
