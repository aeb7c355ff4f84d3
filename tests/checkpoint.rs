//! The checkpoint/restore determinism contract: a run restored from a
//! mid-kernel checkpoint and continued must be *bit-identical* to the
//! uninterrupted twin — every architectural counter, every telemetry
//! window, the guest-code profile and the final DRAM image — across both
//! park policies of the tile phase (a park-policy capture continues under
//! never-park, which wakes and credits the restored sleepers in its
//! ordinary build step, and a never-park capture continues under the park
//! policy).
//!
//! The checkpoint itself is also deterministic: re-encoding a restored
//! machine reproduces the file byte for byte, which is what lets
//! `hb-serve` content-address shared warm checkpoints.

use hammerblade::ckpt;
use hammerblade::core::profile::CellProfile;
use hammerblade::core::{pgas, CellDim, CoreStats, Machine, MachineConfig, StallKind};
use hammerblade::kernels::{kernels, launch_on, run_on, Kernel, Launch, SizeClass};
use hammerblade::obs::{Keep, Sampler, Telemetry};
use std::sync::{Arc, Mutex};

const BUDGET: u64 = 200_000_000;

fn cfg_with(event_core: bool) -> MachineConfig {
    MachineConfig {
        cell_dim: CellDim { x: 4, y: 2 },
        event_core,
        ..MachineConfig::baseline_16x8()
    }
}

/// Launches `kernel` on a machine built from `cfg`, ticks it to cycle `at`
/// and encodes it there. The launch comes back too: its `check` holds any
/// restored continuation's DRAM to the golden model.
fn capture(kernel: &dyn Kernel, cfg: &MachineConfig, at: u64) -> (Vec<u8>, Launch) {
    let mut machine = Machine::new(cfg.clone());
    let launch = launch_on(&mut machine, kernel, SizeClass::Tiny);
    while machine.cycle() < at {
        machine.tick();
    }
    assert!(!machine.all_done(), "capture at {at} is past the run");
    (ckpt::encode(&machine), launch)
}

/// What a restored-and-continued run finished with.
struct Finish {
    cycles: u64,
    core: CoreStats,
    hbm: hammerblade::mem::Hbm2Stats,
    cache: hammerblade::cache::CacheStats,
    bisection: hammerblade::noc::LinkStats,
    east_busy: Vec<u64>,
    digest: u64,
}

/// Restores `blob` into a fresh machine built from `cfg`, runs it to
/// completion and flushes it.
fn continue_from(blob: &[u8], cfg: &MachineConfig) -> Machine {
    let mut machine = Machine::new(cfg.clone());
    ckpt::restore(&mut machine, blob).expect("restore");
    machine.run(BUDGET).expect("continued run");
    machine.flush_all_caches();
    machine
}

fn finish(machine: &Machine) -> Finish {
    let cell = machine.cell(0);
    Finish {
        cycles: machine.cycle(),
        core: cell.core_stats(),
        hbm: *cell.hbm_stats(),
        cache: cell.cache_stats(),
        bisection: cell.request_bisection(),
        east_busy: CellProfile::capture(cell).east_busy,
        digest: hb_serve::exec::digest(machine),
    }
}

/// A coprime-ish capture cycle strictly inside the run.
fn capture_cycle(total: u64) -> u64 {
    if total > 9973 {
        9973
    } else {
        (total * 2 / 3).max(1) | 1
    }
}

#[test]
fn restored_run_is_bit_identical_for_every_kernel() {
    let base = cfg_with(true);
    for (name, kernel) in kernels() {
        // Uninterrupted twin.
        let mut twin = Machine::new(base.clone());
        let reference = run_on(&mut twin, kernel.as_ref(), SizeClass::Tiny)
            .unwrap_or_else(|e| panic!("{name} (reference) failed: {e}"));
        let east_busy = CellProfile::capture(twin.cell(0)).east_busy;
        drop(twin);
        let at = capture_cycle(reference.cycles);
        let (blob, launch) = capture(kernel.as_ref(), &base, at);

        // Restore is a fixed point of encode: a field saved but not loaded,
        // or derived state leaking into the payload, would change the bytes.
        let mut restored = Machine::new(base.clone());
        ckpt::restore(&mut restored, &blob).expect("restore");
        assert!(
            ckpt::encode(&restored) == blob,
            "{name}: re-encoding the restored machine changed the checkpoint"
        );
        drop(restored);

        // Continue the same checkpoint under both park policies; the
        // never-park continuation also answers to the golden model.
        let mut check = Some(launch.check);
        let mut digests = Vec::new();
        for event_core in [false, true] {
            let tag = format!("{name} event={event_core}");
            let machine = continue_from(&blob, &cfg_with(event_core));
            if let Some(check) = check.take() {
                check(&machine);
            }
            let fin = finish(&machine);
            assert_eq!(fin.cycles, reference.cycles, "{tag}: cycle count diverged");
            assert_eq!(fin.core, reference.core, "{tag}: core counters diverged");
            assert_eq!(fin.hbm, reference.hbm, "{tag}: HBM2 counters diverged");
            assert_eq!(fin.cache, reference.cache, "{tag}: cache counters diverged");
            assert_eq!(
                fin.bisection, reference.bisection,
                "{tag}: NoC bisection counters diverged"
            );
            assert_eq!(
                fin.east_busy, east_busy,
                "{tag}: per-router link activity diverged"
            );
            digests.push((tag, fin.digest));
        }
        // And back: a never-park capture (nobody asleep, no stall debt)
        // continues under the park policy, and validates there.
        let (never_park_blob, launch) = capture(kernel.as_ref(), &cfg_with(false), at);
        let machine = continue_from(&never_park_blob, &base);
        (launch.check)(&machine);
        let fin = finish(&machine);
        let tag = format!("{name} never-park capture");
        assert_eq!(fin.cycles, reference.cycles, "{tag}: cycle count diverged");
        assert_eq!(fin.core, reference.core, "{tag}: core counters diverged");
        assert_eq!(fin.hbm, reference.hbm, "{tag}: HBM2 counters diverged");
        assert_eq!(fin.cache, reference.cache, "{tag}: cache counters diverged");
        digests.push((tag, fin.digest));
        for w in digests.windows(2) {
            assert_eq!(
                w[0].1, w[1].1,
                "{name}: final DRAM digests diverge ({} vs {})",
                w[0].0, w[1].0
            );
        }
    }
}

/// Builds a machine with the seeded SPM-blocked SGEMM launched — the same
/// campaign workload `hb-serve` warm-checkpoints — for the legs that need
/// direct mid-run control.
fn sgemm_machine(cfg: &MachineConfig) -> Machine {
    let mut machine = Machine::new(cfg.clone());
    let sgemm = hb_serve::campaign_kernel("sgemm").expect("a campaign kernel");
    launch_on(&mut machine, sgemm, SizeClass::Small);
    machine
}

/// Every tile runs, out of its registers alone, an `fdiv` and a `div` in
/// their iterative units, a dependent `fmadd` chain, and the instructions
/// that wait on each: the unit is busy (`fsqrt`, `rem`) or the result is
/// not back yet. No remote operation is outstanding until the closing
/// store, so the only thing between a restored tile and retiring through
/// those hazards is what it re-derives from the ready and busy times in
/// the stream.
fn latency_machine(cfg: &MachineConfig) -> Machine {
    use hammerblade::asm::Assembler;
    use hammerblade::core::HbOps;
    use hammerblade::isa::{Fpr::*, Gpr::*};
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    a.slli(T1, T0, 2);
    a.add(A0, A0, T1); // &out[rank]
    a.addi(T1, T0, 3);
    a.fcvt_s_w(Fa0, T1);
    a.lif(Fa1, T6, 1.5);
    a.lif(Fa2, T6, 0.25);
    a.li(T2, 1_000_003);
    a.li(T3, 4);
    let top = a.here();
    a.fdiv(Fa3, Fa0, Fa1);
    a.div(T4, T2, T1);
    a.fmadd(Fa4, Fa1, Fa2, Fa0);
    a.fmadd(Fa4, Fa4, Fa2, Fa1);
    a.fmadd(Fa4, Fa4, Fa2, Fa1);
    a.fsqrt(Fa5, Fa1);
    a.rem(T5, T2, T1);
    a.fadd(Fa0, Fa3, Fa4);
    a.fadd(Fa0, Fa0, Fa5);
    a.add(T2, T2, T4);
    a.add(T2, T2, T5);
    a.addi(T3, T3, -1);
    a.bnez(T3, top);
    a.fmv_x_w(T4, Fa0);
    a.xor(T4, T4, T2);
    a.sw(T4, A0, 0);
    a.fence();
    a.ecall();
    let program = Arc::new(a.assemble(0).expect("kernel assembles"));
    let mut machine = Machine::new(cfg.clone());
    let out = machine.cell_mut(0).alloc(8 * 4, 64);
    machine.launch(0, &program, &[pgas::local_dram(out)]);
    machine
}

#[test]
fn restore_rederives_the_hazard_horizon_under_inflight_latencies() {
    // A small DRAM keeps one checkpoint per cycle affordable.
    let small = |event_core| MachineConfig {
        dram_bytes_per_cell: 64 << 10,
        ..cfg_with(event_core)
    };
    let cfg = small(true);
    let mut twin = latency_machine(&cfg);
    twin.run(BUDGET).expect("twin run");
    twin.flush_all_caches();
    let (cycles, core, digest) = (
        twin.cycle(),
        twin.cell(0).core_stats(),
        hb_serve::exec::digest(&twin),
    );
    assert!(
        core.stall(StallKind::FpBusy) > 0
            && core.stall(StallKind::IntBusy) > 0
            && core.stall(StallKind::Bypass) > 0,
        "the kernel no longer waits on all three latency sources"
    );

    // One checkpoint per cycle of the whole run: some land while the
    // divider is busy, some while the FPU is, some inside the fmadd chain.
    let mut machine = latency_machine(&cfg);
    for at in 1..cycles {
        machine.tick();
        let blob = ckpt::encode(&machine);
        for event_core in [true, false] {
            let fin = finish(&continue_from(&blob, &small(event_core)));
            let tag = format!("capture at {at}, event={event_core}");
            assert_eq!(fin.cycles, cycles, "{tag}: cycle count diverged");
            assert_eq!(fin.core, core, "{tag}: core counters diverged");
            assert_eq!(fin.digest, digest, "{tag}: DRAM digest diverged");
        }
    }
}

#[test]
fn telemetry_windows_survive_restore() {
    let cfg = cfg_with(true);
    const WINDOW: u64 = 256;
    const AT: u64 = 997; // mid-window: 3 windows closed, one in flight

    // Uninterrupted twin with a sampler attached for the whole run.
    let full_store = Arc::new(Mutex::new(Telemetry::default()));
    let mut twin = sgemm_machine(&cfg);
    twin.attach_observer(Box::new(Sampler::new(
        &cfg,
        WINDOW,
        Keep::All,
        full_store.clone(),
    )));
    twin.run(BUDGET).expect("twin run");
    drop(twin); // flushes the final partial window
    let full = full_store.lock().unwrap().clone();
    assert!(full.samples.len() > 4, "run too short to exercise windows");

    // Interrupted run: same sampler, checkpoint mid-window at AT (the
    // sampler's in-progress state rides the machine payload).
    let part_store = Arc::new(Mutex::new(Telemetry::default()));
    let mut machine = sgemm_machine(&cfg);
    machine.attach_observer(Box::new(Sampler::new(
        &cfg,
        WINDOW,
        Keep::All,
        part_store.clone(),
    )));
    while machine.cycle() < AT {
        machine.tick();
    }
    let blob = ckpt::encode(&machine);
    drop(machine);

    // Restore into a fresh machine with a fresh sampler: the restored
    // window state must close every remaining window at the same cycle
    // with the same contents as the uninterrupted twin.
    let tail_store = Arc::new(Mutex::new(Telemetry::default()));
    let mut restored = Machine::new(cfg.clone());
    restored.attach_observer(Box::new(Sampler::new(
        &cfg,
        WINDOW,
        Keep::All,
        tail_store.clone(),
    )));
    ckpt::restore(&mut restored, &blob).expect("restore with sampler");
    restored.run(BUDGET).expect("continued run");
    drop(restored);
    let tail = tail_store.lock().unwrap().clone();

    let boundary = (AT / WINDOW) * WINDOW; // last window the twin closed before AT
    let skipped = full
        .samples
        .iter()
        .take_while(|s| s.end <= boundary)
        .count();
    assert_eq!(
        format!("{:?}", &full.samples[skipped..]),
        format!("{:?}", tail.samples),
        "restored telemetry windows diverge from the uninterrupted twin"
    );
    let full_tail_events: Vec<_> = full.events.iter().filter(|e| e.cycle > boundary).collect();
    assert_eq!(
        format!("{full_tail_events:?}"),
        format!("{:?}", tail.events.iter().collect::<Vec<_>>()),
        "restored instant events diverge from the uninterrupted twin"
    );
    assert_eq!(full.final_cycle, tail.final_cycle);
}

/// Telemetry capture follows the restoring machine's observer, not the
/// capture's: restored without one, a machine buffers no instants; with a
/// sampler attached, it records every instant after the capture cycle.
#[test]
fn telemetry_capture_follows_the_restoring_host() {
    let cfg = cfg_with(true);
    const AT: u64 = 997;
    let sampler =
        |store: &Arc<Mutex<Telemetry>>| Box::new(Sampler::new(&cfg, 256, Keep::All, store.clone()));
    let capture = |observed: bool| {
        let mut machine = sgemm_machine(&cfg);
        if observed {
            machine.attach_observer(sampler(&Arc::default()));
        }
        while machine.cycle() < AT {
            machine.tick();
        }
        ckpt::encode(&machine)
    };
    let run = |blob: &[u8], store: Option<&Arc<Mutex<Telemetry>>>| {
        let mut machine = Machine::new(cfg.clone());
        if let Some(store) = store {
            machine.attach_observer(sampler(store));
        }
        ckpt::restore(&mut machine, blob).expect("restore");
        machine.run(BUDGET).expect("continued run");
        machine
    };

    let mut bare = run(&capture(true), None);
    let mut left = Vec::new();
    for c in 0..bare.num_cells() as u8 {
        bare.cell_mut(c).drain_obs_events(&mut left);
    }
    assert!(
        left.is_empty(),
        "{} instants buffered for no observer",
        left.len()
    );

    let after_capture = |store: Arc<Mutex<Telemetry>>| {
        let events = &store.lock().unwrap().events;
        let tail: Vec<String> = (events.iter().filter(|e| e.cycle > AT))
            .map(|e| format!("{e:?}"))
            .collect();
        tail
    };
    let full = Arc::default();
    let mut twin = sgemm_machine(&cfg);
    twin.attach_observer(sampler(&full));
    twin.run(BUDGET).expect("twin run");
    drop(twin);
    let tail = Arc::default();
    drop(run(&capture(false), Some(&tail)));
    let expected = after_capture(full);
    assert!(!expected.is_empty(), "the twin records instants after {AT}");
    assert_eq!(after_capture(tail), expected);
}

/// The program [`sgemm_machine`] launches.
fn sgemm_program() -> hammerblade::asm::Program {
    hb_serve::campaign_kernel("sgemm")
        .expect("a campaign kernel")
        .program()
}

/// The campaign SGEMM launched on a machine built from `cfg`, with
/// profiling switched on before the launch (`early`) or only after it.
fn profiled_sgemm(cfg: &MachineConfig, early: bool) -> Machine {
    let mut machine = Machine::new(cfg.clone());
    machine.set_profile(early);
    let sgemm = hb_serve::campaign_kernel("sgemm").expect("a campaign kernel");
    launch_on(&mut machine, sgemm, SizeClass::Small);
    machine.set_profile(true);
    machine
}

#[test]
fn guest_profile_survives_restore() {
    let cfg = cfg_with(true);
    let program = sgemm_program();

    let mut twin = profiled_sgemm(&cfg, true);
    twin.run(BUDGET).expect("twin run");
    let full_profile = twin.guest_profile(&program).expect("twin profile");

    let mut machine = profiled_sgemm(&cfg, true);
    while machine.cycle() < 997 {
        machine.tick();
    }
    let blob = ckpt::encode(&machine);
    drop(machine);

    // The profile buffers ride the tile snapshots, so even a restore into
    // a machine whose own profiling switch is off continues recording.
    let mut restored = Machine::new(cfg.clone());
    ckpt::restore(&mut restored, &blob).expect("restore");
    restored.run(BUDGET).expect("continued run");
    assert_eq!(
        restored.guest_profile(&program).expect("restored profile"),
        full_profile,
        "guest-code profile diverges after restore"
    );
}

/// FNV-1a-64 over `bytes`.
fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    digest
}

/// `Machine::set_profile` in each order a caller may switch it in — before
/// the launch, after the launch but before the first tick, and across a
/// checkpoint restore (switched on before or after the restore) — yields
/// one profile: the one a `MachineConfig` profiling field gave before the
/// switch moved onto the machine. Its retire and stall totals and a digest
/// of every phase's histograms are pinned here as recorded with that field.
#[test]
fn set_profile_gives_one_profile_in_every_order() {
    const PINNED: (u64, u64, u64) = (143_416, 57_232, 0x2d76_a4c3_f80a_2562);
    let cfg = cfg_with(true);
    let program = sgemm_program();
    let run = |mut machine: Machine| {
        machine.run(BUDGET).expect("profiled run");
        machine.guest_profile(&program).expect("a profile")
    };

    let before_launch = run(profiled_sgemm(&cfg, true));
    let after_launch = run(profiled_sgemm(&cfg, false));
    assert_eq!(after_launch, before_launch, "switched on after the launch");

    let mut machine = profiled_sgemm(&cfg, true);
    while machine.cycle() < 997 {
        machine.tick();
    }
    let blob = ckpt::encode(&machine);
    drop(machine);
    for switch_first in [true, false] {
        let mut restored = Machine::new(cfg.clone());
        restored.set_profile(switch_first);
        ckpt::restore(&mut restored, &blob).expect("restore");
        restored.set_profile(true);
        let profile = run(restored);
        assert_eq!(profile, before_launch, "across a restore ({switch_first})");
    }

    let words = (before_launch.phases.iter())
        .flat_map(|p| {
            [u64::from(p.mark)]
                .into_iter()
                .chain(p.retired.clone())
                .chain(p.stalls.clone())
        })
        .flat_map(u64::to_le_bytes);
    let got = (
        before_launch.retired_total(),
        before_launch.stall_total(),
        fnv1a64(words),
    );
    assert_eq!(got, PINNED, "the profile moved");

    // Switched off, the profile goes; switched on again mid-run, a new one
    // counts from there.
    let mut machine = profiled_sgemm(&cfg, true);
    machine.set_profile(false);
    while machine.cycle() < 997 {
        machine.tick();
    }
    assert!(machine.guest_profile(&program).is_none());
    machine.set_profile(true);
    let late = run(machine);
    assert!(late.retired_total() < before_launch.retired_total());
}

#[test]
fn mismatched_version_and_config_are_clean_errors() {
    let cfg = cfg_with(true);
    let mut machine = sgemm_machine(&cfg);
    while machine.cycle() < 100 {
        machine.tick();
    }
    let blob = ckpt::encode(&machine);

    // Unknown format version.
    let mut wrong_version = blob.clone();
    wrong_version[8..12].copy_from_slice(&7u32.to_le_bytes());
    assert!(matches!(
        ckpt::decode(&wrong_version),
        Err(ckpt::CkptError::Version { found: 7 })
    ));

    // Simulated-geometry mismatch is rejected before any state is touched.
    let other = MachineConfig {
        cell_dim: CellDim { x: 2, y: 2 },
        ..cfg.clone()
    };
    let mut other_machine = Machine::new(other);
    assert!(matches!(
        ckpt::restore(&mut other_machine, &blob),
        Err(ckpt::CkptError::ConfigMismatch { .. })
    ));
    assert_eq!(
        other_machine.cycle(),
        0,
        "rejected restore must not advance the machine"
    );

    // Host-only knobs (the schedule) are free to differ.
    let mut host_machine = Machine::new(cfg_with(false));
    assert_eq!(ckpt::restore(&mut host_machine, &blob).unwrap(), 100);

    // Corruption is a clean error too.
    let mut torn = blob.clone();
    let mid = torn.len() / 2;
    torn[mid] ^= 0x10;
    assert!(matches!(ckpt::decode(&torn), Err(ckpt::CkptError::Corrupt)));
}

/// A checkpoint costs what the kernel touched, and a dense image is not
/// taxed for it.
#[test]
fn checkpoint_size_follows_the_touched_memory() {
    // The paper's Cell, 16 MiB of Local DRAM, the campaign SGEMM mid-run.
    let mut machine = sgemm_machine(&MachineConfig::baseline_16x8());
    while machine.cycle() < 997 {
        machine.tick();
    }
    assert!(
        !machine.all_done(),
        "the checkpointed SGEMM must be mid-run"
    );
    let mid_run = ckpt::encode(&machine).len();
    assert!(mid_run < 2_000_000, "a {mid_run}-byte mid-run checkpoint");

    // Every byte non-zero: one extent, so three words more than the dense
    // form (offset, length, terminator). The dense form was tag, length and
    // image: the all-zero machine's encoding less its terminator, plus the
    // image.
    let cfg = MachineConfig {
        dram_bytes_per_cell: (1 << 20) + 100,
        ..cfg_with(true)
    };
    let mut machine = Machine::new(cfg.clone());
    let image = vec![0x5a; cfg.dram_bytes_per_cell as usize];
    let dense = ckpt::encode(&machine).len() - 8 + image.len();
    machine.cell_mut(0).dram_mut().write_bytes(0, &image);
    let full = ckpt::encode(&machine);
    assert!(
        full.len() <= dense + 64,
        "a dense image encodes to {} bytes, {dense} before",
        full.len()
    );
    let mut restored = Machine::new(cfg);
    ckpt::restore(&mut restored, &full).expect("restore");
    let mut back = vec![0; image.len()];
    restored.cell(0).dram().read_into(0, &mut back);
    assert_eq!(back, image);
}

/// The offset of the one encoded in-flight line operation `id` of the
/// Cell's `mem_ops` map — key, bank, line address, then `write = false` —
/// in `bytes`.
fn read_op_at(bytes: &[u8], id: u64, bank: u64, line: u32) -> usize {
    let mut op = [id.to_le_bytes(), bank.to_le_bytes()].concat();
    op.extend(line.to_le_bytes());
    op.push(0);
    let hits: Vec<usize> = (0..bytes.len() - op.len())
        .filter(|&at| bytes[at..at + op.len()] == op[..])
        .collect();
    assert_eq!(hits.len(), 1, "read op {id} (bank {bank}, line {line:#x})");
    hits[0]
}

/// A restore that decodes must leave a machine the memory phase can run: a
/// refill whose line address no MSHR awaits used to restore `Ok` and then
/// panic the run ("fetch completion without MSHR"), from a raw payload and
/// from a re-sealed container alike.
#[test]
fn a_refill_no_mshr_awaits_is_refused_at_restore() {
    use hammerblade::mem::{fnv1a128, SnapError};
    let cfg = MachineConfig {
        cell_dim: CellDim { x: 4, y: 4 },
        ..MachineConfig::baseline_16x8()
    };
    let mut machine = sgemm_machine(&cfg);
    while machine.cycle() < 1390 {
        machine.tick();
    }
    let refused = Err(SnapError::Bad("mem op reads a line no MSHR awaits"));

    // Read op 4 refills bank 1 with line 0x40; point it at line 0x1040.
    let mut payload = machine.save_checkpoint();
    let line = read_op_at(&payload, 4, 1, 0x40) + 16;
    Machine::new(cfg.clone())
        .restore_checkpoint(&payload)
        .expect("the pristine payload restores");
    payload[line..line + 4].copy_from_slice(&0x1040u32.to_le_bytes());
    assert_eq!(
        Machine::new(cfg.clone()).restore_checkpoint(&payload),
        refused
    );

    // The same edit in a container whose hash is recomputed over it.
    let mut container = ckpt::encode(&machine);
    let line = read_op_at(&container, 4, 1, 0x40) + 16;
    container[line..line + 4].copy_from_slice(&0x1040u32.to_le_bytes());
    let body = container.len() - 16;
    let hash = fnv1a128(&container[..body]);
    container[body..].copy_from_slice(&hash.to_le_bytes());
    let decoded = ckpt::decode(&container).expect("a re-sealed container decodes");
    match ckpt::apply(&mut Machine::new(cfg), &decoded) {
        Err(ckpt::CkptError::Malformed(e)) => assert_eq!(Err(e), refused),
        other => panic!("applied a refill no MSHR awaits: {other:?}"),
    }
}

/// The format pin: `CKPT_VERSION` names a byte layout, and the layout
/// follows from the snapshot field lists, so editing a list silently
/// changes what version 4 means. This digests the checkpoint of one fixed
/// machine — 2x2, the seeded SGEMM 997 cycles in, profiling on, a fault
/// plan pending — and compares it with the digest recorded when the
/// version was last bumped. Version 4 moved the memory side's clocks: the
/// Cell saves one memory clock (`mem_cycle`) where every cache bank and
/// refill strip saved its own, and a bank saves its busy ticks where it
/// saved `idle_cycles`, which is now derived from that clock. (Version 3
/// stored `DRAM` as the image's non-zero extents, not the whole image.)
///
/// The digest was re-recorded once without a version bump, when canonical
/// config version 2 dropped `telw` from the text. Only the header's config
/// text moved: the version-4 container with its header text rewritten
/// (`cfgv=2`, no `;telw=0`) and its hash re-sealed digests to the new
/// value, so every byte after the header is the same.
#[test]
fn payload_layout_is_pinned_to_ckpt_version() {
    use hammerblade::fault::{InjectionPlan, Site};
    const PINNED: (u32, u64) = (4, 0x160e_51c4_698f_8628);

    let cfg = MachineConfig {
        cell_dim: CellDim { x: 2, y: 2 },
        ..cfg_with(true)
    };
    let mut machine = profiled_sgemm(&cfg, true);
    let sites = ["regfile(0,1,0,9,4)", "noc(0,1,0,3,0)", "freeze(0,1,0,64)"];
    machine.set_injection_plan(&InjectionPlan::explicit(
        sites.map(|s| (1 << 40, Site::from_canonical(s).expect("a canonical site"))),
    ));
    while machine.cycle() < 997 {
        machine.tick();
    }
    let digest = fnv1a64(ckpt::encode(&machine));
    assert_eq!(
        (ckpt::CKPT_VERSION, digest),
        PINNED,
        "layout changed: bump `CKPT_VERSION` and re-record `PINNED` \
         (only re-record if it is the simulated first 997 cycles that changed)"
    );
}
