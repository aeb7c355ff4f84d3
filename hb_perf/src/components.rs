//! Component rows: each layer's inner loop timed by direct calls, so a
//! regression seen in a phase row can be pinned on one component.
//!
//! `ckpt.*` has no end-to-end workload yet: checkpointed campaigns are
//! fsync-bound and do not repeat on a shared host, so the codec is
//! measured here only.

use hb_cache::{AccessKind, CacheBank, CacheConfig, CacheRequest, LineRequestKind};
use hb_core::{pgas, CellDim, IssTile, Machine, MachineConfig};
use hb_kernels::Sgemm;
use hb_mem::{DramRequest, Hbm2Channel, Hbm2Config};
use hb_noc::{Coord, Network, NetworkConfig, Packet, RouteOrder};
use hb_rng::Rng;
use hb_serve::{JobRecord, Store};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls `step` in batches until `budget` has passed; steps per second.
fn rate(budget: Duration, batch: u64, mut step: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut steps = 0u64;
    loop {
        for _ in 0..batch {
            step();
        }
        steps += batch;
        let dt = start.elapsed();
        if dt >= budget {
            return steps as f64 / dt.as_secs_f64();
        }
    }
}

/// The router grid a 16x8 Cell instantiates: its tiles plus the two
/// cache-bank rows, Ruche factor 3.
fn cell_network() -> Network<u64> {
    Network::new(NetworkConfig {
        width: 16,
        height: 10,
        ruche_factor: 3,
        order: RouteOrder::XThenY,
        fifo_depth: 4,
        link_occupancy: 1,
    })
}

fn noc_loaded(budget: Duration) -> f64 {
    let mut net = cell_network();
    let mut rng = Rng::seed_from_u64(1);
    rate(budget, 4096, || {
        let r = rng.next_u64();
        let src = Coord::new((r >> 8) as u8 % 16, (r >> 16) as u8 % 10);
        let dst = Coord::new((r >> 24) as u8 % 16, (r >> 32) as u8 % 10);
        net.inject(
            src,
            Packet {
                src,
                dst,
                payload: r,
            },
        );
        net.tick();
        black_box(net.eject(dst));
    })
}

fn noc_idle(budget: Duration) -> f64 {
    let mut net = cell_network();
    rate(budget, 4096, || net.tick())
}

fn load(id: u64, addr: u32) -> CacheRequest {
    CacheRequest {
        id,
        addr,
        kind: AccessKind::Load,
        data: 0,
        width: 4,
    }
}

fn cache_hits(budget: Duration) -> f64 {
    let mut bank = CacheBank::new(CacheConfig::default());
    bank.try_accept(CacheRequest {
        kind: AccessKind::Store,
        data: 1,
        ..load(0, 0)
    });
    bank.tick();
    let mut i = 0u64;
    rate(budget, 4096, || {
        bank.try_accept(load(i, (i % 16) as u32 * 4));
        bank.tick();
        black_box(bank.pop_response());
        i += 1;
    })
}

/// Loads to a new line every time; each fetch the bank asks for is
/// answered at once, so the row times the bank's miss path (MSHR, victim
/// choice, fill) and not a DRAM model.
fn cache_misses(budget: Duration) -> f64 {
    let cfg = CacheConfig::default();
    let line = vec![0u8; cfg.line_bytes as usize];
    let line_bytes = cfg.line_bytes;
    let mut bank = CacheBank::new(cfg);
    let mut i = 0u64;
    rate(budget, 4096, || {
        bank.try_accept(load(i, (i as u32).wrapping_mul(line_bytes)));
        bank.tick();
        while let Some(req) = bank.pop_mem_request() {
            if req.kind == LineRequestKind::Fetch {
                bank.complete_fetch(req.line_addr, &line);
            }
        }
        black_box(bank.pop_response());
        i += 1;
    })
}

/// A channel offered one read per tick: ROADMAP's "first catch" row. The
/// channel slows as its in-flight list grows, so the row is a fixed number
/// of ticks, not a time budget, and stays comparable between runs.
fn hbm2_stream() -> f64 {
    const TICKS: u32 = 50_000;
    let mut ch = Hbm2Channel::new(Hbm2Config::default());
    let mut next = 0u32;
    let start = Instant::now();
    for _ in 0..TICKS {
        if ch.can_accept() {
            ch.enqueue(DramRequest {
                id: u64::from(next),
                addr: next * 64,
                write: false,
            });
            next += 1;
        }
        ch.tick();
        black_box(ch.pop_response());
    }
    f64::from(TICKS) / start.elapsed().as_secs_f64()
}

/// A machine with the suite's 32x32x32 SGEMM loaded and launched.
fn sgemm_machine(dim: CellDim) -> Machine {
    const N: usize = 32;
    let mut machine = Machine::new(MachineConfig {
        cell_dim: dim,
        threads: 1,
        event_core: true,
        ..MachineConfig::baseline_16x8()
    });
    let mut rng = Rng::seed_from_u64(0xA);
    let mut matrix = || (0..N * N).map(|_| rng.f32()).collect::<Vec<f32>>();
    let (a, b) = (matrix(), matrix());
    let cell = machine.cell_mut(0);
    let bytes = (N * N * 4) as u32;
    let [a_dev, b_dev, c_dev] = [(); 3].map(|()| cell.alloc(bytes, 64));
    cell.dram_mut().write_f32_slice(a_dev, &a);
    cell.dram_mut().write_f32_slice(b_dev, &b);
    let n = N as u32;
    machine.launch(
        0,
        &Arc::new(Sgemm::program()),
        &[
            pgas::local_dram(a_dev),
            pgas::local_dram(b_dev),
            pgas::local_dram(c_dev),
            n,
            n,
            n,
        ],
    );
    machine
}

/// Guest MIPS of the `hb-iss` functional model on a one-tile SGEMM.
fn iss_mips(budget: Duration) -> f64 {
    let machine = sgemm_machine(CellDim { x: 1, y: 1 });
    let mut instrs = 0u64;
    let runs = rate(budget, 1, || {
        let mut iss = IssTile::from_machine(&machine, 0, (0, 0));
        iss.run(u64::MAX).expect("the ISS runs SGEMM to its ecall");
        instrs = iss.hart.stats.instrs;
    });
    runs * instrs as f64 / 1e6
}

/// Seconds per `hb_ckpt::encode` and per `restore` of a 16x8 SGEMM caught
/// mid-run, and the checkpoint's size.
fn ckpt(budget: Duration) -> (f64, f64, f64) {
    let mut machine = sgemm_machine(CellDim { x: 16, y: 8 });
    for _ in 0..4000 {
        machine.tick();
    }
    assert!(
        !machine.all_done(),
        "the checkpointed SGEMM must be mid-run"
    );
    let mut bytes = Vec::new();
    let encodes = rate(budget / 2, 1, || bytes = hb_ckpt::encode(&machine));
    let mut target = Machine::new(machine.config().clone());
    let restores = rate(budget / 2, 1, || {
        hb_ckpt::restore(&mut target, &bytes).expect("a fresh checkpoint restores");
    });
    assert_eq!(target.cycle(), machine.cycle());
    (1.0 / encodes, 1.0 / restores, bytes.len() as f64)
}

/// Durable `Store::put` (fsync + rename + journal append) and `Store::get`
/// rates on a store under `tmp`.
fn store(budget: Duration, tmp: &Path) -> Result<(f64, f64), String> {
    let dir = tmp.join("store-rows");
    let store = Store::open(&dir).map_err(|e| format!("component store: {e}"))?;
    let hash = |i: u64| format!("{i:032x}");
    let mut puts = 0u64;
    let mut failed = None;
    let put_rate = rate(budget / 2, 8, || {
        let rec = JobRecord {
            hash: hash(puts),
            kind: "golden".to_owned(),
            kernel: "sgemm".to_owned(),
            outcome: "ok".to_owned(),
            cycles: puts,
            ..JobRecord::default()
        };
        if let Err(e) = store.put(&rec) {
            failed.get_or_insert(e);
        }
        puts += 1;
    });
    let mut gets = 0u64;
    let get_rate = rate(budget / 2, 64, || {
        black_box(store.get(&hash(gets % puts)));
        gets += 1;
    });
    let _ = std::fs::remove_dir_all(&dir);
    match failed {
        Some(e) => Err(format!("component store put: {e}")),
        None => Ok((put_rate, get_rate)),
    }
}

/// The component rows' metric names.
pub const NAMES: [&str; 11] = [
    "noc.loaded_ticks_per_s",
    "noc.idle_ticks_per_s",
    "cache.hit_ops_per_s",
    "cache.miss_ops_per_s",
    "mem.hbm2_stream_ticks_per_s",
    "iss.mips",
    "ckpt.encode_s",
    "ckpt.restore_s",
    "ckpt.bytes",
    "serve.store_put_per_s",
    "serve.store_get_per_s",
];

/// Times every component for about `budget` each; one value per name of
/// [`NAMES`], in that order.
///
/// # Panics
///
/// Panics if a component breaks its own contract (the ISS trapping on
/// SGEMM, a fresh checkpoint failing to restore); the caller counts that
/// as a failure.
pub fn run_all(budget: Duration, tmp: &Path) -> Result<[f64; NAMES.len()], String> {
    let (encode_s, restore_s, ckpt_bytes) = ckpt(budget);
    let (put_rate, get_rate) = store(budget, tmp)?;
    Ok([
        noc_loaded(budget),
        noc_idle(budget),
        cache_hits(budget),
        cache_misses(budget),
        hbm2_stream(),
        iss_mips(budget),
        encode_s,
        restore_s,
        ckpt_bytes,
        put_rate,
        get_rate,
    ])
}
