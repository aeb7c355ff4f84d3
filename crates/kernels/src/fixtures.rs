//! Deliberately-racy fixture kernels for the race-checking loop.
//!
//! Each fixture is a tiny kernel with a *known* cross-tile race (or, for
//! the AMO mix, a known half-sanctioned one), used to confirm that the
//! static phase-conflict pass (`hb-lint`'s `phase-race` rule) and the
//! dynamic epoch sanitizer ([`hb_core::RaceChecker`]) both flag it — and
//! agree with each other. They are **not** part of [`crate::suite`]: the
//! benchmark suite must stay race-clean, and these exist to be dirty.
//!
//! Every fixture follows the same calling convention: `buffers` DRAM
//! buffers of `ranks + 1` words each, passed as launch arguments
//! `a0..` in order. Expected finding counts are exact — both checkers
//! deduplicate reports by instruction pair, so the counts are independent
//! of Cell shape (any shape with at least two tiles).

use hb_asm::{Assembler, Program};
use hb_core::HbOps;
use hb_isa::Gpr::*;

/// One racy fixture kernel and its exact expected finding counts.
pub struct Fixture {
    /// Stable name, used by the `race_check` CLI and CI.
    pub name: &'static str,
    /// One line on what the bug is.
    pub blurb: &'static str,
    /// Builds the program (base address 0).
    pub build: fn() -> Program,
    /// Number of DRAM buffers (= launch arguments), each `ranks + 1`
    /// words.
    pub buffers: usize,
    /// Exact number of `phase-race` diagnostics the static pass emits.
    pub expect_static: usize,
    /// Exact number of reports the dynamic sanitizer produces.
    pub expect_dynamic: usize,
}

/// Producer stores `a0[rank]`, joins the barrier **without a fence**, then
/// reads `a0[rank + 1]` — the neighbour's possibly-still-in-flight write.
fn unfenced_producer_consumer() -> Program {
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    a.slli(T1, T0, 2);
    a.add(T2, A0, T1);
    a.sw(T0, T2, 0); // a0[rank] = rank
    a.barrier(T6); // BUG: no fence before the join
    a.lw(T3, T2, 4); // a0[rank + 1]
    a.fence();
    a.ecall();
    a.assemble(0).expect("fixture must assemble")
}

/// Every rank stores to the *same* shared DRAM word in the same phase —
/// the canonical write-write conflict.
fn shared_row_ww() -> Program {
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    a.sw(T0, A0, 0); // a0[0] = rank, from every tile at once
    a.fence();
    a.ecall();
    a.assemble(0).expect("fixture must assemble")
}

/// Every rank accumulates into `a0[0]` with an AMO (sanctioned), but also
/// stores `a0[rank]` with a plain `sw` — and rank 0's plain store hits the
/// accumulator word. AMO-vs-AMO is exempt; AMO-vs-store is a race.
fn amo_store_mix() -> Program {
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    a.amoadd(T1, T0, A0); // a0[0] += rank (atomic: fine)
    a.slli(T2, T0, 2);
    a.add(T2, A0, T2);
    a.sw(T0, T2, 0); // BUG: rank 0's sw aliases the amo word
    a.fence();
    a.ecall();
    a.assemble(0).expect("fixture must assemble")
}

/// Double buffering with only *one* barrier per step: the write of buffer
/// B races with the previous iteration's reads of B (and likewise for A),
/// because one barrier cannot separate three access groups.
fn double_buffer_missing_barrier() -> Program {
    let mut a = Assembler::new();
    a.tg_rank(T0, T6);
    a.slli(T1, T0, 2);
    a.add(T2, A0, T1); // &A[rank]
    a.add(T3, A1, T1); // &B[rank]
    a.li(T4, 3);
    let top = a.here();
    a.sw(T0, T2, 0); // write A[rank]
    a.lw(T5, T3, 4); // read  B[rank + 1]
    a.sw(T0, T3, 0); // BUG: write B[rank] in the same phase as the read
    a.lw(T5, T2, 4); // read  A[rank + 1], ditto
    a.fence();
    a.barrier(T6);
    a.addi(T4, T4, -1);
    a.bnez(T4, top);
    a.ecall();
    a.assemble(0).expect("fixture must assemble")
}

/// All fixtures, in stable order.
pub fn all() -> Vec<Fixture> {
    vec![
        Fixture {
            name: "unfenced-producer-consumer",
            blurb: "barrier join without a fence leaks the producer's write",
            build: unfenced_producer_consumer,
            buffers: 1,
            expect_static: 1,
            expect_dynamic: 1,
        },
        Fixture {
            name: "shared-row-ww",
            blurb: "same-phase write-write to one shared DRAM word",
            build: shared_row_ww,
            buffers: 1,
            expect_static: 1,
            expect_dynamic: 1,
        },
        Fixture {
            name: "amo-store-mix",
            blurb: "plain store aliases the AMO accumulator word",
            build: amo_store_mix,
            buffers: 1,
            expect_static: 1,
            expect_dynamic: 1,
        },
        Fixture {
            name: "double-buffer-missing-barrier",
            blurb: "one barrier per step cannot order a double buffer",
            build: double_buffer_missing_barrier,
            buffers: 2,
            expect_static: 2,
            expect_dynamic: 2,
        },
    ]
}

/// Looks a fixture up by name.
pub fn by_name(name: &str) -> Option<Fixture> {
    all().into_iter().find(|f| f.name == name)
}
