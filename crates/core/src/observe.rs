//! Machine-level observation hooks for the telemetry layer.
//!
//! The cycle-accurate model stays oblivious to *what* is observed: this
//! module only defines the [`MachineObserver`] trait, the tile-local
//! instant events ([`ObsEvent`]) that fire on kernel-phase marks
//! ([`crate::pgas::csr::MARK`] stores), barrier joins, fence retires and
//! faults, and a thread-local factory through which the benchmark crate
//! attaches an observer to every [`Machine`] built on the current thread.
//!
//! # Cost model
//!
//! The hooks are designed to vanish when unused:
//!
//! - [`Machine::tick`] takes exactly one extra branch per machine cycle —
//!   `cycle >= obs_due` — and `obs_due` is `u64::MAX` unless an observer
//!   is attached.
//! - Tile event capture is gated by a per-tile `observed` flag that is
//!   only consulted on the rare paths (mark stores, barrier joins, fence
//!   retires, faults), never in the fetch/execute hot loop.
//! - Observation never mutates simulated state, so runs are bit-identical
//!   with and without an observer attached.

use crate::config::MachineConfig;
use crate::machine::Machine;
use std::cell::RefCell;

/// What a tile-local instant event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsKind {
    /// A kernel-phase marker: the value stored to the `MARK` CSR.
    Mark(u32),
    /// The tile joined its group barrier.
    BarrierJoin,
    /// A `fence` finished draining the remote scoreboard and retired.
    FenceRetire,
    /// The tile trapped.
    Fault,
    /// An `hb-fault` injection landed on this tile (or, for HBM stalls,
    /// on this tile's Cell, attributed to tile (0,0)).
    Inject(InjectKind),
    /// A corrupted flit was detected and replayed on a NoC link; the event
    /// is attributed to the tile row nearest the link's router.
    Retransmit,
    /// The dynamic race sanitizer (see [`crate::race`]) reported a new
    /// conflicting pair; the event lands on the second-accessing tile.
    Race,
    /// The event scheduler parked the tile on the wake list (see
    /// `crate::sched`); the payload is the stall kind every skipped cycle
    /// will be blamed on, `None` for idle/trapped tiles. Only emitted
    /// under the event schedule — park/wake instants make quiescent spans
    /// visible in traces, they are host-schedule observations, not
    /// architectural events.
    Park(Option<crate::stats::StallKind>),
    /// The event scheduler re-armed a parked tile (timer expiry or event
    /// wake): the first cycle it steps again. One per [`ObsKind::Park`].
    Wake,
}

hb_mem::snap_enum!(ObsKind, "unknown observation kind tag" {
    0 => Mark(value),
    1 => BarrierJoin,
    2 => FenceRetire,
    3 => Fault,
    4 => Inject(kind),
    5 => Retransmit,
    6 => Race,
    7 => Park(kind),
    8 => Wake,
});
hb_mem::snap_enum!(InjectKind, "unknown inject kind tag" {
    0 => Reg,
    1 => Spm,
    2 => Icache,
    3 => Hbm,
    4 => Freeze,
});

/// Which structure an [`ObsKind::Inject`] event hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectKind {
    /// Integer register-file bit flip.
    Reg,
    /// Scratchpad word bit flip.
    Spm,
    /// Instruction-cache line invalidation (detected parity flip).
    Icache,
    /// HBM channel stall window.
    Hbm,
    /// Whole-tile freeze.
    Freeze,
}

impl InjectKind {
    /// Stable lowercase label for exporters.
    pub fn label(self) -> &'static str {
        match self {
            InjectKind::Reg => "reg",
            InjectKind::Spm => "spm",
            InjectKind::Icache => "icache",
            InjectKind::Hbm => "hbm",
            InjectKind::Freeze => "freeze",
        }
    }
}

/// A tile-local instant event, stamped with the Cell cycle it occurred on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// Cell cycle at which the event fired.
    pub cycle: u64,
    /// Cell the tile belongs to.
    pub cell: u8,
    /// Tile coordinates within the Cell.
    pub tile: (u8, u8),
    /// Event payload.
    pub kind: ObsKind,
}

/// A sampling sink driven by [`Machine::tick`].
///
/// The observer is detached from the machine for the duration of each
/// callback, so implementations may freely inspect counters and drain the
/// tiles' event buffers through the `&mut Machine` they receive.
pub trait MachineObserver: Send + std::fmt::Debug {
    /// Called at the end of `Machine::tick` whenever the machine cycle
    /// reaches [`MachineObserver::next_due`]. All five Cell phases and the
    /// inter-cell fabric have run for this cycle; tile state is quiescent
    /// (the same synchronization point as the BSP sync phase, seen from
    /// the machine level).
    fn sample(&mut self, machine: &mut Machine);

    /// The next machine cycle at which [`MachineObserver::sample`] should
    /// run (`u64::MAX` to never fire again).
    fn next_due(&self) -> u64;

    /// Called once when the observer is detached (explicitly or when the
    /// machine is dropped), to flush a final partial window.
    fn finish(&mut self, machine: &mut Machine);

    /// Serializes the observer's in-progress window state for a
    /// checkpoint, or `None` if the observer carries no state worth
    /// restoring (the default). Observers that return `Some` here must
    /// accept the same bytes back in [`MachineObserver::restore`] so a
    /// restored run's remaining telemetry windows are identical to the
    /// uninterrupted run's.
    fn snapshot(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores window state captured by [`MachineObserver::snapshot`].
    ///
    /// # Errors
    ///
    /// [`hb_mem::SnapError`] if the bytes do not decode; the default
    /// implementation accepts nothing.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), hb_mem::SnapError> {
        let _ = bytes;
        Err(hb_mem::SnapError::Bad(
            "observer does not support checkpoint restore",
        ))
    }
}

type Factory = Box<dyn Fn(&MachineConfig) -> Option<Box<dyn MachineObserver>>>;

thread_local! {
    static FACTORY: RefCell<Option<Factory>> = const { RefCell::new(None) };
}

/// Clears the thread's observer factory when dropped.
///
/// Returned by [`set_observer_factory`]; hold it for the duration of the
/// instrumented run.
#[derive(Debug)]
pub struct ObserverScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ObserverScope {
    fn drop(&mut self) {
        FACTORY.with(|f| *f.borrow_mut() = None);
    }
}

/// Installs a factory consulted by every [`Machine::new`] on the current
/// thread: if it returns an observer, the machine attaches it before the
/// first cycle. This is how telemetry reaches machines constructed deep
/// inside benchmark harnesses without threading a parameter through every
/// call site. The factory is thread-local, so concurrent un-instrumented
/// runs on worker threads are unaffected; installing a new factory
/// replaces the previous one.
///
/// A caller that builds its own machine — every consumer in this
/// workspace — calls [`Machine::attach_observer`] instead. The factory
/// exists only for the benchmark crate `hb_perf/` (its `trace.rs`), which
/// still reaches machines built inside `Benchmark::run` with it.
pub fn set_observer_factory(
    f: impl Fn(&MachineConfig) -> Option<Box<dyn MachineObserver>> + 'static,
) -> ObserverScope {
    FACTORY.with(|slot| *slot.borrow_mut() = Some(Box::new(f)));
    ObserverScope {
        _not_send: std::marker::PhantomData,
    }
}

/// Consults the thread-local factory, if any.
pub(crate) fn make_observer(cfg: &MachineConfig) -> Option<Box<dyn MachineObserver>> {
    FACTORY.with(|slot| slot.borrow().as_ref().and_then(|mk| mk(cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CellDim, MachineConfig};

    #[derive(Debug)]
    struct CountingObserver {
        window: u64,
        due: u64,
        samples: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
    }

    impl MachineObserver for CountingObserver {
        fn sample(&mut self, machine: &mut Machine) {
            self.samples.lock().unwrap().push(machine.cycle());
            self.due += self.window;
        }

        fn next_due(&self) -> u64 {
            self.due
        }

        fn finish(&mut self, machine: &mut Machine) {
            self.samples.lock().unwrap().push(machine.cycle());
        }
    }

    fn tiny_cfg() -> MachineConfig {
        MachineConfig {
            cell_dim: CellDim { x: 2, y: 2 },
            ..MachineConfig::baseline_16x8()
        }
    }

    #[test]
    fn factory_attaches_and_scope_clears() {
        let samples = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let s2 = samples.clone();
        let scope = set_observer_factory(move |_cfg| {
            Some(Box::new(CountingObserver {
                window: 10,
                due: 10,
                samples: s2.clone(),
            }))
        });
        let mut machine = Machine::new(tiny_cfg());
        for _ in 0..25 {
            machine.tick();
        }
        drop(machine); // finish() flushes the partial window
        let got = samples.lock().unwrap().clone();
        assert_eq!(got, vec![10, 20, 25]);
        drop(scope);
        // With the scope gone, new machines are unobserved.
        let machine = Machine::new(tiny_cfg());
        assert!(!machine.is_observed());
    }

    #[test]
    fn factory_may_decline() {
        let _scope = set_observer_factory(|_cfg| None);
        let machine = Machine::new(tiny_cfg());
        assert!(!machine.is_observed());
    }
}
