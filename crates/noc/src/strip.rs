//! 1-D wormhole cache-refill/evict strip channel.
//!
//! Each HammerBlade cache-bank strip carries refill and eviction traffic to
//! the off-chip memory interface over 1-D wormhole channels. Pairs of
//! *skipped* channels shorten the path for banks in the middle of the strip,
//! improving fairness and latency; the skip distance and channel width are
//! sized to match the HBM2 pseudo-channel bandwidth.
//!
//! The model: a transfer of `bytes` occupies the channel for
//! `ceil(bytes / bytes_per_cycle)` cycles after a per-bank latency of
//! `base_latency + hops(bank)` cycles, where `hops(bank)` is the bank's
//! distance to the memory interface divided by the skip distance.

use std::collections::VecDeque;

/// Configuration of a [`StripChannel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripConfig {
    /// Number of banks on the strip.
    pub banks: usize,
    /// Channel payload width in bytes per cycle (sized to HBM2 bandwidth).
    pub bytes_per_cycle: u32,
    /// Fixed pipeline latency before a transfer's first beat.
    pub base_latency: u64,
    /// Skip-channel hop distance (1 = plain chain).
    pub skip_distance: usize,
}

impl Default for StripConfig {
    fn default() -> StripConfig {
        StripConfig {
            banks: 16,
            bytes_per_cycle: 16,
            base_latency: 2,
            skip_distance: 4,
        }
    }
}

// The canonical-text spelling (`strip=16,16,2,4` in `MachineConfig`'s).
hb_mem::text_tuple!(StripConfig, ',' { banks, bytes_per_cycle, base_latency, skip_distance });

/// One line transfer riding the strip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripTransfer {
    /// Caller tag.
    pub id: u64,
    /// Index of the bank on the strip (0 is nearest the memory interface).
    pub bank: usize,
    /// Payload size in bytes.
    pub bytes: u32,
    /// Whether the transfer is an eviction (write toward memory).
    pub write: bool,
}

/// Utilization counters for a strip channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StripStats {
    /// Cycles the channel carried payload beats.
    pub busy_cycles: u64,
    /// Cycles transfers waited behind the wormhole head-of-line.
    pub wait_cycles: u64,
    /// Completed transfers.
    pub transfers: u64,
}

#[derive(Debug, Clone, Copy)]
struct Active {
    xfer: StripTransfer,
    done_at: u64,
}

/// A single-direction wormhole strip channel shared by all banks on a strip.
#[derive(Debug)]
pub struct StripChannel {
    cfg: StripConfig,
    queue: VecDeque<StripTransfer>,
    active: Option<Active>,
    done: VecDeque<StripTransfer>,
    cycle: u64,
    stats: StripStats,
}

impl StripChannel {
    /// Creates a channel.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` or `skip_distance` is zero.
    pub fn new(cfg: StripConfig) -> StripChannel {
        assert!(cfg.bytes_per_cycle > 0 && cfg.skip_distance > 0);
        StripChannel {
            cfg,
            queue: VecDeque::new(),
            active: None,
            done: VecDeque::new(),
            cycle: 0,
            stats: StripStats::default(),
        }
    }

    /// The channel configuration.
    pub fn config(&self) -> &StripConfig {
        &self.cfg
    }

    /// Enqueues a transfer.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is outside the strip.
    pub fn enqueue(&mut self, xfer: StripTransfer) {
        assert!(
            xfer.bank < self.cfg.banks,
            "bank {} outside strip",
            xfer.bank
        );
        self.queue.push_back(xfer);
    }

    /// Pops a completed transfer, if any.
    pub fn pop_complete(&mut self) -> Option<StripTransfer> {
        self.done.pop_front()
    }

    /// Transfers currently queued or in flight.
    pub fn pending(&self) -> usize {
        self.queue.len() + usize::from(self.active.is_some())
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &StripStats {
        &self.stats
    }

    /// Sets the channel's clock, which is not part of its snapshot. A tick
    /// with nothing [`pending`](Self::pending) only advances the clock, so
    /// an owner may skip it and set the clock instead.
    pub fn set_clock(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    fn hop_latency(&self, bank: usize) -> u64 {
        (bank / self.cfg.skip_distance) as u64 + (bank % self.cfg.skip_distance) as u64
    }

    /// Advances one cycle.
    pub fn tick(&mut self) {
        self.cycle += 1;
        if let Some(active) = self.active {
            if active.done_at <= self.cycle {
                self.done.push_back(active.xfer);
                self.stats.transfers += 1;
                self.active = None;
            } else {
                self.stats.busy_cycles += 1;
                self.stats.wait_cycles += self.queue.len() as u64;
                return;
            }
        }
        if let Some(next) = self.queue.pop_front() {
            let beats = u64::from(next.bytes.div_ceil(self.cfg.bytes_per_cycle));
            let latency = self.cfg.base_latency + self.hop_latency(next.bank);
            self.active = Some(Active {
                xfer: next,
                done_at: self.cycle + latency + beats,
            });
            self.stats.busy_cycles += 1;
            self.stats.wait_cycles += self.queue.len() as u64;
        }
    }

    /// After a restore: every decoded transfer names a bank on this strip
    /// (what `enqueue` asserts for live ones).
    fn check_banks(&mut self) -> Result<(), hb_mem::SnapError> {
        let held = self.active.iter().map(|a| &a.xfer);
        if (self.queue.iter().chain(held).chain(&self.done)).any(|x| x.bank >= self.cfg.banks) {
            return Err(hb_mem::SnapError::Bad("StripChannel bank out of range"));
        }
        Ok(())
    }
}

hb_mem::snap_value!(StripTransfer {
    id,
    bank,
    bytes,
    write
});
hb_mem::snap_value!(StripStats {
    busy_cycles,
    wait_cycles,
    transfers
});
hb_mem::snap_value!(Active { xfer, done_at });
hb_mem::snap_state!(StripChannel [b"STRP"] {
    save: queue, active, done, stats;
    host: cfg, cycle;
} check check_banks);

#[cfg(test)]
mod tests {
    use super::*;

    fn complete_one(ch: &mut StripChannel, limit: u64) -> u64 {
        for _ in 0..limit {
            ch.tick();
            if ch.pop_complete().is_some() {
                return ch.cycle;
            }
        }
        panic!("transfer never completed");
    }

    #[test]
    fn near_bank_latency_floor() {
        let mut ch = StripChannel::new(StripConfig::default());
        ch.enqueue(StripTransfer {
            id: 1,
            bank: 0,
            bytes: 64,
            write: false,
        });
        let t = complete_one(&mut ch, 100);
        // base 2 + 4 beats (64/16) + scheduling.
        assert!((6..=8).contains(&t), "near-bank transfer took {t}");
    }

    #[test]
    fn skip_channels_help_far_banks() {
        let plain = StripConfig {
            skip_distance: 1,
            ..StripConfig::default()
        };
        let skip = StripConfig::default(); // skip 4
        let mut a = StripChannel::new(plain);
        let mut b = StripChannel::new(skip);
        a.enqueue(StripTransfer {
            id: 1,
            bank: 15,
            bytes: 64,
            write: false,
        });
        b.enqueue(StripTransfer {
            id: 1,
            bank: 15,
            bytes: 64,
            write: false,
        });
        let ta = complete_one(&mut a, 100);
        let tb = complete_one(&mut b, 100);
        assert!(
            tb < ta,
            "skip channel ({tb}) not faster than plain chain ({ta})"
        );
    }

    #[test]
    fn serializes_transfers() {
        let mut ch = StripChannel::new(StripConfig::default());
        for id in 0..4 {
            ch.enqueue(StripTransfer {
                id,
                bank: 0,
                bytes: 64,
                write: id % 2 == 0,
            });
        }
        let mut order = Vec::new();
        for _ in 0..200 {
            ch.tick();
            while let Some(t) = ch.pop_complete() {
                order.push(t.id);
            }
        }
        assert_eq!(order, vec![0, 1, 2, 3], "wormhole must preserve FIFO order");
        assert_eq!(ch.stats().transfers, 4);
    }

    #[test]
    fn throughput_matches_channel_width() {
        // Steady-state: a 64B transfer should take ~4 busy beats + overhead.
        let mut ch = StripChannel::new(StripConfig::default());
        for id in 0..100 {
            ch.enqueue(StripTransfer {
                id,
                bank: 0,
                bytes: 64,
                write: false,
            });
        }
        let mut done = 0;
        let mut cycles = 0u64;
        while done < 100 {
            ch.tick();
            cycles += 1;
            while ch.pop_complete().is_some() {
                done += 1;
            }
            assert!(cycles < 10_000);
        }
        let per = cycles as f64 / 100.0;
        assert!(per < 12.0, "per-transfer cost {per} too high");
    }
}
