//! Cycle-level HBM2 pseudo-channel timing model.

use std::collections::VecDeque;

/// Timing and geometry parameters of one HBM2 pseudo-channel, in memory-clock
/// cycles (1.0 GHz in the paper's setup).
///
/// Defaults approximate JESD235A HBM2 timing at 1 GHz and a 16 GB/s
/// pseudo-channel (a 64-byte line transfers in 4 cycles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hbm2Config {
    /// Number of banks in the pseudo-channel (power of two).
    pub banks: usize,
    /// Row (page) size in bytes.
    pub row_bytes: u32,
    /// Transferred line size in bytes; all requests are one line.
    pub line_bytes: u32,
    /// Data-bus cycles one line transfer occupies.
    pub burst_cycles: u64,
    /// ACT to column command delay.
    pub t_rcd: u64,
    /// Precharge latency.
    pub t_rp: u64,
    /// Column command to first data beat.
    pub t_cas: u64,
    /// Minimum row open time before precharge.
    pub t_ras: u64,
    /// Column-command to column-command spacing within a bank.
    pub t_ccd: u64,
    /// Refresh duration (all banks blocked).
    pub t_rfc: u64,
    /// Refresh interval.
    pub t_refi: u64,
    /// Request queue capacity.
    pub queue_depth: usize,
}

impl Default for Hbm2Config {
    fn default() -> Hbm2Config {
        Hbm2Config {
            banks: 16,
            row_bytes: 1024,
            line_bytes: 64,
            burst_cycles: 4,
            t_rcd: 14,
            t_rp: 14,
            t_cas: 14,
            t_ras: 33,
            t_ccd: 2,
            t_rfc: 260,
            t_refi: 3900,
            queue_depth: 32,
        }
    }
}

// The canonical-text spelling (`hbm=16,1024,..` in `MachineConfig`'s):
// every field is simulated behaviour, so every field is in it.
crate::text_tuple!(Hbm2Config, ',' {
    banks, row_bytes, line_bytes, burst_cycles, t_rcd, t_rp, t_cas, t_ras, t_ccd, t_rfc, t_refi,
    queue_depth,
});

/// A line-granularity DRAM request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// Caller-chosen tag returned in the [`DramResponse`].
    pub id: u64,
    /// Byte address; the model operates on the containing line.
    pub addr: u32,
    /// `true` for a write (eviction), `false` for a read (refill).
    pub write: bool,
}

/// Completion of a [`DramRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramResponse {
    /// Tag from the originating request.
    pub id: u64,
    /// Byte address of the request.
    pub addr: u32,
    /// Whether the request was a write.
    pub write: bool,
}

/// Utilization counters matching the paper's Figure 11 HBM2 taxonomy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hbm2Stats {
    /// Cycles the data bus carried read data.
    pub read_cycles: u64,
    /// Cycles the data bus carried write data.
    pub write_cycles: u64,
    /// Cycles with queued requests but no data transfer (DRAM timing).
    pub busy_cycles: u64,
    /// Cycles with an empty queue.
    pub idle_cycles: u64,
    /// Cycles spent refreshing (subtracted from the utilization denominator).
    pub refresh_cycles: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (activations).
    pub row_misses: u64,
    /// Row conflicts (precharge of an open row required).
    pub row_conflicts: u64,
    /// Completed read requests.
    pub reads: u64,
    /// Completed write requests.
    pub writes: u64,
}

impl Hbm2Stats {
    /// Total non-refresh cycles observed.
    pub fn denominator(&self) -> u64 {
        self.read_cycles + self.write_cycles + self.busy_cycles + self.idle_cycles
    }

    /// Fraction of non-refresh cycles transferring data (read + write).
    pub fn data_utilization(&self) -> f64 {
        let denom = self.denominator();
        if denom == 0 {
            0.0
        } else {
            (self.read_cycles + self.write_cycles) as f64 / denom as f64
        }
    }

    /// Row-buffer hit rate over all column accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Counters accumulated since `prev` was snapshotted. All fields are
    /// cumulative and monotonic, so a window delta is a plain field-wise
    /// subtraction.
    pub fn delta_since(&self, prev: &Hbm2Stats) -> Hbm2Stats {
        *self - *prev
    }
}

impl std::ops::Add for Hbm2Stats {
    type Output = Hbm2Stats;

    fn add(self, rhs: Hbm2Stats) -> Hbm2Stats {
        Hbm2Stats {
            read_cycles: self.read_cycles + rhs.read_cycles,
            write_cycles: self.write_cycles + rhs.write_cycles,
            busy_cycles: self.busy_cycles + rhs.busy_cycles,
            idle_cycles: self.idle_cycles + rhs.idle_cycles,
            refresh_cycles: self.refresh_cycles + rhs.refresh_cycles,
            row_hits: self.row_hits + rhs.row_hits,
            row_misses: self.row_misses + rhs.row_misses,
            row_conflicts: self.row_conflicts + rhs.row_conflicts,
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
        }
    }
}

impl std::ops::Sub for Hbm2Stats {
    type Output = Hbm2Stats;

    fn sub(self, rhs: Hbm2Stats) -> Hbm2Stats {
        Hbm2Stats {
            read_cycles: self.read_cycles - rhs.read_cycles,
            write_cycles: self.write_cycles - rhs.write_cycles,
            busy_cycles: self.busy_cycles - rhs.busy_cycles,
            idle_cycles: self.idle_cycles - rhs.idle_cycles,
            refresh_cycles: self.refresh_cycles - rhs.refresh_cycles,
            row_hits: self.row_hits - rhs.row_hits,
            row_misses: self.row_misses - rhs.row_misses,
            row_conflicts: self.row_conflicts - rhs.row_conflicts,
            reads: self.reads - rhs.reads,
            writes: self.writes - rhs.writes,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u32>,
    /// Cycle at which the bank can accept its next command.
    ready_at: u64,
    /// Earliest cycle a precharge may close the current row (tRAS).
    precharge_ok_at: u64,
}

#[derive(Debug, Clone, Copy)]
struct Inflight {
    req: DramRequest,
    done_at: u64,
}

/// A queued request plus whether it already paid for an activation or
/// precharge (so its eventual column command is not miscounted as a row hit),
/// and the bank and row its address decodes to (derived, once, at enqueue).
#[derive(Debug, Clone, Copy)]
struct Queued {
    req: DramRequest,
    touched_row: bool,
    bank: usize,
    row: u32,
}

/// One HBM2 pseudo-channel: FR-FCFS scheduler over per-bank row-buffer
/// state machines sharing a single data bus.
#[derive(Debug)]
pub struct Hbm2Channel {
    config: Hbm2Config,
    banks: Vec<Bank>,
    queue: VecDeque<Queued>,
    /// Issued transfers in issue order, which is `done_at` order: each burst
    /// starts after the bus frees (`start > bus_busy_until`), so `done_at`
    /// strictly increases and they retire from the front.
    inflight: VecDeque<Inflight>,
    responses: VecDeque<DramResponse>,
    /// Cycle until which the data bus is occupied, and whether by a write.
    bus_busy_until: u64,
    bus_is_write: bool,
    cycle: u64,
    next_refresh_at: u64,
    refresh_until: u64,
    /// Injected-fault stall: no command issues until this cycle (in-flight
    /// bursts still retire). Stays 0 on the zero-injection path.
    stall_until: u64,
    stall_windows: u64,
    stats: Hbm2Stats,
    /// Host work: queue entries the scheduler looked at, over all ticks.
    /// Not simulated state.
    examined: u64,
}

impl Hbm2Channel {
    /// Creates a channel with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two or geometry fields are zero.
    pub fn new(config: Hbm2Config) -> Hbm2Channel {
        assert!(
            config.banks.is_power_of_two(),
            "bank count must be a power of two"
        );
        assert!(config.row_bytes >= config.line_bytes && config.line_bytes > 0);
        assert!(config.burst_cycles > 0, "a burst occupies the bus");
        let banks = vec![
            Bank {
                open_row: None,
                ready_at: 0,
                precharge_ok_at: 0
            };
            config.banks
        ];
        let next_refresh_at = config.t_refi;
        Hbm2Channel {
            config,
            banks,
            queue: VecDeque::new(),
            inflight: VecDeque::new(),
            responses: VecDeque::new(),
            bus_busy_until: 0,
            bus_is_write: false,
            cycle: 0,
            next_refresh_at,
            refresh_until: 0,
            stall_until: 0,
            stall_windows: 0,
            stats: Hbm2Stats::default(),
            examined: 0,
        }
    }

    /// Injects a fault-model stall: the scheduler issues no new command for
    /// the next `window` memory-clock cycles (overlapping stalls extend the
    /// window). In-flight transfers still retire and the queue keeps
    /// accepting requests, so no traffic is lost — the stall costs latency
    /// only.
    pub fn stall_for(&mut self, window: u64) {
        // `stall_until` is exclusive; the next `window` ticks skip issue.
        self.stall_until = self.stall_until.max(self.cycle + 1 + window);
        self.stall_windows += 1;
    }

    /// Number of injected stall windows so far.
    pub fn stall_windows(&self) -> u64 {
        self.stall_windows
    }

    /// Whether the next tick will skip issue because of an injected stall.
    pub fn is_stalled(&self) -> bool {
        self.cycle + 1 < self.stall_until
    }

    /// The channel's configuration.
    pub fn config(&self) -> &Hbm2Config {
        &self.config
    }

    /// Whether the request queue has space this cycle.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.config.queue_depth
    }

    /// Enqueues a request; returns `false` (dropping nothing) if the queue
    /// is full — the caller must retry later.
    pub fn enqueue(&mut self, req: DramRequest) -> bool {
        if !self.can_accept() {
            return false;
        }
        let (bank, row) = self.bank_and_row(req.addr);
        self.queue.push_back(Queued {
            req,
            touched_row: false,
            bank,
            row,
        });
        true
    }

    /// Number of queued (not yet scheduled) requests.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Pops a completed request, if any.
    pub fn pop_response(&mut self) -> Option<DramResponse> {
        self.responses.pop_front()
    }

    /// Accumulated utilization statistics.
    pub fn stats(&self) -> &Hbm2Stats {
        &self.stats
    }

    /// Copy of the cumulative counters, for delta-based telemetry: keep
    /// the previous snapshot and subtract (`Hbm2Stats::delta_since`) to get
    /// per-window read/write/busy/idle activity.
    pub fn snapshot(&self) -> Hbm2Stats {
        self.stats
    }

    /// Current memory-clock cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Host work: queue entries the FR-FCFS scheduler has looked at so far
    /// (a request it skips because its bank is busy included). Not
    /// simulated state: a restore leaves it alone.
    pub fn entries_examined(&self) -> u64 {
        self.examined
    }

    fn bank_and_row(&self, addr: u32) -> (usize, u32) {
        let line = addr / self.config.line_bytes;
        let bank = (line as usize) & (self.config.banks - 1);
        let lines_per_row = self.config.row_bytes / self.config.line_bytes;
        let row = (line / self.config.banks as u32) / lines_per_row;
        (bank, row)
    }

    /// After a restore: every queued request's bank and row, decoded again.
    fn check_restored(&mut self) -> Result<(), crate::SnapError> {
        for i in 0..self.queue.len() {
            (self.queue[i].bank, self.queue[i].row) = self.bank_and_row(self.queue[i].req.addr);
        }
        Ok(())
    }

    /// Advances the channel by one memory-clock cycle.
    pub fn tick(&mut self) {
        if self.begin_tick() {
            self.issue();
        }
    }

    /// A tick up to its scheduling decision: the cycle advances, finished
    /// transfers retire, a refresh window opens, the cycle is accounted.
    /// Returns whether a command may issue (no refresh, no injected stall).
    fn begin_tick(&mut self) -> bool {
        self.cycle += 1;
        let now = self.cycle;

        // Retire finished transfers (in order; at most one is due per tick).
        while let Some(fin) = self.inflight.pop_front_if(|f| f.done_at <= now) {
            if fin.req.write {
                self.stats.writes += 1;
            } else {
                self.stats.reads += 1;
            }
            self.responses.push_back(DramResponse {
                id: fin.req.id,
                addr: fin.req.addr,
                write: fin.req.write,
            });
        }

        // Refresh window: all banks blocked.
        if now >= self.next_refresh_at && now >= self.refresh_until {
            self.refresh_until = now + self.config.t_rfc;
            self.next_refresh_at += self.config.t_refi;
            for bank in &mut self.banks {
                bank.open_row = None;
                bank.ready_at = bank.ready_at.max(self.refresh_until);
            }
        }
        let refreshing = now < self.refresh_until;

        // Account this cycle.
        if refreshing {
            self.stats.refresh_cycles += 1;
        } else if now <= self.bus_busy_until {
            if self.bus_is_write {
                self.stats.write_cycles += 1;
            } else {
                self.stats.read_cycles += 1;
            }
        } else if self.queue.is_empty() && self.inflight.is_empty() {
            self.stats.idle_cycles += 1;
        } else {
            self.stats.busy_cycles += 1;
        }

        !refreshing && now >= self.stall_until
    }

    /// FR-FCFS: a column command for the oldest row hit whose bank is
    /// ready, otherwise the oldest request whose bank is ready advances its
    /// bank FSM. No command changes a bank before the choice is made, so
    /// one pass over the queue finds both candidates.
    fn issue(&mut self) {
        let now = self.cycle;
        let banks = &self.banks;
        let (mut hit, mut oldest) = (None, None);
        for (qi, q) in self.queue.iter().enumerate() {
            let bank = &banks[q.bank];
            if bank.ready_at > now {
                continue;
            }
            if bank.open_row == Some(q.row) {
                hit = Some(qi);
                break;
            }
            oldest.get_or_insert(qi);
        }
        self.examined += hit.map_or(self.queue.len(), |qi| qi + 1) as u64;
        if let Some(qi) = hit {
            self.column(qi, now);
        } else if let Some(qi) = oldest {
            self.advance_bank(qi, now);
        }
    }

    /// Issues the column command of queued request `qi`, whose row is open
    /// in its ready bank.
    fn column(&mut self, qi: usize, now: u64) {
        let q = self.queue.remove(qi).expect("queued request");
        // First cycle the data bus could start a new burst after CAS.
        let start = (now + self.config.t_cas).max(self.bus_busy_until + 1);
        let done = start + self.config.burst_cycles - 1;
        self.bus_busy_until = done;
        self.bus_is_write = q.req.write;
        self.banks[q.bank].ready_at = now + self.config.t_ccd;
        self.inflight.push_back(Inflight {
            req: q.req,
            done_at: done,
        });
        if !q.touched_row {
            // A genuine row-buffer hit: served from a row someone else
            // opened.
            self.stats.row_hits += 1;
        }
    }

    /// Advances the bank FSM of queued request `qi`, whose bank is ready
    /// but does not hold its row open: activate, or precharge the open one.
    fn advance_bank(&mut self, qi: usize, now: u64) {
        let Queued { bank: bi, row, .. } = self.queue[qi];
        let bank = &mut self.banks[bi];
        match bank.open_row {
            None => {
                bank.open_row = Some(row);
                bank.ready_at = now + self.config.t_rcd;
                bank.precharge_ok_at = now + self.config.t_ras;
                self.stats.row_misses += 1;
            }
            Some(_) => {
                // Conflict: precharge once tRAS allows.
                bank.open_row = None;
                bank.ready_at = now.max(bank.precharge_ok_at) + self.config.t_rp;
                self.stats.row_conflicts += 1;
            }
        }
        self.queue[qi].touched_row = true;
    }
}

// The snapshot field lists: `config` is rebuilt from the machine
// configuration, which also fixes the number of banks.
crate::snap_value!(DramRequest { id, addr, write });
crate::snap_value!(DramResponse { id, addr, write });
crate::snap_value!(Hbm2Stats {
    read_cycles,
    write_cycles,
    busy_cycles,
    idle_cycles,
    refresh_cycles,
    row_hits,
    row_misses,
    row_conflicts,
    reads,
    writes,
});
crate::snap_value!(Bank {
    open_row,
    ready_at,
    precharge_ok_at
});
crate::snap_value!(Inflight { req, done_at });
crate::snap_value!(Queued { req, touched_row; derived bank, row });
crate::snap_state!(Hbm2Channel [b"HBM2"] {
    save: queue, inflight, responses, bus_busy_until, bus_is_write, cycle, next_refresh_at,
        refresh_until, stall_until, stall_windows, stats;
    fixed: banks;
    host: config, examined;
} check check_restored);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SnapState;

    fn run_until_response(ch: &mut Hbm2Channel, limit: u64) -> Option<(DramResponse, u64)> {
        for _ in 0..limit {
            ch.tick();
            if let Some(r) = ch.pop_response() {
                return Some((r, ch.cycle()));
            }
        }
        None
    }

    #[test]
    fn snapshot_deltas_track_per_window_activity() {
        let mut ch = Hbm2Channel::new(Hbm2Config::default());
        assert!(ch.enqueue(DramRequest {
            id: 1,
            addr: 0,
            write: false
        }));
        run_until_response(&mut ch, 200).expect("read completes");
        let mid = ch.snapshot();
        assert!(mid.reads == 1 && mid.read_cycles > 0);
        // A second window with only idle cycles: the delta must show no new
        // data transfer, and cumulative counters must stay monotonic.
        for _ in 0..50 {
            ch.tick();
        }
        let end = ch.snapshot();
        let delta = end.delta_since(&mid);
        assert_eq!(delta.reads, 0);
        assert_eq!(delta.read_cycles, 0);
        assert_eq!(
            delta.denominator() + delta.refresh_cycles,
            50,
            "every cycle in the window is accounted for: {delta:?}"
        );
        assert!(delta.idle_cycles > 0);
    }

    #[test]
    fn injected_stall_delays_issue_but_loses_nothing() {
        let mut clean = Hbm2Channel::new(Hbm2Config::default());
        clean.enqueue(DramRequest {
            id: 1,
            addr: 0,
            write: false,
        });
        let (_, t_clean) = run_until_response(&mut clean, 400).expect("clean read");

        let mut stalled = Hbm2Channel::new(Hbm2Config::default());
        stalled.stall_for(60);
        assert!(stalled.is_stalled());
        assert_eq!(stalled.stall_windows(), 1);
        stalled.enqueue(DramRequest {
            id: 1,
            addr: 0,
            write: false,
        });
        let (resp, t_stalled) = run_until_response(&mut stalled, 400).expect("stalled read");
        assert_eq!(resp.id, 1);
        assert_eq!(
            t_stalled,
            t_clean + 60,
            "a 60-cycle stall window must cost exactly 60 cycles"
        );
        // The per-window accounting invariant survives stalls.
        let s = stalled.snapshot();
        assert_eq!(s.denominator() + s.refresh_cycles, stalled.cycle());
        // Overlapping stalls extend rather than stack.
        stalled.stall_for(10);
        stalled.stall_for(5);
        assert_eq!(stalled.stall_windows(), 3);
        for _ in 0..10 {
            stalled.tick();
        }
        assert!(!stalled.is_stalled());
    }

    #[test]
    fn single_read_completes_with_activation_latency() {
        let cfg = Hbm2Config::default();
        let (t_rcd, t_cas, burst) = (cfg.t_rcd, cfg.t_cas, cfg.burst_cycles);
        let mut ch = Hbm2Channel::new(cfg);
        assert!(ch.enqueue(DramRequest {
            id: 7,
            addr: 0,
            write: false
        }));
        let (resp, at) = run_until_response(&mut ch, 200).expect("read must complete");
        assert_eq!(resp.id, 7);
        // Activation + CAS + burst, plus a couple of scheduling cycles.
        let floor = t_rcd + t_cas + burst;
        assert!(
            at >= floor,
            "completed at {at}, faster than DRAM timing floor {floor}"
        );
        assert!(
            at <= floor + 4,
            "completed at {at}, too slow vs floor {floor}"
        );
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut ch = Hbm2Channel::new(Hbm2Config::default());
        ch.enqueue(DramRequest {
            id: 1,
            addr: 0,
            write: false,
        });
        let (_, t_miss) = run_until_response(&mut ch, 200).unwrap();
        // Same bank, same row: next line in the row is banks*line_bytes away.
        let same_row_addr = ch.config().line_bytes * ch.config().banks as u32;
        let start = ch.cycle();
        ch.enqueue(DramRequest {
            id: 2,
            addr: same_row_addr,
            write: false,
        });
        let (_, t_hit_abs) = run_until_response(&mut ch, 200).unwrap();
        let t_hit = t_hit_abs - start;
        assert!(
            t_hit < t_miss,
            "row hit took {t_hit} cycles, row miss {t_miss}; hit should be faster"
        );
        assert_eq!(ch.stats().row_hits, 1);
        assert_eq!(ch.stats().row_misses, 1);
    }

    #[test]
    fn row_conflict_precharges() {
        let cfg = Hbm2Config::default();
        let row_span = cfg.row_bytes * cfg.banks as u32; // same bank, next row
        let mut ch = Hbm2Channel::new(cfg);
        ch.enqueue(DramRequest {
            id: 1,
            addr: 0,
            write: false,
        });
        run_until_response(&mut ch, 200).unwrap();
        ch.enqueue(DramRequest {
            id: 2,
            addr: row_span,
            write: false,
        });
        run_until_response(&mut ch, 300).unwrap();
        assert_eq!(ch.stats().row_conflicts, 1);
    }

    #[test]
    fn bank_parallelism_beats_serialization() {
        // Two requests to different banks should overlap their activations:
        // total time well under 2x the single-request latency.
        let cfg = Hbm2Config::default();
        let mut ch = Hbm2Channel::new(cfg.clone());
        ch.enqueue(DramRequest {
            id: 1,
            addr: 0,
            write: false,
        });
        ch.enqueue(DramRequest {
            id: 2,
            addr: cfg.line_bytes,
            write: false,
        }); // bank 1
        let mut done = 0;
        let mut finish = 0;
        for _ in 0..400 {
            ch.tick();
            while ch.pop_response().is_some() {
                done += 1;
            }
            if done == 2 {
                finish = ch.cycle();
                break;
            }
        }
        assert_eq!(done, 2);
        let single = cfg.t_rcd + cfg.t_cas + cfg.burst_cycles;
        assert!(
            finish < 2 * single,
            "two-bank access took {finish}, not overlapped (single = {single})"
        );
    }

    #[test]
    fn sustained_streaming_approaches_full_bandwidth() {
        // Sequential lines (rotating across banks, row hits within banks)
        // should keep the data bus busy most of the time.
        let cfg = Hbm2Config::default();
        let line = cfg.line_bytes;
        let mut ch = Hbm2Channel::new(cfg);
        let mut next = 0u32;
        let mut completed = 0u64;
        for _ in 0..20_000 {
            while ch.can_accept() {
                ch.enqueue(DramRequest {
                    id: u64::from(next),
                    addr: next * line,
                    write: false,
                });
                next += 1;
            }
            ch.tick();
            while ch.pop_response().is_some() {
                completed += 1;
            }
        }
        let util = ch.stats().data_utilization();
        assert!(
            util > 0.8,
            "streaming utilization {util:.2} too low ({completed} lines completed)"
        );
    }

    #[test]
    fn refresh_blocks_and_is_accounted() {
        let cfg = Hbm2Config {
            t_refi: 100,
            t_rfc: 50,
            ..Hbm2Config::default()
        };
        let mut ch = Hbm2Channel::new(cfg);
        for _ in 0..1000 {
            ch.tick();
        }
        assert!(ch.stats().refresh_cycles > 0);
        // Refresh should be roughly t_rfc/t_refi of all cycles.
        let frac = ch.stats().refresh_cycles as f64 / 1000.0;
        assert!((0.3..0.7).contains(&frac), "refresh fraction {frac}");
    }

    #[test]
    fn queue_full_rejects() {
        let cfg = Hbm2Config {
            queue_depth: 2,
            ..Hbm2Config::default()
        };
        let mut ch = Hbm2Channel::new(cfg);
        assert!(ch.enqueue(DramRequest {
            id: 1,
            addr: 0,
            write: false
        }));
        assert!(ch.enqueue(DramRequest {
            id: 2,
            addr: 64,
            write: false
        }));
        assert!(!ch.enqueue(DramRequest {
            id: 3,
            addr: 128,
            write: false
        }));
    }

    #[test]
    fn snapshot_restore_is_bit_exact_mid_stream() {
        // Run a channel mid-burst with queued, in-flight and completed
        // requests, snapshot it, restore into a fresh channel, and drive
        // both forward: every response and counter must stay identical.
        let mut a = Hbm2Channel::new(Hbm2Config::default());
        let mut next = 0u32;
        for _ in 0..500 {
            while a.can_accept() && next < 40 {
                a.enqueue(DramRequest {
                    id: u64::from(next),
                    addr: next * 64,
                    write: next.is_multiple_of(3),
                });
                next += 1;
            }
            a.tick();
        }
        a.stall_for(5);

        let mut w = crate::SnapWriter::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut b = Hbm2Channel::new(Hbm2Config::default());
        let mut r = crate::SnapReader::new(&bytes);
        b.load_state(&mut r).unwrap();
        r.finish().unwrap();

        for _ in 0..2000 {
            a.tick();
            b.tick();
            assert_eq!(a.pop_response(), b.pop_response());
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.cycle(), b.cycle());
        assert_eq!(a.stall_windows(), b.stall_windows());

        // A bank-count mismatch is a clean error, not a panic.
        let mut wrong = Hbm2Channel::new(Hbm2Config {
            banks: 8,
            ..Hbm2Config::default()
        });
        let mut r = crate::SnapReader::new(&bytes);
        assert!(wrong.load_state(&mut r).is_err());
    }

    impl Hbm2Channel {
        /// The two-scan tick [`tick`](Hbm2Channel::tick) replaced: the
        /// lockstep reference of `tick_matches_the_two_scan_reference`.
        fn tick_reference(&mut self) {
            if !self.begin_tick() {
                return;
            }
            let now = self.cycle;
            // FR-FCFS: issue a column command for the oldest row-hit whose bank
            // is ready; otherwise advance the oldest request's bank FSM.
            let cas_slot_free = |ch: &Hbm2Channel| -> u64 {
                // First cycle the data bus could start a new burst after CAS.
                (now + ch.config.t_cas).max(ch.bus_busy_until + 1)
            };

            let mut issued = false;
            for qi in 0..self.queue.len() {
                self.examined += 1;
                let q = self.queue[qi];
                let (req, bi, row) = (q.req, q.bank, q.row);
                let bank = self.banks[bi];
                if bank.open_row == Some(row) && bank.ready_at <= now {
                    // Row open: issue column command now.
                    let start = cas_slot_free(self);
                    let done = start + self.config.burst_cycles - 1;
                    self.bus_busy_until = done;
                    self.bus_is_write = req.write;
                    self.banks[bi].ready_at = now + self.config.t_ccd;
                    self.inflight.push_back(Inflight { req, done_at: done });
                    self.queue.remove(qi);
                    if !q.touched_row {
                        // A genuine row-buffer hit: served from a row someone
                        // else opened.
                        self.stats.row_hits += 1;
                    }
                    issued = true;
                    break;
                }
            }

            if !issued {
                // Progress the oldest request whose bank is idle enough.
                for qi in 0..self.queue.len() {
                    self.examined += 1;
                    let Queued { bank: bi, row, .. } = self.queue[qi];
                    let bank = self.banks[bi];
                    if bank.ready_at > now {
                        continue;
                    }
                    match bank.open_row {
                        None => {
                            // Activate the row.
                            self.banks[bi].open_row = Some(row);
                            self.banks[bi].ready_at = now + self.config.t_rcd;
                            self.banks[bi].precharge_ok_at = now + self.config.t_ras;
                            self.stats.row_misses += 1;
                            self.queue[qi].touched_row = true;
                        }
                        Some(open) if open != row => {
                            // Conflict: precharge once tRAS allows.
                            let start = now.max(bank.precharge_ok_at);
                            self.banks[bi].open_row = None;
                            self.banks[bi].ready_at = start + self.config.t_rp;
                            self.stats.row_conflicts += 1;
                            self.queue[qi].touched_row = true;
                        }
                        Some(_) => {
                            // Row open and matching but the bank was busy this
                            // cycle (tCCD); nothing to do.
                        }
                    }
                    break;
                }
            }
        }
    }

    /// Every saved field, as checkpoint bytes.
    fn saved(ch: &Hbm2Channel) -> Vec<u8> {
        let mut w = crate::SnapWriter::new();
        ch.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn tick_matches_the_two_scan_reference() {
        // xorshift32: seeded traffic without a dependency.
        let mut state = 34u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        let configs = [
            Hbm2Config::default(),
            Hbm2Config {
                queue_depth: 2,
                ..Hbm2Config::default()
            },
            // A refresh that only closes rows: the same tick issues.
            Hbm2Config {
                t_refi: 97,
                t_rfc: 0,
                ..Hbm2Config::default()
            },
            // Frequent refresh windows, one bank: every request conflicts
            // or hits.
            Hbm2Config {
                banks: 1,
                t_refi: 300,
                t_rfc: 40,
                ..Hbm2Config::default()
            },
            // More banks than the default, shallow rows, a deep queue.
            Hbm2Config {
                banks: 128,
                row_bytes: 256,
                queue_depth: 48,
                ..Hbm2Config::default()
            },
        ];
        let (mut examined, mut examined_ref) = (0, 0);
        for cfg in configs {
            let (banks, row_bytes, line) = (cfg.banks as u32, cfg.row_bytes, cfg.line_bytes);
            let t_rfc = cfg.t_rfc;
            let mut ch = Hbm2Channel::new(cfg.clone());
            let mut reference = Hbm2Channel::new(cfg);
            let mut id = 0;
            for cycle in 0..12_000u64 {
                // Bursts and lulls; a few rows per bank, so hits, misses and
                // conflicts all occur.
                let rate = if (cycle / 1000) % 3 == 2 { 0 } else { 2 };
                for _ in 0..next() % (rate + 1) {
                    let bank = next() % banks;
                    let row = next() % 3;
                    let col = next() % (row_bytes / line);
                    let req = DramRequest {
                        id,
                        addr: (row * (row_bytes / line) + col) * line * banks + bank * line,
                        write: next().is_multiple_of(3),
                    };
                    id += 1;
                    assert_eq!(ch.enqueue(req), reference.enqueue(req));
                }
                if next().is_multiple_of(1500) {
                    let window = u64::from(next() % 80);
                    ch.stall_for(window);
                    reference.stall_for(window);
                }
                ch.tick();
                reference.tick_reference();
                assert_eq!(saved(&ch), saved(&reference), "cycle {cycle}");
                while let Some(r) = reference.pop_response() {
                    assert_eq!(ch.pop_response(), Some(r), "cycle {cycle}");
                }
                assert_eq!(ch.pop_response(), None, "cycle {cycle}");
            }
            let s = ch.stats();
            assert!(
                s.row_hits > 0 && s.row_misses > 0 && s.row_conflicts > 0,
                "{s:?}"
            );
            assert!(s.reads > 0 && s.writes > 0, "{s:?}");
            assert_eq!(s.refresh_cycles > 0, t_rfc > 0, "{s:?}");
            examined += ch.entries_examined();
            examined_ref += reference.entries_examined();
        }
        assert!(
            examined < examined_ref,
            "one pass looks at fewer requests than two: {examined} vs {examined_ref}"
        );
    }

    #[test]
    fn writes_counted_separately() {
        let mut ch = Hbm2Channel::new(Hbm2Config::default());
        ch.enqueue(DramRequest {
            id: 1,
            addr: 0,
            write: true,
        });
        run_until_response(&mut ch, 200).unwrap();
        assert_eq!(ch.stats().writes, 1);
        assert_eq!(ch.stats().reads, 0);
        assert!(ch.stats().write_cycles > 0);
    }
}
