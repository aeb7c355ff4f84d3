//! The cache bank: set-associative, non-blocking, write-validate.

use hb_isa::AmoOp;
use std::collections::VecDeque;

/// Geometry and policy of one cache bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (at most 64, power of two).
    pub line_bytes: u32,
    /// Right-shift applied to the line address before set indexing.
    /// The Cell sets this to `log2(num_banks)` so consecutive lines that
    /// stripe across banks index consecutive sets within a bank.
    pub bank_shift: u32,
    /// Hit pipeline latency in cycles.
    pub hit_latency: u64,
    /// Maximum outstanding primary misses (MSHR count).
    pub mshrs: usize,
    /// Maximum queued requests per MSHR (secondary misses).
    pub mshr_capacity: usize,
    /// Input queue depth (backpressure bound).
    pub input_depth: usize,
    /// Write-validate policy: write misses allocate without fetching.
    /// When `false`, write misses fetch the line first (write-allocate).
    pub write_validate: bool,
    /// When `true` the bank blocks on any outstanding miss (the pre-HB
    /// baseline); hits behind a miss stall.
    pub blocking: bool,
}

impl Default for CacheConfig {
    /// The paper's bank geometry: 64 sets, 8 ways, 64 B lines, 32 banks per
    /// Cell, non-blocking and write-validate.
    fn default() -> CacheConfig {
        CacheConfig {
            sets: 64,
            ways: 8,
            line_bytes: 64,
            bank_shift: 5,
            hit_latency: 2,
            mshrs: 8,
            mshr_capacity: 4,
            input_depth: 4,
            write_validate: true,
            blocking: false,
        }
    }
}

/// The kind of access a [`CacheRequest`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read `width` bytes.
    Load,
    /// Write `width` bytes of `data`.
    Store,
    /// Atomic read-modify-write on a 32-bit word; responds with the old
    /// value.
    Amo(AmoOp),
}

/// A word-granularity request from the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheRequest {
    /// Caller tag, echoed in the response.
    pub id: u64,
    /// Byte address (within the DRAM space this bank owns).
    pub addr: u32,
    /// Access kind.
    pub kind: AccessKind,
    /// Store/AMO operand (low `width` bytes significant).
    pub data: u32,
    /// Access width in bytes: 1, 2 or 4.
    pub width: u8,
}

/// Completion of a [`CacheRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheResponse {
    /// Tag from the request.
    pub id: u64,
    /// Loaded word (zero-extended), old value for AMOs, undefined for
    /// stores.
    pub data: u32,
}

/// A line-granularity request toward DRAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineRequest {
    /// Line-aligned byte address.
    pub line_addr: u32,
    /// Fetch or writeback.
    pub kind: LineRequestKind,
}

/// Kind of [`LineRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineRequestKind {
    /// Read the line from DRAM (refill).
    Fetch,
    /// Write the line's valid bytes back to DRAM.
    Writeback {
        /// Line contents.
        data: Vec<u8>,
        /// Bit `i` set means byte `i` of `data` is valid and must be
        /// written.
        valid: u64,
    },
}

/// Event counters for one bank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests that hit (all requested bytes valid).
    pub hits: u64,
    /// Primary misses (MSHR allocated, fetch issued).
    pub misses: u64,
    /// Secondary misses (merged into an existing MSHR).
    pub secondary_misses: u64,
    /// Write misses satisfied by write-validate allocation (no fetch).
    pub write_validate_fills: u64,
    /// Lines evicted.
    pub evictions: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Requests rejected for backpressure (input queue full).
    pub rejected_input: u64,
    /// Requests stalled because every MSHR (or its capacity) was busy.
    pub rejected_mshr: u64,
    /// Atomic operations performed.
    pub amos: u64,
    /// Cycles with no request to process. Derived, not counted: every tick
    /// is busy (it processed a request), blocked or idle, so idle is the
    /// clock less the other two (see [`CacheBank::stats_at`]).
    pub idle_cycles: u64,
    /// Cycles stalled waiting on an outstanding miss (blocking mode).
    pub blocked_cycles: u64,
}

impl CacheStats {
    /// Miss rate over all completed primary lookups.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.write_validate_fills;
        if total == 0 {
            0.0
        } else {
            (self.misses + self.write_validate_fills) as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Line {
    tag: u32,
    data: Vec<u8>,
    /// Per-byte validity (write-validate leaves unwritten bytes invalid).
    valid: u64,
    /// Per-byte dirtiness.
    dirty: u64,
    /// Line has an MSHR fetch in flight; may not be evicted.
    pending: bool,
    /// LRU timestamp.
    last_use: u64,
}

#[derive(Debug)]
struct Mshr {
    line_addr: u32,
    waiting: Vec<CacheRequest>,
}

/// One non-blocking, write-validate cache bank. See the crate docs for the
/// policies; drive it with [`try_accept`](CacheBank::try_accept) /
/// [`tick`](CacheBank::tick) and service its DRAM side via
/// [`pop_mem_request`](CacheBank::pop_mem_request) /
/// [`complete_fetch`](CacheBank::complete_fetch).
#[derive(Debug)]
pub struct CacheBank {
    cfg: CacheConfig,
    /// `sets * ways` lines; way-major within a set.
    lines: Vec<Option<Line>>,
    mshrs: Vec<Mshr>,
    input: VecDeque<CacheRequest>,
    responses: VecDeque<(u64 /* ready_at */, CacheResponse)>,
    mem_requests: VecDeque<LineRequest>,
    /// The bank's clock: one per [`tick`](Self::tick), or set by an owner
    /// that skips idle ticks ([`set_clock`](Self::set_clock)).
    cycle: u64,
    /// Ticks that processed a request.
    busy_cycles: u64,
    /// Every counter but `idle_cycles`, which is derived.
    stats: CacheStats,
}

impl CacheBank {
    /// Creates a bank.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (zero sets/ways, line size not a
    /// power of two or above 64 bytes).
    pub fn new(cfg: CacheConfig) -> CacheBank {
        assert!(cfg.sets > 0 && cfg.ways > 0);
        assert!(cfg.line_bytes.is_power_of_two() && cfg.line_bytes <= 64);
        assert!(cfg.mshrs > 0 && cfg.mshr_capacity > 0 && cfg.input_depth > 0);
        CacheBank {
            lines: vec![None; cfg.sets * cfg.ways],
            mshrs: Vec::new(),
            input: VecDeque::new(),
            responses: VecDeque::new(),
            mem_requests: VecDeque::new(),
            cycle: 0,
            busy_cycles: 0,
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// The bank configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics as of the bank's own clock.
    pub fn stats(&self) -> CacheStats {
        self.stats_at(self.cycle)
    }

    /// Accumulated statistics as of `clock`, at or past the bank's own: the
    /// ticks an owner skipped were idle ones. (Saturating: a restored
    /// snapshot's counters are not checked against the clock.)
    pub fn stats_at(&self, clock: u64) -> CacheStats {
        let ticked = self.busy_cycles.saturating_add(self.stats.blocked_cycles);
        CacheStats {
            idle_cycles: clock.saturating_sub(ticked),
            ..self.stats
        }
    }

    /// Sets the bank's clock, which is not part of its snapshot. A tick with
    /// no work ([`has_work`](Self::has_work)) only advances the clock, so an
    /// owner may skip it and set the clock instead.
    pub fn set_clock(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// Whether a tick could do anything but advance the clock: a request
    /// waits in the input queue or a response is still in the pipeline.
    pub fn has_work(&self) -> bool {
        !(self.input.is_empty() && self.responses.is_empty())
    }

    /// The tag of every request the bank holds — queued, waiting in an MSHR,
    /// or answered and not yet popped.
    pub fn held_ids(&self) -> impl Iterator<Item = u64> + '_ {
        let waiting = self.mshrs.iter().flat_map(|m| &m.waiting);
        (self.input.iter().chain(waiting).map(|r| r.id))
            .chain(self.responses.iter().map(|(_, r)| r.id))
    }

    /// Whether a fetch of `line_addr` is outstanding: an MSHR chases it and
    /// the line is installed, waiting for its data — what
    /// [`complete_fetch`](Self::complete_fetch) requires.
    pub fn awaits_fetch(&self, line_addr: u32) -> bool {
        self.mshrs.iter().any(|m| m.line_addr == line_addr)
            && self.find_way(line_addr).is_some_and(|way| {
                let slot = self.set_index(line_addr) * self.cfg.ways + way;
                self.lines[slot].as_ref().is_some_and(|l| l.pending)
            })
    }

    /// Whether the input queue can take another request this cycle.
    pub fn can_accept(&self) -> bool {
        self.input.len() < self.cfg.input_depth
    }

    /// Offers a request to the bank; `false` means backpressure (count it
    /// and retry).
    pub fn try_accept(&mut self, req: CacheRequest) -> bool {
        debug_assert!(
            matches!(req.width, 1 | 2 | 4),
            "unsupported width {}",
            req.width
        );
        // The contract `perform` indexes by: the access sits inside one
        // line. Alignment within the line is not required — a misaligned
        // access (only fault injection produces one) is served bytewise,
        // identically in debug and release builds; the tile traps the
        // line-straddling ones before they get here.
        debug_assert!(
            (req.addr & (self.cfg.line_bytes - 1)) + u32::from(req.width) <= self.cfg.line_bytes,
            "access {:#x}/{} crosses its cache line",
            req.addr,
            req.width
        );
        if !self.can_accept() {
            self.stats.rejected_input += 1;
            return false;
        }
        self.input.push_back(req);
        true
    }

    /// Pops a completed response whose latency has elapsed.
    pub fn pop_response(&mut self) -> Option<CacheResponse> {
        if let Some(&(ready, resp)) = self.responses.front() {
            if ready <= self.cycle {
                self.responses.pop_front();
                return Some(resp);
            }
        }
        None
    }

    /// Pops a line request destined for DRAM.
    pub fn pop_mem_request(&mut self) -> Option<LineRequest> {
        self.mem_requests.pop_front()
    }

    /// Outstanding primary misses.
    pub fn outstanding_misses(&self) -> usize {
        self.mshrs.len()
    }

    /// Whether the bank holds no queued work (responses may still be
    /// draining).
    pub fn is_quiescent(&self) -> bool {
        self.input.is_empty() && self.mshrs.is_empty() && self.mem_requests.is_empty()
    }

    fn line_addr(&self, addr: u32) -> u32 {
        addr & !(self.cfg.line_bytes - 1)
    }

    fn set_index(&self, line_addr: u32) -> usize {
        let line = line_addr / self.cfg.line_bytes;
        ((line >> self.cfg.bank_shift) as usize) % self.cfg.sets
    }

    fn find_way(&self, line_addr: u32) -> Option<usize> {
        let set = self.set_index(line_addr);
        (0..self.cfg.ways).find(|&w| {
            self.lines[set * self.cfg.ways + w]
                .as_ref()
                .is_some_and(|l| l.tag == line_addr)
        })
    }

    fn byte_mask(addr: u32, width: u8, line_bytes: u32) -> u64 {
        let offset = addr & (line_bytes - 1);
        let mask = (1u64 << width) - 1;
        mask << offset
    }

    /// Completes a DRAM fetch: installs/merges the line and retires every
    /// request waiting in the line's MSHR.
    ///
    /// # Panics
    ///
    /// Panics if no MSHR is outstanding for `line_addr`.
    pub fn complete_fetch(&mut self, line_addr: u32, bytes: &[u8]) {
        assert_eq!(bytes.len() as u32, self.cfg.line_bytes);
        let mi = self
            .mshrs
            .iter()
            .position(|m| m.line_addr == line_addr)
            .expect("fetch completion without MSHR");
        let mshr = self.mshrs.swap_remove(mi);

        let way = self
            .find_way(line_addr)
            .expect("pending line evicted while fetch in flight");
        let set = self.set_index(line_addr);
        let slot = set * self.cfg.ways + way;
        {
            let line = self.lines[slot].as_mut().unwrap();
            // Merge: bytes already valid in the cache (written under
            // write-validate while the fetch was in flight) win over memory.
            for (i, &b) in bytes.iter().enumerate() {
                if line.valid & (1 << i) == 0 {
                    line.data[i] = b;
                }
            }
            line.valid = if self.cfg.line_bytes == 64 {
                u64::MAX
            } else {
                (1u64 << self.cfg.line_bytes) - 1
            };
            line.pending = false;
        }
        // Retire waiting requests in arrival order.
        for req in mshr.waiting {
            let resp = self.perform(slot, req);
            self.responses.push_back((self.cycle + 1, resp));
        }
    }

    /// Executes a request against an installed line; assumes all needed
    /// bytes are valid (or are being written).
    fn perform(&mut self, slot: usize, req: CacheRequest) -> CacheResponse {
        let line_bytes = self.cfg.line_bytes;
        let cycle = self.cycle;
        let line = self.lines[slot].as_mut().unwrap();
        line.last_use = cycle;
        let offset = (req.addr & (line_bytes - 1)) as usize;
        let read_word = |line: &Line, off: usize, width: usize| -> u32 {
            let mut v = 0u32;
            for i in (0..width).rev() {
                v = (v << 8) | u32::from(line.data[off + i]);
            }
            v
        };
        match req.kind {
            AccessKind::Load => {
                let data = read_word(line, offset, req.width as usize);
                CacheResponse { id: req.id, data }
            }
            AccessKind::Store => {
                for i in 0..req.width as usize {
                    line.data[offset + i] = (req.data >> (8 * i)) as u8;
                }
                let mask = Self::byte_mask(req.addr, req.width, line_bytes);
                line.valid |= mask;
                line.dirty |= mask;
                CacheResponse {
                    id: req.id,
                    data: 0,
                }
            }
            AccessKind::Amo(op) => {
                self.stats.amos += 1;
                let old = read_word(line, offset, 4);
                let new = op.apply(old, req.data);
                for i in 0..4 {
                    line.data[offset + i] = (new >> (8 * i)) as u8;
                }
                let mask = Self::byte_mask(req.addr, 4, line_bytes);
                line.valid |= mask;
                line.dirty |= mask;
                CacheResponse {
                    id: req.id,
                    data: old,
                }
            }
        }
    }

    /// Picks a victim way in `set`; evicts (with writeback if dirty) and
    /// returns the way, or `None` if every way is pending.
    fn allocate_way(&mut self, set: usize) -> Option<usize> {
        // Free way first.
        for w in 0..self.cfg.ways {
            if self.lines[set * self.cfg.ways + w].is_none() {
                return Some(w);
            }
        }
        // LRU among non-pending ways.
        let victim = (0..self.cfg.ways)
            .filter(|&w| {
                !self.lines[set * self.cfg.ways + w]
                    .as_ref()
                    .unwrap()
                    .pending
            })
            .min_by_key(|&w| {
                self.lines[set * self.cfg.ways + w]
                    .as_ref()
                    .unwrap()
                    .last_use
            })?;
        let line = self.lines[set * self.cfg.ways + victim].take().unwrap();
        self.stats.evictions += 1;
        if line.dirty != 0 {
            self.stats.writebacks += 1;
            self.mem_requests.push_back(LineRequest {
                line_addr: line.tag,
                kind: LineRequestKind::Writeback {
                    data: line.data,
                    valid: line.dirty,
                },
            });
        }
        Some(victim)
    }

    fn install_line(&mut self, set: usize, way: usize, line_addr: u32, pending: bool) {
        self.lines[set * self.cfg.ways + way] = Some(Line {
            tag: line_addr,
            data: vec![0; self.cfg.line_bytes as usize],
            valid: 0,
            dirty: 0,
            pending,
            last_use: self.cycle,
        });
    }

    /// Host/debug operation: invalidates every line, returning
    /// `(line_addr, data, dirty_mask)` for each dirty line so the caller
    /// can write the contents back to DRAM. Not timed; intended for
    /// post-run result readback.
    ///
    /// # Panics
    ///
    /// Panics if any miss is still outstanding (flush mid-run is invalid).
    pub fn flush_all(&mut self) -> Vec<(u32, Vec<u8>, u64)> {
        assert!(self.mshrs.is_empty(), "flush with outstanding misses");
        let mut dirty = Vec::new();
        for slot in &mut self.lines {
            if let Some(line) = slot.take() {
                if line.dirty != 0 {
                    dirty.push((line.tag, line.data, line.dirty));
                }
            }
        }
        dirty
    }

    /// Advances the bank one cycle: processes the front request, plus up
    /// to three more requests that fall in the *same cache line* (the SRAM
    /// reads a whole line per access, so compressed-load bursts complete
    /// together).
    pub fn tick(&mut self) {
        self.cycle += 1;

        if self.cfg.blocking && !self.mshrs.is_empty() {
            if !self.input.is_empty() {
                self.stats.blocked_cycles += 1;
            }
            return;
        }

        let Some(line) = self.process_front(false) else {
            return;
        };
        self.busy_cycles += 1;
        for _ in 0..3 {
            let same_line = self
                .input
                .front()
                .is_some_and(|r| self.line_addr(r.addr) == line);
            if !same_line || self.process_front(true).is_none() {
                break;
            }
        }
    }

    /// Tries to process the front input request; returns the line address
    /// on success. A failure with a request waiting is a blocked tick
    /// unless `quiet` (a burst continuation attempt); with none it is idle.
    fn process_front(&mut self, quiet: bool) -> Option<u32> {
        let &req = self.input.front()?;

        let line_addr = self.line_addr(req.addr);
        let needed = Self::byte_mask(req.addr, req.width, self.cfg.line_bytes);

        // An MSHR already chasing this line: merge as a secondary miss so
        // ordering against the fetch is preserved.
        if let Some(mi) = self.mshrs.iter().position(|m| m.line_addr == line_addr) {
            if self.mshrs[mi].waiting.len() < self.cfg.mshr_capacity {
                let req = self.input.pop_front().unwrap();
                self.mshrs[mi].waiting.push(req);
                self.stats.secondary_misses += 1;
                return Some(line_addr);
            }
            if !quiet {
                self.stats.rejected_mshr += 1;
                self.stats.blocked_cycles += 1;
            }
            return None;
        }

        if let Some(way) = self.find_way(line_addr) {
            let set = self.set_index(line_addr);
            let slot = set * self.cfg.ways + way;
            let line = self.lines[slot].as_ref().unwrap();
            let is_store = matches!(req.kind, AccessKind::Store);
            if is_store || (line.valid & needed) == needed {
                // Hit (stores always hit an installed line: they validate).
                let req = self.input.pop_front().unwrap();
                self.stats.hits += 1;
                let resp = self.perform(slot, req);
                self.responses
                    .push_back((self.cycle + self.cfg.hit_latency, resp));
                return Some(line_addr);
            }
            // Present but requested bytes invalid (write-validate hole):
            // fetch and merge.
            if self.mshrs.len() >= self.cfg.mshrs {
                if !quiet {
                    self.stats.rejected_mshr += 1;
                    self.stats.blocked_cycles += 1;
                }
                return None;
            }
            let req = self.input.pop_front().unwrap();
            self.stats.misses += 1;
            self.lines[slot].as_mut().unwrap().pending = true;
            self.mshrs.push(Mshr {
                line_addr,
                waiting: vec![req],
            });
            self.mem_requests.push_back(LineRequest {
                line_addr,
                kind: LineRequestKind::Fetch,
            });
            return Some(line_addr);
        }

        // Full miss.
        let is_store = matches!(req.kind, AccessKind::Store);
        if is_store && self.cfg.write_validate {
            // Write-validate: allocate without fetching.
            let set = self.set_index(line_addr);
            let Some(way) = self.allocate_way(set) else {
                if !quiet {
                    self.stats.blocked_cycles += 1;
                }
                return None;
            };
            let req = self.input.pop_front().unwrap();
            self.install_line(set, way, line_addr, false);
            self.stats.write_validate_fills += 1;
            let slot = set * self.cfg.ways + way;
            let resp = self.perform(slot, req);
            self.responses
                .push_back((self.cycle + self.cfg.hit_latency, resp));
            return Some(line_addr);
        }

        // Fetch path (loads, AMOs, and stores without write-validate).
        if self.mshrs.len() >= self.cfg.mshrs {
            if !quiet {
                self.stats.rejected_mshr += 1;
                self.stats.blocked_cycles += 1;
            }
            return None;
        }
        let set = self.set_index(line_addr);
        let Some(way) = self.allocate_way(set) else {
            if !quiet {
                self.stats.blocked_cycles += 1;
            }
            return None;
        };
        let req = self.input.pop_front().unwrap();
        self.install_line(set, way, line_addr, true);
        self.stats.misses += 1;
        self.mshrs.push(Mshr {
            line_addr,
            waiting: vec![req],
        });
        self.mem_requests.push_back(LineRequest {
            line_addr,
            kind: LineRequestKind::Fetch,
        });
        Some(line_addr)
    }

    /// After a restore: every decoded line image has this bank's line size.
    fn check_line_sizes(&mut self) -> Result<(), hb_mem::SnapError> {
        let line_bytes = self.cfg.line_bytes as usize;
        if (self.lines.iter().flatten()).any(|l| l.data.len() != line_bytes) {
            return Err(hb_mem::SnapError::Bad("CacheBank line size mismatch"));
        }
        let short_writeback = |m: &LineRequest| match &m.kind {
            LineRequestKind::Fetch => false,
            LineRequestKind::Writeback { data, .. } => data.len() != line_bytes,
        };
        if self.mem_requests.iter().any(short_writeback) {
            return Err(hb_mem::SnapError::Bad("CacheBank writeback size mismatch"));
        }
        Ok(())
    }
}

/// Snapshot codec of [`AmoOp`] — `hb-isa` sits below the codec, so its
/// types cannot implement `Snap` themselves — as an index in declaration
/// order. Named as `op [amo_op]` in a `snap_enum!` list.
pub mod amo_op {
    use hb_isa::AmoOp;
    use hb_mem::{SnapError, SnapReader, SnapWriter};

    const ALL: [AmoOp; 9] = [
        AmoOp::Swap,
        AmoOp::Add,
        AmoOp::Xor,
        AmoOp::And,
        AmoOp::Or,
        AmoOp::Min,
        AmoOp::Max,
        AmoOp::Minu,
        AmoOp::Maxu,
    ];

    /// Appends the op's index.
    pub fn save(op: &AmoOp, w: &mut SnapWriter) {
        w.u8(ALL
            .iter()
            .position(|o| o == op)
            .expect("ALL lists every AmoOp") as u8);
    }

    /// Decodes an op index.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation or an index past the last op.
    pub fn load(r: &mut SnapReader) -> Result<AmoOp, SnapError> {
        (ALL.get(usize::from(r.u8()?)).copied()).ok_or(SnapError::Bad("unknown AMO op tag"))
    }
}

hb_mem::snap_enum!(AccessKind, "CacheRequest kind out of range" {
    0 => Load,
    1 => Store,
    2 => Amo(op [amo_op]),
});
hb_mem::snap_value!(CacheRequest {
    id,
    addr,
    kind,
    data,
    width
});
hb_mem::snap_value!(CacheResponse { id, data });
hb_mem::snap_enum!(LineRequestKind, "CacheBank line-request kind out of range" {
    0 => Fetch,
    1 => Writeback { data, valid },
});
hb_mem::snap_value!(LineRequest { line_addr, kind });
hb_mem::snap_value!(CacheStats {
    hits,
    misses,
    secondary_misses,
    write_validate_fills,
    evictions,
    writebacks,
    rejected_input,
    rejected_mshr,
    amos,
    blocked_cycles;
    derived idle_cycles
});
hb_mem::snap_value!(Line {
    tag,
    data,
    valid,
    dirty,
    pending,
    last_use
});
hb_mem::snap_value!(Mshr { line_addr, waiting });
hb_mem::snap_state!(CacheBank [b"BANK"] {
    save: mshrs, input, responses, mem_requests, busy_cycles, stats;
    fixed: lines;
    host: cfg, cycle;
} check check_line_sizes);

#[cfg(test)]
mod tests {
    use super::*;

    fn load(id: u64, addr: u32) -> CacheRequest {
        CacheRequest {
            id,
            addr,
            kind: AccessKind::Load,
            data: 0,
            width: 4,
        }
    }

    fn store(id: u64, addr: u32, data: u32) -> CacheRequest {
        CacheRequest {
            id,
            addr,
            kind: AccessKind::Store,
            data,
            width: 4,
        }
    }

    /// Drives the bank with a perfect zero-latency memory behind it.
    fn run_with_memory(
        bank: &mut CacheBank,
        backing: &mut [u8],
        cycles: u64,
    ) -> Vec<CacheResponse> {
        let mut out = Vec::new();
        for _ in 0..cycles {
            bank.tick();
            while let Some(mreq) = bank.pop_mem_request() {
                match mreq.kind {
                    LineRequestKind::Fetch => {
                        let a = mreq.line_addr as usize;
                        let line = backing[a..a + 64].to_vec();
                        bank.complete_fetch(mreq.line_addr, &line);
                    }
                    LineRequestKind::Writeback { data, valid } => {
                        let a = mreq.line_addr as usize;
                        for i in 0..64 {
                            if valid & (1 << i) != 0 {
                                backing[a + i] = data[i];
                            }
                        }
                    }
                }
            }
            while let Some(r) = bank.pop_response() {
                out.push(r);
            }
        }
        out
    }

    #[test]
    fn read_miss_fetches_and_returns_memory_data() {
        let mut bank = CacheBank::new(CacheConfig::default());
        let mut mem = vec![0u8; 4096];
        mem[0x100..0x104].copy_from_slice(&0xabcd_1234u32.to_le_bytes());
        assert!(bank.try_accept(load(1, 0x100)));
        let rs = run_with_memory(&mut bank, &mut mem, 20);
        assert_eq!(
            rs,
            vec![CacheResponse {
                id: 1,
                data: 0xabcd_1234
            }]
        );
        assert_eq!(bank.stats().misses, 1);
    }

    #[test]
    fn second_read_hits() {
        let mut bank = CacheBank::new(CacheConfig::default());
        let mut mem = vec![0u8; 4096];
        bank.try_accept(load(1, 0x100));
        run_with_memory(&mut bank, &mut mem, 20);
        bank.try_accept(load(2, 0x104)); // same line
        run_with_memory(&mut bank, &mut mem, 20);
        assert_eq!(bank.stats().hits, 1);
        assert_eq!(bank.stats().misses, 1);
    }

    #[test]
    fn write_validate_store_miss_generates_no_fetch() {
        let mut bank = CacheBank::new(CacheConfig::default());
        bank.try_accept(store(1, 0x200, 7));
        bank.tick();
        assert!(
            bank.pop_mem_request().is_none(),
            "write-validate must not fetch"
        );
        assert_eq!(bank.stats().write_validate_fills, 1);
    }

    #[test]
    fn write_allocate_store_miss_fetches() {
        let cfg = CacheConfig {
            write_validate: false,
            ..CacheConfig::default()
        };
        let mut bank = CacheBank::new(cfg);
        bank.try_accept(store(1, 0x200, 7));
        bank.tick();
        assert!(matches!(
            bank.pop_mem_request(),
            Some(LineRequest {
                kind: LineRequestKind::Fetch,
                ..
            })
        ));
    }

    #[test]
    fn write_validate_hole_read_fetches_and_merges() {
        let mut bank = CacheBank::new(CacheConfig::default());
        let mut mem = vec![0u8; 4096];
        mem[0x204..0x208].copy_from_slice(&99u32.to_le_bytes());
        // Store word 0 of line 0x200 (no fetch), then load word 1.
        bank.try_accept(store(1, 0x200, 0x5555));
        run_with_memory(&mut bank, &mut mem, 10);
        bank.try_accept(load(2, 0x204));
        let rs = run_with_memory(&mut bank, &mut mem, 20);
        assert_eq!(rs, vec![CacheResponse { id: 2, data: 99 }]);
        // And the stored word is still there.
        bank.try_accept(load(3, 0x200));
        let rs = run_with_memory(&mut bank, &mut mem, 20);
        assert_eq!(
            rs,
            vec![CacheResponse {
                id: 3,
                data: 0x5555
            }]
        );
    }

    #[test]
    fn eviction_writes_back_only_dirty_bytes() {
        let cfg = CacheConfig {
            sets: 1,
            ways: 1,
            ..CacheConfig::default()
        };
        let mut bank = CacheBank::new(cfg);
        let mut mem = vec![0u8; 1 << 20];
        // Prefill memory under the line we'll partially overwrite.
        mem[0x0..0x4].copy_from_slice(&111u32.to_le_bytes());
        mem[0x4..0x8].copy_from_slice(&222u32.to_le_bytes());
        // Store only word 1 of line 0 (write-validate, no fetch).
        bank.try_accept(store(1, 0x4, 999));
        run_with_memory(&mut bank, &mut mem, 10);
        // Touch a conflicting line to force eviction (same set: sets=1).
        bank.try_accept(load(2, 0x4000));
        run_with_memory(&mut bank, &mut mem, 30);
        // Word 0 must be untouched, word 1 updated.
        assert_eq!(u32::from_le_bytes(mem[0..4].try_into().unwrap()), 111);
        assert_eq!(u32::from_le_bytes(mem[4..8].try_into().unwrap()), 999);
        assert_eq!(bank.stats().writebacks, 1);
    }

    #[test]
    fn secondary_miss_merges_into_mshr() {
        let mut bank = CacheBank::new(CacheConfig::default());
        bank.try_accept(load(1, 0x300));
        bank.try_accept(load(2, 0x304)); // same line, while fetch pending
        bank.tick();
        bank.tick();
        assert_eq!(bank.stats().misses, 1);
        assert_eq!(bank.stats().secondary_misses, 1);
        // Only one fetch goes to memory.
        assert!(bank.pop_mem_request().is_some());
        assert!(bank.pop_mem_request().is_none());
        // Completion retires both.
        bank.complete_fetch(0x300, &[0u8; 64]);
        bank.tick();
        let mut got = Vec::new();
        while let Some(r) = bank.pop_response() {
            got.push(r.id);
        }
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn nonblocking_hits_proceed_under_miss() {
        let mut bank = CacheBank::new(CacheConfig::default());
        let mut mem = vec![0u8; 4096];
        // Warm a line.
        bank.try_accept(load(1, 0x100));
        run_with_memory(&mut bank, &mut mem, 20);
        // Outstanding miss (memory never answers)...
        bank.try_accept(load(2, 0x800));
        bank.tick();
        let _ = bank.pop_mem_request();
        // ...then a hit to the warm line: must complete while miss pending.
        bank.try_accept(load(3, 0x104));
        let mut hit_done = false;
        for _ in 0..10 {
            bank.tick();
            if let Some(r) = bank.pop_response() {
                assert_eq!(r.id, 3);
                hit_done = true;
            }
        }
        assert!(hit_done, "hit must proceed under an outstanding miss");
    }

    #[test]
    fn blocking_mode_stalls_hits_behind_miss() {
        let cfg = CacheConfig {
            blocking: true,
            ..CacheConfig::default()
        };
        let mut bank = CacheBank::new(cfg);
        let mut mem = vec![0u8; 4096];
        bank.try_accept(load(1, 0x100));
        run_with_memory(&mut bank, &mut mem, 20);
        bank.try_accept(load(2, 0x800));
        bank.tick();
        let _ = bank.pop_mem_request(); // swallow the fetch; miss stays outstanding
        bank.try_accept(load(3, 0x104));
        for _ in 0..10 {
            bank.tick();
        }
        assert!(
            bank.pop_response().is_none(),
            "blocking bank must stall the hit"
        );
        assert!(bank.stats().blocked_cycles > 0);
    }

    #[test]
    fn amo_returns_old_value_and_applies_op() {
        let mut bank = CacheBank::new(CacheConfig::default());
        let mut mem = vec![0u8; 4096];
        mem[0x40..0x44].copy_from_slice(&10u32.to_le_bytes());
        bank.try_accept(CacheRequest {
            id: 1,
            addr: 0x40,
            kind: AccessKind::Amo(AmoOp::Add),
            data: 5,
            width: 4,
        });
        let rs = run_with_memory(&mut bank, &mut mem, 20);
        assert_eq!(rs, vec![CacheResponse { id: 1, data: 10 }]);
        bank.try_accept(load(2, 0x40));
        let rs = run_with_memory(&mut bank, &mut mem, 20);
        assert_eq!(rs[0].data, 15);
        assert_eq!(bank.stats().amos, 1);
    }

    #[test]
    fn mshr_exhaustion_backpressures() {
        let cfg = CacheConfig {
            mshrs: 2,
            ..CacheConfig::default()
        };
        let mut bank = CacheBank::new(cfg);
        // Three distinct-line misses; memory never answers.
        bank.try_accept(load(1, 0x1000));
        bank.try_accept(load(2, 0x2000));
        bank.try_accept(load(3, 0x3000));
        for _ in 0..10 {
            bank.tick();
        }
        assert_eq!(bank.outstanding_misses(), 2);
        assert!(bank.stats().rejected_mshr > 0);
    }

    #[test]
    fn input_queue_backpressures() {
        let cfg = CacheConfig {
            input_depth: 2,
            ..CacheConfig::default()
        };
        let mut bank = CacheBank::new(cfg);
        assert!(bank.try_accept(load(1, 0x0)));
        assert!(bank.try_accept(load(2, 0x40)));
        assert!(!bank.try_accept(load(3, 0x80)));
        assert_eq!(bank.stats().rejected_input, 1);
    }

    #[test]
    fn byte_and_halfword_accesses() {
        let mut bank = CacheBank::new(CacheConfig::default());
        let mut mem = vec![0u8; 4096];
        bank.try_accept(CacheRequest {
            id: 1,
            addr: 0x10,
            kind: AccessKind::Store,
            data: 0xab,
            width: 1,
        });
        bank.try_accept(CacheRequest {
            id: 2,
            addr: 0x12,
            kind: AccessKind::Store,
            data: 0xbeef,
            width: 2,
        });
        run_with_memory(&mut bank, &mut mem, 10);
        bank.try_accept(CacheRequest {
            id: 3,
            addr: 0x10,
            kind: AccessKind::Load,
            data: 0,
            width: 1,
        });
        bank.try_accept(CacheRequest {
            id: 4,
            addr: 0x12,
            kind: AccessKind::Load,
            data: 0,
            width: 2,
        });
        let rs = run_with_memory(&mut bank, &mut mem, 10);
        assert_eq!(rs[0].data, 0xab);
        assert_eq!(rs[1].data, 0xbeef);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let cfg = CacheConfig {
            sets: 1,
            ways: 2,
            ..CacheConfig::default()
        };
        let mut bank = CacheBank::new(cfg);
        let mut mem = vec![0u8; 1 << 20];
        bank.try_accept(load(1, 0x0)); // way A
        run_with_memory(&mut bank, &mut mem, 20);
        bank.try_accept(load(2, 0x4000)); // way B
        run_with_memory(&mut bank, &mut mem, 20);
        bank.try_accept(load(3, 0x0)); // touch A (now most recent)
        run_with_memory(&mut bank, &mut mem, 20);
        bank.try_accept(load(4, 0x8000)); // must evict B
        run_with_memory(&mut bank, &mut mem, 20);
        bank.try_accept(load(5, 0x0)); // A should still be resident: hit
        run_with_memory(&mut bank, &mut mem, 20);
        assert_eq!(bank.stats().hits, 2); // loads 3 and 5
    }
}
