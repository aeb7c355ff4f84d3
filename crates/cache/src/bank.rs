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

/// The counters a tick records when it can do nothing else, each 0 or 1
/// (see [`CacheBank::stall`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stall {
    /// `rejected_input`: the owner's feed finds `input` full.
    pub rejected_input: bool,
    /// `rejected_mshr`: the front request waits on an MSHR.
    pub rejected_mshr: bool,
    /// `blocked_cycles`: the front request waits on a fetch.
    pub blocked: bool,
}

impl CacheStats {
    /// Adds what `ticks` ticks recording `stall` each record.
    fn credit(&mut self, stall: Stall, ticks: u64) {
        self.rejected_input += u64::from(stall.rejected_input) * ticks;
        self.rejected_mshr += u64::from(stall.rejected_mshr) * ticks;
        self.blocked_cycles += u64::from(stall.blocked) * ticks;
    }

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

/// What the front request of the input queue does on a tick: the one copy
/// of the bank's hit, MSHR, way-allocation and write-validate rules.
/// [`CacheBank::tick`] applies it; [`CacheBank::stall`] reads it.
#[derive(Debug, Clone, Copy)]
enum Front {
    /// No request queued.
    Idle,
    /// Served from the installed line in this slot (a store always is: it
    /// validates what it writes).
    Hit(usize),
    /// Joins the MSHR at this index as a secondary miss.
    Merge(usize),
    /// A primary miss: an MSHR and a fetch into `way` of `set`, where the
    /// line is installed with the requested bytes invalid (a write-validate
    /// hole) or `way` is the victim.
    Fetch {
        set: usize,
        way: usize,
        installed: bool,
    },
    /// A write-validate store miss: `way` of `set` is allocated, no fetch.
    Validate { set: usize, way: usize },
    /// Waits for an MSHR: every one is busy, or its line's one is full.
    WaitMshr,
    /// Waits for a way: every one in its set is pending a fetch.
    WaitSet,
}

impl Front {
    /// What a tick records when the request cannot move (none is queued,
    /// or it waits), or `None` when it leaves the queue.
    fn stall(self) -> Option<Stall> {
        let waits = |rejected_mshr| Stall {
            rejected_mshr,
            blocked: true,
            ..Stall::default()
        };
        match self {
            Front::Idle => Some(Stall::default()),
            Front::WaitMshr => Some(waits(true)),
            Front::WaitSet => Some(waits(false)),
            Front::Hit(_) | Front::Merge(_) | Front::Fetch { .. } | Front::Validate { .. } => None,
        }
    }
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
    /// that skips ticks ([`set_clock`](Self::set_clock)).
    cycle: u64,
    /// Ticks that processed a request.
    busy_cycles: u64,
    /// Every counter but `idle_cycles`, which is derived.
    stats: CacheStats,
    /// What each tick an owner skips records, until the next tick (see
    /// [`sleep`](Self::sleep)): nothing, unless the bank sleeps on a stall.
    skipped: Stall,
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
            skipped: Stall::default(),
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
    /// ticks an owner skipped recorded what [`sleep`](Self::sleep) said, and
    /// were idle but for that. (Saturating: a restored snapshot's counters
    /// are not checked against the clock.)
    pub fn stats_at(&self, clock: u64) -> CacheStats {
        let stats = self.counters_at(clock);
        let ticked = self.busy_cycles.saturating_add(stats.blocked_cycles);
        CacheStats {
            idle_cycles: clock.saturating_sub(ticked),
            ..stats
        }
    }

    /// Brings the bank's clock, which is not part of its snapshot, up to
    /// `cycle`: the ticks an owner skipped in between are credited with
    /// what each would have recorded. An owner may skip any tick that
    /// [`stall`](Self::stall) says can only record a stall, once it has
    /// told the bank so with [`sleep`](Self::sleep); a tick with nothing
    /// queued records nothing.
    pub fn set_clock(&mut self, cycle: u64) {
        self.stats = self.counters_at(cycle);
        self.cycle = cycle;
    }

    /// The counted statistics once the clock is brought up to `clock`.
    fn counters_at(&self, clock: u64) -> CacheStats {
        let mut stats = self.stats;
        stats.credit(self.skipped, clock.saturating_sub(self.cycle));
        stats
    }

    /// Until the next [`tick`](Self::tick), each tick the owner skips
    /// records `stall` — what [`stall`](Self::stall) said, plus the
    /// owner's own `rejected_input`.
    pub fn sleep(&mut self, stall: Stall) {
        self.skipped = stall;
    }

    /// What a tick would record if it can do nothing else — no response in
    /// the pipeline, and no request queued or the front one waiting on a
    /// fetch — or `None` if it could do more. Only a new request and
    /// [`complete_fetch`](Self::complete_fetch) change a `Some`.
    pub fn stall(&self) -> Option<Stall> {
        if !self.responses.is_empty() {
            return None;
        }
        self.miss_blocks().or_else(|| self.front().stall())
    }

    /// What a blocking bank's tick records while a miss is outstanding: it
    /// processes nothing, and is blocked if a request waits.
    fn miss_blocks(&self) -> Option<Stall> {
        (self.cfg.blocking && !self.mshrs.is_empty()).then(|| Stall {
            blocked: !self.input.is_empty(),
            ..Stall::default()
        })
    }

    /// The snapshot [`save_state`](hb_mem::SnapState::save_state) writes
    /// once the clock is brought up to `clock`: the skipped ticks'
    /// counters credited, at their place in the stream.
    pub fn save_state_at(&self, clock: u64, w: &mut hb_mem::SnapWriter) {
        use hb_mem::Snap;
        w.tag(b"BANK");
        self.mshrs.save(w);
        self.input.save(w);
        self.responses.save(w);
        self.mem_requests.save(w);
        self.busy_cycles.save(w);
        self.counters_at(clock).save(w);
        hb_mem::snap::save_fixed(&self.lines[..], w);
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

    /// The way of `set` an allocation takes: a free one first, else the
    /// least recently used of those not pending a fetch; `None` if every
    /// way is pending.
    fn victim(&self, set: usize) -> Option<usize> {
        let ways = &self.lines[set * self.cfg.ways..][..self.cfg.ways];
        if let Some(free) = ways.iter().position(Option::is_none) {
            return Some(free);
        }
        let line = |w: usize| ways[w].as_ref().unwrap();
        (0..ways.len())
            .filter(|&w| !line(w).pending)
            .min_by_key(|&w| line(w).last_use)
    }

    /// Empties `slot`, writing its line back if dirty.
    fn evict(&mut self, slot: usize) {
        let Some(line) = self.lines[slot].take() else {
            return;
        };
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
        self.skipped = Stall::default();
        if let Some(stall) = self.miss_blocks() {
            self.stats.credit(stall, 1);
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

    /// Classifies the front input request (see [`Front`]). Inlined into
    /// both readers: left a call, it costs the hit path a fifth of its
    /// speed.
    #[inline(always)]
    fn front(&self) -> Front {
        let Some(req) = self.input.front() else {
            return Front::Idle;
        };
        let line_addr = self.line_addr(req.addr);
        // An MSHR already chasing this line: merge as a secondary miss so
        // ordering against the fetch is preserved.
        if let Some(mi) = self.mshrs.iter().position(|m| m.line_addr == line_addr) {
            if self.mshrs[mi].waiting.len() < self.cfg.mshr_capacity {
                return Front::Merge(mi);
            }
            return Front::WaitMshr;
        }
        let set = self.set_index(line_addr);
        let mshr_free = self.mshrs.len() < self.cfg.mshrs;
        let is_store = matches!(req.kind, AccessKind::Store);
        if let Some(way) = self.find_way(line_addr) {
            let slot = set * self.cfg.ways + way;
            let needed = Self::byte_mask(req.addr, req.width, self.cfg.line_bytes);
            let line = self.lines[slot].as_ref().unwrap();
            if is_store || (line.valid & needed) == needed {
                return Front::Hit(slot);
            }
            // Present but requested bytes invalid (write-validate hole):
            // fetch and merge.
            if !mshr_free {
                return Front::WaitMshr;
            }
            return Front::Fetch {
                set,
                way,
                installed: true,
            };
        }
        // Full miss: write-validate allocates without fetching; loads, AMOs
        // and stores without write-validate fetch.
        let validate = is_store && self.cfg.write_validate;
        if !(validate || mshr_free) {
            return Front::WaitMshr;
        }
        match self.victim(set) {
            None => Front::WaitSet,
            Some(way) if validate => Front::Validate { set, way },
            Some(way) => Front::Fetch {
                set,
                way,
                installed: false,
            },
        }
    }

    /// Applies the front request's [`Front`]; returns its line address if
    /// the request left the queue. A request that cannot move records its
    /// stall unless `quiet` (a burst continuation attempt).
    fn process_front(&mut self, quiet: bool) -> Option<u32> {
        let front = self.front();
        if let Some(stall) = front.stall() {
            if !quiet {
                self.stats.credit(stall, 1);
            }
            return None;
        }
        let req = self.input.pop_front().unwrap();
        let line_addr = self.line_addr(req.addr);
        match front {
            Front::Hit(slot) => {
                self.stats.hits += 1;
                let resp = self.perform(slot, req);
                self.responses
                    .push_back((self.cycle + self.cfg.hit_latency, resp));
            }
            Front::Merge(mi) => {
                self.mshrs[mi].waiting.push(req);
                self.stats.secondary_misses += 1;
            }
            Front::Fetch {
                set,
                way,
                installed,
            } => {
                let slot = set * self.cfg.ways + way;
                if installed {
                    self.lines[slot].as_mut().unwrap().pending = true;
                } else {
                    self.evict(slot);
                    self.install_line(set, way, line_addr, true);
                }
                self.stats.misses += 1;
                self.mshrs.push(Mshr {
                    line_addr,
                    waiting: vec![req],
                });
                self.mem_requests.push_back(LineRequest {
                    line_addr,
                    kind: LineRequestKind::Fetch,
                });
            }
            Front::Validate { set, way } => {
                self.evict(set * self.cfg.ways + way);
                self.install_line(set, way, line_addr, false);
                self.stats.write_validate_fills += 1;
                let resp = self.perform(set * self.cfg.ways + way, req);
                self.responses
                    .push_back((self.cycle + self.cfg.hit_latency, resp));
            }
            Front::Idle | Front::WaitMshr | Front::WaitSet => unreachable!("a stall moves nothing"),
        }
        Some(line_addr)
    }

    /// After a restore: every decoded line image has this bank's line size,
    /// and the bank is awake (a skipped tick records nothing; the owner
    /// sets the clock).
    fn check_restored(&mut self) -> Result<(), hb_mem::SnapError> {
        self.skipped = Stall::default();
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
    host: cfg, cycle, skipped;
} check check_restored);

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

    /// A bank in a seeded random state: requests to six lines competing for
    /// two 2-way sets, ticks, fetches completed out of order, responses
    /// popped — under the policy knobs a stall depends on.
    fn random_bank(rng: &mut hb_rng::Rng) -> CacheBank {
        let cfg = CacheConfig {
            sets: 2,
            ways: 2,
            bank_shift: 0,
            mshrs: *rng.pick(&[1, 2, 8]),
            mshr_capacity: *rng.pick(&[1, 4]),
            write_validate: rng.chance(0.5),
            blocking: rng.chance(0.3),
            ..CacheConfig::default()
        };
        let mut bank = CacheBank::new(cfg);
        let mut fetching = Vec::new();
        for id in 0..rng.below(80) {
            match rng.below(8) {
                0..=3 => {
                    let addr = (rng.range_u32(0, 6) << 6) | (rng.range_u32(0, 16) << 2);
                    let kind = *rng.pick(&[
                        AccessKind::Load,
                        AccessKind::Store,
                        AccessKind::Amo(AmoOp::Add),
                    ]);
                    let data = rng.next_u32();
                    let width = 4;
                    bank.try_accept(CacheRequest {
                        id,
                        addr,
                        kind,
                        data,
                        width,
                    });
                }
                4 | 5 => bank.tick(),
                6 => {
                    if let Some(LineRequest {
                        line_addr,
                        kind: LineRequestKind::Fetch,
                    }) = bank.pop_mem_request()
                    {
                        fetching.push(line_addr);
                    }
                }
                _ if !fetching.is_empty() => {
                    let line = fetching.swap_remove(rng.index(fetching.len()));
                    bank.complete_fetch(line, &[rng.next_u32() as u8; 64]);
                }
                _ => while bank.pop_response().is_some() {},
            }
        }
        bank
    }

    /// A copy through the snapshot, awake, on the same clock.
    fn copy(bank: &CacheBank) -> CacheBank {
        use hb_mem::{SnapReader, SnapState, SnapWriter};
        let mut w = SnapWriter::new();
        bank.save_state(&mut w);
        let mut copy = CacheBank::new(bank.cfg);
        copy.load_state(&mut SnapReader::new(&w.into_bytes()))
            .unwrap();
        copy.set_clock(bank.cycle);
        copy
    }

    fn saved_at(bank: &CacheBank, clock: u64) -> Vec<u8> {
        let mut w = hb_mem::SnapWriter::new();
        bank.save_state_at(clock, &mut w);
        w.into_bytes()
    }

    /// The sleep predicate and the tick agree. Where [`CacheBank::stall`]
    /// predicts a stall, each of three real ticks (each followed by the
    /// owner's pop of the responses due) changes exactly the predicted
    /// counters and nothing else: its snapshot equals the sleeping copy's
    /// settled one. Where it does not, no stall reproduces
    /// the tick, unless a response is still in the pipeline (the
    /// predicate's one conservative case).
    #[test]
    fn a_predicted_stall_is_exactly_what_a_tick_records() {
        let stalls: Vec<Stall> = (0..4)
            .map(|k| Stall {
                rejected_mshr: k & 1 != 0,
                blocked: k & 2 != 0,
                ..Stall::default()
            })
            .collect();
        let (mut slept, mut kinds) = (0, [false; 3]);
        for seed in 0..3000 {
            let mut rng = hb_rng::Rng::seed_from_u64(seed);
            let bank = random_bank(&mut rng);
            let at = bank.cycle;
            // A tick is the bank's and its owner's, who pops what it answered.
            let tick = |bank: &mut CacheBank| {
                bank.tick();
                while bank.pop_response().is_some() {}
            };
            let mut ticked = copy(&bank);
            tick(&mut ticked);
            let after = saved_at(&ticked, ticked.cycle);
            let Some(stall) = bank.stall() else {
                let sleeps = |&s: &Stall| {
                    let mut sleeper = copy(&bank);
                    sleeper.sleep(s);
                    saved_at(&sleeper, at + 1) == after
                };
                assert!(
                    !bank.responses.is_empty() || !stalls.iter().any(sleeps),
                    "seed {seed}: a stall the predicate missed"
                );
                continue;
            };
            assert!(!stall.rejected_input, "seed {seed}: the bank has no feed");
            let mut sleeper = copy(&bank);
            sleeper.sleep(stall);
            for k in 1..=3 {
                if k > 1 {
                    tick(&mut ticked);
                }
                let settled = saved_at(&sleeper, at + k);
                assert!(
                    saved_at(&ticked, at + k) == settled,
                    "seed {seed}, tick {k}: {stall:?} is not what the tick did"
                );
                assert_eq!(ticked.stats(), sleeper.stats_at(at + k), "seed {seed}");
            }
            slept += 1;
            kinds[usize::from(stall.rejected_mshr) + usize::from(stall.blocked)] = true;
        }
        // Idle, set-waiting and MSHR-waiting banks all came up, and so did
        // banks that could not sleep.
        assert!(kinds.iter().all(|&k| k), "{kinds:?}");
        assert!(slept > 300 && slept < 2700, "{slept} of 3000 slept");
    }

    /// The settled writer is the generated one when nothing is owed.
    #[test]
    fn an_awake_bank_saves_what_the_generated_writer_saves() {
        use hb_mem::{SnapState, SnapWriter};
        for seed in 0..200 {
            let bank = random_bank(&mut hb_rng::Rng::seed_from_u64(seed));
            let mut w = SnapWriter::new();
            bank.save_state(&mut w);
            assert!(
                w.into_bytes() == saved_at(&bank, bank.cycle + 5),
                "seed {seed}"
            );
        }
    }
}
