//! Cycle-level 2-D mesh / Half-Ruche network with dimension-ordered routing.

use hb_mem::{Snap, SnapError, SnapReader, SnapWriter, WorkSet};
use std::collections::VecDeque;

/// Number of router ports (local + 4 mesh + 2 Ruche).
const NPORTS: usize = 7;

/// Stride of a router in the port-granular worklists: member
/// `router * PORT_STRIDE + port`, so one router's ports are one
/// [`WorkSet::octet`] and an ascending walk is ascending `(router, port)`.
const PORT_STRIDE: usize = 8;

/// A network node coordinate. `x` grows eastward, `y` grows southward
/// (row 0 is the northern cache-bank strip in a HammerBlade Cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Column.
    pub x: u8,
    /// Row.
    pub y: u8,
}

impl Coord {
    /// Creates a coordinate.
    pub const fn new(x: u8, y: u8) -> Coord {
        Coord { x, y }
    }
}

impl std::fmt::Display for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// A router port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Port {
    /// Injection/ejection port to the attached tile or cache bank.
    Local = 0,
    /// Toward `y - 1`.
    North = 1,
    /// Toward `y + 1`.
    South = 2,
    /// Toward `x + 1`.
    East = 3,
    /// Toward `x - 1`.
    West = 4,
    /// Ruche link toward `x + ruche_factor`.
    RucheEast = 5,
    /// Ruche link toward `x - ruche_factor`.
    RucheWest = 6,
}

impl Port {
    /// Number of router ports.
    pub const COUNT: usize = NPORTS;

    const ALL: [Port; NPORTS] = [
        Port::Local,
        Port::North,
        Port::South,
        Port::East,
        Port::West,
        Port::RucheEast,
        Port::RucheWest,
    ];

    /// The port with discriminant `i % COUNT` (the inverse of `as usize`,
    /// made total so externally supplied indices — e.g. fault-plan draws —
    /// are always valid).
    pub fn from_index(i: usize) -> Port {
        Port::ALL[i % NPORTS]
    }
}

/// Dimension order used by the deterministic routing function.
///
/// The paper routes requests X→Y and responses Y→X, which maximizes
/// throughput given cache banks on the north/south edges of the Cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteOrder {
    /// Resolve the X offset first, then Y (request network).
    XThenY,
    /// Resolve the Y offset first, then X (response network).
    YThenX,
}

/// Static configuration of a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Columns.
    pub width: u8,
    /// Rows.
    pub height: u8,
    /// Horizontal Ruche link skip distance; 0 disables Ruche links.
    pub ruche_factor: u8,
    /// Dimension order of the routing function.
    pub order: RouteOrder,
    /// Input FIFO depth per port.
    pub fifo_depth: usize,
    /// Cycles a packet occupies a link (1 = full-width channels; 2 models
    /// half-width channels for baseline-router ablations).
    pub link_occupancy: u8,
}

impl NetworkConfig {
    /// A full-width mesh/Ruche configuration with the given shape.
    pub fn new(width: u8, height: u8, ruche_factor: u8, order: RouteOrder) -> NetworkConfig {
        NetworkConfig {
            width,
            height,
            ruche_factor,
            order,
            fifo_depth: 4,
            link_occupancy: 1,
        }
    }
}

/// A single-flit packet. HammerBlade networks carry one word-granularity
/// memory operation per packet; `payload` is the simulator-level content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet<P> {
    /// Injecting node.
    pub src: Coord,
    /// Destination node.
    pub dst: Coord,
    /// Carried operation.
    pub payload: P,
}

/// Per-link utilization counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Cycles a packet traversed the link.
    pub busy: u64,
    /// Cycles a packet was held at the link because the downstream buffer
    /// was full.
    pub stalled: u64,
    /// Packets that completed a traversal of the link. Unlike `busy`, which
    /// also counts serialization cycles on narrow links, this increments
    /// exactly once per delivered packet.
    pub flits: u64,
}

impl LinkStats {
    /// busy / (busy + stalled + idle) requires a cycle count; this is
    /// busy / elapsed.
    pub fn utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.busy as f64 / elapsed as f64
        }
    }

    /// Cycles the link carried no traffic at all, out of `elapsed`.
    pub fn idle(&self, elapsed: u64) -> u64 {
        elapsed.saturating_sub(self.busy + self.stalled)
    }
}

impl std::ops::Sub for LinkStats {
    type Output = LinkStats;

    fn sub(self, rhs: LinkStats) -> LinkStats {
        LinkStats {
            busy: self.busy - rhs.busy,
            stalled: self.stalled - rhs.stalled,
            flits: self.flits - rhs.flits,
        }
    }
}

impl std::ops::Add for LinkStats {
    type Output = LinkStats;

    fn add(self, rhs: LinkStats) -> LinkStats {
        LinkStats {
            busy: self.busy + rhs.busy,
            stalled: self.stalled + rhs.stalled,
            flits: self.flits + rhs.flits,
        }
    }
}

/// Network-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Packets injected at local ports.
    pub injected: u64,
    /// Packets ejected at local ports.
    pub ejected: u64,
    /// Flits replayed by the link-level ack/retransmit protocol after an
    /// injected corruption was detected.
    pub retransmits: u64,
}

/// Extra cycles a corrupted flit waits before its link-level replay: one
/// cycle for the corrupted transfer, one for the nack, one to re-arbitrate.
pub const RETRY_PENALTY: u64 = 3;

/// A completed link-level retransmit, drained for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitEvent {
    /// Cycle the corruption was detected (replay lands `RETRY_PENALTY`
    /// cycles later).
    pub cycle: u64,
    /// Router whose output link carried the corrupted flit.
    pub at: Coord,
    /// The output port.
    pub port: Port,
}

/// A packet as the fabric moves it: its handle in the network's packet slab,
/// its destination, and — while it waits in an input FIFO — the output port
/// it takes at that router, looked up once as it enters the FIFO. Input
/// FIFOs, output latches and ejection queues carry these 8 bytes; the
/// packet itself is written once by `inject` and read once by `eject`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    handle: u32,
    dst: Coord,
    port: u8,
}

impl Slot {
    const EMPTY: Slot = Slot {
        handle: 0,
        dst: Coord::new(0, 0),
        port: 0,
    };
}

/// Most packets a router input FIFO may be configured to hold. The FIFOs
/// are rings allocated up front (`fifo_depth` slots of 8 bytes per input
/// port), so the bound also bounds their memory: at 16, a 64x66-router
/// network's rings take 4.3 MiB.
pub const MAX_FIFO_DEPTH: usize = 16;

/// [`Block::dest`] of the output that ejects into the router's own node.
const TO_LOCAL: u32 = u32::MAX - 1;
/// [`Block::dest`] of an output with no link (a grid edge, Ruche off).
const NO_LINK: u32 = u32::MAX;

/// What a hop reads and writes of one router, in one place, indexed by
/// port: its input FIFOs' ring positions, its round-robin pointers, where
/// its output links land and its output latches. Lane 7 is padding, so an
/// index taken `% PORT_STRIDE` needs no bounds check. A latch's slot and
/// release cycle mean something only while `latched` names the latch.
#[derive(Debug, Clone)]
struct Block {
    /// Ring position of each input FIFO's head.
    head: [u8; PORT_STRIDE],
    /// Packets in each input FIFO.
    len: [u8; PORT_STRIDE],
    /// Round-robin pointer per output port.
    rr: [u8; PORT_STRIDE],
    /// Where each output link lands: the downstream input FIFO, as its
    /// worklist member `router * PORT_STRIDE + port`; [`TO_LOCAL`] or
    /// [`NO_LINK`].
    dest: [u32; PORT_STRIDE],
    /// The packet each output latch holds.
    latch: [Slot; PORT_STRIDE],
    /// The cycle each latched packet may leave its link (link_occupancy
    /// pacing, replay after a link fault).
    release: [u64; PORT_STRIDE],
}

/// The routing function as one table per axis, built by [`Network::new`]:
/// the port a packet at column (row) `a` takes toward column (row) `b`
/// along that axis is `x[a * width + b]` (`y[a * height + b]`), `Local`
/// where the two agree.
#[derive(Debug, Clone)]
struct Routes {
    x: Vec<u8>,
    y: Vec<u8>,
    width: usize,
    height: usize,
    order: RouteOrder,
}

impl Routes {
    fn new(cfg: &NetworkConfig) -> Routes {
        let (w, h) = (cfg.width, cfg.height);
        let axis = |n: u8, port: &dyn Fn(u8, u8) -> Port| {
            let pairs = (0..n).flat_map(|a| (0..n).map(move |b| (a, b)));
            pairs
                .map(|(a, b)| (if a == b { Port::Local } else { port(a, b) }) as u8)
                .collect()
        };
        Routes {
            x: axis(w, &|a, b| route_x(cfg, Coord::new(a, 0), Coord::new(b, 0))),
            y: axis(h, &|a, b| route_y(Coord::new(0, a), Coord::new(0, b))),
            width: w.into(),
            height: h.into(),
            order: cfg.order,
        }
    }

    /// [`route_of`] as two table loads; `at` and `dst` lie in the grid.
    #[inline]
    fn port(&self, at: Coord, dst: Coord) -> u8 {
        let x = self.x[usize::from(at.x) * self.width + usize::from(dst.x)];
        let y = self.y[usize::from(at.y) * self.height + usize::from(dst.y)];
        match self.order {
            RouteOrder::XThenY if x != Port::Local as u8 => x,
            RouteOrder::YThenX if y == Port::Local as u8 => x,
            _ => y,
        }
    }
}

/// Host-side work done by [`Network::tick`] since construction: the exact,
/// noise-free measure of what a cycle cost the simulator. Not simulated
/// state — never checkpointed, never part of [`NetworkStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickWork {
    /// Occupied output latches visited by the delivery phase (one per
    /// occupied latch per tick: the mean per tick is the mean number of
    /// latches holding a flit).
    pub latches: u64,
    /// Routers arbitrated (one per router with a non-empty input FIFO per
    /// tick).
    pub routers: u64,
}

/// A cycle-level single-flit-packet network: 2-D mesh plus optional
/// horizontal Ruche links, credit/latch flow control, round-robin output
/// arbitration and dimension-ordered routing.
///
/// A tick costs what is in flight, not what was built: it walks the
/// occupied output latches and the routers holding a queued packet, two
/// worklists kept exact by `inject`, delivery and arbitration (see
/// DESIGN.md, "Event-driven core").
#[derive(Debug, Clone)]
pub struct Network<P> {
    cfg: NetworkConfig,
    /// Router coordinates, row-major (fixed at build time).
    coords: Vec<Coord>,
    routes: Routes,
    blocks: Vec<Block>,
    /// Every input FIFO's slots: FIFO `router * PORT_STRIDE + port` owns
    /// the `fifo_depth` slots from `fifo * fifo_depth`, a ring whose head
    /// and length are in the router's block.
    ring: Vec<Slot>,
    link_stats: Vec<[LinkStats; NPORTS]>,
    eject_qs: Vec<VecDeque<Slot>>,
    /// The slab the slots point into: every packet between `inject` and
    /// `eject`, plus the handles `eject` freed for reuse. It grows to the
    /// most packets ever inside the network at once, never to the worst
    /// case. Host state: a checkpoint writes each packet where its slot
    /// sits, so handles are not in the stream.
    packets: Vec<Packet<P>>,
    free: Vec<u32>,
    /// Packets currently in router input FIFOs or output latches — the
    /// population [`tick`](Self::tick) can act on. Ejection queues are
    /// excluded: their draining is driven by the attached nodes, not by
    /// `tick`. Zero makes a tick a provable no-op (quiescence fast path).
    moving: usize,
    /// The occupied output latches, `router * PORT_STRIDE + port`: a latch
    /// holds a packet exactly while it is a member — while it serializes,
    /// while it is stalled on a full FIFO or ejection queue — because
    /// `busy`/`stalled` accrue per occupied-latch cycle.
    latched: WorkSet,
    /// Worklist: non-empty input FIFOs, `router * PORT_STRIDE + port`.
    queued: WorkSet,
    /// Worklist: routers whose ejection queue holds a delivery.
    ready: WorkSet,
    work: TickWork,
    stats: NetworkStats,
    cycle: u64,
    /// Scheduled link faults as `(cycle, router index, port)`: the first
    /// delivery attempt at or after `cycle` on that output link is
    /// corrupted, detected, and replayed. Empty on the zero-injection path.
    link_faults: Vec<(u64, usize, usize)>,
    retransmit_events: Vec<RetransmitEvent>,
}

/// Row-major coordinate of router `idx` in a grid `width` wide.
fn coord_of(cfg: &NetworkConfig, idx: usize) -> Coord {
    let w = cfg.width as usize;
    Coord::new((idx % w) as u8, (idx / w) as u8)
}

/// Where the output link of (`idx`, `port`) lands: `None` for the local
/// ejection queue or a nonexistent link. Evaluated once per link by
/// [`Network::new`]; a hop reads the table.
fn link_dest_of(cfg: &NetworkConfig, idx: usize, port: Port) -> Option<(u16, Port)> {
    let c = coord_of(cfg, idx);
    let rf = cfg.ruche_factor;
    let (w, h) = (cfg.width, cfg.height);
    let at = |x: u8, y: u8| (y as usize * w as usize + x as usize) as u16;
    match port {
        Port::Local => None,
        Port::North => (c.y > 0).then(|| (at(c.x, c.y - 1), Port::South)),
        Port::South => (c.y + 1 < h).then(|| (at(c.x, c.y + 1), Port::North)),
        Port::East => (c.x + 1 < w).then(|| (at(c.x + 1, c.y), Port::West)),
        Port::West => (c.x > 0).then(|| (at(c.x - 1, c.y), Port::East)),
        Port::RucheEast => (rf > 0 && u16::from(c.x) + u16::from(rf) < u16::from(w))
            .then(|| (at(c.x + rf, c.y), Port::RucheWest)),
        Port::RucheWest => (rf > 0 && c.x >= rf).then(|| (at(c.x - rf, c.y), Port::RucheEast)),
    }
}

/// The deterministic routing function: which output port a packet at `at`
/// destined for `dst` takes.
fn route_of(cfg: &NetworkConfig, at: Coord, dst: Coord) -> Port {
    match cfg.order {
        RouteOrder::XThenY => {
            if at.x != dst.x {
                route_x(cfg, at, dst)
            } else if at.y != dst.y {
                route_y(at, dst)
            } else {
                Port::Local
            }
        }
        RouteOrder::YThenX => {
            if at.y != dst.y {
                route_y(at, dst)
            } else if at.x != dst.x {
                route_x(cfg, at, dst)
            } else {
                Port::Local
            }
        }
    }
}

fn route_x(cfg: &NetworkConfig, at: Coord, dst: Coord) -> Port {
    let rf = cfg.ruche_factor;
    if dst.x > at.x {
        let dx = dst.x - at.x;
        if rf > 0 && dx >= rf && at.x + rf < cfg.width {
            Port::RucheEast
        } else {
            Port::East
        }
    } else {
        let dx = at.x - dst.x;
        if rf > 0 && dx >= rf && at.x >= rf {
            Port::RucheWest
        } else {
            Port::West
        }
    }
}

fn route_y(at: Coord, dst: Coord) -> Port {
    if dst.y > at.y {
        Port::South
    } else {
        Port::North
    }
}

/// Routers per `WorkSet` word of a port-granular worklist.
const ROUTERS_PER_WORD: usize = 64 / PORT_STRIDE;

impl<P: Clone + std::fmt::Debug> Network<P> {
    /// Builds a network of `width * height` routers.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the FIFO depth is outside
    /// `1..=`[`MAX_FIFO_DEPTH`].
    pub fn new(cfg: NetworkConfig) -> Network<P> {
        assert!(
            cfg.width > 0 && cfg.height > 0,
            "network dimensions must be nonzero"
        );
        assert!(
            (1..=MAX_FIFO_DEPTH).contains(&cfg.fifo_depth),
            "fifo depth must be 1..={MAX_FIFO_DEPTH}"
        );
        let n = cfg.width as usize * cfg.height as usize;
        let dest = |idx: usize, p: usize| match Port::ALL.get(p) {
            Some(&port) => match link_dest_of(&cfg, idx, port) {
                Some((d, dp)) => u32::from(d) * PORT_STRIDE as u32 + dp as u32,
                None if port == Port::Local => TO_LOCAL,
                None => NO_LINK,
            },
            None => NO_LINK,
        };
        Network {
            coords: (0..n).map(|idx| coord_of(&cfg, idx)).collect(),
            routes: Routes::new(&cfg),
            blocks: (0..n)
                .map(|idx| Block {
                    head: [0; PORT_STRIDE],
                    len: [0; PORT_STRIDE],
                    rr: [0; PORT_STRIDE],
                    dest: std::array::from_fn(|p| dest(idx, p)),
                    latch: [Slot::EMPTY; PORT_STRIDE],
                    release: [0; PORT_STRIDE],
                })
                .collect(),
            ring: vec![Slot::EMPTY; n * PORT_STRIDE * cfg.fifo_depth],
            cfg,
            link_stats: vec![[LinkStats::default(); NPORTS]; n],
            eject_qs: (0..n).map(|_| VecDeque::new()).collect(),
            packets: Vec::new(),
            free: Vec::new(),
            moving: 0,
            latched: WorkSet::new(n * PORT_STRIDE),
            queued: WorkSet::new(n * PORT_STRIDE),
            ready: WorkSet::new(n),
            work: TickWork::default(),
            stats: NetworkStats::default(),
            cycle: 0,
            link_faults: Vec::new(),
            retransmit_events: Vec::new(),
        }
    }

    /// Schedules a transient fault on the output link of (`at`, `port`):
    /// the first flit attempting to cross that link at or after `cycle` is
    /// corrupted in flight, caught by the link-level check, and replayed
    /// after [`RETRY_PENALTY`] cycles. A fault scheduled on a link that
    /// never carries traffic again stays armed and is architecturally
    /// masked. No packet is ever lost, so conservation holds.
    pub fn schedule_link_fault(&mut self, cycle: u64, at: Coord, port: Port) {
        let idx = self.idx(at);
        self.link_faults.push((cycle, idx, port as usize));
    }

    /// Drains retransmit events recorded since the last call.
    pub fn drain_retransmit_events(&mut self) -> Vec<RetransmitEvent> {
        std::mem::take(&mut self.retransmit_events)
    }

    /// Consumes an armed fault on (`idx`, `port`) whose cycle has come due,
    /// if any. Out of line: only reached when faults are scheduled.
    #[cold]
    fn take_due_fault(&mut self, idx: usize, port: usize) -> bool {
        let due = self
            .link_faults
            .iter()
            .position(|&(c, i, p)| c <= self.cycle && i == idx && p == port);
        match due {
            Some(at) => {
                self.link_faults.swap_remove(at);
                true
            }
            None => false,
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Injection/ejection totals.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    fn idx(&self, c: Coord) -> usize {
        c.y as usize * self.cfg.width as usize + c.x as usize
    }

    /// The deterministic routing function: which output port a packet at
    /// `at` destined for `dst` takes. A hop reads the same function from
    /// the tables [`new`](Self::new) builds of it.
    pub fn route_port(&self, at: Coord, dst: Coord) -> Port {
        route_of(&self.cfg, at, dst)
    }

    /// Injects a packet at its source node's local port. Returns `false`
    /// when the injection FIFO is full (the caller must retry).
    ///
    /// # Panics
    ///
    /// Panics if the destination lies outside the grid.
    pub fn inject(&mut self, at: Coord, pkt: Packet<P>) -> bool {
        if !self.can_inject(at) {
            return false;
        }
        assert!(
            pkt.dst.x < self.cfg.width && pkt.dst.y < self.cfg.height,
            "packet destination {} outside the grid",
            pkt.dst
        );
        let port = self.routes.port(at, pkt.dst);
        let slot = self.stow(pkt, port);
        self.push(self.idx(at) * PORT_STRIDE + Port::Local as usize, slot);
        self.moving += 1;
        self.stats.injected += 1;
        true
    }

    /// Whether node `at` can accept an injection this cycle.
    pub fn can_inject(&self, at: Coord) -> bool {
        let idx = self.idx(at);
        usize::from(self.blocks[idx].len[Port::Local as usize]) < self.cfg.fifo_depth
    }

    /// Pops a packet delivered to node `at`, if any.
    pub fn eject(&mut self, at: Coord) -> Option<Packet<P>> {
        let idx = self.idx(at);
        let slot = self.eject_qs[idx].pop_front()?;
        if self.eject_qs[idx].is_empty() {
            self.ready.remove(idx);
        }
        self.stats.ejected += 1;
        self.free.push(slot.handle);
        Some(self.packets[slot.handle as usize].clone())
    }

    /// The nodes holding a delivery [`eject`](Self::eject) would return, in
    /// row-major order — so the attached side visits the nodes with
    /// something to deliver instead of polling every node every cycle.
    pub fn ready_nodes(&self) -> impl Iterator<Item = Coord> + '_ {
        self.ready.iter().map(|idx| self.coords[idx])
    }

    /// [`ready_nodes`](Self::ready_nodes) less the members of `skip`, a set
    /// over [`node_index`](Self::node_index): the attached side leaves out
    /// the nodes that cannot take a delivery, a masked word at a time.
    pub fn ready_nodes_except<'a>(&'a self, skip: &'a WorkSet) -> impl Iterator<Item = Coord> + 'a {
        self.ready.iter_and_not(skip).map(|idx| self.coords[idx])
    }

    /// Number of nodes: the capacity of a set over
    /// [`node_index`](Self::node_index).
    pub fn nodes(&self) -> usize {
        self.coords.len()
    }

    /// The row-major index of node `c`.
    pub fn node_index(&self, c: Coord) -> usize {
        self.idx(c)
    }

    /// Host work done by [`tick`](Self::tick) so far.
    pub fn work(&self) -> TickWork {
        self.work
    }

    /// Packets currently inside the network: injected but not yet ejected,
    /// including those delivered to an ejection queue and waiting there for
    /// the attached node to [`eject`](Self::eject) them.
    pub fn in_flight(&self) -> u64 {
        debug_assert!(
            self.derived_state_is_exact(),
            "moving-packet counter or a worklist drifted from router state"
        );
        (self.moving + self.eject_qs.iter().map(VecDeque::len).sum::<usize>()) as u64
    }

    /// Whether the network holds no packets at all.
    pub fn is_drained(&self) -> bool {
        self.in_flight() == 0
    }

    /// Advances the network one cycle: deliver latched packets downstream,
    /// then arbitrate input FIFOs into output latches (so a packet moves at
    /// most one link per cycle).
    ///
    /// Kept out of line: a quiescent tick is then a call, an increment and a
    /// compare wherever it is made from — which is what the benchmark's
    /// `noc.idle_ticks_per_s` row times (inlined into that row's loop, 4096
    /// quiescent ticks fold into one addition and the row reads 1e11).
    #[inline(never)]
    pub fn tick(&mut self) {
        self.tick_worklists::<true, false>();
    }

    /// The one tick body. `REARBITRATE` is `true` and `REVISIT` `false`
    /// everywhere but in the lockstep test's deliberately broken twins (see
    /// `arbitrate`).
    #[inline]
    fn tick_worklists<const REARBITRATE: bool, const REVISIT: bool>(&mut self) {
        self.cycle += 1;
        // Quiescence fast path: with no packet in any input FIFO or output
        // latch both worklists are empty and no link counter can move
        // (busy/stalled/flits all require an occupied latch; armed link
        // faults only fire on a latched flit).
        if self.moving != 0 {
            self.advance::<REARBITRATE, REVISIT>();
        }
    }

    /// A tick of a network that holds a moving packet. Out of line, so the
    /// quiescent path above it saves no registers.
    ///
    /// Both phases walk a copy of one worklist word at a time, which is
    /// exact: phase A only removes `latched` members (a delivered latch) and
    /// adds none, and arbitrating a router only removes that router's own
    /// `queued` members and adds none.
    #[inline(never)]
    fn advance<const REARBITRATE: bool, const REVISIT: bool>(&mut self) {
        let faults_armed = !self.link_faults.is_empty();

        // Phase A: deliver output latches across links, in ascending
        // (router, port) order. The order is immaterial to the packets —
        // each input FIFO and each ejection queue is fed by exactly one
        // latch, and this phase pops no FIFO — but it is the order
        // retransmit events are logged and due faults consumed in.
        let mut wi = 0;
        while let Some(mut word) = self.latched.word(wi) {
            while word != 0 {
                let member = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.work.latches += 1;
                self.deliver(member, faults_armed);
            }
            wi += 1;
        }

        // Phase B: arbitrate input FIFO heads into free output latches, one
        // router with a queued packet at a time (a router touches only its
        // own FIFOs, latches and round-robin pointers). A latch delivered
        // in phase A is already free here.
        let mut wi = 0;
        while let Some(mut word) = self.queued.word(wi) {
            while word != 0 {
                let lane = word.trailing_zeros() as usize / PORT_STRIDE;
                let heads = (word >> (lane * PORT_STRIDE)) as u8;
                word &= !(0xff << (lane * PORT_STRIDE));
                self.work.routers += 1;
                self.arbitrate::<REARBITRATE, REVISIT>(wi * ROUTERS_PER_WORD + lane, heads);
            }
            wi += 1;
        }
    }

    /// Phase A for one occupied latch, `router * PORT_STRIDE + port`.
    #[inline]
    fn deliver(&mut self, member: usize, faults_armed: bool) {
        let (idx, p) = (member / PORT_STRIDE, member % PORT_STRIDE);
        if self.cycle < self.blocks[idx].release[p] {
            // Still serializing across a narrow link.
            self.link_stats[idx][p].busy += 1;
            return;
        }
        if faults_armed && self.take_due_fault(idx, p) {
            // The flit is corrupted in flight; the downstream link check
            // nacks it and the sender holds it latched for a bounded replay.
            self.blocks[idx].release[p] = self.cycle + RETRY_PENALTY;
            self.stats.retransmits += 1;
            self.link_stats[idx][p].busy += 1;
            self.retransmit_events.push(RetransmitEvent {
                cycle: self.cycle,
                at: self.coords[idx],
                port: Port::ALL[p],
            });
            return;
        }
        let (slot, dest) = (self.blocks[idx].latch[p], self.blocks[idx].dest[p]);
        let accepted = if dest == TO_LOCAL {
            // Ejection queues are consumed by the attached node every
            // cycle; bound them generously.
            let room = self.eject_qs[idx].len() < self.eject_cap();
            if room {
                self.eject_qs[idx].push_back(slot);
                self.ready.insert(idx);
                self.moving -= 1;
            }
            room
        } else {
            debug_assert_ne!(dest, NO_LINK, "packet latched on nonexistent link");
            let fifo = dest as usize;
            let (didx, dp) = (fifo / PORT_STRIDE, fifo % PORT_STRIDE);
            let room = usize::from(self.blocks[didx].len[dp]) < self.cfg.fifo_depth;
            if room {
                let port = self.routes.port(self.coords[didx], slot.dst);
                self.push(fifo, Slot { port, ..slot });
            }
            room
        };
        if accepted {
            self.latched.remove(member);
            self.link_stats[idx][p].busy += 1;
            self.link_stats[idx][p].flits += 1;
        } else {
            self.link_stats[idx][p].stalled += 1;
        }
    }

    /// Phase B for one router whose non-empty input FIFOs are `heads`: every
    /// free output wanted by a head, in port order, takes the first input at
    /// or after its round-robin pointer whose head routes to it. The heads'
    /// ports were looked up when they entered their FIFOs.
    ///
    /// A FIFO can issue twice in one tick: once input `i` is popped for
    /// output `o`, its *new* head competes for the free outputs after `o`,
    /// and only those. `REARBITRATE` off (the new head waits for the next
    /// tick) and `REVISIT` on (it may also take a free output before `o`)
    /// are the two mutations `worklist_tick_matches_the_reference_sweep`
    /// catches.
    #[inline]
    fn arbitrate<const REARBITRATE: bool, const REVISIT: bool>(&mut self, idx: usize, heads: u8) {
        let depth = self.cfg.fifo_depth;
        let base = idx * PORT_STRIDE;
        let block = &mut self.blocks[idx];
        // wants[o]: the inputs whose head routes to output `o`.
        let mut wants = [0u8; PORT_STRIDE];
        let mut outputs = 0u8;
        let mut rest = heads;
        while rest != 0 {
            let inp = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let port = self.ring[(base + inp) * depth + usize::from(block.head[inp])].port;
            wants[usize::from(port) % PORT_STRIDE] |= 1 << inp;
            outputs |= 1 << port;
        }
        let free = !self.latched.octet(idx);
        let mut todo = outputs & free;
        let mut taken = 0u8;
        while todo != 0 {
            let o = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            // Round-robin: the first wanting input at or after the pointer,
            // else the lowest one.
            let from_rr = wants[o] >> block.rr[o] << block.rr[o];
            let pick = if from_rr != 0 { from_rr } else { wants[o] };
            let inp = pick.trailing_zeros() as usize % PORT_STRIDE;
            let fifo = base + inp;
            let head = usize::from(block.head[inp]);
            let slot = self.ring[fifo * depth + head];
            block.head[inp] = if head + 1 == depth { 0 } else { head as u8 + 1 };
            block.len[inp] -= 1;
            taken |= 1 << o;
            if block.len[inp] == 0 {
                self.queued.remove(fifo);
            } else if REARBITRATE {
                let next = self.ring[fifo * depth + usize::from(block.head[inp])].port;
                wants[usize::from(next) % PORT_STRIDE] |= 1 << inp;
                let open = if REVISIT { !taken } else { !((2u8 << o) - 1) };
                todo |= (1 << next) & free & open;
            }
            block.latch[o] = slot;
            block.release[o] = self.cycle + u64::from(self.cfg.link_occupancy);
            self.latched.insert(base + o);
            block.rr[o] = ((inp + 1) % NPORTS) as u8;
        }
    }

    /// Cumulative stats for the output link of (`at`, `port`).
    pub fn link_stats(&self, at: Coord, port: Port) -> LinkStats {
        self.link_stats[self.idx(at)][port as usize]
    }

    /// Cheap whole-network snapshot: cumulative counters summed over every
    /// output port of each router, indexed like the router array
    /// (row-major). One pass over the counter table, no allocation beyond
    /// the returned `Vec`; intended for periodic telemetry sampling.
    pub fn snapshot(&self) -> Vec<LinkStats> {
        self.link_stats
            .iter()
            .map(|ports| ports.iter().fold(LinkStats::default(), |acc, &s| acc + s))
            .collect()
    }

    /// Sum of stats over every eastward and westward link crossing the
    /// vertical cut between columns `x_boundary - 1` and `x_boundary`
    /// (mesh and Ruche links alike). This is the Cell-bisection measure of
    /// Figures 3 and 14.
    pub fn bisection_stats(&self, x_boundary: u8) -> LinkStats {
        let mut total = LinkStats::default();
        self.for_each_bisection_link(x_boundary, |idx, port| {
            total = total + self.link_stats[idx][port as usize];
        });
        total
    }

    /// Number of distinct links crossing the vertical cut at `x_boundary`
    /// (both directions). Useful to normalize bisection utilization.
    pub fn bisection_link_count(&self, x_boundary: u8) -> usize {
        let mut n = 0;
        self.for_each_bisection_link(x_boundary, |_, _| n += 1);
        n
    }

    fn for_each_bisection_link(&self, x_boundary: u8, mut f: impl FnMut(usize, Port)) {
        let rf = self.cfg.ruche_factor;
        for idx in 0..self.blocks.len() {
            let c = self.coords[idx];
            for port in [Port::East, Port::West, Port::RucheEast, Port::RucheWest] {
                if self.blocks[idx].dest[port as usize] == NO_LINK {
                    continue;
                }
                let crosses = match port {
                    Port::East => c.x + 1 == x_boundary,
                    Port::West => c.x == x_boundary,
                    Port::RucheEast => c.x < x_boundary && c.x + rf >= x_boundary,
                    Port::RucheWest => c.x >= x_boundary && c.x < x_boundary + rf,
                    _ => false,
                };
                if crosses {
                    f(idx, port);
                }
            }
        }
    }
}

impl<P> Network<P> {
    /// Most deliveries an ejection queue holds before its latch stalls.
    fn eject_cap(&self) -> usize {
        8 * self.cfg.fifo_depth
    }

    /// Appends `slot` to input FIFO `fifo`, which has room.
    #[inline]
    fn push(&mut self, fifo: usize, slot: Slot) {
        let depth = self.cfg.fifo_depth;
        let (idx, p) = (fifo / PORT_STRIDE, fifo % PORT_STRIDE);
        let block = &mut self.blocks[idx];
        let mut pos = usize::from(block.head[p]) + usize::from(block.len[p]);
        if pos >= depth {
            pos -= depth;
        }
        block.len[p] += 1;
        self.ring[fifo * depth + pos] = slot;
        self.queued.insert(fifo);
    }

    /// The slots of input FIFO `fifo`, head first.
    fn fifo_slots(&self, fifo: usize) -> impl Iterator<Item = Slot> + '_ {
        let depth = self.cfg.fifo_depth;
        let block = &self.blocks[fifo / PORT_STRIDE];
        let p = fifo % PORT_STRIDE;
        (0..usize::from(block.len[p]))
            .map(move |k| self.ring[fifo * depth + (usize::from(block.head[p]) + k) % depth])
    }

    /// `moving` and the `queued` and `ready` worklists, recounted from the
    /// FIFOs, latches and ejection queues they are derived from.
    fn derived(&self) -> (usize, WorkSet, WorkSet) {
        let n = self.blocks.len();
        let mut moving = self.latched.iter().count();
        let mut queued = WorkSet::new(n * PORT_STRIDE);
        let mut ready = WorkSet::new(n);
        for (idx, block) in self.blocks.iter().enumerate() {
            for p in 0..NPORTS {
                if block.len[p] > 0 {
                    queued.insert(idx * PORT_STRIDE + p);
                    moving += usize::from(block.len[p]);
                }
            }
            if !self.eject_qs[idx].is_empty() {
                ready.insert(idx);
            }
        }
        (moving, queued, ready)
    }

    /// Whether `moving` and the incrementally kept worklists equal a
    /// from-scratch recount, every latch sits on a link, and the slab holds
    /// exactly the packets the slots point to.
    fn derived_state_is_exact(&self) -> bool {
        let (moving, queued, ready) = self.derived();
        let ejectable: usize = self.eject_qs.iter().map(VecDeque::len).sum();
        let on_links = (self.latched.iter())
            .all(|m| self.blocks[m / PORT_STRIDE].dest[m % PORT_STRIDE] != NO_LINK);
        (moving, &queued, &ready) == (self.moving, &self.queued, &self.ready)
            && on_links
            && self.packets.len() - self.free.len() == moving + ejectable
    }

    /// Puts `pkt` in the slab, in a freed place if there is one, and
    /// returns its slot bound for output `port`.
    fn stow(&mut self, pkt: Packet<P>, port: u8) -> Slot {
        let dst = pkt.dst;
        let handle = match self.free.pop() {
            Some(handle) => {
                self.packets[handle as usize] = pkt;
                handle
            }
            None => {
                self.packets.push(pkt);
                u32::try_from(self.packets.len() - 1).expect("over 2^32 packets in flight")
            }
        };
        Slot { handle, dst, port }
    }

    /// After a restore: range-checks the decoded fault indices and
    /// recounts the derived state — `moving` and the worklists — from the
    /// FIFO, latch and ejection-queue population.
    fn check_restored(&mut self) -> Result<(), SnapError> {
        let n = self.blocks.len();
        if (self.link_faults.iter()).any(|&(_, idx, port)| idx >= n || port >= NPORTS) {
            return Err(SnapError::Bad("Network link fault out of range"));
        }
        (self.moving, self.queued, self.ready) = self.derived();
        Ok(())
    }
}

hb_mem::snap_value!(Coord { x, y });
hb_mem::snap_enum!(Port, "Network port out of range" {
    0 => Local,
    1 => North,
    2 => South,
    3 => East,
    4 => West,
    5 => RucheEast,
    6 => RucheWest,
});
hb_mem::snap_value!(Packet<P> { src, dst, payload });
hb_mem::snap_value!(LinkStats {
    busy,
    stalled,
    flits
});
hb_mem::snap_value!(NetworkStats {
    injected,
    ejected,
    retransmits
});
hb_mem::snap_value!(RetransmitEvent { cycle, at, port });
hb_mem::snap_state!(Network<P> [b"NET0"] {
    save: stats, cycle, link_faults, retransmit_events;
    host: cfg, coords, routes, blocks, ring, link_stats, eject_qs, packets, free, moving, latched,
        queued, ready, work;
} extra (save_fabric, load_fabric) check check_restored);

/// The packet containers, in the wire form they had when they held whole
/// packets, so a checkpoint does not depend on where the slab put them:
/// per router its seven input FIFOs (`u64` length, then the packets) and
/// round-robin pointers; per router its seven output latches (presence
/// byte, packet, release cycle); the link counters; per node its ejection
/// queue. Each sequence of routers is prefixed by the router count, which
/// must equal the live one.
impl<P: Snap> Network<P> {
    fn save_fabric(&self, w: &mut SnapWriter) {
        let packet = |s: Slot, w: &mut SnapWriter| self.packets[s.handle as usize].save(w);
        w.usize(self.blocks.len());
        for (idx, block) in self.blocks.iter().enumerate() {
            for p in 0..NPORTS {
                w.usize(usize::from(block.len[p]));
                (self.fifo_slots(idx * PORT_STRIDE + p)).for_each(|s| packet(s, w));
            }
            let rr: [usize; NPORTS] = std::array::from_fn(|p| usize::from(block.rr[p]));
            rr.save(w);
        }
        w.usize(self.blocks.len());
        for (idx, block) in self.blocks.iter().enumerate() {
            for p in 0..NPORTS {
                let present = self.latched.contains(idx * PORT_STRIDE + p);
                w.bool(present);
                if present {
                    packet(block.latch[p], w);
                    block.release[p].save(w);
                }
            }
        }
        hb_mem::snap::save_fixed(&self.link_stats, w);
        w.usize(self.eject_qs.len());
        for q in &self.eject_qs {
            w.usize(q.len());
            q.iter().for_each(|&s| packet(s, w));
        }
    }

    /// Re-slabs every packet as it is read, refusing what the network
    /// could not hold: a FIFO longer than its depth, an ejection queue
    /// longer than its bound, a latch on a missing link, a destination
    /// outside the grid.
    fn load_fabric(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let n = self.blocks.len();
        let routers = |r: &mut SnapReader, what| match r.usize()? == n {
            true => Ok(()),
            false => Err(SnapError::Bad(what)),
        };
        self.packets.clear();
        self.free.clear();
        self.latched.clear();
        routers(r, "Network.routers length mismatch")?;
        for idx in 0..n {
            for p in 0..NPORTS {
                let len = r.seq_len()?;
                if len > self.cfg.fifo_depth {
                    return Err(SnapError::Bad("Network input FIFO longer than its depth"));
                }
                (self.blocks[idx].head[p], self.blocks[idx].len[p]) = (0, 0);
                for _ in 0..len {
                    let pkt = self.load_packet(r)?;
                    let port = self.routes.port(self.coords[idx], pkt.dst);
                    let slot = self.stow(pkt, port);
                    self.push(idx * PORT_STRIDE + p, slot);
                }
            }
            let rr = <[usize; NPORTS]>::load(r)?;
            if rr.iter().any(|&v| v >= NPORTS) {
                return Err(SnapError::Bad("Network round-robin pointer out of range"));
            }
            for (p, v) in rr.into_iter().enumerate() {
                self.blocks[idx].rr[p] = v as u8;
            }
        }
        routers(r, "Network.latches length mismatch")?;
        for idx in 0..n {
            for p in 0..NPORTS {
                if !r.bool()? {
                    continue;
                }
                if self.blocks[idx].dest[p] == NO_LINK {
                    return Err(SnapError::Bad("Network packet latched on a missing link"));
                }
                let pkt = self.load_packet(r)?;
                let release = u64::load(r)?;
                let slot = self.stow(pkt, p as u8);
                (self.blocks[idx].latch[p], self.blocks[idx].release[p]) = (slot, release);
                self.latched.insert(idx * PORT_STRIDE + p);
            }
        }
        hb_mem::snap::load_fixed(
            &mut self.link_stats,
            r,
            "Network.link_stats length mismatch",
        )?;
        routers(r, "Network.eject_qs length mismatch")?;
        for idx in 0..n {
            let len = r.seq_len()?;
            if len > self.eject_cap() {
                return Err(SnapError::Bad(
                    "Network ejection queue longer than its bound",
                ));
            }
            let mut q = std::mem::take(&mut self.eject_qs[idx]);
            q.clear();
            for _ in 0..len {
                let pkt = self.load_packet(r)?;
                q.push_back(self.stow(pkt, Port::Local as u8));
            }
            self.eject_qs[idx] = q;
        }
        Ok(())
    }

    /// Reads one packet, refusing a destination outside the grid.
    fn load_packet(&self, r: &mut SnapReader) -> Result<Packet<P>, SnapError> {
        let pkt = Packet::<P>::load(r)?;
        if pkt.dst.x >= self.cfg.width || pkt.dst.y >= self.cfg.height {
            return Err(SnapError::Bad(
                "Network packet destination outside the grid",
            ));
        }
        Ok(pkt)
    }
}

/// The layout the router blocks replaced — per-router `VecDeque` input
/// FIFOs, `Option` output latches, a route computed per head per output —
/// kept as the reference network of `worklist_tick_matches_the_reference_sweep`.
#[cfg(test)]
#[derive(Debug, Clone)]
struct Reference<P> {
    cfg: NetworkConfig,
    routers: Vec<Router>,
    latches: Vec<[Option<(Slot, u64)>; NPORTS]>,
    link_stats: Vec<[LinkStats; NPORTS]>,
    eject_qs: Vec<VecDeque<Slot>>,
    packets: Vec<Packet<P>>,
    free: Vec<u32>,
    moving: usize,
    latched: WorkSet,
    queued: WorkSet,
    ready: WorkSet,
    stats: NetworkStats,
    cycle: u64,
    link_faults: Vec<(u64, usize, usize)>,
    retransmit_events: Vec<RetransmitEvent>,
}

#[cfg(test)]
#[derive(Debug, Clone)]
struct Router {
    inputs: [VecDeque<Slot>; NPORTS],
    /// Round-robin pointer per output port.
    rr: [usize; NPORTS],
}

#[cfg(test)]
impl<P: Clone + std::fmt::Debug> Reference<P> {
    fn new(cfg: NetworkConfig) -> Reference<P> {
        let n = cfg.width as usize * cfg.height as usize;
        Reference {
            cfg,
            routers: (0..n)
                .map(|_| Router {
                    inputs: std::array::from_fn(|_| VecDeque::new()),
                    rr: [0; NPORTS],
                })
                .collect(),
            latches: vec![[None; NPORTS]; n],
            link_stats: vec![[LinkStats::default(); NPORTS]; n],
            eject_qs: vec![VecDeque::new(); n],
            packets: Vec::new(),
            free: Vec::new(),
            moving: 0,
            latched: WorkSet::new(n * PORT_STRIDE),
            queued: WorkSet::new(n * PORT_STRIDE),
            ready: WorkSet::new(n),
            stats: NetworkStats::default(),
            cycle: 0,
            link_faults: Vec::new(),
            retransmit_events: Vec::new(),
        }
    }

    fn idx(&self, c: Coord) -> usize {
        c.y as usize * self.cfg.width as usize + c.x as usize
    }

    fn schedule_link_fault(&mut self, cycle: u64, at: Coord, port: Port) {
        let idx = self.idx(at);
        self.link_faults.push((cycle, idx, port as usize));
    }

    fn take_due_fault(&mut self, idx: usize, port: usize) -> bool {
        let due = (self.link_faults.iter())
            .position(|&(c, i, p)| c <= self.cycle && i == idx && p == port);
        due.map(|at| self.link_faults.swap_remove(at)).is_some()
    }

    fn route_port(&self, at: Coord, dst: Coord) -> Port {
        route_of(&self.cfg, at, dst)
    }

    fn inject(&mut self, at: Coord, pkt: Packet<P>) -> bool {
        let idx = self.idx(at);
        if self.routers[idx].inputs[Port::Local as usize].len() >= self.cfg.fifo_depth {
            return false;
        }
        let dst = pkt.dst;
        let handle = match self.free.pop() {
            Some(handle) => {
                self.packets[handle as usize] = pkt;
                handle
            }
            None => {
                self.packets.push(pkt);
                (self.packets.len() - 1) as u32
            }
        };
        let slot = Slot {
            handle,
            dst,
            port: 0,
        };
        self.routers[idx].inputs[Port::Local as usize].push_back(slot);
        self.moving += 1;
        self.stats.injected += 1;
        true
    }

    fn eject(&mut self, at: Coord) -> Option<Packet<P>> {
        let idx = self.idx(at);
        let slot = self.eject_qs[idx].pop_front()?;
        self.stats.ejected += 1;
        self.free.push(slot.handle);
        Some(self.packets[slot.handle as usize].clone())
    }

    /// `moving` and the three worklists, recounted from the FIFOs, latches
    /// and ejection queues.
    fn derived(&self) -> (usize, WorkSet, WorkSet, WorkSet) {
        let n = self.routers.len();
        let mut moving = 0;
        let mut latched = WorkSet::new(n * PORT_STRIDE);
        let mut queued = WorkSet::new(n * PORT_STRIDE);
        let mut ready = WorkSet::new(n);
        for idx in 0..n {
            for p in 0..NPORTS {
                if self.latches[idx][p].is_some() {
                    latched.insert(idx * PORT_STRIDE + p);
                    moving += 1;
                }
                if !self.routers[idx].inputs[p].is_empty() {
                    queued.insert(idx * PORT_STRIDE + p);
                    moving += self.routers[idx].inputs[p].len();
                }
            }
            if !self.eject_qs[idx].is_empty() {
                ready.insert(idx);
            }
        }
        (moving, latched, queued, ready)
    }

    /// The full-sweep tick the worklists replaced, kept verbatim as the oracle
    /// of `worklist_tick_matches_the_reference_sweep`: every router x port in
    /// phase A, every router x output x input in phase B, coordinates and link
    /// destinations by div/mod per hop. It maintains nothing incrementally —
    /// `moving` and the worklists are recounted from state when it is done.
    fn tick_reference(&mut self) {
        self.cycle += 1;
        let faults_armed = !self.link_faults.is_empty();

        // Phase A: deliver output latches across links.
        for idx in 0..self.routers.len() {
            for port in Port::ALL {
                let p = port as usize;
                let Some(&(_, free_at)) = self.latches[idx][p].as_ref() else {
                    continue;
                };
                if self.cycle < free_at {
                    self.link_stats[idx][p].busy += 1;
                    continue;
                }
                if faults_armed && self.take_due_fault(idx, p) {
                    if let Some((_, fa)) = self.latches[idx][p].as_mut() {
                        *fa = self.cycle + RETRY_PENALTY;
                    }
                    self.stats.retransmits += 1;
                    self.link_stats[idx][p].busy += 1;
                    self.retransmit_events.push(RetransmitEvent {
                        cycle: self.cycle,
                        at: coord_of(&self.cfg, idx),
                        port,
                    });
                    continue;
                }
                match link_dest_of(&self.cfg, idx, port) {
                    None if port == Port::Local => {
                        if self.eject_qs[idx].len() < 8 * self.cfg.fifo_depth {
                            let (pkt, _) = self.latches[idx][p].take().unwrap();
                            self.eject_qs[idx].push_back(pkt);
                            self.link_stats[idx][p].busy += 1;
                            self.link_stats[idx][p].flits += 1;
                        } else {
                            self.link_stats[idx][p].stalled += 1;
                        }
                    }
                    None => unreachable!("packet latched on nonexistent link"),
                    Some((didx, dport)) => {
                        let (didx, dport) = (didx as usize, dport as usize);
                        if self.routers[didx].inputs[dport].len() < self.cfg.fifo_depth {
                            let (pkt, _) = self.latches[idx][p].take().unwrap();
                            self.routers[didx].inputs[dport].push_back(pkt);
                            self.link_stats[idx][p].busy += 1;
                            self.link_stats[idx][p].flits += 1;
                        } else {
                            self.link_stats[idx][p].stalled += 1;
                        }
                    }
                }
            }
        }

        // Phase B: arbitrate input FIFO heads into free output latches.
        for idx in 0..self.routers.len() {
            let at = coord_of(&self.cfg, idx);
            for out in Port::ALL {
                let o = out as usize;
                if self.latches[idx][o].is_some() {
                    continue;
                }
                // Round-robin over input ports whose head routes to `out`.
                let start = self.routers[idx].rr[o];
                let mut chosen = None;
                for k in 0..NPORTS {
                    let inp = (start + k) % NPORTS;
                    if let Some(head) = self.routers[idx].inputs[inp].front() {
                        if self.route_port(at, head.dst) == out {
                            chosen = Some(inp);
                            break;
                        }
                    }
                }
                if let Some(inp) = chosen {
                    let pkt = self.routers[idx].inputs[inp].pop_front().unwrap();
                    let free_at = self.cycle + u64::from(self.cfg.link_occupancy);
                    self.latches[idx][o] = Some((pkt, free_at));
                    self.routers[idx].rr[o] = (inp + 1) % NPORTS;
                }
            }
        }

        (self.moving, self.latched, self.queued, self.ready) = self.derived();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(w: u8, h: u8) -> Network<u64> {
        Network::new(NetworkConfig {
            width: w,
            height: h,
            ruche_factor: 0,
            order: RouteOrder::XThenY,
            fifo_depth: 2,
            link_occupancy: 1,
        })
    }

    fn ruche(w: u8, h: u8) -> Network<u64> {
        Network::new(NetworkConfig {
            width: w,
            height: h,
            ruche_factor: 3,
            order: RouteOrder::XThenY,
            fifo_depth: 2,
            link_occupancy: 1,
        })
    }

    fn deliver(net: &mut Network<u64>, src: Coord, dst: Coord, payload: u64) -> u64 {
        assert!(net.inject(src, Packet { src, dst, payload }));
        let start = net.cycle();
        for _ in 0..10_000 {
            net.tick();
            if let Some(p) = net.eject(dst) {
                assert_eq!(p.payload, payload);
                return net.cycle() - start;
            }
        }
        panic!("packet {src}->{dst} never arrived");
    }

    #[test]
    fn flit_counters_count_deliveries_not_serialization() {
        // With a 4-cycle link occupancy, a single packet holds each link
        // busy for several cycles but traverses it exactly once.
        let mut net: Network<u64> = Network::new(NetworkConfig {
            width: 4,
            height: 1,
            ruche_factor: 0,
            order: RouteOrder::XThenY,
            fifo_depth: 2,
            link_occupancy: 4,
        });
        deliver(&mut net, Coord::new(0, 0), Coord::new(3, 0), 7);
        let east = net.link_stats(Coord::new(0, 0), Port::East);
        assert_eq!(east.flits, 1, "one packet crossed the first east link");
        assert!(
            east.busy > east.flits,
            "serialization cycles must exceed flit count: {east:?}"
        );
        // The snapshot sums ports per router and must agree with the
        // per-link accessors.
        let snap = net.snapshot();
        assert_eq!(snap.len(), 4);
        let r0: LinkStats = Port::ALL.into_iter().fold(LinkStats::default(), |acc, p| {
            acc + net.link_stats(Coord::new(0, 0), p)
        });
        assert_eq!(snap[0], r0);
        // Deltas compose: total - total == zero.
        assert_eq!(r0 - r0, LinkStats::default());
        assert_eq!(east.idle(net.cycle()), net.cycle() - east.busy);
    }

    #[test]
    fn self_delivery() {
        let mut net = mesh(4, 4);
        let c = Coord::new(2, 2);
        let lat = deliver(&mut net, c, c, 9);
        assert!(lat <= 3, "self delivery took {lat} cycles");
    }

    #[test]
    fn corner_to_corner_latency_scales_with_hops() {
        let mut net = mesh(8, 8);
        let lat = deliver(&mut net, Coord::new(0, 0), Coord::new(7, 7), 1);
        // 14 hops; each hop is one latch+link cycle, plus injection/ejection.
        assert!((14..=20).contains(&lat), "latency {lat}");
    }

    #[test]
    fn ruche_links_shorten_horizontal_trips() {
        let mut m = mesh(16, 4);
        let mut r = ruche(16, 4);
        let (src, dst) = (Coord::new(0, 0), Coord::new(15, 0));
        let lm = deliver(&mut m, src, dst, 1);
        let lr = deliver(&mut r, src, dst, 1);
        assert!(
            lr + 4 <= lm,
            "ruche latency {lr} not clearly better than mesh {lm}"
        );
    }

    #[test]
    fn ruche_routing_is_exact() {
        // Every (src, dst) pair must arrive, including overshoot-prone ones.
        let mut net = ruche(16, 2);
        for sx in [0u8, 1, 7, 13, 15] {
            for dxx in [0u8, 2, 3, 5, 14, 15] {
                let src = Coord::new(sx, 0);
                let dst = Coord::new(dxx, 1);
                deliver(&mut net, src, dst, u64::from(sx) * 100 + u64::from(dxx));
            }
        }
    }

    #[test]
    fn xy_routing_goes_x_first() {
        let net = mesh(4, 4);
        assert_eq!(
            net.route_port(Coord::new(0, 0), Coord::new(3, 3)),
            Port::East
        );
        let net2: Network<u64> = Network::new(NetworkConfig {
            width: 4,
            height: 4,
            ruche_factor: 0,
            order: RouteOrder::YThenX,
            fifo_depth: 2,
            link_occupancy: 1,
        });
        assert_eq!(
            net2.route_port(Coord::new(0, 0), Coord::new(3, 3)),
            Port::South
        );
    }

    #[test]
    fn packet_conservation_under_load() {
        let mut net = mesh(4, 4);
        let mut injected = 0u64;
        let mut ejected = 0u64;
        let mut seed = 12345u64;
        let mut rand = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as u8
        };
        for _ in 0..2000 {
            let src = Coord::new(rand() % 4, rand() % 4);
            let dst = Coord::new(rand() % 4, rand() % 4);
            if net.inject(
                src,
                Packet {
                    src,
                    dst,
                    payload: injected,
                },
            ) {
                injected += 1;
            }
            net.tick();
            for y in 0..4 {
                for x in 0..4 {
                    while net.eject(Coord::new(x, y)).is_some() {
                        ejected += 1;
                    }
                }
            }
        }
        // Drain.
        for _ in 0..500 {
            net.tick();
            for y in 0..4 {
                for x in 0..4 {
                    while net.eject(Coord::new(x, y)).is_some() {
                        ejected += 1;
                    }
                }
            }
        }
        assert_eq!(injected, ejected, "packets lost or duplicated");
        assert!(net.is_drained());
    }

    #[test]
    fn packets_arrive_at_correct_destination() {
        let mut net = ruche(8, 8);
        let mut outstanding = std::collections::HashMap::new();
        let mut id = 0u64;
        for sy in 0..8u8 {
            for dy in 0..8u8 {
                let src = Coord::new(sy % 8, sy);
                let dst = Coord::new((sy + dy) % 8, dy);
                while !net.inject(
                    src,
                    Packet {
                        src,
                        dst,
                        payload: id,
                    },
                ) {
                    net.tick();
                    drain_check(&mut net, &mut outstanding);
                }
                outstanding.insert(id, dst);
                id += 1;
            }
        }
        for _ in 0..2000 {
            net.tick();
            drain_check(&mut net, &mut outstanding);
            if outstanding.is_empty() {
                return;
            }
        }
        panic!("{} packets never arrived", outstanding.len());
    }

    fn drain_check(
        net: &mut Network<u64>,
        outstanding: &mut std::collections::HashMap<u64, Coord>,
    ) {
        for y in 0..net.config().height {
            for x in 0..net.config().width {
                let here = Coord::new(x, y);
                while let Some(p) = net.eject(here) {
                    let expect = outstanding.remove(&p.payload).expect("unknown packet");
                    assert_eq!(expect, here, "packet {} misrouted", p.payload);
                }
            }
        }
    }

    #[test]
    fn bisection_counts_ruche_links() {
        let mesh_links = mesh(16, 4).bisection_link_count(8);
        let ruche_links = ruche(16, 4).bisection_link_count(8);
        // Mesh: E+W per row = 2*4 = 8. Ruche adds 3 eastward + 3 westward
        // crossings per row.
        assert_eq!(mesh_links, 8);
        assert_eq!(ruche_links, 8 + 2 * 3 * 4);
        // The paper: Ruche-3 gives 4x the bisection bandwidth of the mesh.
        assert_eq!(ruche_links, 4 * mesh_links);
    }

    #[test]
    fn link_fault_replays_the_flit_with_bounded_delay() {
        let (src, dst) = (Coord::new(0, 0), Coord::new(3, 0));
        let mut clean = mesh(4, 1);
        let baseline = deliver(&mut clean, src, dst, 5);

        let mut faulty = mesh(4, 1);
        // Corrupt the first flit crossing the east link out of (1,0).
        faulty.schedule_link_fault(0, Coord::new(1, 0), Port::East);
        let lat = deliver(&mut faulty, src, dst, 5);
        assert_eq!(
            lat,
            baseline + RETRY_PENALTY,
            "replay must cost exactly the retry penalty"
        );
        assert_eq!(faulty.stats().retransmits, 1);
        let evs = faulty.drain_retransmit_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].at, Coord::new(1, 0));
        assert_eq!(evs[0].port, Port::East);
        assert!(faulty.drain_retransmit_events().is_empty());
        // The packet arrived exactly once despite the corruption.
        assert!(faulty.is_drained());
    }

    #[test]
    fn fault_on_an_idle_link_stays_armed_and_is_masked() {
        let mut net = mesh(4, 1);
        net.schedule_link_fault(0, Coord::new(2, 0), Port::West);
        // Traffic that never crosses the faulted link is untouched.
        deliver(&mut net, Coord::new(0, 0), Coord::new(3, 0), 1);
        assert_eq!(net.stats().retransmits, 0);
        // The armed fault fires on the first westward crossing.
        deliver(&mut net, Coord::new(3, 0), Coord::new(0, 0), 2);
        assert_eq!(net.stats().retransmits, 1);
    }

    #[test]
    fn conservation_holds_under_link_faults() {
        let mut net = mesh(4, 4);
        for c in 0..64 {
            net.schedule_link_fault(c, Coord::new((c % 4) as u8, (c / 16) as u8), Port::East);
        }
        let mut injected = 0u64;
        let mut ejected = 0u64;
        let mut seed = 99u64;
        let mut rand = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as u8
        };
        for _ in 0..1000 {
            let src = Coord::new(rand() % 4, rand() % 4);
            let dst = Coord::new(rand() % 4, rand() % 4);
            if net.inject(
                src,
                Packet {
                    src,
                    dst,
                    payload: injected,
                },
            ) {
                injected += 1;
            }
            net.tick();
            for y in 0..4 {
                for x in 0..4 {
                    while net.eject(Coord::new(x, y)).is_some() {
                        ejected += 1;
                    }
                }
            }
        }
        for _ in 0..500 {
            net.tick();
            for y in 0..4 {
                for x in 0..4 {
                    while net.eject(Coord::new(x, y)).is_some() {
                        ejected += 1;
                    }
                }
            }
        }
        assert_eq!(injected, ejected, "retransmit lost or duplicated packets");
        assert!(net.is_drained());
        assert!(net.stats().retransmits > 0, "no scheduled fault ever fired");
    }

    /// What a tick may write of router `idx`: its input FIFOs, round-robin
    /// pointers, output latches, link counters and ejection queue, each
    /// slot resolved to its packet.
    type View = (
        Vec<Vec<Packet<u64>>>,
        [usize; NPORTS],
        Vec<Option<(Packet<u64>, u64)>>,
        [LinkStats; NPORTS],
        Vec<Packet<u64>>,
    );

    fn view(net: &Network<u64>, idx: usize) -> View {
        let packet = |s: Slot| net.packets[s.handle as usize];
        let block = &net.blocks[idx];
        let latch = |p: usize| {
            (net.latched.contains(idx * PORT_STRIDE + p))
                .then(|| (packet(block.latch[p]), block.release[p]))
        };
        (
            (0..NPORTS)
                .map(|p| net.fifo_slots(idx * PORT_STRIDE + p).map(packet).collect())
                .collect(),
            std::array::from_fn(|p| usize::from(block.rr[p])),
            (0..NPORTS).map(latch).collect(),
            net.link_stats[idx],
            net.eject_qs[idx].iter().map(|&s| packet(s)).collect(),
        )
    }

    fn reference_view(net: &Reference<u64>, idx: usize) -> View {
        let packet = |s: &Slot| net.packets[s.handle as usize];
        (
            (net.routers[idx].inputs.iter())
                .map(|q| q.iter().map(packet).collect())
                .collect(),
            net.routers[idx].rr,
            (net.latches[idx].iter())
                .map(|l| l.map(|(s, free_at)| (packet(&s), free_at)))
                .collect(),
            net.link_stats[idx],
            net.eject_qs[idx].iter().map(packet).collect(),
        )
    }

    /// The first piece of state `tick` may write that differs between the
    /// network and the reference, if any.
    fn first_difference(a: &Network<u64>, b: &Reference<u64>) -> Option<String> {
        for idx in 0..a.blocks.len() {
            let at = a.coords[idx];
            let (x, y) = (view(a, idx), reference_view(b, idx));
            let parts = [
                "input FIFOs",
                "round-robin pointers",
                "output latches",
                "link stats",
            ];
            let differs = [x.0 != y.0, x.1 != y.1, x.2 != y.2, x.3 != y.3];
            if let Some(k) = differs.iter().position(|&d| d) {
                return Some(format!("{} of router {at}", parts[k]));
            }
            if x.4 != y.4 {
                return Some(format!("ejection queue of node {at}"));
            }
        }
        let whole_a = (
            a.stats,
            a.cycle,
            a.moving,
            &a.retransmit_events,
            &a.link_faults,
        );
        let whole_b = (
            b.stats,
            b.cycle,
            b.moving,
            &b.retransmit_events,
            &b.link_faults,
        );
        (whole_a != whole_b).then(|| "stats, retransmit events or armed faults".to_owned())
    }

    /// Drives `cfg` twice with the same seeded traffic — once through the
    /// worklist tick (`REARBITRATE` and `REVISIT` as given), once through
    /// `tick_reference` — and compares the pair after every tick. Four
    /// 150-tick stretches: light random traffic; the same with ejection
    /// withheld (hot destinations back up into full ejection queues and on
    /// into the fabric); saturation (an injection attempt at every node
    /// every tick); drain. Link faults are scheduled throughout.
    fn lockstep<const REARBITRATE: bool, const REVISIT: bool>(
        cfg: NetworkConfig,
        seed: u64,
    ) -> Result<(), String> {
        let mut rng = hb_rng::Rng::seed_from_u64(seed);
        let mut fast: Network<u64> = Network::new(cfg);
        let mut slow: Reference<u64> = Reference::new(cfg);
        let (w, h) = (cfg.width, cfg.height);
        let any = |rng: &mut hb_rng::Rng| {
            Coord::new(rng.index(w as usize) as u8, rng.index(h as usize) as u8)
        };
        for _ in 0..24 {
            let (cycle, at) = (rng.below(600), any(&mut rng));
            let port = Port::from_index(rng.index(NPORTS));
            fast.schedule_link_fault(cycle, at, port);
            slow.schedule_link_fault(cycle, at, port);
        }
        let hot = [any(&mut rng), any(&mut rng)];
        let mut payload = 0u64;
        for t in 0..600u64 {
            let (withheld, saturate, drain) =
                ((150..300).contains(&t), (300..450).contains(&t), t >= 450);
            let sources: Vec<Coord> = match (saturate, drain) {
                (true, _) => fast.coords.clone(),
                (_, true) => Vec::new(),
                _ => (0..rng.index(5)).map(|_| any(&mut rng)).collect(),
            };
            for src in sources {
                let dst = if rng.chance(0.5) {
                    *rng.pick(&hot)
                } else {
                    any(&mut rng)
                };
                payload += 1;
                let pkt = Packet { src, dst, payload };
                if fast.inject(src, pkt) != slow.inject(src, pkt) {
                    return Err(format!("tick {t}: inject at {src} disagreed"));
                }
            }
            fast.tick_worklists::<REARBITRATE, REVISIT>();
            slow.tick_reference();
            if let Some(what) = first_difference(&fast, &slow) {
                return Err(format!("tick {}: {what} differ", t + 1));
            }
            if !fast.derived_state_is_exact() {
                return Err(format!("tick {}: a worklist drifted from state", t + 1));
            }
            if !withheld {
                // The worklist side ejects what `ready_nodes` names, the
                // reference polls every node: same packets, same order.
                let ready: Vec<Coord> = fast.ready_nodes().collect();
                let polled: Vec<Coord> = (fast.coords.iter().copied())
                    .filter(|&c| !slow.eject_qs[slow.idx(c)].is_empty())
                    .collect();
                if ready != polled {
                    return Err(format!(
                        "tick {}: ready nodes {ready:?} != {polled:?}",
                        t + 1
                    ));
                }
                for at in ready {
                    for _ in 0..1 + rng.index(3) {
                        if fast.eject(at) != slow.eject(at) {
                            return Err(format!("tick {}: eject at {at} disagreed", t + 1));
                        }
                    }
                }
            }
        }
        // The run met what it set out to: replays, full ejection queues.
        let eject_stalls: u64 = (fast.link_stats.iter())
            .map(|ports| ports[Port::Local as usize].stalled)
            .sum();
        assert!(fast.stats.retransmits > 0 && eject_stalls > 0 && fast.stats.ejected > 300);
        Ok(())
    }

    fn lockstep_configs() -> Vec<NetworkConfig> {
        let mut cfgs = Vec::new();
        for ruche_factor in [0, 3] {
            for order in [RouteOrder::XThenY, RouteOrder::YThenX] {
                for link_occupancy in [1, 3] {
                    for fifo_depth in [1, 2, 4] {
                        cfgs.push(NetworkConfig {
                            width: 8,
                            height: 4,
                            ruche_factor,
                            order,
                            fifo_depth,
                            link_occupancy,
                        });
                    }
                }
            }
        }
        cfgs
    }

    /// The oracle for touching arbitration: the worklist tick against the
    /// full router x port sweep over the layout it replaced, in lockstep,
    /// on every piece of state a tick may write (FIFOs, latches,
    /// round-robin pointers, link stats, ejection queues, counters,
    /// retransmit events, armed faults), with the incrementally kept
    /// worklists checked against a from-scratch recount after every tick.
    ///
    /// The mutations it is known to catch (second half of the test), each
    /// a wrong answer to "may a FIFO issue twice in one tick": phase B
    /// taking a one-shot snapshot of the FIFO heads, which loses the second
    /// issue when the new head wants a later output; and the new head also
    /// taking a free output already passed over, which issues out of port
    /// order.
    #[test]
    fn worklist_tick_matches_the_reference_sweep() {
        for (i, cfg) in lockstep_configs().into_iter().enumerate() {
            for seed in [1, 2] {
                if let Err(e) = lockstep::<true, false>(cfg, 1000 * i as u64 + seed) {
                    panic!("{cfg:?} seed {seed}: {e}");
                }
            }
        }
        let deep =
            || (lockstep_configs().into_iter().enumerate()).filter(|(_, c)| c.fifo_depth > 1);
        let snapshot = deep()
            .filter(|&(i, cfg)| lockstep::<false, false>(cfg, 1000 * i as u64 + 1).is_err())
            .count();
        let revisit = deep()
            .filter(|&(i, cfg)| lockstep::<true, true>(cfg, 1000 * i as u64 + 1).is_err())
            .count();
        assert_eq!(
            (snapshot, revisit),
            (16, 16),
            "each mutant must diverge wherever a FIFO holds two packets"
        );
    }

    /// Activity proportionality as an exact count: a tick costs what is in
    /// flight. One packet crossing an idle 16x10 Ruche-3 grid is one latch
    /// visit and one router arbitration per tick (the full sweep made 2,240
    /// latch probes); an idle tick costs nothing.
    #[test]
    fn one_packet_costs_a_handful_of_visits_per_tick() {
        let mut net: Network<u64> = Network::new(NetworkConfig::new(16, 10, 3, RouteOrder::XThenY));
        let (src, dst) = (Coord::new(0, 0), Coord::new(15, 9));
        assert!(net.inject(
            src,
            Packet {
                src,
                dst,
                payload: 1
            }
        ));
        let mut ticks = 0;
        while net.eject(dst).is_none() {
            let visits = |w: TickWork| w.latches + w.routers;
            let before = visits(net.work());
            net.tick();
            ticks += 1;
            let spent = visits(net.work()) - before;
            assert!((1..=4).contains(&spent), "tick {ticks} cost {spent} visits");
            assert!(ticks < 64, "packet never arrived");
        }
        let total = net.work();
        assert!(
            total.latches <= ticks && total.routers <= ticks,
            "{total:?}"
        );
        for _ in 0..100 {
            net.tick();
        }
        assert_eq!(net.work(), total, "an idle tick visited something");
    }

    #[test]
    fn bisection_traffic_is_counted() {
        let mut net = mesh(8, 2);
        deliver(&mut net, Coord::new(0, 0), Coord::new(7, 0), 1);
        let stats = net.bisection_stats(4);
        assert!(stats.busy >= 1);
    }

    fn encoded(net: &Network<u64>) -> Vec<u8> {
        let mut w = hb_mem::SnapWriter::new();
        hb_mem::SnapState::save_state(net, &mut w);
        w.into_bytes()
    }

    /// A network holding packets in input FIFOs, output latches and full
    /// ejection queues: every node injects toward two hot nodes or a random
    /// one while ejection is withheld, except that the hot nodes eject a few
    /// packets half way, so the packets of one queue did not all enter the
    /// network in queue order.
    fn filled(cfg: NetworkConfig) -> Network<u64> {
        let mut net = Network::new(cfg);
        let mut rng = hb_rng::Rng::seed_from_u64(30);
        let (w, h) = (cfg.width, cfg.height);
        let hot = [Coord::new(1, 1), Coord::new(w - 1, h - 1)];
        let mut payload = 0;
        for t in 0..60 {
            for idx in 0..net.coords.len() {
                let src = net.coords[idx];
                let dst = match rng.index(3) {
                    2 => Coord::new(rng.index(w.into()) as u8, rng.index(h.into()) as u8),
                    k => hot[k],
                };
                payload += 1;
                net.inject(src, Packet { src, dst, payload });
            }
            net.tick();
            if t == 30 {
                for at in hot {
                    for _ in 0..3 {
                        net.eject(at);
                    }
                }
            }
        }
        net
    }

    /// The checkpoint wire form of the packet containers, pinned from the
    /// encoding that kept whole packets in them: a packet is written where
    /// it sits, in queue order, whatever the network keeps it in. A restore
    /// re-encodes byte-equal and drains in lockstep with the original.
    #[test]
    fn packet_containers_keep_their_wire_form() {
        for (cfg, pinned) in [
            (
                NetworkConfig::new(4, 4, 0, RouteOrder::XThenY),
                0x496961ed50fb312b970920cde662ca5b,
            ),
            (
                NetworkConfig::new(8, 4, 3, RouteOrder::YThenX),
                0xc773c4b5d7fb66fe000cc588c15e5820,
            ),
        ] {
            let mut net = filled(cfg);
            let n = net.coords.len();
            let deep_fifos = (0..n * NPORTS)
                .filter(|&m| net.blocks[m / NPORTS].len[m % NPORTS] > 1)
                .count();
            let latches = net.latched.iter().count();
            let full_ejects = (net.eject_qs.iter())
                .filter(|q| q.len() == 8 * cfg.fifo_depth)
                .count();
            assert!(deep_fifos > 4 && latches > 4 && full_ejects > 0, "{cfg:?}");
            let bytes = encoded(&net);
            assert_eq!(hb_mem::fnv1a128(&bytes), pinned, "{cfg:?}");

            let mut twin = Network::new(cfg);
            let mut r = hb_mem::SnapReader::new(&bytes);
            hb_mem::SnapState::load_state(&mut twin, &mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(encoded(&twin), bytes);
            for tick in 0.. {
                assert!(tick < 2000, "{cfg:?}: the network never drained");
                net.tick();
                twin.tick();
                for idx in 0..n {
                    let at = net.coords[idx];
                    while let Some(pkt) = net.eject(at) {
                        assert_eq!(twin.eject(at), Some(pkt), "{cfg:?} tick {tick}");
                    }
                    assert_eq!(twin.eject(at), None, "{cfg:?} tick {tick}");
                }
                assert!(encoded(&twin) == encoded(&net), "{cfg:?} tick {tick}");
                if net.is_drained() {
                    break;
                }
            }
            assert!(twin.is_drained());
        }
    }

    /// The slab grows to the most packets ever in flight at once, not with
    /// the packets that passed through: `eject` frees what `inject` stowed.
    #[test]
    fn the_slab_is_bounded_by_the_peak_in_flight() {
        let mut net = mesh(4, 4);
        let mut rng = hb_rng::Rng::seed_from_u64(7);
        let any = |rng: &mut hb_rng::Rng| Coord::new(rng.index(4) as u8, rng.index(4) as u8);
        let (mut round_trips, mut peak) = (0, 0);
        while round_trips < 100_000 {
            for _ in 0..rng.index(6) {
                let (src, dst) = (any(&mut rng), any(&mut rng));
                net.inject(
                    src,
                    Packet {
                        src,
                        dst,
                        payload: 0,
                    },
                );
            }
            peak = peak.max(net.in_flight());
            net.tick();
            for idx in 0..net.coords.len() {
                while net.eject(net.coords[idx]).is_some() {
                    round_trips += 1;
                }
            }
        }
        assert!(peak > 8, "the mesh never held much");
        assert!(
            net.packets.len() as u64 <= peak,
            "{} > {peak}",
            net.packets.len()
        );
    }

    /// The per-axis route tables a hop reads give what the routing function
    /// computes, for every (router, destination) pair of every grid from
    /// 1x1 to 32x10 (every preset's network lies inside), both orders,
    /// mesh and Ruche-3.
    #[test]
    fn route_tables_equal_the_routing_function() {
        for (w, h) in (1..=32u8).flat_map(|w| (1..=10u8).map(move |h| (w, h))) {
            for ruche_factor in [0, 3] {
                for order in [RouteOrder::XThenY, RouteOrder::YThenX] {
                    let net: Network<u64> =
                        Network::new(NetworkConfig::new(w, h, ruche_factor, order));
                    for &at in &net.coords {
                        for &dst in &net.coords {
                            let table = net.routes.port(at, dst);
                            let computed = net.route_port(at, dst) as u8;
                            assert_eq!(
                                table, computed,
                                "{w}x{h} rf {ruche_factor} {order:?} {at}->{dst}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A seeded network caught mid-flight: packets in FIFOs, in latches
    /// serializing across narrow links and in ejection queues, link faults
    /// fired and still armed.
    fn mid_flight(cfg: NetworkConfig, seed: u64) -> Network<u64> {
        let mut net = Network::new(cfg);
        let mut rng = hb_rng::Rng::seed_from_u64(seed);
        let (w, h) = (cfg.width, cfg.height);
        let any = |rng: &mut hb_rng::Rng| {
            Coord::new(rng.index(w.into()) as u8, rng.index(h.into()) as u8)
        };
        for _ in 0..32 {
            let (cycle, at) = (rng.below(400), any(&mut rng));
            net.schedule_link_fault(cycle, at, Port::from_index(rng.index(NPORTS)));
        }
        let mut payload = 0;
        for t in 0..120 {
            for _ in 0..rng.index(2 * usize::from(w)) {
                let (src, dst) = (any(&mut rng), any(&mut rng));
                payload += 1;
                net.inject(src, Packet { src, dst, payload });
            }
            net.tick();
            if t % 3 == 0 {
                for _ in 0..4 {
                    net.eject(any(&mut rng));
                }
            }
        }
        net
    }

    /// The whole checkpoint section of a mid-flight network with armed
    /// faults, pinned to digests recorded from the `VecDeque`-FIFO layout:
    /// the router blocks, rings and lookahead routes changed no byte.
    #[test]
    fn a_mid_flight_network_keeps_its_checkpoint_bytes() {
        for (cfg, pinned) in [
            (
                NetworkConfig {
                    fifo_depth: 2,
                    link_occupancy: 3,
                    ..NetworkConfig::new(8, 6, 3, RouteOrder::XThenY)
                },
                0x15a20be4e7d1a9a72c7f26273199277a,
            ),
            (
                NetworkConfig {
                    fifo_depth: 1,
                    ..NetworkConfig::new(6, 5, 0, RouteOrder::YThenX)
                },
                0xcdb905fb41ac7d8b218def086e6625d0,
            ),
        ] {
            let net = mid_flight(cfg, 52);
            let serializing = (net.latched.iter())
                .filter(|&m| net.blocks[m / PORT_STRIDE].release[m % PORT_STRIDE] > net.cycle)
                .count();
            assert!(
                net.link_faults.len() > 20 && net.stats.retransmits > 0 && net.in_flight() > 300,
                "{cfg:?}"
            );
            assert!(cfg.link_occupancy == 1 || serializing > 0, "{cfg:?}");
            let bytes = encoded(&net);
            assert_eq!(hb_mem::fnv1a128(&bytes), pinned, "{cfg:?}");
            let mut twin = Network::new(cfg);
            let mut r = hb_mem::SnapReader::new(&bytes);
            hb_mem::SnapState::load_state(&mut twin, &mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(encoded(&twin), bytes);
        }
    }

    /// A checkpoint holding more than the network could: its input FIFOs
    /// and ejection queues are bounded by the configuration, so a stream
    /// from a deeper network is refused with a typed error, not stored.
    #[test]
    fn a_restore_refuses_queues_longer_than_their_bounds() {
        let load = |cfg: NetworkConfig, bytes: &[u8]| {
            let mut net: Network<u64> = Network::new(cfg);
            hb_mem::SnapState::load_state(&mut net, &mut hb_mem::SnapReader::new(bytes))
        };
        let deep = NetworkConfig::new(4, 4, 0, RouteOrder::XThenY);
        let shallow = NetworkConfig {
            fifo_depth: 2,
            ..deep
        };
        // Four packets queued at one injection port.
        let mut net: Network<u64> = Network::new(deep);
        let at = Coord::new(0, 0);
        for payload in 0..4 {
            assert!(net.inject(
                at,
                Packet {
                    src: at,
                    dst: Coord::new(3, 3),
                    payload
                }
            ));
        }
        assert_eq!(
            load(shallow, &encoded(&net)),
            Err(SnapError::Bad("Network input FIFO longer than its depth"))
        );
        // Twenty deliveries waiting at one node, no FIFO over two.
        let mut net: Network<u64> = Network::new(deep);
        for payload in 0..20 {
            assert!(net.inject(
                at,
                Packet {
                    src: at,
                    dst: at,
                    payload
                }
            ));
            net.tick();
        }
        for _ in 0..4 {
            net.tick();
        }
        assert_eq!(net.eject_qs[0].len(), 20);
        assert_eq!(
            load(shallow, &encoded(&net)),
            Err(SnapError::Bad(
                "Network ejection queue longer than its bound"
            ))
        );
        assert_eq!(load(deep, &encoded(&net)), Ok(()));
    }
}
