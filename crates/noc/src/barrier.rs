//! The reconfigurable 1-bit hardware barrier network (paper Figure 4).
//!
//! Each tile has two configuration registers: the input directions it must
//! collect barrier signals from, and the output direction it forwards its
//! own signal to once it joins. Configured edges form a convergecast tree
//! whose root, upon collecting every input, broadcasts a wake signal back
//! down the same tree. Links follow the Ruche topology: a Ruche link skips
//! `ruche_factor` tiles horizontally but still costs a single cycle, which
//! is what lets a 16-wide Cell barrier converge in ~8 cycles.
//!
//! Rounds are pipelined with cumulative counters, so a tile near the root
//! may re-join the next barrier while far tiles are still being woken.
//!
//! A tick looks only at the nodes whose inputs moved since it last looked
//! at them (a join, an arriving signal, a send of their own), in node
//! order; a network nobody is joining costs nothing per cycle.

use crate::net::Coord;
use hb_mem::WorkSet;

/// A barrier-network link direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Toward `y - 1`.
    North,
    /// Toward `y + 1`.
    South,
    /// Toward `x + 1`.
    East,
    /// Toward `x - 1`.
    West,
    /// Ruche link toward `x + ruche_factor`.
    RucheEast,
    /// Ruche link toward `x - ruche_factor`.
    RucheWest,
}

impl Dir {
    fn offset(self, rf: u8) -> (i16, i16) {
        match self {
            Dir::North => (0, -1),
            Dir::South => (0, 1),
            Dir::East => (1, 0),
            Dir::West => (-1, 0),
            Dir::RucheEast => (i16::from(rf), 0),
            Dir::RucheWest => (-i16::from(rf), 0),
        }
    }
}

/// Per-tile barrier configuration: where the tile's signal goes.
/// `None` marks the root of the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierConfig {
    /// Output direction, or `None` for the root node.
    pub output: Option<Dir>,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct NodeState {
    /// Cumulative joins by the local tile.
    joins: u64,
    /// Cumulative up-signals sent to the parent.
    sent: u64,
    /// Cumulative up-signals received from children.
    recv: u64,
    /// Cumulative wake signals delivered.
    released: u64,
    /// Cumulative releases consumed by the local tile.
    consumed: u64,
}

/// The hardware barrier network over a `width * height` tile group.
#[derive(Debug, Clone)]
pub struct BarrierNetwork {
    width: u8,
    height: u8,
    ruche_factor: u8,
    /// Parent index per node (None = root or unconfigured).
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    nodes: Vec<NodeState>,
    /// Bypassed (disabled-tile) nodes: their barrier hardware auto-joins
    /// every round so the tree converges without the tile's participation.
    bypassed: Vec<bool>,
    /// Up-signals in flight: arrive at (target) on the next tick.
    up_in_flight: Vec<usize>,
    /// Wake signals in flight.
    wake_in_flight: Vec<usize>,
    cycle: u64,
    /// Completed barrier rounds at the root.
    rounds: u64,
    /// Worklist: nodes whose send condition must be re-evaluated — a
    /// counter it reads (`joins`, `recv`, `sent`, a bypassed node's
    /// `released`) moved since the node was last looked at. Whether a node
    /// sends is a function of those counters alone, so a node outside the
    /// set would decide what it decided last time: nothing.
    dirty: WorkSet,
    /// Scratch: the wake signals being delivered this tick.
    waking: Vec<usize>,
    /// Nodes that received a release in the latest tick.
    released_now: Vec<usize>,
    /// Host work: nodes evaluated by `tick` so far (not simulated state).
    node_visits: u64,
}

impl BarrierNetwork {
    /// Builds a barrier network from per-tile output configurations.
    ///
    /// `configs[y * width + x]` gives tile (x, y)'s register; exactly one
    /// tile must be the root.
    ///
    /// # Panics
    ///
    /// Panics if no root or multiple roots are configured, or an output
    /// direction leaves the group.
    pub fn new(width: u8, height: u8, ruche_factor: u8, configs: &[BarrierConfig]) -> Self {
        let n = width as usize * height as usize;
        assert_eq!(configs.len(), n, "one config per tile required");
        let mut parent = vec![None; n];
        let mut children = vec![Vec::new(); n];
        let mut root = None;
        for (i, cfg) in configs.iter().enumerate() {
            let (x, y) = ((i % width as usize) as i16, (i / width as usize) as i16);
            match cfg.output {
                None => {
                    assert!(root.is_none(), "multiple barrier roots configured");
                    root = Some(i);
                }
                Some(dir) => {
                    let (dx, dy) = dir.offset(ruche_factor);
                    let (tx, ty) = (x + dx, y + dy);
                    assert!(
                        tx >= 0 && tx < i16::from(width) && ty >= 0 && ty < i16::from(height),
                        "barrier output of tile ({x},{y}) leaves the group"
                    );
                    let t = ty as usize * width as usize + tx as usize;
                    parent[i] = Some(t);
                    children[t].push(i);
                }
            }
        }
        assert!(root.is_some(), "no barrier root configured");
        BarrierNetwork {
            width,
            height,
            ruche_factor,
            parent,
            children,
            nodes: vec![NodeState::default(); n],
            bypassed: vec![false; n],
            up_in_flight: Vec::new(),
            wake_in_flight: Vec::new(),
            cycle: 0,
            rounds: 0,
            dirty: WorkSet::new(n),
            waking: Vec::new(),
            released_now: Vec::new(),
            node_visits: 0,
        }
    }

    /// Builds the canonical convergecast tree for a rectangular tile group:
    /// rows converge horizontally to the root column (using Ruche hops for
    /// distances >= the Ruche factor), then the root column converges
    /// vertically to the root at the group's center.
    pub fn tree_for_group(width: u8, height: u8, ruche_factor: u8) -> Self {
        let root_x = width / 2;
        let root_y = height / 2;
        let rf = ruche_factor.max(1);
        let mut configs = Vec::with_capacity(width as usize * height as usize);
        for y in 0..height {
            for x in 0..width {
                let output = if x == root_x {
                    if y == root_y {
                        None
                    } else if y < root_y {
                        Some(Dir::South)
                    } else {
                        Some(Dir::North)
                    }
                } else if x < root_x {
                    if ruche_factor > 0 && root_x - x >= rf {
                        Some(Dir::RucheEast)
                    } else {
                        Some(Dir::East)
                    }
                } else if ruche_factor > 0 && x - root_x >= rf {
                    Some(Dir::RucheWest)
                } else {
                    Some(Dir::West)
                };
                configs.push(BarrierConfig { output });
            }
        }
        BarrierNetwork::new(width, height, ruche_factor, &configs)
    }

    fn idx(&self, at: Coord) -> usize {
        at.y as usize * self.width as usize + at.x as usize
    }

    /// The Ruche factor the directions were configured with.
    pub fn ruche_factor(&self) -> u8 {
        self.ruche_factor
    }

    /// Group width in tiles.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Group height in tiles.
    pub fn height(&self) -> u8 {
        self.height
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Completed barrier rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Tile `at` joins the current barrier round.
    pub fn join(&mut self, at: Coord) {
        let i = self.idx(at);
        self.nodes[i].joins += 1;
        self.dirty.insert(i);
    }

    /// Marks tile `at` as bypassed: its barrier node joins every round on
    /// its own, paced by the wake signals it receives, so a group with
    /// disabled tiles still converges. Used for `disabled_tiles` resilience.
    pub fn bypass(&mut self, at: Coord) {
        let i = self.idx(at);
        self.bypassed[i] = true;
        self.dirty.insert(i);
    }

    /// Whether tile `at` is bypassed.
    pub fn is_bypassed(&self, at: Coord) -> bool {
        self.bypassed[self.idx(at)]
    }

    /// Whether tile `at` has an unconsumed release (the barrier it joined
    /// has completed and the wake signal arrived).
    pub fn is_released(&self, at: Coord) -> bool {
        let n = &self.nodes[self.idx(at)];
        n.released > n.consumed
    }

    /// Consumes one release at tile `at`, allowing it to join the next round.
    pub fn consume_release(&mut self, at: Coord) {
        let i = self.idx(at);
        debug_assert!(self.nodes[i].released > self.nodes[i].consumed);
        self.nodes[i].consumed += 1;
    }

    /// The tiles that received a release in the latest [`tick`](Self::tick)
    /// — the only ones whose [`is_released`](Self::is_released) can have
    /// turned true in it.
    pub fn released_this_tick(&self) -> impl Iterator<Item = Coord> + '_ {
        let w = self.width as usize;
        (self.released_now.iter()).map(move |&i| Coord::new((i % w) as u8, (i / w) as u8))
    }

    /// Host work: nodes [`tick`](Self::tick) has evaluated so far.
    pub fn node_visits(&self) -> u64 {
        self.node_visits
    }

    /// Advances the barrier network one cycle.
    pub fn tick(&mut self) {
        self.cycle += 1;
        self.released_now.clear();

        // Deliver in-flight signals (sent last cycle).
        for t in self.up_in_flight.drain(..) {
            self.nodes[t].recv += 1;
            self.dirty.insert(t);
        }
        std::mem::swap(&mut self.wake_in_flight, &mut self.waking);
        for &t in &self.waking {
            self.nodes[t].released += 1;
            self.released_now.push(t);
            if self.bypassed[t] {
                self.dirty.insert(t);
            }
            // Forward the wake to this node's children next cycle.
            self.wake_in_flight.extend(&self.children[t]);
        }
        self.waking.clear();

        // Send up-signals where a node has joined and gathered its children,
        // in node order (the order the in-flight lists are filled in).
        let mut cursor = 0;
        while let Some(i) = self.dirty.first_from(cursor) {
            cursor = i + 1;
            self.dirty.remove(i);
            self.node_visits += 1;
            if self.send_if_ready(i) {
                // Its `sent` moved: look again next tick.
                self.dirty.insert(i);
            }
        }
    }

    /// Sends node `i`'s up-signal (the root: fires the round) if it has
    /// joined the round it is due to send and gathered its children.
    fn send_if_ready(&mut self, i: usize) -> bool {
        let nchild = self.children[i].len() as u64;
        let n = &self.nodes[i];
        let round = n.sent; // next round to send is round `sent`
                            // A bypassed node joins instantly each round, paced by its own
                            // releases (like a tile that re-joins the moment it is woken), so it
                            // can never flood its parent ahead of the live tiles.
        let joined = if self.bypassed[i] {
            n.sent <= n.released
        } else {
            n.joins > round
        };
        if !(joined && n.recv >= (round + 1) * nchild) {
            return false;
        }
        self.nodes[i].sent += 1;
        match self.parent[i] {
            Some(p) => self.up_in_flight.push(p),
            None => {
                // Root fires: release itself now, wake children next cycle.
                self.nodes[i].released += 1;
                self.released_now.push(i);
                self.rounds += 1;
                self.wake_in_flight.extend(&self.children[i]);
            }
        }
        true
    }

    /// After a decode: checks the shape and every node index, then
    /// re-derives `children` from `parent` (in node order, as `new` does)
    /// and marks every node for re-evaluation.
    fn rebuild_children(&mut self) -> Result<(), hb_mem::SnapError> {
        use hb_mem::SnapError;
        let n = self.width as usize * self.height as usize;
        if [self.parent.len(), self.nodes.len(), self.bypassed.len()] != [n; 3] {
            return Err(SnapError::Bad("BarrierNetwork shape mismatch"));
        }
        if self.parent.iter().flatten().any(|&p| p >= n) {
            return Err(SnapError::Bad("BarrierNetwork parent out of range"));
        }
        if (self.up_in_flight.iter().chain(&self.wake_in_flight)).any(|&t| t >= n) {
            return Err(SnapError::Bad(
                "BarrierNetwork in-flight index out of range",
            ));
        }
        self.children = vec![Vec::new(); n];
        for (i, p) in self.parent.iter().enumerate() {
            if let Some(p) = *p {
                self.children[p].push(i);
            }
        }
        // Which nodes are due a look is not in the stream: look at them all.
        self.dirty = WorkSet::full(n);
        Ok(())
    }
}

hb_mem::snap_value!(NodeState {
    joins,
    sent,
    recv,
    released,
    consumed
});
// The tree is config-derived, but saving `parent` lets a decode validate it
// and rebuild `children` without re-deriving group geometry.
hb_mem::snap_value!(BarrierNetwork [b"BARR"] {
    width, height, ruche_factor, parent, nodes, bypassed, up_in_flight, wake_in_flight,
    cycle, rounds; derived children, dirty, waking, released_now, node_visits
} check rebuild_children);

/// The all-nodes scan the dirty-node worklist replaced, kept as the oracle
/// of `dirty_node_tick_matches_the_all_nodes_scan`.
#[cfg(test)]
impl BarrierNetwork {
    fn tick_reference(&mut self) {
        self.cycle += 1;
        for &t in &std::mem::take(&mut self.up_in_flight) {
            self.nodes[t].recv += 1;
        }
        let wakes = std::mem::take(&mut self.wake_in_flight);
        for &t in &wakes {
            self.nodes[t].released += 1;
            for &c in &self.children[t] {
                self.wake_in_flight.push(c);
            }
        }
        for i in 0..self.nodes.len() {
            self.send_if_ready(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_coords(w: u8, h: u8) -> impl Iterator<Item = Coord> {
        (0..h).flat_map(move |y| (0..w).map(move |x| Coord::new(x, y)))
    }

    /// Runs one barrier round where all tiles join at cycle 0; returns the
    /// cycle at which the last tile is released.
    fn barrier_latency(net: &mut BarrierNetwork, w: u8, h: u8) -> u64 {
        for c in all_coords(w, h) {
            net.join(c);
        }
        for _ in 0..10_000 {
            net.tick();
            if all_coords(w, h).all(|c| net.is_released(c)) {
                for c in all_coords(w, h) {
                    net.consume_release(c);
                }
                return net.cycle();
            }
        }
        panic!("barrier never completed");
    }

    #[test]
    fn single_tile_barrier_is_immediate() {
        let mut net = BarrierNetwork::tree_for_group(1, 1, 3);
        let lat = barrier_latency(&mut net, 1, 1);
        assert!(lat <= 2);
    }

    #[test]
    fn ruche_reaches_root_in_paper_latency() {
        // Paper Figure 4: in a 16-wide group with Ruche-3 links, the signal
        // from the remotest tile reaches the root in ~8 cycles; a full
        // 16x8-group barrier (up + wake) completes in well under the
        // software alternative (hundreds of cycles).
        let mut net = BarrierNetwork::tree_for_group(16, 8, 3);
        let lat = barrier_latency(&mut net, 16, 8);
        assert!(
            (8..=24).contains(&lat),
            "16x8 ruche barrier latency {lat} outside expected range"
        );
    }

    #[test]
    fn mesh_barrier_is_slower_than_ruche() {
        let mut mesh = BarrierNetwork::tree_for_group(16, 8, 0);
        let mut ruche = BarrierNetwork::tree_for_group(16, 8, 3);
        let lm = barrier_latency(&mut mesh, 16, 8);
        let lr = barrier_latency(&mut ruche, 16, 8);
        assert!(lr < lm, "ruche {lr} not faster than mesh {lm}");
    }

    #[test]
    fn barrier_waits_for_stragglers() {
        let mut net = BarrierNetwork::tree_for_group(4, 4, 3);
        // All but one join.
        for c in all_coords(4, 4).skip(1) {
            net.join(c);
        }
        for _ in 0..100 {
            net.tick();
        }
        assert!(
            all_coords(4, 4).all(|c| !net.is_released(c)),
            "barrier released without every tile joining"
        );
        net.join(Coord::new(0, 0));
        for _ in 0..100 {
            net.tick();
        }
        assert!(all_coords(4, 4).all(|c| net.is_released(c)));
    }

    #[test]
    fn repeated_rounds_work() {
        let mut net = BarrierNetwork::tree_for_group(8, 4, 3);
        let mut last = 0;
        for round in 1..=5 {
            let at = barrier_latency(&mut net, 8, 4);
            assert!(at > last);
            last = at;
            assert_eq!(net.rounds(), round);
        }
    }

    #[test]
    fn latency_scales_sublinearly_with_ruche() {
        // Barrier latency for a 16-wide group should be much less than the
        // 15-hop mesh distance when ruche links are available.
        let mut net = BarrierNetwork::tree_for_group(16, 1, 3);
        let lat = barrier_latency(&mut net, 16, 1);
        assert!(lat <= 10, "16x1 ruche barrier took {lat} cycles");
    }

    /// Like `barrier_latency` but only the tiles in `live` join/consume.
    fn masked_round(net: &mut BarrierNetwork, live: &[Coord]) -> u64 {
        for &c in live {
            net.join(c);
        }
        for _ in 0..10_000 {
            net.tick();
            if live.iter().all(|&c| net.is_released(c)) {
                for &c in live {
                    net.consume_release(c);
                }
                return net.cycle();
            }
        }
        panic!("masked barrier never completed");
    }

    #[test]
    fn bypassed_tiles_do_not_block_the_barrier() {
        let mut net = BarrierNetwork::tree_for_group(4, 4, 3);
        let dead = [Coord::new(0, 0), Coord::new(2, 1)];
        for d in dead {
            net.bypass(d);
            assert!(net.is_bypassed(d));
        }
        let live: Vec<Coord> = all_coords(4, 4).filter(|c| !dead.contains(c)).collect();
        // Without the bypass these rounds would hang (see
        // barrier_waits_for_stragglers); with it they complete repeatedly.
        let mut last = 0;
        for round in 1..=4 {
            let at = masked_round(&mut net, &live);
            assert!(at > last, "round {round} did not advance");
            last = at;
            assert_eq!(net.rounds(), round);
        }
    }

    #[test]
    fn bypassing_the_root_still_converges() {
        let mut net = BarrierNetwork::tree_for_group(4, 4, 3);
        let root = Coord::new(2, 2);
        net.bypass(root);
        let live: Vec<Coord> = all_coords(4, 4).filter(|&c| c != root).collect();
        masked_round(&mut net, &live);
        masked_round(&mut net, &live);
        assert_eq!(net.rounds(), 2);
    }

    #[test]
    fn bypassed_nodes_cannot_release_a_round_early() {
        // A bypassed leaf shares a parent with live tiles; the parent must
        // not fire until the live tiles actually join.
        let mut net = BarrierNetwork::tree_for_group(4, 1, 0);
        net.bypass(Coord::new(0, 0));
        for _ in 0..200 {
            net.tick();
        }
        assert_eq!(
            net.rounds(),
            0,
            "barrier completed with no live tile joining"
        );
        let live: Vec<Coord> = (1..4).map(|x| Coord::new(x, 0)).collect();
        masked_round(&mut net, &live);
        assert_eq!(net.rounds(), 1);
    }

    /// The dirty-node tick against the scan of every node it replaced, in
    /// lockstep under seeded join traffic (pipelined rounds, bypassed
    /// nodes, tiles that join twice before consuming): node counters, both
    /// in-flight lists *in order* (they are checkpointed) and the round
    /// count agree after every tick, and `released_this_tick` names exactly
    /// the nodes whose release count moved.
    #[test]
    fn dirty_node_tick_matches_the_all_nodes_scan() {
        for (seed, (w, h, rf)) in [
            (1, (16, 8, 3)),
            (2, (8, 4, 0)),
            (3, (5, 3, 3)),
            (4, (1, 1, 0)),
        ] {
            let mut rng = hb_rng::Rng::seed_from_u64(seed);
            let mut fast = BarrierNetwork::tree_for_group(w, h, rf);
            let coords: Vec<Coord> = all_coords(w, h).collect();
            let dead: Vec<Coord> = (coords.iter().copied())
                .filter(|_| coords.len() > 4 && rng.chance(0.1))
                .collect();
            for &d in &dead {
                fast.bypass(d);
            }
            let mut slow = fast.clone();
            // Joins a live tile still owes a consume for.
            let mut owed = vec![0u32; coords.len()];
            for t in 0..3000 {
                for (i, &c) in coords.iter().enumerate() {
                    if dead.contains(&c) {
                        continue;
                    }
                    // Mostly one join per round; rarely a second on top.
                    let eager = if owed[i] == 0 { 0.05 } else { 0.002 };
                    if rng.chance(eager) {
                        fast.join(c);
                        slow.join(c);
                        owed[i] += 1;
                    }
                }
                let before: Vec<u64> = fast.nodes.iter().map(|n| n.released).collect();
                fast.tick();
                slow.tick_reference();
                assert_eq!(fast.nodes, slow.nodes, "seed {seed} tick {t}");
                assert_eq!(fast.up_in_flight, slow.up_in_flight, "seed {seed} tick {t}");
                assert_eq!(
                    fast.wake_in_flight, slow.wake_in_flight,
                    "seed {seed} tick {t}"
                );
                assert_eq!(fast.rounds, slow.rounds);
                let mut named: Vec<Coord> = fast.released_this_tick().collect();
                named.sort();
                let mut moved: Vec<Coord> = (coords.iter().copied().zip(&before))
                    .filter(|&(c, &b)| fast.nodes[fast.idx(c)].released > b)
                    .map(|(c, _)| c)
                    .collect();
                moved.sort();
                assert_eq!(named, moved, "seed {seed} tick {t}");
                for (i, &c) in coords.iter().enumerate() {
                    if owed[i] > 0 && fast.is_released(c) {
                        fast.consume_release(c);
                        slow.consume_release(c);
                        owed[i] -= 1;
                    }
                }
            }
            assert!(
                fast.rounds() > 5,
                "seed {seed}: only {} rounds",
                fast.rounds()
            );
            assert!(
                fast.node_visits() < 3000 * coords.len() as u64 / 4 + 64,
                "seed {seed}: {} node visits is not activity-proportional",
                fast.node_visits()
            );
        }
    }

    #[test]
    fn idle_barrier_ticks_visit_no_node() {
        let mut net = BarrierNetwork::tree_for_group(16, 8, 3);
        barrier_latency(&mut net, 16, 8);
        for _ in 0..4 {
            net.tick();
        }
        let settled = net.node_visits();
        for _ in 0..1000 {
            net.tick();
        }
        assert_eq!(net.node_visits(), settled);
    }

    #[test]
    #[should_panic(expected = "no barrier root")]
    fn rejects_rootless_config() {
        let configs = [
            BarrierConfig {
                output: Some(Dir::East),
            },
            BarrierConfig {
                output: Some(Dir::West),
            },
        ];
        let _ = BarrierNetwork::new(2, 1, 0, &configs);
    }
}
