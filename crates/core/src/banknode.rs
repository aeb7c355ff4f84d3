//! The network adapter in front of each cache bank: unpacks request
//! packets (including compressed multi-word loads) into bank accesses and
//! re-packs completions into response packets.

use crate::payload::{NodeId, ReqKind, Request, RespKind, Response};
use hb_cache::{AccessKind, CacheBank, CacheRequest, Stall};
use hb_noc::{Coord, Packet};
use std::collections::VecDeque;

/// An in-progress request group (one network request = one group; a
/// compressed load spawns several bank accesses).
#[derive(Debug)]
struct Group {
    from: NodeId,
    op_id: u32,
    kind: GroupKind,
    remaining: u8,
    count: u8,
    data: [u32; 4],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupKind {
    Load,
    Store,
    Amo,
}

const INBOX_CAP: usize = 8;
const RESP_CAP: usize = 8;

/// A cache bank plus its packet adapter.
#[derive(Debug)]
pub struct BankNode {
    /// The bank itself.
    pub bank: CacheBank,
    /// This node's network coordinate.
    pub coord: Coord,
    /// Incoming request packets (fed by the Cell from the request network).
    pub inbox: VecDeque<Packet<Request>>,
    /// Outgoing response packets: (destination cell, packet).
    pub resp_outbox: VecDeque<(u8, Packet<Response>)>,
    /// Bank accesses awaiting `try_accept`.
    expansion: VecDeque<CacheRequest>,
    /// Open groups by id, ascending (ids are handed out in order); at most
    /// `RESP_CAP` of them, so a scan finds one.
    groups: Vec<(u64, Group)>,
    next_group: u64,
}

impl BankNode {
    /// Wraps a bank at the given network coordinate.
    pub fn new(bank: CacheBank, coord: Coord) -> BankNode {
        BankNode {
            bank,
            coord,
            inbox: VecDeque::new(),
            resp_outbox: VecDeque::new(),
            expansion: VecDeque::new(),
            groups: Vec::new(),
            next_group: 0,
        }
    }

    /// Whether the Cell may push another request packet this cycle.
    pub fn can_take(&self) -> bool {
        self.inbox.len() < INBOX_CAP
    }

    /// Whether a tick unpacks a packet: one waits in the inbox, the last
    /// one's accesses are all fed, and there is room to answer it. A packet
    /// entering the inbox or a drained `resp_outbox` can make it true.
    pub fn unpacks(&self) -> bool {
        !self.inbox.is_empty()
            && self.expansion.is_empty()
            && self.resp_outbox.len() < RESP_CAP
            && self.groups.len() < RESP_CAP
    }

    /// What a tick would record if it can do nothing else, or `None` if it
    /// could do more: the adapter can neither unpack a packet nor feed an
    /// access into the bank, and the bank itself can only stall
    /// ([`CacheBank::stall`]). Only a refill completing into the bank, or
    /// a change that lets the adapter unpack, can end it.
    pub fn stall(&self) -> Option<Stall> {
        let feeds = !self.expansion.is_empty() && self.bank.can_accept();
        if self.unpacks() || feeds {
            return None;
        }
        let stall = self.bank.stall()?;
        Some(Stall {
            rejected_input: !self.expansion.is_empty(),
            ..stall
        })
    }

    /// The snapshot [`save_state`](hb_mem::SnapState::save_state) writes
    /// once the bank's clock is brought up to `clock`
    /// ([`CacheBank::save_state_at`]).
    pub fn save_state_at(&self, clock: u64, w: &mut hb_mem::SnapWriter) {
        use hb_mem::Snap;
        w.tag(b"BNOD");
        self.bank.save_state_at(clock, w);
        self.inbox.save(w);
        self.resp_outbox.save(w);
        self.expansion.save(w);
        self.groups.save(w);
        self.next_group.save(w);
    }

    /// After a restore: group ids ascend, and each open group still waits
    /// for exactly the accesses the adapter and the bank hold for it, so
    /// every completion finds its group.
    fn check_groups(&mut self) -> Result<(), hb_mem::SnapError> {
        let held: Vec<u64> = (self.expansion.iter().map(|r| r.id))
            .chain(self.bank.held_ids())
            .collect();
        let waits = |gid: u64| held.iter().filter(|&&id| id / 4 == gid).count();
        let ascending = self.groups.windows(2).all(|w| w[0].0 < w[1].0);
        let owed = (self.groups.iter()).all(|(id, g)| waits(*id) == usize::from(g.remaining));
        let open: usize = (self.groups.iter())
            .map(|(_, g)| usize::from(g.remaining))
            .sum();
        if !(ascending && owed && open == held.len()) {
            return Err(hb_mem::SnapError::Bad("BankNode groups disagree"));
        }
        Ok(())
    }

    /// Advances the adapter + bank one cycle. The Cell separately services
    /// the bank's DRAM side.
    pub fn tick(&mut self) {
        // Unpack one packet into bank accesses when there is room to
        // eventually respond (reserving response space avoids
        // request-response deadlock).
        if self.expansion.is_empty()
            && self.resp_outbox.len() < RESP_CAP
            && self.groups.len() < RESP_CAP
        {
            if let Some(pkt) = self.inbox.pop_front() {
                let req = pkt.payload;
                let gid = self.next_group;
                self.next_group += 1;
                let (kind, count) = match req.kind {
                    ReqKind::Load { addr, width, count } => {
                        for i in 0..count {
                            self.expansion.push_back(CacheRequest {
                                id: gid * 4 + u64::from(i),
                                addr: addr + u32::from(i) * u32::from(width),
                                kind: AccessKind::Load,
                                data: 0,
                                width,
                            });
                        }
                        (GroupKind::Load, count)
                    }
                    ReqKind::Store { addr, width, data } => {
                        self.expansion.push_back(CacheRequest {
                            id: gid * 4,
                            addr,
                            kind: AccessKind::Store,
                            data,
                            width,
                        });
                        (GroupKind::Store, 1)
                    }
                    ReqKind::Amo { addr, op, data } => {
                        self.expansion.push_back(CacheRequest {
                            id: gid * 4,
                            addr,
                            kind: AccessKind::Amo(op),
                            data,
                            width: 4,
                        });
                        (GroupKind::Amo, 1)
                    }
                };
                self.groups.push((
                    gid,
                    Group {
                        from: req.from,
                        op_id: req.op_id,
                        kind,
                        remaining: count,
                        count,
                        data: [0; 4],
                    },
                ));
            }
        }

        // Feed the bank.
        while let Some(&req) = self.expansion.front() {
            if self.bank.try_accept(req) {
                self.expansion.pop_front();
            } else {
                break;
            }
        }

        self.bank.tick();

        // Collect bank completions into response packets.
        while let Some(resp) = self.bank.pop_response() {
            let gid = resp.id / 4;
            let idx = (resp.id % 4) as usize;
            let at = (self.groups.iter())
                .position(|&(id, _)| id == gid)
                .expect("bank response without group");
            let group = &mut self.groups[at].1;
            group.data[idx] = resp.data;
            group.remaining -= 1;
            if group.remaining == 0 {
                let (_, group) = self.groups.remove(at);
                let kind = match group.kind {
                    GroupKind::Load => RespKind::Load {
                        data: group.data,
                        count: group.count,
                    },
                    GroupKind::Store => RespKind::StoreAck,
                    GroupKind::Amo => RespKind::AmoOld {
                        data: group.data[0],
                    },
                };
                self.resp_outbox.push_back((
                    group.from.cell,
                    Packet {
                        src: self.coord,
                        dst: group.from.coord,
                        payload: Response {
                            op_id: group.op_id,
                            kind,
                        },
                    },
                ));
            }
        }
    }
}

hb_mem::snap_enum!(GroupKind, "unknown group kind tag" {
    0 => Load,
    1 => Store,
    2 => Amo,
});
hb_mem::snap_value!(Group {
    from,
    op_id,
    kind,
    remaining,
    count,
    data
});
hb_mem::snap_state!(BankNode [b"BNOD"] {
    save: bank, inbox, resp_outbox, expansion, groups, next_group;
    host: coord;
} check check_groups);

#[cfg(test)]
mod tests {
    use super::*;
    use hb_cache::{CacheConfig, LineRequestKind};

    fn node() -> BankNode {
        BankNode::new(CacheBank::new(CacheConfig::default()), Coord::new(0, 0))
    }

    fn mk_load(op_id: u32, addr: u32, count: u8) -> Packet<Request> {
        Packet {
            src: Coord::new(1, 1),
            dst: Coord::new(0, 0),
            payload: Request {
                from: NodeId {
                    cell: 0,
                    coord: Coord::new(1, 1),
                },
                op_id,
                kind: ReqKind::Load {
                    addr,
                    width: 4,
                    count,
                },
            },
        }
    }

    /// Services the bank's memory side with zero-latency DRAM.
    fn service_mem(node: &mut BankNode, backing: &mut [u8]) {
        while let Some(mreq) = node.bank.pop_mem_request() {
            match mreq.kind {
                LineRequestKind::Fetch => {
                    let a = mreq.line_addr as usize;
                    let line: Vec<u8> = backing[a..a + 64].to_vec();
                    node.bank.complete_fetch(mreq.line_addr, &line);
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
    }

    #[test]
    fn compressed_load_returns_four_words() {
        let mut n = node();
        let mut mem = vec![0u8; 4096];
        for i in 0..4u32 {
            mem[(0x100 + 4 * i) as usize..(0x104 + 4 * i) as usize]
                .copy_from_slice(&(10 + i).to_le_bytes());
        }
        n.inbox.push_back(mk_load(7, 0x100, 4));
        for _ in 0..40 {
            n.tick();
            service_mem(&mut n, &mut mem);
        }
        let (cell, pkt) = n.resp_outbox.pop_front().expect("response");
        assert_eq!(cell, 0);
        assert_eq!(pkt.dst, Coord::new(1, 1));
        assert_eq!(pkt.payload.op_id, 7);
        match pkt.payload.kind {
            RespKind::Load { data, count } => {
                assert_eq!(count, 4);
                assert_eq!(data, [10, 11, 12, 13]);
            }
            other => panic!("wrong response {other:?}"),
        }
    }

    #[test]
    fn store_gets_single_ack() {
        let mut n = node();
        n.inbox.push_back(Packet {
            src: Coord::new(2, 3),
            dst: Coord::new(0, 0),
            payload: Request {
                from: NodeId {
                    cell: 1,
                    coord: Coord::new(2, 3),
                },
                op_id: 9,
                kind: ReqKind::Store {
                    addr: 0x40,
                    width: 4,
                    data: 5,
                },
            },
        });
        for _ in 0..10 {
            n.tick();
        }
        let (cell, pkt) = n.resp_outbox.pop_front().expect("ack");
        assert_eq!(cell, 1);
        assert_eq!(pkt.payload.kind, RespKind::StoreAck);
    }

    /// A restored adapter finds a group for every completion: group ids out
    /// of order, or an access whose group is gone, are refused.
    #[test]
    fn restore_refuses_groups_the_bank_disagrees_with() {
        use hb_mem::{SnapError, SnapReader, SnapState, SnapWriter};
        let mut n = node();
        n.inbox.push_back(mk_load(1, 0x100, 2));
        n.inbox.push_back(mk_load(2, 0x2000, 1));
        // Memory never answers: both groups stay open on their misses.
        for _ in 0..4 {
            n.tick();
        }
        let reload = |n: &BankNode| {
            let mut w = SnapWriter::new();
            n.save_state(&mut w);
            node().load_state(&mut SnapReader::new(&w.into_bytes()))
        };
        assert_eq!(reload(&n), Ok(()));
        let refused = Err(SnapError::Bad("BankNode groups disagree"));
        let (first, second) = (n.groups[0].0, n.groups[1].0);
        n.groups[1].0 = first;
        assert_eq!(reload(&n), refused, "two groups, one id");
        n.groups[1].0 = second + 4;
        assert_eq!(reload(&n), refused, "an access whose group is gone");
    }

    #[test]
    fn one_packet_per_cycle_unpacked() {
        let mut n = node();
        let mut mem = vec![0u8; 1 << 16];
        for i in 0..4 {
            n.inbox.push_back(mk_load(i, 0x1000 * i, 1));
        }
        let mut responses = 0;
        for _ in 0..200 {
            n.tick();
            service_mem(&mut n, &mut mem);
            responses += n.resp_outbox.drain(..).count();
        }
        assert_eq!(responses, 4);
    }

    /// The adapter's side of the sleep predicate. A node in a seeded random
    /// state — blocking and non-blocking banks of 1 or 8 MSHRs, packets
    /// piling up behind a full `input`, a full `resp_outbox` or full
    /// `groups` — is ticked for real and, where [`BankNode::stall`] predicts
    /// a stall, put to sleep instead: the two snapshots agree, settled
    /// `rejected_input` included, and a node that can unpack or feed is
    /// never put to sleep.
    #[test]
    fn a_predicted_stall_is_exactly_what_a_node_tick_records() {
        use hb_mem::{SnapReader, SnapState, SnapWriter};
        let (mut slept, mut fed, mut outbox_full, mut groups_full) = (0, 0, 0, 0);
        for seed in 0..1500u64 {
            let mut rng = hb_rng::Rng::seed_from_u64(seed);
            let cfg = CacheConfig {
                sets: 2,
                ways: 2,
                mshrs: *rng.pick(&[1, 8]),
                blocking: rng.chance(0.3),
                ..CacheConfig::default()
            };
            let fresh = || BankNode::new(CacheBank::new(cfg), Coord::new(0, 0));
            let mut n = fresh();
            let (mut clock, answers) = (0, rng.chance(0.7));
            for op in 0..rng.below(200) as u32 {
                match rng.below(20) {
                    0..=7 => {
                        let addr = rng.range_u32(0, 8) << 11;
                        n.inbox.push_back(mk_load(op, addr, *rng.pick(&[1, 4])));
                    }
                    8..=13 => {
                        n.tick();
                        clock += 1;
                    }
                    14..=18 if answers => {
                        if let Some(r) = n.bank.pop_mem_request() {
                            n.bank.complete_fetch(r.line_addr, &[7; 64]);
                        }
                    }
                    14..=18 => {}
                    _ => n.resp_outbox.clear(),
                }
            }
            let copy = |n: &BankNode| {
                let mut w = SnapWriter::new();
                n.save_state(&mut w);
                let mut c = fresh();
                c.load_state(&mut SnapReader::new(&w.into_bytes())).unwrap();
                c.bank.set_clock(clock);
                c
            };
            let saved_at = |n: &BankNode, at: u64| {
                let mut w = SnapWriter::new();
                n.save_state_at(at, &mut w);
                w.into_bytes()
            };
            let Some(stall) = n.stall() else {
                continue;
            };
            let mut ticked = copy(&n);
            ticked.tick();
            let mut sleeper = copy(&n);
            sleeper.bank.sleep(stall);
            let unpacks = !n.inbox.is_empty()
                && n.expansion.is_empty()
                && n.resp_outbox.len() < RESP_CAP
                && n.groups.len() < RESP_CAP;
            assert!(!unpacks && (n.expansion.is_empty() || !n.bank.can_accept()));
            assert!(
                saved_at(&ticked, clock + 1) == saved_at(&sleeper, clock + 1),
                "seed {seed}: {stall:?} is not what the tick did"
            );
            slept += 1;
            fed += usize::from(stall.rejected_input);
            outbox_full += usize::from(n.resp_outbox.len() == RESP_CAP && !n.inbox.is_empty());
            groups_full += usize::from(n.groups.len() == RESP_CAP && !n.inbox.is_empty());
        }
        assert!(
            slept > 300 && fed > 100 && outbox_full > 0 && groups_full > 0,
            "{slept} slept, {fed} with a rejected feed, {outbox_full} held by the outbox, \
             {groups_full} by the groups"
        );
    }
}
