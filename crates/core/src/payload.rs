//! Packet payloads carried on the request and response networks.
//!
//! Every RISC-V remote memory operation becomes one single-flit request
//! packet; Load Packet Compression lets one packet carry up to four
//! consecutive word loads (one base address plus destination-register
//! bookkeeping kept at the issuing tile).

use hb_cache::amo_op;
use hb_isa::AmoOp;
use hb_noc::Coord;

/// Identifies a network endpoint across the whole machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId {
    /// Cell index.
    pub cell: u8,
    /// Node coordinate within that Cell's network grid.
    pub coord: Coord,
}

/// A remote memory operation (request-network payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Issuing endpoint (where the response must return).
    pub from: NodeId,
    /// Tile-local operation tag; echoed in the response.
    pub op_id: u32,
    /// The operation.
    pub kind: ReqKind,
}

/// Kinds of [`Request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Load `count` consecutive naturally-aligned values of `width` bytes
    /// starting at `addr` (count > 1 only with Load Packet Compression,
    /// width 4).
    Load {
        /// Target-local byte address (SPM offset or Cell-DRAM address).
        addr: u32,
        /// Access width: 1, 2 or 4.
        width: u8,
        /// Number of consecutive words (1..=4).
        count: u8,
    },
    /// Store `width` bytes of `data` at `addr`.
    Store {
        /// Target-local byte address.
        addr: u32,
        /// Access width: 1, 2 or 4.
        width: u8,
        /// Data (low `width` bytes significant).
        data: u32,
    },
    /// Atomic read-modify-write of the word at `addr`; returns the old
    /// value.
    Amo {
        /// Target-local byte address (word aligned).
        addr: u32,
        /// The atomic operation.
        op: AmoOp,
        /// Operand.
        data: u32,
    },
}

impl ReqKind {
    /// Bytes of payload data this request reads or writes at the target.
    pub fn bytes(&self) -> u32 {
        match *self {
            ReqKind::Load { width, count, .. } => u32::from(width) * u32::from(count),
            ReqKind::Store { width, .. } => u32::from(width),
            ReqKind::Amo { .. } => 4,
        }
    }
}

/// A completion (response-network payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Tag from the originating request.
    pub op_id: u32,
    /// The completion data.
    pub kind: RespKind,
}

/// Kinds of [`Response`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespKind {
    /// Loaded values (`count` of them, zero-extended words).
    Load {
        /// One word per compressed load.
        data: [u32; 4],
        /// Valid entries in `data`.
        count: u8,
    },
    /// A store was performed (scoreboard credit).
    StoreAck,
    /// Old value from an atomic operation.
    AmoOld {
        /// The value before the AMO applied.
        data: u32,
    },
}

hb_mem::snap_value!(NodeId { cell, coord });
hb_mem::snap_value!(Request { from, op_id, kind });
hb_mem::snap_enum!(ReqKind, "unknown request kind tag" {
    0 => Load { addr, width, count },
    1 => Store { addr, width, data },
    2 => Amo { addr, op [amo_op], data },
});
hb_mem::snap_value!(Response { op_id, kind });
hb_mem::snap_enum!(RespKind, "unknown response kind tag" {
    0 => Load { data, count },
    1 => StoreAck,
    2 => AmoOld { data },
});

#[cfg(test)]
mod tests {
    use super::*;
    use hb_mem::{Snap, SnapReader, SnapWriter};

    #[test]
    fn request_sizes() {
        let load4 = ReqKind::Load {
            addr: 0,
            width: 4,
            count: 4,
        };
        assert_eq!(load4.bytes(), 16);
        let store = ReqKind::Store {
            addr: 0,
            width: 2,
            data: 7,
        };
        assert_eq!(store.bytes(), 2);
        let amo = ReqKind::Amo {
            addr: 0,
            op: AmoOp::Add,
            data: 1,
        };
        assert_eq!(amo.bytes(), 4);
    }

    #[test]
    fn payload_codecs_round_trip() {
        let reqs = [
            Request {
                from: NodeId {
                    cell: 1,
                    coord: Coord { x: 3, y: 4 },
                },
                op_id: 77,
                kind: ReqKind::Load {
                    addr: 0x1234,
                    width: 4,
                    count: 3,
                },
            },
            Request {
                from: NodeId {
                    cell: 0,
                    coord: Coord { x: 0, y: 9 },
                },
                op_id: 1,
                kind: ReqKind::Store {
                    addr: 8,
                    width: 2,
                    data: 0xbeef,
                },
            },
            Request {
                from: NodeId {
                    cell: 2,
                    coord: Coord { x: 15, y: 1 },
                },
                op_id: u32::MAX,
                kind: ReqKind::Amo {
                    addr: 64,
                    op: AmoOp::Maxu,
                    data: 5,
                },
            },
        ];
        let resps = [
            Response {
                op_id: 77,
                kind: RespKind::Load {
                    data: [1, 2, 3, 0],
                    count: 3,
                },
            },
            Response {
                op_id: 1,
                kind: RespKind::StoreAck,
            },
            Response {
                op_id: 9,
                kind: RespKind::AmoOld { data: 0xffff_0000 },
            },
        ];
        let mut w = SnapWriter::new();
        reqs.save(&mut w);
        resps.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(Snap::load(&mut r), Ok(reqs));
        assert_eq!(Snap::load(&mut r), Ok(resps));
        r.finish().unwrap();
    }
}
