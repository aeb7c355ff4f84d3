//! PGAS address translation (paper Figure 5).
//!
//! Kernels execute in a Partitioned Global Address Space with five major
//! spaces, selected by the upper bits of a 32-bit EVA (endpoint virtual
//! address). Translation to a network destination is pure combinational
//! logic — no TLB:
//!
//! | bits 31:30 | space |
//! |---|---|
//! | `0b00` | **Local SPM / CSRs** — private to the issuing tile |
//! | `0b01` | **Group SPM** — `[29:24]` = tile Y, `[23:18]` = tile X, `[17:0]` offset |
//! | `0b10` | **Local / Group DRAM** — `[29:24]` = Cell id (63 ⇒ own Cell), `[23:0]` offset |
//! | `0b11` | **Global DRAM** — `[29:0]` offset hashed across every bank on the chip |
//!
//! Within a Cell's DRAM space, *Regional IPOLY hashing* pseudo-randomly
//! spreads cache lines over the Cell's banks, eliminating the partition
//! camping problem of 2^n-stride accesses. The ablation alternative is
//! plain modulo striping.

use crate::MachineConfig;
use hb_noc::Coord;

/// Cell id value meaning "the issuing tile's own Cell" (Local DRAM).
pub const OWN_CELL: u8 = 63;

/// Byte offset of the first CSR in the local space (SPM occupies
/// `0..spm_bytes`).
pub const CSR_BASE: u32 = 0x1000;

/// Tile CSR offsets (relative to address 0 of the local space).
pub mod csr {
    /// X coordinate of this tile within its Cell (read-only).
    pub const TILE_X: u32 = 0x1000;
    /// Y coordinate of this tile within its Cell (read-only).
    pub const TILE_Y: u32 = 0x1004;
    /// Tile-group origin X.
    pub const TG_X: u32 = 0x1008;
    /// Tile-group origin Y.
    pub const TG_Y: u32 = 0x100c;
    /// Tile-group width in tiles.
    pub const TG_W: u32 = 0x1010;
    /// Tile-group height in tiles.
    pub const TG_H: u32 = 0x1014;
    /// Rank of this tile within its group (row-major).
    pub const TG_RANK: u32 = 0x1018;
    /// Number of tiles in this tile's group.
    pub const TG_SIZE: u32 = 0x101c;
    /// Cell shape: tiles per row.
    pub const CELL_W: u32 = 0x1020;
    /// Cell shape: tile rows.
    pub const CELL_H: u32 = 0x1024;
    /// This Cell's id.
    pub const CELL_ID: u32 = 0x1028;
    /// Total Cells in the machine.
    pub const NUM_CELLS: u32 = 0x102c;
    /// Store: join the group barrier and stall until released.
    pub const BARRIER: u32 = 0x1030;
    /// Load: current core cycle (low 32 bits).
    pub const CYCLE: u32 = 0x1034;
    /// Kernel-phase marker (store-only). Architecturally a no-op: the
    /// store retires in one cycle and changes no simulated state, so
    /// kernels may mark phases unconditionally. When telemetry is
    /// attached, the stored value is recorded as an instant event.
    pub const MARK: u32 = 0x1038;
    /// Kernel arguments 0-7 (each 4 bytes).
    pub const ARG0: u32 = 0x1040;
    /// Load: this tile's rank among the *live* (non-disabled) members of
    /// its group, row-major. Equals `TG_RANK` when no tile is disabled;
    /// kernels that stride by rank read this instead so work redistributes
    /// around `MachineConfig::disabled_tiles`.
    pub const TG_LIVE_RANK: u32 = 0x1060;
    /// Load: number of live (non-disabled) tiles in the group. Equals
    /// `TG_SIZE` when no tile is disabled.
    pub const TG_LIVE_SIZE: u32 = 0x1064;
    /// Load: the disabled group-mate this tile adopts, packed as
    /// `(x << 8) | y` in tile coordinates, or `0xffff_ffff` when the tile
    /// has no adoptee. Coordinate-based kernels (Jacobi) use this to take
    /// over a dead tile's slice through its still-live scratchpad NI.
    pub const TG_ADOPT: u32 = 0x1068;

    /// Whether a load of CSR `offset` reads a value: every named word but
    /// the store-only `BARRIER` and `MARK`, and any byte of an argument.
    /// Every other offset of the window traps on a load.
    pub const fn loadable(offset: u32) -> bool {
        let word = offset.is_multiple_of(4);
        (offset >= ARG0 && offset < ARG0 + 32)
            || (word && matches!(offset, TILE_X..=NUM_CELLS | CYCLE | TG_LIVE_RANK..=TG_ADOPT))
    }

    /// What a load at `offset` reads of the CSR word holding it: the word
    /// shifted so the addressed byte is the low one. The load then keeps
    /// its one, two or four low bytes and sign- or zero-extends them by its
    /// opcode, as from memory — so `lb` at `ARG0 + 1` of `0x8899aabb`
    /// reads `0xffffffaa` on the tile and in the ISS alike.
    pub const fn narrow(word: u32, offset: u32) -> u32 {
        word >> (8 * (offset % 4))
    }
}

/// `TG_ADOPT` value meaning "no adoptee".
pub const NO_ADOPTEE: u32 = u32::MAX;

/// Builds a Local-SPM EVA (offset within the issuing tile's scratchpad).
pub const fn local_spm(offset: u32) -> u32 {
    offset
}

/// Builds a Group-SPM EVA addressing `offset` within tile (`x`, `y`) of the
/// issuing tile's Cell.
pub const fn group_spm(x: u8, y: u8, offset: u32) -> u32 {
    (1 << 30) | ((y as u32) << 24) | ((x as u32) << 18) | (offset & 0x3ffff)
}

/// Builds a Local-DRAM EVA (the issuing tile's own Cell).
pub const fn local_dram(offset: u32) -> u32 {
    (1 << 31) | ((OWN_CELL as u32) << 24) | (offset & 0xff_ffff)
}

/// Builds a Group-DRAM EVA addressing Cell `cell`'s Local DRAM.
pub const fn group_dram(cell: u8, offset: u32) -> u32 {
    (1 << 31) | ((cell as u32) << 24) | (offset & 0xff_ffff)
}

/// Builds a Global-DRAM EVA (hashed across all banks of all Cells).
pub const fn global_dram(offset: u32) -> u32 {
    (0b11 << 30) | (offset & 0x3fff_ffff)
}

/// An EVA split into the fields of its space (Fig. 5) and checked against
/// the map, before [`OWN_CELL`] is resolved or a bank chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eva {
    /// Byte `offset` of the issuing tile's scratchpad.
    Spm { offset: u32 },
    /// The issuing tile's CSR at `offset` (see [`csr`]).
    Csr { offset: u32 },
    /// Byte `offset` of the scratchpad of tile (`x`, `y`) of the issuing
    /// Cell.
    GroupSpm { x: u8, y: u8, offset: u32 },
    /// Byte `offset` of Cell `cell`'s DRAM window, the Cell field as
    /// written ([`OWN_CELL`] names the issuer's).
    Dram { cell: u8, offset: u32 },
    /// Global DRAM: a 30-bit `offset` hashed over every bank of the machine.
    Global { offset: u32 },
}

/// Which field of an EVA names no resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvaFault {
    /// Local space outside both the SPM and the CSR window.
    Local,
    /// A Group-SPM tile outside the Cell.
    NoTile { x: u8, y: u8 },
    /// A Group-SPM access past the end of the scratchpad.
    SpmOverrun { offset: u32 },
    /// A DRAM Cell the machine does not have.
    NoCell { cell: u8 },
    /// A DRAM access past the end of the Cell's window.
    DramOverrun { offset: u32 },
}

/// Where a translated EVA lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// The issuing tile's own scratchpad.
    LocalSpm {
        /// Byte offset within the SPM.
        offset: u32,
    },
    /// A tile CSR (local space above the SPM).
    Csr {
        /// CSR address (see [`csr`]).
        offset: u32,
    },
    /// Another tile's scratchpad in the same Cell.
    RemoteSpm {
        /// Target tile, in tile coordinates within the Cell.
        tile: Coord,
        /// Byte offset within that SPM.
        offset: u32,
    },
    /// A cache bank backed by some Cell's DRAM.
    Bank {
        /// Target Cell id.
        cell: u8,
        /// Bank index within that Cell (0..2*cell_width).
        bank: usize,
        /// Cell-local DRAM byte address.
        addr: u32,
    },
}

/// Error for EVAs that name nonexistent resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadEva {
    /// The offending address.
    pub eva: u32,
}

impl std::fmt::Display for BadEva {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EVA {:#010x} does not map to any resource", self.eva)
    }
}

impl std::error::Error for BadEva {}

/// The per-tile combinational translation unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PgasMap {
    /// Issuing tile's Cell id.
    pub cell_id: u8,
    /// Total Cells.
    pub num_cells: u8,
    /// Cell tile-array width.
    pub cell_w: u8,
    /// Cell tile-array height.
    pub cell_h: u8,
    /// SPM size in bytes.
    pub spm_bytes: u32,
    /// Cache line size.
    pub line_bytes: u32,
    /// DRAM window per Cell.
    pub dram_bytes: u32,
    /// Regional IPOLY hashing (vs modulo striping).
    pub ipoly: bool,
}

impl PgasMap {
    /// The map of Cell `cell_id` of a machine built from `cfg`.
    pub fn new(cfg: &MachineConfig, cell_id: u8) -> PgasMap {
        PgasMap {
            cell_id,
            num_cells: cfg.num_cells,
            cell_w: cfg.cell_dim.x,
            cell_h: cfg.cell_dim.y,
            spm_bytes: cfg.spm_bytes,
            line_bytes: cfg.line_bytes,
            dram_bytes: cfg.dram_bytes_per_cell,
            ipoly: cfg.ipoly_hashing,
        }
    }

    /// Banks per Cell (two strips).
    pub fn banks(&self) -> usize {
        2 * self.cell_w as usize
    }

    /// Splits `eva` into its space's fields and checks them for an access
    /// of `width` bytes: the only reader of an EVA's bit fields. The tile
    /// translates with width 1 (its own overrun checks come after); the
    /// linter passes the access width.
    ///
    /// # Errors
    ///
    /// Returns the [`EvaFault`] naming the field that maps to no resource.
    #[inline]
    pub fn decode(&self, eva: u32, width: u32) -> Result<Eva, EvaFault> {
        let hi = ((eva >> 24) & 0x3f) as u8; // [29:24]: tile Y or Cell
        match eva >> 30 {
            0b00 if eva + width <= self.spm_bytes => Ok(Eva::Spm { offset: eva }),
            0b00 if (CSR_BASE..CSR_BASE + 0x100).contains(&eva) => Ok(Eva::Csr { offset: eva }),
            0b00 => Err(EvaFault::Local),
            0b01 => {
                let (x, y, offset) = (((eva >> 18) & 0x3f) as u8, hi, eva & 0x3ffff);
                if x >= self.cell_w || y >= self.cell_h {
                    Err(EvaFault::NoTile { x, y })
                } else if offset + width > self.spm_bytes {
                    Err(EvaFault::SpmOverrun { offset })
                } else {
                    Ok(Eva::GroupSpm { x, y, offset })
                }
            }
            0b10 => {
                let (cell, offset) = (hi, eva & 0xff_ffff);
                if cell != OWN_CELL && cell >= self.num_cells {
                    Err(EvaFault::NoCell { cell })
                } else if offset + width > self.dram_bytes {
                    Err(EvaFault::DramOverrun { offset })
                } else {
                    Ok(Eva::Dram { cell, offset })
                }
            }
            _ => Ok(Eva::Global {
                offset: eva & 0x3fff_ffff,
            }),
        }
    }

    /// Translates `eva` from the perspective of the owning tile: the
    /// [decoded](Self::decode) fields with [`OWN_CELL`] resolved and the
    /// DRAM bank chosen.
    ///
    /// # Errors
    ///
    /// Returns [`BadEva`] for addresses outside every space (SPM overrun,
    /// nonexistent tile/Cell, DRAM window overrun).
    pub fn translate(&self, eva: u32) -> Result<Target, BadEva> {
        Ok(match self.decode(eva, 1).map_err(|_| BadEva { eva })? {
            Eva::Spm { offset } => Target::LocalSpm { offset },
            Eva::Csr { offset } => Target::Csr { offset },
            Eva::GroupSpm { x, y, offset } => Target::RemoteSpm {
                tile: Coord::new(x, y),
                offset,
            },
            Eva::Dram { cell, offset } => Target::Bank {
                cell: if cell == OWN_CELL { self.cell_id } else { cell },
                bank: self.bank_for(offset),
                addr: offset,
            },
            Eva::Global { offset } => {
                // Hash the line over (cell, bank) across the whole machine.
                let line = offset >> self.line_bytes.trailing_zeros();
                let banks = self.banks() as u32;
                let total_banks = banks * u32::from(self.num_cells);
                let slot = if self.ipoly {
                    ipoly_hash(line, total_banks)
                } else {
                    line % total_banks
                };
                let cell = (slot >> banks.trailing_zeros()) as u8;
                let bank = (slot & (banks - 1)) as usize;
                // Each Cell stores global lines in the top of its window.
                let addr = offset % self.dram_bytes;
                Target::Bank { cell, bank, addr }
            }
        })
    }

    /// Refuses a `width`-byte access to `eva`, Cell-local DRAM address
    /// `addr`, that leaves its cache line (a power of two,
    /// `MachineConfig::validate`): a bank serves whole lines. A window of
    /// whole lines ends on a line boundary, so this also refuses a word
    /// that would run off its end.
    ///
    /// # Errors
    ///
    /// The trap cause the tile and the functional bus report.
    pub fn check_line(&self, eva: u32, addr: u32, width: u8) -> Result<(), String> {
        if (addr & (self.line_bytes - 1)) + u32::from(width) > self.line_bytes {
            return Err(format!(
                "{width}-byte DRAM access at {eva:#x} crosses its cache line"
            ));
        }
        Ok(())
    }

    /// Bank selection for a Cell-local DRAM address. The line size and
    /// the bank count are powers of two (`MachineConfig::validate`).
    pub fn bank_for(&self, addr: u32) -> usize {
        let line = addr >> self.line_bytes.trailing_zeros();
        let banks = self.banks() as u32;
        let b = if self.ipoly {
            ipoly_hash(line, banks)
        } else {
            line & (banks - 1)
        };
        b as usize
    }

    /// Network coordinate of bank `bank` inside a Cell whose network grid is
    /// `cell_w x (cell_h + 2)` (strip rows at y = 0 and y = cell_h + 1).
    pub fn bank_coord(&self, bank: usize) -> Coord {
        let w = self.cell_w as usize;
        if bank < w {
            Coord::new(bank as u8, 0)
        } else {
            Coord::new((bank - w) as u8, self.cell_h + 1)
        }
    }

    /// Network coordinate of tile (`x`, `y`) (tiles occupy rows
    /// `1..=cell_h`).
    pub fn tile_coord(&self, x: u8, y: u8) -> Coord {
        Coord::new(x, y + 1)
    }

    /// Inverse of [`bank_coord`](Self::bank_coord): which bank sits at a
    /// strip-row network coordinate.
    pub fn coord_to_bank(&self, c: Coord) -> Option<usize> {
        if c.y == 0 {
            Some(c.x as usize)
        } else if c.y == self.cell_h + 1 {
            Some(c.x as usize + self.cell_w as usize)
        } else {
            None
        }
    }

    /// Inverse of [`tile_coord`](Self::tile_coord).
    pub fn coord_to_tile(&self, c: Coord) -> Option<(u8, u8)> {
        if c.y >= 1 && c.y <= self.cell_h {
            Some((c.x, c.y - 1))
        } else {
            None
        }
    }
}

/// Highest IPOLY degree: 128 banks per Cell (a 64-tile-wide Cell) times
/// 128 Cells, the largest power-of-two bank count a machine
/// `MachineConfig::validate` admits can hash global lines over.
const IPOLY_MAX_DEGREE: u32 = 14;

/// Irreducible polynomials over GF(2) by degree, for IPOLY hashing
/// (Rau, "Pseudo-randomly interleaved memory", ISCA 1991).
const IPOLY: [u32; IPOLY_MAX_DEGREE as usize + 1] = [
    0b1,               // degree 0 (unused)
    0b11,              // x + 1
    0b111,             // x^2 + x + 1
    0b1011,            // x^3 + x + 1
    0b10011,           // x^4 + x + 1
    0b100101,          // x^5 + x^2 + 1
    0b1000011,         // x^6 + x + 1
    0b10001001,        // x^7 + x^3 + 1
    0b100011011,       // x^8 + x^4 + x^3 + x + 1
    0b1000010001,      // x^9 + x^4 + 1
    0b10000001001,     // x^10 + x^3 + 1
    0b100000000101,    // x^11 + x^2 + 1
    0b1000001010011,   // x^12 + x^6 + x^4 + x + 1
    0b10000000011011,  // x^13 + x^4 + x^3 + x + 1
    0b100010001000011, // x^14 + x^10 + x^6 + x + 1
];

/// Residue tables: `IPOLY_TABLES[deg][k][b]` is `b << 8k` modulo
/// `IPOLY[deg]`. The residue is linear over GF(2), so a line's residue is
/// the XOR of its four bytes' entries.
static IPOLY_TABLES: [[[u16; 256]; 4]; IPOLY_MAX_DEGREE as usize + 1] = ipoly_tables();

const fn ipoly_tables() -> [[[u16; 256]; 4]; IPOLY_MAX_DEGREE as usize + 1] {
    let mut tables = [[[0u16; 256]; 4]; IPOLY_MAX_DEGREE as usize + 1];
    // Degree 0 hashes everything to bank 0: its tables stay zero.
    let mut deg = 1;
    while deg <= IPOLY_MAX_DEGREE as usize {
        // x^j modulo the polynomial, for every bit j of a line.
        let mut basis = [0u16; 32];
        let mut r = 1u32;
        let mut j = 0;
        while j < 32 {
            basis[j] = r as u16;
            r <<= 1;
            if r & (1 << deg) != 0 {
                r ^= IPOLY[deg];
            }
            j += 1;
        }
        let mut k = 0;
        while k < 4 {
            let mut b = 1;
            while b < 256 {
                // `b` is `b & (b - 1)` (filled earlier) plus its lowest bit.
                let low = (b as u32).trailing_zeros() as usize;
                tables[deg][k][b] = tables[deg][k][b & (b - 1)] ^ basis[8 * k + low];
                b += 1;
            }
            k += 1;
        }
        deg += 1;
    }
    tables
}

/// Hashes a line index into `banks` slots (power of two, at most
/// 2^14) using polynomial residue over GF(2). Unlike
/// modulo striping, stride-2^n access patterns spread evenly over all
/// banks.
pub fn ipoly_hash(line: u32, banks: u32) -> u32 {
    debug_assert!(banks.is_power_of_two() && banks.trailing_zeros() <= IPOLY_MAX_DEGREE);
    let t = &IPOLY_TABLES[banks.trailing_zeros() as usize];
    let [b0, b1, b2, b3] = line.to_le_bytes();
    u32::from(t[0][b0 as usize] ^ t[1][b1 as usize] ^ t[2][b2 as usize] ^ t[3][b3 as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_rng::Rng;

    /// The bit-serial reduction the tables replace: the reference.
    fn ipoly_hash_reference(line: u32, banks: u32) -> u32 {
        let deg = banks.trailing_zeros();
        if deg == 0 {
            return 0;
        }
        let p = IPOLY[deg as usize];
        let mut v = line;
        let mut bit = 31u32;
        while bit >= deg {
            if v & (1 << bit) != 0 {
                v ^= p << (bit - deg);
            }
            if bit == 0 {
                break;
            }
            bit -= 1;
        }
        v & (banks - 1)
    }

    #[test]
    fn the_table_hash_equals_the_bit_loop() {
        let mut rng = Rng::seed_from_u64(34);
        for deg in 0..=IPOLY_MAX_DEGREE {
            let banks = 1u32 << deg;
            for line in 0..1u32 << 16 {
                assert_eq!(
                    ipoly_hash(line, banks),
                    ipoly_hash_reference(line, banks),
                    "line {line:#x}, {banks} banks"
                );
            }
            for _ in 0..1 << 16 {
                let line = rng.next_u32();
                assert_eq!(
                    ipoly_hash(line, banks),
                    ipoly_hash_reference(line, banks),
                    "line {line:#x}, {banks} banks"
                );
            }
        }
    }

    #[test]
    fn every_ipoly_polynomial_is_irreducible() {
        // Residue of `p` modulo `q` over GF(2).
        let rem = |mut p: u32, q: u32| {
            let dq = 31 - q.leading_zeros();
            while p != 0 && 31 - p.leading_zeros() >= dq {
                p ^= q << (31 - p.leading_zeros() - dq);
            }
            p
        };
        for deg in 1..=IPOLY_MAX_DEGREE {
            let p = IPOLY[deg as usize];
            assert_eq!(31 - p.leading_zeros(), deg, "IPOLY[{deg}] has degree {deg}");
            // Trial division by every polynomial of degree 1..=deg/2.
            for q in 2..1u32 << (deg / 2 + 1) {
                assert_ne!(rem(p, q), 0, "IPOLY[{deg}] = {p:#b} is divisible by {q:#b}");
            }
        }
    }

    #[test]
    fn shift_and_mask_selection_equals_div_mod() {
        let mut rng = Rng::seed_from_u64(7);
        for (cell_w, num_cells) in [(1, 1), (2, 2), (4, 1), (8, 4), (16, 1), (16, 2), (64, 2)] {
            for line_bytes in [4, 16, 64] {
                for ipoly in [false, true] {
                    let m = PgasMap {
                        num_cells,
                        cell_w,
                        line_bytes,
                        ipoly,
                        ..map()
                    };
                    let banks = m.banks() as u32;
                    let total = banks * u32::from(num_cells);
                    let hash = |line, n| {
                        if ipoly {
                            ipoly_hash_reference(line, n)
                        } else {
                            line % n
                        }
                    };
                    for _ in 0..2000 {
                        let addr = rng.next_u32() % m.dram_bytes;
                        assert_eq!(m.bank_for(addr), hash(addr / line_bytes, banks) as usize);
                        let offset = rng.next_u32() & 0x3fff_ffff;
                        let slot = hash(offset / line_bytes, total);
                        let want = Target::Bank {
                            cell: (slot / banks) as u8,
                            bank: (slot % banks) as usize,
                            addr: offset % m.dram_bytes,
                        };
                        assert_eq!(m.translate(global_dram(offset)), Ok(want));
                    }
                }
            }
        }
    }

    #[test]
    fn global_lines_reach_every_cell_of_a_16_cell_machine() {
        // 512 banks: past the degree-8 table the hash once stopped at.
        let m = PgasMap {
            num_cells: 16,
            ..map()
        };
        let mut lines = [0u32; 16];
        for i in 0..4096u32 {
            match m.translate(global_dram(i * 64)).unwrap() {
                Target::Bank { cell, bank, .. } => {
                    assert!(bank < 32);
                    lines[cell as usize] += 1;
                }
                other => panic!("wrong target {other:?}"),
            }
        }
        assert_eq!(
            lines, [256; 16],
            "sequential global lines balance over the Cells"
        );
    }

    fn map() -> PgasMap {
        PgasMap {
            cell_id: 2,
            num_cells: 4,
            cell_w: 16,
            cell_h: 8,
            spm_bytes: 4096,
            line_bytes: 64,
            dram_bytes: 16 << 20,
            ipoly: true,
        }
    }

    #[test]
    fn local_spm_translation() {
        let m = map();
        assert_eq!(m.translate(0x0), Ok(Target::LocalSpm { offset: 0 }));
        assert_eq!(m.translate(0xfff), Ok(Target::LocalSpm { offset: 0xfff }));
        assert_eq!(
            m.translate(csr::TILE_X),
            Ok(Target::Csr {
                offset: csr::TILE_X
            })
        );
        assert!(m.translate(0x2000).is_err());
    }

    #[test]
    fn decode_keeps_the_cell_field_and_bounds_the_whole_access() {
        let m = map();
        assert_eq!(
            m.decode(local_dram(0x40), 4),
            Ok(Eva::Dram {
                cell: OWN_CELL,
                offset: 0x40
            })
        );
        let last = group_spm(5, 3, 4092);
        assert!(m.decode(last, 4).is_ok());
        assert_eq!(
            m.decode(last + 2, 4),
            Err(EvaFault::SpmOverrun { offset: 4094 })
        );
        assert!(m.decode(last + 2, 1).is_ok());
        assert_eq!(m.decode(0xffc, 8), Err(EvaFault::Local));
        assert_eq!(
            m.decode(group_dram(9, 0), 4),
            Err(EvaFault::NoCell { cell: 9 })
        );
    }

    #[test]
    fn group_spm_translation() {
        let m = map();
        let eva = group_spm(5, 3, 0x40);
        assert_eq!(
            m.translate(eva),
            Ok(Target::RemoteSpm {
                tile: Coord::new(5, 3),
                offset: 0x40
            })
        );
        // Nonexistent tile.
        assert!(m.translate(group_spm(20, 3, 0)).is_err());
        assert!(m.translate(group_spm(5, 9, 0)).is_err());
        // SPM overrun.
        assert!(m.translate(group_spm(5, 3, 4096)).is_err());
    }

    #[test]
    fn local_dram_resolves_own_cell() {
        let m = map();
        match m.translate(local_dram(0x1234C0)).unwrap() {
            Target::Bank { cell, addr, .. } => {
                assert_eq!(cell, 2);
                assert_eq!(addr, 0x1234C0);
            }
            other => panic!("wrong target {other:?}"),
        }
    }

    #[test]
    fn group_dram_names_other_cells() {
        let m = map();
        match m.translate(group_dram(1, 0x40)).unwrap() {
            Target::Bank { cell, .. } => assert_eq!(cell, 1),
            other => panic!("wrong target {other:?}"),
        }
        assert!(
            m.translate(group_dram(7, 0)).is_err(),
            "cell 7 does not exist"
        );
    }

    #[test]
    fn global_dram_spreads_over_cells() {
        let m = map();
        let mut cells_seen = std::collections::HashSet::new();
        for i in 0..256u32 {
            match m.translate(global_dram(i * 64)).unwrap() {
                Target::Bank { cell, .. } => {
                    assert!(cell < 4);
                    cells_seen.insert(cell);
                }
                other => panic!("wrong target {other:?}"),
            }
        }
        assert_eq!(cells_seen.len(), 4, "global space must touch every cell");
    }

    #[test]
    fn ipoly_defeats_power_of_two_strides() {
        // The partition-camping scenario: stride of exactly `banks` lines.
        // Modulo striping pins every access to one bank; IPOLY spreads them.
        let banks = 32u32;
        let mut modulo_banks = std::collections::HashSet::new();
        let mut ipoly_banks = std::collections::HashSet::new();
        for i in 0..64 {
            let line = i * banks; // stride = banks
            modulo_banks.insert(line % banks);
            ipoly_banks.insert(ipoly_hash(line, banks));
        }
        assert_eq!(modulo_banks.len(), 1, "modulo striping camps on one bank");
        assert!(
            ipoly_banks.len() >= banks as usize / 2,
            "ipoly spread only {} banks",
            ipoly_banks.len()
        );
    }

    #[test]
    fn ipoly_is_uniform_for_sequential_lines() {
        let banks = 32u32;
        let mut counts = vec![0u32; banks as usize];
        for line in 0..(banks * 64) {
            counts[ipoly_hash(line, banks) as usize] += 1;
        }
        assert!(
            counts.iter().all(|&c| c == 64),
            "sequential lines must balance: {counts:?}"
        );
    }

    #[test]
    fn bank_coords_cover_both_strips() {
        let m = map();
        assert_eq!(m.bank_coord(0), Coord::new(0, 0));
        assert_eq!(m.bank_coord(15), Coord::new(15, 0));
        assert_eq!(m.bank_coord(16), Coord::new(0, 9));
        assert_eq!(m.bank_coord(31), Coord::new(15, 9));
        for b in 0..32 {
            assert_eq!(m.coord_to_bank(m.bank_coord(b)), Some(b));
        }
    }

    #[test]
    fn tile_coords_round_trip() {
        let m = map();
        for y in 0..8 {
            for x in 0..16 {
                let c = m.tile_coord(x, y);
                assert_eq!(m.coord_to_tile(c), Some((x, y)));
                assert_eq!(m.coord_to_bank(c), None);
            }
        }
    }

    #[test]
    fn eva_builders_set_space_bits() {
        assert_eq!(local_spm(0x10) >> 30, 0b00);
        assert_eq!(group_spm(0, 0, 0) >> 30, 0b01);
        assert_eq!(local_dram(0) >> 30, 0b10);
        assert_eq!(group_dram(3, 0) >> 30, 0b10);
        assert_eq!(global_dram(0) >> 30, 0b11);
    }
}
