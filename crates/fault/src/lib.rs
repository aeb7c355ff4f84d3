//! Deterministic fault injection for HammerBlade-RS.
//!
//! This crate holds the *plan* side of the resilience subsystem: which
//! microarchitectural sites get hit, on which cycle, drawn from a seeded
//! [`hb_rng::Rng`] stream or listed explicitly. The *mechanism* side — how a
//! flipped SPM word or a corrupted flit actually propagates — lives in the
//! structures themselves (`hb-core`, `hb-noc`, `hb-mem`); `hb-core`'s
//! `Machine::set_injection_plan` partitions a plan into per-domain schedules
//! at install time so the zero-injection hot path stays a single untaken
//! branch.
//!
//! The same crate also defines the outcome taxonomy used by the
//! `fault_campaign` harness: every injected fault is classified as
//! [`Outcome::Masked`], [`Outcome::Sdc`], [`Outcome::Detected`] or
//! [`Outcome::Hang`], and [`AvfTable`] aggregates counts per site kind into
//! an AVF-style report.
//!
//! Determinism argument: a plan is a pure function of its seed and shape, and
//! every injection is applied at one fixed point of the cycle (after the
//! Cells' phases and the fabric), so a campaign run is bit-identical across
//! repeats.

#![forbid(unsafe_code)]

use hb_mem::text::Text;
use hb_rng::Rng;

/// Marker for a permanent tile freeze (never thaws).
pub const FREEZE_FOREVER: u64 = u64::MAX;

/// A microarchitectural fault site, fully specifying where a single
/// transient fault lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Flip `bit` of integer register `reg` of tile `(x, y)` in `cell`.
    /// Flips of `x0` are architecturally masked (the register reads as
    /// zero regardless) and count toward the masked bucket.
    RegFile {
        /// Cell index.
        cell: u8,
        /// Tile column.
        x: u8,
        /// Tile row.
        y: u8,
        /// Register index (0..32).
        reg: u8,
        /// Bit position (0..32).
        bit: u8,
    },
    /// Flip `bit` of the scratchpad word at byte offset `word * 4`.
    Spm {
        /// Cell index.
        cell: u8,
        /// Tile column.
        x: u8,
        /// Tile row.
        y: u8,
        /// Word index into the scratchpad (byte offset / 4).
        word: u16,
        /// Bit position (0..32).
        bit: u8,
    },
    /// A detected (parity-style) flip in instruction-cache line `line`:
    /// the line is invalidated and refetched, costing a miss but never
    /// corrupting execution.
    IcacheLine {
        /// Cell index.
        cell: u8,
        /// Tile column.
        x: u8,
        /// Tile row.
        y: u8,
        /// Line index into the cache (wrapped modulo the line count).
        line: u16,
    },
    /// Corrupt the next flit crossing output `port` of router `(x, y)` on
    /// the request (`req = true`) or response network. The link-level
    /// check detects the corruption and the sender replays the flit after
    /// a bounded retry penalty, so the fault costs latency, never data.
    NocLink {
        /// Cell index.
        cell: u8,
        /// Router column.
        x: u8,
        /// Router row (network coordinates: row 0 is the north bank strip).
        y: u8,
        /// Output port index (0..7, see `hb_noc::Port`).
        port: u8,
        /// `true` for the request network, `false` for responses.
        req: bool,
    },
    /// Stall the cell's HBM pseudo-channel for `window` memory-clock
    /// cycles (no issue; in-flight CAS still retires).
    HbmStall {
        /// Cell index.
        cell: u8,
        /// Stall window in memory-clock cycles.
        window: u16,
    },
    /// Freeze tile `(x, y)` for `cycles` core cycles
    /// ([`FREEZE_FOREVER`] = permanently).
    TileFreeze {
        /// Cell index.
        cell: u8,
        /// Tile column.
        x: u8,
        /// Tile row.
        y: u8,
        /// Freeze duration in core cycles.
        cycles: u64,
    },
}

/// Kind tokens that are both the canonical-text spelling of a [`Site`]
/// and the report label of its [`SiteKind`].
const REGFILE: &str = "regfile";
const SPM: &str = "spm";
const ICACHE: &str = "icache";

// `kind(field,field,...)`, fields in declaration order. Campaign job
// hashes fold this text in (see `hb-serve`) and checkpoints carry pending
// sites in it, so the layout is frozen: a change must bump `planv` below.
hb_mem::text_enum!(Site, "site kind" {
    REGFILE ["(" ")"] => RegFile { cell, x, y, reg, bit },
    SPM ["(" ")"] => Spm { cell, x, y, word, bit },
    ICACHE ["(" ")"] => IcacheLine { cell, x, y, line },
    "noc" ["(" ")"] => NocLink { cell, x, y, port, req },
    "hbm" ["(" ")"] => HbmStall { cell, window },
    "freeze" ["(" ")"] => TileFreeze { cell, x, y, cycles },
});

impl Site {
    /// Stable canonical text form, `kind(field,field,...)`.
    pub fn canonical(&self) -> String {
        self.to_text()
    }

    /// Parses [`Site::canonical`] text.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed component.
    pub fn from_canonical(text: &str) -> Result<Site, String> {
        Site::parse(text)
    }

    /// The structure this site belongs to, for AVF aggregation.
    pub fn kind(&self) -> SiteKind {
        match self {
            Site::RegFile { .. } => SiteKind::RegFile,
            Site::Spm { .. } => SiteKind::Spm,
            Site::IcacheLine { .. } => SiteKind::IcacheLine,
            Site::NocLink { .. } => SiteKind::NocLink,
            Site::HbmStall { .. } => SiteKind::HbmStall,
            Site::TileFreeze { .. } => SiteKind::TileFreeze,
        }
    }
}

/// The structure class of a [`Site`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum SiteKind {
    /// Integer register file.
    RegFile = 0,
    /// Scratchpad memory word.
    Spm = 1,
    /// Instruction-cache line (detected parity flip).
    IcacheLine = 2,
    /// NoC link flit (detected, retransmitted).
    NocLink = 3,
    /// HBM channel stall window.
    HbmStall = 4,
    /// Whole-tile freeze.
    TileFreeze = 5,
}

impl SiteKind {
    /// Number of kinds.
    pub const COUNT: usize = 6;

    /// Every kind, in display order.
    pub const ALL: [SiteKind; SiteKind::COUNT] = [
        SiteKind::RegFile,
        SiteKind::Spm,
        SiteKind::IcacheLine,
        SiteKind::NocLink,
        SiteKind::HbmStall,
        SiteKind::TileFreeze,
    ];

    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            SiteKind::RegFile => REGFILE,
            SiteKind::Spm => SPM,
            SiteKind::IcacheLine => ICACHE,
            SiteKind::NocLink => "noc-link",
            SiteKind::HbmStall => "hbm-stall",
            SiteKind::TileFreeze => "tile-freeze",
        }
    }
}

/// One scheduled fault: a [`Site`] hit at an absolute machine cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Machine cycle at which the fault lands.
    pub cycle: u64,
    /// Where it lands.
    pub site: Site,
}

// `cycle@site`, and `|` between the injections of a plan.
hb_mem::text_tuple!(Injection, '@' { cycle, site } list '|');

/// The machine shape a random plan draws sites from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanShape {
    /// Number of cells.
    pub cells: u8,
    /// Tile-grid dimensions per cell (columns, rows).
    pub dim: (u8, u8),
    /// Scratchpad words per tile.
    pub spm_words: u16,
    /// Instruction-cache lines per tile.
    pub icache_lines: u16,
    /// Inclusive-exclusive cycle range faults are drawn from.
    pub cycles: (u64, u64),
}

/// A deterministic, seeded injection plan: the complete schedule of faults
/// for one simulation run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InjectionPlan {
    /// The seed the plan was expanded from (0 for explicit plans).
    pub seed: u64,
    /// Scheduled faults; sorted by cycle on construction.
    pub injections: Vec<Injection>,
}

hb_mem::text_record!(InjectionPlan, ';' {
    version "planv" = 1u32,
    hashed "seed" => seed,
    hashed "inj" => injections,
});

impl InjectionPlan {
    /// A plan from an explicit `(cycle, site)` list.
    pub fn explicit(list: impl IntoIterator<Item = (u64, Site)>) -> InjectionPlan {
        let mut injections: Vec<Injection> = list
            .into_iter()
            .map(|(cycle, site)| Injection { cycle, site })
            .collect();
        injections.sort_by_key(|i| i.cycle);
        InjectionPlan {
            seed: 0,
            injections,
        }
    }

    /// Expands `n` uniformly random faults over `shape` from `seed`.
    ///
    /// The expansion consumes a fixed number of draws per fault from the
    /// `hb-rng` xoshiro256** stream, so a given `(seed, n, shape)` always
    /// yields the same plan — this is the campaign's reproducibility
    /// contract.
    pub fn random(seed: u64, n: usize, shape: &PlanShape) -> InjectionPlan {
        let mut rng = Rng::seed_from_u64(seed);
        let mut injections = Vec::with_capacity(n);
        for _ in 0..n {
            let cycle = shape.cycles.0 + rng.below(shape.cycles.1.saturating_sub(shape.cycles.0));
            injections.push(Injection {
                cycle,
                site: Self::draw_site(&mut rng, shape),
            });
        }
        injections.sort_by_key(|i| i.cycle);
        InjectionPlan { seed, injections }
    }

    fn draw_site(rng: &mut Rng, shape: &PlanShape) -> Site {
        let cell = rng.below(u64::from(shape.cells)) as u8;
        let x = rng.below(u64::from(shape.dim.0)) as u8;
        let y = rng.below(u64::from(shape.dim.1)) as u8;
        match rng.below(SiteKind::COUNT as u64) {
            0 => Site::RegFile {
                cell,
                x,
                y,
                reg: rng.below(32) as u8,
                bit: rng.below(32) as u8,
            },
            1 => Site::Spm {
                cell,
                x,
                y,
                word: rng.below(u64::from(shape.spm_words.max(1))) as u16,
                bit: rng.below(32) as u8,
            },
            2 => Site::IcacheLine {
                cell,
                x,
                y,
                line: rng.below(u64::from(shape.icache_lines.max(1))) as u16,
            },
            3 => Site::NocLink {
                cell,
                x,
                // Router rows span the tile grid plus the two bank strips.
                y: rng.below(u64::from(shape.dim.1) + 2) as u8,
                port: rng.below(7) as u8,
                req: rng.chance(0.5),
            },
            4 => Site::HbmStall {
                cell,
                window: 64 + rng.below(192) as u16,
            },
            _ => Site::TileFreeze {
                cell,
                x,
                y,
                cycles: if rng.chance(0.25) {
                    FREEZE_FOREVER
                } else {
                    256 + rng.below(4096)
                },
            },
        }
    }

    /// Stable canonical single-line serialization, versioned:
    /// `planv=1;seed=S;inj=cycle@site|cycle@site|...`. This is the form
    /// campaign job hashes fold in, so identical plans — however they were
    /// constructed — serialize identically.
    pub fn canonical_text(&self) -> String {
        self.to_text()
    }

    /// Parses [`InjectionPlan::canonical_text`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed component; a version
    /// other than 1 is an error.
    pub fn from_canonical_text(text: &str) -> Result<InjectionPlan, String> {
        InjectionPlan::parse(text)
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.injections.len()
    }
}

/// Campaign outcome of a single injected fault, in severity order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Outcome {
    /// Final architectural memory matched the golden run.
    Masked = 0,
    /// Final memory differed silently (silent data corruption).
    Sdc = 1,
    /// The machine raised a structured fault (trap, lint, divergence).
    Detected = 2,
    /// The run timed out; the hang watchdog classified why.
    Hang = 3,
}

impl Outcome {
    /// Number of outcomes.
    pub const COUNT: usize = 4;

    /// Every outcome, in display order.
    pub const ALL: [Outcome; Outcome::COUNT] = [
        Outcome::Masked,
        Outcome::Sdc,
        Outcome::Detected,
        Outcome::Hang,
    ];

    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::Sdc => "sdc",
            Outcome::Detected => "detected",
            Outcome::Hang => "hang",
        }
    }
}

/// AVF-style outcome table: fault counts per (site kind, outcome).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AvfTable {
    counts: [[u64; Outcome::COUNT]; SiteKind::COUNT],
}

impl AvfTable {
    /// An empty table.
    pub fn new() -> AvfTable {
        AvfTable::default()
    }

    /// Records one classified fault.
    pub fn record(&mut self, kind: SiteKind, outcome: Outcome) {
        self.counts[kind as usize][outcome as usize] += 1;
    }

    /// Count for a (kind, outcome) pair.
    pub fn count(&self, kind: SiteKind, outcome: Outcome) -> u64 {
        self.counts[kind as usize][outcome as usize]
    }

    /// Total faults for one outcome across kinds.
    pub fn outcome_total(&self, outcome: Outcome) -> u64 {
        SiteKind::ALL.iter().map(|&k| self.count(k, outcome)).sum()
    }

    /// Total recorded faults.
    pub fn total(&self) -> u64 {
        Outcome::ALL.iter().map(|&o| self.outcome_total(o)).sum()
    }

    /// Architectural vulnerability factor for one kind: the fraction of its
    /// faults that mattered (SDC + detected + hang).
    pub fn avf(&self, kind: SiteKind) -> f64 {
        let row: u64 = Outcome::ALL.iter().map(|&o| self.count(kind, o)).sum();
        if row == 0 {
            return 0.0;
        }
        (row - self.count(kind, Outcome::Masked)) as f64 / row as f64
    }

    /// Renders the table as aligned text, one row per site kind plus a
    /// totals row.
    pub fn render(&self) -> String {
        // A 12-wide label, an 8-wide cell per outcome, the row total.
        fn row(label: &str, cells: [String; Outcome::COUNT], total: &str) -> String {
            let cells: String = cells.iter().map(|c| format!(" {c:>8}")).collect();
            format!("{label:<12}{cells} {total:>8}")
        }
        let mut out = row("site", Outcome::ALL.map(|o| o.label().to_owned()), "total");
        out += &format!(" {:>7}\n", "avf");
        for kind in SiteKind::ALL {
            let counts = Outcome::ALL.map(|o| self.count(kind, o));
            let sum: u64 = counts.iter().sum();
            if sum > 0 {
                let cells = counts.map(|c| c.to_string());
                out += &row(kind.label(), cells, &sum.to_string());
                out += &format!(" {:>6.2}%\n", self.avf(kind) * 100.0);
            }
        }
        let totals = Outcome::ALL.map(|o| self.outcome_total(o).to_string());
        out + &row("total", totals, &self.total().to_string()) + "\n"
    }

    /// One-line `masked=a sdc=b detected=c hang=d` summary, the format the
    /// CI smoke job asserts against.
    pub fn summary_line(&self) -> String {
        let counts = Outcome::ALL.map(|o| format!("{}={}", o.label(), self.outcome_total(o)));
        counts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> PlanShape {
        PlanShape {
            cells: 1,
            dim: (4, 4),
            spm_words: 1024,
            icache_lines: 256,
            cycles: (100, 10_000),
        }
    }

    #[test]
    fn random_plans_are_deterministic_and_sorted() {
        let a = InjectionPlan::random(42, 100, &shape());
        let b = InjectionPlan::random(42, 100, &shape());
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(a.injections.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert!(a
            .injections
            .iter()
            .all(|i| (100..10_000).contains(&i.cycle)));
        let c = InjectionPlan::random(43, 100, &shape());
        assert_ne!(a, c, "different seeds must give different plans");
    }

    #[test]
    fn random_plans_draw_every_site_kind() {
        let plan = InjectionPlan::random(7, 600, &shape());
        for kind in SiteKind::ALL {
            assert!(
                plan.injections.iter().any(|i| i.site.kind() == kind),
                "600 draws never hit {}",
                kind.label()
            );
        }
    }

    #[test]
    fn sites_stay_inside_the_shape() {
        let s = shape();
        for i in &InjectionPlan::random(9, 400, &s).injections {
            match i.site {
                Site::RegFile { x, y, reg, bit, .. } => {
                    assert!(x < 4 && y < 4 && reg < 32 && bit < 32);
                }
                Site::Spm { word, bit, .. } => assert!(word < 1024 && bit < 32),
                Site::IcacheLine { line, .. } => assert!(line < 256),
                Site::NocLink { y, port, .. } => assert!(y < 6 && port < 7),
                Site::HbmStall { window, .. } => assert!((64..256).contains(&window)),
                Site::TileFreeze { cycles, .. } => {
                    assert!(cycles == FREEZE_FOREVER || (256..4352).contains(&cycles));
                }
            }
        }
    }

    #[test]
    fn explicit_plans_sort_by_cycle() {
        let site = Site::HbmStall {
            cell: 0,
            window: 10,
        };
        let plan = InjectionPlan::explicit([(50, site), (10, site), (30, site)]);
        let cycles: Vec<u64> = plan.injections.iter().map(|i| i.cycle).collect();
        assert_eq!(cycles, [10, 30, 50]);
    }

    #[test]
    fn canonical_plan_roundtrips_and_is_stable() {
        let plan = InjectionPlan::random(42, 200, &shape());
        let text = plan.canonical_text();
        let back = InjectionPlan::from_canonical_text(&text).unwrap();
        assert_eq!(back, plan);
        assert_eq!(
            back.canonical_text(),
            text,
            "canonical form is a fixed point"
        );

        // The empty plan serializes and reparses too.
        let empty = InjectionPlan::default();
        assert_eq!(
            InjectionPlan::from_canonical_text(&empty.canonical_text()).unwrap(),
            empty
        );

        // Every site kind has a frozen spelling.
        let all = InjectionPlan::explicit([
            (
                1,
                Site::RegFile {
                    cell: 0,
                    x: 1,
                    y: 2,
                    reg: 3,
                    bit: 4,
                },
            ),
            (
                2,
                Site::Spm {
                    cell: 0,
                    x: 1,
                    y: 2,
                    word: 30,
                    bit: 4,
                },
            ),
            (
                3,
                Site::IcacheLine {
                    cell: 0,
                    x: 1,
                    y: 2,
                    line: 9,
                },
            ),
            (
                4,
                Site::NocLink {
                    cell: 0,
                    x: 1,
                    y: 2,
                    port: 3,
                    req: true,
                },
            ),
            (
                5,
                Site::HbmStall {
                    cell: 0,
                    window: 77,
                },
            ),
            (
                6,
                Site::TileFreeze {
                    cell: 0,
                    x: 1,
                    y: 2,
                    cycles: FREEZE_FOREVER,
                },
            ),
        ]);
        assert_eq!(
            all.canonical_text(),
            format!(
                "planv=1;seed=0;inj=1@regfile(0,1,2,3,4)|2@spm(0,1,2,30,4)\
                 |3@icache(0,1,2,9)|4@noc(0,1,2,3,1)|5@hbm(0,77)\
                 |6@freeze(0,1,2,{FREEZE_FOREVER})"
            )
        );
    }

    #[test]
    fn canonical_plan_rejects_garbage() {
        for bad in [
            "",
            "planv=2;seed=0;inj=",
            "seed=0;inj=",
            "planv=1;inj=",
            "planv=1;seed=0",
            "planv=1;seed=0;inj=5@warp(0,0)",
            "planv=1;seed=0;inj=5@regfile(0,1)",
            "planv=1;seed=0;inj=xx@hbm(0,1)",
        ] {
            assert!(
                InjectionPlan::from_canonical_text(bad).is_err(),
                "{bad:?} must not parse"
            );
        }
    }

    #[test]
    fn avf_table_renders_counts_and_totals() {
        let mut t = AvfTable::new();
        t.record(SiteKind::RegFile, Outcome::Masked);
        t.record(SiteKind::RegFile, Outcome::Sdc);
        t.record(SiteKind::RegFile, Outcome::Sdc);
        t.record(SiteKind::NocLink, Outcome::Masked);
        t.record(SiteKind::IcacheLine, Outcome::Detected);
        t.record(SiteKind::TileFreeze, Outcome::Hang);
        assert_eq!(t.count(SiteKind::RegFile, Outcome::Sdc), 2);
        assert_eq!(t.total(), 6);
        assert_eq!(t.outcome_total(Outcome::Masked), 2);
        assert!((t.avf(SiteKind::RegFile) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.avf(SiteKind::NocLink), 0.0);
        assert_eq!(t.avf(SiteKind::Spm), 0.0, "empty rows have zero AVF");
        let text = t.render();
        assert!(text.contains("regfile"), "{text}");
        assert!(!text.contains("spm "), "empty rows are skipped:\n{text}");
        assert!(text.contains("total"), "{text}");
        assert_eq!(t.summary_line(), "masked=2 sdc=2 detected=1 hang=1");
    }
}
