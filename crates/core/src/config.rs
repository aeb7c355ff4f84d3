//! Machine configuration: geometry, feature knobs and timing parameters.
//!
//! Every architectural feature evaluated in the paper's Figure 10 ablation
//! has a knob here, and the Table II machine configurations are provided as
//! presets.
//!
//! # The canonical text, and the `hashed`/`host` rule
//!
//! [`MachineConfig::canonical_text`] is the identity of a configuration:
//! `hb-serve` hashes it into every job hash, and a checkpoint will only
//! restore into a machine whose text matches its header. Writer and reader
//! are both generated from the one field list at the bottom of this file
//! (`hb_mem::text_record!`), which must put **every** field of
//! [`MachineConfig`] in one of two classes — a field in neither does not
//! compile:
//!
//! - `hashed "key"`: the field can change a simulated result, so it is in
//!   the text. Adding, removing or re-interpreting one changes what cached
//!   results mean: bump [`MachineConfig::CANONICAL_VERSION`] (the tier-1
//!   test `tests/text_pins.rs` fails until you do).
//! - `host = value`: the field only steers the host (`threads`, the park
//!   policy); results are bit-identical at any setting, it is not in the
//!   text, and a decoded configuration carries the normalized `value` —
//!   callers that simulate set it as they like afterwards.
//!
//! Observers are not configuration at all: telemetry, the race sanitizer
//! and the guest profiler are switched on the [`Machine`](crate::Machine)
//! the caller owns (`attach_observer`, `set_race_check`, `set_profile`).

use hb_mem::text::Text;
use hb_mem::Hbm2Config;
use hb_noc::StripConfig;

/// Tile-array shape of one Cell (x = columns, y = rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellDim {
    /// Tiles per row.
    pub x: u8,
    /// Tile rows.
    pub y: u8,
}

// The `16x8` of the canonical text.
hb_mem::text_tuple!(CellDim, 'x' { x, y });

impl CellDim {
    /// Total tiles in the Cell.
    pub fn tiles(self) -> usize {
        self.x as usize * self.y as usize
    }
}

/// Full configuration of a simulated HammerBlade machine.
///
/// Construct via a preset ([`MachineConfig::baseline_16x8`] etc.) and adjust
/// fields, e.g. `MachineConfig { ruche_factor: 0, ..MachineConfig::baseline_16x8() }`
/// for the 2-D-mesh ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Tile array per Cell.
    pub cell_dim: CellDim,
    /// Number of Cells simulated together: `Machine` ticks them in
    /// lockstep, joined by its inter-Cell fabric. (The Fig. 15/16
    /// multi-Cell points instead follow the paper's methodology: a
    /// single-Cell run plus `MultiCellEstimator::transfer_cycles`.)
    pub num_cells: u8,

    // ---- Figure 10 feature knobs ----
    /// Horizontal Ruche link skip distance (3 in HB, 0 = plain 2-D mesh).
    pub ruche_factor: u8,
    /// Non-blocking remote loads via the 63-entry scoreboard. When `false`,
    /// every remote memory operation stalls the core until its response
    /// returns (the pre-HB baseline).
    pub non_blocking_loads: bool,
    /// Write-validate cache policy (write misses allocate without fetching).
    pub write_validate: bool,
    /// Load Packet Compression: up to four consecutive sequential remote
    /// loads to the same destination combine into one packet.
    pub load_packet_compression: bool,
    /// Regional IPOLY hashing of Local-DRAM lines across cache banks.
    /// When `false`, lines stripe bank = line mod banks (prone to partition
    /// camping under 2^n strides).
    pub ipoly_hashing: bool,
    /// Non-blocking cache banks with consolidated MSHRs. When `false`,
    /// banks block on any outstanding miss.
    pub non_blocking_cache: bool,

    // ---- Geometry ----
    /// Scratchpad bytes per tile.
    pub spm_bytes: u32,
    /// Instruction-cache bytes per tile (direct-mapped, 16 B lines).
    pub icache_bytes: u32,
    /// Cache-bank sets.
    pub cache_sets: usize,
    /// Cache-bank associativity.
    pub cache_ways: usize,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// MSHRs per cache bank (outstanding primary misses).
    pub cache_mshrs: usize,
    /// DRAM window per Cell in bytes (EVA offset field is 24 bits).
    pub dram_bytes_per_cell: u32,

    // ---- Timing ----
    /// Fused multiply-add latency (cycles until a dependent may issue).
    pub fma_latency: u64,
    /// Integer multiply latency.
    pub mul_latency: u64,
    /// Iterative integer divide latency.
    pub div_latency: u64,
    /// FP divide latency (iterative unit, blocking).
    pub fdiv_latency: u64,
    /// FP square-root latency (iterative unit, blocking).
    pub fsqrt_latency: u64,
    /// Short FP op latency (add/sub/compare/convert).
    pub fp_latency: u64,
    /// Local scratchpad load-use latency.
    pub spm_load_latency: u64,
    /// Branch misprediction penalty.
    pub branch_miss_penalty: u64,
    /// Instruction-cache miss penalty.
    pub icache_miss_latency: u64,
    /// Maximum outstanding remote operations per tile (scoreboard size).
    pub max_outstanding: usize,
    /// Router input FIFO depth.
    pub net_fifo_depth: usize,
    /// Cycles one packet occupies a link (>1 models narrower channels).
    pub link_occupancy: u8,
    /// Core clock in MHz (1350 on silicon).
    pub core_freq_mhz: u32,
    /// Memory clock in MHz (1000 for HBM2).
    pub mem_freq_mhz: u32,
    /// HBM2 pseudo-channel parameters (one channel per Cell).
    pub hbm: Hbm2Config,
    /// Cache-strip refill channel parameters.
    pub strip: StripConfig,

    // ---- Resilience ----
    /// Tiles (Cell coordinates, applied to every Cell) configured dead:
    /// launched but never executing, bypassed in the barrier trees, with
    /// their group work redistributed over the `TG_LIVE_*`/`TG_ADOPT` CSRs.
    /// Their network interfaces stay alive so their scratchpads remain
    /// addressable. Empty on every preset.
    pub disabled_tiles: Vec<(u8, u8)>,

    // ---- Host execution (does not affect simulated results) ----
    /// No effect since PR 18 (a machine runs on the thread that ticks it;
    /// nothing reads this). Kept because the benchmark crate `hb_perf/`
    /// names it in struct literals; the benchmark-only follow-up that
    /// drops it there deletes the field (ROADMAP's benchmark-only PR).
    pub threads: usize,
    /// Park policy of the tile phase's wake-list loop (see
    /// `hb_core::sched` and the "Event-driven core" section of DESIGN.md).
    /// On (every preset's default): quiescent tiles park and are skipped
    /// until their wake cycle. Off: *never park* — every active tile
    /// steps every cycle, the reference the test suites prove the park
    /// hints against. Purely a host-execution choice — every counter,
    /// memory word and telemetry/fault/race observation is bit-identical
    /// with the flag on or off, at equal speed, so nothing but those
    /// comparisons needs it off.
    pub event_core: bool,
}

impl MachineConfig {
    /// The paper's baseline HB machine: a 16x8-tile Cell with 32 cache
    /// banks, all architectural features on (Table II column 1).
    pub fn baseline_16x8() -> MachineConfig {
        MachineConfig {
            cell_dim: CellDim { x: 16, y: 8 },
            num_cells: 1,
            ruche_factor: 3,
            non_blocking_loads: true,
            write_validate: true,
            load_packet_compression: true,
            ipoly_hashing: true,
            non_blocking_cache: true,
            spm_bytes: 4096,
            icache_bytes: 4096,
            cache_sets: 64,
            cache_ways: 8,
            line_bytes: 64,
            cache_mshrs: 8,
            dram_bytes_per_cell: 16 << 20,
            fma_latency: 3,
            mul_latency: 2,
            div_latency: 16,
            fdiv_latency: 12,
            fsqrt_latency: 12,
            fp_latency: 2,
            spm_load_latency: 2,
            branch_miss_penalty: 2,
            icache_miss_latency: 40,
            max_outstanding: 63,
            net_fifo_depth: 4,
            link_occupancy: 1,
            core_freq_mhz: 1350,
            mem_freq_mhz: 1000,
            hbm: Hbm2Config::default(),
            strip: StripConfig::default(),
            disabled_tiles: Vec::new(),
            threads: 1,
            event_core: true,
        }
    }

    /// Table II column 2: Cell doubled vertically (16x16). Twice the tiles,
    /// same cache banks (half the cache capacity per tile).
    pub fn cell_16x16() -> MachineConfig {
        MachineConfig {
            cell_dim: CellDim { x: 16, y: 16 },
            ..MachineConfig::baseline_16x8()
        }
    }

    /// Table II column 3: Cell doubled horizontally (32x8). Twice the tiles
    /// *and* twice the cache banks/bandwidth, at the cost of bisection
    /// pressure.
    pub fn cell_32x8() -> MachineConfig {
        MachineConfig {
            cell_dim: CellDim { x: 32, y: 8 },
            ..MachineConfig::baseline_16x8()
        }
    }

    /// Table II column 4: two 16x8 Cells (2x16x8), each with its own
    /// Local-DRAM address space.
    pub fn two_cells_16x8() -> MachineConfig {
        MachineConfig {
            num_cells: 2,
            ..MachineConfig::baseline_16x8()
        }
    }

    /// The Figure 10 starting point: a "Baseline Manycore" normalized to a
    /// TILE64-class design — quarter core density (an 8x4 array in the same
    /// area), half-width router channels, half the cache, and none of HB's
    /// architectural features.
    pub fn baseline_manycore() -> MachineConfig {
        MachineConfig {
            cell_dim: CellDim { x: 8, y: 4 },
            cache_sets: 32,
            link_occupancy: 2,
            net_fifo_depth: 2,
            ..MachineConfig::cellular_baseline()
        }
    }

    /// The "Cellular Baseline" of Figure 10: HB's physical normalization
    /// (full router bandwidth, full cache, full core density) with all
    /// architectural features still off.
    pub fn cellular_baseline() -> MachineConfig {
        MachineConfig {
            ruche_factor: 0,
            non_blocking_loads: false,
            write_validate: false,
            load_packet_compression: false,
            ipoly_hashing: false,
            non_blocking_cache: false,
            ..MachineConfig::baseline_16x8()
        }
    }

    /// Cache banks per Cell (two strips of `cell_dim.x`).
    pub fn banks_per_cell(&self) -> usize {
        2 * self.cell_dim.x as usize
    }

    /// Cache capacity per Cell in bytes.
    pub fn cell_cache_bytes(&self) -> usize {
        self.banks_per_cell() * self.cache_sets * self.cache_ways * self.line_bytes as usize
    }

    /// Network grid width (tile columns).
    pub fn net_width(&self) -> u8 {
        self.cell_dim.x
    }

    /// Network grid height (tile rows plus the two cache-bank strips).
    pub fn net_height(&self) -> u8 {
        self.cell_dim.y + 2
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] describing why the configuration
    /// is impossible (zero tiles, non-power-of-two bank count, SPM too
    /// small, ...).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cell_dim.x == 0 || self.cell_dim.y == 0 {
            return Err(ConfigError::EmptyCell { dim: self.cell_dim });
        }
        if !self.banks_per_cell().is_power_of_two() {
            return Err(ConfigError::BankCountNotPowerOfTwo {
                banks: self.banks_per_cell(),
            });
        }
        if self.spm_bytes < 256 {
            return Err(ConfigError::SpmTooSmall {
                bytes: self.spm_bytes,
            });
        }
        if self.max_outstanding < 1 {
            return Err(ConfigError::ZeroScoreboard);
        }
        if self.num_cells < 1 {
            return Err(ConfigError::ZeroCells);
        }
        if self.dram_bytes_per_cell == 0 {
            return Err(ConfigError::ZeroDramWindow);
        }
        if self.dram_bytes_per_cell > (16 << 20) {
            return Err(ConfigError::DramWindowTooLarge {
                bytes: self.dram_bytes_per_cell,
            });
        }
        if self.spm_bytes > Self::MAX_SPM_BYTES {
            return Err(ConfigError::SpmTooLarge {
                bytes: self.spm_bytes,
            });
        }
        if self.cell_dim.x > Self::MAX_CELL_EDGE || self.cell_dim.y > Self::MAX_CELL_EDGE {
            return Err(ConfigError::CellTooLarge { dim: self.cell_dim });
        }
        if self.net_fifo_depth < 1 {
            return Err(ConfigError::ZeroFifoDepth);
        }
        if self.net_fifo_depth > Self::MAX_NET_FIFO_DEPTH {
            return Err(ConfigError::FifoTooDeep {
                depth: self.net_fifo_depth,
            });
        }
        let bank_bytes = (self.cache_sets.checked_mul(self.cache_ways))
            .and_then(|lines| lines.checked_mul(self.line_bytes as usize));
        if !matches!(bank_bytes, Some(1..=Self::MAX_BANK_BYTES))
            || !(4..=64).contains(&self.line_bytes)
            || !self.line_bytes.is_power_of_two()
            || self.cache_mshrs < 1
        {
            return Err(ConfigError::BadCacheGeometry {
                sets: self.cache_sets,
                ways: self.cache_ways,
                line_bytes: self.line_bytes,
                mshrs: self.cache_mshrs,
            });
        }
        if !(16..=Self::MAX_ICACHE_BYTES).contains(&self.icache_bytes)
            || !self.icache_bytes.is_power_of_two()
        {
            return Err(ConfigError::BadIcacheSize {
                bytes: self.icache_bytes,
            });
        }
        if !self.hbm.banks.is_power_of_two()
            || self.hbm.banks > Self::MAX_HBM_BANKS
            || self.hbm.line_bytes == 0
            || self.hbm.row_bytes < self.hbm.line_bytes
            || self.hbm.burst_cycles == 0
        {
            return Err(ConfigError::BadHbmGeometry {
                banks: self.hbm.banks,
                row_bytes: self.hbm.row_bytes,
                line_bytes: self.hbm.line_bytes,
            });
        }
        if self.core_freq_mhz == 0 || self.mem_freq_mhz > self.core_freq_mhz {
            return Err(ConfigError::BadClockRatio {
                core_mhz: self.core_freq_mhz,
                mem_mhz: self.mem_freq_mhz,
            });
        }
        if self.strip.bytes_per_cycle == 0 || self.strip.skip_distance == 0 {
            return Err(ConfigError::ZeroWidthStrip);
        }
        let bytes = self.host_footprint();
        if bytes > Self::MAX_HOST_BYTES {
            return Err(ConfigError::HostFootprintTooLarge { bytes });
        }
        if let Some(&(x, y)) = self
            .disabled_tiles
            .iter()
            .find(|&&(x, y)| x >= self.cell_dim.x || y >= self.cell_dim.y)
        {
            return Err(ConfigError::DisabledTileOutOfRange {
                tile: (x, y),
                dim: self.cell_dim,
            });
        }
        let machine_banks = self.banks_per_cell() * usize::from(self.num_cells);
        if self.ipoly_hashing && !machine_banks.is_power_of_two() {
            return Err(ConfigError::MachineBankCountNotPowerOfTwo {
                banks: machine_banks,
            });
        }
        Ok(())
    }

    /// Host bytes the machine's storage occupies: every tile's scratchpad
    /// and icache, every cache bank's lines and every Cell's DRAM window,
    /// each tile and line with the fixed host state around it; `u64::MAX`
    /// when the sum overflows.
    fn host_footprint(&self) -> u64 {
        let per_tile =
            u64::from(self.spm_bytes) + u64::from(self.icache_bytes) + Self::HOST_BYTES_PER_TILE;
        let per_line = u64::from(self.line_bytes) + Self::HOST_BYTES_PER_LINE;
        let sum = || {
            let tiles = (self.cell_dim.tiles() as u64).checked_mul(per_tile)?;
            let banks = (self.banks_per_cell() as u64)
                .checked_mul(self.cache_sets as u64)?
                .checked_mul(self.cache_ways as u64)?
                .checked_mul(per_line)?;
            tiles
                .checked_add(banks)?
                .checked_add(u64::from(self.dram_bytes_per_cell))?
                .checked_mul(u64::from(self.num_cells))
        };
        sum().unwrap_or(u64::MAX)
    }

    /// Largest [host footprint](ConfigError::HostFootprintTooLarge) a
    /// machine may ask for: 1 GiB, ~26x the largest shape any preset,
    /// figure or `HB_SCALE=full` run builds (`two_cells_16x8`, 39 MiB).
    /// Every field of a 63-Cell, 64x64-tile, 16 MiB-bank configuration is
    /// in range, and building it would abort the process on allocation.
    pub const MAX_HOST_BYTES: u64 = 1 << 30;
    /// Host bytes a tile costs beside its scratchpad and icache — the
    /// `Tile` itself, its queues and its two routers. Measured: a machine
    /// of 255 Cells of 64x64 tiles with the smallest memories is 4.1 KiB
    /// of resident set per tile.
    const HOST_BYTES_PER_TILE: u64 = 4096;
    /// Host bytes a cache line costs beside its data: the slot with its
    /// tag, masks and LRU stamp.
    const HOST_BYTES_PER_LINE: u64 = 64;
    /// Largest Cell edge, in tiles: a Group-SPM address names a tile with
    /// two 6-bit coordinate fields.
    pub const MAX_CELL_EDGE: u8 = 64;
    /// Largest scratchpad, in bytes: the CSR window of the local space
    /// starts at [`CSR_BASE`](crate::pgas::CSR_BASE), and a larger SPM would
    /// cover it (a Group-SPM offset field alone would allow 256 KiB).
    pub const MAX_SPM_BYTES: u32 = crate::pgas::CSR_BASE;
    /// Largest cache bank, in bytes: no bank outgrows the 16 MiB DRAM
    /// window it caches.
    pub const MAX_BANK_BYTES: usize = 16 << 20;
    /// Largest instruction cache, in bytes.
    pub const MAX_ICACHE_BYTES: u32 = 1 << 20;
    /// Deepest router input FIFO, in packets: a network allocates every
    /// FIFO's ring up front, so the depth is bounded like the other
    /// storage sizes ([`hb_noc::MAX_FIFO_DEPTH`], 4x the baseline's 4).
    pub const MAX_NET_FIFO_DEPTH: usize = hb_noc::MAX_FIFO_DEPTH;
    /// Most banks an HBM2 pseudo-channel is modelled with.
    pub const MAX_HBM_BANKS: usize = 1024;

    /// Version of the canonical text layout produced by
    /// [`MachineConfig::canonical_text`]. Bump whenever a field is added,
    /// removed or re-interpreted so stale cached results never alias.
    /// Version 2 dropped `telw` (the telemetry window, which never changed
    /// a simulated result).
    pub const CANONICAL_VERSION: u32 = 2;

    /// Stable canonical serialization: the layout version, then every
    /// `hashed` field of the list below in list order, as `key=value` pairs
    /// joined by `;`. The `host` fields cannot change simulated results
    /// and are deliberately excluded.
    pub fn canonical_text(&self) -> String {
        self.to_text()
    }

    /// Parses a [`MachineConfig::canonical_text`] string back into a
    /// configuration and [validates](MachineConfig::validate) it, so a
    /// decoded configuration can always build a machine. The `host` fields
    /// are not part of the canonical form and come back normalized
    /// (one thread, parking on).
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing, repeated, unknown or
    /// malformed field, or the [`ConfigError`]. A version other than
    /// [`MachineConfig::CANONICAL_VERSION`] is an error — stale text must
    /// not silently reparse.
    pub fn from_canonical_text(text: &str) -> Result<MachineConfig, String> {
        MachineConfig::parse(text)
    }
}

// Dead tiles are spelled `x,y+x,y`.
hb_mem::text_record!(MachineConfig, ';' {
    version "cfgv" = MachineConfig::CANONICAL_VERSION,
    hashed "cell" => cell_dim,
    hashed "cells" => num_cells,
    hashed "ruche" => ruche_factor,
    hashed "nbl" => non_blocking_loads,
    hashed "wv" => write_validate,
    hashed "lpc" => load_packet_compression,
    hashed "ipoly" => ipoly_hashing,
    hashed "nbc" => non_blocking_cache,
    hashed "spm" => spm_bytes,
    hashed "icache" => icache_bytes,
    hashed "sets" => cache_sets,
    hashed "ways" => cache_ways,
    hashed "line" => line_bytes,
    hashed "mshrs" => cache_mshrs,
    hashed "dram" => dram_bytes_per_cell,
    hashed "fma" => fma_latency,
    hashed "mul" => mul_latency,
    hashed "div" => div_latency,
    hashed "fdiv" => fdiv_latency,
    hashed "fsqrt" => fsqrt_latency,
    hashed "fp" => fp_latency,
    hashed "spmld" => spm_load_latency,
    hashed "bmiss" => branch_miss_penalty,
    hashed "icmiss" => icache_miss_latency,
    hashed "outst" => max_outstanding,
    hashed "fifo" => net_fifo_depth,
    hashed "linkocc" => link_occupancy,
    hashed "coremhz" => core_freq_mhz,
    hashed "memmhz" => mem_freq_mhz,
    hashed "hbm" => hbm,
    hashed "strip" => strip,
    hashed "disabled" => disabled_tiles,
    host threads = 1,
    host event_core = true,
} check validate);

/// Why a [`MachineConfig`] is internally inconsistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A Cell dimension is zero.
    EmptyCell {
        /// The offending shape.
        dim: CellDim,
    },
    /// IPOLY hashing and the strip network require a power-of-two bank
    /// count (banks = 2 x cell width).
    BankCountNotPowerOfTwo {
        /// The computed bank count.
        banks: usize,
    },
    /// The scratchpad cannot hold even a minimal stack frame.
    SpmTooSmall {
        /// The configured size.
        bytes: u32,
    },
    /// The remote-op scoreboard must hold at least one entry.
    ZeroScoreboard,
    /// A machine needs at least one Cell.
    ZeroCells,
    /// A Cell needs a DRAM window: Global-DRAM lines wrap modulo its size.
    ZeroDramWindow,
    /// The Local/Group-DRAM EVA offset field is 24 bits, capping the
    /// per-Cell window at 16 MiB.
    DramWindowTooLarge {
        /// The configured size.
        bytes: u32,
    },
    /// A configured-dead tile lies outside the Cell's tile array.
    DisabledTileOutOfRange {
        /// The offending coordinates.
        tile: (u8, u8),
        /// The Cell shape.
        dim: CellDim,
    },
    /// The scratchpad exceeds [`MachineConfig::MAX_SPM_BYTES`]: it would
    /// cover the CSR window.
    SpmTooLarge {
        /// The configured size.
        bytes: u32,
    },
    /// A Cell edge exceeds [`MachineConfig::MAX_CELL_EDGE`] tiles.
    CellTooLarge {
        /// The offending shape.
        dim: CellDim,
    },
    /// A router input FIFO must hold at least one packet.
    ZeroFifoDepth,
    /// A router input FIFO is deeper than
    /// [`MachineConfig::MAX_NET_FIFO_DEPTH`].
    FifoTooDeep {
        /// The configured depth.
        depth: usize,
    },
    /// The cache-bank model needs at least one set, way and MSHR, a
    /// power-of-two line of 4 to 64 bytes, and a bank of at most
    /// [`MachineConfig::MAX_BANK_BYTES`].
    BadCacheGeometry {
        /// Configured sets per bank.
        sets: usize,
        /// Configured ways per set.
        ways: usize,
        /// Configured line size.
        line_bytes: u32,
        /// Configured MSHRs per bank.
        mshrs: usize,
    },
    /// The instruction cache is a power of two between one 16-byte line and
    /// [`MachineConfig::MAX_ICACHE_BYTES`].
    BadIcacheSize {
        /// The configured size.
        bytes: u32,
    },
    /// The HBM2 channel needs a power-of-two bank count of at most
    /// [`MachineConfig::MAX_HBM_BANKS`], a row that holds a non-empty
    /// line, and a burst that occupies the data bus.
    BadHbmGeometry {
        /// Configured banks per pseudo-channel.
        banks: usize,
        /// Configured row size.
        row_bytes: u32,
        /// Configured line size.
        line_bytes: u32,
    },
    /// The memory clock is derived from the core clock by skipping core
    /// cycles: the core clock must run, and no slower than memory.
    BadClockRatio {
        /// Configured core clock.
        core_mhz: u32,
        /// Configured memory clock.
        mem_mhz: u32,
    },
    /// A refill strip must move at least one byte per cycle over skip links
    /// at least one bank long.
    ZeroWidthStrip,
    /// Tiles, cache banks and DRAM windows together exceed
    /// [`MachineConfig::MAX_HOST_BYTES`] of host memory.
    HostFootprintTooLarge {
        /// The footprint (`u64::MAX` when the sum overflows).
        bytes: u64,
    },
    /// IPOLY hashing spreads Global-DRAM lines over every bank of every
    /// Cell, which needs a power-of-two total.
    MachineBankCountNotPowerOfTwo {
        /// Banks per Cell times Cells.
        banks: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyCell { dim } => {
                write!(f, "empty cell: {}x{} tiles", dim.x, dim.y)
            }
            ConfigError::BankCountNotPowerOfTwo { banks } => {
                write!(f, "bank count {banks} must be a power of two")
            }
            ConfigError::SpmTooSmall { bytes } => {
                write!(f, "SPM of {bytes} bytes is too small (minimum 256)")
            }
            ConfigError::ZeroScoreboard => {
                write!(f, "max_outstanding must be at least 1")
            }
            ConfigError::ZeroCells => write!(f, "num_cells must be at least 1"),
            ConfigError::ZeroDramWindow => write!(f, "dram_bytes_per_cell must be at least 1"),
            ConfigError::DisabledTileOutOfRange { tile, dim } => {
                write!(
                    f,
                    "disabled tile ({},{}) outside the {}x{} cell",
                    tile.0, tile.1, dim.x, dim.y
                )
            }
            ConfigError::DramWindowTooLarge { bytes } => {
                write!(
                    f,
                    "DRAM window of {bytes} bytes exceeds the 24-bit EVA offset field (16 MiB)"
                )
            }
            ConfigError::SpmTooLarge { bytes } => {
                write!(
                    f,
                    "SPM of {bytes} bytes runs into the CSR window at 0x1000 (maximum 4096)"
                )
            }
            ConfigError::CellTooLarge { dim } => {
                write!(
                    f,
                    "cell of {}x{} tiles exceeds the 6-bit tile coordinate fields (64x64)",
                    dim.x, dim.y
                )
            }
            ConfigError::ZeroFifoDepth => write!(f, "net_fifo_depth must be at least 1"),
            ConfigError::FifoTooDeep { depth } => write!(
                f,
                "net_fifo_depth of {depth} exceeds the maximum of {}",
                MachineConfig::MAX_NET_FIFO_DEPTH
            ),
            ConfigError::BadCacheGeometry {
                sets,
                ways,
                line_bytes,
                mshrs,
            } => {
                write!(
                    f,
                    "cache bank of {sets} sets x {ways} ways x {line_bytes}-byte lines with \
                     {mshrs} MSHRs: need at least one of each, a power-of-two line of 4..=64 \
                     bytes and at most 16 MiB per bank"
                )
            }
            ConfigError::BadIcacheSize { bytes } => {
                write!(
                    f,
                    "icache of {bytes} bytes must be a power of two from 16 bytes to 1 MiB"
                )
            }
            ConfigError::BadHbmGeometry {
                banks,
                row_bytes,
                line_bytes,
            } => {
                write!(
                    f,
                    "HBM2 channel of {banks} banks, {row_bytes}-byte rows, {line_bytes}-byte \
                     lines: need a power-of-two bank count up to 1024, a row holding a \
                     non-empty line and a burst of at least one cycle"
                )
            }
            ConfigError::BadClockRatio { core_mhz, mem_mhz } => {
                write!(
                    f,
                    "clocks of {core_mhz} MHz core / {mem_mhz} MHz memory: the core clock must \
                     be nonzero and at least the memory clock"
                )
            }
            ConfigError::ZeroWidthStrip => {
                write!(
                    f,
                    "strip channel width and skip distance must be at least 1"
                )
            }
            ConfigError::HostFootprintTooLarge { bytes } => {
                write!(
                    f,
                    "machine of {bytes} host bytes exceeds the 1 GiB host memory budget"
                )
            }
            ConfigError::MachineBankCountNotPowerOfTwo { banks } => {
                write!(
                    f,
                    "IPOLY hashing over {banks} banks (banks per cell x cells) needs a power \
                     of two"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_geometry() {
        // Baseline: 32 banks, 1 MB of cache per Cell.
        let c = MachineConfig::baseline_16x8();
        c.validate().unwrap();
        assert_eq!(c.banks_per_cell(), 32);
        assert_eq!(c.cell_cache_bytes(), 1 << 20);
        assert_eq!(c.cell_dim.tiles(), 128);

        // 32x8: 64 banks, 2 MB.
        let c = MachineConfig::cell_32x8();
        c.validate().unwrap();
        assert_eq!(c.banks_per_cell(), 64);
        assert_eq!(c.cell_cache_bytes(), 2 << 20);

        // 16x16: same banks as baseline, twice the tiles.
        let c = MachineConfig::cell_16x16();
        c.validate().unwrap();
        assert_eq!(c.banks_per_cell(), 32);
        assert_eq!(c.cell_dim.tiles(), 256);
    }

    #[test]
    fn validate_reports_each_inconsistency() {
        let base = MachineConfig::baseline_16x8();

        let c = MachineConfig {
            cell_dim: CellDim { x: 0, y: 8 },
            ..base.clone()
        };
        assert!(matches!(c.validate(), Err(ConfigError::EmptyCell { .. })));

        let c = MachineConfig {
            cell_dim: CellDim { x: 6, y: 4 },
            ..base.clone()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::BankCountNotPowerOfTwo { banks: 12 })
        );

        let c = MachineConfig {
            spm_bytes: 128,
            ..base.clone()
        };
        assert_eq!(c.validate(), Err(ConfigError::SpmTooSmall { bytes: 128 }));

        let c = MachineConfig {
            max_outstanding: 0,
            ..base.clone()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroScoreboard));

        let c = MachineConfig {
            num_cells: 0,
            ..base.clone()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroCells));

        let c = MachineConfig {
            dram_bytes_per_cell: 0,
            ..base.clone()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroDramWindow));

        let c = MachineConfig {
            dram_bytes_per_cell: 32 << 20,
            ..base.clone()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::DramWindowTooLarge { bytes: 32 << 20 })
        );

        let c = MachineConfig {
            disabled_tiles: vec![(1, 1), (16, 0)],
            ..base.clone()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::DisabledTileOutOfRange {
                tile: (16, 0),
                dim: CellDim { x: 16, y: 8 }
            })
        );

        // What `Machine::new` would otherwise die on in a constructor
        // `assert!` (or an arithmetic overflow) three layers down.
        let c = MachineConfig {
            spm_bytes: 1 << 19,
            ..base.clone()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::SpmTooLarge { bytes: 1 << 19 })
        );

        let dim = CellDim { x: 16, y: 254 };
        let c = MachineConfig {
            cell_dim: dim,
            ..base.clone()
        };
        assert_eq!(c.validate(), Err(ConfigError::CellTooLarge { dim }));

        let c = MachineConfig {
            net_fifo_depth: 0,
            ..base.clone()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroFifoDepth));

        // The rings are allocated up front: a depth from a config text is
        // refused before `Machine::new` would try to allocate it.
        let deepest = MachineConfig {
            net_fifo_depth: MachineConfig::MAX_NET_FIFO_DEPTH,
            ..base.clone()
        };
        assert_eq!(deepest.validate(), Ok(()));
        let text = deepest.canonical_text().replace(
            &format!(";fifo={};", MachineConfig::MAX_NET_FIFO_DEPTH),
            ";fifo=1000000000;",
        );
        let err = MachineConfig::from_canonical_text(&text).unwrap_err();
        assert!(err.contains("net_fifo_depth of 1000000000"), "{err}");
        let c = MachineConfig {
            net_fifo_depth: MachineConfig::MAX_NET_FIFO_DEPTH + 1,
            ..base.clone()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::FifoTooDeep {
                depth: MachineConfig::MAX_NET_FIFO_DEPTH + 1
            })
        );

        let bad_cache =
            |c: MachineConfig| matches!(c.validate(), Err(ConfigError::BadCacheGeometry { .. }));
        for (sets, ways, line_bytes, mshrs) in [
            (0, 8, 64, 8),
            (64, 0, 64, 8),
            (64, 8, 0, 8),
            (64, 8, 48, 8),
            (64, 8, 128, 8),
            (64, 8, 64, 0),
            (usize::MAX, 8, 64, 8),
            (1 << 20, 1 << 10, 64, 8),
        ] {
            assert!(
                bad_cache(MachineConfig {
                    cache_sets: sets,
                    cache_ways: ways,
                    line_bytes,
                    cache_mshrs: mshrs,
                    ..base.clone()
                }),
                "{sets} sets x {ways} ways x {line_bytes} B, {mshrs} MSHRs"
            );
        }

        for bytes in [0, 8, 4095, 2 << 20] {
            let c = MachineConfig {
                icache_bytes: bytes,
                ..base.clone()
            };
            assert_eq!(c.validate(), Err(ConfigError::BadIcacheSize { bytes }));
        }

        for (banks, row_bytes, line_bytes) in [(0, 1024, 64), (12, 1024, 64), (1 << 20, 1024, 64)]
            .into_iter()
            .chain([(16, 1024, 0), (16, 32, 64)])
        {
            let c = MachineConfig {
                hbm: hb_mem::Hbm2Config {
                    banks,
                    row_bytes,
                    line_bytes,
                    ..base.hbm.clone()
                },
                ..base.clone()
            };
            let expect = ConfigError::BadHbmGeometry {
                banks,
                row_bytes,
                line_bytes,
            };
            assert_eq!(c.validate(), Err(expect));
        }
        let zero_burst = MachineConfig {
            hbm: hb_mem::Hbm2Config {
                burst_cycles: 0,
                ..base.hbm.clone()
            },
            ..base.clone()
        };
        assert!(matches!(
            zero_burst.validate(),
            Err(ConfigError::BadHbmGeometry { .. })
        ));

        for (core_mhz, mem_mhz) in [(0, 0), (1000, 1350)] {
            let c = MachineConfig {
                core_freq_mhz: core_mhz,
                mem_freq_mhz: mem_mhz,
                ..base.clone()
            };
            let expect = ConfigError::BadClockRatio { core_mhz, mem_mhz };
            assert_eq!(c.validate(), Err(expect));
        }

        for (bytes_per_cycle, skip_distance) in [(0, 4), (16, 0)] {
            let c = MachineConfig {
                strip: hb_noc::StripConfig {
                    bytes_per_cycle,
                    skip_distance,
                    ..base.strip
                },
                ..base.clone()
            };
            assert_eq!(c.validate(), Err(ConfigError::ZeroWidthStrip));
        }

        // IPOLY hashes global lines over all banks of all Cells; without
        // it they stripe modulo any count.
        for num_cells in [3, 5] {
            let c = MachineConfig {
                num_cells,
                ..base.clone()
            };
            assert_eq!(
                c.validate(),
                Err(ConfigError::MachineBankCountNotPowerOfTwo {
                    banks: 32 * usize::from(num_cells)
                })
            );
            let c = MachineConfig {
                ipoly_hashing: false,
                ..c
            };
            assert_eq!(c.validate(), Ok(()));
        }

        // Every field in range, 126 GiB of cache banks: `Machine::new`
        // would abort on allocation, which no `catch_unwind` isolates.
        let c = MachineConfig {
            cell_dim: CellDim { x: 64, y: 64 },
            num_cells: 63,
            cache_sets: 1 << 15,
            ..base.clone()
        };
        let bytes = 63 * (4096 * (8192 + 4096) + 128 * (32 << 20) + (16 << 20));
        assert_eq!(
            c.validate(),
            Err(ConfigError::HostFootprintTooLarge { bytes })
        );
        // The largest preset is far inside the budget.
        let two = MachineConfig::two_cells_16x8();
        assert_eq!(two.host_footprint(), 39 << 20);
    }

    #[test]
    #[should_panic(expected = "invalid machine configuration")]
    fn building_a_machine_panics_on_bad_config() {
        crate::Machine::new(MachineConfig {
            num_cells: 0,
            ..MachineConfig::baseline_16x8()
        });
    }

    #[test]
    fn canonical_text_roundtrips_every_preset() {
        for cfg in [
            MachineConfig::baseline_16x8(),
            MachineConfig::cell_16x16(),
            MachineConfig::cell_32x8(),
            MachineConfig::two_cells_16x8(),
            MachineConfig::baseline_manycore(),
            MachineConfig::cellular_baseline(),
            MachineConfig {
                disabled_tiles: vec![(1, 1), (0, 2)],
                threads: 4,
                event_core: false,
                ..MachineConfig::baseline_16x8()
            },
        ] {
            let text = cfg.canonical_text();
            let back = MachineConfig::from_canonical_text(&text).unwrap();
            // The host fields come back at their normalized values;
            // everything else must survive the round trip bit-exactly.
            let normalized = MachineConfig {
                threads: 1,
                event_core: true,
                ..cfg
            };
            assert_eq!(back, normalized, "roundtrip of {text}");
            assert_eq!(back.canonical_text(), text);
        }
    }

    /// A value of `field` (as the field list names it) that no preset has.
    /// A field added to the list fails here until it has a mutation.
    fn mutate(cfg: &mut MachineConfig, field: &str) {
        match field {
            "cell_dim" => cfg.cell_dim = CellDim { x: 8, y: 8 },
            "num_cells" => cfg.num_cells = 2,
            "ruche_factor" => cfg.ruche_factor = 0,
            "non_blocking_loads" => cfg.non_blocking_loads = false,
            "write_validate" => cfg.write_validate = false,
            "load_packet_compression" => cfg.load_packet_compression = false,
            "ipoly_hashing" => cfg.ipoly_hashing = false,
            "non_blocking_cache" => cfg.non_blocking_cache = false,
            "spm_bytes" => cfg.spm_bytes = 2048,
            "icache_bytes" => cfg.icache_bytes = 8192,
            "cache_sets" => cfg.cache_sets = 128,
            "cache_ways" => cfg.cache_ways = 4,
            "line_bytes" => cfg.line_bytes = 32,
            "cache_mshrs" => cfg.cache_mshrs = 4,
            "dram_bytes_per_cell" => cfg.dram_bytes_per_cell = 8 << 20,
            "fma_latency" => cfg.fma_latency = 4,
            "mul_latency" => cfg.mul_latency = 3,
            "div_latency" => cfg.div_latency = 17,
            "fdiv_latency" => cfg.fdiv_latency = 13,
            "fsqrt_latency" => cfg.fsqrt_latency = 13,
            "fp_latency" => cfg.fp_latency = 3,
            "spm_load_latency" => cfg.spm_load_latency = 3,
            "branch_miss_penalty" => cfg.branch_miss_penalty = 3,
            "icache_miss_latency" => cfg.icache_miss_latency = 41,
            "max_outstanding" => cfg.max_outstanding = 32,
            "net_fifo_depth" => cfg.net_fifo_depth = 8,
            "link_occupancy" => cfg.link_occupancy = 2,
            "core_freq_mhz" => cfg.core_freq_mhz = 1000,
            "mem_freq_mhz" => cfg.mem_freq_mhz = 800,
            "hbm" => cfg.hbm.t_cas = 15,
            "strip" => cfg.strip.base_latency = 3,
            "disabled_tiles" => cfg.disabled_tiles = vec![(1, 1)],
            "threads" => cfg.threads = 8,
            "event_core" => cfg.event_core = false,
            _ => panic!("no mutation for field {field:?}: add one"),
        }
    }

    #[test]
    fn canonical_text_ignores_threads_and_sees_every_other_field() {
        // threads 1 vs 8 and parking on vs off, the two host fields: neither
        // may leak into the canonical form. Every hashed field: mutating it
        // must change the text (and therefore any content hash derived from
        // it), and the mutated text must decode to the mutated value.
        let base = MachineConfig::baseline_16x8();
        let baseline_text = base.canonical_text();
        assert_eq!(MachineConfig::FIELDS.len(), 32 + 2);
        for &(field, hashed) in MachineConfig::FIELDS {
            let mut cfg = base.clone();
            mutate(&mut cfg, field);
            assert_ne!(cfg, base, "the mutation of {field} is a no-op");
            let text = cfg.canonical_text();
            if hashed {
                assert_ne!(
                    text, baseline_text,
                    "mutating {field} must change the canonical text"
                );
                assert_eq!(MachineConfig::from_canonical_text(&text), Ok(cfg));
            } else {
                assert_eq!(
                    text, baseline_text,
                    "{field} must not leak into the canonical form"
                );
            }
        }
        // The positional sub-fields of `hbm` and `strip`, one at a time.
        for (key, arity) in [("hbm", 12), ("strip", 4)] {
            let entry = baseline_text
                .split(';')
                .find(|e| e.starts_with(&format!("{key}=")))
                .unwrap();
            let values: Vec<&str> = entry[key.len() + 1..].split(',').collect();
            assert_eq!(values.len(), arity);
            for i in 0..arity {
                // Doubled, not incremented: the bank count stays a power of
                // two, so the text still describes a buildable machine.
                let mut bumped = values.clone();
                let doubled = format!("{}", values[i].parse::<u64>().unwrap() * 2);
                bumped[i] = &doubled;
                let text = baseline_text.replace(entry, &format!("{key}={}", bumped.join(",")));
                let cfg = MachineConfig::from_canonical_text(&text).unwrap();
                assert_ne!(cfg, base, "{key} field {i} is not decoded");
                assert_eq!(cfg.canonical_text(), text, "{key} field {i} is not encoded");
            }
        }
    }

    #[test]
    fn canonical_parse_rejects_garbage() {
        assert!(MachineConfig::from_canonical_text("").is_err());
        assert!(MachineConfig::from_canonical_text("cfgv=2").is_err());
        let good = MachineConfig::baseline_16x8().canonical_text();
        // Wrong version must not silently reparse: neither an older text
        // (version 1 still carried `telw`) nor the same text relabelled.
        for version in ["cfgv=0", "cfgv=1", "cfgv=3"] {
            let stale = good.replacen("cfgv=2", version, 1);
            assert_ne!(stale, good);
            assert!(MachineConfig::from_canonical_text(&stale).is_err());
        }
        let v1 = format!("{};telw=0", good.replacen("cfgv=2", "cfgv=1", 1));
        assert!(MachineConfig::from_canonical_text(&v1).is_err());
        // A truncated tail (missing fields) is rejected.
        let cut = &good[..good.len() / 2];
        assert!(MachineConfig::from_canonical_text(cut).is_err());
        // One text per value: no signs, no flags other than 0 and 1, no
        // repeated, unknown or empty entries.
        for (from, to) in [
            ("ruche=3", "ruche=+3"),
            ("nbl=1", "nbl=2"),
            ("ways=8", "ways=8;ways=8"),
            ("ways=8", "ways=8;wayz=8"),
            ("ways=8", "ways=8;"),
            ("strip=16,16,2,4", "strip=16,16,2"),
            ("strip=16,16,2,4", "strip=16,16,2,4,1"),
            ("disabled=", "disabled=1"),
            ("cell=16x8", "cell=16"),
        ] {
            let bad = good.replacen(from, to, 1);
            assert!(MachineConfig::from_canonical_text(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn decoded_configs_are_validated() {
        // What parses but cannot build a machine is the decoder's error,
        // with `validate`'s message — not a panic in `Machine::new`.
        let good = MachineConfig::baseline_16x8().canonical_text();
        for (from, to, why) in [
            ("cell=16x8", "cell=0x0", "empty cell"),
            ("cell=16x8", "cell=3x8", "power of two"),
            ("cells=1", "cells=0", "num_cells"),
            ("dram=16777216", "dram=4294967295", "EVA offset"),
            ("spm=4096", "spm=16", "too small"),
            ("outst=63", "outst=0", "max_outstanding"),
            ("disabled=", "disabled=16,0", "outside the 16x8 cell"),
            ("cells=1", "cells=255", "host memory budget"),
            ("cells=1", "cells=3", "IPOLY hashing over 96 banks"),
        ] {
            let err = MachineConfig::from_canonical_text(&good.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(why), "{to}: {err}");
        }
    }

    #[test]
    fn an_spm_that_covers_the_csr_window_is_refused() {
        // Past `CSR_BASE` the scratchpad would answer every CSR address:
        // each tile would read rank 0 and no barrier store would join.
        let good = MachineConfig::baseline_16x8();
        assert_eq!(good.spm_bytes, 4096);
        good.validate().unwrap();
        let text = good.canonical_text();
        assert_eq!(MachineConfig::from_canonical_text(&text), Ok(good.clone()));
        let big = MachineConfig {
            spm_bytes: 8192,
            ..good
        };
        assert_eq!(
            big.validate(),
            Err(ConfigError::SpmTooLarge { bytes: 8192 })
        );
        let err = MachineConfig::from_canonical_text(&text.replacen("spm=4096", "spm=8192", 1))
            .unwrap_err();
        assert!(err.contains("CSR window"), "{err}");
    }

    #[test]
    fn presets_differ_only_in_documented_knobs() {
        let base = MachineConfig::baseline_16x8();
        let cellular = MachineConfig::cellular_baseline();
        assert_eq!(base.cell_dim, cellular.cell_dim);
        assert!(!cellular.non_blocking_loads);
        assert!(base.non_blocking_loads);
    }
}
