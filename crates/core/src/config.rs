//! Machine configuration: geometry, feature knobs and timing parameters.
//!
//! Every architectural feature evaluated in the paper's Figure 10 ablation
//! has a knob here, and the Table II machine configurations are provided as
//! presets.

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
    /// Number of Cells simulated together (multi-Cell runs follow the
    /// paper's methodology: independent single-Cell simulations plus an
    /// inter-Cell transfer estimate).
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
    /// Host worker threads for the tile phase of each cycle (see
    /// `hb_core::parallel`). `1` steps tiles inline; `>1` shards them
    /// across a persistent pool. Results are bit-identical either way.
    /// Presets seed this from the `HB_THREADS` environment variable.
    pub threads: usize,
    /// Telemetry sampling window in core cycles; `0` disables sampling.
    /// Consulted by the `hb-obs` observer factory (see `hb_core::observe`)
    /// when one is installed — without a factory the knob is inert.
    /// Sampling never changes simulated results; runs are bit-identical
    /// at any window.
    pub telemetry_window: u64,
    /// Dynamic race sanitizer (see `hb_core::race`): when `true`, every
    /// shared-location access (remote stores, AMOs, DRAM and SPM traffic)
    /// is stamped `(tile, barrier-epoch, kind)` into a shadow map and
    /// same-epoch conflicting pairs are reported. Checking is read-only:
    /// simulated results are bit-identical with the sanitizer on or off,
    /// and with it off the hot loop pays exactly one always-false branch
    /// (the same pattern as `telemetry_window`/fault hooks).
    pub race_check: bool,
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
    /// Guest-code profiling (see `hb_core::gprof`): when `true`, every
    /// tile accumulates an exact retired-PC histogram plus per-PC
    /// stall-cycle attribution, folded on demand by
    /// `Machine::guest_profile`. Profiling is read-only — cycles, memory
    /// and every architectural counter are bit-identical with the flag on
    /// or off, and with it off each tile pays exactly one always-false
    /// branch per recorded event (the same pattern as `telemetry_window`
    /// and `race_check`). Host-only: excluded from the canonical text.
    pub profile: bool,
    /// Hang-watchdog probe interval in core cycles: `Machine::run` samples
    /// its progress signature every `watchdog_window` cycles and declares a
    /// hang after two unchanged samples (so detection latency is between
    /// one and two windows). Host-only: the watchdog merely *observes* a
    /// run, so the window is excluded from the canonical text and cannot
    /// change simulated results. Must be at least 1.
    pub watchdog_window: u64,
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
            threads: crate::parallel::threads_from_env(),
            telemetry_window: 0,
            race_check: false,
            event_core: true,
            profile: false,
            watchdog_window: 10_000,
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
            ruche_factor: 0,
            non_blocking_loads: false,
            write_validate: false,
            load_packet_compression: false,
            ipoly_hashing: false,
            non_blocking_cache: false,
            cache_sets: 32,
            link_occupancy: 2,
            net_fifo_depth: 2,
            ..MachineConfig::baseline_16x8()
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
        if self.watchdog_window == 0 {
            return Err(ConfigError::ZeroWatchdogWindow);
        }
        if self.dram_bytes_per_cell > (16 << 20) {
            return Err(ConfigError::DramWindowTooLarge {
                bytes: self.dram_bytes_per_cell,
            });
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
        Ok(())
    }

    /// Like [`MachineConfig::validate`], for call sites where an invalid
    /// configuration is a programming error.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message on an impossible
    /// configuration.
    pub fn validate_or_panic(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid machine configuration: {e}");
        }
    }
}

impl MachineConfig {
    /// Version of the canonical text layout produced by
    /// [`MachineConfig::canonical_text`]. Bump whenever a field is added,
    /// removed or re-interpreted so stale cached results never alias.
    pub const CANONICAL_VERSION: u32 = 1;

    /// Stable canonical serialization: every simulated-behaviour field in a
    /// fixed order as `key=value` pairs joined by `;`, prefixed with a
    /// layout version. Host-execution knobs that cannot change simulated
    /// results (`threads`) are deliberately excluded, so the text — and any
    /// content hash derived from it — is identical across `HB_THREADS`
    /// settings.
    pub fn canonical_text(&self) -> String {
        let disabled = self
            .disabled_tiles
            .iter()
            .map(|(x, y)| format!("{x},{y}"))
            .collect::<Vec<_>>()
            .join("+");
        format!(
            "cfgv={v};cell={cx}x{cy};cells={cells};ruche={ruche};nbl={nbl};wv={wv};\
             lpc={lpc};ipoly={ipoly};nbc={nbc};spm={spm};icache={ic};sets={sets};\
             ways={ways};line={line};mshrs={mshrs};dram={dram};fma={fma};mul={mul};\
             div={div};fdiv={fdiv};fsqrt={fsqrt};fp={fp};spmld={spmld};bmiss={bmiss};\
             icmiss={icmiss};outst={outst};fifo={fifo};linkocc={linkocc};\
             coremhz={coremhz};memmhz={memmhz};hbm={hbanks},{hrow},{hline},{hburst},\
             {hrcd},{hrp},{hcas},{hras},{hccd},{hrfc},{hrefi},{hqd};\
             strip={sbanks},{sbpc},{slat},{sskip};disabled={disabled};telw={telw}",
            v = MachineConfig::CANONICAL_VERSION,
            cx = self.cell_dim.x,
            cy = self.cell_dim.y,
            cells = self.num_cells,
            ruche = self.ruche_factor,
            nbl = u8::from(self.non_blocking_loads),
            wv = u8::from(self.write_validate),
            lpc = u8::from(self.load_packet_compression),
            ipoly = u8::from(self.ipoly_hashing),
            nbc = u8::from(self.non_blocking_cache),
            spm = self.spm_bytes,
            ic = self.icache_bytes,
            sets = self.cache_sets,
            ways = self.cache_ways,
            line = self.line_bytes,
            mshrs = self.cache_mshrs,
            dram = self.dram_bytes_per_cell,
            fma = self.fma_latency,
            mul = self.mul_latency,
            div = self.div_latency,
            fdiv = self.fdiv_latency,
            fsqrt = self.fsqrt_latency,
            fp = self.fp_latency,
            spmld = self.spm_load_latency,
            bmiss = self.branch_miss_penalty,
            icmiss = self.icache_miss_latency,
            outst = self.max_outstanding,
            fifo = self.net_fifo_depth,
            linkocc = self.link_occupancy,
            coremhz = self.core_freq_mhz,
            memmhz = self.mem_freq_mhz,
            hbanks = self.hbm.banks,
            hrow = self.hbm.row_bytes,
            hline = self.hbm.line_bytes,
            hburst = self.hbm.burst_cycles,
            hrcd = self.hbm.t_rcd,
            hrp = self.hbm.t_rp,
            hcas = self.hbm.t_cas,
            hras = self.hbm.t_ras,
            hccd = self.hbm.t_ccd,
            hrfc = self.hbm.t_rfc,
            hrefi = self.hbm.t_refi,
            hqd = self.hbm.queue_depth,
            sbanks = self.strip.banks,
            sbpc = self.strip.bytes_per_cycle,
            slat = self.strip.base_latency,
            sskip = self.strip.skip_distance,
            disabled = disabled,
            telw = self.telemetry_window,
        )
    }

    /// Parses a [`MachineConfig::canonical_text`] string back into a
    /// configuration. `threads` is not part of the canonical form and is
    /// restored to `1`; callers that simulate set it explicitly.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing, unknown or malformed field.
    /// A version other than [`MachineConfig::CANONICAL_VERSION`] is an
    /// error — stale text must not silently reparse.
    pub fn from_canonical_text(text: &str) -> Result<MachineConfig, String> {
        let mut map = std::collections::BTreeMap::new();
        for part in text.split(';') {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("malformed field {part:?}"))?;
            if map.insert(k.trim(), v).is_some() {
                return Err(format!("duplicate field {k:?}"));
            }
        }
        fn req<'a>(
            map: &std::collections::BTreeMap<&str, &'a str>,
            key: &str,
        ) -> Result<&'a str, String> {
            map.get(key)
                .copied()
                .ok_or_else(|| format!("missing field {key:?}"))
        }
        fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("bad value for {key:?}: {v:?}"))
        }
        fn get<T: std::str::FromStr>(
            map: &std::collections::BTreeMap<&str, &str>,
            key: &str,
        ) -> Result<T, String> {
            num(key, req(map, key)?)
        }
        fn get_bool(
            map: &std::collections::BTreeMap<&str, &str>,
            key: &str,
        ) -> Result<bool, String> {
            Ok(get::<u8>(map, key)? != 0)
        }
        fn fields<'a, const N: usize>(key: &str, v: &'a str) -> Result<[&'a str; N], String> {
            let parts: Vec<&str> = v.split(',').collect();
            parts
                .try_into()
                .map_err(|_| format!("{key:?} wants {N} comma-separated values, got {v:?}"))
        }

        let version: u32 = get(&map, "cfgv")?;
        if version != MachineConfig::CANONICAL_VERSION {
            return Err(format!(
                "canonical config version {version} != supported {}",
                MachineConfig::CANONICAL_VERSION
            ));
        }
        let cell = req(&map, "cell")?;
        let (cx, cy) = cell
            .split_once('x')
            .ok_or_else(|| format!("bad cell dim {cell:?}"))?;
        let hbm = fields::<12>("hbm", req(&map, "hbm")?)?;
        let strip = fields::<4>("strip", req(&map, "strip")?)?;
        let disabled_text = req(&map, "disabled")?;
        let mut disabled_tiles = Vec::new();
        if !disabled_text.is_empty() {
            for pair in disabled_text.split('+') {
                let (x, y) = pair
                    .split_once(',')
                    .ok_or_else(|| format!("bad disabled tile {pair:?}"))?;
                disabled_tiles.push((num("disabled", x)?, num("disabled", y)?));
            }
        }
        let cfg = MachineConfig {
            cell_dim: CellDim {
                x: num("cell", cx)?,
                y: num("cell", cy)?,
            },
            num_cells: get(&map, "cells")?,
            ruche_factor: get(&map, "ruche")?,
            non_blocking_loads: get_bool(&map, "nbl")?,
            write_validate: get_bool(&map, "wv")?,
            load_packet_compression: get_bool(&map, "lpc")?,
            ipoly_hashing: get_bool(&map, "ipoly")?,
            non_blocking_cache: get_bool(&map, "nbc")?,
            spm_bytes: get(&map, "spm")?,
            icache_bytes: get(&map, "icache")?,
            cache_sets: get(&map, "sets")?,
            cache_ways: get(&map, "ways")?,
            line_bytes: get(&map, "line")?,
            cache_mshrs: get(&map, "mshrs")?,
            dram_bytes_per_cell: get(&map, "dram")?,
            fma_latency: get(&map, "fma")?,
            mul_latency: get(&map, "mul")?,
            div_latency: get(&map, "div")?,
            fdiv_latency: get(&map, "fdiv")?,
            fsqrt_latency: get(&map, "fsqrt")?,
            fp_latency: get(&map, "fp")?,
            spm_load_latency: get(&map, "spmld")?,
            branch_miss_penalty: get(&map, "bmiss")?,
            icache_miss_latency: get(&map, "icmiss")?,
            max_outstanding: get(&map, "outst")?,
            net_fifo_depth: get(&map, "fifo")?,
            link_occupancy: get(&map, "linkocc")?,
            core_freq_mhz: get(&map, "coremhz")?,
            mem_freq_mhz: get(&map, "memmhz")?,
            hbm: Hbm2Config {
                banks: num("hbm.banks", hbm[0])?,
                row_bytes: num("hbm.row_bytes", hbm[1])?,
                line_bytes: num("hbm.line_bytes", hbm[2])?,
                burst_cycles: num("hbm.burst_cycles", hbm[3])?,
                t_rcd: num("hbm.t_rcd", hbm[4])?,
                t_rp: num("hbm.t_rp", hbm[5])?,
                t_cas: num("hbm.t_cas", hbm[6])?,
                t_ras: num("hbm.t_ras", hbm[7])?,
                t_ccd: num("hbm.t_ccd", hbm[8])?,
                t_rfc: num("hbm.t_rfc", hbm[9])?,
                t_refi: num("hbm.t_refi", hbm[10])?,
                queue_depth: num("hbm.queue_depth", hbm[11])?,
            },
            strip: StripConfig {
                banks: num("strip.banks", strip[0])?,
                bytes_per_cycle: num("strip.bytes_per_cycle", strip[1])?,
                base_latency: num("strip.base_latency", strip[2])?,
                skip_distance: num("strip.skip_distance", strip[3])?,
            },
            disabled_tiles,
            threads: 1,
            telemetry_window: get(&map, "telw")?,
            race_check: false,
            event_core: true,
            profile: false,
            watchdog_window: 10_000,
        };
        // 34 top-level keys: every field accounted for, nothing unknown.
        if map.len() != 34 {
            return Err(format!("expected 34 canonical fields, got {}", map.len()));
        }
        Ok(cfg)
    }
}

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
    /// The hang watchdog cannot probe on a zero-cycle interval.
    ZeroWatchdogWindow,
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
            ConfigError::ZeroWatchdogWindow => {
                write!(f, "watchdog_window must be at least 1 cycle")
            }
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
            watchdog_window: 0,
            ..base.clone()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroWatchdogWindow));

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
            ..base
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::DisabledTileOutOfRange {
                tile: (16, 0),
                dim: CellDim { x: 16, y: 8 }
            })
        );
    }

    #[test]
    #[should_panic(expected = "invalid machine configuration")]
    fn validate_or_panic_panics_on_bad_config() {
        MachineConfig {
            num_cells: 0,
            ..MachineConfig::baseline_16x8()
        }
        .validate_or_panic();
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
                telemetry_window: 500,
                ..MachineConfig::baseline_16x8()
            },
        ] {
            let text = cfg.canonical_text();
            let back = MachineConfig::from_canonical_text(&text).unwrap();
            // threads/event_core/profile are host-only and restored to their
            // fixed values; everything else must survive the round trip
            // bit-exactly.
            let normalized = MachineConfig {
                threads: 1,
                event_core: true,
                profile: false,
                ..cfg
            };
            assert_eq!(back, normalized, "roundtrip of {text}");
            assert_eq!(back.canonical_text(), text);
        }
    }

    #[test]
    fn canonical_text_ignores_threads_and_sees_every_other_field() {
        let base = MachineConfig::baseline_16x8();
        let a = MachineConfig {
            threads: 1,
            ..base.clone()
        };
        let b = MachineConfig {
            threads: 8,
            ..base.clone()
        };
        assert_eq!(
            a.canonical_text(),
            b.canonical_text(),
            "threads must not leak into the canonical form"
        );
        let ev_on = MachineConfig {
            event_core: true,
            ..base.clone()
        };
        let ev_off = MachineConfig {
            event_core: false,
            ..base.clone()
        };
        assert_eq!(
            ev_on.canonical_text(),
            ev_off.canonical_text(),
            "event_core must not leak into the canonical form"
        );
        let prof_on = MachineConfig {
            profile: true,
            ..base.clone()
        };
        assert_eq!(
            prof_on.canonical_text(),
            base.canonical_text(),
            "profile must not leak into the canonical form"
        );

        // Mutating any simulated-behaviour field must change the text (and
        // therefore any content hash derived from it).
        let mutations: Vec<(&str, MachineConfig)> = vec![
            (
                "cell_dim",
                MachineConfig {
                    cell_dim: CellDim { x: 8, y: 8 },
                    ..base.clone()
                },
            ),
            (
                "num_cells",
                MachineConfig {
                    num_cells: 2,
                    ..base.clone()
                },
            ),
            (
                "ruche_factor",
                MachineConfig {
                    ruche_factor: 0,
                    ..base.clone()
                },
            ),
            (
                "non_blocking_loads",
                MachineConfig {
                    non_blocking_loads: false,
                    ..base.clone()
                },
            ),
            (
                "write_validate",
                MachineConfig {
                    write_validate: false,
                    ..base.clone()
                },
            ),
            (
                "load_packet_compression",
                MachineConfig {
                    load_packet_compression: false,
                    ..base.clone()
                },
            ),
            (
                "ipoly_hashing",
                MachineConfig {
                    ipoly_hashing: false,
                    ..base.clone()
                },
            ),
            (
                "non_blocking_cache",
                MachineConfig {
                    non_blocking_cache: false,
                    ..base.clone()
                },
            ),
            (
                "spm_bytes",
                MachineConfig {
                    spm_bytes: 8192,
                    ..base.clone()
                },
            ),
            (
                "icache_bytes",
                MachineConfig {
                    icache_bytes: 8192,
                    ..base.clone()
                },
            ),
            (
                "cache_sets",
                MachineConfig {
                    cache_sets: 128,
                    ..base.clone()
                },
            ),
            (
                "cache_ways",
                MachineConfig {
                    cache_ways: 4,
                    ..base.clone()
                },
            ),
            (
                "line_bytes",
                MachineConfig {
                    line_bytes: 32,
                    ..base.clone()
                },
            ),
            (
                "cache_mshrs",
                MachineConfig {
                    cache_mshrs: 4,
                    ..base.clone()
                },
            ),
            (
                "dram_bytes_per_cell",
                MachineConfig {
                    dram_bytes_per_cell: 8 << 20,
                    ..base.clone()
                },
            ),
            (
                "fma_latency",
                MachineConfig {
                    fma_latency: 4,
                    ..base.clone()
                },
            ),
            (
                "mul_latency",
                MachineConfig {
                    mul_latency: 3,
                    ..base.clone()
                },
            ),
            (
                "div_latency",
                MachineConfig {
                    div_latency: 17,
                    ..base.clone()
                },
            ),
            (
                "fdiv_latency",
                MachineConfig {
                    fdiv_latency: 13,
                    ..base.clone()
                },
            ),
            (
                "fsqrt_latency",
                MachineConfig {
                    fsqrt_latency: 13,
                    ..base.clone()
                },
            ),
            (
                "fp_latency",
                MachineConfig {
                    fp_latency: 3,
                    ..base.clone()
                },
            ),
            (
                "spm_load_latency",
                MachineConfig {
                    spm_load_latency: 3,
                    ..base.clone()
                },
            ),
            (
                "branch_miss_penalty",
                MachineConfig {
                    branch_miss_penalty: 3,
                    ..base.clone()
                },
            ),
            (
                "icache_miss_latency",
                MachineConfig {
                    icache_miss_latency: 41,
                    ..base.clone()
                },
            ),
            (
                "max_outstanding",
                MachineConfig {
                    max_outstanding: 32,
                    ..base.clone()
                },
            ),
            (
                "net_fifo_depth",
                MachineConfig {
                    net_fifo_depth: 8,
                    ..base.clone()
                },
            ),
            (
                "link_occupancy",
                MachineConfig {
                    link_occupancy: 2,
                    ..base.clone()
                },
            ),
            (
                "core_freq_mhz",
                MachineConfig {
                    core_freq_mhz: 1000,
                    ..base.clone()
                },
            ),
            (
                "mem_freq_mhz",
                MachineConfig {
                    mem_freq_mhz: 800,
                    ..base.clone()
                },
            ),
            (
                "hbm",
                MachineConfig {
                    hbm: Hbm2Config {
                        t_cas: 15,
                        ..base.hbm.clone()
                    },
                    ..base.clone()
                },
            ),
            (
                "strip",
                MachineConfig {
                    strip: StripConfig {
                        base_latency: 3,
                        ..base.strip
                    },
                    ..base.clone()
                },
            ),
            (
                "disabled_tiles",
                MachineConfig {
                    disabled_tiles: vec![(1, 1)],
                    ..base.clone()
                },
            ),
            (
                "telemetry_window",
                MachineConfig {
                    telemetry_window: 100,
                    ..base.clone()
                },
            ),
        ];
        let baseline_text = base.canonical_text();
        for (field, cfg) in mutations {
            assert_ne!(
                cfg.canonical_text(),
                baseline_text,
                "mutating {field} must change the canonical text"
            );
        }
    }

    #[test]
    fn canonical_parse_rejects_garbage() {
        assert!(MachineConfig::from_canonical_text("").is_err());
        assert!(MachineConfig::from_canonical_text("cfgv=1").is_err());
        let good = MachineConfig::baseline_16x8().canonical_text();
        // Wrong version must not silently reparse.
        let stale = good.replacen("cfgv=1", "cfgv=0", 1);
        assert!(MachineConfig::from_canonical_text(&stale).is_err());
        // A truncated tail (missing fields) is rejected.
        let cut = &good[..good.len() / 2];
        assert!(MachineConfig::from_canonical_text(cut).is_err());
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
