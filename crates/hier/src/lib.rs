//! A hierarchical-manycore baseline model (ET-SoC-1-like), the comparator
//! of the paper's Figures 3 and 16.
//!
//! The real comparator is Esperanto's ET-SoC-1: 1088 cores in 8-core
//! *neighborhoods*, four neighborhoods per crossbar-connected *shire*,
//! shires linked by a concentrated 2-D mesh with 1024-bit channels, and
//! multi-megabyte L2 per shire. The essential architectural contrasts with
//! HammerBlade's Cellular approach are:
//!
//! 1. **Block-granularity inter-shire transfers** — a single remote word
//!    costs a whole channel block, so sparse random traffic wastes almost
//!    the entire wire budget ([`BlockChannel`], Figure 3's bottom curve).
//! 2. **Lower independent-thread density** but **much larger L2**
//!    ([`HierMachine::estimate`], the execution-time half of Figure 16).
//!
//! Two levels of model are provided: a cycle-level [`BlockChannel`]
//! simulating the wide-link transfer path, and a roofline
//! [`HierMachine::estimate`] that converts a measured kernel profile
//! (instruction and memory-access counts from the HB simulator) into
//! hierarchical-machine execution time.

#![forbid(unsafe_code)]

use hb_rng::Rng;

/// Configuration of the hierarchical machine.
#[derive(Debug, Clone, PartialEq)]
pub struct HierConfig {
    /// Number of shires (clusters).
    pub shires: usize,
    /// Cores per shire (8-core neighborhoods x 4).
    pub cores_per_shire: usize,
    /// L2 capacity per shire in bytes.
    pub l2_per_shire: u64,
    /// Inter-shire channel payload per cycle in bytes (1024-bit = 128 B).
    pub link_bytes_per_cycle: u32,
    /// Channels crossing the machine bisection.
    pub bisection_links: usize,
    /// DRAM bandwidth in bytes per core-clock cycle (matched to HB's
    /// HBM2 so the comparison isolates the on-chip architecture).
    pub dram_bytes_per_cycle: u32,
    /// L2 hit latency in cycles.
    pub l2_hit_latency: u64,
    /// DRAM access latency in cycles.
    pub dram_latency: u64,
    /// Memory-level parallelism per core (outstanding misses a blocking
    /// cache hierarchy can sustain; HB's scoreboard allows 63).
    pub mlp: f64,
}

impl Default for HierConfig {
    /// An ET-class machine normalized to the paper's comparison: equal
    /// HBM2 bandwidth to the HB 32x8 configuration, ~1/4 the thread count,
    /// 4 MB L2 per shire.
    fn default() -> HierConfig {
        HierConfig {
            shires: 4,
            cores_per_shire: 32,
            l2_per_shire: 4 << 20,
            link_bytes_per_cycle: 128,
            bisection_links: 2,
            dram_bytes_per_cycle: 16,
            l2_hit_latency: 20,
            dram_latency: 100,
            mlp: 4.0,
        }
    }
}

impl HierConfig {
    /// Total hardware threads.
    pub fn total_cores(&self) -> usize {
        self.shires * self.cores_per_shire
    }

    /// Total L2 capacity.
    pub fn total_l2(&self) -> u64 {
        self.shires as u64 * self.l2_per_shire
    }
}

/// A kernel characterized by counters measured on the HB simulator,
/// re-targetable to the hierarchical model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Dynamic instructions executed (all threads).
    pub instrs: u64,
    /// DRAM-space memory accesses (word granularity).
    pub mem_accesses: u64,
    /// Distinct cache lines touched (working-set size in lines).
    pub unique_lines: u64,
    /// Fraction of accesses that are sparse/random (defeat spatial
    /// locality), in `[0, 1]`.
    pub random_fraction: f64,
    /// Fraction of run time the *algorithm* spends synchronizing
    /// (barriers/phases), measured on HB and equally applicable to the
    /// hierarchical machine, in `[0, 1)`.
    pub sync_fraction: f64,
}

/// Outcome of the roofline estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierEstimate {
    /// Estimated execution cycles.
    pub cycles: u64,
    /// Which resource bound: "compute", "dram", or "noc".
    pub bottleneck: &'static str,
    /// L2 miss rate used.
    pub miss_rate: f64,
}

/// The hierarchical machine model.
#[derive(Debug, Clone, Default)]
pub struct HierMachine {
    /// Machine parameters.
    pub cfg: HierConfig,
}

impl HierMachine {
    /// Creates a machine with the given configuration.
    pub fn new(cfg: HierConfig) -> HierMachine {
        HierMachine { cfg }
    }

    /// Roofline execution-time estimate for a measured kernel profile:
    /// the max of the compute bound (1 IPC per core), the DRAM-bandwidth
    /// bound and the inter-shire NoC bound, plus a latency term for the
    /// serial fraction.
    pub fn estimate(&self, w: &WorkloadProfile) -> HierEstimate {
        let cfg = &self.cfg;
        let compute = w.instrs / cfg.total_cores() as u64;
        debug_assert!((0.0..1.0).contains(&w.sync_fraction));

        // Working set vs L2: misses are cold-only when it fits; otherwise
        // random accesses miss in proportion to the capacity shortfall.
        let working_set = w.unique_lines * 64;
        let miss_rate = if working_set <= cfg.total_l2() {
            if w.mem_accesses == 0 {
                0.0
            } else {
                (w.unique_lines as f64 / w.mem_accesses as f64).min(1.0)
            }
        } else {
            let capacity_short = 1.0 - cfg.total_l2() as f64 / working_set as f64;
            (w.random_fraction * capacity_short).clamp(0.01, 1.0)
        };
        let dram_lines = (w.mem_accesses as f64 * miss_rate) as u64;
        let dram = dram_lines * 64 / u64::from(cfg.dram_bytes_per_cycle);

        // Inter-shire traffic: random accesses cross shires with
        // probability (shires-1)/shires and move a whole link block each.
        let cross = (w.mem_accesses as f64 * w.random_fraction * (cfg.shires as f64 - 1.0)
            / cfg.shires as f64) as u64;
        let noc = cross * u64::from(cfg.link_bytes_per_cycle)
            / (cfg.bisection_links as u64 * u64::from(cfg.link_bytes_per_cycle));
        // Each crossing occupies a full block slot on a bisection link.
        let noc = noc.max(cross / cfg.bisection_links as u64);

        // Exposed memory latency: blocking cache hierarchies overlap only
        // `mlp` outstanding accesses per core (vs HB's 63-entry
        // scoreboard), so random accesses pay L2-hit latency and misses
        // pay DRAM latency with limited overlap.
        let random_accesses = w.mem_accesses as f64 * w.random_fraction;
        let latency_cycles = ((random_accesses * cfg.l2_hit_latency as f64
            + dram_lines as f64 * cfg.dram_latency as f64)
            / (cfg.total_cores() as f64 * cfg.mlp)) as u64;
        let core_time = compute + latency_cycles;

        let (mut cycles, bottleneck) = [(core_time, "compute"), (dram, "dram"), (noc, "noc")]
            .into_iter()
            .max_by_key(|&(c, _)| c)
            .unwrap();
        // Algorithmic synchronization applies to any machine running the
        // same phased algorithm.
        cycles = (cycles as f64 / (1.0 - w.sync_fraction)) as u64;
        HierEstimate {
            cycles: cycles.max(1),
            bottleneck,
            miss_rate,
        }
    }

    /// Cycles to move `bytes` of data between two shires when the data is
    /// `random` (sparse single words, each occupying a whole block slot)
    /// or dense (streamed at full width).
    pub fn transfer_cycles(&self, bytes: u64, random: bool) -> u64 {
        let link = u64::from(self.cfg.link_bytes_per_cycle);
        if random {
            // One word (4 B) of payload per block slot.
            (bytes / 4).div_ceil(self.cfg.bisection_links as u64)
        } else {
            bytes.div_ceil(link * self.cfg.bisection_links as u64)
        }
    }
}

/// Cycle-level model of one wide inter-shire channel moving a sparse word
/// set, producing the utilization-over-time trace of Figure 3's
/// hierarchical curve.
#[derive(Debug)]
pub struct BlockChannel {
    /// Channel payload bytes per cycle.
    pub block_bytes: u32,
    queue: Vec<u32>,
    cursor: usize,
    cycle: u64,
    useful_bytes: u64,
}

impl BlockChannel {
    /// Creates a channel of `block_bytes` width with a queue of word
    /// addresses to deliver.
    pub fn new(block_bytes: u32, word_addrs: Vec<u32>) -> BlockChannel {
        BlockChannel {
            block_bytes,
            queue: word_addrs,
            cursor: 0,
            cycle: 0,
            useful_bytes: 0,
        }
    }

    /// Generates `words` random word addresses in a `span`-byte window
    /// (the Figure 3 scenario: 1 MB of sparse random data).
    pub fn random_workload(words: usize, span: u32, seed: u64) -> Vec<u32> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..words).map(|_| rng.range_u32(0, span / 4) * 4).collect()
    }

    /// Whether all words have been delivered.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.queue.len()
    }

    /// Advances one cycle: transfers one block, delivering every queued
    /// word that happens to fall in the same block as the next word
    /// (consecutive in queue order). Returns the payload utilization of
    /// this cycle's block.
    pub fn tick(&mut self) -> f64 {
        self.cycle += 1;
        if self.is_done() {
            return 0.0;
        }
        let block = self.queue[self.cursor] / self.block_bytes;
        let mut carried = 0u32;
        while self.cursor < self.queue.len() && self.queue[self.cursor] / self.block_bytes == block
        {
            self.cursor += 1;
            carried += 4;
        }
        self.useful_bytes += u64::from(carried);
        f64::from(carried) / f64::from(self.block_bytes)
    }

    /// Cycles elapsed.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Mean payload utilization so far.
    pub fn mean_utilization(&self) -> f64 {
        if self.cycle == 0 {
            0.0
        } else {
            self.useful_bytes as f64 / (self.cycle as f64 * f64::from(self.block_bytes))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_random_wastes_wide_channels() {
        // The Figure 3 contrast: 1 MB of random words over a 128-byte
        // channel uses a few percent of the wires; a word-width channel
        // would use ~100%.
        let words = BlockChannel::random_workload(262_144, 1 << 20, 3);
        let mut ch = BlockChannel::new(128, words);
        while !ch.is_done() {
            ch.tick();
        }
        let util = ch.mean_utilization();
        assert!(
            util < 0.10,
            "sparse random on 1024-bit channel should be <10% useful, got {util:.3}"
        );
    }

    #[test]
    fn dense_data_uses_wide_channels_well() {
        // Sequential words fill each block completely.
        let words: Vec<u32> = (0..65_536u32).map(|i| i * 4).collect();
        let mut ch = BlockChannel::new(128, words);
        while !ch.is_done() {
            ch.tick();
        }
        assert!(ch.mean_utilization() > 0.99);
    }

    #[test]
    fn roofline_picks_compute_for_dense_kernels() {
        let m = HierMachine::default();
        let est = m.estimate(&WorkloadProfile {
            instrs: 100_000_000,
            mem_accesses: 1000,
            unique_lines: 100,
            random_fraction: 0.0,
            sync_fraction: 0.0,
        });
        assert_eq!(est.bottleneck, "compute");
    }

    #[test]
    fn roofline_picks_noc_for_sparse_kernels() {
        let m = HierMachine::default();
        let est = m.estimate(&WorkloadProfile {
            instrs: 1_000_000,
            mem_accesses: 1_000_000,
            unique_lines: 1 << 20, // 64 MB working set >> L2
            random_fraction: 1.0,
            sync_fraction: 0.0,
        });
        assert!(est.bottleneck == "noc" || est.bottleneck == "dram");
        assert!(est.miss_rate > 0.1);
    }

    #[test]
    fn large_l2_reduces_misses() {
        let small = HierMachine::new(HierConfig {
            l2_per_shire: 1 << 20,
            ..HierConfig::default()
        });
        let big = HierMachine::new(HierConfig {
            l2_per_shire: 64 << 20,
            ..HierConfig::default()
        });
        let w = WorkloadProfile {
            instrs: 10_000_000,
            mem_accesses: 5_000_000,
            unique_lines: 200_000, // 12.8 MB working set
            random_fraction: 0.8,
            sync_fraction: 0.0,
        };
        assert!(big.estimate(&w).miss_rate < small.estimate(&w).miss_rate);
    }

    #[test]
    fn random_transfer_is_slower_than_dense() {
        let m = HierMachine::default();
        let bytes = 1 << 20;
        assert!(m.transfer_cycles(bytes, true) > 10 * m.transfer_cycles(bytes, false));
    }
}
