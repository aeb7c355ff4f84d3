//! Execution statistics: the per-core cycle taxonomy of the paper's
//! Figure 11 / Table III and aggregate Cell counters.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Why a core did not retire an instruction this cycle (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum StallKind {
    /// Instruction-cache miss refill.
    IcacheMiss = 0,
    /// Branch/jump misprediction penalty.
    BranchMiss,
    /// RAW dependency on an in-flight ALU/FPU result (bypass distance).
    Bypass,
    /// Load-use delay on a local scratchpad load.
    LocalLoad,
    /// Waiting for a remote load response (DRAM or remote SPM).
    RemoteLoad,
    /// Waiting for a remote atomic response.
    AmoDep,
    /// Could not inject a request: scoreboard full or network backpressure.
    RemoteCredit,
    /// `fence`: draining the remote-request scoreboard.
    Fence,
    /// Blocked in the hardware barrier.
    Barrier,
    /// Iterative FP divide/sqrt unit busy.
    FpBusy,
    /// Iterative integer divider busy.
    IntBusy,
    /// Frozen by an injected whole-tile fault (`hb-fault`).
    Frozen,
    /// Tile finished (idle until the kernel ends elsewhere).
    Done,
}

impl StallKind {
    /// Number of stall categories.
    pub const COUNT: usize = 13;

    /// Every category, in display order.
    pub const ALL: [StallKind; StallKind::COUNT] = [
        StallKind::IcacheMiss,
        StallKind::BranchMiss,
        StallKind::Bypass,
        StallKind::LocalLoad,
        StallKind::RemoteLoad,
        StallKind::AmoDep,
        StallKind::RemoteCredit,
        StallKind::Fence,
        StallKind::Barrier,
        StallKind::FpBusy,
        StallKind::IntBusy,
        StallKind::Frozen,
        StallKind::Done,
    ];

    /// Short label used in utilization reports.
    pub fn label(self) -> &'static str {
        match self {
            StallKind::IcacheMiss => "icache",
            StallKind::BranchMiss => "branch_miss",
            StallKind::Bypass => "bypass",
            StallKind::LocalLoad => "local_ld",
            StallKind::RemoteLoad => "remote_ld",
            StallKind::AmoDep => "amo",
            StallKind::RemoteCredit => "credit",
            StallKind::Fence => "fence",
            StallKind::Barrier => "barrier",
            StallKind::FpBusy => "fdiv_fsqrt",
            StallKind::IntBusy => "idiv",
            StallKind::Frozen => "frozen",
            StallKind::Done => "done",
        }
    }
}

impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-core cycle and instruction counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles retiring an integer instruction (incl. memory and control,
    /// per the paper's taxonomy).
    pub int_cycles: u64,
    /// Cycles retiring a floating-point instruction.
    pub fp_cycles: u64,
    /// Stalled cycles by cause.
    pub stalls: [u64; StallKind::COUNT],
    /// Instructions retired.
    pub instrs: u64,
    /// Remote memory requests issued.
    pub remote_requests: u64,
    /// Remote load packets saved by Load Packet Compression.
    pub lpc_merged: u64,
    /// Branch mispredictions.
    pub branch_misses: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
}

impl Default for CoreStats {
    fn default() -> CoreStats {
        CoreStats {
            int_cycles: 0,
            fp_cycles: 0,
            stalls: [0; StallKind::COUNT],
            instrs: 0,
            remote_requests: 0,
            lpc_merged: 0,
            branch_misses: 0,
            branches: 0,
            icache_misses: 0,
        }
    }
}

hb_mem::snap_enum!(StallKind, "stall kind out of range" {
    0 => IcacheMiss,
    1 => BranchMiss,
    2 => Bypass,
    3 => LocalLoad,
    4 => RemoteLoad,
    5 => AmoDep,
    6 => RemoteCredit,
    7 => Fence,
    8 => Barrier,
    9 => FpBusy,
    10 => IntBusy,
    11 => Frozen,
    12 => Done,
});
// No section tag: `CoreStats` appears hundreds of times per snapshot.
hb_mem::snap_value!(CoreStats {
    int_cycles,
    fp_cycles,
    stalls,
    instrs,
    remote_requests,
    lpc_merged,
    branch_misses,
    branches,
    icache_misses,
});

impl CoreStats {
    /// Total cycles accounted (execute + stall).
    pub fn total_cycles(&self) -> u64 {
        self.int_cycles + self.fp_cycles + self.stalls.iter().sum::<u64>()
    }

    /// Stalled cycles of one kind.
    pub fn stall(&self, kind: StallKind) -> u64 {
        self.stalls[kind as usize]
    }

    /// Records a stall cycle.
    pub fn add_stall(&mut self, kind: StallKind) {
        self.stalls[kind as usize] += 1;
    }

    /// Records `n` stall cycles of one kind at once — the bulk catch-up
    /// used by the event scheduler when a tile that slept `n` cycles steps
    /// again (each skipped cycle owes exactly one stall of a constant
    /// kind, so the credit is a single add).
    pub fn add_stall_n(&mut self, kind: StallKind, n: u64) {
        self.stalls[kind as usize] += n;
    }

    /// Fraction of cycles doing useful work.
    pub fn utilization(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            (self.int_cycles + self.fp_cycles) as f64 / total as f64
        }
    }

    /// One JSON object on a single line, hand-written (no serde). Shared
    /// between the telemetry exporters and anything that wants
    /// machine-readable per-core counters; stall buckets are keyed by
    /// [`StallKind::label`].
    pub fn to_json_line(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"int_cycles\":{},\"fp_cycles\":{},\"instrs\":{},\
             \"remote_requests\":{},\"lpc_merged\":{},\"branch_misses\":{},\
             \"branches\":{},\"icache_misses\":{},\"stalls\":{{",
            self.int_cycles,
            self.fp_cycles,
            self.instrs,
            self.remote_requests,
            self.lpc_merged,
            self.branch_misses,
            self.branches,
            self.icache_misses,
        );
        for (i, kind) in StallKind::ALL.into_iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(out, "{comma}\"{}\":{}", kind.label(), self.stall(kind));
        }
        out.push_str("}}");
        out
    }
}

impl Add for CoreStats {
    type Output = CoreStats;

    fn add(mut self, rhs: CoreStats) -> CoreStats {
        self += rhs;
        self
    }
}

impl AddAssign for CoreStats {
    fn add_assign(&mut self, rhs: CoreStats) {
        self.int_cycles += rhs.int_cycles;
        self.fp_cycles += rhs.fp_cycles;
        for i in 0..StallKind::COUNT {
            self.stalls[i] += rhs.stalls[i];
        }
        self.instrs += rhs.instrs;
        self.remote_requests += rhs.remote_requests;
        self.lpc_merged += rhs.lpc_merged;
        self.branch_misses += rhs.branch_misses;
        self.branches += rhs.branches;
        self.icache_misses += rhs.icache_misses;
    }
}

impl Sub for CoreStats {
    type Output = CoreStats;

    fn sub(mut self, rhs: CoreStats) -> CoreStats {
        self.int_cycles -= rhs.int_cycles;
        self.fp_cycles -= rhs.fp_cycles;
        for i in 0..StallKind::COUNT {
            self.stalls[i] -= rhs.stalls[i];
        }
        self.instrs -= rhs.instrs;
        self.remote_requests -= rhs.remote_requests;
        self.lpc_merged -= rhs.lpc_merged;
        self.branch_misses -= rhs.branch_misses;
        self.branches -= rhs.branches;
        self.icache_misses -= rhs.icache_misses;
        self
    }
}

/// Formats a core-utilization breakdown as percentage rows (the Figure 11
/// report format), with a totals footer.
///
/// Rows below 0.01% are elided for readability, but the `all` row always
/// sums every category — hidden ones included — so it reads exactly
/// 100.00% whenever any cycle was accounted. That invariant is checked
/// here: a mismatch means a counter was double-booked or dropped.
pub fn utilization_report(stats: &CoreStats) -> String {
    use std::fmt::Write;
    let total = stats.total_cycles().max(1) as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>7.2}%",
        "int",
        stats.int_cycles as f64 / total * 100.0
    );
    let _ = writeln!(
        out,
        "{:<14} {:>7.2}%",
        "fp",
        stats.fp_cycles as f64 / total * 100.0
    );
    let mut all = (stats.int_cycles + stats.fp_cycles) as f64 / total * 100.0;
    for kind in StallKind::ALL {
        let v = stats.stall(kind) as f64 / total * 100.0;
        all += v;
        if v > 0.005 {
            let _ = writeln!(out, "{:<14} {:>7.2}%", kind.label(), v);
        }
    }
    if stats.total_cycles() > 0 {
        assert!(
            (all - 100.0).abs() < 1e-6,
            "cycle taxonomy does not cover the run: categories sum to {all}%"
        );
    }
    let _ = writeln!(out, "{:<14} {all:>7.2}%", "all");
    let ipc = stats.instrs as f64 / total;
    let _ = writeln!(out, "total          {} cycles", stats.total_cycles());
    let _ = writeln!(out, "instrs         {}", stats.instrs);
    let _ = writeln!(out, "ipc            {ipc:>7.2}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut s = CoreStats {
            int_cycles: 10,
            fp_cycles: 5,
            ..CoreStats::default()
        };
        s.add_stall(StallKind::RemoteLoad);
        s.add_stall(StallKind::RemoteLoad);
        s.add_stall(StallKind::Barrier);
        assert_eq!(s.total_cycles(), 18);
        assert_eq!(s.stall(StallKind::RemoteLoad), 2);
        assert!((s.utilization() - 15.0 / 18.0).abs() < 1e-12);
    }

    #[test]
    fn aggregation_sums_fields() {
        let mut a = CoreStats {
            int_cycles: 3,
            ..CoreStats::default()
        };
        a.add_stall(StallKind::Fence);
        let mut b = CoreStats {
            fp_cycles: 4,
            ..CoreStats::default()
        };
        b.add_stall(StallKind::Fence);
        let c = a + b;
        assert_eq!(c.int_cycles, 3);
        assert_eq!(c.fp_cycles, 4);
        assert_eq!(c.stall(StallKind::Fence), 2);
    }

    #[test]
    fn report_mentions_active_categories() {
        let mut s = CoreStats {
            int_cycles: 50,
            ..CoreStats::default()
        };
        for _ in 0..50 {
            s.add_stall(StallKind::Barrier);
        }
        let report = utilization_report(&s);
        assert!(report.contains("barrier"));
        assert!(!report.contains("fence"));
    }

    #[test]
    fn report_footer_totals_and_invariant() {
        let mut s = CoreStats {
            int_cycles: 30,
            fp_cycles: 10,
            instrs: 40,
            ..CoreStats::default()
        };
        for _ in 0..60 {
            s.add_stall(StallKind::RemoteLoad);
        }
        let report = utilization_report(&s);
        assert!(report.contains("all             100.00%"), "{report}");
        assert!(report.contains("total          100 cycles"), "{report}");
        assert!(report.contains("instrs         40"), "{report}");
        assert!(report.contains("ipc               0.40"), "{report}");
    }

    #[test]
    fn report_footer_counts_hidden_categories() {
        // One stall cycle out of 100k renders below the 0.01% display
        // threshold, but the `all` row must still account for it.
        let mut s = CoreStats {
            int_cycles: 99_999,
            ..CoreStats::default()
        };
        s.add_stall(StallKind::Bypass);
        let report = utilization_report(&s);
        assert!(!report.contains("bypass"), "{report}");
        assert!(report.contains("all             100.00%"), "{report}");
    }

    #[test]
    fn json_line_is_complete_and_flat() {
        let mut s = CoreStats {
            int_cycles: 7,
            fp_cycles: 3,
            instrs: 10,
            ..CoreStats::default()
        };
        s.add_stall(StallKind::Barrier);
        let line = s.to_json_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"int_cycles\":7"));
        assert!(line.contains("\"stalls\":{"));
        for kind in StallKind::ALL {
            assert!(line.contains(&format!("\"{}\":", kind.label())), "{line}");
        }
        assert!(line.contains("\"barrier\":1"));
        assert_eq!(
            line.matches('{').count(),
            line.matches('}').count(),
            "{line}"
        );
    }

    #[test]
    fn window_deltas_subtract_fieldwise() {
        let mut before = CoreStats {
            int_cycles: 5,
            instrs: 5,
            ..CoreStats::default()
        };
        before.add_stall(StallKind::Fence);
        let mut after = before;
        after.int_cycles += 3;
        after.instrs += 3;
        after.add_stall(StallKind::Fence);
        after.add_stall(StallKind::Barrier);
        let d = after - before;
        assert_eq!(d.int_cycles, 3);
        assert_eq!(d.instrs, 3);
        assert_eq!(d.stall(StallKind::Fence), 1);
        assert_eq!(d.stall(StallKind::Barrier), 1);
        assert_eq!(before + d, after);
    }

    #[test]
    fn all_kinds_have_unique_labels() {
        let mut labels: Vec<_> = StallKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), StallKind::COUNT);
    }
}
