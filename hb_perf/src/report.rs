//! Turning passes into metric rows, printing them, writing the report
//! file and comparing two report files.

use crate::metrics::{self, Better, MetricDef};
use crate::stats::{median, summarize, Summary};
use crate::sysinfo::SystemInfo;
use crate::trace::Spans;
use crate::workloads::{Layers, Pass};
use hb_obs::json::escape;
use std::fmt::Write;

/// Everything measured on one workload.
#[derive(Debug, Default)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub untraced: Vec<Pass>,
    /// Each ran right after an untraced pass: the last ones of `untraced`,
    /// in order.
    pub traced: Vec<(Pass, Layers)>,
    /// Untraced passes of the workload's one-thread twin, if it has one:
    /// `t1[i]` ran right after `untraced[i]`.
    pub t1: Vec<Pass>,
    /// `VmHWM` after the first pass of a fresh process.
    pub peak_rss_mb: Option<f64>,
}

/// One metric of one workload (or of the component rows).
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub def: &'static MetricDef,
    pub stats: Summary,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl WorkloadResult {
    fn passes(&self) -> impl Iterator<Item = &Pass> {
        self.untraced
            .iter()
            .chain(self.traced.iter().map(|(p, _)| p))
            .chain(&self.t1)
    }

    pub fn attempted(&self) -> u64 {
        self.passes().map(|p| p.jobs).sum()
    }

    /// Failed jobs, plus one if any pass simulated different counts from
    /// the first: a deterministic simulator that stops repeating is wrong.
    pub fn failed(&self) -> u64 {
        self.passes().map(|p| p.failed).sum::<u64>() + u64::from(self.count_mismatch().is_some())
    }

    pub fn first_error(&self) -> Option<String> {
        self.passes()
            .find_map(|p| p.first_error.clone())
            .or_else(|| self.count_mismatch())
    }

    pub fn tally(&self) -> Tally {
        Tally {
            workload: self.name.to_owned(),
            attempted: self.attempted(),
            failed: self.failed(),
            first_error: self.first_error().unwrap_or_default(),
        }
    }

    /// The exact simulated counts must repeat across passes, traced or
    /// not, and across host thread counts.
    fn count_mismatch(&self) -> Option<String> {
        let mut passes = self.passes().filter(|p| p.failed == 0);
        let first = passes.next()?;
        passes
            .find(|p| (p.cycles, p.instrs) != (first.cycles, first.instrs))
            .map(|p| {
                format!(
                    "{}: a pass simulated {} cycles / {} instrs, the first {} / {}",
                    self.name, p.cycles, p.instrs, first.cycles, first.instrs
                )
            })
    }

    fn row(&self, name: &str, values: &[f64]) -> Row {
        Row {
            workload: self.name.to_owned(),
            def: metrics::def(name),
            stats: summarize(values),
        }
    }

    pub fn end_to_end_rows(&self) -> Vec<Row> {
        let col = |f: fn(&Pass) -> f64| self.untraced.iter().map(f).collect::<Vec<f64>>();
        vec![
            self.row("sim_cycles_per_s", &col(Pass::sim_cycles_per_s)),
            self.row("jobs_per_s", &col(Pass::jobs_per_s)),
            self.row("setup_s", &col(|p| p.setup_s)),
            self.row("peak_rss_mb", self.peak_rss_mb.as_slice()),
            self.row(
                "passed_share",
                &[1.0 - ratio(self.failed() as f64, self.attempted() as f64)],
            ),
        ]
    }

    /// The per-layer rows of this workload's traced passes; the component
    /// rows are not among them.
    pub fn layer_rows(&self) -> Vec<Row> {
        // The untraced pass each traced pass followed.
        let before = self.untraced.len().saturating_sub(self.traced.len());
        let untraced_sim_s = median(
            &self
                .untraced
                .iter()
                .map(|p| p.wall_s - p.setup_s)
                .collect::<Vec<_>>(),
        );
        let per_pass: Vec<Vec<(&str, f64)>> = self
            .traced
            .iter()
            .enumerate()
            .map(|(i, (pass, l))| {
                let untraced_wall = self.untraced.get(before + i).map_or(0.0, |p| p.wall_s);
                let c = &l.counts;
                let s = |d: std::time::Duration| d.as_secs_f64();
                let p = &l.phases;
                vec![
                    ("core.phase_network_s", s(p.network)),
                    ("core.phase_memory_s", s(p.memory)),
                    ("core.phase_tiles_s", s(p.tiles)),
                    ("core.phase_sched_s", s(p.sched)),
                    ("core.phase_sync_s", s(p.sync)),
                    ("core.phase_inject_s", s(p.inject)),
                    (
                        "core.ns_per_cycle",
                        ratio(s(p.total()) * 1e9, c.cycles as f64),
                    ),
                    ("core.tile_ticks_stepped", c.ticks_stepped as f64),
                    ("core.tile_ticks_skipped", c.ticks_skipped as f64),
                    (
                        "core.skipped_share_pct",
                        ratio(
                            c.ticks_skipped as f64 * 100.0,
                            (c.ticks_stepped + c.ticks_skipped) as f64,
                        ),
                    ),
                    (
                        "core.ns_per_tile_tick",
                        ratio(s(p.tiles + p.sched) * 1e9, c.ticks_stepped as f64),
                    ),
                    ("noc.flit_hops", c.flit_hops as f64),
                    ("noc.packets_ejected", c.packets_ejected as f64),
                    (
                        "noc.ns_per_flit_hop",
                        ratio(s(p.network) * 1e9, c.flit_hops as f64),
                    ),
                    ("cache.accesses", c.cache_accesses as f64),
                    ("cache.misses", c.cache_misses as f64),
                    (
                        "cache.hit_ratio_pct",
                        ratio(
                            (c.cache_accesses - c.cache_misses) as f64 * 100.0,
                            c.cache_accesses as f64,
                        ),
                    ),
                    ("mem.dram_requests", c.dram_requests as f64),
                    (
                        "mem.ns_per_dram_req",
                        ratio(s(p.memory) * 1e9, c.dram_requests as f64),
                    ),
                    (
                        "mem.hbm_busy_pct",
                        ratio(c.hbm_busy_cycles as f64 * 100.0, c.hbm_cycles as f64),
                    ),
                    ("sim.cycles", pass.cycles as f64),
                    ("sim.instrs", pass.instrs as f64),
                    ("sim.ipc", ratio(pass.instrs as f64, pass.cycles as f64)),
                    (
                        "sim.guest_mips",
                        ratio(pass.instrs as f64 / 1e6, untraced_sim_s),
                    ),
                    ("kernels.input_s", l.input_s),
                    ("kernels.load_s", l.load_s),
                    ("kernels.validate_s", l.validate_s),
                    ("serve.exec_s", l.exec_s),
                    (
                        "serve.overhead_s",
                        if l.exec_s > 0.0 {
                            pass.wall_s - l.exec_s
                        } else {
                            0.0
                        },
                    ),
                    ("serve.cached_jobs_per_s", l.cached_jobs_per_s),
                    ("serve.hang_jobs", l.hang_jobs as f64),
                    ("serve.retries", l.retries as f64),
                    (
                        "trace.overhead_pct",
                        (ratio(pass.wall_s, untraced_wall) - 1.0) * 100.0,
                    ),
                ]
            })
            .collect();
        let Some(first) = per_pass.first() else {
            return Vec::new();
        };
        let mut rows: Vec<Row> = (0..first.len())
            .map(|i| {
                let values: Vec<f64> = per_pass.iter().map(|row| row[i].1).collect();
                self.row(first[i].0, &values)
            })
            .collect();
        // One ratio per pair of passes run back to back, so that the host's
        // slow drift lands on both sides of it.
        let sim_s = |p: &Pass| p.wall_s - p.setup_s;
        let pairs: Vec<f64> = self
            .untraced
            .iter()
            .zip(&self.t1)
            .map(|(t2, t1)| ratio(sim_s(t1), sim_s(t2)))
            .collect();
        rows.push(self.row("core.pool_t2_vs_t1_x", &pairs));
        rows
    }
}

/// A JSON number: counts as integers, never NaN or infinity.
pub fn number(v: f64, unit: &str) -> String {
    if !v.is_finite() {
        "0".to_owned()
    } else if unit == "count" {
        format!("{}", v.round() as i64)
    } else {
        format!("{v}")
    }
}

pub fn print_header(sys: &SystemInfo, seed: u64, rounds: usize) {
    println!(
        "hb_perf  kernel {}  cpu {}  nproc {}  {}  commit {}  seed {seed}  rounds {rounds}",
        sys.kernel, sys.cpu, sys.nproc, sys.rustc, sys.commit
    );
    println!("host-side speed only: the timing model is unvalidated against RTL or silicon, so no accuracy figure is given");
}

/// A value for people: counts whole, everything else to six digits.
fn shown(v: f64, unit: &str) -> String {
    if unit == "count" || v == 0.0 || !v.is_finite() {
        return number(v, unit);
    }
    let decimals = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

pub fn print_rows(rows: &[Row]) {
    for r in rows {
        let d = r.def;
        let bound = d
            .bound
            .map_or(String::new(), |b| format!("  bound {:.1}%", b * 100.0));
        println!(
            "{:<18} {:<28} {:>12} {:<7} q1 {:<12} q3 {:<12} n={}  {} is better{bound}",
            r.workload,
            d.name,
            shown(r.stats.median, d.unit),
            d.unit,
            shown(r.stats.q1, d.unit),
            shown(r.stats.q3, d.unit),
            r.stats.n,
            d.better.as_str(),
        );
    }
}

/// Jobs attempted and failed on one workload (or by the component rows),
/// with the text of the first failure, if any.
#[derive(Debug, Clone)]
pub struct Tally {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: String,
}

/// Renders the report: one row object per line, so [`compare`] can read
/// the rows back without a JSON parser.
pub fn render(
    sys: &SystemInfo,
    seed: u64,
    rounds: usize,
    rows: &[Row],
    tallies: &[Tally],
    spans: &Spans,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"schema\":\"hb_perf v1\",\n\"system\":{{\"kernel\":\"{}\",\"cpu\":\"{}\",\"nproc\":{},\"rustc\":\"{}\",\"commit\":\"{}\",\"seed\":{seed},\"rounds\":{rounds}}},",
        escape(&sys.kernel),
        escape(&sys.cpu),
        sys.nproc,
        escape(&sys.rustc),
        escape(&sys.commit),
    );
    out.push_str("\"rows\":[\n");
    for (i, r) in rows.iter().enumerate() {
        let d = r.def;
        let _ = writeln!(
            out,
            "{{\"workload\":\"{}\",\"metric\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{},\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}{}",
            escape(&r.workload),
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound.unwrap_or(0.0),
            number(r.stats.median, d.unit),
            number(r.stats.q1, d.unit),
            number(r.stats.q3, d.unit),
            r.stats.n,
            if i + 1 == rows.len() { "" } else { "," },
        );
    }
    out.push_str("],\n\"failures\":[\n");
    let failures: Vec<&Tally> = tallies.iter().filter(|t| t.failed > 0).collect();
    for (i, f) in failures.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"workload\":\"{}\",\"attempted\":{},\"failed\":{},\"first_error\":\"{}\"}}{}",
            escape(&f.workload),
            f.attempted,
            f.failed,
            escape(&f.first_error),
            if i + 1 == failures.len() { "" } else { "," },
        );
    }
    out.push_str("],\n\"spans\":[\n");
    for (i, s) in spans.list.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"trace\":{},\"name\":\"{}\",\"parent\":{},\"start_s\":{},\"end_s\":{},\"seconds\":{},\"self_s\":{}}}{}",
            s.trace,
            s.name,
            s.parent.map_or(-1, |p| p as i64),
            s.start_s,
            s.end_s,
            s.seconds(),
            spans.self_seconds(i),
            if i + 1 == spans.list.len() { "" } else { "," },
        );
    }
    out.push_str("]}\n");
    out
}

/// The value of `"key":` in one of [`render`]'s single-line objects, with
/// string quotes removed. Enough for the rows this module writes (no
/// escaped quote or comma occurs in a field that is read back).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    let end = match rest.strip_prefix('"') {
        Some(quoted) => return quoted.split('"').next(),
        None => rest.find([',', '}'])?,
    };
    Some(&rest[..end])
}

/// A row read back from a report file.
#[derive(Debug, Clone, PartialEq)]
struct ReadRow {
    workload: String,
    metric: String,
    better: Better,
    bound: f64,
    stats: Summary,
}

fn read_rows(text: &str) -> Result<Vec<ReadRow>, String> {
    hb_obs::json::validate(text).map_err(|e| format!("not JSON: {e}"))?;
    let mut rows = Vec::new();
    for line in text
        .lines()
        .filter(|l| l.starts_with("{\"workload\"") && l.contains("\"metric\""))
    {
        let get =
            |key: &str| field(line, key).ok_or_else(|| format!("row without {key:?}: {line}"));
        let num = |key: &str| -> Result<f64, String> {
            get(key)?
                .parse()
                .map_err(|_| format!("row with a bad {key:?}: {line}"))
        };
        rows.push(ReadRow {
            workload: get("workload")?.to_owned(),
            metric: get("metric")?.to_owned(),
            better: if get("better")? == "higher" {
                Better::Higher
            } else {
                Better::Lower
            },
            bound: num("bound")?,
            stats: Summary {
                median: num("median")?,
                q1: num("q1")?,
                q3: num("q3")?,
                n: num("n")? as usize,
            },
        });
    }
    if rows.is_empty() {
        return Err("no metric rows".to_owned());
    }
    Ok(rows)
}

/// Compares report `b` against baseline `a`. Returns the table and whether
/// anything regressed or an exact count changed.
///
/// A row is `regressed` when `b`'s median is worse than `a`'s by more than
/// the bound and by more than either side's own quartile spread (and, for
/// `setup_s`, by more than [`metrics::SETUP_SLACK_S`]);
/// `unresolved` when a spread exceeds the bound, so "no change" cannot be
/// told from a change of the bound's size; otherwise `ok`.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = read_rows(a_text).map_err(|e| format!("baseline: {e}"))?;
    let b = read_rows(b_text).map_err(|e| format!("candidate: {e}"))?;
    let mut out = String::new();
    let mut bad = false;
    let _ = writeln!(
        out,
        "{:<18} {:<18} {:>14} {:>14} {:>8} {:>7} {:>9} {:>9}  verdict",
        "workload",
        "metric",
        "base median",
        "new median",
        "worse%",
        "bound%",
        "base iqr%",
        "new iqr%"
    );
    for ra in a.iter().filter(|r| r.bound > 0.0) {
        let Some(rb) = b
            .iter()
            .find(|r| (&r.workload, &r.metric) == (&ra.workload, &ra.metric))
        else {
            let _ = writeln!(
                out,
                "{:<18} {:<18} missing from the candidate",
                ra.workload, ra.metric
            );
            bad = true;
            continue;
        };
        let (ma, mb) = (ra.stats.median, rb.stats.median);
        let worse = match ra.better {
            Better::Higher => ratio(ma - mb, ma.abs()),
            Better::Lower => ratio(mb - ma, ma.abs()),
        };
        let spread = ra.stats.spread().max(rb.stats.spread());
        let slack = if ra.metric == "setup_s" {
            metrics::SETUP_SLACK_S
        } else {
            0.0
        };
        let verdict = if worse > ra.bound && worse > spread && (mb - ma).abs() > slack {
            bad = true;
            "regressed"
        } else if spread > ra.bound {
            "unresolved"
        } else {
            "ok"
        };
        let _ = writeln!(
            out,
            "{:<18} {:<18} {:>14.4} {:>14.4} {:>8.1} {:>7.0} {:>9.1} {:>9.1}  {verdict}",
            ra.workload,
            ra.metric,
            ma,
            mb,
            worse * 100.0,
            ra.bound * 100.0,
            ra.stats.spread() * 100.0,
            rb.stats.spread() * 100.0,
        );
    }
    // No workload's simulated counts depend on the seed, so these must be
    // equal between any two runs of the same simulator.
    let mut counts_differ = false;
    for ra in a
        .iter()
        .filter(|r| r.metric == "sim.cycles" || r.metric == "sim.instrs")
    {
        let same = b
            .iter()
            .find(|r| (&r.workload, &r.metric) == (&ra.workload, &ra.metric))
            .is_some_and(|rb| rb.stats.median == ra.stats.median && rb.stats.q1 == rb.stats.q3);
        if !same || ra.stats.q1 != ra.stats.q3 {
            counts_differ = true;
            let _ = writeln!(
                out,
                "{:<18} {:<18} exact count differs",
                ra.workload, ra.metric
            );
        }
    }
    let _ = writeln!(
        out,
        "sim.* counts: {}",
        if counts_differ { "differ" } else { "identical" }
    );
    Ok((out, bad || counts_differ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SystemInfo {
        SystemInfo {
            kernel: "6.1 \"test\"".to_owned(),
            cpu: "cpu, with a comma".to_owned(),
            nproc: 2,
            rustc: "rustc 1.0".to_owned(),
            commit: "abc".to_owned(),
        }
    }

    fn rows(speed: [f64; 3], cycles: f64) -> Vec<Row> {
        let row = |name: &str, values: &[f64]| Row {
            workload: "w".to_owned(),
            def: metrics::def(name),
            stats: summarize(values),
        };
        vec![
            row("sim_cycles_per_s", &speed),
            row("setup_s", &[1.0 / speed[1]]),
            row("sim.cycles", &[cycles, cycles]),
            row("sim.instrs", &[7.0]),
        ]
    }

    #[test]
    fn report_is_json_and_reads_back() {
        let failures = [Tally {
            workload: "w".to_owned(),
            attempted: 401,
            failed: 1,
            first_error: "panic: index out of bounds: \"x\"".to_owned(),
        }];
        let mut spans = Spans::default();
        let now = std::time::Instant::now();
        spans.push(1, "job", None, now, now);
        let text = render(
            &sys(),
            9,
            8,
            &rows([99.0, 100.0, 101.0], 5.0),
            &failures,
            &spans,
        );
        hb_obs::json::validate(&text).expect("report is JSON");
        let back = read_rows(&text).unwrap();
        assert_eq!(back.len(), 4);
        assert_eq!(back[0].metric, "sim_cycles_per_s");
        assert_eq!(back[0].stats.median, 100.0);
        assert_eq!(back[2].stats.median, 5.0);
    }

    #[test]
    fn a_pass_that_simulates_different_counts_fails_the_workload() {
        let pass = |cycles| Pass {
            cycles,
            instrs: 10,
            jobs: 3,
            ..Pass::default()
        };
        let mut result = WorkloadResult {
            name: "w",
            untraced: vec![pass(100), pass(100)],
            ..WorkloadResult::default()
        };
        assert_eq!((result.attempted(), result.failed()), (6, 0));
        result.traced.push((pass(101), Layers::default()));
        assert_eq!(result.failed(), 1);
        assert!(result.first_error().unwrap().contains("101 cycles"));
    }

    #[test]
    fn compare_verdicts() {
        let report =
            |speed, cycles| render(&sys(), 1, 8, &rows(speed, cycles), &[], &Spans::default());
        let base = report([99.0, 100.0, 101.0], 5.0);
        let verdict = |b: &str| compare(&base, b).unwrap();
        let (table, bad) = verdict(&report([95.0, 96.0, 97.0], 5.0));
        assert!(!bad && table.contains(" ok"), "{table}");
        // Set-up goes from 10 ms to 17 ms here: 67% worse, under the slack.
        let (table, bad) = verdict(&report([59.0, 60.0, 61.0], 5.0));
        assert!(bad && table.matches("regressed").count() == 1, "{table}");
        // And from 10 ms to 100 ms here.
        let (table, _) = verdict(&report([9.0, 10.0, 11.0], 5.0));
        assert_eq!(table.matches("regressed").count(), 2, "{table}");
        let (table, bad) = verdict(&report([60.0, 96.0, 130.0], 5.0));
        assert!(!bad && table.contains("unresolved"), "{table}");
        let (table, bad) = verdict(&report([99.0, 100.0, 101.0], 6.0));
        assert!(bad && table.contains("exact count differs"), "{table}");
    }
}
