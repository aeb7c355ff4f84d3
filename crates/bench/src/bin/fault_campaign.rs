//! `fault_campaign` — seeded fault-injection campaign with AVF-style
//! outcome classification (the resilience counterpart of the figure
//! binaries).
//!
//! The campaign itself — golden cross-checks, plan expansion, outcome
//! classification — executes through the `hb-serve` campaign service: each
//! of the `--n` runs is a content-addressed job, so with `--out DIR` the
//! results are durable (a killed campaign resumes where it stopped, and
//! re-running the same command is pure cache hits). Without `--out` the
//! store is a temporary directory and behavior matches the classic one-shot
//! harness.
//!
//! Outcomes, classified against the campaign's golden record:
//!
//! - **masked**   — final DRAM digest identical to the golden run,
//! - **sdc**      — run completed but DRAM differs (silent corruption),
//! - **detected** — the machine raised a structured [`hb_core::FaultInfo`],
//! - **hang**     — the run timed out (the watchdog's `HangReport` says why).
//!
//! The golden run is cross-checked exactly as before: a run with an *empty
//! installed plan* must be bit-identical (DRAM digest, cycles,
//! instructions) to a run that never touched `hb-fault`, and — for
//! barrier-free kernels — the cycle-level DRAM must match an `hb-iss`
//! functional execution of the same launch.
//!
//! Everything is a pure function of `--seed`, so repeated invocations (at
//! any `--threads`) produce identical tables.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p hb-bench --bin fault_campaign -- \
//!   [--kernel sgemm|jacobi] [--seed S] [--n N] [--cell WxH] \
//!   [--disable x,y[;x,y]] [--expect masked=a,sdc=b,detected=c,hang=d] \
//!   [--out DIR] [--threads T] [--verbose]
//! ```

use hb_bench::cli;
use hb_core::{CellDim, MachineConfig};
use hb_fault::{AvfTable, Outcome, SiteKind};
use hb_serve::{Campaign, CancelToken, JobRecord, RunOpts, SimExecutor, Store};
use std::path::PathBuf;

const USAGE: &str = "usage: fault_campaign [--kernel sgemm|jacobi] [--seed S] [--n N] \
[--cell WxH] [--disable x,y[;x,y]] [--expect masked=a,sdc=b,detected=c,hang=d] \
[--out DIR] [--threads T] [--verbose]";

struct Args {
    kernel: String,
    seed: u64,
    n: usize,
    cell: CellDim,
    disabled: Vec<(u8, u8)>,
    expect: Option<[u64; Outcome::COUNT]>,
    out: Option<PathBuf>,
    threads: usize,
    verbose: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        kernel: "sgemm".to_owned(),
        seed: 1,
        n: 50,
        cell: CellDim { x: 4, y: 4 },
        disabled: Vec::new(),
        expect: None,
        out: None,
        threads: hb_bench::job_threads(),
        verbose: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].clone();
        match flag.as_str() {
            "--kernel" => {
                let v = cli::flag_value(&argv, &mut i, USAGE).to_ascii_lowercase();
                if !matches!(v.as_str(), "sgemm" | "jacobi") {
                    cli::usage_fail(USAGE, format!("unknown kernel {v:?}"));
                }
                out.kernel = v;
            }
            "--seed" => {
                out.seed = cli::parse_value(&flag, &cli::flag_value(&argv, &mut i, USAGE), USAGE)
            }
            "--n" => out.n = cli::parse_value(&flag, &cli::flag_value(&argv, &mut i, USAGE), USAGE),
            "--cell" => out.cell = cli::parse_cell(&cli::flag_value(&argv, &mut i, USAGE), USAGE),
            "--disable" => {
                out.disabled = cli::parse_disabled(&cli::flag_value(&argv, &mut i, USAGE), USAGE)
            }
            "--expect" => {
                let v = cli::flag_value(&argv, &mut i, USAGE);
                let mut want = [0u64; Outcome::COUNT];
                for part in v.split(',') {
                    let Some((key, n)) = part.split_once('=') else {
                        cli::usage_fail(USAGE, format!("bad --expect component {part:?}"));
                    };
                    let Some(slot) = Outcome::ALL.iter().find(|o| o.label() == key.trim()) else {
                        cli::usage_fail(USAGE, format!("unknown outcome {key:?} in --expect"));
                    };
                    want[*slot as usize] = cli::parse_value("--expect", n.trim(), USAGE);
                }
                out.expect = Some(want);
            }
            "--out" => out.out = Some(PathBuf::from(cli::flag_value(&argv, &mut i, USAGE))),
            "--threads" => {
                // Consumed here for arity; job_threads() already parsed it.
                let _ = cli::flag_value(&argv, &mut i, USAGE);
            }
            "--verbose" => out.verbose = true,
            other => cli::usage_fail(USAGE, format!("unknown option {other:?}")),
        }
        i += 1;
    }
    out
}

/// Fetches a job's record or exits with its journaled failure detail.
fn must_get(store: &Store, hash: &str, what: &str) -> JobRecord {
    store.get(hash).unwrap_or_else(|| {
        let detail = store
            .journal()
            .ok()
            .and_then(|j| j.into_iter().rev().find(|e| e.hash == hash))
            .map(|e| e.detail)
            .unwrap_or_else(|| "no result stored".to_owned());
        cli::fail(format!("{what}: {detail}"));
    })
}

fn main() {
    let args = parse_args();
    let cfg = MachineConfig {
        cell_dim: args.cell,
        disabled_tiles: args.disabled.clone(),
        ..MachineConfig::baseline_16x8()
    };
    if let Err(e) = cfg.validate() {
        cli::fail(format!("invalid campaign configuration: {e}"));
    }
    println!(
        "fault_campaign: kernel={} cell={}x{} seed={} n={} disabled={:?}",
        args.kernel, cfg.cell_dim.x, cfg.cell_dim.y, args.seed, args.n, args.disabled,
    );

    // Durable store under --out (a full hb-serve campaign directory:
    // `hb-serve status/resume/report --dir DIR` work on it afterwards);
    // otherwise a throwaway temp directory.
    let (dir, ephemeral) = match &args.out {
        Some(d) => (d.clone(), false),
        None => (
            std::env::temp_dir().join(format!("fault-campaign-{}", std::process::id())),
            true,
        ),
    };
    let name = format!(
        "{} cell={}x{} seed={} faults={}",
        args.kernel, args.cell.x, args.cell.y, args.seed, args.n
    );
    let campaign = Campaign::fault(name, &args.kernel, &cfg, args.seed, args.n);
    if let Err(e) = campaign.save(&dir) {
        cli::fail(format!("cannot write campaign manifest: {e}"));
    }
    let store =
        Campaign::open_store(&dir).unwrap_or_else(|e| cli::fail(format!("cannot open store: {e}")));

    let opts = RunOpts {
        threads: args.threads,
        ..RunOpts::default()
    };
    let summary = campaign.run(
        &store,
        &SimExecutor::new(args.threads),
        &opts,
        &CancelToken::new(),
    );

    // Golden record (the service ran its cross-checks; surface them).
    let gold = must_get(&store, &campaign.specs[0].hash(), "golden run failed");
    println!(
        "golden: cycles={} instrs={} dram-digest={:#018x}",
        gold.cycles, gold.instrs, gold.dram_digest
    );
    if gold.checks.split(',').any(|c| c == "empty-plan-identity") {
        println!("zero-injection bit-identity: ok");
    }
    if gold.checks.split(',').any(|c| c == "iss-anchor") {
        println!("hb-iss golden anchor: ok");
    }

    let mut table = AvfTable::new();
    for (i, spec) in campaign.specs[1..].iter().enumerate() {
        let rec = must_get(&store, &spec.hash(), &format!("run {i} failed"));
        let kind = SiteKind::ALL
            .iter()
            .find(|k| k.label() == rec.site)
            .unwrap_or_else(|| cli::fail(format!("run {i}: unknown site {:?}", rec.site)));
        let outcome = Outcome::ALL
            .iter()
            .find(|o| o.label() == rec.outcome)
            .unwrap_or_else(|| cli::fail(format!("run {i}: unknown outcome {:?}", rec.outcome)));
        table.record(*kind, *outcome);
        if args.verbose {
            println!(
                "run {i:>3}: cycle={:>7} site={:<11} -> {}",
                rec.inj_cycle,
                kind.label(),
                outcome.label(),
            );
        }
    }

    println!("\n{}", table.render());
    println!("summary: {}", table.summary_line());
    println!("service: {}", summary.line());
    if !ephemeral {
        println!("store: {}", dir.display());
    }

    let expect_result = args.expect.map(|want| {
        let got: Vec<u64> = Outcome::ALL
            .iter()
            .map(|&o| table.outcome_total(o))
            .collect();
        (got == want, want)
    });
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if let Some((ok, want)) = expect_result {
        if !ok {
            eprintln!(
                "expectation mismatch: wanted masked={} sdc={} detected={} hang={}",
                want[0], want[1], want[2], want[3]
            );
            std::process::exit(1);
        }
        println!("expected outcome counts: ok");
    }
}
