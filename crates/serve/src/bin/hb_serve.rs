//! `hb-serve` — the campaign execution service CLI.
//!
//! A campaign lives in a directory: `manifest.txt` (the jobs), `store/`
//! (content-addressed results + failure log) and `report.txt` (deterministic
//! aggregate). Results are keyed by a content hash of the job spec (kernel,
//! config, seed, plan, schema/binary revision), so re-running finished work
//! is a cache hit and a killed campaign resumes by re-running only the
//! missing jobs.
//!
//! ```text
//! hb-serve run    --kernel sgemm --faults 200 --seed 7      # submit + execute + report
//! hb-serve run    ... --max-jobs 100                        # stop after 100 executions
//! hb-serve run    ... --expect masked=42,sdc=2,detected=1,hang=5  # exact AVF counts or exit 1
//! hb-serve resume --dir hb-serve-data                       # finish a killed campaign
//! hb-serve status --dir hb-serve-data                       # done/missing counts
//! hb-serve report --dir hb-serve-data                       # rebuild report.txt
//! hb-serve gc     --dir hb-serve-data                       # drop unreferenced objects and checkpoints
//! ```

use hb_core::{CellDim, MachineConfig};
use hb_fault::Outcome;
use hb_serve::cli;
use hb_serve::{report, Campaign, CancelToken, RunOpts, SimExecutor};
use std::num::NonZeroUsize;
use std::path::PathBuf;

const USAGE: &str = "usage: hb-serve <command> [options]

commands:
  submit   write the campaign manifest without running it
  run      submit (if needed) + execute + write report.txt
  resume   re-run only the jobs missing from the store
  status   print done/missing counts for the manifest
  report   rebuild and print the deterministic report
  gc       delete store objects and checkpoints the manifest does not reference

options (each command takes the ones it uses; status and gc take --dir):
  --dir D          campaign directory            [hb-serve-data]
  --kernel K       sgemm | jacobi                [sgemm]
  --faults N       seeded single-fault jobs      [50]
  --seed S         base seed (job i uses S+i)    [1]
  --cell WxH       tile grid per cell            [4x4]
  --disable x,y[;x,y]  disabled tiles            []
  --threads T      job workers, this thread included
                   [the host's available parallelism]; a golden job's
                   two reference runs use the host's count (taskset -c 0
                   keeps them on one CPU)
  --max-jobs N     stop after N executed jobs (deterministic mid-run stop)
  --ckpt-every N   checkpoint fault runs every N cycles into the store,
                   so a killed worker resumes mid-job (0 = off)  [0]
  --crash-after-ckpts N  testing: exit(3) after N checkpoints (the
                   ckpt-smoke CI job's deterministic mid-run kill); runs
                   on one worker, so --threads above 1 is refused
  --out FILE       also write the report here
  --expect masked=a,sdc=b,detected=c,hang=d
                   run: exit 1 unless the report's AVF summary has
                   exactly these counts (the CI fault-smoke contract)";

struct Opts {
    dir: PathBuf,
    kernel: String,
    faults: usize,
    seed: u64,
    cell: CellDim,
    disabled: Vec<(u8, u8)>,
    threads: usize,
    max_jobs: Option<usize>,
    ckpt_every: u64,
    crash_after_ckpts: Option<u64>,
    out: Option<PathBuf>,
    expect: Option<String>,
}

/// The flags of the commands that execute jobs.
const EXEC_FLAGS: &str = "--threads T --max-jobs N --ckpt-every N --crash-after-ckpts N --out FILE";

/// Each command's flags: a flag followed by a word takes a value.
fn flags(cmd: &str) -> String {
    match cmd {
        "submit" => "--dir D --kernel K --faults N --seed S --cell WxH --disable L".to_owned(),
        "run" => format!("{} --expect E {EXEC_FLAGS}", flags("submit")),
        "resume" => format!("--dir D {EXEC_FLAGS}"),
        "report" => "--dir D --out FILE".to_owned(),
        _ => "--dir D".to_owned(),
    }
}

fn parse_opts(cmd: &str, argv: &[String]) -> Opts {
    let args = cli::Args::walk(argv, &flags(cmd), USAGE.to_owned());
    Opts {
        dir: PathBuf::from(args.value("--dir").unwrap_or("hb-serve-data")),
        kernel: args
            .value("--kernel")
            .unwrap_or("sgemm")
            .to_ascii_lowercase(),
        faults: args.parse("--faults").unwrap_or(50),
        seed: args.parse("--seed").unwrap_or(1),
        cell: args
            .value("--cell")
            .map_or(CellDim { x: 4, y: 4 }, |v| cli::parse_cell(v, USAGE)),
        disabled: args
            .value("--disable")
            .map_or_else(Vec::new, |v| cli::parse_disabled(v, USAGE)),
        threads: worker_count(&args),
        max_jobs: args.parse("--max-jobs"),
        ckpt_every: args.parse("--ckpt-every").unwrap_or(0),
        crash_after_ckpts: args.parse("--crash-after-ckpts"),
        out: args.value("--out").map(PathBuf::from),
        expect: args.value("--expect").map(parse_expect),
    }
}

/// `--threads`, else the host's available parallelism. A
/// `--crash-after-ckpts` run is the deterministic stand-in for a `kill -9`
/// only when one worker writes every checkpoint, so it runs on one, and
/// asking it for more is a usage error.
fn worker_count(args: &cli::Args) -> usize {
    let asked = args
        .parse::<NonZeroUsize>("--threads")
        .map(NonZeroUsize::get);
    if args.value("--crash-after-ckpts").is_none() {
        return asked.unwrap_or_else(hb_serve::default_threads);
    }
    match asked {
        Some(n) if n > 1 => cli::usage_fail(
            USAGE,
            format!("--crash-after-ckpts runs on one worker; --threads {n} asks for more"),
        ),
        _ => 1,
    }
}

/// Parses `--expect masked=a,sdc=b,detected=c,hang=d` into the AVF
/// summary line the report must carry.
fn parse_expect(value: &str) -> String {
    let labels = Outcome::ALL.map(|o| o.label());
    let counts = cli::parse_counts("--expect", value, &labels, USAGE);
    let pairs: Vec<String> = labels
        .iter()
        .zip(counts)
        .map(|(l, n)| format!("{l}={n}"))
        .collect();
    format!("summary: {}", pairs.join(" "))
}

/// Builds the campaign `submit`/`run` describe and saves it into
/// `opts.dir`, unless the directory already holds the same campaign (no-op);
/// refuses to silently reuse a directory whose manifest is a *different*
/// campaign.
fn submit_campaign(opts: &Opts) -> Campaign {
    let cfg = cli::valid_config(
        MachineConfig {
            cell_dim: opts.cell,
            disabled_tiles: opts.disabled.clone(),
            ..MachineConfig::baseline_16x8()
        },
        USAGE,
    );
    let name = format!(
        "{} cell={}x{} seed={} faults={}",
        opts.kernel, opts.cell.x, opts.cell.y, opts.seed, opts.faults
    );
    let campaign = Campaign::fault(name, &opts.kernel, &cfg, opts.seed, opts.faults);
    if opts.dir.join("manifest.txt").exists() {
        match Campaign::load(&opts.dir) {
            Ok(existing) if existing == campaign => return campaign,
            Ok(existing) => cli::fail(format!(
                "{} already holds campaign {:?}; pick another --dir or resume it",
                opts.dir.display(),
                existing.name
            )),
            Err(e) => cli::fail(format!("existing manifest is unreadable: {e}")),
        }
    }
    if let Err(e) = campaign.save(&opts.dir) {
        cli::fail(format!("cannot write manifest: {e}"));
    }
    campaign
}

fn execute(campaign: &Campaign, opts: &Opts) -> ! {
    let store = Campaign::open_store(&opts.dir)
        .unwrap_or_else(|e| cli::fail(format!("cannot open store: {e}")));
    let mut exec = SimExecutor::new(opts.threads).with_ckpt_every(opts.ckpt_every);
    if let Some(n) = opts.crash_after_ckpts {
        exec = exec.with_crash_after_ckpts(n);
    }
    let run_opts = RunOpts {
        threads: opts.threads,
        max_jobs: opts.max_jobs,
    };
    let summary = campaign.run(&store, &exec, &run_opts, &CancelToken::new());
    println!("{}", summary.line());
    println!("{}", campaign.status(&store).line());
    let report_path = opts.dir.join("report.txt");
    let text = report::write(campaign, &store, &report_path)
        .unwrap_or_else(|e| cli::fail(format!("cannot write {}: {e}", report_path.display())));
    if let Some(out) = &opts.out {
        use std::io::Write;
        let mut f = cli::create_out(out);
        f.write_all(text.as_bytes())
            .unwrap_or_else(|e| cli::fail(format!("cannot write {}: {e}", out.display())));
    }
    println!("report: {}", report_path.display());
    if summary.failed > 0 {
        cli::fail(format!(
            "{} job(s) failed; see the store journal",
            summary.failed
        ));
    }
    if let Some(want) = &opts.expect {
        if !text.lines().any(|l| l == want) {
            let got = text.lines().find(|l| l.starts_with("summary: "));
            cli::fail(format!(
                "expectation mismatch: wanted {want:?}, the report has {:?}",
                got.unwrap_or("no AVF summary")
            ));
        }
        println!("expected outcome counts: ok");
    }
    std::process::exit(0);
}

fn load_campaign(opts: &Opts) -> Campaign {
    Campaign::load(&opts.dir).unwrap_or_else(|e| cli::fail(e))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        cli::usage_fail(USAGE, "missing command");
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "help" | "--help" | "-h" => println!("{USAGE}"),
        "submit" => {
            let opts = parse_opts(cmd, rest);
            let campaign = submit_campaign(&opts);
            println!(
                "submitted: {:?} ({} jobs) -> {}",
                campaign.name,
                campaign.specs.len(),
                opts.dir.display()
            );
        }
        "run" => {
            let opts = parse_opts(cmd, rest);
            let campaign = submit_campaign(&opts);
            execute(&campaign, &opts);
        }
        "resume" => {
            let opts = parse_opts(cmd, rest);
            let campaign = load_campaign(&opts);
            execute(&campaign, &opts);
        }
        "status" => {
            let opts = parse_opts(cmd, rest);
            let campaign = load_campaign(&opts);
            let store = Campaign::open_store(&opts.dir)
                .unwrap_or_else(|e| cli::fail(format!("cannot open store: {e}")));
            println!("campaign: {:?}", campaign.name);
            println!("{}", campaign.status(&store).line());
        }
        "report" => {
            let opts = parse_opts(cmd, rest);
            let campaign = load_campaign(&opts);
            let store = Campaign::open_store(&opts.dir)
                .unwrap_or_else(|e| cli::fail(format!("cannot open store: {e}")));
            let path = opts
                .out
                .clone()
                .unwrap_or_else(|| opts.dir.join("report.txt"));
            let text = report::write(&campaign, &store, &path)
                .unwrap_or_else(|e| cli::fail(format!("cannot write {}: {e}", path.display())));
            print!("{text}");
        }
        "gc" => {
            let opts = parse_opts(cmd, rest);
            let campaign = load_campaign(&opts);
            let store = Campaign::open_store(&opts.dir)
                .unwrap_or_else(|e| cli::fail(format!("cannot open store: {e}")));
            let keep: std::collections::HashSet<String> = campaign.hashes().into_iter().collect();
            let stats = store.gc(&keep).unwrap_or_else(|e| cli::fail(e));
            println!(
                "gc: kept={} deleted={} bytes={} ckpts_deleted={} ckpt_bytes={}",
                stats.kept, stats.deleted, stats.bytes, stats.ckpts_deleted, stats.ckpt_bytes
            );
        }
        other => cli::usage_fail(USAGE, format!("unknown command {other:?}")),
    }
}
