//! `hb-serve` — the campaign execution service CLI.
//!
//! A campaign lives in a directory: `manifest.txt` (the jobs), `store/`
//! (content-addressed results + journal) and `report.txt` (deterministic
//! aggregate). Results are keyed by a content hash of the job spec (kernel,
//! config, seed, plan, schema/binary revision), so re-running finished work
//! is a cache hit and a killed campaign resumes by re-running only the
//! missing jobs.
//!
//! ```text
//! hb-serve run    --kernel sgemm --faults 200 --seed 7      # submit + execute + report
//! hb-serve run    ... --max-jobs 100                        # stop after 100 executions
//! hb-serve profile --kernels SGEMM,BFS,Jacobi --size small  # per-kernel hot-block tables
//! hb-serve resume --dir hb-serve-data                       # finish a killed campaign
//! hb-serve status --dir hb-serve-data                       # done/missing counts
//! hb-serve report --dir hb-serve-data                       # rebuild report.txt
//! hb-serve gc     --dir hb-serve-data                       # drop unreferenced objects and checkpoints
//! ```

use hb_core::{CellDim, MachineConfig};
use hb_serve::cli;
use hb_serve::{report, Campaign, CancelToken, RunOpts, SimExecutor};
use std::path::PathBuf;

const USAGE: &str = "usage: hb-serve <command> [options]

commands:
  submit   write the campaign manifest without running it
  run      submit (if needed) + execute + write report.txt
  profile  run hot-block profiling jobs over suite kernels
  resume   re-run only the jobs missing from the store
  status   print done/missing counts for the manifest
  report   rebuild and print the deterministic report
  gc       delete store objects and checkpoints the manifest does not reference

options:
  --dir D          campaign directory            [hb-serve-data]
  --kernel K       sgemm | jacobi                [sgemm]
  --faults N       seeded single-fault jobs      [50]
  --seed S         base seed (job i uses S+i)    [1]
  --cell WxH       tile grid per cell            [4x4]
  --disable x,y[;x,y]  disabled tiles            []
  --threads T      worker threads                [1]
  --max-jobs N     stop after N executed jobs (deterministic mid-run stop)
  --retries R      retries per transient failure [2]
  --ckpt-every N   checkpoint fault runs every N cycles into the store,
                   so a killed worker resumes mid-job (0 = off)  [0]
  --crash-after-ckpts N  testing: exit(3) after N checkpoints (the
                   ckpt-smoke CI job's deterministic mid-run kill)
  --out FILE       also write the report here

kernel names: sgemm | jacobi; warm:<kernel> is an alias (every fault run
already starts from the golden run's state just before its injection)

profile options:
  --kernels K,K    suite kernels to profile      [SGEMM,BFS,Jacobi]
  --size S         tiny | small | large          [small]";

struct Opts {
    dir: PathBuf,
    kernel: String,
    faults: usize,
    seed: u64,
    cell: CellDim,
    disabled: Vec<(u8, u8)>,
    threads: usize,
    max_jobs: Option<usize>,
    retries: u32,
    ckpt_every: u64,
    crash_after_ckpts: Option<u64>,
    out: Option<PathBuf>,
    kernels: Vec<String>,
    size: String,
}

fn parse_opts(argv: &[String]) -> Opts {
    let mut opts = Opts {
        dir: PathBuf::from("hb-serve-data"),
        kernel: "sgemm".to_owned(),
        faults: 50,
        seed: 1,
        cell: CellDim { x: 4, y: 4 },
        disabled: Vec::new(),
        threads: 1,
        max_jobs: None,
        retries: 2,
        ckpt_every: 0,
        crash_after_ckpts: None,
        out: None,
        kernels: vec!["SGEMM".to_owned(), "BFS".to_owned(), "Jacobi".to_owned()],
        size: "small".to_owned(),
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].clone();
        match flag.as_str() {
            "--dir" => opts.dir = PathBuf::from(cli::flag_value(argv, &mut i, USAGE)),
            "--kernel" => opts.kernel = cli::flag_value(argv, &mut i, USAGE).to_ascii_lowercase(),
            "--faults" => {
                opts.faults = cli::parse_value(&flag, &cli::flag_value(argv, &mut i, USAGE), USAGE)
            }
            "--seed" => {
                opts.seed = cli::parse_value(&flag, &cli::flag_value(argv, &mut i, USAGE), USAGE)
            }
            "--cell" => opts.cell = cli::parse_cell(&cli::flag_value(argv, &mut i, USAGE), USAGE),
            "--disable" => {
                opts.disabled = cli::parse_disabled(&cli::flag_value(argv, &mut i, USAGE), USAGE)
            }
            "--threads" => {
                opts.threads =
                    cli::parse_value::<usize>(&flag, &cli::flag_value(argv, &mut i, USAGE), USAGE)
                        .max(1)
            }
            "--max-jobs" => {
                opts.max_jobs = Some(cli::parse_value(
                    &flag,
                    &cli::flag_value(argv, &mut i, USAGE),
                    USAGE,
                ))
            }
            "--retries" => {
                opts.retries = cli::parse_value(&flag, &cli::flag_value(argv, &mut i, USAGE), USAGE)
            }
            "--ckpt-every" => {
                opts.ckpt_every =
                    cli::parse_value(&flag, &cli::flag_value(argv, &mut i, USAGE), USAGE)
            }
            "--crash-after-ckpts" => {
                opts.crash_after_ckpts = Some(cli::parse_value(
                    &flag,
                    &cli::flag_value(argv, &mut i, USAGE),
                    USAGE,
                ))
            }
            "--out" => opts.out = Some(PathBuf::from(cli::flag_value(argv, &mut i, USAGE))),
            "--kernels" => {
                opts.kernels = cli::flag_value(argv, &mut i, USAGE)
                    .split(',')
                    .filter(|k| !k.is_empty())
                    .map(str::to_owned)
                    .collect()
            }
            "--size" => opts.size = cli::flag_value(argv, &mut i, USAGE).to_ascii_lowercase(),
            other => cli::usage_fail(USAGE, format!("unknown option {other:?}")),
        }
        i += 1;
    }
    opts
}

fn campaign_config(opts: &Opts) -> MachineConfig {
    let cfg = MachineConfig {
        cell_dim: opts.cell,
        disabled_tiles: opts.disabled.clone(),
        ..MachineConfig::baseline_16x8()
    };
    if let Err(e) = cfg.validate() {
        cli::fail(format!("invalid machine configuration: {e}"));
    }
    cfg
}

/// Builds the campaign `submit`/`run` describe; refuses to silently reuse a
/// directory whose manifest is a *different* campaign.
fn submit_campaign(opts: &Opts) -> Campaign {
    let cfg = campaign_config(opts);
    let name = format!(
        "{} cell={}x{} seed={} faults={}",
        opts.kernel, opts.cell.x, opts.cell.y, opts.seed, opts.faults
    );
    let campaign = Campaign::fault(name, &opts.kernel, &cfg, opts.seed, opts.faults);
    persist_campaign(campaign, opts)
}

/// Builds the hot-block profiling campaign `profile` describes.
fn submit_profile_campaign(opts: &Opts) -> Campaign {
    let cfg = campaign_config(opts);
    let kernels: Vec<&str> = opts.kernels.iter().map(String::as_str).collect();
    if kernels.is_empty() {
        cli::usage_fail(USAGE, "--kernels names no kernels");
    }
    let name = format!(
        "profile {} cell={}x{} size={}",
        kernels.join(","),
        opts.cell.x,
        opts.cell.y,
        opts.size
    );
    let campaign = Campaign::profile(name, &kernels, &cfg, &opts.size);
    persist_campaign(campaign, opts)
}

/// Saves `campaign` into `opts.dir`, unless the directory already holds the
/// same campaign (no-op) or a different one (error).
fn persist_campaign(campaign: Campaign, opts: &Opts) -> Campaign {
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
        retries: opts.retries,
        max_jobs: opts.max_jobs,
        ..RunOpts::default()
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
            let opts = parse_opts(rest);
            let campaign = submit_campaign(&opts);
            println!(
                "submitted: {:?} ({} jobs) -> {}",
                campaign.name,
                campaign.specs.len(),
                opts.dir.display()
            );
        }
        "run" => {
            let opts = parse_opts(rest);
            let campaign = submit_campaign(&opts);
            execute(&campaign, &opts);
        }
        "profile" => {
            let opts = parse_opts(rest);
            let campaign = submit_profile_campaign(&opts);
            execute(&campaign, &opts);
        }
        "resume" => {
            let opts = parse_opts(rest);
            let campaign = load_campaign(&opts);
            execute(&campaign, &opts);
        }
        "status" => {
            let opts = parse_opts(rest);
            let campaign = load_campaign(&opts);
            let store = Campaign::open_store(&opts.dir)
                .unwrap_or_else(|e| cli::fail(format!("cannot open store: {e}")));
            println!("campaign: {:?}", campaign.name);
            println!("{}", campaign.status(&store).line());
        }
        "report" => {
            let opts = parse_opts(rest);
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
            let opts = parse_opts(rest);
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
