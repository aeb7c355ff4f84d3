//! `replay` — deterministic post-mortem replay of a machine checkpoint.
//!
//! Usage:
//! `cargo run --release -p hb-bench --bin replay -- --ckpt <file> [--cycles N]`
//!
//! Loads a checkpoint file (e.g. the `ckpt/hang-<hash>.ckpt` a timed-out
//! `hb-serve` fault job dumps next to its hang report), rebuilds the machine
//! from the configuration embedded in the file, restores it bit-exactly and
//! runs up to N further cycles, reporting where the machine ends up.
//! Restore is deterministic, so every replay of the same file walks the
//! same post-mortem trajectory — add cycles to step further into the hang.

use hb_bench::cli::{fail, flag_value, usage_fail};
use hb_core::{Machine, SimError};

const USAGE: &str = "usage: replay --ckpt <file> [--cycles N]

  --ckpt FILE    checkpoint file to restore (required)
  --cycles N     further cycles to simulate  [100000]";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut ckpt_path: Option<std::path::PathBuf> = None;
    let mut cycles: u64 = 100_000;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--ckpt" => ckpt_path = Some(flag_value(&argv, &mut i, USAGE).into()),
            "--cycles" => {
                cycles = flag_value(&argv, &mut i, USAGE)
                    .parse()
                    .unwrap_or_else(|_| usage_fail(USAGE, "--cycles needs a number"));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_fail(USAGE, format!("unknown option {other:?}")),
        }
        i += 1;
    }
    let path = ckpt_path.unwrap_or_else(|| usage_fail(USAGE, "--ckpt is required"));

    let bytes = std::fs::read(&path)
        .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())));
    let ckpt = hb_ckpt::decode(&bytes).unwrap_or_else(|e| fail(e));
    let cfg = ckpt
        .config()
        .unwrap_or_else(|e| fail(format!("checkpoint config does not parse: {e}")));
    println!(
        "checkpoint: {} ({} bytes, captured at cycle {})",
        path.display(),
        bytes.len(),
        ckpt.cycle
    );
    println!(
        "machine: {} cell(s) of {}x{} tiles",
        cfg.num_cells, cfg.cell_dim.x, cfg.cell_dim.y
    );

    let mut machine = Machine::new(cfg);
    hb_ckpt::apply(&mut machine, &ckpt).unwrap_or_else(|e| fail(e));

    let result = machine.run(cycles);
    machine.flush_all_caches();
    let digest = hb_serve::exec::digest(&machine);
    let stats = machine.cell(0).core_stats();
    match result {
        Ok(s) => println!(
            "finished: +{} cycles (total {}), {} instrs retired",
            s.cycles,
            machine.cycle(),
            s.core.instrs
        ),
        Err(SimError::Fault(info)) => println!("fault detected: {info}"),
        Err(SimError::Timeout { cycles, hang, .. }) => {
            println!(
                "still running after +{cycles} cycles (total {})",
                machine.cycle()
            );
            if let Some(hang) = hang {
                println!("hang: {hang}");
            }
        }
    }
    println!(
        "cell 0: {} instrs, {} remote requests",
        stats.instrs, stats.remote_requests
    );
    println!("dram digest: {digest:#018x}");
}
