//! Byte pins of every text form the store hashes or persists.
//!
//! The canonical config and plan texts are the identity of every cached
//! result and the header of every checkpoint; the manifest line is what
//! the job hash is computed over; record and journal lines are what a
//! store holds on disk; the AVF table is `report.txt` and its summary line
//! is what CI's `--expect` reads. Each is generated from one field list (see
//! `hb_mem::text`), so an edit to a list moves bytes silently — unless a
//! literal recorded from the previous layout says otherwise. These were
//! recorded at the commit before the lists existed, from the hand-written
//! encoders.

use hammerblade::core::MachineConfig;
use hammerblade::fault::{AvfTable, InjectionPlan, Outcome, Site, SiteKind, FREEZE_FOREVER};
use hb_serve::{JobKind, JobRecord, JobSpec, PlanSpec, Store};

#[track_caller]
fn pin(what: &str, got: &str, want: &str) {
    assert_eq!(
        got, want,
        "{what} moved: bump `CANONICAL_VERSION`/`planv`/`SCHEMA_REV` and re-record"
    );
}

// `cfgv=2`: canonical config version 2 dropped the trailing `;telw=0`
// (the telemetry window, which never changed a simulated result); every
// other entry is the version-1 text byte for byte.
const BASELINE: &str = "cfgv=2;cell=16x8;cells=1;ruche=3;nbl=1;wv=1;lpc=1;ipoly=1;nbc=1;\
    spm=4096;icache=4096;sets=64;ways=8;line=64;mshrs=8;dram=16777216;fma=3;mul=2;div=16;\
    fdiv=12;fsqrt=12;fp=2;spmld=2;bmiss=2;icmiss=40;outst=63;fifo=4;linkocc=1;coremhz=1350;\
    memmhz=1000;hbm=16,1024,64,4,14,14,14,33,2,260,3900,32;strip=16,16,2,4;disabled=";

fn one_site_of_each_kind() -> InjectionPlan {
    let (cell, x, y) = (0, 1, 2);
    InjectionPlan::explicit([
        (
            1,
            Site::RegFile {
                cell,
                x,
                y,
                reg: 3,
                bit: 4,
            },
        ),
        (
            2,
            Site::Spm {
                cell,
                x,
                y,
                word: 30,
                bit: 4,
            },
        ),
        (
            3,
            Site::IcacheLine {
                cell,
                x,
                y,
                line: 9,
            },
        ),
        (
            4,
            Site::NocLink {
                cell,
                x,
                y,
                port: 3,
                req: true,
            },
        ),
        (5, Site::HbmStall { cell, window: 77 }),
        (
            6,
            Site::TileFreeze {
                cell,
                x,
                y,
                cycles: FREEZE_FOREVER,
            },
        ),
    ])
}

const PLAN: &str = "planv=1;seed=0;inj=1@regfile(0,1,2,3,4)|2@spm(0,1,2,30,4)|3@icache(0,1,2,9)\
    |4@noc(0,1,2,3,1)|5@hbm(0,77)|6@freeze(0,1,2,18446744073709551615)";

#[test]
fn config_and_plan_texts_are_pinned() {
    pin(
        "canonical_text of baseline_16x8",
        &MachineConfig::baseline_16x8().canonical_text(),
        BASELINE,
    );
    // Every Figure 10 knob off, dead tiles: the fields the baseline leaves
    // at their defaults.
    let degraded = MachineConfig {
        disabled_tiles: vec![(1, 1), (0, 2)],
        ..MachineConfig::baseline_manycore()
    };
    // Re-recorded for `cfgv=2` like `BASELINE`: the version moved and the
    // trailing `;telw=500` left.
    pin(
        "canonical_text of a degraded baseline_manycore",
        &degraded.canonical_text(),
        "cfgv=2;cell=8x4;cells=1;ruche=0;nbl=0;wv=0;lpc=0;ipoly=0;nbc=0;spm=4096;icache=4096;\
         sets=32;ways=8;line=64;mshrs=8;dram=16777216;fma=3;mul=2;div=16;fdiv=12;fsqrt=12;fp=2;\
         spmld=2;bmiss=2;icmiss=40;outst=63;fifo=2;linkocc=2;coremhz=1350;memmhz=1000;\
         hbm=16,1024,64,4,14,14,14,33,2,260,3900,32;strip=16,16,2,4;disabled=1,1+0,2",
    );
    pin(
        "canonical_text of a six-kind plan",
        &one_site_of_each_kind().canonical_text(),
        PLAN,
    );
}

#[test]
fn manifest_line_and_hash_are_pinned() {
    // The hash folds in `HB_SERVE_REV`; the pin is of the default revision.
    if std::env::var_os("HB_SERVE_REV").is_some() {
        return;
    }
    let spec = JobSpec {
        kind: JobKind::Fault,
        kernel: "sgemm".to_owned(),
        seed: 7,
        plan: PlanSpec::Explicit(one_site_of_each_kind()),
        config: MachineConfig::baseline_16x8(),
        label: "six sites, one of each kind".to_owned(),
    };
    pin(
        "manifest_line",
        &spec.manifest_line(),
        &format!(
            "hbjob v1 rev=4.dev kind=fault kernel=sgemm seed=7 \
             plan=explicit:{{{PLAN}}} cfg{{{BASELINE}}} label=six sites, one of each kind"
        ),
    );
    pin("hash", &spec.hash(), "1ab450cf6710ee7e3a29082e0ae704d1");
    let seeded = JobSpec {
        plan: PlanSpec::Seeded { faults: 2 },
        label: String::new(),
        ..spec
    };
    pin(
        "canonical_line",
        &seeded.canonical_line(),
        &format!(
            "hbjob v1 rev=4.dev kind=fault kernel=sgemm seed=7 plan=seeded:2 cfg{{{BASELINE}}}"
        ),
    );
    // Re-recorded when `cfgv=2` moved the embedded config text, and again
    // when `SCHEMA_REV` 4 moved the `rev=` token.
    pin("hash", &seeded.hash(), "faa417682bb648907fb9f2333c760f2b");
}

#[test]
fn record_and_journal_lines_are_pinned() {
    let rec = JobRecord {
        hash: "ab12".to_owned(),
        kind: "fault".to_owned(),
        kernel: "sgemm".to_owned(),
        seed: 7,
        outcome: "masked".to_owned(),
        site: "regfile".to_owned(),
        inj_cycle: 123,
        cycles: 4567,
        instrs: 890,
        dram_digest: 0xdead_beef_cafe_f00d,
        checks: "a\"b\\c\n\u{1}".to_owned(),
        retries: 1,
        artifacts: "ckpt/hang-ab12.ckpt".to_owned(),
    };
    let line = "{\"hash\":\"ab12\",\"kind\":\"fault\",\"kernel\":\"sgemm\",\"seed\":7,\
        \"outcome\":\"masked\",\"site\":\"regfile\",\"inj_cycle\":123,\"cycles\":4567,\
        \"instrs\":890,\"dram_digest\":\"0xdeadbeefcafef00d\",\"checks\":\"a\\\"b\\\\c\\n\\u0001\",\
        \"retries\":1,\"artifacts\":\"ckpt/hang-ab12.ckpt\"}";
    pin("JobRecord::to_json_line", &rec.to_json_line(), line);

    // The object file and the journal, as a store writes them: a stored
    // job journals nothing, a failed one its `failed` line.
    let dir = std::env::temp_dir().join(format!("hb-text-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    store.put(&rec).unwrap();
    store.record_failure("cd34", "panic: \"boom\"").unwrap();
    let object = std::fs::read_to_string(store.object_path("ab12")).unwrap();
    pin("object file", &object, &format!("{line}\n"));
    let journal = std::fs::read_to_string(dir.join("journal.ndjson")).unwrap();
    pin(
        "journal lines",
        &journal,
        "{\"hash\":\"cd34\",\"status\":\"failed\",\"detail\":\"panic: \\\"boom\\\"\",\"retries\":0}\n",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn avf_table_text_is_pinned() {
    let mut table = AvfTable::new();
    for (kind, outcome, n) in [
        (SiteKind::RegFile, Outcome::Masked, 40),
        (SiteKind::RegFile, Outcome::Sdc, 2),
        (SiteKind::Spm, Outcome::Masked, 7),
        (SiteKind::NocLink, Outcome::Detected, 1),
        (SiteKind::HbmStall, Outcome::Masked, 123_456),
        (SiteKind::TileFreeze, Outcome::Hang, 5),
    ] {
        for _ in 0..n {
            table.record(kind, outcome);
        }
    }
    pin(
        "AvfTable::render",
        &table.render(),
        "site           masked      sdc detected     hang    total     avf\n\
         regfile            40        2        0        0       42   4.76%\n\
         spm                 7        0        0        0        7   0.00%\n\
         noc-link            0        0        1        0        1 100.00%\n\
         hbm-stall      123456        0        0        0   123456   0.00%\n\
         tile-freeze         0        0        0        5        5 100.00%\n\
         total          123503        2        1        5   123511\n",
    );
    pin(
        "AvfTable::summary_line",
        &table.summary_line(),
        "masked=123503 sdc=2 detected=1 hang=5",
    );
}
