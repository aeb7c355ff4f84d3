//! Deterministic aggregation over stored campaign results.
//!
//! A report is a pure function of (manifest, store contents): it iterates
//! the manifest in submission order, fetches each job's record by hash, and
//! renders AVF tables and completion counts. It
//! deliberately contains **no wall-clock or host information**, so a
//! campaign that was killed and resumed produces a byte-identical report to
//! one that ran uninterrupted — the CI smoke job asserts exactly that.

use crate::campaign::Campaign;
use crate::store::{JobRecord, Store};
use hb_fault::{AvfTable, Outcome, SiteKind};
use std::io::Write;

/// Builds the report text for `campaign` against `store`.
///
/// Missing jobs are counted (and the report says so) rather than being an
/// error, so `report` is useful mid-campaign too.
pub fn build(campaign: &Campaign, store: &Store) -> String {
    let records: Vec<Option<JobRecord>> = campaign
        .specs
        .iter()
        .map(|spec| store.get(&spec.hash()))
        .collect();
    let done = records.iter().flatten().count();
    let missing = campaign.specs.len() - done;

    let mut out = String::new();
    out.push_str("hb-serve campaign report v1\n");
    out.push_str(&format!("name: {}\n", campaign.name));
    out.push_str(&format!(
        "jobs: total={} done={} missing={}\n",
        campaign.specs.len(),
        done,
        missing
    ));

    // Golden references, in manifest order.
    for rec in records.iter().flatten().filter(|r| r.kind == "golden") {
        out.push_str(&format!(
            "golden: kernel={} cycles={} instrs={} dram-digest={:#018x} checks={}\n",
            rec.kernel, rec.cycles, rec.instrs, rec.dram_digest, rec.checks
        ));
    }

    // Fault outcomes → AVF table.
    let faults: Vec<&JobRecord> = records
        .iter()
        .flatten()
        .filter(|r| r.kind == "fault")
        .collect();
    if !faults.is_empty() {
        let mut table = AvfTable::new();
        for rec in &faults {
            let kind = SiteKind::ALL.iter().find(|k| k.label() == rec.site);
            let outcome = Outcome::ALL.iter().find(|o| o.label() == rec.outcome);
            if let (Some(&kind), Some(&outcome)) = (kind, outcome) {
                table.record(kind, outcome);
            }
        }
        out.push('\n');
        out.push_str(&table.render());
        out.push_str(&format!("summary: {}\n", table.summary_line()));
    }

    out
}

/// Builds the report and writes it to `path` through
/// [`hb_ckpt::write_atomic`], durably like every file the store replaces.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write(
    campaign: &Campaign,
    store: &Store,
    path: &std::path::Path,
) -> std::io::Result<String> {
    let text = build(campaign, store);
    hb_ckpt::write_atomic(path, |f| f.write_all(text.as_bytes()))?;
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::MachineConfig;

    #[test]
    fn report_is_deterministic_and_wall_clock_free() {
        let dir = std::env::temp_dir().join(format!("hb-serve-report-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let cfg = MachineConfig::baseline_16x8();
        let campaign = Campaign::fault("avf", "sgemm", &cfg, 7, 3);

        // Golden + 2 of 3 fault results stored.
        let specs = &campaign.specs;
        store
            .put(&JobRecord {
                hash: specs[0].hash(),
                kind: "golden".to_owned(),
                kernel: "sgemm".to_owned(),
                outcome: "ok".to_owned(),
                cycles: 1000,
                instrs: 500,
                dram_digest: 0xabc,
                checks: "empty-plan-identity,iss-anchor".to_owned(),
                ..JobRecord::default()
            })
            .unwrap();
        for (i, (site, outcome)) in [("regfile", "masked"), ("spm", "sdc")].iter().enumerate() {
            store
                .put(&JobRecord {
                    hash: specs[i + 1].hash(),
                    kind: "fault".to_owned(),
                    kernel: "sgemm".to_owned(),
                    seed: specs[i + 1].seed,
                    outcome: (*outcome).to_owned(),
                    site: (*site).to_owned(),
                    inj_cycle: 150,
                    ..JobRecord::default()
                })
                .unwrap();
        }

        let text = build(&campaign, &store);
        assert!(text.contains("jobs: total=4 done=3 missing=1"));
        assert!(text.contains("golden: kernel=sgemm cycles=1000"));
        assert!(text.contains("summary: masked=1 sdc=1 detected=0 hang=0"));
        assert!(!text.contains("wall"), "report must be wall-clock free");
        // Pure function of inputs: building twice is byte-identical.
        assert_eq!(text, build(&campaign, &store));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
