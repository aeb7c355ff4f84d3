//! Deterministic aggregation over stored campaign results.
//!
//! A report is a pure function of (manifest, store contents): it iterates
//! the manifest in submission order, fetches each job's record by hash, and
//! renders AVF tables, ablation sweep curves and completion counts. It
//! deliberately contains **no wall-clock or host information**, so a
//! campaign that was killed and resumed produces a byte-identical report to
//! one that ran uninterrupted — the CI smoke job asserts exactly that.

use crate::campaign::Campaign;
use crate::store::{JobRecord, Store};
use hb_fault::{AvfTable, Outcome, SiteKind};

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

    // Ablation sweep points, in manifest order (the sweep harness submits
    // them in curve order, so this *is* the curve).
    let ablations: Vec<(&str, Option<&JobRecord>)> = campaign
        .specs
        .iter()
        .zip(records.iter())
        .filter(|(s, _)| matches!(s.kind, crate::spec::JobKind::Ablation { .. }))
        .map(|(s, r)| (s.label.as_str(), r.as_ref()))
        .collect();
    if !ablations.is_empty() {
        out.push('\n');
        out.push_str("sweep:\n");
        for (label, rec) in ablations {
            match rec {
                Some(r) => out.push_str(&format!(
                    "  {:<28} kernel={} cycles={} instrs={}\n",
                    label, r.kernel, r.cycles, r.instrs
                )),
                None => out.push_str(&format!("  {label:<28} (missing)\n")),
            }
        }
    }

    out
}

/// Builds the report and writes it to `path` (atomic tmp+rename).
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
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &text)?;
    std::fs::rename(&tmp, path)?;
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobKind, JobSpec, PlanSpec};
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

        // Ablation labels render as a sweep section.
        let mut sweep = Campaign {
            name: "sweep".to_owned(),
            specs: vec![JobSpec {
                kind: JobKind::Ablation {
                    size: "small".to_owned(),
                },
                kernel: "SGEMM".to_owned(),
                seed: 0,
                plan: PlanSpec::None,
                config: cfg.clone(),
                label: "ruche=2".to_owned(),
            }],
        };
        store
            .put(&JobRecord {
                hash: sweep.specs[0].hash(),
                kind: "ablation:small".to_owned(),
                kernel: "SGEMM".to_owned(),
                outcome: "ok".to_owned(),
                cycles: 2222,
                instrs: 999,
                ..JobRecord::default()
            })
            .unwrap();
        let text = build(&sweep, &store);
        assert!(text.contains("sweep:"));
        assert!(text.contains("ruche=2"));
        assert!(text.contains("cycles=2222"));
        sweep.specs[0].label = "ruche=3".to_owned(); // same hash: label unhashed
        assert!(build(&sweep, &store).contains("ruche=3"));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
