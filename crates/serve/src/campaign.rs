//! Campaigns: named manifests of thousands of [`JobSpec`]s, executed in two
//! phases (golden references first, then everything else) against a
//! [`Store`]. A campaign directory is self-describing and durable:
//!
//! ```text
//! <dir>/
//!   manifest.txt     header + one job line per spec
//!   store/           content-addressed results (see crate::store)
//!   report.txt       deterministic aggregate (written by `report`)
//! ```
//!
//! Because job results are keyed by content hash, *resume is a no-op
//! re-run*: a killed campaign re-executes only the jobs whose results are
//! missing, and an identical re-submission is 100% cache hits.

use crate::pool::{run_jobs, CampaignSummary, CancelToken, Executor, RunOpts};
use crate::spec::{JobKind, JobSpec, PlanSpec};
use crate::store::Store;
use hb_core::MachineConfig;
use std::path::Path;

/// A named set of jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Campaign name (reports and directory labeling only; not hashed).
    pub name: String,
    /// The jobs, in submission order (reports iterate this order).
    pub specs: Vec<JobSpec>,
}

impl Campaign {
    /// A single-fault AVF campaign: one golden job plus `runs` seeded
    /// single-fault jobs (`seed + i` for run `i`), as `hb-serve run`
    /// submits it.
    pub fn fault(
        name: impl Into<String>,
        kernel: &str,
        config: &MachineConfig,
        seed: u64,
        runs: usize,
    ) -> Campaign {
        let mut specs = vec![crate::exec::golden_spec(kernel, config)];
        specs.extend((0..runs).map(|i| JobSpec {
            kind: JobKind::Fault,
            kernel: kernel.to_owned(),
            seed: seed.wrapping_add(i as u64),
            plan: PlanSpec::Seeded { faults: 1 },
            config: config.clone(),
            label: format!("run {i}"),
        }));
        Campaign {
            name: name.into(),
            specs,
        }
    }

    /// Job hashes in manifest order.
    pub fn hashes(&self) -> Vec<String> {
        self.specs.iter().map(JobSpec::hash).collect()
    }

    /// Serializes the manifest.
    pub fn manifest_text(&self) -> String {
        let mut out = format!("hbserve-manifest v1 name={}\n", self.name);
        for spec in &self.specs {
            out.push_str(&spec.manifest_line());
            out.push('\n');
        }
        out
    }

    /// Parses [`Campaign::manifest_text`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed line.
    pub fn from_manifest_text(text: &str) -> Result<Campaign, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty manifest")?;
        let name = header
            .strip_prefix("hbserve-manifest v1 name=")
            .ok_or_else(|| format!("bad manifest header {header:?}"))?
            .to_owned();
        let mut specs = Vec::new();
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            specs.push(
                JobSpec::from_manifest_line(line)
                    .map_err(|e| format!("manifest line {}: {e}", i + 2))?,
            );
        }
        Ok(Campaign { name, specs })
    }

    /// Writes `manifest.txt` into `dir` (creating it).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("manifest.txt"), self.manifest_text())
    }

    /// Loads a campaign from `dir/manifest.txt`.
    ///
    /// # Errors
    ///
    /// Returns a message on a missing or malformed manifest.
    pub fn load(dir: &Path) -> Result<Campaign, String> {
        let path = dir.join("manifest.txt");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Campaign::from_manifest_text(&text)
    }

    /// Opens (creating) the store of a campaign directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn open_store(dir: &Path) -> std::io::Result<Store> {
        Store::open(dir.join("store"))
    }

    /// Executes the campaign: golden jobs first (fault jobs classify
    /// against their stored records), then the rest. Already-stored results
    /// are cache hits. `opts.max_jobs` bounds *executions*, failed ones
    /// included, across both phases.
    pub fn run(
        &self,
        store: &Store,
        exec: &dyn Executor,
        opts: &RunOpts,
        cancel: &CancelToken,
    ) -> CampaignSummary {
        let started = std::time::Instant::now();
        let (gold, rest): (Vec<JobSpec>, Vec<JobSpec>) = self
            .specs
            .iter()
            .cloned()
            .partition(|s| s.kind == JobKind::Golden);
        let first = run_jobs(&gold, store, exec, opts, cancel);
        let mut opts2 = opts.clone();
        if let Some(max) = opts.max_jobs {
            opts2.max_jobs = Some(max.saturating_sub(first.run + first.failed));
        }
        let second = run_jobs(&rest, store, exec, &opts2, cancel);
        CampaignSummary {
            total: self.specs.len(),
            run: first.run + second.run,
            cached: first.cached + second.cached,
            failed: first.failed + second.failed,
            skipped: first.skipped + second.skipped,
            wall_ms: started.elapsed().as_millis() as u64,
        }
    }

    /// Completion status against a store: `done` and `missing` read the
    /// objects, `failed_previously` the journal's `failed` lines.
    pub fn status(&self, store: &Store) -> CampaignStatus {
        let mut status = CampaignStatus::default();
        let failed_hashes: std::collections::HashSet<String> = store
            .journal()
            .unwrap_or_default()
            .into_iter()
            .filter(|e| e.status == "failed")
            .map(|e| e.hash)
            .collect();
        for hash in self.hashes() {
            if store.has(&hash) {
                status.done += 1;
            } else {
                status.missing += 1;
                if failed_hashes.contains(&hash) {
                    status.failed_previously += 1;
                }
            }
        }
        status
    }
}

/// How much of a campaign's manifest has stored results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignStatus {
    /// Jobs with a stored result.
    pub done: usize,
    /// Jobs without one.
    pub missing: usize,
    /// Missing jobs with a `failed` journal line (from any earlier run).
    pub failed_previously: usize,
}

impl CampaignStatus {
    /// Stable one-line rendering.
    pub fn line(&self) -> String {
        format!(
            "status: done={} missing={} failed_previously={}",
            self.done, self.missing, self.failed_previously
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The baseline as its canonical text denotes it — the host fields at
    /// their normalized values — so a manifest roundtrip compares equal.
    fn canonical_baseline() -> MachineConfig {
        MachineConfig::from_canonical_text(&MachineConfig::baseline_16x8().canonical_text())
            .unwrap()
    }

    #[test]
    fn fault_campaign_shape_and_manifest_roundtrip() {
        let cfg = canonical_baseline();
        let c = Campaign::fault("avf sgemm", "sgemm", &cfg, 7, 5);
        assert_eq!(c.specs.len(), 6);
        assert_eq!(c.specs[0].kind, JobKind::Golden);
        assert!(c.specs[1..].iter().all(|s| s.kind == JobKind::Fault));
        assert_eq!(c.specs[1].seed, 7);
        assert_eq!(c.specs[5].seed, 11);

        let text = c.manifest_text();
        let back = Campaign::from_manifest_text(&text).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.hashes(), c.hashes());

        assert!(Campaign::from_manifest_text("nonsense\n").is_err());
    }
}
