//! The campaign job model: a [`JobSpec`] is a canonicalized
//! (kernel, configuration, seed, injection plan, campaign kind) tuple with a
//! stable content hash.
//!
//! The hash folds in a **revision** — the store schema version
//! ([`SCHEMA_REV`]) plus the binary revision ([`binary_rev`], the
//! `HB_SERVE_REV` environment variable, typically a git SHA in CI) — so
//! results simulated by an older binary or recorded under an older layout
//! never alias fresh jobs. Identical `(revision, kernel, config, seed, plan,
//! kind)` tuples hash identically, which is the whole caching story: the
//! content-addressed store keys results by this hash.
//!
//! Every text form here — the kind and plan tokens, the job line — is
//! generated in both directions from one field list (`hb_mem::text`); in
//! [`JobSpec`]'s, `hashed` means "in the canonical line, so in the hash".

use hb_core::MachineConfig;
use hb_fault::InjectionPlan;
use hb_mem::fnv1a128;
use hb_mem::text::Text;

/// Version of the job canonical form *and* the stored result layout. Bump on
/// any change to [`JobSpec::canonical_line`], the canonical config/plan
/// serializations it embeds, or the [`crate::store::JobRecord`] fields.
///
/// rev 2: `JobRecord` gained the `profile` field (hot-block table of
/// `profile:<size>` jobs).
///
/// rev 3: hang records carry a replayable checkpoint artifact
/// (`artifacts = ckpt/hang-<hash>.ckpt`), the kernel namespace gained a
/// shared-checkpoint prefix (removed since), and cycle accounting for
/// fault runs is total-since-launch (identical for cold runs, but the
/// contract is now explicit so resumed runs classify bit-identically).
///
/// rev 4: `JobRecord` lost the `profile` field again, with the `race:` and
/// `profile:` job kinds (a suite kernel's race check is `hb_race::
/// check_suite`, its guest profile `hb-bench inspect`).
pub const SCHEMA_REV: u32 = 4;

/// The binary revision folded into every job hash: `HB_SERVE_REV` when set
/// (CI sets it to the commit SHA so rebuilt binaries invalidate the cache),
/// else `"dev"`. Whitespace is stripped so the canonical line stays
/// single-line and space-delimited.
pub fn binary_rev() -> String {
    match std::env::var("HB_SERVE_REV") {
        Ok(v) if !v.trim().is_empty() => v.split_whitespace().collect(),
        _ => "dev".to_owned(),
    }
}

/// What a job simulates and how its result is interpreted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// Zero-injection reference run: records the golden DRAM digest and
    /// cycle count that fault jobs of the same (kernel, config) classify
    /// against, and performs the empty-plan bit-identity and `hb-iss`
    /// functional-anchor cross-checks.
    Golden,
    /// One fault-injection run, classified masked/sdc/detected/hang against
    /// the campaign's golden record.
    Fault,
}

// `golden` or `fault`.
hb_mem::text_enum!(JobKind, "job kind" {
    "golden" => Golden,
    "fault" => Fault,
});

impl JobKind {
    /// Stable token used in the canonical line (and as a record's `kind`).
    pub fn canonical(&self) -> String {
        self.to_text()
    }
}

/// The injection plan a job runs under, in hashable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanSpec {
    /// No injection (golden jobs).
    None,
    /// `InjectionPlan::random(seed, faults, shape)` where `shape` is derived
    /// deterministically from the campaign's golden record — so `(seed,
    /// faults)` fully determines the plan at a given revision.
    Seeded {
        /// Faults per run.
        faults: u32,
    },
    /// An explicit fault schedule, canonicalized via
    /// `InjectionPlan::canonical_text`.
    Explicit(InjectionPlan),
}

// No spaces: an explicit plan is its canonical text in braces.
hb_mem::text_enum!(PlanSpec, "plan spec" {
    "none" => None,
    "seeded" [":" ""] => Seeded { faults },
    "explicit" [":{" "}"] => Explicit(plan),
});

/// One fully-specified simulation job. Everything that can change the
/// simulated result is in here (plus the revision); everything that cannot
/// (`label`, the host fields of the configuration) stays out of the hash.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Campaign kind.
    pub kind: JobKind,
    /// Kernel name: `sgemm` or `jacobi`.
    pub kernel: String,
    /// Seed: selects the injection plan for fault jobs; 0 where unused.
    pub seed: u64,
    /// Injection plan.
    pub plan: PlanSpec,
    /// Machine configuration (canonicalized; host fields never hash).
    pub config: MachineConfig,
    /// Display label. **Not hashed.**
    pub label: String,
}

// The part of the canonical line after the revision: space-delimited, and
// none of the field spellings contain spaces.
hb_mem::text_record!(JobSpec, ' ' {
    hashed "kind" => kind,
    hashed "kernel" => kernel,
    hashed "seed" => seed,
    hashed "plan" => plan,
    hashed "cfg" ["{" "}"] => config,
    host label = String::new(),
});

/// What every canonical line begins with, up to the revision.
const LINE_HEAD: &str = "hbjob v1 rev=";
/// What introduces the display label at the end of a manifest line.
const LABEL: &str = " label=";

impl JobSpec {
    /// The canonical single-line form the content hash is computed over:
    /// the revision, then every `hashed` field of the list above. `label`
    /// is display-only and excluded.
    pub fn canonical_line(&self) -> String {
        let rev = binary_rev();
        format!("{LINE_HEAD}{SCHEMA_REV}.{rev} {}", self.to_text())
    }

    /// Content hash: 128-bit FNV-1a over [`JobSpec::canonical_line`], as 32
    /// lowercase hex digits. The store keys result objects by this.
    pub fn hash(&self) -> String {
        format!("{:032x}", fnv1a128(self.canonical_line().as_bytes()))
    }

    /// The manifest line: the canonical line plus the display label.
    pub fn manifest_line(&self) -> String {
        format!("{}{LABEL}{}", self.canonical_line(), self.label)
    }

    /// Parses a [`JobSpec::manifest_line`] (or a bare canonical line — the
    /// label then defaults to empty).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field. The revision field is
    /// **not** required to match the current binary: old manifest entries
    /// must load so `status` can report them as stale-revision misses
    /// rather than erroring.
    pub fn from_manifest_line(line: &str) -> Result<JobSpec, String> {
        // The label swallows the rest of the line (labels may contain spaces).
        let (line, label) = line.split_once(LABEL).unwrap_or((line, ""));
        let (_rev, fields) = line
            .strip_prefix(LINE_HEAD)
            .and_then(|rest| rest.split_once(' '))
            .ok_or_else(|| format!("not an hbjob v1 line: {:?}", hb_mem::text::clip(line)))?;
        Ok(JobSpec {
            label: label.to_owned(),
            ..JobSpec::parse(fields)?
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_fault::{InjectionPlan, PlanShape};

    fn spec() -> JobSpec {
        JobSpec {
            kind: JobKind::Fault,
            kernel: "sgemm".to_owned(),
            seed: 7,
            plan: PlanSpec::Seeded { faults: 1 },
            config: MachineConfig::baseline_16x8(),
            label: "run 7".to_owned(),
        }
    }

    #[test]
    fn hash_is_stable_and_label_free() {
        let a = spec();
        let mut b = spec();
        b.label = "something else".to_owned();
        assert_eq!(a.hash(), b.hash(), "label must not affect the hash");
        assert_eq!(a.hash().len(), 32);

        let mut c = spec();
        c.config.event_core = false;
        assert_eq!(a.hash(), c.hash(), "host fields must not affect the hash");
    }

    #[test]
    fn hash_changes_on_seed_kernel_kind_plan_and_config() {
        let base = spec();
        let mut m = spec();
        m.seed = 8;
        assert_ne!(base.hash(), m.hash());
        let mut m = spec();
        m.kernel = "jacobi".to_owned();
        assert_ne!(base.hash(), m.hash());
        let mut m = spec();
        m.kind = JobKind::Golden;
        assert_ne!(base.hash(), m.hash());
        let mut m = spec();
        m.plan = PlanSpec::Seeded { faults: 2 };
        assert_ne!(base.hash(), m.hash());
        let mut m = spec();
        m.config.ruche_factor = 0;
        assert_ne!(base.hash(), m.hash());
    }

    #[test]
    fn manifest_line_roundtrips() {
        let shape = PlanShape {
            cells: 1,
            dim: (4, 4),
            spm_words: 512,
            icache_lines: 128,
            cycles: (100, 5000),
        };
        for s in [
            spec(),
            JobSpec {
                kind: JobKind::Golden,
                plan: PlanSpec::None,
                label: String::new(),
                ..spec()
            },
            JobSpec {
                plan: PlanSpec::Explicit(InjectionPlan::random(9, 3, &shape)),
                ..spec()
            },
        ] {
            let line = s.manifest_line();
            let back = JobSpec::from_manifest_line(&line).unwrap();
            // The config's host fields are not canonical; compare modulo
            // them.
            let mut want = s.clone();
            want.config = MachineConfig::from_canonical_text(&s.config.canonical_text()).unwrap();
            assert_eq!(back, want, "roundtrip of {line}");
            assert_eq!(back.hash(), s.hash());
        }
    }

    #[test]
    fn manifest_parse_rejects_garbage() {
        for bad in [
            "",
            "hbjob v2 kind=golden",
            "hbjob v1 kind=warp kernel=x seed=0 plan=none cfg{}",
            "hbjob v1 kind=golden kernel=x seed=z plan=none cfg{}",
            "hbjob v1 kind=golden kernel=x seed=0 plan=none",
        ] {
            assert!(JobSpec::from_manifest_line(bad).is_err(), "{bad:?}");
        }
        // One defect each, in an otherwise canonical line.
        let good = spec().canonical_line();
        JobSpec::from_manifest_line(&good).unwrap();
        for (from, to) in [
            ("hbjob v1", "hbjob v2"),
            ("v1 rev=", "v1 ver="),
            ("kind=fault", "kind=warp"),
            ("kind=fault", "kind=ablation:"),
            ("kind=fault", "kind=faulty"),
            ("seed=7", "seed=z"),
            ("seed=7", "seed=+7"),
            ("seed=7", "seed=7 seed=7"),
            ("seed=7", "seed=7 sede=7"),
            ("seed=7 ", ""),
            ("seed=7 ", "seed=7  "),
            ("plan=seeded:1", "plan=seeded:x"),
            ("plan=seeded:1", "plan=explicit:{planv=1;seed=0;inj="),
            ("plan=seeded:1", "plan=explicit:{planv=2;seed=0;inj=}"),
            (" cfg{", " cfg="),
            ("disabled=}", "disabled="),
            ("cell=16x8", "cell=0x0"),
        ] {
            assert!(good.contains(from), "{from}");
            let bad = good.replacen(from, to, 1);
            assert!(JobSpec::from_manifest_line(&bad).is_err(), "{bad:?}");
        }
    }

    /// Jobs are golden or fault runs: a manifest line of any other kind
    /// (an `ablation:<size>` sweep point, say; `hb-bench ablations` runs
    /// its points itself) is a typed parse error, not a job.
    #[test]
    fn a_kind_that_is_not_golden_or_fault_is_refused() {
        let line = spec()
            .manifest_line()
            .replacen("kind=fault", "kind=ablation:small", 1);
        let err = JobSpec::from_manifest_line(&line).unwrap_err();
        assert!(err.contains("unknown job kind"), "{err}");
    }
}
