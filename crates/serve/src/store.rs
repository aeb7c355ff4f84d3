//! Content-addressed results store with a failure log.
//!
//! Layout under the store root:
//!
//! ```text
//! store/
//!   objects/<h[0..2]>/<h>.json    one JSON line per completed job (h = JobSpec hash)
//!   ckpt/<h>.ckpt                 mid-job resume checkpoints (hang-<h>: hang dumps)
//!   journal.ndjson                one `failed` line per job that erred or panicked
//! ```
//!
//! Object writes are atomic (`.tmp` + rename), so a killed campaign leaves
//! either a complete object or none. The objects are the record of what is
//! done: cache hits, reports and `status`'s `done` count read them
//! (existence + successful parse). The journal holds only failures, which
//! leave no object: `status` counts them, `gc` prunes them, and a report
//! names none. Journal recovery ignores a truncated last line (the classic
//! kill-during-append artifact), so resume never trips over a partial
//! line.
//!
//! Durability contract: `rename(2)` alone only orders the swap against
//! other operations on a live filesystem — the *directory entry* is not
//! durable until the parent directory itself is fsynced. Every file this
//! module replaces goes through [`hb_ckpt::write_atomic`], which fsyncs the
//! parent after the rename, so a power cut after `put` returns cannot
//! resurrect the pre-rename state; every journal append (the first one
//! creates the file) is followed by `sync_dir` on the root.

use hb_ckpt::write_atomic;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One completed job's stored result: everything the aggregation layer
/// needs, flat and append-friendly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobRecord {
    /// Content hash of the [`crate::JobSpec`] that produced this.
    pub hash: String,
    /// Job kind token (`golden`/`fault`).
    pub kind: String,
    /// Kernel name.
    pub kernel: String,
    /// Job seed.
    pub seed: u64,
    /// Outcome: `ok` (golden), or `masked`/`sdc`/`detected`/`hang`.
    pub outcome: String,
    /// Injected site-kind label (`regfile`, `spm`, ...); empty when none.
    pub site: String,
    /// Injection cycle; 0 when none.
    pub inj_cycle: u64,
    /// Simulated cycles (golden: run length; fault: observed
    /// cycles, 0 for hangs).
    pub cycles: u64,
    /// Retired instructions.
    pub instrs: u64,
    /// FNV-1a digest of the final DRAM image, as `0x`-hex.
    pub dram_digest: u64,
    /// Cross-checks the run passed (comma-joined, e.g.
    /// `empty-plan-identity,iss-anchor`).
    pub checks: String,
    /// Always 0: a job runs once. The member is kept so that the stored
    /// layout (`SCHEMA_REV` 4) and the benchmark's `serve.retries` row do
    /// not move; it leaves with the benchmark-only change of ROADMAP item 6.
    pub retries: u32,
    /// Paths of side artifacts (telemetry traces); relative to the store
    /// root, comma-joined. Empty when none.
    pub artifacts: String,
}

/// Keys a record and a journal line share.
const HASH: &str = "hash";
const RETRIES: &str = "retries";

// One JSON object per line, members in this order. Changing the list
// changes the stored layout: bump `SCHEMA_REV`.
hb_mem::json_record!(pub JobRecord {
    HASH => hash: string,
    "kind" => kind: string,
    "kernel" => kernel: string,
    "seed" => seed: number,
    "outcome" => outcome: string,
    "site" => site: string,
    "inj_cycle" => inj_cycle: number,
    "cycles" => cycles: number,
    "instrs" => instrs: number,
    "dram_digest" => dram_digest: hex,
    "checks" => checks: string,
    RETRIES => retries: number,
    "artifacts" => artifacts: string,
});

/// One journal line: a job that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Job hash.
    pub hash: String,
    /// `failed`: the executor erred or panicked, no object is stored, and
    /// the next run of the campaign runs the job again.
    pub status: String,
    /// The error message (`panic: ...` for a panic).
    pub detail: String,
    /// Always 0: a job runs once. The member is kept so that the stored
    /// layout (`SCHEMA_REV` 4) does not move; it leaves with the
    /// benchmark-only change of ROADMAP item 6.
    pub retries: u32,
}

hb_mem::json_record!(pub JournalEntry {
    HASH => hash: string,
    "status" => status: string,
    "detail" => detail: string,
    RETRIES => retries: number,
});

/// Fsyncs a directory so a preceding `rename`/`create` in it is durable.
///
/// File data made durable with `File::sync_all` can still vanish on power
/// loss if the directory entry pointing at it was never flushed; POSIX
/// only guarantees the entry's durability once the directory itself is
/// synced.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Statistics from a [`Store::gc`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcStats {
    /// Objects kept (referenced by a live manifest).
    pub kept: usize,
    /// Objects deleted.
    pub deleted: usize,
    /// Bytes reclaimed.
    pub bytes: u64,
    /// Checkpoint files deleted from `ckpt/`.
    pub ckpts_deleted: usize,
    /// Bytes those held.
    pub ckpt_bytes: u64,
}

/// The on-disk store.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Store> {
        let root = root.into();
        std::fs::create_dir_all(root.join("objects"))?;
        std::fs::create_dir_all(root.join("ckpt"))?;
        Ok(Store { root })
    }

    /// Path of the object for `hash`.
    pub fn object_path(&self, hash: &str) -> PathBuf {
        let shard = hash.get(..2).unwrap_or("xx");
        self.root
            .join("objects")
            .join(shard)
            .join(format!("{hash}.json"))
    }

    fn journal_path(&self) -> PathBuf {
        self.root.join("journal.ndjson")
    }

    /// Fetches the stored result for `hash`; `None` on a miss. A present
    /// but unparseable object (torn write from a hard kill predating the
    /// atomic-rename scheme, manual tampering) reads as a miss so the job
    /// simply re-runs.
    pub fn get(&self, hash: &str) -> Option<JobRecord> {
        let text = std::fs::read_to_string(self.object_path(hash)).ok()?;
        let rec = JobRecord::from_json_line(text.trim_end()).ok()?;
        (rec.hash == hash).then_some(rec)
    }

    /// Whether a valid result for `hash` is stored.
    pub fn has(&self, hash: &str) -> bool {
        self.get(hash).is_some()
    }

    /// Stores a completed job's record under its hash (atomic tmp + fsync
    /// + rename + parent-dir fsync).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn put(&self, rec: &JobRecord) -> std::io::Result<()> {
        write_atomic(&self.object_path(&rec.hash), |f| {
            writeln!(f, "{}", rec.to_json_line())
        })
    }

    /// Appends a `failed` journal line (no object is stored, so the job
    /// re-runs on resume).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn record_failure(&self, hash: &str, error: &str) -> std::io::Result<()> {
        let entry = JournalEntry {
            hash: hash.to_owned(),
            status: "failed".to_owned(),
            detail: error.to_owned(),
            retries: 0,
        };
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.journal_path())?;
        // The line and its newline go out in ONE write: workers append
        // concurrently, `O_APPEND` keeps each write whole, and `writeln!`
        // would issue the newline as a second write that another worker's
        // line can land in front of (`{..}{..}\n\n`, an unreadable journal).
        f.write_all((entry.to_json_line() + "\n").as_bytes())?;
        f.sync_all()?;
        // The first append also creates the file; its directory entry
        // needs the same parent fsync as a rename to survive power loss.
        sync_dir(&self.root)
    }

    /// Path of the checkpoint blob stored under `key` (a job hash for
    /// mid-job resume checkpoints, `hang-<hash>` for a timed-out job's
    /// dump).
    pub fn ckpt_path(&self, key: &str) -> PathBuf {
        self.root.join("ckpt").join(format!("{key}.ckpt"))
    }

    /// Stores a machine checkpoint blob under `key`, atomically (tmp +
    /// fsync + rename + parent-dir fsync). The blob carries its own
    /// integrity hash (`hb_ckpt`), so a torn write reads back as a clean
    /// [`hb_ckpt::CkptError::Corrupt`] and the job simply restarts.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn put_ckpt(&self, key: &str, bytes: &[u8]) -> std::io::Result<()> {
        write_atomic(&self.ckpt_path(key), |f| f.write_all(bytes))
    }

    /// Fetches the checkpoint blob stored under `key`; `None` on a miss.
    /// Validity is the caller's concern — `hb_ckpt::decode` rejects torn
    /// or stale blobs with a clean error.
    pub fn get_ckpt(&self, key: &str) -> Option<Vec<u8>> {
        std::fs::read(self.ckpt_path(key)).ok()
    }

    /// Removes the checkpoint blob for `key` (a completed job no longer
    /// needs its resume point). Missing blobs are fine.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than "not found".
    pub fn remove_ckpt(&self, key: &str) -> std::io::Result<()> {
        match std::fs::remove_file(self.ckpt_path(key)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Reads the journal, newest last. A truncated final line — the
    /// signature of a kill mid-append — is silently dropped; any *interior*
    /// malformed line is an error (that is corruption, not truncation).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and interior corruption.
    pub fn journal(&self) -> Result<Vec<JournalEntry>, String> {
        let text = match std::fs::read_to_string(self.journal_path()) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("read journal: {e}")),
        };
        // What follows the last newline is never a complete entry: empty
        // after a clean append, a torn partial line otherwise. Drop it.
        let Some((complete, _torn)) = text.rsplit_once('\n') else {
            return Ok(Vec::new());
        };
        (complete.split('\n').enumerate())
            .map(|(i, line)| {
                JournalEntry::from_json_line(line)
                    .map_err(|err| format!("journal line {}: {err}", i + 1))
            })
            .collect()
    }

    /// Deletes every object whose hash is not in `keep`; prunes the journal
    /// lines of jobs not in `keep` by rewriting the journal (atomic rename).
    /// In `ckpt/`, deletes the hang dump (`hang-<h>.ckpt`) and the resume
    /// checkpoint (`<h>.ckpt`) of every job not in `keep`, and any checkpoint
    /// this binary cannot decode (an older `CKPT_VERSION`, a torn file). A
    /// checkpoint that names no job, such as a `warm-*` blob an older
    /// binary shared between runs, is an orphan.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn gc(&self, keep: &std::collections::HashSet<String>) -> Result<GcStats, String> {
        let mut stats = GcStats::default();
        let objects = self.root.join("objects");
        let shards = std::fs::read_dir(&objects).map_err(|e| format!("read objects: {e}"))?;
        for shard in shards {
            let shard = shard.map_err(|e| e.to_string())?.path();
            if !shard.is_dir() {
                continue;
            }
            for obj in std::fs::read_dir(&shard).map_err(|e| e.to_string())? {
                let path = obj.map_err(|e| e.to_string())?.path();
                let hash = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("")
                    .to_owned();
                if keep.contains(&hash) {
                    stats.kept += 1;
                } else {
                    stats.bytes += path.metadata().map(|m| m.len()).unwrap_or(0);
                    std::fs::remove_file(&path).map_err(|e| format!("rm {path:?}: {e}"))?;
                    stats.deleted += 1;
                }
            }
        }
        let ckpts =
            std::fs::read_dir(self.root.join("ckpt")).map_err(|e| format!("read ckpt: {e}"))?;
        for ckpt in ckpts {
            let path = ckpt.map_err(|e| e.to_string())?.path();
            let key = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            let job = key.strip_prefix("hang-").unwrap_or(key);
            let orphan = !keep.contains(job);
            let unreadable =
                || std::fs::read(&path).map_or(true, |bytes| hb_ckpt::decode(&bytes).is_err());
            if path.extension().is_some_and(|e| e == "ckpt") && (orphan || unreadable()) {
                stats.ckpt_bytes += path.metadata().map(|m| m.len()).unwrap_or(0);
                std::fs::remove_file(&path).map_err(|e| format!("rm {path:?}: {e}"))?;
                stats.ckpts_deleted += 1;
            }
        }
        // Rewrite the journal without entries for jobs not in `keep`.
        let entries = self.journal()?;
        write_atomic(&self.journal_path(), |f| {
            (entries.iter().filter(|e| keep.contains(&e.hash)))
                .try_for_each(|e| writeln!(f, "{}", e.to_json_line()))
        })
        .map_err(|e| format!("rewrite journal: {e}"))?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(hash: &str) -> JobRecord {
        JobRecord {
            hash: hash.to_owned(),
            kind: "fault".to_owned(),
            kernel: "sgemm".to_owned(),
            seed: 7,
            outcome: "masked".to_owned(),
            site: "regfile".to_owned(),
            inj_cycle: 123,
            cycles: 4567,
            instrs: 890,
            dram_digest: 0xdead_beef_cafe_f00d,
            checks: String::new(),
            retries: 1,
            artifacts: String::new(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("hb-serve-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn record_json_roundtrips() {
        let r = rec("ab12");
        let line = r.to_json_line();
        assert_eq!(JobRecord::from_json_line(&line).unwrap(), r);
        // Escaping survives.
        let mut odd = rec("ab12");
        odd.checks = "a\"b\\c\n".to_owned();
        odd.artifacts = "ckpt/hang-ab12.ckpt".to_owned();
        assert_eq!(JobRecord::from_json_line(&odd.to_json_line()).unwrap(), odd);
    }

    #[test]
    fn put_get_and_journal() {
        let dir = tmpdir("putget");
        let store = Store::open(&dir).unwrap();
        assert!(store.get("ab12").is_none());
        store.put(&rec("ab12")).unwrap();
        assert_eq!(store.get("ab12").unwrap(), rec("ab12"));
        assert!(store.journal().unwrap().is_empty(), "put journals nothing");
        store.record_failure("cd34", "panic: boom").unwrap();
        let j = store.journal().unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(
            (j[0].hash.as_str(), j[0].status.as_str()),
            ("cd34", "failed")
        );
        assert_eq!((j[0].detail.as_str(), j[0].retries), ("panic: boom", 0));
        assert!(!store.has("cd34"), "failures must not read as cache hits");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_ignores_truncated_last_line() {
        let dir = tmpdir("trunc");
        let store = Store::open(&dir).unwrap();
        store.record_failure("ab12", "panic: boom").unwrap();
        store.record_failure("ef56", "panic: boom").unwrap();
        // Simulate a kill mid-append: chop the file mid-way through the
        // last line.
        let jp = dir.join("journal.ndjson");
        let text = std::fs::read_to_string(&jp).unwrap();
        let cut = text.len() - 10;
        std::fs::write(&jp, &text[..cut]).unwrap();
        let j = store.journal().unwrap();
        assert_eq!(j.len(), 1, "partial last line is dropped");
        assert_eq!(j[0].hash, "ab12");
        // Interior corruption is NOT silently dropped.
        std::fs::write(
            &jp,
            "{garbage}\n{\"hash\":\"x\",\"status\":\"failed\",\"detail\":\"\",\"retries\":0}\n",
        )
        .unwrap();
        assert!(store.journal().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_keep_lines_whole() {
        // Workers of one campaign append to the journal concurrently; an
        // append that is more than one `write` lets two lines interleave.
        let dir = tmpdir("append");
        let store = Store::open(&dir).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..40 {
                        store.record_failure(&format!("{t}-{i}"), "boom").unwrap();
                    }
                });
            }
        });
        let journal = store.journal().expect("every line is one whole entry");
        assert_eq!(journal.len(), 160);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_object_reads_as_miss() {
        let dir = tmpdir("corrupt");
        let store = Store::open(&dir).unwrap();
        store.put(&rec("ab12")).unwrap();
        std::fs::write(store.object_path("ab12"), "{not json").unwrap();
        assert!(store.get("ab12").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ckpt_blobs_round_trip() {
        let dir = tmpdir("ckpt");
        let store = Store::open(&dir).unwrap();
        assert!(store.get_ckpt("ab12").is_none());
        store.put_ckpt("ab12", b"blob-bytes").unwrap();
        assert_eq!(store.get_ckpt("ab12").unwrap(), b"blob-bytes");
        store.put_ckpt("ab12", b"newer").unwrap();
        assert_eq!(store.get_ckpt("ab12").unwrap(), b"newer");
        store.remove_ckpt("ab12").unwrap();
        store.remove_ckpt("ab12").unwrap();
        assert!(store.get_ckpt("ab12").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_referenced_objects() {
        let dir = tmpdir("gc");
        let store = Store::open(&dir).unwrap();
        store.put(&rec("ab12")).unwrap();
        store.put(&rec("cd34")).unwrap();
        store.record_failure("ef56", "panic: boom").unwrap();
        store.record_failure("0a0b", "panic: boom").unwrap();
        let keep: std::collections::HashSet<String> = ["ab12", "ef56"].map(String::from).into();
        let stats = store.gc(&keep).unwrap();
        assert_eq!((stats.kept, stats.deleted), (1, 1));
        assert!(store.has("ab12"));
        assert!(!store.has("cd34"));
        let journal = store.journal().unwrap();
        assert_eq!(journal.len(), 1);
        assert_eq!(journal[0].hash, "ef56", "the failure of a kept job stays");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_sweeps_orphaned_and_unreadable_checkpoints() {
        let dir = tmpdir("gc-ckpt");
        let store = Store::open(&dir).unwrap();
        let blob = hb_ckpt::encode(&hb_core::Machine::new(hb_core::MachineConfig {
            cell_dim: hb_core::CellDim { x: 2, y: 2 },
            dram_bytes_per_cell: 1 << 16,
            ..hb_core::MachineConfig::baseline_16x8()
        }));
        // What no binary reads any more: the previous format version.
        let mut stale = blob.clone();
        stale[8..12].copy_from_slice(&(hb_ckpt::CKPT_VERSION - 1).to_le_bytes());
        let mut torn = blob.clone();
        torn.truncate(blob.len() / 2);

        store.put(&rec("ab12")).unwrap();
        store.put_ckpt("hang-ab12", &blob).unwrap();
        store.put_ckpt("hang-cd34", &blob).unwrap(); // a dump with no record
        store.put_ckpt("ef56", &blob).unwrap(); // a resume point with no record
        store.put_ckpt("warm-sgemm-00ff", &blob).unwrap(); // an older binary's: no job
        store.put_ckpt("warm-jacobi-00ff", &stale).unwrap();
        store.put_ckpt("ab12", &torn).unwrap(); // kept job, unreadable file

        let keep: std::collections::HashSet<String> = ["ab12".to_owned()].into();
        let stats = store.gc(&keep).unwrap();
        assert_eq!((stats.kept, stats.deleted), (1, 0));
        assert_eq!(stats.ckpts_deleted, 5);
        assert_eq!(
            stats.ckpt_bytes,
            (3 * blob.len() + stale.len() + torn.len()) as u64
        );
        let mut left: Vec<String> = std::fs::read_dir(dir.join("ckpt"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left, ["hang-ab12.ckpt"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
