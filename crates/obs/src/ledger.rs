//! The durable run ledger: one JSON line per runner batch, appended to
//! `results/ledger.jsonl` (override with the `MIRA_LEDGER` environment
//! variable).
//!
//! Each entry records *what* ran (exhibit name, config hash over the
//! batch's labels and seeds, first seed), *from what* (build
//! provenance), and *how it went* (wall time, simulated cycles,
//! Kcycles/s, Mflits/s, saturation count, peak arena watermark). The
//! `(exhibit, config_hash, git_rev)` triple is the keying substrate the
//! planned DSE result cache (ROADMAP item 5) will look runs up by.
//!
//! Entries are only written while observability is enabled, so the
//! default test/bench path never touches the filesystem. Every entry
//! written (or attempted) is also kept in an in-process session list,
//! which is how `scorecard --json` builds its `"host"` section without
//! re-reading the file.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// Default ledger location, relative to the working directory.
pub const DEFAULT_LEDGER_PATH: &str = "results/ledger.jsonl";

/// The ledger path: `MIRA_LEDGER` when set, else
/// [`DEFAULT_LEDGER_PATH`].
pub fn default_path() -> PathBuf {
    std::env::var("MIRA_LEDGER").map_or_else(|_| PathBuf::from(DEFAULT_LEDGER_PATH), PathBuf::from)
}

/// One appended batch record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Unix timestamp of the append, milliseconds.
    pub ts_ms: u64,
    /// Producing exhibit/binary (e.g. `fig11a_latency_ur`, `scorecard`).
    pub exhibit: String,
    /// [`config_hash`] over the batch's point labels and seeds, as
    /// 16 hex digits — the unambiguous batch identity (shared with the
    /// batch's checkpoint file), stable across partial and resumed
    /// runs of the same point list.
    pub config_hash: String,
    /// Seed of the batch's first *submitted* point (individual seeds
    /// are inside the hash). Derived from the submitted point list, not
    /// from whichever points completed, so partial batches record the
    /// same value.
    pub seed: u64,
    /// Smallest seed across the submitted points.
    pub seed_min: u64,
    /// Largest seed across the submitted points.
    pub seed_max: u64,
    /// Git revision of the producing build.
    pub git_rev: String,
    /// Build profile (`debug`/`release`).
    pub profile: String,
    /// Building compiler.
    pub rustc: String,
    /// Points in the batch.
    pub points: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Batch wall time, milliseconds.
    pub wall_ms: f64,
    /// Simulated cycles summed over the batch.
    pub cycles_simulated: u64,
    /// Thousands of simulated cycles per wall second.
    pub kcycles_per_sec: f64,
    /// Millions of measured flits ejected per wall second.
    pub mflits_per_sec: f64,
    /// Points that saturated.
    pub saturated_points: usize,
    /// Points that failed (panicked, timed out, or were skipped by
    /// fail-fast) after exhausting their retry budget.
    pub failed_points: usize,
    /// Points replayed from a sweep checkpoint instead of simulated.
    pub resumed_points: usize,
    /// Peak live flits in any point's arena.
    pub peak_arena_flits: u64,
    /// Anomaly-detector firings across the batch (windowed detections
    /// plus triggered black-box halts). `None` when the batch was clean
    /// — and in every entry written before the flight recorder existed,
    /// which is why these two fields are `Option`s: old ledger lines
    /// (no such field → `Null`) still deserialize.
    pub anomalies: Option<u64>,
    /// Detector names that fired, sorted and deduplicated. `None` when
    /// the batch was clean.
    pub anomaly_kinds: Option<Vec<String>>,
}

/// FNV-1a 64-bit over the exhibit name and every `(label, seed)` pair —
/// a stable, dependency-free fingerprint of what a batch simulated.
/// Identical batches hash identically across runs and platforms.
pub fn config_hash<'a>(exhibit: &str, points: impl Iterator<Item = (&'a str, u64)>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(exhibit.as_bytes());
    for (label, seed) in points {
        eat(&[0xff]); // field separator, not valid UTF-8 inside labels
        eat(label.as_bytes());
        eat(&seed.to_le_bytes());
    }
    h
}

/// Renders a hash as the ledger's 16-hex-digit form.
pub fn hash_hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn unix_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// Appends `entry` as one JSON line to the ledger at `path`, creating
/// parent directories as needed.
///
/// # Errors
///
/// Propagates filesystem errors (callers warn rather than abort — a
/// read-only working directory must not kill a simulation batch).
pub fn append(path: &Path, entry: &LedgerEntry) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let line = serde_json::to_string(entry)
        .map_err(|e| std::io::Error::other(format!("ledger entry serialization: {e}")))?;
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{line}")
}

/// Parses every entry of a ledger file (skipping blank lines).
///
/// # Errors
///
/// Propagates read errors; a malformed line becomes an
/// [`std::io::Error`] naming its line number.
pub fn read(path: &Path) -> std::io::Result<Vec<LedgerEntry>> {
    let text = std::fs::read_to_string(path)?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry: LedgerEntry = serde_json::from_str(line).map_err(|e| {
            std::io::Error::other(format!(
                "{}:{}: malformed ledger line: {e}",
                path.display(),
                i + 1
            ))
        })?;
        out.push(entry);
    }
    Ok(out)
}

static SESSION: Mutex<Vec<LedgerEntry>> = Mutex::new(Vec::new());

/// Records `entry` in the in-process session list (done automatically by
/// the runner alongside the file append).
pub fn record_session(entry: LedgerEntry) {
    SESSION.lock().expect("session ledger").push(entry);
}

/// Every entry recorded by this process so far, in order.
pub fn session_entries() -> Vec<LedgerEntry> {
    SESSION.lock().expect("session ledger").clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seed: u64) -> LedgerEntry {
        LedgerEntry {
            ts_ms: 1_700_000_000_000,
            exhibit: "test".to_string(),
            config_hash: hash_hex(config_hash("test", [("a", seed)].into_iter())),
            seed,
            seed_min: seed,
            seed_max: seed,
            git_rev: "abc123".to_string(),
            profile: "debug".to_string(),
            rustc: "rustc test".to_string(),
            points: 1,
            jobs: 1,
            wall_ms: 12.5,
            cycles_simulated: 1000,
            kcycles_per_sec: 80.0,
            mflits_per_sec: 0.4,
            saturated_points: 0,
            failed_points: 0,
            resumed_points: 0,
            peak_arena_flits: 64,
            anomalies: None,
            anomaly_kinds: None,
        }
    }

    #[test]
    fn config_hash_is_stable_and_sensitive() {
        let a = config_hash("fig11a", [("x", 1u64), ("y", 2)].into_iter());
        let b = config_hash("fig11a", [("x", 1u64), ("y", 2)].into_iter());
        assert_eq!(a, b, "same batch, same hash");
        assert_ne!(a, config_hash("fig11a", [("x", 1u64), ("y", 3)].into_iter()), "seed change");
        assert_ne!(a, config_hash("fig11a", [("x", 1u64), ("z", 2)].into_iter()), "label change");
        assert_ne!(a, config_hash("fig12a", [("x", 1u64), ("y", 2)].into_iter()), "exhibit change");
        assert_eq!(hash_hex(a).len(), 16);
    }

    #[test]
    fn append_then_read_round_trips() {
        let path =
            std::env::temp_dir().join(format!("mira_ledger_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append(&path, &entry(7)).expect("append 1");
        append(&path, &entry(8)).expect("append 2");
        let entries = read(&path).expect("read back");
        assert_eq!(entries.len(), 2, "append-only: both entries survive");
        assert_eq!(entries[0].seed, 7);
        assert_eq!(entries[1].seed, 8);
        assert_eq!(entries[1].peak_arena_flits, 64);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn entries_without_anomaly_fields_still_parse() {
        let full = serde_json::to_string(&entry(3)).expect("entry serializes");
        // Reconstruct a pre-flight-recorder ledger line by stripping
        // the fields that did not exist yet.
        let stripped =
            full.replace(",\"anomalies\":null", "").replace(",\"anomaly_kinds\":null", "");
        assert_ne!(full, stripped, "the new fields were present to strip");
        let e: LedgerEntry = serde_json::from_str(&stripped).expect("old line parses");
        assert_eq!(e.anomalies, None);
        assert_eq!(e.anomaly_kinds, None);
    }

    #[test]
    fn session_list_accumulates() {
        let before = session_entries().len();
        record_session(entry(9));
        let after = session_entries();
        assert_eq!(after.len(), before + 1);
        assert_eq!(after.last().expect("just pushed").seed, 9);
    }
}
