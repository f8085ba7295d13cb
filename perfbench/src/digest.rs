//! Output digests and the stored expectations they are checked against.
//!
//! A digest is FNV-1a/64 over a result's canonical JSON (the simulator's
//! `SimReport` serialization is pinned byte-for-byte by the golden
//! suites), so any change to any simulated statistic changes it.

use std::collections::BTreeMap;
use std::path::Path;

use mira::noc::sim::SimReport;

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hex digest of a string.
pub fn of_text(text: &str) -> String {
    format!("{:016x}", fnv1a(text.as_bytes()))
}

/// Hex digest of a full simulation report.
pub fn of_report(report: &SimReport) -> String {
    of_text(&serde_json::to_string(report).expect("SimReport serializes"))
}

/// Expected outputs of one workload: digests by key plus the count of
/// claims that must land in band.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Expected {
    /// Digest per output key (point label, exhibit id, ...).
    pub digests: BTreeMap<String, String>,
    /// Claims inside their band.
    pub claims_in_band: u64,
}

impl Expected {
    /// Reads an expectation file.
    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
    }

    /// Writes an expectation file.
    pub fn store(&self, path: &Path) -> Result<(), String> {
        let json = serde_json::to_string_pretty(self).expect("expectations serialize");
        std::fs::write(path, json + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Keys whose observed digest differs from (or is missing in) the
    /// expectation, plus expected keys that were never observed.
    pub fn mismatches(&self, observed: &BTreeMap<String, String>) -> Vec<String> {
        let mut bad: Vec<String> = observed
            .iter()
            .filter(|(k, v)| self.digests.get(*k) != Some(*v))
            .map(|(k, v)| match self.digests.get(k) {
                Some(want) => format!("{k}: digest {v} != expected {want}"),
                None => format!("{k}: no stored digest"),
            })
            .collect();
        bad.extend(
            self.digests
                .keys()
                .filter(|k| !observed.contains_key(*k))
                .map(|k| format!("{k}: expected output missing")),
        );
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn mutated_digest_is_detected() {
        let mut observed = BTreeMap::new();
        observed.insert("ur 2DB @ 0.05".to_string(), of_text("{\"avg_latency\":21.5}"));
        observed.insert("fig1".to_string(), of_text("table"));
        let expected = Expected { digests: observed.clone(), claims_in_band: 14 };
        assert!(expected.mismatches(&observed).is_empty());

        // One changed statistic (a single digit of the report) is caught.
        let mut mutated = observed.clone();
        mutated.insert("ur 2DB @ 0.05".to_string(), of_text("{\"avg_latency\":21.6}"));
        let bad = expected.mismatches(&mutated);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].starts_with("ur 2DB @ 0.05"));

        // A dropped output and an unexpected one are both caught.
        let mut partial = observed.clone();
        partial.remove("fig1");
        partial.insert("extra".to_string(), of_text("x"));
        assert_eq!(expected.mismatches(&partial).len(), 2);
    }

    #[test]
    fn expectations_round_trip_through_json() {
        let mut e = Expected { claims_in_band: 3, ..Expected::default() };
        e.digests.insert("k".into(), "00ff".into());
        let text = serde_json::to_string_pretty(&e).expect("serializes");
        assert_eq!(serde_json::from_str::<Expected>(&text).expect("parses"), e);
    }
}
