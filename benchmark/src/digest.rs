//! Unit digests and the golden file that pins them at the default seed.

use pearl_telemetry::JsonValue;
use std::path::PathBuf;

/// FNV-1a over the little-endian bytes of `words`.
pub fn fnv(words: &[u64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The committed golden digests, compiled in so a run does not depend on
/// its working directory.
const GOLDEN: &str = include_str!("../golden.json");

/// Where `--bless` writes the golden digests.
pub fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden.json")
}

/// Golden digests of one workload at the default seed, by unit key.
#[derive(Debug, Clone, Default)]
pub struct Golden {
    entries: Vec<(String, u64)>,
}

impl Golden {
    /// The compiled-in digests of `workload` (empty when never blessed).
    pub fn for_workload(workload: &str) -> Golden {
        let doc = JsonValue::parse(GOLDEN.trim()).expect("golden.json is valid JSON");
        let entries = match doc.get("workloads").and_then(|w| w.get(workload)) {
            Some(JsonValue::Obj(fields)) => fields
                .iter()
                .map(|(key, v)| {
                    let hex = v.as_str().expect("golden digests are hex strings");
                    (key.clone(), u64::from_str_radix(hex, 16).expect("golden digest is hex"))
                })
                .collect(),
            _ => Vec::new(),
        };
        Golden { entries }
    }

    /// True when no digest was ever blessed for the workload.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The digest blessed for `key`, if any.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.entries.iter().find(|(k, _)| k == key).map(|&(_, d)| d)
    }
}

/// Renders the golden file for `seed` from `(workload, [(unit key,
/// digest)])` rows, one digest per line so a re-bless diffs per unit.
pub fn render_golden(seed: u64, workloads: &[(&str, Vec<(String, u64)>)]) -> String {
    let separator = |i: usize, len: usize| if i + 1 < len { "," } else { "" };
    let mut out = format!("{{\n  \"seed\": {seed},\n  \"workloads\": {{\n");
    for (w, (name, units)) in workloads.iter().enumerate() {
        out += &format!("    {}: {{\n", JsonValue::str(*name));
        for (u, (key, digest)) in units.iter().enumerate() {
            let comma = separator(u, units.len());
            out += &format!("      {}: \"{digest:016x}\"{comma}\n", JsonValue::str(key));
        }
        out += &format!("    }}{}\n", separator(w, workloads.len()));
    }
    out + "  }\n}\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vector_and_sees_every_word() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(fnv(&[]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv(&[1, 2]), fnv(&[2, 1]));
        assert_ne!(fnv(&[0]), fnv(&[0, 0]));
    }

    #[test]
    fn rendered_golden_files_parse_back() {
        let text = render_golden(100, &[("pearl_dyn", vec![("FA+DCT".into(), u64::MAX)])]);
        let doc = JsonValue::parse(text.trim()).unwrap();
        let digest = doc.get("workloads").unwrap().get("pearl_dyn").unwrap().get("FA+DCT");
        assert_eq!(digest.unwrap().as_str(), Some("ffffffffffffffff"));
    }
}
