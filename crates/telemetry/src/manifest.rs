//! Per-run manifests: what produced a trace, pinned well enough to
//! detect that two artifacts came from different configurations.
//!
//! The manifest deliberately contains **no wall-clock timestamps** —
//! artifacts committed under `results/` must be bit-identical across
//! reruns of the same configuration, and a timestamp would break that.
//! Full-range `u64` fields (seed, fingerprint) are serialized as
//! decimal strings because JSON numbers are `f64`-lossy above 2⁵³.

use crate::json::{JsonError, JsonValue};
use crate::storage::Storage;
use std::fmt;
use std::path::Path;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte string — the config fingerprint hash. Stable,
/// dependency-free, and good enough to distinguish configurations (it
/// is a change detector, not a cryptographic commitment).
pub fn fingerprint(text: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Provenance of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Bench/bin name that produced the run (e.g. `"faultsweep"`).
    pub name: String,
    /// Workload RNG seed.
    pub seed: u64,
    /// Simulated network cycles.
    pub cycles: u64,
    /// FNV-1a fingerprint of the full configuration (Debug-formatted).
    pub config_fingerprint: u64,
    /// Version of the producing crate (`CARGO_PKG_VERSION`).
    pub crate_version: String,
    /// Events in the accompanying trace.
    pub events: u64,
    /// Events dropped past the recorder cap (0 = complete trace).
    pub dropped_events: u64,
    /// Free-form extra fields (fault rate, policy label, ...).
    pub extra: Vec<(String, JsonValue)>,
}

impl RunManifest {
    /// A manifest with the required fields and no extras.
    pub fn new(name: impl Into<String>, seed: u64, cycles: u64) -> RunManifest {
        RunManifest {
            name: name.into(),
            seed,
            cycles,
            config_fingerprint: 0,
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            events: 0,
            dropped_events: 0,
            extra: Vec::new(),
        }
    }

    /// Sets the config fingerprint from any Debug-formattable config.
    #[must_use]
    pub fn with_config(mut self, config: &impl fmt::Debug) -> RunManifest {
        self.config_fingerprint = fingerprint(&format!("{config:?}"));
        self
    }

    /// Records the trace size alongside the manifest.
    #[must_use]
    pub fn with_trace_counts(mut self, events: u64, dropped: u64) -> RunManifest {
        self.events = events;
        self.dropped_events = dropped;
        self
    }

    /// Appends one free-form field.
    #[must_use]
    pub fn with_extra(mut self, key: impl Into<String>, value: JsonValue) -> RunManifest {
        self.extra.push((key.into(), value));
        self
    }

    /// Renders the manifest as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("name".to_string(), JsonValue::str(self.name.clone())),
            ("seed".to_string(), JsonValue::str(self.seed.to_string())),
            ("cycles".to_string(), JsonValue::u64(self.cycles)),
            ("config_fingerprint".to_string(), JsonValue::str(self.config_fingerprint.to_string())),
            ("crate_version".to_string(), JsonValue::str(self.crate_version.clone())),
            ("events".to_string(), JsonValue::u64(self.events)),
            ("dropped_events".to_string(), JsonValue::u64(self.dropped_events)),
        ];
        if !self.extra.is_empty() {
            pairs.push(("extra".to_string(), JsonValue::Obj(self.extra.clone())));
        }
        JsonValue::Obj(pairs)
    }

    /// Parses a manifest back from its JSON form.
    pub fn from_json(v: &JsonValue) -> Option<RunManifest> {
        Some(RunManifest {
            name: v.get("name")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_str()?.parse().ok()?,
            cycles: v.get("cycles")?.as_u64()?,
            config_fingerprint: v.get("config_fingerprint")?.as_str()?.parse().ok()?,
            crate_version: v.get("crate_version")?.as_str()?.to_string(),
            events: v.get("events")?.as_u64()?,
            dropped_events: v.get("dropped_events")?.as_u64()?,
            extra: match v.get("extra") {
                Some(JsonValue::Obj(pairs)) => pairs.clone(),
                Some(_) => return None,
                None => Vec::new(),
            },
        })
    }

    /// Writes the manifest as pretty-enough single-line JSON to `path`
    /// atomically (tmp-then-rename), creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn write_file(&self, storage: &dyn Storage, path: impl AsRef<Path>) -> std::io::Result<()> {
        storage.write_atomic(path.as_ref(), &format!("{}\n", self.to_json()))
    }

    /// Reads a manifest file written by [`RunManifest::write_file`].
    ///
    /// # Errors
    ///
    /// Fails on storage errors or malformed content.
    pub fn read_file(
        storage: &dyn Storage,
        path: impl AsRef<Path>,
    ) -> Result<RunManifest, ManifestError> {
        let text = storage.read(path.as_ref())?;
        let value = JsonValue::parse(text.trim())?;
        RunManifest::from_json(&value).ok_or(ManifestError::BadShape)
    }
}

/// A manifest read failure.
#[derive(Debug)]
pub enum ManifestError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not valid JSON.
    Json(JsonError),
    /// Valid JSON, wrong shape.
    BadShape,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Io(e) => write!(f, "I/O error: {e}"),
            ManifestError::Json(e) => write!(f, "{e}"),
            ManifestError::BadShape => f.write_str("manifest JSON has an unexpected shape"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<std::io::Error> for ManifestError {
    fn from(e: std::io::Error) -> Self {
        ManifestError::Io(e)
    }
}

impl From<JsonError> for ManifestError {
    fn from(e: JsonError) -> Self {
        ManifestError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::OsStorage;

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(fingerprint(""), FNV_OFFSET);
        assert_eq!(fingerprint("pearl"), fingerprint("pearl"));
        assert_ne!(fingerprint("RW500"), fingerprint("RW2000"));
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = RunManifest::new("faultsweep", u64::MAX, 30_000)
            .with_config(&("reactive", 0.01f64))
            .with_trace_counts(1_234, 5)
            .with_extra("fault_rate", JsonValue::Num(0.01))
            .with_extra("policy", JsonValue::str("reactive RW500"));
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        // Full-range u64 survives (the f64 path would have lost this).
        assert_eq!(back.seed, u64::MAX);
    }

    #[test]
    fn manifest_without_extras_round_trips() {
        let m = RunManifest::new("loadcurve", 7, 60_000);
        let json = m.to_json();
        assert!(json.get("extra").is_none());
        assert_eq!(RunManifest::from_json(&json).unwrap(), m);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pearl-telemetry-test-manifest");
        let path = dir.join("run.manifest.json");
        let m = RunManifest::new("smoke", 3, 500).with_trace_counts(10, 0);
        m.write_file(&OsStorage, &path).unwrap();
        assert_eq!(RunManifest::read_file(&OsStorage, &path).unwrap(), m);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_wrong_shapes() {
        assert!(RunManifest::from_json(&JsonValue::Null).is_none());
        // Seed as a JSON number (lossy path) is rejected: must be a string.
        let v = JsonValue::parse(
            r#"{"name":"x","seed":5,"cycles":1,"config_fingerprint":"0","crate_version":"0","events":0,"dropped_events":0}"#,
        )
        .unwrap();
        assert!(RunManifest::from_json(&v).is_none());
    }
}
