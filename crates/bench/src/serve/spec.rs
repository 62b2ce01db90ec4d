//! Typed experiment specs: the JSON contract clients drop into
//! `spool/incoming/`.
//!
//! Parsing is **strict**: unknown fields, missing required fields and
//! out-of-range values are typed [`SpecError`]s, and a spec that parses
//! is still test-built through [`ExperimentSpec::build`], the one
//! mapping from a spec to its network, which the runner calls for every
//! attempt — a spec that cannot build is rejected at the spool boundary
//! with a post-mortem, never discovered mid-queue.

use pearl_cmesh::{CmeshBuilder, CmeshConfig};
use pearl_core::{ConfigError, FaultConfig, NetworkBuilder, PearlPolicy};
use pearl_telemetry::{JsonError, JsonValue, Simulator};
use pearl_workloads::BenchmarkPair;

use crate::watchdog::DEFAULT_STALL_WINDOW;

/// Hard ceiling on one spec's simulated cycles — a typo like
/// `"cycles": 6e12` should be a validation error, not a year-long job.
pub const MAX_SPEC_CYCLES: u64 = 10_000_000;

/// Default per-spec retry budget (retries after the first failure).
pub const DEFAULT_RETRY_BUDGET: u32 = 2;

/// A rejected experiment spec.
#[derive(Debug)]
pub enum SpecError {
    /// The file is not valid JSON.
    Json(JsonError),
    /// The top-level value is not an object.
    NotAnObject,
    /// A field the schema does not declare (typo guard).
    UnknownField(String),
    /// A required field is absent.
    Missing(&'static str),
    /// A present field failed validation.
    Invalid {
        /// The offending field.
        field: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// The spec parsed but the typed config layer refused to build it.
    Config(ConfigError),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "spec is not valid JSON: {e}"),
            SpecError::NotAnObject => write!(f, "spec must be a JSON object"),
            SpecError::UnknownField(name) => write!(f, "unknown spec field {name:?}"),
            SpecError::Missing(name) => write!(f, "spec is missing required field {name:?}"),
            SpecError::Invalid { field, reason } => {
                write!(f, "spec field {field:?} is invalid: {reason}")
            }
            SpecError::Config(e) => write!(f, "spec fails config validation: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

impl From<ConfigError> for SpecError {
    fn from(e: ConfigError) -> Self {
        SpecError::Config(e)
    }
}

/// The PEARL power-scaling policy a spec requests. ML policies need an
/// offline-trained model, so the served vocabulary covers the
/// training-free policies; an ML serving path would ship model weights
/// in the spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicySpec {
    /// Static 64-wavelength baseline with dynamic bandwidth allocation.
    Dyn64,
    /// Static 64-wavelength baseline with FCFS allocation.
    Fcfs64,
    /// Reactive power scaling at a reservation window.
    Reactive {
        /// Reservation window in cycles.
        window: u64,
    },
    /// Random-walk power scaling at a reservation window.
    RandomWalk {
        /// Reservation window in cycles.
        window: u64,
    },
}

impl PolicySpec {
    /// Builds the concrete [`PearlPolicy`].
    pub fn build(&self) -> PearlPolicy {
        match self {
            PolicySpec::Dyn64 => PearlPolicy::dyn_64wl(),
            PolicySpec::Fcfs64 => PearlPolicy::fcfs_64wl(),
            PolicySpec::Reactive { window } => PearlPolicy::reactive(*window),
            PolicySpec::RandomWalk { window } => PearlPolicy::random_walk(*window),
        }
    }

    /// Stable label used in result artifacts.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Dyn64 => "dyn64".to_string(),
            PolicySpec::Fcfs64 => "fcfs64".to_string(),
            PolicySpec::Reactive { window } => format!("reactive RW{window}"),
            PolicySpec::RandomWalk { window } => format!("random_walk RW{window}"),
        }
    }
}

/// Which simulator a spec targets, with its per-kind knobs.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecKind {
    /// The PEARL photonic network.
    Pearl {
        /// Power-scaling policy.
        policy: PolicySpec,
        /// Uniform fault rate (0 disables fault injection).
        fault_rate: f64,
        /// Fault RNG seed.
        fault_seed: u64,
    },
    /// The electrical CMESH baseline.
    Cmesh {
        /// Link bandwidth reduction factor (cycles per flit).
        bandwidth_factor: u64,
    },
}

impl SpecKind {
    /// `"pearl"` / `"cmesh"`.
    pub fn name(&self) -> &'static str {
        match self {
            SpecKind::Pearl { .. } => "pearl",
            SpecKind::Cmesh { .. } => "cmesh",
        }
    }
}

/// One validated experiment spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Job id — the spec file stem, validated by
    /// [`crate::serve::valid_job_id`].
    pub id: String,
    /// Simulator + per-kind knobs.
    pub kind: SpecKind,
    /// Index into [`BenchmarkPair::test_pairs`].
    pub pair_index: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Simulated cycles to run.
    pub cycles: u64,
    /// Scheduling priority 0–9 (higher runs first; FIFO within a
    /// priority).
    pub priority: u8,
    /// Retries allowed after the first failed attempt.
    pub retry_budget: u32,
    /// Per-attempt wall-clock budget in milliseconds (None = no
    /// deadline).
    pub deadline_ms: Option<u64>,
    /// Forward-progress stall window in cycles (also the supervision
    /// chunk size).
    pub stall_window: u64,
    /// Periodic-checkpoint interval in cycles (0 = checkpoint only on
    /// graceful shutdown).
    pub checkpoint_every: u64,
    /// Record and publish the trace JSONL artifact.
    pub trace: bool,
    /// Chaos directive: panic the worker at the first chunk boundary at
    /// or past this cycle. Exists so the supervision/quarantine path is
    /// testable end to end; documented, deterministic, and off unless
    /// set.
    pub panic_at_cycle: Option<u64>,
}

impl ExperimentSpec {
    /// The benchmark pair the spec runs.
    pub fn pair(&self) -> BenchmarkPair {
        BenchmarkPair::test_pairs()[self.pair_index]
    }

    /// Parses and validates a spec document. `id` is the spec file
    /// stem. Beyond shape checks, the spec is test-built through
    /// [`Self::build`] so the typed config layer vets it.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the first offending field.
    pub fn parse(id: &str, text: &str) -> Result<ExperimentSpec, SpecError> {
        let doc = JsonValue::parse(text.trim())?;
        let JsonValue::Obj(fields) = &doc else {
            return Err(SpecError::NotAnObject);
        };
        const KNOWN: &[&str] = &[
            "kind",
            "policy",
            "window",
            "bandwidth_factor",
            "pair",
            "seed",
            "cycles",
            "priority",
            "retry_budget",
            "deadline_ms",
            "stall_window",
            "checkpoint_every",
            "trace",
            "fault_rate",
            "fault_seed",
            "panic_at_cycle",
        ];
        for (key, _) in fields {
            if !KNOWN.contains(&key.as_str()) {
                return Err(SpecError::UnknownField(key.clone()));
            }
        }

        let kind_name = doc
            .get("kind")
            .ok_or(SpecError::Missing("kind"))?
            .as_str()
            .ok_or_else(|| invalid("kind", "expected \"pearl\" or \"cmesh\""))?;
        let cycles = required_u64(&doc, "cycles")?;
        if cycles == 0 || cycles > MAX_SPEC_CYCLES {
            return Err(invalid("cycles", format!("must be in 1..={MAX_SPEC_CYCLES}")));
        }
        let seed = optional_u64(&doc, "seed")?.unwrap_or(crate::harness::SEED_BASE);
        let priority = match optional_u64(&doc, "priority")?.unwrap_or(4) {
            p @ 0..=9 => p as u8,
            p => return Err(invalid("priority", format!("{p} is outside 0..=9"))),
        };
        let retry_budget = optional_u64(&doc, "retry_budget")?
            .map_or(DEFAULT_RETRY_BUDGET, |b| b.min(u64::from(u32::MAX)) as u32);
        let deadline_ms = optional_u64(&doc, "deadline_ms")?;
        if deadline_ms == Some(0) {
            return Err(invalid("deadline_ms", "a zero deadline can never be met".to_string()));
        }
        let stall_window = optional_u64(&doc, "stall_window")?.unwrap_or(DEFAULT_STALL_WINDOW);
        if stall_window == 0 {
            return Err(invalid("stall_window", "must be non-zero".to_string()));
        }
        let checkpoint_every = optional_u64(&doc, "checkpoint_every")?.unwrap_or(0);
        let trace = match doc.get("trace") {
            None => false,
            Some(JsonValue::Bool(b)) => *b,
            Some(_) => return Err(invalid("trace", "expected a boolean".to_string())),
        };
        let panic_at_cycle = optional_u64(&doc, "panic_at_cycle")?;

        let pair_index = parse_pair(&doc)?;
        let kind = match kind_name {
            "pearl" => {
                let policy = parse_policy(&doc)?;
                let fault_rate = match doc.get("fault_rate") {
                    None => 0.0,
                    Some(v) => {
                        let rate =
                            v.as_f64().ok_or_else(|| invalid("fault_rate", "expected a number"))?;
                        if !(0.0..1.0).contains(&rate) {
                            return Err(invalid("fault_rate", format!("{rate} outside [0, 1)")));
                        }
                        rate
                    }
                };
                let fault_seed = optional_u64(&doc, "fault_seed")?.unwrap_or(seed ^ 0xFA17);
                SpecKind::Pearl { policy, fault_rate, fault_seed }
            }
            "cmesh" => {
                if doc.get("policy").is_some() || doc.get("fault_rate").is_some() {
                    return Err(invalid("kind", "policy/fault_rate only apply to \"pearl\""));
                }
                let bandwidth_factor = optional_u64(&doc, "bandwidth_factor")?.unwrap_or(1);
                if !(1..=8).contains(&bandwidth_factor) {
                    return Err(invalid(
                        "bandwidth_factor",
                        format!("{bandwidth_factor} outside 1..=8"),
                    ));
                }
                SpecKind::Cmesh { bandwidth_factor }
            }
            other => return Err(invalid("kind", format!("{other:?} is not \"pearl\"/\"cmesh\""))),
        };

        let spec = ExperimentSpec {
            id: id.to_string(),
            kind,
            pair_index,
            seed,
            cycles,
            priority,
            retry_budget,
            deadline_ms,
            stall_window,
            checkpoint_every,
            trace,
            panic_at_cycle,
        };
        spec.build()?;
        Ok(spec)
    }

    /// Builds the network the spec describes through the typed config
    /// layer. Acceptance calls it to vet the spec; the runner calls it
    /// for every attempt.
    ///
    /// # Errors
    ///
    /// The [`ConfigError`] of a PEARL configuration that cannot build.
    pub fn build(&self) -> Result<Box<dyn Simulator>, ConfigError> {
        Ok(match &self.kind {
            SpecKind::Pearl { policy, fault_rate, fault_seed } => {
                let fault = if *fault_rate > 0.0 {
                    FaultConfig::uniform(*fault_rate, *fault_seed)
                } else {
                    FaultConfig::off()
                };
                Box::new(
                    NetworkBuilder::new()
                        .policy(policy.build())
                        .fault_config(fault)
                        .seed(self.seed)
                        .try_build(self.pair())?,
                )
            }
            SpecKind::Cmesh { bandwidth_factor } => Box::new(
                CmeshBuilder::new()
                    .config(CmeshConfig::bandwidth_reduced(*bandwidth_factor))
                    .seed(self.seed)
                    .build(self.pair()),
            ),
        })
    }
}

fn invalid(field: &'static str, reason: impl Into<String>) -> SpecError {
    SpecError::Invalid { field, reason: reason.into() }
}

/// Reads a `u64` field that may be a JSON number (exact below 2⁵³) or a
/// decimal string (full range — seeds routinely use all 64 bits).
fn optional_u64(doc: &JsonValue, field: &'static str) -> Result<Option<u64>, SpecError> {
    match doc.get(field) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .or_else(|| v.as_str().and_then(|s| s.parse().ok()))
            .map(Some)
            .ok_or_else(|| invalid(field, "expected a non-negative integer (number or string)")),
    }
}

fn required_u64(doc: &JsonValue, field: &'static str) -> Result<u64, SpecError> {
    optional_u64(doc, field)?.ok_or(SpecError::Missing(field))
}

/// `"pair"` accepts an index into the canonical test-pair list or a
/// label like `"FA+DCT"`.
fn parse_pair(doc: &JsonValue) -> Result<usize, SpecError> {
    let pairs = BenchmarkPair::test_pairs();
    match doc.get("pair") {
        None => Ok(0),
        Some(v) => {
            if let Some(i) = v.as_u64() {
                let i = i as usize;
                if i < pairs.len() {
                    return Ok(i);
                }
                return Err(invalid("pair", format!("index {i} outside 0..{}", pairs.len())));
            }
            if let Some(label) = v.as_str() {
                if let Some(i) = pairs.iter().position(|p| p.label() == label) {
                    return Ok(i);
                }
                return Err(invalid("pair", format!("{label:?} names no test pair")));
            }
            Err(invalid("pair", "expected an index or a label string"))
        }
    }
}

fn parse_policy(doc: &JsonValue) -> Result<PolicySpec, SpecError> {
    let name = match doc.get("policy") {
        None => return Ok(PolicySpec::Dyn64),
        Some(v) => v.as_str().ok_or_else(|| invalid("policy", "expected a policy name"))?,
    };
    let window = optional_u64(doc, "window")?;
    let windowed = |w: Option<u64>| -> Result<u64, SpecError> {
        let w = w.unwrap_or(500);
        if w == 0 {
            return Err(invalid("window", "must be non-zero".to_string()));
        }
        Ok(w)
    };
    match name {
        "dyn64" => Ok(PolicySpec::Dyn64),
        "fcfs64" => Ok(PolicySpec::Fcfs64),
        "reactive" => Ok(PolicySpec::Reactive { window: windowed(window)? }),
        "random_walk" => Ok(PolicySpec::RandomWalk { window: windowed(window)? }),
        other => Err(invalid(
            "policy",
            format!("{other:?} is not one of dyn64/fcfs64/reactive/random_walk"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_specs_parse_with_defaults() {
        let spec = ExperimentSpec::parse("j1", r#"{"kind": "pearl", "cycles": 5000}"#).unwrap();
        assert_eq!(spec.id, "j1");
        assert_eq!(spec.cycles, 5_000);
        assert_eq!(spec.seed, crate::harness::SEED_BASE);
        assert_eq!(spec.priority, 4);
        assert_eq!(spec.retry_budget, DEFAULT_RETRY_BUDGET);
        assert_eq!(spec.stall_window, DEFAULT_STALL_WINDOW);
        assert!(!spec.trace);
        assert!(matches!(
            spec.kind,
            SpecKind::Pearl { policy: PolicySpec::Dyn64, fault_rate, .. } if fault_rate == 0.0
        ));

        let spec = ExperimentSpec::parse(
            "j2",
            r#"{"kind": "cmesh", "cycles": 1000, "bandwidth_factor": 2, "pair": "FA+DCT"}"#,
        )
        .unwrap();
        assert!(matches!(spec.kind, SpecKind::Cmesh { bandwidth_factor: 2 }));
        assert_eq!(spec.pair().label(), "FA+DCT");
    }

    #[test]
    fn full_pearl_spec_parses() {
        let spec = ExperimentSpec::parse(
            "full",
            r#"{
                "kind": "pearl", "policy": "reactive", "window": 2000,
                "pair": 3, "seed": "18446744073709551615", "cycles": 30000,
                "priority": 9, "retry_budget": 1, "deadline_ms": 60000,
                "stall_window": 4000, "checkpoint_every": 5000,
                "trace": true, "fault_rate": 0.01, "fault_seed": 7
            }"#,
        )
        .unwrap();
        assert_eq!(spec.seed, u64::MAX);
        assert_eq!(spec.priority, 9);
        assert_eq!(spec.deadline_ms, Some(60_000));
        assert_eq!(spec.checkpoint_every, 5_000);
        assert!(spec.trace);
        match spec.kind {
            SpecKind::Pearl { policy: PolicySpec::Reactive { window }, fault_rate, fault_seed } => {
                assert_eq!(window, 2_000);
                assert_eq!(fault_rate, 0.01);
                assert_eq!(fault_seed, 7);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    /// One rejection case: spec text + a predicate on the typed error.
    type RejectionCase = (&'static str, fn(&SpecError) -> bool);

    #[test]
    fn malformed_specs_are_typed_rejections() {
        let cases: &[RejectionCase] = &[
            ("{not json", |e| matches!(e, SpecError::Json(_))),
            ("[1, 2]", |e| matches!(e, SpecError::NotAnObject)),
            (r#"{"kind": "pearl"}"#, |e| matches!(e, SpecError::Missing("cycles"))),
            (r#"{"cycles": 100}"#, |e| matches!(e, SpecError::Missing("kind"))),
            (
                r#"{"kind": "pearl", "cycles": 100, "cyles": 1}"#,
                |e| matches!(e, SpecError::UnknownField(f) if f == "cyles"),
            ),
            (r#"{"kind": "quantum", "cycles": 100}"#, |e| {
                matches!(e, SpecError::Invalid { field: "kind", .. })
            }),
            (r#"{"kind": "pearl", "cycles": 0}"#, |e| {
                matches!(e, SpecError::Invalid { field: "cycles", .. })
            }),
            (r#"{"kind": "pearl", "cycles": 100, "priority": 12}"#, |e| {
                matches!(e, SpecError::Invalid { field: "priority", .. })
            }),
            (r#"{"kind": "pearl", "cycles": 100, "pair": 99}"#, |e| {
                matches!(e, SpecError::Invalid { field: "pair", .. })
            }),
            (r#"{"kind": "pearl", "cycles": 100, "pair": "NOPE+X"}"#, |e| {
                matches!(e, SpecError::Invalid { field: "pair", .. })
            }),
            (r#"{"kind": "pearl", "cycles": 100, "policy": "ml"}"#, |e| {
                matches!(e, SpecError::Invalid { field: "policy", .. })
            }),
            (r#"{"kind": "pearl", "cycles": 100, "fault_rate": 1.5}"#, |e| {
                matches!(e, SpecError::Invalid { field: "fault_rate", .. })
            }),
            (r#"{"kind": "cmesh", "cycles": 100, "policy": "dyn64"}"#, |e| {
                matches!(e, SpecError::Invalid { field: "kind", .. })
            }),
            (r#"{"kind": "cmesh", "cycles": 100, "bandwidth_factor": 0}"#, |e| {
                matches!(e, SpecError::Invalid { field: "bandwidth_factor", .. })
            }),
            (r#"{"kind": "pearl", "cycles": 100, "deadline_ms": 0}"#, |e| {
                matches!(e, SpecError::Invalid { field: "deadline_ms", .. })
            }),
        ];
        for (text, check) in cases {
            let err = ExperimentSpec::parse("t", text).unwrap_err();
            assert!(check(&err), "spec {text:?} produced unexpected error {err}");
            // Every rejection renders a human-readable reason.
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn seeds_survive_the_full_u64_range() {
        let spec = ExperimentSpec::parse(
            "s",
            r#"{"kind": "cmesh", "cycles": 10, "seed": "18446744073709551615"}"#,
        )
        .unwrap();
        assert_eq!(spec.seed, u64::MAX);
    }
}
