//! Versioned, crash-safe simulation checkpoints.
//!
//! A checkpoint is a single JSON document wrapped in an envelope that
//! pins three things before any state is restored:
//!
//! 1. **Format version** ([`SNAPSHOT_VERSION`]) — the codec layout;
//! 2. **Kind** — which simulator produced it (`"pearl"` / `"cmesh"`);
//! 3. **Config fingerprint** — FNV-1a over the producing run's full
//!    static configuration. Restoring dynamic state onto a *different*
//!    configuration would diverge silently; the fingerprint turns that
//!    into a typed [`SnapshotError`] instead.
//!
//! The envelope also embeds an FNV-1a hash of the serialized state
//! (`state_hash`), recomputed on read, so a corrupted or hand-edited
//! checkpoint is rejected rather than restored.
//!
//! ## Bit-exactness
//!
//! The resume contract is *bit-identity*: run N cycles, checkpoint,
//! restore, run M more — every statistic, trace event and state hash
//! must equal an uninterrupted N+M run. JSON numbers are `f64` and lossy
//! above 2⁵³, so no [`Codec`] impl puts state through them: `u64`/`u128`
//! counters are decimal strings, and `f64` values are the hexadecimal
//! form of their IEEE-754 bit pattern (exact for every value, including
//! `-0.0`, subnormals and NaN payloads). Plain JSON numbers are reserved
//! for small structural indices (node ids, ports, enum discriminants).
//!
//! ## Crash safety
//!
//! [`Storage::write_atomic`] writes through a temporary file in the
//! target directory and renames it into place, so readers observe
//! either the old complete artifact or the new complete artifact —
//! never a truncated hybrid. Every artifact writer in the workspace
//! (manifests, traces, bench reports, checkpoints) routes through it.

use crate::json::{JsonError, JsonValue};
use crate::manifest::fingerprint;
use crate::storage::Storage;
use pearl_noc::{
    BufferState, CoreType, Cycle, Flit, FlitKind, NodeId, Packet, PacketKind, SimRng, StatsState,
    TrafficClass, VcState,
};
use pearl_photonics::fault::FaultEventKind;
use pearl_photonics::{FaultModelState, FaultStats, LaserState, WavelengthState};
use pearl_workloads::{InjectorState, RngState, TrafficState};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::path::Path;

/// Version of the checkpoint layout produced by this module. Bumped on
/// any incompatible codec change; restore rejects other versions.
pub const SNAPSHOT_VERSION: u64 = 1;

/// A checkpoint write/read/validation failure.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not valid JSON.
    Json(JsonError),
    /// Valid JSON, wrong shape; `context` names the offending field.
    BadShape {
        /// The field or structure that failed to decode.
        context: &'static str,
    },
    /// The checkpoint was written by an incompatible layout version.
    VersionMismatch {
        /// Version recorded in the checkpoint.
        found: u64,
        /// Version this build understands.
        expected: u64,
    },
    /// The checkpoint came from a different simulator kind.
    KindMismatch {
        /// Kind recorded in the checkpoint.
        found: String,
        /// Kind of the network being restored.
        expected: String,
    },
    /// The checkpoint came from a different static configuration.
    FingerprintMismatch {
        /// Fingerprint recorded in the checkpoint.
        found: u64,
        /// Fingerprint of the network being restored.
        expected: u64,
    },
    /// The serialized state does not match its embedded hash — the file
    /// was corrupted or edited after writing.
    HashMismatch {
        /// Hash recomputed from the state payload.
        found: u64,
        /// Hash recorded in the envelope.
        expected: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "I/O error: {e}"),
            SnapshotError::Json(e) => write!(f, "{e}"),
            SnapshotError::BadShape { context } => {
                write!(f, "checkpoint JSON has an unexpected shape at {context}")
            }
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "checkpoint version {found} is not the supported version {expected}")
            }
            SnapshotError::KindMismatch { found, expected } => {
                write!(f, "checkpoint is for a {found:?} network, not {expected:?}")
            }
            SnapshotError::FingerprintMismatch { found, expected } => write!(
                f,
                "checkpoint config fingerprint {found:#018x} does not match \
                 the target network's {expected:#018x}"
            ),
            SnapshotError::HashMismatch { found, expected } => write!(
                f,
                "checkpoint state hashes to {found:#018x} but records {expected:#018x} \
                 — the file is corrupt"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<JsonError> for SnapshotError {
    fn from(e: JsonError) -> Self {
        SnapshotError::Json(e)
    }
}

// ---------------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------------

/// A piece of simulation state with one checkpoint encoding.
///
/// Every impl follows one rule of DESIGN §4b: `u64`, `u128` and
/// [`Cycle`] are decimal strings; `f64` is the 16-hex-digit form of its
/// IEEE-754 bits; `usize`, `u32` and [`NodeId`] are JSON numbers; `bool`
/// is a JSON boolean; `Option` is `null` or the value; sequences, fixed
/// arrays and tuples are arrays; hash maps are `[[k, v], …]` sorted by
/// key; enums are their index in `ALL`
/// ([`codec_enum!`](crate::codec_enum)). Structs are positional arrays
/// ([`codec_array!`](crate::codec_array)) or keyed objects
/// ([`codec_object!`](crate::codec_object)). RNG states are the flat
/// `[w0, w1, w2, w3, draws]`.
pub trait Codec: Sized {
    /// The value's JSON form.
    fn encode(&self) -> JsonValue;

    /// Decodes a value written by [`Codec::encode`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadShape`] naming `context` when `v` does not
    /// have the shape `encode` writes or a value is out of range.
    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError>;
}

/// Fetches a required object field.
///
/// # Errors
///
/// [`SnapshotError::BadShape`] naming `key` when absent.
pub fn field<'a>(v: &'a JsonValue, key: &'static str) -> Result<&'a JsonValue, SnapshotError> {
    v.get(key).ok_or(SnapshotError::BadShape { context: key })
}

/// Decodes the required object field `key`, naming it on failure.
///
/// # Errors
///
/// [`SnapshotError::BadShape`] naming `key`.
pub fn get<T: Codec>(v: &JsonValue, key: &'static str) -> Result<T, SnapshotError> {
    T::decode(field(v, key)?, key)
}

/// Views `v` as an array of exactly `N` items.
///
/// # Errors
///
/// [`SnapshotError::BadShape`] naming `context` on another shape.
pub fn items<'a, const N: usize>(
    v: &'a JsonValue,
    context: &'static str,
) -> Result<[&'a JsonValue; N], SnapshotError> {
    match v.as_arr() {
        Some(list) if list.len() == N => Ok(std::array::from_fn(|i| &list[i])),
        _ => Err(SnapshotError::BadShape { context }),
    }
}

/// Encodes an enum value as its index in `all`. A value missing from
/// `all` is a broken enumeration: it panics rather than being written
/// as another variant's index.
pub fn encode_index<T: PartialEq>(all: &[T], v: &T) -> JsonValue {
    let index = all.iter().position(|x| x == v).expect("enum value missing from its ALL");
    index.encode()
}

/// Decodes an enum value written by [`encode_index`].
///
/// # Errors
///
/// [`SnapshotError::BadShape`] naming `context` on an index past `all`.
pub fn decode_index<T: Copy>(
    all: &[T],
    v: &JsonValue,
    context: &'static str,
) -> Result<T, SnapshotError> {
    all.get(usize::decode(v, context)?).copied().ok_or(SnapshotError::BadShape { context })
}

/// Implements [`Codec`] for enums by their index in their `ALL` array.
#[macro_export]
macro_rules! codec_enum {
    ($($ty:ty),+ $(,)?) => {$(
        impl $crate::snapshot::Codec for $ty {
            fn encode(&self) -> $crate::JsonValue {
                $crate::snapshot::encode_index(&<$ty>::ALL, self)
            }
            fn decode(
                v: &$crate::JsonValue,
                context: &'static str,
            ) -> Result<Self, $crate::SnapshotError> {
                $crate::snapshot::decode_index(&<$ty>::ALL, v, context)
            }
        }
    )+};
}

/// Implements [`Codec`] for structs as positional arrays of the listed
/// fields, e.g. `codec_array!(Transfer [packet_id, busy_until])`. Every
/// field decodes under the context its struct decodes under.
#[macro_export]
macro_rules! codec_array {
    ($($ty:ident [$($field:ident),+ $(,)?]);+ $(;)?) => {$(
        impl $crate::snapshot::Codec for $ty {
            fn encode(&self) -> $crate::JsonValue {
                $crate::JsonValue::Arr(vec![$($crate::snapshot::Codec::encode(&self.$field)),+])
            }
            fn decode(
                v: &$crate::JsonValue,
                context: &'static str,
            ) -> Result<Self, $crate::SnapshotError> {
                let [$($field),+] = $crate::snapshot::items(v, context)?;
                Ok($ty { $($field: $crate::snapshot::Codec::decode($field, context)?),+ })
            }
        }
    )+};
}

/// Implements [`Codec`] for structs as objects keyed by the listed
/// fields, in order; `field: "key"` writes a field under another key.
/// Each field decodes under its key as context.
#[macro_export]
macro_rules! codec_object {
    ($($ty:ident { $($field:ident $(: $key:literal)?),+ $(,)? });+ $(;)?) => {$(
        impl $crate::snapshot::Codec for $ty {
            fn encode(&self) -> $crate::JsonValue {
                $crate::JsonValue::obj(vec![$((
                    [$($key,)? stringify!($field)][0],
                    $crate::snapshot::Codec::encode(&self.$field),
                )),+])
            }
            fn decode(v: &$crate::JsonValue, _: &'static str) -> Result<Self, $crate::SnapshotError> {
                Ok($ty { $($field: $crate::snapshot::get(v, [$($key,)? stringify!($field)][0])?),+ })
            }
        }
    )+};
}

macro_rules! decimal {
    ($($ty:ty),+) => {$(
        impl Codec for $ty {
            fn encode(&self) -> JsonValue {
                JsonValue::str(self.to_string())
            }
            fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
                v.as_str().and_then(|s| s.parse().ok()).ok_or(SnapshotError::BadShape { context })
            }
        }
    )+};
}
decimal!(u64, u128);

impl Codec for Cycle {
    fn encode(&self) -> JsonValue {
        self.0.encode()
    }
    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        u64::decode(v, context).map(Cycle)
    }
}

impl Codec for f64 {
    fn encode(&self) -> JsonValue {
        JsonValue::str(format!("{:016x}", self.to_bits()))
    }
    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        let bits = v.as_str().and_then(|s| u64::from_str_radix(s, 16).ok());
        bits.map(f64::from_bits).ok_or(SnapshotError::BadShape { context })
    }
}

impl Codec for usize {
    fn encode(&self) -> JsonValue {
        JsonValue::u64(*self as u64)
    }
    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        v.as_u64().and_then(|n| usize::try_from(n).ok()).ok_or(SnapshotError::BadShape { context })
    }
}

impl Codec for u32 {
    fn encode(&self) -> JsonValue {
        JsonValue::u64(u64::from(*self))
    }
    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        v.as_u64().and_then(|n| u32::try_from(n).ok()).ok_or(SnapshotError::BadShape { context })
    }
}

impl Codec for NodeId {
    fn encode(&self) -> JsonValue {
        self.0.encode()
    }
    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        usize::decode(v, context).map(NodeId)
    }
}

impl Codec for bool {
    fn encode(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        match v {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(SnapshotError::BadShape { context }),
        }
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, T::encode)
    }
    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        match v {
            JsonValue::Null => Ok(None),
            other => T::decode(other, context).map(Some),
        }
    }
}

macro_rules! sequence {
    ($($seq:ident),+) => {$(
        impl<T: Codec> Codec for $seq<T> {
            fn encode(&self) -> JsonValue {
                JsonValue::Arr(self.iter().map(T::encode).collect())
            }
            fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
                let list = v.as_arr().ok_or(SnapshotError::BadShape { context })?;
                list.iter().map(|item| T::decode(item, context)).collect()
            }
        }
    )+};
}
sequence!(Vec, VecDeque);

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn encode(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(T::encode).collect())
    }
    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        Vec::decode(v, context)?.try_into().map_err(|_| SnapshotError::BadShape { context })
    }
}

macro_rules! tuple {
    ($(($($t:ident $v:ident $i:tt),+)),+) => {$(
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            fn encode(&self) -> JsonValue {
                JsonValue::Arr(vec![$(self.$i.encode()),+])
            }
            fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
                let [$($v),+] = items(v, context)?;
                Ok(($($t::decode($v, context)?,)+))
            }
        }
    )+};
}
tuple!((A a 0, B b 1), (A a 0, B b 1, C c 2));

impl<K: Codec + Ord + Hash, V: Codec> Codec for HashMap<K, V> {
    fn encode(&self) -> JsonValue {
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let pair = |(k, v): (&K, &V)| JsonValue::Arr(vec![k.encode(), v.encode()]);
        JsonValue::Arr(entries.into_iter().map(pair).collect())
    }
    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        Ok(Vec::<(K, V)>::decode(v, context)?.into_iter().collect())
    }
}

codec_enum!(CoreType, PacketKind, TrafficClass, FlitKind, WavelengthState, FaultEventKind);
codec_array! {
    Packet [id, src, dst, core, kind, class, injected_at];
    Flit [packet_id, kind, index, packet];
    InjectorState [bursting, remaining, rng];
    FaultStats [lambda_failures, lambda_repairs, laser_degradations, laser_recoveries, corrupted_packets];
}
codec_object! {
    BufferState {
        packets,
        accumulated_slot_cycles: "slot_cycles",
        accumulated_cycles: "cycles",
        rejections,
    };
    VcState { flits, inflow, route };
    StatsState {
        cycles,
        injected_packets: "injected",
        delivered_packets: "delivered",
        delivered_flits: "flits",
        delivered_bits: "bits",
        injection_stalls: "stalls",
        corrupted_packets: "corrupted",
        retransmitted_packets: "retransmitted",
        retransmit_backoff_cycles: "backoff_cycles",
        latency,
        hist_buckets,
        hist_count,
        laser_energy_j: "laser_j",
        heating_energy_j: "heating_j",
        modulation_energy_j: "modulation_j",
        electrical_energy_j: "electrical_j",
    };
    LaserState {
        powered,
        usable,
        stabilize_until,
        transitions,
        residency,
        stall_cycles,
        transition_log: "log",
    };
}

/// RNG states are flat: `[w0, w1, w2, w3, draws]`, not the tuple rule's
/// `[[w0, w1, w2, w3], draws]`.
impl Codec for RngState {
    fn encode(&self) -> JsonValue {
        let mut flat: Vec<_> = self.words.iter().map(u64::encode).collect();
        flat.push(self.draws.encode());
        JsonValue::Arr(flat)
    }
    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        let [w0, w1, w2, w3, draws] = <[u64; 5]>::decode(v, context)?;
        Ok(RngState { words: [w0, w1, w2, w3], draws })
    }
}

impl Codec for SimRng {
    fn encode(&self) -> JsonValue {
        RngState { words: self.state(), draws: self.draws() }.encode()
    }
    fn decode(v: &JsonValue, context: &'static str) -> Result<Self, SnapshotError> {
        let RngState { words, draws } = RngState::decode(v, context)?;
        Ok(SimRng::from_state(words, draws))
    }
}

/// Keyed like [`codec_object!`](crate::codec_object), except that both
/// fault RNGs are flat [`RngState`]s rather than `([u64; 4], u64)`
/// tuples, and that two keys of a retired event log stay: the golden
/// ladder and the benchmark's golden digests pin bare-run state hashes,
/// which cover these bytes. They are written as a bare run always wrote
/// them (`"log_events": false`, `"event_log": []`); decoding still
/// requires both with that shape, then discards them.
impl Codec for FaultModelState {
    fn encode(&self) -> JsonValue {
        let rng = |(words, draws): ([u64; 4], u64)| RngState { words, draws }.encode();
        JsonValue::obj(vec![
            ("routers", self.routers.encode()),
            ("structural_rng", rng(self.structural_rng)),
            ("corruption_rng", rng(self.corruption_rng)),
            ("stats", self.stats.encode()),
            ("log_events", false.encode()),
            ("event_log", JsonValue::Arr(Vec::new())),
        ])
    }
    fn decode(v: &JsonValue, _: &'static str) -> Result<Self, SnapshotError> {
        let rng = |key| get(v, key).map(|s: RngState| (s.words, s.draws));
        let _: bool = get(v, "log_events")?;
        let _: Vec<(usize, FaultEventKind)> = get(v, "event_log")?;
        Ok(FaultModelState {
            routers: get(v, "routers")?,
            structural_rng: rng("structural_rng")?,
            corruption_rng: rng("corruption_rng")?,
            stats: get(v, "stats")?,
        })
    }
}

impl Codec for TrafficState {
    fn encode(&self) -> JsonValue {
        match self {
            TrafficState::Model { cpu, gpu } => JsonValue::obj(vec![
                ("kind", JsonValue::str("model")),
                ("cpu", cpu.encode()),
                ("gpu", gpu.encode()),
            ]),
            TrafficState::Synthetic { rng } => {
                JsonValue::obj(vec![("kind", JsonValue::str("synthetic")), ("rng", rng.encode())])
            }
        }
    }
    fn decode(v: &JsonValue, _: &'static str) -> Result<Self, SnapshotError> {
        match field(v, "kind")?.as_str() {
            Some("model") => Ok(TrafficState::Model { cpu: get(v, "cpu")?, gpu: get(v, "gpu")? }),
            Some("synthetic") => Ok(TrafficState::Synthetic { rng: get(v, "rng")? }),
            _ => Err(SnapshotError::BadShape { context: "traffic.kind" }),
        }
    }
}

// ---------------------------------------------------------------------------
// The checkpoint envelope
// ---------------------------------------------------------------------------

/// A versioned, fingerprinted, hash-sealed simulation checkpoint.
///
/// The `state` payload is produced by the network's own snapshot codec
/// (`pearl-core` / `pearl-cmesh`); this envelope owns everything needed
/// to refuse a wrong or corrupt restore *before* any state is touched.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Simulator kind (`"pearl"` or `"cmesh"`).
    pub kind: String,
    /// FNV-1a fingerprint of the producing run's static configuration.
    pub config_fingerprint: u64,
    /// Simulated cycle at which the snapshot was taken.
    pub cycle: u64,
    /// The serialized dynamic state.
    pub state: JsonValue,
}

impl Checkpoint {
    /// Wraps a serialized state payload in an envelope.
    pub fn new(
        kind: impl Into<String>,
        config_fingerprint: u64,
        cycle: u64,
        state: JsonValue,
    ) -> Checkpoint {
        Checkpoint { kind: kind.into(), config_fingerprint, cycle, state }
    }

    /// FNV-1a hash of the whole serialized state payload — the seal
    /// [`Checkpoint::from_json`] checks. A network's own `state_hash()`
    /// leaves its observer sections out; this one covers everything.
    pub fn state_hash(&self) -> u64 {
        fingerprint(&self.state.to_string())
    }

    /// Renders the envelope (version + seal) and payload as JSON.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("version", JsonValue::u64(SNAPSHOT_VERSION)),
            ("kind", JsonValue::str(self.kind.clone())),
            ("config_fingerprint", self.config_fingerprint.encode()),
            ("cycle", self.cycle.encode()),
            ("state_hash", self.state_hash().encode()),
            ("state", self.state.clone()),
        ])
    }

    /// Parses and verifies an envelope: the version must match
    /// [`SNAPSHOT_VERSION`] and the recomputed state hash must match the
    /// recorded seal.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::VersionMismatch`], [`SnapshotError::HashMismatch`]
    /// or [`SnapshotError::BadShape`].
    pub fn from_json(v: &JsonValue) -> Result<Checkpoint, SnapshotError> {
        let version =
            field(v, "version")?.as_u64().ok_or(SnapshotError::BadShape { context: "version" })?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let checkpoint = Checkpoint {
            kind: field(v, "kind")?
                .as_str()
                .ok_or(SnapshotError::BadShape { context: "kind" })?
                .to_string(),
            config_fingerprint: get(v, "config_fingerprint")?,
            cycle: get(v, "cycle")?,
            state: field(v, "state")?.clone(),
        };
        let sealed: u64 = get(v, "state_hash")?;
        let actual = checkpoint.state_hash();
        if sealed != actual {
            return Err(SnapshotError::HashMismatch { found: actual, expected: sealed });
        }
        Ok(checkpoint)
    }

    /// Verifies the envelope against the restoring network's identity.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::KindMismatch`] or
    /// [`SnapshotError::FingerprintMismatch`].
    pub fn validate(&self, kind: &str, config_fingerprint: u64) -> Result<(), SnapshotError> {
        if self.kind != kind {
            return Err(SnapshotError::KindMismatch {
                found: self.kind.clone(),
                expected: kind.to_string(),
            });
        }
        if self.config_fingerprint != config_fingerprint {
            return Err(SnapshotError::FingerprintMismatch {
                found: self.config_fingerprint,
                expected: config_fingerprint,
            });
        }
        Ok(())
    }

    /// Writes the checkpoint atomically (tmp-then-rename).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn write_file(&self, storage: &dyn Storage, path: impl AsRef<Path>) -> std::io::Result<()> {
        storage.write_atomic(path.as_ref(), &format!("{}\n", self.to_json()))
    }

    /// Reads and verifies a checkpoint written by [`Self::write_file`].
    ///
    /// # Errors
    ///
    /// Storage, JSON, version, hash or shape failures as
    /// [`SnapshotError`].
    pub fn read_file(
        storage: &dyn Storage,
        path: impl AsRef<Path>,
    ) -> Result<Checkpoint, SnapshotError> {
        let text = storage.read(path.as_ref())?;
        Checkpoint::from_json(&JsonValue::parse(text.trim())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::OsStorage;

    fn sample_packet() -> Packet {
        Packet::response(
            u64::MAX - 1,
            NodeId(3),
            NodeId(16),
            CoreType::Gpu,
            TrafficClass::GpuL2Down,
            Cycle(987_654_321),
        )
    }

    #[test]
    fn scalar_codecs_are_bit_exact_at_extremes() {
        for v in [0u64, 1, 2u64.pow(53) + 1, u64::MAX] {
            assert_eq!(u64::decode(&v.encode(), "t").unwrap(), v);
        }
        for v in [0u128, u128::from(u64::MAX) * 3, u128::MAX] {
            assert_eq!(u128::decode(&v.encode(), "t").unwrap(), v);
        }
        for v in [0.0f64, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE / 2.0, f64::INFINITY, -1e308] {
            let back = f64::decode(&v.encode(), "t").unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        // NaN payload survives (plain equality would fail here).
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        assert_eq!(f64::decode(&nan.encode(), "t").unwrap().to_bits(), nan.to_bits());
    }

    #[test]
    fn packet_and_flit_round_trip() {
        let p = sample_packet();
        assert_eq!(Packet::decode(&p.encode(), "packet").unwrap(), p);
        for f in Flit::decompose(&p) {
            assert_eq!(Flit::decode(&f.encode(), "flit").unwrap(), f);
        }
    }

    #[test]
    fn envelope_round_trips_and_reseals() {
        let cp = Checkpoint::new("pearl", 0xDEAD_BEEF_1234_5678, 42_000, sample_packet().encode());
        let back = Checkpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.state_hash(), cp.state_hash());
        cp.validate("pearl", 0xDEAD_BEEF_1234_5678).unwrap();
    }

    #[test]
    fn envelope_rejects_wrong_version() {
        let mut json = Checkpoint::new("pearl", 1, 0, JsonValue::Null).to_json();
        if let JsonValue::Obj(pairs) = &mut json {
            for (k, v) in pairs.iter_mut() {
                if k == "version" {
                    *v = JsonValue::u64(SNAPSHOT_VERSION + 1);
                }
            }
        }
        assert!(matches!(Checkpoint::from_json(&json), Err(SnapshotError::VersionMismatch { .. })));
    }

    #[test]
    fn envelope_rejects_tampered_state() {
        let mut json =
            Checkpoint::new("pearl", 1, 0, JsonValue::obj(vec![("x", JsonValue::u64(1))]))
                .to_json();
        if let JsonValue::Obj(pairs) = &mut json {
            for (k, v) in pairs.iter_mut() {
                if k == "state" {
                    *v = JsonValue::obj(vec![("x", JsonValue::u64(2))]);
                }
            }
        }
        assert!(matches!(Checkpoint::from_json(&json), Err(SnapshotError::HashMismatch { .. })));
    }

    #[test]
    fn validate_rejects_kind_and_fingerprint_mismatch() {
        let cp = Checkpoint::new("pearl", 7, 0, JsonValue::Null);
        assert!(matches!(cp.validate("cmesh", 7), Err(SnapshotError::KindMismatch { .. })));
        assert!(matches!(cp.validate("pearl", 8), Err(SnapshotError::FingerprintMismatch { .. })));
    }

    #[test]
    fn checkpoint_file_round_trip_is_atomic_and_verified() {
        let dir = std::env::temp_dir().join("pearl-telemetry-test-snapshot");
        let path = dir.join("run.checkpoint.json");
        let cp = Checkpoint::new("cmesh", u64::MAX, 12_345, sample_packet().encode());
        cp.write_file(&OsStorage, &path).unwrap();
        assert_eq!(Checkpoint::read_file(&OsStorage, &path).unwrap(), cp);
        // No temporary residue left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        // Corrupt the file on disk: the hash seal catches it.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text = text.replace("987654321", "987654322");
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            Checkpoint::read_file(&OsStorage, &path),
            Err(SnapshotError::HashMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_replaces_existing_content() {
        let dir = std::env::temp_dir().join("pearl-telemetry-test-atomic");
        let path = dir.join("artifact.json");
        OsStorage.write_atomic(&path, "first").unwrap();
        OsStorage.write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_state_round_trips_with_u128_sum() {
        let mut stats = pearl_noc::NetworkStats::new();
        stats.tick();
        stats.record_injection(&sample_packet());
        stats.record_delivery(&sample_packet(), Cycle(987_654_400));
        stats.laser_energy_j = 1.0 / 3.0;
        let mut exported = stats.export_state();
        exported.latency[1].1 = u128::from(u64::MAX) + 17; // force past u64
        let back = StatsState::decode(&exported.encode(), "stats").unwrap();
        assert_eq!(back, exported);
    }

    #[test]
    fn traffic_state_round_trips_both_kinds() {
        let model = TrafficState::Model {
            cpu: vec![InjectorState {
                bursting: true,
                remaining: u64::MAX,
                rng: RngState { words: [1, 2, 3, u64::MAX], draws: 99 },
            }],
            gpu: vec![InjectorState {
                bursting: false,
                remaining: 0,
                rng: RngState { words: [0; 4], draws: 0 },
            }],
        };
        assert_eq!(TrafficState::decode(&model.encode(), "traffic").unwrap(), model);
        let synth = TrafficState::Synthetic { rng: RngState { words: [9; 4], draws: 3 } };
        assert_eq!(TrafficState::decode(&synth.encode(), "traffic").unwrap(), synth);
    }

    #[test]
    fn fault_state_round_trips() {
        let state = FaultModelState {
            routers: vec![(0, WavelengthState::W64), (56, WavelengthState::W8)],
            structural_rng: ([u64::MAX, 1, 2, 3], 1_000_000),
            corruption_rng: ([4, 5, 6, 7], 42),
            stats: FaultStats {
                lambda_failures: 10,
                lambda_repairs: 4,
                laser_degradations: 2,
                laser_recoveries: 1,
                corrupted_packets: 7,
            },
        };
        assert_eq!(FaultModelState::decode(&state.encode(), "fault").unwrap(), state);
        // The retired log keys are written as a bare run wrote them, and
        // a logged checkpoint still decodes, its log discarded.
        let text = state.encode().to_string();
        assert!(text.ends_with(r#""log_events":false,"event_log":[]}"#), "{text}");
        let logged = text.replace(
            r#""log_events":false,"event_log":[]"#,
            r#""log_events":true,"event_log":[[0,0],[1,3]]"#,
        );
        let parsed = JsonValue::parse(&logged).unwrap();
        assert_eq!(FaultModelState::decode(&parsed, "fault").unwrap(), state);
        // Both keys stay required, with their old shape.
        for broken in [
            text.replace(r#","log_events":false"#, ""),
            text.replace(r#""event_log":[]"#, r#""event_log":[7]"#),
        ] {
            let parsed = JsonValue::parse(&broken).unwrap();
            assert!(FaultModelState::decode(&parsed, "fault").is_err(), "{broken}");
        }
    }

    #[test]
    fn laser_state_round_trips() {
        let state = LaserState {
            powered: WavelengthState::W64,
            usable: WavelengthState::W16,
            stabilize_until: Some(u64::MAX - 3),
            transitions: 77,
            residency: [1, 2, 3, 4, u64::MAX],
            stall_cycles: 12,
            transition_log: vec![(5, WavelengthState::W32), (9, WavelengthState::W64)],
        };
        assert_eq!(LaserState::decode(&state.encode(), "laser").unwrap(), state);
    }

    #[test]
    fn buffer_and_vc_states_round_trip() {
        let buffer = BufferState {
            packets: vec![sample_packet()],
            accumulated_slot_cycles: u64::MAX,
            accumulated_cycles: 4,
            rejections: 2,
        };
        assert_eq!(BufferState::decode(&buffer.encode(), "buffer").unwrap(), buffer);
        let vc = VcState {
            flits: Flit::decompose(&sample_packet()),
            inflow: Some(u64::MAX - 1),
            route: Some(3),
        };
        assert_eq!(VcState::decode(&vc.encode(), "vc").unwrap(), vc);
        let empty = VcState { flits: vec![], inflow: None, route: None };
        assert_eq!(VcState::decode(&empty.encode(), "vc").unwrap(), empty);
    }

    /// `u32` fields are JSON numbers, which parse up to 2⁵³: a value past
    /// `u32::MAX` is refused instead of wrapping (2³² + 1 used to decode
    /// as 1).
    #[test]
    fn u32_fields_past_their_range_are_rejected_not_truncated() {
        let flit = Flit::decompose(&sample_packet()).remove(0);
        let JsonValue::Arr(mut parts) = flit.encode() else { panic!("a flit is an array") };
        parts[2] = JsonValue::u64((1 << 32) + 1);
        assert!(matches!(
            Flit::decode(&JsonValue::Arr(parts), "flit"),
            Err(SnapshotError::BadShape { context: "flit" })
        ));
        let state = FaultModelState {
            routers: vec![(0, WavelengthState::W64)],
            structural_rng: ([1, 2, 3, 4], 5),
            corruption_rng: ([6, 7, 8, 9], 10),
            stats: FaultStats::default(),
        };
        let text = state.encode().to_string().replace("[[0,4]]", "[[4294967296,4]]");
        assert_ne!(text, state.encode().to_string(), "the failed count is written as [[0,4]]");
        assert!(matches!(
            FaultModelState::decode(&JsonValue::parse(&text).unwrap(), "fault"),
            Err(SnapshotError::BadShape { context: "routers" })
        ));
        assert_eq!(u32::decode(&JsonValue::u64(u64::from(u32::MAX)), "t").unwrap(), u32::MAX);
    }

    #[test]
    fn hash_maps_are_sorted_pairs_and_options_are_null_or_the_value() {
        let map: HashMap<u64, u64> = [(9, 1), (2, 3), (u64::MAX, 0)].into_iter().collect();
        assert_eq!(
            map.encode().to_string(),
            r#"[["2","3"],["9","1"],["18446744073709551615","0"]]"#
        );
        assert_eq!(HashMap::<u64, u64>::decode(&map.encode(), "map").unwrap(), map);
        assert_eq!(None::<u64>.encode(), JsonValue::Null);
        assert_eq!(Some(7usize).encode().to_string(), "7");
        let rng = RngState { words: [1, 2, 3, 4], draws: 5 };
        assert_eq!(rng.encode().to_string(), r#"["1","2","3","4","5"]"#);
        assert!(matches!(
            <[u64; 2]>::decode(&[1u64, 2, 3].encode(), "pair"),
            Err(SnapshotError::BadShape { context: "pair" })
        ));
    }
}
