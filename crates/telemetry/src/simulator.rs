//! The one interface every harness drives a network through.
//!
//! PEARL and the CMESH baseline run the same closed-loop endpoint
//! model, and every harness drives them the same way: build, attach a
//! probe, advance under the forward-progress watchdog, checkpoint,
//! hash. [`Simulator`] is that surface, so a harness holds a
//! `Box<dyn Simulator>` instead of an enum over the two networks.
//! [`Watchable`] is the part the watchdog needs, which test fakes
//! implement on their own.

use crate::event::Probe;
use crate::json::JsonValue;
use crate::snapshot::{Checkpoint, SnapshotError};

/// A network the watchdog can drive: advance time, report deliveries.
pub trait Watchable {
    /// Advances the simulation by `cycles` cycles.
    fn advance(&mut self, cycles: u64);
    /// Total packets delivered since construction (monotone).
    fn delivered_packets(&self) -> u64;
    /// Current simulation cycle.
    fn cycle(&self) -> u64;
}

/// A whole simulated network: observers, checkpoints and the summary a
/// served result reports. Each network implements it by forwarding to
/// its inherent methods of the same names.
pub trait Simulator: Watchable {
    /// Attaches the observer (see [`Probe`]); observing never changes
    /// the simulated state.
    fn attach_probe(&mut self, probe: Box<dyn Probe>);
    /// Turns on the wall-clock self-profiler and its work counters.
    fn enable_profiling(&mut self);
    /// Serializes the complete dynamic state.
    fn snapshot(&self) -> Checkpoint;
    /// Restores a checkpoint taken from an identically built network;
    /// a failed restore leaves the network untouched.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the checkpoint does not fit this network.
    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), SnapshotError>;
    /// FNV-1a hash of the simulated state, observers left out.
    fn state_hash(&self) -> u64;
    /// FNV-1a fingerprint of the network's static identity.
    fn config_fingerprint(&self) -> u64;
    /// The run summary as deterministic JSON: exact counters, and floats
    /// through the shared JSON writer, so identical runs render
    /// identical bytes.
    fn summary_json(&self) -> JsonValue;
}
