//! One interface over both simulators: build a unit's network, run or
//! step it, and read what the benchmark checks and reports.

use crate::digest::fnv;
use pearl_cmesh::{CmeshBuilder, CmeshConfig, CmeshNetwork, CmeshSummary};
use pearl_core::{NetworkBuilder, PearlNetwork, PearlPolicy, RunSummary};
use pearl_photonics::WavelengthState;
use pearl_telemetry::{Checkpoint, SnapshotError};
use pearl_workloads::BenchmarkPair;

/// Which simulator a unit drives.
#[derive(Debug, Clone)]
pub enum Fabric {
    /// The PEARL photonic network under a bandwidth/power policy.
    Pearl(Box<PearlPolicy>),
    /// The electrical CMESH baseline.
    Cmesh,
}

/// The benchmark's unit of work: one network built for one pair and
/// seed and run for a fixed number of cycles.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Names the unit in failures and in the golden file.
    pub key: String,
    /// The simulator and its policy.
    pub fabric: Fabric,
    /// The workload pair driving the network.
    pub pair: BenchmarkPair,
    /// Workload seed.
    pub seed: u64,
    /// Simulated cycles.
    pub cycles: u64,
}

/// A built network of either kind.
pub enum Net {
    /// PEARL.
    Pearl(Box<PearlNetwork>),
    /// CMESH.
    Cmesh(Box<CmeshNetwork>),
}

impl Net {
    /// Builds `unit`'s network through the public builders.
    pub fn build(unit: &Unit) -> Net {
        match &unit.fabric {
            Fabric::Pearl(policy) => Net::Pearl(Box::new(
                NetworkBuilder::new()
                    .policy(PearlPolicy::clone(policy))
                    .seed(unit.seed)
                    .build(unit.pair),
            )),
            Fabric::Cmesh => Net::Cmesh(Box::new(
                CmeshBuilder::new()
                    .config(CmeshConfig::pearl_baseline())
                    .seed(unit.seed)
                    .build(unit.pair),
            )),
        }
    }

    /// Runs `cycles` cycles and summarizes everything run so far.
    pub fn run(&mut self, cycles: u64) -> Summary {
        match self {
            Net::Pearl(n) => Summary::Pearl(n.run(cycles)),
            Net::Cmesh(n) => Summary::Cmesh(n.run(cycles)),
        }
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        match self {
            Net::Pearl(n) => n.step(),
            Net::Cmesh(n) => n.step(),
        }
    }

    /// Summary of everything run so far.
    pub fn summary(&self) -> Summary {
        match self {
            Net::Pearl(n) => Summary::Pearl(n.summary()),
            Net::Cmesh(n) => Summary::Cmesh(n.summary()),
        }
    }

    /// Hash of the complete simulation state.
    pub fn state_hash(&self) -> u64 {
        match self {
            Net::Pearl(n) => n.state_hash(),
            Net::Cmesh(n) => n.state_hash(),
        }
    }

    /// Captures a checkpoint.
    pub fn snapshot(&self) -> Checkpoint {
        match self {
            Net::Pearl(n) => n.snapshot(),
            Net::Cmesh(n) => n.snapshot(),
        }
    }

    /// Restores a checkpoint taken from an identically built network.
    pub fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), SnapshotError> {
        match self {
            Net::Pearl(n) => n.restore(checkpoint),
            Net::Cmesh(n) => n.restore(checkpoint),
        }
    }

    /// Packet conservation: PEARL accounts for every injected packet as
    /// delivered or in the network; CMESH never delivers more than it
    /// injected.
    pub fn conserves_packets(&self) -> bool {
        match self {
            Net::Pearl(n) => {
                n.stats().total_injected_packets()
                    == n.stats().total_delivered_packets() + n.in_network_packets()
            }
            Net::Cmesh(n) => {
                n.stats().total_delivered_packets() <= n.stats().total_injected_packets()
            }
        }
    }
}

/// A run summary of either kind.
#[derive(Debug, Clone)]
pub enum Summary {
    /// PEARL.
    Pearl(RunSummary),
    /// CMESH.
    Cmesh(CmeshSummary),
}

impl Summary {
    /// FNV digest of the bits of every summary field and the final state
    /// hash: two runs agree on it only if they agree on everything.
    pub fn digest(&self, state_hash: u64) -> u64 {
        let mut words = match self {
            Summary::Pearl(s) => {
                let mut w = vec![
                    s.cycles,
                    s.delivered_packets,
                    s.delivered_flits,
                    s.delivered_bits,
                    s.injected_cpu_packets,
                    s.injected_gpu_packets,
                    s.throughput_flits_per_cycle.to_bits(),
                    s.throughput_bps.to_bits(),
                    s.avg_latency_cpu.to_bits(),
                    s.avg_latency_gpu.to_bits(),
                    s.latency_p99.to_bits(),
                    s.avg_laser_power_w.to_bits(),
                    s.avg_total_power_w.to_bits(),
                    s.energy_per_bit_j.to_bits(),
                    s.injection_stalls,
                    s.corrupted_packets,
                    s.retransmitted_packets,
                    s.retransmit_backoff_cycles,
                    s.laser_transitions,
                    s.laser_stall_cycles,
                ];
                w.extend(WavelengthState::ALL.map(|state| s.residency.cycles_in(state)));
                w
            }
            Summary::Cmesh(s) => vec![
                s.cycles,
                s.delivered_packets,
                s.delivered_flits,
                s.delivered_bits,
                s.throughput_flits_per_cycle.to_bits(),
                s.avg_latency_cpu.to_bits(),
                s.avg_latency_gpu.to_bits(),
                s.avg_power_w.to_bits(),
                s.energy_per_bit_j.to_bits(),
                s.injection_stalls,
            ],
        };
        words.push(state_hash);
        fnv(&words)
    }

    /// The fields a served result artifact's `summary` carries, by the
    /// artifact's names.
    pub fn artifact_fields(&self) -> Vec<(&'static str, f64)> {
        match self {
            Summary::Pearl(s) => vec![
                ("cycles", s.cycles as f64),
                ("delivered_packets", s.delivered_packets as f64),
                ("delivered_flits", s.delivered_flits as f64),
                ("throughput_flits_per_cycle", s.throughput_flits_per_cycle),
                ("avg_latency_cpu", s.avg_latency_cpu),
                ("avg_latency_gpu", s.avg_latency_gpu),
                ("latency_p99", s.latency_p99),
                ("avg_laser_power_w", s.avg_laser_power_w),
                ("avg_total_power_w", s.avg_total_power_w),
                ("energy_per_bit_j", s.energy_per_bit_j),
                ("injection_stalls", s.injection_stalls as f64),
                ("retransmitted_packets", s.retransmitted_packets as f64),
            ],
            Summary::Cmesh(s) => vec![
                ("cycles", s.cycles as f64),
                ("delivered_packets", s.delivered_packets as f64),
                ("delivered_flits", s.delivered_flits as f64),
                ("throughput_flits_per_cycle", s.throughput_flits_per_cycle),
                ("avg_latency_cpu", s.avg_latency_cpu),
                ("avg_latency_gpu", s.avg_latency_gpu),
                ("avg_power_w", s.avg_power_w),
                ("energy_per_bit_j", s.energy_per_bit_j),
                ("injection_stalls", s.injection_stalls as f64),
            ],
        }
    }

    /// Modelled throughput (flits per cycle).
    pub fn flits_per_cycle(&self) -> f64 {
        match self {
            Summary::Pearl(s) => s.throughput_flits_per_cycle,
            Summary::Cmesh(s) => s.throughput_flits_per_cycle,
        }
    }

    /// Modelled energy per delivered bit (pJ).
    pub fn pj_per_bit(&self) -> f64 {
        1e12 * match self {
            Summary::Pearl(s) => s.energy_per_bit_j,
            Summary::Cmesh(s) => s.energy_per_bit_j,
        }
    }

    /// Modelled average network power (W): PEARL's laser, heating,
    /// modulation and electrical power; CMESH's electrical power.
    pub fn power_w(&self) -> f64 {
        match self {
            Summary::Pearl(s) => s.avg_total_power_w,
            Summary::Cmesh(s) => s.avg_power_w,
        }
    }

    /// Packets delivered.
    pub fn delivered_packets(&self) -> u64 {
        match self {
            Summary::Pearl(s) => s.delivered_packets,
            Summary::Cmesh(s) => s.delivered_packets,
        }
    }

    /// Injection stalls.
    pub fn injection_stalls(&self) -> u64 {
        match self {
            Summary::Pearl(s) => s.injection_stalls,
            Summary::Cmesh(s) => s.injection_stalls,
        }
    }

    /// Mean CPU and GPU packet latency (simulated cycles).
    pub fn latencies(&self) -> (f64, f64) {
        match self {
            Summary::Pearl(s) => (s.avg_latency_cpu, s.avg_latency_gpu),
            Summary::Cmesh(s) => (s.avg_latency_cpu, s.avg_latency_gpu),
        }
    }

    /// The PEARL summary, when this is one.
    pub fn pearl(&self) -> Option<&RunSummary> {
        match self {
            Summary::Pearl(s) => Some(s),
            Summary::Cmesh(_) => None,
        }
    }
}
