//! Network-wide measurement: throughput, latency and energy accounting.

use crate::cycle::{Cycle, Frequency};
use crate::histogram::LatencyHistogram;
use crate::packet::{CoreType, Packet};

/// Streaming summary of packet latencies (cycles).
///
/// The running `sum` is a `u128`: a `u64` accumulator overflows after
/// ~2⁶⁴ total latency-cycles, which a long-running high-latency sweep
/// can reach, and the paper metrics must degrade gracefully rather than
/// panic. The widened accumulator cannot overflow in practice (2⁶⁴
/// observations of 2⁶⁴ cycles each), but `record`/`merge` still
/// saturate defensively.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    count: u64,
    sum: u128,
    max: u64,
}

impl LatencyStats {
    /// Creates an empty summary.
    pub fn new() -> LatencyStats {
        LatencyStats::default()
    }

    /// Records one latency observation.
    pub fn record(&mut self, latency: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(u128::from(latency));
        self.max = self.max.max(latency);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Maximum observed latency.
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The raw latency-cycle accumulator, for checkpointing.
    #[inline]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Rebuilds a summary from raw parts captured by [`Self::count`] /
    /// [`Self::sum`] / [`Self::max`].
    pub fn from_parts(count: u64, sum: u128, max: u64) -> LatencyStats {
        LatencyStats { count, sum, max }
    }
}

/// Per-core-type pair of counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct PerCore<T> {
    cpu: T,
    gpu: T,
}

impl<T: Copy> PerCore<T> {
    fn get(&self, core: CoreType) -> T {
        match core {
            CoreType::Cpu => self.cpu,
            CoreType::Gpu => self.gpu,
        }
    }

    fn get_mut(&mut self, core: CoreType) -> &mut T {
        match core {
            CoreType::Cpu => &mut self.cpu,
            CoreType::Gpu => &mut self.gpu,
        }
    }
}

/// Complete dynamic state of a [`NetworkStats`] block, for checkpointing.
///
/// Every private counter is mirrored as a public field so a checkpoint
/// codec (which lives in a downstream crate) can serialize it without
/// this crate growing a serialization dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsState {
    /// Simulated cycles.
    pub cycles: u64,
    /// Injected packets, `[cpu, gpu]`.
    pub injected_packets: [u64; 2],
    /// Delivered packets, `[cpu, gpu]`.
    pub delivered_packets: [u64; 2],
    /// Delivered flits, `[cpu, gpu]`.
    pub delivered_flits: [u64; 2],
    /// Delivered bits across both core types.
    pub delivered_bits: u64,
    /// Back-pressure events at sources.
    pub injection_stalls: u64,
    /// CRC-failed packets.
    pub corrupted_packets: u64,
    /// Retransmission attempts.
    pub retransmitted_packets: u64,
    /// Cycles spent in retransmission backoff.
    pub retransmit_backoff_cycles: u64,
    /// Latency summaries as `(count, sum, max)`, `[cpu, gpu]`.
    pub latency: [(u64, u128, u64); 2],
    /// Raw latency-histogram buckets.
    pub hist_buckets: Vec<u64>,
    /// Latency-histogram observation count.
    pub hist_count: u64,
    /// Laser energy (J).
    pub laser_energy_j: f64,
    /// Thermal-tuning energy (J).
    pub heating_energy_j: f64,
    /// Modulation/receiver energy (J).
    pub modulation_energy_j: f64,
    /// Electrical router/link energy (J).
    pub electrical_energy_j: f64,
}

/// Aggregated statistics for one simulated network.
///
/// The same struct serves PEARL and CMESH so the figure harnesses can
/// compare them field-for-field. Energy is accumulated in joules, split by
/// physical source; [`NetworkStats::energy_per_bit`] is the paper's Fig. 5
/// metric and [`NetworkStats::throughput_flits_per_cycle`] its Figs. 6/9/10
/// metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkStats {
    cycles: u64,
    injected_packets: PerCore<u64>,
    delivered_packets: PerCore<u64>,
    delivered_flits: PerCore<u64>,
    delivered_bits: u64,
    injection_stalls: u64,
    corrupted_packets: u64,
    retransmitted_packets: u64,
    retransmit_backoff_cycles: u64,
    latency: PerCore<LatencyStats>,
    latency_hist: LatencyHistogram,
    /// Energy drawn by laser sources (J).
    pub laser_energy_j: f64,
    /// Energy drawn by microring thermal tuning (J).
    pub heating_energy_j: f64,
    /// Energy drawn by ring modulation / receiver circuits (J).
    pub modulation_energy_j: f64,
    /// Energy drawn by electrical routers and links (J).
    pub electrical_energy_j: f64,
}

impl NetworkStats {
    /// Creates an empty statistics block.
    pub fn new() -> NetworkStats {
        NetworkStats::default()
    }

    /// Advances the simulated-cycle counter by one.
    #[inline]
    pub fn tick(&mut self) {
        self.cycles += 1;
    }

    /// Number of simulated cycles.
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Records a packet entering its source buffer.
    pub fn record_injection(&mut self, packet: &Packet) {
        *self.injected_packets.get_mut(packet.core) += 1;
    }

    /// Records a failed injection (source throttled by a full buffer).
    #[inline]
    pub fn record_injection_stall(&mut self) {
        self.injection_stalls += 1;
    }

    /// Records a packet reaching its final destination at `now`.
    pub fn record_delivery(&mut self, packet: &Packet, now: Cycle) {
        *self.delivered_packets.get_mut(packet.core) += 1;
        *self.delivered_flits.get_mut(packet.core) += u64::from(packet.flits());
        self.delivered_bits += packet.bits();
        let latency = packet.latency(now);
        self.latency.get_mut(packet.core).record(latency);
        self.latency_hist.record(latency);
    }

    /// Packets injected by the given core type.
    #[inline]
    pub fn injected_packets(&self, core: CoreType) -> u64 {
        self.injected_packets.get(core)
    }

    /// Packets delivered for the given core type.
    #[inline]
    pub fn delivered_packets(&self, core: CoreType) -> u64 {
        self.delivered_packets.get(core)
    }

    /// Flits delivered for the given core type.
    #[inline]
    pub fn delivered_flits(&self, core: CoreType) -> u64 {
        self.delivered_flits.get(core)
    }

    /// Total packets injected.
    #[inline]
    pub fn total_injected_packets(&self) -> u64 {
        self.injected_packets.cpu + self.injected_packets.gpu
    }

    /// Total packets delivered.
    #[inline]
    pub fn total_delivered_packets(&self) -> u64 {
        self.delivered_packets.cpu + self.delivered_packets.gpu
    }

    /// Total flits delivered.
    #[inline]
    pub fn total_delivered_flits(&self) -> u64 {
        self.delivered_flits.cpu + self.delivered_flits.gpu
    }

    /// Total bits delivered.
    #[inline]
    pub fn total_delivered_bits(&self) -> u64 {
        self.delivered_bits
    }

    /// Number of injection stalls (back-pressure events at sources).
    #[inline]
    pub fn injection_stalls(&self) -> u64 {
        self.injection_stalls
    }

    /// Records a packet whose CRC check failed at the receiver.
    #[inline]
    pub fn record_corruption(&mut self) {
        self.corrupted_packets += 1;
    }

    /// Records a retransmission attempt and the backoff it was charged.
    #[inline]
    pub fn record_retransmission(&mut self, backoff_cycles: u64) {
        self.retransmitted_packets += 1;
        self.retransmit_backoff_cycles += backoff_cycles;
    }

    /// Packets that arrived corrupted (CRC mismatch) and were NACKed.
    #[inline]
    pub fn corrupted_packets(&self) -> u64 {
        self.corrupted_packets
    }

    /// Retransmission attempts issued by the NACK/timeout recovery path.
    #[inline]
    pub fn retransmitted_packets(&self) -> u64 {
        self.retransmitted_packets
    }

    /// Total cycles spent in retransmission backoff across all packets.
    #[inline]
    pub fn retransmit_backoff_cycles(&self) -> u64 {
        self.retransmit_backoff_cycles
    }

    /// Bucketed latency histogram across both core types — tail
    /// percentiles via [`LatencyHistogram::percentile`].
    #[inline]
    pub fn latency_histogram(&self) -> &LatencyHistogram {
        &self.latency_hist
    }

    /// Latency summary for one core type.
    #[inline]
    pub fn latency(&self, core: CoreType) -> &LatencyStats {
        match core {
            CoreType::Cpu => &self.latency.cpu,
            CoreType::Gpu => &self.latency.gpu,
        }
    }

    /// Network throughput in delivered flits per cycle.
    pub fn throughput_flits_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_delivered_flits() as f64 / self.cycles as f64
        }
    }

    /// Network throughput in bits per second under the given clock.
    pub fn throughput_bps(&self, clock: Frequency) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.delivered_bits as f64 / (self.cycles as f64 / clock.as_hz())
        }
    }

    /// Total energy from all sources (J).
    pub fn total_energy_j(&self) -> f64 {
        self.laser_energy_j
            + self.heating_energy_j
            + self.modulation_energy_j
            + self.electrical_energy_j
    }

    /// Energy per delivered bit (J/bit) — the Fig. 5 metric.
    ///
    /// Returns `f64::INFINITY` when nothing was delivered, making a
    /// misconfigured run impossible to mistake for an efficient one.
    pub fn energy_per_bit(&self) -> f64 {
        if self.delivered_bits == 0 {
            f64::INFINITY
        } else {
            self.total_energy_j() / self.delivered_bits as f64
        }
    }

    /// Average power over the run (W) under the given clock.
    pub fn average_power_w(&self, clock: Frequency) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_energy_j() / (self.cycles as f64 / clock.as_hz())
        }
    }

    /// Average laser power over the run (W) — the Fig. 7/11 metric.
    pub fn average_laser_power_w(&self, clock: Frequency) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.laser_energy_j / (self.cycles as f64 / clock.as_hz())
        }
    }

    /// Captures every counter for a checkpoint.
    pub fn export_state(&self) -> StatsState {
        let lat = |l: &LatencyStats| (l.count, l.sum, l.max);
        StatsState {
            cycles: self.cycles,
            injected_packets: [self.injected_packets.cpu, self.injected_packets.gpu],
            delivered_packets: [self.delivered_packets.cpu, self.delivered_packets.gpu],
            delivered_flits: [self.delivered_flits.cpu, self.delivered_flits.gpu],
            delivered_bits: self.delivered_bits,
            injection_stalls: self.injection_stalls,
            corrupted_packets: self.corrupted_packets,
            retransmitted_packets: self.retransmitted_packets,
            retransmit_backoff_cycles: self.retransmit_backoff_cycles,
            latency: [lat(&self.latency.cpu), lat(&self.latency.gpu)],
            hist_buckets: self.latency_hist.buckets().to_vec(),
            hist_count: self.latency_hist.count(),
            laser_energy_j: self.laser_energy_j,
            heating_energy_j: self.heating_energy_j,
            modulation_energy_j: self.modulation_energy_j,
            electrical_energy_j: self.electrical_energy_j,
        }
    }

    /// Restores every counter from a snapshot captured by
    /// [`Self::export_state`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's histogram does not have 64 buckets.
    pub fn import_state(&mut self, state: &StatsState) {
        let lat = |(count, sum, max): (u64, u128, u64)| LatencyStats { count, sum, max };
        self.cycles = state.cycles;
        self.injected_packets =
            PerCore { cpu: state.injected_packets[0], gpu: state.injected_packets[1] };
        self.delivered_packets =
            PerCore { cpu: state.delivered_packets[0], gpu: state.delivered_packets[1] };
        self.delivered_flits =
            PerCore { cpu: state.delivered_flits[0], gpu: state.delivered_flits[1] };
        self.delivered_bits = state.delivered_bits;
        self.injection_stalls = state.injection_stalls;
        self.corrupted_packets = state.corrupted_packets;
        self.retransmitted_packets = state.retransmitted_packets;
        self.retransmit_backoff_cycles = state.retransmit_backoff_cycles;
        self.latency = PerCore { cpu: lat(state.latency[0]), gpu: lat(state.latency[1]) };
        self.latency_hist =
            LatencyHistogram::from_parts(state.hist_buckets.clone(), state.hist_count);
        self.laser_energy_j = state.laser_energy_j;
        self.heating_energy_j = state.heating_energy_j;
        self.modulation_energy_j = state.modulation_energy_j;
        self.electrical_energy_j = state.electrical_energy_j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TrafficClass;
    use crate::topology::NodeId;

    fn pkt(core: CoreType, injected_at: u64) -> Packet {
        Packet::response(0, NodeId(0), NodeId(1), core, TrafficClass::L3, Cycle(injected_at))
    }

    #[test]
    fn latency_stats_mean_and_max() {
        let mut l = LatencyStats::new();
        l.record(10);
        l.record(20);
        l.record(60);
        assert_eq!(l.count(), 3);
        assert!((l.mean() - 30.0).abs() < 1e-12);
        assert_eq!(l.max(), 60);
    }

    #[test]
    fn latency_merge() {
        let mut a = LatencyStats::new();
        a.record(10);
        let mut b = LatencyStats::new();
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_latency_mean_is_zero() {
        assert_eq!(LatencyStats::new().mean(), 0.0);
    }

    #[test]
    fn latency_sum_survives_u64_overflow() {
        // Regression: with a u64 accumulator, two u64::MAX observations
        // overflowed `sum` and panicked (debug) or wrapped the mean
        // (release). The widened accumulator keeps the mean exact.
        let mut l = LatencyStats::new();
        l.record(u64::MAX);
        l.record(u64::MAX);
        l.record(u64::MAX);
        assert_eq!(l.count(), 3);
        assert_eq!(l.max(), u64::MAX);
        assert!((l.mean() - u64::MAX as f64).abs() / (u64::MAX as f64) < 1e-12);
        // Merging two such summaries must not overflow either.
        let mut a = l;
        a.merge(&l);
        assert_eq!(a.count(), 6);
        assert!((a.mean() - u64::MAX as f64).abs() / (u64::MAX as f64) < 1e-12);
    }

    #[test]
    fn delivery_accounting_per_core() {
        let mut s = NetworkStats::new();
        for _ in 0..100 {
            s.tick();
        }
        s.record_injection(&pkt(CoreType::Cpu, 0));
        s.record_injection(&pkt(CoreType::Gpu, 0));
        s.record_delivery(&pkt(CoreType::Cpu, 0), Cycle(40));
        assert_eq!(s.injected_packets(CoreType::Cpu), 1);
        assert_eq!(s.injected_packets(CoreType::Gpu), 1);
        assert_eq!(s.delivered_packets(CoreType::Cpu), 1);
        assert_eq!(s.delivered_packets(CoreType::Gpu), 0);
        assert_eq!(s.delivered_flits(CoreType::Cpu), 4);
        assert_eq!(s.total_delivered_bits(), 512);
        assert_eq!(s.latency(CoreType::Cpu).max(), 40);
        assert!((s.throughput_flits_per_cycle() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn throughput_bps_uses_clock() {
        let mut s = NetworkStats::new();
        for _ in 0..2 {
            s.tick(); // 2 cycles @2 GHz = 1 ns
        }
        s.record_delivery(&pkt(CoreType::Cpu, 0), Cycle(2));
        // 512 bits in 1 ns = 512 Gbps.
        let bps = s.throughput_bps(Frequency::from_ghz(2.0));
        assert!((bps - 512e9).abs() / 512e9 < 1e-12);
    }

    #[test]
    fn energy_per_bit_infinite_when_idle() {
        let mut s = NetworkStats::new();
        s.laser_energy_j = 1.0;
        assert!(s.energy_per_bit().is_infinite());
    }

    #[test]
    fn energy_sums_all_sources() {
        let mut s = NetworkStats::new();
        s.laser_energy_j = 1.0;
        s.heating_energy_j = 2.0;
        s.modulation_energy_j = 3.0;
        s.electrical_energy_j = 4.0;
        assert!((s.total_energy_j() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn average_laser_power() {
        let mut s = NetworkStats::new();
        for _ in 0..2_000_000_000u64 / 1_000_000 {
            s.tick();
        }
        // 2000 cycles @2 GHz = 1 µs; 1.16 µJ over 1 µs = 1.16 W.
        s.laser_energy_j = 1.16e-6;
        let w = s.average_laser_power_w(Frequency::from_ghz(2.0));
        assert!((w - 1.16).abs() < 1e-9);
    }

    #[test]
    fn histogram_tracks_deliveries() {
        let mut s = NetworkStats::new();
        s.record_delivery(&pkt(CoreType::Cpu, 0), Cycle(10));
        s.record_delivery(&pkt(CoreType::Gpu, 0), Cycle(1000));
        assert_eq!(s.latency_histogram().count(), 2);
        assert!(s.latency_histogram().percentile(1.0) >= 1000.0);
    }

    #[test]
    fn corruption_and_retransmission_counters() {
        let mut s = NetworkStats::new();
        s.record_corruption();
        s.record_corruption();
        s.record_retransmission(8);
        s.record_retransmission(16);
        assert_eq!(s.corrupted_packets(), 2);
        assert_eq!(s.retransmitted_packets(), 2);
        assert_eq!(s.retransmit_backoff_cycles(), 24);
    }

    #[test]
    fn zero_cycles_throughput_is_zero() {
        let s = NetworkStats::new();
        assert_eq!(s.throughput_flits_per_cycle(), 0.0);
        assert_eq!(s.throughput_bps(Frequency::from_ghz(2.0)), 0.0);
        assert_eq!(s.average_power_w(Frequency::from_ghz(2.0)), 0.0);
    }
}
