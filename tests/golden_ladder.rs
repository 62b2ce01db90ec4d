//! Golden state-hash ladder: `state_hash()` every 1,000 cycles up to
//! 5,000 across the PEARL policies, both fabrics, a seeded fault
//! configuration and three CMESH link rates (full, half and quarter
//! bandwidth; at a quarter a mesh output is busy three cycles in four,
//! which exercises link pacing).
//!
//! The constants pin the complete simulated state, not a summary, so a
//! kernel rewrite that changes any behaviour fails here and names the
//! run and the first rung that diverged. Two more passes must reproduce
//! every hash, because observers observe and never steer: one with the
//! self-profiler (and its work counters) on, and one with every
//! observer at once — the profiler and a fanout probe of a recorder
//! that wants spans (which switches span tracking on) and a flight
//! recorder. The state hash leaves the span section out, so the
//! observed pass hashes what a bare run hashes. Every run is built and
//! driven through the one `Simulator` interface both networks implement.
//!
//! After an intentional behaviour change, replace `GOLDEN` with the
//! table the failing test prints and say why in the commit.

use pearl::cmesh::{CmeshBuilder, CmeshConfig};
use pearl::core::{FallbackConfig, FaultConfig, MlPowerScaler, FEATURE_COUNT};
use pearl::ml::select_lambda;
use pearl::prelude::*;
use pearl::telemetry::{FanoutProbe, FlightRecorder, Simulator};

/// Cycles between two recorded hashes.
const RUNG_CYCLES: u64 = 1_000;

/// Hashes per run.
const RUNGS: usize = 5;

/// Workload seed of every run.
const SEED: u64 = 7;

/// What a ladder pass attaches before the first rung.
#[derive(Debug, Clone, Copy)]
enum Pass {
    Bare,
    Profiled,
    Observed,
}

/// Attaches every observer: the profiler and one fanout probe of a
/// recorder that wants spans and a flight recorder. Returns the
/// recorder, to show spans flowed.
fn observe(net: &mut dyn Simulator) -> Shared<Recorder> {
    net.enable_profiling();
    let recorder = Shared::new(Recorder::with_spans());
    net.attach_probe(Box::new(FanoutProbe::new(vec![
        Box::new(recorder.clone()),
        Box::new(Shared::new(FlightRecorder::new())),
    ])));
    recorder
}

/// A scaler fitted on a small fixed dataset whose label steps with the
/// first feature, so its predictions (and the ladder it feeds) vary.
fn fitted_scaler() -> MlPowerScaler {
    let mut data = Dataset::new(FEATURE_COUNT);
    for i in 0..40 {
        let mut features = vec![0.0; FEATURE_COUNT];
        features[0] = (i % 4) as f64;
        data.push(features, 60.0 + 40.0 * (i % 4) as f64).expect("fixed dimension");
    }
    let (train, validation) = data.split_tail(0.25);
    MlPowerScaler::new(select_lambda(&train, &validation, &[1.0]).expect("ridge fits"))
}

fn pearl(policy: PearlPolicy, pair: usize) -> Box<dyn Simulator> {
    pearl_with(NetworkBuilder::new().policy(policy), pair)
}

fn pearl_with(builder: NetworkBuilder, pair: usize) -> Box<dyn Simulator> {
    Box::new(builder.seed(SEED).build(BenchmarkPair::test_pairs()[pair]))
}

fn cmesh(config: CmeshConfig, pair: usize) -> Box<dyn Simulator> {
    Box::new(CmeshBuilder::new().config(config).seed(SEED).build(BenchmarkPair::test_pairs()[pair]))
}

/// The ladder's runs, by name.
fn build(name: &str) -> Box<dyn Simulator> {
    match name {
        "fcfs_64wl" => pearl(PearlPolicy::fcfs_64wl(), 0),
        "dyn_64wl" => pearl(PearlPolicy::dyn_64wl(), 1),
        "dyn_fine" => pearl(PearlPolicy::dyn_fine(0.0625), 2),
        "dyn_static_w16" => pearl(PearlPolicy::dyn_static(WavelengthState::W16), 3),
        "reactive" => pearl(PearlPolicy::reactive(500), 4),
        "naive_power" => pearl(PearlPolicy::naive_power(500, 1.0, true), 5),
        "random_walk" => pearl(PearlPolicy::random_walk(500), 6),
        "ml_with_fallback" => pearl(
            PearlPolicy::ml_with_fallback(500, fitted_scaler(), true, FallbackConfig::pearl()),
            7,
        ),
        "mwsr" => pearl_with(NetworkBuilder::new().config(PearlConfig::pearl_mwsr()), 8),
        "reactive_faults" => pearl_with(
            NetworkBuilder::new()
                .policy(PearlPolicy::reactive(500))
                .fault_config(FaultConfig::uniform(0.02, 7)),
            9,
        ),
        "cmesh" => cmesh(CmeshConfig::pearl_baseline(), 10),
        "cmesh_half_bandwidth" => cmesh(CmeshConfig::bandwidth_reduced(2), 11),
        "cmesh_quarter_bandwidth" => cmesh(CmeshConfig::bandwidth_reduced(4), 12),
        other => panic!("unknown ladder run {other}"),
    }
}

/// `(run, state hash after 1k, 2k, … 5k cycles)`.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; RUNGS]); 13] = [
    ("fcfs_64wl", [0xaaad256521a95346, 0x06217e2554839f0f, 0xae6d3a37442b2363, 0xfddb5074d26ed11d, 0xba4f3f1d41ea8bd8]),
    ("dyn_64wl", [0xbcaee8a1db422028, 0x53a8529db34ede85, 0xc24ca69fb3c6971d, 0xda9f6ba8a903f549, 0xe0f180cf1fdbb80a]),
    ("dyn_fine", [0x3dd059c16cce3966, 0x39e9bf7e3b91e6f1, 0x1c280c2ad404a2eb, 0x1c50b0ab9bb3b335, 0x00f6c7e4f8ca11c9]),
    ("dyn_static_w16", [0x6c0181c3035060a1, 0x38085694abbc7a02, 0x0b5e5df775ebb336, 0x50ac04e2aa158e35, 0xcdaf3a843f49aee3]),
    ("reactive", [0x6172c15029dd549f, 0x7f8454369ff5ef6e, 0xc1df4ab832e1b5ea, 0x376a135582d35762, 0x1af633a200b60062]),
    ("naive_power", [0x0c95a51571d17d17, 0x67a2ddf0f4964e05, 0x38f56a4604fff038, 0x06f9646efc81a2c6, 0x952478e55e817422]),
    ("random_walk", [0x23f2cb97dd4ebd92, 0x2293aa5de7200127, 0x8a85dd201c02a081, 0x7fe629e2b4e89601, 0xbd1033d8e99567a5]),
    ("ml_with_fallback", [0xcf1d974f1cc3312a, 0x25d7ce7dcb13b4e4, 0x0396288697fec0ac, 0xca0a86c7eba8c268, 0x642cba2a94b50ecb]),
    ("mwsr", [0x8fe790a5c0252e40, 0x104923e8b57355d4, 0x7be01e6d992af5bb, 0x501fcab91e28d049, 0xe94ff3d9cfc9ee4b]),
    ("reactive_faults", [0xff4f725e287bbd95, 0x50202376dd4ed445, 0xc450f8c9623e0da7, 0x7534216f572314f5, 0xe1ae39f9db9810af]),
    ("cmesh", [0x838305c33b3dd629, 0x6a1c387f6fa6b286, 0xdc818a9495421b1c, 0x559852a6768c93d7, 0xf5432a5cc23f6cc0]),
    ("cmesh_half_bandwidth", [0xdeae4ef8a4b58b7c, 0xfe8d8fe9dd6c132a, 0x8e495e6ac8750868, 0x10160090078bd153, 0x070584b5359fdf7c]),
    ("cmesh_quarter_bandwidth", [0x829f143d72a1de87, 0x7eee79826996e06f, 0xf53c775171cfd87c, 0x2a2b785f8f68af4e, 0x9c1b229d0d00f222]),
];

fn ladder(name: &str, pass: Pass) -> [u64; RUNGS] {
    let mut net = build(name);
    let recorder = match pass {
        Pass::Bare => None,
        Pass::Profiled => {
            net.enable_profiling();
            None
        }
        Pass::Observed => Some(observe(net.as_mut())),
    };
    let mut hashes = [0; RUNGS];
    for hash in &mut hashes {
        net.advance(RUNG_CYCLES);
        *hash = net.state_hash();
    }
    if let Some(recorder) = recorder {
        let spans = recorder.with(|r| r.spans().count());
        assert!(spans > 0, "{name}: the observed pass recorded no spans");
    }
    hashes
}

/// Runs every ladder and fails naming each run's first divergent rung,
/// printing the whole measured table for re-blessing.
fn check(pass: Pass) {
    let measured: Vec<(&str, [u64; RUNGS])> =
        GOLDEN.iter().map(|&(name, _)| (name, ladder(name, pass))).collect();
    let mut diverged = Vec::new();
    for (&(name, golden), (_, hashes)) in GOLDEN.iter().zip(&measured) {
        if let Some(rung) = golden.iter().zip(hashes).position(|(g, h)| g != h) {
            let cycle = (rung as u64 + 1) * RUNG_CYCLES;
            diverged.push(format!("{name} first diverges at cycle {cycle}"));
        }
    }
    if !diverged.is_empty() {
        let table: String = measured
            .iter()
            .map(|(name, hashes)| {
                let hex: Vec<String> = hashes.iter().map(|h| format!("0x{h:016x}")).collect();
                format!("    (\"{name}\", [{}]),\n", hex.join(", "))
            })
            .collect();
        panic!("ladder ({pass:?} pass):\n  {}\nmeasured table:\n{table}", diverged.join("\n  "));
    }
}

#[test]
fn bare_runs_match_the_golden_ladder() {
    check(Pass::Bare);
}

#[test]
fn profiled_runs_reproduce_the_golden_ladder() {
    check(Pass::Profiled);
}

#[test]
fn observed_runs_reproduce_the_golden_ladder() {
    check(Pass::Observed);
}
