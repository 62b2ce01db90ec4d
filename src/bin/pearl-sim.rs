//! `pearl-sim` — command-line front end to the PEARL and CMESH
//! simulators.
//!
//! ```text
//! pearl-sim [--arch pearl|cmesh|mwsr] [--policy POLICY] [--pair LABEL]
//!           [--cycles N] [--seed N] [--turn-on NS] [--timeline N]
//! pearl-sim --list-pairs
//! pearl-sim --list-policies
//! ```
//!
//! Policies: `dyn` (PEARL-Dyn), `fcfs`, `static:<8|16|32|48|64>`,
//! `reactive:<window>`, `naive:<window>`, `fine:<step>`.
//! (ML policies need a trained model; use the `pearl-bench` binaries or
//! the `ml_power_scaling` example for those.)

use pearl::core::Timeline;
use pearl::prelude::*;
use std::process::ExitCode;

struct Args {
    arch: String,
    policy: String,
    pair: String,
    cycles: u64,
    seed: u64,
    turn_on_ns: Option<f64>,
    timeline: Option<u64>,
}

fn usage() -> &'static str {
    "usage: pearl-sim [--arch pearl|cmesh|mwsr] [--policy dyn|fcfs|static:<wl>|reactive:<rw>|naive:<rw>|fine:<step>]\n\
     \u{20}                [--pair FA+DCT] [--cycles N] [--seed N] [--turn-on NS] [--timeline N]\n\
     \u{20}      pearl-sim --list-pairs | --list-policies"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        arch: "pearl".into(),
        policy: "dyn".into(),
        pair: "FA+DCT".into(),
        cycles: 60_000,
        seed: 42,
        turn_on_ns: None,
        timeline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().ok_or_else(|| format!("{name} needs a value\n{}", usage()));
        match flag.as_str() {
            "--list-pairs" => {
                println!("test pairs (Table IV):");
                for pair in BenchmarkPair::test_pairs() {
                    println!("  {pair}");
                }
                std::process::exit(0);
            }
            "--list-policies" => {
                println!("dyn            PEARL-Dyn: dynamic bandwidth, 64 WL");
                println!("fcfs           PEARL-FCFS: shared-pool FIFO, 64 WL");
                println!("static:<wl>    dynamic bandwidth at a fixed state (8|16|32|48|64)");
                println!("reactive:<rw>  Algorithm 1 power scaling, window <rw> cycles");
                println!("naive:<rw>     last-value Eq. 7 power scaling");
                println!("fine:<step>    fine-grained allocation (e.g. fine:0.0625)");
                std::process::exit(0);
            }
            "--arch" => args.arch = value("--arch")?,
            "--policy" => args.policy = value("--policy")?,
            "--pair" => args.pair = value("--pair")?,
            "--cycles" => {
                args.cycles = value("--cycles")?.parse().map_err(|e| format!("--cycles: {e}"))?
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--turn-on" => {
                args.turn_on_ns =
                    Some(value("--turn-on")?.parse().map_err(|e| format!("--turn-on: {e}"))?)
            }
            "--timeline" => {
                let window: u64 =
                    value("--timeline")?.parse().map_err(|e| format!("--timeline: {e}"))?;
                if window == 0 {
                    return Err("--timeline: the window must be at least one cycle".into());
                }
                args.timeline = Some(window);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(args)
}

fn find_pair(label: &str) -> Result<BenchmarkPair, String> {
    let all: Vec<BenchmarkPair> = CpuBenchmark::ALL
        .iter()
        .flat_map(|&c| GpuBenchmark::ALL.iter().map(move |&g| BenchmarkPair::new(c, g)))
        .collect();
    all.into_iter()
        .find(|p| p.label().eq_ignore_ascii_case(label))
        .ok_or_else(|| format!("unknown pair {label:?}; try --list-pairs"))
}

fn parse_policy(spec: &str) -> Result<PearlPolicy, String> {
    let (head, tail) = match spec.split_once(':') {
        Some((h, t)) => (h, Some(t)),
        None => (spec, None),
    };
    let num = |what: &str| -> Result<u64, String> {
        tail.ok_or_else(|| format!("{head} needs :<{what}>"))?
            .parse()
            .map_err(|e| format!("{head}: {e}"))
    };
    match head {
        "dyn" => Ok(PearlPolicy::dyn_64wl()),
        "fcfs" => Ok(PearlPolicy::fcfs_64wl()),
        "static" => {
            let wl: u32 = num("wavelengths")? as u32;
            let state = WavelengthState::from_wavelengths(wl)
                .ok_or_else(|| format!("no wavelength state with {wl} wavelengths"))?;
            Ok(PearlPolicy::dyn_static(state))
        }
        "reactive" => Ok(PearlPolicy::reactive(num("window")?)),
        "naive" => Ok(PearlPolicy::naive_power(num("window")?, 0.8, true)),
        "fine" => {
            let step: f64 =
                tail.ok_or("fine needs :<step>")?.parse().map_err(|e| format!("fine: {e}"))?;
            Ok(PearlPolicy::dyn_fine(step))
        }
        other => Err(format!("unknown policy {other:?}; try --list-policies")),
    }
}

/// Every rejected input ends here: its message on stderr, exit 1.
fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let pair = find_pair(&args.pair)?;
    match args.arch.as_str() {
        "cmesh" => run_cmesh(pair, &args),
        "pearl" | "mwsr" => run_pearl(pair, &args),
        other => Err(format!("unknown arch {other:?} (pearl|cmesh|mwsr)")),
    }
}

fn run_pearl(pair: BenchmarkPair, args: &Args) -> Result<(), String> {
    let policy = parse_policy(&args.policy)?;
    let mut config = if args.arch == "mwsr" {
        pearl::core::PearlConfig::pearl_mwsr()
    } else {
        PearlConfig::pearl()
    };
    if let Some(ns) = args.turn_on_ns {
        config.laser_turn_on_ns = ns;
    }
    let mut net = NetworkBuilder::new()
        .config(config)
        .policy(policy)
        .seed(args.seed)
        .try_build(pair)
        .map_err(|e| format!("invalid configuration: {e}"))?;
    let mut timeline = args.timeline.map(Timeline::new);
    match timeline.as_mut() {
        Some(timeline) => timeline.run(&mut net, args.cycles),
        None => {
            net.run(args.cycles);
        }
    }
    let s = net.summary();

    println!("arch            {} ({})", args.arch, args.policy);
    println!("pair            {pair}");
    println!("cycles          {}", s.cycles);
    println!(
        "throughput      {:.3} flits/cycle ({:.1} Gbps)",
        s.throughput_flits_per_cycle,
        s.throughput_bps / 1e9
    );
    println!(
        "latency         CPU {:.1} / GPU {:.1} / p99 {:.0} cycles",
        s.avg_latency_cpu, s.avg_latency_gpu, s.latency_p99
    );
    println!("laser power     {:.2} W (total {:.2} W)", s.avg_laser_power_w, s.avg_total_power_w);
    println!("energy/bit      {:.1} pJ", s.energy_per_bit_j * 1e12);
    println!("stalls          {}", s.injection_stalls);
    print!("residency       ");
    for state in [
        WavelengthState::W8,
        WavelengthState::W16,
        WavelengthState::W32,
        WavelengthState::W48,
        WavelengthState::W64,
    ] {
        print!("{}:{:.0}% ", state.wavelengths(), s.residency.fraction(state) * 100.0);
    }
    println!();
    if let Some(timeline) = timeline {
        println!("\ntimeline (window {} cycles):", timeline.window());
        println!("{:>10} {:>12} {:>10} {:>8}", "cycle", "flits/cyc", "mean λ", "stalls");
        for p in timeline.points() {
            println!(
                "{:>10} {:>12.3} {:>10.1} {:>8}",
                p.at,
                p.flits as f64 / timeline.window() as f64,
                p.mean_wavelengths,
                p.stalls
            );
        }
    }
    Ok(())
}

fn run_cmesh(pair: BenchmarkPair, args: &Args) -> Result<(), String> {
    let mut net = CmeshBuilder::new().seed(args.seed).build(pair);
    let s = net.run(args.cycles);
    println!("arch            cmesh");
    println!("pair            {pair}");
    println!("cycles          {}", s.cycles);
    println!("throughput      {:.3} flits/cycle", s.throughput_flits_per_cycle);
    println!("latency         CPU {:.1} / GPU {:.1} cycles", s.avg_latency_cpu, s.avg_latency_gpu);
    println!("power           {:.2} W", s.avg_power_w);
    println!("energy/bit      {:.1} pJ", s.energy_per_bit_j * 1e12);
    println!("stalls          {}", s.injection_stalls);
    Ok(())
}
