//! Regenerates the paper's tables, figures and ablations.
//!
//! Usage: `experiments [NAME...] [--jobs N] [--json]`. Runs the named
//! experiments in the order given, or every experiment in table order
//! when none is named, in one process that trains each ML model and
//! runs each test-pair sweep once. Stdout carries each experiment's
//! text; stderr carries training progress and the wall time of each
//! experiment and of the whole run.

use pearl_bench::experiments::{Lab, EXPERIMENTS};
use pearl_bench::{Cli, JobPool, Report};
use std::time::Instant;

fn main() {
    let args = Cli::new("experiments", "regenerates the paper's tables, figures and ablations")
        .positional("[NAME...]", "experiments to run, in order (default: all)", usize::MAX)
        .parse();
    let names: Vec<&str> = match args.positionals() {
        [] => EXPERIMENTS.iter().map(|(name, _)| *name).collect(),
        named => named.iter().map(String::as_str).collect(),
    };
    // Resolve every name before anything runs.
    let mut chosen = Vec::new();
    for name in names {
        match EXPERIMENTS.iter().find(|(known, _)| *known == name) {
            Some(experiment) => chosen.push(experiment),
            None => {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|(known, _)| *known).collect();
                eprintln!("error: unknown experiment {name:?} (known: {})", known.join(" "));
                std::process::exit(2);
            }
        }
    }
    let mut lab = Lab::new(JobPool::new(args.jobs()));
    let started = Instant::now();
    for (name, run) in chosen {
        let began = Instant::now();
        let mut report = Report::new(name, args.has("--json"));
        run(&mut lab, &mut report);
        report.finish().expect("write JSON artifact");
        eprintln!("[{name}: {:.2} s]", began.elapsed().as_secs_f64());
    }
    eprintln!("[total: {:.2} s]", started.elapsed().as_secs_f64());
}
