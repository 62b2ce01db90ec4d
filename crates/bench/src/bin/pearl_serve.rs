//! `pearl-serve` — the crash-tolerant batch experiment daemon.
//!
//! Watches a spool directory for JSON experiment specs, validates them
//! against the typed config layer, schedules runs across the
//! deterministic job pool with priorities and supervised retries, and
//! survives panics, stalls, deadlines, cancellation, SIGKILL and
//! graceful shutdown. See `pearl_bench::serve` for the architecture and
//! `docs/DESIGN.md` §pearl-serve for the state machine.
//!
//! ```text
//! pearl-serve --spool spool --drain --jobs 4
//! echo '{"kind":"pearl","cycles":30000}' > spool/incoming/myrun.json.part
//! mv spool/incoming/myrun.json.part spool/incoming/myrun.json
//! touch spool/stop          # graceful shutdown
//! touch spool/cancel/myrun  # cancel one job
//! ```

use pearl_bench::serve::{IntrospectionServer, StatusBoard};
use pearl_bench::{Daemon, DaemonConfig, FlightGuard, Spool};
use pearl_telemetry::{FaultSchedule, FaultStorage, RetryPolicy};
use std::net::TcpListener;
use std::sync::Arc;

fn parsed_ms(args: &pearl_bench::CliArgs, name: &str, default: u64) -> u64 {
    match args.value(name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: {name} expects a non-negative integer, got {v:?}");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let args = pearl_bench::Cli::new("pearl-serve", "crash-tolerant batch experiment daemon")
        .option("--spool", "DIR", "spool directory root (default: spool)")
        .flag("--drain", "exit once every job is terminal and incoming/ is empty")
        .flag("--once", "run one scan + dispatch wave, then exit")
        .option(
            "--poll-ms",
            "N",
            "longest idle sleep between scans; backs off from 1 ms (default: 200)",
        )
        .option("--backoff-base-ms", "N", "retry backoff base (default: 500)")
        .option("--backoff-cap-ms", "N", "retry backoff cap (default: 60000)")
        .option(
            "--fault-spec",
            "SPEC",
            "inject storage faults, e.g. 'enospc@12x3,torn@30,crash@40' (testing)",
        )
        .option(
            "--io-retries",
            "N",
            "total attempts per storage operation on transient errors; 1 = no retry (default: 3)",
        )
        .option(
            "--listen",
            "ADDR",
            "serve GET /status, /metrics, /progress on ADDR (e.g. 127.0.0.1:8900)",
        )
        .parse();

    let spool = Spool::new(args.value("--spool").unwrap_or("spool"));
    let mut config = DaemonConfig::new(spool.clone());
    config.jobs = args.jobs();
    config.drain = args.has("--drain");
    config.once = args.has("--once");
    config.poll_ms = parsed_ms(&args, "--poll-ms", config.poll_ms).max(1);
    config.backoff_base_ms = parsed_ms(&args, "--backoff-base-ms", config.backoff_base_ms).max(1);
    config.backoff_cap_ms =
        parsed_ms(&args, "--backoff-cap-ms", config.backoff_cap_ms).max(config.backoff_base_ms);
    if let Some(spec) = args.value("--fault-spec") {
        let schedule = FaultSchedule::parse(spec).unwrap_or_else(|e| {
            eprintln!("error: bad --fault-spec: {e}");
            std::process::exit(2);
        });
        config.storage = Arc::new(FaultStorage::new(schedule));
    }
    let attempts = parsed_ms(&args, "--io-retries", u64::from(RetryPolicy::default().attempts));
    config.io_retry = RetryPolicy {
        attempts: u32::try_from(attempts).unwrap_or_else(|_| {
            eprintln!("error: --io-retries expects at most {}, got {attempts}", u32::MAX);
            std::process::exit(2);
        }),
        ..RetryPolicy::default()
    };

    // The process black box: the panic hook dumps it into state/, and
    // the daemon routes it into every attempt (stall post-mortems).
    let guard = FlightGuard::install("pearl-serve", spool.state());
    config.flight = Some(guard.recorder());

    // Bind before the daemon starts so address errors (typo, port in
    // use) surface immediately instead of after recovery.
    let server = args.value("--listen").map(|addr| {
        let listener = TcpListener::bind(addr).unwrap_or_else(|e| {
            eprintln!("error: cannot listen on {addr}: {e}");
            std::process::exit(2);
        });
        let board = StatusBoard::new();
        config.status = Some(board.clone());
        // Read-only routes go through the real filesystem, never the
        // daemon's (possibly fault-injected) storage: a scrape must not
        // consume fault-schedule operations and shift crash points.
        let server = IntrospectionServer::start(
            listener,
            board,
            spool.progress_path(),
            pearl_telemetry::OsStorage::shared(),
        )
        .unwrap_or_else(|e| {
            eprintln!("error: cannot start introspection server: {e}");
            std::process::exit(2);
        });
        println!("pearl-serve: listening on http://{}", server.addr());
        server
    });

    println!(
        "pearl-serve: spool {} ({} worker{}, {})",
        spool.root().display(),
        config.jobs,
        if config.jobs == 1 { "" } else { "s" },
        if config.once {
            "single pass"
        } else if config.drain {
            "drain mode"
        } else {
            "daemon mode"
        },
    );

    let mut daemon = match Daemon::new(config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("error: cannot open spool: {e}");
            std::process::exit(1);
        }
    };
    match daemon.run() {
        Ok(summary) => {
            let mut scavenged = String::new();
            if summary.scavenged_tmp + summary.orphaned_specs + summary.torn_progress > 0 {
                scavenged = format!(
                    ", scavenged {} tmp / {} orphaned spec(s) / {} torn line(s)",
                    summary.scavenged_tmp, summary.orphaned_specs, summary.torn_progress,
                );
            }
            println!(
                "pearl-serve: {} completed, {} failed attempt(s), {} quarantined, \
                 {} rejected, {} cancelled, {} recovered{}{}",
                summary.completed,
                summary.failed_attempts,
                summary.quarantined,
                summary.rejected,
                summary.cancelled,
                summary.recovered,
                scavenged,
                if summary.shutdown { " (shutdown)" } else { "" },
            );
        }
        Err(e) => {
            eprintln!("error: daemon loop failed: {e}");
            std::process::exit(1);
        }
    }
    // The board holds the terminal state ("drained"/"stopped"); shut
    // the accept loop down only after the daemon published it.
    if let Some(server) = server {
        server.shutdown();
    }
    drop(guard);
}
