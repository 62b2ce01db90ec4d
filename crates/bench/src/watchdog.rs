//! Forward-progress watchdog for long experiment runs.
//!
//! A hung simulation (a flow-control deadlock, a checkpoint restored
//! into an inconsistent state) used to burn the full CI time budget
//! before anyone noticed. [`run_watched`] drives any [`Watchable`]
//! network (both simulators, or a test fake) in chunks and fails with a
//! typed [`StallError`] as soon as a whole window of cycles passes
//! without a single packet draining.

use pearl_telemetry::Watchable;

/// Cycles without a delivery after which a run counts as stalled. Under
/// the heaviest fault sweeps the closed-loop workloads still deliver
/// well within a few thousand cycles, so 10 000 is conservatively
/// outside normal behavior at any configuration this crate runs.
pub const DEFAULT_STALL_WINDOW: u64 = 10_000;

/// A run that stopped making forward progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallError {
    /// Cycle count of the network when the watchdog gave up.
    pub at_cycle: u64,
    /// Size of the progress window that elapsed without a delivery.
    pub window: u64,
    /// Total packets delivered before the stall.
    pub delivered: u64,
}

impl std::fmt::Display for StallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no packet delivered for {} cycles (at cycle {}, {} delivered so far)",
            self.window, self.at_cycle, self.delivered
        )
    }
}

impl std::error::Error for StallError {}

/// Why a controlled run ([`run_watched_with`]) stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchError {
    /// The forward-progress watchdog fired.
    Stalled(StallError),
    /// The per-chunk controller asked to abort (deadline exceeded,
    /// cancellation, graceful shutdown, …) with a reason string.
    Aborted {
        /// Cycle at which the controller aborted the run.
        at_cycle: u64,
        /// The controller's reason.
        reason: String,
    },
}

impl std::fmt::Display for WatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WatchError::Stalled(e) => write!(f, "{e}"),
            WatchError::Aborted { at_cycle, reason } => {
                write!(f, "run aborted at cycle {at_cycle}: {reason}")
            }
        }
    }
}

impl std::error::Error for WatchError {}

/// Runs `cycles` cycles, checking every `window` cycles that at least
/// one packet drained somewhere in the window.
///
/// Runs shorter than one window are never flagged (a fresh network
/// legitimately delivers nothing for the first few hundred cycles).
///
/// # Errors
///
/// [`StallError`] naming the cycle and delivery count at which forward
/// progress stopped. The network is left at the failing cycle for
/// post-mortem inspection.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn run_watched<N: Watchable + ?Sized>(
    net: &mut N,
    cycles: u64,
    window: u64,
) -> Result<(), StallError> {
    match run_watched_with(net, cycles, window, |_| std::ops::ControlFlow::Continue(())) {
        Ok(()) => Ok(()),
        Err(WatchError::Stalled(e)) => Err(e),
        // Unreachable: the no-op controller never aborts.
        Err(WatchError::Aborted { .. }) => unreachable!("no-op controller aborted"),
    }
}

/// Runs `cycles` cycles under the stall watchdog, invoking `control`
/// after every `window`-sized chunk with the network paused at a
/// consistent cycle boundary. The controller is where a caller hangs
/// per-job policy: per-attempt deadlines, cancellation checks, periodic
/// checkpoints (`pearl-serve` does all three). Returning
/// `ControlFlow::Break(reason)` stops the run with
/// [`WatchError::Aborted`]; the network is left at the abort cycle so
/// the caller can checkpoint or post-mortem it.
///
/// # Errors
///
/// [`WatchError::Stalled`] when a whole window passes without a
/// delivery, [`WatchError::Aborted`] when the controller breaks.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn run_watched_with<N: Watchable + ?Sized>(
    net: &mut N,
    cycles: u64,
    window: u64,
    mut control: impl FnMut(&mut N) -> std::ops::ControlFlow<String>,
) -> Result<(), WatchError> {
    assert!(window > 0, "watchdog window must be non-zero");
    let mut remaining = cycles;
    let mut delivered = net.delivered_packets();
    let mut quiet = 0u64;
    while remaining > 0 {
        let chunk = remaining.min(window);
        net.advance(chunk);
        remaining -= chunk;
        let d = net.delivered_packets();
        if d > delivered {
            delivered = d;
            quiet = 0;
        } else {
            quiet += chunk;
            if quiet >= window {
                return Err(WatchError::Stalled(StallError {
                    at_cycle: net.cycle(),
                    window,
                    delivered,
                }));
            }
        }
        if let std::ops::ControlFlow::Break(reason) = control(net) {
            return Err(WatchError::Aborted { at_cycle: net.cycle(), reason });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pearl_cmesh::CmeshBuilder;
    use pearl_core::{NetworkBuilder, PearlPolicy};
    use pearl_telemetry::Simulator;
    use pearl_workloads::BenchmarkPair;
    use std::ops::ControlFlow;

    /// A network that delivers steadily for a while, then hangs.
    struct HangsAfter {
        cycle: u64,
        hang_at: u64,
        delivered: u64,
    }

    impl Watchable for HangsAfter {
        fn advance(&mut self, cycles: u64) {
            for _ in 0..cycles {
                self.cycle += 1;
                if self.cycle <= self.hang_at {
                    self.delivered += 1;
                }
            }
        }
        fn delivered_packets(&self) -> u64 {
            self.delivered
        }
        fn cycle(&self) -> u64 {
            self.cycle
        }
    }

    #[test]
    fn healthy_pearl_run_passes() {
        let mut net = NetworkBuilder::new()
            .policy(PearlPolicy::dyn_64wl())
            .seed(3)
            .build(BenchmarkPair::test_pairs()[0]);
        run_watched(&mut net, 5_000, 1_000).unwrap();
        assert_eq!(net.stats().cycles(), 5_000);
    }

    #[test]
    fn stall_is_detected_with_typed_error() {
        let mut net = HangsAfter { cycle: 0, hang_at: 2_500, delivered: 0 };
        let err = run_watched(&mut net, 50_000, 1_000).unwrap_err();
        assert_eq!(err.window, 1_000);
        assert_eq!(err.delivered, 2_500);
        // Flagged within two windows of the hang, not at the run's end.
        assert!(err.at_cycle <= 4_500, "stall flagged too late: {err}");
        let text = err.to_string();
        assert!(text.contains("no packet delivered"));
    }

    #[test]
    fn runs_shorter_than_a_window_are_not_flagged() {
        let mut net = HangsAfter { cycle: 0, hang_at: 0, delivered: 0 };
        run_watched(&mut net, 500, 1_000).unwrap();
    }

    #[test]
    fn controller_runs_once_per_chunk_and_can_abort() {
        let mut net = HangsAfter { cycle: 0, hang_at: u64::MAX, delivered: 0 };
        let mut chunks = 0u64;
        run_watched_with(&mut net, 5_000, 1_000, |_| {
            chunks += 1;
            std::ops::ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(chunks, 5);
        assert_eq!(net.cycle(), 5_000);

        // Aborting mid-run leaves the network at the abort boundary.
        let mut net = HangsAfter { cycle: 0, hang_at: u64::MAX, delivered: 0 };
        let err = run_watched_with(&mut net, 5_000, 1_000, |n| {
            if n.cycle() >= 2_000 {
                std::ops::ControlFlow::Break("deadline exceeded".to_string())
            } else {
                std::ops::ControlFlow::Continue(())
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            WatchError::Aborted { at_cycle: 2_000, reason: "deadline exceeded".into() }
        );
        assert_eq!(net.cycle(), 2_000);
        assert!(err.to_string().contains("deadline exceeded"));
    }

    /// The chunk boundary is an observer seam: snapshotting there leaves
    /// either network on its plain run's trajectory, whether the chunk
    /// divides the run or the run ends on a short chunk.
    #[test]
    fn boundary_snapshots_keep_chunked_runs_identical_to_plain_runs() {
        let pair = BenchmarkPair::test_pairs()[0];
        let pearl = || -> Box<dyn Simulator> {
            Box::new(NetworkBuilder::new().policy(PearlPolicy::reactive(500)).seed(9).build(pair))
        };
        let cmesh = || -> Box<dyn Simulator> { Box::new(CmeshBuilder::new().seed(5).build(pair)) };
        let builds: [&dyn Fn() -> Box<dyn Simulator>; 2] = [&pearl, &cmesh];
        for build in builds {
            let mut plain = build();
            plain.advance(6_000);
            let chunkings = [
                (1_000, &[1_000, 2_000, 3_000, 4_000, 5_000, 6_000][..]),
                (2_500, &[2_500, 5_000, 6_000]),
            ];
            for (chunk, boundaries) in chunkings {
                let mut net = build();
                let mut seen = Vec::new();
                run_watched_with(net.as_mut(), 6_000, chunk, |n| {
                    seen.push(n.cycle());
                    let _ = n.snapshot();
                    ControlFlow::Continue(())
                })
                .unwrap();
                assert_eq!(seen, boundaries, "one controller call per {chunk}-cycle chunk");
                assert_eq!(net.state_hash(), plain.state_hash());
                assert_eq!(net.delivered_packets(), plain.delivered_packets());
                assert_eq!(net.summary_json().to_string(), plain.summary_json().to_string());
            }
        }
    }

    #[test]
    fn controlled_stall_reports_through_watcherror() {
        let mut net = HangsAfter { cycle: 0, hang_at: 2_500, delivered: 0 };
        let err =
            run_watched_with(&mut net, 50_000, 1_000, |_| std::ops::ControlFlow::Continue(()))
                .unwrap_err();
        assert!(matches!(err, WatchError::Stalled(_)));
    }
}
