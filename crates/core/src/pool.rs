//! Deterministic parallel job pool.
//!
//! The experiment harness and the ML trainer both run embarrassingly
//! parallel batches: a grid of (configuration × benchmark pair)
//! simulations, or a training pass's collection runs, whose seeds are
//! fixed up front and whose results are only combined after all runs
//! finish. [`JobPool`] executes such a batch on `N` worker threads
//! while keeping the *output* bit-identical to the sequential reference
//! path:
//!
//! - jobs are indexed `0..count` before any thread starts, so the
//!   work-list (and every job's seed) never depends on scheduling;
//! - each job computes an independent result value — no shared mutable
//!   state, no printing, no artifact writes inside a job;
//! - results are committed into an index-ordered vector, so callers
//!   observe exactly the sequence the `--jobs 1` path produces.
//!
//! The pool is hand-rolled on [`std::thread::scope`] — no dependencies,
//! no global executor — and work-steals from a shared atomic cursor so
//! an unlucky slow job (e.g. an ML-policy run) does not stall the other
//! workers. A panicking job propagates its payload to the caller after
//! the scope unwinds, exactly like the sequential loop would.
//!
//! Two execution modes share that machinery:
//!
//! - [`JobPool::run`] / [`JobPool::map`] — **fail-fast**: a panicking
//!   job aborts the whole batch via `resume_unwind`. This is the right
//!   contract for the figure/table experiments and for training, where
//!   a panic means the computation itself is broken and partial output
//!   would be misleading.
//! - [`JobPool::run_supervised`] — **supervised**: [`JobPool::run`]
//!   over jobs wrapped in [`std::panic::catch_unwind`], returning
//!   `Result<T, JobError>` with the panic payload stringified and the
//!   job's index and seed attached. One poisoned job cannot take down
//!   its batch — the contract `pearl-serve` needs to keep draining a
//!   queue past a panicking experiment.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A supervised job that panicked instead of returning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Index of the failed job in its batch.
    pub index: usize,
    /// The seed the job ran with (as reported by the caller's seed map).
    pub seed: u64,
    /// The panic payload, stringified (`&str`/`String` payloads verbatim,
    /// anything else a placeholder).
    pub message: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} (seed {}) panicked: {}", self.index, self.seed, self.message)
    }
}

impl std::error::Error for JobError {}

/// Stringifies a panic payload (the common `&str` / `String` cases
/// verbatim, anything else a placeholder naming the situation).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A fixed-width pool running indexed jobs with deterministic output
/// order.
#[derive(Debug, Clone)]
pub struct JobPool {
    jobs: usize,
}

impl JobPool {
    /// Creates a pool with `jobs` workers, clamped to at least 1.
    /// `JobPool::new(1)` is the sequential reference path: jobs run
    /// in index order on the calling thread.
    pub fn new(jobs: usize) -> JobPool {
        JobPool { jobs: jobs.max(1) }
    }

    /// A pool sized to the machine ([`available_parallelism`], 1 when
    /// unknown).
    ///
    /// [`available_parallelism`]: std::thread::available_parallelism
    pub fn machine_sized() -> JobPool {
        JobPool::new(available_jobs())
    }

    /// Worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `count` indexed jobs and returns their results in job-index
    /// order — byte-identical to `(0..count).map(job).collect()` for
    /// any worker count, provided `job` is a pure function of its
    /// index.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any job (after the scope joins all
    /// workers), like the sequential loop would.
    pub fn run<T, F>(&self, count: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.jobs == 1 || count <= 1 {
            return (0..count).map(job).collect();
        }
        let next = AtomicUsize::new(0);
        let workers = self.jobs.min(count);
        let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= count {
                                break;
                            }
                            done.push((i, job(i)));
                        }
                        done
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(done) => {
                        for (i, value) in done {
                            slots[i] = Some(value);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        slots.into_iter().map(|slot| slot.expect("every job index committed")).collect()
    }

    /// Runs `count` indexed jobs like [`JobPool::run`], but isolates
    /// each job's panics: the result vector holds `Ok(value)` for jobs
    /// that returned and `Err(JobError)` — panic payload stringified,
    /// job index and seed attached — for jobs that panicked. The batch
    /// always completes; result order is job-index order for any worker
    /// count. `seed_of(i)` reports job `i`'s seed for attribution only
    /// (pass the same seed map the jobs themselves use).
    ///
    /// # Panics
    ///
    /// A worker panic outside the job body (a pool bug, not a job
    /// failure) is re-raised as [`JobPool::run`] does; it is never
    /// swallowed.
    pub fn run_supervised<T, F, S>(
        &self,
        count: usize,
        seed_of: S,
        job: F,
    ) -> Vec<Result<T, JobError>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        S: Fn(usize) -> u64 + Sync,
    {
        self.run(count, |i| {
            catch_unwind(AssertUnwindSafe(|| job(i))).map_err(|payload| JobError {
                index: i,
                seed: seed_of(i),
                message: panic_message(payload.as_ref()),
            })
        })
    }

    /// Maps `f` over `items` on the pool, preserving item order.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.run(items.len(), |i| f(i, &items[i]))
    }
}

/// The machine's available parallelism (1 when it cannot be queried).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn worker_count_is_clamped_to_one() {
        assert_eq!(JobPool::new(0).jobs(), 1);
        assert_eq!(JobPool::new(5).jobs(), 5);
        assert!(JobPool::machine_sized().jobs() >= 1);
    }

    #[test]
    fn one_worker_runs_every_job_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = JobPool::new(1).run(5, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn results_arrive_in_job_index_order_for_any_width() {
        let sequential = JobPool::new(1).run(17, |i| i * i);
        for jobs in [2, 3, 4, 8, 32] {
            assert_eq!(JobPool::new(jobs).run(17, |i| i * i), sequential, "jobs={jobs}");
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits: Vec<AtomicU64> = (0..50).map(|_| AtomicU64::new(0)).collect();
        let out = JobPool::new(4).run(50, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn map_preserves_item_order() {
        let items = ["a", "bb", "ccc"];
        let out = JobPool::new(3).map(&items, |i, s| (i, s.len()));
        assert_eq!(out, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn empty_and_singleton_work_on_any_width() {
        assert_eq!(JobPool::new(4).run(0, |i| i), Vec::<usize>::new());
        assert_eq!(JobPool::new(4).run(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn job_panic_propagates_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            JobPool::new(3).run(8, |i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
                i
            })
        });
        let payload = result.unwrap_err();
        let text = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(text, "job 5 exploded");
    }

    #[test]
    fn supervised_mode_isolates_panics_and_finishes_the_batch() {
        for jobs in [1, 4] {
            let out = JobPool::new(jobs).run_supervised(
                8,
                |i| 100 + i as u64,
                |i| {
                    if i == 3 {
                        panic!("poison job {i}");
                    }
                    if i == 6 {
                        // Non-&str payload exercises the String path.
                        std::panic::panic_any(format!("formatted poison {i}"));
                    }
                    i * 2
                },
            );
            assert_eq!(out.len(), 8, "jobs={jobs}");
            for (i, result) in out.iter().enumerate() {
                match (i, result) {
                    (3, Err(e)) => {
                        assert_eq!(e.index, 3);
                        assert_eq!(e.seed, 103);
                        assert_eq!(e.message, "poison job 3");
                        assert!(e.to_string().contains("seed 103"));
                    }
                    (6, Err(e)) => assert_eq!(e.message, "formatted poison 6"),
                    (_, Ok(v)) => assert_eq!(*v, i * 2),
                    (_, Err(e)) => panic!("job {i} unexpectedly failed: {e}"),
                }
            }
        }
    }

    #[test]
    fn fail_fast_mode_still_aborts_the_sweep() {
        // The figure/table contract is unchanged: without supervision a
        // job panic propagates out of `run` after the scope joins.
        let result = std::panic::catch_unwind(|| {
            JobPool::new(4).run(8, |i| {
                if i == 2 {
                    panic!("fail-fast");
                }
                i
            })
        });
        assert_eq!(panic_message(result.unwrap_err().as_ref()), "fail-fast");
    }

    #[test]
    fn supervised_matches_fail_fast_when_nothing_panics() {
        let seq: Vec<_> = JobPool::new(1)
            .run_supervised(17, |i| i as u64, |i| i * i)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(seq, JobPool::new(4).run(17, |i| i * i));
    }

    #[test]
    fn pool_results_match_sequential_for_nontrivial_work() {
        // A job whose result depends only on its index, not on timing.
        let work = |i: usize| -> u64 {
            let mut acc = i as u64 + 1;
            for _ in 0..1_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            }
            acc
        };
        assert_eq!(JobPool::new(4).run(23, work), JobPool::new(1).run(23, work));
    }
}
