//! A hand-rolled work-stealing batch executor on `std::thread`.
//!
//! The container has no crates.io access, so this is deliberately std-only
//! (matching the vendored `proptest`/`criterion` shims). The model is batch
//! execution: all jobs are known up front, distributed round-robin across
//! per-worker deques, and each worker pops from the *front* of its own deque
//! (preserving locality and submission order) while stealing from the *back*
//! of the busiest other deque when it runs dry. Workers exit when every
//! deque is empty; [`run_batch`] returns once all jobs have finished.
//!
//! Determinism note: jobs may run in any order and on any thread, so callers
//! must only submit jobs whose *results* are order-independent (the memoized
//! simulation cells are — each cell is a pure function of its spec).

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one [`run_batch`] call did: scheduling counters for the run-level
/// metrics report. Host-time measurements only — batch *results* are
/// identical for every worker count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads actually used (≤ the requested count; 1 in serial
    /// mode).
    pub threads: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Jobs a worker stole from another worker's deque.
    pub steals: u64,
    /// Wall time of the whole batch.
    pub wall: Duration,
    /// Summed per-worker time spent inside jobs (≤ `threads × wall`).
    pub busy: Duration,
    /// Deepest initial per-worker queue (round-robin distribution, so
    /// `ceil(jobs / threads)`).
    pub max_queue_depth: usize,
}

impl PoolStats {
    /// Fraction of worker-seconds spent inside jobs (0.0 for an empty
    /// batch): `busy / (threads × wall)`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let denom = self.wall.as_secs_f64() * self.threads as f64;
        if self.jobs == 0 || denom <= 0.0 {
            0.0
        } else {
            (self.busy.as_secs_f64() / denom).min(1.0)
        }
    }

    /// Fold another batch's stats into this accumulator (wall times add;
    /// `threads` and `max_queue_depth` take the maximum).
    pub fn absorb(&mut self, other: &PoolStats) {
        self.threads = self.threads.max(other.threads);
        self.jobs += other.jobs;
        self.steals += other.steals;
        self.wall += other.wall;
        self.busy += other.busy;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
    }
}

/// Run every job, using up to `workers` OS threads. Returns scheduling
/// statistics for the batch.
///
/// `workers <= 1` (or a batch of one job) degenerates to serial in-order
/// execution on the calling thread — the `--workers 1` reference mode.
///
/// # Panics
/// A panicking job aborts the batch: the panic is propagated to the caller
/// once the surviving workers drain the remaining jobs.
pub fn run_batch<F: FnOnce() + Send>(workers: usize, jobs: Vec<F>) -> PoolStats {
    let started = Instant::now();
    if workers <= 1 || jobs.len() <= 1 {
        let n = jobs.len();
        for job in jobs {
            job();
        }
        let wall = started.elapsed();
        return PoolStats {
            threads: 1,
            jobs: n,
            steals: 0,
            wall,
            busy: wall,
            max_queue_depth: n,
        };
    }
    let n = workers.min(jobs.len());
    let total_jobs = jobs.len();
    let deques: Vec<Mutex<VecDeque<F>>> = (0..n).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        deques[i % n].lock().unwrap().push_back(job);
    }
    let max_queue_depth = total_jobs.div_ceil(n);
    let mut busy = Duration::ZERO;
    let mut steals = 0u64;
    std::thread::scope(|s| {
        let deques = &deques;
        let handles: Vec<_> = (0..n)
            .map(|me| s.spawn(move || worker(me, deques)))
            .collect();
        for h in handles {
            match h.join() {
                Ok((b, st)) => {
                    busy += b;
                    steals += st;
                }
                Err(p) => std::panic::resume_unwind(p),
            }
        }
    });
    PoolStats {
        threads: n,
        jobs: total_jobs,
        steals,
        wall: started.elapsed(),
        busy,
        max_queue_depth,
    }
}

fn worker<F: FnOnce()>(me: usize, deques: &[Mutex<VecDeque<F>>]) -> (Duration, u64) {
    let mut busy = Duration::ZERO;
    let mut steals = 0u64;
    loop {
        // Own work first, oldest first.
        let own = deques[me].lock().unwrap().pop_front();
        if let Some(job) = own {
            let t = Instant::now();
            job();
            busy += t.elapsed();
            continue;
        }
        // Steal from the fullest victim, youngest first, so two thieves
        // spread across different victims instead of racing on one.
        let victim = (0..deques.len())
            .filter(|&v| v != me)
            .max_by_key(|&v| deques[v].lock().unwrap().len());
        let stolen = victim.and_then(|v| deques[v].lock().unwrap().pop_back());
        match stolen {
            Some(job) => {
                steals += 1;
                let t = Instant::now();
                job();
                busy += t.elapsed();
            }
            None => return (busy, steals), // every deque observed empty
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn all_jobs_run_exactly_once() {
        for workers in [1, 2, 4, 8] {
            let hits = AtomicU64::new(0);
            let jobs: Vec<_> = (0..97u64)
                .map(|i| {
                    let hits = &hits;
                    move || {
                        hits.fetch_add(i + 1, Ordering::SeqCst);
                    }
                })
                .collect();
            run_batch(workers, jobs);
            assert_eq!(hits.load(Ordering::SeqCst), (1..=97).sum::<u64>());
        }
    }

    #[test]
    fn serial_mode_preserves_submission_order() {
        let order = Mutex::new(Vec::new());
        let jobs: Vec<_> = (0..10)
            .map(|i| {
                let order = &order;
                move || order.lock().unwrap().push(i)
            })
            .collect();
        run_batch(1, jobs);
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let hits = AtomicU64::new(0);
        let jobs: Vec<_> = (0..3)
            .map(|_| {
                let hits = &hits;
                move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                }
            })
            .collect();
        run_batch(64, jobs);
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let ps = run_batch(4, Vec::<fn()>::new());
        assert_eq!(ps.jobs, 0);
        assert_eq!(ps.utilization(), 0.0);
    }

    #[test]
    fn batch_stats_account_for_the_batch() {
        let jobs: Vec<_> = (0..10)
            .map(|_| || std::thread::sleep(std::time::Duration::from_millis(2)))
            .collect();
        let ps = run_batch(4, jobs);
        assert_eq!(ps.jobs, 10);
        assert_eq!(ps.threads, 4);
        assert_eq!(ps.max_queue_depth, 3); // ceil(10/4)
        assert!(ps.busy >= std::time::Duration::from_millis(15));
        assert!(ps.wall > std::time::Duration::ZERO);
        let u = ps.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u}");

        // Serial mode: one thread, fully busy.
        let ps1 = run_batch(1, vec![|| (), || ()]);
        assert_eq!((ps1.threads, ps1.jobs, ps1.steals), (1, 2, 0));

        let mut acc = PoolStats::default();
        acc.absorb(&ps);
        acc.absorb(&ps1);
        assert_eq!(acc.jobs, 12);
        assert_eq!(acc.threads, 4);
    }

    /// Worker death mid-batch: a panicking job kills its worker thread, but
    /// every other job still runs (survivors steal the dead worker's queue)
    /// and the panic reaches the caller.
    #[test]
    fn worker_death_mid_batch_drains_and_propagates() {
        let hits = AtomicU64::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..40u64)
            .map(|i| {
                let hits = &hits;
                Box::new(move || {
                    if i == 3 {
                        panic!("worker down");
                    }
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_batch(4, jobs)));
        assert!(r.is_err(), "the job panic must propagate");
        assert_eq!(
            hits.load(Ordering::SeqCst),
            39,
            "every non-panicking job must still run (queued jobs are never dropped)"
        );
    }

    /// Zero-length batch submission: a no-op with internally consistent
    /// stats.
    #[test]
    fn zero_length_batch_stats_are_consistent() {
        let ps = run_batch(4, Vec::<fn()>::new());
        assert_eq!((ps.jobs, ps.steals), (0, 0));
        assert_eq!(ps.threads, 1, "an empty batch runs inline");
        assert_eq!(ps.max_queue_depth, 0);
        assert_eq!(ps.utilization(), 0.0);
        assert!(ps.busy <= ps.wall + Duration::from_millis(1));
    }
}
