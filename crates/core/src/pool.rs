//! The one worker primitive: every exec and check worker thread in the
//! workspace is started here. Three shapes cover every caller:
//!
//! * [`for_each`] runs a function over one shared source of items on exactly
//!   `workers` scoped threads while the caller only waits. Workers pull the
//!   next item when they finish the last one, so skewed item costs never
//!   leave a thread idle. A worker panic stops the others pulling and is
//!   re-raised on the caller with its original payload.
//! * [`map`] is `for_each` over the indices of a slice: each result is
//!   written into its index's slot, so the output is in input order with no
//!   queue and no reorder buffer.
//! * [`WorkPool`] is a long-lived background `for_each` over a channel of
//!   jobs, for a server whose sessions submit work as it arrives. A
//!   panicking job is caught and counted; the worker moves on.
//!
//! Every item or job runs under one `pool_job` span, and the
//! `sibylfs_pool_*` metrics tally workers, jobs, busy time and, for
//! [`WorkPool`], queue depth and queue wait.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::obs;

/// Lock a mutex, riding through poisoning: a panicking job must not wedge
/// the work of every other job that shares the lock.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `f` on every item of `items`, using exactly `workers` threads (at
/// least one) that pull from `items` in turn; returns once every item is
/// done. If `f` panics, the other workers finish the item in hand and stop,
/// and the first panic is re-raised here.
pub fn for_each<I, F>(workers: usize, items: I, f: F)
where
    I: Iterator + Send,
    F: Fn(I::Item) + Sync,
{
    let workers = workers.max(1);
    let source = Mutex::new(items);
    let stop = AtomicBool::new(false);
    obs::m::POOL_WORKERS.add(workers as i64);
    let panic = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("sibylfs-pool-{i}"))
                    .spawn_scoped(scope, || work(&source, &stop, &f))
                    .unwrap_or_else(|e| panic!("failed to spawn pool worker: {e}"))
            })
            .collect();
        // Join every worker, keeping the first panic.
        handles.into_iter().map(|h| h.join()).fold(None, |first, r| first.or(r.err()))
    });
    obs::m::POOL_WORKERS.add(-(workers as i64));
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

fn work<I: Iterator, F: Fn(I::Item)>(source: &Mutex<I>, stop: &AtomicBool, f: &F) {
    while !stop.load(Relaxed) {
        let Some(item) = lock(source).next() else { return };
        let started = Instant::now();
        let span = obs::span("pool", "pool_job");
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(item))) {
            // Stop the other workers pulling, so the caller re-raises soon.
            stop.store(true, Relaxed);
            resume_unwind(payload);
        }
        drop(span);
        let busy = started.elapsed();
        obs::m::POOL_JOB_RUN_NS.record_duration(busy);
        obs::m::POOL_BUSY_NS_TOTAL.add(u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX));
    }
}

/// Apply `f` to every element of `items` on up to `workers` threads and
/// return the results in input order. Panics as [`for_each`] does.
pub fn map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    obs::m::POOL_JOBS_TOTAL.add(items.len() as u64);
    for_each(workers.min(items.len()), 0..items.len(), |i| {
        let r = f(&items[i]);
        *lock(&slots[i]) = Some(r);
    });
    slots
        .into_iter()
        .map(|slot| match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(r) => r,
            // for_each returns normally only after every index ran.
            None => unreachable!("every slot is filled"),
        })
        .collect()
}

type Job = Box<dyn FnOnce() + Send>;

/// A fixed set of worker threads that live as long as the pool, running
/// submitted jobs in submission order as workers come free. Dropping the
/// pool runs every job already submitted, then joins the workers, so a job
/// must not own the pool it runs on.
pub struct WorkPool {
    jobs: Option<Sender<(Instant, Job)>>,
    queued: Arc<AtomicUsize>,
    workers: usize,
    runner: Option<JoinHandle<()>>,
}

impl WorkPool {
    /// Start a pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> WorkPool {
        let workers = workers.max(1);
        let (tx, rx) = channel::<(Instant, Job)>();
        let queued = Arc::new(AtomicUsize::new(0));
        let picked_up = Arc::clone(&queued);
        let runner = std::thread::Builder::new()
            .name("sibylfs-pool".to_string())
            .spawn(move || {
                for_each(workers, rx.into_iter(), |(submitted_at, job): (Instant, Job)| {
                    picked_up.fetch_sub(1, Relaxed);
                    obs::m::POOL_QUEUE_DEPTH.dec();
                    obs::m::POOL_JOB_WAIT_NS.record_duration(submitted_at.elapsed());
                    // The pool outlives any one session's bugs: a panicking
                    // job is tallied and the worker moves on. Metrics are
                    // relaxed atomics, so unwinding cannot poison them.
                    if catch_unwind(AssertUnwindSafe(job)).is_err() {
                        obs::m::POOL_JOBS_PANICKED.inc();
                    }
                })
            })
            .unwrap_or_else(|e| panic!("failed to spawn pool runner: {e}"));
        WorkPool { jobs: Some(tx), queued, workers, runner: Some(runner) }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Jobs submitted but not yet picked up by a worker.
    pub fn queued(&self) -> usize {
        self.queued.load(Relaxed)
    }

    /// Queue `job`; it runs on a worker thread. Jobs complete in whatever
    /// order workers finish them, so callers needing ordered results
    /// sequence them on their side.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.queued.fetch_add(1, Relaxed);
        obs::m::POOL_JOBS_TOTAL.inc();
        obs::m::POOL_QUEUE_DEPTH.inc();
        if let Some(jobs) = &self.jobs {
            // The workers hold the receiver until the pool drops, so the
            // send cannot fail while `self` is alive.
            let _ = jobs.send((Instant::now(), Box::new(job)));
        }
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        // Closing the channel lets the workers drain it and return.
        self.jobs = None;
        if let Some(runner) = self.runner.take() {
            let _ = runner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// The metrics registry is process-global, so the tests that assert on
    /// `sibylfs_pool_*` deltas take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn map_returns_results_in_input_order() {
        let _serial = lock(&SERIAL);
        let items: Vec<u64> = (0..500).collect();
        for workers in [1, 3, 8] {
            // Skewed costs, so workers finish out of order.
            let out = map(workers, &items, |&i| {
                if i % 7 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
                i * i
            });
            assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(map(4, &[] as &[u64], |&i| i).is_empty());
    }

    #[test]
    fn a_worker_panic_reraises_on_the_caller_and_stops_the_rest() {
        // 10 s of work if the workers ignored the panic; the panic hook
        // (which may print a backtrace) runs before the others are told.
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for_each(2, 0..10_000, |i| {
                ran.fetch_add(1, Relaxed);
                if i == 10 {
                    panic!("job ten fails");
                }
                std::thread::sleep(Duration::from_millis(2));
            })
        }));
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job ten fails"));
        assert!(ran.load(Relaxed) < 10_000, "workers stop pulling after a panic");
    }

    #[test]
    fn callbacks_fire_once_per_submit() {
        let _serial = lock(&SERIAL);
        let fired = Arc::new(AtomicUsize::new(0));
        let pool = WorkPool::new(2);
        for _ in 0..64 {
            let fired = Arc::clone(&fired);
            pool.submit(move || {
                fired.fetch_add(1, Relaxed);
            });
        }
        drop(pool); // drop joins workers, draining the queue first
        assert_eq!(fired.load(Relaxed), 64);
    }

    #[test]
    fn pool_survives_a_panicking_callback() {
        let _serial = lock(&SERIAL);
        let panicked0 = obs::m::POOL_JOBS_PANICKED.get();
        // One worker, so the jobs after the panicking one run on the very
        // thread it panicked on, and only after the panic is tallied.
        let pool = WorkPool::new(1);
        pool.submit(|| panic!("hostile callback"));
        let (tx, rx) = mpsc::channel();
        for i in 0..16 {
            let tx = tx.clone();
            pool.submit(move || tx.send(i).unwrap());
        }
        let done: Vec<i32> = rx.iter().take(16).collect();
        assert_eq!(done.len(), 16);
        // The panic is tallied, and the metrics registry is not poisoned by
        // the unwinding path: a snapshot still renders.
        assert!(
            obs::m::POOL_JOBS_PANICKED.get() > panicked0,
            "a panicking job must increment sibylfs_pool_jobs_panicked"
        );
        let snap = obs::snapshot();
        assert!(snap.counter("sibylfs_pool_jobs_panicked").unwrap() > panicked0);
        assert!(snap.render().contains("sibylfs_pool_jobs_panicked"));
    }

    /// Load test for the pool's observability: stack jobs behind a blocked
    /// worker so the queue-depth gauge must rise, release it, and verify the
    /// queue drains and both latency histograms saw every job.
    #[test]
    fn pool_load_populates_queue_gauge_and_latency_histograms() {
        let _serial = lock(&SERIAL);
        let stacked = 16;
        let total = stacked + 1;
        let jobs0 = obs::m::POOL_JOBS_TOTAL.get();
        let wait0 = obs::m::POOL_JOB_WAIT_NS.count();
        let run0 = obs::m::POOL_JOB_RUN_NS.count();
        let busy0 = obs::m::POOL_BUSY_NS_TOTAL.get();

        // One worker, so every job after the first must queue behind it.
        let pool = WorkPool::new(1);
        let fired = Arc::new(AtomicUsize::new(0));
        let (release, blocked) = mpsc::channel::<()>();
        {
            let fired = Arc::clone(&fired);
            pool.submit(move || {
                blocked.recv().expect("release signal");
                fired.fetch_add(1, Relaxed);
            });
        }
        for _ in 0..stacked {
            let fired = Arc::clone(&fired);
            pool.submit(move || {
                fired.fetch_add(1, Relaxed);
            });
        }
        assert!(
            obs::m::POOL_QUEUE_DEPTH.high_water() >= stacked as i64,
            "queue gauge high-water {} after stacking {stacked} jobs behind a blocked worker",
            obs::m::POOL_QUEUE_DEPTH.high_water()
        );
        assert_eq!(obs::m::POOL_JOBS_TOTAL.get() - jobs0, total as u64);

        release.send(()).expect("worker is waiting");
        while fired.load(Relaxed) < total {
            std::thread::yield_now();
        }
        assert_eq!(pool.queued(), 0, "the queue must drain once the worker is released");
        drop(pool);

        assert!(
            obs::m::POOL_JOB_WAIT_NS.count() - wait0 >= total as u64,
            "every job records a queue-wait sample"
        );
        assert!(
            obs::m::POOL_JOB_RUN_NS.count() - run0 >= total as u64,
            "every job records a run-time sample"
        );
        assert!(obs::m::POOL_BUSY_NS_TOTAL.get() > busy0, "busy time must accumulate");
        let stat = obs::m::POOL_JOB_WAIT_NS.stat();
        assert!(stat.p50 <= stat.p95 && stat.p95 <= stat.p99, "quantiles are ordered");
    }
}
