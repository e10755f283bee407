//! Intra-stage worker pools: the `y_i` threads PP-Stream's resource
//! allocation assigns to each stage.

use crossbeam::channel::{unbounded, Sender};
use std::any::Any;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of persistent worker threads.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

impl WorkerPool {
    /// Spawns `size` worker threads (at least one).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let (tx, rx) = unbounded::<Job>();
        let workers = (0..size)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("pp-worker-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        WorkerPool { tx: Some(tx), workers, size }
    }

    /// A pool with no worker threads: `map_ranges` runs `f(0..count)`
    /// directly on the calling thread. For code that is *already* on a
    /// pool worker (e.g. per-item execution inside a cross-session
    /// batched dispatch) — a nested `map_ranges` onto the same pool
    /// would deadlock once every worker blocks waiting on a chunk only
    /// another worker could run.
    pub fn inline() -> Self {
        WorkerPool { tx: None, workers: Vec::new(), size: 1 }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs `f` over `count` items split into one contiguous range per
    /// worker (PP-Stream's output-tensor partitioning: each thread
    /// produces `1/yᵢ` of the output elements). Results are concatenated
    /// in index order. Blocks until all chunks complete.
    ///
    /// A panic inside `f` does not kill the worker thread or hang the
    /// caller: the panic is caught in the job, the remaining chunks
    /// still run, and `map_ranges` re-raises the **first chunk's
    /// original panic payload** on the calling thread once every chunk
    /// has finished — so `catch_unwind` above the pool (e.g. the
    /// poison-item quarantine boundary) sees the real message, not a
    /// generic one. The pool stays usable afterwards.
    pub fn map_ranges<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Range<usize>) -> Vec<T> + Send + Sync + 'static,
    {
        if count == 0 {
            return Vec::new();
        }
        if self.tx.is_none() {
            // Inline pool: no workers to dispatch to.
            return f(0..count);
        }
        self.map_chunks(count, count.div_ceil(self.size), f)
    }

    /// [`WorkerPool::map_ranges`] with the range length chosen by the
    /// caller: `f` runs over consecutive ranges of `chunk` items (the
    /// last may be shorter), queued in index order and taken by
    /// whichever worker is free next. With more ranges than workers a
    /// worker that is slowed down — a busy sibling hyperthread, a
    /// descheduled vCPU — ends up with fewer of them, so the call takes
    /// the pool's combined speed instead of waiting for its slowest
    /// half. For work with no per-range set-up; the ranges, and so the
    /// results, depend on `count` and `chunk` only, never on timing.
    /// Panics propagate as in `map_ranges`.
    pub fn map_chunks<T, F>(&self, count: usize, chunk: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Range<usize>) -> Vec<T> + Send + Sync + 'static,
    {
        if count == 0 {
            return Vec::new();
        }
        let chunk = chunk.clamp(1, count);
        let parts = count.div_ceil(chunk);
        let Some(tx) = self.tx.as_ref() else {
            return (0..parts).flat_map(|p| f(p * chunk..((p + 1) * chunk).min(count))).collect();
        };
        let f = Arc::new(f);
        let results: Arc<Vec<parking_lot::Mutex<Option<Vec<T>>>>> =
            Arc::new((0..parts).map(|_| parking_lot::Mutex::new(None)).collect());
        let remaining = Arc::new(AtomicUsize::new(parts));
        let panicked: Arc<parking_lot::Mutex<Option<Box<dyn Any + Send>>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let done = Arc::new((parking_lot::Mutex::new(false), parking_lot::Condvar::new()));

        for p in 0..parts {
            let start = p * chunk;
            let end = ((p + 1) * chunk).min(count);
            let f = Arc::clone(&f);
            let results = Arc::clone(&results);
            let remaining = Arc::clone(&remaining);
            let panicked = Arc::clone(&panicked);
            let done = Arc::clone(&done);
            let job: Job = Box::new(move || {
                // Contain a panicking chunk so the worker survives and
                // the caller is always woken; the first panic payload is
                // kept for re-raising on the calling thread.
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(start..end))) {
                    Ok(out) => *results[p].lock() = Some(out),
                    Err(payload) => {
                        panicked.lock().get_or_insert(payload);
                    }
                }
                if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let (lock, cvar) = &*done;
                    *lock.lock() = true;
                    cvar.notify_all();
                }
            });
            tx.send(job).expect("workers alive");
        }

        let (lock, cvar) = &*done;
        let mut finished = lock.lock();
        while !*finished {
            cvar.wait(&mut finished);
        }
        drop(finished);

        if let Some(payload) = panicked.lock().take() {
            std::panic::resume_unwind(payload);
        }

        let mut out = Vec::with_capacity(count);
        for cell in results.iter() {
            out.extend(cell.lock().take().expect("worker stored result"));
        }
        out
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Close the job channel so workers exit, then join them.
        self.tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_ranges_preserves_order() {
        let pool = WorkerPool::new(4);
        let out = pool.map_ranges(100, |r| r.map(|i| i * 2).collect());
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_pool() {
        let pool = WorkerPool::new(1);
        let out = pool.map_ranges(10, |r| r.collect());
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_items() {
        let pool = WorkerPool::new(3);
        let out: Vec<usize> = pool.map_ranges(0, |r| r.collect());
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items() {
        let pool = WorkerPool::new(8);
        let out = pool.map_ranges(3, |r| r.collect::<Vec<usize>>());
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn map_chunks_hands_out_the_documented_ranges_in_order() {
        let seen = |pool: &WorkerPool, count: usize, chunk: usize| -> Vec<(usize, usize)> {
            pool.map_chunks(count, chunk, |r| vec![(r.start, r.end)])
        };
        for pool in [WorkerPool::new(2), WorkerPool::inline()] {
            assert_eq!(seen(&pool, 10, 4), vec![(0, 4), (4, 8), (8, 10)]);
            assert_eq!(seen(&pool, 3, 1), vec![(0, 1), (1, 2), (2, 3)]);
            // A zero or oversized chunk is clamped, never an empty range.
            assert_eq!(seen(&pool, 3, 0), vec![(0, 1), (1, 2), (2, 3)]);
            assert_eq!(seen(&pool, 3, 99), vec![(0, 3)]);
            assert!(seen(&pool, 0, 4).is_empty());
            let out = pool.map_chunks(100, 7, |r| r.map(|i| i * 2).collect());
            assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_ranges_never_passes_an_inverted_range() {
        // 5 items on 4 workers: ranges of 2 cover them in three pieces;
        // a fourth would start past the end.
        let pool = WorkerPool::new(4);
        let data: Arc<Vec<usize>> = Arc::new((0..5).collect());
        let out = pool.map_ranges(5, move |r| data[r].to_vec());
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_stalled_worker_does_not_hold_the_other_ranges() {
        // Range 0 cannot finish before every other range has: with one
        // fixed share per worker the stalled worker's later ranges would
        // wait behind it and the call would only end at the time-out.
        let pool = WorkerPool::new(2);
        let others_done = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&others_done);
        let started = std::time::Instant::now();
        let out = pool.map_chunks(8, 1, move |r| {
            if r.start == 0 {
                while counter.load(Ordering::Acquire) < 7
                    && started.elapsed() < std::time::Duration::from_secs(20)
                {
                    std::thread::yield_now();
                }
            } else {
                counter.fetch_add(1, Ordering::AcqRel);
            }
            r.collect()
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(others_done.load(Ordering::Acquire), 7);
        assert!(started.elapsed() < std::time::Duration::from_secs(20), "ranges were not shared");
    }

    #[test]
    fn pool_is_reusable() {
        let pool = WorkerPool::new(2);
        for round in 0..5u64 {
            let out = pool.map_ranges(20, move |r| r.map(|i| i as u64 + round).collect());
            assert_eq!(out[0], round);
            assert_eq!(out.len(), 20);
        }
    }

    #[test]
    fn parallel_speedup_smoke() {
        // Not a benchmark — just checks that work actually runs on
        // multiple threads by observing distinct thread ids.
        let pool = WorkerPool::new(4);
        let ids = pool.map_ranges(4, |r| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            r.map(|_| format!("{:?}", std::thread::current().id())).collect()
        });
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert!(distinct.len() >= 2, "expected multiple worker threads");
    }

    #[test]
    fn size_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.size(), 1);
    }

    #[test]
    fn inline_pool_runs_on_the_calling_thread() {
        let pool = WorkerPool::inline();
        assert_eq!(pool.size(), 1);
        let caller = format!("{:?}", std::thread::current().id());
        let out = pool.map_ranges(5, move |r| {
            let here = format!("{:?}", std::thread::current().id());
            r.map(|i| (i, here == caller)).collect()
        });
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|&(_, same)| same), "inline work must not leave the caller");
        // Nesting inline dispatches is safe — nothing blocks on a queue.
        let nested = pool.map_ranges(2, |r| {
            r.map(|i| WorkerPool::inline().map_ranges(3, move |q| q.map(|j| i * 10 + j).collect()))
                .collect::<Vec<Vec<usize>>>()
        });
        assert_eq!(nested, vec![vec![0, 1, 2], vec![10, 11, 12]]);
    }

    #[test]
    fn panicking_job_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_ranges(8, |r| {
                r.map(|i| if i == 5 { panic!("bad chunk") } else { i }).collect::<Vec<_>>()
            })
        }));
        assert!(caught.is_err(), "panic in a job must reach the caller");
        // Workers caught the panic internally and keep serving jobs.
        let out = pool.map_ranges(10, |r| r.collect::<Vec<usize>>());
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn panic_payload_survives_propagation() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_ranges(8, |r| {
                r.map(|i| if i == 5 { panic!("poison at index {i}") } else { i })
                    .collect::<Vec<_>>()
            })
        }));
        let payload = caught.expect_err("panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("payload is a string");
        assert_eq!(msg, "poison at index 5", "original payload, not a generic re-panic");
    }

    #[test]
    fn panic_in_every_chunk_still_wakes_caller() {
        let pool = WorkerPool::new(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_ranges(4, |_| -> Vec<usize> { panic!("all chunks fail") })
        }));
        assert!(caught.is_err());
        assert_eq!(pool.map_ranges(3, |r| r.collect::<Vec<_>>()), vec![0, 1, 2]);
    }

    #[test]
    fn concurrent_submissions_share_the_pool() {
        // Several threads issue map_ranges on one pool at once, mixing
        // empty (count == 0) and count < size submissions with larger
        // ones; every caller must get its own complete, ordered result.
        let pool = Arc::new(WorkerPool::new(3));
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for round in 0..20usize {
                        let count = match (t + round) % 3 {
                            0 => 0,
                            1 => 2, // fewer items than workers
                            _ => 64,
                        };
                        let out = pool.map_ranges(count, move |r| {
                            r.map(|i| i * 7 + t).collect::<Vec<_>>()
                        });
                        assert_eq!(out, (0..count).map(|i| i * 7 + t).collect::<Vec<_>>());
                    }
                });
            }
        });
    }
}
