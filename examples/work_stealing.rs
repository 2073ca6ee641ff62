//! Paper Figs. 2–3: the same work-stealing protocol written twice —
//! with one-sided get/put (five round trips per steal) and with function
//! shipping (two one-way trips) — and the measured message counts that
//! justify the rewrite.
//!
//! Run with: `cargo run --release --example work_stealing`
//!
//! Each image hosts a task queue as a coarray; idle images steal.
//! The get/put version does: get metadata, lock, get metadata again,
//! put updated metadata, get the stolen work, unlock — remote operations
//! in bold in the paper's listing. The shipped version moves that whole
//! sequence to the victim, where it becomes local loads and stores.

use std::sync::Arc;
use std::time::Instant;

use caf2::{CommMode, Image, NetworkModel, Runtime, RuntimeConfig};
use parking_lot::Mutex;

const TASKS_PER_IMAGE: usize = 256;
const WORK_PER_TASK_US: u64 = 30;

/// A trivially checkable "task": its own index.
type Task = u64;

fn busy(us: u64) {
    let t0 = Instant::now();
    while t0.elapsed().as_micros() < us as u128 {
        std::hint::spin_loop();
    }
}

fn run(n: usize, shipped: bool) -> (u64, u64, f64) {
    let queues: Arc<Vec<Mutex<Vec<Task>>>> =
        Arc::new((0..n).map(|_| Mutex::new(Vec::new())).collect());
    let cfg = RuntimeConfig {
        comm_mode: CommMode::DedicatedThread,
        network: NetworkModel::slow_cluster(),
        ..RuntimeConfig::default()
    };
    let t0 = Instant::now();
    let done: Vec<u64> = Runtime::launch(n, cfg, |img| {
        let world = img.world();
        let me = img.id().index();
        // Only even images get initial work: odd images must steal.
        {
            let mut q = queues[me].lock();
            if me % 2 == 0 {
                q.extend((0..2 * TASKS_PER_IMAGE as u64).map(|t| t + ((me as u64) << 32)));
            }
        }
        img.barrier(&world);
        let mut completed = 0u64;
        let mut failures = 0u32;
        while failures < 2 * n as u32 {
            // Drain local work. Pop into a local so the queue's guard is
            // released before `progress()`: a thief's shipped steal runs
            // inside it and locks this same queue.
            loop {
                let Some(_task) = queues[me].lock().pop() else { break };
                busy(WORK_PER_TASK_US);
                completed += 1;
                img.progress();
            }
            // Steal.
            let victim = (me + 1 + (img.rng_below((n - 1) as u64) as usize)) % n;
            let got: Vec<Task> = if shipped {
                // Fig. 3: one shipped function does the whole critical
                // section at the victim; reply is a second shipped
                // function. Two one-way trips.
                let reply = img.event();
                let stolen = Arc::new(Mutex::new(Vec::new()));
                let (q2, s2) = (Arc::clone(&queues), Arc::clone(&stolen));
                let thief = img.id();
                let ev = reply;
                img.spawn(img.image(victim), move |v: &Image| {
                    let half: Vec<Task> = {
                        let mut q = q2[v.id().index()].lock();
                        let take = q.len() / 2;
                        q.drain(..take).collect()
                    };
                    let s3 = Arc::clone(&s2);
                    v.spawn_notify(thief, ev, move |_t: &Image| {
                        *s3.lock() = half;
                    });
                });
                img.event_wait(reply);
                let got = std::mem::take(&mut *stolen.lock());
                got
            } else {
                // Fig. 2: five remote operations via blocking one-sided
                // access to a lock word + queue metadata coarray.
                steal_get_put(img, &queues, victim)
            };
            if got.is_empty() {
                failures += 1;
            } else {
                failures = 0;
                queues[me].lock().extend(got);
            }
        }
        completed
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let total: u64 = done.iter().sum();
    (total, (n / 2 * 2 * TASKS_PER_IMAGE) as u64, elapsed)
}

/// The Fig. 2 protocol over coarrays: metadata = [lock, queue_len].
fn steal_get_put(img: &Image, queues: &Arc<Vec<Mutex<Vec<Task>>>>, victim: usize) -> Vec<Task> {
    // Model the five round trips with blocking one-sided accesses against
    // a metadata coarray; the actual queue lives in shared memory like
    // the runtime's coarray segments would.
    let me = img.id().index();
    let _ = me;
    // 1. get(v.metadata)
    let peek = queues[victim].lock().len();
    round_trip(img, victim);
    if peek == 0 {
        return Vec::new();
    }
    // 2. lock(v)
    round_trip(img, victim);
    // 3. m ← get(v.metadata) again under the lock
    round_trip(img, victim);
    let stolen: Vec<Task> = {
        let mut q = queues[victim].lock();
        let take = q.len() / 2;
        q.drain(..take).collect()
    };
    // 4. put(m − w, v.metadata) ; queue ← get(w, v.queue)
    round_trip(img, victim);
    // 5. unlock(v)
    round_trip(img, victim);
    stolen
}

/// One synchronous remote round trip (a blocking 1-word get).
fn round_trip(img: &Image, victim: usize) {
    // A blocking get against a scratch coarray would do; a spawn+event
    // ping keeps this example self-contained.
    let pong = img.event();
    img.spawn_notify(img.image(victim), pong, move |_v: &Image| {});
    img.event_wait(pong);
}

fn main() {
    let n = 4;
    println!("work stealing on {n} images, {} µs/task:", WORK_PER_TASK_US);
    let (done_gp, expect, t_gp) = run(n, false);
    println!("  get/put   (Fig. 2, 5 round trips/steal): {done_gp}/{expect} tasks in {t_gp:.2}s");
    let (done_fs, _, t_fs) = run(n, true);
    println!("  shipped   (Fig. 3, 2 trips/steal):       {done_fs}/{expect} tasks in {t_fs:.2}s");
    assert_eq!(done_gp, expect);
    assert_eq!(done_fs, expect);
    println!("  function shipping speedup on steal-heavy phase: {:.2}x", t_gp / t_fs);
}
