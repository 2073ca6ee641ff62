//! Direct probes of single layers: each drives one layer's public API
//! with nothing above it, so its figures hold that layer's cost alone.

use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use caf_core::config::{CommMode, NetworkModel};
use caf_core::fault::{FaultPlan, RetryPolicy};
use caf_core::ids::ImageId;
use caf_core::rng::SplitMix64;
use caf_core::termination::harness::{chain, Harness, SpawnPlan};
use caf_core::termination::EpochDetector;
use caf_des::Engine;
use caf_net::{CommPump, Fabric, Inbox};

use crate::report::Report;

/// Messages per push/pop batch: the depth a bounded inbox (512) stays
/// under.
const BATCH: usize = 256;
/// Batches per throughput probe.
const BATCHES: usize = 400;
/// Round trips per latency probe.
const TRIPS: usize = 2_000;
/// Parked-waiter wake-ups timed.
const WAKES: usize = 300;
/// Drop (and duplication) probability of the reliable probe: high enough
/// that retries and duplicates occur in every run.
const RELIABLE_DROP: f64 = 0.02;
/// Events the DES engine probe schedules and pops.
const DES_EVENTS: u64 = 200_000;

const A: ImageId = ImageId(0);
const B: ImageId = ImageId(1);

fn far() -> Instant {
    Instant::now() + Duration::from_secs(30)
}

fn ns_per(t: Duration, n: usize) -> f64 {
    t.as_nanos() as f64 / n as f64
}

/// `inbox.push_ns`, `inbox.pop_ns` and `inbox.wake_us`.
pub fn inbox(report: &mut Report) {
    let inbox = Inbox::<u64>::new();
    let (mut push, mut pop) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..BATCHES {
        let now = Instant::now();
        let t = Instant::now();
        for i in 0..BATCH {
            inbox.push(now, black_box(i as u64));
        }
        push += t.elapsed();
        let t = Instant::now();
        let mut got = 0;
        while let Some(m) = inbox.try_pop_due() {
            black_box(m);
            got += 1;
        }
        pop += t.elapsed();
        if got != BATCH {
            report.problem(format!("inbox returned {got} of {BATCH} due messages"));
        }
    }
    report.metric("inbox.push_ns", ns_per(push, BATCH * BATCHES), "ns");
    report.metric("inbox.pop_ns", ns_per(pop, BATCH * BATCHES), "ns");

    // Wake latency: the pushed message carries its push time; the waiter,
    // parked in pop_due_until, measures on return.
    let inbox = Inbox::<Instant>::new();
    let wakes: Vec<f64> = std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            (0..WAKES)
                .map(|_| {
                    let sent = inbox.pop_due_until(far()).expect("a wake-up within 30 s");
                    sent.elapsed().as_secs_f64() * 1e6
                })
                .collect()
        });
        for _ in 0..WAKES {
            // Long enough for the waiter to park again.
            std::thread::sleep(Duration::from_micros(200));
            inbox.push(Instant::now(), Instant::now());
        }
        waiter.join().expect("inbox waiter panicked")
    });
    report.median_metric("inbox.wake_us", &wakes, 1.0, "us");
}

/// Round trips between two threads over `fabric`, in µs.
fn pingpong(fabric: &Fabric<u64>) -> Vec<f64> {
    std::thread::scope(|s| {
        let echo = s.spawn(|| {
            for _ in 0..TRIPS {
                let m = fabric.recv_until(B, far()).expect("a ping within 30 s");
                fabric.send(B, A, 8, m);
            }
        });
        let rtts = (0..TRIPS as u64)
            .map(|i| {
                let t = Instant::now();
                fabric.send(A, B, 8, i);
                let back = fabric.recv_until(A, far()).expect("a pong within 30 s");
                assert_eq!(back, i, "pong out of order");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        echo.join().expect("echo thread panicked");
        rtts
    })
}

/// `fabric.send_ns`, `fabric.recv_ns` and `fabric.pingpong_us` on the raw
/// (lossless) fabric with the zero-latency model.
pub fn fabric(report: &mut Report) {
    let fabric = Fabric::<u64>::new(2, NetworkModel::instant(), false);
    let (mut send, mut recv) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for i in 0..BATCH {
            fabric.send(A, B, 8, black_box(i as u64));
        }
        send += t.elapsed();
        let t = Instant::now();
        let mut got = 0;
        while let Some(m) = fabric.try_recv(B) {
            black_box(m);
            got += 1;
        }
        recv += t.elapsed();
        if got != BATCH {
            report.problem(format!("fabric delivered {got} of {BATCH} messages"));
        }
    }
    report.metric("fabric.send_ns", ns_per(send, BATCH * BATCHES), "ns");
    report.metric("fabric.recv_ns", ns_per(recv, BATCH * BATCHES), "ns");
    report.median_metric("fabric.pingpong_us", &pingpong(&fabric), 1.0, "us");
}

/// The reliable sublayer: round trips over `Fabric::with_faults` with a
/// seeded drop-and-duplicate plan, and its protocol counters.
pub fn reliable(report: &mut Report, seed: u64) {
    let plan = FaultPlan::uniform_drop(seed, RELIABLE_DROP).with_dup(RELIABLE_DROP);
    let fabric =
        Fabric::<u64>::with_faults(2, NetworkModel::instant(), false, plan, RetryPolicy::default());
    let rtts = pingpong(&fabric);
    report.median_metric("reliable.pingpong_us", &rtts, 1.0, "us");
    let st = fabric.stats();
    let msgs = st.messages() as f64;
    report.metric("reliable.acks_per_msg", st.acks() as f64 / msgs, "ratio");
    report.metric("reliable.retries_per_msg", st.retries() as f64 / msgs, "ratio");
    report.metric("reliable.dups_per_msg", st.dups_discarded() as f64 / msgs, "ratio");
    report.metric(
        "reliable.goodput_frac",
        st.delivered() as f64 / (msgs + st.retries() as f64),
        "ratio",
    );
}

/// `pump.handoff_us`: from `CommPump::submit` to the task starting on the
/// comm thread.
pub fn pump(report: &mut Report) {
    let pump = CommPump::new(CommMode::DedicatedThread, 0);
    let (tx, rx) = mpsc::channel();
    let handoffs: Vec<f64> = (0..TRIPS)
        .map(|_| {
            let tx = tx.clone();
            let t = Instant::now();
            pump.submit(move || {
                let _ = tx.send(t.elapsed().as_secs_f64() * 1e6);
            });
            rx.recv_timeout(Duration::from_secs(30)).expect("the comm thread ran the task")
        })
        .collect();
    report.median_metric("pump.handoff_us", &handoffs, 1.0, "us");
}

/// `detector.run_us` and `detector.waves`: the epoch detector on the
/// abstract harness, a chain of 5 spawns over 8 images.
pub fn detector(report: &mut Report) {
    let mut plan = SpawnPlan::default();
    plan.spawn(0, chain(&[1, 2, 3, 4, 5]));
    let bound = plan.longest_chain() + 1;
    let mut waves = 0;
    let runs: Vec<f64> = (0..TRIPS)
        .map(|_| {
            let mut h = Harness::new(8, || Box::new(EpochDetector::new(true)));
            let plan = plan.clone();
            let t = Instant::now();
            waves = waves.max(black_box(h.run(plan)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    if waves > bound {
        report.problem(format!("chain-5 detector took {waves} waves, bound {bound}"));
    }
    report.median_metric("detector.run_us", &runs, 1.0, "us");
    report.metric("detector.waves", waves as f64, "count");
}

/// `des.ns_per_event`: schedule then pop events with seeded delays.
pub fn des(report: &mut Report, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut engine = Engine::<u64>::new();
    let t = Instant::now();
    for i in 0..DES_EVENTS {
        engine.schedule(rng.next_below(1_000), i);
    }
    let mut last = 0;
    let mut popped = 0u64;
    while let Some((at, ev)) = engine.pop() {
        black_box(ev);
        if at < last {
            report.problem(format!("DES engine went back in time: {at} after {last}"));
        }
        last = at;
        popped += 1;
    }
    let dt = t.elapsed();
    if popped != DES_EVENTS {
        report.problem(format!("DES engine popped {popped} of {DES_EVENTS} events"));
    }
    report.metric("des.ns_per_event", ns_per(dt, DES_EVENTS as usize), "ns");
}
