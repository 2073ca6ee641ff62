//! `construct_latency`: every paper construct once per round, in a closed
//! loop on 2 images over a zero-latency network with dedicated comm
//! threads. With no modelled latency, all the time measured is runtime
//! overhead: wake and park, the inbox, AM dispatch, completion cells, the
//! comm-thread handoff and finish waves.
//!
//! Image 0 drives and times each construct; image 1 serves from inside
//! the next collective it waits in, and checks what arrived.

use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use caf_core::rng::splitmix64_hash;
use caf_runtime::{
    CommMode, CopyEvents, Image, LocalArray, NetworkModel, Runtime, RuntimeConfig, Team,
};

use crate::report;
use crate::stats::{Reservoir, Tagged};
use crate::trace::{Spans, Trace};

/// Images in the closed loop.
pub const IMAGES: usize = 2;
/// Back-to-back barriers timed per round (the reported figure is per
/// barrier).
const BARRIER_BATCH: usize = 8;
/// Rounds per launch. Every launch does the same work, so memory the
/// runtime holds until a launch ends (a cell per declared event) peaks at
/// the same height in every run.
const ROUNDS_PER_LAUNCH: u64 = 2048;
/// Rounds per group whose throughput is one `ops_per_s` sample.
const ROUNDS_PER_GROUP: u64 = 32;
/// Words per copy.
const WORDS: usize = 8;
/// Pause before each launch, so that the previous launch's teardown
/// (thread exits, freed stacks) does not overlap the next one's set-up:
/// without it, set-up times jump from about 0.3 ms to 2–3 ms at random.
const SETTLE: Duration = Duration::from_millis(20);
/// Samples kept per latency series.
const SAMPLES: usize = 8192;

/// The timed constructs, in round order.
pub const CONSTRUCTS: [&str; 7] = [
    "spawn_rtt_us",
    "barrier_us",
    "finish_empty_us",
    "finish_spawn_us",
    "copy_cofence_us",
    "copy_event_us",
    "copy_finish_us",
];

/// Image 0's timings over a series of launches, each tagged with whether
/// its group of rounds ran while no CPU time was stolen.
pub struct Samples {
    /// Duration of each round.
    pub round_us: Reservoir<Tagged>,
    /// Duration of each construct, indexed like [`CONSTRUCTS`].
    pub construct_us: [Reservoir<Tagged>; 7],
    /// Rounds per second within each group of [`ROUNDS_PER_GROUP`] rounds.
    pub group_ops_per_s: Vec<Tagged>,
    /// Sum of every round's duration.
    pub round_sum_us: f64,
}

/// The measurements of a series of launches.
pub struct Outcome {
    /// Set-up time of each launch: runtime start, coarray allocation and
    /// the first barrier.
    pub setup_s: Vec<f64>,
    /// Rounds attempted.
    pub rounds: u64,
    /// Rounds with a failed check, plus one per launch that returned `Err`.
    pub failed: u64,
    /// Peak resident set of the process at the end of the first launch's
    /// rounds, in MB.
    pub peak_rss_mb: Option<f64>,
    /// Image 0's timings.
    pub samples: Samples,
    /// The first few failed checks, for the report.
    pub problems: Vec<String>,
}

/// What one image hands back from a launch.
#[derive(Default)]
struct ImageResult {
    setup_s: f64,
    rounds: u64,
    peak_rss_mb: Option<f64>,
    failed_rounds: BTreeSet<u64>,
    problems: Vec<String>,
}

impl ImageResult {
    fn fail(&mut self, round: u64, what: String) {
        self.failed_rounds.insert(round);
        if self.problems.len() < 4 {
            self.problems.push(format!("round {round}: {what}"));
        }
    }
}

/// The runtime configuration the workload measures.
pub fn config(seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        network: NetworkModel::instant(),
        comm_mode: CommMode::DedicatedThread,
        seed,
        ..RuntimeConfig::default()
    }
}

/// Runs launches until `budget` is spent (at least one). Spans go to
/// `trace` when given.
pub fn run(seed: u64, budget: Duration, trace: Option<&Trace>) -> Outcome {
    let samples = Mutex::new(Samples {
        round_us: Reservoir::new(SAMPLES, seed),
        construct_us: std::array::from_fn(|i| Reservoir::new(SAMPLES, seed ^ (i as u64 + 1))),
        group_ops_per_s: Vec::new(),
        round_sum_us: 0.0,
    });
    let (mut setup_s, mut peak_rss_mb, mut problems) = (Vec::new(), None, Vec::new());
    let (mut rounds, mut failed) = (0, 0);
    let started = Instant::now();
    for launch in 0u64.. {
        if launch > 0 && started.elapsed() >= budget {
            break;
        }
        let input = splitmix64_hash(seed ^ (launch << 40));
        settle();
        let t0 = Instant::now();
        let result = Runtime::try_launch(IMAGES, config(seed), |img| {
            let mut spans = Spans::new(trace.is_some());
            // Only image 0 times; it holds the samples for the launch.
            let mut mine = (img.id().index() == 0)
                .then(|| samples.lock().expect("no image panicked holding the samples"));
            let r = image_main(img, input, t0, &mut spans, mine.as_deref_mut());
            if let Some(t) = trace {
                t.absorb(spans);
            }
            r
        });
        match result {
            Ok(images) => {
                let mut failed_rounds = BTreeSet::new();
                for r in &images {
                    failed_rounds.extend(r.failed_rounds.iter().copied());
                    problems.extend(r.problems.iter().cloned());
                }
                setup_s.push(images[0].setup_s);
                peak_rss_mb = peak_rss_mb.or(images[0].peak_rss_mb);
                rounds += images[0].rounds;
                failed += failed_rounds.len() as u64;
            }
            Err(e) => {
                rounds += 1;
                failed += 1;
                problems.push(format!("launch {launch}: {e}"));
            }
        }
    }
    let samples = samples.into_inner().expect("no image panicked holding the samples");
    Outcome { setup_s, rounds, failed, peak_rss_mb, samples, problems }
}

/// Waits out the previous launch's teardown; see [`SETTLE`].
pub fn settle() {
    std::thread::sleep(SETTLE);
}

/// The value round `r` ships and copies.
fn round_value(input: u64, r: u64) -> u64 {
    splitmix64_hash(input ^ r)
}

/// The words copy `slot` (0 = cofence, 1 = event, 2 = finish) carries in
/// a round whose value is `v`.
fn copy_words(v: u64, slot: usize) -> Vec<u64> {
    (0..WORDS as u64).map(|k| v.rotate_left(slot as u32 * 8) ^ k).collect()
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// `finish` with its body and detection spans recorded.
pub fn traced_finish(
    img: &Image,
    team: &Team,
    spans: &mut Spans,
    body: impl FnOnce(&Image, &mut Spans),
) {
    let t = spans.start();
    let mut body_ns = 0;
    img.finish(team, |img| {
        let b = spans.start();
        body(img, spans);
        body_ns = spans.stop("finish.body", b);
    });
    if let Some(t) = t {
        let total = t.elapsed().as_nanos() as u64;
        spans.record("finish.detect", total.saturating_sub(body_ns));
    }
}

fn image_main(
    img: &Image,
    input: u64,
    t0: Instant,
    spans: &mut Spans,
    mut samples: Option<&mut Samples>,
) -> ImageResult {
    let w = img.world();
    let me = img.id().index();
    let peer = img.image(1);
    let counter = img.coarray(&w, 1, 0u64);
    let data = img.coarray(&w, 3 * WORDS, 0u64);
    let src = LocalArray::new(vec![0u64; WORDS]);
    img.barrier(&w);
    let mut res = ImageResult { setup_s: t0.elapsed().as_secs_f64(), ..ImageResult::default() };
    let mut expected_counter = 0u64;
    let mut group: Vec<(f64, [f64; 7])> = Vec::with_capacity(ROUNDS_PER_GROUP as usize);
    let mut group_steal = report::steal_ticks();
    for r in 0..ROUNDS_PER_LAUNCH {
        let v = round_value(input, r);
        let (add1, add4) = (v >> 32, v & 0xffff_ffff);
        let round_start = Instant::now();
        let mut t = [0f64; 7];

        // 1. spawn + notify round trip.
        if me == 0 {
            let t1 = Instant::now();
            let done = img.event();
            let c = counter.clone();
            spans.time("spawn.initiate", || {
                img.spawn_notify(peer, done, move |p| c.with_local(p.id(), |s| s[0] += add1))
            });
            spans.time("event.wait", || img.event_wait(done));
            t[0] = us_since(t1);
        }

        // 2. Back-to-back barriers, after one that absorbs the skew of 1.
        img.barrier(&w);
        let t2 = Instant::now();
        for _ in 0..BARRIER_BATCH {
            spans.time("collective.barrier", || img.barrier(&w));
        }
        t[1] = us_since(t2) / BARRIER_BATCH as f64;

        // 3. Empty finish: L = 0, so at most one wave.
        let t3 = Instant::now();
        traced_finish(img, &w, spans, |_, _| {});
        t[2] = us_since(t3);
        if img.last_finish_waves() > 1 {
            res.fail(r, format!("empty finish took {} waves", img.last_finish_waves()));
        }

        // 4. Finish around one spawn: L = 1, so at most two waves.
        let t4 = Instant::now();
        traced_finish(img, &w, spans, |img, spans| {
            if me == 0 {
                let c = counter.clone();
                spans.time("spawn.initiate", || {
                    img.spawn(peer, move |p| c.with_local(p.id(), |s| s[0] += add4))
                });
            }
        });
        t[3] = us_since(t4);
        expected_counter += add1 + add4;
        if img.last_finish_waves() > 2 {
            res.fail(r, format!("finish+spawn took {} waves", img.last_finish_waves()));
        }
        if me == 1 {
            let got = counter.with_local(img.id(), |s| s[0]);
            if got != expected_counter {
                res.fail(r, format!("spawned adds sum to {got}, want {expected_counter}"));
            }
        }

        // 5–7. The Fig. 12 trio: copy + cofence, copy + event, finish.
        if me == 0 {
            src.write(0, &copy_words(v, 0));
            let t5 = Instant::now();
            spans.time("copy.initiate", || {
                img.copy_async_from(data.slice(peer, 0..WORDS), &src, 0..WORDS, CopyEvents::none())
            });
            spans.time("cofence.wait", || img.cofence());
            t[4] = us_since(t5);

            src.write(0, &copy_words(v, 1));
            let t6 = Instant::now();
            let arrived = img.event();
            spans.time("copy.initiate", || {
                img.copy_async_from(
                    data.slice(peer, WORDS..2 * WORDS),
                    &src,
                    0..WORDS,
                    CopyEvents::on_dest(arrived),
                )
            });
            spans.time("event.wait", || img.event_wait(arrived));
            t[5] = us_since(t6);
            src.write(0, &copy_words(v, 2));
        }
        let t7 = Instant::now();
        traced_finish(img, &w, spans, |img, spans| {
            if me == 0 {
                spans.time("copy.initiate", || {
                    img.copy_async_from(
                        data.slice(peer, 2 * WORDS..3 * WORDS),
                        &src,
                        0..WORDS,
                        CopyEvents::none(),
                    )
                });
            }
        });
        t[6] = us_since(t7);
        if img.last_finish_waves() > 2 {
            res.fail(r, format!("finish+copy took {} waves", img.last_finish_waves()));
        }
        if me == 1 {
            // Copies leave image 0's comm thread in order over a FIFO
            // link, and the event copy was delivered before the finish
            // copy was initiated, so all three have landed.
            for slot in 0..3 {
                let got = data.read(img.id(), slot * WORDS..(slot + 1) * WORDS);
                if got != copy_words(v, slot) {
                    res.fail(r, format!("copy slot {slot} holds {got:?}"));
                }
            }
        }

        res.rounds += 1;
        let Some(s) = samples.as_deref_mut() else { continue };
        group.push((us_since(round_start), t));
        if group.len() == ROUNDS_PER_GROUP as usize {
            let steal = report::steal_ticks();
            let unstolen = steal == group_steal;
            let group_us: f64 = group.iter().map(|g| g.0).sum();
            s.group_ops_per_s.push((ROUNDS_PER_GROUP as f64 / (group_us / 1e6), unstolen));
            s.round_sum_us += group_us;
            for (round_us, t) in group.drain(..) {
                s.round_us.push((round_us, unstolen));
                for (all, x) in s.construct_us.iter_mut().zip(t) {
                    all.push((x, unstolen));
                }
            }
            group_steal = steal;
        }
    }
    // Everything the launch holds is still live here.
    res.peak_rss_mb = report::status_mb("VmHWM");
    res
}
