//! `ra_fs` and `ra_fs_reliable`: HPCC RandomAccess by function shipping,
//! on 2 images over the Gemini-like network (bounded inbox 512) with
//! dedicated comm threads, bunch 1024 and a 2^14-word table per image.
//!
//! Updates come from the HPCC stream (`randomaccess::stream`), starting
//! at a point derived from the seed. Each pair of passes applies one
//! stretch of the stream twice; xor is self-inverse, so the table must
//! then hold its initial values again, and a single wrong word fails the
//! pair. The reliable variant runs the same kernel with a seeded
//! light-drop fault plan, which routes every message through the ack,
//! retry and dedup sublayer of `caf-net`.

use std::time::{Duration, Instant};

use caf_core::fault::FaultPlan;
use caf_core::rng::splitmix64_hash;
use caf_runtime::{Coarray, CommMode, Image, NetworkModel, Runtime, RuntimeConfig};
use randomaccess::stream::{next, starts, PERIOD};

use crate::construct::{settle, traced_finish};
use crate::report;
use crate::stats::Tagged;
use crate::trace::{Spans, Trace};

/// Images running the kernel.
pub const IMAGES: usize = 2;
/// log2 of the table words per image.
pub const LOG_LOCAL: usize = 14;
/// Updates per `finish` block.
pub const BUNCH: usize = 1024;
/// Finish blocks per pass, per image.
const BLOCKS_PER_PASS: usize = 8;
/// Updates each image applies per pass.
pub const UPDATES_PER_PASS: usize = BUNCH * BLOCKS_PER_PASS;
/// Pass pairs per launch. Every launch does the same work, so memory the
/// runtime holds until a launch ends (one pending-op record per spawn,
/// released only by a `cofence`) peaks at the same height in every run.
const PAIRS_PER_LAUNCH: usize = 2;
/// Wire drop probability of the reliable variant's fault plan.
pub const LIGHT_DROP: f64 = 0.001;
/// Nominal payload of one shipped update (index and value).
const UPDATE_BYTES: usize = 32;

/// The measurements of a series of launches.
#[derive(Default)]
pub struct Outcome {
    /// Set-up time of each launch: runtime start, table allocation and
    /// initialisation, and the first barrier.
    pub setup_s: Vec<f64>,
    /// Updates applied, over all images.
    pub updates: u64,
    /// Updates in pass pairs that failed verification, plus one per
    /// launch that returned `Err`.
    pub failed: u64,
    /// Duration of each `finish` block on image 0, tagged with whether
    /// it ran while no CPU time was stolen.
    pub block_us: Vec<Tagged>,
    /// Time spent in update passes on image 0.
    pub pass_s: f64,
    /// Fabric traffic over the measured passes: messages, payload bytes
    /// and backpressure stalls.
    pub traffic: (u64, u64, u64),
    /// Most reduction waves any block needed.
    pub max_waves: usize,
    /// Peak resident set of the process at the end of the first launch's
    /// work, in MB.
    pub peak_rss_mb: Option<f64>,
    /// The first few failed checks, for the report.
    pub problems: Vec<String>,
}

#[derive(Default)]
struct ImageResult {
    setup_s: f64,
    block_us: Vec<Tagged>,
    pass_s: f64,
    updates: u64,
    failed: u64,
    traffic: (u64, u64, u64),
    max_waves: usize,
    peak_rss_mb: Option<f64>,
    problems: Vec<String>,
}

/// The runtime configuration the workload measures; `reliable` adds the
/// light-drop fault plan.
pub fn config(seed: u64, reliable: bool) -> RuntimeConfig {
    RuntimeConfig {
        network: NetworkModel::gemini_like(),
        comm_mode: CommMode::DedicatedThread,
        seed,
        faults: reliable.then(|| FaultPlan::uniform_drop(fault_seed(seed), LIGHT_DROP)),
        ..RuntimeConfig::default()
    }
}

/// Seed of the fault plan, derived from the workload seed.
pub fn fault_seed(seed: u64) -> u64 {
    splitmix64_hash(seed ^ 0xFA17)
}

/// Stream position where the benchmark's updates start.
fn stream_base(seed: u64) -> i64 {
    (splitmix64_hash(seed) % (PERIOD as u64 / 2)) as i64
}

/// Runs launches until `budget` is spent (at least one).
pub fn run(seed: u64, reliable: bool, budget: Duration, trace: Option<&Trace>) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    for launch in 0u64.. {
        if launch > 0 && started.elapsed() >= budget {
            break;
        }
        // Each launch takes its own stretch of the stream.
        let base = stream_base(seed ^ (launch << 40));
        settle();
        let t0 = Instant::now();
        let result = Runtime::try_launch(IMAGES, config(seed, reliable), |img| {
            let mut spans = Spans::new(trace.is_some());
            let r = image_main(img, base, t0, &mut spans);
            if let Some(t) = trace {
                t.absorb(spans);
            }
            r
        });
        match result {
            Ok(images) => {
                let driver = &images[0];
                out.setup_s.push(driver.setup_s);
                out.updates += images.iter().map(|r| r.updates).sum::<u64>();
                out.failed += images.iter().map(|r| r.failed).sum::<u64>();
                out.block_us.extend(&driver.block_us);
                out.pass_s += driver.pass_s;
                out.traffic.0 += driver.traffic.0;
                out.traffic.1 += driver.traffic.1;
                out.traffic.2 += driver.traffic.2;
                out.max_waves = images.iter().map(|r| r.max_waves).fold(out.max_waves, usize::max);
                out.peak_rss_mb = out.peak_rss_mb.or(driver.peak_rss_mb);
                for r in &images {
                    out.problems.extend(r.problems.iter().take(4).cloned());
                }
            }
            Err(e) => {
                out.updates += 1;
                out.failed += 1;
                out.problems.push(format!("launch {launch}: {e}"));
            }
        }
    }
    out
}

/// Sets every word of this image's segment to its global index.
pub fn init_table(img: &Image, table: &Coarray<u64>) {
    let base = img.id().index() << LOG_LOCAL;
    table.with_local(img.id(), |seg| {
        for (j, v) in seg.iter_mut().enumerate() {
            *v = (base + j) as u64;
        }
    });
}

/// Applies [`UPDATES_PER_PASS`] updates of the stream from `ran`, in
/// blocks of [`BUNCH`] under `finish`, recording each block's duration in
/// `block_us`, tagged with whether no CPU time was stolen meanwhile.
/// Returns the most waves a block needed.
pub fn apply_pass(
    img: &Image,
    table: &Coarray<u64>,
    mut ran: u64,
    spans: &mut Spans,
    block_us: &mut Vec<Tagged>,
) -> usize {
    let w = img.world();
    let mask = ((img.num_images() << LOG_LOCAL) - 1) as u64;
    let mut max_waves = 0;
    let mut steal = report::steal_ticks();
    for _ in 0..BLOCKS_PER_PASS {
        let t = Instant::now();
        traced_finish(img, &w, spans, |img, spans| {
            for _ in 0..BUNCH {
                ran = next(ran);
                let idx = (ran & mask) as usize;
                let owner = img.image(idx >> LOG_LOCAL);
                let offset = idx & ((1 << LOG_LOCAL) - 1);
                let t = table.clone();
                let val = ran;
                spans.time("spawn.initiate", || {
                    img.spawn_sized(owner, UPDATE_BYTES, move |o| {
                        t.with_local(o.id(), |seg| seg[offset] ^= val)
                    })
                });
            }
        });
        let us = t.elapsed().as_secs_f64() * 1e6;
        let now = report::steal_ticks();
        block_us.push((us, now == steal));
        steal = now;
        max_waves = max_waves.max(img.last_finish_waves());
    }
    max_waves
}

/// Counts the words of the whole table that differ from their initial
/// value. Collective.
pub fn table_errors(img: &Image, table: &Coarray<u64>, spans: &mut Spans) -> u64 {
    let base = img.id().index() << LOG_LOCAL;
    let wrong = table.with_local(img.id(), |seg| {
        seg.iter().enumerate().filter(|&(j, &v)| v != (base + j) as u64).count() as u64
    });
    spans.time("collective.allreduce", || img.allreduce(&img.world(), wrong, |a, b| a + b))
}

fn image_main(img: &Image, base: i64, t0: Instant, spans: &mut Spans) -> ImageResult {
    let w = img.world();
    let me = img.id().index();
    let table = img.coarray(&w, 1 << LOG_LOCAL, 0u64);
    init_table(img, &table);
    img.barrier(&w);
    let mut res = ImageResult { setup_s: t0.elapsed().as_secs_f64(), ..ImageResult::default() };
    let before = img.fabric_stats();
    for pair in 0..PAIRS_PER_LAUNCH {
        let start = starts(base + ((pair * IMAGES + me) * UPDATES_PER_PASS) as i64);
        let t = Instant::now();
        let waves = (0..2)
            .map(|_| apply_pass(img, &table, start, spans, &mut res.block_us))
            .max()
            .unwrap_or(0);
        res.pass_s += t.elapsed().as_secs_f64();
        let applied = 2 * UPDATES_PER_PASS as u64;
        res.updates += applied;
        res.max_waves = res.max_waves.max(waves);
        let wrong = table_errors(img, &table, spans);
        // Every function-shipping block has L = 1, so at most two waves.
        if waves > 2 {
            res.failed += applied;
            res.problems.push(format!("pair {pair}: a block took {waves} waves"));
        } else if wrong > 0 {
            res.failed += applied;
            res.problems
                .push(format!("pair {pair}: {wrong} table words wrong after the xor pass"));
        }
    }
    // Everything the launch holds is still live here.
    res.peak_rss_mb = report::status_mb("VmHWM");
    let after = img.fabric_stats();
    res.traffic = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both passes of a pair on the test runtime, then `corrupt` words of
    /// image 0's segment flipped: returns the wrong-word count every image
    /// agrees on.
    fn pair_then_corrupt(corrupt: usize) -> Vec<u64> {
        Runtime::launch(IMAGES, RuntimeConfig::testing(), |img| {
            let w = img.world();
            let table = img.coarray(&w, 1 << LOG_LOCAL, 0u64);
            init_table(img, &table);
            img.barrier(&w);
            let mut spans = Spans::new(false);
            let start = starts(stream_base(7) + (img.id().index() * UPDATES_PER_PASS) as i64);
            for _ in 0..2 {
                assert!(apply_pass(img, &table, start, &mut spans, &mut Vec::new()) <= 2);
            }
            img.barrier(&w);
            if img.id().index() == 0 {
                table
                    .with_local(img.id(), |seg| seg.iter_mut().take(corrupt).for_each(|v| *v ^= 1));
            }
            img.barrier(&w);
            table_errors(img, &table, &mut spans)
        })
    }

    #[test]
    fn clean_pair_restores_the_table() {
        assert_eq!(pair_then_corrupt(0), vec![0, 0]);
    }

    #[test]
    fn corrupted_table_is_reported() {
        assert_eq!(pair_then_corrupt(3), vec![3, 3]);
    }
}
