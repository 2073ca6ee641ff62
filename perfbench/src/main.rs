//! The benchmark program that `run.py` builds and runs.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench goldens
//! ```
//!
//! With `--trace 0` it runs one workload with tracing off and reports the
//! end-to-end metrics. With `--trace 1` it reports the per-layer metrics:
//! the workload runs twice, untraced then traced, for the tracing
//! overhead, and a fixed suite measures every layer — traced runs of the
//! construct loop and the raw RandomAccess kernel, direct probes of the
//! inbox, fabric, reliable sublayer, comm pump, termination detector and
//! DES engine, and a traced pass over the paper models. The last line of
//! output is one JSON object.

use std::process::ExitCode;
use std::time::Duration;

mod construct;
mod models;
mod probes;
mod ra;
mod report;
mod stats;
mod trace;

use report::Report;
use stats::{median, unstolen};
use trace::Trace;

/// The workloads, by the names `BENCHMARK.json` gives them.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ConstructLatency,
    RaFs,
    RaFsReliable,
    PaperModels,
}

impl Workload {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "construct_latency" => Ok(Workload::ConstructLatency),
            "ra_fs" => Ok(Workload::RaFs),
            "ra_fs_reliable" => Ok(Workload::RaFsReliable),
            "paper_models" => Ok(Workload::PaperModels),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ConstructLatency => "construct_latency",
            Workload::RaFs => "ra_fs",
            Workload::RaFsReliable => "ra_fs_reliable",
            Workload::PaperModels => "paper_models",
        }
    }
}

/// Budget of each traced runtime run in the layer suite.
const SUITE_BUDGET: Duration = Duration::from_secs(2);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value:?}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 60)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("goldens") {
        models::print_goldens();
        return ExitCode::SUCCESS;
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(a.seconds);
    let report = if a.trace {
        layers(a.workload, a.seed, budget)
    } else {
        end_to_end(a.workload, a.seed, budget)
    };
    print!("{}", report.lines());
    println!("{}", report.json(a.workload.name(), a.seed, a.trace));
    ExitCode::SUCCESS
}

/// Work done per second by one run of `w`, as measured by the run.
fn throughput(w: Workload, seed: u64, budget: Duration, trace: Option<&Trace>) -> (f64, Report) {
    let mut r = Report::default();
    let ops_per_s = match w {
        Workload::ConstructLatency => {
            let o = construct::run(seed, budget, trace);
            r.absorb(o.rounds, o.failed, o.problems);
            median(&unstolen(&o.samples.group_ops_per_s).0)
        }
        Workload::RaFs | Workload::RaFsReliable => {
            let o = ra::run(seed, w == Workload::RaFsReliable, budget, trace);
            r.absorb(o.updates, o.failed, o.problems);
            block_ops_per_s(median(&unstolen(&o.block_us).0))
        }
        Workload::PaperModels => {
            let o = models::run(seed, budget, trace);
            r.absorb(o.ops, o.failed, o.problems);
            o.pass_cpu_s.len() as f64 / o.pass_cpu_s.iter().sum::<f64>()
        }
    };
    (ops_per_s, r)
}

/// The end-to-end metrics of one workload, with tracing off.
fn end_to_end(w: Workload, seed: u64, budget: Duration) -> Report {
    let mut r = Report::default();
    match w {
        Workload::ConstructLatency => {
            let o = construct::run(seed, budget, None);
            r.absorb(o.rounds, o.failed, o.problems);
            let s = &o.samples;
            r.repeats_metric("setup_s", &o.setup_s, "s");
            peak_metric(&mut r, o.peak_rss_mb);
            let (groups, share) = unstolen(&s.group_ops_per_s);
            r.median_metric("ops_per_s", &groups, 1.0, "1/s");
            let rounds = unstolen(s.round_us.values()).0;
            r.median_metric("op_p50_us", &rounds, 1.0, "us");
            r.tail_extra("op", &rounds);
            r.extra("op_mean_us", s.round_sum_us / s.round_us.seen() as f64, "us");
            r.extra("unstolen_share", share, "ratio");
            for (name, samples) in construct::CONSTRUCTS.iter().zip(&s.construct_us) {
                r.median_extra(name, &unstolen(samples.values()).0, 1.0, "us");
            }
        }
        Workload::RaFs | Workload::RaFsReliable => {
            let o = ra::run(seed, w == Workload::RaFsReliable, budget, None);
            r.absorb(o.updates, o.failed, o.problems);
            r.repeats_metric("setup_s", &o.setup_s, "s");
            peak_metric(&mut r, o.peak_rss_mb);
            let (blocks, share) = unstolen(&o.block_us);
            let block_rates: Vec<f64> = blocks.iter().map(|&us| block_ops_per_s(us)).collect();
            r.median_metric("ops_per_s", &block_rates, 1.0, "1/s");
            r.median_metric("op_p50_us", &blocks, 1.0, "us");
            r.extra("ops_per_s_mean", o.updates as f64 / o.pass_s, "1/s");
            r.extra("unstolen_share", share, "ratio");
            r.tail_extra("op", &blocks);
            let updates = o.updates as f64;
            r.extra("msgs_per_update", o.traffic.0 as f64 / updates, "ratio");
            r.extra("stalls_per_update", o.traffic.2 as f64 / updates, "ratio");
            r.extra("max_finish_waves", o.max_waves as f64, "count");
        }
        Workload::PaperModels => {
            let o = models::run(seed, budget, None);
            // An op is one pass over every driver: the drivers differ in
            // length by five orders of magnitude, so a median over single
            // driver calls would pick an arbitrary one. The drivers are
            // single-threaded, so a pass takes its CPU time, which leaves
            // out time the hypervisor stole.
            let pass_s = &o.pass_cpu_s;
            r.absorb(o.ops, o.failed, o.problems);
            r.repeats_metric("setup_s", &o.setup_s, "s");
            peak_metric(&mut r, report::status_mb("VmHWM"));
            r.metric("ops_per_s", pass_s.len() as f64 / pass_s.iter().sum::<f64>(), "1/s");
            r.repeats_metric(
                "op_p50_us",
                &pass_s.iter().map(|s| s * 1e6).collect::<Vec<_>>(),
                "us",
            );
            r.extra("sim_wall_s", median(&o.sim_s), "s");
            r.extra("check_states_per_s", o.check_counts.0 as f64 / median(&o.check_s), "1/s");
        }
    }
    r.extra("failed_frac", r.failed as f64 / r.attempted.max(1) as f64, "ratio");
    r
}

/// Updates per second, over all images, in a `finish` block of `us`.
fn block_ops_per_s(us: f64) -> f64 {
    (ra::IMAGES * ra::BUNCH) as f64 / (us / 1e6)
}

/// `peak_rss_mb`: the process's peak resident set once it has done one
/// launch (or one pass) of work. Later launches are left out because the
/// allocator keeps memory freed by earlier ones.
fn peak_metric(r: &mut Report, mb: Option<f64>) {
    match mb {
        Some(mb) => r.metric("peak_rss_mb", mb, "MB"),
        None => r.problem("no VmHWM in /proc/self/status".into()),
    }
}

/// The per-layer metrics, from a traced run.
fn layers(w: Workload, seed: u64, budget: Duration) -> Report {
    let mut r = Report::default();

    // Tracing overhead on the workload itself: the same run untraced, then
    // traced, each for half the budget.
    let half = budget / 2;
    let (plain, sub) = throughput(w, seed, half, None);
    r.absorb(sub.attempted, sub.failed, sub.problems);
    let own = Trace::default();
    let (traced, sub) = throughput(w, seed, half, Some(&own));
    r.absorb(sub.attempted, sub.failed, sub.problems);
    r.metric("trace.overhead_frac", plain / traced - 1.0, "ratio");

    // The runtime layers, from traced runs of the construct loop and the
    // raw kernel.
    let ct = Trace::default();
    let c = construct::run(seed, SUITE_BUDGET, Some(&ct));
    r.absorb(c.rounds, c.failed, c.problems);
    let rt = Trace::default();
    let k = ra::run(seed, false, SUITE_BUDGET, Some(&rt));
    r.absorb(k.updates, k.failed, k.problems);
    r.median_metric("spawn.initiate_ns", &rt.durations("spawn.initiate"), 1.0, "ns");
    r.median_metric("event.wait_us", &ct.durations("event.wait"), 1e-3, "us");
    r.median_metric("copy.initiate_ns", &ct.durations("copy.initiate"), 1.0, "ns");
    r.median_metric("cofence.wait_us", &ct.durations("cofence.wait"), 1e-3, "us");
    r.median_metric("collective.barrier_us", &ct.durations("collective.barrier"), 1e-3, "us");
    r.median_metric("collective.allreduce_us", &rt.durations("collective.allreduce"), 1e-3, "us");
    r.median_metric("finish.body_us", &rt.durations("finish.body"), 1e-3, "us");
    r.median_metric("finish.detect_us", &rt.durations("finish.detect"), 1e-3, "us");
    r.metric("finish.waves", k.max_waves as f64, "count");
    let updates = k.updates as f64;
    r.metric("fabric.msgs_per_op", k.traffic.0 as f64 / updates, "ratio");
    r.metric("fabric.bytes_per_op", k.traffic.1 as f64 / updates, "B");
    r.metric("fabric.stalls_per_op", k.traffic.2 as f64 / updates, "ratio");
    for (name, samples) in construct::CONSTRUCTS.iter().zip(&c.samples.construct_us) {
        r.median_metric(name, &unstolen(samples.values()).0, 1.0, "us");
    }

    // The network layers and the detector, probed directly.
    probes::fabric(&mut r);
    probes::inbox(&mut r);
    probes::reliable(&mut r, ra::fault_seed(seed));
    probes::pump(&mut r);
    probes::detector(&mut r);
    probes::des(&mut r, seed);

    // The paper models, one traced pass.
    let mt = Trace::default();
    let m = models::run(seed, Duration::ZERO, Some(&mt));
    r.absorb(m.ops, m.failed, m.problems);
    let span_s = |name: &str| mt.durations(name).iter().sum::<f64>() / 1e9;
    let (sim_ra, sim_chaos, sim_uts) = (span_s("sim.ra"), span_s("sim.chaos"), span_s("sim.uts"));
    let check_s = span_s("check.explore") + span_s("check.matrix");
    let (states, schedules) = m.check_counts;
    r.metric("sim.ra_s", sim_ra, "s");
    r.metric("sim.chaos_s", sim_chaos, "s");
    r.metric("sim.uts_s", sim_uts, "s");
    r.metric("sim_wall_s", sim_ra + sim_chaos + sim_uts + span_s("sim.pc"), "s");
    r.metric("check.states", states as f64, "count");
    r.metric("check.schedules", schedules as f64, "count");
    r.metric("check.explore_s", check_s, "s");
    r.metric("check_states_per_s", states as f64 / check_s, "1/s");
    r
}
