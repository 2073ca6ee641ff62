//! `paper_models`: the single-threaded protocol drivers — the DES models
//! of `caf-sim` at paper scale and the capped `caf-check` smoke suite.
//! They have no threads and no wall-clock network, so their outputs are
//! deterministic and are checked against committed values.
//!
//! The DES seeds come from the workload seed modulo [`CLASSES`], so that
//! every seed has committed outputs to check against; `perfbench goldens`
//! regenerates the table.

use std::time::{Duration, Instant};

use caf_check::cofence_check::check_matrix;
use caf_check::{explore, scenarios, ExploreConfig, Family, Scenario};
use caf_core::fault::FaultPlan;
use caf_core::rng::splitmix64_hash;
use caf_sim::{
    run_chaos_sim, run_pc, run_ra_fs_sim, run_uts_sim, ChaosOutcome, ChaosSimConfig, PcConfig,
    RaSimConfig, SyncVariant, UtsSimConfig,
};
use uts::TreeSpec;

use crate::report;
use crate::trace::{Spans, Trace};

/// Seed classes with committed DES outputs.
pub const CLASSES: u64 = 8;
/// Drop probability of the chaos model's fault plan.
const CHAOS_DROP: f64 = 0.05;
/// State cap of the smoke suite, as in `scripts/ci.sh`.
const CHECK_MAX_STATES: u64 = 200_000;
/// States the capped smoke suite (p = 3, depth 2, with crash scenarios)
/// explores over all scenarios and detector families.
pub const CHECK_STATES: u64 = 2_748_824;
/// Complete schedules of the same suite.
pub const CHECK_SCHEDULES: u64 = 431_365;
/// Times the inputs are built per pass, for a steady set-up figure.
const SETUPS: usize = 25;
/// Programs the cofence matrix check runs.
const MATRIX_PROGRAMS: usize = 256;

/// The DES seed for a workload seed.
pub fn des_seed(seed: u64) -> u64 {
    splitmix64_hash(0xDE5 + seed % CLASSES)
}

/// Every input the drivers take.
pub struct Inputs {
    ra: RaSimConfig,
    chaos: ChaosSimConfig,
    uts: UtsSimConfig,
    pc: PcConfig,
    scenarios: Vec<Scenario>,
}

/// Builds the inputs for `seed`: this is the workload's set-up.
pub fn inputs(seed: u64) -> Inputs {
    let s = des_seed(seed);
    let mut chaos = ChaosSimConfig::new(4096);
    chaos.plan = FaultPlan::uniform_drop(s, CHAOS_DROP);
    Inputs {
        // Fig. 14 at 1024 images, bunch 256, inbox credit 160.
        ra: RaSimConfig {
            updates_per_image: 8192,
            bunch: 256,
            inbox_cap: 160,
            seed: s,
            ..RaSimConfig::new(1024)
        },
        chaos,
        // The tree of the UTS figures, at depth 9; the seed drives victim
        // selection and network jitter. (Other tree seeds often give a
        // tree of one or two nodes, which would measure nothing.)
        uts: UtsSimConfig { seed: s, ..UtsSimConfig::new(TreeSpec::geo_fixed(4.0, 9, 19), 1024) },
        pc: PcConfig { seed: s, ..PcConfig::new(1024) },
        scenarios: scenarios(3, 2, true),
    }
}

/// The deterministic outputs of the DES drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesOutputs {
    /// RandomAccess model: simulated ns, stalls, waves, finish blocks.
    pub ra: [u64; 4],
    /// Chaos model: simulated ns, waves, spawns sent, retries, wire drops.
    pub chaos: [u64; 5],
    /// UTS model: simulated ns, tree nodes, waves, steals.
    pub uts: [u64; 4],
    /// Fig. 12 model: simulated ns of the cofence, events and finish
    /// variants.
    pub pc: [u64; 3],
}

/// Committed outputs, indexed by `seed % CLASSES`.
pub const GOLDEN: [DesOutputs; CLASSES as usize] = [
    DesOutputs {
        ra: [36609800, 324819, 64, 32],
        chaos: [7116954, 2, 8192, 900, 900],
        uts: [1077250, 274190, 2, 4138],
        pc: [3800000000, 7500000000, 81500000000],
    },
    DesOutputs {
        ra: [37068100, 318030, 64, 32],
        chaos: [15114284, 2, 8192, 884, 884],
        uts: [1074100, 274190, 3, 4068],
        pc: [3800000000, 7500000000, 81500000000],
    },
    DesOutputs {
        ra: [36423700, 324602, 64, 32],
        chaos: [31098947, 2, 8192, 920, 920],
        uts: [949650, 274190, 2, 4150],
        pc: [3800000000, 7500000000, 81500000000],
    },
    DesOutputs {
        ra: [36984200, 323524, 64, 32],
        chaos: [7110890, 2, 8192, 974, 974],
        uts: [1045350, 274190, 3, 4167],
        pc: [3800000000, 7500000000, 81500000000],
    },
    DesOutputs {
        ra: [37292500, 323552, 64, 32],
        chaos: [15106918, 2, 8192, 916, 916],
        uts: [873050, 274190, 2, 4062],
        pc: [3800000000, 7500000000, 81500000000],
    },
    DesOutputs {
        ra: [36580900, 321052, 64, 32],
        chaos: [7107499, 2, 8192, 884, 884],
        uts: [1146950, 274190, 2, 4154],
        pc: [3800000000, 7500000000, 81500000000],
    },
    DesOutputs {
        ra: [37493300, 321509, 64, 32],
        chaos: [7105660, 2, 8192, 872, 872],
        uts: [955250, 274190, 2, 4119],
        pc: [3800000000, 7500000000, 81500000000],
    },
    DesOutputs {
        ra: [36646300, 320638, 64, 32],
        chaos: [15097770, 2, 8192, 860, 860],
        uts: [925650, 274190, 2, 4054],
        pc: [3800000000, 7500000000, 81500000000],
    },
];

/// Names the fields of `got` that differ from `want`.
pub fn mismatches(got: &DesOutputs, want: &DesOutputs) -> Vec<String> {
    let mut out = Vec::new();
    let mut cmp = |name: &str, g: &[u64], w: &[u64]| {
        if g != w {
            out.push(format!("{name} outputs {g:?}, committed {w:?}"));
        }
    };
    cmp("ra", &got.ra, &want.ra);
    cmp("chaos", &got.chaos, &want.chaos);
    cmp("uts", &got.uts, &want.uts);
    cmp("pc", &got.pc, &want.pc);
    out
}

/// The measurements of a series of passes over every driver.
#[derive(Default)]
pub struct Outcome {
    /// Set-up times: building every input, [`SETUPS`] times per pass.
    pub setup_s: Vec<f64>,
    /// Driver calls made.
    pub ops: u64,
    /// Driver calls whose outputs failed a check.
    pub failed: u64,
    /// Wall time of the DES drivers, per pass.
    pub sim_s: Vec<f64>,
    /// Wall time of the checker, per pass.
    pub check_s: Vec<f64>,
    /// CPU time of each whole pass over the drivers (DES and checker).
    pub pass_cpu_s: Vec<f64>,
    /// States and schedules the checker explored in the last pass.
    pub check_counts: (u64, u64),
    /// The first few failed checks, for the report.
    pub problems: Vec<String>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problem(what());
        }
    }

    fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

/// Runs passes over every driver until `budget` is spent (at least one).
pub fn run(seed: u64, budget: Duration, trace: Option<&Trace>) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new(trace.is_some());
    let started = Instant::now();
    loop {
        let mut built = None;
        for _ in 0..SETUPS {
            let t = Instant::now();
            built = Some(inputs(seed));
            out.setup_s.push(t.elapsed().as_secs_f64());
        }
        let inputs = built.expect("SETUPS > 0");
        let cpu = report::thread_cpu_s();
        let des = run_des(&inputs, &mut spans, &mut out);
        let want = &GOLDEN[(seed % CLASSES) as usize];
        let wrong = mismatches(&des, want);
        // A wrong output fails the driver call that produced it.
        out.failed += wrong.len() as u64;
        out.problems.extend(wrong);
        run_check(&inputs, &mut spans, &mut out);
        match (cpu, report::thread_cpu_s()) {
            (Some(a), Some(b)) => out.pass_cpu_s.push(b - a),
            _ => out.problem("no CPU time in /proc/thread-self/schedstat".into()),
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    if let Some(t) = trace {
        t.absorb(spans);
    }
    out
}

/// Counts one driver call and times it as the span `name`.
fn timed<R>(out: &mut Outcome, spans: &mut Spans, name: &'static str, f: impl FnOnce() -> R) -> R {
    out.ops += 1;
    spans.time(name, f)
}

fn run_des(inputs: &Inputs, spans: &mut Spans, out: &mut Outcome) -> DesOutputs {
    let t = Instant::now();
    let ra = timed(out, spans, "sim.ra", || run_ra_fs_sim(&inputs.ra));
    let chaos = timed(out, spans, "sim.chaos", || run_chaos_sim(&inputs.chaos));
    let uts = timed(out, spans, "sim.uts", || run_uts_sim(inputs.uts.clone()));
    let pc = [SyncVariant::Cofence, SyncVariant::Events, SyncVariant::Finish]
        .map(|v| timed(out, spans, "sim.pc", || run_pc(&inputs.pc, v).sim_time_ns));
    out.sim_s.push(t.elapsed().as_secs_f64());

    let (chaos_ns, chaos_waves) = match chaos.outcome {
        ChaosOutcome::Terminated { sim_ns, waves } => (sim_ns, waves as u64),
        _ => (0, 0),
    };
    out.check(chaos_waves == 2, || format!("chaos model ended {:?}, want 2 waves", chaos.outcome));
    out.check(chaos.delivered == chaos.sent && chaos.retries_exhausted == 0, || {
        format!("chaos model delivered {} of {} spawns", chaos.delivered, chaos.sent)
    });
    out.check(pc[0] < pc[1] && pc[1] < pc[2], || {
        format!("Fig. 12 order broken: cofence {} events {} finish {} ns", pc[0], pc[1], pc[2])
    });
    DesOutputs {
        ra: [ra.sim_time_ns, ra.stalls, ra.waves as u64, ra.finishes as u64],
        chaos: [chaos_ns, chaos_waves, chaos.sent, chaos.retries, chaos.wire_drops],
        uts: [uts.sim_time_ns, uts.total_nodes, uts.waves as u64, uts.steals],
        pc,
    }
}

fn run_check(inputs: &Inputs, spans: &mut Spans, out: &mut Outcome) {
    let t = Instant::now();
    let cfg = ExploreConfig { max_states: CHECK_MAX_STATES, por: true, differential: true };
    let (mut states, mut schedules) = (0, 0);
    for s in &inputs.scenarios {
        for family in Family::ALL {
            let (stats, ce) = timed(out, spans, "check.explore", || explore(s, family, None, &cfg));
            states += stats.states;
            schedules += stats.schedules;
            out.check(ce.is_none(), || format!("{} {}: counterexample", s.name(), family.name()));
        }
    }
    let (programs, violation) = timed(out, spans, "check.matrix", || check_matrix(None));
    out.check_s.push(t.elapsed().as_secs_f64());
    out.check_counts = (states, schedules);
    out.check(violation.is_none() && programs == MATRIX_PROGRAMS, || {
        format!("cofence matrix: {programs} programs, violation {violation:?}")
    });
    out.check(states == CHECK_STATES && schedules == CHECK_SCHEDULES, || {
        format!(
            "smoke suite explored {states} states and {schedules} schedules, committed \
             {CHECK_STATES} and {CHECK_SCHEDULES}"
        )
    });
}

/// Prints [`GOLDEN`] as Rust source, computed by running every seed class.
pub fn print_goldens() {
    println!("pub const GOLDEN: [DesOutputs; CLASSES as usize] = [");
    for class in 0..CLASSES {
        let mut out = Outcome::default();
        let des = run_des(&inputs(class), &mut Spans::new(false), &mut out);
        assert_eq!(out.failed, 0, "class {class}: {:?}", out.problems);
        println!(
            "    DesOutputs {{ ra: {:?}, chaos: {:?}, uts: {:?}, pc: {:?} }},",
            des.ra, des.chaos, des.uts, des.pc
        );
    }
    println!("];");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_maps_to_a_committed_class() {
        for seed in [0, 1, 7, 8, 12345, u64::MAX] {
            assert_eq!(des_seed(seed), des_seed(seed % CLASSES));
        }
        assert_ne!(des_seed(0), des_seed(1));
    }

    #[test]
    fn wrong_golden_is_reported() {
        let got = GOLDEN[3];
        assert!(mismatches(&got, &GOLDEN[3]).is_empty());
        let mut wrong = GOLDEN[3];
        wrong.ra[1] += 1;
        wrong.pc[2] -= 1;
        let found = mismatches(&got, &wrong);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].starts_with("ra ") && found[1].starts_with("pc "));
    }
}
