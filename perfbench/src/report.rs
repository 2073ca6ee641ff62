//! The result of one benchmark run, printed as lines for people and as a
//! final JSON line for `run.py`.

use std::fmt::Write as _;

use crate::stats;

/// One named measurement.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json` for gated metrics.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Samples the value rests on, where it is an order statistic.
    pub samples: Option<usize>,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose outputs failed a check.
    pub failed: u64,
    /// The first failed checks, in words.
    pub problems: Vec<String>,
    /// The metrics `BENCHMARK.json` lists for this mode.
    pub metrics: Vec<Metric>,
    /// Further figures, printed and kept in result files but not gated.
    pub extras: Vec<Metric>,
}

impl Report {
    /// Adds a gated metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit, samples: None });
    }

    /// Adds an ungated figure.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push(Metric { name: name.into(), value, unit, samples: None });
    }

    /// Adds the median of whole-measurement repeats (such as one figure
    /// per launch) as a gated metric; having none is a failed check.
    pub fn repeats_metric(&mut self, name: &str, repeats: &[f64], unit: &'static str) {
        let value = if repeats.is_empty() {
            self.problem(format!("{name}: nothing measured"));
            f64::NAN
        } else {
            stats::median(repeats)
        };
        self.metrics
            .push(Metric { name: name.into(), value, unit, samples: Some(repeats.len()) });
    }

    /// Adds the median of `samples` as a gated metric, scaled by `scale`.
    /// Too few samples for a median is a failed check.
    pub fn median_metric(&mut self, name: &str, samples: &[f64], scale: f64, unit: &'static str) {
        let m = self.median_of(name, samples, scale, unit);
        self.metrics.push(m);
    }

    /// [`Report::median_metric`], ungated.
    pub fn median_extra(&mut self, name: &str, samples: &[f64], scale: f64, unit: &'static str) {
        let m = self.median_of(name, samples, scale, unit);
        self.extras.push(m);
    }

    fn median_of(&mut self, name: &str, samples: &[f64], scale: f64, unit: &'static str) -> Metric {
        let value = stats::percentile(samples, 0.5).unwrap_or_else(|| {
            self.problem(format!("{name}: {} samples are too few for a median", samples.len()));
            f64::NAN
        });
        Metric { name: name.into(), value: value * scale, unit, samples: Some(samples.len()) }
    }

    /// Adds the highest tail percentile `samples` support, as an ungated
    /// figure named `{prefix}_p{q}_us`.
    pub fn tail_extra(&mut self, prefix: &str, samples_us: &[f64]) {
        if let Some((q, v)) = stats::tail(samples_us) {
            let pct = format!("{}", q * 100.0).replace('.', "_");
            self.extras.push(Metric {
                name: format!("{prefix}_p{pct}_us"),
                value: v,
                unit: "us",
                samples: Some(samples_us.len()),
            });
        }
    }

    /// Records a failed check that is not tied to one operation.
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 16 {
            self.problems.push(what);
        }
    }

    /// Folds in a sub-run's counts and problems.
    pub fn absorb(&mut self, attempted: u64, failed: u64, problems: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        for p in problems {
            self.problem(p);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.problems.is_empty()
            && self.metrics.iter().chain(&self.extras).all(|m| m.value.is_finite())
    }

    /// Human-readable lines, one per figure.
    pub fn lines(&self) -> String {
        let mut s = String::new();
        for (kind, list) in [("metric", &self.metrics), ("extra", &self.extras)] {
            for m in list {
                let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
                let _ = writeln!(s, "{kind:<6} {:<28} {:>16.6} {}{n}", m.name, m.value, m.unit);
            }
        }
        let _ = writeln!(s, "checks: {} attempted, {} failed", self.attempted, self.failed);
        for p in &self.problems {
            let _ = writeln!(s, "FAILED: {p}");
        }
        s
    }

    /// The JSON object `run.py` reads.
    pub fn json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let list = |ms: &[Metric]| {
            let items: Vec<String> = ms
                .iter()
                .map(|m| {
                    let n = m.samples.map(|n| format!(", \"samples\": {n}")).unwrap_or_default();
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}{n}}}",
                        quote(&m.name),
                        number(m.value),
                        quote(m.unit)
                    )
                })
                .collect();
            format!("{{{}}}", items.join(", "))
        };
        let problems: Vec<String> = self.problems.iter().map(|p| quote(p)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"extras\": {}, \
             \"problems\": [{}]}}",
            quote(workload),
            u8::from(trace),
            self.correct(),
            self.attempted.max(1),
            self.failed,
            list(&self.metrics),
            list(&self.extras),
            problems.join(", ")
        )
    }
}

/// A JSON number; JSON has no NaN or infinity, so those become `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// CPU time the hypervisor has stolen from this machine so far, in clock
/// ticks summed over its CPUs (the `steal` column of `/proc/stat`); 0
/// where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Time the calling thread has spent running on a CPU, in seconds, from
/// `/proc/thread-self/schedstat`; time stolen by the hypervisor or spent
/// waiting for a CPU does not count.
pub fn thread_cpu_s() -> Option<f64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: u64 = s.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

/// A memory figure of this process from `/proc/self/status`, in MB:
/// `VmRSS` (resident now) or `VmHWM` (peak resident).
pub fn status_mb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.split(':').next() == Some(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_nulls() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn too_few_samples_fail_the_run() {
        let mut r = Report { attempted: 1, ..Report::default() };
        r.median_metric("x_us", &[1.0; 25], 1.0, "us");
        assert!(r.correct());
        r.median_metric("y_us", &[1.0; 5], 1.0, "us");
        assert!(!r.correct());
        assert!(r.json("w", 1, false).contains("\"y_us\": {\"value\": null"));
    }
}
