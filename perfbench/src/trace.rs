//! Spans timed around calls into the layers' public functions.
//!
//! Each thread records into its own [`Spans`] buffer, so recording takes
//! no lock; buffers are merged into a shared [`Trace`] when the thread's
//! work is done. With tracing off, [`Spans::start`] returns `None` and
//! every record is a no-op branch, so the untraced run times the same
//! code path.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One thread's span buffer: `(name, duration in ns)` pairs.
pub struct Spans {
    on: bool,
    buf: Vec<(&'static str, u64)>,
}

impl Spans {
    /// A buffer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Spans { on, buf: Vec::new() }
    }

    /// Opens a span: the start time, or `None` with tracing off.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Closes a span opened by [`Spans::start`] and returns its length in
    /// ns (0 with tracing off).
    #[inline]
    pub fn stop(&mut self, name: &'static str, start: Option<Instant>) -> u64 {
        match start {
            Some(t) => {
                let ns = t.elapsed().as_nanos() as u64;
                self.buf.push((name, ns));
                ns
            }
            None => 0,
        }
    }

    /// Records a value computed from other spans (such as a finish span
    /// minus its body span).
    #[inline]
    pub fn record(&mut self, name: &'static str, ns: u64) {
        if self.on {
            self.buf.push((name, ns));
        }
    }

    /// Times `f` as one span named `name`.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = self.start();
        let r = f();
        self.stop(name, t);
        r
    }
}

/// Spans merged from every thread of one run, grouped by name.
#[derive(Default)]
pub struct Trace {
    by_name: Mutex<BTreeMap<&'static str, Vec<u64>>>,
}

impl Trace {
    /// Merges one thread's buffer.
    pub fn absorb(&self, spans: Spans) {
        let mut map = self.by_name.lock().expect("trace lock poisoned by a panicking image");
        for (name, ns) in spans.buf {
            map.entry(name).or_default().push(ns);
        }
    }

    /// Every recorded duration of `name`, in ns.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let map = self.by_name.lock().expect("trace lock poisoned by a panicking image");
        map.get(name)
            .map(|v| v.iter().map(|&ns| ns as f64).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_on_records_everything() {
        let trace = Trace::default();
        let mut off = Spans::new(false);
        assert_eq!(off.time("x", || 7), 7);
        off.record("y", 5);
        trace.absorb(off);
        assert!(trace.durations("x").is_empty() && trace.durations("y").is_empty());

        let mut on = Spans::new(true);
        on.time("x", || ());
        on.record("y", 5);
        on.record("y", 6);
        trace.absorb(on);
        assert_eq!(trace.durations("x").len(), 1);
        assert_eq!(trace.durations("y"), vec![5.0, 6.0]);
    }
}
