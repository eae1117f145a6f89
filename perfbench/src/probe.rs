//! Timing from outside the layers: a mechanism wrapper that times every
//! `measure` and `sample` call, and the process-level readings.
//!
//! [`Timed`] implements the public [`GraphGenerator`] trait by delegating
//! to the real mechanism, and hands back a [`TimedSynthesis`] that
//! delegates [`PrivateSynthesis::sample`]. It overrides neither
//! `generate` nor anything else a mechanism could override, so every RNG
//! draw happens in the same order as without it; the workloads check that
//! by hashing their outputs with and without it.

use pgb_core::{GenerateError, GraphGenerator, PrivateSynthesis};
use pgb_graph::Graph;
use rand::RngCore;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Busy time of one mechanism, summed over calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct MechTimes {
    pub measure_s: f64,
    pub sample_s: f64,
}

/// What the wrapped mechanisms recorded.
#[derive(Debug, Default)]
pub struct Recorded {
    /// Per mechanism name.
    pub mech: BTreeMap<&'static str, MechTimes>,
    /// The longest single `measure` call.
    pub measure_max_s: f64,
    /// Every `sample` call's duration, in call order per thread.
    pub sample_s: Vec<f64>,
    /// Σ edges of the sampled graphs.
    pub synthetic_edges: u64,
    /// Sampled graphs, grouped into sequences of `group` graphs (only
    /// when the probe captures).
    pub captured: Vec<Vec<Graph>>,
}

/// Shared sink of the wrapped mechanisms.
#[derive(Debug, Default)]
pub struct Probe {
    recorded: Mutex<Recorded>,
    /// `Some(w)`: keep a copy of every sampled graph, grouped per thread
    /// into sequences of `w` consecutive samples (a temporal synthesis
    /// samples its `w` windows in order on one thread).
    capture: Option<usize>,
}

thread_local! {
    /// Seconds this thread spent inside wrapped `measure`/`sample` calls.
    static INSIDE_S: Cell<f64> = const { Cell::new(0.0) };
    /// This thread's partly filled captured sequence.
    static PENDING: RefCell<Vec<Graph>> = const { RefCell::new(Vec::new()) };
}

/// Seconds the calling thread has spent inside wrapped calls so far.
pub fn inside_s() -> f64 {
    INSIDE_S.with(Cell::get)
}

impl Probe {
    /// A probe that records timings only.
    pub fn new() -> Arc<Self> {
        Arc::new(Probe::default())
    }

    /// A probe that also keeps every sampled graph, in sequences of
    /// `group` graphs.
    pub fn capturing(group: usize) -> Arc<Self> {
        Arc::new(Probe { capture: Some(group.max(1)), ..Probe::default() })
    }

    /// Takes what was recorded so far.
    pub fn take(&self) -> Recorded {
        std::mem::take(&mut *self.recorded.lock().expect("probe poisoned"))
    }

    fn on_measure(&self, name: &'static str, secs: f64) {
        INSIDE_S.with(|c| c.set(c.get() + secs));
        let mut r = self.recorded.lock().expect("probe poisoned");
        r.mech.entry(name).or_default().measure_s += secs;
        r.measure_max_s = r.measure_max_s.max(secs);
    }

    fn on_sample(&self, name: &'static str, secs: f64, graph: &Graph) {
        INSIDE_S.with(|c| c.set(c.get() + secs));
        let sequence = self.capture.and_then(|group| {
            PENDING.with(|p| {
                let mut p = p.borrow_mut();
                p.push(graph.clone());
                (p.len() == group).then(|| std::mem::take(&mut *p))
            })
        });
        let mut r = self.recorded.lock().expect("probe poisoned");
        r.mech.entry(name).or_default().sample_s += secs;
        r.sample_s.push(secs);
        r.synthetic_edges += graph.edge_count() as u64;
        r.captured.extend(sequence);
    }
}

/// A mechanism whose `measure` and `sample` calls are timed.
pub struct Timed {
    inner: Box<dyn GraphGenerator>,
    probe: Arc<Probe>,
}

/// Wraps every mechanism of `suite` in [`Timed`] on one probe.
pub fn wrap(
    suite: Vec<Box<dyn GraphGenerator>>,
    probe: &Arc<Probe>,
) -> Vec<Box<dyn GraphGenerator>> {
    suite.into_iter().map(|g| wrap_one(g, probe)).collect()
}

/// Wraps one mechanism in [`Timed`].
pub fn wrap_one(inner: Box<dyn GraphGenerator>, probe: &Arc<Probe>) -> Box<dyn GraphGenerator> {
    Box::new(Timed { inner, probe: Arc::clone(probe) })
}

impl GraphGenerator for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn delta(&self) -> f64 {
        self.inner.delta()
    }

    fn measure(
        &self,
        graph: &Graph,
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn PrivateSynthesis>, GenerateError> {
        let start = Instant::now();
        let measured = self.inner.measure(graph, epsilon, rng);
        self.probe.on_measure(self.inner.name(), start.elapsed().as_secs_f64());
        measured.map(|inner| {
            Box::new(TimedSynthesis { inner, probe: Arc::clone(&self.probe) })
                as Box<dyn PrivateSynthesis>
        })
    }
}

/// A private intermediate whose `sample` calls are timed.
struct TimedSynthesis {
    inner: Box<dyn PrivateSynthesis>,
    probe: Arc<Probe>,
}

impl PrivateSynthesis for TimedSynthesis {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn epsilon_spent(&self) -> f64 {
        self.inner.epsilon_spent()
    }

    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Graph {
        let start = Instant::now();
        let graph = self.inner.sample(rng);
        self.probe.on_sample(self.inner.name(), start.elapsed().as_secs_f64(), &graph);
        graph
    }
}

/// CPU seconds (user + system) this process has used so far, from
/// `/proc/self/stat` (clock ticks of 1/100 s, the fixed `USER_HZ` the
/// kernel reports there).
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12th and 13th here.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let field = |i: usize| -> Result<f64, String> {
        rest.split_whitespace()
            .nth(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((field(11)? + field(12)?) / 100.0)
}

impl Recorded {
    /// The `core.*` and `graph.synthetic_edges` readings of the
    /// mechanisms this run called.
    pub fn report(&self, report: &mut crate::Report) {
        for (name, t) in &self.mech {
            report.metric(format!("core.measure_s.{name}"), t.measure_s, "s");
            report.metric(format!("core.sample_s.{name}"), t.sample_s, "s");
        }
        report.metric("core.measure_max_s", self.measure_max_s, "s");
        report.metric("graph.synthetic_edges", self.synthetic_edges as f64, "count");
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
