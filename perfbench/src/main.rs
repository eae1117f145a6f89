//! The PGB benchmark binary: one workload per process.
//!
//! ```text
//! perfbench --workload grid|temporal|serve --seed N --seconds S --trace 0|1
//! perfbench --record grid|temporal
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics (`setup_s`,
//! `wall_s`); with `--trace 1` it runs the workload once as with
//! `--trace 0` and once more with every mechanism wrapped in a timer, and
//! prints the per-layer metrics of the layers the workload reaches. Either
//! way the last stdout line is one JSON object `{"correct", "attempted",
//! "failed", "metrics"}`, and the exit code is nonzero when an output
//! check failed. `run.py` builds this binary, runs it in a child process
//! of its own, so the process-level readings (peak RSS, CPU time) belong
//! to one workload, and lists the metrics as `BENCHMARK.json` does.
//!
//! `--record` prints the output hashes of the input seeds
//! `0..RECORDED_SEEDS` in the format of `expected_hashes.txt`, computed at
//! one thread. Runs use every available thread.

mod grid;
mod probe;
mod serve;
mod suite;
mod temporal;

use crate::probe::{peak_rss_mib, process_cpu_s};
use pgb_serve::fnv1a;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Grid and temporal inputs are made from `--seed` modulo this, so that
/// every input set has a recorded output hash in `expected_hashes.txt`.
pub const RECORDED_SEEDS: u64 = 16;

/// Output hashes recorded by `--record` at one thread; the CSVs are
/// byte-identical at every thread count, so a run at any thread count
/// must reproduce them.
const EXPECTED_HASHES: &str = include_str!("../expected_hashes.txt");

/// How many set-up batches one run times; `setup_s` is their median.
const SETUP_BATCHES: usize = 21;
/// Each batch repeats set-up until it has lasted this long, so that one
/// reading is well above timer and scheduling noise.
const SETUP_BATCH_S: f64 = 0.02;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub record: bool,
    /// Scratch directory for the serve workload's WAL files.
    pub work_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: false,
        work_dir: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--record" => {
                args.workload = value;
                args.record = true;
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--work-dir" => args.work_dir = Some(PathBuf::from(value)),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One run's result line.
#[derive(Debug, Default)]
pub struct Report {
    /// Failed output checks, one message each.
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { value.to_string() } else { "null".into() };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 1]; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `pass` at least `min` times (and at least once), then again while
/// another pass of median length would end no more than half a pass past
/// `seconds`. Returns each pass's seconds.
pub fn repeat_for(
    seconds: f64,
    min: usize,
    mut pass: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let mut times = vec![pass()?];
    while times.len() < min || times.iter().sum::<f64>() + median(&times) / 2.0 < seconds {
        times.push(pass()?);
    }
    Ok(times)
}

/// The hash recorded for `workload` at input seed `seed`.
fn expected_hash(workload: &str, seed: u64) -> Result<u64, String> {
    EXPECTED_HASHES
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 3 && f[0] == workload && f[1] == seed.to_string())
        .and_then(|f| u64::from_str_radix(f[2], 16).ok())
        .ok_or_else(|| format!("no recorded hash for {workload} seed {seed}"))
}

/// Times `SETUP_BATCHES` batches of set-up, each repeating `f` until it
/// has lasted `SETUP_BATCH_S`. Returns the last set-up's output and each
/// batch's seconds per set-up.
pub fn set_up<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_BATCHES);
    let mut out = None;
    for _ in 0..SETUP_BATCHES {
        let start = Instant::now();
        let mut count = 0;
        while count == 0 || start.elapsed().as_secs_f64() < SETUP_BATCH_S {
            out = Some(f()?);
            count += 1;
        }
        times.push(start.elapsed().as_secs_f64() / count as f64);
    }
    Ok((out.expect("set-up ran"), times))
}

/// One pass of a grid-shaped workload (`grid`, `temporal`).
pub struct GridPass {
    /// Seconds of the benchmark-runner call.
    pub secs: f64,
    pub csv: String,
    /// Each outcome row's `runs`, in cells of `rows_per_cell` rows.
    pub runs: Vec<usize>,
    pub rows_per_cell: usize,
}

/// Runs a grid-shaped workload. `pass(traced)` runs the grid once, with
/// every mechanism wrapped in a timer when `traced`. Each pass's CSV must
/// hash to the value recorded for the input `seed`, and its cells count
/// into `attempted`, those whose every repetition failed into `failed`.
///
/// Untraced, it passes for `--seconds` and reports `wall_s`, and `setup_s`
/// as the median of the caller's `setup` times. Traced, it makes one pass
/// each way and reports the process-level readings, the cell count and
/// the tracing overhead; the caller adds the readings of its layers.
pub fn run_grid(
    workload: &str,
    seed: u64,
    args: &Args,
    setup: &[f64],
    mut pass: impl FnMut(bool) -> GridPass,
) -> Result<Report, String> {
    let expected = expected_hash(workload, seed)?;
    let mut report = Report::default();
    let mut checked = |traced: bool, report: &mut Report| {
        let p = pass(traced);
        let hash = fnv1a(p.csv.as_bytes());
        report.check(hash == expected, || {
            let how = if traced { "traced" } else { "untraced" };
            format!(
                "{workload} seed {seed} ({how}): CSV hash {hash:016x}, recorded {expected:016x}"
            )
        });
        let cells = p.runs.chunks(p.rows_per_cell.max(1));
        report.attempted += cells.len() as u64;
        report.failed += cells.filter(|c| c.contains(&0)).count() as u64;
        p.secs
    };

    if !args.trace {
        let walls = repeat_for(args.seconds, 1, || Ok(checked(false, &mut report)))?;
        report.metric("setup_s", median(setup), "s");
        report.metric("wall_s", median(&walls), "s");
        return Ok(report);
    }

    let cpu_before = process_cpu_s()?;
    let wall_untraced = checked(false, &mut report);
    let cpu = process_cpu_s()? - cpu_before;
    report.metric("process.peak_rss_mib", peak_rss_mib()?, "MiB");
    let wall_traced = checked(true, &mut report);
    report.metric("core.cells", (report.attempted / 2) as f64, "count");
    let threads = pgb_par::available_parallelism() as f64;
    report.metric("par.utilisation", cpu / (wall_untraced * threads), "ratio");
    report.metric("trace.overhead_s", wall_traced - wall_untraced, "s");
    Ok(report)
}

fn run(args: &Args) -> Result<Report, String> {
    if args.record {
        for seed in 0..RECORDED_SEEDS {
            let hash = match args.workload.as_str() {
                "grid" => grid::output_hash(seed),
                "temporal" => temporal::output_hash(seed),
                other => return Err(format!("--record: no recorded hashes for {other:?}")),
            };
            println!("{} {seed} {hash:016x}", args.workload);
        }
        std::process::exit(0);
    }
    match args.workload.as_str() {
        "grid" => grid::run(args),
        "temporal" => temporal::run(args),
        "serve" => serve::run(args),
        other => Err(format!("unknown workload {other:?} (expected grid|temporal|serve)")),
    }
}

fn main() -> ExitCode {
    let report = match parse_args().and_then(|args| run(&args)) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for failure in &report.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", report.to_json());
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
