//! The `grid` workload: the Table VII grid on Minnesota and Facebook —
//! all six mechanisms × six ε × one repetition, exact evaluation, with
//! `table7`'s full-grid query parameters.

use crate::probe::{wrap, Probe};
use crate::{median, run_grid, set_up, timed, Args, GridPass, Report, RECORDED_SEEDS};
use pgb_bench::{benchmark_config, HarnessArgs};
use pgb_core::benchmark::{run_benchmark, BenchmarkConfig};
use pgb_core::standard_suite;
use pgb_datasets::Dataset;
use pgb_graph::Graph;
use pgb_queries::{PathMode, QuerySuite};
use pgb_serve::fnv1a;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DATASETS: [Dataset; 2] = [Dataset::Minnesota, Dataset::Facebook];

/// `table7`'s configuration at one repetition and `threads` threads
/// (0 ⇒ every available thread). The query parameters are those of the
/// largest Table VI graph — what the full grid uses — not of the two
/// graphs run here, which would switch paths to exact BFS.
fn config(seed: u64, threads: usize) -> BenchmarkConfig {
    let largest = Dataset::TABLE_VI.iter().map(|d| d.target().nodes).max().unwrap_or(0);
    let args = HarnessArgs { seed, threads, reps: Some(1), ..HarnessArgs::default() };
    benchmark_config(&args, largest)
}

fn datasets(seed: u64) -> Vec<(String, Graph)> {
    DATASETS.iter().map(|d| (d.name().to_string(), d.generate(seed))).collect()
}

/// FNV-1a of the grid's CSV at one thread.
pub fn output_hash(seed: u64) -> u64 {
    let results = run_benchmark(&standard_suite(), &datasets(seed), &config(seed, 1));
    fnv1a(results.to_csv().as_bytes())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let seed = args.seed % RECORDED_SEEDS;
    let config = config(seed, 0);
    if config.query_params.path_mode != (PathMode::Sampled { sources: 64 }) {
        return Err("the grid's path mode is no longer table7's sampled BFS".into());
    }
    let (inputs, setup) = set_up(|| Ok(datasets(seed)))?;

    let probe = Probe::capturing(1);
    let mut report = run_grid("grid", seed, args, &setup, |traced| {
        let suite = if traced { wrap(standard_suite(), &probe) } else { standard_suite() };
        let (results, secs) = timed(|| run_benchmark(&suite, &inputs, &config));
        // A cell is one (dataset, mechanism, ε) and owns one row per query.
        let runs = results.outcomes.iter().map(|o| o.runs).collect();
        GridPass { secs, csv: results.to_csv(), runs, rows_per_cell: results.queries.len() }
    })?;
    if !args.trace {
        return Ok(report);
    }

    let recorded = probe.take();
    recorded.report(&mut report);
    let (_, true_values_s) = timed(|| {
        pgb_par::with_parallelism(1, || {
            for (di, (_, g)) in inputs.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed ^ di as u64);
                std::hint::black_box(QuerySuite::evaluate_all(
                    g,
                    &config.queries,
                    &config.query_params,
                    &mut rng,
                ));
            }
        })
    });
    report.metric("queries.true_values_s", true_values_s, "s");
    crate::suite::evaluate(recorded.captured.iter().flatten(), &config).report(&mut report);
    report.metric("datasets.generate_s", median(&setup), "s");
    Ok(report)
}
