//! The `temporal` workload: the `temporal_grid` shape — TmF and DGG ×
//! both BA-growth sequences × four windows × six ε, exact evaluation.

use crate::probe::{wrap_one, Probe};
use crate::{median, run_grid, set_up, timed, Args, GridPass, Report, RECORDED_SEEDS};
use pgb_bench::{benchmark_config, HarnessArgs};
use pgb_core::benchmark::{run_temporal_benchmark, BenchmarkConfig};
use pgb_core::standard_suite;
use pgb_core::temporal::{temporal_suite, TemporalGenerator};
use pgb_datasets::temporal::{TemporalDataset, TemporalEvents};
use pgb_graph::temporal::SnapshotSequence;
use pgb_queries::{suite_drift, suite_drift_sequence};
use pgb_serve::fnv1a;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const WINDOWS: usize = 4;
const REPS: usize = 3;

/// `temporal_grid`'s configuration at `threads` threads (0 ⇒ every
/// available thread): its node counts keep paths on exact all-sources BFS.
fn config(seed: u64, threads: usize) -> BenchmarkConfig {
    let largest = TemporalDataset::ALL.iter().map(|d| d.nodes()).max().unwrap_or(0);
    let args =
        HarnessArgs { seed, threads, reps: Some(REPS), windows: WINDOWS, ..HarnessArgs::default() };
    benchmark_config(&args, largest)
}

fn events(seed: u64) -> Vec<TemporalEvents> {
    TemporalDataset::ALL.iter().map(|d| d.events(seed)).collect()
}

fn snapshots(events: &[TemporalEvents]) -> Vec<(String, SnapshotSequence)> {
    TemporalDataset::ALL
        .iter()
        .zip(events)
        .map(|(d, e)| {
            let seq = e.snapshots(WINDOWS).expect("BA-growth logs have valid node ranges");
            (d.name().to_string(), seq)
        })
        .collect()
}

/// The temporal roster with each inner mechanism wrapped on `probe`.
fn traced_suite(probe: &Arc<Probe>) -> Vec<TemporalGenerator> {
    temporal_suite()
        .iter()
        .map(|t| {
            let inner = standard_suite()
                .into_iter()
                .find(|g| g.name() == t.name())
                .expect("the temporal roster lifts standard mechanisms");
            TemporalGenerator::new(wrap_one(inner, probe))
        })
        .collect()
}

/// FNV-1a of the temporal grid's CSV at one thread.
pub fn output_hash(seed: u64) -> u64 {
    let results =
        run_temporal_benchmark(&temporal_suite(), &snapshots(&events(seed)), &config(seed, 1));
    fnv1a(results.to_csv().as_bytes())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let seed = args.seed % RECORDED_SEEDS;
    let config = config(seed, 0);
    let (inputs, setup) = set_up(|| Ok(snapshots(&events(seed))))?;

    let probe = Probe::capturing(WINDOWS);
    let mut report = run_grid("temporal", seed, args, &setup, |traced| {
        let suite = if traced { traced_suite(&probe) } else { temporal_suite() };
        let (results, secs) = timed(|| run_temporal_benchmark(&suite, &inputs, &config));
        // A cell is one (sequence, mechanism, ε) and owns a row per query
        // for each window and for the drift.
        let runs = results.outcomes.iter().map(|o| o.runs).collect();
        let rows_per_cell = (WINDOWS + 1) * results.queries.len();
        GridPass { secs, csv: results.to_csv(), runs, rows_per_cell }
    })?;
    if !args.trace {
        return Ok(report);
    }

    let recorded = probe.take();
    recorded.report(&mut report);
    report.check(recorded.captured.len() * WINDOWS == recorded.sample_s.len(), || {
        "sampled windows did not group into whole sequences".into()
    });
    let params = &config.query_params;
    let (_, true_values_s) = timed(|| {
        pgb_par::with_parallelism(1, || {
            for (di, (_, seq)) in inputs.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed ^ di as u64);
                std::hint::black_box(suite_drift_sequence(seq, &config.queries, params, &mut rng));
            }
        })
    });
    report.metric("queries.true_values_s", true_values_s, "s");
    let (_, drift_s) = timed(|| {
        pgb_par::with_parallelism(1, || {
            for (i, seq) in recorded.captured.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed ^ i as u64);
                std::hint::black_box(suite_drift(seq, &config.queries, params, &mut rng));
            }
        })
    });
    report.metric("queries.drift_s", drift_s, "s");
    crate::suite::evaluate(recorded.captured.iter().flatten(), &config).report(&mut report);
    let (events, events_s) = set_up(|| Ok(events(seed)))?;
    report.metric("datasets.generate_s", median(&events_s), "s");
    let (_, snapshots_s) = set_up(|| Ok(snapshots(&events)))?;
    report.metric("graph.snapshots_s", median(&snapshots_s), "s");
    Ok(report)
}
