//! Grid tail behaviour: the grid shape the elastic thread budget exists for.
//!
//! A grid of `available_parallelism() + 2` cells run with `threads =
//! available_parallelism()` drains below the worker count at its tail. The
//! grid executor's ledger re-grants the threads of finished workers to each
//! claimed (cell, repetition-block) sub-task, so the tail cells run on
//! more than a one-thread share. Run with `cargo bench --bench sched_tail`
//! and compare the recorded wall-clock across commits on the same machine.

use criterion::{criterion_group, criterion_main, Criterion};
use pgb_core::benchmark::{run_benchmark, BenchmarkConfig};
use pgb_core::{par, GraphGenerator, TmF};
use pgb_queries::Query;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_sched_tail(c: &mut Criterion) {
    let cores = par::available_parallelism();
    let mut rng = StdRng::seed_from_u64(3);
    // Meaty enough that a cell's generation + query pass dominates the
    // scheduling overhead being measured.
    let g = pgb_models::barabasi_albert(5_000, 4, &mut rng);
    let datasets = vec![("ba".to_string(), g)];
    let algorithms: Vec<Box<dyn GraphGenerator>> = vec![Box::new(TmF::default())];
    // One ε per cell: cores + 2 cells of one (dataset, algorithm) pair.
    let config = BenchmarkConfig {
        epsilons: (0..cores + 2).map(|i| 0.5 + 0.25 * i as f64).collect(),
        repetitions: 2,
        queries: vec![Query::EdgeCount, Query::Triangles, Query::DegreeDistribution],
        seed: 3,
        threads: cores,
        ..Default::default()
    };

    let mut group = c.benchmark_group("sched_tail");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.bench_function("grid_cores_plus_2", |b| {
        b.iter(|| run_benchmark(&algorithms, &datasets, &config))
    });
    group.finish();
}

criterion_group!(benches, bench_sched_tail);
criterion_main!(benches);
