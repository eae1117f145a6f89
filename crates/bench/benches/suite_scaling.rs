//! Query-suite evaluation scaling: the shared passes of
//! [`QuerySuite::evaluate_all`] (degree histogram, triangle pass via the
//! degree-ordered forward orientation, BFS sweep, Louvain scans) are
//! chunked on `pgb-par` and pick up the ambient thread budget, so on
//! multi-core hardware `evaluate_all` on a large graph should scale with
//! `threads`; on a single core the >1 budgets pay only thread-spawn
//! oversubscription, so the sweep should stay within ~5% of the 1-thread
//! run (measured: 2.71 s / 2.86 s / 2.72 s at threads 1 / 2 / 8 on this
//! 1-core container).
//!
//! Run with `cargo bench --bench suite_scaling`. Four groups:
//!
//! * `suite_scaling` — the full 15-query suite on a 10⁵-node
//!   Barabási–Albert graph (sampled BFS, the harness' mode at this scale)
//!   at thread budgets {1, 2, 8}.
//! * `suite_seq_overhead` — each parallelised pass at a 1-thread budget
//!   vs its sequential reference (`counting::seq`, `path_stats_seq`,
//!   `degree_histogram_seq`) on the same graph. For the degree histogram
//!   the 1-thread budget takes `par_fold_chunks`' single-accumulator
//!   inline path over the same algorithm, so its overhead must stay ≤ 5%
//!   (measured ≈ 1% on a 1-core Xeon). The other two compare different
//!   algorithms, so they are speed-ups, not overheads: the triangle pass
//!   folds in the degree-ordered orientation (~2.5× faster than the
//!   id-ordered reference on the BA graph, threads or no threads), and
//!   `bfs64/par1` runs the 64 sampled sources as one bit-parallel batch
//!   where `bfs64/seq`, the per-source oracle, runs 64 separate BFS
//!   traversals.
//! * `bfs64_budgets` — the harness' 64-source sampled BFS sweep alone at
//!   thread budgets {1, 2, 4, 8} on the Minnesota road-network stand-in
//!   (diameter ≈ 100), the poli-large stand-in and the BA graph. The
//!   sweep runs 64-source batches at every budget, so a 64-source sample
//!   is one batch on one thread and larger budgets should neither help
//!   nor cost; the runs behind that choice are in `BENCH_PATHS.json`.
//!
//! * `suite_eval_mode` — Exact vs Approx (`EvalMode`) evaluation of the
//!   eight sketch-backed queries (Q3, Q5–Q11) on a 10⁶-node BA graph at a
//!   1-thread budget, the acceptance measurement for the sketch layer
//!   (target: Approx ≥ 5× faster; the mode-independent queries Q12–Q15 do
//!   identical work under both modes, so including them would measure the
//!   shared baseline, not the axis). The graph is built through
//!   `GraphBuilder::build_streaming` — no unsorted edge list — and its CSR
//!   `heap_bytes` footprint is printed alongside. Set
//!   `PGB_SUITE_SCALING_HUGE=1` to add the 10⁷-node Approx-only cell
//!   (at the default p = 4 the sweep's two register arrays stay at
//!   2 × 160 MB; there is no Exact comparison at that scale — that is
//!   the point).
//!   Measured numbers are recorded in `BENCH_SUITE_SCALING.json` at the
//!   repo root.
//!
//! Byte-identity across the budgets is enforced by tests
//! (`crates/queries/tests/parallel.rs`); this bench only measures time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgb_datasets::Dataset;
use pgb_queries::counting::{self, triangles_per_node};
use pgb_queries::path::{path_stats, path_stats_seq};
use pgb_queries::{ApproxConfig, EvalMode, PathMode, Query, QueryParams, QuerySuite};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// The queries whose shared intermediates the `EvalMode` axis replaces:
/// Q3 (triangles), Q5/Q6 (degree histogram), Q7–Q9 (distance sweep),
/// Q10/Q11 (clustering).
const SKETCH_QUERIES: [Query; 8] = [
    Query::Triangles,
    Query::DegreeVariance,
    Query::DegreeDistribution,
    Query::Diameter,
    Query::AveragePathLength,
    Query::DistanceDistribution,
    Query::GlobalClustering,
    Query::AverageClustering,
];

fn bench_suite_scaling(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    let g = pgb_models::barabasi_albert(100_000, 4, &mut rng);
    let params =
        QueryParams { path_mode: PathMode::Sampled { sources: 64 }, ..QueryParams::default() };
    let mut group = c.benchmark_group("suite_scaling");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    group.warm_up_time(Duration::from_millis(800));
    for threads in [1usize, 2, 8] {
        group.bench_with_input(
            BenchmarkId::new("evaluate_all_100k_ba", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    pgb_par::with_parallelism(threads, || {
                        let mut rng = StdRng::seed_from_u64(5);
                        QuerySuite::evaluate_all(&g, &Query::ALL, &params, &mut rng)
                    })
                })
            },
        );
    }
    group.finish();
}

fn bench_seq_overhead(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    let g = pgb_models::barabasi_albert(100_000, 4, &mut rng);
    let mut group = c.benchmark_group("suite_seq_overhead");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));
    group.warm_up_time(Duration::from_millis(800));

    group.bench_function("triangles/seq", |b| b.iter(|| counting::seq::triangles_per_node(&g)));
    group.bench_function("triangles/par1", |b| {
        b.iter(|| pgb_par::with_parallelism(1, || triangles_per_node(&g)))
    });

    let mode = PathMode::Sampled { sources: 64 };
    group.bench_function("bfs64/seq", |b| {
        b.iter(|| path_stats_seq(&g, mode, &mut StdRng::seed_from_u64(5)))
    });
    group.bench_function("bfs64/par1", |b| {
        b.iter(|| {
            pgb_par::with_parallelism(1, || path_stats(&g, mode, &mut StdRng::seed_from_u64(5)))
        })
    });

    group.bench_function("degree_hist/seq", |b| {
        b.iter(|| pgb_graph::degree::degree_histogram_seq(&g))
    });
    group.bench_function("degree_hist/par1", |b| {
        b.iter(|| pgb_par::with_parallelism(1, || pgb_graph::degree::degree_histogram(&g)))
    });
    group.finish();
}

fn bench_bfs64_budgets(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    let graphs = [
        ("Minnesota", Dataset::Minnesota.generate(7)),
        ("poli-large", Dataset::PoliLarge.generate(7)),
        ("ba_100k", pgb_models::barabasi_albert(100_000, 4, &mut rng)),
    ];
    let mode = PathMode::Sampled { sources: 64 };
    let mut group = c.benchmark_group("bfs64_budgets");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for (name, g) in &graphs {
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(BenchmarkId::new(*name, threads), &threads, |b, &threads| {
                b.iter(|| {
                    pgb_par::with_parallelism(threads, || {
                        path_stats(g, mode, &mut StdRng::seed_from_u64(5))
                    })
                })
            });
        }
    }
    group.finish();
}

fn bench_eval_modes(c: &mut Criterion) {
    // Streaming build: the 8M-edge BA stream is counting-sorted straight
    // into CSR, never holding the unsorted pair list.
    let mut rng = StdRng::seed_from_u64(17);
    let g = pgb_models::ba::barabasi_albert_streaming(1_000_000, 4, &mut rng);
    eprintln!(
        "10^6-node BA graph: {} edges, CSR heap_bytes = {} ({:.1} MB)",
        g.edge_count(),
        g.heap_bytes(),
        g.heap_bytes() as f64 / (1024.0 * 1024.0)
    );
    let exact =
        QueryParams { path_mode: PathMode::Sampled { sources: 64 }, ..QueryParams::default() };
    let approx = QueryParams { eval: EvalMode::Approx(ApproxConfig::default()), ..exact };

    let mut group = c.benchmark_group("suite_eval_mode");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(20));
    group.warm_up_time(Duration::from_secs(1));
    for (name, params) in [("exact_1m_t1", exact), ("approx_1m_t1", approx)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                pgb_par::with_parallelism(1, || {
                    let mut rng = StdRng::seed_from_u64(5);
                    QuerySuite::evaluate_all(&g, &SKETCH_QUERIES, &params, &mut rng)
                })
            })
        });
    }
    drop(g);

    if std::env::var_os("PGB_SUITE_SCALING_HUGE").is_some() {
        // 10⁷ nodes: the default HLL precision (p = 4) keeps the sweep's
        // two register arrays at 2 × 160 MB next to the ~450 MB CSR.
        let mut rng = StdRng::seed_from_u64(18);
        let g = pgb_models::ba::barabasi_albert_streaming(10_000_000, 4, &mut rng);
        eprintln!(
            "10^7-node BA graph: {} edges, CSR heap_bytes = {} ({:.1} MB)",
            g.edge_count(),
            g.heap_bytes(),
            g.heap_bytes() as f64 / (1024.0 * 1024.0)
        );
        let params = QueryParams { eval: EvalMode::Approx(ApproxConfig::default()), ..exact };
        group.bench_function("approx_10m_t1", |b| {
            b.iter(|| {
                pgb_par::with_parallelism(1, || {
                    let mut rng = StdRng::seed_from_u64(5);
                    QuerySuite::evaluate_all(&g, &SKETCH_QUERIES, &params, &mut rng)
                })
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_suite_scaling,
    bench_seq_overhead,
    bench_bfs64_budgets,
    bench_eval_modes
);
criterion_main!(benches);
