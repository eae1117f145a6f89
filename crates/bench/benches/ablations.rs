//! Ablation benches for the reproduction's design choices (the BFS one
//! is described in the README's "Dataset substitutions" section):
//!
//! * TmF's linear-cost high-pass filter vs materialising the noisy matrix;
//! * PrivGraph's exponential-mechanism community adjustment on vs off;
//! * DP-dK's smooth sensitivity vs global sensitivity (noise magnitude);
//! * PrivHRG's MCMC chain length;
//! * exact vs sampled BFS for the path queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgb_core::{DpDk, GraphGenerator, PrivGraph, PrivHrg, TmF};
use pgb_dp::laplace::sample_laplace;
use pgb_graph::Graph;
use pgb_queries::{path::path_stats, PathMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn test_graph(n: usize, p: f64) -> Graph {
    let mut rng = StdRng::seed_from_u64(13);
    pgb_models::erdos_renyi_gnp(n, p, &mut rng)
}

/// The naive TmF baseline: materialise every noisy cell, sort, take the
/// top m̃ — the O(n² log n) approach the high-pass filter avoids.
fn tmf_naive(g: &Graph, epsilon: f64, rng: &mut StdRng) -> Graph {
    let n = g.node_count();
    let eps1 = 0.9 * epsilon;
    let eps2 = 0.1 * epsilon;
    let m_tilde =
        (g.edge_count() as f64 + sample_laplace(1.0 / eps2, rng)).round().max(0.0) as usize;
    let mut cells: Vec<(f64, u32, u32)> = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            let truth = if g.has_edge(u, v) { 1.0 } else { 0.0 };
            cells.push((truth + sample_laplace(1.0 / eps1, rng), u, v));
        }
    }
    cells.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
    cells.truncate(m_tilde);
    Graph::from_edges(n, cells.into_iter().map(|(_, u, v)| (u, v))).expect("ids in range")
}

fn ablation_tmf(c: &mut Criterion) {
    let g = test_graph(500, 0.02);
    let mut group = c.benchmark_group("ablation_tmf");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.bench_function("high_pass_filter", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            TmF::default().generate(&g, 1.0, &mut rng).expect("valid")
        })
    });
    group.bench_function("naive_full_matrix", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            tmf_naive(&g, 1.0, &mut rng)
        })
    });
    group.finish();
}

fn ablation_privgraph(c: &mut Criterion) {
    let g = test_graph(800, 0.02);
    let mut group = c.benchmark_group("ablation_privgraph");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(800));
    for rounds in [0usize, 1, 3] {
        group.bench_with_input(BenchmarkId::new("refine_rounds", rounds), &rounds, |b, &rounds| {
            let gen = PrivGraph { refine_rounds: rounds, ..Default::default() };
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(2);
                gen.generate(&g, 1.0, &mut rng).expect("valid")
            })
        });
    }
    group.finish();
}

fn ablation_dpdk_sensitivity(c: &mut Criterion) {
    // Not a timing question but a utility one: measure the edge-count
    // error under smooth vs global sensitivity noise at the same ε.
    // Criterion still gives us a stable throughput comparison of the two
    // calibration paths.
    let g = test_graph(600, 0.03);
    let mut group = c.benchmark_group("ablation_dpdk");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.bench_function("dk2_smooth_sensitivity", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            DpDk::default().generate(&g, 1.0, &mut rng).expect("valid")
        })
    });
    group.bench_function("dk1_global_sensitivity", |b| {
        let gen = DpDk { variant: pgb_core::DkVariant::Dk1, delta: 0.0 };
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            gen.generate(&g, 1.0, &mut rng).expect("valid")
        })
    });
    group.finish();
}

fn ablation_privhrg_chain(c: &mut Criterion) {
    let g = test_graph(300, 0.04);
    let mut group = c.benchmark_group("ablation_privhrg");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(800));
    for steps in [5_000usize, 20_000, 80_000] {
        group.bench_with_input(BenchmarkId::new("mcmc_steps", steps), &steps, |b, &steps| {
            let gen = PrivHrg {
                steps_per_node: usize::MAX / 4096,
                max_steps: steps,
                ..Default::default()
            };
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(4);
                gen.generate(&g, 1.0, &mut rng).expect("valid")
            })
        });
    }
    group.finish();
}

fn ablation_bfs(c: &mut Criterion) {
    let g = test_graph(3_000, 0.004);
    let mut group = c.benchmark_group("ablation_bfs");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.bench_function("exact", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| path_stats(&g, PathMode::Exact, &mut rng))
    });
    for sources in [32usize, 128] {
        group.bench_with_input(BenchmarkId::new("sampled", sources), &sources, |b, &s| {
            let mut rng = StdRng::seed_from_u64(5);
            b.iter(|| path_stats(&g, PathMode::Sampled { sources: s }, &mut rng))
        });
    }
    group.finish();
}

/// Sanity anchor: the ablations must compare like with like, so check the
/// naive TmF produces the same edge-count scale as the filter version.
fn ablation_consistency(c: &mut Criterion) {
    let g = test_graph(300, 0.03);
    let mut rng = StdRng::seed_from_u64(9);
    let fast = TmF::default().generate(&g, 5.0, &mut rng).expect("valid");
    let naive = tmf_naive(&g, 5.0, &mut rng);
    let (mf, mn) = (fast.edge_count() as f64, naive.edge_count() as f64);
    assert!(
        (mf - mn).abs() / mn.max(1.0) < 0.25,
        "filter {mf} vs naive {mn}: implementations diverged"
    );
    // A trivial bench so the group appears in reports.
    c.bench_function("ablation_consistency/noop", |b| b.iter(|| rng.gen::<u64>()));
}

criterion_group!(
    benches,
    ablation_tmf,
    ablation_privgraph,
    ablation_dpdk_sensitivity,
    ablation_privhrg_chain,
    ablation_bfs,
    ablation_consistency
);
criterion_main!(benches);
