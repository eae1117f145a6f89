//! Parallel ≡ sequential equivalence for the query-suite hot passes.
//!
//! The chunked passes (triangle counting via the degree-ordered forward
//! orientation, the BFS sweep, the degree histogram) must return *exactly*
//! the sequential reference's values — same integers, same float bits — at
//! every thread budget, including 1 (inline), oversubscribed (8 on any
//! machine), and 0 (reset to the ambient available-parallelism default).
//! This is the evaluation-side mirror of `pgb-core`'s generator
//! thread-invariance suite.

use pgb_graph::degree::{degree_histogram, degree_histogram_seq};
use pgb_graph::Graph;
use pgb_par::with_parallelism;
use pgb_queries::counting::{self, triangle_count, triangles_per_node, wedge_count};
use pgb_queries::path::{path_stats, path_stats_seq};
use pgb_queries::{ApproxConfig, EvalMode, PathMode, Query, QueryParams, QuerySuite, QueryValue};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The budgets every pass is swept over: inline, parallel, oversubscribed,
/// and the ambient default.
const BUDGETS: [usize; 4] = [1, 2, 8, 0];

fn random_graph(n: usize, p_mille: u64, seed: u64) -> Graph {
    // Dense-ish ER graph built from a hash so the proptest case fully
    // determines it: edge {u, v} exists iff the mixed pair hash lands
    // below `p_mille`/1000.
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            let mut h = seed ^ ((u as u64) << 32 | v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 32;
            if h % 1000 < p_mille {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, edges).unwrap()
}

/// The lane-edge sizes the random draw only hits by chance: one source
/// short of a full 64-lane batch, exactly one batch, one over, and two
/// full batches, each against source samples on both sides of the edges.
#[test]
fn bfs_sweep_matches_seq_at_lane_boundaries() {
    for (i, n) in [63usize, 64, 65, 128].into_iter().enumerate() {
        let g = random_graph(n, 40, 700 + i as u64);
        for mode in [1, 63, 64, 65, 129]
            .map(|sources| PathMode::Sampled { sources })
            .into_iter()
            .chain([PathMode::Exact])
        {
            let reference = path_stats_seq(&g, mode, &mut StdRng::seed_from_u64(5));
            for threads in BUDGETS {
                let stats = with_parallelism(threads, || {
                    path_stats(&g, mode, &mut StdRng::seed_from_u64(5))
                });
                assert_eq!(stats, reference, "n = {n}, {mode:?}, threads = {threads}");
            }
        }
    }
}

proptest! {
    #[test]
    fn triangle_pass_matches_seq_at_all_budgets(
        n in 2usize..120,
        p in 0u64..400,
        seed in 0u64..1 << 32,
    ) {
        let g = random_graph(n, p, seed);
        let seq_per_node = counting::seq::triangles_per_node(&g);
        let seq_total = counting::seq::triangle_count(&g);
        let seq_wedges = counting::seq::wedge_count(&g);
        for threads in BUDGETS {
            let (per_node, total, wedges) = with_parallelism(threads, || {
                (triangles_per_node(&g), triangle_count(&g), wedge_count(&g))
            });
            prop_assert_eq!(&per_node, &seq_per_node, "per-node, threads = {}", threads);
            prop_assert_eq!(total, seq_total, "total, threads = {}", threads);
            prop_assert_eq!(wedges, seq_wedges, "wedges, threads = {}", threads);
        }
    }

    #[test]
    fn bfs_sweep_matches_seq_at_all_budgets(
        // Node and source counts cross the 64-lane batch boundary, so full
        // batches run next to a partial one in both modes.
        n in 2usize..200,
        p in 0u64..120,
        seed in 0u64..1 << 32,
        sources in 1usize..150,
    ) {
        let g = random_graph(n, p, seed);
        for mode in [PathMode::Exact, PathMode::Sampled { sources }] {
            let reference = path_stats_seq(&g, mode, &mut StdRng::seed_from_u64(seed));
            for threads in BUDGETS {
                let stats = with_parallelism(threads, || {
                    path_stats(&g, mode, &mut StdRng::seed_from_u64(seed))
                });
                prop_assert_eq!(&stats, &reference, "{:?}, threads = {}", mode, threads);
            }
        }
    }

    #[test]
    fn degree_histogram_matches_seq_at_all_budgets(
        n in 1usize..200,
        p in 0u64..300,
        seed in 0u64..1 << 32,
    ) {
        let g = random_graph(n, p, seed);
        let reference = degree_histogram_seq(&g);
        for threads in BUDGETS {
            let hist = with_parallelism(threads, || degree_histogram(&g));
            prop_assert_eq!(&hist, &reference, "threads = {}", threads);
        }
    }

    #[test]
    fn evaluate_all_bit_identical_at_all_budgets(
        n in 2usize..80,
        p in 0u64..250,
        seed in 0u64..1 << 32,
    ) {
        // End-to-end over the full 15-query suite (sampled BFS so the
        // PATH stream is exercised): every QueryValue — scalars, float
        // distributions, Louvain partitions — must be identical bits at
        // every budget.
        let g = random_graph(n, p, seed);
        let params = QueryParams {
            path_mode: PathMode::Sampled { sources: 8 },
            ..QueryParams::default()
        };
        let run = |threads: usize| {
            with_parallelism(threads, || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
                let values = QuerySuite::evaluate_all(&g, &Query::ALL, &params, &mut rng);
                (values, rng.gen::<u64>())
            })
        };
        let reference = run(1);
        for threads in [2, 8, 0] {
            let got = run(threads);
            prop_assert_eq!(&got.0, &reference.0, "values drifted at threads = {}", threads);
            prop_assert_eq!(got.1, reference.1, "caller RNG position, threads = {}", threads);
        }
    }

    #[test]
    fn approx_evaluate_all_bit_identical_at_all_budgets(
        n in 2usize..80,
        p in 0u64..250,
        seed in 0u64..1 << 32,
    ) {
        // The sketch-backed evaluation path (HyperANF sweep, wedge
        // sampling, degree sampling) must honour the same bit-identity
        // contract as the exact passes: identical QueryValues and caller
        // RNG position at every thread budget. Small sketch sizes keep the
        // case cheap — bit-identity is size-independent.
        let g = random_graph(n, p, seed);
        let params = QueryParams {
            eval: EvalMode::Approx(ApproxConfig {
                hll_precision: 5,
                max_sweep_iters: 32,
                wedge_samples: 4096,
                histogram_samples: 4096,
                confidence: 0.95,
            }),
            ..QueryParams::default()
        };
        let run = |threads: usize| {
            with_parallelism(threads, || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
                let values = QuerySuite::evaluate_all(&g, &Query::ALL, &params, &mut rng);
                (values, rng.gen::<u64>())
            })
        };
        let reference = run(1);
        for threads in [2, 8, 0] {
            let got = run(threads);
            prop_assert_eq!(&got.0, &reference.0, "approx values drifted at threads = {}", threads);
            prop_assert_eq!(got.1, reference.1, "caller RNG position, threads = {}", threads);
        }
    }
}

/// Pulls the scalar value of `q` out of a full-suite result vector.
fn scalar_of(values: &[QueryValue], q: Query) -> f64 {
    values[q.id() - 1].as_scalar().expect("scalar query")
}

/// Accuracy harness: evaluates the full suite exactly and approximately
/// over `seeds` independent ER graphs and returns, per checked query, the
/// fraction of runs whose approximation error stayed within the sketch's
/// *own reported bound*. The bounds are probabilistic (Hoeffding at the
/// configured confidence, HLL's normal-approximation RSE), so the test
/// asserts the hit *fraction*, not every individual case.
fn bound_hit_fractions(seeds: u64) -> (f64, f64, f64, f64) {
    let params_exact = QueryParams::default();
    let cfg = ApproxConfig::default();
    let params_approx = QueryParams { eval: EvalMode::Approx(cfg), ..QueryParams::default() };
    let (mut tri_hits, mut gcc_hits, mut acc_hits, mut path_hits) = (0u32, 0u32, 0u32, 0u32);
    for seed in 0..seeds {
        let mut model_rng = StdRng::seed_from_u64(1000 + seed);
        let g = pgb_models::erdos_renyi_gnp(300, 0.03, &mut model_rng);
        let exact = QuerySuite::evaluate_all(
            &g,
            &Query::ALL,
            &params_exact,
            &mut StdRng::seed_from_u64(seed),
        );
        let (approx, _, report) = QuerySuite::evaluate_all_with_report(
            &g,
            &Query::ALL,
            &params_approx,
            &mut StdRng::seed_from_u64(seed),
        );
        let within =
            |q: Query, bound: f64| (scalar_of(&approx, q) - scalar_of(&exact, q)).abs() <= bound;
        tri_hits += u32::from(within(Query::Triangles, report.triangles_bound.unwrap()));
        gcc_hits += u32::from(within(Query::GlobalClustering, report.gcc_bound.unwrap()));
        acc_hits += u32::from(within(Query::AverageClustering, report.acc_bound.unwrap()));
        // The HLL bound is *relative* and covers the neighbourhood-function
        // values the path statistics derive from; the derived average adds
        // cancellation across levels, so a 2× allowance is the honest
        // per-run check (the assert below is on the hit fraction).
        let exact_avg = scalar_of(&exact, Query::AveragePathLength);
        let approx_avg = scalar_of(&approx, Query::AveragePathLength);
        let rel = (approx_avg - exact_avg).abs() / exact_avg.max(f64::MIN_POSITIVE);
        path_hits += u32::from(rel <= 2.0 * report.path_rel_bound.unwrap());
        // Diameter is a lower bound by construction, like sampled BFS.
        assert!(
            scalar_of(&approx, Query::Diameter) <= scalar_of(&exact, Query::Diameter),
            "HLL diameter must lower-bound the exact diameter (seed {seed})"
        );
    }
    let frac = |hits: u32| hits as f64 / seeds as f64;
    (frac(tri_hits), frac(gcc_hits), frac(acc_hits), frac(path_hits))
}

#[test]
fn approx_estimates_stay_within_reported_bounds() {
    // 40 independent graphs; at 99% configured confidence the expected
    // miss count is < 1 per query, so requiring ≥ 90% hits leaves room
    // for binomial noise without letting a broken bound slip through.
    let (tri, gcc, acc, path) = bound_hit_fractions(40);
    assert!(tri >= 0.9, "triangle bound hit fraction {tri}");
    assert!(gcc >= 0.9, "GCC bound hit fraction {gcc}");
    assert!(acc >= 0.9, "ACC bound hit fraction {acc}");
    assert!(path >= 0.9, "path bound hit fraction {path}");
}

#[test]
fn approx_degree_distribution_converges_on_exact() {
    // The sampled histogram is unbiased; at 2^16 samples its total
    // variation distance from the exact distribution on a 300-node ER
    // graph must be small.
    let mut model_rng = StdRng::seed_from_u64(77);
    let g = pgb_models::erdos_renyi_gnp(300, 0.03, &mut model_rng);
    let exact = QuerySuite::evaluate_all(
        &g,
        &[Query::DegreeDistribution],
        &QueryParams::default(),
        &mut StdRng::seed_from_u64(1),
    );
    let approx = QuerySuite::evaluate_all(
        &g,
        &[Query::DegreeDistribution],
        &QueryParams { eval: EvalMode::Approx(ApproxConfig::default()), ..QueryParams::default() },
        &mut StdRng::seed_from_u64(1),
    );
    let (QueryValue::Distribution(e), QueryValue::Distribution(a)) = (&exact[0], &approx[0]) else {
        panic!("expected distributions");
    };
    let len = e.len().max(a.len());
    let at = |v: &Vec<f64>, i: usize| v.get(i).copied().unwrap_or(0.0);
    let tv: f64 = (0..len).map(|i| (at(e, i) - at(a, i)).abs()).sum::<f64>() / 2.0;
    assert!(tv < 0.05, "total variation distance {tv}");
}
