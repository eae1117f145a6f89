//! Single-pass evaluation of a query subset: [`QuerySuite::evaluate_all`].
//!
//! The benchmark evaluates the full 15-query suite on every synthetic graph
//! (algorithms × datasets × ε × repetitions), and several queries share an
//! expensive intermediate:
//!
//! * one **degree histogram** feeds Q5 (variance) and Q6 (distribution);
//! * one **BFS sweep** ([`path::path_stats`]) feeds Q7 (diameter), Q8
//!   (average path length), and Q9 (distance distribution);
//! * one **triangle pass** ([`counting::triangles_per_node`]) feeds Q3
//!   (triangles), Q10 (GCC), and Q11 (ACC);
//! * one **Louvain run** feeds Q12 (community detection) and Q13
//!   (modularity).
//!
//! Evaluating queries independently via [`Query::evaluate`] recomputes each
//! of these once per dependent query — three BFS sweeps, three triangle
//! passes, two Louvain runs for the full suite. `evaluate_all` computes each
//! shared intermediate lazily and at most once, and every reduction goes
//! through the same helper functions as the per-query path, so deterministic
//! queries (everything except Louvain-backed Q12/Q13, and Q7–Q9 under
//! [`crate::PathMode::Sampled`]) return bit-identical values either way.
//!
//! ## Parallelism
//!
//! The shared passes themselves are parallel: the degree histogram, the
//! triangle pass (via the degree-ordered [`counting::ForwardOrientation`]),
//! and Louvain's init/aggregation scans are chunked on `pgb-par`'s
//! fixed-boundary discipline, and the BFS sweep runs its bit-parallel
//! batches of 64 sources as chunks (so a 64-source sample is one batch at
//! any budget: a narrower batch costs about as much as a full one). All pick
//! up the **ambient** [`pgb_par::current_parallelism`] budget — the
//! benchmark runner's schedulers already scope every repetition with
//! `pgb_par::with_parallelism`, so evaluation scales with the intra-cell
//! thread budget without any new plumbing, and every pass is bit-identical
//! at any thread count (chunk merges are exact-integer or order-preserving
//! appends only).
//!
//! ## RNG-stream discipline
//!
//! Randomised components must not make results depend on which other queries
//! run, or in what order. `evaluate_all` therefore draws **one** `u64` base
//! seed from the caller's RNG and gives every randomised intermediate its
//! own deterministic stream derived from `(base, intermediate tag)`:
//!
//! * the BFS source sample (only drawn upon under `PathMode::Sampled`) uses
//!   the `PATH` stream;
//! * the Louvain node order uses the `LOUVAIN` stream;
//! * under [`EvalMode::Approx`], the HyperANF hash seed, the wedge-sample
//!   draws, and the degree-sample draws use the `HLL`, `TRI_SKETCH`, and
//!   `HIST` streams respectively — *never* the exact path's streams, so
//!   toggling the mode cannot perturb an exact evaluation's RNG cursor
//!   (the golden CSVs only exercise `Exact`).
//!
//! Consequences: (1) the caller's RNG advances by exactly one draw no matter
//! which queries are requested, (2) the value computed for a query is
//! identical whether it is evaluated alone or as part of the full suite, and
//! (3) a benchmark harness that seeds the caller RNG per cell gets results
//! that are independent of thread count and query-subset choice — the
//! property behind `pgb-core`'s byte-identical-CSV guarantee.
//!
//! ## Approximate evaluation
//!
//! With [`QueryParams::eval`] set to [`EvalMode::Approx`], the three
//! super-linear shared intermediates are replaced by the sketches in
//! [`crate::approx`] (HyperANF for the BFS sweep, wedge sampling for the
//! triangle pass, degree sampling for the histogram), each at most once,
//! under the same subset-independence and thread-count guarantees. The
//! sketches' reported error bounds are surfaced through
//! [`QuerySuite::evaluate_all_with_report`].

use crate::approx;
use crate::{centrality, counting, path, topology, EvalMode, Query, QueryParams, QueryValue};
use pgb_community::Partition;
use pgb_graph::degree::{distribution_from_histogram, variance_from_histogram};
use pgb_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stream tag for the BFS source sample (Q7–Q9 under sampled mode).
const PATH_STREAM: u64 = 1;
/// Stream tag for the Louvain node order (Q12/Q13).
const LOUVAIN_STREAM: u64 = 2;
/// Stream tag for the HyperANF hash seed (Q7–Q9 under [`EvalMode::Approx`]).
const HLL_STREAM: u64 = 3;
/// Stream tag for the wedge-sampling triangle sketch (Q3/Q10/Q11 under
/// [`EvalMode::Approx`]).
const TRI_SKETCH_STREAM: u64 = 4;
/// Stream tag for the sampled degree histogram (Q5/Q6 under
/// [`EvalMode::Approx`]).
const HIST_STREAM: u64 = 5;

/// Derives the deterministic RNG for one randomised intermediate from the
/// per-evaluation base seed (same mixer family as `pgb-core`'s per-cell
/// derivation).
fn stream(base: u64, tag: u64) -> StdRng {
    let mut h = base ^ 0x9E37_79B9_7F4A_7C15;
    h ^= tag.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(h << 6).wrapping_add(h >> 2);
    h = h.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    h ^= h >> 32;
    StdRng::seed_from_u64(h)
}

/// Instrumentation counters: how many times each shared pass actually ran
/// during one [`QuerySuite::evaluate_all_with_stats`] call. Each is at most
/// 1 by construction; a pass whose dependent queries were not requested
/// stays at 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SuiteStats {
    /// Degree-histogram passes (Q5/Q6).
    pub degree_passes: usize,
    /// All-sources/sampled BFS sweeps (Q7–Q9).
    pub bfs_sweeps: usize,
    /// Triangle-per-node passes (Q3/Q10/Q11).
    pub triangle_passes: usize,
    /// Louvain runs (Q12/Q13).
    pub louvain_runs: usize,
}

/// Error bounds reported by one [`QuerySuite::evaluate_all_with_report`]
/// call under [`EvalMode::Approx`]. Every field is `None`/default until the
/// sketch that produces it actually runs (and always under
/// [`EvalMode::Exact`]); bounds hold at [`ApproxReport::confidence`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ApproxReport {
    /// Confidence level of every bound below (0 until a sketch runs).
    pub confidence: f64,
    /// Absolute Hoeffding bound on the Q3 triangle estimate.
    pub triangles_bound: Option<f64>,
    /// Absolute Hoeffding bound on the Q10 GCC estimate.
    pub gcc_bound: Option<f64>,
    /// Absolute Hoeffding bound on the Q11 ACC estimate.
    pub acc_bound: Option<f64>,
    /// Relative HLL bound on the neighbourhood-function values behind
    /// Q7–Q9.
    pub path_rel_bound: Option<f64>,
    /// Whether the HyperANF sweep hit its iteration cap before its
    /// register fixpoint.
    pub path_saturated: bool,
}

/// Lazily computed shared intermediates for one graph. The histogram is
/// stored with the population count the `*_from_histogram` helpers divide
/// by (`n` exactly, the sample count under [`EvalMode::Approx`]).
struct SharedPasses<'g> {
    g: &'g Graph,
    params: QueryParams,
    base: u64,
    degree_hist: Option<(Vec<u64>, usize)>,
    path: Option<path::PathStats>,
    triangles: Option<Vec<u64>>,
    tri_sketch: Option<approx::TriangleSketch>,
    louvain: Option<(Partition, f64)>,
    stats: SuiteStats,
    report: ApproxReport,
}

impl<'g> SharedPasses<'g> {
    fn new(g: &'g Graph, params: QueryParams, base: u64) -> Self {
        SharedPasses {
            g,
            params,
            base,
            degree_hist: None,
            path: None,
            triangles: None,
            tri_sketch: None,
            louvain: None,
            stats: SuiteStats::default(),
            report: ApproxReport::default(),
        }
    }

    /// The approx configuration, if this evaluation is sketch-backed.
    fn approx_cfg(&self) -> Option<crate::ApproxConfig> {
        match self.params.eval {
            EvalMode::Exact => None,
            EvalMode::Approx(cfg) => Some(cfg),
        }
    }

    fn degree_hist(&mut self) -> (&[u64], usize) {
        if self.degree_hist.is_none() {
            self.stats.degree_passes += 1;
            self.degree_hist = Some(match self.approx_cfg() {
                None => (pgb_graph::degree::degree_histogram(self.g), self.g.node_count()),
                Some(cfg) => {
                    self.report.confidence = cfg.confidence;
                    let mut rng = stream(self.base, HIST_STREAM);
                    let s =
                        approx::sampled_degree_histogram(self.g, cfg.histogram_samples, &mut rng);
                    (s.hist, s.samples)
                }
            });
        }
        let (hist, denom) = self.degree_hist.as_ref().expect("filled above");
        (hist, *denom)
    }

    fn path_stats(&mut self) -> &path::PathStats {
        if self.path.is_none() {
            self.stats.bfs_sweeps += 1;
            self.path = Some(match self.approx_cfg() {
                None => {
                    let mut rng = stream(self.base, PATH_STREAM);
                    path::path_stats(self.g, self.params.path_mode, &mut rng)
                }
                Some(cfg) => {
                    let mut rng = stream(self.base, HLL_STREAM);
                    let sk = approx::hll_path_stats(self.g, &cfg, &mut rng);
                    self.report.confidence = cfg.confidence;
                    self.report.path_rel_bound = Some(sk.rel_bound);
                    self.report.path_saturated = sk.saturated;
                    sk.stats
                }
            });
        }
        self.path.as_ref().expect("filled above")
    }

    fn triangles_per_node(&mut self) -> &[u64] {
        if self.triangles.is_none() {
            self.stats.triangle_passes += 1;
            self.triangles = Some(counting::triangles_per_node(self.g));
        }
        self.triangles.as_deref().expect("filled above")
    }

    fn triangle_total(&mut self) -> u64 {
        self.triangles_per_node().iter().sum::<u64>() / 3
    }

    /// The shared wedge-sampling sketch (Q3/Q10/Q11 under approx mode).
    /// Counted as the evaluation's one triangle pass.
    fn tri_sketch(&mut self, cfg: &crate::ApproxConfig) -> approx::TriangleSketch {
        if self.tri_sketch.is_none() {
            self.stats.triangle_passes += 1;
            let fwd = counting::ForwardOrientation::new(self.g);
            let mut rng = stream(self.base, TRI_SKETCH_STREAM);
            let sk = approx::triangle_sketch(self.g, &fwd, cfg, &mut rng);
            self.report.confidence = cfg.confidence;
            self.report.triangles_bound = Some(sk.triangles_bound);
            self.report.gcc_bound = Some(sk.gcc_bound);
            self.report.acc_bound = Some(sk.acc_bound);
            self.tri_sketch = Some(sk);
        }
        self.tri_sketch.expect("filled above")
    }

    fn louvain(&mut self) -> &(Partition, f64) {
        if self.louvain.is_none() {
            self.stats.louvain_runs += 1;
            let mut rng = stream(self.base, LOUVAIN_STREAM);
            self.louvain = Some(topology::communities_with_modularity(self.g, &mut rng));
        }
        self.louvain.as_ref().expect("filled above")
    }

    fn evaluate(&mut self, q: Query) -> QueryValue {
        let g = self.g;
        match q {
            Query::NodeCount => QueryValue::Scalar(g.node_count() as f64),
            Query::EdgeCount => QueryValue::Scalar(g.edge_count() as f64),
            Query::Triangles => match self.approx_cfg() {
                None => QueryValue::Scalar(self.triangle_total() as f64),
                Some(cfg) => QueryValue::Scalar(self.tri_sketch(&cfg).triangles),
            },
            Query::AverageDegree => QueryValue::Scalar(g.average_degree()),
            Query::DegreeVariance => {
                let (hist, denom) = self.degree_hist();
                QueryValue::Scalar(variance_from_histogram(hist, denom))
            }
            Query::DegreeDistribution => {
                let (hist, denom) = self.degree_hist();
                QueryValue::Distribution(distribution_from_histogram(hist, denom))
            }
            Query::Diameter => QueryValue::Scalar(self.path_stats().diameter as f64),
            Query::AveragePathLength => QueryValue::Scalar(self.path_stats().average_length),
            Query::DistanceDistribution => {
                QueryValue::Distribution(self.path_stats().distance_distribution.clone())
            }
            Query::GlobalClustering => match self.approx_cfg() {
                None => {
                    let triangles = self.triangle_total();
                    QueryValue::Scalar(crate::clustering::global_clustering_from_counts(
                        triangles,
                        counting::wedge_count(g),
                    ))
                }
                Some(cfg) => QueryValue::Scalar(self.tri_sketch(&cfg).gcc),
            },
            Query::AverageClustering => match self.approx_cfg() {
                None => {
                    let per_node = self.triangles_per_node();
                    QueryValue::Scalar(crate::clustering::average_clustering_from_triangles(
                        g, per_node,
                    ))
                }
                Some(cfg) => QueryValue::Scalar(self.tri_sketch(&cfg).acc),
            },
            Query::CommunityDetection => QueryValue::Partition(self.louvain().0.labels().to_vec()),
            Query::Modularity => QueryValue::Scalar(self.louvain().1),
            Query::Assortativity => {
                QueryValue::Scalar(pgb_graph::degree::assortativity(g).unwrap_or(0.0))
            }
            Query::EigenvectorCentrality => QueryValue::Vector(centrality::eigenvector_centrality(
                g,
                self.params.evc_max_iters,
                self.params.evc_tolerance,
            )),
        }
    }
}

/// One-pass evaluator for a set of queries on one graph.
pub struct QuerySuite;

impl QuerySuite {
    /// Evaluates `queries` on `g`, computing each shared intermediate
    /// (degree histogram, BFS sweep, triangle pass, Louvain run) lazily and
    /// at most once. Returns one [`QueryValue`] per entry of `queries`, in
    /// order.
    ///
    /// `rng` is consumed for exactly one `u64` draw regardless of the query
    /// subset; see the module docs for the stream-derivation discipline.
    pub fn evaluate_all<R: Rng + ?Sized>(
        g: &Graph,
        queries: &[Query],
        params: &QueryParams,
        rng: &mut R,
    ) -> Vec<QueryValue> {
        Self::evaluate_all_with_stats(g, queries, params, rng).0
    }

    /// [`QuerySuite::evaluate_all`] plus the [`SuiteStats`] instrumentation
    /// counters — used by tests to assert the at-most-once guarantee.
    pub fn evaluate_all_with_stats<R: Rng + ?Sized>(
        g: &Graph,
        queries: &[Query],
        params: &QueryParams,
        rng: &mut R,
    ) -> (Vec<QueryValue>, SuiteStats) {
        let (values, stats, _) = Self::evaluate_all_with_report(g, queries, params, rng);
        (values, stats)
    }

    /// [`QuerySuite::evaluate_all_with_stats`] plus the [`ApproxReport`]
    /// error bounds. Under [`EvalMode::Exact`] the report stays at its
    /// default (no bounds); under [`EvalMode::Approx`] each sketch that
    /// runs fills in its bound.
    pub fn evaluate_all_with_report<R: Rng + ?Sized>(
        g: &Graph,
        queries: &[Query],
        params: &QueryParams,
        rng: &mut R,
    ) -> (Vec<QueryValue>, SuiteStats, ApproxReport) {
        let base: u64 = rng.gen();
        let mut passes = SharedPasses::new(g, *params, base);
        let values = queries.iter().map(|&q| passes.evaluate(q)).collect();
        (values, passes.stats, passes.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PathMode;

    fn two_triangles() -> Graph {
        Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn shared_passes_run_at_most_once_for_full_suite() {
        let g = two_triangles();
        let mut rng = StdRng::seed_from_u64(9);
        let (values, stats) =
            QuerySuite::evaluate_all_with_stats(&g, &Query::ALL, &QueryParams::default(), &mut rng);
        assert_eq!(values.len(), 15);
        assert_eq!(
            stats,
            SuiteStats { degree_passes: 1, bfs_sweeps: 1, triangle_passes: 1, louvain_runs: 1 }
        );
    }

    #[test]
    fn unrequested_passes_never_run() {
        let g = two_triangles();
        let mut rng = StdRng::seed_from_u64(10);
        let (_, stats) = QuerySuite::evaluate_all_with_stats(
            &g,
            &[Query::NodeCount, Query::AverageDegree, Query::Assortativity],
            &QueryParams::default(),
            &mut rng,
        );
        assert_eq!(stats, SuiteStats::default());
    }

    #[test]
    fn duplicate_queries_still_one_pass() {
        let g = two_triangles();
        let mut rng = StdRng::seed_from_u64(11);
        let (values, stats) = QuerySuite::evaluate_all_with_stats(
            &g,
            &[Query::Diameter, Query::Diameter, Query::AveragePathLength],
            &QueryParams::default(),
            &mut rng,
        );
        assert_eq!(stats.bfs_sweeps, 1);
        assert_eq!(values[0], values[1]);
    }

    #[test]
    fn subset_independent_results() {
        // The value computed for a query must not depend on which other
        // queries are requested alongside it — the RNG-stream discipline.
        let g = two_triangles();
        let params =
            QueryParams { path_mode: PathMode::Sampled { sources: 3 }, ..Default::default() };
        let full =
            QuerySuite::evaluate_all(&g, &Query::ALL, &params, &mut StdRng::seed_from_u64(77));
        for (i, &q) in Query::ALL.iter().enumerate() {
            let alone = QuerySuite::evaluate_all(&g, &[q], &params, &mut StdRng::seed_from_u64(77));
            assert_eq!(alone[0], full[i], "{q:?} differs alone vs in the full suite");
        }
    }

    #[test]
    fn caller_rng_advances_by_one_draw_regardless_of_subset() {
        let g = two_triangles();
        let params = QueryParams::default();
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        QuerySuite::evaluate_all(&g, &Query::ALL, &params, &mut a);
        QuerySuite::evaluate_all(&g, &[Query::NodeCount], &params, &mut b);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn cd_and_mod_come_from_the_same_louvain_run() {
        let g = two_triangles();
        let mut rng = StdRng::seed_from_u64(12);
        let values = QuerySuite::evaluate_all(
            &g,
            &[Query::CommunityDetection, Query::Modularity],
            &QueryParams::default(),
            &mut rng,
        );
        let labels = match &values[0] {
            QueryValue::Partition(p) => p.clone(),
            v => panic!("expected partition, got {v:?}"),
        };
        let q = values[1].as_scalar().unwrap();
        let p = Partition::from_labels(labels);
        assert!((pgb_community::modularity(&g, &p) - q).abs() < 1e-12);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let params = QueryParams::default();
        for g in [Graph::new(0), Graph::new(4)] {
            let mut rng = StdRng::seed_from_u64(13);
            let values = QuerySuite::evaluate_all(&g, &Query::ALL, &params, &mut rng);
            assert_eq!(values.len(), 15);
            for (q, v) in Query::ALL.iter().zip(&values) {
                if let QueryValue::Scalar(x) = v {
                    assert!(x.is_finite(), "{q:?} -> {x}");
                }
            }
        }
    }

    fn approx_params() -> QueryParams {
        QueryParams {
            eval: crate::EvalMode::Approx(crate::ApproxConfig::default()),
            ..Default::default()
        }
    }

    #[test]
    fn approx_shared_passes_run_at_most_once_for_full_suite() {
        let g = two_triangles();
        let mut rng = StdRng::seed_from_u64(20);
        let (values, stats, report) =
            QuerySuite::evaluate_all_with_report(&g, &Query::ALL, &approx_params(), &mut rng);
        assert_eq!(values.len(), 15);
        assert_eq!(
            stats,
            SuiteStats { degree_passes: 1, bfs_sweeps: 1, triangle_passes: 1, louvain_runs: 1 }
        );
        assert_eq!(report.confidence, 0.99);
        assert!(report.triangles_bound.is_some());
        assert!(report.gcc_bound.is_some());
        assert!(report.acc_bound.is_some());
        assert!(report.path_rel_bound.is_some());
        assert!(!report.path_saturated);
    }

    #[test]
    fn approx_deterministic_queries_match_exact() {
        // Q1/Q2/Q4, Q12–Q15 do not go through any sketch: identical values
        // under both modes at the same caller seed.
        let g = two_triangles();
        let exact = QuerySuite::evaluate_all(
            &g,
            &Query::ALL,
            &QueryParams::default(),
            &mut StdRng::seed_from_u64(21),
        );
        let approx = QuerySuite::evaluate_all(
            &g,
            &Query::ALL,
            &approx_params(),
            &mut StdRng::seed_from_u64(21),
        );
        for q in [
            Query::NodeCount,
            Query::EdgeCount,
            Query::AverageDegree,
            Query::CommunityDetection,
            Query::Modularity,
            Query::Assortativity,
            Query::EigenvectorCentrality,
        ] {
            let i = q.id() - 1;
            assert_eq!(exact[i], approx[i], "{q:?} must be mode-independent");
        }
    }

    #[test]
    fn approx_subset_independent_results() {
        let g = two_triangles();
        let params = approx_params();
        let full =
            QuerySuite::evaluate_all(&g, &Query::ALL, &params, &mut StdRng::seed_from_u64(78));
        for (i, &q) in Query::ALL.iter().enumerate() {
            let alone = QuerySuite::evaluate_all(&g, &[q], &params, &mut StdRng::seed_from_u64(78));
            assert_eq!(alone[0], full[i], "{q:?} differs alone vs in the full suite");
        }
    }

    #[test]
    fn approx_rng_advances_by_one_draw() {
        let g = two_triangles();
        let mut a = StdRng::seed_from_u64(22);
        let mut b = StdRng::seed_from_u64(22);
        QuerySuite::evaluate_all(&g, &Query::ALL, &approx_params(), &mut a);
        QuerySuite::evaluate_all(&g, &[Query::NodeCount], &QueryParams::default(), &mut b);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn approx_exact_on_noise_free_cases() {
        // The two-triangles graph is tiny; the sketch's sampling passes see
        // every wedge many times, but exactness is only guaranteed where the
        // estimator has zero variance — the node-count-scaled values.
        let g = two_triangles();
        let mut rng = StdRng::seed_from_u64(23);
        let values = QuerySuite::evaluate_all(
            &g,
            &[Query::NodeCount, Query::EdgeCount, Query::AverageDegree],
            &approx_params(),
            &mut rng,
        );
        assert_eq!(values[0], QueryValue::Scalar(6.0));
        assert_eq!(values[1], QueryValue::Scalar(7.0));
    }

    #[test]
    fn approx_empty_and_edgeless_graphs() {
        for g in [Graph::new(0), Graph::new(4)] {
            let mut rng = StdRng::seed_from_u64(24);
            let values = QuerySuite::evaluate_all(&g, &Query::ALL, &approx_params(), &mut rng);
            assert_eq!(values.len(), 15);
            for (q, v) in Query::ALL.iter().zip(&values) {
                if let QueryValue::Scalar(x) = v {
                    assert!(x.is_finite(), "{q:?} -> {x}");
                }
            }
        }
    }

    #[test]
    fn exact_report_is_empty() {
        let g = two_triangles();
        let mut rng = StdRng::seed_from_u64(25);
        let (_, _, report) = QuerySuite::evaluate_all_with_report(
            &g,
            &Query::ALL,
            &QueryParams::default(),
            &mut rng,
        );
        assert_eq!(report, ApproxReport::default());
    }
}
