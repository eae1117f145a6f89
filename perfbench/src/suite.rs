//! Per-layer timing of the query suite (`pgb-queries`, `pgb-community`):
//! the traced runs re-evaluate every sampled graph through the suite's
//! public entry points, one thread at a time, so each figure is busy
//! seconds of that layer.

use crate::{timed, Report};
use pgb_core::benchmark::BenchmarkConfig;
use pgb_graph::Graph;
use pgb_queries::{centrality, counting, path, topology, QuerySuite};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Busy seconds per suite layer, summed over graphs.
#[derive(Debug, Default)]
pub struct SuiteTimes {
    /// `QuerySuite::evaluate_all_with_stats`, all queries.
    pub suite_s: f64,
    /// Shared passes that ran, summed `SuiteStats`.
    pub passes: u64,
    pub paths_s: f64,
    pub triangles_s: f64,
    pub degree_s: f64,
    pub centrality_s: f64,
    pub louvain_s: f64,
}

/// Evaluates the suite, then each pass function on its own, on every
/// graph, at one thread.
pub fn evaluate<'a>(
    graphs: impl IntoIterator<Item = &'a Graph>,
    config: &BenchmarkConfig,
) -> SuiteTimes {
    let params = &config.query_params;
    let mut t = SuiteTimes::default();
    pgb_par::with_parallelism(1, || {
        for (i, g) in graphs.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(config.seed ^ i as u64);
            let ((_, stats), secs) =
                timed(|| QuerySuite::evaluate_all_with_stats(g, &config.queries, params, &mut rng));
            t.suite_s += secs;
            t.passes += (stats.degree_passes
                + stats.bfs_sweeps
                + stats.triangle_passes
                + stats.louvain_runs) as u64;
            t.paths_s += timed(|| black_box(path::path_stats(g, params.path_mode, &mut rng))).1;
            t.triangles_s += timed(|| black_box(counting::triangles_per_node(g))).1;
            t.degree_s += timed(|| black_box(pgb_graph::degree::degree_histogram(g))).1;
            t.centrality_s += timed(|| {
                black_box(centrality::eigenvector_centrality(
                    g,
                    params.evc_max_iters,
                    params.evc_tolerance,
                ))
            })
            .1;
            t.louvain_s +=
                timed(|| black_box(topology::communities_with_modularity(g, &mut rng))).1;
        }
    });
    t
}

impl SuiteTimes {
    pub fn report(&self, report: &mut Report) {
        report.metric("queries.suite_s", self.suite_s, "s");
        report.metric("queries.paths_s", self.paths_s, "s");
        report.metric("queries.triangles_s", self.triangles_s, "s");
        report.metric("queries.degree_s", self.degree_s, "s");
        report.metric("queries.centrality_s", self.centrality_s, "s");
        report.metric("community.louvain_s", self.louvain_s, "s");
        report.metric("queries.passes", self.passes as f64, "count");
    }
}
