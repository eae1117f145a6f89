//! Path-condition queries: diameter (Q7), average shortest path (Q8), and
//! the distance distribution (Q9), computed in one BFS sweep.
//!
//! The sweep is a bit-parallel multi-source BFS (Then et al., "The More
//! the Merrier", VLDB 2014). The source list is sampled first (same
//! caller-RNG draws as the per-source reference — the BFS itself is
//! deterministic, so no per-source randomness exists to derive), then
//! split into batches of up to 64 sources, one per bit of a `u64` lane
//! word. A batch runs all its traversals at once over three `n`-word
//! bitsets: at level `d` every node ORs its neighbours' frontier words,
//! and the bits it had not seen yet are exactly the (source, node) pairs
//! at distance `d`, so one `popcount` feeds the histogram. Batches are the
//! parallel chunks, each folding into a chunk-local accumulator. Every
//! merged quantity is an exact integer (`u64` histogram cells, `u128`
//! distance total, `u32` max), so [`path_stats`] is bit-identical to the
//! per-source oracle [`path_stats_seq`] however the sources are batched and
//! at any [`pgb_par::current_parallelism`] budget; the two ratios
//! (`average_length`, the normalised distribution) are computed once from
//! the merged integers.

use crate::PathMode;
use pgb_graph::traversal::{bfs_distances_into, connected_components, Components, UNREACHABLE};
use pgb_graph::Graph;
use rand::Rng;

/// Sources per batch at most: one per bit of the `u64` lane word.
const LANES: usize = 64;

/// The three path statistics, bundled because they share the BFS sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct PathStats {
    /// Largest finite distance observed (diameter of the covered pairs).
    pub diameter: u32,
    /// Mean distance over reachable (ordered) pairs.
    pub average_length: f64,
    /// Normalised histogram of pairwise distances, indexed by distance
    /// (entry 0 is always 0 — a node is at distance 0 only from itself,
    /// which is excluded).
    pub distance_distribution: Vec<f64>,
}

/// The integer state of a sweep; merges add cells and take the max.
#[derive(Default)]
struct Sweep {
    hist: Vec<u64>,
    total: u128,
    pairs: u64,
    diameter: u32,
}

impl Sweep {
    /// Counts `count` (source, node) pairs at distance `d`.
    fn record(&mut self, d: u32, count: u64) {
        if d as usize >= self.hist.len() {
            self.hist.resize(d as usize + 1, 0);
        }
        self.hist[d as usize] += count;
        self.total += d as u128 * count as u128;
        self.pairs += count;
        self.diameter = self.diameter.max(d);
    }

    fn merge(&mut self, other: Sweep) {
        if other.hist.len() > self.hist.len() {
            self.hist.resize(other.hist.len(), 0);
        }
        for (h, o) in self.hist.iter_mut().zip(other.hist) {
            *h += o;
        }
        self.total += other.total;
        self.pairs += other.pairs;
        self.diameter = self.diameter.max(other.diameter);
    }

    fn finish(self) -> PathStats {
        let Sweep { hist, total, pairs, diameter } = self;
        let average_length = if pairs == 0 { 0.0 } else { total as f64 / pairs as f64 };
        let distance_distribution = if pairs == 0 {
            vec![0.0]
        } else {
            hist.iter().map(|&c| c as f64 / pairs as f64).collect()
        };
        PathStats { diameter, average_length, distance_distribution }
    }

    /// Runs one BFS per source in `batch` (at most [`LANES`] distinct
    /// sources) simultaneously, lane `i` of every word belonging to
    /// `batch[i]`, and records every reached (source, node) pair.
    /// `components` labels every node with its connected component.
    fn bfs_batch(&mut self, g: &Graph, components: &Components, batch: &[u32]) {
        let (offsets, neighbors) = g.csr();
        let full = u64::MAX >> (LANES - batch.len());
        let mut lanes_in = vec![0u64; components.count()];
        for (lane, &s) in batch.iter().enumerate() {
            lanes_in[components.label[s as usize] as usize] |= 1 << lane;
        }
        // 24·n bytes of scratch (plus a word per component), dropped with
        // the batch so a parked accumulator holds only its histogram. A
        // lane whose source lies in another component can never reach a
        // node, so it starts out seen there: a node is `full` once every
        // lane that *can* reach it has, and nodes in source-free
        // components are never visited at all.
        let mut seen: Vec<u64> =
            components.label.iter().map(|&c| full & !lanes_in[c as usize]).collect();
        let mut frontier = vec![0u64; seen.len()];
        let mut next = vec![0u64; seen.len()];
        for (lane, &s) in batch.iter().enumerate() {
            seen[s as usize] |= 1 << lane;
            frontier[s as usize] |= 1 << lane;
        }
        for d in 1.. {
            let mut found = 0u64;
            for (v, (sv, nv)) in seen.iter_mut().zip(&mut next).enumerate() {
                // Pull form: a node every lane has reached is skipped
                // without reading its neighbours.
                *nv = 0;
                if *sv == full {
                    continue;
                }
                let nbrs = &neighbors[offsets[v] as usize..offsets[v + 1] as usize];
                let fresh = nbrs.iter().fold(0, |acc, &u| acc | frontier[u as usize]) & !*sv;
                if fresh != 0 {
                    *nv = fresh;
                    *sv |= fresh;
                    found += fresh.count_ones() as u64;
                }
            }
            if found == 0 {
                break;
            }
            self.record(d, found);
            std::mem::swap(&mut frontier, &mut next);
        }
    }
}

/// Computes the path statistics of `g`.
///
/// * [`PathMode::Exact`] sweeps every source: exact values from ⌈n/64⌉
///   batches, each costing one pass over the edges per BFS level.
/// * [`PathMode::Sampled`] sweeps a uniform source sample: each BFS still
///   reaches all nodes, so the estimators are unbiased for the average and
///   the distribution, and the diameter is a lower bound (the standard
///   trade-off the harness documents for its large graphs).
///
/// Batches always hold 64 sources (the last one the remainder), whatever
/// the thread budget: a batch costs about one pass over the edges per
/// level at any width, so splitting a 64-source sample into narrower
/// batches would multiply the work without shortening the sweep.
pub fn path_stats<R: Rng + ?Sized>(g: &Graph, mode: PathMode, rng: &mut R) -> PathStats {
    let n = g.node_count();
    if n == 0 {
        return Sweep::default().finish();
    }
    let sources = sample_sources(n, mode, rng);
    let components = connected_components(g);
    pgb_par::par_fold_chunks(
        sources.len(),
        LANES,
        Sweep::default,
        |acc, range| acc.bfs_batch(g, &components, &sources[range]),
        Sweep::merge,
    )
    .finish()
}

/// The independent oracle for [`path_stats`]: the textbook sweep, one
/// sequential BFS per source over [`bfs_distances_into`] with a reused
/// distance buffer. It shares only the source sampling (so both consume
/// identical RNG draws) and the integer accumulator with the bit-parallel
/// sweep, not the traversal; the property tests check the two return the
/// same bits, and the `suite_scaling` bench measures the gap between them.
pub fn path_stats_seq<R: Rng + ?Sized>(g: &Graph, mode: PathMode, rng: &mut R) -> PathStats {
    let n = g.node_count();
    let mut sweep = Sweep::default();
    if n == 0 {
        return sweep.finish();
    }
    let mut dist_buf = Vec::new();
    for s in sample_sources(n, mode, rng) {
        bfs_distances_into(g, s, &mut dist_buf);
        for (v, &d) in dist_buf.iter().enumerate() {
            if d == UNREACHABLE || d == 0 || v as u32 == s {
                continue;
            }
            sweep.record(d, 1);
        }
    }
    sweep.finish()
}

/// The BFS source list for `mode` — all nodes, or a uniform sample without
/// replacement (partial Fisher–Yates) drawn from `rng`. Shared by the
/// bit-parallel sweep and its oracle so both consume identical draws.
fn sample_sources<R: Rng + ?Sized>(n: usize, mode: PathMode, rng: &mut R) -> Vec<u32> {
    match mode {
        PathMode::Exact => (0..n as u32).collect(),
        PathMode::Sampled { sources } => {
            let k = sources.clamp(1, n);
            let mut ids: Vec<u32> = (0..n as u32).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n);
                ids.swap(i, j);
            }
            ids.truncate(k);
            ids
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exact(g: &Graph) -> PathStats {
        let mut rng = StdRng::seed_from_u64(0);
        path_stats(g, PathMode::Exact, &mut rng)
    }

    #[test]
    fn path_graph_statistics() {
        // Path 0-1-2-3: distances 1,2,3,1,2,1 (unordered pairs).
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let s = exact(&g);
        assert_eq!(s.diameter, 3);
        // Mean over ordered pairs equals mean over unordered: 10/6.
        assert!((s.average_length - 10.0 / 6.0).abs() < 1e-12);
        // Distribution: d=1 ×3, d=2 ×2, d=3 ×1 (of 6 unordered pairs).
        assert!((s.distance_distribution[1] - 0.5).abs() < 1e-12);
        assert!((s.distance_distribution[2] - 2.0 / 6.0).abs() < 1e-12);
        assert!((s.distance_distribution[3] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_diameter_one() {
        let mut edges = Vec::new();
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                edges.push((i, j));
            }
        }
        let g = Graph::from_edges(6, edges).unwrap();
        let s = exact(&g);
        assert_eq!(s.diameter, 1);
        assert!((s.average_length - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_pairs_excluded() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap();
        let s = exact(&g);
        assert_eq!(s.diameter, 1);
        assert!((s.average_length - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edgeless_graph_zeroes() {
        let s = exact(&Graph::new(4));
        assert_eq!(s.diameter, 0);
        assert_eq!(s.average_length, 0.0);
        assert_eq!(s.distance_distribution, vec![0.0]);
    }

    #[test]
    fn distribution_sums_to_one() {
        let mut rng = StdRng::seed_from_u64(310);
        let g = pgb_models::erdos_renyi_gnp(200, 0.03, &mut rng);
        let s = exact(&g);
        let sum: f64 = s.distance_distribution.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn sampled_estimates_track_exact() {
        let mut rng = StdRng::seed_from_u64(311);
        let g = pgb_models::erdos_renyi_gnp(400, 0.02, &mut rng);
        let ex = exact(&g);
        let sam = path_stats(&g, PathMode::Sampled { sources: 64 }, &mut rng);
        assert!(
            (sam.average_length - ex.average_length).abs() / ex.average_length < 0.08,
            "sampled {} exact {}",
            sam.average_length,
            ex.average_length
        );
        assert!(sam.diameter <= ex.diameter);
        assert!(sam.diameter + 1 >= ex.diameter, "sampled diameter too small");
    }

    #[test]
    fn parallel_sweep_matches_seq_reference() {
        let mut rng = StdRng::seed_from_u64(313);
        let g = pgb_models::erdos_renyi_gnp(150, 0.04, &mut rng);
        for mode in [PathMode::Exact, PathMode::Sampled { sources: 17 }] {
            let par = path_stats(&g, mode, &mut StdRng::seed_from_u64(9));
            let seq = path_stats_seq(&g, mode, &mut StdRng::seed_from_u64(9));
            assert_eq!(par, seq, "{mode:?}");
        }
    }

    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
    }

    /// Pins the exact `PathStats` of a 600-node BA graph padded with 40
    /// isolated nodes: several full 64-source batches plus a partial one,
    /// and sources that reach nothing. Any change to the sweep's batching
    /// must leave the diameter, the mean's bits and the distribution's bits
    /// unchanged.
    #[test]
    fn output_pinned() {
        let ba = pgb_models::barabasi_albert(600, 3, &mut StdRng::seed_from_u64(448));
        let g = Graph::from_edges(640, ba.edges()).unwrap();
        for (mode, want) in [
            (PathMode::Exact, (6, 0x400a_3e3f_c9a9_0229, 0xa6be_7d00_ca6f_1680)),
            (PathMode::Sampled { sources: 150 }, (6, 0x400a_3a36_9438_4544, 0x929c_f012_7402_b9fd)),
        ] {
            let s = path_stats(&g, mode, &mut StdRng::seed_from_u64(449));
            let dist = s
                .distance_distribution
                .iter()
                .fold(0xcbf2_9ce4_8422_2325, |h, p| fnv1a(h, &p.to_bits().to_le_bytes()));
            assert_eq!((s.diameter, s.average_length.to_bits(), dist), want, "{mode:?}");
        }
    }

    #[test]
    fn sampled_with_more_sources_than_nodes() {
        let mut rng = StdRng::seed_from_u64(312);
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let s = path_stats(&g, PathMode::Sampled { sources: 100 }, &mut rng);
        assert_eq!(s.diameter, 2);
    }
}
