//! The Louvain method (Blondel et al., 2008): greedy modularity
//! optimisation with local moving and graph aggregation.
//!
//! PGB uses Louvain twice: as the benchmark's community-detection query
//! (Q12, on unweighted graphs) and inside PrivGraph's phase 1, which runs
//! it on a *noisy weighted super-graph* — hence the weighted entry point.
//!
//! ## What is parallel, what is not
//!
//! The init and aggregation scans run on the ambient
//! [`pgb_par::current_parallelism`] budget: lifting the input graph
//! ([`WeightedGraph::from_graph`]), the per-level weighted-degree vector
//! (a per-node map, below), and the community coarsening
//! ([`WeightedGraph::aggregate`]) — all bit-identical at any thread
//! count. The **local-moving sweep itself stays sequential by design**:
//! each move reads the community totals left by every previous move, so a
//! deterministic parallel variant would need a fundamentally different
//! algorithm (graph colouring or delta-screening with a fixed merge
//! order), not a chunked port — recorded as a ROADMAP follow-up.

use crate::{Partition, WeightedGraph};
use pgb_graph::Graph;
use rand::Rng;

/// Louvain tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct LouvainParams {
    /// Minimum modularity gain per full sweep to keep iterating a level.
    pub min_gain: f64,
    /// Maximum local-moving sweeps per level.
    pub max_sweeps: usize,
    /// Maximum aggregation levels.
    pub max_levels: usize,
}

impl Default for LouvainParams {
    fn default() -> Self {
        LouvainParams { min_gain: 1e-7, max_sweeps: 32, max_levels: 32 }
    }
}

/// Runs Louvain on an unweighted graph; returns the partition of the
/// original nodes.
pub fn louvain<R: Rng + ?Sized>(g: &Graph, params: &LouvainParams, rng: &mut R) -> Partition {
    louvain_weighted(&WeightedGraph::from_graph(g), params, rng)
}

/// Runs Louvain on a weighted graph; returns the partition of the original
/// nodes.
pub fn louvain_weighted<R: Rng + ?Sized>(
    g: &WeightedGraph,
    params: &LouvainParams,
    rng: &mut R,
) -> Partition {
    let n = g.node_count();
    if n == 0 {
        return Partition::from_labels(Vec::new());
    }
    // node → community at the *current* level, starting as identity; the
    // mapping chain is composed across levels.
    let mut mapping: Vec<u32> = (0..n as u32).collect();
    let mut current = g.clone();
    for _level in 0..params.max_levels {
        let (labels, improved) = local_moving(&current, params, rng);
        if !improved {
            break;
        }
        // Compact labels and compose with the running mapping.
        let mut compact = Partition::from_labels(labels);
        let k = compact.normalize();
        for m in &mut mapping {
            *m = compact.label(*m);
        }
        if k == current.node_count() {
            break; // no aggregation happened
        }
        current = current.aggregate(compact.labels(), k);
    }
    let mut p = Partition::from_labels(mapping);
    p.normalize();
    p
}

/// One level of local moving. Returns the level's labels and whether any
/// node changed community.
fn local_moving<R: Rng + ?Sized>(
    g: &WeightedGraph,
    params: &LouvainParams,
    rng: &mut R,
) -> (Vec<u32>, bool) {
    let n = g.node_count();
    let two_m = g.total_weight();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    if two_m <= 0.0 {
        return (labels, false);
    }
    // Per-node map: each entry sums its own adjacency list, so the chunked
    // scan is bit-identical to the sequential one at any thread budget.
    let degree: Vec<f64> = pgb_par::par_map_chunks(n, 16_384, |range, out| {
        for u in range {
            out.push(g.weighted_degree(u as u32));
        }
    });
    // Σ of weighted degrees per community.
    let mut comm_total: Vec<f64> = degree.clone();
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut improved_any = false;
    // Scratch: weight from the moving node to each neighbouring community,
    // dense by community id, and the communities it touched. Edge weights
    // are positive, so an entry still at zero has not been touched yet.
    let mut to_comm = vec![0.0f64; n];
    let mut touched: Vec<u32> = Vec::new();
    for _sweep in 0..params.max_sweeps {
        let mut gain_this_sweep = 0.0;
        for &u in &order {
            let cu = labels[u as usize];
            for &(v, w) in g.neighbors(u) {
                let c = labels[v as usize];
                if to_comm[c as usize] == 0.0 {
                    touched.push(c);
                }
                to_comm[c as usize] += w;
            }
            let ku = degree[u as usize];
            comm_total[cu as usize] -= ku;
            let base = to_comm[cu as usize] - ku * comm_total[cu as usize] / two_m;
            // ΔQ of moving u into c (constant factors dropped).
            let (best_comm, best_gain) = best_move(cu, &mut touched, |c| {
                to_comm[c as usize] - ku * comm_total[c as usize] / two_m - base
            });
            for &c in &touched {
                to_comm[c as usize] = 0.0;
            }
            touched.clear();
            comm_total[best_comm as usize] += ku;
            if best_comm != cu {
                labels[u as usize] = best_comm;
                improved_any = true;
                gain_this_sweep += best_gain;
            }
        }
        if gain_this_sweep < params.min_gain * two_m {
            break;
        }
    }
    (labels, improved_any)
}

/// Picks the community a node leaves `cu` for: the `candidates` entry
/// (other than `cu`) with the largest `gain`, or `(cu, 0.0)` when none
/// gains more than 1e-12. Candidates are scanned in ascending id, and one
/// replaces the best so far only when it gains more by over 1e-12, so of
/// two near-tied candidates the smaller id wins. The scan order has to be
/// fixed because near-ties do not chain: with ids a < b < c and gains g,
/// g + 0.8e-12 and g + 1.6e-12, the ascending scan picks c, while a scan
/// starting at b keeps b. Sorting makes the pick a function of the
/// candidate set alone, never of hash or insertion order.
fn best_move(cu: u32, candidates: &mut [u32], gain: impl Fn(u32) -> f64) -> (u32, f64) {
    candidates.sort_unstable();
    let mut best = (cu, 0.0f64);
    for &c in candidates.iter().filter(|&&c| c != cu) {
        let g = gain(c);
        if g > best.1 + 1e-12 {
            best = (c, g);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modularity::modularity;
    use pgb_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn planted_two_communities(rng: &mut StdRng) -> Graph {
        // Two dense 20-node blobs with a couple of bridges.
        let mut edges = Vec::new();
        for base in [0u32, 20u32] {
            for i in 0..20 {
                for j in (i + 1)..20 {
                    if rng.gen_bool(0.4) {
                        edges.push((base + i, base + j));
                    }
                }
            }
        }
        edges.push((0, 20));
        edges.push((5, 25));
        Graph::from_edges(40, edges).unwrap()
    }

    #[test]
    fn recovers_planted_partition() {
        let mut rng = StdRng::seed_from_u64(200);
        let g = planted_two_communities(&mut rng);
        let p = louvain(&g, &LouvainParams::default(), &mut rng);
        // Strong planted structure: nodes 0..20 vs 20..40 should separate
        // (allowing Louvain to find either exactly 2 or a few communities
        // nested inside the two blobs).
        let q = modularity(&g, &p);
        assert!(q > 0.3, "modularity {q}");
        // Check the two blobs are not merged.
        let left = p.label(3);
        let right = p.label(23);
        assert_ne!(left, right);
    }

    #[test]
    fn two_triangles_exact() {
        let mut rng = StdRng::seed_from_u64(201);
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]).unwrap();
        let p = louvain(&g, &LouvainParams::default(), &mut rng);
        assert_eq!(p.community_count(), 2);
        assert_eq!(p.label(0), p.label(1));
        assert_eq!(p.label(0), p.label(2));
        assert_eq!(p.label(3), p.label(4));
        assert_ne!(p.label(0), p.label(3));
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let mut rng = StdRng::seed_from_u64(202);
        let p = louvain(&Graph::new(0), &LouvainParams::default(), &mut rng);
        assert!(p.is_empty());
        let p = louvain(&Graph::new(5), &LouvainParams::default(), &mut rng);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn weighted_louvain_respects_weights() {
        let mut rng = StdRng::seed_from_u64(203);
        // A 4-cycle where two opposite edges are heavy: the heavy pairs
        // should end up together.
        let mut w = WeightedGraph::new(4);
        w.add_edge(0, 1, 10.0);
        w.add_edge(2, 3, 10.0);
        w.add_edge(1, 2, 0.1);
        w.add_edge(3, 0, 0.1);
        let p = louvain_weighted(&w, &LouvainParams::default(), &mut rng);
        assert_eq!(p.label(0), p.label(1));
        assert_eq!(p.label(2), p.label(3));
        assert_ne!(p.label(0), p.label(2));
    }

    #[test]
    fn louvain_nondegenerate_on_er() {
        let mut rng = StdRng::seed_from_u64(204);
        let g = pgb_models::erdos_renyi_gnp(300, 0.05, &mut rng);
        let p = louvain(&g, &LouvainParams::default(), &mut rng);
        let k = p.community_count();
        assert!(k > 1 && k < 300, "communities {k}");
        // Louvain should beat the trivial partitions on any graph.
        let q = modularity(&g, &p);
        assert!(q > 0.0, "modularity {q}");
    }

    #[test]
    fn deterministic_given_seed() {
        let g =
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]).unwrap();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            louvain(&g, &LouvainParams::default(), &mut rng)
        };
        assert_eq!(run(7).labels(), run(7).labels());
    }

    #[test]
    fn best_move_is_independent_of_candidate_order() {
        // The near-tie chain a < b < c that a first-seen scan resolves
        // differently by order; the own community (7) is a candidate too
        // and must be skipped.
        let (a, b, c, cu) = (3u32, 5u32, 9u32, 7u32);
        let gain = |x: u32| match x {
            3 => 0.5,
            5 => 0.5 + 0.8e-12,
            9 => 0.5 + 1.6e-12,
            _ => 2.0,
        };
        for order in [[a, b, c], [a, c, b], [b, a, c], [b, c, a], [c, a, b], [c, b, a]] {
            let mut candidates = vec![cu, order[0], order[1], order[2]];
            assert_eq!(best_move(cu, &mut candidates, gain), (c, gain(c)), "{order:?}");
        }
        // No candidate gains more than 1e-12: stay.
        assert_eq!(best_move(cu, &mut [cu, a], |_| 1e-13), (cu, 0.0));
    }

    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
    }

    fn labels_hash(p: &Partition) -> u64 {
        p.labels().iter().fold(0xcbf2_9ce4_8422_2325, |h, l| fnv1a(h, &l.to_le_bytes()))
    }

    /// Pins Louvain's output byte for byte: the partition of a hub-heavy
    /// unweighted graph (the community-detection query's input) and of a
    /// weighted graph with non-integer weights (PrivGraph's phase-1 input).
    /// A change to the local-moving scan must leave both hashes unchanged.
    #[test]
    fn output_pinned() {
        let g = pgb_models::barabasi_albert(600, 3, &mut StdRng::seed_from_u64(460));
        let unweighted = louvain(&g, &LouvainParams::default(), &mut StdRng::seed_from_u64(461));
        let mut rng = StdRng::seed_from_u64(462);
        let mut w = WeightedGraph::new(200);
        for _ in 0..1200 {
            let (u, v) = (rng.gen_range(0..200), rng.gen_range(0..200));
            w.add_edge(u, v, rng.gen_range(0.01..3.0));
        }
        let weighted = louvain_weighted(&w, &LouvainParams::default(), &mut rng);
        assert_eq!((unweighted.community_count(), weighted.community_count()), (13, 11));
        assert_eq!(
            (labels_hash(&unweighted), labels_hash(&weighted)),
            (0x4f3d_3f1b_a41d_c07f, 0xb328_ed1e_514e_bec3)
        );
    }
}
