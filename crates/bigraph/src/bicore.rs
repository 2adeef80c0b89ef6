//! Bicore decomposition — Definitions 3–5 and Algorithm 7 of the paper.
//!
//! The *bicore number* `bc(u)` is the largest `k` such that some subgraph
//! `H ∋ u` has `min_v |N≤2(v, H)| ≥ k`; the *bidegeneracy* `δ̈(G)` is the
//! maximum bicore number, and the peel order is a *bidegeneracy order*
//! (Definition 5). Because `|N≤2(·, H)|` is monotone non-increasing under
//! vertex deletion, greedy min-value peeling computes bicore numbers exactly
//! (the same argument as for ordinary cores).
//!
//! The paper's Lemma 10 peeling tie-break (min `|N≤2|`, then min degree) is
//! used to pick the next vertex; unlike the paper we do not *rely* on the
//! lemma's "loses at most 1" claim for correctness — exact `|N≤2|` values
//! are maintained through common-neighbour multiplicities, so removing a
//! vertex that disconnects 2-hop paths decrements every affected count.
//!
//! The multiplicities live in per-vertex sorted 2-hop lists with a parallel
//! count array, built with one dense scratch counter; a pair's count is
//! found by binary search in either endpoint's list. The cost is
//! `O(Σ deg² · log n)`, matching Lemma 9 up to the heap and search factors.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::BipartiteGraph;

/// Result of a bicore decomposition.
#[derive(Debug, Clone)]
pub struct BicoreDecomposition {
    /// Bicore number per global vertex id.
    pub bicore: Vec<u32>,
    /// Global ids in peel order — a bidegeneracy order (Definition 5).
    pub order: Vec<u32>,
    /// `δ̈(G)`: the bidegeneracy (0 for empty graphs).
    pub bidegeneracy: u32,
}

/// Runs the bicore decomposition (Algorithm 7).
///
/// ```
/// use mbb_bigraph::{graph::BipartiteGraph, bicore::bicore_decomposition};
/// // A 4-cycle: every vertex has one neighbour and one 2-hop neighbour.
/// let g = BipartiteGraph::from_edges(2, 2, [(0, 0), (0, 1), (1, 0)])?;
/// let d = bicore_decomposition(&g);
/// assert_eq!(d.bidegeneracy, 2);
/// # Ok::<(), mbb_bigraph::graph::GraphError>(())
/// ```
pub fn bicore_decomposition(graph: &BipartiteGraph) -> BicoreDecomposition {
    bicore_decomposition_until(graph, || false).expect("a peel that never stops finishes")
}

/// [`bicore_decomposition`] that can be abandoned part-way: `stop` is
/// polled once per vertex while the 2-hop lists are built and once per
/// peeled vertex, and the first `true` ends the run with `None`. Passing a
/// sampled budget check (`|| budget.is_exhausted()`) bounds a deadline's
/// overshoot by a few hundred vertices' work. A run that is not stopped
/// returns exactly what [`bicore_decomposition`] returns.
pub fn bicore_decomposition_until(
    graph: &BipartiteGraph,
    mut stop: impl FnMut() -> bool,
) -> Option<BicoreDecomposition> {
    let nl = graph.num_left();
    let n = graph.num_vertices();

    // Global-id adjacency: (opposite-side local ids, offset to globalise
    // them).
    let neighbors_global = |g: usize| -> (&[u32], usize) {
        if g < nl {
            (graph.neighbors_left(g as u32), nl)
        } else {
            (graph.neighbors_right((g - nl) as u32), 0)
        }
    };

    // Same-side 2-hop lists: `two_hop[offsets[g]..offsets[g + 1]]` are the
    // 2-hop neighbours of `g` in ascending order, and `common` holds each
    // pair's count of surviving common neighbours. Every pair is stored
    // once per endpoint, and both copies are kept equal while both
    // endpoints survive.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut two_hop: Vec<u32> = Vec::new();
    let mut common: Vec<u32> = Vec::new();
    let mut scratch = vec![0u32; n];
    let mut touched: Vec<u32> = Vec::new();
    for v in 0..n {
        if stop() {
            return None;
        }
        let (adj, offset) = neighbors_global(v);
        for &mid in adj {
            let (same, same_offset) = neighbors_global(mid as usize + offset);
            for &w in same {
                let w = w as usize + same_offset;
                if w == v {
                    continue;
                }
                if scratch[w] == 0 {
                    touched.push(w as u32);
                }
                scratch[w] += 1;
            }
        }
        touched.sort_unstable();
        for &w in &touched {
            two_hop.push(w);
            common.push(std::mem::take(&mut scratch[w as usize]));
        }
        touched.clear();
        offsets.push(two_hop.len());
    }
    // Position of `w` in `v`'s 2-hop list; the pair is at distance 2.
    let slot = |v: usize, w: u32| -> usize {
        let start = offsets[v];
        let list = &two_hop[start..offsets[v + 1]];
        start + list.binary_search(&w).expect("pair at distance 2")
    };

    let mut alive = vec![true; n];
    let mut deg: Vec<usize> = (0..n).map(|g| neighbors_global(g).0.len()).collect();
    let mut nle2: Vec<usize> = (0..n)
        .map(|g| deg[g] + offsets[g + 1] - offsets[g])
        .collect();

    // Lazy min-heap keyed by (|N≤2|, degree) per Lemma 10's tie-break.
    // Every live vertex has an entry with its current key; keys only
    // shrink, so a popped entry that no longer matches is stale.
    let mut heap: BinaryHeap<Reverse<(usize, usize, u32)>> = (0..n)
        .map(|g| Reverse((nle2[g], deg[g], g as u32)))
        .collect();

    let mut bicore = vec![0u32; n];
    let mut order = Vec::with_capacity(n);
    let mut running_max = 0u32;
    let mut alive_neighbors: Vec<u32> = Vec::new();

    while let Some(Reverse((val, d, v))) = heap.pop() {
        let v = v as usize;
        if !alive[v] || val != nle2[v] || d != deg[v] {
            continue; // stale entry
        }
        if stop() {
            return None;
        }
        alive[v] = false;
        running_max = running_max.max(nle2[v] as u32);
        bicore[v] = running_max;
        order.push(v as u32);

        // 1. Direct neighbours lose v from N(·).
        let (adj, offset) = neighbors_global(v);
        alive_neighbors.clear();
        for &w_local in adj {
            let w = w_local as usize + offset;
            if alive[w] {
                alive_neighbors.push(w as u32);
                deg[w] -= 1;
                nle2[w] -= 1;
            }
        }

        // 2. Same-side 2-hop neighbours lose v from N2(·). v's copies of
        // its pair counts are current, and no pair with v is read again.
        for i in offsets[v]..offsets[v + 1] {
            let w = two_hop[i] as usize;
            if alive[w] && common[i] > 0 {
                nle2[w] -= 1;
                heap.push(Reverse((nle2[w], deg[w], w as u32)));
            }
        }

        // 3. Pairs of v's surviving neighbours lose a common neighbour; a
        // pair whose count hits zero falls out of each other's N2.
        for (i, &a) in alive_neighbors.iter().enumerate() {
            for &b in &alive_neighbors[i + 1..] {
                let ab = slot(a as usize, b);
                let ba = slot(b as usize, a);
                common[ab] -= 1;
                common[ba] -= 1;
                if common[ab] == 0 {
                    nle2[a as usize] -= 1;
                    nle2[b as usize] -= 1;
                }
            }
        }
        for &w in &alive_neighbors {
            let w = w as usize;
            heap.push(Reverse((nle2[w], deg[w], w as u32)));
        }
    }

    Some(BicoreDecomposition {
        bidegeneracy: running_max,
        bicore,
        order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::{BipartiteGraph, Vertex};
    use crate::two_hop;

    /// Brute-force bicore numbers straight from Definition 3: for each `k`,
    /// iteratively delete vertices whose `|N≤2|` (recomputed in the
    /// remaining induced subgraph) is below `k`; survivors have `bc ≥ k`.
    fn brute_bicore(graph: &BipartiteGraph) -> Vec<u32> {
        let n = graph.num_vertices();
        let nl = graph.num_left();
        let mut bicore = vec![0u32; n];
        for k in 1..=n {
            let mut alive = vec![true; n];
            loop {
                let mut removed = false;
                for g in 0..n {
                    if !alive[g] {
                        continue;
                    }
                    let v = graph.vertex_of_global(g);
                    // |N≤2(v)| within the alive-induced subgraph.
                    let opposite_offset = if g < nl { nl } else { 0 };
                    let alive_neighbors: Vec<u32> = graph
                        .neighbors(v)
                        .iter()
                        .copied()
                        .filter(|&w| alive[w as usize + opposite_offset])
                        .collect();
                    let mut two_hop = std::collections::HashSet::new();
                    for &mid in &alive_neighbors {
                        let mid_v = Vertex {
                            side: v.side.opposite(),
                            index: mid,
                        };
                        let same_offset = if g < nl { 0 } else { nl };
                        for &w in graph.neighbors(mid_v) {
                            if alive[w as usize + same_offset] && w != v.index {
                                two_hop.insert(w);
                            }
                        }
                    }
                    if alive_neighbors.len() + two_hop.len() < k {
                        alive[g] = false;
                        removed = true;
                    }
                }
                if !removed {
                    break;
                }
            }
            let mut any = false;
            for g in 0..n {
                if alive[g] {
                    bicore[g] = k as u32;
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        bicore
    }

    /// `|N(v)|` and `|N2(v)|` within the subgraph induced by `alive`.
    fn live_degrees(graph: &BipartiteGraph, alive: &[bool], g: usize) -> (usize, usize) {
        let nl = graph.num_left();
        let v = graph.vertex_of_global(g);
        let (opposite, same) = if g < nl { (nl, 0) } else { (0, nl) };
        let mut two_hop = std::collections::HashSet::new();
        let mut degree = 0;
        for &mid in graph.neighbors(v) {
            if !alive[mid as usize + opposite] {
                continue;
            }
            degree += 1;
            let mid_v = Vertex {
                side: v.side.opposite(),
                index: mid,
            };
            for &w in graph.neighbors(mid_v) {
                if w != v.index && alive[w as usize + same] {
                    two_hop.insert(w);
                }
            }
        }
        (degree + two_hop.len(), degree)
    }

    /// Replays a peel order against Definition 5 and Lemma 10's
    /// tie-break, recomputing every `|N≤2|` from scratch: each peeled
    /// vertex must carry the minimum `(|N≤2|, degree)` among the
    /// survivors, and its bicore number the running maximum of the peeled
    /// values.
    fn assert_valid_peel(graph: &BipartiteGraph, d: &BicoreDecomposition) {
        let n = graph.num_vertices();
        let mut alive = vec![true; n];
        let mut running_max = 0;
        for &v in &d.order {
            let v = v as usize;
            assert!(alive[v], "vertex {v} peeled twice");
            let key = live_degrees(graph, &alive, v);
            let min = (0..n)
                .filter(|&g| alive[g])
                .map(|g| live_degrees(graph, &alive, g))
                .min()
                .unwrap();
            assert_eq!(key, min, "vertex {v} is not a minimum survivor");
            running_max = running_max.max(key.0 as u32);
            assert_eq!(d.bicore[v], running_max, "bicore of {v}");
            alive[v] = false;
        }
        assert!(alive.iter().all(|&a| !a), "order misses vertices");
        assert_eq!(d.bidegeneracy, running_max);
    }

    #[test]
    fn peel_order_satisfies_definition_5() {
        for seed in 0..10 {
            let g = generators::uniform_edges(9, 8, 24, seed);
            let d = bicore_decomposition(&g);
            assert_valid_peel(&g, &d);
            assert_eq!(d.bicore, brute_bicore(&g), "seed {seed}");
        }
        for seed in 0..6 {
            let g = generators::chung_lu_bipartite(
                &generators::ChungLuParams {
                    num_left: 14,
                    num_right: 11,
                    num_edges: 40,
                    left_exponent: 0.8,
                    right_exponent: 0.8,
                },
                seed,
            );
            let d = bicore_decomposition(&g);
            assert_valid_peel(&g, &d);
            assert_eq!(d.bicore, brute_bicore(&g), "chung-lu seed {seed}");
        }
    }

    #[test]
    fn stopped_peel_returns_none_and_unstopped_matches() {
        let g = generators::uniform_edges(20, 20, 110, 4);
        let full = bicore_decomposition(&g);
        let mut polls = 0usize;
        let until = bicore_decomposition_until(&g, || {
            polls += 1;
            false
        })
        .expect("never stopped");
        assert_eq!(until.order, full.order);
        assert_eq!(until.bicore, full.bicore);
        // One poll per vertex while building, one per peeled vertex.
        assert_eq!(polls, 2 * g.num_vertices());
        for limit in [0, 5, g.num_vertices() + 3] {
            let mut left = limit;
            let stopped = bicore_decomposition_until(&g, || {
                if left == 0 {
                    return true;
                }
                left -= 1;
                false
            });
            assert!(stopped.is_none(), "stop after {limit} polls");
        }
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_edges(0, 0, []).unwrap();
        let d = bicore_decomposition(&g);
        assert_eq!(d.bidegeneracy, 0);
        assert!(d.order.is_empty());
    }

    #[test]
    fn single_edge() {
        let g = BipartiteGraph::from_edges(1, 1, [(0, 0)]).unwrap();
        let d = bicore_decomposition(&g);
        // Each endpoint has |N≤2| = 1.
        assert_eq!(d.bicore, vec![1, 1]);
        assert_eq!(d.bidegeneracy, 1);
    }

    #[test]
    fn complete_bipartite() {
        let g = generators::complete(3, 4);
        let d = bicore_decomposition(&g);
        // Left vertex: 4 + 2 = 6; right: 3 + 3 = 6; all equal.
        assert_eq!(d.bidegeneracy, 6);
        assert!(d.bicore.iter().all(|&c| c == 6));
    }

    #[test]
    fn star_bicore() {
        // Star centre L0 with 4 leaves: leaves see 1 + 3 = 4, centre 4 + 0.
        let g = BipartiteGraph::from_edges(1, 4, (0..4).map(|v| (0, v))).unwrap();
        let d = bicore_decomposition(&g);
        assert_eq!(d.bidegeneracy, 4);
        assert!(d.bicore.iter().all(|&c| c == 4));
    }

    #[test]
    fn matches_brute_force_on_small_random_graphs() {
        for seed in 0..12 {
            let g = generators::uniform_edges(8, 8, 20, seed);
            let fast = bicore_decomposition(&g);
            let brute = brute_bicore(&g);
            assert_eq!(fast.bicore, brute, "seed {seed}");
        }
    }

    #[test]
    fn matches_brute_force_on_power_law_graphs() {
        for seed in 0..6 {
            let g = generators::chung_lu_bipartite(
                &generators::ChungLuParams {
                    num_left: 15,
                    num_right: 12,
                    num_edges: 35,
                    left_exponent: 0.8,
                    right_exponent: 0.8,
                },
                seed,
            );
            let fast = bicore_decomposition(&g);
            let brute = brute_bicore(&g);
            assert_eq!(fast.bicore, brute, "seed {seed}");
        }
    }

    #[test]
    fn bidegeneracy_upper_bounds_initial_min_nle2() {
        // δ̈ ≥ min over all vertices of |N≤2| in the full graph.
        let g = generators::uniform_edges(20, 20, 120, 5);
        let d = bicore_decomposition(&g);
        let sizes = two_hop::all_n_le2_sizes(&g);
        let min = sizes.iter().copied().min().unwrap();
        assert!(d.bidegeneracy as usize >= min);
    }

    #[test]
    fn order_is_permutation() {
        let g = generators::uniform_edges(25, 20, 100, 8);
        let d = bicore_decomposition(&g);
        let mut seen = vec![false; g.num_vertices()];
        for &v in &d.order {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bicore_at_least_core() {
        // |N≤2| ≥ degree pointwise in every subgraph, so bc(u) ≥ core(u).
        let g = generators::uniform_edges(20, 20, 110, 9);
        let bi = bicore_decomposition(&g);
        let co = crate::core_decomp::core_decomposition(&g);
        for g_id in 0..g.num_vertices() {
            assert!(
                bi.bicore[g_id] >= co.core[g_id],
                "vertex {g_id}: bc {} < core {}",
                bi.bicore[g_id],
                co.core[g_id]
            );
        }
    }

    #[test]
    fn isolated_vertices_peel_first_with_zero() {
        let g = BipartiteGraph::from_edges(3, 3, [(0, 0)]).unwrap();
        let d = bicore_decomposition(&g);
        assert_eq!(d.bicore[1], 0);
        assert_eq!(d.bicore[2], 0);
        assert_eq!(d.bicore[0], 1);
    }
}
