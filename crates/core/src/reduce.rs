//! Candidate-set reductions — Lemmas 1 and 2 of the paper (§4.2).
//!
//! * **All-connection rule (Lemma 1)**: a candidate adjacent to *every*
//!   candidate on the other side can be moved into the partial result —
//!   any solution not containing it extends to one containing it, and
//!   `min(|A|, |B|)` never decreases.
//! * **Low-degree rule (Lemma 2)**: a candidate whose candidate-degree
//!   cannot lift its own side past the incumbent half-size can be dropped.
//!   We use the strict-improvement form: `u ∈ CA` is dropped when
//!   `|B| + deg(u, CB) ≤ best_half`, since only strictly larger balanced
//!   bicliques matter (the incumbent itself is already recorded).
//!
//! The rules are applied to fixpoint, one side per pass. A side's rules
//! read only the *other* side's candidates and partial result, so a side's
//! pass runs only when the other side changed since that side last ran
//! (both run once at the start); the confirming pass of a plain fixpoint
//! loop, which never changes anything, is not made. Every pass writes the
//! candidate degrees it computes into a `DegreeScratch`, so when the loop
//! ends each stored degree is current and the caller's per-node scan reads
//! them instead of counting again.

use mbb_bigraph::bitset::{BitSet, Bits};
use mbb_bigraph::local::LocalGraph;

use crate::stats::SearchStats;

/// Applies Lemmas 1 and 2 to fixpoint, mutating the partial result and the
/// candidate sets in place.
///
/// Invariants expected and preserved: every `u ∈ CA` is adjacent to all of
/// `B`, every `v ∈ CB` to all of `A`.
pub fn reduce_candidates(
    graph: &LocalGraph,
    a: &mut Vec<u32>,
    b: &mut Vec<u32>,
    ca: &mut BitSet,
    cb: &mut BitSet,
    best_half: usize,
    stats: &mut SearchStats,
) {
    DegreeScratch::new(graph).reduce(graph, a, b, ca, cb, best_half, stats);
}

/// Per-searcher scratch of one search node's candidate degrees, reused
/// from node to node so a node allocates nothing for them.
///
/// After [`reduce`](Self::reduce) or [`count`](Self::count), the entry of
/// every vertex still in `CA` (`CB`) holds its degree towards the current
/// `CB` (`CA`); entries of other vertices are stale.
pub(crate) struct DegreeScratch {
    /// `deg_left[u] = deg(u, CB)`, indexed by local left vertex.
    pub(crate) deg_left: Vec<u32>,
    /// `deg_right[v] = deg(v, CA)`, indexed by local right vertex.
    pub(crate) deg_right: Vec<u32>,
    /// Degree histograms of the caller's node scan; kept here only so
    /// their buffers are reused.
    pub(crate) hist_a: Vec<u32>,
    pub(crate) hist_b: Vec<u32>,
}

impl DegreeScratch {
    pub(crate) fn new(graph: &LocalGraph) -> DegreeScratch {
        DegreeScratch {
            deg_left: vec![0; graph.num_left()],
            deg_right: vec![0; graph.num_right()],
            hist_a: Vec::new(),
            hist_b: Vec::new(),
        }
    }

    /// Applies Lemmas 1 and 2 to fixpoint (see [`reduce_candidates`]) and
    /// leaves every surviving candidate's degree stored.
    #[allow(clippy::too_many_arguments)] // reduce_candidates plus the scratch
    pub(crate) fn reduce(
        &mut self,
        graph: &LocalGraph,
        a: &mut Vec<u32>,
        b: &mut Vec<u32>,
        ca: &mut BitSet,
        cb: &mut BitSet,
        best_half: usize,
        stats: &mut SearchStats,
    ) {
        let mut left_stale = true;
        let mut right_stale = true;
        while left_stale || right_stale {
            if left_stale {
                left_stale = false;
                let left_degree = |u, cb: &BitSet| graph.left_degree_in(u, cb);
                right_stale |= reduce_side(
                    left_degree,
                    ca,
                    cb,
                    a,
                    b.len(),
                    best_half,
                    &mut self.deg_left,
                    stats,
                );
            }
            if right_stale {
                right_stale = false;
                let right_degree = |v, ca: &BitSet| graph.right_degree_in(v, ca);
                left_stale |= reduce_side(
                    right_degree,
                    cb,
                    ca,
                    b,
                    a.len(),
                    best_half,
                    &mut self.deg_right,
                    stats,
                );
            }
        }
    }

    /// Stores every candidate's degree without applying any rule — the
    /// node's degrees when reductions are switched off.
    pub(crate) fn count(&mut self, graph: &LocalGraph, ca: &BitSet, cb: &BitSet) {
        for u in ca.iter() {
            self.deg_left[u] = graph.left_degree_in(u as u32, cb) as u32;
        }
        for v in cb.iter() {
            self.deg_right[v] = graph.right_degree_in(v as u32, ca) as u32;
        }
    }
}

/// One pass of Lemmas 1 and 2 over one side's candidates `own`, against
/// the other side's candidates `other` and fixed vertices (`other_fixed`
/// of them). Drops and promotions (pushed onto `fixed`) happen in
/// ascending vertex order. Returns whether `own` changed.
#[allow(clippy::too_many_arguments)] // one side's slice of reduce's state
fn reduce_side(
    degree_in: impl Fn(u32, &BitSet) -> usize,
    own: &mut BitSet,
    other: &BitSet,
    fixed: &mut Vec<u32>,
    other_fixed: usize,
    best_half: usize,
    degrees: &mut [u32],
    stats: &mut SearchStats,
) -> bool {
    let other_len = other.len();
    let mut changed = false;
    for word_index in 0..own.words().len() {
        // A copy of the word: removals below clear bits already visited.
        let mut word = own.words()[word_index];
        while word != 0 {
            let x = word_index * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            let degree = degree_in(x as u32, other);
            degrees[x] = degree as u32;
            if other_fixed + degree <= best_half {
                own.remove(x);
                stats.reduced_vertices += 1;
                changed = true;
            } else if degree == other_len {
                // Adjacent to all of `other` (and to all of the other
                // side's fixed vertices by invariant).
                own.remove(x);
                fixed.push(x as u32);
                changed = true;
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn complete(nl: usize, nr: usize) -> LocalGraph {
        let mut g = LocalGraph::new(nl, nr);
        for u in 0..nl as u32 {
            for v in 0..nr as u32 {
                g.add_edge(u, v);
            }
        }
        g
    }

    #[test]
    fn all_connection_promotes_complete_graph() {
        let g = complete(3, 3);
        let mut a = vec![];
        let mut b = vec![];
        let mut ca = BitSet::full(3);
        let mut cb = BitSet::full(3);
        let mut stats = SearchStats::default();
        reduce_candidates(&g, &mut a, &mut b, &mut ca, &mut cb, 0, &mut stats);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
        assert!(ca.is_empty());
        assert!(cb.is_empty());
    }

    #[test]
    fn low_degree_rule_removes_hopeless_candidates() {
        // L0 sees both rights, L1 sees only R0. With best_half = 1 and
        // empty (A, B), L1 needs |B| + deg = 0 + 1 ≤ 1 → dropped.
        let g = LocalGraph::from_edges(2, 2, [(0, 0), (0, 1), (1, 0)]);
        let mut a = vec![];
        let mut b = vec![];
        let mut ca = BitSet::full(2);
        let mut cb = BitSet::full(2);
        let mut stats = SearchStats::default();
        reduce_candidates(&g, &mut a, &mut b, &mut ca, &mut cb, 1, &mut stats);
        assert!(!ca.contains(1), "L1 should be dropped");
        assert!(stats.reduced_vertices >= 1);
    }

    #[test]
    fn reduction_cascades_to_fixpoint() {
        // Path L0-R0-L1-R1: with best_half = 1 everything unravels, since
        // every vertex has candidate-degree ≤ ... after drops cascade.
        let g = LocalGraph::from_edges(2, 2, [(0, 0), (1, 0), (1, 1)]);
        let mut a = vec![];
        let mut b = vec![];
        let mut ca = BitSet::full(2);
        let mut cb = BitSet::full(2);
        let mut stats = SearchStats::default();
        reduce_candidates(&g, &mut a, &mut b, &mut ca, &mut cb, 1, &mut stats);
        // L0 (degree 1 ≤ best_half) is dropped; L1 connects to all of CB
        // and is promoted into A; both rights then fall below the degree
        // threshold and are dropped.
        assert!(ca.is_empty());
        assert!(cb.is_empty());
        assert_eq!(a, vec![1]);
        assert!(b.is_empty());
    }

    #[test]
    fn no_changes_when_rules_do_not_fire() {
        // 4-cycle: every candidate has degree 1 within... actually C4 as
        // bipartite graph: L0-R0, L0-R1, L1-R0, L1-R1 minus two edges.
        let g = LocalGraph::from_edges(2, 2, [(0, 0), (0, 1), (1, 0)]);
        let mut a = vec![];
        let mut b = vec![];
        let mut ca = BitSet::full(2);
        let mut cb = BitSet::full(2);
        let mut stats = SearchStats::default();
        // best_half = 0: low-degree rule fires only for degree-0 vertices.
        reduce_candidates(&g, &mut a, &mut b, &mut ca, &mut cb, 0, &mut stats);
        // L0 is adjacent to all of CB → promoted; then R0 adjacent to all
        // of remaining CA = {1} → promoted; L1 adjacent to remaining CB
        // {1}? L1-R1 missing → not promoted and degree 1 > 0 keeps it...
        // the cascade continues until fixpoint; just assert invariants.
        let total = a.len() + ca.len();
        assert!(total >= 1);
        for &u in &a {
            for &v in &b {
                assert!(g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn promoted_vertices_keep_invariant() {
        // Every vertex in CA must stay adjacent to all of B after moves.
        let g = complete(4, 2);
        let mut a = vec![];
        let mut b = vec![];
        let mut ca = BitSet::full(4);
        let mut cb = BitSet::full(2);
        let mut stats = SearchStats::default();
        reduce_candidates(&g, &mut a, &mut b, &mut ca, &mut cb, 0, &mut stats);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 2);
        assert!(g.is_biclique(&a, &b));
    }

    /// The plain fixpoint loop: both sides per round, over snapshots of
    /// the candidate sets, until a round changes nothing. The reference
    /// the stale-side loop must match move for move.
    fn reduce_fixpoint_oracle(
        graph: &LocalGraph,
        a: &mut Vec<u32>,
        b: &mut Vec<u32>,
        ca: &mut BitSet,
        cb: &mut BitSet,
        best_half: usize,
        stats: &mut SearchStats,
    ) {
        loop {
            let mut changed = false;
            let cb_len = cb.len();
            for u in ca.to_vec() {
                let degree = graph.left_degree_in(u, cb);
                if b.len() + degree <= best_half {
                    ca.remove(u as usize);
                    stats.reduced_vertices += 1;
                    changed = true;
                } else if degree == cb_len {
                    ca.remove(u as usize);
                    a.push(u);
                    changed = true;
                }
            }
            let ca_len = ca.len();
            for v in cb.to_vec() {
                let degree = graph.right_degree_in(v, ca);
                if a.len() + degree <= best_half {
                    cb.remove(v as usize);
                    stats.reduced_vertices += 1;
                    changed = true;
                } else if degree == ca_len {
                    cb.remove(v as usize);
                    b.push(v);
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// A random search state respecting the reduction invariants: a small
    /// biclique `A × B`, `CA` drawn from the common neighbours of `B`
    /// outside `A`, `CB` from those of `A` outside `B`.
    fn random_state(rng: &mut StdRng) -> (LocalGraph, Vec<u32>, Vec<u32>, BitSet, BitSet) {
        let nl = rng.gen_range(1..=192usize);
        let nr = rng.gen_range(1..=192usize);
        let density = rng.gen_range(0.3..0.98);
        let mut g = LocalGraph::new(nl, nr);
        for u in 0..nl as u32 {
            for v in 0..nr as u32 {
                if rng.gen_bool(density) {
                    g.add_edge(u, v);
                }
            }
        }
        let mut a = Vec::new();
        for _ in 0..rng.gen_range(0..=3usize) {
            let u = rng.gen_range(0..nl as u32);
            if !a.contains(&u) {
                a.push(u);
            }
        }
        let mut b = Vec::new();
        for _ in 0..rng.gen_range(0..=3usize) {
            let v = rng.gen_range(0..nr as u32);
            if !b.contains(&v) && a.iter().all(|&u| g.has_edge(u, v)) {
                b.push(v);
            }
        }
        let keep = rng.gen_range(0.5..1.0);
        let mut ca = BitSet::new(nl);
        for u in 0..nl as u32 {
            if !a.contains(&u) && b.iter().all(|&v| g.has_edge(u, v)) && rng.gen_bool(keep) {
                ca.insert(u as usize);
            }
        }
        let mut cb = BitSet::new(nr);
        for v in 0..nr as u32 {
            if !b.contains(&v) && a.iter().all(|&u| g.has_edge(u, v)) && rng.gen_bool(keep) {
                cb.insert(v as usize);
            }
        }
        (g, a, b, ca, cb)
    }

    fn assert_degrees_current(g: &LocalGraph, scratch: &DegreeScratch, ca: &BitSet, cb: &BitSet) {
        for u in ca.iter() {
            assert_eq!(scratch.deg_left[u] as usize, g.left_degree_in(u as u32, cb));
        }
        for v in cb.iter() {
            assert_eq!(
                scratch.deg_right[v] as usize,
                g.right_degree_in(v as u32, ca)
            );
        }
    }

    #[test]
    fn stale_side_reduction_matches_fixpoint_oracle() {
        let mut rng = StdRng::seed_from_u64(0x5eed_d3a9);
        for case in 0..300 {
            let (g, a0, b0, ca0, cb0) = random_state(&mut rng);
            let best_half = rng.gen_range(0..=g.num_left().min(g.num_right()) / 2 + 1);
            let use_reductions = case % 4 != 3;

            let (mut a, mut b, mut ca, mut cb) = (a0.clone(), b0.clone(), ca0.clone(), cb0.clone());
            let mut stats = SearchStats::default();
            let mut scratch = DegreeScratch::new(&g);
            let (mut oa, mut ob, mut oca, mut ocb) = (a0, b0, ca0, cb0);
            let mut oracle_stats = SearchStats::default();
            if use_reductions {
                scratch.reduce(&g, &mut a, &mut b, &mut ca, &mut cb, best_half, &mut stats);
                reduce_fixpoint_oracle(
                    &g,
                    &mut oa,
                    &mut ob,
                    &mut oca,
                    &mut ocb,
                    best_half,
                    &mut oracle_stats,
                );
            } else {
                scratch.count(&g, &ca, &cb);
            }
            assert_eq!(a, oa, "case {case}: A (order included)");
            assert_eq!(b, ob, "case {case}: B (order included)");
            assert_eq!(ca, oca, "case {case}: CA");
            assert_eq!(cb, ocb, "case {case}: CB");
            assert_eq!(
                stats.reduced_vertices, oracle_stats.reduced_vertices,
                "case {case}: reduced_vertices"
            );
            assert_degrees_current(&g, &scratch, &ca, &cb);
        }
    }
}
