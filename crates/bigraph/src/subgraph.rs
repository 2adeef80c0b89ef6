//! Induced subgraphs with original-id maps.
//!
//! Reductions (Lemma 4) and vertex-centred decomposition both shrink the
//! working graph while results must be reported in original vertex ids, so
//! every extraction carries `left_ids` / `right_ids` translation tables.

use crate::graph::{BipartiteGraph, Builder};

/// An induced subgraph plus the maps from its local indices back to the
/// indices of the parent graph.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The induced graph.
    pub graph: BipartiteGraph,
    /// `left_ids[i]` = parent left index of local left vertex `i` (sorted).
    pub left_ids: Vec<u32>,
    /// `right_ids[j]` = parent right index of local right vertex `j`.
    pub right_ids: Vec<u32>,
}

impl InducedSubgraph {
    /// Translates a local-left index to the parent index.
    #[inline]
    pub fn parent_left(&self, local: u32) -> u32 {
        self.left_ids[local as usize]
    }

    /// Translates a local-right index to the parent index.
    #[inline]
    pub fn parent_right(&self, local: u32) -> u32 {
        self.right_ids[local as usize]
    }

    /// The identity embedding of a graph into itself.
    pub fn identity(graph: &BipartiteGraph) -> InducedSubgraph {
        InducedSubgraph {
            left_ids: (0..graph.num_left() as u32).collect(),
            right_ids: (0..graph.num_right() as u32).collect(),
            graph: graph.clone(),
        }
    }
}

/// Extracts the subgraph induced by boolean keep-masks over each side.
pub fn induce_by_mask(
    graph: &BipartiteGraph,
    keep_left: &[bool],
    keep_right: &[bool],
) -> InducedSubgraph {
    debug_assert_eq!(keep_left.len(), graph.num_left());
    debug_assert_eq!(keep_right.len(), graph.num_right());
    let left_ids: Vec<u32> = (0..graph.num_left() as u32)
        .filter(|&u| keep_left[u as usize])
        .collect();
    let right_ids: Vec<u32> = (0..graph.num_right() as u32)
        .filter(|&v| keep_right[v as usize])
        .collect();
    induce_by_ids(graph, left_ids, right_ids)
}

/// Extracts the subgraph induced by explicit (sorted or unsorted) id lists.
pub fn induce_by_ids(
    graph: &BipartiteGraph,
    mut left_ids: Vec<u32>,
    mut right_ids: Vec<u32>,
) -> InducedSubgraph {
    left_ids.sort_unstable();
    left_ids.dedup();
    right_ids.sort_unstable();
    right_ids.dedup();

    let mut right_map = vec![u32::MAX; graph.num_right()];
    for (j, &r) in right_ids.iter().enumerate() {
        right_map[r as usize] = j as u32;
    }
    let mut builder = Builder::new(left_ids.len() as u32, right_ids.len() as u32);
    for (i, &l) in left_ids.iter().enumerate() {
        for &r in graph.neighbors_left(l) {
            let j = right_map[r as usize];
            if j != u32::MAX {
                builder.add_edge(i as u32, j).expect("mapped ids in range");
            }
        }
    }
    InducedSubgraph {
        graph: builder.build(),
        left_ids,
        right_ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn identity_preserves_everything() {
        let g = generators::uniform_edges(10, 10, 40, 1);
        let s = InducedSubgraph::identity(&g);
        assert_eq!(s.graph.num_edges(), g.num_edges());
        assert_eq!(s.parent_left(3), 3);
        assert_eq!(s.parent_right(7), 7);
    }

    #[test]
    fn mask_induction_keeps_internal_edges_only() {
        let g = generators::uniform_edges(12, 12, 70, 2);
        let keep_left: Vec<bool> = (0..12).map(|u| u % 2 == 0).collect();
        let keep_right: Vec<bool> = (0..12).map(|v| v < 6).collect();
        let s = induce_by_mask(&g, &keep_left, &keep_right);
        assert_eq!(s.left_ids, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(s.right_ids, vec![0, 1, 2, 3, 4, 5]);
        for (i, &l) in s.left_ids.iter().enumerate() {
            for (j, &r) in s.right_ids.iter().enumerate() {
                assert_eq!(s.graph.has_edge(i as u32, j as u32), g.has_edge(l, r));
            }
        }
    }

    #[test]
    fn id_induction_sorts_and_dedups() {
        let g = generators::uniform_edges(8, 8, 30, 3);
        let s = induce_by_ids(&g, vec![5, 1, 5, 3], vec![7, 0]);
        assert_eq!(s.left_ids, vec![1, 3, 5]);
        assert_eq!(s.right_ids, vec![0, 7]);
    }

    #[test]
    fn empty_induction() {
        let g = generators::uniform_edges(5, 5, 10, 4);
        let s = induce_by_ids(&g, vec![], vec![]);
        assert_eq!(s.graph.num_vertices(), 0);
        assert_eq!(s.graph.num_edges(), 0);
    }
}
