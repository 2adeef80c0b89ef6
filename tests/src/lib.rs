//! Integration test support crate (tests live in `tests/tests`): the
//! query-kind fixtures and the direct-engine reference that the serve
//! equivalence suites share.

use mbb_bigraph::graph::{BipartiteGraph, Vertex};
use mbb_core::budget::Termination;
use mbb_core::engine::MbbEngine;
use mbb_core::enumerate::EnumConfig;
use mbb_serve::QueryKind;

/// All nine query kinds against one shard graph. `(u, v)` is a known
/// edge of the graph so the anchored-edge query has a witness.
pub fn all_kinds(graph: &BipartiteGraph) -> Vec<QueryKind> {
    let (u, v) = graph.edges().next().expect("test graphs have edges");
    vec![
        QueryKind::Solve,
        QueryKind::Topk { k: 3 },
        QueryKind::Anchored {
            vertex: Vertex::left(u),
        },
        QueryKind::AnchoredEdge { u, v },
        QueryKind::Weighted {
            weights: vec![1; graph.num_vertices()],
        },
        QueryKind::Meb,
        QueryKind::Frontier,
        QueryKind::SizeConstrained { a: 2, b: 2 },
        QueryKind::Enumerate {
            min_left: 1,
            min_right: 1,
            max_results: None,
        },
    ]
}

/// Runs `kind` directly on `engine` (no service in between) and returns
/// `(headline size, termination)` in the normalisation of
/// `QueryOutcome::headline_size`.
pub fn direct(engine: &MbbEngine, kind: &QueryKind) -> (usize, Termination) {
    match kind {
        QueryKind::Solve => {
            let r = engine.solve();
            (r.value.half_size(), r.termination)
        }
        QueryKind::Topk { k } => {
            let r = engine.topk(*k);
            (
                r.value.iter().map(|b| b.balanced_size()).max().unwrap_or(0),
                r.termination,
            )
        }
        QueryKind::Anchored { vertex } => {
            let r = engine.anchored(*vertex);
            (r.value.half_size(), r.termination)
        }
        QueryKind::AnchoredEdge { u, v } => {
            let r = engine.anchored_edge(*u, *v);
            (r.value.map_or(0, |b| b.half_size()), r.termination)
        }
        QueryKind::Weighted { weights } => {
            let r = engine.weighted(weights);
            (r.value.weight as usize, r.termination)
        }
        QueryKind::Meb => {
            let r = engine.meb();
            (r.value.edges(), r.termination)
        }
        QueryKind::Frontier => {
            let r = engine.frontier();
            (r.value.mbb_half(), r.termination)
        }
        QueryKind::SizeConstrained { a, b } => {
            let r = engine.size_constrained(*a, *b);
            (
                r.value.map_or(0, |w| w.left.len().min(w.right.len())),
                r.termination,
            )
        }
        QueryKind::Enumerate { .. } => {
            let r = engine.enumerate(EnumConfig::default());
            (
                r.value
                    .bicliques
                    .iter()
                    .map(|b| b.balanced_size())
                    .max()
                    .unwrap_or(0),
                r.termination,
            )
        }
    }
}
