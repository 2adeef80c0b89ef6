//! End-to-end coverage of the `mbb-serve` front-end: batch answers must
//! equal direct per-engine queries, terminations must be honest under
//! mixed budgets, and routing must be deterministic.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use mbb_bigraph::generators;
use mbb_bigraph::graph::BipartiteGraph;
use mbb_core::budget::{CancelToken, Termination};
use mbb_core::engine::MbbEngine;
use mbb_core::Stage;
use mbb_serve::jsonl::{encode_report, parse_requests};
use mbb_serve::{
    QueryKind, QueryOutcome, QueryRequest, QueryResponse, ServeStats, ShardedFleet, StreamConfig,
    StreamEvent, StreamServer,
};
use mbb_tests::{all_kinds, direct};
use proptest::prelude::*;
use serde_json::Value;

/// The three shard graphs used by the acceptance test. Regenerating
/// from the same seeds gives the "direct" comparison engines identical
/// graphs without sharing any state with the fleet. Stage 1 settles none
/// of them, so every first solve builds a residual order.
fn shard_graphs() -> Vec<(&'static str, BipartiteGraph)> {
    vec![
        ("alpha", generators::uniform_edges(14, 14, 62, 25)),
        ("beta", generators::uniform_edges(12, 15, 58, 22)),
        ("gamma", generators::uniform_edges(16, 11, 55, 23)),
    ]
}

/// A batch server over `fleet` with `workers` workers.
fn server(fleet: ShardedFleet, workers: usize) -> StreamServer {
    StreamServer::new(
        fleet,
        StreamConfig {
            workers,
            ..StreamConfig::default()
        },
    )
}

/// The response inside an event; panics on any other event kind.
fn response(event: &StreamEvent) -> &QueryResponse {
    match event {
        StreamEvent::Response(response) => response,
        other => panic!("expected a response, got {other:?}"),
    }
}

/// The acceptance bar: a 3-shard fleet batch of ≥ 20 mixed-kind,
/// unbudgeted requests returns results identical — headline sizes and
/// `Termination` — to sequential calls against fresh single engines on
/// the same graphs.
#[test]
fn three_shard_mixed_batch_matches_sequential_single_engine_calls() {
    let mut fleet = ShardedFleet::new();
    for (id, graph) in shard_graphs() {
        fleet.add_shard(id, graph).unwrap();
    }
    let mut requests = Vec::new();
    let mut expected = Vec::new();
    for (id, graph) in shard_graphs() {
        // An isolated engine per shard: the sequential reference path.
        let engine = MbbEngine::new(graph);
        let mut kinds = all_kinds(engine.graph());
        // A repeat solve: same answer, but served from the session's
        // cached indices — the reuse the batch stats must surface.
        kinds.push(QueryKind::Solve);
        for kind in kinds {
            expected.push(direct(&engine, &kind));
            requests.push(QueryRequest::new(requests.len() as u64, kind).on_graph(id));
        }
    }
    assert!(requests.len() >= 20, "30 mixed requests expected");

    let (events, stats) = server(fleet, 3).run_batch(requests);
    assert_eq!(events.len(), expected.len());
    for (event, (size, termination)) in events.iter().zip(&expected) {
        let response = response(event);
        assert!(
            !response.outcome.is_rejected(),
            "id {}: {:?}",
            response.id,
            response.outcome
        );
        assert_eq!(
            response.outcome.headline_size(),
            *size,
            "id {} ({})",
            response.id,
            response.kind
        );
        // Unbudgeted requests must agree on termination too (Complete).
        assert_eq!(response.termination, *termination, "id {}", response.id);
        assert!(response.termination.is_complete(), "id {}", response.id);
        if response.kind == "solve" {
            assert_ne!(response.stats.stage, Stage::S1, "id {}", response.id);
        }
    }
    // Every shard served its ten requests (nine kinds + repeat solve).
    for shard in &stats.per_shard {
        assert_eq!(shard.served, 10, "shard {}", shard.shard);
    }
    // Repeated queries on one session scored index reuse.
    assert!(stats.index_reuse_hits >= 3);
}

/// Solved payloads coming out of a batch are valid bicliques of the
/// shard graph they were routed to.
#[test]
fn batch_payloads_are_valid_bicliques() {
    let mut fleet = ShardedFleet::new();
    for (id, graph) in shard_graphs() {
        fleet.add_shard(id, graph).unwrap();
    }
    let server = server(fleet, 2);
    let requests: Vec<QueryRequest> = shard_graphs()
        .iter()
        .enumerate()
        .map(|(i, (id, _))| QueryRequest::new(i as u64, QueryKind::Solve).on_graph(*id))
        .collect();
    let (events, _) = server.run_batch(requests);
    for (i, event) in events.iter().enumerate() {
        let engine = server.fleet().engine(i);
        let graph = engine.graph();
        match &response(event).outcome {
            QueryOutcome::Solve(b) => assert!(b.is_valid(graph), "shard {i}"),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}

/// One batch whose requests end in all three `Termination` variants,
/// plus a shed: unbudgeted → `Complete`, a positive deadline the request
/// cannot meet → `DeadlineExceeded`, an already-fired cancel token →
/// `Cancelled`, and a zero budget → shed without executing.
#[test]
fn mixed_deadline_batch_hits_all_three_terminations() {
    // Dense enough that stage 1 cannot prove optimality, so budget
    // checks actually observe the fired token; full enumeration of it
    // cannot finish, so it runs to its deadline.
    let mut fleet = ShardedFleet::new();
    fleet
        .add_shard("dense", generators::dense_uniform(40, 40, 0.8, 3))
        .unwrap();
    let token = CancelToken::new();
    token.cancel();
    let full_enumeration = QueryKind::Enumerate {
        min_left: 1,
        min_right: 1,
        max_results: None,
    };
    let (events, stats) = server(fleet, 2).run_batch(vec![
        QueryRequest::new(0, QueryKind::Solve).on_graph("dense"),
        QueryRequest::new(1, full_enumeration)
            .on_graph("dense")
            .with_deadline(Duration::from_millis(200)),
        QueryRequest::new(2, QueryKind::Solve)
            .on_graph("dense")
            .with_cancel(token),
        QueryRequest::new(3, QueryKind::Solve)
            .on_graph("dense")
            .with_deadline(Duration::ZERO),
    ]);
    let terminations: Vec<Termination> = events[..3]
        .iter()
        .map(|e| response(e).termination)
        .collect();
    assert_eq!(
        terminations,
        vec![
            Termination::Complete,
            Termination::DeadlineExceeded,
            Termination::Cancelled,
        ]
    );
    assert!(
        matches!(&events[3], StreamEvent::Shed { id: 3, .. }),
        "a zero budget is shed: {:?}",
        events[3]
    );
    assert_eq!((stats.completed, stats.shed), (3, 1));
    // Anytime semantics: the complete solve dominates the budgeted ones.
    let complete = response(&events[0]).outcome.headline_size();
    for e in &events[1..3] {
        assert!(response(e).outcome.headline_size() <= complete);
    }
}

/// A real batch's JSONL output round-trips: every line parses as one
/// JSON object, ids come back in request order, and terminations use
/// the documented wire strings.
#[test]
fn jsonl_batch_output_round_trips() {
    let text = r#"
{"id": 1, "graph": "a", "kind": "solve"}
{"id": 2, "graph": "a", "kind": "topk", "k": 2}
{"id": 3, "graph": "b", "kind": "frontier", "deadline_ms": 5000}
{"id": 4, "kind": "meb"}
{"id": 5, "graph": "nowhere", "kind": "solve"}
"#;
    let requests = parse_requests(text).unwrap();
    assert_eq!(requests.len(), 5);

    let mut fleet = ShardedFleet::new();
    fleet
        .add_shard("a", generators::uniform_edges(10, 10, 45, 31))
        .unwrap()
        .add_shard("b", generators::uniform_edges(10, 10, 45, 32))
        .unwrap();
    let (events, stats) = server(fleet, 2).run_batch(requests);
    let output = encode_report(&events, Some((&stats, Duration::from_millis(1))));
    let lines: Vec<&str> = output.lines().collect();
    assert_eq!(lines.len(), 6, "5 responses + stats line");

    for (line, expected_id) in lines[..5].iter().zip(1u64..) {
        let value: Value = serde_json::from_str(line).unwrap();
        assert_eq!(value["id"].as_u64(), Some(expected_id));
        if expected_id == 5 {
            assert!(value["error"].as_str().unwrap().contains("nowhere"));
        } else {
            let termination = value["termination"].as_str().unwrap();
            assert!(termination.parse::<Termination>().is_ok(), "{termination}");
        }
    }
    let stats: Value = serde_json::from_str(lines[5]).unwrap();
    assert_eq!(stats["batch"]["requests"].as_u64(), Some(5));
    assert_eq!(stats["batch"]["rejected"].as_u64(), Some(1));
    assert_eq!(stats["batch"]["shed"].as_u64(), Some(0));
}

/// How one request ended, in the terms both serving paths share: the
/// outcome kind (`answer`, `invalid` or `shed`) plus, for answers, the
/// termination and headline size.
fn outcome_of(event: &StreamEvent) -> (u64, String) {
    match event {
        StreamEvent::Response(r) if r.outcome.is_rejected() => (r.id, "invalid".to_string()),
        StreamEvent::Response(r) => (
            r.id,
            format!(
                "answer {} size {}",
                r.termination,
                r.outcome.headline_size()
            ),
        ),
        StreamEvent::Shed { id, .. } => (*id, "shed".to_string()),
        other => panic!("unexpected event {other:?}"),
    }
}

/// One request file, two ways in: `run_batch` (what `mbb serve-batch`
/// runs) and the line-at-a-time `serve_with` loop (what `mbb serve`
/// runs) must give every request the same outcome kind and
/// termination — including a zero budget (shed by both), an unroutable
/// graph and an invalid parameter (rejected by both).
#[test]
fn batch_and_stream_agree_on_every_outcome() {
    let text = r#"
{"id": 1, "graph": "a", "kind": "solve"}
{"id": 2, "graph": "a", "kind": "solve", "deadline_ms": 0}
{"id": 3, "graph": "b", "kind": "topk", "k": 2}
{"id": 4, "graph": "nowhere", "kind": "solve"}
{"id": 5, "graph": "b", "kind": "topk", "k": 0}
{"id": 6, "graph": "a", "kind": "anchored", "side": "left", "vertex": 99}
{"id": 7, "kind": "meb", "deadline_ms": 0}
{"id": 8, "graph": "b", "kind": "frontier", "deadline_ms": 60000}
{"id": 9, "kind": "size_constrained", "a": 2, "b": 2}
"#;
    let fleet = || {
        let mut fleet = ShardedFleet::new();
        fleet
            .add_shard("a", generators::uniform_edges(12, 12, 55, 41))
            .unwrap()
            .add_shard("b", generators::uniform_edges(10, 11, 48, 42))
            .unwrap();
        fleet
    };
    let (batch_events, batch_stats) = server(fleet(), 2).run_batch(parse_requests(text).unwrap());
    let streamed = Mutex::new(Vec::new());
    let stream_stats = server(fleet(), 2).serve_with(text.as_bytes(), |e| {
        streamed.lock().unwrap().push(e);
    });

    let batch: HashMap<u64, String> = batch_events.iter().map(outcome_of).collect();
    let stream: HashMap<u64, String> = streamed
        .into_inner()
        .unwrap()
        .iter()
        .map(outcome_of)
        .collect();
    assert_eq!(batch.len(), 9, "one event per request");
    assert_eq!(batch, stream);
    assert_eq!(batch[&2], "shed");
    assert_eq!(batch[&4], "invalid");
    let counters = |s: &ServeStats| (s.admitted, s.completed, s.shed, s.rejected);
    assert_eq!(counters(&batch_stats), (4, 4, 2, 3));
    assert_eq!(counters(&batch_stats), counters(&stream_stats));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Batch execution is a pure scheduling layer: for any small random
    // graphs, batch answers equal direct engine answers, at any worker
    // count.
    #[test]
    fn batch_results_equal_direct_engine_queries(
        seed_a in 0u64..500,
        seed_b in 0u64..500,
        workers in 1usize..4,
    ) {
        let graph_a = generators::uniform_edges(9, 9, 36, seed_a);
        let graph_b = generators::uniform_edges(8, 10, 34, seed_b);
        let mut fleet = ShardedFleet::new();
        fleet
            .add_shard("a", graph_a.clone())
            .unwrap()
            .add_shard("b", graph_b.clone())
            .unwrap();
        let server = server(fleet, workers);

        let kinds = [
            QueryKind::Solve,
            QueryKind::Topk { k: 2 },
            QueryKind::Frontier,
            QueryKind::Meb,
        ];
        let mut requests = Vec::new();
        let mut expected = Vec::new();
        for (shard, graph) in [("a", &graph_a), ("b", &graph_b)] {
            let engine = MbbEngine::new(graph.clone());
            for kind in &kinds {
                expected.push(direct(&engine, kind));
                requests.push(
                    QueryRequest::new(requests.len() as u64, kind.clone()).on_graph(shard),
                );
            }
        }
        let (events, _) = server.run_batch(requests);
        prop_assert_eq!(events.len(), expected.len());
        for (event, (size, termination)) in events.iter().zip(&expected) {
            let response = response(event);
            prop_assert_eq!(response.outcome.headline_size(), *size);
            prop_assert_eq!(response.termination, *termination);
        }
    }

    // Shard routing is deterministic: the same request routes to the
    // same shard across repeated calls and across separately-built
    // fleets with the same shard layout.
    #[test]
    fn shard_routing_is_deterministic(
        ids in proptest::collection::vec(0u64..10_000, 1..30),
        shards in 1usize..5,
    ) {
        let build = || {
            let mut fleet = ShardedFleet::new();
            for s in 0..shards {
                fleet
                    .add_shard(format!("shard-{s}"), generators::uniform_edges(4, 4, 8, s as u64))
                    .unwrap();
            }
            fleet
        };
        let first = build();
        let second = build();
        for &id in &ids {
            let hashed = QueryRequest::new(id, QueryKind::Solve);
            let route = first.route(&hashed).unwrap();
            prop_assert!(route < shards);
            prop_assert_eq!(first.route(&hashed).unwrap(), route);
            prop_assert_eq!(second.route(&hashed).unwrap(), route);
            // Explicit graph ids override the hash and hit exactly.
            let explicit = QueryRequest::new(id, QueryKind::Solve)
                .on_graph(format!("shard-{}", id as usize % shards));
            prop_assert_eq!(first.route(&explicit).unwrap(), id as usize % shards);
        }
    }
}
