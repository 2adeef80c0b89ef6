//! Socket front-end integration suite (`--features socket`): K
//! concurrent TCP clients must see exactly the answers sequential
//! fresh engines would give — plus the fault-injection battery from the
//! connection-lifecycle contract (mid-line disconnect, half-close,
//! dribbled writes, slow readers, cross-connection shed isolation,
//! abrupt disconnect cancelling queued work).
#![cfg(feature = "socket")]

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use mbb_bigraph::generators;
use mbb_bigraph::graph::BipartiteGraph;
use mbb_core::engine::MbbEngine;
use mbb_serve::jsonl::encode_request;
use mbb_serve::socket::{ShutdownHandle, SocketFrontEnd};
use mbb_serve::{QueryKind, QueryRequest, ServeStats, ShardedFleet, StreamConfig, StreamServer};
use mbb_tests::{all_kinds, direct};
use proptest::prelude::*;
use serde_json::Value;

// ---------------------------------------------------------------------
// Harness.

/// The two shard graphs of the equivalence suite (same seeds as
/// serve_stream.rs, so "direct" comparison engines are identical).
fn shard_graphs() -> Vec<(&'static str, BipartiteGraph)> {
    vec![
        ("alpha", generators::uniform_edges(14, 14, 62, 31)),
        ("beta", generators::uniform_edges(12, 15, 58, 32)),
    ]
}

/// The wire-level headline of a response line, matching
/// `QueryOutcome::headline_size` kind by kind.
fn headline(line: &Value) -> usize {
    let kind = line["kind"].as_str().expect("kind field");
    let r = &line["result"];
    let as_usize = |v: &Value| v.as_u64().expect("numeric field") as usize;
    match kind {
        "solve" | "anchored" => as_usize(&r["half_size"]),
        "anchored_edge" => {
            if r["found"].as_bool() == Some(true) {
                as_usize(&r["half_size"])
            } else {
                0
            }
        }
        "topk" | "enumerate" => r["bicliques"]
            .as_array()
            .expect("bicliques array")
            .iter()
            .map(|b| as_usize(&b["balanced_size"]))
            .max()
            .unwrap_or(0),
        "weighted" => as_usize(&r["weight"]),
        "meb" => as_usize(&r["edges"]),
        "frontier" => r["pairs"]
            .as_array()
            .expect("pairs array")
            .iter()
            .map(|p| {
                let pair = p.as_array().expect("pair");
                as_usize(&pair[0]).min(as_usize(&pair[1]))
            })
            .max()
            .unwrap_or(0),
        "size_constrained" => {
            if r["found"].as_bool() == Some(true) {
                let left = r["left"].as_array().expect("left").len();
                let right = r["right"].as_array().expect("right").len();
                left.min(right)
            } else {
                0
            }
        }
        other => panic!("unexpected kind {other:?}"),
    }
}

/// A front-end serving on an ephemeral localhost port, on its own
/// thread.
struct Running {
    addr: SocketAddr,
    handle: ShutdownHandle,
    join: std::thread::JoinHandle<ServeStats>,
}

fn start(config: StreamConfig, max_conns: usize, shards: Vec<(&str, BipartiteGraph)>) -> Running {
    let mut fleet = ShardedFleet::new();
    for (id, graph) in shards {
        fleet.add_shard(id, graph).unwrap();
    }
    let bound = SocketFrontEnd::new(StreamServer::new(fleet, config))
        .with_tcp("127.0.0.1:0")
        .with_max_conns(max_conns)
        .bind()
        .unwrap();
    let addr = bound.tcp_addr().unwrap();
    let handle = bound.shutdown_handle();
    let join = std::thread::spawn(move || bound.serve());
    Running { addr, handle, join }
}

impl Running {
    fn stop(self) -> ServeStats {
        self.handle.shutdown();
        self.join.join().unwrap()
    }
}

/// One whole-stream exchange: write `payload`, half-close, read every
/// response line until the server closes.
fn exchange(addr: SocketAddr, payload: &str) -> Vec<Value> {
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    sock.write_all(payload.as_bytes()).unwrap();
    sock.shutdown(Shutdown::Write).unwrap();
    read_all(sock)
}

fn read_all(sock: TcpStream) -> Vec<Value> {
    BufReader::new(sock)
        .lines()
        .map(|line| serde_json::from_str(&line.unwrap()).unwrap())
        .collect()
}

fn jsonl(requests: &[QueryRequest]) -> String {
    requests.iter().map(|r| encode_request(r) + "\n").collect()
}

/// Fisher–Yates with an LCG: a deterministic arrival-order permutation
/// from one seed (the vendored proptest has no shuffle strategy).
fn permute<T>(items: &mut [T], seed: u64) {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    for i in (1..items.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

// ---------------------------------------------------------------------
// Tentpole equivalence.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The multi-client equivalence bar: the full mixed-kind request set,
    // shuffled and split across 3 concurrent TCP clients against one
    // shared server, answers exactly — headline size and termination —
    // like sequential calls on fresh single engines. Each client must
    // receive precisely its own responses (no loss, no cross-delivery).
    #[test]
    fn concurrent_socket_clients_match_sequential_fresh_engines(seed in 0u64..10_000) {
        let mut requests = Vec::new();
        let mut expected = HashMap::new();
        let mut next_id = 1u64;
        for (shard, graph) in shard_graphs() {
            let engine = MbbEngine::new(graph.clone());
            for kind in all_kinds(&graph) {
                expected.insert(next_id, direct(&engine, &kind));
                requests.push(QueryRequest::new(next_id, kind).on_graph(shard));
                next_id += 1;
            }
        }
        permute(&mut requests, seed);

        let server = start(
            StreamConfig { workers: 3, ..StreamConfig::default() },
            8,
            shard_graphs(),
        );
        let per_client = requests.len().div_ceil(3);
        let slices: Vec<&[QueryRequest]> = requests.chunks(per_client).collect();
        let responses: Vec<Vec<Value>> = std::thread::scope(|scope| {
            let clients: Vec<_> = slices
                .iter()
                .map(|slice| {
                    let addr = server.addr;
                    let payload = jsonl(slice);
                    scope.spawn(move || exchange(addr, &payload))
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        });

        for (slice, lines) in slices.iter().zip(&responses) {
            let mut want_ids: Vec<u64> = slice.iter().map(|r| r.id).collect();
            want_ids.sort_unstable();
            let mut got_ids: Vec<u64> =
                lines.iter().map(|l| l["id"].as_u64().unwrap()).collect();
            got_ids.sort_unstable();
            prop_assert_eq!(
                &got_ids, &want_ids,
                "each client sees exactly its own responses"
            );
            for line in lines {
                let id = line["id"].as_u64().unwrap();
                let (size, termination) = expected[&id];
                prop_assert!(line["error_kind"].is_null(), "id {}: {}", id, line);
                prop_assert_eq!(headline(line), size, "id {}: {}", id, line);
                prop_assert_eq!(
                    line["termination"].as_str().unwrap(),
                    termination.to_string(),
                    "id {}", id
                );
            }
        }

        let stats = server.stop();
        prop_assert_eq!(stats.admitted, expected.len() as u64);
        prop_assert_eq!(stats.completed, expected.len() as u64);
        prop_assert_eq!(stats.shed, 0);
        prop_assert_eq!(stats.rejected, 0);
        prop_assert_eq!(stats.connections, 3);
        prop_assert_eq!(stats.active_conns, 0);
        prop_assert_eq!(stats.disconnects, 0);
        prop_assert_eq!(stats.disconnected, 0);
    }
}

// ---------------------------------------------------------------------
// Fault injection.

/// A client that dies mid-line (its final request line is cut off
/// before the newline): the fragment becomes one parse error, and a
/// concurrent healthy client is answered exactly as normal.
#[test]
fn mid_line_disconnect_is_one_parse_error_and_neighbours_are_unharmed() {
    let (_, graph) = &shard_graphs()[0];
    let want = direct(&MbbEngine::new(graph.clone()), &QueryKind::Solve);
    let server = start(StreamConfig::default(), 8, shard_graphs());

    let mut broken = TcpStream::connect(server.addr).unwrap();
    broken
        .write_all(b"{\"id\": 9, \"graph\": \"alpha\", \"ki")
        .unwrap();
    drop(broken);

    let healthy = exchange(
        server.addr,
        &jsonl(&[QueryRequest::new(1, QueryKind::Solve).on_graph("alpha")]),
    );
    assert_eq!(healthy.len(), 1);
    assert_eq!(healthy[0]["id"].as_u64(), Some(1));
    assert_eq!(headline(&healthy[0]), want.0);

    let stats = server.stop();
    assert_eq!(
        stats.parse_errors, 1,
        "the cut-off fragment is one parse error"
    );
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.connections, 2);
    assert_eq!(stats.active_conns, 0);
}

/// Half-close: the client shuts down its write side — with the final
/// request line *not* newline-terminated — and must still receive every
/// response before the server closes the connection.
#[test]
fn half_closed_write_side_flushes_the_trailing_line_and_every_response() {
    let server = start(StreamConfig::default(), 8, shard_graphs());
    let payload = jsonl(&[
        QueryRequest::new(1, QueryKind::Solve).on_graph("alpha"),
        QueryRequest::new(2, QueryKind::Meb).on_graph("beta"),
    ]);
    // Strip the final newline: EOF itself must terminate the line.
    let trimmed = payload.trim_end().to_string();
    let lines = exchange(server.addr, &trimmed);
    let mut ids: Vec<u64> = lines.iter().map(|l| l["id"].as_u64().unwrap()).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2], "both requests answered after half-close");

    let stats = server.stop();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.parse_errors, 0);
    assert_eq!(stats.disconnects, 0, "half-close is a clean close");
}

/// A request line dribbled in one-byte TCP writes must be reassembled
/// into exactly one request.
#[test]
fn request_split_across_many_tiny_writes_is_reassembled() {
    let server = start(StreamConfig::default(), 8, shard_graphs());
    let payload = jsonl(&[QueryRequest::new(42, QueryKind::Solve).on_graph("alpha")]);

    let mut sock = TcpStream::connect(server.addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    sock.set_nodelay(true).unwrap();
    for (i, byte) in payload.as_bytes().iter().enumerate() {
        sock.write_all(std::slice::from_ref(byte)).unwrap();
        sock.flush().unwrap();
        // A few real pauses force separate TCP segments (and separate
        // reads server-side); pausing on every byte would be slow.
        if i % 10 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    sock.shutdown(Shutdown::Write).unwrap();
    let lines = read_all(sock);
    assert_eq!(lines.len(), 1, "exactly one request was assembled");
    assert_eq!(lines[0]["id"].as_u64(), Some(42));

    let stats = server.stop();
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.parse_errors, 0);
}

/// A slow-reading client (large responses queued, never reading) must
/// not block a neighbour's responses: per-connection outboxes and
/// writer threads isolate the stall.
#[test]
fn slow_reading_client_does_not_block_a_neighbour() {
    let server = start(
        StreamConfig {
            workers: 2,
            ..StreamConfig::default()
        },
        8,
        shard_graphs(),
    );

    // The slow client queues 10 full enumerations (the largest response
    // lines the wire produces) and never reads while the neighbour runs.
    let mut slow = TcpStream::connect(server.addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let slow_requests: Vec<QueryRequest> = (1..=10)
        .map(|id| {
            QueryRequest::new(
                id,
                QueryKind::Enumerate {
                    min_left: 1,
                    min_right: 1,
                    max_results: None,
                },
            )
            .on_graph("alpha")
        })
        .collect();
    slow.write_all(jsonl(&slow_requests).as_bytes()).unwrap();
    slow.shutdown(Shutdown::Write).unwrap();

    // The neighbour must be answered promptly — bounded by the read
    // timeout — while the slow client has consumed nothing.
    let mut fast = TcpStream::connect(server.addr).unwrap();
    fast.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    fast.write_all(jsonl(&[QueryRequest::new(99, QueryKind::Solve).on_graph("beta")]).as_bytes())
        .unwrap();
    fast.shutdown(Shutdown::Write).unwrap();
    let fast_lines = read_all(fast);
    assert_eq!(
        fast_lines.len(),
        1,
        "neighbour answered while slow client stalls"
    );
    assert_eq!(fast_lines[0]["id"].as_u64(), Some(99));

    // The slow client eventually drains its own backlog intact.
    let slow_lines = read_all(slow);
    assert_eq!(slow_lines.len(), 10);
    let stats = server.stop();
    assert_eq!(stats.completed, 11);
    assert_eq!(stats.disconnects, 0);
}

/// A blown-deadline request from one client is shed with a typed error
/// on *that* connection only; a neighbour's plain request is answered
/// exactly as a fresh engine would.
#[test]
fn blown_deadline_shed_does_not_perturb_a_neighbour_connection() {
    let (_, graph) = &shard_graphs()[0];
    let want = direct(&MbbEngine::new(graph.clone()), &QueryKind::Solve);
    let server = start(StreamConfig::default(), 8, shard_graphs());

    let (doomed, healthy) = std::thread::scope(|scope| {
        let addr = server.addr;
        let doomed = scope.spawn(move || {
            exchange(
                addr,
                &jsonl(&[QueryRequest::new(1, QueryKind::Solve)
                    .on_graph("alpha")
                    .with_deadline(Duration::ZERO)]),
            )
        });
        let healthy = scope.spawn(move || {
            exchange(
                addr,
                &jsonl(&[QueryRequest::new(2, QueryKind::Solve).on_graph("alpha")]),
            )
        });
        (doomed.join().unwrap(), healthy.join().unwrap())
    });

    assert_eq!(doomed.len(), 1);
    assert_eq!(doomed[0]["id"].as_u64(), Some(1));
    assert_eq!(
        doomed[0]["error_kind"].as_str(),
        Some("shed"),
        "{:?}",
        doomed[0]
    );
    assert_eq!(healthy.len(), 1);
    assert_eq!(headline(&healthy[0]), want.0, "neighbour unperturbed");

    let stats = server.stop();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.completed, 1);
}

/// Abrupt disconnect with work still queued: once the server detects
/// the dead connection (a response write fails), that connection's
/// queued requests are cancelled — with typed `disconnected` accounting
/// — instead of wasting the pool, and a neighbour admitted behind them
/// is served. Every admitted request retires exactly once.
#[test]
fn abrupt_disconnect_cancels_queued_work_and_frees_the_pool() {
    let mut shards = shard_graphs();
    shards.push(("dense", generators::uniform_edges(40, 40, 800, 7)));
    let server = start(
        StreamConfig {
            workers: 1,
            ..StreamConfig::default()
        },
        8,
        shards,
    );

    // Seven worker-pinning enumerations with staggered budgets: each
    // executes for ~300ms after the previous, so response writes to the
    // vanished client are spaced far apart — the second write reliably
    // observes the connection reset, long before the queue is empty.
    let pins: Vec<QueryRequest> = (1..=7)
        .map(|id| {
            QueryRequest::new(
                id,
                QueryKind::Enumerate {
                    min_left: 1,
                    min_right: 1,
                    max_results: None,
                },
            )
            .on_graph("dense")
            .with_deadline(Duration::from_millis(300 * id))
        })
        .collect();
    let mut vanishing = TcpStream::connect(server.addr).unwrap();
    vanishing.write_all(jsonl(&pins).as_bytes()).unwrap();
    // Wait until the stream is admitted, then vanish without reading a
    // single response.
    std::thread::sleep(Duration::from_millis(150));
    drop(vanishing);

    // The neighbour's deadline-free request sits behind the pins in EDF
    // order; it can only be answered this side of ~2.1s because the
    // dead connection's remaining pins were cancelled.
    let healthy = exchange(
        server.addr,
        &jsonl(&[QueryRequest::new(99, QueryKind::Solve).on_graph("alpha")]),
    );
    assert_eq!(healthy.len(), 1);
    assert_eq!(healthy[0]["id"].as_u64(), Some(99));

    let stats = server.stop();
    assert_eq!(stats.connections, 2);
    assert_eq!(
        stats.disconnects, 1,
        "the vanished client is an abrupt close"
    );
    assert!(
        stats.disconnected >= 1,
        "queued requests were cancelled: {stats:?}"
    );
    assert_eq!(
        stats.completed + stats.shed + stats.disconnected,
        stats.admitted,
        "every admitted request retires exactly once: {stats:?}"
    );
    assert_eq!(stats.active_conns, 0);
}

/// `{"control": "metrics"}` over a live TCP connection: the answer must
/// arrive on the asking connection, embed the counter snapshot, and
/// expose millisecond histogram quantiles whose counts reconcile with
/// the requests this exchange completed.
#[test]
fn metrics_control_over_socket_reports_quantiles() {
    let server = start(
        StreamConfig {
            workers: 1,
            ..StreamConfig::default()
        },
        4,
        shard_graphs(),
    );

    let mut payload = jsonl(&[
        QueryRequest::new(1, QueryKind::Solve).on_graph("alpha"),
        QueryRequest::new(2, QueryKind::Solve).on_graph("beta"),
    ]);
    payload.push_str("{\"control\": \"drain\"}\n");
    payload.push_str("{\"control\": \"metrics\"}\n");
    let lines = exchange(server.addr, &payload);

    let metrics = lines
        .iter()
        .find(|l| !l["metrics"].is_null())
        .unwrap_or_else(|| panic!("no metrics line in {lines:?}"));
    let m = &metrics["metrics"];
    assert_eq!(m["stats"]["admitted"].as_u64(), Some(2));
    assert_eq!(m["stats"]["completed"].as_u64(), Some(2));
    assert!(m["spans_dropped"].as_u64().is_some());
    for hist in ["queue_wait_ms", "service_ms"] {
        let h = &m["histograms"][hist];
        assert_eq!(h["count"].as_u64(), Some(2), "{hist}: {metrics}");
        for field in ["mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"] {
            assert!(h[field].as_f64().is_some(), "{hist}.{field}: {metrics}");
        }
        assert!(
            h["p50_ms"].as_f64() <= h["p99_ms"].as_f64(),
            "{hist}: quantiles monotone: {metrics}"
        );
    }

    let stats = server.stop();
    assert_eq!(stats.completed, 2);
}
