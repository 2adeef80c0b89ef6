//! Span-timeline integration suite: drive the real solver and the real
//! resident server with span recording on, then check the timeline
//! *makes sense* — the right stages appear, child spans nest inside
//! their parents, per-stage time sums to no more than the wall clock,
//! and every span carries the request/connection ids of the work it
//! measured.
//!
//! The span switch (`obs::enable`) is process-global, so every test in
//! this file serialises through [`obs_lock`]; no other file in this
//! test binary touches the facade.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use mbb_bigraph::generators;
use mbb_core::engine::MbbEngine;
use mbb_core::Stage;
use mbb_obs as obs;
use mbb_serve::jsonl::encode_request;
use mbb_serve::{QueryKind, QueryRequest, ShardedFleet, StreamConfig, StreamServer};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` with spans enabled and returns everything it recorded.
/// Leaves the facade disabled and the rings drained.
fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<obs::SpanRecord>) {
    obs::enable();
    obs::drain(|_| {}); // discard anything a previous test left behind
    let value = f();
    let mut records = Vec::new();
    obs::drain(|r| records.push(r));
    obs::disable();
    records.sort_by_key(|r| (r.start_nanos, r.seq));
    (value, records)
}

fn label(record: &obs::SpanRecord) -> &'static str {
    obs::Stage::from_u16(record.stage)
        .map(|s| s.label())
        .unwrap_or("?")
}

fn spans_of<'a>(records: &'a [obs::SpanRecord], stage: &str) -> Vec<&'a obs::SpanRecord> {
    records.iter().filter(|r| label(r) == stage).collect()
}

/// A full solve records the preprocessing and solve stages, and their
/// total stays within the measured wall clock (the clock-discipline
/// contract: stage boundaries only, no double counting at one level).
#[test]
fn solver_stage_spans_cover_and_fit_the_wall_clock() {
    let _guard = obs_lock();
    let graph = generators::uniform_edges(30, 30, 260, 17);
    let (wall, records) = capture(|| {
        // The window opens before the engine is built: preprocessing
        // spans may record during construction as well as lazily inside
        // solve().
        let start = Instant::now();
        let engine = MbbEngine::new(graph);
        let result = engine.solve();
        assert!(result.value.half_size() >= 1);
        // Stage 2 ran, so the solve peeled the residual.
        assert_ne!(result.stats.stage, Stage::S1);
        start.elapsed()
    });

    for stage in ["preprocess.bicore", "preprocess.order", "solve.heuristic"] {
        assert!(
            !spans_of(&records, stage).is_empty(),
            "stage {stage} missing from {:?}",
            records.iter().map(label).collect::<Vec<_>>()
        );
    }

    // The three solver stages are strictly sequential, so their
    // durations sum to no more than the wall clock. Preprocessing spans
    // are excluded: the engine builds its indexes lazily, so a
    // `preprocess.*` span may nest *inside* a solver stage (counting it
    // here would double-bill that time) — as do the `bridge_centre` and
    // `dense` children.
    let top_level = ["solve.heuristic", "solve.bridge", "solve.verify"];
    let total: u64 = records
        .iter()
        .filter(|r| top_level.contains(&label(r)))
        .map(|r| r.duration_nanos)
        .sum();
    assert!(
        total <= wall.as_nanos() as u64,
        "stage total {total}ns exceeds wall clock {}ns",
        wall.as_nanos()
    );

    // Child spans nest: the residual peel and every per-centre bridging
    // span lie inside some bridge-stage span, every dense-search span
    // inside some verify span.
    for (child, parent) in [
        ("preprocess.order", "solve.bridge"),
        ("preprocess.bicore", "preprocess.order"),
        ("solve.bridge_centre", "solve.bridge"),
        ("solve.dense", "solve.verify"),
    ] {
        let parents = spans_of(&records, parent);
        for c in spans_of(&records, child) {
            assert!(
                parents
                    .iter()
                    .any(|p| p.start_nanos <= c.start_nanos && c.end_nanos() <= p.end_nanos()),
                "{child} span {c:?} escapes every {parent} span"
            );
        }
    }

    // All spans fall within one wall-clock window of each other.
    let first = records.iter().map(|r| r.start_nanos).min().unwrap();
    let last = records.iter().map(|r| r.end_nanos()).max().unwrap();
    assert!(
        last - first <= wall.as_nanos() as u64,
        "span window {}ns exceeds wall clock {}ns",
        last - first,
        wall.as_nanos()
    );
}

/// A solve that stage 1 settles records no `preprocess.*` span: the
/// engine peels only for stage 2.
#[test]
fn stage_one_solve_records_no_preprocess_span() {
    let _guard = obs_lock();
    let (result, records) = capture(|| MbbEngine::new(generators::complete(6, 6)).solve());
    assert_eq!(result.stats.stage, Stage::S1);
    assert!(!spans_of(&records, "solve.heuristic").is_empty());
    let preprocess: Vec<_> = records
        .iter()
        .map(label)
        .filter(|l| l.starts_with("preprocess."))
        .collect();
    assert!(preprocess.is_empty(), "unexpected spans {preprocess:?}");
}

/// A served request's timeline: parse → queue → execute, each span
/// stamped with the request id, the solver stages nested inside the
/// execute span, and queue + execute fitting inside the serve wall
/// clock.
#[test]
fn served_request_timeline_nests_serve_and_solver_stages() {
    let _guard = obs_lock();
    let mut fleet = ShardedFleet::new();
    fleet
        .add_shard("g", generators::uniform_edges(12, 12, 70, 23))
        .unwrap();
    let server = StreamServer::new(
        fleet,
        StreamConfig {
            workers: 1,
            ..StreamConfig::default()
        },
    );

    let input = [
        encode_request(&QueryRequest::new(41, QueryKind::Solve).on_graph("g")),
        encode_request(&QueryRequest::new(42, QueryKind::Solve).on_graph("g")),
    ]
    .join("\n")
        + "\n";
    let (stats, records) = capture(|| server.serve_with(input.as_bytes(), |_e| {}));
    assert_eq!(stats.completed, 2);

    for id in [41u64, 42] {
        let of_request: Vec<&obs::SpanRecord> =
            records.iter().filter(|r| r.request == id).collect();
        for stage in ["serve.queue", "serve.execute"] {
            assert!(
                of_request.iter().any(|r| label(r) == stage),
                "request {id}: stage {stage} missing from {:?}",
                of_request.iter().map(|r| label(r)).collect::<Vec<_>>()
            );
        }
        // Solver stages run inside (and are stamped with) the request.
        let execute = of_request
            .iter()
            .find(|r| label(r) == "serve.execute")
            .copied()
            .unwrap();
        let heuristic = of_request
            .iter()
            .find(|r| label(r) == "solve.heuristic")
            .unwrap_or_else(|| panic!("request {id}: no solver span inherited the request id"));
        assert!(
            execute.start_nanos <= heuristic.start_nanos
                && heuristic.end_nanos() <= execute.end_nanos(),
            "request {id}: solver span escapes the execute span"
        );
        // The queue span ends where execution begins (same instant is
        // reused — the zero-extra-clock-read contract).
        let queue = of_request
            .iter()
            .find(|r| label(r) == "serve.queue")
            .copied()
            .unwrap();
        assert_eq!(
            queue.end_nanos(),
            execute.start_nanos,
            "request {id}: queue must hand off to execute at one shared instant"
        );
    }

    // Parse spans were recorded for the input lines (request id is not
    // yet known while parsing, so they carry id 0).
    assert!(
        !spans_of(&records, "serve.parse").is_empty(),
        "no parse spans in {:?}",
        records.iter().map(label).collect::<Vec<_>>()
    );

    // Nothing was dropped in this small run.
    assert_eq!(obs::dropped_records(), 0);
}

/// The facade's zero-cost-when-off contract, observable end to end:
/// with the switch off (the default), running the same workload records
/// nothing.
#[test]
fn disabled_facade_records_nothing() {
    let _guard = obs_lock();
    obs::disable();
    obs::drain(|_| {});
    let engine = MbbEngine::new(generators::uniform_edges(10, 10, 40, 5));
    let _ = engine.solve();
    let mut count = 0u64;
    obs::drain(|_| count += 1);
    assert_eq!(count, 0, "spans recorded while disabled");
}
