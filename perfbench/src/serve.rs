//! `serve`: a `StreamServer` with two workers over five warm stand-in
//! shards, fed by one paced in-memory `BufRead`. Each round answers warm
//! and one-shot solves through the engine API, then runs a closed loop
//! with two requests outstanding through the server. The traced run adds
//! an open loop at rate [`RATE_LOW`] and one at [`RATE_HIGH`], timed from
//! each request's due time. Requests mix 30 % `solve`, 60 % `anchored`
//! and 10 % `size_constrained`, all with a 2000 ms deadline.

use std::io::{BufRead, Read};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use mbb_bigraph::graph::{BipartiteGraph, Side, Vertex};
use mbb_bigraph::two_hop::TwoHopIndex;
use mbb_core::{MbbEngine, MbbSolver, Termination};
use mbb_serve::jsonl::{encode_request, encode_stream_event, parse_stream_line};
use mbb_serve::{
    QueryKind, QueryOutcome, QueryRequest, ShardedFleet, StreamConfig, StreamEvent, StreamServer,
};

use crate::common::{
    check_biclique, decode, median_setup, p50_p90, reconcile, rounds, shuffled, timed, Best,
    Checks, Metrics, Opts, Outcome, Rng, Trace, CORPUS_SEED,
};
use crate::kernels;
use crate::sparse;

const SHARDS: [&str; 5] = [
    "flickr-groupmemberships",
    "reuters",
    "edit-dewiki",
    "discogs-affiliation",
    "pics-ut",
];
/// Worker threads; with the single generator thread each count stays
/// within the two cores of the reference box.
const WORKERS: usize = 2;
const SETUP_REPS: usize = 5;
/// Warm answers per shard per round.
const WARM_PER_ROUND: usize = 2;
const DEADLINE: Duration = Duration::from_millis(2000);
/// Open-loop rates in requests per second, and phase lengths in seconds
/// (traced run only): 225 and 900 requests, enough for a p90 with ten
/// samples beyond it. On the 2-core reference box the closed loop
/// completes 80-90 req/s; the server is lightly loaded at 15 req/s, and a
/// queue builds at 60 req/s without shedding (see `README.md`).
const RATE_LOW: f64 = 15.0;
const RATE_HIGH: f64 = 60.0;
const LOW_SECONDS: f64 = 15.0;
const HIGH_SECONDS: f64 = 15.0;
/// Closed-loop requests per round, per second of `--seconds`.
const CLOSED_PER_S: f64 = 10.0;
const OUTSTANDING: usize = 2;
/// Nominal length of one round on the 2-core reference box.
const ROUND_S: f64 = 5.0;
/// The request mix: three `solve`, six `anchored` and one
/// `size_constrained` per ten requests.
const MIX: [u8; 10] = [0, 0, 0, 1, 1, 1, 1, 1, 1, 2];
/// Anchors come from this share of each shard's vertices, lowest degree
/// first. The hubs above it run past the deadline (some past 120 s), so
/// whether they fail would depend on the machine's speed that minute.
const ANCHOR_SHARE: f64 = 0.75;

/// Warm shard sessions plus what the benchmark knows about them.
struct Fleet {
    server: StreamServer,
    graphs: Vec<std::sync::Arc<BipartiteGraph>>,
    optimum: Vec<usize>,
    /// Per shard: decode + engine build + cold solve.
    first_answer_s: Vec<f64>,
}

/// Generates and encodes the shards, then boots and warms each session:
/// a cold solve (timed as the shard's first answer), and two anchored
/// queries, the second of which builds the two-hop index.
fn setup(checks: &mut Checks) -> Fleet {
    let order: Vec<usize> = (0..SHARDS.len()).collect();
    let inputs = sparse::setup(&SHARDS, &order);
    let mut fleet = ShardedFleet::new();
    let (mut graphs, mut optimum, mut first_answer_s) = (Vec::new(), Vec::new(), Vec::new());
    for sparse::Input { name, bytes } in &inputs {
        let (spent, (engine, cold)) = timed(|| {
            let engine = MbbEngine::new(decode(bytes));
            let cold = engine.solve();
            (engine, cold)
        });
        first_answer_s.push(spent);
        let ok = checks.check(
            cold.value.is_valid(engine.graph()) && cold.termination.is_complete(),
            || format!("{name}: cold shard answer invalid or incomplete"),
        );
        checks.operation(ok);
        for &u in cold.value.left.iter().take(2) {
            engine.query().deadline(DEADLINE).anchored(Vertex::left(u));
        }
        optimum.push(cold.value.half_size());
        graphs.push(engine.graph_arc());
        fleet
            .add_engine(*name, engine)
            .expect("shard names are distinct");
    }
    let config = StreamConfig {
        workers: WORKERS,
        ..StreamConfig::default()
    };
    Fleet {
        server: StreamServer::new(fleet, config),
        graphs,
        optimum,
        first_answer_s,
    }
}

/// One generated request and what its answer is checked against.
struct Planned {
    shard: usize,
    kind: QueryKind,
    /// Offset of the due time from the phase start (open loop only).
    due: Duration,
}

/// Request generator. Every run sees the same request multiset, made
/// from the corpus seed: kinds and shards are dealt from shuffled decks,
/// and anchors walk the lower [`ANCHOR_SHARE`] of each shard's vertices
/// in degree order with a Weyl sequence, so low- and mid-degree anchors
/// appear in fixed proportion. `--seed`
/// orders the requests of each phase.
struct Planner<'f> {
    fleet: &'f Fleet,
    rng: Rng,
    order_seed: u64,
    by_degree: Vec<Vec<Vertex>>,
    walk: Vec<f64>,
    kinds: Vec<usize>,
    shards: Vec<usize>,
}

impl<'f> Planner<'f> {
    fn new(fleet: &'f Fleet, seed: u64) -> Planner<'f> {
        let mut rng = Rng::new(CORPUS_SEED);
        let by_degree: Vec<Vec<Vertex>> = fleet
            .graphs
            .iter()
            .map(|g| {
                let mut vs: Vec<Vertex> = (0..g.num_left() as u32)
                    .map(Vertex::left)
                    .chain((0..g.num_right() as u32).map(Vertex::right))
                    .filter(|&v| g.degree(v) > 0)
                    .collect();
                vs.sort_by_key(|&v| (g.degree(v), v.side == Side::Right, v.index));
                vs.truncate(((vs.len() as f64 * ANCHOR_SHARE) as usize).max(1));
                vs
            })
            .collect();
        let walk = by_degree.iter().map(|_| rng.unit()).collect();
        Planner {
            fleet,
            rng,
            order_seed: seed,
            by_degree,
            walk,
            kinds: Vec::new(),
            shards: Vec::new(),
        }
    }

    /// `count` requests, due at rate `rate` (open loop) or all at once.
    fn plan(&mut self, count: usize, rate: Option<f64>) -> Vec<Planned> {
        let requests: Vec<(usize, QueryKind)> = (0..count)
            .map(|_| {
                if self.kinds.is_empty() {
                    self.kinds = shuffled(MIX.len(), self.rng.next_u64());
                }
                if self.shards.is_empty() {
                    self.shards = shuffled(SHARDS.len(), self.rng.next_u64());
                }
                let shard = self.shards.pop().expect("refilled above");
                let kind = match MIX[self.kinds.pop().expect("refilled above")] {
                    0 => QueryKind::Solve,
                    1 => {
                        let walk = &mut self.walk[shard];
                        *walk = (*walk + 0.618_033_988_749_895).fract();
                        let vs = &self.by_degree[shard];
                        QueryKind::Anchored {
                            vertex: vs[(*walk * vs.len() as f64) as usize],
                        }
                    }
                    _ => {
                        // Sides up to a quarter of the optimum: a witness
                        // exists, and the search finds one well within the
                        // deadline (at half, some searches ran past 120 s).
                        let cap = (self.fleet.optimum[shard] as u64 / 4).max(1);
                        QueryKind::SizeConstrained {
                            a: 1 + self.rng.below(cap) as usize,
                            b: 1 + self.rng.below(cap) as usize,
                        }
                    }
                };
                (shard, kind)
            })
            .collect();
        self.order_seed = self.order_seed.wrapping_add(1);
        shuffled(count, self.order_seed)
            .into_iter()
            .enumerate()
            .map(|(k, i)| {
                let (shard, kind) = requests[i].clone();
                let due = rate.map_or(Duration::ZERO, |r| Duration::from_secs_f64(k as f64 / r));
                Planned { shard, kind, due }
            })
            .collect()
    }
}

/// Shared between the paced reader and the response sink.
#[derive(Default)]
struct Flow {
    outstanding: usize,
    /// When each request line was released, by request id.
    released: Vec<Option<Instant>>,
    /// `(request id or None, receive time, event)`.
    events: Vec<(Option<u64>, Instant, StreamEvent)>,
    encode_s: f64,
    encoded: u64,
}

/// The paced in-memory input: each request line is handed to the server
/// no earlier than its due time (open loop), or once fewer than
/// [`OUTSTANDING`] requests are in flight (closed loop). After the
/// requests come `drain` and `metrics` control lines.
struct Paced<'a> {
    lines: Vec<String>,
    planned: &'a [Planned],
    closed: bool,
    flow: &'a (Mutex<Flow>, Condvar),
    start: Option<Instant>,
    next: usize,
    buf: Vec<u8>,
    pos: usize,
    max_lag: f64,
}

impl Paced<'_> {
    fn release(&mut self) {
        let start = *self.start.get_or_insert_with(Instant::now);
        let i = self.next;
        if i < self.planned.len() {
            let (lock, cvar) = self.flow;
            if self.closed {
                let mut flow = lock.lock().expect("flow lock");
                while flow.outstanding >= OUTSTANDING {
                    flow = cvar.wait(flow).expect("flow lock");
                }
                flow.outstanding += 1;
                flow.released[i] = Some(Instant::now());
            } else {
                let due = start + self.planned[i].due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let now = Instant::now();
                self.max_lag = self
                    .max_lag
                    .max(now.saturating_duration_since(due).as_secs_f64());
                lock.lock().expect("flow lock").released[i] = Some(due);
            }
        }
        self.buf.clear();
        self.buf.extend_from_slice(self.lines[i].as_bytes());
        self.buf.push(b'\n');
        self.pos = 0;
        self.next += 1;
    }
}

impl Read for Paced<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = {
            let avail = self.fill_buf()?;
            let n = avail.len().min(out.len());
            out[..n].copy_from_slice(&avail[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Paced<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.buf.len() && self.next < self.lines.len() {
            self.release();
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    latencies: Vec<f64>,
    anchored_ms: Vec<f64>,
    deadline_exceeded: u64,
    /// Closed loop: completions per second, by Little's law.
    rate: f64,
    max_lag_s: f64,
    queue_wait_ms: (f64, f64),
    service_ms: (f64, f64),
    shed: u64,
    max_queue_depth: u64,
    /// `(Σ response service, Σ metrics service histogram)` in seconds.
    service_sums: (f64, f64),
    encode_s: f64,
    encoded: u64,
}

fn run_phase(
    fleet: &Fleet,
    planned: &[Planned],
    first_id: u64,
    closed: bool,
    trace: bool,
    checks: &mut Checks,
) -> Phase {
    let mut lines: Vec<String> = planned
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let request = QueryRequest::new(first_id + i as u64, p.kind.clone())
                .on_graph(SHARDS[p.shard])
                .with_deadline(DEADLINE);
            encode_request(&request)
        })
        .collect();
    lines.push(r#"{"control":"drain"}"#.to_string());
    lines.push(r#"{"control":"metrics"}"#.to_string());
    let flow = (
        Mutex::new(Flow {
            released: vec![None; planned.len()],
            ..Flow::default()
        }),
        Condvar::new(),
    );
    let mut input = Paced {
        lines,
        planned,
        closed,
        flow: &flow,
        start: None,
        next: 0,
        buf: Vec::new(),
        pos: 0,
        max_lag: 0.0,
    };
    fleet.server.serve_with(&mut input, |event| {
        let received = Instant::now();
        let timed = trace && matches!(event, StreamEvent::Response(_));
        let line = if timed {
            let t = Instant::now();
            let line = encode_stream_event(&event);
            let spent = t.elapsed().as_secs_f64();
            let mut flow = flow.0.lock().expect("flow lock");
            flow.encode_s += spent;
            flow.encoded += 1;
            line
        } else {
            encode_stream_event(&event)
        };
        std::hint::black_box(line);
        let id = match &event {
            StreamEvent::Response(r) => Some(r.id),
            StreamEvent::Shed { id, .. } => Some(*id),
            _ => None,
        };
        let mut guard = flow.0.lock().expect("flow lock");
        if id.is_some() {
            guard.outstanding = guard.outstanding.saturating_sub(1);
            flow.1.notify_one();
        }
        guard.events.push((id, received, event));
    });
    let max_lag_s = input.max_lag;
    let flow = flow.0.into_inner().expect("flow lock");

    let mut phase = Phase {
        max_lag_s,
        encode_s: flow.encode_s,
        encoded: flow.encoded,
        ..Phase::default()
    };
    // Per request: whether any answer came, and whether it was correct
    // and complete. A shed request leaves `ok` false.
    let mut answered = vec![false; planned.len()];
    let mut ok = vec![false; planned.len()];
    for (id, received, event) in &flow.events {
        if let Some(id) = id {
            let i = (id - first_id) as usize;
            answered[i] = true;
            let released = flow.released[i].expect("answered requests were released");
            phase
                .latencies
                .push(received.saturating_duration_since(released).as_secs_f64());
        }
        match event {
            StreamEvent::Response(r) => {
                let i = (r.id - first_id) as usize;
                phase.service_sums.0 += r.service.as_secs_f64();
                if let QueryOutcome::Anchored(_) = r.outcome {
                    phase.anchored_ms.push(r.service.as_secs_f64() * 1e3);
                    if r.termination == Termination::DeadlineExceeded {
                        phase.deadline_exceeded += 1;
                    }
                }
                ok[i] = check_response(fleet, &planned[i], &r.outcome, r.termination, r.id, checks);
            }
            StreamEvent::Shed { .. } => {}
            StreamEvent::Metrics(report) => {
                let ms = |ns: u64| ns as f64 / 1e6;
                phase.queue_wait_ms = (ms(report.queue_wait.p50()), ms(report.queue_wait.p90()));
                phase.service_ms = (ms(report.service.p50()), ms(report.service.p90()));
                phase.shed = report.stats.shed;
                phase.max_queue_depth = report.stats.max_queue_depth as u64;
                phase.service_sums.1 = report.service.sum as f64 / 1e9;
            }
            StreamEvent::Drained { .. } => {}
            other => {
                checks.check(false, || format!("unexpected serve event {other:?}"));
            }
        }
    }
    if closed {
        // Little's law for the closed loop: outstanding over mean latency.
        let mean = phase.latencies.iter().sum::<f64>() / phase.latencies.len().max(1) as f64;
        phase.rate = OUTSTANDING as f64 / mean;
    }
    for (i, (&done, &ok)) in answered.iter().zip(&ok).enumerate() {
        let done = checks.check(done, || {
            format!("request {} got no answer", first_id + i as u64)
        });
        checks.operation(done && ok);
    }
    phase
}

/// Checks one response against the shard graph and its known optimum;
/// returns whether it is correct and complete.
fn check_response(
    fleet: &Fleet,
    planned: &Planned,
    outcome: &QueryOutcome,
    termination: Termination,
    id: u64,
    checks: &mut Checks,
) -> bool {
    let g = &fleet.graphs[planned.shard];
    let half = fleet.optimum[planned.shard];
    let complete = termination.is_complete();
    match (&planned.kind, outcome) {
        (QueryKind::Solve, QueryOutcome::Solve(b)) if complete => {
            check_biclique(checks, g, b, half, &format!("request {id} solve"))
        }
        (QueryKind::Anchored { vertex }, QueryOutcome::Anchored(b)) => {
            let side = if vertex.side == Side::Left {
                &b.left
            } else {
                &b.right
            };
            let ok = b.is_valid(g) && b.half_size() <= half && side.contains(&vertex.index);
            let valid = checks.check(ok, || {
                format!("request {id} anchored at {vertex:?}: invalid answer")
            });
            valid && complete
        }
        (QueryKind::SizeConstrained { a, b }, QueryOutcome::SizeConstrained(found)) => {
            let valid = match found {
                Some(w) => checks.check(
                    w.left.len() >= *a && w.right.len() >= *b && g.is_biclique(&w.left, &w.right),
                    || format!("request {id} size_constrained ({a}, {b}): invalid witness"),
                ),
                // A witness exists (a, b ≤ the optimum), so only an
                // expired deadline may come back empty.
                None if complete => checks.check(false, || {
                    format!("request {id} size_constrained ({a}, {b}): no witness")
                }),
                None => true,
            };
            valid && complete
        }
        (QueryKind::Solve, QueryOutcome::Solve(_)) => false,
        _ => checks.check(false, || format!("request {id}: answer of the wrong kind")),
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut checks = Checks::default();
    let mut best = Best::new(SHARDS.len());
    let (fleet, setup_s) = median_setup(SETUP_REPS, 0.0, || {
        let fleet = setup(&mut checks);
        for (b, &s) in best.first.iter_mut().zip(&fleet.first_answer_s) {
            *b = b.min(s);
        }
        fleet
    });
    let mut metrics = Metrics::new();
    let m = &mut metrics;
    let engines: Vec<_> = (0..SHARDS.len())
        .map(|i| fleet.server.fleet().engine(i))
        .collect();
    let preprocess_before: f64 = engines
        .iter()
        .map(|e| e.index_stats().preprocess_seconds)
        .sum();
    let mut planner = Planner::new(&fleet, opts.seed);
    let closed_requests = (CLOSED_PER_S * opts.seconds).ceil() as usize;

    // One round: warm and one-shot answers of every shard through the
    // engine API, then a closed loop through the server.
    let mut trace = Trace::new(opts.trace);
    let mut round = |trace: &mut Trace, checks: &mut Checks, best: &mut Best| {
        let section = Instant::now();
        for (i, engine) in engines.iter().enumerate() {
            let name = SHARDS[i];
            let half = fleet.optimum[i];
            for _ in 0..WARM_PER_ROUND {
                let (spent, warm) = timed(|| trace.time("core", || engine.solve()));
                best.warm[i] = best.warm[i].min(spent);
                let ok = check_biclique(
                    checks,
                    engine.graph(),
                    &warm.value,
                    half,
                    &format!("{name} warm"),
                );
                checks.operation(ok);
            }
            let (spent, fresh) =
                timed(|| trace.time("core", || MbbSolver::new().solve(engine.graph())));
            best.oneshot[i] = best.oneshot[i].min(spent);
            let what = format!("{name} one-shot");
            let ok = check_biclique(checks, engine.graph(), &fresh.biclique, half, &what);
            checks.operation(ok);
        }
        let engine_s = section.elapsed().as_secs_f64();
        let plan = planner.plan(closed_requests, None);
        let closed = run_phase(&fleet, &plan, 0, true, trace.on(), checks);
        best.capacity = best.capacity.max(closed.rate);
        (closed, plan, engine_s)
    };

    if !opts.trace {
        let n = rounds(opts.seconds, ROUND_S, || {
            round(&mut trace, &mut checks, &mut best);
        });
        println!("serve: {n} rounds; closed loops of {closed_requests} requests, {OUTSTANDING} outstanding");
        m.insert("setup_s", setup_s);
        best.insert(m);
        m.insert("answered_frac", checks.answered_frac());
        return Outcome { checks, metrics };
    }
    let (closed, closed_plan, engine_s) = round(&mut trace, &mut checks, &mut best);
    let capacity = closed.rate;

    // Traced run: the same closed loop once more with the timers off
    // gives the tracing overhead.
    let untimed = run_phase(&fleet, &closed_plan, 1 << 20, true, false, &mut checks);
    let untimed_capacity = untimed.rate;
    m.insert("obs.overhead_frac", untimed_capacity / capacity - 1.0);
    // Only the engine-API section has per-call timers: the server's phases
    // run on worker threads, and are reconciled against the metrics
    // histogram below instead.
    m.insert("obs.unattributed_frac", 1.0 - trace.covered() / engine_s);

    // The open-loop phases, timed from each request's due time.
    let low_plan = planner.plan((RATE_LOW * LOW_SECONDS) as usize, Some(RATE_LOW));
    let high_plan = planner.plan((RATE_HIGH * HIGH_SECONDS) as usize, Some(RATE_HIGH));
    let low = run_phase(&fleet, &low_plan, 2 << 20, false, true, &mut checks);
    let high = run_phase(&fleet, &high_plan, 3 << 20, false, true, &mut checks);
    let mut low_lat = low.latencies.clone();
    let (p50_low, p90_low) = p50_p90(&mut low_lat);
    m.insert("serve.p50_ms.low", p50_low * 1e3);
    m.insert("serve.p90_ms.low", p90_low * 1e3);

    let mut high_lat = high.latencies.clone();
    let (p50_high, p90_high) = p50_p90(&mut high_lat);
    m.insert("serve.p50_ms.high", p50_high * 1e3);
    m.insert("serve.p90_ms.high", p90_high * 1e3);
    m.insert("serve.samples.low", low.latencies.len() as f64);
    m.insert("serve.samples.high", high.latencies.len() as f64);
    m.insert("serve.queue_wait_ms.p50", high.queue_wait_ms.0);
    m.insert("serve.queue_wait_ms.p90", high.queue_wait_ms.1);
    m.insert("serve.service_ms.p50", high.service_ms.0);
    m.insert("serve.service_ms.p90", high.service_ms.1);
    let phases = [&low, &high, &closed];
    m.insert(
        "serve.shed",
        phases.iter().map(|p| p.shed).sum::<u64>() as f64,
    );
    m.insert(
        "serve.max_queue_depth",
        phases.iter().map(|p| p.max_queue_depth).max().unwrap_or(0) as f64,
    );
    m.insert(
        "serve.gen_lag_ms.max",
        low.max_lag_s.max(high.max_lag_s) * 1e3,
    );
    let encoded: u64 = phases.iter().map(|p| p.encoded).sum();
    let encode_s: f64 = phases.iter().map(|p| p.encode_s).sum();
    m.insert("serve.encode_ns", encode_s * 1e9 / encoded.max(1) as f64);
    m.insert("serve.parse_ns", parse_ns(&[&low_plan, &high_plan]));

    let mut anchored: Vec<f64> = low
        .anchored_ms
        .iter()
        .chain(&high.anchored_ms)
        .copied()
        .collect();
    let (a50, a90) = p50_p90(&mut anchored);
    m.insert("core.anchored_ms.p50", a50);
    m.insert("core.anchored_ms.p90", a90);
    m.insert(
        "core.anchored.deadline_exceeded",
        (low.deadline_exceeded + high.deadline_exceeded) as f64,
    );
    let preprocess_after: f64 = engines
        .iter()
        .map(|e| e.index_stats().preprocess_seconds)
        .sum();
    m.insert("core.preprocess_s", preprocess_after - preprocess_before);

    let mut layers = Trace::new(true);
    for g in &fleet.graphs {
        layers.time("bigraph.two_hop_s", || TwoHopIndex::build(g));
    }
    m.insert("bigraph.two_hop_s", layers.layers["bigraph.two_hop_s"]);
    let (ours, theirs) = phases.iter().fold((0.0, 0.0), |(a, b), p| {
        (a + p.service_sums.0, b + p.service_sums.1)
    });
    m.insert(
        "obs.reconcile_max_frac",
        reconcile(&[(
            "Σ response service vs metrics service histogram sum",
            ours,
            theirs,
        )]),
    );
    kernels::measure(m, &mut checks);
    Outcome { checks, metrics }
}

/// Mean nanoseconds `jsonl::parse_stream_line` takes per request line.
fn parse_ns(plans: &[&[Planned]]) -> f64 {
    let lines: Vec<String> = plans
        .iter()
        .flat_map(|p| p.iter())
        .enumerate()
        .map(|(i, p)| {
            encode_request(
                &QueryRequest::new(i as u64, p.kind.clone())
                    .on_graph(SHARDS[p.shard])
                    .with_deadline(DEADLINE),
            )
        })
        .collect();
    let start = Instant::now();
    for (n, line) in lines.iter().enumerate() {
        std::hint::black_box(parse_stream_line(line, n + 1).is_ok());
    }
    start.elapsed().as_secs_f64() * 1e9 / lines.len().max(1) as f64
}
