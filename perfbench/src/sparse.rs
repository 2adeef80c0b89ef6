//! `sparse`: ten Table 5 stand-ins at `--caps small`, answered cold
//! (decode + fresh `MbbEngine` + first solve), warm (repeat solves on the
//! same engine) and one-shot (`MbbSolver::solve`).
//!
//! The traced run replays `MbbSolver`'s pipeline stage by stage
//! (`hmbb` → residual order/bicore → bridge → verify) with a timer
//! around each call, and must reach the same optimum.

use std::time::Instant;

use mbb_bigraph::bicore::bicore_decomposition;
use mbb_bigraph::graph::BipartiteGraph;
use mbb_bigraph::order::compute_order;
use mbb_core::bridge::{bridge_mbb_budgeted, BridgeConfig};
use mbb_core::dense::DenseConfig;
use mbb_core::heuristic::{hmbb, map_to_parent};
use mbb_core::verify::{verify_mbb_budgeted, VerifyConfig};
use mbb_core::{Biclique, MbbEngine, MbbSolver, SearchBudget, SolverConfig};
use mbb_datasets::{catalog, synth};

use crate::common::{
    capacity, check_biclique, decode, encode, median_setup, ratio, reconcile, rounds, shuffled,
    timed, Best, Checks, Metrics, Opts, Outcome, Trace, CORPUS_SEED,
};
use crate::kernels;

/// The stand-ins whose solves do measurable work; the other twenty exit
/// stage 1 within a few milliseconds.
const GRAPHS: [&str; 10] = [
    "jester",
    "discogs-lgenre",
    "gottron-trec",
    "pics-ut",
    "flickr-groupmemberships",
    "reuters",
    "edit-dewiki",
    "discogs-affiliation",
    "discogs-style",
    "github",
];

/// Set-up repeats: at least this many, and at least [`SETUP_MIN_S`].
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.5;
/// Warm answers per graph per round.
const WARM_PER_ROUND: usize = 2;
/// Closed-loop passes over the graphs per round.
const LOOP_CYCLES: usize = 3;
/// Outstanding answers in the closed loop (one per core of the 2-core
/// reference box).
const LOOP_THREADS: usize = 2;
/// Nominal length of one round on the 2-core reference box.
const ROUND_S: f64 = 22.0;

/// One input graph, encoded to `.mbbg` bytes.
pub struct Input {
    pub name: &'static str,
    pub bytes: Vec<u8>,
}

/// Generates the named stand-ins of the fixed corpus and encodes each,
/// in the given order of `names` indices.
pub fn setup(names: &[&'static str], order: &[usize]) -> Vec<Input> {
    order
        .iter()
        .map(|&i| {
            let spec = catalog::find(names[i]).expect("stand-in is in the catalog");
            let graph = synth::stand_in(spec, synth::ScaleCaps::small(), CORPUS_SEED).graph;
            Input {
                name: names[i],
                bytes: encode(&graph, CORPUS_SEED),
            }
        })
        .collect()
}

/// Engine sessions and optima, carried from round to round: the first
/// cold answer fixes each graph's optimum, and every later answer on any
/// path must match it.
struct Session {
    engines: Vec<MbbEngine>,
    optimum: Vec<Option<usize>>,
}

/// Program-side numbers of one round, for the traced run.
#[derive(Default)]
struct RoundStats {
    wall_s: f64,
    /// `IndexStats.preprocess_seconds` summed over the cold answers.
    preprocess_s: f64,
    /// `SolveStats.stage_seconds` summed over the one-shot answers.
    stage_s: [f64; 3],
}

/// One round over the graphs: a cold answer (decode + fresh engine +
/// solve), [`WARM_PER_ROUND`] warm answers on that engine and one
/// one-shot answer each, every one timed and checked.
fn round(
    inputs: &[Input],
    session: &mut Session,
    best: &mut Best,
    checks: &mut Checks,
    trace: &mut Trace,
) -> RoundStats {
    let start = Instant::now();
    let mut stats = RoundStats::default();
    session.engines.clear();
    for (i, Input { name, bytes }) in inputs.iter().enumerate() {
        let (spent, (engine, cold)) = timed(|| {
            let graph = trace.time("store", || decode(bytes));
            let engine = MbbEngine::new(graph);
            let cold = trace.time("core", || engine.solve());
            (engine, cold)
        });
        best.first[i] = best.first[i].min(spent);
        stats.preprocess_s += cold.stats.index.preprocess_seconds;
        let half = *session.optimum[i].get_or_insert(cold.value.half_size());
        let g = engine.graph();
        let valid = check_biclique(checks, g, &cold.value, half, &format!("{name} cold"));
        let complete = checks.check(cold.termination.is_complete(), || {
            format!("{name}: cold answer incomplete")
        });
        checks.operation(valid && complete);

        for _ in 0..WARM_PER_ROUND {
            let (spent, warm) = timed(|| trace.time("core", || engine.solve()));
            best.warm[i] = best.warm[i].min(spent);
            let ok = check_biclique(checks, g, &warm.value, half, &format!("{name} warm"));
            checks.operation(ok);
        }

        let (spent, fresh) = timed(|| trace.time("core", || MbbSolver::new().solve(g)));
        best.oneshot[i] = best.oneshot[i].min(spent);
        for (sum, s) in stats.stage_s.iter_mut().zip(fresh.stats.stage_seconds) {
            *sum += s;
        }
        let ok = check_biclique(
            checks,
            g,
            &fresh.biclique,
            half,
            &format!("{name} one-shot"),
        );
        checks.operation(ok);
        session.engines.push(engine);
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats
}

pub fn run(opts: &Opts) -> Outcome {
    let order = shuffled(GRAPHS.len(), opts.seed);
    let (inputs, setup_s) = median_setup(SETUP_REPS, SETUP_MIN_S, || setup(&GRAPHS, &order));
    let mut checks = Checks::default();
    let mut metrics = Metrics::new();
    let mut session = Session {
        engines: Vec::new(),
        optimum: vec![None; inputs.len()],
    };
    let mut best = Best::new(inputs.len());
    if opts.trace {
        traced(&inputs, &mut session, &mut best, &mut checks, &mut metrics);
        return Outcome { checks, metrics };
    }
    let n = rounds(opts.seconds, ROUND_S, || {
        round(
            &inputs,
            &mut session,
            &mut best,
            &mut checks,
            &mut Trace::new(false),
        );
        let Session { engines, optimum } = &session;
        let rate = capacity(
            engines.len(),
            LOOP_THREADS,
            LOOP_CYCLES * engines.len(),
            |i| engines[i].solve().value,
            |i, b| {
                let half = optimum[i].expect("set by the cold answer");
                let what = format!("{} loop", inputs[i].name);
                let ok = check_biclique(&mut checks, engines[i].graph(), &b, half, &what);
                checks.operation(ok);
            },
        );
        best.capacity = best.capacity.max(rate);
    });
    println!("sparse: {n} rounds; closed loop at {LOOP_THREADS} outstanding");
    metrics.insert("setup_s", setup_s);
    best.insert(&mut metrics);
    metrics.insert("answered_frac", checks.answered_frac());
    Outcome { checks, metrics }
}

/// The traced run: one round with the timers off and one with them on
/// (for `obs.*`), then the benchmark-timed session peel and the
/// stage-by-stage replay of the one-shot pipeline.
fn traced(
    inputs: &[Input],
    session: &mut Session,
    best: &mut Best,
    checks: &mut Checks,
    m: &mut Metrics,
) {
    let untraced = round(inputs, session, best, checks, &mut Trace::new(false));
    let mut trace = Trace::new(true);
    let stats = round(inputs, session, best, checks, &mut trace);
    m.insert("obs.overhead_frac", stats.wall_s / untraced.wall_s - 1.0);
    m.insert(
        "obs.unattributed_frac",
        1.0 - trace.covered() / stats.wall_s,
    );
    m.insert("store.decode_s", trace.layers["store"]);
    let bytes: usize = inputs.iter().map(|i| i.bytes.len()).sum();
    m.insert("store.bytes", bytes as f64);
    m.insert("core.preprocess_s", stats.preprocess_s);

    let mut layers = Trace::new(true);
    for engine in &session.engines {
        layers.time("bigraph.bicore_s", || bicore_decomposition(engine.graph()));
    }
    let mut replay = Replay::default();
    for (i, engine) in session.engines.iter().enumerate() {
        let found = replay.solve(engine.graph(), &mut layers);
        let half = session.optimum[i].expect("set by the cold answer");
        let what = format!("{} staged replay", inputs[i].name);
        let ok = check_biclique(checks, engine.graph(), &found, half, &what);
        checks.operation(ok);
    }
    for (&name, &value) in &layers.layers {
        m.insert(name, value);
    }
    let l = |name: &str| layers.layers.get(name).copied().unwrap_or(0.0);
    m.insert(
        "core.heuristic.proven_optimal",
        replay.proven_optimal as f64,
    );
    m.insert("core.bridge.generated", replay.generated as f64);
    m.insert("core.bridge.survivors", replay.survivors as f64);
    m.insert(
        "core.bridge.survive_frac",
        ratio(replay.survivors, replay.generated),
    );
    m.insert("core.verify.nodes", replay.nodes as f64);
    m.insert("core.verify.bound_prunes", replay.bound_prunes as f64);
    m.insert(
        "core.verify.prune_frac",
        ratio(replay.bound_prunes, replay.nodes),
    );
    m.insert("core.verify.poly_solves", replay.poly_solves as f64);

    // Reconciliation: benchmark timers against the program's own.
    let stage2 = l("bigraph.order_s") + l("bigraph.bicore_residual_s") + l("core.bridge_s");
    let pairs = [
        (
            "session bicore vs IndexStats.preprocess_seconds",
            l("bigraph.bicore_s"),
            stats.preprocess_s,
        ),
        (
            "replayed stage 1 vs stage_seconds[0]",
            l("core.heuristic_s"),
            stats.stage_s[0],
        ),
        (
            "replayed stage 2 vs stage_seconds[1]",
            stage2,
            stats.stage_s[1],
        ),
        (
            "replayed stage 3 vs stage_seconds[2]",
            l("core.verify_s"),
            stats.stage_s[2],
        ),
    ];
    m.insert("obs.reconcile_max_frac", reconcile(&pairs));
    kernels::measure(m, checks);
}

/// Counters gathered by the stage-by-stage replay.
#[derive(Default)]
struct Replay {
    proven_optimal: u64,
    generated: u64,
    survivors: u64,
    nodes: u64,
    bound_prunes: u64,
    poly_solves: u64,
}

impl Replay {
    /// `MbbSolver::solve` with the default configuration, one public call
    /// per stage, each under its own layer timer.
    fn solve(&mut self, graph: &BipartiteGraph, t: &mut Trace) -> Biclique {
        let config = SolverConfig::default();
        let budget = SearchBudget::unlimited();
        let outcome = t.time("core.heuristic_s", || {
            hmbb(graph, config.heuristic_seeds, true)
        });
        let mut best = outcome.best;
        let reduced = outcome.reduced;
        if outcome.proven_optimal {
            self.proven_optimal += 1;
            return best;
        }
        if reduced.graph.num_left() == 0 || reduced.graph.num_right() == 0 {
            return best;
        }
        let order = t.time("bigraph.order_s", || {
            compute_order(&reduced.graph, config.order)
        });
        t.time("bigraph.bicore_residual_s", || {
            bicore_decomposition(&reduced.graph)
        });
        let placeholder = |half: usize| Biclique {
            left: vec![u32::MAX; half],
            right: vec![u32::MAX; half],
        };
        let bridged = t.time("core.bridge_s", || {
            bridge_mbb_budgeted(
                &reduced.graph,
                &order,
                placeholder(best.half_size()),
                BridgeConfig {
                    use_core_pruning: true,
                    heuristic_seeds: config.heuristic_seeds.min(4),
                    threads: config.threads,
                },
                &budget,
            )
        });
        if bridged.best.half_size() > best.half_size() {
            best = map_to_parent(&bridged.best, &reduced);
        }
        self.generated += bridged.stats.generated as u64;
        self.survivors += bridged.survivors.len() as u64;
        if bridged.survivors.is_empty() {
            return best;
        }
        let (verified, search) = t.time("core.verify_s", || {
            verify_mbb_budgeted(
                &reduced.graph,
                &bridged.survivors,
                placeholder(best.half_size()),
                VerifyConfig {
                    use_core_reduction: true,
                    dense: DenseConfig::default(),
                    threads: config.threads,
                    mode: config.parallel_mode,
                },
                &budget,
            )
        });
        self.nodes += search.nodes;
        self.bound_prunes += search.bound_prunes;
        self.poly_solves += search.poly_solves;
        if verified.half_size() > best.half_size() {
            best = map_to_parent(&verified, &reduced);
        }
        best
    }
}
