//! `dense`: `dense_uniform` squares from the Table 4 regime (48×48 at
//! 70/75/80 %, 64×64 at 65/70 %), two instances per cell. The one-shot
//! answer is `dense_mbb_graph`, the paper's dense entry point; cold and
//! warm answers go through `MbbEngine` and must agree with it.

use std::time::Instant;

use mbb_bigraph::generators::dense_uniform;
use mbb_bigraph::graph::BipartiteGraph;
use mbb_core::{dense_mbb_graph, MbbEngine, SolveResult};

use crate::common::{
    capacity, check_biclique, decode, encode, median_setup, ratio, reconcile, rounds, shuffled,
    timed, Best, Checks, Metrics, Opts, Outcome, Trace, CORPUS_SEED,
};
use crate::kernels;

/// `(side, density)` cells; every cell gets [`INSTANCES`] graphs.
const CELLS: [(u32, f64); 5] = [(48, 0.70), (48, 0.75), (48, 0.80), (64, 0.65), (64, 0.70)];
const INSTANCES: usize = 2;
/// Set-up repeats: at least this many, and at least [`SETUP_MIN_S`].
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.5;
/// Closed-loop passes over the instances per round.
const LOOP_CYCLES: usize = 2;
const LOOP_THREADS: usize = 2;
/// Nominal length of one round on the 2-core reference box.
const ROUND_S: f64 = 15.0;

/// Generates the instances of the fixed corpus and encodes each, in an
/// order drawn from `seed`.
fn setup(seed: u64) -> Vec<Vec<u8>> {
    shuffled(CELLS.len() * INSTANCES, seed)
        .into_iter()
        .map(|i| {
            let (side, density) = CELLS[i / INSTANCES];
            let instance_seed = CORPUS_SEED * 1000 + i as u64;
            encode(
                &dense_uniform(side, side, density, instance_seed),
                instance_seed,
            )
        })
        .collect()
}

/// Optima and serial node counts: the first answers fix them, and every
/// later answer must match.
struct Expected {
    optimum: Vec<Option<usize>>,
    nodes: Vec<Option<u64>>,
}

/// Program-side numbers of one round, for the traced run.
#[derive(Default)]
struct RoundStats {
    wall_s: f64,
    preprocess_s: f64,
    /// The engine's own account of its cold and warm answers:
    /// `IndexStats.preprocess_seconds` plus `SolveStats.stage_seconds`.
    engine_s: f64,
    nodes: u64,
    bound_prunes: u64,
    poly_solves: u64,
}

/// One round over the instances: a cold answer (decode + fresh engine +
/// solve), a warm answer on that engine, and one `dense_mbb_graph`
/// answer each, every one timed and checked. Leaves this round's engines
/// in `engines`.
fn round(
    inputs: &[Vec<u8>],
    engines: &mut Vec<MbbEngine>,
    expected: &mut Expected,
    best: &mut Best,
    checks: &mut Checks,
    trace: &mut Trace,
) -> RoundStats {
    let start = Instant::now();
    let mut stats = RoundStats::default();
    engines.clear();
    for (i, bytes) in inputs.iter().enumerate() {
        let (spent, (engine, cold)) = timed(|| {
            let graph = trace.time("store", || decode(bytes));
            let engine = MbbEngine::new(graph);
            let cold = trace.time("core", || engine.solve());
            (engine, cold)
        });
        best.first[i] = best.first[i].min(spent);
        stats.preprocess_s += cold.stats.index.preprocess_seconds;
        stats.engine_s +=
            cold.stats.index.preprocess_seconds + cold.stats.stage_seconds.iter().sum::<f64>();
        let half = *expected.optimum[i].get_or_insert(cold.value.half_size());
        let g = engine.graph();
        let valid = check_biclique(checks, g, &cold.value, half, &format!("dense #{i} cold"));
        let complete = checks.check(cold.termination.is_complete(), || {
            format!("dense #{i}: cold answer incomplete")
        });
        checks.operation(valid && complete);

        let (spent, warm) = timed(|| trace.time("core", || engine.solve()));
        best.warm[i] = best.warm[i].min(spent);
        stats.engine_s += warm.stats.stage_seconds.iter().sum::<f64>();
        let ok = check_biclique(checks, g, &warm.value, half, &format!("dense #{i} warm"));
        checks.operation(ok);

        let (spent, fresh) = timed(|| trace.time("core.dense", || dense_mbb_graph(g)));
        best.oneshot[i] = best.oneshot[i].min(spent);
        check_dense(checks, expected, i, &fresh, g);
        let search = &fresh.stats.search;
        stats.nodes += search.nodes;
        stats.bound_prunes += search.bound_prunes;
        stats.poly_solves += search.poly_solves;
        engines.push(engine);
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats
}

/// A `dense_mbb_graph` answer must reach the engine's optimum, and its
/// serial search must repeat the first one node for node. Records one
/// operation.
fn check_dense(
    checks: &mut Checks,
    expected: &mut Expected,
    i: usize,
    r: &SolveResult,
    g: &BipartiteGraph,
) {
    let half = expected.optimum[i].expect("set by the cold answer");
    let valid = check_biclique(
        checks,
        g,
        &r.biclique,
        half,
        &format!("dense #{i} denseMBB"),
    );
    let nodes = r.stats.search.nodes;
    let first = *expected.nodes[i].get_or_insert(nodes);
    let repeats = checks.check(nodes == first, || {
        format!("dense #{i}: {nodes} search nodes, first run {first}")
    });
    checks.operation(valid && repeats);
}

pub fn run(opts: &Opts) -> Outcome {
    let (inputs, setup_s) = median_setup(SETUP_REPS, SETUP_MIN_S, || setup(opts.seed));
    let mut checks = Checks::default();
    let mut metrics = Metrics::new();
    let mut engines = Vec::new();
    let mut expected = Expected {
        optimum: vec![None; inputs.len()],
        nodes: vec![None; inputs.len()],
    };
    let mut best = Best::new(inputs.len());

    if opts.trace {
        let mut off = Trace::new(false);
        let untraced = round(
            &inputs,
            &mut engines,
            &mut expected,
            &mut best,
            &mut checks,
            &mut off,
        );
        let mut trace = Trace::new(true);
        let stats = round(
            &inputs,
            &mut engines,
            &mut expected,
            &mut best,
            &mut checks,
            &mut trace,
        );
        let m = &mut metrics;
        let dense_s = trace.layers["core.dense"];
        m.insert("obs.overhead_frac", stats.wall_s / untraced.wall_s - 1.0);
        m.insert(
            "obs.unattributed_frac",
            1.0 - trace.covered() / stats.wall_s,
        );
        let pair = (
            "timed engine solves vs preprocess_seconds + Σ stage_seconds",
            trace.layers["core"],
            stats.engine_s,
        );
        m.insert("obs.reconcile_max_frac", reconcile(&[pair]));
        m.insert("store.decode_s", trace.layers["store"]);
        let bytes: usize = inputs.iter().map(Vec::len).sum();
        m.insert("store.bytes", bytes as f64);
        m.insert("core.preprocess_s", stats.preprocess_s);
        m.insert("core.dense.nodes", stats.nodes as f64);
        m.insert(
            "core.dense.ns_per_node",
            dense_s * 1e9 / stats.nodes.max(1) as f64,
        );
        m.insert(
            "core.dense.prune_frac",
            ratio(stats.bound_prunes, stats.nodes),
        );
        m.insert("core.dense.poly_solves", stats.poly_solves as f64);
        kernels::measure(m, &mut checks);
        return Outcome { checks, metrics };
    }

    let n = rounds(opts.seconds, ROUND_S, || {
        let mut off = Trace::new(false);
        round(
            &inputs,
            &mut engines,
            &mut expected,
            &mut best,
            &mut checks,
            &mut off,
        );
        let rate = capacity(
            engines.len(),
            LOOP_THREADS,
            LOOP_CYCLES * engines.len(),
            |i| dense_mbb_graph(engines[i].graph()),
            |i, r| check_dense(&mut checks, &mut expected, i, &r, engines[i].graph()),
        );
        best.capacity = best.capacity.max(rate);
    });
    println!("dense: {n} rounds; closed loop at {LOOP_THREADS} outstanding");
    metrics.insert("setup_s", setup_s);
    best.insert(&mut metrics);
    metrics.insert("answered_frac", checks.answered_frac());
    Outcome { checks, metrics }
}
