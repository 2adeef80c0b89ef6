//! Shared pieces: options, answer checks, metric tables, the layer timer
//! and small statistics helpers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mbb_bigraph::graph::BipartiteGraph;
use mbb_core::Biclique;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// End-to-end metrics, printed by every untraced run in this order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("answered_frac", "frac"),
    ("first_answer_s", "s"),
    ("warm_answer_s", "s"),
    ("oneshot_s", "s"),
    ("capacity_rps", "1/s"),
];

/// Per-layer metrics, printed by every traced run. A workload that
/// bypasses a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("store.decode_s", "s"),
    ("store.bytes", "bytes"),
    ("bigraph.bicore_s", "s"),
    ("bigraph.bicore_residual_s", "s"),
    ("bigraph.order_s", "s"),
    ("bigraph.two_hop_s", "s"),
    ("bigraph.kernel.and_popcount.w1_ns", "ns"),
    ("bigraph.kernel.and_popcount.w2_ns", "ns"),
    ("bigraph.kernel.and_popcount.w8_ns", "ns"),
    ("bigraph.kernel.and_popcount.checksum", "count"),
    ("bigraph.kernel.andnot_popcount.w1_ns", "ns"),
    ("bigraph.kernel.andnot_popcount.w2_ns", "ns"),
    ("bigraph.kernel.andnot_popcount.w8_ns", "ns"),
    ("bigraph.kernel.andnot_popcount.checksum", "count"),
    ("bigraph.kernel.and_assign_count.w1_ns", "ns"),
    ("bigraph.kernel.and_assign_count.w2_ns", "ns"),
    ("bigraph.kernel.and_assign_count.w8_ns", "ns"),
    ("bigraph.kernel.and_assign_count.checksum", "count"),
    ("bigraph.kernel.first_and.w1_ns", "ns"),
    ("bigraph.kernel.first_and.w2_ns", "ns"),
    ("bigraph.kernel.first_and.w8_ns", "ns"),
    ("bigraph.kernel.first_and.checksum", "count"),
    ("bigraph.kernel.multi_and_popcount.w1_ns", "ns"),
    ("bigraph.kernel.multi_and_popcount.w2_ns", "ns"),
    ("bigraph.kernel.multi_and_popcount.w8_ns", "ns"),
    ("bigraph.kernel.multi_and_popcount.checksum", "count"),
    ("core.preprocess_s", "s"),
    ("core.heuristic_s", "s"),
    ("core.heuristic.proven_optimal", "count"),
    ("core.bridge_s", "s"),
    ("core.bridge.generated", "count"),
    ("core.bridge.survivors", "count"),
    ("core.bridge.survive_frac", "frac"),
    ("core.verify_s", "s"),
    ("core.verify.nodes", "count"),
    ("core.verify.bound_prunes", "count"),
    ("core.verify.prune_frac", "frac"),
    ("core.verify.poly_solves", "count"),
    ("core.dense.nodes", "count"),
    ("core.dense.ns_per_node", "ns"),
    ("core.dense.prune_frac", "frac"),
    ("core.dense.poly_solves", "count"),
    ("core.anchored_ms.p50", "ms"),
    ("core.anchored_ms.p90", "ms"),
    ("core.anchored.deadline_exceeded", "count"),
    ("serve.parse_ns", "ns"),
    ("serve.encode_ns", "ns"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p90", "ms"),
    ("serve.service_ms.p50", "ms"),
    ("serve.service_ms.p90", "ms"),
    ("serve.shed", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.gen_lag_ms.max", "ms"),
    ("serve.p50_ms.low", "ms"),
    ("serve.p90_ms.low", "ms"),
    ("serve.p50_ms.high", "ms"),
    ("serve.p90_ms.high", "ms"),
    ("serve.samples.low", "count"),
    ("serve.samples.high", "count"),
    ("obs.overhead_frac", "frac"),
    ("obs.unattributed_frac", "frac"),
    ("obs.reconcile_max_frac", "frac"),
];

/// The static name of a per-layer metric built at run time.
pub fn per_layer_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|&&(n, _)| n == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .0
}

/// Answer bookkeeping, per operation: one engine answer, one kernel
/// result or one `serve` request. An operation may make several checks;
/// it counts once in `attempted`, and once in `failed` when any of its
/// checks failed or it ended without a complete answer (deadline, shed).
/// `wrong` holds the checks that failed (the run exits non-zero).
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
}

impl Checks {
    /// Records one correctness check and returns whether it passed. It
    /// does not count an operation; pass its result to [`Checks::operation`].
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            let what = what();
            eprintln!("answer check failed: {what}");
            self.wrong.push(what);
        }
        ok
    }

    /// Records one operation: `ok` is false when any of its checks failed
    /// or it returned no complete answer.
    pub fn operation(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The share of operations answered correctly and completely.
    pub fn answered_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }
}

/// Checks that `b` is a balanced biclique of `g` of half-size `half`;
/// returns whether it is.
pub fn check_biclique(
    checks: &mut Checks,
    g: &BipartiteGraph,
    b: &Biclique,
    half: usize,
    what: &str,
) -> bool {
    checks.check(b.is_valid(g) && b.half_size() == half, || {
        format!(
            "{what}: half {} (valid: {}), expected {half}",
            b.half_size(),
            b.is_valid(g)
        )
    })
}

/// Named metric values, in insertion-independent order.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What a workload hands back to `main`.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Metrics,
}

impl Outcome {
    /// Prints the result line. Metrics the workload did not set are
    /// per-layer metrics of a bypassed layer and print as 0.
    pub fn print(&self, trace: bool) {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let value = if value.is_finite() { value } else { 0.0 };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        for name in self.metrics.keys() {
            assert!(
                table.iter().any(|&(n, _)| n == *name),
                "metric {name} is not in the {} table",
                if trace { "per-layer" } else { "end-to-end" }
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.wrong.is_empty(),
            self.checks.attempted.max(1),
            self.checks.failed,
            fields.join(", ")
        );
    }
}

/// Benchmark-side layer timer: when on, `time` wraps a timer around one
/// call into a layer and books it under `layer`; when off it is a plain
/// call, with no clock read.
pub struct Trace {
    on: bool,
    pub layers: Metrics,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            layers: Metrics::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        *self.layers.entry(layer).or_default() += start.elapsed().as_secs_f64();
        out
    }

    /// Seconds covered by every layer timer so far.
    pub fn covered(&self) -> f64 {
        self.layers.values().sum()
    }
}

/// Runs `f` at least `reps` times and until `min_s` seconds have been
/// spent (at most [`MAX_SETUPS`] times), and returns the last result with
/// the median of the measured seconds.
pub fn median_setup<T>(reps: usize, min_s: f64, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times: Vec<f64> = Vec::with_capacity(reps);
    let mut last = None;
    while times.len() < reps || (times.iter().sum::<f64>() < min_s && times.len() < MAX_SETUPS) {
        drop(last.take());
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&mut times))
}

const MAX_SETUPS: usize = 500;

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of sorted `values`.
fn rank_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median and tail of a latency sample: the tail is the 90th percentile,
/// or the highest percentile below it that still has at least ten
/// samples beyond it when the sample is smaller than 100.
pub fn p50_p90(values: &mut [f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    values.sort_by(f64::total_cmp);
    let n = values.len() as f64;
    let tail_q = (1.0 - 10.0 / n).clamp(0.5, 0.9);
    (rank_quantile(values, 0.5), rank_quantile(values, tail_q))
}

/// SplitMix64: the benchmark's own seeded generator for request streams
/// and kernel inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Encodes a generated graph to `.mbbg` bytes.
pub fn encode(graph: &BipartiteGraph, seed: u64) -> Vec<u8> {
    mbb_store::binfmt::encode_graph(
        graph,
        mbb_store::binfmt::SourceStamp::generated(seed, 1.0, 0),
    )
}

/// Decodes `.mbbg` bytes produced by [`encode`].
pub fn decode(bytes: &[u8]) -> BipartiteGraph {
    mbb_store::binfmt::decode_graph(bytes)
        .expect("the benchmark decodes only bytes it encoded itself")
        .0
}

/// Graphs are generated from this fixed corpus seed, so that every run
/// answers the same corpus and the run-to-run spread is the system's own;
/// `--seed` orders the inputs and drives request streams.
pub const CORPUS_SEED: u64 = 42;

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Per-input best (smallest) seconds of the cold, warm and one-shot
/// answers over a run's rounds, and the best closed-loop capacity.
/// Outside load on a shared machine only ever adds time, and it comes in
/// spells that last seconds; the best of samples taken in different
/// rounds is the one such a spell touched least.
pub struct Best {
    pub first: Vec<f64>,
    pub warm: Vec<f64>,
    pub oneshot: Vec<f64>,
    pub capacity: f64,
}

impl Best {
    pub fn new(inputs: usize) -> Best {
        Best {
            first: vec![f64::INFINITY; inputs],
            warm: vec![f64::INFINITY; inputs],
            oneshot: vec![f64::INFINITY; inputs],
            capacity: 0.0,
        }
    }

    /// Inserts the sums over inputs and the capacity.
    pub fn insert(&self, m: &mut Metrics) {
        m.insert("first_answer_s", self.first.iter().sum());
        m.insert("warm_answer_s", self.warm.iter().sum());
        m.insert("oneshot_s", self.oneshot.iter().sum());
        m.insert("capacity_rps", self.capacity);
    }
}

/// Seconds `f` takes, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Runs `round` as many times as rounds of `nominal_s` seconds fit in
/// `seconds`, and at least twice. The count depends on the arguments
/// only, so every run takes the same number of samples. Returns it.
pub fn rounds(seconds: f64, nominal_s: f64, mut round: impl FnMut()) -> usize {
    let n = ((seconds / nominal_s).round() as usize).max(2);
    for _ in 0..n {
        round();
    }
    n
}

/// Completions per second with `threads` answers outstanding, by
/// Little's law: `threads` over the mean answer latency in a closed loop
/// of `count` answers. Each thread claims its next answer as soon as the
/// previous one returns; answer `k` is job `k % jobs`. The mean counts
/// every answer once, so the drain at the end of the loop, when fewer
/// than `threads` answers are left, does not skew the rate. Hands every
/// result to `keep`.
pub fn capacity<R: Send>(
    jobs: usize,
    threads: usize,
    count: usize,
    answer: impl Fn(usize) -> R + Sync,
    mut keep: impl FnMut(usize, R),
) -> f64 {
    let next = AtomicUsize::new(0);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (answer, next) = (&answer, &next);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        // relaxed: a work counter; results are joined below.
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= count {
                            break out;
                        }
                        let (spent, r) = timed(|| answer(k % jobs));
                        out.push((k % jobs, spent, r));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut total = 0.0;
    for (job, spent, r) in results.into_iter().flatten() {
        total += spent;
        keep(job, r);
    }
    threads as f64 * count as f64 / total
}

/// Largest relative disagreement among `(what, benchmark, program)`
/// timing pairs; each pair is also printed.
pub fn reconcile(pairs: &[(&str, f64, f64)]) -> f64 {
    let mut worst: f64 = 0.0;
    for &(what, ours, theirs) in pairs {
        let frac = if ours.max(theirs) > 0.0 {
            (ours - theirs).abs() / ours.max(theirs)
        } else {
            0.0
        };
        println!(
            "reconcile: {what}: {ours:.4} s vs {theirs:.4} s ({:.1}%)",
            frac * 100.0
        );
        worst = worst.max(frac);
    }
    worst
}

pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
