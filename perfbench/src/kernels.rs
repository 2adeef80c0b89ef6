//! The bottom layer: the public `mbb_bigraph::kernels` functions timed
//! at the row widths the workloads run — 1 word (48/64-vertex dense
//! rows), 2 words, and 8 words (gottron-trec's vertex-centred subgraphs
//! reach 413 vertices, 7 words) — on the active backend. Every kernel's
//! results are summed into a checksum and compared with a scalar
//! recomputation.

use std::hint::black_box;
use std::time::Instant;

use mbb_bigraph::kernels;

use crate::common::{per_layer_name, Checks, Metrics, Rng};

const WIDTHS: [usize; 3] = [1, 2, 8];
/// Distinct operand vectors cycled through, so no result is constant.
const POOL: usize = 64;
/// Rows folded by one `multi_and_popcount` call.
const ROWS: usize = 4;
const CALLS: usize = 200_000;
const REPS: usize = 9;

struct Operands {
    a: Vec<Vec<u64>>,
    b: Vec<Vec<u64>>,
}

impl Operands {
    fn new(width: usize, rng: &mut Rng) -> Operands {
        // Dense-ish rows (each bit set with probability 3/4), as in the
        // complement-sparse regime of denseMBB.
        let mut row = || -> Vec<u64> {
            (0..width)
                .map(|_| rng.next_u64() | rng.next_u64())
                .collect()
        };
        Operands {
            a: (0..POOL).map(|_| row()).collect(),
            b: (0..POOL).map(|_| row()).collect(),
        }
    }
}

type Kernel = fn(&Operands, usize, &mut [u64]) -> usize;

fn and_popcount(o: &Operands, i: usize, _: &mut [u64]) -> usize {
    kernels::and_popcount(black_box(&o.a[i]), black_box(&o.b[i]))
}

fn andnot_popcount(o: &Operands, i: usize, _: &mut [u64]) -> usize {
    kernels::andnot_popcount(black_box(&o.a[i]), black_box(&o.b[i]))
}

fn and_assign_count(o: &Operands, i: usize, scratch: &mut [u64]) -> usize {
    scratch.copy_from_slice(&o.a[i]);
    kernels::and_assign_count(black_box(scratch), black_box(&o.b[i]))
}

fn first_and(o: &Operands, i: usize, _: &mut [u64]) -> usize {
    kernels::first_and(black_box(&o.a[i]), black_box(&o.b[i])).map_or(0, |bit| bit + 1)
}

fn multi_and_popcount(o: &Operands, i: usize, scratch: &mut [u64]) -> usize {
    scratch.fill(!0);
    let rows: [&[u64]; ROWS] = std::array::from_fn(|r| o.b[(i + r) % POOL].as_slice());
    kernels::multi_and_popcount(black_box(scratch), black_box(&rows))
}

/// Scalar recomputation of each kernel's result, for the checksum.
fn reference(name: &str, o: &Operands, i: usize) -> usize {
    let (a, b) = (&o.a[i], &o.b[i]);
    let ones = |w: u64| w.count_ones() as usize;
    match name {
        "and_popcount" | "and_assign_count" => a.iter().zip(b).map(|(x, y)| ones(x & y)).sum(),
        "andnot_popcount" => a.iter().zip(b).map(|(x, y)| ones(x & !y)).sum(),
        "first_and" => a
            .iter()
            .zip(b)
            .enumerate()
            .find(|(_, (x, y))| *x & *y != 0)
            .map_or(0, |(w, (x, y))| {
                w * 64 + (x & y).trailing_zeros() as usize + 1
            }),
        "multi_and_popcount" => (0..a.len())
            .map(|w| ones((0..ROWS).fold(!0, |acc, r| acc & o.b[(i + r) % POOL][w])))
            .sum(),
        _ => unreachable!("unknown kernel {name}"),
    }
}

const KERNELS: [(&str, Kernel); 5] = [
    ("and_popcount", and_popcount),
    ("andnot_popcount", andnot_popcount),
    ("and_assign_count", and_assign_count),
    ("first_and", first_and),
    ("multi_and_popcount", multi_and_popcount),
];

/// Inserts `bigraph.kernel.<name>.w<W>_ns` (best of [`REPS`] timed
/// sweeps) and `bigraph.kernel.<name>.checksum` for every kernel.
pub fn measure(m: &mut Metrics, checks: &mut Checks) {
    println!("kernels: backend {}", kernels::active_backend().name());
    let mut rng = Rng::new(0x6b65_726e);
    let operands: Vec<Operands> = WIDTHS.iter().map(|&w| Operands::new(w, &mut rng)).collect();
    for (name, kernel) in KERNELS {
        let mut checksum = 0u64;
        for (&width, o) in WIDTHS.iter().zip(&operands) {
            let mut scratch = vec![0u64; width];
            for i in 0..POOL {
                let got = kernel(o, i, &mut scratch);
                let want = reference(name, o, i);
                let ok = checks.check(got == want, || {
                    format!("kernel {name} w{width} #{i}: {got} != {want}")
                });
                checks.operation(ok);
                checksum += got as u64;
            }
            let mut best = f64::INFINITY;
            for _ in 0..REPS {
                let start = Instant::now();
                let mut sink = 0usize;
                for call in 0..CALLS {
                    sink = sink.wrapping_add(kernel(o, call % POOL, &mut scratch));
                }
                black_box(sink);
                best = best.min(start.elapsed().as_secs_f64() * 1e9 / CALLS as f64);
            }
            m.insert(
                per_layer_name(&format!("bigraph.kernel.{name}.w{width}_ns")),
                best,
            );
        }
        m.insert(
            per_layer_name(&format!("bigraph.kernel.{name}.checksum")),
            checksum as f64,
        );
    }
}
