//! Skip-Gram-with-negative-sampling primitives and the Hogwild baseline
//! trainer (Figure 3(a)).
//!
//! All trainers share the same SGD kernel: for a (context, target) pair the
//! context vector `φ_in(context)` is trained against the target vector
//! `φ_out(target)` with label 1 and against `K` negative vectors with label 0
//! (Eq. 2). The trainers differ only in *which* negatives are shared across
//! *which* updates and in how the vectors are staged in memory.

use crate::hogwild::HogwildMatrix;
use crate::negative::NegativeTable;
use distger_walks::rng::SplitMix64;

/// Precomputed sigmoid lookup table (the `expTable` of word2vec).
#[derive(Clone, Debug)]
pub struct SigmoidTable {
    table: Vec<f32>,
    max_exp: f32,
}

impl SigmoidTable {
    const SIZE: usize = 1024;

    /// Builds a table covering `[-max_exp, max_exp]` (word2vec uses 6).
    pub fn new() -> Self {
        let max_exp = 6.0f32;
        let table = (0..Self::SIZE)
            .map(|i| {
                let x = (i as f32 / Self::SIZE as f32 * 2.0 - 1.0) * max_exp;
                1.0 / (1.0 + (-x).exp())
            })
            .collect();
        Self { table, max_exp }
    }

    /// σ(x), clamped lookups outside `[-max_exp, max_exp]`.
    #[inline]
    pub fn sigmoid(&self, x: f32) -> f32 {
        if x >= self.max_exp {
            1.0
        } else if x <= -self.max_exp {
            0.0
        } else {
            let idx = ((x / self.max_exp + 1.0) * 0.5 * (Self::SIZE as f32 - 1.0)) as usize;
            self.table[idx]
        }
    }
}

impl Default for SigmoidTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Independent accumulator lanes of [`dot`]: one 256-bit vector of `f32`.
const LANES: usize = 8;

/// Dot product with [`LANES`] independent accumulators over
/// `chunks_exact(LANES)`, reduced in a fixed tree order, plus the scalar
/// remainder. A single running sum is one add-latency chain per element that
/// strict `f32` ordering forbids the compiler to split; fixing the split in
/// the source lets it vectorise while every build still adds in the same
/// order, so results stay deterministic.
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    let (a_chunks, b_chunks) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let (a_tail, b_tail) = (a_chunks.remainder(), b_chunks.remainder());
    let mut lanes = [0.0f32; LANES];
    for (x, y) in a_chunks.zip(b_chunks) {
        for ((lane, x), y) in lanes.iter_mut().zip(x).zip(y) {
            *lane += x * y;
        }
    }
    let mut sum = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
        + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
    for (x, y) in a_tail.iter().zip(b_tail) {
        sum += x * y;
    }
    sum
}

/// One SGNS pair update: trains `input` against `output` with `label`,
/// accumulating the input-side gradient into `input_grad` (applied by the
/// caller once per positive/negative group) and updating `output` in place.
/// Every trainer (Hogwild, Pword2vec, DSGL) runs this one kernel.
#[inline]
pub fn sgns_pair_update(
    sig: &SigmoidTable,
    input: &[f32],
    output: &mut [f32],
    label: f32,
    lr: f32,
    input_grad: &mut [f32],
) {
    debug_assert_eq!(input.len(), output.len());
    debug_assert_eq!(input.len(), input_grad.len());
    let g = (label - sig.sigmoid(dot(input, output))) * lr;
    for ((grad, out), &x) in input_grad.iter_mut().zip(output.iter_mut()).zip(input) {
        *grad += g * *out;
        *out += g * x;
    }
}

/// Applies an accumulated input gradient.
#[inline]
pub fn apply_input_grad(input: &mut [f32], input_grad: &[f32]) {
    for (x, &g) in input.iter_mut().zip(input_grad) {
        *x += g;
    }
}

/// Shared parameters of a single training pass over a set of walks.
pub struct TrainContext<'a> {
    /// Input (context-node) matrix, rank-indexed.
    pub phi_in: &'a HogwildMatrix,
    /// Output (target/negative) matrix, rank-indexed.
    pub phi_out: &'a HogwildMatrix,
    /// Negative-sampling table over ranks.
    pub negatives_table: &'a NegativeTable,
    /// Sigmoid lookup table.
    pub sigmoid: &'a SigmoidTable,
    /// Context window size `w`.
    pub window: usize,
    /// Number of negative samples `K`.
    pub negatives: usize,
    /// Learning rate for this pass.
    pub learning_rate: f32,
    /// Seed for negative sampling and window jitter.
    pub seed: u64,
}

/// Trains one thread's share of walks with the plain SGNS/Hogwild scheme:
/// a fresh negative set per (target, context) pair. Returns the number of
/// (target, context) pairs processed.
#[allow(clippy::needless_range_loop)]
pub fn train_walks_hogwild(ctx: &TrainContext<'_>, walks: &[Vec<u32>], thread_id: u64) -> u64 {
    let dim = ctx.phi_in.dim();
    let mut rng = SplitMix64::for_walker(ctx.seed ^ 0x5e15_0a11, thread_id);
    let mut input_grad = vec![0.0f32; dim];
    let mut pairs = 0u64;

    for walk in walks {
        for (j, &target) in walk.iter().enumerate() {
            let lo = j.saturating_sub(ctx.window);
            let hi = (j + ctx.window).min(walk.len() - 1);
            for c in lo..=hi {
                if c == j {
                    continue;
                }
                let context = walk[c];
                // SAFETY: Hogwild contract — concurrent racy updates accepted.
                let input = unsafe { ctx.phi_in.row_mut(context as usize) };
                input_grad.iter_mut().for_each(|x| *x = 0.0);
                // Positive sample.
                {
                    let out = unsafe { ctx.phi_out.row_mut(target as usize) };
                    sgns_pair_update(
                        ctx.sigmoid,
                        input,
                        out,
                        1.0,
                        ctx.learning_rate,
                        &mut input_grad,
                    );
                }
                // Fresh negatives for every pair (this is what Pword2vec and
                // DSGL improve on).
                for _ in 0..ctx.negatives {
                    let neg = ctx.negatives_table.sample(rng.next_u64());
                    if neg == target {
                        continue;
                    }
                    let out = unsafe { ctx.phi_out.row_mut(neg as usize) };
                    sgns_pair_update(
                        ctx.sigmoid,
                        input,
                        out,
                        0.0,
                        ctx.learning_rate,
                        &mut input_grad,
                    );
                }
                apply_input_grad(input, &input_grad);
                pairs += 1;
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::Vocab;

    #[test]
    fn sigmoid_table_matches_exact_sigmoid() {
        let sig = SigmoidTable::new();
        for &x in &[-5.9f32, -2.0, -0.5, 0.0, 0.5, 2.0, 5.9] {
            let exact = 1.0 / (1.0 + (-x).exp());
            assert!(
                (sig.sigmoid(x) - exact).abs() < 0.01,
                "sigmoid({x}) = {} vs exact {exact}",
                sig.sigmoid(x)
            );
        }
        assert_eq!(sig.sigmoid(100.0), 1.0);
        assert_eq!(sig.sigmoid(-100.0), 0.0);
    }

    #[test]
    fn chunked_pair_update_matches_an_f64_reference_for_every_dim() {
        let sig = SigmoidTable::new();
        let mut rng = SplitMix64::new(0x5e_ed);
        let mut draw = |n: usize| -> Vec<f32> {
            (0..n)
                .map(|_| (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32 - 0.5)
                .collect()
        };
        for dim in 1..=70 {
            for label in [0.0f32, 1.0] {
                let input = draw(dim);
                let output = draw(dim);
                let seed_grad = draw(dim);
                let lr = 0.025f32;

                let dot64: f64 = input
                    .iter()
                    .zip(&output)
                    .map(|(&x, &y)| f64::from(x) * f64::from(y))
                    .sum();
                assert!(
                    (f64::from(dot(&input, &output)) - dot64).abs() < 1e-5,
                    "dim {dim}: dot {} vs f64 {dot64}",
                    dot(&input, &output)
                );
                let g = f64::from((label - sig.sigmoid(dot64 as f32)) * lr);

                let mut out = output.clone();
                let mut grad = seed_grad.clone();
                sgns_pair_update(&sig, &input, &mut out, label, lr, &mut grad);
                for i in 0..dim {
                    let grad64 = f64::from(seed_grad[i]) + g * f64::from(output[i]);
                    let out64 = f64::from(output[i]) + g * f64::from(input[i]);
                    assert!(
                        (f64::from(grad[i]) - grad64).abs() < 1e-5,
                        "dim {dim} lane {i}: grad {} vs f64 {grad64}",
                        grad[i]
                    );
                    assert!(
                        (f64::from(out[i]) - out64).abs() < 1e-5,
                        "dim {dim} lane {i}: output {} vs f64 {out64}",
                        out[i]
                    );
                }
            }
        }
    }

    #[test]
    fn pair_update_moves_positive_pair_closer() {
        let sig = SigmoidTable::new();
        let input = vec![0.1f32, -0.2, 0.3, 0.05];
        let mut output = vec![-0.1f32, 0.2, 0.1, -0.3];
        let mut grad = vec![0.0f32; 4];
        let before: f32 = input.iter().zip(&output).map(|(a, b)| a * b).sum();
        let mut inp = input.clone();
        for _ in 0..200 {
            grad.iter_mut().for_each(|x| *x = 0.0);
            sgns_pair_update(&sig, &inp, &mut output, 1.0, 0.1, &mut grad);
            apply_input_grad(&mut inp, &grad);
        }
        let after: f32 = inp.iter().zip(&output).map(|(a, b)| a * b).sum();
        assert!(after > before, "positive pair similarity must increase");
        assert!(after > 1.0);
    }

    #[test]
    fn pair_update_pushes_negative_pair_apart() {
        let sig = SigmoidTable::new();
        let mut input = vec![0.4f32, 0.4, 0.4, 0.4];
        let mut output = vec![0.4f32, 0.4, 0.4, 0.4];
        let mut grad = vec![0.0f32; 4];
        for _ in 0..200 {
            grad.iter_mut().for_each(|x| *x = 0.0);
            sgns_pair_update(&sig, &input, &mut output, 0.0, 0.1, &mut grad);
            apply_input_grad(&mut input, &grad);
        }
        let after: f32 = input.iter().zip(&output).map(|(a, b)| a * b).sum();
        assert!(
            after < 0.1,
            "negative pair similarity must shrink, got {after}"
        );
    }

    #[test]
    fn hogwild_training_separates_two_cliques() {
        // Two "communities" of ranks {0,1,2} and {3,4,5}; walks stay inside a
        // community, so after training, intra-community similarity should
        // exceed inter-community similarity.
        let walks: Vec<Vec<u32>> = (0..60)
            .map(|i| {
                if i % 2 == 0 {
                    vec![0, 1, 2, 0, 2, 1, 0, 1, 2, 0]
                } else {
                    vec![3, 4, 5, 3, 5, 4, 3, 4, 5, 3]
                }
            })
            .collect();
        let freqs = vec![100u64; 6];
        let vocab = Vocab::from_frequencies(&freqs);
        let table = NegativeTable::with_size(&vocab, 1 << 12);
        let sig = SigmoidTable::new();
        let dim = 16;
        let phi_in = HogwildMatrix::random_init(6, dim, 1);
        let phi_out = HogwildMatrix::zeros(6, dim);
        let ctx = TrainContext {
            phi_in: &phi_in,
            phi_out: &phi_out,
            negatives_table: &table,
            sigmoid: &sig,
            window: 3,
            negatives: 4,
            learning_rate: 0.05,
            seed: 3,
        };
        for _ in 0..5 {
            train_walks_hogwild(&ctx, &walks, 0);
        }
        let dot = |a: usize, b: usize| -> f32 {
            let ra = unsafe { phi_in.row(a) };
            let rb = unsafe { phi_in.row(b) };
            ra.iter().zip(rb).map(|(x, y)| x * y).sum()
        };
        let intra = (dot(0, 1) + dot(1, 2) + dot(3, 4) + dot(4, 5)) / 4.0;
        let inter = (dot(0, 3) + dot(1, 4) + dot(2, 5)) / 3.0;
        assert!(
            intra > inter,
            "intra-community similarity {intra} must exceed inter {inter}"
        );
    }
}
