//! DSGL — the paper's Distributed Skip-Gram Learning trainer (§4.2).
//!
//! Improvement-I (access locality): the global matrices are rank-ordered by
//! corpus frequency (see [`crate::vocab::Vocab`]) and, for the lifetime of the
//! walks a thread is processing, the vectors of their context nodes and of the
//! sampled negative nodes are staged in **thread-local buffers**; only after
//! the lifetime ends are the updated vectors written back to the global
//! matrices. This removes most of the cache-line ping-ponging of Hogwild.
//!
//! Improvement-II (CPU throughput): a thread processes **multiple walks**
//! (`multi_windows ≥ 2`) in lockstep and shares one negative set across the
//! aligned windows of all of them; the target node of each window additionally
//! serves as an extra negative sample for the other windows, enlarging the
//! effective batch exactly as in Figure 3(d)/Figure 4.

use crate::sgns::{apply_input_grad, sgns_pair_update, TrainContext};
use distger_walks::rng::SplitMix64;

/// What the DSGL loop needs of a staging buffer: rank → locally cached row,
/// staged on first use within a batch and written back at its end.
trait Staging {
    /// An empty buffer of `dim`-wide rows for a matrix of `rows` rows.
    fn new(dim: usize, rows: usize) -> Self;
    /// Forgets every staged row (the end of a batch lifetime).
    fn clear(&mut self);
    /// Ensures `rank` is staged, copying its row from `load` on first use,
    /// and returns its slot index.
    fn stage(&mut self, rank: u32, load: impl FnOnce(&mut [f32])) -> usize;
    fn row_mut(&mut self, slot: usize) -> &mut [f32];
    fn row(&self, slot: usize) -> &[f32];
    /// Writes every staged row back through `store`.
    fn write_back(&self, store: impl FnMut(u32, &[f32]));
    /// Current staging footprint in bytes (for the memory experiments).
    fn memory_bytes(&self) -> usize;
}

/// Thread-local staging buffer mapping matrix ranks to locally cached rows.
///
/// The lookup is two rank-indexed arrays, as in the walk engine's
/// `FlatFreqStore`: `slot_of[rank]` is valid exactly when `stamp[rank]`
/// equals the current `epoch`, so clearing the buffer is one epoch bump
/// rather than a walk over the staged ranks.
struct LocalBuffer {
    dim: usize,
    rows: Vec<f32>,
    /// Staged ranks in slot order — the write-back list.
    ranks: Vec<u32>,
    slot_of: Vec<u32>,
    stamp: Vec<u32>,
    /// Never 0, so a zeroed stamp never reads as staged.
    epoch: u32,
}

impl Staging for LocalBuffer {
    fn new(dim: usize, rows: usize) -> Self {
        Self {
            dim,
            rows: Vec::new(),
            ranks: Vec::new(),
            slot_of: vec![0; rows],
            stamp: vec![0; rows],
            epoch: 1,
        }
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.ranks.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: a stamp left at some old epoch would read as staged
            // once the counter comes round to it again.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn stage(&mut self, rank: u32, load: impl FnOnce(&mut [f32])) -> usize {
        let r = rank as usize;
        if self.stamp[r] == self.epoch {
            return self.slot_of[r] as usize;
        }
        let slot = self.ranks.len();
        self.stamp[r] = self.epoch;
        self.slot_of[r] = slot as u32;
        self.ranks.push(rank);
        self.rows.resize((slot + 1) * self.dim, 0.0);
        load(self.row_mut(slot));
        slot
    }

    #[inline]
    fn row_mut(&mut self, slot: usize) -> &mut [f32] {
        &mut self.rows[slot * self.dim..(slot + 1) * self.dim]
    }

    #[inline]
    fn row(&self, slot: usize) -> &[f32] {
        &self.rows[slot * self.dim..(slot + 1) * self.dim]
    }

    fn write_back(&self, mut store: impl FnMut(u32, &[f32])) {
        for (slot, &rank) in self.ranks.iter().enumerate() {
            store(rank, self.row(slot));
        }
    }

    fn memory_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<f32>()
            + (self.ranks.len() + self.slot_of.len() + self.stamp.len())
                * std::mem::size_of::<u32>()
    }
}

/// Trains one thread's share of walks with DSGL. `multi_windows` is the number
/// of walks processed in lockstep per batch (≥ 1; the paper recommends ≥ 2).
/// Returns `(pairs_processed, peak_buffer_bytes)`.
pub fn train_walks_dsgl(
    ctx: &TrainContext<'_>,
    walks: &[Vec<u32>],
    multi_windows: usize,
    thread_id: u64,
) -> (u64, usize) {
    train_dsgl::<LocalBuffer>(ctx, walks, multi_windows, thread_id)
}

fn train_dsgl<B: Staging>(
    ctx: &TrainContext<'_>,
    walks: &[Vec<u32>],
    multi_windows: usize,
    thread_id: u64,
) -> (u64, usize) {
    let multi = multi_windows.max(1);
    let dim = ctx.phi_in.dim();
    let negatives = ctx.negatives;
    let mut rng = SplitMix64::for_walker(ctx.seed ^ 0xd5_61_0f_37, thread_id);
    let mut input_grad = vec![0.0f32; dim];
    let mut input_snapshot = vec![0.0f32; dim];
    let mut context_buf = B::new(dim, ctx.phi_in.rows());
    let mut negative_buf = B::new(dim, ctx.phi_out.rows());
    // Reused across batches: the context slot of every position of each
    // walk, the `negatives` staged (rank, slot) pairs of every step, and the
    // (walk, target) pairs active at the current step.
    let mut context_slots: Vec<Vec<usize>> = vec![Vec::new(); multi];
    let mut negative_slots: Vec<(u32, usize)> = Vec::new();
    let mut targets: Vec<(usize, u32)> = Vec::with_capacity(multi);
    let mut pairs = 0u64;
    let mut peak_buffer = 0usize;

    for batch in walks.chunks(multi) {
        context_buf.clear();
        negative_buf.clear();

        // Improvement-I: stage the context vectors of every node appearing in
        // this batch's walks into the local context buffer.
        for (walk, slots) in batch.iter().zip(&mut context_slots) {
            slots.clear();
            slots.extend(walk.iter().map(|&rank| {
                context_buf.stage(rank, |dst| ctx.phi_in.copy_row_into(rank as usize, dst))
            }));
        }

        // Stage K negatives per step of the longest walk into the local
        // negative buffer (a different K-subset is used at every step).
        let max_len = batch.iter().map(|w| w.len()).max().unwrap_or(0);
        negative_slots.clear();
        for _ in 0..max_len * negatives {
            let rank = ctx.negatives_table.sample(rng.next_u64());
            let slot =
                negative_buf.stage(rank, |dst| ctx.phi_out.copy_row_into(rank as usize, dst));
            negative_slots.push((rank, slot));
        }
        peak_buffer = peak_buffer.max(context_buf.memory_bytes() + negative_buf.memory_bytes());

        // Improvement-II: walk the batch in lockstep; windows at the same step
        // share the step's negative set, and each window's target acts as an
        // extra negative for the other windows.
        for step in 0..max_len {
            targets.clear();
            targets.extend(
                batch
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| step < w.len())
                    .map(|(wi, w)| (wi, w[step])),
            );
            let step_negatives = &negative_slots[step * negatives..(step + 1) * negatives];

            for &(wi, target) in &targets {
                let slots = &context_slots[wi];
                let lo = step.saturating_sub(ctx.window);
                let hi = (step + ctx.window).min(slots.len() - 1);
                for (c, &context_slot) in (lo..).zip(&slots[lo..=hi]) {
                    if c == step {
                        continue;
                    }
                    input_grad.fill(0.0);
                    // Snapshot the context vector once; all updates of this
                    // group read the same input (matrix-batch semantics).
                    input_snapshot.copy_from_slice(context_buf.row(context_slot));

                    // Positive: the window's own target (global φ_out row —
                    // targets are touched once per window, so no buffer).
                    {
                        let out = unsafe { ctx.phi_out.row_mut(target as usize) };
                        sgns_pair_update(
                            ctx.sigmoid,
                            &input_snapshot,
                            out,
                            1.0,
                            ctx.learning_rate,
                            &mut input_grad,
                        );
                    }
                    // Shared negatives from the local negative buffer.
                    for &(neg_rank, neg_slot) in step_negatives {
                        if neg_rank == target {
                            continue;
                        }
                        let out = negative_buf.row_mut(neg_slot);
                        sgns_pair_update(
                            ctx.sigmoid,
                            &input_snapshot,
                            out,
                            0.0,
                            ctx.learning_rate,
                            &mut input_grad,
                        );
                    }
                    // Cross-window extra negatives: the other walks' targets.
                    for &(other_wi, other_target) in &targets {
                        if other_wi == wi || other_target == target {
                            continue;
                        }
                        let out = unsafe { ctx.phi_out.row_mut(other_target as usize) };
                        sgns_pair_update(
                            ctx.sigmoid,
                            &input_snapshot,
                            out,
                            0.0,
                            ctx.learning_rate,
                            &mut input_grad,
                        );
                    }
                    apply_input_grad(context_buf.row_mut(context_slot), &input_grad);
                    pairs += 1;
                }
            }
        }

        // End of the batch lifetime: write the staged vectors back to the
        // global matrices.
        context_buf.write_back(|rank, row| ctx.phi_in.store_row(rank as usize, row));
        negative_buf.write_back(|rank, row| ctx.phi_out.store_row(rank as usize, row));
    }
    (pairs, peak_buffer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hogwild::HogwildMatrix;
    use crate::negative::NegativeTable;
    use crate::sgns::SigmoidTable;
    use crate::vocab::Vocab;
    use std::collections::HashMap;

    fn two_clique_walks() -> Vec<Vec<u32>> {
        (0..60)
            .map(|i| {
                if i % 2 == 0 {
                    vec![0, 1, 2, 0, 2, 1, 0, 1, 2, 0]
                } else {
                    vec![3, 4, 5, 3, 5, 4, 3, 4, 5, 3]
                }
            })
            .collect()
    }

    fn make_ctx<'a>(
        phi_in: &'a HogwildMatrix,
        phi_out: &'a HogwildMatrix,
        table: &'a NegativeTable,
        sig: &'a SigmoidTable,
    ) -> TrainContext<'a> {
        TrainContext {
            phi_in,
            phi_out,
            negatives_table: table,
            sigmoid: sig,
            window: 3,
            negatives: 4,
            learning_rate: 0.05,
            seed: 21,
        }
    }

    #[test]
    fn dsgl_training_separates_two_cliques() {
        let walks = two_clique_walks();
        let vocab = Vocab::from_frequencies(&[100; 6]);
        let table = NegativeTable::with_size(&vocab, 1 << 12);
        let sig = SigmoidTable::new();
        let phi_in = HogwildMatrix::random_init(6, 16, 5);
        let phi_out = HogwildMatrix::zeros(6, 16);
        let ctx = make_ctx(&phi_in, &phi_out, &table, &sig);
        let mut total_pairs = 0;
        for _ in 0..5 {
            let (pairs, peak) = train_walks_dsgl(&ctx, &walks, 2, 0);
            total_pairs += pairs;
            assert!(peak > 0);
        }
        assert!(total_pairs > 0);
        let dot = |a: usize, b: usize| -> f32 {
            let ra = unsafe { phi_in.row(a) };
            let rb = unsafe { phi_in.row(b) };
            ra.iter().zip(rb).map(|(x, y)| x * y).sum()
        };
        let intra = (dot(0, 1) + dot(1, 2) + dot(3, 4) + dot(4, 5)) / 4.0;
        let inter = (dot(0, 3) + dot(1, 4) + dot(2, 5)) / 3.0;
        assert!(intra > inter, "intra {intra} must exceed inter {inter}");
    }

    #[test]
    fn multi_window_one_equals_plain_batching() {
        // multi_windows = 1 must still be a valid configuration.
        let walks = vec![vec![0u32, 1, 2, 3], vec![3u32, 2, 1, 0]];
        let vocab = Vocab::from_frequencies(&[10; 4]);
        let table = NegativeTable::with_size(&vocab, 256);
        let sig = SigmoidTable::new();
        let phi_in = HogwildMatrix::random_init(4, 8, 1);
        let phi_out = HogwildMatrix::zeros(4, 8);
        let ctx = make_ctx(&phi_in, &phi_out, &table, &sig);
        let (pairs, _) = train_walks_dsgl(&ctx, &walks, 1, 0);
        // window 3 over 4-node walks: every (target, context) ordered pair →
        // 4·3 per walk → 24.
        assert_eq!(pairs, 24);
    }

    #[test]
    fn local_buffer_round_trip() {
        let mut buf = LocalBuffer::new(3, 16);
        let slot_a = buf.stage(7, |dst| dst.copy_from_slice(&[1.0, 2.0, 3.0]));
        let slot_b = buf.stage(9, |dst| dst.copy_from_slice(&[4.0, 5.0, 6.0]));
        assert_ne!(slot_a, slot_b);
        // Staging the same rank twice returns the same slot without reloading.
        let slot_a2 = buf.stage(7, |_| panic!("must not reload an already staged row"));
        assert_eq!(slot_a, slot_a2);
        buf.row_mut(slot_a)[0] = 10.0;
        let mut seen = HashMap::new();
        buf.write_back(|rank, row| {
            seen.insert(rank, row.to_vec());
        });
        assert_eq!(seen[&7], vec![10.0, 2.0, 3.0]);
        assert_eq!(seen[&9], vec![4.0, 5.0, 6.0]);
        // Two staged rows, two write-back ranks, two 16-entry lookup arrays.
        assert_eq!(buf.memory_bytes(), (6 + 2 + 2 * 16) * 4);
        buf.clear();
        let reloaded = buf.stage(9, |dst| dst.copy_from_slice(&[0.5; 3]));
        assert_eq!((reloaded, buf.row(reloaded)), (0, &[0.5f32; 3][..]));
    }

    #[test]
    fn epoch_wrap_never_reuses_a_stale_slot() {
        // Rank 3 is stamped at epoch 1 and rank 0 never at all; the epoch
        // then runs round past u32::MAX. At every epoch on the way (MAX,
        // then the first two after the wrap) both must still load afresh.
        for clears in 1..=3 {
            let mut buf = LocalBuffer::new(2, 4);
            buf.stage(3, |dst| dst.fill(1.0));
            buf.epoch = u32::MAX - 1;
            for _ in 0..clears {
                buf.clear();
            }
            for rank in [3, 0] {
                let mut loaded = false;
                let slot = buf.stage(rank, |dst| {
                    loaded = true;
                    dst.fill(2.0);
                });
                assert!(
                    loaded,
                    "rank {rank} reused a stale slot at epoch {}",
                    buf.epoch
                );
                assert_eq!(buf.row(slot), &[2.0, 2.0]);
                let again = buf.stage(rank, |_| panic!("staged twice in one epoch"));
                assert_eq!(again, slot);
            }
        }
    }

    /// The seed's `HashMap`-keyed staging buffer, kept as the reference the
    /// flat [`LocalBuffer`] must train bit-identically to.
    struct HashLocalBuffer {
        dim: usize,
        rows: Vec<f32>,
        rank_to_slot: HashMap<u32, usize>,
    }

    impl Staging for HashLocalBuffer {
        fn new(dim: usize, _rows: usize) -> Self {
            Self {
                dim,
                rows: Vec::new(),
                rank_to_slot: HashMap::new(),
            }
        }

        fn clear(&mut self) {
            self.rows.clear();
            self.rank_to_slot.clear();
        }

        fn stage(&mut self, rank: u32, load: impl FnOnce(&mut [f32])) -> usize {
            if let Some(&slot) = self.rank_to_slot.get(&rank) {
                return slot;
            }
            let slot = self.rank_to_slot.len();
            self.rows.resize((slot + 1) * self.dim, 0.0);
            load(self.row_mut(slot));
            self.rank_to_slot.insert(rank, slot);
            slot
        }

        fn row_mut(&mut self, slot: usize) -> &mut [f32] {
            &mut self.rows[slot * self.dim..(slot + 1) * self.dim]
        }

        fn row(&self, slot: usize) -> &[f32] {
            &self.rows[slot * self.dim..(slot + 1) * self.dim]
        }

        fn write_back(&self, mut store: impl FnMut(u32, &[f32])) {
            for (&rank, &slot) in &self.rank_to_slot {
                store(rank, self.row(slot));
            }
        }

        fn memory_bytes(&self) -> usize {
            self.rows.len() * std::mem::size_of::<f32>()
                + self.rank_to_slot.len()
                    * (std::mem::size_of::<u32>() + std::mem::size_of::<usize>())
        }
    }

    /// Trains `walks` twice from the same initial matrices with staging
    /// buffer `B` and returns the final `(phi_in, phi_out)` bits and pairs.
    fn train_with<B: Staging>(
        walks: &[Vec<u32>],
        nodes: usize,
        dim: usize,
        window: usize,
        negatives: usize,
        multi_windows: usize,
        seed: u64,
    ) -> (Vec<u32>, Vec<u32>, u64) {
        let mut freqs = vec![1u64; nodes];
        for &rank in walks.iter().flatten() {
            freqs[rank as usize] += 1;
        }
        let vocab = Vocab::from_frequencies(&freqs);
        let table = NegativeTable::with_size(&vocab, 256);
        let sig = SigmoidTable::new();
        let phi_in = HogwildMatrix::random_init(nodes, dim, seed);
        let phi_out = HogwildMatrix::random_init(nodes, dim, seed ^ 1);
        let ctx = TrainContext {
            phi_in: &phi_in,
            phi_out: &phi_out,
            negatives_table: &table,
            sigmoid: &sig,
            window,
            negatives,
            learning_rate: 0.05,
            seed,
        };
        let pairs = (0..2)
            .map(|pass| train_dsgl::<B>(&ctx, walks, multi_windows, pass).0)
            .sum();
        let bits = |m: HogwildMatrix| m.into_vec().iter().map(|x| x.to_bits()).collect();
        (bits(phi_in), bits(phi_out), pairs)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The flat stamp-indexed buffer is a drop-in for the `HashMap` one:
        /// same slots, same rows staged and written back, so training is
        /// bit-identical for every lockstep width.
        #[test]
        fn flat_staging_trains_bit_identically_to_the_hashmap_buffer(
            raw_walks in proptest::collection::vec(proptest::collection::vec(0u32..64, 0..14), 0..12),
            nodes in 2usize..24,
            dim in 1usize..20,
            window in 1usize..4,
            negatives in 0usize..5,
            seed in 0u64..1000,
        ) {
            let walks: Vec<Vec<u32>> = raw_walks
                .iter()
                .map(|w| w.iter().map(|&v| v % nodes as u32).collect())
                .collect();
            for multi_windows in [1, 2, 4] {
                let flat = train_with::<LocalBuffer>(
                    &walks, nodes, dim, window, negatives, multi_windows, seed,
                );
                let hashed = train_with::<HashLocalBuffer>(
                    &walks, nodes, dim, window, negatives, multi_windows, seed,
                );
                proptest::prop_assert!(flat == hashed, "multi_windows {} diverged", multi_windows);
            }
        }
    }

    #[test]
    fn empty_walks_are_handled() {
        let vocab = Vocab::from_frequencies(&[1; 2]);
        let table = NegativeTable::with_size(&vocab, 64);
        let sig = SigmoidTable::new();
        let phi_in = HogwildMatrix::random_init(2, 4, 1);
        let phi_out = HogwildMatrix::zeros(2, 4);
        let ctx = make_ctx(&phi_in, &phi_out, &table, &sig);
        let (pairs, _) = train_walks_dsgl(&ctx, &[], 2, 0);
        assert_eq!(pairs, 0);
        let (pairs, _) = train_walks_dsgl(&ctx, &[vec![0]], 2, 0);
        assert_eq!(pairs, 0, "a single-node walk has no context pairs");
    }
}
