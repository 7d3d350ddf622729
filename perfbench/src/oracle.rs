//! Computations the benchmark makes itself, apart from the program, to
//! check the program's outputs: a seeded generator, the link AUC by rank
//! sum, a brute-force cosine top-k, and walk checks and hop counts taken
//! from the corpus and the partition.

use std::collections::HashSet;

/// SplitMix64: the benchmark's own seeded generator, so its inputs do not
/// move when the program's random number code changes.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Area under the ROC curve by the rank sum (Mann–Whitney U): the share of
/// (positive, negative) pairs the scores order correctly, ties counting half.
pub fn rank_sum_auc(positive: &[f64], negative: &[f64]) -> f64 {
    assert!(!positive.is_empty() && !negative.is_empty());
    let mut all: Vec<(f64, bool)> = positive
        .iter()
        .map(|&s| (s, true))
        .chain(negative.iter().map(|&s| (s, false)))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut positive_rank_sum = 0.0;
    let mut i = 0;
    while i < all.len() {
        let mut j = i;
        while j + 1 < all.len() && all[j + 1].0 == all[i].0 {
            j += 1;
        }
        // Ranks are 1-based; a run of ties shares the mean of its ranks.
        let mean_rank = (i + j) as f64 / 2.0 + 1.0;
        positive_rank_sum += mean_rank * all[i..=j].iter().filter(|e| e.1).count() as f64;
        i = j + 1;
    }
    let np = positive.len() as f64;
    let nn = negative.len() as f64;
    (positive_rank_sum - np * (np + 1.0) / 2.0) / (np * nn)
}

/// Cosine similarity, accumulated in `f64`. Zero vectors score 0.
pub fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in a.iter().zip(b) {
        let (x, y) = (f64::from(x), f64::from(y));
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// The `k` rows of the node-major matrix `rows` most cosine-similar to
/// `query`, by descending score and then ascending id.
pub fn brute_force_top_k(rows: &[f32], dim: usize, query: &[f32], k: usize) -> Vec<(u32, f64)> {
    let mut scored: Vec<(u32, f64)> = rows
        .chunks_exact(dim)
        .enumerate()
        .map(|(id, row)| (id as u32, cosine(query, row)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// Share of `expected` ids that `answer` also holds.
pub fn recall(answer: &[u32], expected: &[u32]) -> f64 {
    let hits = expected.iter().filter(|id| answer.contains(id)).count();
    hits as f64 / expected.len().max(1) as f64
}

/// An undirected edge set the benchmark builds from its own edge list.
pub struct EdgeSet(HashSet<(u32, u32)>);

impl EdgeSet {
    pub fn new(edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        Self(
            edges
                .into_iter()
                .map(|(u, v)| (u.min(v), u.max(v)))
                .collect(),
        )
    }

    pub fn contains(&self, u: u32, v: u32) -> bool {
        self.0.contains(&(u.min(v), u.max(v)))
    }

    pub fn insert(&mut self, u: u32, v: u32) {
        self.0.insert((u.min(v), u.max(v)));
    }
}

/// What the corpus and the partition say about the walks.
#[derive(Debug, PartialEq)]
pub struct WalkCounts {
    /// Consecutive walk nodes on different machines: each is one walker
    /// message in a distributed walk.
    pub cross_machine_hops: u64,
    /// Walk tokens per machine, counted where each visited node lives.
    pub steps_per_machine: Vec<u64>,
}

impl WalkCounts {
    /// The busiest machine's share of all walk steps (`1 / machines` is even).
    pub fn max_machine_step_share(&self) -> f64 {
        let total: u64 = self.steps_per_machine.iter().sum();
        let max = self.steps_per_machine.iter().copied().max().unwrap_or(0);
        max as f64 / total.max(1) as f64
    }
}

/// Checks that every walk is a path over `edges` and that each of the
/// `num_nodes` nodes starts exactly `rounds` walks, and counts hops and
/// per-machine steps under `machine_of`.
pub fn check_walks(
    walks: &[Vec<u32>],
    edges: &EdgeSet,
    num_nodes: usize,
    rounds: usize,
    machine_of: &[usize],
    machines: usize,
) -> Result<WalkCounts, String> {
    let mut starts = vec![0usize; num_nodes];
    let mut counts = WalkCounts {
        cross_machine_hops: 0,
        steps_per_machine: vec![0; machines],
    };
    for (i, walk) in walks.iter().enumerate() {
        let first = *walk.first().ok_or_else(|| format!("walk {i} is empty"))?;
        *starts
            .get_mut(first as usize)
            .ok_or_else(|| format!("walk {i} starts at unknown node {first}"))? += 1;
        for pair in walk.windows(2) {
            if !edges.contains(pair[0], pair[1]) {
                return Err(format!(
                    "walk {i} steps {} -> {}, which is no edge",
                    pair[0], pair[1]
                ));
            }
            if machine_of[pair[0] as usize] != machine_of[pair[1] as usize] {
                counts.cross_machine_hops += 1;
            }
        }
        for &node in walk {
            counts.steps_per_machine[machine_of[node as usize]] += 1;
        }
    }
    if let Some(node) = starts.iter().position(|&s| s != rounds) {
        return Err(format!(
            "node {node} starts {} walks, expected {rounds}",
            starts[node]
        ));
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auc_counts_ordered_pairs_and_half_ties() {
        assert_eq!(rank_sum_auc(&[3.0, 4.0], &[1.0, 2.0]), 1.0);
        assert_eq!(rank_sum_auc(&[1.0, 2.0], &[3.0, 4.0]), 0.0);
        // Pairs (pos, neg): (2,1) right, (2,3) wrong, (5,1) right, (5,3)
        // right: 3 of 4.
        assert_eq!(rank_sum_auc(&[2.0, 5.0], &[1.0, 3.0]), 0.75);
        // (1,1) tie = 1/2, (1,0) right = 1: 1.5 of 2.
        assert_eq!(rank_sum_auc(&[1.0], &[1.0, 0.0]), 0.75);
        assert_eq!(rank_sum_auc(&[7.0, 7.0], &[7.0]), 0.5);
    }

    #[test]
    fn brute_force_top_k_orders_by_score_then_id() {
        // Rows: 0 = (1,0), 1 = (0,1), 2 = (2,0) (same direction as 0),
        // 3 = (1,1).
        let rows = [1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 1.0, 1.0];
        let top = brute_force_top_k(&rows, 2, &[1.0, 0.0], 3);
        let ids: Vec<u32> = top.iter().map(|t| t.0).collect();
        assert_eq!(ids, vec![0, 2, 3]);
        assert_eq!(top[0].1, 1.0);
        assert!((top[2].1 - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert_eq!(recall(&[0, 3, 1], &[0, 2, 3]), 2.0 / 3.0);
    }

    #[test]
    fn walk_checks_count_hops_and_steps() {
        // Path 0-1-2-3; nodes 0,1 on machine 0 and 2,3 on machine 1.
        let edges = EdgeSet::new([(0, 1), (1, 2), (2, 3)]);
        let machine_of = [0, 0, 1, 1];
        let walks = vec![vec![0, 1, 2], vec![1, 0], vec![2, 1, 2, 3], vec![3, 2]];
        let counts = check_walks(&walks, &edges, 4, 1, &machine_of, 2).unwrap();
        // Hops: 1->2, 2->1, 1->2: three machine crossings.
        assert_eq!(counts.cross_machine_hops, 3);
        // Machine 0 holds tokens 0,1 | 1,0 | 1 = 5; machine 1 the other 6.
        assert_eq!(counts.steps_per_machine, vec![5, 6]);
        assert_eq!(counts.max_machine_step_share(), 6.0 / 11.0);

        let off_graph = vec![vec![0, 2], vec![1], vec![2], vec![3]];
        assert!(check_walks(&off_graph, &edges, 4, 1, &machine_of, 2).is_err());
        let missing_start = vec![vec![0, 1], vec![1], vec![2]];
        assert!(check_walks(&missing_start, &edges, 4, 1, &machine_of, 2).is_err());
    }

    #[test]
    fn generator_is_seeded_and_uniform_enough() {
        let mut a = SplitMix64::new(5);
        let mut b = SplitMix64::new(5);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut hist = [0u32; 4];
        for _ in 0..4000 {
            hist[a.below(4) as usize] += 1;
        }
        assert!(hist.iter().all(|&h| (900..1100).contains(&h)), "{hist:?}");
    }
}
