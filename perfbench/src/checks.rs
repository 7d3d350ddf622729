//! Checks of the program's outputs that every workload shares.

use distger_embed::Embeddings;
use distger_serve::TopK;

use crate::oracle::{cosine, rank_sum_auc};

/// Every node is on one of the machines; returns the busiest machine's
/// share of the nodes.
pub fn check_partition(assignment: &[usize], nodes: usize, machines: usize) -> Result<f64, String> {
    if assignment.len() != nodes {
        return Err(format!(
            "partition covers {} of {nodes} nodes",
            assignment.len()
        ));
    }
    let mut counts = vec![0usize; machines];
    for (node, &m) in assignment.iter().enumerate() {
        *counts
            .get_mut(m)
            .ok_or_else(|| format!("node {node} is on machine {m} of {machines}"))? += 1;
    }
    Ok(*counts.iter().max().expect("machines > 0") as f64 / nodes as f64)
}

/// Share of `edges` with both ends on one machine.
pub fn local_edge_fraction(edges: &[(u32, u32)], assignment: &[usize]) -> f64 {
    let local = edges
        .iter()
        .filter(|&&(u, v)| assignment[u as usize] == assignment[v as usize])
        .count();
    local as f64 / edges.len().max(1) as f64
}

/// One row of `dim` finite values per node.
pub fn check_embeddings(embeddings: &Embeddings, nodes: usize, dim: usize) -> Result<(), String> {
    if embeddings.num_nodes() != nodes || embeddings.dim() != dim {
        return Err(format!(
            "embeddings are {} x {}, expected {nodes} x {dim}",
            embeddings.num_nodes(),
            embeddings.dim()
        ));
    }
    for node in 0..nodes as u32 {
        if !embeddings.vector(node).iter().all(|x| x.is_finite()) {
            return Err(format!("embedding of node {node} is not finite"));
        }
    }
    Ok(())
}

/// Whether two embedding matrices hold the same bits.
pub fn same_bits(a: &Embeddings, b: &Embeddings) -> bool {
    a.num_nodes() == b.num_nodes()
        && a.dim() == b.dim()
        && (0..a.num_nodes() as u32).all(|v| {
            a.vector(v)
                .iter()
                .zip(b.vector(v))
                .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// Whether two answers hold the same ids and the same score bits.
pub fn same_answer(a: &TopK, b: &TopK) -> bool {
    a.len() == b.len()
        && a.neighbors()
            .iter()
            .zip(b.neighbors())
            .all(|(x, y)| x.node == y.node && x.score.to_bits() == y.score.to_bits())
}

/// Link AUC of cosine scores: `positive` pairs against `negative` pairs.
pub fn link_auc(embeddings: &Embeddings, positive: &[(u32, u32)], negative: &[(u32, u32)]) -> f64 {
    let score = |pairs: &[(u32, u32)]| -> Vec<f64> {
        pairs
            .iter()
            .map(|&(u, v)| cosine(embeddings.vector(u), embeddings.vector(v)))
            .collect()
    };
    rank_sum_auc(&score(positive), &score(negative))
}

/// The AUC a useful embedding clearly beats; 0.5 is a coin toss.
pub const AUC_FLOOR: f64 = 0.6;

/// Recall@10 the LSH backend must reach against the brute-force top-10.
/// Answers unrelated to the query would score about `10 / nodes`; trained
/// embeddings of the structureless Barabási–Albert graph reach about 0.6.
pub const RECALL_FLOOR: f64 = 0.5;

/// Peak resident set of this process (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / crate::report::MB)
}
