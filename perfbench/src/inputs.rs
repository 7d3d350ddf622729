//! Inputs the benchmark generates from its seed: community-structured
//! power-law graphs standing in for YouTube and Com-Orkut, and the held-out
//! edge sample for link prediction. The generator lives here, not in the
//! program, so a change to the program's generators does not move the
//! benchmark's inputs.

use std::io::{BufWriter, Write};
use std::path::Path;

use crate::oracle::{EdgeSet, SplitMix64};

/// Shape of a generated stand-in graph.
#[derive(Clone, Copy, Debug)]
pub struct GraphShape {
    pub nodes: u32,
    /// Edges each new node draws; the average degree is about twice this.
    pub edges_per_node: u32,
    /// Nodes per community.
    pub community_size: u32,
    /// Share of edges drawn outside the node's community.
    pub mixing: f64,
}

/// Community power-law graph: node `u` joins community `u / community_size`
/// and attaches `edges_per_node` edges by preferential attachment, inside its
/// community with probability `1 - mixing` and anywhere otherwise. Returns
/// the undirected edges, each once, with no self-loops or duplicates; every
/// node has at least one edge.
pub fn community_powerlaw(shape: GraphShape, seed: u64) -> Vec<(u32, u32)> {
    let n = shape.nodes as usize;
    let size = shape.community_size.max(3) as usize;
    let communities = n.div_ceil(size);
    let mut rng = SplitMix64::new(seed);
    // Endpoint lists: a node appears once per edge end, which makes a
    // uniform pick from the list a degree-proportional pick.
    let mut local: Vec<Vec<u32>> = vec![Vec::new(); communities];
    let mut global: Vec<u32> = Vec::new();
    let mut edges = Vec::with_capacity(n * shape.edges_per_node as usize);
    let mut targets: Vec<u32> = Vec::new();
    for u in 0..n as u32 {
        let c = u as usize / size;
        targets.clear();
        let mut tries = 0;
        while targets.len() < shape.edges_per_node as usize && tries < 60 * shape.edges_per_node {
            tries += 1;
            let inside = rng.unit() >= shape.mixing;
            let pool = if inside { &local[c] } else { &global };
            let candidate = if !pool.is_empty() {
                pool[rng.below(pool.len() as u64) as usize]
            } else {
                // Nothing placed yet: any earlier node of the community.
                let lo = (c * size) as u32;
                if u == lo {
                    break;
                }
                lo + rng.below(u64::from(u - lo)) as u32
            };
            if candidate != u && !targets.contains(&candidate) {
                targets.push(candidate);
            }
        }
        if targets.is_empty() && u > 0 {
            targets.push(u - 1);
        }
        for &v in &targets {
            edges.push((v, u));
            for node in [u, v] {
                local[node as usize / size].push(node);
                global.push(node);
            }
        }
    }
    edges
}

/// A link-prediction split: the training edges the program sees, plus
/// held-out edges and an equal number of non-edges to score.
pub struct HeldOut {
    pub train: Vec<(u32, u32)>,
    pub positive: Vec<(u32, u32)>,
    pub negative: Vec<(u32, u32)>,
}

/// Holds out `fraction` of `edges` at random, skipping any edge whose removal
/// would leave an endpoint without edges, and samples as many distinct
/// non-edges of the full graph.
pub fn hold_out(edges: &[(u32, u32)], nodes: u32, fraction: f64, seed: u64) -> HeldOut {
    let mut rng = SplitMix64::new(seed ^ 0x4845_4c44);
    let mut order: Vec<usize> = (0..edges.len()).collect();
    rng.shuffle(&mut order);
    let mut degree = vec![0u32; nodes as usize];
    for &(u, v) in edges {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    let want = (edges.len() as f64 * fraction) as usize;
    let mut held = vec![false; edges.len()];
    let mut positive = Vec::with_capacity(want);
    for i in order {
        if positive.len() == want {
            break;
        }
        let (u, v) = edges[i];
        if degree[u as usize] > 1 && degree[v as usize] > 1 {
            degree[u as usize] -= 1;
            degree[v as usize] -= 1;
            held[i] = true;
            positive.push((u, v));
        }
    }
    let train = edges
        .iter()
        .zip(&held)
        .filter(|(_, &h)| !h)
        .map(|(&e, _)| e)
        .collect();
    let negative = sample_non_edges(&EdgeSet::new(edges.iter().copied()), nodes, want, &mut rng);
    HeldOut {
        train,
        positive,
        negative,
    }
}

/// `count` distinct node pairs that are not edges of `edges`.
pub fn sample_non_edges(
    edges: &EdgeSet,
    nodes: u32,
    count: usize,
    rng: &mut SplitMix64,
) -> Vec<(u32, u32)> {
    let mut chosen = EdgeSet::new([]);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let u = rng.below(u64::from(nodes)) as u32;
        let v = rng.below(u64::from(nodes)) as u32;
        if u != v && !edges.contains(u, v) && !chosen.contains(u, v) {
            chosen.insert(u, v);
            out.push((u, v));
        }
    }
    out
}

/// `count` distinct edges of `edges`, drawn at random.
pub fn sample_edges(edges: &[(u32, u32)], count: usize, rng: &mut SplitMix64) -> Vec<(u32, u32)> {
    let mut order: Vec<usize> = (0..edges.len()).collect();
    rng.shuffle(&mut order);
    order.truncate(count);
    order.into_iter().map(|i| edges[i]).collect()
}

/// Writes `edges` as a whitespace-separated edge list, one `u v` per line.
pub fn write_edge_list(edges: &[(u32, u32)], path: &Path) -> std::io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# generated by perfbench")?;
    for &(u, v) in edges {
        writeln!(out, "{u} {v}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_graph_is_simple_and_covers_every_node() {
        let shape = GraphShape {
            nodes: 500,
            edges_per_node: 3,
            community_size: 50,
            mixing: 0.1,
        };
        let edges = community_powerlaw(shape, 7);
        assert_eq!(edges, community_powerlaw(shape, 7), "seeded");
        let set = EdgeSet::new(edges.iter().copied());
        let mut degree = vec![0; 500];
        for &(u, v) in &edges {
            assert_ne!(u, v);
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        assert!(degree.iter().all(|&d| d > 0));
        let distinct: std::collections::HashSet<_> =
            edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        assert_eq!(distinct.len(), edges.len());
        assert!(set.contains(edges[0].1, edges[0].0));

        let split = hold_out(&edges, 500, 0.1, 3);
        assert_eq!(split.positive.len(), edges.len() / 10);
        assert_eq!(split.negative.len(), split.positive.len());
        assert_eq!(split.train.len() + split.positive.len(), edges.len());
        for &(u, v) in &split.negative {
            assert!(!set.contains(u, v));
        }
    }
}
