//! Reference-only figures: the comparison systems of the paper on the
//! in-process workloads' inputs. They are printed, not gated, and no
//! workload runs them.

use std::time::Instant;

use distger_core::{run_pipeline, DistGerConfig, PartitionerChoice};
use distger_graph::io::load_edge_list;

use crate::checks::link_auc;
use crate::embed::{self, bench_config, EmbedWorkload};
use crate::report::MB;
use crate::{Run, MACHINES};

/// Runs KnightKing, HuGE-D, DistGER on one machine, DistGER with the
/// workload-balanced partition and DistGER itself on the workload's input,
/// and prints one row each.
pub fn run(workload: &EmbedWorkload, run: &Run) -> Result<(), String> {
    let (split, path) = embed::write_inputs(workload, run)?;
    let graph = load_edge_list(&path, false).map_err(|e| format!("load graph: {e}"))?;
    let distger = embed::config();
    let systems = [
        (
            "KnightKing",
            bench_config(DistGerConfig::knightking(MACHINES)),
        ),
        ("HuGE-D", bench_config(DistGerConfig::huge_d(MACHINES))),
        (
            "DistGER, 1 machine",
            bench_config(DistGerConfig::distger(1)),
        ),
        (
            "DistGER, workload-balanced",
            distger.with_partitioner(PartitionerChoice::WorkloadBalanced),
        ),
        ("DistGER", distger),
    ];
    println!(
        "{}: {} nodes, {} training edges",
        workload.name,
        graph.num_nodes(),
        graph.num_edges()
    );
    println!(
        "  {:<28} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10} {:>9} {:>7}",
        "system", "e2e s", "part s", "walk s", "train s", "tokens", "messages", "comm MB", "AUC"
    );
    for (name, config) in systems {
        let t = Instant::now();
        let result = run_pipeline(&graph, &config);
        let e2e = t.elapsed().as_secs_f64();
        let auc = link_auc(&result.embeddings, &split.positive, &split.negative);
        println!(
            "  {:<28} {:>8.2} {:>8.3} {:>8.2} {:>8.2} {:>10} {:>10} {:>9.2} {:>7.3}",
            name,
            e2e,
            result.times.partition_secs,
            result.times.sampling_secs,
            result.times.training_secs,
            result.corpus_tokens,
            result.walk_comm.messages,
            (result.walk_comm.bytes + result.train_stats.sync_comm.bytes) as f64 / MB,
            auc
        );
    }
    Ok(())
}
