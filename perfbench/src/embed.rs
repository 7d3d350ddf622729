//! The in-process workloads: `run_pipeline` on a generated stand-in graph
//! with a held-out edge sample, then the serve phase over the trained
//! embeddings.

use std::path::PathBuf;
use std::time::Instant;

use distger_core::{run_pipeline, DistGerConfig};
use distger_embed::train_distributed;
use distger_graph::io::load_edge_list;
use distger_obs::span;
use distger_walks::run_distributed_walks;

use crate::checks::{
    check_embeddings, check_partition, link_auc, local_edge_fraction, same_bits, AUC_FLOOR,
};
use crate::inputs::{community_powerlaw, hold_out, write_edge_list, GraphShape, HeldOut};
use crate::oracle::{check_walks, EdgeSet, SplitMix64};
use crate::report::MB;
use crate::serving::{serve_local, Traffic};
use crate::spans::{find, pair, total_within};
use crate::{Run, RunTotals, DIM, MACHINES};

/// One in-process workload.
pub struct EmbedWorkload {
    pub name: &'static str,
    pub shape: GraphShape,
}

/// The traffic the in-process serve phases offer: 50 batches of 1,000
/// self-queries straight through the engine (10 `serve_qps` readings, about
/// 2 s of work), then 3,000 Poisson arrivals at
/// 2,000/s and 15,000 requests with 256 outstanding (the admission bound is
/// 1,024, so nothing is shed) through the `Scheduler`, both loops
/// summarised per 1,500 requests.
const TRAFFIC: Traffic = Traffic {
    rate_per_s: 2000.0,
    open_requests: 3000,
    closed_requests: 15_000,
    window_requests: 1500,
    throughput_readings: 10,
    reading_batches: 5,
};

/// Share of the edges held out for link prediction.
const HELD_OUT: f64 = 0.1;

/// Seed of the job's inputs: the graph, the held-out sample and the job's
/// own seed are the same in every run. The walk's stopping rule ends after
/// 10 to 14 rounds on `yt-embed` graphs of seeds 1 to 10 (527k to 738k
/// tokens) and after 7 to 16 on `or-embed` graphs (357k to 814k), so a graph
/// per run seed would move `embed_s` by a quarter between seeds. The run's
/// seed drives the serve traffic instead.
pub const INPUT_SEED: u64 = 1;

/// DistGER (MPGP, InCoM walks, DSGL) on the simulated machines, with the
/// benchmark's settings.
pub fn config() -> DistGerConfig {
    bench_config(DistGerConfig::distger(MACHINES))
}

/// `base` with the benchmark's settings: the input seed, dimension `DIM` and
/// one trainer thread per machine, so training is deterministic.
pub fn bench_config(base: DistGerConfig) -> DistGerConfig {
    let mut config = base.with_seed(INPUT_SEED);
    config.training.dim = DIM;
    config.training.threads = 1;
    config
}

/// Generates the workload's graph and held-out sample and writes the
/// training edges where the program loads them from.
pub fn write_inputs(workload: &EmbedWorkload, run: &Run) -> Result<(HeldOut, PathBuf), String> {
    let edges = community_powerlaw(workload.shape, INPUT_SEED);
    let split = hold_out(&edges, workload.shape.nodes, HELD_OUT, INPUT_SEED);
    let path = run.file(workload.name, "edges");
    write_edge_list(&split.train, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok((split, path))
}

/// What one round works on.
struct Inputs<'a> {
    graph: distger_graph::CsrGraph,
    split: &'a HeldOut,
    config: DistGerConfig,
}

pub fn run(workload: &EmbedWorkload, run: &Run, totals: &mut RunTotals) -> Result<(), String> {
    let nodes = workload.shape.nodes as usize;
    let (split, path) = write_inputs(workload, run)?;
    let config = config();
    let train_edges = EdgeSet::new(split.train.iter().copied());
    let mut rng = SplitMix64::new(run.seed ^ 0x5345_5256);
    // Set-up: the graph load.
    let load = || load_edge_list(&path, false).map_err(|e| format!("load graph: {e}"));
    crate::rounds(run, totals, load, |totals, graph| {
        if graph.num_nodes() != nodes || graph.num_edges() != split.train.len() {
            return Err(format!(
                "loaded {} nodes and {} edges, wrote {nodes} and {}",
                graph.num_nodes(),
                graph.num_edges(),
                split.train.len()
            ));
        }
        let inputs = Inputs {
            graph,
            split: &split,
            config,
        };
        if run.trace {
            traced_round(workload, run, &inputs, &train_edges, &mut rng, totals)
        } else {
            plain_round(workload, run, &inputs, &mut rng, totals)
        }
    })
}

/// The untraced round: end-to-end metrics.
fn plain_round(
    workload: &EmbedWorkload,
    run: &Run,
    inputs: &Inputs,
    rng: &mut SplitMix64,
    totals: &mut RunTotals,
) -> Result<(), String> {
    let nodes = inputs.graph.num_nodes();
    let t = Instant::now();
    let result = run_pipeline(&inputs.graph, &inputs.config);
    let embed_s = t.elapsed().as_secs_f64();
    totals.ops.jobs += 1;
    check_partition(result.partitioning.assignment(), nodes, MACHINES)?;
    check_embeddings(&result.embeddings, nodes, DIM)?;
    let auc = link_auc(
        &result.embeddings,
        &inputs.split.positive,
        &inputs.split.negative,
    );
    if auc < AUC_FLOOR {
        return Err(format!("link AUC {auc} is below {AUC_FLOOR}"));
    }
    let comm = result.walk_comm.bytes + result.train_stats.sync_comm.bytes;
    let serve = serve_local(
        &result.embeddings,
        &run.file(workload.name, "dgeb"),
        &TRAFFIC,
        rng,
    )?;
    let r = &mut totals.readings;
    r.push("embed_s", embed_s);
    r.push("link_auc", auc);
    r.push("comm_mb", comm as f64 / MB);
    serve.record(totals);
    Ok(())
}

/// The traced round: the same job untraced through `run_pipeline`, then
/// layer by layer with the program's spans on; the two must agree bit for
/// bit, and the traced one gives the per-layer metrics.
fn traced_round(
    workload: &EmbedWorkload,
    run: &Run,
    inputs: &Inputs,
    train_edges: &EdgeSet,
    rng: &mut SplitMix64,
    totals: &mut RunTotals,
) -> Result<(), String> {
    let (graph, config) = (&inputs.graph, &inputs.config);
    let nodes = graph.num_nodes();
    let t = Instant::now();
    let untraced = run_pipeline(graph, config);
    let untraced_s = t.elapsed().as_secs_f64();
    totals.ops.jobs += 1;

    distger_obs::set_tracing(true);
    let job = Instant::now();
    let t = Instant::now();
    let partitioning = {
        let _span = span!("bench.partition");
        config.partitioner.partition(graph, MACHINES, config.seed)
    };
    let partition_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let walks = {
        let _span = span!("bench.walks");
        run_distributed_walks(graph, &partitioning, &config.walks)
    };
    let walks_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (embeddings, train) = {
        let _span = span!("bench.train");
        train_distributed(&walks.corpus, MACHINES, &config.training)
    };
    let train_s = t.elapsed().as_secs_f64();
    let traced_s = job.elapsed().as_secs_f64();
    totals.ops.jobs += 1;
    let serve = {
        let _span = span!("bench.serve");
        serve_local(&embeddings, &run.file(workload.name, "dgeb"), &TRAFFIC, rng)
    };
    distger_obs::set_tracing(false);
    let events = distger_obs::drain_all();
    let serve = serve?;

    if !same_bits(&embeddings, &untraced.embeddings) {
        return Err("traced layer-by-layer embeddings differ from run_pipeline's".into());
    }
    if partitioning.assignment() != untraced.partitioning.assignment() {
        return Err("traced partition differs from run_pipeline's".into());
    }
    let max_node_share = check_partition(partitioning.assignment(), nodes, MACHINES)?;
    check_embeddings(&embeddings, nodes, DIM)?;
    let counts = check_walks(
        walks.corpus.walks(),
        train_edges,
        nodes,
        walks.rounds,
        partitioning.assignment(),
        MACHINES,
    )?;
    if counts.cross_machine_hops != walks.comm.messages {
        return Err(format!(
            "{} walker messages, but the corpus crosses machines {} times",
            walks.comm.messages, counts.cross_machine_hops
        ));
    }

    let spans = pair(&events);
    let window = |name: &str| find(&spans, name).ok_or(format!("no {name} span in the trace"));
    let walk_barrier_s = total_within(&spans, "barrier_wait", window("bench.walks")?);
    println!(
        "  walk barrier waits: {walk_barrier_s:.3} s summed over machines; \
         the walk result's superstep_sync_secs reads {:.3} s",
        walks.superstep_sync_secs
    );
    let tokens = walks.corpus.total_tokens() as f64;
    let r = &mut totals.readings;
    r.push("partition.s", partition_s);
    r.push(
        "partition.local_edge_fraction",
        local_edge_fraction(&inputs.split.train, partitioning.assignment()),
    );
    r.push("partition.max_node_share", max_node_share);
    r.push("walks.s", walks_s);
    r.push("walks.steps_per_s", tokens / walks_s);
    r.push("walks.tokens", tokens);
    r.push("walks.rounds", walks.rounds as f64);
    r.push("walks.messages", walks.comm.messages as f64);
    r.push("walks.mb", walks.comm.bytes as f64 / MB);
    r.push(
        "walks.max_machine_step_share",
        counts.max_machine_step_share(),
    );
    r.push("walks.barrier_s", walk_barrier_s);
    r.push("walks.peak_walker_mb", walks.walker_peak_bytes as f64 / MB);
    r.push("embed.train_s", train_s);
    r.push("embed.pairs_per_s", train.pairs_processed as f64 / train_s);
    r.push("embed.pairs", train.pairs_processed as f64);
    r.push(
        "embed.barrier_s",
        total_within(&spans, "barrier_wait", window("bench.train")?),
    );
    r.push("embed.sync_mb", train.sync_comm.bytes as f64 / MB);
    r.push(
        "embed.replica_mb",
        train.avg_machine_memory_bytes as f64 / MB,
    );
    // The multi-process job and the shards are bypassed here.
    for name in [
        "cluster.walk_s",
        "cluster.train_s",
        "cluster.serve_s",
        "cluster.wire_s",
        "cluster.frames",
        "cluster.sent_mb",
        "cluster.recv_mb",
        "serve.shard_scan_s",
        "serve.shard_reply_mb",
    ] {
        r.push(name, 0.0);
    }
    serve.record(totals);
    crate::print_overhead(untraced_s, traced_s);
    run.write_trace(workload.name, &events)
}
