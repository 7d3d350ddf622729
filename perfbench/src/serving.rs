//! The serve phase every workload ends with: the trained embeddings go
//! through the binary store into an LSH `QueryEngine`, which answers direct
//! batches, then an open loop of Poisson arrivals and a closed loop with a
//! fixed window of outstanding requests through the `Scheduler`. Every
//! answer is checked against the benchmark's own cosine.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use distger_cluster::SocketTransport;
use distger_embed::Embeddings;
use distger_serve::{
    receive_shard, serve_shard, EmbeddingIndex, PendingQuery, QueryBackend, QueryBatch,
    QueryEngine, Rejected, Scheduler, SchedulerConfig, ServeConfig, ServeEngine,
    ShardedQueryEngine, TopK,
};

use crate::checks::{same_answer, same_bits, RECALL_FLOOR};
use crate::oracle::{brute_force_top_k, cosine, recall, SplitMix64};
use crate::report::quantile;
use crate::RunTotals;

/// Results per query.
pub const K: usize = 10;

/// Closed loop: requests kept outstanding, below the scheduler's admission
/// bound of 1,024 and equal to its largest batch.
const OUTSTANDING: usize = 256;

/// Self-queries in the direct `top_k` batch; the first `RECALL_QUERIES` of
/// them are also checked against the brute-force top-k.
const DIRECT_BATCH: usize = 1000;
const RECALL_QUERIES: usize = 200;

/// The engine configuration every workload serves with: LSH, `K` results,
/// one query thread. With two, each batch waits for both threads, and the
/// in-process throughput followed the host's load: two sets of ten
/// `or-embed` runs minutes apart read 67,000 and 49,000 queries/s while the
/// embedding job moved by 10%.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        backend: QueryBackend::Lsh,
        k: K,
        threads: 1,
        ..ServeConfig::default()
    }
}

/// The traffic one serve phase offers.
#[derive(Clone, Copy, Debug)]
pub struct Traffic {
    /// Open loop: Poisson arrivals per second.
    pub rate_per_s: f64,
    /// Open loop: requests offered.
    pub open_requests: usize,
    /// Closed loop: requests sent.
    pub closed_requests: usize,
    /// Requests per window of each loop. A loop reports the median over its
    /// windows, so a stall of the whole machine decides one window's figure
    /// rather than the run's.
    pub window_requests: usize,
    /// `serve_qps` readings per serve phase.
    pub throughput_readings: usize,
    /// Batches of `DIRECT_BATCH` fresh self-queries behind one `serve_qps`
    /// reading, a few tenths of a second of work. A run reports the median
    /// of its readings, so a spell in which the host lends the process less
    /// CPU moves some readings rather than the run's figure.
    pub reading_batches: usize,
}

/// Set-up of a single-process engine from the binary store.
pub struct Loaded {
    pub embeddings: Embeddings,
    pub engine: QueryEngine,
    pub load_s: f64,
    pub index_s: f64,
    pub lsh_build_s: f64,
}

/// Loads the store at `path` and builds the index and the LSH engine.
pub fn load_engine(path: &Path) -> Result<Loaded, String> {
    let t = Instant::now();
    let embeddings =
        Embeddings::load_binary(path).map_err(|e| format!("load {}: {e}", path.display()))?;
    let load_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let index = EmbeddingIndex::build(&embeddings);
    let index_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let engine = QueryEngine::new(index, serve_config());
    let lsh_build_s = t.elapsed().as_secs_f64();
    Ok(Loaded {
        embeddings,
        engine,
        load_s,
        index_s,
        lsh_build_s,
    })
}

/// What one direct batch measured.
pub struct Direct {
    pub results: Vec<TopK>,
    pub nodes: Vec<u32>,
    /// Wall time of the engine's answer.
    pub serve_s: f64,
    pub candidates_per_query: f64,
    pub candidate_cpu_s: f64,
    pub rerank_cpu_s: f64,
    /// Answers holding fewer than `K` ids, counted by [`check_direct`].
    pub short: u64,
}

/// Answers one batch of self-queries straight through the engine.
pub fn direct_batch<E: ServeEngine>(
    engine: &E,
    embeddings: &Embeddings,
    nodes: Vec<u32>,
) -> Direct {
    let mut batch = QueryBatch::new(embeddings.dim());
    for &node in &nodes {
        batch.push(embeddings.vector(node));
    }
    let t = Instant::now();
    let out = engine.serve(&batch);
    let serve_s = t.elapsed().as_secs_f64();
    let n = nodes.len() as f64;
    Direct {
        results: out.results,
        nodes,
        serve_s,
        candidates_per_query: out.stats.candidates_scored as f64 / n,
        candidate_cpu_s: out.stats.candidate_secs,
        rerank_cpu_s: out.stats.rerank_secs,
        short: 0,
    }
}

/// Answers the traffic's throughput batches straight through the engine and
/// returns, for each reading's batches, their queries per second over the
/// time spent in the engine; every answer is checked.
fn batch_throughput<E: ServeEngine>(
    engine: &E,
    embeddings: &Embeddings,
    traffic: &Traffic,
    rng: &mut SplitMix64,
) -> Result<Vec<f64>, String> {
    let mut qps = Vec::with_capacity(traffic.throughput_readings);
    for _ in 0..traffic.throughput_readings {
        let mut serve_s = 0.0;
        for _ in 0..traffic.reading_batches {
            let batch = direct_batch(
                engine,
                embeddings,
                query_nodes(embeddings, DIRECT_BATCH, rng),
            );
            for (&node, answer) in batch.nodes.iter().zip(&batch.results) {
                check_answer(embeddings, node, answer)?;
            }
            serve_s += batch.serve_s;
        }
        qps.push((traffic.reading_batches * DIRECT_BATCH) as f64 / serve_s);
    }
    Ok(qps)
}

/// Mean recall@K of `answers` against the brute-force cosine top-K.
pub fn recall_at_k(embeddings: &Embeddings, nodes: &[u32], answers: &[TopK]) -> f64 {
    let dim = embeddings.dim();
    let rows: Vec<f32> = (0..embeddings.num_nodes() as u32)
        .flat_map(|v| embeddings.vector(v).iter().copied())
        .collect();
    let total: f64 = nodes
        .iter()
        .zip(answers)
        .map(|(&node, answer)| {
            let expected: Vec<u32> = brute_force_top_k(&rows, dim, embeddings.vector(node), K)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            let got: Vec<u32> = answer.nodes().collect();
            recall(&got, &expected)
        })
        .sum();
    total / nodes.len() as f64
}

/// Checks one answer to the self-query of `node`: at most `K` distinct ids
/// in descending score, each score the cosine of the query and that row.
/// Returns whether the answer holds fewer than `K` ids, which the LSH
/// backend gives when its probed buckets hold fewer than `K` candidates.
pub fn check_answer(embeddings: &Embeddings, node: u32, answer: &TopK) -> Result<bool, String> {
    let neighbors = answer.neighbors();
    let k = K.min(embeddings.num_nodes());
    if neighbors.is_empty() || neighbors.len() > k {
        return Err(format!("query {node}: {} answers", neighbors.len()));
    }
    for (i, n) in neighbors.iter().enumerate() {
        if neighbors[..i].iter().any(|m| m.node == n.node) {
            return Err(format!("query {node}: id {} repeats", n.node));
        }
        if i > 0 && neighbors[i - 1].score < n.score {
            return Err(format!("query {node}: scores not descending"));
        }
        let expected = cosine(embeddings.vector(node), embeddings.vector(n.node));
        if (f64::from(n.score) - expected).abs() > 1e-4 {
            return Err(format!(
                "query {node}: score {} for id {}, cosine is {expected}",
                n.score, n.node
            ));
        }
    }
    Ok(neighbors.len() < k)
}

/// What the two loops measured.
#[derive(Default)]
pub struct Loops {
    /// Open loop: median and 99th percentile latency from when each request
    /// was due, per window of arrivals.
    pub window_p50_ms: Vec<f64>,
    pub window_p99_ms: Vec<f64>,
    /// Open loop: how late the generator submitted each request.
    pub lags_ms: Vec<f64>,
    /// Mean batch the dispatcher flushed during the open loop.
    pub open_avg_batch: f64,
    /// Closed loop: answers per second, per window of answers.
    pub window_qps: Vec<f64>,
    pub attempted: u64,
    pub rejected: u64,
    /// Answers holding fewer than `K` ids.
    pub short: u64,
}

type Sent = (Instant, u32, Result<PendingQuery, Rejected>);

/// Runs the open loop and then the closed loop through `scheduler`, then
/// checks every answer.
pub fn drive<E: ServeEngine>(
    scheduler: &Scheduler<distger_serve::SystemClock, E>,
    embeddings: &Embeddings,
    traffic: &Traffic,
    rng: &mut SplitMix64,
) -> Result<Loops, String> {
    let n = embeddings.num_nodes() as u64;
    let mut loops = Loops::default();
    let client = scheduler.client();

    // Open loop: the arrival schedule is fixed before the first request.
    let mut due = Vec::with_capacity(traffic.open_requests);
    let mut at = 0.0f64;
    for _ in 0..traffic.open_requests {
        at += -(1.0 - rng.unit()).ln() / traffic.rate_per_s;
        due.push((Duration::from_secs_f64(at), rng.below(n) as u32));
    }
    let before = scheduler.stats();
    let (tx, rx) = mpsc::channel::<Sent>();
    let (answered, rejected, latencies) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut answered = Vec::new();
            let mut rejected = 0u64;
            let mut latencies = Vec::new();
            for (due_at, node, sent) in rx {
                match sent.and_then(PendingQuery::wait) {
                    Ok(answer) => {
                        latencies.push(due_at.elapsed().as_secs_f64() * 1e3);
                        answered.push((node, answer));
                    }
                    Err(_) => rejected += 1,
                }
            }
            (answered, rejected, latencies)
        });
        let start = Instant::now();
        for &(offset, node) in &due {
            let due_at = start + offset;
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            loops.lags_ms.push(due_at.elapsed().as_secs_f64() * 1e3);
            let sent = client.submit(embeddings.vector(node));
            tx.send((due_at, node, sent)).expect("collector is running");
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    for window in latencies.chunks_exact(traffic.window_requests) {
        loops.window_p50_ms.push(quantile(window, 0.5));
        loops.window_p99_ms.push(quantile(window, 0.99));
    }
    let after = scheduler.stats();
    loops.open_avg_batch = (after.cache_misses - before.cache_misses) as f64
        / (after.batches - before.batches).max(1) as f64;
    loops.attempted += traffic.open_requests as u64;
    loops.rejected += rejected;
    let mut answers = answered;

    // Closed loop: refill the window as the oldest request completes.
    let mut outstanding: VecDeque<(u32, Result<PendingQuery, Rejected>)> = VecDeque::new();
    let mut sent = 0usize;
    let mut window_start = Instant::now();
    let mut in_window = 0;
    while sent < traffic.closed_requests || !outstanding.is_empty() {
        while sent < traffic.closed_requests && outstanding.len() < OUTSTANDING {
            let node = rng.below(n) as u32;
            outstanding.push_back((node, client.submit(embeddings.vector(node))));
            sent += 1;
        }
        let (node, pending) = outstanding.pop_front().expect("window is not empty");
        match pending.and_then(PendingQuery::wait) {
            Ok(answer) => answers.push((node, answer)),
            Err(_) => loops.rejected += 1,
        }
        in_window += 1;
        if in_window == traffic.window_requests {
            loops
                .window_qps
                .push(in_window as f64 / window_start.elapsed().as_secs_f64());
            window_start = Instant::now();
            in_window = 0;
        }
    }
    loops.attempted += traffic.closed_requests as u64;

    // Checked after the clock stops, so checking costs the loops nothing.
    for (node, answer) in &answers {
        loops.short += u64::from(check_answer(embeddings, *node, answer)?);
    }
    Ok(loops)
}

/// What one serve phase measured, whatever engine answered.
pub struct ServeOutcome {
    pub load_s: f64,
    pub index_s: f64,
    pub lsh_build_s: f64,
    pub direct: Direct,
    pub recall: f64,
    /// `serve_qps` readings.
    pub batch_qps: Vec<f64>,
    pub loops: Loops,
}

impl ServeOutcome {
    /// Adds this phase's readings, latencies and operations to the run's.
    pub fn record(self, run: &mut RunTotals) {
        let r = &mut run.readings;
        for qps in self.batch_qps {
            r.push("serve_qps", qps);
        }
        for qps in self.loops.window_qps {
            r.push("serve.closed_qps", qps);
        }
        for (p50, p99) in self
            .loops
            .window_p50_ms
            .iter()
            .zip(&self.loops.window_p99_ms)
        {
            r.push("serve.query_p50_ms", *p50);
            r.push("serve.query_p99_ms", *p99);
        }
        r.push("recall_at_10", self.recall);
        r.push("serve.load_s", self.load_s);
        r.push("serve.index_s", self.index_s);
        r.push("serve.lsh_build_s", self.lsh_build_s);
        r.push(
            "serve.candidates_per_query",
            self.direct.candidates_per_query,
        );
        r.push("serve.candidate_cpu_s", self.direct.candidate_cpu_s);
        r.push("serve.rerank_cpu_s", self.direct.rerank_cpu_s);
        r.push("serve.avg_batch", self.loops.open_avg_batch);
        run.ops.requests += self.loops.attempted;
        run.ops.rejected += self.loops.rejected;
        run.short_answers += self.loops.short + self.direct.short;
        run.open_windows += self.loops.window_p50_ms.len() as u64;
        run.lags_ms.extend(self.loops.lags_ms);
    }
}

/// Checks a direct batch's answers and measures their recall.
fn check_direct(embeddings: &Embeddings, direct: &mut Direct) -> Result<f64, String> {
    for (&node, answer) in direct.nodes.iter().zip(&direct.results) {
        direct.short += u64::from(check_answer(embeddings, node, answer)?);
    }
    let recall = recall_at_k(
        embeddings,
        &direct.nodes[..RECALL_QUERIES],
        &direct.results[..RECALL_QUERIES],
    );
    if recall < RECALL_FLOOR {
        return Err(format!("LSH recall@{K} {recall} is below {RECALL_FLOOR}"));
    }
    Ok(recall)
}

fn query_nodes(embeddings: &Embeddings, count: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let n = embeddings.num_nodes() as u64;
    (0..count).map(|_| rng.below(n) as u32).collect()
}

/// Exports `embeddings` to the store at `store` and loads it back, as a
/// serving process would; the round trip must keep every bit.
fn export_and_load(embeddings: &Embeddings, store: &Path) -> Result<Loaded, String> {
    embeddings
        .save_binary(store)
        .map_err(|e| format!("save {}: {e}", store.display()))?;
    let loaded = load_engine(store)?;
    if !same_bits(&loaded.embeddings, embeddings) {
        return Err("the binary store changed the embeddings".into());
    }
    Ok(loaded)
}

/// The serve phase in one process: an LSH `QueryEngine` behind the
/// `Scheduler`.
pub fn serve_local(
    embeddings: &Embeddings,
    store: &Path,
    traffic: &Traffic,
    rng: &mut SplitMix64,
) -> Result<ServeOutcome, String> {
    let loaded = export_and_load(embeddings, store)?;
    let nodes = query_nodes(embeddings, DIRECT_BATCH, rng);
    let mut direct = direct_batch(&loaded.engine, embeddings, nodes);
    let recall = check_direct(embeddings, &mut direct)?;
    let batch_qps = batch_throughput(&loaded.engine, embeddings, traffic, rng)?;
    let scheduler = Scheduler::new(loaded.engine, SchedulerConfig::default());
    let loops = drive(&scheduler, embeddings, traffic, rng)?;
    Ok(ServeOutcome {
        load_s: loaded.load_s,
        index_s: loaded.index_s,
        lsh_build_s: loaded.lsh_build_s,
        direct,
        recall,
        batch_qps,
        loops,
    })
}

/// The serve phase sharded over loopback TCP: a coordinator and one worker
/// thread each hold half of the rows and answer on one query thread, and a `ShardedQueryEngine` behind the
/// `Scheduler` scatters every batch and merges the replies. Its direct
/// batch must match the single-process engine bit for bit.
pub fn serve_sharded(
    embeddings: &Embeddings,
    store: &Path,
    traffic: &Traffic,
    rng: &mut SplitMix64,
) -> Result<ServeOutcome, String> {
    let loaded = export_and_load(embeddings, store)?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("address: {e}"))?;
    std::thread::scope(|scope| {
        let worker = scope.spawn(move || -> std::io::Result<()> {
            let mut channel = SocketTransport::worker(addr, Duration::from_secs(10))?;
            let shard = receive_shard(&mut channel)?;
            serve_shard(&mut channel, &shard, None)
        });
        let outcome = coordinate(&listener, &loaded, embeddings, traffic, rng);
        // On an early error the engine's drop has released the worker.
        let joined = worker.join().expect("shard worker thread");
        let outcome = outcome?;
        joined.map_err(|e| format!("shard worker: {e}"))?;
        Ok(outcome)
    })
}

/// The coordinator side of [`serve_sharded`].
fn coordinate(
    listener: &TcpListener,
    loaded: &Loaded,
    embeddings: &Embeddings,
    traffic: &Traffic,
    rng: &mut SplitMix64,
) -> Result<ServeOutcome, String> {
    let channel = SocketTransport::coordinator(listener, 2, 2)
        .map_err(|e| format!("coordinator handshake: {e}"))?;
    let engine = ShardedQueryEngine::new(channel, &loaded.embeddings, serve_config())
        .map_err(|e| format!("distribute shards: {e}"))?;
    let nodes = query_nodes(embeddings, DIRECT_BATCH, rng);
    let mut direct = direct_batch(&engine, embeddings, nodes);
    let single = direct_batch(&loaded.engine, embeddings, direct.nodes.clone());
    if !direct
        .results
        .iter()
        .zip(&single.results)
        .all(|(a, b)| same_answer(a, b))
    {
        return Err("sharded answers differ from the single-process engine".into());
    }
    let recall = check_direct(embeddings, &mut direct)?;
    let batch_qps = batch_throughput(&engine, embeddings, traffic, rng)?;
    let scheduler = Scheduler::new(engine, SchedulerConfig::default());
    let loops = drive(&scheduler, embeddings, traffic, rng)?;
    scheduler
        .into_engine()
        .shutdown()
        .map_err(|e| format!("shut the shards down: {e}"))?;
    Ok(ServeOutcome {
        load_s: loaded.load_s,
        index_s: loaded.index_s,
        lsh_build_s: loaded.lsh_build_s,
        direct,
        recall,
        batch_qps,
        loops,
    })
}
