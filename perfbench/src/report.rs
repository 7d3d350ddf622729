//! Metric names, summaries and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: every untraced run of every workload reports each.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("embed_s", "s"),
    ("link_auc", "ratio"),
    ("comm_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("serve_qps", "queries/s"),
    ("recall_at_10", "ratio"),
];

/// Per-layer metrics: every traced run of every workload reports each, 0
/// where the workload bypasses the layer (the `cluster.*` and
/// `serve.shard_*` metrics on the in-process workloads).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.load_s", "s"),
    ("partition.s", "s"),
    ("partition.local_edge_fraction", "ratio"),
    ("partition.max_node_share", "ratio"),
    ("walks.s", "s"),
    ("walks.steps_per_s", "steps/s"),
    ("walks.tokens", "count"),
    ("walks.rounds", "count"),
    ("walks.messages", "count"),
    ("walks.mb", "MB"),
    ("walks.max_machine_step_share", "ratio"),
    ("walks.barrier_s", "s"),
    ("walks.peak_walker_mb", "MB"),
    ("embed.train_s", "s"),
    ("embed.pairs_per_s", "pairs/s"),
    ("embed.pairs", "count"),
    ("embed.barrier_s", "s"),
    ("embed.sync_mb", "MB"),
    ("embed.replica_mb", "MB"),
    ("cluster.walk_s", "s"),
    ("cluster.train_s", "s"),
    ("cluster.serve_s", "s"),
    ("cluster.wire_s", "s"),
    ("cluster.frames", "count"),
    ("cluster.sent_mb", "MB"),
    ("cluster.recv_mb", "MB"),
    ("serve.load_s", "s"),
    ("serve.index_s", "s"),
    ("serve.lsh_build_s", "s"),
    ("serve.candidates_per_query", "count"),
    ("serve.candidate_cpu_s", "s"),
    ("serve.rerank_cpu_s", "s"),
    ("serve.avg_batch", "count"),
    ("serve.shard_scan_s", "s"),
    ("serve.shard_reply_mb", "MB"),
    ("serve.closed_qps", "queries/s"),
    ("serve.query_p50_ms", "ms"),
    ("serve.query_p99_ms", "ms"),
    ("serve.generator_lag_ms", "ms"),
];

/// Bytes in the megabytes every `*_mb` metric reports.
pub const MB: f64 = 1e6;

/// Median; the mean of the middle two for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank quantile, `q` in `(0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-round readings of named metrics, summarised by their median.
#[derive(Default)]
pub struct Readings(BTreeMap<&'static str, Vec<f64>>);

impl Readings {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| median(v))
    }
}

/// Counts of the operations a run attempted and saw fail.
#[derive(Clone, Copy, Debug, Default)]
pub struct Operations {
    pub jobs: u64,
    pub requests: u64,
    pub rejected: u64,
}

impl Operations {
    pub fn attempted(&self) -> u64 {
        self.jobs + self.requests
    }
}

/// Prints every metric of `names` by name and unit, then the result line
/// (the last line of standard output).
///
/// # Panics
/// Panics if `readings` lacks one of `names`: a run reports all of them.
pub fn print_result(names: &[(&str, &str)], readings: &Readings, ops: Operations) {
    let mut fields = Vec::new();
    for &(name, unit) in names {
        let value = readings
            .median(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        println!("  {name:<32} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "  jobs {} + requests {} attempted, {} rejected",
        ops.jobs, ops.requests, ops.rejected
    );
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted(),
        ops.rejected,
        fields.join(", ")
    );
}

/// `value` as a JSON number with all its digits.
fn json_number(value: f64) -> String {
    assert!(value.is_finite(), "metric value {value} is not finite");
    // Debug prints the shortest text that reads back as the same f64.
    format!("{value:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_are_hand_checked() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        assert_eq!(json_number(0.25), "0.25");
        assert_eq!(json_number(3.0), "3.0");
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let count = names.len();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
