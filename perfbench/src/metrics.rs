//! The metric catalogue: every name the benchmark reports, with its unit.  The lists
//! match `BENCHMARK.json` (a unit test holds them together).

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
    ("read_ms", "ms"),
    ("interfaces_s", "s"),
    ("ingest_sps", "stmt/s"),
];

/// Per-layer metrics, reported by every workload's traced run (zero where the workload
/// does not reach the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.lag_p99_ms", "ms"),
    ("http.requests", "count"),
    ("http.failed", "count"),
    ("http.overhead_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("wire.bytes", "bytes"),
    ("journal.records", "count"),
    ("journal.bytes", "bytes"),
    ("journal.fsyncs", "count"),
    ("journal.records_per_fsync", "ratio"),
    ("pool.enqueue_ms", "ms"),
    ("pool.snapshot_ms", "ms"),
    ("pool.backlog_max", "count"),
    ("pool.rejected_batches", "count"),
    ("pool.checkpoints", "count"),
    ("pool.recovered_statements", "count"),
    ("pool.recovery_ms", "ms"),
    ("pool.rehydrations", "count"),
    ("parse.ms", "ms"),
    ("parse.statements", "count"),
    ("parse.skipped", "count"),
    ("graph.mining_ms", "ms"),
    ("graph.alignments", "count"),
    ("graph.memo_hit_share", "ratio"),
    ("graph.distinct_trees", "count"),
    ("graph.edges", "count"),
    ("graph.diff_records", "count"),
    ("mapper.ms", "ms"),
    ("mapper.maps", "count"),
    ("mapper.records_in", "count"),
    ("mapper.widgets", "count"),
    ("ui.render_ms", "ms"),
    ("ui.bytes", "bytes"),
    ("codec.persist_ms", "ms"),
    ("codec.snapshot_bytes", "bytes"),
    ("codec.restore_ms", "ms"),
    ("codec.hydrate_ms", "ms"),
    ("session.footprint_mb", "MiB"),
    ("trace.e2e_ms", "ms"),
    ("trace.self_sum_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ui::Json;

    fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&spec, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&spec, "per_layer"), owned(PER_LAYER));
    }
}
