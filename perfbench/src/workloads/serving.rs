//! What the two HTTP workloads share: timed server launches, the pool's own counters,
//! the checkpointed snapshot bytes, the mapper work their reads cause, and the per-layer
//! metrics of the route handlers' spans.

use crate::report::Report;
use crate::stats::percentile;
use crate::sut::{ServerProc, READY_POLL};
use crate::trace;
use crate::RunArgs;
use pi_server::{PoolGauge, SessionPool};
use std::time::Duration;

/// Fresh server launches timed for `setup_s` (the last one serves the run).
pub const SETUP_LAUNCHES: usize = 9;
/// How long a server may take to become ready, or the backlog to drain.
pub const PATIENCE: Duration = Duration::from_secs(60);

/// Launches [`SETUP_LAUNCHES`] fresh servers with per-tenant queues of `queue_depth`
/// statements (`None`: the default bound), timing launch to `/readyz` 200; all but the
/// last are killed.  Returns the timings and the live server.
pub fn launch_timed(
    args: &RunArgs,
    tag: &str,
    queue_depth: Option<usize>,
) -> std::io::Result<(Vec<f64>, ServerProc, std::path::PathBuf)> {
    let mut setup = Vec::with_capacity(SETUP_LAUNCHES);
    for i in 0..SETUP_LAUNCHES {
        let dir = args.work_dir.join(format!("{tag}-{i}"));
        let server = ServerProc::launch(&dir, queue_depth)?;
        setup.push(server.wait_ready(PATIENCE, READY_POLL)?.as_secs_f64());
        if i + 1 == SETUP_LAUNCHES {
            return Ok((setup, server, dir));
        }
        server.kill()?;
        std::fs::remove_dir_all(&dir)?;
    }
    unreachable!("SETUP_LAUNCHES is at least one")
}

/// Waits until an in-process `pool` has no queued statement.
pub fn drain(pool: &SessionPool) {
    while pool.gauge().queued > 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Records the pool's own counters: work done on its threads (workers, checkpoints,
/// recovery) that no span of the benchmark's can see.
pub fn gauge_metrics(report: &mut Report, gauge: &PoolGauge) {
    if let Some(journal) = &gauge.journal {
        report.metric(
            "journal.records",
            "count",
            journal.appended_records as f64,
            1,
        );
        report.metric("journal.bytes", "bytes", journal.appended_bytes as f64, 1);
        report.metric("journal.fsyncs", "count", journal.syncs as f64, 1);
        report.metric(
            "journal.records_per_fsync",
            "ratio",
            journal.appended_records as f64 / journal.syncs.max(1) as f64,
            1,
        );
    }
    report.metric(
        "pool.rejected_batches",
        "count",
        gauge.rejected_batches as f64,
        1,
    );
    report.metric("pool.checkpoints", "count", gauge.checkpoints as f64, 1);
    report.metric(
        "pool.recovered_statements",
        "count",
        gauge.recovered_statements as f64,
        1,
    );
    report.metric("pool.recovery_ms", "ms", gauge.last_recovery_ms, 1);
    report.metric("pool.rehydrations", "count", gauge.rehydrations as f64, 1);
    report.metric("parse.ms", "ms", gauge.parse_ms, 1);
    report.metric("parse.statements", "count", gauge.queries as f64, 1);
    report.metric("parse.skipped", "count", gauge.skipped as f64, 1);
    report.metric("graph.mining_ms", "ms", gauge.mining_ms, 1);
    report.metric("mapper.ms", "ms", gauge.mapping_ms, 1);
    report.metric("codec.persist_ms", "ms", gauge.persist_ms, 1);
    report.metric("codec.restore_ms", "ms", gauge.restore_ms, 1);
}

/// Bytes of the checkpointed tenant snapshots (`*.pisnap` spill files) in `dir`.
pub fn spill_bytes(dir: &std::path::Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.path().extension().is_some_and(|e| e == "pisnap") {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// Mapper work seen by the benchmark's reads: a read whose version moved since the
/// tenant's previous read re-ran the mapper over the tenant's records.
#[derive(Debug, Default)]
pub struct MapTally {
    last: Vec<Option<u64>>,
    /// Snapshots that re-ran the mapper.
    pub maps: usize,
    /// Diff records those maps took in.
    pub records_in: usize,
}

impl MapTally {
    /// Counts one read of `tenant` at `version` over `records` diff records.
    pub fn read(&mut self, tenant: usize, version: u64, records: usize) {
        if self.last.len() <= tenant {
            self.last.resize(tenant + 1, None);
        }
        if self.last[tenant] != Some(version) {
            self.last[tenant] = Some(version);
            self.maps += 1;
            self.records_in += records;
        }
    }
}

/// Per-layer metrics from the handler spans: self times and counts of `wire`,
/// `pool.enqueue`, `pool.snapshot` and `ui`, body bytes, and the HTTP overhead (the
/// untraced `POST` round trip minus the traced handler time, medians).
pub fn record_request_layers(report: &mut Report, spans: &[trace::Span], untraced_post_ms: &[f64]) {
    let totals = trace::layer_totals(spans);
    let layer = |name: &str| totals.get(name).copied().unwrap_or_default();
    let ms = |name: &str| layer(name).self_ns as f64 / 1e6;
    report.metric(
        "wire.decode_ms",
        "ms",
        ms("wire"),
        layer("wire").count as usize,
    );
    report.metric(
        "pool.enqueue_ms",
        "ms",
        ms("pool.enqueue"),
        layer("pool.enqueue").count as usize,
    );
    report.metric(
        "pool.snapshot_ms",
        "ms",
        ms("pool.snapshot"),
        layer("pool.snapshot").count as usize,
    );
    report.metric("ui.render_ms", "ms", ms("ui"), layer("ui").count as usize);
    // A write request is one whose span holds a `wire` child.
    let write_requests: Vec<usize> = spans
        .iter()
        .filter(|s| s.name == "wire")
        .filter_map(|s| s.parent)
        .collect();
    let handler_ms: Vec<f64> = write_requests
        .iter()
        .map(|&r| spans[r].duration_ns() as f64 / 1e6)
        .collect();
    let overhead = percentile(untraced_post_ms, 0.5).unwrap_or(f64::NAN)
        - percentile(&handler_ms, 0.5).unwrap_or(f64::NAN);
    report.metric("http.overhead_ms", "ms", overhead, handler_ms.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_map_is_counted_when_the_version_moves() {
        let mut tally = MapTally::default();
        tally.read(3, 10, 100);
        tally.read(3, 10, 100);
        tally.read(3, 12, 150);
        tally.read(0, 12, 7);
        assert_eq!((tally.maps, tally.records_in), (3, 257));
    }
}
