//! Workload inputs, generated from the seed before any timing starts.

use pi_ast::Dialect;
use pi_server::wire::{encode_batch, LogItem};
use pi_workloads::trace::zipf_trace;
use std::sync::Arc;

/// Tenants writing to the server in the HTTP workloads.
pub const TENANTS: usize = 16;
/// Statements per write batch (one `POST /logs` body, or one in-process push).
pub const BATCH: usize = 64;
/// Distinct shapes in each tenant's trace on the serving path.
pub const SERVING_SHAPES: usize = 256;
/// Share of unparseable lines in every trace.
pub const GARBAGE: f64 = 0.01;

/// One tagged log line.
pub type Line = (Dialect, Arc<str>);

/// A deterministic sub-seed for stream `stream` of workload seed `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        ^ 0x5eed
}

/// `n` lines of a `zipf_trace` over `shapes` distinct shapes.
pub fn trace_lines(n: usize, shapes: usize, seed: u64) -> Vec<Line> {
    zipf_trace(n, shapes, GARBAGE, seed)
        .map(|(dialect, line)| (dialect, Arc::from(line)))
        .collect()
}

/// One tenant's identity.
pub fn tenant_id(tenant: usize) -> (String, String) {
    (format!("user-{tenant:02}"), "main".to_string())
}

/// One encoded write batch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The tenant it belongs to.
    pub tenant: usize,
    /// The statements, in order.
    pub item: LogItem,
    /// The `POST /logs` body.
    pub body: String,
}

/// Splits every tenant's lines into [`BATCH`]-statement batches and interleaves them
/// round-robin across tenants (tenant `t`'s `k`-th batch is batch `k * T + t`).
pub fn round_robin_batches(logs: &[Vec<Line>]) -> Vec<Batch> {
    let rounds = logs
        .iter()
        .map(|l| l.len().div_ceil(BATCH))
        .max()
        .unwrap_or(0);
    let mut out = Vec::new();
    for round in 0..rounds {
        for (tenant, lines) in logs.iter().enumerate() {
            let chunk = lines.chunks(BATCH).nth(round);
            let Some(chunk) = chunk else { continue };
            let (user_id, thread_id) = tenant_id(tenant);
            let item = LogItem {
                user_id,
                thread_id,
                queries: chunk.to_vec(),
            };
            let body = encode_batch(std::slice::from_ref(&item));
            out.push(Batch { tenant, item, body });
        }
    }
    out
}

/// Per-tenant serving traces: `TENANTS` tenants with `lines` lines each, over
/// [`SERVING_SHAPES`] shapes, seeded from `seed` and `salt`.
pub fn serving_logs(seed: u64, salt: u64, lines: usize) -> Vec<Vec<Line>> {
    (0..TENANTS)
        .map(|t| {
            trace_lines(
                lines,
                SERVING_SHAPES,
                sub_seed(seed, salt * 1000 + t as u64),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_interleave_tenants_and_cover_every_line() {
        let logs = vec![
            trace_lines(130, 8, 1),
            trace_lines(64, 8, 2),
            trace_lines(1, 8, 3),
        ];
        let batches = round_robin_batches(&logs);
        let tenants: Vec<usize> = batches.iter().map(|b| b.tenant).collect();
        assert_eq!(tenants, vec![0, 1, 2, 0, 0]);
        let sizes: Vec<usize> = batches.iter().map(|b| b.item.queries.len()).collect();
        assert_eq!(sizes, vec![64, 64, 1, 64, 2]);
        assert!(batches[0].body.starts_with("{\"logs\""));
    }

    #[test]
    fn inputs_repeat_for_a_seed() {
        assert_eq!(serving_logs(7, 1, 50), serving_logs(7, 1, 50));
        assert_ne!(serving_logs(7, 1, 50), serving_logs(8, 1, 50));
    }
}
