//! Trace-scale synthetic ingest streams (10⁵–10⁶ lines), generated lazily.
//!
//! The in-memory [`QueryLog`](crate::QueryLog) generators materialise text and parsed trees
//! for the whole log, which is exactly what a trace-scale ingest benchmark must *not* do —
//! the point of `Session::push_stream_tagged` is bounded memory however long the stream.
//! This module generates a realistic million-line stream as an iterator: state held is the
//! pool of distinct query shapes (`O(shapes)`), each `next()` renders one line, and nothing
//! retains the emitted prefix.
//!
//! The stream's shape mirrors what the trace studies report for real query logs:
//!
//! * a pool of `shapes` analyses, drawn from the same OLAP random walk the other
//!   generators use (so shapes differ by a filter literal, a dimension, an aggregate —
//!   paper Listing 2); the walk returns to states it has visited, so fewer of them are
//!   distinct (see [`zipf_trace`]);
//! * positions revisit already-seen shapes **Zipf-style** (weight `1/(r+1)` for the shape
//!   introduced `r` pool-steps ago), with new shapes front-loaded into a warm-up prefix
//!   (the pool drains over the first `~n/16` lines) so the remaining stream is
//!   *stationary*: the full shape mix circulates, the duplicate-heavy `d ≪ n` profile
//!   mining's dedup layers exploit holds steady, and a bounded-memory checkpoint taken
//!   after warm-up sees every distinct tree the trace will ever produce;
//! * each line is rendered in **SQL or the frames dialect** by coin flip — the same
//!   analysis arrives through different front-ends, as in a mixed production log;
//! * a configurable fraction of lines is unparseable **garbage**, exercising the
//!   skip-and-count path.
//!
//! (Not to be confused with [`traces`](crate::traces), the widget interaction *timing*
//! traces used to fit widget cost functions.)

use crate::olap::{walk_states, OlapState};
use pi_ast::Dialect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A lazy, deterministic stream of `(dialect, line)` pairs; see [`zipf_trace`].
#[derive(Debug, Clone)]
pub struct ZipfTrace {
    sql: Vec<String>,
    frames: Vec<String>,
    rng: StdRng,
    n: usize,
    /// New shapes are introduced within the first `horizon` lines (the warm-up prefix);
    /// past it the stream only revisits.
    horizon: usize,
    emitted: usize,
    seen: usize,
    /// Cumulative Zipf weights over the `seen` shapes (`cum[r] = H(r + 1)`), rebuilt only
    /// when an introduction grows `seen` — the per-line draw is a binary search, not an
    /// `O(seen)` harmonic scan (at trace scale the generator shares the consumer's loop,
    /// so its per-line cost shows up in every throughput number).
    cum: Vec<f64>,
    garbage_rate: f64,
    garbage: usize,
}

/// A stream of `n` query-log lines over at most `shapes` distinct analyses revisited
/// Zipf-style, mixed SQL + frames, with a `garbage_rate` fraction of unparseable lines.
///
/// Deterministic for a given `(n, shapes, garbage_rate, seed)`.  Memory is `O(shapes)`:
/// the distinct pool is rendered up front, each emitted line is a fresh `String` (as it
/// would be arriving off a socket), and the stream holds nothing else — feed it straight
/// to `Session::push_stream_tagged`.
///
/// `shapes` is clamped to `1..=n`; `garbage_rate` must be in `[0, 1]`.  The pool holds
/// `shapes` walk states, and the walk returns to states it has visited, so the distinct
/// analyses are fewer: at seed 7, a pool of 256 holds 167 distinct trees and a pool of 32
/// holds 27 (a unit test pins both).
pub fn zipf_trace(n: usize, shapes: usize, garbage_rate: f64, seed: u64) -> ZipfTrace {
    assert!(
        (0.0..=1.0).contains(&garbage_rate),
        "garbage_rate must be within [0, 1], got {garbage_rate}"
    );
    let pool = walk_states(seed, shapes.clamp(1, n.max(1)));
    // Warm-up prefix: long enough to introduce the whole pool even with garbage
    // interleaved, short enough that >90% of the stream runs at the stationary mix.
    let horizon = (n / 16).max(2 * pool.len()).min(n);
    ZipfTrace {
        sql: pool.iter().map(OlapState::to_sql).collect(),
        frames: pool.iter().map(OlapState::to_frames).collect(),
        rng: StdRng::seed_from_u64(0x7a1f_0000 ^ seed),
        n,
        horizon,
        emitted: 0,
        seen: 0,
        cum: Vec::new(),
        garbage_rate,
        garbage: 0,
    }
}

impl ZipfTrace {
    /// Number of walk states in the pool (≥ the distinct trees a consumer will see, since
    /// the walk returns to states it has visited; see [`zipf_trace`]).
    pub fn pool_size(&self) -> usize {
        self.sql.len()
    }

    /// Garbage lines emitted so far.
    pub fn garbage_emitted(&self) -> usize {
        self.garbage
    }
}

impl Iterator for ZipfTrace {
    type Item = (Dialect, String);

    fn next(&mut self) -> Option<(Dialect, String)> {
        if self.emitted >= self.n {
            return None;
        }
        let position = self.emitted;
        self.emitted += 1;
        if self.garbage_rate > 0.0 && self.rng.gen_bool(self.garbage_rate) {
            self.garbage += 1;
            // Unparseable in both dialects; varied so a parse cache cannot help.
            return Some((Dialect::SQL, format!("%% trace garbage #{position} %%")));
        }
        let remaining_new = self.sql.len() - self.seen;
        // Introductions are spread over what is left of the warm-up prefix; if garbage
        // lines ate too many slots the probability saturates at 1 and the stragglers are
        // introduced back-to-back, so the pool is always fully drained by (shortly after)
        // the horizon.
        let left_in_horizon = self.horizon.saturating_sub(position).max(remaining_new);
        let p_new = remaining_new as f64 / left_in_horizon.max(1) as f64;
        let idx = if self.seen == 0 || (remaining_new > 0 && self.rng.gen_bool(p_new)) {
            self.seen += 1;
            let h = self.cum.last().copied().unwrap_or(0.0);
            self.cum.push(h + 1.0 / self.seen as f64);
            self.seen - 1
        } else {
            // Zipf draw over the seen shapes, most recently introduced first: pick the
            // first rank whose cumulative weight covers `u` (weight of rank `r` is
            // `1/(r + 1)`).
            let total = self.cum[self.seen - 1];
            let u = self.rng.gen_range(0.0..total);
            let rank = self.cum.partition_point(|&c| c <= u).min(self.seen - 1);
            self.seen - 1 - rank
        };
        Some(if self.rng.gen_bool(0.5) {
            (Dialect::FRAMES, self.frames[idx].clone())
        } else {
            (Dialect::SQL, self.sql[idx].clone())
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.n - self.emitted;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ZipfTrace {}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Frontend as _;
    use std::collections::HashSet;

    #[test]
    fn traces_are_deterministic_and_sized() {
        let a: Vec<_> = zipf_trace(500, 40, 0.02, 9).collect();
        let b: Vec<_> = zipf_trace(500, 40, 0.02, 9).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert_eq!(zipf_trace(500, 40, 0.02, 9).len(), 500);
        let c: Vec<_> = zipf_trace(500, 40, 0.02, 10).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn non_garbage_lines_parse_in_their_dialect_and_mix_dialects() {
        let mut dialects = HashSet::new();
        let mut garbage = 0usize;
        for (dialect, line) in zipf_trace(400, 24, 0.05, 3) {
            if line.starts_with("%%") {
                garbage += 1;
                assert!(pi_sql::SqlFrontend.parse_one(&line).is_err());
                assert!(pi_frames::FramesFrontend.parse_one(&line).is_err());
                continue;
            }
            dialects.insert(dialect);
            match dialect {
                Dialect::SQL => assert!(pi_sql::SqlFrontend.parse_one(&line).is_ok(), "{line}"),
                Dialect::FRAMES => {
                    assert!(pi_frames::FramesFrontend.parse_one(&line).is_ok(), "{line}")
                }
                other => panic!("unexpected dialect {other}"),
            }
        }
        assert!(dialects.contains(&Dialect::SQL) && dialects.contains(&Dialect::FRAMES));
        // 5% of 400 → expect a handful; the exact count is pinned by determinism anyway.
        assert!(garbage > 0 && garbage < 80, "{garbage} garbage lines");
    }

    #[test]
    fn distinct_text_is_bounded_by_the_pool_and_zipf_skews_repeats() {
        let trace = zipf_trace(2000, 32, 0.0, 7);
        let pool = trace.pool_size();
        // The walk returns to states it has visited, so a pool holds fewer distinct
        // analyses than `shapes`: at seed 7, 27 of 32, and 167 of 256 (the pool behind
        // the 256-shape figures README quotes).
        let distinct = |t: &ZipfTrace| t.sql.iter().collect::<std::collections::HashSet<_>>().len();
        assert_eq!(distinct(&trace), 27);
        assert_eq!(distinct(&zipf_trace(256, 256, 0.0, 7)), 167);
        let mut counts: std::collections::HashMap<String, usize> = Default::default();
        for (_, line) in trace {
            *counts.entry(line).or_default() += 1;
        }
        // SQL and frames renderings double the distinct *text* bound.
        assert!(counts.len() <= 2 * pool, "{} distinct texts", counts.len());
        // Zipf-ish skew: the most-visited text dominates the least-visited one.  (The coin
        // flip splits each shape's visits across two renderings, flattening the histogram
        // relative to the underlying shape distribution — only the skew's presence is
        // asserted, not its exponent.)
        let mut freq: Vec<usize> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        assert!(freq[0] >= 3 * freq[freq.len() - 1], "{freq:?}");
    }

    #[test]
    fn garbage_rate_zero_and_one_are_honoured() {
        assert!(zipf_trace(200, 10, 0.0, 1).all(|(_, l)| !l.starts_with("%%")));
        let mut all_garbage = zipf_trace(200, 10, 1.0, 1);
        assert!(all_garbage.all(|(_, l)| l.starts_with("%%")));
        assert_eq!(all_garbage.garbage_emitted(), 200);
    }
}
