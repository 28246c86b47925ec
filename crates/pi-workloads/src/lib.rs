//! # pi-workloads — synthetic query logs standing in for the paper's datasets
//!
//! The paper evaluates on three query logs we cannot redistribute: a sample of the Sloan
//! Digital Sky Survey (SDSS) SkyServer log, a synthetic OLAP random-walk log over the OnTime
//! flight-delay dataset, and ad-hoc logs exported from students' Tableau sessions.  This crate
//! generates statistically similar stand-ins:
//!
//! * [`sdss`] — per-client logs built from client *archetypes* distilled from the paper's own
//!   SDSS examples (Listing 1, Listing 6): object lookups that change only the table / id
//!   attribute / literal, TOP-clause toggles over UDF joins, spectro range scans.  Within a
//!   client the transformations are highly structured and recurring; across clients they are
//!   heterogeneous — exactly the properties the recall/precision/runtime experiments rely on.
//! * [`olap`] — the random walk of §7 (Listing 2): each step adds, removes, or modifies a
//!   random dimension, aggregate, or filter of an OnTime OLAP query; plus
//!   [`olap::repetitive_walk`], which revisits a small pool of walk states Zipf-style — the
//!   duplicate-heavy log shape real query logs overwhelmingly have, and the workload the
//!   mining dedup memo is benchmarked on.
//! * [`adhoc`] — open-ended exploration with little recurring structure (Listing 3), used to
//!   show when Precision Interfaces does *not* generalise.
//! * [`frames`] — the OLAP walk re-rendered in the `pi-frames` dataframe dialect, plus a
//!   mixed SQL + frames interleaving of the same walk: the cross-dialect workload class the
//!   multi-front-end refactor opens up (real logs span many query languages).
//! * [`trace`] — *lazy* trace-scale ingest streams (10⁵–10⁶ lines): Zipf-revisited shape
//!   pools, mixed SQL + frames, configurable garbage — the streaming-ingest benchmark's
//!   workload, generated in `O(shapes)` memory.
//! * [`traces`] — simulated widget interaction timing traces used to fit the widget cost
//!   functions (§4.3, Example 4.4).
//! * [`mix`] — multi-client interleaving and train/hold-out splitting utilities used by the
//!   multi-client and cross-client experiments (§7.2.3, §7.2.4).
//!
//! All generators are deterministic given a seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adhoc;
pub mod frames;
pub mod mix;
pub mod olap;
pub mod sdss;
pub mod trace;
pub mod traces;

use pi_ast::{Dialect, Frontend, Node};

/// A generated query log: parsed queries in log order, plus the text they came from and
/// the dialect each entry was written in.
///
/// A log can be single-dialect (the SQL generators, [`frames::dataframe_walk`]) or mixed
/// ([`frames::mixed_walk`]) — the per-entry `dialects` vector is what a
/// [`Session`](https://docs.rs/pi-core) push needs to tag queries with their originating
/// front-end.
#[derive(Debug, Clone, Default)]
pub struct QueryLog {
    /// Parsed queries in log order.
    pub queries: Vec<Node>,
    /// The source text of each query (same order).
    pub text: Vec<String>,
    /// The dialect each query was written in (same order).
    pub dialects: Vec<Dialect>,
    /// A label describing the log (client id, generator name…).
    pub label: String,
}

impl QueryLog {
    /// Creates a log from SQL strings; see [`QueryLog::from_text`].
    pub fn from_sql<I: IntoIterator<Item = String>>(label: &str, sql: I) -> Self {
        Self::from_text(&pi_sql::SqlFrontend, label, sql)
    }

    /// Creates a log by parsing each string with the given front-end (panics on generator
    /// bugs — the generators only emit text their front-end's dialect supports).
    ///
    /// Parses are **interned by text**: a repeated statement (query logs are overwhelmingly
    /// repetitive) is parsed once, and its later occurrences share the same `Node`
    /// allocation — a refcount bump instead of a re-parse, exactly what a production
    /// ingest's parse cache would do.  Sharing is unobservable downstream (property-tested
    /// by the shared-vs-fresh mining tests) but lets structural dedup confirm duplicates by
    /// pointer identity.
    pub fn from_text<F, I>(frontend: &F, label: &str, texts: I) -> Self
    where
        F: Frontend,
        I: IntoIterator<Item = String>,
    {
        let text: Vec<String> = texts.into_iter().collect();
        let dialect = frontend.dialect();
        let queries = {
            let mut interned: std::collections::HashMap<&str, Node> =
                std::collections::HashMap::new();
            text.iter()
                .map(|q| {
                    interned
                        .entry(q)
                        .or_insert_with(|| {
                            frontend.parse_one(q).unwrap_or_else(|e| {
                                panic!("generator produced bad {dialect} `{q}`: {e}")
                            })
                        })
                        .clone()
                })
                .collect()
        };
        QueryLog {
            dialects: vec![dialect; text.len()],
            queries,
            text,
            label: label.to_string(),
        }
    }

    /// Creates a mixed-dialect log: each entry is parsed by the front-end its dialect
    /// names in `frontends` (panics on generator bugs or unregistered dialects).
    ///
    /// Parses are interned by `(dialect, text)`, like [`QueryLog::from_text`] — but the
    /// intern map stores *row indices* into the log under a 64-bit key (verified by exact
    /// text + dialect comparison), so a duplicate-heavy trace never clones statement text
    /// just to use it as a map key.
    pub fn from_tagged<I>(frontends: &pi_ast::Frontends, label: &str, entries: I) -> Self
    where
        I: IntoIterator<Item = (Dialect, String)>,
    {
        use std::hash::{Hash, Hasher};
        let mut log = QueryLog {
            label: label.to_string(),
            ..QueryLog::default()
        };
        // hash(dialect, text) → first log rows with that hash; text lives in the log only.
        let mut interned: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for (dialect, text) in entries {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            dialect.name().hash(&mut h);
            text.hash(&mut h);
            let bucket = interned.entry(h.finish()).or_default();
            let hit = bucket
                .iter()
                .copied()
                .find(|&i| log.dialects[i] == dialect && log.text[i] == text);
            let query = match hit {
                Some(i) => log.queries[i].clone(),
                None => {
                    bucket.push(log.queries.len());
                    let frontend = frontends
                        .get(dialect)
                        .unwrap_or_else(|| panic!("no front-end registered for dialect {dialect}"));
                    frontend.parse_one(&text).unwrap_or_else(|e| {
                        panic!("generator produced bad {dialect} `{text}`: {e}")
                    })
                }
            };
            log.queries.push(query);
            log.text.push(text);
            log.dialects.push(dialect);
        }
        log
    }

    /// Number of queries in the log.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the log is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The queries paired with their dialect tags, in log order — what a mixed-front-end
    /// session ingests one `push_tagged` at a time.
    pub fn tagged_queries(&self) -> impl Iterator<Item = (Dialect, Node)> + '_ {
        self.dialects
            .iter()
            .copied()
            .zip(self.queries.iter().cloned())
    }

    /// The log truncated to its first `n` queries.
    pub fn truncated(&self, n: usize) -> QueryLog {
        QueryLog {
            queries: self.queries.iter().take(n).cloned().collect(),
            text: self.text.iter().take(n).cloned().collect(),
            dialects: self.dialects.iter().take(n).copied().collect(),
            label: self.label.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sql_parses_and_preserves_order() {
        let log = QueryLog::from_sql(
            "demo",
            ["SELECT a FROM t".to_string(), "SELECT b FROM t".to_string()],
        );
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
        assert_eq!(log.text[0], "SELECT a FROM t");
        assert_eq!(log.truncated(1).len(), 1);
        assert_eq!(log.truncated(10).len(), 2);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = sdss::client_log(sdss::ClientArchetype::ObjectLookup, 7, 40);
        let b = sdss::client_log(sdss::ClientArchetype::ObjectLookup, 7, 40);
        assert_eq!(a.text, b.text);
        let a = olap::random_walk(3, 30);
        let b = olap::random_walk(3, 30);
        assert_eq!(a.text, b.text);
        let a = adhoc::exploration_log(11, 25);
        let b = adhoc::exploration_log(11, 25);
        assert_eq!(a.text, b.text);
    }
}
