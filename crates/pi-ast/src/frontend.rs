//! The front-end abstraction: pluggable parsers/renderers over the shared tree model.
//!
//! The paper's pipeline is deliberately language-agnostic — it reasons about subtree
//! differences between trees, never about SQL — and names "any other front-end (SPARQL, a
//! dataframe API, …)" as a design goal.  This module is where that goal becomes an API:
//!
//! * [`Frontend`] — a query language front-end: parse text into [`Node`] trees and render
//!   trees back into text.  `pi-sql` implements it for SQL, `pi-frames` for a method-chain
//!   dataframe dialect; both target the *same* tree shapes, so structurally identical
//!   analyses written in different languages mine into one shared interface.
//! * [`Dialect`] — a lightweight identifier carried per query, so a mixed log remembers
//!   which front-end each query arrived through and the UI can render every closure query
//!   in its originating language.
//! * [`Frontends`] — a small registry of front-ends keyed by dialect, used by sessions to
//!   parse each streamed line and by the HTML/JSON compiler to pick a renderer per subtree.
//!
//! Nothing outside a front-end crate should call a concrete parser/renderer directly; the
//! workspace-level isolation test (`tests/frontend_isolation.rs`) enforces this for
//! `pi-sql`.

use crate::node::Node;
use std::fmt;
use std::sync::Arc;

/// Identifies the query language a query was written in.
///
/// A `Dialect` is a cheap copyable tag (front-ends are code, so a `&'static str` name
/// suffices); equality is by name.  The well-known dialects of this workspace are
/// [`Dialect::SQL`] and [`Dialect::FRAMES`]; other front-ends can mint their own with
/// [`Dialect::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Dialect(&'static str);

impl Dialect {
    /// The SQL dialect implemented by `pi-sql`.
    pub const SQL: Dialect = Dialect("sql");
    /// The method-chain dataframe dialect implemented by `pi-frames`.
    pub const FRAMES: Dialect = Dialect("frames");

    /// A dialect with the given name (for front-ends outside this workspace).
    pub const fn new(name: &'static str) -> Dialect {
        Dialect(name)
    }

    /// The dialect's name, as shown in UI specs and diagnostics.
    pub const fn name(self) -> &'static str {
        self.0
    }
}

/// The workspace's founding dialect: untagged queries (hand-built trees, legacy entry
/// points) default to SQL.
impl Default for Dialect {
    fn default() -> Self {
        Dialect::SQL
    }
}

impl fmt::Display for Dialect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.0)
    }
}

/// The deepest nesting a front-end parses.
///
/// Each parenthesis that opens a nested expression, subquery or argument list, each
/// `CASE`, and each prefix operator (`NOT`, `~`, unary `-` and `+`) is one level; a
/// statement nested deeper is a parse error at the token that crosses the bound.  The
/// parsers recurse once per level, so without the bound one hostile statement (ten thousand
/// `(`) would overflow a worker thread's stack and abort the process, not just fail to
/// parse.  Generated workloads nest at most a handful of levels.
pub const MAX_NESTING: usize = 128;

/// A parse failure reported by a front-end, normalised across languages.
///
/// Concrete front-ends keep their own rich error types; this is the lowest common
/// denominator the dialect-agnostic layers (sessions, pipelines) work with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontendError {
    /// The dialect whose parser rejected the input.
    pub dialect: Dialect,
    /// A human-readable description of the failure.
    pub message: String,
}

impl FrontendError {
    /// Creates an error for the given dialect.
    pub fn new(dialect: Dialect, message: impl Into<String>) -> Self {
        FrontendError {
            dialect,
            message: message.into(),
        }
    }
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} parse error: {}", self.dialect, self.message)
    }
}

impl std::error::Error for FrontendError {}

/// A bounded sample of recent parse failures, for skip-and-count streaming ingestion.
///
/// Streaming a million-query trace with a few percent of garbage lines must not allocate a
/// `FrontendError` (dialect + formatted message) per failure — at trace scale that is tens
/// of thousands of throwaway `String`s.  An `ErrorSample` keeps an exact *count* of every
/// failure but materialises only a capped window of them: it records every error until the
/// ring is full, then refreshes one slot per [`ErrorSample::THIN_EVERY`] further failures
/// (dropping the oldest), so the sample stays recent-ish while the steady-state allocation
/// rate is ~1/128th of the error rate.  [`ErrorSample::offer_with`] takes a closure so
/// callers can skip *formatting* the error entirely when it will not be recorded —
/// [`ErrorSample::would_record`] tells them in advance.
#[derive(Debug, Clone, Default)]
pub struct ErrorSample {
    cap: usize,
    seen: usize,
    entries: std::collections::VecDeque<FrontendError>,
}

impl ErrorSample {
    /// Default ring capacity used by sessions.
    pub const DEFAULT_CAPACITY: usize = 16;
    /// Once the ring is full, one further error in this many refreshes a slot.
    pub const THIN_EVERY: usize = 128;

    /// A sample retaining at most `cap` errors (0 disables retention; counting still works).
    pub fn new(cap: usize) -> Self {
        ErrorSample {
            cap,
            seen: 0,
            entries: std::collections::VecDeque::with_capacity(cap.min(64)),
        }
    }

    /// Rebuilds a sample from persisted parts: the ring capacity, the exact failure count
    /// and the retained window (oldest first, truncated to `cap`).  This is the snapshot
    /// codec's restore path — `seen` is preserved exactly even though most of the counted
    /// failures were never materialised.
    pub fn from_parts(cap: usize, seen: usize, entries: Vec<FrontendError>) -> Self {
        let mut ring: std::collections::VecDeque<FrontendError> = entries.into();
        while ring.len() > cap {
            ring.pop_front();
        }
        ErrorSample {
            cap,
            seen: seen.max(ring.len()),
            entries: ring,
        }
    }

    /// The ring capacity this sample was created with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total number of failures offered, recorded or not.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Number of failures currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no failure has been retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when the *next* [`ErrorSample::offer_with`] will invoke its closure.  Callers
    /// on a hot path can test this first and hand in a pre-formatted error only when it
    /// will actually be kept.
    pub fn would_record(&self) -> bool {
        self.cap != 0 && (self.entries.len() < self.cap || (self.seen + 1) % Self::THIN_EVERY == 0)
    }

    /// Counts one failure, materialising it (via `make`) only if it will be retained.
    pub fn offer_with(&mut self, make: impl FnOnce() -> FrontendError) {
        let record = self.would_record();
        self.seen += 1;
        if record {
            if self.entries.len() == self.cap {
                self.entries.pop_front();
            }
            self.entries.push_back(make());
        }
    }

    /// The retained failures, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &FrontendError> {
        self.entries.iter()
    }
}

/// A query language front-end: text ⇄ [`Node`] trees.
///
/// Implementations must target the shared tree shapes (same clause order, same node kinds,
/// same attribute names) so that structurally identical analyses written in different
/// dialects produce *identical* trees and therefore diff cleanly against each other —
/// that is what lets a mixed SQL + dataframe log mine into one interface.
///
/// Text comes in by two routes: [`Frontend::parse_statements_lossy`] for a log fragment,
/// which every session ingest takes, and [`Frontend::parse_one`] for exactly one statement.
/// `render` must be total (any tree renders to *something* readable, falling back to a
/// generic notation for constructs the language lacks); parsing may be partial.  For trees
/// the front-end itself produced, `parse_one(render(t))` must be structurally identical to
/// `t` (property-tested per front-end in `tests/properties.rs`).
pub trait Frontend: fmt::Debug + Send + Sync {
    /// The dialect this front-end implements.
    fn dialect(&self) -> Dialect;

    /// Skip-and-count streaming parse of a fragment of one or more `;`-separated
    /// statements: appends each well-formed statement in `text` to `out`, counts every
    /// malformed one into `errors` (which retains only a bounded sample), and returns the
    /// number skipped.  A malformed statement never discards its neighbours.
    ///
    /// Implementations should hand [`ErrorSample::offer_with`] a closure that formats the
    /// [`FrontendError`] on demand, so a garbage-heavy trace costs no per-failure
    /// allocation.
    fn parse_statements_lossy(
        &self,
        text: &str,
        out: &mut Vec<Node>,
        errors: &mut ErrorSample,
    ) -> usize;

    /// Parses exactly one statement.  The whole text is one statement, so a `;` inside a
    /// string literal stays part of the literal (`… WHERE name = 'a;b'`).
    fn parse_one(&self, text: &str) -> Result<Node, FrontendError>;

    /// Renders a tree back into this front-end's concrete syntax.
    fn render(&self, node: &Node) -> String;

    /// [`Frontend::render`] with all runs of whitespace collapsed (test assertions,
    /// compact display labels).
    fn render_compact(&self, node: &Node) -> String {
        self.render(node)
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A registry of front-ends keyed by [`Dialect`].
///
/// The first registered front-end is the *default*: it handles untagged text and serves as
/// the rendering fallback for dialects the registry does not know.  Registering a second
/// front-end for the same dialect replaces the first.
#[derive(Debug, Clone, Default)]
pub struct Frontends {
    entries: Vec<Arc<dyn Frontend>>,
}

impl Frontends {
    /// An empty registry.
    pub fn new() -> Self {
        Frontends::default()
    }

    /// Adds a front-end (builder style); see [`Frontends::register`].
    pub fn with(mut self, frontend: impl Frontend + 'static) -> Self {
        self.register(Arc::new(frontend));
        self
    }

    /// Registers a front-end, replacing any previous one for the same dialect (a
    /// replacement keeps the original's registration slot, so replacing the default
    /// front-end keeps it the default).
    pub fn register(&mut self, frontend: Arc<dyn Frontend>) {
        let dialect = frontend.dialect();
        match self.entries.iter_mut().find(|f| f.dialect() == dialect) {
            Some(slot) => *slot = frontend,
            None => self.entries.push(frontend),
        }
    }

    /// The front-end registered for a dialect.
    pub fn get(&self, dialect: Dialect) -> Option<&Arc<dyn Frontend>> {
        self.entries.iter().find(|f| f.dialect() == dialect)
    }

    /// The default front-end (the first registered), if any.
    pub fn default_frontend(&self) -> Option<&Arc<dyn Frontend>> {
        self.entries.first()
    }

    /// The default front-end's dialect, when the registry is non-empty.
    pub fn default_dialect(&self) -> Option<Dialect> {
        self.default_frontend().map(|f| f.dialect())
    }

    /// The registered dialects, in registration order.
    pub fn dialects(&self) -> Vec<Dialect> {
        self.entries.iter().map(|f| f.dialect()).collect()
    }

    /// Number of registered front-ends.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no front-end is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders a tree in the given dialect, falling back to the default front-end when the
    /// dialect is unknown, and to the generic tree printer when the registry is empty.
    pub fn render(&self, dialect: Dialect, node: &Node) -> String {
        match self.get(dialect).or_else(|| self.default_frontend()) {
            Some(frontend) => frontend.render(node),
            None => crate::pretty(node).to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeKind;

    /// A toy front-end for the registry tests, which only render: column nodes render as
    /// `leaf:<name>`.
    #[derive(Debug)]
    struct Toy(Dialect);

    impl Frontend for Toy {
        fn dialect(&self) -> Dialect {
            self.0
        }

        fn parse_statements_lossy(&self, _: &str, _: &mut Vec<Node>, _: &mut ErrorSample) -> usize {
            unimplemented!("the registry tests only render")
        }

        fn parse_one(&self, _: &str) -> Result<Node, FrontendError> {
            unimplemented!("the registry tests only render")
        }

        fn render(&self, node: &Node) -> String {
            format!("leaf:{}", node.attr_str("name").unwrap_or("?"))
        }
    }

    #[test]
    fn dialect_identity_and_display() {
        assert_eq!(Dialect::SQL.name(), "sql");
        assert_eq!(Dialect::FRAMES.to_string(), "frames");
        assert_eq!(Dialect::default(), Dialect::SQL);
        assert_ne!(Dialect::SQL, Dialect::FRAMES);
        assert_eq!(Dialect::new("sql"), Dialect::SQL);
    }

    #[test]
    fn registry_routes_by_dialect_with_default_fallback() {
        let a = Dialect::new("a");
        let b = Dialect::new("b");
        let registry = Frontends::new().with(Toy(a)).with(Toy(b));
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.default_dialect(), Some(a));
        assert_eq!(registry.dialects(), vec![a, b]);
        assert!(registry.get(b).is_some());
        assert!(registry.get(Dialect::new("c")).is_none());
        // Unknown dialects render through the default front-end.
        let node = Node::column("x");
        assert_eq!(registry.render(b, &node), "leaf:x");
        assert_eq!(registry.render(Dialect::new("c"), &node), "leaf:x");
        // An empty registry falls back to the generic printer.
        let printed = Frontends::new().render(a, &Node::new(NodeKind::Select));
        assert!(printed.contains("Select"));
    }

    #[test]
    fn registering_a_dialect_twice_replaces_in_place() {
        let a = Dialect::new("a");
        let mut registry = Frontends::new().with(Toy(a)).with(Toy(Dialect::new("b")));
        registry.register(Arc::new(Toy(a)));
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.default_dialect(), Some(a));
    }

    #[test]
    fn render_compact_collapses_whitespace() {
        #[derive(Debug)]
        struct Spacey;
        impl Frontend for Spacey {
            fn dialect(&self) -> Dialect {
                Dialect::new("spacey")
            }
            fn parse_statements_lossy(
                &self,
                _: &str,
                _: &mut Vec<Node>,
                _: &mut ErrorSample,
            ) -> usize {
                unimplemented!("this test only renders")
            }
            fn parse_one(&self, _: &str) -> Result<Node, FrontendError> {
                unimplemented!("this test only renders")
            }
            fn render(&self, _: &Node) -> String {
                "a   b\n c".to_string()
            }
        }
        assert_eq!(Spacey.render_compact(&Node::star()), "a b c");
    }

    #[test]
    fn error_sample_counts_everything_but_retains_a_bounded_recent_window() {
        let mut sample = ErrorSample::new(4);
        assert!(sample.is_empty());
        let mut made = 0usize;
        for i in 0..1000 {
            sample.offer_with(|| {
                made += 1;
                FrontendError::new(Dialect::SQL, format!("err {i}"))
            });
        }
        assert_eq!(sample.seen(), 1000);
        assert_eq!(sample.len(), 4);
        // First 4 recorded eagerly, then one per THIN_EVERY offers: formatting is rare.
        assert!(
            made <= 4 + 1000 / ErrorSample::THIN_EVERY + 1,
            "{made} formats"
        );
        // The retained window drifts forward: the oldest entries have been evicted.
        let msgs: Vec<_> = sample.entries().map(|e| e.message.clone()).collect();
        assert!(!msgs.contains(&"err 0".to_string()), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.as_str() >= "err 5"), "{msgs:?}");
    }

    #[test]
    fn error_sample_with_zero_capacity_only_counts() {
        let mut sample = ErrorSample::new(0);
        for _ in 0..10 {
            assert!(!sample.would_record());
            sample.offer_with(|| unreachable!("capacity 0 must never format"));
        }
        assert_eq!(sample.seen(), 10);
        assert!(sample.is_empty());
    }

    #[test]
    fn frontend_errors_display_their_dialect() {
        let err = FrontendError::new(Dialect::FRAMES, "unexpected `)`");
        assert_eq!(err.to_string(), "frames parse error: unexpected `)`");
    }
}
