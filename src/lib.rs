//! # precision-interfaces — mining precision interfaces from query logs
//!
//! A from-scratch Rust reproduction of *Mining Precision Interfaces From Query Logs*
//! (Zhang, Zhang, Sellam & Wu, SIGMOD 2019).  The system takes a log of SQL queries from one
//! analysis, mines the recurring structural transformations between them, and generates a
//! tailored interactive interface whose widgets express exactly those transformations.
//!
//! This facade crate re-exports the public API of the workspace crates:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`ast`] | `pi-ast` | query ASTs, paths, primitive types, the `Frontend` trait |
//! | [`sql`] | `pi-sql` | SQL front-end (lexer/parser/renderer) |
//! | [`frames`] | `pi-frames` | method-chain dataframe front-end |
//! | [`diff`] | `pi-diff` | subtree differences (the `diffs` table) |
//! | [`graph`] | `pi-graph` | the interaction graph and its optimisations |
//! | [`widgets`] | `pi-widgets` | widget types, rules, cost functions |
//! | [`core`] | `pi-core` | interface generation, closure, recall, precision |
//! | [`engine`] | `pi-engine` | `exec()` / `render()` over an in-memory catalog |
//! | [`workloads`] | `pi-workloads` | synthetic SDSS / OLAP / ad-hoc query logs |
//! | [`ui`] | `pi-ui` | editable layout + HTML compiler |
//!
//! ## Quickstart
//!
//! ```
//! use precision_interfaces::prelude::*;
//!
//! let log = "
//!     SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 GROUP BY DestState;
//!     SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 8 GROUP BY DestState;
//!     SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 3 GROUP BY DestState;
//! ";
//! let generated = PrecisionInterfaces::default().from_sql_log(log).unwrap();
//! assert_eq!(generated.interface.widgets().len(), 1);
//! assert!(generated.interface.expressiveness(&generated.queries) >= 1.0);
//! ```
//!
//! ## Streaming
//!
//! Query logs grow as the analyst works, so the batch entry point above is itself a thin
//! wrapper over a stateful [`Session`](core::Session).  A session has two ways in:
//! [`push_tagged`](core::Session::push_tagged) appends one parsed query and
//! [`push_stream_tagged`](core::Session::push_stream_tagged) parses and appends text of any
//! length and dialect.  Each append runs only the `O(w)` new alignments the sliding window
//! admits, and versioned snapshots can be taken whenever the interface should refresh.
//! Snapshots are byte-identical to batch builds of the same prefix (see
//! `examples/live_session.rs`).
//!
//! ```
//! use precision_interfaces::prelude::*;
//!
//! let mut session = Session::new(PiOptions::default());
//! for month in [9, 8, 3] {
//!     let sql = format!(
//!         "SELECT COUNT(Delay), DestState FROM ontime WHERE Month = {month} GROUP BY DestState"
//!     );
//!     session.push_stream_tagged([(Dialect::SQL, sql)]);
//! }
//! let snapshot = session.snapshot();
//! assert_eq!(snapshot.version, 3);
//! assert_eq!(snapshot.interface.widgets().len(), 1);
//! ```
//!
//! The same call scales to trace-scale logs (10⁵–10⁶ lines):
//! [`push_stream_tagged`](core::Session::push_stream_tagged) ingests any
//! `(Dialect, &str)` iterator without materialising the log: lines parse in fixed-size
//! chunks through a per-session parse cache (a repeated statement is a hash probe, not a
//! re-parse), unparseable lines are skipped, counted and sampled
//! ([`Session::parse_errors`](core::Session::parse_errors)), and
//! [`Session::memory_footprint`](core::Session::memory_footprint) estimates the bytes
//! retained from its buffers' capacities and a per-node constant; `tests/footprint.rs`
//! holds it within ±25% of a counting allocator's live bytes (0.82 and 0.95 of them on a
//! 20k-line Zipf trace at windows 2 and 16).  Log storage grows with the log's *distinct*
//! content, not its length, because distinct trees and interned strings are stored once
//! however often they recur; mined state grows by a 16-byte run row per mined pair.
//! Streamed ingest is byte-identical to pushing the same statements one at a time
//! (property-tested):
//!
//! ```
//! use precision_interfaces::prelude::*;
//!
//! let mut session = Session::new(PiOptions::default());
//! let lines = [
//!     (Dialect::SQL, "SELECT a FROM t WHERE x = 1"),
//!     (Dialect::FRAMES, "t.filter(x == 2).select(a)"),
//!     (Dialect::SQL, "%% log noise, skipped and sampled %%"),
//!     (Dialect::SQL, "SELECT a FROM t WHERE x = 1"), // repeat: parse-cache hit
//! ];
//! let appended = session.push_stream_tagged(lines);
//! assert_eq!((appended, session.skipped()), (3, 1));
//! assert_eq!(session.parse_errors().seen(), 1);
//! assert!(session.memory_footprint() > 0);
//! ```
//!
//! ## Mixed front-ends
//!
//! Nothing in the pipeline is SQL-specific: sessions route text through a
//! [`Frontends`](ast::Frontends) registry of [`Frontend`](ast::Frontend) implementations,
//! and the bundled dataframe dialect (`pi-frames`) targets the same tree model as the SQL
//! parser, so the *same analysis* written in either language parses to the *same tree*.  A
//! mixed log therefore mines into one interface, and every widget option remembers — and
//! renders in — the dialect its query arrived in (`examples/mixed_frontends.rs`):
//!
//! ```
//! use precision_interfaces::prelude::*;
//!
//! let mut session = Session::new(PiOptions::default());
//! session.push_stream_tagged([
//!     (
//!         Dialect::SQL,
//!         "SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 GROUP BY DestState",
//!     ),
//!     (
//!         Dialect::FRAMES,
//!         "ontime.filter(Month == 3).groupby(DestState).agg(COUNT(Delay))",
//!     ),
//! ]);
//! let snapshot = session.snapshot();
//! assert_eq!(snapshot.dialects, vec![Dialect::SQL, Dialect::FRAMES]);
//! assert_eq!(snapshot.interface.widgets().len(), 1); // one shared month widget
//! assert!(snapshot.interface.expressiveness(&snapshot.queries) >= 1.0);
//! ```
//!
//! A session over a *non-SQL default* front-end is one constructor away — its default
//! dialect is then the dataframe one:
//!
//! ```
//! use precision_interfaces::prelude::*;
//!
//! let registry = Frontends::new().with(FramesFrontend).with(SqlFrontend);
//! let mut session = Session::with_frontends(PiOptions::default(), registry);
//! let frames = session.default_dialect();
//! assert_eq!(frames, Dialect::FRAMES);
//! session.push_stream_tagged([(frames, "t.filter(x == 1).select(a); t.filter(x == 2).select(a)")]);
//! assert_eq!(session.snapshot().interface.initial_dialect(), Dialect::FRAMES);
//! ```

#![warn(missing_docs)]

/// Query ASTs, paths and primitive types (`pi-ast`).
pub mod ast {
    pub use pi_ast::*;
}

/// SQL lexing, parsing and rendering (`pi-sql`).
pub mod sql {
    pub use pi_sql::*;
}

/// The method-chain dataframe front-end (`pi-frames`).
pub mod frames {
    pub use pi_frames::*;
}

/// Subtree differences between queries (`pi-diff`).
pub mod diff {
    pub use pi_diff::*;
}

/// The interaction graph (`pi-graph`).
pub mod graph {
    pub use pi_graph::*;
}

/// Widget types, rules and cost functions (`pi-widgets`).
pub mod widgets {
    pub use pi_widgets::*;
}

/// Interface generation, closure, recall and precision (`pi-core`).
pub mod core {
    pub use pi_core::*;
}

/// The in-memory execution substrate (`pi-engine`).
pub mod engine {
    pub use pi_engine::*;
}

/// Synthetic query-log generators (`pi-workloads`).
pub mod workloads {
    pub use pi_workloads::*;
}

/// Interface layout editing and HTML compilation (`pi-ui`).
pub mod ui {
    pub use pi_ui::*;
}

/// The multi-tenant HTTP interface service (`pi-server`).
pub mod server {
    pub use pi_server::*;
}

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use pi_ast::{Dialect, Frontend, FrontendError, Frontends, Node, NodeKind, Path};
    pub use pi_core::{
        standard_frontends, GeneratedInterface, Interface, PiOptions, PrecisionInterfaces, Session,
    };
    pub use pi_engine::{exec, render, Catalog};
    pub use pi_frames::FramesFrontend;
    pub use pi_server::{Server, ServerOptions, SessionPool};
    pub use pi_sql::SqlFrontend;
    pub use pi_ui::{compile_html, compile_html_with, EditorLayout};
    pub use pi_widgets::{Widget, WidgetLibrary, WidgetType};
}
