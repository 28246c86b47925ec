//! Multi-tenant interface serving: many users' query streams mined into live precision
//! interfaces behind one HTTP service.
//!
//! The rest of the workspace answers *"given a query log, what interface does it imply?"*
//! (Zhang & Wu's mining pipeline).  This crate answers the production follow-up: *"given a
//! firehose of many tenants' query logs, keep every tenant's interface current and serve
//! it on demand"* — the shape a real deployment takes when interface mining sits behind an
//! analytics product rather than a batch script.
//!
//! Three layers, bottom-up:
//!
//! - [`pool`] — a [`SessionPool`] mapping `(user_id, thread_id)` to an
//!   owned streaming [`Session`](pi_core::Session) behind sharded locks, with bounded
//!   per-tenant ingest queues (full queue ⇒ explicit backpressure, never a blocked
//!   acceptor), capacity-bounded residency with LRU eviction, and one rule for rebuilding
//!   a tenant after an eviction, a restart or a panicking statement: a tenant is its last
//!   snapshot plus the statements applied since, restored byte-identically.
//! - [`wire`] — the tolerant `LogItem` JSON ingest format, modelled on what production
//!   query-log pipelines actually emit.
//! - [`http`] — a dependency-free HTTP/1.1 front end (`POST /logs`, `GET
//!   /interfaces/{user}/{thread}`, `GET /healthz`, `GET /stats`) with keep-alive, a
//!   thread-pool acceptor and graceful drain-and-flush shutdown.
//!
//! Like the rest of the workspace this crate is std-only: the HTTP layer is hand-rolled on
//! `TcpListener` rather than pulled from a framework, which keeps the build offline and the
//! surface auditable.  [`client`] provides the minimal loopback HTTP client the tests,
//! examples and the serving benchmark's load generator drive it with.
//!
//! ```no_run
//! use pi_server::{Server, ServerOptions};
//!
//! let server = Server::bind("127.0.0.1:0", ServerOptions::default())?;
//! println!("serving interfaces on http://{}", server.addr());
//! // POST /logs, then GET /interfaces/{user}/{thread} …
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod client;
#[cfg(any(test, feature = "faults"))]
pub mod faults;
pub mod http;
pub mod journal;
pub mod pool;
pub mod wire;

pub use http::{Server, ServerOptions};
pub use journal::{DurabilityOptions, JournalStats};
pub use pool::{EnqueueError, PoolGauge, PoolOptions, SessionPool, GAUGE_ERROR_SAMPLES};
pub use wire::{decode_batch, encode_batch, DecodedBatch, LogItem};
