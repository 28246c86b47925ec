//! A dependency-free HTTP/1.1 front for the [`SessionPool`].
//!
//! One `TcpListener` shared by a small thread pool of acceptors; each thread runs a
//! keep-alive read → route → respond loop per connection.  The handlers only ever decode
//! JSON, enqueue into the pool, or snapshot — mining happens on the pool's workers — so
//! the acceptor threads stay available even while heavy tenants rebuild interfaces.
//!
//! ## Routes
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /logs` | Ingest a [`LogItem`](crate::wire::LogItem) batch.  `202` with accepted / rejected / malformed counts; a full tenant queue yields `429` + `Retry-After`; recovery or a failed journal yields `503` + `Retry-After`. |
//! | `GET /interfaces/{user}/{thread}` | The tenant's current versioned interface snapshot as JSON (widgets via the same spec the HTML compiler embeds). |
//! | `GET /healthz` · `GET /healthz/live` | Liveness: `200 {"status":"ok"}` whenever the process serves requests — even mid-recovery (restarting a recovering process would only restart its recovery). |
//! | `GET /readyz` · `GET /healthz/ready` | Readiness: `200` once startup recovery has finished, the journal is healthy and the apply backlog is under the high-water mark; otherwise `503` + `Retry-After` naming the blocker.  Load balancers gate traffic on this, not on liveness. |
//! | `GET /stats` | Pool gauge: occupancy, evictions, queue depths, accumulated stage timings, durability counters. |
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] flips the stop flag, wakes every acceptor blocked in `accept` with
//! a loopback dummy connection, joins the threads, then closes the pool — which drains all
//! pending queues and, with a spill directory, spills every tenant that changed since its
//! last spill.  In-flight requests finish; new ones are refused.

use crate::pool::{EnqueueError, PoolOptions, SessionPool};
use crate::wire::{decode_batch, DecodedBatch};
use pi_ui::{interface_spec, EditorLayout, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Per-connection socket read timeout; a stalled client frees its acceptor thread.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Acceptor threads sharing the listener.
    pub http_threads: usize,
    /// The pool behind the routes.
    pub pool: PoolOptions,
    /// Directory for tenant spill files.  When set, each snapshot the pool persists
    /// (at eviction, checkpoint and shutdown) is also written to disk, and a server
    /// restarted over the same directory restores returning tenants' full state
    /// (versions, graph, warm memo) instead of starting them empty.  `None` keeps
    /// snapshots in memory only.
    pub spill_dir: Option<std::path::PathBuf>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            http_threads: 4,
            pool: PoolOptions::default(),
            spill_dir: None,
        }
    }
}

/// A running multi-tenant interface service; see the module docs for the routes.
pub struct Server {
    addr: SocketAddr,
    pool: Arc<SessionPool>,
    stop: Arc<AtomicBool>,
    acceptors: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port — read it back from
    /// [`Server::addr`]) and starts the acceptor threads.
    pub fn bind<A: ToSocketAddrs>(addr: A, opts: ServerOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let listener = Arc::new(listener);
        let pool = SessionPool::with_spill(opts.pool, opts.spill_dir);
        let stop = Arc::new(AtomicBool::new(false));
        let acceptors = (0..opts.http_threads.max(1))
            .map(|i| {
                let listener = Arc::clone(&listener);
                let pool = Arc::clone(&pool);
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("pi-http-{i}"))
                    .spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            match listener.accept() {
                                Ok((stream, _)) => {
                                    if stop.load(Ordering::SeqCst) {
                                        break;
                                    }
                                    let _ = serve_connection(stream, &pool, &stop);
                                }
                                Err(_) => {
                                    if stop.load(Ordering::SeqCst) {
                                        break;
                                    }
                                }
                            }
                        }
                    })
                    .expect("spawn http acceptor")
            })
            .collect();
        Ok(Server {
            addr,
            pool,
            stop,
            acceptors: Mutex::new(acceptors),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The pool behind the routes (tests and embedded callers can bypass HTTP).
    pub fn pool(&self) -> &Arc<SessionPool> {
        &self.pool
    }

    /// Graceful shutdown: refuse new connections, join the acceptors, then close the pool
    /// ([`SessionPool::close`]).  Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let handles = std::mem::take(&mut *self.acceptors.lock().unwrap());
        // Acceptors block in `accept`; poke each one awake with a throwaway connection.
        for _ in 0..handles.len() {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        }
        for handle in handles {
            let _ = handle.join();
        }
        self.pool.close();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// One parsed request.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
    keep_alive: bool,
}

/// Reads requests off one connection until the client closes, errors, times out, or sends
/// `Connection: close`.
fn serve_connection(
    stream: TcpStream,
    pool: &Arc<SessionPool>,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(()), // clean close between requests
            Err(ReadError::Malformed(msg)) => {
                let body = error_json(&msg);
                write_response(&mut writer, 400, "Bad Request", &body, false, &[])?;
                return Ok(());
            }
            Err(ReadError::TooLarge) => {
                let body = error_json("request too large");
                write_response(&mut writer, 413, "Payload Too Large", &body, false, &[])?;
                return Ok(());
            }
            Err(ReadError::Io(e)) => return Err(e),
        };
        let keep_alive = request.keep_alive && !stop.load(Ordering::SeqCst);
        let (status, reason, body, extra) = route(&request, pool);
        write_response(&mut writer, status, reason, &body, keep_alive, &extra)?;
        if !keep_alive {
            return Ok(());
        }
    }
}

enum ReadError {
    Malformed(String),
    TooLarge,
    Io(std::io::Error),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> ReadError {
        ReadError::Io(e)
    }
}

/// Parses one request head + body.  `Ok(None)` means the client closed cleanly before
/// sending another request.  The body buffer grows with the bytes that arrive, so a head
/// declaring a large body costs what the client sends, not what it declares.
fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, ReadError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("request line without a path".into()))?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    // HTTP/1.0 defaults to close, 1.1 to keep-alive; the Connection header overrides.
    let mut keep_alive = version.trim() != "HTTP/1.0";
    let mut content_length = 0usize;
    let mut head_bytes = line.len();
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(ReadError::Malformed("connection closed mid-headers".into()));
        }
        head_bytes += header.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(ReadError::TooLarge);
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue; // tolerate junk header lines
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| ReadError::Malformed(format!("bad Content-Length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge);
    }
    let body = read_body(reader, content_length)?;
    Ok(Some(Request {
        method,
        path,
        body,
        keep_alive,
    }))
}

/// Reads exactly `len` body bytes through [`Read::take`] into a buffer that grows with the
/// bytes read, from at most 1 KiB reserved up front: a short body fails with
/// `UnexpectedEof`, having cost what the client sent.
fn read_body(reader: &mut impl Read, len: usize) -> std::io::Result<Vec<u8>> {
    let mut body = Vec::with_capacity(len.min(1 << 10));
    reader.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(body)
}

fn write_response(
    writer: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &str,
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        response.push_str(name);
        response.push_str(": ");
        response.push_str(value);
        response.push_str("\r\n");
    }
    response.push_str("\r\n");
    response.push_str(body);
    writer.write_all(response.as_bytes())
}

type Routed = (u16, &'static str, String, Vec<(&'static str, String)>);

fn route(request: &Request, pool: &Arc<SessionPool>) -> Routed {
    let path = request.path.split('?').next().unwrap_or(&request.path);
    match (request.method.as_str(), path) {
        ("POST", "/logs") => post_logs(&request.body, pool),
        ("GET", "/healthz" | "/healthz/live") => (
            200,
            "OK",
            Json::Object(vec![("status".into(), Json::string("ok"))]).to_string(),
            Vec::new(),
        ),
        ("GET", "/readyz" | "/healthz/ready") => match pool.readiness_blocker() {
            None => (
                200,
                "OK",
                Json::Object(vec![("status".into(), Json::string("ready"))]).to_string(),
                Vec::new(),
            ),
            Some(blocker) => (
                503,
                "Service Unavailable",
                Json::Object(vec![
                    ("status".into(), Json::string("unready")),
                    ("reason".into(), Json::string(&blocker)),
                ])
                .to_string(),
                vec![("Retry-After", "1".to_string())],
            ),
        },
        ("GET", "/stats") => (200, "OK", stats_json(pool).to_string(), Vec::new()),
        ("GET", _) if path.starts_with("/interfaces/") => get_interface(path, pool),
        _ => (404, "Not Found", error_json("no such route"), Vec::new()),
    }
}

fn post_logs(body: &[u8], pool: &Arc<SessionPool>) -> Routed {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => {
            return (
                400,
                "Bad Request",
                error_json("body is not UTF-8"),
                Vec::new(),
            )
        }
    };
    let parsed = match Json::parse(text) {
        Ok(parsed) => parsed,
        Err(e) => {
            return (
                400,
                "Bad Request",
                error_json(&format!("body is not JSON: {e}")),
                Vec::new(),
            )
        }
    };
    let DecodedBatch { items, malformed } =
        decode_batch(&parsed, pool.default_dialect(), pool.known_dialects());
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut queue_full = false;
    for item in &items {
        match pool.enqueue(item) {
            Ok(n) => accepted += n,
            Err(EnqueueError::QueueFull { .. }) => {
                rejected += item.queries.len();
                queue_full = true;
            }
            Err(EnqueueError::ShuttingDown) => {
                return (
                    503,
                    "Service Unavailable",
                    error_json("server is shutting down"),
                    Vec::new(),
                )
            }
            Err(EnqueueError::Recovering) => {
                // Startup recovery is replaying the journal; the batch would race the
                // replay's sequence numbers.  Come back when /readyz goes green.
                return (
                    503,
                    "Service Unavailable",
                    error_json("server is recovering; retry shortly"),
                    vec![("Retry-After", "1".to_string())],
                );
            }
            Err(EnqueueError::Journal(err)) => {
                // Fail-stop: nothing acks once the journal failed, so the client retries
                // against a restarted (recovered) process instead of losing the batch.
                return (
                    503,
                    "Service Unavailable",
                    error_json(&format!("write-ahead journal failed: {err}")),
                    vec![("Retry-After", "5".to_string())],
                );
            }
        }
    }
    let counts = Json::Object(vec![
        ("accepted".into(), Json::Number(accepted as f64)),
        ("rejected".into(), Json::Number(rejected as f64)),
        ("malformed".into(), Json::Number(malformed as f64)),
    ])
    .to_string();
    if queue_full {
        // Backpressure: the tenant's queue cannot take the batch right now.  Shed the load
        // explicitly and tell the client when to come back rather than blocking the
        // acceptor behind the pool's workers.
        (
            429,
            "Too Many Requests",
            counts,
            vec![("Retry-After", "1".to_string())],
        )
    } else {
        (202, "Accepted", counts, Vec::new())
    }
}

fn get_interface(path: &str, pool: &Arc<SessionPool>) -> Routed {
    // /interfaces/{user}/{thread}
    let rest = &path["/interfaces/".len()..];
    let Some((user, thread)) = rest.split_once('/') else {
        return (
            400,
            "Bad Request",
            error_json("expected /interfaces/{user}/{thread}"),
            Vec::new(),
        );
    };
    if user.is_empty() || thread.is_empty() || thread.contains('/') {
        return (
            400,
            "Bad Request",
            error_json("expected /interfaces/{user}/{thread}"),
            Vec::new(),
        );
    }
    let Some(snapshot) = pool.snapshot(user, thread) else {
        return (404, "Not Found", error_json("unknown tenant"), Vec::new());
    };
    let layout = EditorLayout::new(&snapshot.interface, 2);
    let spec = interface_spec(&snapshot.interface, &layout, &pi_core::standard_frontends());
    let body = Json::Object(vec![
        ("user_id".into(), Json::string(user)),
        ("thread_id".into(), Json::string(thread)),
        ("version".into(), Json::Number(snapshot.version as f64)),
        ("skipped".into(), Json::Number(snapshot.skipped as f64)),
        (
            "dialects".into(),
            Json::Array(
                snapshot
                    .dialects
                    .iter()
                    .map(|d| Json::string(d.name()))
                    .collect(),
            ),
        ),
        (
            "graph".into(),
            Json::Object(vec![
                (
                    "queries".into(),
                    Json::Number(snapshot.graph_stats.queries as f64),
                ),
                (
                    "edges".into(),
                    Json::Number(snapshot.graph_stats.edges as f64),
                ),
                (
                    "diff_records".into(),
                    Json::Number(snapshot.graph_stats.diff_records as f64),
                ),
                (
                    "distinct_paths".into(),
                    Json::Number(snapshot.graph_stats.distinct_paths as f64),
                ),
            ]),
        ),
        (
            "timings_ms".into(),
            Json::Object(vec![
                ("parse".into(), Json::Number(snapshot.timings.parse_ms)),
                ("mining".into(), Json::Number(snapshot.timings.mining_ms)),
                ("mapping".into(), Json::Number(snapshot.timings.mapping_ms)),
            ]),
        ),
        ("interface".into(), spec),
    ]);
    (200, "OK", body.to_string(), Vec::new())
}

fn stats_json(pool: &Arc<SessionPool>) -> Json {
    let gauge = pool.gauge();
    Json::Object(vec![
        ("occupancy".into(), Json::Number(gauge.occupancy as f64)),
        (
            "capacity".into(),
            Json::Number(pool.options().capacity as f64),
        ),
        ("archived".into(), Json::Number(gauge.archived as f64)),
        ("queued".into(), Json::Number(gauge.queued as f64)),
        ("queries".into(), Json::Number(gauge.queries as f64)),
        ("skipped".into(), Json::Number(gauge.skipped as f64)),
        ("evictions".into(), Json::Number(gauge.evictions as f64)),
        (
            "rehydrations".into(),
            Json::Number(gauge.rehydrations as f64),
        ),
        ("accepted".into(), Json::Number(gauge.accepted as f64)),
        (
            "rejected_batches".into(),
            Json::Number(gauge.rejected_batches as f64),
        ),
        (
            "timings_ms".into(),
            Json::Object(vec![
                ("parse".into(), Json::Number(gauge.parse_ms)),
                ("mining".into(), Json::Number(gauge.mining_ms)),
                ("mapping".into(), Json::Number(gauge.mapping_ms)),
            ]),
        ),
        (
            "persistence".into(),
            Json::Object(vec![
                (
                    "snapshot_bytes".into(),
                    Json::Number(gauge.snapshot_bytes as f64),
                ),
                ("persist_ms".into(), Json::Number(gauge.persist_ms)),
                ("restore_ms".into(), Json::Number(gauge.restore_ms)),
            ]),
        ),
        (
            "durability".into(),
            Json::Object(vec![
                ("recovering".into(), Json::Bool(gauge.recovering)),
                (
                    "journal".into(),
                    match &gauge.journal {
                        None => Json::Null,
                        Some(journal) => Json::Object(vec![
                            (
                                "appended_records".into(),
                                Json::Number(journal.appended_records as f64),
                            ),
                            (
                                "appended_bytes".into(),
                                Json::Number(journal.appended_bytes as f64),
                            ),
                            ("syncs".into(), Json::Number(journal.syncs as f64)),
                            (
                                "unchecked_bytes".into(),
                                Json::Number(journal.unchecked_bytes as f64),
                            ),
                            ("failed".into(), Json::Bool(journal.failed)),
                        ]),
                    },
                ),
                (
                    "worker_panics".into(),
                    Json::Number(gauge.worker_panics as f64),
                ),
                (
                    "session_rebuilds".into(),
                    Json::Number(gauge.session_rebuilds as f64),
                ),
                (
                    "quarantined_statements".into(),
                    Json::Number(gauge.quarantined_statements as f64),
                ),
                (
                    "lock_poison_recoveries".into(),
                    Json::Number(gauge.lock_poison_recoveries as f64),
                ),
                (
                    "spill_quarantines".into(),
                    Json::Number(gauge.spill_quarantines as f64),
                ),
                (
                    "recovered_tenants".into(),
                    Json::Number(gauge.recovered_tenants as f64),
                ),
                (
                    "recovered_statements".into(),
                    Json::Number(gauge.recovered_statements as f64),
                ),
                (
                    "recovery_dropped".into(),
                    Json::Number(gauge.recovery_dropped as f64),
                ),
                ("checkpoints".into(), Json::Number(gauge.checkpoints as f64)),
                (
                    "pruned_segments".into(),
                    Json::Number(gauge.pruned_segments as f64),
                ),
                (
                    "last_recovery_ms".into(),
                    Json::Number(gauge.last_recovery_ms),
                ),
            ]),
        ),
        (
            "parse_error_samples".into(),
            Json::Array(
                gauge
                    .parse_error_samples
                    .iter()
                    .map(|s| Json::string(s))
                    .collect(),
            ),
        ),
        (
            "quarantine_samples".into(),
            Json::Array(
                gauge
                    .quarantine_samples
                    .iter()
                    .map(|s| Json::string(s))
                    .collect(),
            ),
        ),
    ])
}

fn error_json(message: &str) -> String {
    Json::Object(vec![("error".into(), Json::string(message))]).to_string()
}

/// The workspace's counting allocator: the tests below count what `read_request` reserves.
#[cfg(test)]
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[cfg(test)]
mod tests {
    use super::counting_alloc::allocated_bytes;
    use super::*;
    use crate::client::{http_request as raw_request, Connection, Response};
    use crate::pool::PoolOptions;

    fn test_server(pool: PoolOptions) -> Server {
        Server::bind(
            "127.0.0.1:0",
            ServerOptions {
                http_threads: 2,
                pool,
                spill_dir: None,
            },
        )
        .expect("bind ephemeral port")
    }

    fn http_request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Response {
        raw_request(addr, method, path, body).expect("request")
    }

    #[test]
    fn healthz_and_stats_respond() {
        let server = test_server(PoolOptions::default());
        let (status, _, body) = http_request(server.addr(), "GET", "/healthz", None);
        assert_eq!(status, 200);
        assert_eq!(body, r#"{"status":"ok"}"#);
        let (status, _, body) = http_request(server.addr(), "GET", "/stats", None);
        assert_eq!(status, 200);
        let stats = Json::parse(&body).unwrap();
        assert_eq!(stats.get("occupancy").and_then(Json::as_f64), Some(0.0));
        // Empty pool, empty samples — but the field is always present for scrapers.
        assert_eq!(
            stats
                .get("parse_error_samples")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(0)
        );

        // A garbage statement surfaces in the sample list once ingested.
        let body = r#"{"logs": [{"user_id": "ada", "thread_id": "t1",
            "log": {"queries": ["THIS IS NOT SQL"]}}]}"#;
        let (status, _, _) = http_request(server.addr(), "POST", "/logs", Some(body));
        assert_eq!(status, 202);
        server.pool().flush("ada", "t1");
        let (_, _, body) = http_request(server.addr(), "GET", "/stats", None);
        let stats = Json::parse(&body).unwrap();
        let samples = stats
            .get("parse_error_samples")
            .and_then(Json::as_array)
            .expect("samples array");
        assert_eq!(samples.len(), 1);
        assert!(samples[0].as_str().unwrap().contains("sql"));
        server.shutdown();
    }

    #[test]
    fn liveness_and_readiness_are_separate_probes() {
        // An unready pool (readiness high-water mark of zero is always crossed) still
        // answers the liveness probes 200 — restarting it would not make it readier —
        // but readiness sheds the load balancer with 503 + Retry-After and a reason.
        let server = test_server(PoolOptions {
            ready_high_water: Some(0),
            ..PoolOptions::default()
        });
        for live in ["/healthz", "/healthz/live"] {
            let (status, _, body) = http_request(server.addr(), "GET", live, None);
            assert_eq!(status, 200, "{live}");
            assert_eq!(body, r#"{"status":"ok"}"#);
        }
        for ready in ["/readyz", "/healthz/ready"] {
            let (status, headers, body) = http_request(server.addr(), "GET", ready, None);
            assert_eq!(status, 503, "{ready}: {body}");
            assert!(
                headers
                    .iter()
                    .any(|(name, _)| name.eq_ignore_ascii_case("retry-after")),
                "{headers:?}"
            );
            let parsed = Json::parse(&body).unwrap();
            assert!(parsed
                .get("reason")
                .and_then(Json::as_str)
                .unwrap()
                .contains("high water"));
        }
        server.shutdown();

        // Without the knob the probes agree: both green.
        let server = test_server(PoolOptions::default());
        let (status, _, body) = http_request(server.addr(), "GET", "/readyz", None);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, r#"{"status":"ready"}"#);
        server.shutdown();
    }

    #[test]
    fn stats_reports_durability_counters() {
        let server = test_server(PoolOptions::default());
        let (_, _, body) = http_request(server.addr(), "GET", "/stats", None);
        let stats = Json::parse(&body).unwrap();
        let durability = stats.get("durability").expect("durability object");
        assert_eq!(
            durability.get("recovering").and_then(Json::as_bool),
            Some(false)
        );
        // No journal configured: the field is present (scrapers see a stable schema) and
        // null.
        assert!(matches!(durability.get("journal"), Some(Json::Null)));
        assert_eq!(
            durability.get("worker_panics").and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            stats
                .get("quarantine_samples")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(0)
        );
        // The fields the end-to-end benchmark polls: its reader takes a missing key as 0.
        for path in [
            "queued",
            "queries",
            "skipped",
            "rehydrations",
            "timings_ms.parse",
            "timings_ms.mining",
            "durability.checkpoints",
        ] {
            let value = path.split('.').try_fold(&stats, |json, key| json.get(key));
            assert!(
                value.and_then(Json::as_f64).is_some(),
                "/stats lacks {path}"
            );
        }
        let persistence = stats.get("persistence").expect("persistence object");
        for gone in [
            "snapshot_archives",
            "replay_archives",
            "snapshot_rehydrations",
            "replay_rehydrations",
        ] {
            assert!(persistence.get(gone).is_none(), "{gone} was removed");
        }
        server.shutdown();
    }

    #[test]
    fn ingest_then_fetch_interface() {
        let server = test_server(PoolOptions::default());
        let body = r#"{"logs": [{"user_id": "ada", "thread_id": "t1", "log": {"queries": [
            "SELECT a FROM t WHERE x = 1",
            "SELECT a FROM t WHERE x = 2",
            {"query": "t.filter(x == 3).select(a)", "dialect": "frames"}
        ]}}]}"#;
        let (status, _, response) = http_request(server.addr(), "POST", "/logs", Some(body));
        assert_eq!(status, 202, "{response}");
        let counts = Json::parse(&response).unwrap();
        assert_eq!(counts.get("accepted").and_then(Json::as_f64), Some(3.0));
        assert_eq!(counts.get("malformed").and_then(Json::as_f64), Some(0.0));

        let (status, _, response) = http_request(server.addr(), "GET", "/interfaces/ada/t1", None);
        assert_eq!(status, 200);
        let interface = Json::parse(&response).unwrap();
        assert_eq!(interface.get("version").and_then(Json::as_f64), Some(3.0));
        let widgets = interface
            .get("interface")
            .and_then(|i| i.get("widgets"))
            .and_then(Json::as_array)
            .expect("widgets array");
        assert!(!widgets.is_empty());
        server.shutdown();
    }

    #[test]
    fn unknown_tenants_and_routes_are_404() {
        let server = test_server(PoolOptions::default());
        let (status, _, _) = http_request(server.addr(), "GET", "/interfaces/no/body", None);
        assert_eq!(status, 404);
        let (status, _, _) = http_request(server.addr(), "GET", "/nope", None);
        assert_eq!(status, 404);
        let (status, _, _) = http_request(server.addr(), "GET", "/interfaces/onlyuser", None);
        assert_eq!(status, 400);
        server.shutdown();
    }

    #[test]
    fn malformed_bodies_are_400_not_500() {
        let server = test_server(PoolOptions::default());
        let (status, _, body) = http_request(server.addr(), "POST", "/logs", Some("{not json"));
        assert_eq!(status, 400);
        assert!(body.contains("error"));
        let (status, _, _) = http_request(
            server.addr(),
            "POST",
            "/logs",
            Some(r#"{"logs": [{"thread_id": "t"}]}"#),
        );
        assert_eq!(status, 202); // malformed items are counted, not fatal
        server.shutdown();
    }

    #[test]
    fn full_queues_yield_429_with_retry_after() {
        let server = test_server(PoolOptions {
            queue_depth: 2,
            ..PoolOptions::default()
        });
        let batch = r#"{"logs": [{"user_id": "ada", "thread_id": "t1", "queries": [
            "SELECT a FROM t WHERE x = 1",
            "SELECT a FROM t WHERE x = 2",
            "SELECT a FROM t WHERE x = 3"
        ]}]}"#;
        let (status, headers, body) = http_request(server.addr(), "POST", "/logs", Some(batch));
        assert_eq!(status, 429, "{body}");
        assert!(headers
            .iter()
            .any(|(name, value)| name.eq_ignore_ascii_case("retry-after") && value == "1"));
        let counts = Json::parse(&body).unwrap();
        assert_eq!(counts.get("rejected").and_then(Json::as_f64), Some(3.0));
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_many_requests_per_connection() {
        let server = test_server(PoolOptions::default());
        let mut conn = Connection::open(server.addr()).expect("connect");
        for _ in 0..3 {
            let (status, headers, _) = conn.request("GET", "/healthz", None).expect("request");
            assert_eq!(status, 200);
            assert!(headers
                .iter()
                .any(|(n, v)| n.eq_ignore_ascii_case("connection") && v == "keep-alive"));
        }
        server.shutdown();
    }

    /// A `POST /logs` head declaring `declared` body bytes, followed by `body`.
    fn post_with_body(declared: usize, body: &[u8]) -> Vec<u8> {
        let mut input =
            format!("POST /logs HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n").into_bytes();
        input.extend_from_slice(body);
        input
    }

    #[test]
    fn a_body_shorter_than_its_declared_length_fails_without_reserving_it() {
        // The largest body the cap admits, declared by a head followed by 10 bytes and EOF.
        let input = post_with_body(MAX_BODY_BYTES, b"0123456789");
        let mut reader = BufReader::new(input.as_slice());
        let before = allocated_bytes();
        let result = read_request(&mut reader);
        let allocated = allocated_bytes() - before;
        match result {
            Err(ReadError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            Ok(_) => panic!("a truncated body must fail to read"),
            Err(_) => panic!("a truncated body is an I/O error, not a rejected request"),
        }
        assert!(
            allocated < 64 << 10,
            "reading it allocated {allocated} bytes"
        );
        // Past the cap, the declared length alone is refused (413).
        let input = post_with_body(MAX_BODY_BYTES + 1, b"0123456789");
        let result = read_request(&mut BufReader::new(input.as_slice()));
        assert!(matches!(result, Err(ReadError::TooLarge)));
    }

    #[test]
    fn bodies_longer_than_the_first_reservation_are_read_in_full() {
        for len in [0, 10, 1024, 5000] {
            let body: Vec<u8> = (0..len).map(|i| b'a' + (i % 26) as u8).collect();
            let mut input = post_with_body(len, &body);
            input.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut reader = BufReader::new(input.as_slice());
            let Ok(Some(request)) = read_request(&mut reader) else {
                panic!("a complete {len}-byte body must read");
            };
            assert_eq!((request.method.as_str(), request.body), ("POST", body));
            // The read stops at the declared length: the next request follows intact.
            let Ok(Some(next)) = read_request(&mut reader) else {
                panic!("the pipelined request must read");
            };
            assert_eq!(
                (next.method.as_str(), next.path.as_str()),
                ("GET", "/healthz")
            );
        }
    }

    #[test]
    fn shutdown_drains_and_refuses_new_connections() {
        let server = test_server(PoolOptions::default());
        let addr = server.addr();
        let body =
            r#"{"user_id": "ada", "thread_id": "t1", "queries": ["SELECT a FROM t WHERE x = 1"]}"#;
        let (status, _, _) = http_request(addr, "POST", "/logs", Some(body));
        assert_eq!(status, 202);
        server.shutdown();
        // The queued statement was applied before the pool dropped.
        assert_eq!(server.pool().gauge().queries, 1);
    }
}
