//! The benchmark's side of the HTTP routes: typed wrappers over `pi-server`'s loopback
//! client.

use crate::inputs::tenant_id;
use pi_server::client::Connection;
use pi_ui::Json;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// `POST /logs` with an encoded body; success is `202` with every statement accepted.
pub fn post(conn: &mut Connection, body: &str, statements: usize) -> bool {
    match conn.request("POST", "/logs", Some(body)) {
        Ok((202, _, reply)) => Json::parse(&reply)
            .ok()
            .and_then(|r| r.get("accepted").and_then(Json::as_f64))
            .is_some_and(|accepted| accepted as usize == statements),
        _ => false,
    }
}

/// What `GET /interfaces/{user}/{thread}` returned.
#[derive(Debug, Clone)]
pub struct InterfaceReply {
    /// Statements mined (the session version).
    pub version: usize,
    /// Statements skipped as unparseable.
    pub skipped: usize,
    /// The interface spec.
    pub spec: Json,
}

/// `GET /interfaces/{user}/{thread}` for `tenant`; `None` unless it answers 200 with a
/// well-formed body.
pub fn get_interface(conn: &mut Connection, tenant: usize) -> Option<InterfaceReply> {
    let (user, thread) = tenant_id(tenant);
    let (status, _, body) = conn
        .request("GET", &format!("/interfaces/{user}/{thread}"), None)
        .ok()?;
    if status != 200 {
        return None;
    }
    let json = Json::parse(&body).ok()?;
    let count = |key: &str| json.get(key).and_then(Json::as_f64).map(|n| n as usize);
    Some(InterfaceReply {
        version: count("version")?,
        skipped: count("skipped")?,
        spec: json.get("interface")?.clone(),
    })
}

/// `GET /stats` as JSON.
pub fn stats(addr: SocketAddr) -> std::io::Result<Json> {
    let (status, _, body) = pi_server::client::http_request(addr, "GET", "/stats", None)?;
    if status != 200 {
        return Err(std::io::Error::other(format!("/stats answered {status}")));
    }
    Json::parse(&body).map_err(|e| std::io::Error::other(format!("/stats: {e}")))
}

/// A number at a path of keys in a JSON object (0 when absent).
pub fn number(json: &Json, path: &[&str]) -> f64 {
    let mut at = json;
    for key in path {
        match at.get(key) {
            Some(next) => at = next,
            None => return 0.0,
        }
    }
    at.as_f64().unwrap_or(0.0)
}

/// How often `/stats` is polled while waiting on the server: each poll costs the server
/// CPU time, which the gated figures of `crash_restart` count.
pub const STATS_POLL: Duration = Duration::from_millis(10);

/// Polls `/stats` until no statement is queued; returns when that was first seen.
pub fn wait_drained(addr: SocketAddr, timeout: Duration) -> std::io::Result<Instant> {
    let start = Instant::now();
    loop {
        if number(&stats(addr)?, &["queued"]) == 0.0 {
            return Ok(Instant::now());
        }
        if start.elapsed() > timeout {
            return Err(std::io::Error::other("backlog did not drain in time"));
        }
        std::thread::sleep(STATS_POLL);
    }
}
