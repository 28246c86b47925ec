//! The route handlers' calls, made in-process with a span around each layer.
//!
//! The traced passes of the HTTP workloads send the same traffic through the same public
//! functions the `POST /logs` and `GET /interfaces/{user}/{thread}` handlers call:
//! `Json::parse` and `wire::decode_batch` (layer `wire`), `SessionPool::enqueue`
//! (`pool.enqueue`), `SessionPool::snapshot` (`pool.snapshot`), then `interface_spec` and
//! `to_string` (`ui`).

use crate::inputs::tenant_id;
use crate::sut::render_spec;
use crate::trace::Tracer;
use pi_core::GeneratedInterface;
use pi_server::wire::decode_batch;
use pi_server::SessionPool;
use pi_ui::Json;

/// `POST /logs`: decode the body and enqueue every item.  Success means every statement
/// was accepted.
pub fn post(
    tracer: &mut Tracer,
    request: u64,
    pool: &SessionPool,
    body: &str,
    statements: usize,
) -> bool {
    let span = tracer.begin("request", request);
    let decoded = tracer.leaf("wire", request, || {
        let text = std::str::from_utf8(body.as_bytes()).ok()?;
        let parsed = Json::parse(text).ok()?;
        Some(decode_batch(
            &parsed,
            pool.default_dialect(),
            pool.known_dialects(),
        ))
    });
    let ok = match decoded {
        Some(batch) if batch.malformed == 0 => tracer.leaf("pool.enqueue", request, || {
            let mut accepted = 0;
            for item in &batch.items {
                match pool.enqueue(item) {
                    Ok(n) => accepted += n,
                    Err(_) => return false,
                }
            }
            accepted == statements
        }),
        _ => false,
    };
    tracer.end(span);
    ok
}

/// `GET /interfaces/{user}/{thread}` for `tenant`: the snapshot and its rendered spec.
pub fn get(
    tracer: &mut Tracer,
    request: u64,
    pool: &SessionPool,
    tenant: usize,
) -> Option<(GeneratedInterface, String)> {
    let (user, thread) = tenant_id(tenant);
    let span = tracer.begin("request", request);
    let snapshot = tracer.leaf("pool.snapshot", request, || pool.snapshot(&user, &thread));
    let out = snapshot.map(|snapshot| {
        let body = tracer.leaf("ui", request, || render_spec(&snapshot.interface));
        (snapshot, body)
    });
    tracer.end(span);
    out
}
