//! The ingest wire format: `LogItem` batches, as JSON.
//!
//! The shape follows the `LogItem { id, user_id, thread_id, log.queries[], created_at }`
//! layout production query-log pipelines ship (one item per user-visible interaction, each
//! carrying the queries that interaction ran), decoded with deliberate tolerance: unknown
//! keys are ignored, `queries` entries may be bare strings or objects, a missing `dialect`
//! falls back to the server's default, and `id`/`created_at` are accepted but unused —
//! ingest must absorb whatever an upstream logger emits, not negotiate a schema with it.
//! What it will *not* tolerate is an item without a tenant identity (`user_id` +
//! `thread_id`): those are counted as malformed and reported back, because silently filing
//! queries under a default tenant would corrupt another tenant's interface.

use pi_ast::Dialect;
use pi_ui::Json;
use std::sync::Arc;

/// One decoded ingest item: a tenant identity plus the tagged query texts it carries.
///
/// Statement text is held as `Arc<str>` from the moment it leaves the JSON decoder: the
/// pool's queue and the tenant's tail (the statements applied since its last snapshot)
/// share the same allocation, so a statement's bytes are copied out of the request body
/// once however many times it is queued and replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogItem {
    /// The tenant's user id.
    pub user_id: String,
    /// The tenant's thread id (one user can run many concurrent analysis threads).
    pub thread_id: String,
    /// The queries of this log item, in arrival order, each tagged with its dialect.
    pub queries: Vec<(Dialect, Arc<str>)>,
}

impl LogItem {
    /// Serialises the item to its wire JSON (the encoding the load generator and tests
    /// send; [`decode_batch`] reads it back).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("user_id".into(), Json::string(&self.user_id)),
            ("thread_id".into(), Json::string(&self.thread_id)),
            (
                "log".into(),
                Json::Object(vec![(
                    "queries".into(),
                    Json::Array(
                        self.queries
                            .iter()
                            .map(|(dialect, text)| {
                                Json::Object(vec![
                                    ("query".into(), Json::string(text)),
                                    ("dialect".into(), Json::string(dialect.name())),
                                ])
                            })
                            .collect(),
                    ),
                )]),
            ),
        ])
    }
}

/// Renders a batch of items as the `POST /logs` request body.
pub fn encode_batch(items: &[LogItem]) -> String {
    Json::Object(vec![(
        "logs".into(),
        Json::Array(items.iter().map(LogItem::to_json).collect()),
    )])
    .to_string()
}

/// The tag given to queries naming a dialect the server has no front-end for.  [`Dialect`]
/// wraps a `&'static str`, so arbitrary runtime names cannot become dialects (leaking one
/// per hostile request would be a memory hole); instead every unrecognised name collapses
/// to this sentinel, which no registry registers — the session then skips the query and
/// counts it, exactly like any other unregistered-dialect push.
pub const UNRECOGNIZED_DIALECT: Dialect = Dialect::new("unrecognized");

/// The outcome of decoding a batch body: the well-formed items plus how many entries were
/// dropped as malformed (no tenant identity, or a shape that is not an item at all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedBatch {
    /// Items that carried a tenant identity and at least an empty query list.
    pub items: Vec<LogItem>,
    /// Entries dropped for missing/non-string `user_id` or `thread_id`.
    pub malformed: usize,
}

/// Decodes a `POST /logs` body that has already parsed as JSON.
///
/// Accepts `{"logs": [...]}`, a bare array, or a single item object.  Each item's
/// `log.queries` entries may be objects (`{"query": "...", "dialect": "sql"}`) or bare
/// strings; entries without usable query text are skipped (the session layer counts its
/// own parse skips — this only drops entries that aren't text at all).  `default_dialect`
/// tags entries that don't name one; names outside `known` (the server's registered
/// dialects) collapse to [`UNRECOGNIZED_DIALECT`].
pub fn decode_batch(body: &Json, default_dialect: Dialect, known: &[Dialect]) -> DecodedBatch {
    let entries: &[Json] = if let Some(list) = body.get("logs").and_then(Json::as_array) {
        list
    } else if let Some(list) = body.as_array() {
        list
    } else {
        std::slice::from_ref(body)
    };
    let mut items = Vec::new();
    let mut malformed = 0usize;
    for entry in entries {
        match decode_item(entry, default_dialect, known) {
            Some(item) => items.push(item),
            None => malformed += 1,
        }
    }
    DecodedBatch { items, malformed }
}

fn decode_item(entry: &Json, default_dialect: Dialect, known: &[Dialect]) -> Option<LogItem> {
    let user_id = entry.get("user_id")?.as_str()?;
    let thread_id = entry.get("thread_id")?.as_str()?;
    // `log.queries` preferred; a top-level `queries` is accepted too.  A missing list is a
    // valid (empty) item — e.g. a heartbeat entry from an upstream logger.
    let queries = entry
        .get("log")
        .and_then(|log| log.get("queries"))
        .or_else(|| entry.get("queries"))
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    // Sized for every entry at once: collecting the filtered entries would grow the list by
    // doubling, and a body of many short entries would then request several times its own
    // length.
    let mut decoded = Vec::with_capacity(queries.len());
    decoded.extend(queries.iter().filter_map(|q| {
        let text = q.as_str().or_else(|| q.get("query")?.as_str())?;
        let dialect = match q.get("dialect").and_then(Json::as_str) {
            None => default_dialect,
            Some(name) => known
                .iter()
                .copied()
                .find(|d| d.name() == name)
                .unwrap_or(UNRECOGNIZED_DIALECT),
        };
        Some((dialect, Arc::from(text)))
    }));
    Some(LogItem {
        user_id: user_id.to_string(),
        thread_id: thread_id.to_string(),
        queries: decoded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: [Dialect; 2] = [Dialect::SQL, Dialect::FRAMES];

    fn item(user: &str, thread: &str, queries: &[(Dialect, &str)]) -> LogItem {
        LogItem {
            user_id: user.into(),
            thread_id: thread.into(),
            queries: queries.iter().map(|(d, t)| (*d, Arc::from(*t))).collect(),
        }
    }

    #[test]
    fn batches_round_trip_through_the_wire_encoding() {
        let items = vec![
            item(
                "u1",
                "t1",
                &[
                    (Dialect::SQL, "SELECT a FROM t WHERE x = 1"),
                    (Dialect::FRAMES, "t.filter(x == 2).select(a)"),
                ],
            ),
            item("u2", "t9", &[]),
        ];
        let body = Json::parse(&encode_batch(&items)).unwrap();
        let decoded = decode_batch(&body, Dialect::SQL, &KNOWN);
        assert_eq!(decoded.items, items);
        assert_eq!(decoded.malformed, 0);
    }

    #[test]
    fn decode_tolerates_oxy_style_items() {
        // The exemplar shape: extra keys, string timestamps, query objects with unrelated
        // metadata.  Everything unknown is ignored; the tenant identity and texts survive.
        let body = Json::parse(
            r#"{"logs": [{
                "id": "01J8",
                "user_id": "ada",
                "thread_id": "thread-7",
                "prompts": "show me delays",
                "log": {"queries": [
                    {"query": "SELECT a FROM t WHERE x = 1", "is_verified": true, "database": "dw"},
                    "SELECT a FROM t WHERE x = 2",
                    {"query": "t.filter(x == 3)", "dialect": "frames"},
                    {"no_query_text": 1}
                ]},
                "created_at": "2026-08-09T12:00:00Z"
            }]}"#,
        )
        .unwrap();
        let decoded = decode_batch(&body, Dialect::SQL, &KNOWN);
        assert_eq!(decoded.malformed, 0);
        assert_eq!(decoded.items.len(), 1);
        assert_eq!(
            decoded.items[0].queries,
            vec![
                (Dialect::SQL, Arc::from("SELECT a FROM t WHERE x = 1")),
                (Dialect::SQL, Arc::from("SELECT a FROM t WHERE x = 2")),
                (Dialect::FRAMES, Arc::from("t.filter(x == 3)")),
            ]
        );
    }

    #[test]
    fn bare_arrays_and_single_items_decode_too() {
        let single =
            Json::parse(r#"{"user_id": "u", "thread_id": "t", "queries": ["SELECT a FROM t"]}"#)
                .unwrap();
        assert_eq!(decode_batch(&single, Dialect::SQL, &KNOWN).items.len(), 1);
        let array = Json::parse(
            r#"[{"user_id": "u", "thread_id": "t"}, {"user_id": "v", "thread_id": "t"}]"#,
        )
        .unwrap();
        assert_eq!(decode_batch(&array, Dialect::SQL, &KNOWN).items.len(), 2);
    }

    #[test]
    fn items_without_a_tenant_identity_count_as_malformed() {
        let body = Json::parse(
            r#"{"logs": [
                {"thread_id": "t", "queries": ["SELECT a FROM t"]},
                {"user_id": "u", "queries": []},
                {"user_id": 7, "thread_id": "t"},
                "not an item",
                {"user_id": "ok", "thread_id": "t"}
            ]}"#,
        )
        .unwrap();
        let decoded = decode_batch(&body, Dialect::SQL, &KNOWN);
        assert_eq!(decoded.malformed, 4);
        assert_eq!(decoded.items.len(), 1);
        assert_eq!(decoded.items[0].user_id, "ok");
    }
}
