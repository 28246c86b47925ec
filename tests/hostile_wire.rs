//! Hostile bodies for the ingest decoder: `Json::parse` and then `wire::decode_batch`, the
//! two calls `POST /logs` makes on a UTF-8 body, return a value or an error, never panic,
//! and request at most 64 KiB plus 64 bytes per input byte.
//!
//! The counting global allocator of `support/counting_alloc.rs` keeps a per-thread tally of
//! the bytes requested from it (`alloc`, `alloc_zeroed`, and the new size of every
//! `realloc`).  The bodies start from what `encode_batch` writes for generated batches
//! (tenant ids with escapes and multibyte characters, statements of both dialects), and
//! then:
//!
//! * bytes are flipped, to random bytes or to the format's own punctuation;
//! * bodies are cut at every byte and at random points;
//! * ranges are spliced into other bodies, or repeated in place;
//! * arrays and objects nest at and past the parser's 128-level bound;
//! * shapes that cost the decoder the most per byte are repeated: many empty statements,
//!   many one-element arrays, many empty items.
//!
//! A body that is not UTF-8 is refused before either call, as the server refuses it; its
//! lossy decoding is fed instead, so a flipped byte still reaches the parser.
//!
//! The per-byte figure is the parser's own worst case, reached and not passed: a JSON
//! value takes 32 bytes, an array element at least two bytes of input (`0,`, or `[` and
//! `]`), and an array that grows by doubling requests at most four slots per element (a
//! one-element array requests four), so arrays of short elements request just under 64
//! bytes per byte.  The decoder sizes each query list once: grown by doubling, a list of
//! 1,025 empty statements made a 3,129-byte body request 279,203 bytes, 89 per byte.
//!
//! This binary holds one test, so no other thread allocates while a body is decoded.

use precision_interfaces::prelude::*;
use precision_interfaces::server::wire::{decode_batch, encode_batch, LogItem};
use precision_interfaces::ui::Json;
use precision_interfaces::workloads::trace::zipf_trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocated_bytes;

/// Bytes a body may request whatever its length.
const FLAT: u64 = 64 * 1024;
/// Bytes a body may request per byte it holds.
const PER_BYTE: u64 = 64;

const KNOWN: [Dialect; 2] = [Dialect::SQL, Dialect::FRAMES];

/// A fixed LCG, so every body is reproducible.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = (self.0)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) as usize % bound
    }
}

/// What decoding each body came to, for the closing summary.
#[derive(Default)]
struct Tally {
    bodies: usize,
    parsed: usize,
    items: usize,
    /// The largest share of the per-byte allowance any body used, beyond the flat part.
    worst: f64,
}

impl Tally {
    /// Parses and decodes `body` as the server does, counting what it requests.
    fn decode(&mut self, body: &str) {
        let before = allocated_bytes();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Json::parse(body).map(|json| decode_batch(&json, Dialect::SQL, &KNOWN))
        }));
        let requested = allocated_bytes() - before;
        let snippet: String = body.chars().take(120).collect();
        let Ok(result) = outcome else {
            panic!("decoding a {}-byte body panicked: {snippet:?}", body.len());
        };
        let bound = FLAT + PER_BYTE * body.len() as u64;
        assert!(
            requested <= bound,
            "a {}-byte body requested {requested} bytes, past {bound}: {snippet:?}",
            body.len()
        );
        self.bodies += 1;
        if let Ok(batch) = &result {
            self.parsed += 1;
            self.items += batch.items.len();
        }
        if !body.is_empty() {
            let share =
                requested.saturating_sub(FLAT) as f64 / (PER_BYTE * body.len() as u64) as f64;
            self.worst = self.worst.max(share);
        }
    }

    /// Decodes `bytes` if they are UTF-8, and their lossy decoding otherwise.
    fn decode_bytes(&mut self, bytes: &[u8]) {
        self.decode(&String::from_utf8_lossy(bytes));
    }
}

/// Tenant ids that exercise the string decoder: escapes, control characters, multibyte
/// characters and a surrogate pair.
const IDS: &[&str] = &[
    "u1",
    "t-7",
    "quote\"d",
    "back\\slash",
    "tab\there",
    "é中",
    "😀",
    "\u{1}",
];

/// Generated batches, as `encode_batch` writes them.
fn batches(rng: &mut Lcg) -> Vec<String> {
    let statements: Vec<(Dialect, String)> = zipf_trace(64, 64, 0.1, 5).collect();
    (0..24)
        .map(|_| {
            let items: Vec<LogItem> = (0..1 + rng.below(4))
                .map(|_| LogItem {
                    user_id: IDS[rng.below(IDS.len())].to_string(),
                    thread_id: IDS[rng.below(IDS.len())].to_string(),
                    queries: (0..rng.below(5))
                        .map(|_| {
                            let (dialect, text) = &statements[rng.below(statements.len())];
                            (*dialect, Arc::from(text.as_str()))
                        })
                        .collect(),
                })
                .collect();
            encode_batch(&items)
        })
        .collect()
}

/// Bytes a flip writes: random ones half the time, the format's punctuation otherwise.
const PUNCTUATION: &[u8] = b"{}[]\",:\\ 0-.eE+tfnu";

/// Arrays and objects nested `depth` deep, closed or left open.
fn nested(depth: usize) -> Vec<String> {
    vec![
        "[".repeat(depth) + &"]".repeat(depth),
        "[".repeat(depth),
        "{\"a\":".repeat(depth) + "0" + &"}".repeat(depth),
        "[{\"a\":".repeat(depth) + "1" + &"}]".repeat(depth),
        format!(
            "{{\"logs\":[{{\"user_id\":\"u\",\"thread_id\":\"t\",\"log\":{{\"queries\":{}{}}}}}]}}",
            "[".repeat(depth),
            "]".repeat(depth)
        ),
    ]
}

/// `unit` repeated `count` times inside `open` and `close`.
fn repeated(open: &str, unit: &str, count: usize, close: &str) -> String {
    let mut body = String::from(open);
    for _ in 0..count {
        body.push_str(unit);
    }
    body.push_str(close);
    body
}

#[test]
fn hostile_bodies_decode_or_fail_within_their_allocation_bound() {
    let mut rng = Lcg(0x5DEE_CE66_D1CE_4E5B);
    let mut tally = Tally::default();
    let bodies = batches(&mut rng);
    for body in &bodies {
        tally.decode(body);
        let bytes = body.as_bytes();
        // Every cut, as a torn write or a short read leaves the body.
        for cut in 0..bytes.len() {
            tally.decode_bytes(&bytes[..cut]);
        }
        for _ in 0..200 {
            let mut flipped = bytes.to_vec();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(flipped.len());
                flipped[at] = match rng.below(2) {
                    0 => rng.below(256) as u8,
                    _ => PUNCTUATION[rng.below(PUNCTUATION.len())],
                };
            }
            tally.decode_bytes(&flipped);
        }
        for _ in 0..100 {
            // A range of another body spliced in, or of this one repeated in place.
            let other = bodies[rng.below(bodies.len())].as_bytes();
            let from = rng.below(other.len());
            let span = &other[from..from + rng.below(other.len() - from + 1)];
            let at = rng.below(bytes.len() + 1);
            let times = 1 + rng.below(8);
            let mut spliced = bytes[..at].to_vec();
            for _ in 0..times {
                spliced.extend_from_slice(span);
            }
            spliced.extend_from_slice(&bytes[at..]);
            tally.decode_bytes(&spliced);
        }
    }
    for depth in [1, 127, 128, 129, 130, 1_000, 100_000] {
        for body in nested(depth) {
            tally.decode(&body);
        }
    }
    let item = "{\"user_id\":\"u\",\"thread_id\":\"t\",\"log\":{\"queries\":";
    for count in [1, 4, 5, 1_024, 1_025, 65_537] {
        tally.decode(&repeated(&format!("[{item}["), "\"\",", count, "]}}]"));
        tally.decode(&repeated("[", "0,", count, "0]"));
        tally.decode(&repeated("[", "[0],", count, "]"));
        tally.decode(&repeated("[", "[[[0]]],", count, "]"));
        tally.decode(&repeated("[", "{\"a\":{}},", count, "]"));
        tally.decode(&repeated(
            "[",
            "{\"user_id\":\"\",\"thread_id\":\"\"},",
            count,
            "]",
        ));
        tally.decode(&repeated(
            "{\"logs\":[",
            &format!("{item}[\"\"]}}}},"),
            count,
            "]}",
        ));
    }
    println!(
        "{} bodies, {} parsed, {} items decoded; the worst used {:.2} of the per-byte allowance",
        tally.bodies, tally.parsed, tally.items, tally.worst
    );
    assert!(
        tally.parsed > 1_000 && tally.items > 1_000,
        "{} bodies parsed and {} items decoded: the mutations should leave many bodies valid",
        tally.parsed,
        tally.items
    );
}
