//! Hostile bytes for the durable decoders: a snapshot's node table, a session snapshot's
//! mining section, a journal segment of batch records and a spill file.
//!
//! Each property starts from what the writers produce and edits those bytes: it flips them,
//! cuts them, splices in ranges of their own, and writes large counts over them.  Every
//! decoder returns a value or an error, and never panics.  The node-table and journal cases
//! are also held to the allowance of `tests/hostile_wire.rs`: 64 KiB plus 64 bytes per
//! input byte requested from the allocator, counted per thread by
//! `support/counting_alloc.rs`.
//!
//! One test holds a count the input declares, but cannot back, to 64 bytes per input byte
//! with no flat part: a decoder reserves no more entries than the bytes left can hold.

use precision_interfaces::ast::codec::{self, NodeTableBuilder};
use precision_interfaces::graph::{codec::write_accumulator, GraphAccumulator, GraphBuilder};
use precision_interfaces::prelude::*;
use precision_interfaces::server::journal::Journal;
use precision_interfaces::server::{DurabilityOptions, PoolOptions};
use precision_interfaces::workloads::trace::zipf_trace;
use proptest::prelude::*;
use std::ffi::OsString;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocated_bytes;

/// Bytes an input may request whatever its length.
const FLAT: u64 = 64 * 1024;
/// Bytes an input may request per byte it holds.
const PER_BYTE: u64 = 64;

/// The name of the one journal segment the journal cases write.
const SEGMENT: &str = "shard000-0000000000.wal";

/// Varints declaring large counts: 2^16 - 1, the 2^28 sanity bound, one past it, 2^63, and
/// one that overflows a `u64`.
const COUNTS: [&[u8]; 5] = [
    &[0xff, 0xff, 0x03],
    &[0x80, 0x80, 0x80, 0x80, 0x01],
    &[0x81, 0x80, 0x80, 0x80, 0x01],
    &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
    &[0xff; 10],
];

/// One edit of writer output.  Positions are drawn wide and taken modulo the length of the
/// bytes they edit, so one strategy serves inputs of any length.
#[derive(Debug, Clone)]
enum Edit {
    /// XORs one byte with a nonzero mask.
    Flip { at: usize, mask: u8 },
    /// Cuts the bytes short.
    Cut { at: usize },
    /// Inserts `times` copies of a range of the bytes.
    Splice {
        from: usize,
        len: usize,
        at: usize,
        times: usize,
    },
    /// Inserts one of [`COUNTS`], or writes it over the bytes that were there.
    Count {
        at: usize,
        which: usize,
        overwrite: bool,
    },
}

impl Edit {
    fn apply(&self, bytes: &mut Vec<u8>) {
        let n = bytes.len();
        match *self {
            Edit::Flip { at, mask } if n > 0 => bytes[at % n] ^= mask,
            Edit::Flip { .. } => {}
            Edit::Cut { at } => bytes.truncate(at % (n + 1)),
            Edit::Splice {
                from,
                len,
                at,
                times,
            } => {
                let from = from % (n + 1);
                let span = bytes[from..(from + len).min(n)].repeat(times);
                let at = at % (n + 1);
                bytes.splice(at..at, span);
            }
            Edit::Count {
                at,
                which,
                overwrite,
            } => {
                let at = at % (n + 1);
                let count = COUNTS[which];
                let end = if overwrite {
                    (at + count.len()).min(n)
                } else {
                    at
                };
                bytes.splice(at..end, count.iter().copied());
            }
        }
    }
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    (
        0u8..4,
        0usize..1 << 20,
        0usize..1 << 20,
        1u16..256,
        0usize..64,
        1usize..8,
        0usize..COUNTS.len(),
        prop::bool::ANY,
    )
        .prop_map(
            |(kind, at, from, mask, len, times, which, overwrite)| match kind {
                0 => Edit::Flip {
                    at,
                    mask: mask as u8,
                },
                1 => Edit::Cut { at },
                2 => Edit::Splice {
                    from,
                    len,
                    at,
                    times,
                },
                _ => Edit::Count {
                    at,
                    which,
                    overwrite,
                },
            },
        )
}

/// One to three edits, applied in order.
fn arb_edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec(arb_edit(), 1..4)
}

fn edited(bytes: &[u8], edits: &[Edit]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for edit in edits {
        edit.apply(&mut out);
    }
    out
}

/// The statements every writer is fed: a short Zipf trace of both dialects.
fn statements() -> Vec<(Dialect, String)> {
    zipf_trace(48, 16, 0.1, 11).collect()
}

/// A fresh, empty directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pi-hostile-durable-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `decode` on `input`, failing if it panics or requests more than the allowance.
fn within_allowance<T>(what: &str, input: &[u8], edits: &[Edit], decode: impl FnOnce() -> T) {
    let before = allocated_bytes();
    let outcome = catch_unwind(AssertUnwindSafe(decode));
    let requested = allocated_bytes() - before;
    assert!(
        outcome.is_ok(),
        "decoding a {}-byte {what} panicked; edits {edits:?}",
        input.len()
    );
    let bound = FLAT + PER_BYTE * input.len() as u64;
    assert!(
        requested <= bound,
        "a {}-byte {what} requested {requested} bytes, past {bound}; edits {edits:?}",
        input.len()
    );
}

#[test]
fn a_declared_count_reserves_no_more_than_the_input_holds() {
    // A node table declaring 65,535 entries and holding none.
    let table = [0xff, 0xff, 0x03];
    let before = allocated_bytes();
    assert!(codec::read_node_table(&mut table.as_slice()).is_err());
    let requested = allocated_bytes() - before;
    assert!(
        requested <= PER_BYTE * table.len() as u64,
        "a 3-byte node table requested {requested} bytes"
    );

    // A checksummed batch record (tag 1, tenant `u`/`t`, sequence 0) declaring 65,535
    // statements and holding none.
    let segment = codec::record_frame(&[1, 1, b'u', 1, b't', 0, 0xff, 0xff, 0x03]);
    assert_eq!(segment.len(), 18);
    let dir = scratch("count");
    std::fs::write(dir.join(SEGMENT), &segment).unwrap();
    let options = DurabilityOptions::new(&dir);
    let before = allocated_bytes();
    let (journal, recovered) = Journal::open(options).unwrap();
    let requested = allocated_bytes() - before;
    assert_eq!((recovered.records, recovered.torn_tails), (0, 1));
    assert!(
        requested <= PER_BYTE * segment.len() as u64,
        "opening an 18-byte segment requested {requested} bytes"
    );
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A node table of the statements' trees, as `NodeTableBuilder` writes it.
fn node_table() -> &'static [u8] {
    static TABLE: OnceLock<Vec<u8>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let frontends = precision_interfaces::core::standard_frontends();
        let mut builder = NodeTableBuilder::new();
        for (dialect, text) in statements() {
            let frontend = frontends.get(dialect).expect("a standard dialect");
            if let Ok(query) = frontend.parse_one(&text) {
                builder.intern(&query);
            }
        }
        let mut table = Vec::new();
        builder.write_to(&mut table).unwrap();
        table
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A node table as `NodeTableBuilder` writes it, edited.
    #[test]
    fn hostile_node_tables_decode_or_fail_within_the_allowance(edits in arb_edits()) {
        let input = edited(node_table(), &edits);
        within_allowance("node table", &input, &edits, || {
            let _ = codec::read_node_table(&mut input.as_slice());
        });
    }
}

/// A session's snapshot and the offset of its mining section, which runs from there to the
/// checksum.  The section is written again from an accumulator mined with the session's
/// options, and must equal the snapshot's last bytes before the checksum.
fn snapshot_and_mining_offset() -> &'static (Vec<u8>, usize) {
    static SNAPSHOT: OnceLock<(Vec<u8>, usize)> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let options = PiOptions::default();
        let mut session = Session::new(options.clone());
        let statements = statements();
        session.push_stream_tagged(statements.iter().map(|(d, t)| (*d, t.as_str())));
        let snapshot = session.persist_to_vec().unwrap();
        let builder = GraphBuilder::new()
            .window(options.window)
            .policy(options.policy)
            .parallel(options.parallel)
            .threads(options.threads)
            .steal_seed(options.steal_seed)
            .memoize(options.memoize);
        let mut acc = GraphAccumulator::new();
        builder.extend_batch(&mut acc, session.graph().queries().to_vec());
        let mut mining = Vec::new();
        write_accumulator(&mut mining, &acc).unwrap();
        let end = snapshot.len() - 8;
        let start = end - mining.len();
        assert_eq!(&snapshot[start..end], mining, "the mining section");
        (snapshot, start)
    })
}

/// The snapshot's magic (`PISNAP`) and version stamp, which the checksum does not cover.
const SNAPSHOT_HEADER: usize = 6 + 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A session snapshot whose mining section is edited and whose checksum is resealed
    /// over the edit, so the edited bytes reach the decoder.  A snapshot that restores
    /// must also map and persist.
    #[test]
    fn resealed_mining_sections_restore_or_fail(edits in arb_edits()) {
        let &(ref snapshot, start) = snapshot_and_mining_offset();
        assert_eq!(&snapshot[..6], b"PISNAP");
        let end = snapshot.len() - 8;
        let mut input = snapshot[..start].to_vec();
        input.extend(edited(&snapshot[start..end], &edits));
        let sum = codec::checksum(&input[SNAPSHOT_HEADER..]);
        input.extend(sum.to_le_bytes());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Ok(mut restored) = Session::restore(&mut input.as_slice()) {
                let _ = restored.graph();
                let _ = restored.snapshot();
                restored.persist_to_vec().expect("a restored session persists");
            }
        }));
        prop_assert!(outcome.is_ok(), "restoring panicked; edits {edits:?}");
    }

    /// A journal segment of batch records, edited and scanned by `Journal::open`.  The
    /// segment is the pool's journal fixture, which pi-server's tests check the journal
    /// still writes byte for byte.
    #[test]
    fn hostile_journal_segments_open_within_the_allowance(edits in arb_edits()) {
        let segment = include_bytes!("fixtures/shard000-0000000000.wal");
        let input = edited(segment, &edits);
        let dir = scratch("journal");
        std::fs::write(dir.join(SEGMENT), &input).unwrap();
        let options = DurabilityOptions::new(&dir);
        within_allowance("journal segment", &input, &edits, || {
            Journal::open(options).map(|(_, recovered)| recovered.records).ok()
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A pool over `dir` with one worker and no journal: a tenant's spill file there is read
/// on its first use.
fn spill_pool(dir: &Path) -> Arc<SessionPool> {
    SessionPool::with_spill(
        PoolOptions {
            capacity: 4,
            shards: 1,
            workers: 1,
            ..PoolOptions::default()
        },
        Some(dir.to_path_buf()),
    )
}

/// The spill file a pool writes for tenant `ada/t1` on close: its name and its bytes.
fn spill_file() -> &'static (OsString, Vec<u8>) {
    static SPILL: OnceLock<(OsString, Vec<u8>)> = OnceLock::new();
    SPILL.get_or_init(|| {
        let dir = scratch("spill-writer");
        let pool = spill_pool(&dir);
        pool.enqueue_tagged("ada", "t1", statements()).unwrap();
        pool.close();
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap())
            .find(|e| e.path().extension().is_some_and(|x| x == "pisnap"))
            .expect("closing the pool spills its tenant");
        let spill = (entry.file_name(), std::fs::read(entry.path()).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
        spill
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A spill file as the pool wrote it, edited and read by a pool reopened over it.
    #[test]
    fn hostile_spill_files_restore_or_fail_in_a_reopened_pool(edits in arb_edits()) {
        let (name, spill) = spill_file();
        let dir = scratch("spill");
        std::fs::write(dir.join(name), edited(spill, &edits)).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let pool = spill_pool(&dir);
            let version = pool.snapshot("ada", "t1").map(|s| s.version);
            pool.close();
            version
        }));
        prop_assert!(outcome.is_ok(), "a reopened pool panicked; edits {edits:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
