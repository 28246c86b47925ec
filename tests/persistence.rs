//! Property tests for session persistence: a mined [`Session`]'s versioned binary
//! snapshot must restore **byte-identically** — same graph, same `DiffId`s, same widgets,
//! same version and skip counts, same future mining — across memoization on/off, parallel
//! mining on/off (runs under `PI_THREADS=1` and `PI_THREADS=4` in CI like every other
//! determinism property) and mixed SQL + frames logs with garbage spliced in.  And every
//! corrupted, truncated or wrong-version snapshot must fail restore with a clean error —
//! never a panic, never a silently different graph.
//!
//! The golden-fixture test at the bottom pins the *wire format*: a snapshot checked in at
//! format version 1 must keep restoring until `SNAPSHOT_VERSION` is deliberately bumped
//! (regenerate with `PI_REGEN_GOLDEN=1 cargo test --test persistence`).

use precision_interfaces::ast::{CodecError, Dialect};
use precision_interfaces::core::{PiOptions, Session, SNAPSHOT_VERSION};
use precision_interfaces::graph::WindowStrategy;
use precision_interfaces::workloads::frames::repetitive_mixed_walk;
use proptest::prelude::*;

/// Feeds a deterministic mixed SQL + frames stream (with one unparseable statement when
/// `garble`) into a fresh session configured by the matrix axes.
fn mined_session(seed: u64, len: usize, memoize: bool, parallel: bool, garble: bool) -> Session {
    let options = PiOptions {
        window: WindowStrategy::sliding(4),
        memoize,
        parallel,
        ..PiOptions::default()
    };
    let mut session = Session::new(options);
    let log = repetitive_mixed_walk(seed, len.max(1), 5);
    let mut stream: Vec<(Dialect, String)> = log
        .dialects
        .iter()
        .copied()
        .zip(log.text.iter().cloned())
        .collect();
    if garble {
        let dialect = stream[0].0;
        stream.insert(stream.len() / 2, (dialect, "NOT A QUERY ((".to_string()));
    }
    session.push_stream_tagged(stream.iter().map(|(d, t)| (*d, t.as_str())));
    session
}

/// The full identity contract between a restored session and its original.
fn assert_restored_identical(original: &mut Session, restored: &mut Session) {
    assert_eq!(restored.version(), original.version());
    assert_eq!(restored.len(), original.len());
    assert_eq!(restored.distinct(), original.distinct());
    assert_eq!(restored.skipped(), original.skipped());
    assert_eq!(restored.dialects(), original.dialects());
    assert_eq!(restored.graph(), original.graph());
    assert_eq!(restored.graph_stats(), original.graph_stats());
    // The parse cache is deliberately not persisted, so the restored session can only be
    // lighter than the original — the mined state itself round-trips exactly.
    assert!(restored.memory_footprint() <= original.memory_footprint());
    assert_eq!(
        restored.parse_errors().seen(),
        original.parse_errors().seen()
    );
    let (snap_r, snap_o) = (restored.snapshot(), original.snapshot());
    assert_eq!(snap_r.version, snap_o.version);
    assert_eq!(snap_r.graph_stats, snap_o.graph_stats);
    assert_eq!(snap_r.interface.widgets(), snap_o.interface.widgets());
    assert_eq!(snap_r.interface.describe(), snap_o.interface.describe());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// persist → restore reproduces the session exactly, keeps mining identically on the
    /// same suffix, and re-persisting yields the same bytes (snapshot determinism).
    #[test]
    fn persist_restore_is_byte_identical_across_the_matrix(
        seed in 0u64..512,
        len in 2usize..24,
        memoize in prop::bool::ANY,
        parallel in prop::bool::ANY,
        garble in prop::bool::ANY,
    ) {
        let mut original = mined_session(seed, len, memoize, parallel, garble);
        let bytes = original.persist_to_vec().expect("persist");
        let mut restored = Session::restore_with(
            &mut bytes.as_slice(),
            original.options().clone(),
        ).expect("restore");

        // Determinism: the restored session re-persists to the exact same bytes.  (Checked
        // before the first `snapshot()` call: rendering accumulates mapping wall-clock into
        // the persisted timings, which is honest bookkeeping but not byte-stable.)
        let again = restored.persist_to_vec().expect("re-persist");
        prop_assert_eq!(&again, &bytes, "persist ∘ restore ∘ persist must be byte-stable");

        assert_restored_identical(&mut original, &mut restored);

        // Continuation: both halves mine an identical suffix identically — and end up
        // persisting identically, so the restored memo really is warm and in sync.
        let suffix = repetitive_mixed_walk(seed ^ 0xdead_beef, 6, 4);
        for (dialect, text) in suffix.dialects.iter().zip(suffix.text.iter()) {
            original.push_stream_tagged([(*dialect, text)]);
            restored.push_stream_tagged([(*dialect, text)]);
        }
        assert_restored_identical(&mut original, &mut restored);
    }

    /// Any single-byte corruption or truncation fails restore with a clean error: the
    /// envelope checksum rejects flips, framing rejects truncation, and nothing panics.
    #[test]
    fn corrupted_snapshots_err_cleanly(seed in 0u64..256, len in 2usize..10) {
        let original = mined_session(seed, len, true, false, false);
        let bytes = original.persist_to_vec().expect("persist");

        // Truncation at every prefix length.
        for cut in 0..bytes.len() {
            prop_assert!(Session::restore(&mut bytes[..cut].as_ref()).is_err(),
                "truncation at {cut} must fail restore");
        }
        // Single-byte flips everywhere (stride keeps the case fast; the stride phase
        // varies with the seed so the corpus covers every offset class).
        let stride = 7;
        let phase = (seed as usize) % stride;
        for i in (phase..bytes.len()).step_by(stride) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x11;
            prop_assert!(Session::restore(&mut bad.as_slice()).is_err(),
                "flipping byte {i} must fail restore");
        }
    }
}

#[test]
fn foreign_and_wrong_version_snapshots_are_rejected() {
    // Not a snapshot at all.
    assert!(Session::restore(&mut &b"definitely not a snapshot"[..]).is_err());
    assert!(Session::restore(&mut &[][..]).is_err());

    // A valid snapshot whose version stamp is from the future must fail with the
    // dedicated Version error, not a misread.
    let mut session = Session::new(PiOptions::default());
    session.push_stream_tagged([(
        Dialect::SQL,
        "SELECT a FROM t WHERE x = 1; SELECT a FROM t WHERE x = 2;",
    )]);
    let mut bytes = session.persist_to_vec().unwrap();
    let version_at = b"PISNAP".len();
    bytes[version_at..version_at + 4].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    match Session::restore(&mut bytes.as_slice()) {
        Err(CodecError::Version { found, supported }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
            assert_eq!(supported, SNAPSHOT_VERSION);
        }
        other => panic!("expected a Version error, got {other:?}"),
    }
}

/// The fixed statement log behind the golden fixture — touches both dialects, a repeated
/// shape (exercising dedup + memo in the snapshot) and one garbage statement (exercising
/// the error-sample envelope).
fn golden_statements() -> Vec<(Dialect, &'static str)> {
    vec![
        (Dialect::SQL, "SELECT day, sales FROM t WHERE cty = 'USA'"),
        (Dialect::SQL, "SELECT day, costs FROM t WHERE cty = 'EUR'"),
        (Dialect::FRAMES, "t.filter(x == 2).select(day)"),
        (Dialect::SQL, "THIS IS NOT SQL"),
        (Dialect::SQL, "SELECT day, sales FROM t WHERE cty = 'USA'"),
        (Dialect::FRAMES, "t.filter(x == 9).select(day)"),
        (
            Dialect::SQL,
            "SELECT day, sales FROM t WHERE cty = 'CHN' ORDER BY day",
        ),
    ]
}

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn golden_path() -> std::path::PathBuf {
    fixture("session_v1.pisnap")
}

/// A fresh session mined from [`golden_statements`].
fn golden_session() -> Session {
    let mut session = Session::new(PiOptions::default());
    session.push_stream_tagged(golden_statements());
    session
}

/// A restored golden snapshot equals a fresh mine of the same statements.
fn assert_equals_a_fresh_mine(restored: &mut Session) {
    let mut fresh = golden_session();
    assert_eq!(restored.version(), fresh.version());
    assert_eq!(restored.skipped(), fresh.skipped());
    assert_eq!(restored.dialects(), fresh.dialects());
    assert_eq!(restored.graph(), fresh.graph());
    assert_eq!(
        restored.snapshot().interface.describe(),
        fresh.snapshot().interface.describe()
    );
}

/// Wire-format compatibility: the checked-in version-1 snapshot must keep restoring, and
/// must restore to exactly what mining the same statements produces today.  If this test
/// fails after a codec change, the format broke: bump `SNAPSHOT_VERSION` and regenerate
/// the fixture (`PI_REGEN_GOLDEN=1 cargo test --test persistence golden`).
#[test]
fn golden_snapshot_keeps_restoring() {
    let path = golden_path();
    if std::env::var_os("PI_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, golden_session().persist_to_vec().unwrap()).unwrap();
    }
    let bytes = std::fs::read(&path).expect(
        "golden fixture missing — generate it with PI_REGEN_GOLDEN=1 cargo test --test persistence",
    );
    let mut restored = Session::restore(&mut bytes.as_slice())
        .expect("the v1 golden snapshot must restore; a format break requires a version bump");

    // The round trip is lossless: re-persisting reproduces the fixture bytes exactly.
    // (Checked before `snapshot()` runs — rendering accumulates mapping wall-clock time
    // into the timings section.)
    assert_eq!(restored.persist_to_vec().unwrap(), bytes);

    assert_equals_a_fresh_mine(&mut restored);
}

/// A version-1 snapshot written while the memo still admitted pairs in tiers: its memo
/// section carries two seen-once keys and lacks the entries of pairs it aligned without
/// memoizing (their runs are explicit).  It must keep restoring to what mining the same
/// statements produces today, and its first re-persist — which drops the keys — must be a
/// fixed point of persist ∘ restore.
#[test]
fn snapshots_with_seen_once_keys_keep_restoring() {
    let bytes = std::fs::read(fixture("session_v1_seen_once.pisnap")).expect("fixture");
    let mut restored = Session::restore(&mut bytes.as_slice())
        .expect("a v1 snapshot with seen-once keys must restore");
    let repersisted = restored.persist_to_vec().unwrap();
    assert_ne!(repersisted, bytes, "the seen-once keys are not re-written");
    let mut again = Session::restore(&mut repersisted.as_slice()).expect("re-restore");
    assert_eq!(again.persist_to_vec().unwrap(), repersisted);

    assert_equals_a_fresh_mine(&mut restored);
    assert_equals_a_fresh_mine(&mut again);
}
