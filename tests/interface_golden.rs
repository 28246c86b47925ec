//! Paper-fidelity gate: what the pipeline mines from fixed logs is pinned to a text
//! fixture, so a performance change to parsing, mining or mapping cannot silently change
//! the interfaces it produces.
//!
//! For each log the fixture records the widget count, one [`Widget::describe`] line per
//! widget (type, path, first options, cost), and an FNV-1a digest of the full
//! `interface_spec` JSON — the document `GET /interfaces/...` serves — which also pins
//! option lists longer than `describe` shows and every option's dialect tag.
//!
//! Regenerate after an *intended* change to what is mined:
//! `PI_REGEN_GOLDEN=1 cargo test --test interface_golden`.

use precision_interfaces::graph::WindowStrategy;
use precision_interfaces::prelude::*;
use precision_interfaces::ui::interface_spec;
use precision_interfaces::workloads::trace::zipf_trace;
use precision_interfaces::workloads::{frames, olap, QueryLog};
use std::fmt::Write as _;

/// FNV-1a over a string's bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A whole walk log pushed with its dialect tags at the default options, then one
/// snapshot.
fn mine_log(log: &QueryLog) -> Interface {
    let mut session = Session::new(PiOptions::default());
    for (dialect, query) in log.tagged_queries() {
        session.push_tagged(dialect, query);
    }
    session.into_snapshot().interface
}

/// A `zipf_trace` (1% garbage) streamed in 64-line batches, then one snapshot.
fn mine_trace(lines: usize, shapes: usize, seed: u64, window: usize) -> Interface {
    let trace: Vec<(Dialect, String)> = zipf_trace(lines, shapes, 0.01, seed).collect();
    let mut session = Session::new(PiOptions {
        window: WindowStrategy::sliding(window),
        ..PiOptions::default()
    });
    for batch in trace.chunks(64) {
        session.push_stream_tagged(batch.iter().map(|(d, s)| (*d, s.as_str())));
    }
    session.into_snapshot().interface
}

/// A `zipf_trace` (1% garbage) streamed in 64-line batches at `sliding(2)`, persisted
/// after all but the last 64 lines, restored with the same options, then the last 64
/// lines pushed and one snapshot taken — the life of a `crash_restart` tenant: a
/// deduplicated store whose memo lists are shared by many runs, read back from its
/// snapshot and extended.
fn mine_restored_trace(lines: usize, shapes: usize, seed: u64) -> Interface {
    let trace: Vec<(Dialect, String)> = zipf_trace(lines, shapes, 0.01, seed).collect();
    let options = PiOptions {
        window: WindowStrategy::sliding(2),
        ..PiOptions::default()
    };
    let (head, tail) = trace.split_at(lines - 64);
    let mut session = Session::new(options.clone());
    for batch in head.chunks(64) {
        session.push_stream_tagged(batch.iter().map(|(d, s)| (*d, s.as_str())));
    }
    let bytes = session.persist_to_vec().expect("a session persists");
    let mut restored =
        Session::restore_with(&mut bytes.as_slice(), options).expect("its snapshot restores");
    restored.push_stream_tagged(tail.iter().map(|(d, s)| (*d, s.as_str())));
    restored.into_snapshot().interface
}

/// The fixture section of one mined interface.
fn section(name: &str, interface: &Interface) -> String {
    let layout = EditorLayout::new(interface, 2);
    let spec = interface_spec(interface, &layout, &standard_frontends()).to_string();
    let mut out = format!("== {name}\n");
    writeln!(out, "widgets {}", interface.widgets().len()).unwrap();
    writeln!(out, "spec_fnv1a {:016x}", fnv1a(&spec)).unwrap();
    for widget in interface.widgets() {
        writeln!(out, "| {}", widget.describe()).unwrap();
    }
    out
}

/// The fixture text as the code mines it today.
fn mined_fixture() -> String {
    let sections = [
        (
            "olap::random_walk(seed 3, 240 queries), default options",
            mine_log(&olap::random_walk(3, 240)),
        ),
        (
            "olap::repetitive_walk(seed 7, 400 queries, 40 distinct), default options",
            mine_log(&olap::repetitive_walk(7, 400, 40)),
        ),
        (
            "frames::mixed_walk(seed 5, 240 queries), default options",
            mine_log(&frames::mixed_walk(5, 240)),
        ),
        (
            "zipf_trace(512 lines, 512 shapes, seed 11), sliding(16)",
            mine_trace(512, 512, 11, 16),
        ),
        (
            "zipf_trace(4096 lines, 256 shapes, seed 13), sliding(2)",
            mine_trace(4096, 256, 13, 2),
        ),
        (
            "zipf_trace(2048 lines, 256 shapes, seed 17), sliding(2), persisted after 1984, restored, 64 more",
            mine_restored_trace(2048, 256, 17),
        ),
    ];
    sections
        .iter()
        .map(|(name, interface)| section(name, interface))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn mined_interfaces_match_the_golden_fixture() {
    let mined = mined_fixture();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/interface_golden.txt");
    if std::env::var_os("PI_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &mined).unwrap();
    }
    let golden = std::fs::read_to_string(&path).expect(
        "golden fixture missing — generate it with PI_REGEN_GOLDEN=1 cargo test --test interface_golden",
    );
    if let Some((line, (want, got))) = golden
        .lines()
        .zip(mined.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "mined interfaces differ from the fixture at line {}:\n  fixture: {want}\n  mined:   {got}\n\
             (regenerate with PI_REGEN_GOLDEN=1 only if the change is intended)",
            line + 1
        );
    }
    assert_eq!(
        golden.lines().count(),
        mined.lines().count(),
        "mined interfaces differ from the fixture in length"
    );
}
