//! Dataframe-dialect and mixed-dialect query logs.
//!
//! Real query logs are heterogeneous across query languages (the Archive Query Log study
//! counts hundreds), and the paper's tree model was designed so that front-ends beyond SQL
//! target it.  These generators exercise exactly that: they re-render the OLAP random walk
//! of [`crate::olap`] in the `pi-frames` method-chain dialect —
//!
//! ```text
//! ontime.filter(Month == 9 & Day == 3).groupby(DestState).agg(COUNT(Delay))
//! ```
//!
//! — and interleave the two spellings into one mixed log.  Because both front-ends
//! canonicalise to the same tree shapes, [`dataframe_walk`] is *structurally identical*
//! query-for-query to [`crate::olap::random_walk`] with the same seed, and a mixed log
//! mines into the same interaction graph as either pure log: the cross-dialect workload
//! class the multi-front-end refactor opens up.

use crate::olap::{repetitive_states, walk_states, OlapState};
use crate::QueryLog;
use pi_ast::{Dialect, Frontends};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The registry covering both dialects the generators emit.
fn both_frontends() -> Frontends {
    Frontends::new()
        .with(pi_sql::SqlFrontend)
        .with(pi_frames::FramesFrontend)
}

/// The OLAP random walk of [`crate::olap::random_walk`], rendered in the frames dialect:
/// same seed ⇒ the same walk ⇒ structurally identical queries, different surface language.
pub fn dataframe_walk(seed: u64, n: usize) -> QueryLog {
    QueryLog::from_text(
        &pi_frames::FramesFrontend,
        &format!("frames-walk-{seed}"),
        walk_states(seed, n).iter().map(OlapState::to_frames),
    )
}

/// The same walk with every query independently written in SQL or frames (a fair coin per
/// entry, deterministic in the seed): the analyst who mixes a SQL console with a notebook.
pub fn mixed_walk(seed: u64, n: usize) -> QueryLog {
    let mut rng = StdRng::seed_from_u64(0x31a9_0000 ^ seed);
    let entries: Vec<(Dialect, String)> = walk_states(seed, n)
        .iter()
        .map(|state| {
            if rng.gen_bool(0.5) {
                (Dialect::FRAMES, state.to_frames())
            } else {
                (Dialect::SQL, state.to_sql())
            }
        })
        .collect();
    QueryLog::from_tagged(&both_frontends(), &format!("mixed-walk-{seed}"), entries)
}

/// The duplicate-heavy walk of [`crate::olap::repetitive_walk`] with every query
/// independently written in SQL or frames (a fair coin per entry, deterministic in the
/// seed): a repetitive analyst who mixes a SQL console with a notebook — the workload the
/// duplicate-collapsing property tests replay.
pub fn repetitive_mixed_walk(seed: u64, n: usize, distinct: usize) -> QueryLog {
    let mut rng = StdRng::seed_from_u64(0x3e9e_0000 ^ seed);
    let entries: Vec<(Dialect, String)> = repetitive_states(seed, n, distinct)
        .iter()
        .map(|state| {
            if rng.gen_bool(0.5) {
                (Dialect::FRAMES, state.to_frames())
            } else {
                (Dialect::SQL, state.to_sql())
            }
        })
        .collect();
    QueryLog::from_tagged(
        &both_frontends(),
        &format!("mixed-repetitive-{seed}"),
        entries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::olap;

    #[test]
    fn frames_walk_is_structurally_identical_to_the_sql_walk() {
        let sql = olap::random_walk(3, 60);
        let frames = dataframe_walk(3, 60);
        assert_eq!(sql.len(), frames.len());
        assert_eq!(sql.queries, frames.queries);
        // Same trees, different surface text and tags.
        assert_ne!(sql.text, frames.text);
        assert!(frames.dialects.iter().all(|&d| d == Dialect::FRAMES));
        assert!(sql.dialects.iter().all(|&d| d == Dialect::SQL));
    }

    #[test]
    fn mixed_walk_interleaves_both_dialects_over_the_same_analysis() {
        let mixed = mixed_walk(7, 80);
        assert_eq!(mixed.len(), 80);
        let frames_count = mixed
            .dialects
            .iter()
            .filter(|&&d| d == Dialect::FRAMES)
            .count();
        assert!(frames_count > 10 && frames_count < 70, "{frames_count}");
        // Whichever dialect each entry drew, the tree is the walk's tree.
        assert_eq!(mixed.queries, olap::random_walk(7, 80).queries);
        // Text matches the dialect tag.
        for (text, dialect) in mixed.text.iter().zip(&mixed.dialects) {
            match *dialect {
                Dialect::SQL => assert!(text.starts_with("SELECT"), "{text}"),
                d if d == Dialect::FRAMES => assert!(text.starts_with("ontime"), "{text}"),
                other => panic!("unexpected dialect {other}"),
            }
        }
    }

    #[test]
    fn generators_are_deterministic_and_seed_sensitive() {
        assert_eq!(dataframe_walk(1, 30).text, dataframe_walk(1, 30).text);
        assert_eq!(mixed_walk(1, 30).text, mixed_walk(1, 30).text);
        assert_ne!(mixed_walk(1, 30).text, mixed_walk(2, 30).text);
        assert_eq!(
            repetitive_mixed_walk(1, 30, 8).text,
            repetitive_mixed_walk(1, 30, 8).text
        );
    }

    #[test]
    fn repetitive_variants_render_the_same_duplicate_heavy_sequence() {
        let sql = olap::repetitive_walk(5, 96, 16);
        let mixed = repetitive_mixed_walk(5, 96, 16);
        // Both spell the same tree sequence, duplicate structure included.
        assert_eq!(sql.queries, mixed.queries);
        let frames_count = mixed
            .dialects
            .iter()
            .filter(|&&d| d == Dialect::FRAMES)
            .count();
        assert!(frames_count > 10 && frames_count < 86, "{frames_count}");
        // And the sequence really is duplicate-heavy.
        let distinct: std::collections::BTreeSet<u64> = sql
            .queries
            .iter()
            .map(pi_ast::Node::structural_hash)
            .collect();
        assert!(distinct.len() <= 16, "{}", distinct.len());
    }

    #[test]
    fn tagged_queries_pairs_dialects_with_trees() {
        let mixed = mixed_walk(2, 10);
        let pairs: Vec<_> = mixed.tagged_queries().collect();
        assert_eq!(pairs.len(), 10);
        for (i, (dialect, query)) in pairs.iter().enumerate() {
            assert_eq!(*dialect, mixed.dialects[i]);
            assert_eq!(query, &mixed.queries[i]);
        }
    }
}
