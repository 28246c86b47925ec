//! A deque-based work-stealing scheduler for cost-sized mining blocks.
//!
//! The memoized builder's pre-alignment cuts a batch's missing distinct shape pairs into
//! *blocks* — contiguous runs of its sorted pair order, sized by estimated alignment cost —
//! and executes them here.
//! Each worker owns a local deque of block indices: it pops work from the front of its own
//! deque (preserving locality with the initial contiguous deal) and, when dry, steals from
//! the *back* of a victim's deque, so a worker stuck on one oversized block sheds the rest
//! of its span to idle peers.  Workers exit once every deque is empty, which is a sound
//! termination condition because blocks are dealt once up front and never re-enter a deque.
//!
//! # Determinism contract
//!
//! **Block order, not steal order, defines the output.**  Every block writes its result
//! into a dedicated slot indexed by its position in the deterministic global block order
//! (the serial enumeration order the caller built the blocks in), and [`run_blocks`]
//! returns the slots in exactly that order after all workers join.  Steal interleaving —
//! which worker executes which block, and when — therefore cannot influence what the caller
//! observes; it only redistributes wall-clock work.  This is what makes the parallel graph
//! build byte-identical to the serial one for every thread count and every steal schedule,
//! a property the test suites pin under seeded perturbation (see
//! [`GraphBuilder::steal_seed`](crate::GraphBuilder::steal_seed)).

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

/// One splitmix64 round: the deterministic PRNG behind seeded steal-order perturbation.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Packs `items` (already in the deterministic output order) into contiguous blocks whose
/// estimated costs approach `target` without splitting any item.  Every block except
/// possibly the last is non-empty and the concatenation of the blocks is exactly `items` —
/// packing never reorders, so merging block results in block order reproduces the serial
/// order regardless of how blocks are scheduled.
pub(crate) fn pack_by_cost<I>(items: Vec<I>, cost: impl Fn(&I) -> u64, target: u64) -> Vec<Vec<I>> {
    let target = target.max(1);
    let mut blocks = Vec::new();
    let mut current = Vec::new();
    let mut accumulated = 0u64;
    for item in items {
        let c = cost(&item).max(1);
        if !current.is_empty() && accumulated.saturating_add(c) > target {
            blocks.push(std::mem::take(&mut current));
            accumulated = 0;
        }
        accumulated = accumulated.saturating_add(c);
        current.push(item);
    }
    if !current.is_empty() {
        blocks.push(current);
    }
    blocks
}

/// Executes `work` over every block on up to `threads` work-stealing workers and returns
/// the results **in block order** (see the module-level determinism contract).
///
/// `seed` perturbs the schedule only: `None` deals contiguous spans of blocks to the
/// workers and scans steal victims in ring order; `Some(s)` deals blocks to pseudo-random
/// deques and rotates each worker's victim scan, exercising steal interleavings a natural
/// run would rarely hit.  The returned vector is identical for every `threads` and every
/// `seed` by construction.
pub(crate) fn run_blocks<B, T, F>(
    threads: usize,
    seed: Option<u64>,
    blocks: Vec<B>,
    work: F,
) -> Vec<T>
where
    B: Sync,
    T: Send + Sync,
    F: Fn(usize, &B) -> T + Sync,
{
    let block_count = blocks.len();
    if block_count == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, block_count);
    if workers == 1 {
        return blocks
            .iter()
            .enumerate()
            .map(|(idx, block)| work(idx, block))
            .collect();
    }
    // One result slot per block, written exactly once by whichever worker claims the block.
    let slots: Vec<OnceLock<T>> = std::iter::repeat_with(OnceLock::new)
        .take(block_count)
        .collect();
    let mut initial: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
    for idx in 0..block_count {
        let owner = match seed {
            // Contiguous spans: worker w starts on blocks [w·n/t, (w+1)·n/t), the
            // cache-friendly deal matching the caller's block ordering.
            None => idx * workers / block_count,
            // Seeded deal: scatter blocks pseudo-randomly (some workers may start empty and
            // steal immediately — deliberately adversarial for the identity tests).
            Some(s) => (splitmix64(s ^ idx as u64) % workers as u64) as usize,
        };
        initial[owner].push_back(idx);
    }
    let deques: Vec<Mutex<VecDeque<usize>>> = initial.into_iter().map(Mutex::new).collect();
    {
        let (blocks, slots, deques, work) = (&blocks, &slots, &deques, &work);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let mut victims: Vec<usize> = (0..workers).filter(|&v| v != w).collect();
                if let Some(s) = seed {
                    let rotation = splitmix64(s.wrapping_add(w as u64)) as usize % victims.len();
                    victims.rotate_left(rotation);
                }
                scope.spawn(move || loop {
                    let claimed = deques[w].lock().expect("own deque poisoned").pop_front();
                    let idx = match claimed {
                        Some(idx) => idx,
                        None => {
                            // Own deque dry: steal the *back* of the first non-empty victim.
                            match victims.iter().find_map(|&v| {
                                deques[v].lock().expect("victim deque poisoned").pop_back()
                            }) {
                                Some(idx) => idx,
                                // Every deque empty: no block can reappear, so we are done.
                                None => break,
                            }
                        }
                    };
                    if slots[idx].set(work(idx, &blocks[idx])).is_err() {
                        unreachable!("block {idx} executed twice");
                    }
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every dealt block is executed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_by_cost_preserves_order_and_respects_target() {
        let items: Vec<u64> = (1..=20).collect();
        let blocks = pack_by_cost(items.clone(), |&c| c, 15);
        let flattened: Vec<u64> = blocks.iter().flatten().copied().collect();
        assert_eq!(flattened, items);
        // Every block but the last stops before exceeding the target by more than one item.
        for block in &blocks {
            assert!(!block.is_empty());
            let cost: u64 = block.iter().sum();
            assert!(cost <= 15 || block.len() == 1, "{block:?} costs {cost}");
        }
        assert!(blocks.len() > 1);
    }

    #[test]
    fn pack_by_cost_puts_oversized_items_in_singleton_blocks() {
        let blocks = pack_by_cost(vec![100u64, 1, 1, 100, 1], |&c| c, 10);
        assert_eq!(blocks[0], vec![100]);
        assert_eq!(blocks[1], vec![1, 1]);
        assert_eq!(blocks[2], vec![100]);
        assert_eq!(blocks[3], vec![1]);
    }

    #[test]
    fn zero_cost_items_still_make_progress() {
        let blocks = pack_by_cost(vec![(); 5], |_| 0, 2);
        assert_eq!(blocks.iter().map(Vec::len).sum::<usize>(), 5);
    }

    #[test]
    fn results_come_back_in_block_order_for_every_thread_count_and_seed() {
        let blocks: Vec<usize> = (0..37).collect();
        let expected: Vec<usize> = blocks.iter().map(|b| b * 2).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            for seed in [None, Some(0), Some(1), Some(0xdead_beef)] {
                let results = run_blocks(threads, seed, blocks.clone(), |idx, &b| {
                    assert_eq!(idx, b, "block index must match slot index");
                    b * 2
                });
                assert_eq!(results, expected, "threads={threads} seed={seed:?}");
            }
        }
    }

    #[test]
    fn every_block_runs_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let executions: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let blocks: Vec<usize> = (0..100).collect();
        run_blocks(7, Some(42), blocks, |_, &b| {
            executions[b].fetch_add(1, Ordering::SeqCst);
        });
        assert!(executions.iter().all(|e| e.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn uneven_block_costs_are_still_merged_deterministically() {
        // Simulate a triangular workload: later blocks cost more, so early finishers steal.
        let blocks: Vec<u64> = (0..24).collect();
        let serial = run_blocks(1, None, blocks.clone(), |_, &b| (0..b * 500).sum::<u64>());
        let stolen = run_blocks(6, Some(7), blocks, |_, &b| (0..b * 500).sum::<u64>());
        assert_eq!(serial, stolen);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let results: Vec<u8> = run_blocks(4, None, Vec::<u8>::new(), |_, &b| b);
        assert!(results.is_empty());
    }
}
