//! The interaction mapper: the graph-contraction heuristic of §5.
//!
//! The interface generation problem (§4.5) is NP-hard, so the mapper uses the two-phase
//! heuristic from the paper:
//!
//! 1. **Initialisation** (Algorithm 1/2): partition the diff records by path, and instantiate
//!    for every partition the lowest-cost widget type whose rule accepts the partition's
//!    domain (none when no type accepts it).  The resulting interface usually contains
//!    redundant widgets.
//! 2. **Merging** (Algorithm 3): repeatedly compare an ancestor widget against the set of its
//!    descendant widgets; the diff records whose incident queries are expressed by both sides
//!    are assigned exclusively to whichever side yields the larger cost reduction, and widgets
//!    whose record set becomes empty are dropped.  Every contraction is also guarded by a
//!    coverage check: each change list the contraction touches must keep every leaf change
//!    covered under the mapper's own rule, by a widget at the leaf's path or at a prefix of
//!    it that can place that change's `after` side (`Columns::covers`).  That rule is not
//!    the interface's closure check, and it does not make an interface express its whole
//!    training log: measured with [`Interface::expressiveness`], OLAP walks of 50 and 100
//!    queries read 0.56 and 0.41.  Making the two rules one is item 1 of `ROADMAP.md`.
//!
//! **Cost of a mapping.**  A mapping first lays the pair table out as flat per-record
//! columns: a member id for each of the record's two subtree sides, its change list and its
//! compared pair's queries.  The store already holds each change as a row of ids (a path id
//! and a member id per side, interned by the aligner as it wrote the change; see
//! [`DiffStore`]), so the column build hashes nothing and reads no `Node` per change.  It
//! counts each store path's records over the lists the runs use, ranks the paths that have
//! records in `Path` order, computes each member's primitive type and numeric value once,
//! and one copy pass over the runs then writes the record columns and Algorithm 1's
//! partition by path together.  The record columns are this thread's, reused from one
//! mapping to the next.  Everything after that works on ids, and no `Node` is read again
//! until the mapper returns.  In process on 16 `mine_distinct`-shaped logs the column
//! build takes 0.9–1.4 ms a log, where hashing every change's path and sides took 3.5–5.2.
//! A widget under construction is a slot: its type, cost and records, and its
//! domain as a shape (the sorted member ids, deduplicated against per-member stamps, and
//! the size, type join, absent flag and numeric range the widget rules and cost functions
//! read), one slot per path id.  An ancestor's descendants are the path ids of its subtree
//! range, and a prefix test is two integer comparisons.  One ancestor step of Algorithm 3
//! reads the records of the ancestor and of its descendants twice: once to mark the shared
//! queries `V` in a per-query array, and once to split each side into overlap and kept
//! records while it builds the kept records' slot.  The coverage check then reads each
//! change list the overlap touches once, whatever the number of runs that share it.  A
//! step's lists come from the mapping's scratch, and a rebuilt slot reuses the buffers of
//! slots and candidates dropped before it.
//!
//! A step reads nothing but the slots of its subtree range and the slots its coverage check
//! reads outside it, so a step none of whose slots changed since it last ran would commit
//! nothing again; it is skipped.  The mapping keeps, per path id, the commit count at which
//! its slot last changed, and per ancestor the count at its last run and the path ids
//! outside its range that the run's coverage check read.  The first pass runs every step,
//! at a cost linear in `Σ` over ancestors of the records they and their descendants hold:
//! each record is touched once per widget path above it.  A later pass runs only the steps
//! that can see a slot a commit replaced, so the pass that confirms the last commit costs
//! a fraction of the first.  Only the slots left after the last pass become [`Widget`]s,
//! each with its [`Domain`] built once from its own records.

use crate::interface::Interface;
use pi_ast::{Dialect, Node, NodeKind, Path};
use pi_diff::{ChangeRow, DiffId, DiffStore, ABSENT};
use pi_graph::InteractionGraph;
use pi_widgets::{Domain, DomainShape, MemberFacts, Widget, WidgetLibrary, WidgetType};
use std::cell::Cell;
use std::cmp::Reverse;
use std::ops::Range;

/// Knobs controlling the mapper (exposed for the ablation experiments).
#[derive(Debug, Clone, Copy)]
pub struct MapperOptions {
    /// Run the merging phase (disable to measure the cost reduction merging provides).
    pub enable_merging: bool,
}

impl Default for MapperOptions {
    fn default() -> Self {
        MapperOptions {
            enable_merging: true,
        }
    }
}

/// Upper bound on merge passes; each pass sweeps every ancestor widget once.
const MAX_MERGE_PASSES: usize = 10;

/// Maps interaction graphs to interfaces.
#[derive(Debug, Clone, Default)]
pub struct InteractionMapper {
    library: WidgetLibrary,
    options: MapperOptions,
}

/// What one mapping produced.
pub(crate) struct Mapping {
    pub(crate) interface: Interface,
    /// The number of distinct record paths: Algorithm 1's partition count, which is
    /// [`GraphStats::distinct_paths`](pi_graph::GraphStats::distinct_paths).
    pub(crate) distinct_paths: usize,
}

impl InteractionMapper {
    /// A mapper over the given widget library with default options.
    pub fn new(library: WidgetLibrary) -> Self {
        InteractionMapper {
            library,
            options: MapperOptions::default(),
        }
    }

    /// Sets the mapper options (builder style).
    pub fn with_options(mut self, options: MapperOptions) -> Self {
        self.options = options;
        self
    }

    /// Maps an interaction graph to an interface, tagging every widget option and the
    /// initial query with the default dialect.  Use [`InteractionMapper::map_tagged`] when
    /// the per-query dialects of the log are known (mixed-front-end sessions).
    pub fn map(&self, graph: &InteractionGraph) -> Interface {
        self.map_tagged(graph, &[])
    }

    /// Maps an interaction graph to an interface, threading per-query [`Dialect`] tags
    /// (parallel to the graph's query log; missing entries default) into the widget
    /// domains and the initial query, so the interface remembers which front-end every
    /// rendered fragment originated in.
    pub fn map_tagged(&self, graph: &InteractionGraph, dialects: &[Dialect]) -> Interface {
        self.map_store(
            graph.store(),
            graph.queries().len(),
            graph.initial_query(),
            dialects,
        )
        .interface
    }

    /// The mapping itself, over the pair table of a log of `log_len` queries whose first
    /// query is `initial_query`.  A session maps its accumulator's store in place instead
    /// of freezing a graph first.
    pub(crate) fn map_store(
        &self,
        store: &DiffStore,
        log_len: usize,
        initial_query: Option<&Node>,
        dialects: &[Dialect],
    ) -> Mapping {
        let (columns, partition) = Columns::build(store, dialects);
        let mut scratch = Scratch::new(&columns, log_len);
        let slots = self.slots(&columns, partition, &mut scratch);
        Mapping {
            interface: columns.interface(slots, initial_query, &mut scratch.seen),
            distinct_paths: columns.paths.len(),
        }
    }

    /// Algorithms 1–3 on ids: the slots left at each path id once merging ends.
    fn slots(
        &self,
        columns: &Columns<'_>,
        partition: Vec<Vec<DiffId>>,
        scratch: &mut Scratch,
    ) -> Vec<Option<Slot>> {
        // Algorithm 1: one widget per path partition, instantiated by `pickWidget`.  A slot
        // is `None` when no widget type accepts its path's domain.
        let mut slots: Vec<Option<Slot>> = partition
            .into_iter()
            .map(|ids| columns.slot(&self.library, ids, &mut scratch.seen))
            .collect();
        if self.options.enable_merging {
            for _ in 0..MAX_MERGE_PASSES {
                if !self.merge_pass(&mut slots, columns, scratch) {
                    break;
                }
            }
        }
        slots
    }

    /// One sweep of Algorithm 3 over every ancestor widget, deepest first, skipping the
    /// steps none of whose slots changed since they last ran (see the module doc).  Returns
    /// whether the total interface cost decreased.
    fn merge_pass(
        &self,
        slots: &mut [Option<Slot>],
        columns: &Columns<'_>,
        scratch: &mut Scratch,
    ) -> bool {
        let mut improved = false;

        // Deepest ancestors first: this collapses widget chains bottom-up so that the cost of
        // intermediate redundant widgets does not distort the ancestor/descendant comparison.
        // Path ids rank paths in `Path` order, so ties break by path.
        let mut order: Vec<usize> = (0..slots.len()).filter(|&p| slots[p].is_some()).collect();
        order.sort_by_key(|&p| (Reverse(columns.paths[p].depth()), p));

        for a in order {
            let Some(ancestor) = &slots[a] else {
                continue;
            };
            // The paths that strictly extend `a`'s are exactly the path ids after it in its
            // subtree range.
            let range = a..columns.subtree_end[a];
            if !scratch.needs_step(&range) {
                continue;
            }
            scratch.freshness.evaluate(a);
            scratch.descendants.clear();
            let descendants = (a + 1..range.end).filter(|&j| slots[j].is_some());
            scratch.descendants.extend(descendants);
            if scratch.descendants.is_empty() {
                continue;
            }
            let slot_at = |j: usize| slots[j].as_ref().expect("a listed path id holds a slot");

            // V: the queries incident to both the ancestor's and the descendants' records.
            let descendant_diffs = scratch.descendants.iter().map(|&j| &slot_at(j).ids);
            if !scratch.queries.mark_shared(
                &columns.records.queries,
                &ancestor.ids,
                descendant_diffs,
            ) {
                continue;
            }

            // Each candidate keeps the complement of its side's overlap (the records whose
            // incident queries both lie in V), and the change lists the overlap touches are
            // queued: only those need re-checking, each once.  A side without overlap would
            // be rebuilt into itself (same ids, same widget, a cost change of exactly 0.0),
            // so it is neither rebuilt nor summed.
            scratch.affected.clear();
            // Candidate A: remove the overlap from the ancestor.
            let mut new_ancestor = scratch.split(columns, &self.library, &ancestor.ids);
            let sa = match &new_ancestor {
                Some(newer) => ancestor.cost - cost_of(newer),
                None => 0.0,
            };
            // Candidate B: remove the overlap from every descendant, summed in path order.
            scratch.new_descendants.clear();
            let mut sd = 0.0;
            for k in 0..scratch.descendants.len() {
                let j = scratch.descendants[k];
                let descendant = slot_at(j);
                if let Some(replacement) = scratch.split(columns, &self.library, &descendant.ids) {
                    sd += descendant.cost - cost_of(&replacement);
                    scratch.new_descendants.push((j, replacement));
                }
            }

            // Prefer the larger cost reduction; on a tie keep the fine-grained descendants
            // (removing from the ancestor), which also preserves generalisation.
            let try_order: [bool; 2] = if sa >= sd {
                [true, false] // true = apply candidate A (shrink the ancestor)
            } else {
                [false, true]
            };

            let Scratch {
                queries,
                affected,
                expressed,
                new_descendants,
                spare,
                freshness,
                ..
            } = &mut *scratch;
            for apply_ancestor_shrink in try_order {
                let reduction = if apply_ancestor_shrink { sa } else { sd };
                if reduction <= 0.0 {
                    continue;
                }
                // The hypothetical slot set, by path id: the candidate's replacement where it
                // has one.  A slot read outside the subtree range is recorded for the skip
                // rule.
                let mut candidate_at = |p: usize| -> Option<&Slot> {
                    if apply_ancestor_shrink && p == a {
                        return new_ancestor.as_ref().and_then(Option::as_ref);
                    }
                    if !apply_ancestor_shrink {
                        if let Ok(k) = new_descendants.binary_search_by_key(&p, |(j, _)| *j) {
                            return new_descendants[k].1.as_ref();
                        }
                    }
                    if !range.contains(&p) {
                        freshness.read(a, p, queries.stamp);
                    }
                    slots[p].as_ref()
                };
                if !affected
                    .iter()
                    .all(|&list| columns.covers(list, &mut candidate_at, expressed))
                {
                    continue;
                }
                // Commit.
                if apply_ancestor_shrink {
                    freshness.commit([a]);
                    let newer = new_ancestor.take().flatten();
                    spare.put(std::mem::replace(&mut slots[a], newer));
                } else {
                    freshness.commit(new_descendants.iter().map(|(j, _)| *j));
                    for (j, replacement) in new_descendants.drain(..) {
                        spare.put(std::mem::replace(&mut slots[j], replacement));
                    }
                }
                improved = true;
                break;
            }
            // The candidates left uncommitted lend their buffers to later ones.
            spare.put(new_ancestor.flatten());
            for (_, replacement) in new_descendants.drain(..) {
                spare.put(replacement);
            }
        }
        improved
    }
}

/// The cost a candidate adds to the interface: none when no type accepts its records.
fn cost_of(slot: &Option<Slot>) -> f64 {
    slot.as_ref().map_or(0.0, |slot| slot.cost)
}

/// A widget under construction: its type and cost, its records `w.D`, and its domain as a
/// shape over member ids.  The slots left when merging ends become [`Widget`]s.
struct Slot {
    ty: WidgetType,
    cost: f64,
    /// The initialising records, in id order.
    ids: Vec<DiffId>,
    /// The domain's member ids, sorted.
    members: Vec<u32>,
    shape: DomainShape,
}

impl Slot {
    /// The expressibility rule of §4.3 on ids: whether the widget can place the subtree
    /// with member id `member` ([`ABSENT`] for absence) at its path.
    fn can_place(&self, member: u32, facts: &[MemberFacts]) -> bool {
        let candidate = (member != ABSENT).then(|| facts[member as usize]);
        self.ty.can_place(&self.shape, candidate, || {
            self.members.binary_search(&member).is_ok()
        })
    }
}

/// The domain shape of a slot being built: both sides of each record added, in id order,
/// each member once (a fresh [`MemberMarks`] stamp per build), exactly as
/// [`Columns::domain`] would insert them.
struct ShapeBuilder<'s> {
    shape: DomainShape,
    members: Vec<u32>,
    seen: &'s mut MemberMarks,
}

impl<'s> ShapeBuilder<'s> {
    /// An empty shape whose member ids go to `members`, an empty buffer.
    fn new(members: Vec<u32>, seen: &'s mut MemberMarks) -> Self {
        seen.stamp += 1;
        ShapeBuilder {
            shape: DomainShape::default(),
            members,
            seen,
        }
    }

    /// Adds record `id`'s two sides.
    fn add(&mut self, columns: &Columns<'_>, id: DiffId) {
        for member in columns.records.sides[id.0] {
            if member == ABSENT {
                self.shape.set_includes_absent(true);
            } else if self.seen.first_sight(member) {
                self.shape.add_member(columns.facts[member as usize]);
                self.members.push(member);
            }
        }
    }

    /// Algorithm 2 (`pickWidget`) on ids: the slot over records `ids`, the ones added, with
    /// the type and cost [`WidgetLibrary::pick`] picks for their built domain.  When no type
    /// in `library` accepts the domain (in particular when `ids` is empty) the record and
    /// member buffers come back instead.
    fn pick(
        self,
        library: &WidgetLibrary,
        ids: Vec<DiffId>,
    ) -> Result<Slot, (Vec<DiffId>, Vec<u32>)> {
        let ShapeBuilder {
            shape, mut members, ..
        } = self;
        let Some((ty, cost)) = library.choose(&shape) else {
            return Err((ids, members));
        };
        members.sort_unstable();
        Ok(Slot {
            ty,
            cost,
            ids,
            members,
            shape,
        })
    }
}

/// The per-record columns of a mapping: per record, the member ids of its two sides, the
/// log indices of its two queries and its change list.
#[derive(Default)]
struct RecordColumns {
    sides: Vec<[u32; 2]>,
    queries: Vec<[u32; 2]>,
    list: Vec<u32>,
}

thread_local! {
    /// This thread's per-record columns, lent to each mapping it runs and taken back when
    /// the mapping's [`Columns`] drop, so a mapping refills buffers the previous one grew
    /// instead of faulting fresh pages in.  Empty until a thread's first mapping, so a new
    /// session allocates nothing for it.
    static RECORD_COLUMNS: Cell<RecordColumns> = Cell::default();
}

/// The pair table laid out as flat per-record columns, built once per mapping; record `r`
/// of the store is row `r` of every per-record column.  Paths and members keep the store's
/// ids: a member id indexes the store's member table, and a store path id maps to the
/// mapping's path id, its rank in `Path` order among the paths some record has.
struct Columns<'a> {
    store: &'a DiffStore,
    /// Per-query dialect tags, parallel to the log (missing entries default).
    dialects: &'a [Dialect],
    /// The distinct record paths in `Path` order; a path id indexes this table.
    paths: Vec<&'a Path>,
    /// Per path id `p`: the end of its subtree range.  The ids `p..subtree_end[p]` are
    /// exactly the table's paths that have `paths[p]` as a prefix, since `Path` order keeps
    /// every extension of a path right after it.
    subtree_end: Vec<usize>,
    /// Per path id of the store: the mapping's path id ([`UNSEEN`] for a path no record
    /// has).
    rank: Vec<u32>,
    /// Per member id: what the widget rules read of its subtree.
    facts: Vec<MemberFacts>,
    /// The per-record columns, on loan from this thread's [`RECORD_COLUMNS`].
    records: RecordColumns,
}

/// A store path no record has.
const UNSEEN: u32 = u32::MAX;

impl Drop for Columns<'_> {
    fn drop(&mut self) {
        RECORD_COLUMNS.set(std::mem::take(&mut self.records));
    }
}

impl<'a> Columns<'a> {
    /// The columns and Algorithm 1's partition: one pass over the runs counting each
    /// change list's runs, one over the rows of the lists they use adding each list's runs
    /// to its rows' paths, a sort of the paths some record has, then one copy pass over the
    /// runs that writes the record columns and the path groups together.  No change is
    /// hashed and no subtree is read per change: rows carry path and member ids, and the
    /// facts the widget rules read are computed once per member.
    ///
    /// The partition `W_p` (Algorithm 1, line 3) holds one group per path id, each in id
    /// order, exactly sized.  The merge check reads a compared pair as its change list, so
    /// the build asserts that run rows strictly increase in `(to, from)` — the builder's
    /// append order, which also means no pair has two runs.
    fn build(store: &'a DiffStore, dialects: &'a [Dialect]) -> (Self, Vec<Vec<DiffId>>) {
        // Path and list ids are stored as `u32` and cannot exceed the record count; member
        // ids are the store's, below `ABSENT`.
        assert!(
            store.len() < 1 << 31,
            "a mapping handles fewer than 2^31 records"
        );
        let mut runs_of = vec![0usize; store.list_count()];
        let mut previous = None;
        for run in store.runs() {
            assert!(
                previous < Some((run.to, run.from)),
                "run ({}, {}) is not after its predecessor in append order",
                run.from,
                run.to
            );
            previous = Some((run.to, run.from));
            runs_of[run.list as usize] += 1;
        }

        // Records per store path: each list is read once, at its first run, and adds a
        // record per run to each of its rows' paths.
        let mut records_at = vec![0usize; store.paths().len()];
        for run in store.runs() {
            // Zero once the list has been read.
            let runs = std::mem::take(&mut runs_of[run.list as usize]);
            if runs == 0 {
                continue;
            }
            for row in store.list(run.list) {
                records_at[row.path as usize] += runs;
            }
        }

        // Rank the paths records have in `Path` order.
        let mut ranked: Vec<u32> = (0..records_at.len() as u32)
            .filter(|&p| records_at[p as usize] > 0)
            .collect();
        ranked.sort_unstable_by(|&a, &b| store.path(a).cmp(store.path(b)));
        let mut rank = vec![UNSEEN; records_at.len()];
        let mut partition: Vec<Vec<DiffId>> = Vec::with_capacity(ranked.len());
        for (r, &p) in ranked.iter().enumerate() {
            rank[p as usize] = r as u32;
            partition.push(Vec::with_capacity(records_at[p as usize]));
        }
        let paths: Vec<&Path> = ranked.iter().map(|&p| store.path(p)).collect();
        let facts = store.members().iter().map(MemberFacts::of).collect();

        // The record columns and the path groups: each run copies its list's rows.
        let mut records = RECORD_COLUMNS.take();
        let RecordColumns {
            sides,
            queries,
            list,
        } = &mut records;
        sides.clear();
        queries.clear();
        list.clear();
        sides.reserve(store.len());
        queries.reserve(store.len());
        list.reserve(store.len());
        for run in store.runs() {
            let changes = store.list(run.list);
            for row in changes {
                partition[rank[row.path as usize] as usize].push(DiffId(sides.len()));
                sides.push([row.before, row.after]);
            }
            queries.extend(std::iter::repeat([run.from, run.to]).take(changes.len()));
            list.extend(std::iter::repeat(run.list).take(changes.len()));
        }

        // Subtree ranges: a path's range closes at the first later path it is not a prefix
        // of.  `open` is the chain of paths whose ranges are still open, each a prefix of
        // the next.
        let mut subtree_end = vec![paths.len(); paths.len()];
        let mut open: Vec<usize> = Vec::new();
        for (p, current) in paths.iter().enumerate() {
            while let Some(&top) = open.last() {
                if paths[top].is_prefix_of(current) {
                    break;
                }
                subtree_end[top] = p;
                open.pop();
            }
            open.push(p);
        }

        let columns = Columns {
            store,
            dialects,
            paths,
            subtree_end,
            rank,
            facts,
            records,
        };
        (columns, partition)
    }

    /// The mapping's path id of a store row.
    fn path_of(&self, row: &ChangeRow) -> usize {
        self.rank[row.path as usize] as usize
    }

    /// Algorithm 2 (`pickWidget`) on ids: the slot over a set of records, or `None` when
    /// no type in `library` accepts its domain (in particular when `ids` is empty).
    fn slot(
        &self,
        library: &WidgetLibrary,
        ids: Vec<DiffId>,
        seen: &mut MemberMarks,
    ) -> Option<Slot> {
        let mut shape = ShapeBuilder::new(Vec::new(), seen);
        for &id in &ids {
            shape.add(self, id);
        }
        shape.pick(library, ids).ok()
    }

    /// The interface of the slots left after the last pass: each becomes a [`Widget`], its
    /// [`Domain`] built once from its own records.
    fn interface(
        &self,
        slots: Vec<Option<Slot>>,
        initial_query: Option<&Node>,
        seen: &mut MemberMarks,
    ) -> Interface {
        let initial_query = initial_query
            .cloned()
            .unwrap_or_else(|| Node::new(NodeKind::Select));
        let widgets = slots
            .into_iter()
            .enumerate()
            .filter_map(|(p, slot)| {
                let Slot {
                    ty, cost, mut ids, ..
                } = slot?;
                // A rebuilt slot's buffer may have held a larger record set.
                ids.shrink_to_fit();
                let domain = self.domain(&ids, seen);
                let path = self.paths[p].clone();
                Some(Widget::new(ty, path, domain, ids, cost))
            })
            .collect();
        Interface::new(initial_query, widgets).with_initial_dialect(self.dialect(0))
    }

    /// The domain of a set of records: both sides of each record in id order, deduplicated
    /// on the member-id column, so that only a new member's `Node` is cloned and hashed into
    /// the domain.  Members keep their first-seen order and the dialect of the query they
    /// were first seen in (`q1` for a `before` side, `q2` for an `after` side), exactly as
    /// [`Domain::from_diffs_tagged`] builds them.
    fn domain(&self, ids: &[DiffId], seen: &mut MemberMarks) -> Domain {
        seen.stamp += 1;
        let mut domain = Domain::new();
        let members = self.store.members();
        for &id in ids {
            for (side, member) in self.records.sides[id.0].into_iter().enumerate() {
                if member == ABSENT {
                    domain.set_includes_absent(true);
                } else if seen.first_sight(member) {
                    let query = self.records.queries[id.0][side] as usize;
                    let node = members[member as usize].clone();
                    domain.insert_tagged(node, self.dialect(query));
                }
            }
        }
        domain
    }

    /// The dialect of log query `q`; queries the log never tagged get the default.
    fn dialect(&self, q: usize) -> Dialect {
        self.dialects.get(q).copied().unwrap_or_default()
    }

    /// Whether the path with id `ancestor` is a (non-strict) prefix of the path with id `p`.
    fn is_prefix(&self, ancestor: usize, p: usize) -> bool {
        ancestor <= p && p < self.subtree_end[ancestor]
    }

    /// A compared pair stays expressible when every one of its leaf-diff paths is covered:
    /// either the leaf record itself is expressed by a widget, or an ancestor record of the
    /// pair whose path is a prefix of the leaf path is expressed by a widget (replacing the
    /// larger region also realises the leaf change).  A widget expresses a record at its own
    /// path when it can place the record's `after` side (§4.3).
    ///
    /// That depends only on the pair's changes — their paths, `after` sides and leaf flags
    /// — so it is checked once per change `list`, for every run that reads it; the leaves
    /// are the list's first [`DiffStore::list_leaves`] changes.  `slot_at` is the candidate
    /// interface's slot at a path id, called once per change of the list; `expressed` is
    /// scratch space for the path ids of the expressed changes.
    fn covers<'s>(
        &self,
        list: u32,
        mut slot_at: impl FnMut(usize) -> Option<&'s Slot>,
        expressed: &mut Vec<u32>,
    ) -> bool {
        let changes = self.store.list(list);
        expressed.clear();
        for row in changes {
            let p = self.path_of(row);
            if slot_at(p).is_some_and(|slot| slot.can_place(row.after, &self.facts)) {
                expressed.push(p as u32);
            }
        }
        changes[..self.store.list_leaves(list)].iter().all(|row| {
            let leaf = self.path_of(row);
            expressed.iter().any(|&p| self.is_prefix(p as usize, leaf))
        })
    }
}

/// The reusable state of one mapping's merge passes and domain builds.
struct Scratch {
    seen: MemberMarks,
    queries: QueryMarks,
    /// Per change list: the stamp of the ancestor step that last queued it for re-checking.
    queued: Vec<u64>,
    /// The path ids of one change list's expressed changes, while its coverage is checked.
    expressed: Vec<u32>,
    /// The step's descendant path ids that hold a slot.
    descendants: Vec<usize>,
    /// The change lists the step's overlap touches, each once.
    affected: Vec<u32>,
    /// The step's candidate B: each overlapping descendant's path id and rebuilt slot, in
    /// path order.
    new_descendants: Vec<(usize, Option<Slot>)>,
    spare: Spare,
    freshness: Freshness,
    /// Run every step, whether the skip rule would skip it or not.
    #[cfg(test)]
    every_step: bool,
    /// The steps the skip rule found unchanged.
    #[cfg(test)]
    skipped: usize,
}

impl Scratch {
    fn new(columns: &Columns<'_>, log_len: usize) -> Self {
        Scratch {
            seen: MemberMarks {
                marks: vec![0; columns.facts.len()],
                stamp: 0,
            },
            queries: QueryMarks {
                marks: vec![0; log_len],
                stamp: 0,
            },
            queued: vec![0; columns.store.list_count()],
            expressed: Vec::new(),
            descendants: Vec::new(),
            affected: Vec::new(),
            new_descendants: Vec::new(),
            spare: Spare::default(),
            freshness: Freshness::new(columns.paths.len()),
            #[cfg(test)]
            every_step: false,
            #[cfg(test)]
            skipped: 0,
        }
    }

    /// Whether the step of the ancestor whose subtree range is `range` must run.
    fn needs_step(&mut self, range: &Range<usize>) -> bool {
        let stale = self.freshness.stale(range);
        #[cfg(test)]
        let stale = {
            self.skipped += usize::from(!stale);
            stale || self.every_step
        };
        stale
    }

    /// One pass over a side's records: the change lists of its overlap (the records whose
    /// two queries both lie in the current `V`) are queued in `affected`, and the other
    /// records are kept.  `None` when the side has no overlap; otherwise the slot over the
    /// kept records, itself `None` when no type in `library` accepts them.
    fn split(
        &mut self,
        columns: &Columns<'_>,
        library: &WidgetLibrary,
        ids: &[DiffId],
    ) -> Option<Option<Slot>> {
        let queries = &columns.records.queries;
        let first = ids.iter().position(|&id| self.queries.in_v(queries, id))?;
        let (mut kept, members) = self.spare.take();
        let mut shape = ShapeBuilder::new(members, &mut self.seen);
        for &id in &ids[..first] {
            kept.push(id);
            shape.add(columns, id);
        }
        for &id in &ids[first..] {
            if self.queries.in_v(queries, id) {
                let list = columns.records.list[id.0];
                if self.queued[list as usize] != self.queries.stamp {
                    self.queued[list as usize] = self.queries.stamp;
                    self.affected.push(list);
                }
            } else {
                kept.push(id);
                shape.add(columns, id);
            }
        }
        match shape.pick(library, kept) {
            Ok(slot) => Some(Some(slot)),
            Err(buffers) => {
                self.spare.0.push(buffers);
                Some(None)
            }
        }
    }
}

/// The record and member buffers of replaced slots and uncommitted candidates, which later
/// candidates reuse: a merge pass allocates only while the pool grows.
#[derive(Default)]
struct Spare(Vec<(Vec<DiffId>, Vec<u32>)>);

impl Spare {
    /// Two empty buffers.
    fn take(&mut self) -> (Vec<DiffId>, Vec<u32>) {
        let (mut ids, mut members) = self.0.pop().unwrap_or_default();
        ids.clear();
        members.clear();
        (ids, members)
    }

    /// Keeps a slot's buffers.
    fn put(&mut self, slot: Option<Slot>) {
        if let Some(slot) = slot {
            self.0.push((slot.ids, slot.members));
        }
    }
}

/// What the skip rule knows of the merge so far, counted in commits: when each slot last
/// changed and when each ancestor's step last ran.
struct Freshness {
    /// The commits so far.
    commits: u64,
    /// Per path id: the commit that last replaced its slot (0 for none).
    changed: Vec<u64>,
    /// Per ancestor path id: the commit count when its step last ran, `None` before it runs.
    evaluated: Vec<Option<u64>>,
    /// Per ancestor path id: the path ids outside its subtree range whose slots its last
    /// run's coverage checks read, each once.
    reads: Vec<Vec<u32>>,
    /// Per path id: the [`QueryMarks`] stamp of the step that last recorded it as read.
    read_stamp: Vec<u64>,
}

impl Freshness {
    fn new(paths: usize) -> Self {
        Freshness {
            commits: 0,
            changed: vec![0; paths],
            evaluated: vec![None; paths],
            reads: vec![Vec::new(); paths],
            read_stamp: vec![0; paths],
        }
    }

    /// Whether a slot the step of the ancestor with subtree range `range` reads may have
    /// changed since the step last ran.
    fn stale(&self, range: &Range<usize>) -> bool {
        let Some(at) = self.evaluated[range.start] else {
            return true;
        };
        self.changed[range.clone()].iter().any(|&c| c > at)
            || self.reads[range.start]
                .iter()
                .any(|&p| self.changed[p as usize] > at)
    }

    /// Starts a run of ancestor `a`'s step.
    fn evaluate(&mut self, a: usize) {
        self.evaluated[a] = Some(self.commits);
        self.reads[a].clear();
    }

    /// Records that ancestor `a`'s step, with `V` stamp `stamp`, read the slot at `p`.
    fn read(&mut self, a: usize, p: usize, stamp: u64) {
        if self.read_stamp[p] != stamp {
            self.read_stamp[p] = stamp;
            self.reads[a].push(p as u32);
        }
    }

    /// Counts one commit, which replaced the slots at `paths`.
    fn commit(&mut self, paths: impl IntoIterator<Item = usize>) {
        self.commits += 1;
        for p in paths {
            self.changed[p] = self.commits;
        }
    }
}

/// The members one domain build has seen, as per-member stamps: every build takes a fresh
/// stamp, so marks are never cleared.
struct MemberMarks {
    marks: Vec<u64>,
    stamp: u64,
}

impl MemberMarks {
    /// Whether the current build meets `member` for the first time (and marks it seen).
    fn first_sight(&mut self, member: u32) -> bool {
        let mark = &mut self.marks[member as usize];
        if *mark == self.stamp {
            return false;
        }
        *mark = self.stamp;
        true
    }
}

/// The shared-query set `V` of one ancestor step, as per-query stamps.  Every step takes
/// two fresh stamps (`stamp - 1`: incident to an ancestor record; `stamp`: also to a
/// descendant record, so in `V`); stamps only grow, so marks are never cleared.  The same
/// stamp marks each change list the step queued for re-checking, and each slot outside the
/// ancestor's subtree range its coverage checks read.
struct QueryMarks {
    marks: Vec<u64>,
    stamp: u64,
}

impl QueryMarks {
    /// Marks `V` = queries(ancestor) ∩ queries(descendants); false when `V` is empty.
    fn mark_shared<'a>(
        &mut self,
        queries: &[[u32; 2]],
        ancestor: &[DiffId],
        descendants: impl Iterator<Item = &'a Vec<DiffId>>,
    ) -> bool {
        self.stamp += 2;
        let seen = self.stamp - 1;
        for id in ancestor {
            for q in queries[id.0] {
                self.marks[q as usize] = seen;
            }
        }
        let mut any = false;
        for id in descendants.flatten() {
            for q in queries[id.0] {
                let mark = &mut self.marks[q as usize];
                if *mark == seen {
                    *mark = self.stamp;
                    any = true;
                }
            }
        }
        any
    }

    /// Whether both queries of a record lie in the current `V`.
    fn in_v(&self, queries: &[[u32; 2]], id: DiffId) -> bool {
        let [q1, q2] = queries[id.0];
        self.marks[q1 as usize] == self.stamp && self.marks[q2 as usize] == self.stamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PiOptions;
    use crate::session::Session;
    use pi_ast::Frontend as _;
    use pi_diff::{extract_changes, AncestorPolicy};
    use pi_graph::{GraphBuilder, WindowStrategy};
    use pi_workloads::trace::zipf_trace;
    use std::collections::BTreeSet;

    fn parse(sql: &str) -> Result<pi_ast::Node, pi_ast::FrontendError> {
        pi_sql::SqlFrontend.parse_one(sql)
    }
    use pi_widgets::WidgetType;

    fn graph(queries: &[&str], window: WindowStrategy) -> InteractionGraph {
        let parsed: Vec<Node> = queries.iter().map(|q| parse(q).unwrap()).collect();
        GraphBuilder::new().window(window).build(&parsed)
    }

    #[test]
    fn initialization_covers_every_query_before_merging() {
        let g = graph(
            &[
                "SELECT sales FROM t WHERE cty = 'USA'",
                "SELECT costs FROM t WHERE cty = 'EUR'",
                "SELECT sales FROM t WHERE cty = 'CHN'",
            ],
            WindowStrategy::AllPairs,
        );
        let mapper =
            InteractionMapper::new(WidgetLibrary::standard()).with_options(MapperOptions {
                enable_merging: false,
            });
        let iface = mapper.map(&g);
        assert!(
            iface.expressiveness(g.queries()) >= 1.0,
            "{}",
            iface.describe()
        );
        // Initialization instantiates one widget per path partition.
        assert!(iface.widgets().len() >= 2);
    }

    #[test]
    fn merging_removes_the_redundant_whole_query_widget() {
        // Figure 4's situation: per-literal widgets plus a whole-query widget.  Merging keeps
        // the fine-grained pair and drops the expensive whole-query options.
        let g = graph(
            &[
                "SELECT sales FROM t WHERE cty = 'USA'",
                "SELECT costs FROM t WHERE cty = 'EUR'",
                "SELECT sales FROM t WHERE cty = 'CHN'",
                "SELECT costs FROM t WHERE cty = 'USA'",
            ],
            WindowStrategy::AllPairs,
        );
        let mapper = InteractionMapper::new(WidgetLibrary::standard());
        let iface = mapper.map(&g);
        assert!(
            iface.expressiveness(g.queries()) >= 1.0,
            "{}",
            iface.describe()
        );
        assert_eq!(iface.widgets().len(), 2, "{}", iface.describe());
        assert!(iface.widgets().iter().all(|w| !w.path.is_root()));
        // Both widgets operate on string literals.
        assert!(iface
            .widgets()
            .iter()
            .all(|w| matches!(w.ty, WidgetType::Dropdown | WidgetType::ToggleButton)));
    }

    #[test]
    fn merging_never_reduces_coverage() {
        let logs: Vec<Vec<&str>> = vec![
            vec![
                "SELECT avg(a)",
                "SELECT count(b)",
                "SELECT count(c)",
                "SELECT avg(d)",
            ],
            vec![
                "SELECT * FROM T",
                "SELECT * FROM (SELECT a FROM T WHERE b > 10)",
                "SELECT * FROM (SELECT a FROM T WHERE b > 20)",
                "SELECT * FROM (SELECT b FROM T WHERE b > 20)",
            ],
            vec![
                "SELECT * FROM SpecLineIndex WHERE specObjId = 0x400",
                "SELECT * FROM XCRedshift WHERE specObjId = 0x199",
                "SELECT * FROM SpecLineIndex WHERE specObjId = 0x3",
            ],
        ];
        for log in logs {
            for window in [WindowStrategy::AllPairs, WindowStrategy::Sliding(2)] {
                let g = graph(&log, window);
                let iface = InteractionMapper::new(WidgetLibrary::standard()).map(&g);
                assert!(
                    iface.expressiveness(g.queries()) >= 1.0,
                    "window {window:?}, log {log:?}:\n{}",
                    iface.describe()
                );
            }
        }
    }

    #[test]
    fn merging_is_monotone_in_cost() {
        let g = graph(
            &[
                "SELECT sales, day FROM t WHERE cty = 'USA' AND y = 1",
                "SELECT costs, day FROM t WHERE cty = 'EUR' AND y = 2",
                "SELECT sales, day FROM t WHERE cty = 'EUR' AND y = 3",
            ],
            WindowStrategy::AllPairs,
        );
        let merged = InteractionMapper::new(WidgetLibrary::standard()).map(&g);
        let unmerged = InteractionMapper::new(WidgetLibrary::standard())
            .with_options(MapperOptions {
                enable_merging: false,
            })
            .map(&g);
        assert!(merged.cost() <= unmerged.cost());
        assert!(merged.widgets().len() <= unmerged.widgets().len());
    }

    #[test]
    fn partition_puts_every_record_in_its_path_group() {
        let a = parse("SELECT sales FROM t WHERE cty = 'USA'").unwrap();
        let b = parse("SELECT costs FROM t WHERE cty = 'EUR'").unwrap();
        let c = parse("SELECT costs FROM t WHERE cty = 'CHN'").unwrap();
        let mut store = DiffStore::new();
        for (i, (x, y)) in [(&a, &b), (&b, &c)].into_iter().enumerate() {
            let list = store.push_list(extract_changes(x, y, AncestorPolicy::Full));
            store.push_run(i, i + 1, list);
        }
        let (columns, groups) = Columns::build(&store, &[]);
        assert_eq!(groups.len(), store.distinct_paths());
        // Path ids rank the paths in `Path` order.
        assert!(columns.paths.windows(2).all(|w| w[0] < w[1]));
        // Every record lands in exactly one group, its own path's, in id order.
        let mut hits = vec![0; store.len()];
        for (p, ids) in groups.iter().enumerate() {
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
            for id in ids {
                hits[id.0] += 1;
                assert_eq!(store.get(*id).path(), columns.paths[p]);
            }
        }
        assert!(hits.iter().all(|&n| n == 1));
        // The predicate literal path appears in both query pairs, so its group has records
        // from both.
        let literal = columns
            .paths
            .iter()
            .position(|p| p.to_string() == "2/0/1")
            .expect("literal path group");
        let qs: BTreeSet<usize> = groups[literal].iter().map(|id| store.get(*id).q1).collect();
        assert_eq!(qs.len(), 2);
        // Subtree ranges agree with the prefix relation on every pair of paths.
        for (a, pa) in columns.paths.iter().enumerate() {
            for (b, pb) in columns.paths.iter().enumerate() {
                assert_eq!(columns.is_prefix(a, b), pa.is_prefix_of(pb), "{pa} vs {pb}");
            }
        }
    }

    #[test]
    fn rebuilt_domains_take_order_and_tags_from_the_kept_records() {
        // Merging shrinks the widget at `y`'s literal to the record of pair (2, 3).  That
        // kept record meets 'CHN' through q2, a frames query; the full partition met it
        // first through q1, an SQL query.  The rebuilt domain follows the kept record.
        let log = [
            (
                Dialect::SQL,
                "SELECT a FROM t WHERE (x = 'BRA' AND y = 'USA') AND z = 'CHN'",
            ),
            (
                Dialect::SQL,
                "SELECT a FROM t WHERE (x = 'CHN' AND y = 'CHN') AND z = 'EUR'",
            ),
            (
                Dialect::FRAMES,
                "SELECT a FROM t WHERE (x = 'EUR' AND y = 'CHN') AND z = 'EUR'",
            ),
            (
                Dialect::SQL,
                "SELECT a FROM t WHERE (x = 'EUR' AND y = 'EUR') AND z = 'EUR'",
            ),
        ];
        let dialects: Vec<Dialect> = log.iter().map(|(d, _)| *d).collect();
        let queries: Vec<&str> = log.iter().map(|(_, q)| *q).collect();
        let g = graph(&queries, WindowStrategy::Sliding(2));
        let iface = InteractionMapper::new(WidgetLibrary::standard()).map_tagged(&g, &dialects);
        let y: Path = "2/0/0/1/1".parse().unwrap();
        let widget = iface
            .widgets()
            .iter()
            .find(|w| w.path == y)
            .expect("a widget at y's literal");
        let tags = |domain: &Domain| -> Vec<(String, Dialect)> {
            domain
                .tagged_subtrees()
                .map(|(n, d)| (n.label(), d))
                .collect()
        };
        let tag_of = |q: usize| dialects[q];
        let full = g.store().iter().map(|(_, r)| r).filter(|r| *r.path() == y);
        assert_eq!(
            tags(&Domain::from_diffs_tagged(full, tag_of)),
            [
                ("USA", Dialect::SQL),
                ("CHN", Dialect::SQL),
                ("EUR", Dialect::SQL)
            ]
            .map(|(l, d)| (l.to_string(), d))
        );
        assert_eq!(widget.init_diffs.len(), 1, "the widget was rebuilt");
        assert_eq!(
            tags(&widget.domain),
            [("CHN", Dialect::FRAMES), ("EUR", Dialect::SQL)].map(|(l, d)| (l.to_string(), d))
        );
        let kept = widget.init_diffs.iter().map(|id| g.store().get(*id));
        assert_eq!(
            tags(&widget.domain),
            tags(&Domain::from_diffs_tagged(kept, tag_of))
        );
    }

    /// Logs whose mappings hold each kind of widget the id route decides on its own:
    /// sliders (and numeric members outside a slider's domain but inside its range), text
    /// boxes, presence toggles and checkboxes (absent sides), and tree-valued radio
    /// buttons, checkbox lists and drag-and-drops.
    fn widget_family_logs() -> Vec<(WindowStrategy, Vec<String>)> {
        let sliders = [(1, 42), (100, 7), (35, 42), (1, 7), (100, 63), (35, 7)]
            .map(|(x, y)| format!("SELECT a FROM t WHERE x = {x} AND y = {y}"));
        let textbox = (0..48).map(|i| format!("SELECT a FROM t WHERE name = 's{i}'"));
        let presence = [
            "SELECT g FROM t",
            "SELECT g FROM t WHERE x = 'a'",
            "SELECT g FROM t",
            "SELECT g FROM t WHERE x = 'a'",
        ];
        let options_or_none = [
            "SELECT g FROM t",
            "SELECT TOP 1 g FROM t",
            "SELECT g FROM t",
            "SELECT g FROM t WHERE x = 'a'",
            "SELECT TOP 1 g FROM t",
            "SELECT g FROM t WHERE x = 'b'",
        ];
        let radio = [
            "SELECT avg(a)",
            "SELECT count(b)",
            "SELECT count(c)",
            "SELECT avg(d)",
        ];
        let trees = |n: usize| {
            (0..n)
                .map(|i| format!("SELECT c{i} FROM t{} WHERE x = {i}", i % 3))
                .collect()
        };
        let owned = |log: &[&str]| log.iter().map(|q| q.to_string()).collect();
        vec![
            (WindowStrategy::Sliding(2), sliders.to_vec()),
            (WindowStrategy::Sliding(2), textbox.collect()),
            (WindowStrategy::Sliding(2), owned(&presence)),
            (WindowStrategy::AllPairs, owned(&options_or_none)),
            (WindowStrategy::AllPairs, owned(&radio)),
            // Whole queries at the root: a checkbox list, and a drag-and-drop for more
            // options than a checkbox list takes (merging off keeps the root widget).
            (WindowStrategy::Sliding(2), trees(20)),
            (WindowStrategy::Sliding(2), trees(45)),
        ]
    }

    /// The standard library and three variants that steer the mapping to other widgets.
    fn libraries() -> [WidgetLibrary; 4] {
        [
            WidgetLibrary::standard(),
            WidgetLibrary::restricted([
                WidgetType::Textbox,
                WidgetType::Slider,
                WidgetType::Dropdown,
            ]),
            WidgetLibrary::standard()
                .with_cost(WidgetType::Textbox, pi_widgets::CostFunction::constant(1.0)),
            WidgetLibrary::standard().with_cost(
                WidgetType::Checkbox,
                pi_widgets::CostFunction::constant(1.0),
            ),
        ]
    }

    #[test]
    fn the_id_route_agrees_with_the_node_route() {
        // For every widget a mapping returns: its slot (the id route) places exactly the
        // subtrees the widget places — every change of the store at its path, every member
        // of the store at any path, and absence — and the widget is what `pick` instantiates
        // from its built domain.  Under several libraries, with merging on and off.
        let libraries = libraries();
        let mut types = BTreeSet::new();
        let mut extrapolated = 0;
        for (window, log) in widget_family_logs() {
            let queries: Vec<&str> = log.iter().map(String::as_str).collect();
            let g = graph(&queries, window);
            let store = g.store();
            for library in &libraries {
                for enable_merging in [true, false] {
                    let mapper = InteractionMapper::new(library.clone())
                        .with_options(MapperOptions { enable_merging });
                    let iface = mapper.map(&g);
                    let (columns, partition) = Columns::build(store, &[]);
                    let mut scratch = Scratch::new(&columns, g.queries().len());
                    let slots = mapper.slots(&columns, partition, &mut scratch);
                    assert_eq!(slots.iter().flatten().count(), iface.widgets().len());
                    for widget in iface.widgets() {
                        let p = columns.paths.binary_search(&&widget.path).unwrap();
                        let slot = slots[p].as_ref().expect("a widget's path holds a slot");
                        assert_eq!(
                            *widget,
                            library
                                .pick(
                                    widget.path.clone(),
                                    widget.domain.clone(),
                                    widget.init_diffs.clone()
                                )
                                .expect("a returned widget's domain is accepted"),
                        );
                        assert_eq!((slot.ty, slot.cost), (widget.ty, widget.cost));
                        types.insert((widget.ty, widget.domain.includes_absent()));
                        let place = |member: u32| slot.can_place(member, &columns.facts);
                        for &row in store.rows() {
                            let change = store.change(row);
                            if change.path == widget.path {
                                assert_eq!(
                                    place(row.after),
                                    widget.can_express_subtree(change.after.as_ref()),
                                    "{} placing {:?}",
                                    widget.describe(),
                                    change.after
                                );
                            }
                        }
                        for (m, node) in store.members().iter().enumerate() {
                            let by_node = widget.can_express_subtree(Some(node));
                            assert_eq!(
                                place(m as u32),
                                by_node,
                                "{} placing {node}",
                                widget.describe()
                            );
                            if by_node
                                && !widget.domain.contains_exact(node)
                                && widget.ty == WidgetType::Slider
                            {
                                extrapolated += 1;
                            }
                        }
                        assert_eq!(place(ABSENT), widget.can_express_subtree(None));
                    }
                }
            }
        }
        // Each kind of widget, and whether its domain has the absent option.
        for kind in [
            (WidgetType::Slider, false),
            (WidgetType::Textbox, false),
            (WidgetType::ToggleButton, true),
            (WidgetType::Checkbox, true),
            (WidgetType::RadioButton, false),
            (WidgetType::RadioButton, true),
            (WidgetType::CheckboxList, false),
            (WidgetType::DragAndDrop, false),
        ] {
            assert!(
                types.contains(&kind),
                "no log mapped to {kind:?}: {types:?}"
            );
        }
        assert!(
            extrapolated > 0,
            "no slider placed a value by extrapolation"
        );
    }

    /// What a slot holds, with its cost as bits, so that equal means identical.
    type SlotImage = (WidgetType, u64, Vec<DiffId>, Vec<u32>, DomainShape);

    /// Maps `store` once under the skip rule and once running every merge step, asserts
    /// that both give the same slots, widgets and description, and returns the steps the
    /// rule skipped.
    fn assert_skips_are_exact(
        mapper: &InteractionMapper,
        store: &DiffStore,
        log_len: usize,
        dialects: &[Dialect],
    ) -> usize {
        let map = |every_step: bool| {
            let (columns, partition) = Columns::build(store, dialects);
            let mut scratch = Scratch::new(&columns, log_len);
            scratch.every_step = every_step;
            let slots = mapper.slots(&columns, partition, &mut scratch);
            let images: Vec<Option<SlotImage>> = slots
                .iter()
                .map(|slot| {
                    let s = slot.as_ref()?;
                    Some((
                        s.ty,
                        s.cost.to_bits(),
                        s.ids.clone(),
                        s.members.clone(),
                        s.shape,
                    ))
                })
                .collect();
            let interface = columns.interface(slots, None, &mut scratch.seen);
            (images, interface, scratch.skipped)
        };
        let (skipping, skipped_iface, skipped) = map(false);
        let (every, every_iface, _) = map(true);
        assert_eq!(skipping, every, "slots differ");
        assert_eq!(skipped_iface.widgets(), every_iface.widgets());
        assert_eq!(skipped_iface.describe(), every_iface.describe());
        skipped
    }

    /// A session over `log` at `window`, in 64-line pushes.
    fn session(window: WindowStrategy, log: &[(Dialect, String)]) -> Session {
        let mut session = Session::new(PiOptions {
            window,
            ..PiOptions::default()
        });
        for batch in log.chunks(64) {
            session.push_stream_tagged(batch.iter().map(|(d, t)| (*d, t)));
        }
        session
    }

    #[test]
    fn skipped_merge_steps_would_have_committed_nothing() {
        // The skip rule against running every step: under the four libraries on each
        // widget family's log, on Zipf traces at windows 2 and 16, and on a trace
        // persisted, restored and extended as a restarted server's tenant is.
        let mut skipped = 0;
        for (window, log) in widget_family_logs() {
            let queries: Vec<&str> = log.iter().map(String::as_str).collect();
            let g = graph(&queries, window);
            for library in libraries() {
                let mapper = InteractionMapper::new(library);
                skipped += assert_skips_are_exact(&mapper, g.store(), g.queries().len(), &[]);
            }
        }
        let trace = |n, shapes, seed| -> Vec<(Dialect, String)> {
            zipf_trace(n, shapes, 0.01, seed).collect()
        };
        let restored = {
            let log = trace(768, 96, 5);
            let bytes = session(WindowStrategy::sliding(4), &log[..512])
                .persist_to_vec()
                .expect("persist");
            let mut restored = Session::restore(&mut bytes.as_slice()).expect("restore");
            for batch in log[512..].chunks(64) {
                restored.push_stream_tagged(batch.iter().map(|(d, t)| (*d, t)));
            }
            restored
        };
        let sessions = [
            session(WindowStrategy::sliding(2), &trace(1024, 128, 21)),
            session(WindowStrategy::sliding(16), &trace(1024, 1024, 21)),
            restored,
        ];
        let mapper = InteractionMapper::new(WidgetLibrary::standard());
        for s in &sessions {
            let g = s.graph();
            skipped += assert_skips_are_exact(&mapper, g.store(), g.queries().len(), &s.dialects());
        }
        assert!(skipped > 0, "the skip rule never fired");
    }

    #[test]
    fn empty_graph_maps_to_an_empty_interface() {
        let g = GraphBuilder::new().build(&[]);
        let iface = InteractionMapper::new(WidgetLibrary::standard()).map(&g);
        assert!(iface.widgets().is_empty());
        assert_eq!(iface.cost(), 0.0);
    }

    #[test]
    fn single_query_log_needs_no_widgets() {
        let g = graph(&["SELECT a FROM t"], WindowStrategy::AllPairs);
        let iface = InteractionMapper::new(WidgetLibrary::standard()).map(&g);
        assert!(iface.widgets().is_empty());
        assert!(iface.can_express(&g.queries()[0]));
    }
}
