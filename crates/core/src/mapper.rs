//! The interaction mapper: the graph-contraction heuristic of §5.
//!
//! The interface generation problem (§4.5) is NP-hard, so the mapper uses the two-phase
//! heuristic from the paper:
//!
//! 1. **Initialisation** (Algorithm 1/2): partition the diff records by path, and instantiate
//!    for every partition the lowest-cost widget type whose rule accepts the partition's
//!    domain.  The resulting interface expresses every query in the log but usually contains
//!    redundant widgets.
//! 2. **Merging** (Algorithm 3): repeatedly compare an ancestor widget against the set of its
//!    descendant widgets; the diff records whose incident queries are expressed by both sides
//!    are assigned exclusively to whichever side yields the larger cost reduction, and widgets
//!    whose record set becomes empty are dropped.  We additionally guard every contraction
//!    with an explicit log-coverage check so the `g = 1` constraint of the problem statement
//!    can never be violated by the greedy choice.
//!
//! **Cost of a merge pass.**  One ancestor step reads the records of the ancestor and of
//! its descendants a constant number of times: once to mark the shared queries `V` in a
//! per-query array, once to split each record list into overlap and kept records (exact
//! complements), once per rebuilt widget, and once per record of every compared pair the
//! overlap touches, where a candidate interface is checked through a path → widget map.
//! A pass therefore costs time linear in `Σ` over ancestors of the records they and
//! their descendants hold — each record is touched once per widget path above it — plus
//! the logarithmic factors of domain deduplication and of the pair-run lookup.

use crate::interface::Interface;
use pi_ast::{Dialect, Node, NodeKind, Path};
use pi_diff::{DiffId, DiffStore};
use pi_graph::InteractionGraph;
use pi_widgets::{Domain, Widget, WidgetLibrary};
use std::collections::{HashMap, HashSet};

/// Knobs controlling the mapper (exposed for the ablation experiments).
#[derive(Debug, Clone, Copy)]
pub struct MapperOptions {
    /// Run the merging phase (disable to measure the cost reduction merging provides).
    pub enable_merging: bool,
    /// Upper bound on merge passes; each pass sweeps every ancestor widget once.
    pub max_merge_passes: usize,
}

impl Default for MapperOptions {
    fn default() -> Self {
        MapperOptions {
            enable_merging: true,
            max_merge_passes: 10,
        }
    }
}

/// Maps interaction graphs to interfaces.
#[derive(Debug, Clone, Default)]
pub struct InteractionMapper {
    library: WidgetLibrary,
    options: MapperOptions,
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
        let initial_query = graph
            .initial_query()
            .cloned()
            .unwrap_or_else(|| Node::new(NodeKind::Select));
        let initial_dialect = dialects.first().copied().unwrap_or_default();

        let mut widgets = self.initialize(graph, dialects);
        if self.options.enable_merging {
            let mut index = MergeIndex::build(graph, &widgets);
            for _ in 0..self.options.max_merge_passes {
                if !self.merge_pass(&mut widgets, graph.store(), &mut index, dialects) {
                    break;
                }
            }
        }
        widgets.retain(|w| !w.domain.is_empty());
        Interface::new(initial_query, widgets).with_initial_dialect(initial_dialect)
    }

    /// Algorithm 1: one widget per path partition, instantiated by `pickWidget`.
    fn initialize(&self, graph: &InteractionGraph, dialects: &[Dialect]) -> Vec<Widget> {
        let mut widgets = Vec::new();
        for (path, ids) in graph.store().partition_by_path() {
            let domain = Domain::from_diffs_tagged(
                ids.iter().map(|id| graph.store().get(*id)),
                dialect_of(dialects),
            );
            if let Some(widget) = self.library.pick(path, domain, ids) {
                widgets.push(widget);
            }
        }
        widgets
    }

    /// Rebuilds a widget from a reduced set of initialising diffs (Algorithm 2 re-applied
    /// after a merge decision).  Returns `None` when no diffs remain.
    fn repick(
        &self,
        path: &Path,
        ids: Vec<DiffId>,
        store: &DiffStore,
        dialects: &[Dialect],
    ) -> Option<Widget> {
        if ids.is_empty() {
            return None;
        }
        let domain =
            Domain::from_diffs_tagged(ids.iter().map(|id| store.get(*id)), dialect_of(dialects));
        self.library.pick(path.clone(), domain, ids)
    }

    /// One sweep of Algorithm 3 over every ancestor widget, deepest first.  Returns whether
    /// the total interface cost decreased.
    fn merge_pass(
        &self,
        widgets: &mut [Widget],
        store: &DiffStore,
        index: &mut MergeIndex,
        dialects: &[Dialect],
    ) -> bool {
        let mut improved = false;

        // Deepest ancestors first: this collapses widget chains bottom-up so that the cost of
        // intermediate redundant widgets does not distort the ancestor/descendant comparison.
        let mut order: Vec<usize> = (0..widgets.len()).collect();
        order.sort_by(|&a, &b| {
            widgets[b]
                .path
                .depth()
                .cmp(&widgets[a].path.depth())
                .then_with(|| widgets[a].path.cmp(&widgets[b].path))
        });

        for a_idx in order {
            if widgets[a_idx].domain.is_empty() {
                continue;
            }
            let a_path = widgets[a_idx].path.clone();
            let descendant_idxs: Vec<usize> = (0..widgets.len())
                .filter(|&j| {
                    j != a_idx
                        && !widgets[j].domain.is_empty()
                        && a_path.is_strict_prefix_of(&widgets[j].path)
                })
                .collect();
            if descendant_idxs.is_empty() {
                continue;
            }

            // V: the queries incident to both the ancestor's and the descendants' records.
            let descendant_diffs = descendant_idxs.iter().map(|&j| &widgets[j].init_diffs);
            if !index
                .queries
                .mark_shared(store, &widgets[a_idx].init_diffs, descendant_diffs)
            {
                continue;
            }
            let queries = &index.queries;
            let in_v = |id: &DiffId| queries.in_v(store, *id);

            // The overlap (records whose incident queries both lie in V) on either side, and
            // the compared pairs it touches: only those pairs need re-checking.
            let mut affected: Vec<usize> = Vec::new();
            let mut overlap = |ids: &[DiffId]| {
                let mut any = false;
                for id in ids.iter().filter(|id| in_v(id)) {
                    index.runs.queue(*id, queries.stamp, &mut affected);
                    any = true;
                }
                any
            };
            let ancestor_overlaps = overlap(&widgets[a_idx].init_diffs);
            let overlapping: Vec<usize> = descendant_idxs
                .iter()
                .copied()
                .filter(|&j| overlap(&widgets[j].init_diffs))
                .collect();
            if affected.is_empty() {
                continue;
            }

            // Each candidate keeps the complement of its side's overlap.  A side without
            // overlap would be rebuilt into itself (same ids, same widget, a cost change of
            // exactly 0.0), so it is neither rebuilt nor summed.
            let kept = |ids: &[DiffId]| -> Vec<DiffId> {
                ids.iter().copied().filter(|id| !in_v(id)).collect()
            };
            // Candidate A: remove the overlap from the ancestor.
            let (new_ancestor, sa) = if ancestor_overlaps {
                let ancestor = &widgets[a_idx];
                let newer = self.repick(&a_path, kept(&ancestor.init_diffs), store, dialects);
                let sa = ancestor.cost - newer.as_ref().map(|w| w.cost).unwrap_or(0.0);
                (newer, sa)
            } else {
                (None, 0.0)
            };

            // Candidate B: remove the overlap from every descendant, summed in index order.
            let mut new_descendants: Vec<(usize, Option<Widget>)> =
                Vec::with_capacity(overlapping.len());
            let mut sd = 0.0;
            for &j in &overlapping {
                let descendant = &widgets[j];
                let replacement = self.repick(
                    &descendant.path,
                    kept(&descendant.init_diffs),
                    store,
                    dialects,
                );
                sd += descendant.cost - replacement.as_ref().map(|w| w.cost).unwrap_or(0.0);
                new_descendants.push((j, replacement));
            }

            // Prefer the larger cost reduction; on a tie keep the fine-grained descendants
            // (removing from the ancestor), which also preserves generalisation.
            let try_order: [bool; 2] = if sa >= sd {
                [true, false] // true = apply candidate A (shrink the ancestor)
            } else {
                [false, true]
            };

            for apply_ancestor_shrink in try_order {
                let reduction = if apply_ancestor_shrink { sa } else { sd };
                if reduction <= 0.0 {
                    continue;
                }
                // The hypothetical widget set, seen through the path index: one widget per
                // path, the candidate's replacement where it has one.
                let candidate_at = |path: &Path| -> Option<&Widget> {
                    let idx = *index.by_path.get(path)?;
                    if apply_ancestor_shrink && idx == a_idx {
                        return new_ancestor.as_ref();
                    }
                    if !apply_ancestor_shrink {
                        if let Ok(k) = new_descendants.binary_search_by_key(&idx, |(j, _)| *j) {
                            return new_descendants[k].1.as_ref();
                        }
                    }
                    let widget = &widgets[idx];
                    (!widget.domain.is_empty()).then_some(widget)
                };
                if !affected
                    .iter()
                    .all(|&run| index.runs.expressible(run, store, candidate_at))
                {
                    continue;
                }
                // Commit.
                if apply_ancestor_shrink {
                    widgets[a_idx] = match new_ancestor {
                        Some(newer) => newer,
                        None => empty_widget(&widgets[a_idx]),
                    };
                } else {
                    for (j, replacement) in new_descendants {
                        widgets[j] = match replacement {
                            Some(newer) => newer,
                            None => empty_widget(&widgets[j]),
                        };
                    }
                }
                improved = true;
                break;
            }
        }
        improved
    }
}

/// A placeholder for a widget whose record set became empty (filtered out at the end).
fn empty_widget(old: &Widget) -> Widget {
    Widget::new(old.ty, old.path.clone(), Domain::new(), Vec::new(), 0.0)
}

/// Per-query dialect lookup over a (possibly empty) tag vector: queries the log never
/// tagged fall back to the default dialect.
fn dialect_of(dialects: &[Dialect]) -> impl Fn(usize) -> Dialect + '_ {
    move |q| dialects.get(q).copied().unwrap_or_default()
}

/// Lookup structures built once per mapping and shared by every merge pass.
struct MergeIndex {
    runs: PairRuns,
    queries: QueryMarks,
    /// The widget at each path.  Initialisation makes one widget per path partition and
    /// merging replaces widgets in place at their own path, so the map never goes stale.
    by_path: HashMap<Path, usize>,
}

impl MergeIndex {
    fn build(graph: &InteractionGraph, widgets: &[Widget]) -> Self {
        let by_path: HashMap<Path, usize> = widgets
            .iter()
            .enumerate()
            .map(|(idx, w)| (w.path.clone(), idx))
            .collect();
        debug_assert_eq!(by_path.len(), widgets.len(), "widget paths are unique");
        MergeIndex {
            runs: PairRuns::build(graph.store()),
            queries: QueryMarks {
                marks: vec![0; graph.queries().len()],
                stamp: 0,
            },
            by_path,
        }
    }
}

/// The shared-query set `V` of one ancestor step, as per-query stamps.  Every step takes
/// two fresh stamps (`stamp - 1`: incident to an ancestor record; `stamp`: also to a
/// descendant record, so in `V`); stamps only grow, so marks are never cleared.
struct QueryMarks {
    marks: Vec<u64>,
    stamp: u64,
}

impl QueryMarks {
    /// Marks `V` = queries(ancestor) ∩ queries(descendants); false when `V` is empty.
    fn mark_shared<'a>(
        &mut self,
        store: &DiffStore,
        ancestor: &[DiffId],
        descendants: impl Iterator<Item = &'a Vec<DiffId>>,
    ) -> bool {
        self.stamp += 2;
        let seen = self.stamp - 1;
        for id in ancestor {
            let r = store.get(*id);
            self.marks[r.q1] = seen;
            self.marks[r.q2] = seen;
        }
        let mut any = false;
        for id in descendants.flatten() {
            let r = store.get(*id);
            for q in [r.q1, r.q2] {
                if self.marks[q] == seen {
                    self.marks[q] = self.stamp;
                    any = true;
                }
            }
        }
        any
    }

    /// Whether both queries of a record lie in the current `V`.
    fn in_v(&self, store: &DiffStore, id: DiffId) -> bool {
        let r = store.get(id);
        self.marks[r.q1] == self.stamp && self.marks[r.q2] == self.stamp
    }
}

/// Every compared pair's records as one run of ids, used to verify that a merge never makes
/// a compared query pair inexpressible.  The graph builder appends each pair's records
/// together, leaves first, so run `k` is `starts[k]..starts[k + 1]`.
struct PairRuns {
    starts: Vec<usize>,
    /// Per run: the stamp of the last ancestor step that queued it for re-checking.
    queued: Vec<u64>,
}

impl PairRuns {
    fn build(store: &DiffStore) -> Self {
        let mut starts = Vec::new();
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        let mut current = None;
        for (id, record) in store.iter() {
            let pair = (record.q1, record.q2);
            if current != Some(pair) {
                assert!(
                    seen.insert(pair),
                    "the records of pair {pair:?} are not one contiguous run"
                );
                starts.push(id.0);
                current = Some(pair);
            }
        }
        starts.push(store.len());
        let queued = vec![0; starts.len() - 1];
        PairRuns { starts, queued }
    }

    /// Queues the run holding record `id` for re-checking, once per `stamp`.
    fn queue(&mut self, id: DiffId, stamp: u64, affected: &mut Vec<usize>) {
        let run = self.run_of(id);
        if self.queued[run] != stamp {
            self.queued[run] = stamp;
            affected.push(run);
        }
    }

    /// The run holding record `id`.
    fn run_of(&self, id: DiffId) -> usize {
        self.starts.partition_point(|&start| start <= id.0) - 1
    }

    /// A pair stays expressible when every one of its leaf-diff paths is covered: either the
    /// leaf record itself is expressed by a widget, or an ancestor record of the pair whose
    /// path is a prefix of the leaf path is expressed by a widget (replacing the larger region
    /// also realises the leaf change).  `widget_at` is the candidate interface's widget at a
    /// path.
    fn expressible<'w>(
        &self,
        run: usize,
        store: &DiffStore,
        widget_at: impl Fn(&Path) -> Option<&'w Widget>,
    ) -> bool {
        let records = || (self.starts[run]..self.starts[run + 1]).map(|id| store.get(DiffId(id)));
        let expressed_paths: Vec<&Path> = records()
            .filter(|r| widget_at(&r.path).is_some_and(|w| w.expresses(r)))
            .map(|r| &r.path)
            .collect();
        records()
            .filter(|r| r.is_leaf)
            .all(|leaf| expressed_paths.iter().any(|p| p.is_prefix_of(&leaf.path)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Frontend as _;
    use pi_graph::{GraphBuilder, WindowStrategy};

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
                ..MapperOptions::default()
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
                ..MapperOptions::default()
            })
            .map(&g);
        assert!(merged.cost() <= unmerged.cost());
        assert!(merged.widgets().len() <= unmerged.widgets().len());
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
