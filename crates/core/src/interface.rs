//! The interface model: widgets + initial query, cost, closure and expressiveness (§4.4).

use pi_ast::{Dialect, Node, NodeId, Path};
use pi_widgets::Widget;
use std::collections::BTreeSet;

/// An interactive interface `I = (W_I, q⁰_I)`: a set of widgets and an initial query.
///
/// Users interact with the widgets to transform the initial query into other queries of the
/// analysis; the set of all reachable queries is the interface's *closure*, and expressiveness,
/// recall and precision are all defined against it.
#[derive(Debug, Clone)]
pub struct Interface {
    widgets: Vec<Widget>,
    initial_query: Node,
    initial_dialect: Dialect,
}

impl Interface {
    /// Creates an interface from an initial query and a widget set.
    ///
    /// Widgets are kept sorted by path (shallowest first) so that closure-membership checks and
    /// closure enumeration apply whole-query substitutions before refining subtrees.
    /// The initial query is tagged with the default dialect; use
    /// [`Interface::with_initial_dialect`] when the originating front-end is known.
    pub fn new(initial_query: Node, mut widgets: Vec<Widget>) -> Self {
        widgets.sort_by(|a, b| {
            a.path
                .depth()
                .cmp(&b.path.depth())
                .then_with(|| a.path.cmp(&b.path))
        });
        Interface {
            widgets,
            initial_query,
            initial_dialect: Dialect::default(),
        }
    }

    /// Tags the initial query with the dialect of the front-end it arrived through
    /// (builder style).  Rendering layers use this to show `q⁰_I` in its own language.
    pub fn with_initial_dialect(mut self, dialect: Dialect) -> Self {
        self.initial_dialect = dialect;
        self
    }

    /// The interface's widgets.
    pub fn widgets(&self) -> &[Widget] {
        &self.widgets
    }

    /// Mutable access to the widgets (used by the interface editor to relabel them).
    pub fn widgets_mut(&mut self) -> &mut Vec<Widget> {
        &mut self.widgets
    }

    /// The initial query `q⁰_I` rendered when the interface loads.
    pub fn initial_query(&self) -> &Node {
        &self.initial_query
    }

    /// The dialect the initial query was written in.
    pub fn initial_dialect(&self) -> Dialect {
        self.initial_dialect
    }

    /// The interface cost: the sum of its widgets' costs (§4.4).
    pub fn cost(&self) -> f64 {
        self.widgets.iter().map(|w| w.cost).sum()
    }

    /// Whether a target query is in the interface's closure.
    ///
    /// The check simulates the only operation the interface supports — substituting, at each
    /// widget's path, a subtree the widget can express — starting from the initial query and
    /// processing widgets from shallowest to deepest (so a whole-query widget fires before the
    /// widgets that refine parts of it).  A widget fires when the current query disagrees with
    /// the target at the widget's path; if the widget cannot express the target's subtree
    /// exactly it places its closest domain member, letting deeper widgets finish the job
    /// (e.g. a TOP-clause toggle inserts `TOP 1`, then a slider moves the 1 to 10).
    pub fn can_express(&self, target: &Node) -> bool {
        if *target == self.initial_query {
            return true;
        }
        let mut current = self.initial_query.clone();
        for widget in &self.widgets {
            let target_sub = target.get(&widget.path);
            let current_sub = current.get(&widget.path);
            match target_sub {
                None => {
                    // The target has nothing at this path: remove the subtree if the widget
                    // offers an "absent" option.
                    if current_sub.is_some()
                        && widget.domain.includes_absent()
                        && current.remove_at(&widget.path).is_ok()
                    {
                        continue;
                    }
                }
                Some(t_sub) => {
                    if current_sub == Some(t_sub) {
                        continue;
                    }
                    // When the widget came from addition/deletion diffs the substitution may be
                    // an *insertion*: the target's parent has more children than the current
                    // query's parent (e.g. a WHERE clause slotted in before the GROUP BY).
                    let insert = widget.domain.includes_absent()
                        && widget
                            .path
                            .parent()
                            .map(|parent| {
                                let target_arity =
                                    target.get(&parent).map(Node::arity).unwrap_or(0);
                                let current_arity =
                                    current.get(&parent).map(Node::arity).unwrap_or(0);
                                target_arity > current_arity
                            })
                            .unwrap_or(false);
                    if widget.can_express_subtree(Some(t_sub)) {
                        if insert {
                            let _ = insert_at(&mut current, &widget.path, t_sub.clone());
                        } else {
                            let _ = place(&mut current, &widget.path, t_sub.clone());
                        }
                    } else if let Some(best) = closest_member(widget, t_sub, current_sub) {
                        // The widget cannot produce the target subtree on its own.  If deeper
                        // widgets exist under this path they may finish the job (e.g. a toggle
                        // inserts `TOP 1`, a slider then moves the 1 to 10), so place the
                        // closest domain member; otherwise only place it when it strictly
                        // reduces the remaining difference.
                        let has_deeper_widgets = self
                            .widgets
                            .iter()
                            .any(|other| widget.path.is_strict_prefix_of(&other.path));
                        let before = current_sub
                            .map(|c| difference_size(c, t_sub))
                            .unwrap_or(usize::MAX);
                        let after = difference_size(&best, t_sub);
                        if has_deeper_widgets || after < before {
                            let _ = place(&mut current, &widget.path, best);
                        }
                    }
                }
            }
        }
        current == *target
    }

    /// Expressiveness with respect to a log: `|closure ∩ Q| / |Q|` (§4.4).
    pub fn expressiveness(&self, log: &[Node]) -> f64 {
        if log.is_empty() {
            return 1.0;
        }
        let hits = log.iter().filter(|q| self.can_express(q)).count();
        hits as f64 / log.len() as f64
    }

    /// Enumerates (a bounded prefix of) the interface's closure: the cross-product of the
    /// widgets' explicit options applied to the initial query.  Numeric extrapolation is not
    /// enumerated (sliders contribute only their observed values).  Used by the precision
    /// experiment of Appendix D.
    ///
    /// One global [`NodeId`]-keyed memo is shared across all widget passes: `results` is
    /// append-only and pass `k` scans the queries known so far, appending only never-seen
    /// trees, so each *candidate* costs one `NodeId` probe and no base query is re-inserted
    /// per pass.
    pub fn enumerate_closure(&self, limit: usize) -> Vec<Node> {
        if limit == 0 {
            return Vec::new();
        }
        let mut results: Vec<Node> = vec![self.initial_query.clone()];
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        seen.insert(self.initial_query.id());

        'widgets: for widget in &self.widgets {
            // Apply every option of this widget to every query reachable so far; a base
            // query itself stays reachable ("leave as is") simply by staying in `results`.
            let known = results.len();
            for base in 0..known {
                for option in widget.domain.subtrees() {
                    if results.len() >= limit {
                        break 'widgets;
                    }
                    let mut candidate = results[base].clone();
                    if place(&mut candidate, &widget.path, option.clone()).is_ok()
                        && seen.insert(candidate.id())
                    {
                        results.push(candidate);
                    }
                }
                if widget.domain.includes_absent() {
                    if results.len() >= limit {
                        break 'widgets;
                    }
                    let mut candidate = results[base].clone();
                    if candidate.remove_at(&widget.path).is_ok() && seen.insert(candidate.id()) {
                        results.push(candidate);
                    }
                }
            }
            if results.len() >= limit {
                break;
            }
        }
        debug_assert!(results.len() <= limit);
        results
    }

    /// A multi-line description of the interface (widget types, paths, domains, costs),
    /// matching the widget listings shown for Figures 5, 6b and 6d.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "interface: {} widgets, cost {:.0}\n",
            self.widgets.len(),
            self.cost()
        ));
        for w in &self.widgets {
            out.push_str("  ");
            out.push_str(&w.describe());
            out.push('\n');
        }
        out
    }
}

/// Inserts `subtree` at `path`, shifting later siblings right (addition semantics).  Indices
/// past the end of the parent's child list clamp to an append.
fn insert_at(query: &mut Node, path: &Path, subtree: Node) -> Result<(), pi_ast::ReplaceError> {
    let Some(parent_path) = path.parent() else {
        return query.replace_at(path, subtree);
    };
    let idx = path.last().expect("non-root path");
    match query.get(&parent_path) {
        Some(parent) => {
            let slot = parent_path.child(idx.min(parent.arity()));
            query.insert_at(&slot, subtree)
        }
        None => Err(pi_ast::ReplaceError::PathNotFound { path: path.clone() }),
    }
}

/// Replaces the subtree at `path` (or appends/inserts when the slot does not exist yet).
fn place(query: &mut Node, path: &Path, subtree: Node) -> Result<(), pi_ast::ReplaceError> {
    if query.get(path).is_some() {
        return query.replace_at(path, subtree);
    }
    // The path does not exist: insert at the parent if possible (addition semantics).
    insert_at(query, path, subtree)
}

/// The widget's domain member closest to the target subtree (fewest differing leaf regions).
/// Members equal to the subtree currently at the widget's path are skipped — placing them
/// would be a no-op, and when the distances tie we want the option that makes progress.
fn closest_member(widget: &Widget, target: &Node, current: Option<&Node>) -> Option<Node> {
    widget
        .domain
        .subtrees()
        .iter()
        .filter(|&member| current != Some(member))
        .min_by_key(|member| difference_size(member, target))
        .cloned()
}

/// Number of minimal changed subtrees between two trees (0 when equal).
fn difference_size(a: &Node, b: &Node) -> usize {
    if a.same_tree(b) {
        0
    } else {
        pi_diff::leaf_changes(a, b).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Frontend as _;

    fn parse(sql: &str) -> Result<pi_ast::Node, pi_ast::FrontendError> {
        pi_sql::SqlFrontend.parse_one(sql)
    }
    use pi_widgets::{Domain, WidgetLibrary};

    fn widget_for(path: &str, subtrees: Vec<Node>) -> Widget {
        let lib = WidgetLibrary::standard();
        lib.pick(
            path.parse().unwrap(),
            Domain::from_subtrees(subtrees),
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn empty_interface_expresses_only_its_initial_query() {
        let q0 = parse("SELECT a FROM t").unwrap();
        let iface = Interface::new(q0.clone(), vec![]);
        assert!(iface.can_express(&q0));
        assert!(!iface.can_express(&parse("SELECT b FROM t").unwrap()));
        assert_eq!(iface.cost(), 0.0);
        assert_eq!(iface.expressiveness(&[q0]), 1.0);
    }

    #[test]
    fn single_widget_substitution_and_cross_product() {
        let q0 = parse("SELECT a FROM t WHERE x = 1 AND c = 'US'").unwrap();
        let num = widget_for("2/0/0/1", vec![Node::int(1), Node::int(9)]);
        let cty = widget_for("2/0/1/1", vec![Node::string("US"), Node::string("EU")]);
        let iface = Interface::new(q0, vec![num, cty]);
        // Every combination of the two widgets' options is expressible, including pairs that
        // never co-occurred in any log entry.
        for (n, c) in [(1, "US"), (1, "EU"), (9, "US"), (9, "EU"), (5, "EU")] {
            let q = parse(&format!("SELECT a FROM t WHERE x = {n} AND c = '{c}'")).unwrap();
            assert!(iface.can_express(&q), "n={n} c={c}");
        }
        // Unknown strings are not expressible (the widget is a drop-down, not a text box).
        let q = parse("SELECT a FROM t WHERE x = 1 AND c = 'CN'").unwrap();
        assert!(!iface.can_express(&q));
        // Changes at paths without widgets are not expressible.
        let q = parse("SELECT b FROM t WHERE x = 1 AND c = 'US'").unwrap();
        assert!(!iface.can_express(&q));
    }

    #[test]
    fn whole_query_widget_expresses_its_domain_members() {
        let q0 = parse("SELECT avg(a)").unwrap();
        let q1 = parse("SELECT count(b)").unwrap();
        let q2 = parse("SELECT count(c)").unwrap();
        let root = widget_for("/", vec![q0.clone(), q1.clone(), q2.clone()]);
        let iface = Interface::new(q0, vec![root]);
        assert!(iface.can_express(&q1));
        assert!(iface.can_express(&q2));
        assert!(!iface.can_express(&parse("SELECT count(z)").unwrap()));
    }

    #[test]
    fn enumerate_closure_is_the_cross_product() {
        let q0 = parse("SELECT a FROM t WHERE x = 1 AND c = 'US'").unwrap();
        let num = widget_for("2/0/0/1", vec![Node::int(1), Node::int(9)]);
        let cty = widget_for("2/0/1/1", vec![Node::string("US"), Node::string("EU")]);
        let iface = Interface::new(q0, vec![num, cty]);
        let closure = iface.enumerate_closure(100);
        // 2 numeric options × 2 country options = 4 distinct queries.
        assert_eq!(closure.len(), 4);
        for q in &closure {
            assert!(iface.can_express(q));
        }
        // The limit is honoured — a hard upper bound, including the degenerate ends.
        assert_eq!(iface.enumerate_closure(2).len(), 2);
        assert_eq!(iface.enumerate_closure(1).len(), 1);
        assert_eq!(iface.enumerate_closure(3).len(), 3);
        assert!(iface.enumerate_closure(0).is_empty());
        for limit in 1..6 {
            assert!(iface.enumerate_closure(limit).len() <= limit);
        }
    }

    #[test]
    fn describe_lists_every_widget() {
        let q0 = parse("SELECT a FROM t WHERE x = 1").unwrap();
        let w = widget_for("2/0/1", vec![Node::int(1), Node::int(2)]);
        let iface = Interface::new(q0, vec![w]);
        let text = iface.describe();
        assert!(text.contains("1 widgets"));
        assert!(text.contains("slider"));
    }
}
