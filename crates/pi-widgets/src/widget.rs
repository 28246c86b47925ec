//! Widget instances: a widget type bound to a path and a domain.

use crate::domain::{Domain, MemberFacts};
use crate::types::WidgetType;
use pi_ast::{Node, Path};
use pi_diff::{DiffId, TreeChange};

/// A widget instance `w`: a widget type instantiated at a path `w.p` with a domain `w.d`
/// initialised from a subset `w.D` of the diffs table (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct Widget {
    /// The widget type.
    pub ty: WidgetType,
    /// The path in the query AST this widget modifies.
    pub path: Path,
    /// The set of subtrees the widget can place at `path`.
    pub domain: Domain,
    /// The diff record ids used to initialise the widget (`w.D`).
    pub init_diffs: Vec<DiffId>,
    /// The widget's cost `c_WT(|w.d|)` under the library that instantiated it.
    pub cost: f64,
    /// Optional user-facing label (editable in the interface editor, §5.3).
    pub label: Option<String>,
}

impl Widget {
    /// Creates a widget instance.
    pub fn new(
        ty: WidgetType,
        path: Path,
        domain: Domain,
        init_diffs: Vec<DiffId>,
        cost: f64,
    ) -> Self {
        Widget {
            ty,
            path,
            domain,
            init_diffs,
            cost,
            label: None,
        }
    }

    /// Sets a user-facing label (builder style).
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = Some(label.to_string());
        self
    }

    /// Whether this widget can place the given subtree (or absence, for `None`) at its path:
    /// [`WidgetType::can_place`] over the domain's shape, with membership looked up in the
    /// domain.
    ///
    /// Enumerating widgets (drop-down, radio, …) only express the exact subtrees in their
    /// domain; sliders extrapolate to the observed numeric range (Example 4.3); text boxes can
    /// express *any* literal value of a compatible primitive type.
    pub fn can_express_subtree(&self, subtree: Option<&Node>) -> bool {
        self.ty
            .can_place(self.domain.shape(), subtree.map(MemberFacts::of), || {
                subtree.is_some_and(|node| self.domain.contains_exact(node))
            })
    }

    /// The expressiveness check of §4.3: widget `w` expresses diff `d` iff their paths match
    /// and the target subtree `t2` is within the widget's domain.  `d` is a change value, as
    /// [`pi_diff::extract_changes`] returns it.
    pub fn expresses(&self, diff: &TreeChange) -> bool {
        self.path == diff.path && self.can_express_subtree(diff.after.as_ref())
    }

    /// The display label: the user-provided one, or a generated description of what the
    /// widget modifies.
    pub fn display_label(&self) -> String {
        if let Some(label) = &self.label {
            return label.clone();
        }
        let what = self
            .domain
            .subtrees()
            .first()
            .map(|n| n.label())
            .unwrap_or_else(|| "(empty)".to_string());
        format!("{} @ {} ({})", self.ty, self.path, what)
    }

    /// One-line description used by experiment output (Figure 5/6 widget listings).
    pub fn describe(&self) -> String {
        let opts = self.domain.option_labels();
        let shown: Vec<&str> = opts.iter().map(String::as_str).take(6).collect();
        let suffix = if opts.len() > 6 {
            format!(", … ({} options)", opts.len())
        } else {
            String::new()
        };
        format!(
            "{:>13} @ {:<8} [{}{}]  cost={:.0}",
            self.ty.to_string(),
            self.path.to_string(),
            shown.join(", "),
            suffix,
            self.cost
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Frontend as _;
    use pi_diff::{extract_changes, AncestorPolicy, RecordRef};

    fn parse(sql: &str) -> Result<pi_ast::Node, pi_ast::FrontendError> {
        pi_sql::SqlFrontend.parse_one(sql)
    }

    fn slider_widget() -> Widget {
        let domain = Domain::from_subtrees(vec![Node::int(1), Node::int(100)]);
        let cost = WidgetType::Slider.default_cost().eval(domain.size());
        Widget::new(
            WidgetType::Slider,
            "2/0/1".parse().unwrap(),
            domain,
            vec![],
            cost,
        )
    }

    #[test]
    fn slider_extrapolates_but_dropdown_does_not() {
        let slider = slider_widget();
        assert!(slider.can_express_subtree(Some(&Node::int(42))));
        assert!(!slider.can_express_subtree(Some(&Node::int(1000))));
        assert!(!slider.can_express_subtree(None));

        let domain = Domain::from_subtrees(vec![Node::int(1), Node::int(100)]);
        let dd = Widget::new(
            WidgetType::Dropdown,
            "2/0/1".parse().unwrap(),
            domain,
            vec![],
            0.0,
        );
        assert!(dd.can_express_subtree(Some(&Node::int(1))));
        assert!(!dd.can_express_subtree(Some(&Node::int(42))));
    }

    #[test]
    fn textbox_expresses_any_literal() {
        let domain = Domain::from_subtrees(vec![Node::string("Alice")]);
        let tb = Widget::new(
            WidgetType::Textbox,
            "2/0/1".parse().unwrap(),
            domain,
            vec![],
            4790.0,
        );
        assert!(tb.can_express_subtree(Some(&Node::string("Bob"))));
        assert!(tb.can_express_subtree(Some(&Node::int(7))));
        assert!(!tb.can_express_subtree(Some(&parse("SELECT 1").unwrap())));
    }

    #[test]
    fn expresses_requires_matching_path_and_domain() {
        let q1 = parse("SELECT a FROM t WHERE x = 1").unwrap();
        let q2 = parse("SELECT a FROM t WHERE x = 50").unwrap();
        let q3 = parse("SELECT b FROM t WHERE x = 1").unwrap();
        let d_num = &extract_changes(&q1, &q2, AncestorPolicy::LcaPruned)[0];
        let d_col = &extract_changes(&q1, &q3, AncestorPolicy::LcaPruned)[0];

        let slider = slider_widget();
        assert!(slider.expresses(d_num));
        assert!(
            !slider.expresses(d_col),
            "different path must not be expressed"
        );
    }

    #[test]
    fn presence_domains_express_deletions() {
        let q1 = parse("SELECT g FROM t").unwrap();
        let q2 = parse("SELECT TOP 1 g FROM t").unwrap();
        let changes = extract_changes(&q1, &q2, AncestorPolicy::LcaPruned);
        let add = &changes[0];
        let domain = Domain::from_diffs(changes.iter().map(|c| RecordRef::new(0, 1, c)));
        let toggle = Widget::new(
            WidgetType::ToggleButton,
            add.path.clone(),
            domain,
            vec![],
            335.0,
        );
        assert!(toggle.expresses(add));
        // The inverse direction (deleting the TOP clause) is a diff with after = None.
        let inverse = extract_changes(&q2, &q1, AncestorPolicy::LcaPruned);
        let del = &inverse[0];
        assert!(toggle.can_express_subtree(del.after.as_ref()));
    }

    #[test]
    fn labels_and_descriptions() {
        let w = slider_widget().with_label("threshold");
        assert_eq!(w.display_label(), "threshold");
        let w2 = slider_widget();
        assert!(w2.display_label().contains("slider"));
        assert!(w2.describe().contains("cost="));
    }
}
