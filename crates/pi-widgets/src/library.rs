//! The widget library: types plus cost functions, and the `pickWidget` primitive.

use crate::cost::CostFunction;
use crate::domain::{Domain, DomainShape};
use crate::fit::{fit_cost, TracePoint};
use crate::types::WidgetType;
use crate::widget::Widget;
use pi_ast::Path;
use pi_diff::DiffId;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A library `L` of widget types with their cost functions.
///
/// The mapper's `pickWidget(W_p, L)` (Algorithm 2) asks the library for the lowest-cost type
/// whose rule accepts a domain; the library is also the place where per-user cost
/// personalisation lives (§4.3 footnote: a strongly preferred widget type can simply be given
/// a very low constant).
#[derive(Debug, Clone)]
pub struct WidgetLibrary {
    costs: BTreeMap<WidgetType, CostFunction>,
}

impl Default for WidgetLibrary {
    fn default() -> Self {
        Self::standard()
    }
}

impl WidgetLibrary {
    /// The standard library: all nine types with their default cost functions.
    pub fn standard() -> Self {
        let costs = WidgetType::all()
            .into_iter()
            .map(|ty| (ty, ty.default_cost()))
            .collect();
        WidgetLibrary { costs }
    }

    /// A library restricted to a subset of widget types (used by ablations and by the
    /// user-study interface which, like the original SDSS form, only offers text boxes).
    pub fn restricted<I: IntoIterator<Item = WidgetType>>(types: I) -> Self {
        let costs = types
            .into_iter()
            .map(|ty| (ty, ty.default_cost()))
            .collect();
        WidgetLibrary { costs }
    }

    /// Overrides the cost function of one widget type.
    pub fn with_cost(mut self, ty: WidgetType, cost: CostFunction) -> Self {
        self.costs.insert(ty, cost);
        self
    }

    /// Re-fits the cost function of one widget type from timing traces.
    pub fn with_fitted_cost(self, ty: WidgetType, trace: &[TracePoint]) -> Self {
        let fitted = fit_cost(trace);
        self.with_cost(ty, fitted)
    }

    /// The cost function of a type (its default if the library does not carry the type).
    pub fn cost_of(&self, ty: WidgetType) -> CostFunction {
        self.costs
            .get(&ty)
            .copied()
            .unwrap_or_else(|| ty.default_cost())
    }

    /// The widget types available in this library.
    pub fn types(&self) -> impl Iterator<Item = WidgetType> + '_ {
        self.costs.keys().copied()
    }

    /// The types whose rules accept a domain of this shape, with their costs, cheapest
    /// first (ties by type).
    pub fn valid_types(&self, shape: &DomainShape) -> Vec<(WidgetType, f64)> {
        let mut out: Vec<(WidgetType, f64)> = self.priced(shape).collect();
        out.sort_by(by_cost);
        out
    }

    /// Algorithm 2's choice: the first of [`WidgetLibrary::valid_types`] — the lowest-cost
    /// type whose rule accepts a domain of this shape, and its cost.  `None` when the
    /// domain is empty or no type in the library accepts it.
    pub fn choose(&self, shape: &DomainShape) -> Option<(WidgetType, f64)> {
        self.priced(shape).min_by(by_cost)
    }

    /// Algorithm 2 (`pickWidget`): instantiate the type [`WidgetLibrary::choose`] picks from
    /// the domain's shape.  Returns `None` when the domain is empty or no type in the
    /// library accepts it.
    pub fn pick(&self, path: Path, domain: Domain, init_diffs: Vec<DiffId>) -> Option<Widget> {
        let (ty, cost) = self.choose(domain.shape())?;
        Some(Widget::new(ty, path, domain, init_diffs, cost))
    }

    /// The library's types that accept a domain of this shape, priced at its size.
    fn priced<'a>(
        &'a self,
        shape: &'a DomainShape,
    ) -> impl Iterator<Item = (WidgetType, f64)> + 'a {
        self.costs
            .iter()
            .filter(|(ty, _)| ty.accepts(shape))
            .map(|(ty, cost)| (*ty, cost.eval(shape.size())))
    }
}

/// Cheaper first; equal costs by type, so the order is total.
fn by_cost(a: &(WidgetType, f64), b: &(WidgetType, f64)) -> Ordering {
    a.1.partial_cmp(&b.1)
        .expect("a widget cost is a number")
        .then(a.0.cmp(&b.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_ast::Frontend as _;
    use pi_ast::Node;

    fn parse(sql: &str) -> Result<pi_ast::Node, pi_ast::FrontendError> {
        pi_sql::SqlFrontend.parse_one(sql)
    }

    #[test]
    fn pick_selects_slider_for_numeric_literals() {
        let lib = WidgetLibrary::standard();
        let domain = Domain::from_subtrees(vec![Node::int(3), Node::int(9)]);
        let w = lib.pick(Path::root(), domain, vec![]).unwrap();
        assert_eq!(w.ty, WidgetType::Slider);
    }

    #[test]
    fn pick_selects_dropdown_for_small_string_sets_and_textbox_for_large() {
        let lib = WidgetLibrary::standard();
        let small = Domain::from_subtrees((0..4).map(|i| Node::string(&format!("c{i}"))));
        assert_eq!(
            lib.pick(Path::root(), small, vec![]).unwrap().ty,
            WidgetType::Dropdown
        );
        let large = Domain::from_subtrees((0..80).map(|i| Node::string(&format!("c{i}"))));
        assert_eq!(
            lib.pick(Path::root(), large, vec![]).unwrap().ty,
            WidgetType::Textbox
        );
    }

    #[test]
    fn pick_selects_toggle_for_two_trees_and_radio_for_a_few() {
        let lib = WidgetLibrary::standard();
        let two = Domain::from_subtrees(vec![
            parse("SELECT a FROM t").unwrap(),
            parse("SELECT b FROM t").unwrap(),
        ]);
        assert_eq!(
            lib.pick(Path::root(), two, vec![]).unwrap().ty,
            WidgetType::ToggleButton
        );
        let three = Domain::from_subtrees(vec![
            parse("SELECT avg(a)").unwrap(),
            parse("SELECT count(b)").unwrap(),
            parse("SELECT count(c)").unwrap(),
        ]);
        assert_eq!(
            lib.pick(Path::root(), three, vec![]).unwrap().ty,
            WidgetType::RadioButton
        );
    }

    #[test]
    fn pick_selects_a_presence_toggle_for_additions() {
        let lib = WidgetLibrary::standard();
        let mut presence = Domain::from_subtrees(vec![parse("SELECT 1").unwrap()]);
        presence.set_includes_absent(true);
        let w = lib.pick(Path::root(), presence, vec![]).unwrap();
        assert!(
            w.ty == WidgetType::ToggleButton || w.ty == WidgetType::Checkbox,
            "got {:?}",
            w.ty
        );
    }

    #[test]
    fn empty_domains_yield_no_widget() {
        let lib = WidgetLibrary::standard();
        assert!(lib.pick(Path::root(), Domain::new(), vec![]).is_none());
    }

    #[test]
    fn restricted_library_only_offers_its_types() {
        let lib = WidgetLibrary::restricted([WidgetType::Textbox]);
        assert_eq!(lib.types().count(), 1);
        let domain = Domain::from_subtrees(vec![Node::int(3), Node::int(9)]);
        let w = lib.pick(Path::root(), domain, vec![]).unwrap();
        assert_eq!(w.ty, WidgetType::Textbox);
        // a tree domain has no valid widget in this library
        let trees =
            Domain::from_subtrees(vec![parse("SELECT 1").unwrap(), parse("SELECT 2").unwrap()]);
        assert!(lib.pick(Path::root(), trees, vec![]).is_none());
    }

    #[test]
    fn cost_personalisation_changes_the_choice() {
        // §4.3 footnote: a user who strongly prefers text boxes can set its constant very low.
        let lib =
            WidgetLibrary::standard().with_cost(WidgetType::Textbox, CostFunction::constant(1.0));
        let domain = Domain::from_subtrees(vec![Node::string("a"), Node::string("b")]);
        assert_eq!(
            lib.pick(Path::root(), domain, vec![]).unwrap().ty,
            WidgetType::Textbox
        );
    }

    #[test]
    fn fitted_costs_integrate_with_the_library() {
        use crate::fit::TracePoint;
        let trace: Vec<TracePoint> = (1..=30)
            .map(|n| TracePoint {
                n,
                millis: 100.0 + 5.0 * n as f64,
            })
            .collect();
        let lib = WidgetLibrary::standard().with_fitted_cost(WidgetType::Dropdown, &trace);
        let c = lib.cost_of(WidgetType::Dropdown);
        assert!((c.eval(10) - 150.0).abs() < 5.0);
    }

    #[test]
    fn valid_types_are_sorted_by_cost() {
        let lib = WidgetLibrary::standard();
        let domain = Domain::from_subtrees(vec![Node::int(1), Node::int(2)]);
        let types = lib.valid_types(domain.shape());
        assert!(!types.is_empty());
        for pair in types.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
    }
}
