//! The nine widget types of the prototype, their rules and default cost models.
//!
//! The paper's implementation defines nine HTML widget types natively supported by modern
//! browsers (§7 "Implementation"): text box, toggle button, single checkbox, radio button,
//! drop-down list, slider, range slider, checkbox list and drag-and-drop.  Each type has a
//! rule `r_WT(w.d)` deciding whether a domain can be expressed by the type, and a cost
//! function `c_WT(|w.d|)`.  The drop-down and text-box cost constants are published in the
//! paper (Example 4.4); the remaining defaults were chosen so that the qualitative trade-offs
//! reported in §7.1 hold (sliders win numeric literals, toggles win presence/absence, radio
//! buttons win tiny tree domains, decomposition wins once option lists grow).

use crate::cost::CostFunction;
use crate::domain::{DomainShape, MemberFacts};
use pi_ast::PrimitiveType;
use std::fmt;

/// One of the widget types in the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WidgetType {
    /// Free-text entry; can express any literal value at a fixed (high) cost.
    Textbox,
    /// Two-state button swapping between (at most) two alternatives, or toggling presence.
    ToggleButton,
    /// A single checkbox toggling the presence of one specific subtree.
    Checkbox,
    /// A small list of mutually exclusive options; works for arbitrary subtrees.
    RadioButton,
    /// A drop-down list of string-ish options.
    Dropdown,
    /// A numeric slider; extrapolates its domain to the observed numeric range.
    Slider,
    /// A two-ended numeric slider for range predicates.
    RangeSlider,
    /// A list of checkboxes; suited to collections where options toggle independently.
    CheckboxList,
    /// Drag-and-drop reordering / selection of larger structural options.
    DragAndDrop,
}

impl WidgetType {
    /// All widget types, in display order.
    pub fn all() -> [WidgetType; 9] {
        [
            WidgetType::Textbox,
            WidgetType::ToggleButton,
            WidgetType::Checkbox,
            WidgetType::RadioButton,
            WidgetType::Dropdown,
            WidgetType::Slider,
            WidgetType::RangeSlider,
            WidgetType::CheckboxList,
            WidgetType::DragAndDrop,
        ]
    }

    /// The rule `r_WT(w.d)`: can a widget of this type express a domain of this shape?
    ///
    /// Rules are purely syntactic, based on the primitive type of the domain members, the
    /// domain size, and whether "absent" is one of the options — exactly the information the
    /// paper's rules consume, and all of it in the [`DomainShape`], so the mapper can pick
    /// widgets before it builds their [`Domain`](crate::Domain)s.  A built domain hands its
    /// shape over with [`Domain::shape`](crate::Domain::shape).
    pub fn accepts(&self, domain: &DomainShape) -> bool {
        if domain.is_empty() {
            return false;
        }
        let prim = domain.primitive();
        match self {
            // Free text can express any string or numeric literal, but not whole subtrees,
            // and it has no way to express "remove the subtree".
            WidgetType::Textbox => {
                prim.castable_to(PrimitiveType::Str) && !domain.includes_absent()
            }
            // A toggle needs at most two states.
            WidgetType::ToggleButton => domain.size() <= 2,
            // A single checkbox toggles presence of exactly one subtree.
            WidgetType::Checkbox => domain.includes_absent() && domain.members() == 1,
            // Radio buttons enumerate options of any type, but become unusable when long.
            WidgetType::RadioButton => domain.size() <= 12,
            // Drop-downs enumerate string-ish options (numerics cast to strings).
            WidgetType::Dropdown => prim.castable_to(PrimitiveType::Str),
            // Sliders require a purely numeric domain and cannot express absence.
            WidgetType::Slider => {
                prim == PrimitiveType::Num
                    && !domain.includes_absent()
                    && domain.numeric_range().is_some()
            }
            // A range slider additionally needs at least two observed endpoints.
            WidgetType::RangeSlider => {
                prim == PrimitiveType::Num && !domain.includes_absent() && domain.members() >= 2
            }
            // Checkbox lists enumerate options of any type, including absence, but like every
            // enumeration control they stop making sense beyond a few dozen options.
            WidgetType::CheckboxList => domain.size() >= 2 && domain.size() <= 40,
            // Drag-and-drop holds arbitrary structural options, up to a usability bound.  A
            // domain too large for *any* enumeration widget simply gets no widget: a selector
            // over hundreds of whole queries is not an interface, it is the log itself.
            WidgetType::DragAndDrop => domain.size() <= 60,
        }
    }

    /// The expressibility rule of §4.3: can a widget of this type, over a domain of shape
    /// `domain`, place `candidate` at its path?  `candidate` is `None` for absence (no
    /// subtree at the path), else the subtree's facts; `is_member` answers whether the
    /// subtree is one of the domain's explicit members and is asked only when the rule
    /// needs it.
    ///
    /// Absence needs the "absent" option.  Enumerating widgets (drop-down, radio, …) place
    /// only their members; sliders also place any numeric literal within the members'
    /// range (Example 4.3); text boxes place any literal castable to a string.
    pub fn can_place(
        &self,
        domain: &DomainShape,
        candidate: Option<MemberFacts>,
        is_member: impl FnOnce() -> bool,
    ) -> bool {
        let Some(facts) = candidate else {
            return domain.includes_absent();
        };
        match self {
            WidgetType::Slider | WidgetType::RangeSlider => {
                is_member() || facts.value.is_some_and(|v| domain.spans(v))
            }
            WidgetType::Textbox => facts.prim.castable_to(PrimitiveType::Str) || is_member(),
            _ => is_member(),
        }
    }

    /// The default cost function for this type (milliseconds as a function of domain size).
    ///
    /// Drop-down and text box use the constants published in Example 4.4; the others are the
    /// defaults our prototype ships with (they can be re-fit from traces via
    /// [`crate::fit::fit_cost`] and [`crate::WidgetLibrary::with_cost`]).
    pub fn default_cost(&self) -> CostFunction {
        match self {
            WidgetType::Textbox => CostFunction::paper_textbox(),
            WidgetType::ToggleButton => CostFunction::new(320.0, 15.0, 0.0),
            WidgetType::Checkbox => CostFunction::new(350.0, 20.0, 0.0),
            WidgetType::RadioButton => CostFunction::new(200.0, 255.0, 2.0),
            WidgetType::Dropdown => CostFunction::paper_dropdown(),
            WidgetType::Slider => CostFunction::new(250.0, 30.0, 0.05),
            WidgetType::RangeSlider => CostFunction::new(420.0, 35.0, 0.05),
            WidgetType::CheckboxList => CostFunction::new(450.0, 260.0, 6.0),
            WidgetType::DragAndDrop => CostFunction::new(2000.0, 260.0, 6.0),
        }
    }

    /// A stable identifier used in HTML generation and experiment output.
    pub fn slug(&self) -> &'static str {
        match self {
            WidgetType::Textbox => "textbox",
            WidgetType::ToggleButton => "toggle",
            WidgetType::Checkbox => "checkbox",
            WidgetType::RadioButton => "radio",
            WidgetType::Dropdown => "dropdown",
            WidgetType::Slider => "slider",
            WidgetType::RangeSlider => "range-slider",
            WidgetType::CheckboxList => "checkbox-list",
            WidgetType::DragAndDrop => "drag-and-drop",
        }
    }
}

impl fmt::Display for WidgetType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;
    use pi_ast::Frontend as _;
    use pi_ast::Node;

    fn parse(sql: &str) -> Result<pi_ast::Node, pi_ast::FrontendError> {
        pi_sql::SqlFrontend.parse_one(sql)
    }

    fn numeric_domain() -> DomainShape {
        *Domain::from_subtrees(vec![Node::int(1), Node::int(5), Node::int(100)]).shape()
    }

    fn string_domain(n: usize) -> DomainShape {
        *Domain::from_subtrees((0..n).map(|i| Node::string(&format!("opt{i}")))).shape()
    }

    fn tree_domain(n: usize) -> DomainShape {
        *Domain::from_subtrees(
            (0..n).map(|i| parse(&format!("SELECT a FROM t WHERE x = {i}")).unwrap()),
        )
        .shape()
    }

    #[test]
    fn sliders_only_accept_pure_numeric_domains() {
        assert!(WidgetType::Slider.accepts(&numeric_domain()));
        assert!(!WidgetType::Slider.accepts(&string_domain(3)));
        assert!(!WidgetType::Slider.accepts(&tree_domain(3)));
        let mut with_absent = numeric_domain();
        with_absent.set_includes_absent(true);
        assert!(!WidgetType::Slider.accepts(&with_absent));
    }

    #[test]
    fn textbox_accepts_literals_but_not_trees() {
        assert!(WidgetType::Textbox.accepts(&numeric_domain()));
        assert!(WidgetType::Textbox.accepts(&string_domain(40)));
        assert!(!WidgetType::Textbox.accepts(&tree_domain(2)));
    }

    #[test]
    fn toggle_needs_at_most_two_states() {
        assert!(WidgetType::ToggleButton.accepts(&string_domain(2)));
        assert!(WidgetType::ToggleButton.accepts(&tree_domain(2)));
        assert!(!WidgetType::ToggleButton.accepts(&string_domain(3)));
        let mut presence = Domain::from_subtrees(vec![parse("SELECT 1").unwrap()]);
        presence.set_includes_absent(true);
        assert!(WidgetType::ToggleButton.accepts(presence.shape()));
        assert!(WidgetType::Checkbox.accepts(presence.shape()));
    }

    #[test]
    fn dropdown_accepts_strings_and_numbers_but_not_trees() {
        assert!(WidgetType::Dropdown.accepts(&string_domain(10)));
        assert!(WidgetType::Dropdown.accepts(&numeric_domain()));
        assert!(!WidgetType::Dropdown.accepts(&tree_domain(3)));
    }

    #[test]
    fn radio_accepts_small_tree_domains_only() {
        assert!(WidgetType::RadioButton.accepts(&tree_domain(3)));
        assert!(!WidgetType::RadioButton.accepts(&tree_domain(20)));
    }

    #[test]
    fn every_nonempty_domain_has_at_least_one_accepting_type() {
        // The initialisation step must always be able to instantiate *some* widget, otherwise
        // a query in the log could not be expressed at all.
        for domain in [
            numeric_domain(),
            string_domain(1),
            string_domain(50),
            tree_domain(1),
            tree_domain(30),
            {
                let mut d = tree_domain(1);
                d.set_includes_absent(true);
                d
            },
        ] {
            assert!(
                WidgetType::all().iter().any(|t| t.accepts(&domain)),
                "no widget type accepts {domain:?}"
            );
        }
        // ... except the empty domain, which nothing accepts.
        assert!(WidgetType::all()
            .iter()
            .all(|t| !t.accepts(Domain::new().shape())));
    }

    #[test]
    fn default_costs_reproduce_the_papers_tradeoffs() {
        // Numeric literal changes: slider is the cheapest applicable widget.
        let d = numeric_domain();
        let slider = WidgetType::Slider.default_cost().eval(d.size());
        let dropdown = WidgetType::Dropdown.default_cost().eval(d.size());
        let textbox = WidgetType::Textbox.default_cost().eval(d.size());
        assert!(slider < dropdown && slider < textbox);

        // Small string sets: the drop-down beats the text box; large sets: the text box wins.
        assert!(
            WidgetType::Dropdown.default_cost().eval(4)
                < WidgetType::Textbox.default_cost().eval(4)
        );
        assert!(
            WidgetType::Dropdown.default_cost().eval(60)
                > WidgetType::Textbox.default_cost().eval(60)
        );

        // Presence/absence of a clause: toggling is cheaper than any enumeration widget.
        let toggle = WidgetType::ToggleButton.default_cost().eval(2);
        assert!(toggle < WidgetType::RadioButton.default_cost().eval(2));
        assert!(toggle < WidgetType::DragAndDrop.default_cost().eval(2));
    }

    #[test]
    fn slugs_are_unique() {
        let slugs: std::collections::BTreeSet<&str> =
            WidgetType::all().iter().map(|t| t.slug()).collect();
        assert_eq!(slugs.len(), 9);
        assert_eq!(WidgetType::Slider.to_string(), "slider");
    }
}
