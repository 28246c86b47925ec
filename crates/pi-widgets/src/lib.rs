//! # pi-widgets — the interaction widget library
//!
//! Widgets are the interface-side of the unified model of §4.3: a widget type `WT` is a pair
//! `(r_WT, c_WT)` of a *rule* that decides which domains (sets of subtrees) the type can
//! express, and a *cost function* that estimates how expensive the widget is to use as a
//! function of its domain size.  A widget *instance* `w` fixes a path `w.p` in the query AST
//! and a domain `w.d` initialised from a subset `w.D` of the diffs table.
//!
//! This crate provides:
//!
//! * the nine HTML widget types of the paper's prototype ([`WidgetType`]),
//! * their rules over a domain's [`DomainShape`]: which domains a type accepts
//!   ([`WidgetType::accepts`]) and which subtrees a widget can place
//!   ([`WidgetType::can_place`]),
//! * polynomial cost functions `c(n) = a0 + a1·n + a2·n²` ([`CostFunction`]), including the
//!   published constants for drop-downs and text boxes (Example 4.4),
//! * least-squares fitting of cost parameters from interaction timing traces ([`fit`]),
//! * widget instances ([`Widget`]) with domain membership / expressiveness checks, including
//!   the numeric-range extrapolation sliders get (Example 4.3),
//! * a [`WidgetLibrary`] bundling types with cost functions, used by the mapper's
//!   `pickWidget` (Algorithm 2).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cost;
mod domain;
pub mod fit;
mod library;
mod types;
mod widget;

pub use cost::CostFunction;
pub use domain::{Domain, DomainShape, MemberFacts};
pub use library::WidgetLibrary;
pub use types::WidgetType;
pub use widget::Widget;
