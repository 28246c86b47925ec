//! # pi-ast — query abstract syntax trees for Precision Interfaces
//!
//! Precision Interfaces (Zhang et al., SIGMOD 2019) performs *syntactic* analysis of a query
//! log: every query is parsed into an abstract syntax tree (AST) and the system reasons purely
//! about subtree differences between those trees.  This crate defines the tree model shared by
//! the whole workspace:
//!
//! * [`Node`] — a tree node with a [`NodeKind`], a set of attribute/value pairs and an ordered
//!   list of children (paper §4.1, Figure 3),
//!   stored behind a shared handle with **copy-on-write subtrees**: `clone()` is a refcount
//!   bump, path mutators (`replace_at` / `insert_at` / `remove_at` and their `-ed` copying
//!   variants) un-share only the root→path spine via `Arc::make_mut`, and every untouched
//!   subtree stays physically shared between the old and new trees ([`Node::ptr_eq`] observes
//!   the sharing; the memoized structural hash stays sound under it),
//! * [`Path`] — the `0/1/0`-style location of a subtree inside a query AST (paper Table 1),
//! * [`PrimitiveType`] — the minimal type system (`str`, `num`, `tree`) used by widget rules to
//!   decide which widget types may express a set of subtrees (paper §4.3),
//! * grammar annotations: which node kinds are terminals of which primitive type, the
//!   "lightly annotated grammar" assumption of §4.1.
//!
//! The crate is deliberately independent of SQL: the [`frontend`] module defines the
//! [`Frontend`] trait (parse text → trees, render trees → text) plus a per-query
//! [`Dialect`] tag, and `pi-sql` (SQL) and `pi-frames` (a method-chain dataframe dialect)
//! both implement it against the same tree shapes — so structurally identical analyses
//! written in different languages produce identical trees and mine into one shared
//! interface, the multi-front-end design goal stated in the paper.
//!
//! ```
//! use pi_ast::{Node, NodeKind, Path};
//!
//! // SELECT cty FROM t  (hand-built; usually produced by pi-sql)
//! let query = Node::new(NodeKind::Select)
//!     .with_child(
//!         Node::new(NodeKind::Project)
//!             .with_child(Node::new(NodeKind::ProjClause).with_child(Node::column("cty"))),
//!     )
//!     .with_child(Node::new(NodeKind::From).with_child(Node::table("t")));
//!
//! let path: Path = "0/0/0".parse().unwrap();
//! assert_eq!(query.get(&path).unwrap().kind(), NodeKind::ColExpr);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod intern;
mod istr;
mod kind;
mod node;
mod path;
mod print;
mod value;

pub mod codec;
pub mod frontend;
pub mod hash;

pub use codec::CodecError;
pub use frontend::{Dialect, ErrorSample, Frontend, FrontendError, Frontends, MAX_NESTING};
pub use hash::{IntBuildHasher, IntHasher};
pub use intern::Sym;
pub use istr::{ArenaStats, IStr};
pub use kind::{NodeKind, PrimitiveType};
pub use node::{Node, NodeId, ReplaceError};
pub use path::{ParsePathError, Path};
pub use print::pretty;
pub use value::AttrValue;

/// Result alias used by fallible tree operations in this crate.
pub type Result<T, E = ReplaceError> = std::result::Result<T, E>;
