//! Debug pretty-printing of ASTs.
//!
//! The printer renders a tree in an indented outline similar to the figures in the paper, with
//! each node's kind and attributes, e.g.
//!
//! ```text
//! Select
//! ├─ Project
//! │  └─ ProjClause
//! │     └─ ColExpr(name=sales)
//! └─ From
//!    └─ TableRef(name=t)
//! ```

use crate::node::Node;
use std::fmt::Write as _;

/// Pretty-prints a tree as an indented outline, one line per node.
pub fn pretty(node: &Node) -> String {
    let mut out = String::new();
    print_node(node, "", true, true, &mut out);
    out
}

fn print_node(node: &Node, prefix: &str, is_last: bool, is_root: bool, out: &mut String) {
    let connector = if is_root {
        ""
    } else if is_last {
        "└─ "
    } else {
        "├─ "
    };
    let _ = writeln!(out, "{prefix}{connector}{node}");

    let child_prefix = if is_root {
        String::new()
    } else if is_last {
        format!("{prefix}   ")
    } else {
        format!("{prefix}│  ")
    };
    let n = node.children().len();
    for (i, child) in node.children().iter().enumerate() {
        print_node(child, &child_prefix, i + 1 == n, false, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::NodeKind;

    fn tree() -> Node {
        Node::new(NodeKind::Select)
            .with_child(
                Node::new(NodeKind::Project)
                    .with_child(Node::new(NodeKind::ProjClause).with_child(Node::column("sales"))),
            )
            .with_child(Node::new(NodeKind::From).with_child(Node::table("t")))
    }

    #[test]
    fn prints_every_node_once() {
        let t = tree();
        let s = pretty(&t);
        assert_eq!(s.lines().count(), t.size());
        assert!(s.contains("Select"));
        assert!(s.contains("ColExpr(name=sales)"));
        assert!(s.contains("TableRef(name=t)"));
    }

    #[test]
    fn uses_box_drawing_connectors() {
        let s = pretty(&tree());
        assert!(s.contains("├─"));
        assert!(s.contains("└─"));
    }
}
