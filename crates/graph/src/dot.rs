//! Graphviz DOT export of an overlay's nodes and edges — the debugging view
//! used while developing the rules, kept as a user-facing feature (render
//! with `dot -Tsvg`).

use crate::{Edge, EdgeKind, NodeRef};
use std::fmt::Write as _;

/// Options for the DOT rendering.
#[derive(Clone, Debug)]
pub struct DotStyle {
    /// Graph name.
    pub name: String,
    /// Lay nodes out on a circle in ring order (`circo`-friendly).
    pub circular: bool,
    /// Include connection edges (they dominate visually on large graphs).
    pub include_connection: bool,
}

impl Default for DotStyle {
    fn default() -> Self {
        DotStyle { name: "rechord".into(), circular: true, include_connection: true }
    }
}

/// Renders the overlay with nodes `nodes` and edges `edges`, each in the
/// order given, as a Graphviz digraph: real nodes are boxes, virtual nodes
/// are ellipses; unmarked edges solid, ring edges bold red, connection
/// edges dashed gray.
pub fn to_dot(
    nodes: impl IntoIterator<Item = NodeRef>,
    edges: impl IntoIterator<Item = Edge>,
    style: &DotStyle,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", style.name);
    if style.circular {
        let _ = writeln!(out, "  layout=circo;");
    }
    let _ = writeln!(out, "  node [fontsize=9];");
    for n in nodes {
        let (shape, fill) = if n.is_real() { ("box", "lightblue") } else { ("ellipse", "white") };
        let _ = writeln!(
            out,
            "  \"{}\" [shape={shape}, style=filled, fillcolor={fill}, label=\"{}\"];",
            node_id(&n),
            node_label(&n)
        );
    }
    for e in edges {
        let attrs = match e.kind {
            EdgeKind::Unmarked => "color=black",
            EdgeKind::Ring => "color=red, penwidth=2",
            EdgeKind::Connection => {
                if !style.include_connection {
                    continue;
                }
                "color=gray, style=dashed"
            }
        };
        let _ = writeln!(out, "  \"{}\" -> \"{}\" [{attrs}];", node_id(&e.from), node_id(&e.to));
    }
    out.push_str("}\n");
    out
}

fn node_id(n: &NodeRef) -> String {
    format!("{:016x}.{}", n.owner.raw(), n.level)
}

fn node_label(n: &NodeRef) -> String {
    if n.is_real() {
        format!("{:.4}", n.pos().to_f64())
    } else {
        format!("{:.4}\\n(+2^-{})", n.pos().to_f64(), n.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechord_id::Ident;

    fn sample(style: &DotStyle) -> String {
        let a = NodeRef::real(Ident::from_f64(0.1));
        let v = NodeRef::virtual_node(Ident::from_f64(0.1), 2);
        let b = NodeRef::real(Ident::from_f64(0.7));
        let edges = [Edge::unmarked(a, b), Edge::ring(b, a), Edge::connection(v, b)];
        to_dot([a, b, v], edges, style)
    }

    #[test]
    fn renders_all_edge_kinds() {
        let dot = sample(&DotStyle::default());
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("color=red"), "ring edge styled");
        assert!(dot.contains("style=dashed"), "connection edge styled");
        assert!(dot.contains("shape=box"), "real node styled");
        assert!(dot.contains("shape=ellipse"), "virtual node styled");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn connection_edges_can_be_suppressed() {
        let style = DotStyle { include_connection: false, ..Default::default() };
        let dot = sample(&style);
        assert!(!dot.contains("dashed"));
        assert!(dot.contains("color=red"));
    }

    #[test]
    fn node_ids_are_unique_per_level() {
        let dot = sample(&DotStyle::default());
        // owner 0.1 appears as both level 0 and level 2 with distinct ids
        let a0 = format!("{:016x}.0", Ident::from_f64(0.1).raw());
        let a2 = format!("{:016x}.2", Ident::from_f64(0.1).raw());
        assert!(dot.contains(&a0) && dot.contains(&a2));
    }
}
