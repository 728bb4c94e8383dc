//! Tree rendering: Graphviz dot and indented ASCII.
//!
//! Used by `examples/figure2.rs` to regenerate the paper's Fig. 2 style
//! drawings: each node is labeled with its flow and its popularity
//! (complementary and subtree-summed, like the bracketed counts in the
//! figure).

use crate::pop::Metric;
use crate::tree::{FlowTree, NIL};
use std::fmt::Write as _;

impl FlowTree {
    /// Graphviz dot rendering of the whole tree.
    pub fn to_dot(&self) -> String {
        let mut out =
            String::from("digraph flowtree {\n  node [shape=box, fontname=\"monospace\"];\n");
        let sums = self.subtree_sums();
        for id in self.preorder() {
            let node = self.node(id);
            let sum = sums[id as usize];
            let label = format!(
                "{}\\n[{} | comp {}]",
                escape(&node.key.to_string()),
                sum.get(Metric::Packets),
                node.comp.get(Metric::Packets),
            );
            let _ = writeln!(out, "  n{id} [label=\"{label}\"];");
            if node.parent != NIL {
                let _ = writeln!(out, "  n{} -> n{id};", node.parent);
            }
        }
        out.push_str("}\n");
        out
    }

    /// Indented ASCII rendering (children sorted by key for determinism).
    pub fn to_ascii(&self) -> String {
        let sum_of = self.subtree_sums();
        let mut out = String::new();
        let mut stack: Vec<(u32, usize)> = vec![(self.root, 0)];
        while let Some((id, indent)) = stack.pop() {
            let node = self.node(id);
            let _ = writeln!(
                out,
                "{}{} [{} | comp {}]",
                "  ".repeat(indent),
                node.key,
                sum_of[id as usize].get(Metric::Packets),
                node.comp.get(Metric::Packets),
            );
            let mut kids = Vec::new();
            let mut c = node.first_child;
            while c != NIL {
                kids.push(c);
                c = self.node(c).next_sibling;
            }
            kids.sort_by_key(|k| std::cmp::Reverse(self.node(*k).key));
            for k in kids {
                stack.push((k, indent + 1));
            }
        }
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, Popularity};
    use flowkey::Schema;

    fn tiny_tree() -> FlowTree {
        let mut tree = FlowTree::new(Schema::one_feature_src(), Config::with_budget(64));
        for (key, n) in [
            ("src=1.1.1.12/32", 2i64),
            ("src=1.1.1.20/32", 6),
            ("src=1.1.1.99/32", 40),
        ] {
            tree.insert(&key.parse().unwrap(), Popularity::new(n, n * 100, 1));
        }
        tree
    }

    #[test]
    fn dot_contains_every_node_and_edge() {
        let tree = tiny_tree();
        let dot = tree.to_dot();
        assert!(dot.starts_with("digraph flowtree {"));
        assert!(dot.contains("1.1.1.12/32"));
        assert!(dot.contains("->"));
        // One label line per node.
        assert_eq!(
            dot.matches("[label=").count(),
            tree.len(),
            "every node labeled"
        );
    }

    #[test]
    fn ascii_is_indented_and_complete() {
        let tree = tiny_tree();
        let ascii = tree.to_ascii();
        assert_eq!(ascii.lines().count(), tree.len());
        assert!(ascii.starts_with("* ["), "root first: {ascii}");
        assert!(ascii.contains("src=1.1.1.99/32"));
    }

    #[test]
    fn root_shows_total_packets() {
        let tree = tiny_tree();
        let ascii = tree.to_ascii();
        let first = ascii.lines().next().unwrap();
        assert!(first.contains("[48 |"), "root subtree = 2+6+40: {first}");
    }
}
