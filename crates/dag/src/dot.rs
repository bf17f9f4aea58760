//! Graphviz DOT export of task graphs (the workflow depiction used in
//! monitoring tools and in the paper's figures).

use crate::graph::TaskGraph;
use std::fmt::Write;

/// Options controlling DOT rendering.
#[derive(Debug, Clone)]
pub struct DotOptions {
    /// Graph name emitted in the `digraph` header.
    pub name: String,
    /// Include the group label (workflow phase) in node labels.
    pub show_groups: bool,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions {
            name: "workflow".to_string(),
            show_groups: true,
        }
    }
}

impl DotOptions {
    /// Renders a task graph in Graphviz DOT format.
    ///
    /// # Example
    ///
    /// ```
    /// use continuum_dag::{AccessProcessor, TaskSpec, DotOptions};
    ///
    /// let mut ap = AccessProcessor::new();
    /// let x = ap.new_data("x");
    /// ap.register(TaskSpec::new("gen").output(x))?;
    /// ap.register(TaskSpec::new("use").input(x))?;
    /// let dot = DotOptions::default().render(ap.graph());
    /// assert!(dot.contains("t0 -> t1"));
    /// # Ok::<(), continuum_dag::DagError>(())
    /// ```
    pub fn render(&self, graph: &TaskGraph) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph {} {{", sanitize(&self.name));
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  node [shape=box];");
        for node in graph.nodes() {
            let mut label = node.spec().name().to_string();
            if self.show_groups {
                if let Some(g) = node.spec().group_label() {
                    label = format!("{label}\\n[{g}]");
                }
            }
            let _ = writeln!(out, "  {} [label=\"{}\"];", node.id(), label);
        }
        for node in graph.nodes() {
            for succ in node.successors() {
                let _ = writeln!(out, "  {} -> {};", node.id(), succ);
            }
        }
        out.push_str("}\n");
        out
    }
}

fn sanitize(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "workflow".to_string()
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessProcessor;
    use crate::spec::TaskSpec;

    fn small_graph() -> AccessProcessor {
        let mut ap = AccessProcessor::new();
        let x = ap.new_data("x");
        let y = ap.new_data("y");
        ap.register(TaskSpec::new("gen").group("init").output(x))
            .unwrap();
        ap.register(TaskSpec::new("use").input(x).output(y))
            .unwrap();
        ap
    }

    #[test]
    fn render_contains_nodes_and_edges() {
        let ap = small_graph();
        let dot = DotOptions::default().render(ap.graph());
        assert!(dot.starts_with("digraph workflow {"));
        assert!(dot.contains("t0 [label=\"gen\\n[init]\""));
        assert!(dot.contains("t1 [label=\"use\""));
        assert!(dot.contains("t0 -> t1;"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn options_can_disable_decorations() {
        let ap = small_graph();
        let opts = DotOptions {
            name: "my graph!".into(),
            show_groups: false,
        };
        let dot = opts.render(ap.graph());
        assert!(dot.contains("digraph my_graph_ {"));
        assert!(dot.contains("t0 [label=\"gen\"];"));
        assert!(!dot.contains("[init]"));
    }

    #[test]
    fn empty_name_falls_back() {
        assert_eq!(sanitize(""), "workflow");
    }
}
