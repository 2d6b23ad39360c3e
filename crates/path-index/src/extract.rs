//! Source-to-sink path enumeration (paper, Sections 3.2 and 6.1).
//!
//! The paper traverses the data graph "starting from the sources and
//! following the routes to the sinks", with "independently concurrent
//! traversals … started from each source". We reproduce that: an
//! iterative depth-first enumeration of *simple* paths per source, one
//! source after another.
//!
//! Cycles (which hub promotion can expose) are handled by the
//! simple-path restriction: a walk never revisits a node already on the
//! current path; when every out-edge of the walk head leads back into
//! the current path, the walk is emitted as ending there (a *pseudo
//! sink*). Explosion on dense DAGs is bounded by [`ExtractionConfig`]
//! limits; truncation is counted, never silent.

use crate::path::Path;
use rdf_model::{EdgeId, Graph, NodeId};

/// Limits for path enumeration.
#[derive(Debug, Clone, Copy)]
pub struct ExtractionConfig {
    /// Maximum number of *nodes* on one path (paper "length"). Walks are
    /// cut and emitted when they reach this depth.
    pub max_depth: usize,
    /// Maximum number of paths enumerated from a single source.
    pub max_paths_per_source: usize,
    /// Maximum number of paths enumerated overall.
    pub max_total_paths: usize,
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        ExtractionConfig {
            max_depth: 32,
            max_paths_per_source: 1 << 20,
            max_total_paths: 1 << 22,
        }
    }
}

/// The result of path enumeration.
#[derive(Debug, Clone, Default)]
pub struct Extraction {
    /// All enumerated paths, grouped by source (source order = the order
    /// returned by [`Graph::effective_sources`]).
    pub paths: Vec<Path>,
    /// Number of walks cut short by `max_depth`.
    pub depth_truncated: u64,
    /// Number of paths dropped by the per-source or total limits.
    pub dropped: u64,
}

impl Extraction {
    /// `true` if any configured limit altered the result.
    pub fn is_truncated(&self) -> bool {
        self.depth_truncated > 0 || self.dropped > 0
    }
}

/// What [`extract_into`] emitted and what its limits cut.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractionCounts {
    /// Paths handed to the sink.
    pub paths: usize,
    /// Number of walks cut short by `max_depth`.
    pub depth_truncated: u64,
    /// Number of paths dropped by the per-source or total limits.
    pub dropped: u64,
}

/// Enumerate all source-to-sink simple paths of `graph` under `config`.
///
/// A wrapper over [`extract_into`] that keeps every path as an owned
/// [`Path`].
pub fn extract_paths(graph: &Graph, config: &ExtractionConfig) -> Extraction {
    let mut paths = Vec::new();
    let counts = extract_into(graph, config, |nodes, edges| {
        paths.push(Path::new(nodes.to_vec(), edges.to_vec()));
    });
    Extraction {
        paths,
        depth_truncated: counts.depth_truncated,
        dropped: counts.dropped,
    }
}

/// Enumerate all source-to-sink simple paths of `graph` under `config`,
/// handing each to `sink` as its node and edge ids, grouped by source
/// in [`Graph::effective_sources`] order. The slices are the walk's own
/// stacks, valid for the call only.
///
/// One walk state serves every source, so the enumeration allocates
/// O(nodes + longest path), not O(sources × nodes); what the paths
/// occupy is the sink's business.
pub fn extract_into(
    graph: &Graph,
    config: &ExtractionConfig,
    mut sink: impl FnMut(&[NodeId], &[EdgeId]),
) -> ExtractionCounts {
    let mut counts = ExtractionCounts::default();
    let mut walk = Walk {
        node_stack: Vec::new(),
        edge_stack: Vec::new(),
        frames: Vec::new(),
        on_path: vec![false; graph.node_count()],
    };
    for s in graph.effective_sources() {
        if counts.paths >= config.max_total_paths {
            counts.dropped += 1;
            break;
        }
        let budget = config
            .max_total_paths
            .saturating_sub(counts.paths)
            .min(config.max_paths_per_source);
        walk_from(
            graph,
            s,
            config.max_depth,
            budget,
            &mut walk,
            &mut counts,
            &mut sink,
        );
    }
    counts
}

/// One frame of the iterative DFS: a node and the index of the next
/// out-edge to try from it.
struct Frame {
    node: NodeId,
    next_edge: usize,
    /// Whether any extension of the current walk through this frame has
    /// been emitted or pushed (if not, the walk ends here).
    extended: bool,
}

/// The DFS state, reused from one source's walk to the next. Between
/// walks the stacks are empty and no node is marked `on_path`.
struct Walk {
    node_stack: Vec<NodeId>,
    edge_stack: Vec<EdgeId>,
    frames: Vec<Frame>,
    /// `on_path[n]` iff node `n` is on the current walk.
    on_path: Vec<bool>,
}

/// Enumerate the paths from `source` into `sink`, at most `budget` of
/// them, leaving `walk` as it found it.
fn walk_from(
    graph: &Graph,
    source: NodeId,
    max_depth: usize,
    budget: usize,
    walk: &mut Walk,
    counts: &mut ExtractionCounts,
    sink: &mut impl FnMut(&[NodeId], &[EdgeId]),
) {
    if budget == 0 {
        counts.dropped += 1;
        return;
    }
    let Walk {
        node_stack,
        edge_stack,
        frames,
        on_path,
    } = walk;
    let mut emitted = 0;

    node_stack.push(source);
    on_path[source.index()] = true;
    frames.push(Frame {
        node: source,
        next_edge: 0,
        extended: false,
    });

    while let Some(frame) = frames.last_mut() {
        let node = frame.node;
        let out_edges = graph.out_edges(node);

        // Depth cut: emit and backtrack.
        if node_stack.len() >= max_depth && !out_edges.is_empty() {
            counts.depth_truncated += 1;
            if emitted < budget {
                sink(node_stack, edge_stack);
                emitted += 1;
            } else {
                counts.dropped += 1;
            }
            pop_walk(frames, node_stack, edge_stack, on_path);
            continue;
        }

        // Find the next out-edge whose head is not already on the walk.
        let mut advanced = false;
        while frame.next_edge < out_edges.len() {
            let e = out_edges[frame.next_edge];
            frame.next_edge += 1;
            let to = graph.edge(e).to;
            if on_path[to.index()] {
                continue;
            }
            frame.extended = true;
            node_stack.push(to);
            edge_stack.push(e);
            on_path[to.index()] = true;
            frames.push(Frame {
                node: to,
                next_edge: 0,
                extended: false,
            });
            advanced = true;
            break;
        }
        if advanced {
            continue;
        }

        // No extension possible. Emit if this walk never extended past
        // here (true sink, or pseudo-sink due to cycles/depth).
        let emit = !frames.last().expect("frame exists").extended;
        if emit {
            if emitted < budget {
                sink(node_stack, edge_stack);
                emitted += 1;
            } else {
                counts.dropped += 1;
                // Budget exhausted: unwind entirely.
                break;
            }
        }
        pop_walk(frames, node_stack, edge_stack, on_path);
    }
    counts.paths += emitted;
    // The budget break leaves frames on the stack: unset only the nodes
    // this walk set.
    while !frames.is_empty() {
        pop_walk(frames, node_stack, edge_stack, on_path);
    }
}

fn pop_walk(
    frames: &mut Vec<Frame>,
    node_stack: &mut Vec<NodeId>,
    edge_stack: &mut Vec<EdgeId>,
    on_path: &mut [bool],
) {
    if let Some(frame) = frames.pop() {
        on_path[frame.node.index()] = false;
        node_stack.pop();
        edge_stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Term;

    fn graph_from(triples: &[(&str, &str, &str)]) -> Graph {
        let mut b = rdf_model::DataGraph::builder();
        for &(s, p, o) in triples {
            b.triple_str(s, p, o).unwrap();
        }
        b.build().as_graph().clone()
    }

    fn rendered(graph: &Graph, extraction: &Extraction) -> Vec<String> {
        let mut v: Vec<String> = extraction
            .paths
            .iter()
            .map(|p| p.display(graph).to_string())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn chain_yields_one_path() {
        let g = graph_from(&[("a", "p", "b"), ("b", "q", "c")]);
        let ex = extract_paths(&g, &ExtractionConfig::default());
        assert_eq!(rendered(&g, &ex), vec!["a-p-b-q-c"]);
        assert!(!ex.is_truncated());
    }

    #[test]
    fn diamond_yields_two_paths() {
        let g = graph_from(&[
            ("a", "p", "b"),
            ("a", "p", "c"),
            ("b", "q", "d"),
            ("c", "q", "d"),
        ]);
        let ex = extract_paths(&g, &ExtractionConfig::default());
        assert_eq!(rendered(&g, &ex), vec!["a-p-b-q-d", "a-p-c-q-d"]);
    }

    #[test]
    fn isolated_node_is_single_path() {
        let mut g = Graph::new();
        g.add_node(&Term::iri("solo")).unwrap();
        let ex = extract_paths(&g, &ExtractionConfig::default());
        assert_eq!(ex.paths.len(), 1);
        assert_eq!(ex.paths[0].len(), 1);
    }

    #[test]
    fn every_path_runs_source_to_sink() {
        let g = graph_from(&[
            ("a", "p", "b"),
            ("b", "p", "c"),
            ("x", "p", "b"),
            ("b", "p", "y"),
        ]);
        let ex = extract_paths(&g, &ExtractionConfig::default());
        for p in &ex.paths {
            assert_eq!(g.in_degree(p.source()), 0, "path starts at a source");
            assert_eq!(g.out_degree(p.sink()), 0, "path ends at a sink");
        }
        assert_eq!(ex.paths.len(), 4); // {a,x} × {c,y}
    }

    #[test]
    fn cycle_uses_hub_and_terminates() {
        // Pure cycle a→b→c→a: hubs are all three; walks stop when they
        // would re-enter the path.
        let g = graph_from(&[("a", "p", "b"), ("b", "p", "c"), ("c", "p", "a")]);
        let ex = extract_paths(&g, &ExtractionConfig::default());
        assert_eq!(ex.paths.len(), 3);
        for p in &ex.paths {
            assert_eq!(p.len(), 3); // each walks the whole cycle once
        }
    }

    #[test]
    fn self_loop_terminates() {
        let g = graph_from(&[("a", "p", "a"), ("a", "q", "b")]);
        let ex = extract_paths(&g, &ExtractionConfig::default());
        // Hub is a (out 2, in 1): paths a-q-b only (self-loop unusable).
        assert_eq!(rendered(&g, &ex), vec!["a-q-b"]);
    }

    #[test]
    fn depth_limit_counts_truncations() {
        let g = graph_from(&[("a", "p", "b"), ("b", "p", "c"), ("c", "p", "d")]);
        let cfg = ExtractionConfig {
            max_depth: 2,
            ..Default::default()
        };
        let ex = extract_paths(&g, &cfg);
        assert!(ex.depth_truncated > 0);
        assert!(ex.paths.iter().all(|p| p.len() <= 2));
    }

    #[test]
    fn per_source_budget_drops() {
        // Source with 4 branches, budget 2.
        let g = graph_from(&[
            ("a", "p", "b1"),
            ("a", "p", "b2"),
            ("a", "p", "b3"),
            ("a", "p", "b4"),
        ]);
        let cfg = ExtractionConfig {
            max_paths_per_source: 2,
            ..Default::default()
        };
        let ex = extract_paths(&g, &cfg);
        assert_eq!(ex.paths.len(), 2);
        assert!(ex.dropped > 0);
    }

    #[test]
    fn a_walk_cut_by_its_budget_leaves_no_node_on_the_next_walk() {
        // `a`'s budget runs out with `a → y` still on the walk; `b`'s
        // walk must still reach `y`.
        let g = graph_from(&[("a", "p", "x"), ("a", "p", "y"), ("b", "q", "y")]);
        let cfg = ExtractionConfig {
            max_paths_per_source: 1,
            ..Default::default()
        };
        let ex = extract_paths(&g, &cfg);
        assert_eq!(ex.dropped, 1);
        assert_eq!(rendered(&g, &ex), vec!["a-p-x", "b-q-y"]);
    }

    #[test]
    fn total_budget_respected() {
        let g = graph_from(&[("a", "p", "b"), ("c", "p", "d"), ("e", "p", "f")]);
        let cfg = ExtractionConfig {
            max_total_paths: 2,
            ..Default::default()
        };
        let ex = extract_paths(&g, &cfg);
        assert_eq!(ex.paths.len(), 2);
        assert!(ex.dropped > 0);
    }

    #[test]
    fn branching_fanout_counts() {
        // Binary tree of depth 3 → 4 root-to-leaf paths.
        let g = graph_from(&[
            ("r", "l", "a"),
            ("r", "r", "b"),
            ("a", "l", "a1"),
            ("a", "r", "a2"),
            ("b", "l", "b1"),
            ("b", "r", "b2"),
        ]);
        let ex = extract_paths(&g, &ExtractionConfig::default());
        assert_eq!(ex.paths.len(), 4);
    }
}
