//! Shared by the integration tests: a random-data strategy, and an
//! index the tests can watch — it delegates every read to the wrapped
//! index, counts the reads the pipeline's contracts are stated in, and
//! can cancel a budget at a known point of a cluster fill or of the
//! combination search.

#![allow(dead_code)] // each test target uses its own subset

use path_index::{IndexLike, LabelsRef, LshCandidate, LshParams, PathId, SynonymProvider};
use proptest::prelude::*;
use rdf_model::{DataGraph, EdgeId, LabelId, NodeId, Triple};
use sama_core::CancelToken;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Random ground triples over a small closed world, edges pointing from
/// lower to higher node ids so the extracted paths stay acyclic.
pub fn arb_dag_triples(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Vec<Triple>> {
    proptest::collection::vec((0..max_nodes, 0..max_nodes, 0usize..3), 1..=max_edges)
        .prop_map(|raw| {
            raw.into_iter()
                .filter_map(|(a, b, p)| {
                    let (lo, hi) = if a < b {
                        (a, b)
                    } else if b < a {
                        (b, a)
                    } else {
                        return None;
                    };
                    Some(Triple::parse(
                        &format!("n{lo}"),
                        &format!("p{p}"),
                        &format!("n{hi}"),
                    ))
                })
                .collect()
        })
        .prop_filter("at least one triple", |v: &Vec<Triple>| !v.is_empty())
}

pub struct Probe<I> {
    pub inner: I,
    /// `labels` calls so far: a fill reads a candidate's labels exactly
    /// once to score it, in candidate order.
    pub labels_calls: AtomicUsize,
    /// The path of every `labels` call, in call order: what a fill that
    /// fits its cap read, which is its candidate list.
    pub labels_read: Mutex<Vec<PathId>>,
    /// `token` is cancelled during this `labels` call (1-based), so a
    /// budget trips mid-cluster at a known candidate.
    pub trip_at: usize,
    pub token: Arc<CancelToken>,
    /// `token` is also cancelled during this `sorted_nodes` call
    /// (1-based). Only the combination search reads sorted node sets —
    /// two per χ lookup — so this trips a budget mid-search.
    pub trip_at_sorted_nodes: usize,
    pub sorted_nodes_calls: AtomicUsize,
    /// Sink lookups so far: one per fill of a query path with a
    /// constant sink.
    pub sink_lookups: AtomicUsize,
    /// How often each query constant was resolved into the data
    /// vocabulary, by lexical form.
    pub resolved: Mutex<BTreeMap<String, usize>>,
}

impl<I> Probe<I> {
    /// A probe that never cancels.
    pub fn new(inner: I) -> Self {
        Probe {
            inner,
            labels_calls: AtomicUsize::new(0),
            labels_read: Mutex::new(Vec::new()),
            trip_at: usize::MAX,
            token: CancelToken::new(),
            trip_at_sorted_nodes: usize::MAX,
            sorted_nodes_calls: AtomicUsize::new(0),
            sink_lookups: AtomicUsize::new(0),
            resolved: Mutex::new(BTreeMap::new()),
        }
    }
}

impl<I: IndexLike> IndexLike for Probe<I> {
    fn data(&self) -> &DataGraph {
        self.inner.data()
    }
    fn constant_label(&self, lexical: &str) -> Option<LabelId> {
        let mut resolved = self.resolved.lock().expect("no panic under the lock");
        *resolved.entry(lexical.to_string()).or_default() += 1;
        self.inner.constant_label(lexical)
    }
    fn total_paths(&self) -> usize {
        self.inner.total_paths()
    }
    fn path_nodes(&self, id: PathId) -> &[NodeId] {
        self.inner.path_nodes(id)
    }
    fn path_edges(&self, id: PathId) -> &[EdgeId] {
        self.inner.path_edges(id)
    }
    fn labels(&self, id: PathId) -> LabelsRef<'_> {
        if self.labels_calls.fetch_add(1, Ordering::SeqCst) + 1 == self.trip_at {
            self.token.cancel();
        }
        self.labels_read
            .lock()
            .expect("no panic under the lock")
            .push(id);
        self.inner.labels(id)
    }
    fn sorted_nodes(&self, id: PathId) -> &[NodeId] {
        if self.sorted_nodes_calls.fetch_add(1, Ordering::SeqCst) + 1 == self.trip_at_sorted_nodes {
            self.token.cancel();
        }
        self.inner.sorted_nodes(id)
    }
    fn path_shape(&self, id: PathId) -> u32 {
        self.inner.path_shape(id)
    }
    fn shape_count(&self) -> usize {
        self.inner.shape_count()
    }
    fn shape_edge_labels(&self, shape: u32) -> &[LabelId] {
        self.inner.shape_edge_labels(shape)
    }
    fn sink_matching(&self, lexical: &str, synonyms: &dyn SynonymProvider) -> Vec<PathId> {
        self.sink_lookups.fetch_add(1, Ordering::SeqCst);
        self.inner.sink_matching(lexical, synonyms)
    }
    fn label_matching(&self, lexical: &str, synonyms: &dyn SynonymProvider) -> Vec<PathId> {
        self.inner.label_matching(lexical, synonyms)
    }
    fn all_path_ids(&self) -> Vec<PathId> {
        self.inner.all_path_ids()
    }
    fn lsh_params(&self) -> Option<LshParams> {
        self.inner.lsh_params()
    }
    fn lsh_probe(&self, signature: &[u32]) -> Vec<LshCandidate> {
        self.inner.lsh_probe(signature)
    }
}
