//! Threads that resolve constants across the scan → table threshold of
//! one [`MappedIndex`] get the answers the vocabulary gives, and the
//! index builds its constant table once. The build is counted by the
//! `index.constant_table_ns` histogram, so this file holds one test: no
//! other test of this binary may build a table meanwhile.

use path_index::v2::CONSTANT_SCANS;
use path_index::{encode_v2, IndexLike, MappedIndex, PathIndex};
use rdf_model::DataGraph;
use sama_obs::metrics::INDEX_CONSTANT_TABLE_NS;
use std::sync::Barrier;

#[test]
fn threads_across_the_threshold_agree_and_build_one_table() {
    // Enough labels that a table build takes long enough for the
    // threads below to race into it.
    let mut b = DataGraph::builder();
    for i in 0..4_000 {
        b.triple_str(&format!("s{i}"), "p", &format!("\"o{i}\""))
            .unwrap();
    }
    for (s, p, o) in [
        ("a", "p", "b"),
        ("b", "q", "\"b\""),
        ("_:b", "p", "a"),
        ("c", "q", "\"é\""),
    ] {
        b.triple_str(s, p, o).unwrap();
    }
    let idx = PathIndex::build(b.build());
    let vocab = idx.graph().vocab().clone();
    let mapped = MappedIndex::from_bytes(&encode_v2(&idx).unwrap()).unwrap();
    let probes = [
        "a", "b", "\u{e9}", "p", "absent", "", "q", "c", "s17", "o17",
    ];
    let expected: Vec<_> = probes.iter().map(|p| vocab.get_constant(p)).collect();
    let built = || INDEX_CONSTANT_TABLE_NS.snapshot().count();
    let before = built();

    // The first CONSTANT_SCANS lookups scan.
    for i in 0..CONSTANT_SCANS {
        let at = i % probes.len();
        assert_eq!(mapped.constant_label(probes[at]), expected[at]);
    }
    assert_eq!(built() - before, 0);

    // Every thread's first lookup is past the threshold.
    let start = Barrier::new(4);
    let answers: Vec<Vec<_>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    probes
                        .iter()
                        .map(|p| mapped.constant_label(p))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for answer in &answers {
        assert_eq!(answer, &expected);
    }
    assert_eq!(built() - before, 1);
}
