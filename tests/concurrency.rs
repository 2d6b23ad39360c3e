//! Concurrency: the engine is an immutable index plus pure query
//! machinery, so concurrent queries from many threads must be safe and
//! agree with sequential execution.

use sama::data::{lubm, lubm_workload};
use sama::prelude::*;
use std::sync::Arc;

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn engine_is_send_and_sync() {
    assert_send_sync::<SamaEngine>();
    assert_send_sync::<MappedIndex>();
    assert_send_sync::<DataGraph>();
    assert_send_sync::<QueryGraph>();
}

#[test]
fn concurrent_queries_agree_with_sequential() {
    let ds = lubm::generate(&lubm::LubmConfig::sized_for(1_200, 5));
    let engine = Arc::new(SamaEngine::new(ds.graph.clone()));
    let workload = lubm_workload(&ds);

    // Sequential reference.
    let reference: Vec<Vec<f64>> = workload
        .iter()
        .map(|nq| {
            engine
                .answer(&nq.query, 5)
                .answers
                .iter()
                .map(|a| a.score())
                .collect()
        })
        .collect();

    // The same workload, one thread per query, twice over.
    std::thread::scope(|scope| {
        let handles: Vec<_> = workload
            .iter()
            .enumerate()
            .flat_map(|(i, nq)| {
                let engine = &engine;
                (0..2).map(move |_| {
                    let engine = Arc::clone(engine);
                    let query = nq.query.clone();
                    scope.spawn(move || {
                        let scores: Vec<f64> = engine
                            .answer(&query, 5)
                            .answers
                            .iter()
                            .map(|a| a.score())
                            .collect();
                        (i, scores)
                    })
                })
            })
            .collect();
        for handle in handles {
            let (i, scores) = handle.join().expect("query thread panicked");
            assert_eq!(scores, reference[i], "query {} diverged", i + 1);
        }
    });
}
