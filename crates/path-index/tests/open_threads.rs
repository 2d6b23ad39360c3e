//! No thread outlives an open. The validation pass runs half of its
//! checks on a scoped helper thread, joined before the pass returns, so
//! the process holds as many threads after `MappedIndex::open` and
//! `MappedIndex::from_bytes` as before. The count is process-wide, so
//! this binary holds one test. A helper left running (detached, or
//! parked on a lock) keeps the count up and fails it.

use path_index::{encode_v2, MappedIndex, PathIndex};
use rdf_model::DataGraph;

/// The `Threads:` line of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line")
        .trim()
        .parse()
        .unwrap()
}

/// The `Threads:` count once it reads `want`, or its last read after
/// 100 ms. A join returns once the joined thread has cleared its thread
/// id, a few microseconds before the kernel drops it from the count: 4
/// reads in 20 000 opens, taken right after the open returned, still
/// counted the helper.
#[cfg(target_os = "linux")]
fn threads_settling_at(want: usize) -> usize {
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(100);
    loop {
        let now = threads();
        if now == want || std::time::Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

#[cfg(target_os = "linux")]
#[test]
fn an_open_leaves_the_thread_count_as_it_found_it() {
    let mut b = DataGraph::builder();
    for i in 0..40 {
        b.triple_str(&format!("s{i}"), "p", &format!("m{}", i % 7))
            .unwrap();
        b.triple_str(&format!("m{}", i % 7), "q", &format!("\"leaf {}\"", i % 3))
            .unwrap();
    }
    let bytes = encode_v2(&PathIndex::build(b.build())).unwrap();
    let path = std::env::temp_dir().join(format!("open-threads-{}.idx", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();

    let before = threads();
    let mapped = MappedIndex::open(&path).unwrap();
    let after_open = threads_settling_at(before);
    let owned = MappedIndex::from_bytes(&bytes).unwrap();
    let after_from_bytes = threads_settling_at(before);
    std::fs::remove_file(&path).unwrap();

    assert!(mapped.is_mapped());
    assert_eq!(mapped.view().path_count(), owned.view().path_count());
    assert_eq!(after_open, before, "threads after MappedIndex::open");
    assert_eq!(
        after_from_bytes, before,
        "threads after MappedIndex::from_bytes"
    );
}
