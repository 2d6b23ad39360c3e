//! The shared fixture: one generated LUBM dataset taken through the
//! same steps `sama index` takes (N-Triples text → parse → graph →
//! path index → `SAMAIDX2` bytes → file) and opened the way the server
//! opens it (`MappedIndex::open`), each step timed.

use crate::interrupted;
use datasets::lubm::{generate, LubmConfig};
use datasets::LubmDataset;
use path_index::{encode_v2, IndexLike, MappedIndex, PathIndex};
use rdf_model::{parse_ntriples, to_ntriples, DataGraph, Triple};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// A scratch directory inside the output directory, removed when
/// dropped — on return, on `?`, and while a panic unwinds. SIGINT is
/// turned into an error return by [`crate::interrupted`], so it takes
/// the same road.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Create `<out>/work/<pid>-<n>`, first sweeping away directories
    /// left by ledger processes that no longer exist (SIGKILL leaves no
    /// chance to clean up).
    pub fn create(out: &Path) -> Result<WorkDir, String> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let root = out.join("work");
        std::fs::create_dir_all(&root).map_err(|e| format!("cannot create {root:?}: {e}"))?;
        for entry in std::fs::read_dir(&root).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let owner = name.to_string_lossy();
            let pid = owner.split('-').next().unwrap_or("");
            if !pid.is_empty() && !Path::new("/proc").join(pid).exists() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let path = root.join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
        Ok(WorkDir { path })
    }

    /// A file path inside it.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Seconds each fixture step took. The layer steps are calls into the
/// public functions `sama index` itself makes.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimes {
    /// `datasets::lubm::generate` plus rendering it as N-Triples text
    /// (input generation, no layer of the system).
    pub generate_s: f64,
    /// `rdf_model::parse_ntriples`.
    pub parse_ntriples_s: f64,
    /// `DataGraph::from_triples`.
    pub graph_s: f64,
    /// `PathIndex::build` (extraction included).
    pub build_s: f64,
    /// `path_index::encode_v2`.
    pub encode_s: f64,
    /// Writing the index file.
    pub write_s: f64,
    /// `MappedIndex::open` plus the lazy `data()` materialisation the
    /// first query would otherwise pay.
    pub open_s: f64,
}

/// The serving configuration: a validated mmap of the index file.
pub struct MappedFixture {
    /// The generated dataset (entity registries for query construction).
    pub dataset: LubmDataset,
    /// The dataset as N-Triples text — what `sama index` is fed.
    pub ntriples: String,
    /// The `SAMAIDX2` file.
    pub index_path: PathBuf,
    /// The file's bytes (what `sama index` must reproduce).
    pub index_bytes: Vec<u8>,
    /// The mapped index.
    pub index: MappedIndex,
    /// Triples in the data graph.
    pub triples: usize,
    /// Indexed paths.
    pub paths: usize,
    /// Per-step times.
    pub steps: StepTimes,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot = start.elapsed().as_secs_f64();
    out
}

/// generate → N-Triples → parse → graph → build → `encode_v2` → file →
/// `MappedIndex::open`, each step timed. The file lands in `dir`.
pub fn fixture_mapped(scale: usize, seed: u64, dir: &WorkDir) -> Result<MappedFixture, String> {
    let mut steps = StepTimes::default();
    let (dataset, ntriples) = timed(&mut steps.generate_s, || {
        let dataset = generate(&LubmConfig::sized_for(scale, seed));
        let triples: Vec<Triple> = dataset.graph.triples().collect();
        let text = to_ntriples(&triples);
        (dataset, text)
    });
    interrupted()?;
    let parsed = timed(&mut steps.parse_ntriples_s, || parse_ntriples(&ntriples))
        .map_err(|e| format!("generated N-Triples do not parse: {e}"))?;
    let data = timed(&mut steps.graph_s, || DataGraph::from_triples(&parsed))
        .map_err(|e| format!("generated triples are not a data graph: {e}"))?;
    let triples = data.edge_count();
    let built = timed(&mut steps.build_s, || PathIndex::build(data));
    interrupted()?;
    let index_bytes = timed(&mut steps.encode_s, || encode_v2(&built))
        .map_err(|e| format!("cannot encode the index: {e}"))?;
    let index_path = dir.file("index.bin");
    timed(&mut steps.write_s, || {
        std::fs::write(&index_path, &index_bytes)
    })
    .map_err(|e| format!("cannot write {index_path:?}: {e}"))?;
    drop(built);
    let index = timed(&mut steps.open_s, || {
        MappedIndex::open(&index_path).inspect(|m| {
            m.data();
        })
    })
    .map_err(|e| format!("cannot map {index_path:?}: {e}"))?;
    Ok(MappedFixture {
        dataset,
        ntriples,
        index_path,
        index_bytes,
        paths: index.total_paths(),
        index,
        triples,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workdir_is_removed_on_drop_and_on_panic() {
        let out = std::env::temp_dir().join(format!("ledger-fixture-test-{}", std::process::id()));
        let kept = {
            let dir = WorkDir::create(&out).unwrap();
            std::fs::write(dir.file("x"), b"x").unwrap();
            dir.path.clone()
        };
        assert!(!kept.exists());
        let out2 = out.clone();
        let seen = std::sync::Arc::new(std::sync::Mutex::new(PathBuf::new()));
        let seen2 = seen.clone();
        let result = std::thread::spawn(move || {
            let dir = WorkDir::create(&out2).unwrap();
            *seen2.lock().unwrap() = dir.path.clone();
            panic!("unwinding must still clean up");
        })
        .join();
        assert!(result.is_err());
        assert!(!seen.lock().unwrap().exists());
        // A directory left by a dead process is swept by the next create.
        let stale = out.join("work").join("4194399-0");
        std::fs::create_dir_all(&stale).unwrap();
        let _dir = WorkDir::create(&out).unwrap();
        assert!(!stale.exists());
        drop(_dir);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn mapped_fixture_serves_the_encoded_bytes() {
        let out = std::env::temp_dir().join(format!("ledger-fixture-test2-{}", std::process::id()));
        let dir = WorkDir::create(&out).unwrap();
        let fx = fixture_mapped(2_000, 42, &dir).unwrap();
        assert!(fx.index.is_mapped());
        assert_eq!(std::fs::read(&fx.index_path).unwrap(), fx.index_bytes);
        assert_eq!(fx.triples, fx.dataset.graph.edge_count());
        assert!(fx.paths > 0);
        assert!(fx.steps.build_s > 0.0 && fx.steps.open_s > 0.0);
        drop(fx);
        drop(dir);
        let _ = std::fs::remove_dir_all(&out);
    }
}
