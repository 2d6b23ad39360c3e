//! Phase-stack profiler: attribute wall-clock time to *stacks of
//! phases*, not just flat per-phase histograms.
//!
//! The pipeline already brackets every phase with a [`crate::span!`]
//! guard. When profiling is [enabled](set_profiling), each span also
//! pushes its name onto a per-thread **phase stack** on entry and pops
//! it on drop, accumulating two durations per distinct stack *path*
//! (`query.cluster_ns;cluster.align_ns`):
//!
//! * **total** — the span's full elapsed time (equals the sum the
//!   histogram of the same name receives, measured from the very same
//!   `Instant` pair), and
//! * **self** — total minus the time spent in child spans, which is
//!   what a flamegraph renders.
//!
//! The accumulated table exports as [folded flamegraph
//! lines](folded) (`parent;child self_ns`), the format
//! `inferno`/`flamegraph.pl` and speedscope ingest directly.
//!
//! ## Semantics and cost
//!
//! * Stacks are **per thread**: spans opened on a worker thread (the
//!   batch pool) form their own root — attribution stays
//!   correct, it just isn't stitched under the coordinating span.
//! * Non-LIFO teardown (a span outliving its parent) is handled
//!   defensively: orphaned frames are discarded without recording
//!   rather than corrupting sibling paths.
//! * When profiling is off (the default) the only cost added to a span
//!   is one relaxed atomic load. When on, each span pop takes a short
//!   global mutex — spans bracket *phases* (a handful per query), never
//!   per-expansion work, so this stays far below the <2% budget.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

static PROFILING: AtomicBool = AtomicBool::new(false);

/// `true` while the phase-stack profiler is collecting (off until
/// [`set_profiling`], which the CLI's `--profile-out` calls).
#[inline]
pub fn profiling() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Arm or disarm the phase-stack profiler process-wide. Spans entered
/// while disarmed never record, even if collection is armed before
/// they drop.
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

/// Accumulated timings of one distinct stack path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStat {
    /// Sum of full span durations observed at this path.
    pub total_ns: u64,
    /// Sum of durations minus time spent in child spans — the folded
    /// flamegraph sample value.
    pub self_ns: u64,
    /// Spans that completed at this path.
    pub count: u64,
}

struct Frame {
    /// Full `;`-joined path from the thread's root span to this frame.
    path: String,
    /// Nanoseconds already attributed to completed child spans.
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

fn table() -> &'static Mutex<BTreeMap<String, PathStat>> {
    static TABLE: OnceLock<Mutex<BTreeMap<String, PathStat>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// A handle returned by [`push`]; hand it back to [`pop`] with the
/// span's elapsed time. Carries the stack depth so a non-LIFO teardown
/// cannot pop someone else's frame.
#[derive(Debug, Clone, Copy)]
pub struct FrameToken {
    depth: usize,
}

/// Push `name` onto this thread's phase stack. Returns `None` (record
/// nothing on pop) while profiling is disarmed.
pub fn push(name: &str) -> Option<FrameToken> {
    if !profiling() {
        return None;
    }
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => {
                let mut p = String::with_capacity(parent.path.len() + name.len() + 1);
                p.push_str(&parent.path);
                p.push(';');
                p.push_str(name);
                p
            }
            None => name.to_string(),
        };
        let depth = stack.len();
        stack.push(Frame { path, child_ns: 0 });
        Some(FrameToken { depth })
    })
}

/// Pop the frame `token` opened and credit it `elapsed_ns`: its path
/// accumulates `total += elapsed`, `self += elapsed - child time`, and
/// the parent frame's child time grows by `elapsed`.
pub fn pop(token: FrameToken, elapsed_ns: u64) {
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        // Discard any frames a non-LIFO teardown left above this one;
        // their own pops will then find the stack too short and no-op.
        while stack.len() > token.depth + 1 {
            stack.pop();
        }
        if stack.len() != token.depth + 1 {
            return;
        }
        let frame = stack.pop().expect("stack has depth + 1 frames");
        let self_ns = elapsed_ns.saturating_sub(frame.child_ns);
        if let Some(parent) = stack.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(elapsed_ns);
        }
        let mut table = table().lock().unwrap_or_else(|e| e.into_inner());
        let stat = table.entry(frame.path).or_default();
        stat.total_ns = stat.total_ns.saturating_add(elapsed_ns);
        stat.self_ns = stat.self_ns.saturating_add(self_ns);
        stat.count += 1;
    });
}

/// A copy of the accumulated profile table: stack path → [`PathStat`].
pub fn stats() -> BTreeMap<String, PathStat> {
    table().lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Drop everything accumulated so far (the CLI resets between warmup
/// and the measured runs).
pub fn reset() {
    table().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Render the profile as folded flamegraph lines — one
/// `root;child;leaf <self_ns>` line per stack path, sorted by path.
/// Feed the output to `flamegraph.pl`, `inferno-flamegraph`, or
/// speedscope as-is.
pub fn folded() -> String {
    let mut out = String::new();
    for (path, stat) in stats() {
        let _ = writeln!(out, "{path} {}", stat.self_ns);
    }
    out
}

/// Sum of [`PathStat::total_ns`] over every path whose *leaf* frame is
/// `name` — comparable to the `sum` of the histogram `name`, since
/// both are fed from the same elapsed measurement of the same spans.
pub fn total_ns_of(name: &str) -> u64 {
    stats()
        .iter()
        .filter(|(path, _)| path.rsplit(';').next().is_some_and(|leaf| leaf == name))
        .map(|(_, stat)| stat.total_ns)
        .sum()
}

/// Serialize profiler unit tests: they share the global table and the
/// process-wide arm flag.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        test_lock()
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _g = lock();
        set_profiling(false);
        reset();
        assert!(push("a").is_none());
        assert!(stats().is_empty());
        assert!(folded().is_empty());
    }

    #[test]
    fn nested_frames_accumulate_self_and_total() {
        let _g = lock();
        set_profiling(true);
        reset();
        let outer = push("outer").expect("armed");
        let inner = push("inner").expect("armed");
        pop(inner, 300);
        pop(outer, 1_000);
        set_profiling(false);

        let stats = stats();
        assert_eq!(stats["outer"].total_ns, 1_000);
        assert_eq!(stats["outer"].self_ns, 700, "child time subtracted");
        assert_eq!(stats["outer;inner"].total_ns, 300);
        assert_eq!(stats["outer;inner"].self_ns, 300);
        assert_eq!(stats["outer;inner"].count, 1);
        assert_eq!(total_ns_of("inner"), 300);
        assert_eq!(total_ns_of("outer"), 1_000);

        let folded = folded();
        assert!(folded.contains("outer 700\n"));
        assert!(folded.contains("outer;inner 300\n"));
    }

    #[test]
    fn sibling_frames_share_the_parent_path() {
        let _g = lock();
        set_profiling(true);
        reset();
        let root = push("root").unwrap();
        let a = push("a").unwrap();
        pop(a, 100);
        let b = push("a").unwrap(); // same name, second visit
        pop(b, 50);
        pop(root, 400);
        set_profiling(false);

        let stats = stats();
        assert_eq!(stats["root;a"].count, 2);
        assert_eq!(stats["root;a"].total_ns, 150);
        assert_eq!(stats["root"].self_ns, 250);
    }

    #[test]
    fn non_lifo_teardown_discards_orphans_without_corruption() {
        let _g = lock();
        set_profiling(true);
        reset();
        let outer = push("outer").unwrap();
        let _leaked = push("leaked").unwrap();
        // The outer span drops first; the leaked child is discarded.
        pop(outer, 500);
        // The leaked frame's own pop is now a no-op.
        pop(_leaked, 100);
        set_profiling(false);

        let stats = stats();
        assert_eq!(stats["outer"].total_ns, 500);
        assert!(!stats.contains_key("outer;leaked"));
    }

    #[test]
    fn threads_have_independent_stacks() {
        let _g = lock();
        set_profiling(true);
        reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let t = push("worker").unwrap();
                    pop(t, 10);
                });
            }
        });
        set_profiling(false);
        // Worker frames are roots of their own threads, never nested
        // under another thread's frames.
        let stats = stats();
        assert_eq!(stats["worker"].count, 4);
        assert_eq!(stats.len(), 1);
    }
}
