//! Rolling time-windowed histograms: *current* latency, not lifetime
//! averages.
//!
//! The plain [`crate::Histogram`] accumulates forever — after an hour
//! of traffic its p95 barely moves when the last minute degrades. A
//! [`RollingHistogram`] keeps the same log2 buckets in a ring of
//! one-second **slices** and answers quantile queries over the sliding
//! trailing windows operators actually watch: **10s / 1m / 5m**.
//!
//! ## Mechanics
//!
//! The ring holds [`SLICES`] slices (enough to cover the longest
//! window with slack). Each slice carries the absolute second it
//! currently represents; a recorder landing on a slice stamped with a
//! *stale* second zeroes it first, so expiry needs no sweeper thread.
//! A snapshot merges every slice whose stamp falls inside the
//! requested window into one [`HistogramSnapshot`], from which
//! p50/p95/p99 resolve exactly like the lifetime histograms.
//!
//! Recording is the same two relaxed `fetch_add`s as a plain
//! histogram plus one stamp check; the structure is written once per
//! *query*, never inside hot loops. Recycling a slice is claimed by one
//! writer, which swaps the stale stamp for a "resetting" sentinel,
//! zeroes the slice and then publishes the new stamp; writers of the
//! same second wait for that stamp before they add, so no recorded
//! sample is zeroed by a racing writer. Readers never wait: a scrape
//! skips a slice being reset, and one racing the zeroing can observe a
//! partially zeroed slice — for second-granularity operational
//! quantiles an accepted imprecision.
//!
//! Time is measured as whole seconds since process start (a monotonic
//! [`Instant`]), so the structure never consults the wall clock and is
//! immune to clock steps.

use crate::enabled;
use crate::metrics::{bucket_index, duration_ns, HistogramSnapshot, BUCKET_COUNT};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The trailing windows every [`RollingHistogram`] answers for, in
/// seconds, paired with the label the exporters use.
pub const WINDOWS: [(&str, u64); 3] = [("10s", 10), ("1m", 60), ("5m", 300)];

/// Ring length: 6 minutes of one-second slices — the longest window
/// (5m) plus a minute of slack so a reader never races the slice about
/// to be recycled for the *current* second.
pub const SLICES: usize = 360;

/// The stamp of a slice one writer is zeroing for a new second.
const RESETTING: u64 = u64::MAX;

struct Slice {
    /// `second + 1` of the data this slice holds; `0` = never written,
    /// [`RESETTING`] = being recycled.
    stamp: AtomicU64,
    buckets: [AtomicU64; BUCKET_COUNT],
    sum: AtomicU64,
}

impl Slice {
    const fn empty() -> Self {
        Slice {
            stamp: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKET_COUNT],
            sum: AtomicU64::new(0),
        }
    }

    /// Make this slice hold second `stamp - 1`: return once its stamp
    /// reads `stamp`. A writer that finds another stamp claims the
    /// slice by swapping that stamp for [`RESETTING`], zeroes it and
    /// publishes `stamp` with a `Release` store; every other writer
    /// waits until its `Acquire` load reads that store, so its add
    /// lands after the zeroing, never before it.
    fn claim(&self, stamp: u64) {
        loop {
            match self.stamp.load(Ordering::Acquire) {
                seen if seen == stamp => return,
                RESETTING => std::hint::spin_loop(),
                stale => {
                    let claimed = self.stamp.compare_exchange(
                        stale,
                        RESETTING,
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    );
                    if claimed.is_ok() {
                        for b in &self.buckets {
                            b.store(0, Ordering::Relaxed);
                        }
                        self.sum.store(0, Ordering::Relaxed);
                        self.stamp.store(stamp, Ordering::Release);
                        return;
                    }
                }
            }
        }
    }
}

/// Seconds elapsed since the process-wide monotonic epoch.
pub(crate) fn now_secs() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs()
}

/// A log2-bucketed histogram over a ring of one-second slices,
/// queryable for the sliding trailing windows in [`WINDOWS`]. The ring
/// is inline (≈190 KB), so a rolling histogram is a `static` of the
/// metric table, never a local.
pub struct RollingHistogram {
    /// Dotted name; the exporters append `_p50`… to it.
    pub name: &'static str,
    /// One-line description.
    pub help: &'static str,
    slices: [Slice; SLICES],
}

impl std::fmt::Debug for RollingHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RollingHistogram")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl RollingHistogram {
    /// An empty rolling histogram.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        RollingHistogram {
            name,
            help,
            slices: [const { Slice::empty() }; SLICES],
        }
    }

    /// Record a duration (as saturating nanoseconds) at the current
    /// second (no-op while disabled).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        if enabled() {
            self.record_at(duration_ns(d), now_secs());
        }
    }

    /// Record one sample at `second`, whether or not recording is
    /// enabled — for tests and deterministic replays. `second` must be
    /// monotonically non-decreasing across calls for windows to mean
    /// anything, and below `u64::MAX - 1` (a slice's stamp is
    /// `second + 1`, and `u64::MAX` marks one being reset).
    pub fn record_at(&self, value: u64, second: u64) {
        let slice = &self.slices[(second as usize) % SLICES];
        slice.claim(second + 1);
        slice.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        slice.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// The merged distribution of the trailing `window_secs` seconds
    /// before `now` (inclusive of second `now` itself).
    pub fn window_at(&self, window_secs: u64, now: u64) -> HistogramSnapshot {
        let oldest = now.saturating_sub(window_secs.saturating_sub(1));
        let mut merged = HistogramSnapshot::default();
        for slice in &self.slices {
            let stamp = slice.stamp.load(Ordering::Acquire);
            if stamp == 0 {
                continue;
            }
            let second = stamp - 1;
            if second < oldest || second > now {
                continue;
            }
            for (mine, theirs) in merged.buckets.iter_mut().zip(&slice.buckets) {
                *mine += theirs.load(Ordering::Relaxed);
            }
            merged.sum = merged.sum.saturating_add(slice.sum.load(Ordering::Relaxed));
        }
        merged
    }

    /// All three standard windows at once.
    pub fn windowed(&self) -> WindowedSnapshot {
        self.windowed_at(now_secs())
    }

    /// [`RollingHistogram::windowed`] with an explicit clock.
    pub fn windowed_at(&self, now: u64) -> WindowedSnapshot {
        WindowedSnapshot {
            windows: WINDOWS.map(|(label, secs)| (label, self.window_at(secs, now))),
        }
    }
}

/// A point-in-time copy of a [`RollingHistogram`]'s three standard
/// trailing windows, labeled per [`WINDOWS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedSnapshot {
    /// `(label, distribution)` per window, in [`WINDOWS`] order.
    pub windows: [(&'static str, HistogramSnapshot); 3],
}

impl WindowedSnapshot {
    /// Iterate `(label, distribution)` pairs, shortest window first.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &HistogramSnapshot)> {
        self.windows.iter().map(|(label, h)| (*label, h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_expire_out_of_short_windows_first() {
        static H: RollingHistogram = RollingHistogram::new("t.h1", "");
        let h = &H;
        h.record_at(1_000, 0);
        h.record_at(2_000, 5);
        h.record_at(4_000, 100);

        // At second 100: 10s window sees only the latest sample, the
        // 1m window the latest, the 5m window everything.
        assert_eq!(h.window_at(10, 100).count(), 1);
        assert_eq!(h.window_at(60, 100).count(), 1);
        assert_eq!(h.window_at(300, 100).count(), 3);
        assert_eq!(h.window_at(300, 100).sum, 7_000);

        // At second 399 the first two samples have left even the 5m
        // window (oldest covered second = 399 - 299 = 100).
        assert_eq!(h.window_at(300, 399).count(), 1);

        // Far in the future everything has expired.
        assert_eq!(h.window_at(300, 10_000).count(), 0);
    }

    #[test]
    fn window_includes_the_current_second() {
        static H: RollingHistogram = RollingHistogram::new("t.h2", "");
        let h = &H;
        h.record_at(7, 42);
        let w = h.window_at(10, 42);
        assert_eq!(w.count(), 1);
        assert_eq!(w.sum, 7);
        // A 1-second window is exactly the current second.
        assert_eq!(h.window_at(1, 42).count(), 1);
        assert_eq!(h.window_at(1, 43).count(), 0);
    }

    #[test]
    fn ring_recycling_drops_only_stale_slices() {
        static H: RollingHistogram = RollingHistogram::new("t.h3", "");
        let h = &H;
        h.record_at(1, 3);
        // A full ring later the same slot is recycled for the new
        // second; the stale sample must not resurface.
        h.record_at(9, 3 + SLICES as u64);
        let w = h.window_at(300, 3 + SLICES as u64);
        assert_eq!(w.count(), 1);
        assert_eq!(w.sum, 9);
    }

    #[test]
    fn quantiles_resolve_like_plain_histograms() {
        static H: RollingHistogram = RollingHistogram::new("t.h4", "");
        let h = &H;
        for v in [100u64, 200, 400, 800, 100_000] {
            h.record_at(v, 50);
        }
        let w = h.window_at(60, 50);
        assert_eq!(w.count(), 5);
        assert!(w.quantile(0.50) >= 200);
        assert!(w.quantile(0.99) >= 100_000);
        assert!(w.mean() > 0.0);
    }

    #[test]
    fn real_clock_record_is_visible_immediately() {
        static H: RollingHistogram = RollingHistogram::new("t.real_clock_ns", "");
        H.record_duration(Duration::from_nanos(5));
        assert_eq!(H.windowed().windows[0].1.count(), 1);
    }

    #[test]
    fn concurrent_recording_within_one_second_is_lossless() {
        static H: RollingHistogram = RollingHistogram::new("t.h5", "");
        let h = &H;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1_000u64 {
                        h.record_at(i, 9);
                    }
                });
            }
        });
        assert_eq!(h.window_at(10, 9).count(), 4_000);
    }
}
