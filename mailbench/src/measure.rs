//! Process-level measurement: a counting global allocator, peak resident
//! set, and the order statistics the benchmark reports.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use lems_sim::stats::LogHistogram;

/// The system allocator with an allocation counter that can be switched on
/// around the phase being measured. Counting is off by default, so untraced
/// runs pay one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// `Relaxed` throughout: the three atomics are statistics that publish no
// other data, and the benchmark is single-threaded.
fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's guarantees; the
// counting touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and bytes requested while counting was on.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocCount {
    pub count: u64,
    pub bytes: u64,
}

impl AllocCount {
    pub fn absorb(&mut self, later: AllocCount) {
        self.count += later.count;
        self.bytes += later.bytes;
    }
}

/// Counts the allocations `f` makes (reallocations count once, at their new
/// size).
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    let count = AllocCount {
        count: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    };
    (out, count)
}

#[repr(C)]
struct Timeval {
    sec: std::ffi::c_long,
    usec: std::ffi::c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen longs
/// of which `ru_maxrss` is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: std::ffi::c_long,
    rest: [std::ffi::c_long; 13],
}

extern "C" {
    fn getrusage(who: std::ffi::c_int, usage: *mut Rusage) -> std::ffi::c_int;
}

/// Peak resident set of this process so far, in MiB (`ru_maxrss`, which
/// Linux reports in KiB).
pub fn peak_rss_mib() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C layout
    // and `RUSAGE_SELF` (0) is a valid selector; getrusage writes only
    // within the struct.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.maxrss as f64 / 1024.0
}

/// Median of `xs` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = (n + 1) as f64;
    let at = |i: usize| {
        let pos = i as f64 * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Quantile `q` of a log-bucketed histogram, interpolated linearly by rank
/// inside the bucket that holds it. `LogHistogram::quantile` reports the
/// bucket's upper edge, which moves in 19% steps and so cannot show a change
/// smaller than one bucket.
pub fn histogram_quantile(h: &LogHistogram, q: f64) -> f64 {
    let target = q * h.count() as f64;
    let mut seen = 0.0;
    for (i, &c) in h.bins().iter().enumerate() {
        if c == 0 {
            continue;
        }
        let c = c as f64;
        if seen + c >= target {
            let lo = if i == 0 { 0.0 } else { h.bucket_edge(i - 1) };
            let hi = h.bucket_edge(i);
            return lo + (hi - lo) * ((target - seen) / c).clamp(0.0, 1.0);
        }
        seen += c;
    }
    h.max().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
    }

    #[test]
    fn histogram_quantile_stays_inside_the_bucket() {
        let mut h = LogHistogram::latency();
        for x in [1.0, 1.1, 1.2, 5.0] {
            h.observe(x);
        }
        let p50 = histogram_quantile(&h, 0.5);
        assert!(p50 > 0.9 && p50 <= 1.5, "{p50}");
        assert!(histogram_quantile(&h, 1.0) >= 5.0);
    }
}
