//! Counting global allocator for the memory-usage experiment (Figure 10a).
//!
//! The paper measures how much memory each queue consumes while running the
//! random-operations workload: LCRQ and YMC keep allocating rings/segments,
//! SCQ and wCQ stay at one statically allocated ring.  Instead of sampling the
//! process RSS (which depends on allocator/OS page behaviour), the harness
//! wraps the system allocator and counts live and peak heap bytes; the
//! figure-reproduction binaries install it with `#[global_allocator]`.
//!
//! The allocator keeps two sets of counters, and which one to read depends on
//! what shares the process with the measurement:
//!
//! * **Process-wide** — [`snapshot`], [`reset_peak`] and [`delta`].  Every
//!   thread's traffic lands here, so this is the whole-process figure: use it
//!   where one measurement owns the process (`fig10_memory`, `wcq-check`,
//!   `perfbench`) and its workers allocate on threads of their own.
//! * **Per-thread** — [`thread_snapshot`].  Only the calling thread's traffic
//!   lands here, so this is the counter for a measurement window inside a
//!   test binary, where libtest runs other tests (and their panics' backtrace
//!   symbolization) on threads beside it.  A window that spans worker threads
//!   sums each worker's [`ThreadMemSnapshot::since`] with the opening
//!   thread's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Add;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
static TOTAL_ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `const`-initialised `Cell`s of plain integers have no lazy
    // initialisation and no destructor, so touching them never allocates
    // (which would recurse into the allocator) and they stay readable for
    // the thread's whole life, teardown included.
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
    static THREAD_NET_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// Adds `bytes` (two's complement, so a free passes its negated size) to the
/// calling thread's net-bytes counter.  `try_with` rather than `with`: an
/// allocator must never panic, not even if thread-local storage is gone.
fn thread_add_bytes(bytes: isize) {
    let _ = THREAD_NET_BYTES.try_with(|c| c.set(c.get().wrapping_add(bytes)));
}

/// A `GlobalAlloc` wrapper around the system allocator that tracks live bytes,
/// peak live bytes, and the total number of allocations, process-wide and per
/// thread.
pub struct CountingAllocator;

// SAFETY: defers every allocation to `System` and only adds counter updates
// (atomics and non-allocating thread-locals) around it.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            TOTAL_ALLOCS.fetch_add(1, SeqCst);
            let live = LIVE_BYTES.fetch_add(layout.size(), SeqCst) + layout.size();
            PEAK_BYTES.fetch_max(live, SeqCst);
            let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
            // `Layout` caps sizes at `isize::MAX`, so the casts are lossless.
            thread_add_bytes(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), SeqCst);
        thread_add_bytes((layout.size() as isize).wrapping_neg());
        // SAFETY: forwarded verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// A snapshot of the allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Bytes currently allocated and not yet freed.
    pub live_bytes: usize,
    /// Highest value `live_bytes` ever reached.
    pub peak_bytes: usize,
    /// Number of allocations performed so far.
    pub total_allocs: usize,
}

/// Reads the current process-wide counters.
pub fn snapshot() -> MemSnapshot {
    MemSnapshot {
        live_bytes: LIVE_BYTES.load(SeqCst),
        peak_bytes: PEAK_BYTES.load(SeqCst),
        total_allocs: TOTAL_ALLOCS.load(SeqCst),
    }
}

/// Resets the peak to the current live value (call between measurement
/// phases).
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(SeqCst), SeqCst);
}

/// Difference in live/peak bytes between two snapshots (saturating).
pub fn delta(before: MemSnapshot, after: MemSnapshot) -> MemSnapshot {
    MemSnapshot {
        live_bytes: after.live_bytes.saturating_sub(before.live_bytes),
        peak_bytes: after.peak_bytes.saturating_sub(before.live_bytes),
        total_allocs: after.total_allocs.saturating_sub(before.total_allocs),
    }
}

/// One thread's allocation counters, or (after [`since`](Self::since)) the
/// traffic of one thread over a window.
///
/// `net_bytes` is signed on purpose.  A free is charged to the thread that
/// performs it, whichever thread allocated the block, so a thread that frees
/// memory another thread allocated goes negative, and the allocating thread
/// keeps the bytes as growth.  Nothing saturates: a thread's cross-thread
/// frees never clamp away growth it makes later, and summing the windows of
/// every thread that took part gives the window's exact net heap change.  A
/// block allocated inside the window and freed by a thread outside the sum
/// still counts as growth, so the error only ever overstates it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadMemSnapshot {
    /// Allocations this thread has made.
    pub allocs: usize,
    /// Bytes this thread has allocated minus the bytes it has freed.
    pub net_bytes: isize,
}

impl ThreadMemSnapshot {
    /// The traffic between `before` and `self`, both read on the same thread.
    pub fn since(self, before: ThreadMemSnapshot) -> ThreadMemSnapshot {
        ThreadMemSnapshot {
            allocs: self.allocs.wrapping_sub(before.allocs),
            net_bytes: self.net_bytes.wrapping_sub(before.net_bytes),
        }
    }
}

/// Sums two threads' windows into the window that spans both.
impl Add for ThreadMemSnapshot {
    type Output = ThreadMemSnapshot;

    fn add(self, other: ThreadMemSnapshot) -> ThreadMemSnapshot {
        ThreadMemSnapshot {
            allocs: self.allocs.wrapping_add(other.allocs),
            net_bytes: self.net_bytes.wrapping_add(other.net_bytes),
        }
    }
}

/// Reads the calling thread's counters.  They move only while
/// [`CountingAllocator`] is the global allocator, and only for this thread's
/// own allocations and frees.
pub fn thread_snapshot() -> ThreadMemSnapshot {
    ThreadMemSnapshot {
        allocs: THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0),
        net_bytes: THREAD_NET_BYTES.try_with(Cell::get).unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator is not installed in unit tests (that would affect the
    // whole test binary); we only test the bookkeeping helpers here.  The
    // fig10 binary and `tests/bounded_memory.rs` exercise the GlobalAlloc
    // implementation end to end.

    #[test]
    fn snapshot_and_delta_arithmetic() {
        let before = MemSnapshot {
            live_bytes: 100,
            peak_bytes: 150,
            total_allocs: 7,
        };
        let after = MemSnapshot {
            live_bytes: 260,
            peak_bytes: 300,
            total_allocs: 10,
        };
        let d = delta(before, after);
        assert_eq!(d.live_bytes, 160);
        assert_eq!(d.peak_bytes, 200);
        assert_eq!(d.total_allocs, 3);
    }

    #[test]
    fn counters_are_monotone_without_allocator_installed() {
        let a = snapshot();
        let b = snapshot();
        assert!(b.total_allocs >= a.total_allocs);
    }

    #[test]
    fn thread_windows_keep_frees_signed_and_sum_across_threads() {
        let before = ThreadMemSnapshot {
            allocs: 5,
            net_bytes: 64,
        };
        // A thread that allocated 2 blocks (96 bytes) and freed a 256-byte
        // block allocated elsewhere is 160 bytes down, not clamped to zero.
        let freer = ThreadMemSnapshot {
            allocs: 7,
            net_bytes: -96,
        }
        .since(before);
        assert_eq!(
            freer,
            ThreadMemSnapshot {
                allocs: 2,
                net_bytes: -160
            }
        );
        let allocator = ThreadMemSnapshot {
            allocs: 1,
            net_bytes: 256,
        };
        assert_eq!(
            freer + allocator,
            ThreadMemSnapshot {
                allocs: 3,
                net_bytes: 96
            }
        );
    }
}
