//! Bounded-memory regression test (Theorem 5.8).
//!
//! wCQ's headline property is that it never allocates after construction —
//! unlike LCRQ/YMC, whose memory grows with contention (Figure 10a).  This
//! suite installs the harness' counting global allocator and drives the wCQ
//! slow path hard (MAX_PATIENCE = 1 forces it on every operation), asserting
//! that heap usage stays flat across 100k operations.
//!
//! This is its own integration-test binary because `#[global_allocator]`
//! applies process-wide.  It runs under the default parallel test threads, so
//! every measurement window reads the allocator's *per-thread* counters
//! (`memtrack::thread_snapshot`): a window that spans worker threads sums each
//! worker's delta with the test thread's own, and allocations made by the
//! tests running beside it (or by their panics' backtrace symbolization) never
//! land in it.  `per_thread_windows_ignore_other_threads_allocations` checks
//! that isolation.

// The deprecated ad-hoc stats accessors stay covered until they are removed
// (their replacement is the `CountingInstrument` metrics snapshot).
#![allow(deprecated)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use wcq::ShardPolicy;
use wcq_core::wcq::{WcqConfig, WcqQueue};
use wcq_harness::memtrack::{self, CountingAllocator, ThreadMemSnapshot};
use wcq_unbounded::UnboundedWcq;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn forced_slow_path() -> WcqConfig {
    WcqConfig {
        max_patience_enqueue: 1,
        max_patience_dequeue: 1,
        help_delay: 1,
        catchup_bound: 8,
        ..WcqConfig::default()
    }
}

#[test]
fn wcq_slow_path_does_not_allocate_across_100k_ops() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 25_000; // 100k ops total
    let q: WcqQueue<u64> = wcq::builder()
        .capacity_order(8)
        .threads(THREADS as usize)
        .config(forced_slow_path())
        .build_bounded();
    let footprint_before = q.memory_footprint();

    let before = memtrack::thread_snapshot();
    let consumed = AtomicU64::new(0);
    let workers = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let q = &q;
                let consumed = &consumed;
                s.spawn(move || {
                    let start = memtrack::thread_snapshot();
                    let mut h = q.register().unwrap();
                    for i in 0..PER_THREAD {
                        let mut v = t * PER_THREAD + i;
                        while let Err(back) = h.enqueue(v) {
                            v = back;
                            // Make room when the ring is full; this dequeue
                            // consumes a real element and must be counted too.
                            if h.dequeue().is_some() {
                                consumed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        if h.dequeue().is_some() {
                            consumed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    while h.dequeue().is_some() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                    drop(h);
                    memtrack::thread_snapshot().since(start)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold(ThreadMemSnapshot::default(), |sum, d| sum + d)
    });
    // The window: the test thread's own traffic (spawning and joining) plus
    // every worker's.
    let window = memtrack::thread_snapshot().since(before) + workers;

    assert_eq!(consumed.load(Ordering::Relaxed), THREADS * PER_THREAD);
    // The queue itself is statically allocated: its self-reported footprint
    // is a pure function of the construction parameters.
    assert_eq!(q.memory_footprint(), footprint_before);
    // Live heap must stay flat up to a small slack for std runtime
    // bookkeeping (thread-exit TLS, panic buffers — observed ~150 bytes)...
    let live_growth = window.net_bytes;
    assert!(
        live_growth < 16 * 1024,
        "live heap grew {live_growth} bytes across the run: {window:?}"
    );
    // ...and the total number of allocations during 100k slow-path ops must
    // be tiny (thread spawning and test bookkeeping only).  A per-operation
    // allocation would show up as >= 100_000 here.
    let allocs = window.allocs;
    assert!(
        allocs < 1_000,
        "expected no per-operation allocations, saw {allocs} across 100k ops"
    );
}

#[test]
fn wcq_footprint_is_a_function_of_geometry_only() {
    // Two identically configured queues report identical footprints, and the
    // footprint scales with capacity, never with the operation history.
    let a: WcqQueue<u64> = WcqQueue::new(6, 4);
    let b: WcqQueue<u64> = WcqQueue::new(6, 4);
    assert_eq!(a.memory_footprint(), b.memory_footprint());

    let big: WcqQueue<u64> = WcqQueue::new(10, 4);
    assert!(big.memory_footprint() > a.memory_footprint());

    let mut h = a.register().unwrap();
    for i in 0..if cfg!(miri) { 200 } else { 10_000u64 } {
        while h.enqueue(i).is_err() {
            let _ = h.dequeue();
        }
        let _ = h.dequeue();
    }
    drop(h);
    assert_eq!(
        a.memory_footprint(),
        b.memory_footprint(),
        "operation history must not change the footprint"
    );
}

#[test]
fn unbounded_wcq_steady_state_reuses_segments_without_allocating() {
    // The unbounded queue cannot be allocation-free in general — growth *is*
    // allocation — but at steady state (periodic bursts that drain), segment
    // churn must be served from the recycling cache: the number of segments
    // ever allocated stays flat and per-operation heap traffic stays nil.
    const SEG_ORDER: u32 = 4; // 16-slot segments
    const BURST: u64 = 64; // 4 segments of churn per round
    let q: UnboundedWcq<u64> = UnboundedWcq::new(SEG_ORDER, 2);
    let mut h = q.register().unwrap();

    // Warm-up: populate the segment cache through one full burst/drain cycle.
    for i in 0..BURST {
        h.enqueue(i);
    }
    for i in 0..BURST {
        assert_eq!(h.dequeue(), Some(i));
    }
    h.flush_reclamation();

    let allocated_before = q.segments_allocated();
    let before = memtrack::thread_snapshot();
    const ROUNDS: u64 = 50;
    for round in 0..ROUNDS {
        for i in 0..BURST {
            h.enqueue(round * BURST + i);
        }
        for i in 0..BURST {
            assert_eq!(h.dequeue(), Some(round * BURST + i));
        }
        h.flush_reclamation();
    }
    let window = memtrack::thread_snapshot().since(before);

    assert_eq!(
        q.segments_allocated(),
        allocated_before,
        "steady-state churn must be served from the cache: {:?}",
        q.segment_stats()
    );
    // 50 rounds * 128 ops with per-op allocation would show up as >= 6400
    // allocations; the only heap traffic allowed is the hazard scan's small
    // bookkeeping on each explicit flush.
    let allocs = window.allocs;
    assert!(
        allocs < 1_500,
        "expected no per-operation allocations at steady state, saw {allocs}"
    );
    let live_growth = window.net_bytes;
    assert!(
        live_growth < 16 * 1024,
        "live heap grew {live_growth} bytes across steady-state rounds"
    );
}

#[test]
fn sharded_wcq_steady_state_allocates_nothing_on_any_shard() {
    // The sharded queue inherits the steady-state property shard-wise: after
    // a warm-up burst/drain cycle, segment churn on *every* shard is served
    // from that shard's recycling cache — the allocator is never consulted
    // again, and the cache hit/miss counters prove it per shard.
    const SHARDS: usize = 4;
    const SEG_ORDER: u32 = 4; // 16-slot segments
    const BURST: u64 = 256; // 64 values -> 4 segments of churn per shard
    let q = wcq::builder()
        .capacity_order(SEG_ORDER)
        .threads(2)
        .shards(SHARDS)
        .shard_policy(ShardPolicy::RoundRobin)
        .build_sharded::<u64>();
    let mut h = q.handle();

    // Warm-up: populate every shard's segment cache through one full cycle.
    for i in 0..BURST {
        h.enqueue(i);
    }
    while h.dequeue().is_some() {}
    h.flush_reclamation();

    let allocated_before: Vec<usize> = q.shards().iter().map(|s| s.segments_allocated()).collect();
    let misses_before: Vec<usize> = q.shards().iter().map(|s| s.cache_stats().misses).collect();
    let before = memtrack::thread_snapshot();
    const ROUNDS: u64 = 40;
    for round in 0..ROUNDS {
        for i in 0..BURST {
            h.enqueue(round * BURST + i);
        }
        while h.dequeue().is_some() {}
        h.flush_reclamation();
    }
    let window = memtrack::thread_snapshot().since(before);

    for (i, shard) in q.shards().iter().enumerate() {
        assert_eq!(
            shard.segments_allocated(),
            allocated_before[i],
            "shard {i} must serve steady-state churn from its cache: {:?}",
            shard.segment_stats()
        );
        let stats = shard.cache_stats();
        assert_eq!(
            stats.misses, misses_before[i],
            "shard {i} cache must not miss at steady state: {stats:?}"
        );
        assert!(
            stats.hits > 0,
            "shard {i} cache must have served the churn: {stats:?}"
        );
    }
    // 40 rounds * 512 ops with per-op allocation would show up as >= 20k
    // allocations; only the hazard scans' small bookkeeping is allowed.
    let allocs = window.allocs;
    assert!(
        allocs < 2_000,
        "expected no per-operation allocations at steady state, saw {allocs}"
    );
    let live_growth = window.net_bytes;
    assert!(
        live_growth < 16 * 1024,
        "live heap grew {live_growth} bytes across steady-state rounds"
    );
}

#[test]
fn per_thread_windows_ignore_other_threads_allocations() {
    // The accounting the windows above rely on: while this thread's window is
    // open, a helper thread makes and holds HELD allocations.  The process-wide
    // counter sees every one of them; this thread's window sees none.
    const HELD: usize = 1_000;
    let started = Barrier::new(2);
    let holding = Barrier::new(2);
    let window_closed = Barrier::new(2);
    std::thread::scope(|s| {
        let helper = s.spawn(|| {
            started.wait();
            let start = memtrack::thread_snapshot();
            let held: Vec<Box<u64>> = (0..HELD as u64).map(Box::new).collect();
            let made = memtrack::thread_snapshot().since(start);
            holding.wait();
            window_closed.wait();
            drop(held);
            made
        });

        let before = memtrack::thread_snapshot();
        let global_before = memtrack::snapshot();
        started.wait();
        holding.wait();
        let window = memtrack::thread_snapshot().since(before);
        let global_after = memtrack::snapshot();
        window_closed.wait();
        let made = helper.join().unwrap();

        assert_eq!(
            window,
            ThreadMemSnapshot::default(),
            "this thread allocated nothing, yet its window saw {window:?}"
        );
        let global_allocs = global_after.total_allocs - global_before.total_allocs;
        assert!(
            global_allocs >= HELD,
            "the process-wide counter must see the helper's {HELD} allocations, saw {global_allocs}"
        );
        // The helper's own window did count them, so the per-thread counters
        // are live, not merely zero.
        assert!(
            made.allocs >= HELD && made.net_bytes >= (HELD * std::mem::size_of::<u64>()) as isize,
            "the helper's window must count its own allocations: {made:?}"
        );
    });
}
