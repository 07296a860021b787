//! The traced run: one rung per layer, each driven through that layer's
//! public API, then the workload itself with and without tracing.
//!
//! Rungs below the channel run the pairwise pattern on two threads, so a
//! difference between neighbouring rungs is the cost of the layer between
//! them; the unbounded rung runs the burst pattern instead, because segment
//! turnover only happens when the backlog crosses segments.  Queues are
//! built with a `CountingInstrument`, and each counter ratio is printed
//! beside its base.

use std::hint::black_box;
use std::thread;
use std::time::{Duration, Instant};

use wcq::atomics::{AtomicDouble, CachePadded};
use wcq::{Counter, CountingInstrument};

use crate::stats::median;
use crate::work::{self, Pattern, Phase, Timing, DEQ, EMPTY, ENQ, HIT, SEND, WORKERS};
use crate::{run_workload, Outcome, Workload};

/// Calls per timed batch of a cell operation.
const BATCH: u32 = 1024;

/// The median over `total` of the mean time per call in batches of `f`.
fn batch_ns(total: Duration, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::new();
    let end = Instant::now() + total;
    while Instant::now() < end {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            f();
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / f64::from(BATCH));
    }
    median(&per_call)
}

fn ratio(n: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        n as f64 / base as f64
    }
}

/// Median enqueue and dequeue latency of a queue phase.
fn p50s(phase: &Phase) -> (f64, f64) {
    (
        phase.hists[ENQ].quantile(0.5),
        phase.hists[DEQ].quantile(0.5),
    )
}

/// The traced run of `workload`: every rung, then the workload untraced and
/// traced, each for an eighth of `seconds`.
pub fn run(workload: Workload, seed: u64, seconds: u64, out: &mut Outcome) {
    let slot = Duration::from_secs(seconds) / 8;
    let epoch = Instant::now();
    let timing = |name| Timing {
        measure: Some(slot),
        trace: Some((name, epoch)),
    };
    let order16 = || wcq::builder().capacity_order(16).threads(WORKERS);

    // Cell operations: the unit every ring operation is made of.
    let cell = CachePadded::new(AtomicDouble::new(1, 2));
    let load = batch_ns(slot / 4, || {
        black_box(cell.load());
    });
    out.put("atomics.double_load_ns", load, "ns");
    let mut cur = cell.load();
    let cas = batch_ns(slot / 4, || {
        let next = (cur.0 + 1, cur.1);
        cur = cell
            .compare_exchange(cur, next)
            .map_or_else(|seen| seen, |_| next);
    });
    out.put("atomics.double_cas_ns", cas, "ns");
    let faa = thread::scope(|s| {
        let one = || {
            batch_ns(slot / 4, || {
                black_box(cell.fetch_add_lo(1));
            })
        };
        let other = s.spawn(one);
        (one() + other.join().expect("an FAA thread panicked")) / 2.0
    });
    out.put("atomics.faa_contended_ns", faa, "ns");
    let empty = order16().build_ring();
    let mut h = empty.register().expect("a fresh ring has free slots");
    let empty_ns = batch_ns(slot / 4, || {
        black_box(h.dequeue());
    });
    out.put("ring.empty_dequeue_ns", empty_ns, "ns");

    // WcqRing: a raw index ring of the paper's size.
    let instr = CountingInstrument::new();
    let build = || order16().instrument(instr.clone()).build_ring();
    let ring = out.absorb(work::run_queue(
        &build,
        Pattern::Pairs,
        false,
        timing("ring"),
    ));
    let c = instr.snapshot();
    let ops = ring.attempted - ring.failed;
    let (re, rd) = p50s(&ring);
    out.put("ring.enqueue_p50_ns", re, "ns");
    out.put("ring.dequeue_p50_ns", rd, "ns");
    out.put("ring.op_p99_ns", ring.latency().quantile(0.99), "ns");
    let tickets = c.get(Counter::RingEnqueues) + c.get(Counter::RingDequeues);
    out.put("ring.tickets_per_op", ratio(tickets, ops), "1/op");
    let helped = c.get(Counter::HelpingEntries);
    out.put("ring.helping_entries_per_op", ratio(helped, ops), "1/op");
    let exhausted =
        c.get(Counter::PatienceExhaustedEnqueues) + c.get(Counter::PatienceExhaustedDequeues);
    out.put(
        "ring.patience_exhausted_per_op",
        ratio(exhausted, ops),
        "1/op",
    );
    let cas_failures = c.get(Counter::CasFailures);
    out.put("ring.cas_failures_per_op", ratio(cas_failures, ops), "1/op");
    out.put("ring.base_ops", ops as f64, "count");

    // WcqQueue: a data ring plus a free-index ring, two ring ops per op.
    let build = || {
        order16()
            .instrument(CountingInstrument::new())
            .build_bounded::<u64>()
    };
    let queue = out.absorb(work::run_queue(
        &build,
        Pattern::Pairs,
        true,
        timing("queue"),
    ));
    let (qe, qd) = p50s(&queue);
    out.put("queue.enqueue_p50_ns", qe, "ns");
    out.put("queue.dequeue_p50_ns", qd, "ns");
    out.put("queue.op_p99_ns", queue.latency().quantile(0.99), "ns");
    out.put("queue.self_ns", (qe + qd) / 2.0 - (re + rd), "ns");

    // UnboundedWcq: segments of the default 2^10 slots, seeded bursts.
    let instr = CountingInstrument::new();
    let build = || {
        let b = wcq::builder().threads(WORKERS);
        b.instrument(instr.clone()).build_unbounded::<u64>()
    };
    let pattern = Pattern::Burst {
        seed,
        segment: 1 << 10,
    };
    let unbounded = out.absorb(work::run_queue(&build, pattern, true, timing("unbounded")));
    let c = instr.snapshot();
    let kops = (unbounded.attempted - unbounded.failed) / 1000;
    let (ue, ud) = p50s(&unbounded);
    out.put("unbounded.enqueue_p50_ns", ue, "ns");
    out.put("unbounded.dequeue_p50_ns", ud, "ns");
    out.put(
        "unbounded.op_p99_ns",
        unbounded.latency().quantile(0.99),
        "ns",
    );
    let per_kop = |counter| ratio(c.get(counter), kops);
    out.put(
        "segment.allocs_per_kop",
        per_kop(Counter::SegmentAllocs),
        "1/kop",
    );
    let (hits, misses) = (
        c.get(Counter::SegmentCacheHits),
        c.get(Counter::SegmentCacheMisses),
    );
    out.put(
        "segment.cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    out.put(
        "segment.retired_per_kop",
        per_kop(Counter::SegmentsRetired),
        "1/kop",
    );
    out.put(
        "segment.rebinds_per_kop",
        per_kop(Counter::SegmentRebinds),
        "1/kop",
    );
    out.put("segment.live_peak", unbounded.live_peak as f64, "count");
    out.put("segment.base_kops", kops as f64, "count");

    // ShardedWcq: four round-robin shards, work-stealing dequeue.
    let instr = CountingInstrument::new();
    let build = || {
        let b = wcq::builder().threads(WORKERS).shards(4);
        b.instrument(instr.clone()).build_sharded::<u64>()
    };
    let sharded = out.absorb(work::run_queue(
        &build,
        Pattern::Pairs,
        false,
        timing("shard"),
    ));
    let dequeues = (sharded.attempted - sharded.failed) / 2;
    let (se, sd) = p50s(&sharded);
    out.put("shard.enqueue_p50_ns", se, "ns");
    out.put("shard.dequeue_p50_ns", sd, "ns");
    out.put("shard.op_p99_ns", sharded.latency().quantile(0.99), "ns");
    let steals = instr.snapshot().get(Counter::ShardSteals);
    out.put("shard.steals_per_dequeue", ratio(steals, dequeues), "1/op");
    out.put("shard.base_dequeues", dequeues as f64, "count");

    // Sender/Receiver: ping-pong with receivers polling try_recv.
    let counting = CountingInstrument::new();
    let chan = out.absorb(work::run_pingpong(counting, seed, true, timing("channel")));
    let msgs = (chan.attempted - chan.failed) / 2;
    let (send, hit) = (
        chan.hists[SEND].quantile(0.5),
        chan.hists[HIT].quantile(0.5),
    );
    out.put("channel.send_ns", send, "ns");
    out.put("channel.try_recv_hit_ns", hit, "ns");
    out.put(
        "channel.try_recv_empty_ns",
        chan.hists[EMPTY].quantile(0.5),
        "ns",
    );
    out.put(
        "channel.empty_polls_per_msg",
        ratio(chan.empties, msgs),
        "1/msg",
    );
    out.put(
        "channel.self_ns",
        (send + hit) / 2.0 - (ue + ud) / 2.0,
        "ns",
    );
    out.put("channel.base_msgs", msgs as f64, "count");

    // The workload itself, without and with counters and spans.
    let plain = Timing {
        measure: Some(slot),
        trace: None,
    };
    let untraced = out
        .absorb(run_workload(workload, seed, plain, None))
        .throughput();
    let counting = Some(CountingInstrument::new());
    let traced = run_workload(workload, seed, timing("workload"), counting);
    let traced = out.absorb(traced).throughput();
    out.put("trace.untraced_mops", untraced, "Mops/s");
    out.put("trace.traced_mops", traced, "Mops/s");
    out.put("trace.overhead_pct", 100.0 * (1.0 - traced / untraced), "%");
}
