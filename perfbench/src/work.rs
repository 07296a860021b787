//! The closed-loop op patterns and the phase that runs one of them: set up,
//! warm up, measure, stop, drain and check.
//!
//! A phase runs on exactly two worker threads, for a two-core box; the main
//! thread sleeps between throughput windows.

use std::hint::spin_loop;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use wcq::atomics::CachePadded;
use wcq::core_queue::wcq::WcqHandle;
use wcq::{
    Instrument, ShardedWcq, ShardedWcqHandle, TryRecvError, UnboundedWcq, UnboundedWcqHandle,
    WcqQueue, WcqQueueHandle, WcqRing,
};
use wcq_harness::{memtrack, DetRng};

use crate::check::{self, ClientLog, ConsumerLog, ServerLog};
use crate::stats::{Hist, Recorder, Span};

/// Worker threads in every phase.
pub const WORKERS: usize = 2;
/// Throughput windows in a measured phase; `throughput_mops` is their median.
const WINDOWS: u32 = 20;
/// Consecutive empty dequeues after which a worker gives its element up as
/// lost.  Every round leaves the queue owing the worker an element, so an
/// empty dequeue is a fault, except on the sharded facade, whose scan over
/// the shards is not atomic; the next call retries.
const GIVE_UP: u64 = 1 << 26;

/// Round trips of the ping-pong warm-up pass.
const WARM_ROUND_TRIPS: u64 = 20_000;

/// Histogram kinds of the queue patterns.
pub const ENQ: usize = 0;
pub const DEQ: usize = 1;
/// Histogram kinds of the ping-pong pattern: the client's round trip, and on
/// the polling channel rung each send, receive hit and empty receive.
pub const RTT: usize = 0;
pub const SEND: usize = 1;
pub const HIT: usize = 2;
pub const EMPTY: usize = 3;

/// A registered handle as the patterns drive it.
pub trait Ops {
    fn enq(&mut self, v: u64);
    fn deq(&mut self) -> Option<u64>;
}

/// A queue the patterns can run on.
pub trait Bench: Sync {
    type H<'a>: Ops
    where
        Self: 'a;
    /// Whether dequeued values are the enqueued ids, so the checker applies.
    const IDS: bool = true;
    fn handle(&self) -> Self::H<'_>;
    /// Segments linked into the queue now (0 for rings and bounded queues).
    fn live_segments(&self) -> usize {
        0
    }
}

impl Ops for WcqQueueHandle<'_, u64> {
    #[inline]
    fn enq(&mut self, v: u64) {
        let mut v = v;
        while let Err(back) = self.enqueue(v) {
            v = back;
            spin_loop();
        }
    }
    #[inline]
    fn deq(&mut self) -> Option<u64> {
        self.dequeue()
    }
}

impl Bench for WcqQueue<u64> {
    type H<'a> = WcqQueueHandle<'a, u64>;
    fn handle(&self) -> Self::H<'_> {
        self.register().expect("one registration slot per worker")
    }
}

impl Ops for UnboundedWcqHandle<'_, u64> {
    #[inline]
    fn enq(&mut self, v: u64) {
        self.enqueue(v)
    }
    #[inline]
    fn deq(&mut self) -> Option<u64> {
        self.dequeue()
    }
}

impl Bench for UnboundedWcq<u64> {
    type H<'a> = UnboundedWcqHandle<'a, u64>;
    fn handle(&self) -> Self::H<'_> {
        self.register().expect("one registration slot per worker")
    }
    fn live_segments(&self) -> usize {
        self.segments_live()
    }
}

impl Ops for ShardedWcqHandle<'_, u64> {
    #[inline]
    fn enq(&mut self, v: u64) {
        self.enqueue(v)
    }
    #[inline]
    fn deq(&mut self) -> Option<u64> {
        self.dequeue()
    }
}

impl Bench for ShardedWcq<u64> {
    type H<'a> = ShardedWcqHandle<'a, u64>;
    fn handle(&self) -> Self::H<'_> {
        self.register().expect("one registration slot per worker")
    }
}

/// A raw ring holds indices below its capacity, not ids: a worker's index
/// is its producer number above the low 15 bits of the sequence number.
impl Ops for WcqHandle<'_> {
    #[inline]
    fn enq(&mut self, v: u64) {
        self.enqueue(((v >> check::SEQ_BITS) << 15) | (v & 0x7fff))
    }
    #[inline]
    fn deq(&mut self) -> Option<u64> {
        self.dequeue()
    }
}

impl Bench for WcqRing {
    type H<'a> = WcqHandle<'a>;
    const IDS: bool = false;
    fn handle(&self) -> Self::H<'_> {
        self.register().expect("one registration slot per worker")
    }
}

/// The op pattern of a queue phase.
#[derive(Clone, Copy)]
pub enum Pattern {
    /// Each worker alternates one enqueue and one dequeue (Fig. 11b).
    Pairs,
    /// Each worker enqueues a seeded burst of 1..=8 segments of
    /// `segment` values, then dequeues as many.
    Burst { seed: u64, segment: u64 },
}

impl Pattern {
    fn warm_rounds(self) -> u64 {
        match self {
            Pattern::Pairs => 20_000,
            Pattern::Burst { .. } => 8,
        }
    }
}

/// What a phase measured.
pub struct Phase {
    pub setup_s: f64,
    /// Element operations per second in each window, in millions.
    pub window_mops: Vec<f64>,
    /// Per-kind latency histograms, both workers merged.
    pub hists: Vec<Hist>,
    /// Element operations attempted, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    pub check: Result<(), String>,
    /// Peak live heap from just before the queue was built to the end of
    /// the measured phase.
    pub peak_heap: usize,
    /// Allocations between the start of measurement and the workers' last
    /// operation.
    pub allocs: usize,
    /// Highest segment count a worker saw after an enqueue burst.
    pub live_peak: usize,
    /// Empty dequeues or receives that a later call made good.
    pub empties: u64,
    pub spans: Vec<Span>,
    pub dropped_spans: u64,
}

impl Phase {
    /// A phase's record with both workers' samples merged; `add` the
    /// workers' tallies and set `check` next.
    fn new(
        recs: Vec<Recorder>,
        setup_s: f64,
        window_mops: Vec<f64>,
        allocs: usize,
        peak_heap: usize,
    ) -> Self {
        let mut phase = Phase {
            setup_s,
            window_mops,
            hists: Vec::new(),
            attempted: 0,
            failed: 0,
            check: Ok(()),
            peak_heap,
            allocs,
            live_peak: 0,
            empties: 0,
            spans: Vec::new(),
            dropped_spans: 0,
        };
        for rec in recs {
            if phase.hists.is_empty() {
                phase.hists = rec.hists;
            } else {
                phase
                    .hists
                    .iter_mut()
                    .zip(&rec.hists)
                    .for_each(|(a, b)| a.merge(b));
            }
            phase.spans.extend(rec.spans);
            phase.dropped_spans += rec.dropped;
        }
        phase
    }

    fn add(&mut self, t: &Tally) {
        self.attempted += t.ops;
        self.failed += t.failed;
        self.empties += t.empties;
        self.live_peak = self.live_peak.max(t.live_peak);
    }

    pub fn throughput(&self) -> f64 {
        crate::stats::median(&self.window_mops)
    }

    /// Latency histogram of all kinds merged.
    pub fn latency(&self) -> Hist {
        let mut all = self.hists[0].clone();
        self.hists[1..].iter().for_each(|h| all.merge(h));
        all
    }
}

/// State the main thread and the workers of a phase share.
struct Ctl {
    barrier: Barrier,
    stop: AtomicBool,
    ops: [CachePadded<AtomicU64>; WORKERS],
    finished: AtomicUsize,
    allocs_at_end: AtomicUsize,
}

impl Ctl {
    fn new(parties: usize) -> Self {
        Self {
            barrier: Barrier::new(parties),
            stop: AtomicBool::new(false),
            ops: Default::default(),
            finished: AtomicUsize::new(0),
            allocs_at_end: AtomicUsize::new(0),
        }
    }

    /// Called by each measuring thread after its last operation; returns
    /// once all `measuring` threads have called it, so that no thread's
    /// exit lands in the allocation count.
    fn finish(&self, measuring: usize) {
        if self.finished.fetch_add(1, Relaxed) + 1 == measuring {
            self.allocs_at_end
                .store(memtrack::snapshot().total_allocs, Relaxed);
        }
        while self.finished.load(Relaxed) < measuring {
            thread::yield_now();
        }
    }
}

/// How a phase is timed: `measure` is `None` for a set-up-only repetition.
#[derive(Clone, Copy)]
pub struct Timing {
    pub measure: Option<Duration>,
    /// Phase name and epoch when spans are kept.
    pub trace: Option<(&'static str, Instant)>,
}

/// Runs the main thread's side of a phase once the workers are spawned:
/// waits for their warm-up, releases them, samples throughput windows and
/// stops them.  Returns the set-up time, the windows and the allocation
/// count when measurement started.
fn drive(ctl: &Ctl, t0: Instant, timing: Timing) -> (f64, Vec<f64>, usize) {
    let mut windows = Vec::with_capacity(WINDOWS as usize);
    ctl.barrier.wait();
    let setup_s = t0.elapsed().as_secs_f64();
    if timing.measure.is_none() {
        ctl.stop.store(true, Relaxed);
    }
    let allocs = memtrack::snapshot().total_allocs;
    ctl.barrier.wait();
    if let Some(total) = timing.measure {
        let ops = || ctl.ops.iter().map(|c| c.load(Relaxed)).sum::<u64>();
        let start = Instant::now();
        let (mut last_t, mut last_ops) = (start, ops());
        for w in 1..=WINDOWS {
            let due = start + total * w / WINDOWS;
            thread::sleep(due.saturating_duration_since(Instant::now()));
            let (now, n) = (Instant::now(), ops());
            windows.push((n - last_ops) as f64 / now.duration_since(last_t).as_secs_f64() / 1e6);
            (last_t, last_ops) = (now, n);
        }
        ctl.stop.store(true, Relaxed);
    }
    (setup_s, windows, allocs)
}

/// One worker's tallies.
#[derive(Default)]
struct Tally {
    produced: u64,
    ops: u64,
    failed: u64,
    empties: u64,
    live_peak: usize,
    round: u64,
}

/// Dequeues until an element arrives, timing each call that is due.
#[inline]
fn deq_some<H: Ops>(h: &mut H, rec: &mut Recorder, t: &mut Tally) -> Option<u64> {
    let mut misses = 0;
    loop {
        if let Some(v) = rec.time(DEQ, t.round, || h.deq()) {
            t.empties += misses;
            return Some(v);
        }
        misses += 1;
        if misses == GIVE_UP {
            t.failed += 1;
            return None;
        }
    }
}

/// Runs one phase of `pat` on the queue `build` makes; `fifo` says whether
/// the backend promises each consumer per-producer order.
pub fn run_queue<B: Bench>(
    build: &dyn Fn() -> B,
    pat: Pattern,
    fifo: bool,
    timing: Timing,
) -> Phase {
    let mut recs: Vec<Recorder> = (0..WORKERS)
        .map(|i| Recorder::new(2, timing.trace.map(|(p, e)| (p, i as u8, e))))
        .collect();
    let mut logs = vec![ConsumerLog::new(WORKERS); WORKERS];
    let ctl = Ctl::new(WORKERS + 1);
    let live_before = memtrack::snapshot().live_bytes;
    memtrack::reset_peak();
    let t0 = Instant::now();
    let q = build();
    let (setup_s, window_mops, allocs, tallies) = thread::scope(|s| {
        let workers: Vec<_> = recs
            .iter_mut()
            .zip(logs.iter_mut())
            .enumerate()
            .map(|(me, (rec, log))| {
                let (q, ctl) = (&q, &ctl);
                s.spawn(move || {
                    let mut rng = DetRng::new(match pat {
                        Pattern::Burst { seed, .. } => seed,
                        Pattern::Pairs => 0,
                    })
                    .stream(me as u64);
                    let mut h = q.handle();
                    let mut t = Tally::default();
                    let ops = &ctl.ops[me];
                    // One round of `pat`: one pair, or one burst and its drain.
                    let mut round = |t: &mut Tally| {
                        let n = match pat {
                            Pattern::Pairs => 1,
                            Pattern::Burst { segment, .. } => rng.range_inclusive(1, 8) * segment,
                        };
                        for _ in 0..n {
                            let v = check::id(me, t.produced);
                            rec.time(ENQ, t.round, || h.enq(v));
                            t.produced += 1;
                            t.ops += 1;
                            ops.store(t.ops, Relaxed);
                        }
                        if n > 1 {
                            t.live_peak = t.live_peak.max(q.live_segments());
                        }
                        for _ in 0..n {
                            t.ops += 1;
                            match deq_some(&mut h, rec, t) {
                                Some(v) if B::IDS => log.record(v),
                                _ => {}
                            }
                            ops.store(t.ops, Relaxed);
                        }
                        t.round += 1;
                    };
                    for _ in 0..pat.warm_rounds() {
                        round(&mut t);
                    }
                    ctl.barrier.wait();
                    ctl.barrier.wait();
                    while !ctl.stop.load(Relaxed) {
                        round(&mut t);
                    }
                    ctl.finish(WORKERS);
                    t
                })
            })
            .collect();
        // Allocated before measurement, which ends while the joins wait.
        let mut tallies = Vec::with_capacity(WORKERS);
        let (setup_s, windows, allocs) = drive(&ctl, t0, timing);
        for w in workers {
            tallies.push(w.join().expect("a worker panicked"));
        }
        (setup_s, windows, allocs, tallies)
    });
    let peak_heap = memtrack::snapshot().peak_bytes.saturating_sub(live_before);

    let mut drain = ConsumerLog::new(WORKERS);
    let mut residual = 0;
    {
        let mut h = q.handle();
        while let Some(v) = h.deq() {
            drain.record(v);
            residual += 1;
        }
    }
    let produced: Vec<u64> = tallies.iter().map(|t| t.produced).collect();
    logs.push(drain);
    let check = if residual > 0 {
        Err(format!(
            "{residual} elements were left after every round completed"
        ))
    } else if B::IDS {
        check::check_queue(&produced, &logs, fifo)
    } else {
        Ok(())
    };
    let allocs = ctl.allocs_at_end.load(Relaxed).saturating_sub(allocs);
    let mut phase = Phase::new(recs, setup_s, window_mops, allocs, peak_heap);
    tallies.iter().for_each(|t| phase.add(t));
    phase.check = check;
    phase
}

/// Runs one ping-pong phase over two channels on the default backend, built
/// with `instr`.  With `poll` both sides receive with `try_recv` and every
/// due call is timed on its own; otherwise they block in `recv` and the
/// client times whole round trips.
pub fn run_pingpong<I: Instrument>(instr: I, seed: u64, poll: bool, timing: Timing) -> Phase {
    let trace = |i: u8| timing.trace.map(|(p, e)| (p, i, e));
    let mut recs = vec![Recorder::new(4, trace(0)), Recorder::new(4, trace(1))];
    let (mut client, mut server) = (ClientLog::default(), ServerLog::default());
    // The client and the main thread meet at the barrier; the server just
    // answers until the client closes both channels.
    let ctl = Ctl::new(2);
    let live_before = memtrack::snapshot().live_bytes;
    memtrack::reset_peak();
    let t0 = Instant::now();
    let b = wcq::builder().threads(2).instrument(instr);
    let (mut req_tx, mut req_rx) = b.build_channel::<u64>();
    let (mut rep_tx, mut rep_rx) = b.build_channel::<u64>();
    let (setup_s, window_mops, allocs, tallies) = thread::scope(|s| {
        let [crec, srec] = &mut recs[..] else {
            unreachable!()
        };
        let (ctl, client, server) = (&ctl, &mut client, &mut server);
        let srv = s.spawn(move || {
            let mut t = Tally::default();
            loop {
                let got = if poll {
                    polled(&mut req_rx, srec, &mut t)
                } else {
                    req_rx.recv().map_err(|_| TryRecvError::Closed)
                };
                let Ok(r) = got else {
                    server.closed_after = Some(server.received);
                    break;
                };
                server.request(r);
                let reply = check::reply_to(r);
                let sent = if poll {
                    srec.time(SEND, t.round, || rep_tx.send(reply))
                } else {
                    rep_tx.send(reply)
                };
                if sent.is_err() {
                    server.refused += 1;
                    t.failed += 1;
                }
                t.round += 1;
            }
            t
        });
        let cli = s.spawn(move || {
            let mut t = Tally::default();
            let mut rng = check::requests(seed);
            let ops = &ctl.ops[0];
            let mut one = |t: &mut Tally| {
                let r = rng.next_u64();
                let t_send = (!poll && crec.due()).then(Instant::now);
                let sent = if poll {
                    crec.time(SEND, t.round, || req_tx.send(r))
                } else {
                    req_tx.send(r)
                };
                client.sent += 1;
                let got = match sent {
                    Err(_) => Err(TryRecvError::Closed),
                    Ok(()) if poll => polled(&mut rep_rx, crec, t),
                    Ok(()) => rep_rx.recv().map_err(|_| TryRecvError::Closed),
                };
                if let Some(t_send) = t_send {
                    crec.record(RTT, t.round, t_send, Instant::now());
                }
                match got {
                    Ok(v) => client.reply(v),
                    Err(_) => t.failed += 1,
                }
                t.ops += 4;
                t.round += 1;
                ops.store(t.ops, Relaxed);
            };
            for _ in 0..WARM_ROUND_TRIPS {
                one(&mut t);
            }
            ctl.barrier.wait();
            ctl.barrier.wait();
            while !ctl.stop.load(Relaxed) {
                one(&mut t);
            }
            ctl.finish(1);
            req_tx.close();
            rep_rx.close();
            t
        });
        let (setup_s, windows, allocs) = drive(ctl, t0, timing);
        let tallies = [cli.join(), srv.join()].map(|t| t.expect("a ping-pong thread panicked"));
        (setup_s, windows, allocs, tallies)
    });
    let peak_heap = memtrack::snapshot().peak_bytes.saturating_sub(live_before);
    let allocs = ctl.allocs_at_end.load(Relaxed).saturating_sub(allocs);
    let mut phase = Phase::new(recs, setup_s, window_mops, allocs, peak_heap);
    // The client counts all four operations of each round trip.
    tallies.iter().for_each(|t| phase.add(t));
    phase.check = check::check_pingpong(seed, &client, &server);
    phase
}

/// Polls `rx` with `try_recv` until a value or `Closed` arrives, timing each
/// due call as a hit or an empty receive.
fn polled<I: Instrument>(
    rx: &mut wcq::Receiver<u64, I>,
    rec: &mut Recorder,
    t: &mut Tally,
) -> Result<u64, TryRecvError> {
    loop {
        let t0 = rec.due().then(Instant::now);
        let got = rx.try_recv();
        if let Some(t0) = t0 {
            let kind = if matches!(got, Err(TryRecvError::Empty)) {
                EMPTY
            } else {
                HIT
            };
            rec.record(kind, t.round, t0, Instant::now());
        }
        match got {
            Err(TryRecvError::Empty) => t.empties += 1,
            other => return other,
        }
    }
}
