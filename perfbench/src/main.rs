//! One-command benchmark of the wCQ queues.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! perfbench --reference --seconds <n>
//! ```
//!
//! Each run measures one workload in its own process and prints, as the
//! last line of standard output, a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer ladder with `--trace 1`.  `--reference` prints reference
//! figures (SCQ, LCRQ and wCQ through the same trait objects) and no JSON.
//! See README.md for what each workload and metric is.

mod check;
mod ladder;
mod stats;
mod work;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use wcq::{
    CountingInstrument, NoopInstrument, QueueHandle, ShardedWcq, UnboundedWcq, WaitFreeQueue,
    WcqQueue,
};
use wcq_harness::memtrack::CountingAllocator;

use stats::Span;
use work::{Bench, Ops, Pattern, Phase, Timing, WORKERS};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Set-ups per end-to-end run; `setup_s` is their median and the last one
/// goes on to be measured.
const SETUPS: usize = 9;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PairsBounded,
    BurstUnbounded,
    PairsSharded,
    ChannelPingpong,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PairsBounded,
        Workload::BurstUnbounded,
        Workload::PairsSharded,
        Workload::ChannelPingpong,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PairsBounded => "pairs-bounded",
            Workload::BurstUnbounded => "burst-unbounded",
            Workload::PairsSharded => "pairs-sharded",
            Workload::ChannelPingpong => "channel-pingpong",
        }
    }
}

/// The bounded queue of the paper's size, 2^16 slots.
fn bounded(instr: &Option<CountingInstrument>) -> WcqQueue<u64> {
    let b = wcq::builder().capacity_order(16).threads(WORKERS);
    match instr {
        Some(i) => b.instrument(i.clone()).build_bounded(),
        None => b.build_bounded(),
    }
}

/// The unbounded wLSCQ with the default 2^10 slots per segment.
fn unbounded(instr: &Option<CountingInstrument>) -> UnboundedWcq<u64> {
    let b = wcq::builder().threads(WORKERS);
    match instr {
        Some(i) => b.instrument(i.clone()).build_unbounded(),
        None => b.build_unbounded(),
    }
}

/// Four round-robin wLSCQ shards.
fn sharded(instr: &Option<CountingInstrument>) -> ShardedWcq<u64> {
    let b = wcq::builder().threads(WORKERS).shards(4);
    match instr {
        Some(i) => b.instrument(i.clone()).build_sharded(),
        None => b.build_sharded(),
    }
}

/// Runs one phase of `workload`, with counters when `instr` is given.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    timing: Timing,
    instr: Option<CountingInstrument>,
) -> Phase {
    match workload {
        Workload::PairsBounded => {
            work::run_queue(&|| bounded(&instr), Pattern::Pairs, true, timing)
        }
        Workload::BurstUnbounded => work::run_queue(
            &|| unbounded(&instr),
            Pattern::Burst {
                seed,
                segment: 1 << 10,
            },
            true,
            timing,
        ),
        // Round-robin routing does not promise per-producer FIFO.
        Workload::PairsSharded => {
            work::run_queue(&|| sharded(&instr), Pattern::Pairs, false, timing)
        }
        Workload::ChannelPingpong => match instr {
            Some(i) => work::run_pingpong(i, seed, false, timing),
            None => work::run_pingpong(NoopInstrument, seed, false, timing),
        },
    }
}

/// A metric as printed.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run reports.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    spans: Vec<Span>,
    dropped_spans: u64,
}

impl Outcome {
    /// Takes in a phase's operation counts, check result and spans.
    pub fn absorb(&mut self, mut phase: Phase) -> Phase {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        if let Err(e) = &phase.check {
            self.errors.push(e.clone());
        }
        self.spans.append(&mut phase.spans);
        self.dropped_spans += phase.dropped_spans;
        phase
    }

    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s + "}}"
    }
}

/// The end-to-end run: `SETUPS` set-ups, the last of them measured.
fn end_to_end(workload: Workload, seed: u64, seconds: u64, out: &mut Outcome) {
    let mut setups = Vec::new();
    let mut measured = None;
    for i in 0..SETUPS {
        let last = i + 1 == SETUPS;
        let timing = Timing {
            measure: last.then(|| Duration::from_secs(seconds)),
            trace: None,
        };
        let phase = out.absorb(run_workload(workload, seed, timing, None));
        setups.push(phase.setup_s);
        if last {
            measured = Some(phase);
        }
    }
    let phase = measured.expect("the last set-up is measured");
    if workload == Workload::PairsBounded && phase.allocs != 0 {
        out.errors.push(format!(
            "the bounded queue allocated {} times during measurement",
            phase.allocs
        ));
    }
    let lat = phase.latency();
    out.put("throughput_mops", phase.throughput(), "Mops/s");
    out.put("latency_p50_ns", lat.quantile(0.5), "ns");
    out.put("latency_p99_ns", lat.quantile(0.99), "ns");
    out.put("peak_heap_bytes", phase.peak_heap as f64, "bytes");
    out.put("setup_s", stats::median(&setups), "s");
    println!(
        "# {}: {} latency samples (1 call in {}); reference only: p99.9 {:.0} ns, p99.99 {:.0} ns",
        workload.name(),
        lat.count(),
        stats::STRIDE,
        lat.quantile(0.999),
        lat.quantile(0.9999)
    );
}

impl Bench for Box<dyn WaitFreeQueue<u64>> {
    type H<'a> = Box<dyn QueueHandle<u64> + 'a>;
    fn handle(&self) -> Self::H<'_> {
        WaitFreeQueue::handle(&**self)
    }
}

impl Ops for Box<dyn QueueHandle<u64> + '_> {
    fn enq(&mut self, v: u64) {
        QueueHandle::enqueue(&mut **self, v)
    }
    fn deq(&mut self) -> Option<u64> {
        QueueHandle::dequeue(&mut **self)
    }
}

/// Reference figures: the pairwise pattern on wCQ, SCQ and LCRQ, all driven
/// through the same `WaitFreeQueue` trait objects.
fn reference(seconds: u64) -> bool {
    type Make = fn() -> Box<dyn WaitFreeQueue<u64>>;
    let queues: [(&str, Make); 3] = [
        ("wCQ", || Box::new(bounded(&None))),
        ("SCQ", || Box::new(wcq::ScqQueue::<u64>::new(16))),
        // The 2^12-slot rings the figure harness gives LCRQ.
        ("LCRQ", || Box::new(wcq::baselines::Lcrq::new(12, WORKERS))),
    ];
    let mut ok = true;
    for (name, make) in queues {
        let timing = Timing {
            measure: Some(Duration::from_secs(seconds)),
            trace: None,
        };
        let p = work::run_queue(&make, Pattern::Pairs, true, timing);
        let lat = p.latency();
        println!(
            "{name:5} pairs: {:.3} Mops/s  p50 {:.1} ns  p99 {:.1} ns  p99.9 {:.0} ns  p99.99 {:.0} ns  check {:?}",
            p.throughput(),
            lat.quantile(0.5),
            lat.quantile(0.99),
            lat.quantile(0.999),
            lat.quantile(0.9999),
            p.check
        );
        ok &= p.check.is_ok();
    }
    ok
}

/// Where a traced run writes its spans: under the build directory.
fn trace_path(workload: Workload) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    dir.join("perfbench-trace")
        .join(format!("spans-{}.tsv", workload.name()))
}

fn write_spans(path: &Path, spans: &[Span], dropped: u64) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "# {} spans kept, {dropped} dropped once a phase's buffer was full",
        spans.len()
    )?;
    writeln!(w, "# op: queue phases 0 enqueue, 1 dequeue; ping-pong phases 0 round trip, 1 send, 2 try_recv hit, 3 try_recv empty")?;
    writeln!(w, "phase\tthread\ttrace\top\tstart_ns\tdur_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.phase, s.thread, s.trace, s.op, s.start_ns, s.dur_ns
        )?;
    }
    w.flush()
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    reference: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        reference: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--reference" {
            a.reference = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                a.workload = Some(w.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => a.seed = number()?,
            "--seconds" => a.seconds = number()?.clamp(1, 60),
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> | --reference");
            return ExitCode::from(2);
        }
    };
    if args.reference {
        return if reference(args.seconds) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("perfbench: --workload is required; one of pairs-bounded, burst-unbounded, pairs-sharded, channel-pingpong");
        return ExitCode::from(2);
    };
    let mut out = Outcome::default();
    if args.trace {
        ladder::run(workload, args.seed, args.seconds, &mut out);
        let path = trace_path(workload);
        match write_spans(&path, &out.spans, out.dropped_spans) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    } else {
        end_to_end(workload, args.seed, args.seconds, &mut out);
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    for m in &out.metrics {
        println!("# {:32} {:>16.3} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}
