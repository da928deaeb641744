//! One phase: a fresh system, two closed-loop workers, fixed-size segments.
//!
//! Each worker generates a segment of operations, meets the other worker
//! at a barrier, then issues the operations one at a time, each only after
//! the previous call returned.  The segment's wall time (barrier to
//! barrier) is the measured window, so operation generation is not timed.
//! The first tenth of a timed phase is warm-up and is not measured, and
//! neither is a segment during which the hypervisor took CPU time from this
//! machine: on a shared host such a segment ran on a slower machine, and
//! a thread preempted inside a transaction stalls the other.
//!
//! The main thread only watches deadlines: a segment that runs past
//! [`SEGMENT_DEADLINE`] (a lost wake-up or a livelock) raises the stop
//! flag and cancels the workers' waits, every body then returns without
//! effect, and the operations it cut short count as failed.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tm_core::{StatsSnapshot, ThreadCtx};
use tm_sync::PthreadBuffer;
use tm_workloads::{AnyRuntime, RuntimeKind};

use crate::host;
use crate::latency::Histogram;
use crate::trace::{Layers, OpSpans, Traced};
use crate::workload::{self, Image, Op, OpStream, State, Tally, Workload, HANDOFF_CAPACITY};

/// Operations each worker issues per segment.
pub const SEGMENT_OPS: usize = 1024;

/// A segment normally takes milliseconds; one that takes this long is hung.
pub const SEGMENT_DEADLINE: Duration = Duration::from_secs(5);

/// Closed-loop workers per phase: the producer and consumer of the handoff
/// shape, or two key-value sessions.
pub const WORKERS: usize = 2;

/// How long a phase runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Measure for this long, after a warm-up of a tenth of it.
    Time(Duration),
    /// Exactly this many segments, all measured (for tests).
    #[cfg_attr(not(test), allow(dead_code))]
    Segments(usize),
}

/// What a phase runs its operations on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    Tm(RuntimeKind),
    /// The mutex-and-condvar buffer: the handoff shape with no TM at all.
    Pthreads,
}

/// The inputs of one phase.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSpec {
    pub workload: Workload,
    pub target: Target,
    pub seed: u64,
    pub budget: Budget,
    pub workers: usize,
    pub traced: bool,
}

/// One measured segment: operations completed in it, over its
/// barrier-to-barrier window.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    pub ops: u64,
    pub window_ns: u64,
}

impl Segment {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.window_ns as f64
    }
}

/// The measurements and final image of one phase, or of several phases of
/// one target merged.
pub struct PhaseResult {
    /// Seconds to build the system, heap and orec table and prefill them.
    pub setups: Vec<f64>,
    /// CPU seconds the hypervisor took from this machine while the
    /// workers ran.
    pub steal_s: f64,
    pub segments: Vec<Segment>,
    /// Segments left out because the hypervisor took CPU time during them.
    pub stolen_segments: u64,
    /// Closed-loop latency of every measured operation (untraced phases
    /// only).
    pub latency: Histogram,
    /// Span totals of the measured window (traced phases only).
    pub layers: Layers,
    /// Library counters over the measured window (TM phases only).
    pub stats: StatsSnapshot,
    /// Every operation issued, warm-up included, and those that failed.
    pub attempted: u64,
    pub failed: u64,
    pub image: Result<Image, String>,
}

/// Median of `values`; 0 when empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Figures pool every measured operation: throughput is measured
/// operations over measured time, and the latency quantiles are those of
/// all measured calls, so that a stall in a few segments shows.
impl PhaseResult {
    /// Folds a later phase of the same target into this one.
    pub fn absorb(&mut self, later: PhaseResult) {
        self.segments.extend(later.segments.iter().copied());
        self.stolen_segments += later.stolen_segments;
        self.latency.add(&later.latency);
        self.layers.add(&later.layers);
        self.stats = self.stats.merge(&later.stats);
        self.setups.extend(later.setups);
        self.steal_s += later.steal_s;
        self.attempted += later.attempted;
        self.failed += later.failed;
        if self.image.is_ok() {
            self.image = later.image;
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        let ops: u64 = self.segments.iter().map(|s| s.ops).sum();
        let window_ns: u64 = self.segments.iter().map(|s| s.window_ns).sum();
        ops as f64 * 1e9 / window_ns as f64
    }

    /// First quartile, median and third quartile of the segments'
    /// throughput: how evenly the measured time ran.
    pub fn segment_ops_per_s_quartiles(&self) -> [f64; 3] {
        let mut v: Vec<f64> = self.segments.iter().map(Segment::ops_per_s).collect();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => [0.0; 3],
            n => [v[n / 4], v[n / 2], v[(3 * n) / 4]],
        }
    }

    pub fn p50_us(&self) -> f64 {
        self.latency.quantile(0.50) / 1e3
    }

    pub fn p99_us(&self) -> f64 {
        self.latency.quantile(0.99) / 1e3
    }
}

/// Segment coordination shared by the workers and the watchdog.
struct Control {
    base: Instant,
    /// Nanoseconds since `base` at which the running segment started; 0
    /// between segments.
    seg_start: AtomicU64,
    stop: AtomicBool,
    go_on: AtomicBool,
    measure: AtomicBool,
    finished: AtomicUsize,
    thread_ids: Vec<AtomicUsize>,
    /// Whether segments with stolen time are left out (timed phases; the
    /// spans and counters of a traced phase still cover them).
    skip_stolen: bool,
    /// Steal ticks read just before the running segment started.
    steal_before: AtomicU64,
    /// Each worker's latency samples of the segment just finished.
    latencies: Vec<Mutex<Vec<u32>>>,
    seg_ops: AtomicU64,
    segments: Mutex<Vec<Segment>>,
    stolen_segments: AtomicU64,
    latency: Mutex<Histogram>,
    segments_run: AtomicUsize,
    orec_base: AtomicU64,
}

impl Control {
    fn now_ns(&self) -> u64 {
        (self.base.elapsed().as_nanos() as u64).max(1)
    }

    /// Closes the segment that started at `start` (leader only, both
    /// workers parked at the barrier).
    fn close_segment(&self, start: u64, measured: bool) {
        let window_ns = self.now_ns() - start;
        let ops = self.seg_ops.swap(0, Ordering::SeqCst);
        if !measured {
            return;
        }
        if self.skip_stolen && host::steal_ticks() != self.steal_before.load(Ordering::SeqCst) {
            self.stolen_segments.fetch_add(1, Ordering::SeqCst);
            return;
        }
        let mut latency = self.latency.lock().expect("a worker panicked");
        for slot in &self.latencies {
            for &ns in slot.lock().expect("a worker panicked").iter() {
                latency.record(ns);
            }
        }
        self.segments
            .lock()
            .expect("a worker panicked")
            .push(Segment { ops, window_ns });
    }
}

/// A barrier whose waiters spin instead of sleeping, so that both workers
/// leave it within a fraction of a microsecond and a segment's window holds
/// no futex wake-up.
struct SpinBarrier {
    workers: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(workers: usize) -> Self {
        SpinBarrier {
            workers,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Waits for every worker; true for exactly one of them, the last to
    /// arrive.
    fn wait(&self) -> bool {
        let generation = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == self.workers {
            self.arrived.store(0, Ordering::SeqCst);
            self.generation.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::SeqCst) == generation {
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                // Lets the watchdog (or a peer sharing the CPU) run.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        false
    }
}

/// What one worker hands back.
#[derive(Default)]
struct WorkerOut {
    layers: Layers,
    tally: Tally,
    attempted: u64,
    failed: u64,
}

/// What a phase's workers drive, built fresh for every phase.
enum Subject {
    Tm { rt: AnyRuntime, state: State },
    Pthreads(PthreadBuffer),
}

impl Subject {
    fn runtime(&self) -> Option<&AnyRuntime> {
        match self {
            Subject::Tm { rt, .. } => Some(rt),
            Subject::Pthreads(_) => None,
        }
    }
}

/// A worker's handle on the subject.
enum Exec<'a> {
    Tm {
        rt: &'a AnyRuntime,
        th: Arc<ThreadCtx>,
        state: &'a State,
    },
    Pthreads(&'a PthreadBuffer),
}

impl Exec<'_> {
    /// Runs `op` to completion; `None` if the stop flag cut it short.
    fn run(&self, op: Op, stop: &AtomicBool) -> Option<workload::Outcome> {
        let (rt, th, state) = match self {
            Exec::Tm { rt, th, state } => (rt, th, state),
            Exec::Pthreads(buf) => {
                let sum = match op {
                    Op::Produce(_, item) => {
                        buf.produce(item);
                        0
                    }
                    Op::Consume(_) => buf.consume(),
                    other => unreachable!("{other:?} on the pthreads buffer"),
                };
                return Some(workload::Outcome { hit: true, sum });
            }
        };
        let body = |tx: &mut dyn tm_core::Tx| {
            if stop.load(Ordering::Relaxed) {
                return Ok(None);
            }
            state.exec(op, tx).map(Some)
        };
        if op.read_only() {
            rt.atomically_read(th, body)
        } else {
            rt.atomically(th, body)
        }
    }

    /// [`Exec::run`] with every layer boundary stamped into `acc`.
    fn run_traced(
        &self,
        op: Op,
        stop: &AtomicBool,
        acc: &mut Layers,
    ) -> (Option<workload::Outcome>, Instant) {
        let Exec::Tm { rt, th, state } = self else {
            unreachable!("the pthreads control is never traced");
        };
        let mut spans = OpSpans::enter();
        let body = |tx: &mut dyn tm_core::Tx| {
            let entered = spans.body_enter(acc);
            let r = if stop.load(Ordering::Relaxed) {
                Ok(None)
            } else {
                let mut traced = Traced { inner: tx, acc };
                state.exec(op, &mut traced).map(Some)
            };
            spans.body_exit(entered, &r, acc);
            r
        };
        let out = if op.read_only() {
            rt.atomically_read(th, body)
        } else {
            rt.atomically(th, body)
        };
        (out, spans.leave(acc))
    }
}

fn worker(
    w: usize,
    exec: Exec<'_>,
    mut stream: OpStream,
    ctl: &Control,
    barrier: &SpinBarrier,
    spec: &PhaseSpec,
) -> WorkerOut {
    if let Exec::Tm { th, .. } = &exec {
        ctl.thread_ids[w].store(th.id, Ordering::Relaxed);
    }
    let mut out = WorkerOut::default();
    let mut ops = Vec::with_capacity(SEGMENT_OPS);
    let mut latencies: Vec<u32> = Vec::with_capacity(SEGMENT_OPS);
    let mut measuring = false;
    let phase_start = Instant::now();
    loop {
        ops.clear();
        ops.extend((0..SEGMENT_OPS).map(|_| stream.next_op()));
        latencies.clear();
        if w == 0 && ctl.skip_stolen {
            ctl.steal_before
                .store(host::steal_ticks(), Ordering::SeqCst);
        }
        if barrier.wait() {
            ctl.seg_start.store(ctl.now_ns(), Ordering::SeqCst);
        }
        let measure = ctl.measure.load(Ordering::SeqCst);
        if measure && !measuring {
            out.layers = Layers::default();
            measuring = true;
        }
        let mut completed = 0;
        let mut prev = Instant::now();
        for (i, &op) in ops.iter().enumerate() {
            if ctl.stop.load(Ordering::Relaxed) {
                let rest = (ops.len() - i) as u64;
                out.attempted += rest;
                out.failed += rest;
                break;
            }
            out.attempted += 1;
            let result = if spec.traced {
                let (r, now) = exec.run_traced(op, &ctl.stop, &mut out.layers);
                out.layers.interval_ns += (now - prev).as_nanos() as u64;
                prev = now;
                r
            } else {
                // The one clock read per operation: the gap between two
                // returns is the closed-loop latency of the second call.
                let r = exec.run(op, &ctl.stop);
                let now = Instant::now();
                if r.is_some() {
                    latencies.push((now - prev).as_nanos().min(u32::MAX as u128) as u32);
                }
                prev = now;
                r
            };
            match result {
                Some(o) => {
                    out.tally.note(op, o);
                    completed += 1;
                }
                None => out.failed += 1,
            }
        }
        ctl.seg_ops.fetch_add(completed, Ordering::SeqCst);
        std::mem::swap(
            &mut *ctl.latencies[w].lock().expect("the leader panicked"),
            &mut latencies,
        );
        if barrier.wait() {
            let start = ctl.seg_start.swap(0, Ordering::SeqCst);
            ctl.close_segment(start, measure);
            let segments = ctl.segments_run.fetch_add(1, Ordering::SeqCst) + 1;
            let elapsed = phase_start.elapsed();
            let (go_on, measure_next) = match spec.budget {
                // Runs on, for a while, until a segment was measured.
                Budget::Time(d) => (
                    elapsed < d
                        || (elapsed < 4 * d && ctl.segments.lock().expect("poisoned").is_empty()),
                    elapsed >= d / 10,
                ),
                Budget::Segments(n) => (segments < n, true),
            };
            if measure_next && !measure {
                if let Exec::Tm { rt, .. } = &exec {
                    // Both workers are parked at the barrier: no
                    // transaction runs while the counters restart.
                    rt.system().threads.reset_stats();
                    ctl.orec_base
                        .store(rt.system().stats().orec_cas_failures, Ordering::SeqCst);
                }
            }
            ctl.measure.store(measure_next, Ordering::SeqCst);
            let stop = ctl.stop.load(Ordering::SeqCst);
            ctl.go_on.store(go_on && !stop, Ordering::SeqCst);
        }
        barrier.wait();
        if !ctl.go_on.load(Ordering::SeqCst) {
            break;
        }
    }
    ctl.finished.fetch_add(1, Ordering::SeqCst);
    out
}

/// Runs one phase: builds a fresh system and state, runs the workers
/// under the watchdog, then checks the final state.
pub fn run_phase(spec: &PhaseSpec, streams: &[OpStream]) -> PhaseResult {
    let ctl = Control {
        base: Instant::now(),
        seg_start: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        go_on: AtomicBool::new(true),
        measure: AtomicBool::new(matches!(spec.budget, Budget::Segments(_))),
        finished: AtomicUsize::new(0),
        thread_ids: (0..spec.workers)
            .map(|_| AtomicUsize::new(usize::MAX))
            .collect(),
        skip_stolen: matches!(spec.budget, Budget::Time(_)),
        steal_before: AtomicU64::new(0),
        latencies: (0..spec.workers).map(|_| Mutex::new(Vec::new())).collect(),
        seg_ops: AtomicU64::new(0),
        segments: Mutex::new(Vec::new()),
        stolen_segments: AtomicU64::new(0),
        latency: Mutex::new(Histogram::default()),
        segments_run: AtomicUsize::new(0),
        orec_base: AtomicU64::new(0),
    };
    let barrier = SpinBarrier::new(spec.workers);

    let setup = Instant::now();
    let subject = match spec.target {
        Target::Tm(kind) => {
            let rt = kind.build(workload::config(spec.workload));
            let state = State::build(spec.workload, rt.system(), spec.seed);
            Subject::Tm { rt, state }
        }
        Target::Pthreads => {
            let buf = PthreadBuffer::new(HANDOFF_CAPACITY);
            buf.prefill(HANDOFF_CAPACITY / 2);
            Subject::Pthreads(buf)
        }
    };
    let setup_s = setup.elapsed().as_secs_f64();

    let steal_at_start = host::steal_s();
    let outs: Mutex<Vec<WorkerOut>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (w, stream) in streams.iter().enumerate().take(spec.workers) {
            let (ctl, barrier, outs, subject) = (&ctl, &barrier, &outs, &subject);
            let stream = stream.clone();
            scope.spawn(move || {
                let exec = match subject {
                    Subject::Tm { rt, state } => Exec::Tm {
                        rt,
                        th: rt.system().register_thread(),
                        state,
                    },
                    Subject::Pthreads(buf) => Exec::Pthreads(buf),
                };
                let out = worker(w, exec, stream, ctl, barrier, spec);
                outs.lock().expect("a worker panicked").push(out);
            });
        }
        watchdog(&ctl, spec.workers, subject.runtime());
    });

    let steal_s = host::steal_s() - steal_at_start;
    let outs = outs.into_inner().expect("a worker panicked");
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let (mut attempted, mut failed) = (0, 0);
    for o in &outs {
        layers.add(&o.layers);
        tally.add(&o.tally);
        attempted += o.attempted;
        failed += o.failed;
    }
    let interrupted = ctl.stop.load(Ordering::SeqCst);
    let (stats, image) = match &subject {
        Subject::Tm { rt, state } => {
            let mut stats = rt.system().stats();
            stats.orec_cas_failures -= ctl.orec_base.load(Ordering::SeqCst);
            (stats, state.check(rt, &tally, interrupted))
        }
        Subject::Pthreads(buf) => {
            let remaining: Vec<u64> = std::iter::from_fn(|| buf.try_consume()).collect();
            (
                StatsSnapshot::default(),
                workload::check_handoff(&tally, &remaining, interrupted),
            )
        }
    };
    PhaseResult {
        setups: vec![setup_s],
        steal_s,
        segments: ctl.segments.into_inner().expect("a worker panicked"),
        stolen_segments: ctl.stolen_segments.into_inner(),
        latency: ctl.latency.into_inner().expect("a worker panicked"),
        layers,
        stats,
        attempted,
        failed,
        image,
    }
}

fn watchdog(ctl: &Control, workers: usize, rt: Option<&AnyRuntime>) {
    while ctl.finished.load(Ordering::SeqCst) < workers {
        std::thread::sleep(Duration::from_millis(10));
        let start = ctl.seg_start.load(Ordering::SeqCst);
        if start != 0 && ctl.now_ns() - start > SEGMENT_DEADLINE.as_nanos() as u64 {
            ctl.stop.store(true, Ordering::SeqCst);
        }
        if let (true, Some(rt)) = (ctl.stop.load(Ordering::SeqCst), rt) {
            for id in &ctl.thread_ids {
                condsync::cancel_thread(rt.system(), id.load(Ordering::Relaxed));
            }
        }
    }
}
