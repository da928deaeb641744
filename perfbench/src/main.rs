//! End-to-end and per-layer benchmark of the four TM runtimes.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload handoff|kv_read|kv_write --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates the workload's operation stream from the seed and
//! runs it on the eager STM, the lazy STM, the HTM simulator and the hybrid
//! runtime in turn, each on a fresh `TmSystem`, with two closed-loop
//! worker threads.  `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs each runtime once untraced and once traced and reports
//! the per-layer split, plus the pthreads control.  Every phase's final
//! state is checked; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`, and the line before
//! it records the host, the run and each runtime's phases.
//!
//! Left out on purpose: the `Restart` baseline (on the eager STM it takes
//! seconds and millions of aborts for ten thousand items), the `TMCondVar`
//! and `Retry-Orig` baselines, and the PARSEC-like kernels, whose waits at
//! two threads are the handoff pattern again.

mod host;
mod latency;
mod runner;
mod trace;
mod workload;

use std::time::Duration;

use tm_workloads::RuntimeKind;

use runner::{median, Budget, PhaseResult, PhaseSpec, Target, WORKERS};
use workload::{OpStream, Workload};

/// Share of a traced run given to the pthreads control.
const CONTROL_SHARE: f64 = 0.1;

/// Turns each runtime gets in one run.  A phase's timing depends on where
/// its memory and threads land, so many short phases, each on a fresh
/// system, give a steadier figure than a few long ones.
const ROUNDS: usize = 16;

/// Turns each runtime gets in a traced run.
const TRACE_ROUNDS: usize = 2;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pins glibc's mmap threshold at its initial 128 KiB: every larger block
/// gets a mapping of its own, unmapped on free.  glibc otherwise raises the
/// threshold as large blocks are freed, after which whether a phase reuses
/// the previous phase's pages, or keeps a dead thread's arena resident,
/// changes from run to run; pinned, every phase's set-up pays for its own
/// pages, and `setup_s` and `peak_rss_mb` repeat.  The library runs under
/// the pin too, so a transaction that allocates blocks above 128 KiB pays
/// for a mapping each time; BENCHMARK.json says so.
fn fix_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only adjusts allocator parameters; it is called
        // before this process starts any thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 << 10);
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn short(kind: RuntimeKind) -> &'static str {
    match kind {
        RuntimeKind::EagerStm => "eager",
        RuntimeKind::LazyStm => "lazy",
        RuntimeKind::Htm => "htm",
        RuntimeKind::Hybrid => "hybrid",
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Metrics in output order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    host::json_str(n),
                    host::json_str(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The per-layer split of one runtime's traced phase.
fn layer_metrics(m: &mut Metrics, rt: &str, traced: &PhaseResult, untraced: &PhaseResult) {
    let l = &traced.layers;
    let s = &traced.stats;
    let commits = s.sw_commits + s.hw_commits;
    let per_op = |v: u64| ratio(v, l.ops);
    let unattributed = l.unattributed_ns() as f64 / l.ops.max(1) as f64;
    let rows = [
        ("driver.begin_ns", per_op(l.begin_ns), "ns"),
        ("driver.commit_ns", per_op(l.commit_ns), "ns"),
        ("driver.wait_ns", per_op(l.wait_ns), "ns"),
        ("driver.abort_gap_ns", per_op(l.abort_gap_ns), "ns"),
        ("driver.attempts_per_op", per_op(l.attempts), "count/op"),
        ("driver.commit_ratio", ratio(l.ops, l.attempts), "ratio"),
        (
            "abort.conflict_per_op",
            per_op(l.conflict_aborts),
            "count/op",
        ),
        ("abort.commit_per_op", per_op(l.commit_aborts), "count/op"),
        ("condsync.descheds_per_op", per_op(s.descheds), "count/op"),
        (
            "condsync.sleeps_per_desched",
            ratio(s.sleeps, s.descheds),
            "ratio",
        ),
        (
            "wake.checks_per_commit",
            ratio(s.wake_checks, commits),
            "ratio",
        ),
        (
            "wake.wakeups_per_check",
            ratio(s.wakeups, s.wake_checks),
            "ratio",
        ),
        (
            "wake.shard_scans_per_commit",
            ratio(s.wake_shard_scans, commits),
            "ratio",
        ),
        ("barrier.reads_per_op", per_op(l.reads), "count/op"),
        ("barrier.read_ns", ratio(l.read_ns, l.reads), "ns"),
        ("barrier.writes_per_op", per_op(l.writes), "count/op"),
        ("barrier.write_ns", ratio(l.write_ns, l.writes), "ns"),
        (
            "snapshot.ro_fast_ratio",
            ratio(s.ro_fast_commits, commits),
            "ratio",
        ),
        ("access.read_set_max", s.read_set_max as f64, "count"),
        ("clock.cas_per_commit", ratio(s.clock_cas, commits), "ratio"),
        (
            "orec.cas_failures_per_commit",
            ratio(s.orec_cas_failures, commits),
            "ratio",
        ),
        (
            "serial.acquires_per_kop",
            1000.0 * per_op(s.serial_acquires),
            "count/kop",
        ),
        ("heap.allocs_per_op", per_op(l.allocs), "count/op"),
        ("heap.alloc_ns", ratio(l.alloc_ns, l.allocs), "ns"),
        ("heap.free_ns", ratio(l.free_ns, l.frees), "ns"),
        (
            "heap.refills_per_alloc",
            ratio(s.heap_global_refills, s.heap_arena_allocs),
            "ratio",
        ),
        ("tm_sync.self_ns", per_op(l.tm_sync_self_ns()), "ns"),
        ("trace.unattributed_ns", unattributed, "ns"),
        (
            "trace.overhead",
            traced.ops_per_s() / untraced.ops_per_s(),
            "ratio",
        ),
    ];
    for (name, value, unit) in rows {
        m.put(format!("{name}.{rt}"), value, unit);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    fix_mmap_threshold();
    let host = host::describe();
    let steal_at_start = host::steal_s();
    let streams = |workload| -> Vec<OpStream> {
        (0..WORKERS)
            .map(|w| OpStream::new(workload, args.seed, w))
            .collect()
    };
    let (main_streams, control_streams) = (streams(args.workload), streams(Workload::Handoff));
    let phase = |workload, target, seconds: f64, traced| {
        let spec = PhaseSpec {
            workload,
            target,
            seed: args.seed,
            budget: Budget::Time(Duration::from_secs_f64(seconds)),
            workers: WORKERS,
            traced,
        };
        let streams = match target {
            Target::Pthreads => &control_streams,
            Target::Tm(_) => &main_streams,
        };
        runner::run_phase(&spec, streams)
    };

    // Runtimes take turns in short phases, round after round, each phase
    // on a fresh system, so that a stretch of interference from outside
    // the benchmark lands on every runtime instead of on one.
    let mut phases: Vec<(String, Vec<PhaseResult>)> = Vec::new();
    let mut record =
        |name: String, r: PhaseResult| match phases.iter_mut().find(|(n, _)| *n == name) {
            Some((_, list)) => list.push(r),
            None => phases.push((name, vec![r])),
        };
    let phases_per_round = RuntimeKind::ALL.len() * if args.trace { 2 } else { 1 };
    let tm_share = if args.trace { 1.0 - CONTROL_SHARE } else { 1.0 };
    // The per-layer split needs sums and counts, not steady end-to-end
    // figures, so a traced run spends its time in fewer, longer phases.
    let rounds = if args.trace { TRACE_ROUNDS } else { ROUNDS };
    let per_phase = args.seconds * tm_share / (rounds * phases_per_round) as f64;
    for _ in 0..rounds {
        for kind in RuntimeKind::ALL {
            let rt = short(kind);
            let w = args.workload;
            record(rt.to_string(), phase(w, Target::Tm(kind), per_phase, false));
            if args.trace {
                record(
                    format!("{rt}.traced"),
                    phase(w, Target::Tm(kind), per_phase, true),
                );
            }
        }
        if args.trace {
            // The handoff shape on a mutex and two condvars: no TM change
            // can move it, so it shows machine drift beside any claim.
            let seconds = args.seconds * CONTROL_SHARE / rounds as f64;
            let control = phase(Workload::Handoff, Target::Pthreads, seconds, false);
            record("pthreads".into(), control);
        }
    }

    let results: Vec<(String, PhaseResult)> = phases
        .into_iter()
        .map(|(name, list)| {
            let mut list = list.into_iter();
            let mut merged = list.next().expect("every target ran");
            list.for_each(|r| merged.absorb(r));
            (name, merged)
        })
        .collect();

    let mut metrics = Metrics::default();
    let find = |name: &str| {
        &results
            .iter()
            .find(|(n, _)| n == name)
            .expect("every target ran")
            .1
    };
    if args.trace {
        for kind in RuntimeKind::ALL {
            let rt = short(kind);
            layer_metrics(&mut metrics, rt, find(&format!("{rt}.traced")), find(rt));
        }
        metrics.put(
            "control.pthreads_ops_per_s",
            find("pthreads").ops_per_s(),
            "1/s",
        );
    } else {
        for kind in RuntimeKind::ALL {
            let rt = short(kind);
            let r = find(rt);
            metrics.put(format!("ops_per_s.{rt}"), r.ops_per_s(), "1/s");
            metrics.put(format!("p50_us.{rt}"), r.p50_us(), "us");
            metrics.put(format!("p99_us.{rt}"), r.p99_us(), "us");
        }
        let setups = results
            .iter()
            .flat_map(|(_, r)| r.setups.iter().copied())
            .collect();
        metrics.put("setup_s", median(setups), "s");
        metrics.put("peak_rss_mb", host::peak_rss_mb(), "MB");
    }

    let attempted: u64 = results.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = results.iter().map(|(_, r)| r.failed).sum();
    let mut errors = Vec::new();
    let phases: Vec<String> = results
        .iter()
        .map(|(name, r)| {
            if let Err(e) = &r.image {
                errors.push(format!("{name}: {e}"));
            }
            let ops: u64 = r.segments.iter().map(|s| s.ops).sum();
            let window_ns: u64 = r.segments.iter().map(|s| s.window_ns).sum();
            let [q1, q2, q3] = r.segment_ops_per_s_quartiles();
            format!(
                "{}: {{\"phases\": {}, \"steal_s\": {}, \"segments\": {}, \"stolen_segments\": {}, \"segment_ops_per_s_q1_q2_q3\": [{q1}, {q2}, {q3}], \"measured_ops\": {ops}, \"latency_samples\": {}, \"window_s\": {}, \"setup_s\": {}, \"attempted\": {}, \"failed\": {}}}",
                host::json_str(name),
                r.setups.len(),
                r.steal_s,
                r.segments.len(),
                r.stolen_segments,
                r.latency.len(),
                window_ns as f64 / 1e9,
                median(r.setups.clone()),
                r.attempted,
                r.failed
            )
        })
        .collect();
    println!(
        "{{\"host\": {{{host}}}, \"run\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workers\": {WORKERS}, \"steal_s\": {}}}, \"phases\": {{{}}}}}",
        host::json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace as u8,
        host::steal_s() - steal_at_start,
        phases.join(", ")
    );
    let correct = errors.is_empty();
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let metrics_json = if correct { metrics.json() } else { "{}".into() };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics_json}}}",
        attempted.max(1)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_worker(workload: Workload, kind: RuntimeKind, traced: bool) -> PhaseResult {
        let spec = PhaseSpec {
            workload,
            target: Target::Tm(kind),
            seed: 7,
            budget: Budget::Segments(2),
            workers: 1,
            traced,
        };
        runner::run_phase(&spec, &[OpStream::new(workload, spec.seed, 0)])
    }

    /// The forwarding `Tx` changes nothing but time: with one worker and a
    /// fixed seed, a traced and an untraced run end in the same store
    /// image, and the traced counts repeat exactly.
    #[test]
    fn tracing_changes_nothing_but_time() {
        for workload in [Workload::KvRead, Workload::KvWrite] {
            for kind in RuntimeKind::ALL {
                let plain = one_worker(workload, kind, false);
                let a = one_worker(workload, kind, true);
                let b = one_worker(workload, kind, true);
                let image = plain.image.expect("untraced check");
                assert!(image.entries > 0);
                assert_eq!(Ok(&image), a.image.as_ref(), "{workload:?} {kind}");
                assert_eq!(Ok(&image), b.image.as_ref(), "{workload:?} {kind}");
                let ops: u64 = plain.segments.iter().map(|s| s.ops).sum();
                assert_eq!(ops, a.layers.ops, "{workload:?} {kind}");
                let counts = |r: &PhaseResult| (r.layers.reads, r.layers.allocs, r.layers.attempts);
                assert_eq!(counts(&a), counts(&b), "{workload:?} {kind}");
                assert!(
                    a.layers.reads > a.layers.ops,
                    "{workload:?} {kind}: no reads traced"
                );
            }
        }
    }

    /// A producer with no consumer fills the buffer and then sleeps for
    /// good: the watchdog must turn that into failed operations, and the
    /// conservation check must still hold.
    #[test]
    fn a_stuck_segment_fails_its_operations_instead_of_hanging() {
        let spec = PhaseSpec {
            workload: Workload::Handoff,
            target: Target::Tm(RuntimeKind::EagerStm),
            seed: 3,
            budget: Budget::Segments(1),
            workers: 1,
            traced: false,
        };
        let r = runner::run_phase(&spec, &[OpStream::new(Workload::Handoff, 3, 0)]);
        let room = (workload::HANDOFF_CAPACITY / 2) as u64;
        assert_eq!(r.attempted, runner::SEGMENT_OPS as u64);
        assert_eq!(r.failed, runner::SEGMENT_OPS as u64 - room);
        r.image
            .expect("conservation holds after an interrupted segment");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
