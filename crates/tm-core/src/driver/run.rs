//! The one driver loop shared by every runtime.
//!
//! Before this module existed each runtime crate hand-rolled a near-identical
//! ~100-line loop (begin → body → commit/abort → deschedule materialisation →
//! `wakeWaiters` → backoff).  [`run`] is that loop, written once against
//! [`TxEngine`]; the state machine it owns is:
//!
//! ```text
//!            begin(mode) ── body ── try_commit ──ok──▶ wakeWaiters ─▶ return
//!                ▲                      │
//!                │                      ▼ TxCtl
//!   backoff ◀─ Abort            Deschedule(spec)            SwitchToSoftware
//!                │                      │                         │
//!                │     hardware attempt │ software attempt        ▼
//!                │      relog / serial  │ orig | relog → sleep   mode ladder
//!                └──────────────────────┴─────────────────────────┘
//! ```
//!
//! The deschedule hand-off ([`super::deschedule`]), the `Retry-Orig` sleep
//! ([`crate::orig::sleep_until_intersection`]) and the post-commit wake-ups
//! of both waiting lists are called from here and *only* here, so every
//! runtime picks up the paper's whole condition-synchronization protocol by
//! implementing the engine trait.

use std::sync::Arc;
use std::time::Instant;

use crate::backoff::Backoff;
use crate::ctl::{AbortReason, TxCtl, TxResult, WaitSpec};
use crate::orig;
use crate::policy::{CmEvent, CmHistory};
use crate::stats::TxStats;
use crate::thread::ThreadCtx;
use crate::tx::{Tx, TxCommon, TxKind, TxMode};
use crate::waitlist::WakeReason;

use super::engine::TxEngine;
use super::wake;

/// Moves the transaction to `next` mode, counting the change (the
/// `mode_switches` statistic tracks every attempt-to-attempt mode change:
/// ladder escalations, relogs, and post-wake resets alike).
fn switch_mode(mode: &mut TxMode, next: TxMode, thread: &ThreadCtx) {
    if *mode != next {
        TxStats::bump(&thread.stats.mode_switches);
        *mode = next;
    }
}

/// Runs `body` as a transaction on `engine` until it commits, handling
/// re-execution, mode switching, contention management, descheduling and
/// post-commit wake-ups.
pub fn run<E, T, F>(engine: &E, thread: &Arc<ThreadCtx>, body: F) -> T
where
    E: TxEngine,
    F: FnMut(&mut dyn Tx) -> TxResult<T>,
{
    run_kind(engine, thread, TxKind::Update, body)
}

/// [`run`] with an explicit transaction kind.
///
/// A [`TxKind::ReadOnly`] transaction runs software attempts on the snapshot
/// read path (no read set, validation-free commit — see
/// [`crate::config::SnapshotMode`]).  If the body writes, the attempt aborts
/// with [`AbortReason::ReadOnlyWrite`] and is upgraded here to a full
/// [`TxKind::Update`] transaction — re-executed immediately, with no
/// contention management or backoff, since the abort carries no conflict
/// information.  A read-only attempt that deschedules is first re-executed
/// as a logged ([`TxMode::SoftwareRetry`]) attempt so the value-based and
/// Retry-Orig wait mechanisms see a real read set.
pub fn run_kind<E, T, F>(engine: &E, thread: &Arc<ThreadCtx>, kind: TxKind, mut body: F) -> T
where
    E: TxEngine,
    F: FnMut(&mut dyn Tx) -> TxResult<T>,
{
    // Backoff jitter comes from the thread's private RNG (seeded from its
    // id): no shared seed line, and each thread's jitter sequence is
    // deterministic.  Seeds only need to differ across concurrently running
    // transactions.
    let seed = thread.next_backoff_seed();
    let mut backoff = Backoff::new(engine.system().config.backoff, seed);
    let mut mode = engine.initial_mode();
    // The declared kind decides which latency class the transaction reports
    // to; the *current* kind may be upgraded to `Update` mid-flight.
    let declared_ro = kind == TxKind::ReadOnly;
    let started = Instant::now();
    let mut kind = kind;
    // Abort history for the contention policy, reset when a deschedule ends
    // the contention episode (and by policies when they escalate).
    let mut history = CmHistory::default();
    let mut attempts: u32 = 0;
    // How the most recent deschedule of this transaction ended.  Handed to
    // every subsequent attempt through `TxCommon::wake_reason`, so a timed
    // wait's body can observe `Timeout` / `Cancelled` after it is
    // re-executed and give up instead of waiting again.  Sticky across
    // conflict aborts (the fact that the wait timed out is not undone by a
    // failed re-execution attempt); overwritten by the next deschedule;
    // scoped to this `run` call, so the flag never leaks into a later
    // transaction.
    let mut pending_wake: Option<WakeReason> = None;

    loop {
        let mut common = TxCommon::new(Arc::clone(thread), mode, attempts).with_kind(kind);
        common.wake_reason = pending_wake;
        let mut tx = engine.begin(common);
        let ctl = match body(&mut tx) {
            Ok(value) => match engine.try_commit(&mut tx) {
                Ok(outcome) => {
                    // Release attempt-held resources (e.g. the HTM serial
                    // lock's bookkeeping) before running wake-up transactions.
                    drop(tx);
                    if outcome.hardware {
                        TxStats::bump(&thread.stats.hw_commits);
                    } else {
                        TxStats::bump(&thread.stats.sw_commits);
                    }
                    if outcome.serial {
                        TxStats::bump(&thread.stats.serial_commits);
                    }
                    if kind == TxKind::ReadOnly && outcome.hardware && !outcome.was_writer {
                        // Hardware commits of a declared-read-only
                        // transaction that wrote nothing are free the same
                        // way software snapshot commits are (which count
                        // themselves in the engines).
                        TxStats::bump(&thread.stats.ro_fast_commits);
                    }
                    let hist = if declared_ro {
                        &thread.stats.ro_tx_latency
                    } else {
                        &thread.stats.update_tx_latency
                    };
                    let elapsed_nanos = started.elapsed().as_nanos() as u64;
                    hist.record(elapsed_nanos);
                    if let Some(class) = thread.op_class() {
                        // Workload-declared operation class: the same
                        // whole-operation latency (retries, backoff and
                        // upgrades included) also lands in the class's own
                        // histogram, so reports can show tail latency per
                        // get/put/delete/scan rather than per commit kind.
                        thread.stats.op_histogram(class).record(elapsed_nanos);
                    }
                    if outcome.was_writer {
                        // Post-commit wake-ups: the paper's value-based
                        // mechanism, targeted at the shards covering the
                        // commit's write-set stripes, then the Retry-Orig
                        // sleepers whose read locks intersect them.  Both
                        // lists check for emptiness first, so the common
                        // no-sleeper case pays one atomic load each —
                        // building the wake set clones the commit's stripe
                        // list, which would be wasted work.  A waiter
                        // registering after this check is covered by its
                        // own double-check, which runs after our
                        // (completed) commit.
                        let system = engine.system();
                        if !system.waiters.is_empty() {
                            wake::wake_waiters_matching(engine, thread, &outcome.wake_set());
                        }
                        system.orig.wake_for_commit(thread, &outcome);
                    }
                    return value;
                }
                Err(ctl) => ctl,
            },
            Err(ctl) => ctl,
        };

        attempts += 1;
        let hardware_attempt = engine.attempt_is_hardware(&tx);
        let ctl = match ctl {
            // Retry-Orig (Algorithm 1): an attempt with lock metadata
            // publishes its read-lock cover on the system's waiting list and
            // sleeps until a writer commit intersects it.  Attempts without
            // any — hardware and serial attempts, and snapshot attempts,
            // which keep no read set — approximate it with value-based
            // Retry: relog, then deschedule on the value log.
            TxCtl::Deschedule(WaitSpec::OrigReadLocks) => match engine.read_cover(&mut tx) {
                Some((read_orecs, start)) => {
                    engine.rollback(&mut tx);
                    drop(tx);
                    orig::sleep_until_intersection(engine.system(), thread, read_orecs, start);
                    // The Retry-Orig baseline has no deadline support; its
                    // sleeps always end as plain wake-ups.
                    pending_wake = Some(WakeReason::Woken);
                    switch_mode(&mut mode, TxMode::Software, thread);
                    continue;
                }
                None => TxCtl::Deschedule(WaitSpec::ReadSetValues),
            },
            ctl => ctl,
        };
        match ctl {
            TxCtl::Abort(reason) => {
                engine.rollback(&mut tx);
                drop(tx);
                if hardware_attempt {
                    TxStats::bump(&thread.stats.hw_aborts);
                } else {
                    TxStats::bump(&thread.stats.sw_aborts);
                }
                if let AbortReason::Explicit(_) = reason {
                    // Program-requested restarts (the Restart baseline) are
                    // control flow, not contention: re-execute immediately
                    // and feed nothing to the policy.
                    TxStats::bump(&thread.stats.explicit_aborts);
                } else if reason == AbortReason::ReadOnlyWrite {
                    // The declared-read-only body wrote: upgrade to a full
                    // update transaction and re-execute immediately.  Like
                    // explicit aborts this is control flow, not contention —
                    // nothing conflicted, so the policy sees nothing.
                    TxStats::bump(&thread.stats.ro_upgrades);
                    kind = TxKind::Update;
                } else {
                    // Everything else is the contention manager's call:
                    // back off, re-execute immediately, or climb one rung
                    // of the engine's mode ladder (hardware → software →
                    // serial) so the transaction is guaranteed to finish.
                    let event = CmEvent {
                        reason,
                        hardware: hardware_attempt,
                        mode,
                        hw_budget: engine.system().config.htm.max_attempts,
                    };
                    history.note(&event);
                    let action = engine.system().policy().on_abort(&mut history, &event);
                    if action.escalate {
                        TxStats::bump(&thread.stats.cm_escalations);
                        let next = engine.escalated_mode(mode);
                        switch_mode(&mut mode, next, thread);
                    }
                    if action.backoff {
                        // A thread about to spin has time to spare: advance
                        // the lazily driven timer wheel so timed waiters are
                        // expired promptly even when no writer is
                        // committing.  One atomic load when no timer is
                        // armed.
                        wake::poll_timers(engine, thread);
                        // Jittered exponential backoff (capped via
                        // `BackoffConfig`): the one wait policy for every
                        // contention-class abort, rather than ad-hoc
                        // spinning.
                        backoff.abort_and_wait();
                    }
                }
            }
            TxCtl::Deschedule(spec) if hardware_attempt => {
                // No escape actions in hardware: abort and re-execute in a
                // software mode, value-logging if the request was a Retry
                // (§2.2.3).  Which software mode exists is the engine's
                // call: the pure HTM simulator only has the serial
                // fallback, the hybrid runtime has a real STM path.
                engine.rollback(&mut tx);
                drop(tx);
                TxStats::bump(&thread.stats.hw_aborts);
                let next = match spec {
                    WaitSpec::ReadSetValues => {
                        TxStats::bump(&thread.stats.retry_relogs);
                        TxMode::SoftwareRetry
                    }
                    _ => engine.mode_for_software_switch(mode),
                };
                switch_mode(&mut mode, next, thread);
            }
            TxCtl::Deschedule(WaitSpec::ReadSetValues) if mode != TxMode::SoftwareRetry => {
                // Retry was called before the value log existed: restart in
                // value-logging mode (Algorithm 5, lines 2–5).  This also
                // covers the first attempt after waking up, and serial
                // attempts (whose direct reads are never value-logged).
                engine.rollback(&mut tx);
                drop(tx);
                TxStats::bump(&thread.stats.retry_relogs);
                switch_mode(&mut mode, TxMode::SoftwareRetry, thread);
            }
            TxCtl::Deschedule(spec) => {
                // The deadline (if any) was stashed in the attempt metadata
                // by the timed construct (`retry_for` & friends); read it
                // before the attempt is dropped.
                let deadline = tx.common().wait_deadline;
                match engine.materialise_wait(&mut tx, spec) {
                    Ok(cond) => {
                        drop(tx);
                        let outcome = wake::deschedule_until(engine, thread, cond, deadline);
                        pending_wake = Some(outcome.reason());
                    }
                    Err(_) => {
                        // The wait condition could not be captured
                        // consistently: treat it as an ordinary abort.
                        drop(tx);
                        TxStats::bump(&thread.stats.sw_aborts);
                        backoff.abort_and_wait();
                    }
                }
                // After waking, restart plainly; Retry will re-request value
                // logging if it trips again (the paper resets `is_retry` the
                // same way).  The sleep also ended whatever contention burst
                // the attempt saw, so the backoff window and the policy's
                // abort history start over.
                switch_mode(&mut mode, engine.mode_after_wake(), thread);
                history.reset();
                backoff.reset();
            }
            TxCtl::SwitchToSoftware => {
                engine.rollback(&mut tx);
                drop(tx);
                let next = engine.mode_for_software_switch(mode);
                switch_mode(&mut mode, next, thread);
            }
            TxCtl::BecomeSerial => {
                // Irrevocability on request: every engine honors the
                // system-wide serial gate, so this works identically on the
                // STMs, the HTM simulator and the hybrid runtime.
                engine.rollback(&mut tx);
                drop(tx);
                switch_mode(&mut mode, TxMode::Serial, thread);
            }
        }
    }
}
