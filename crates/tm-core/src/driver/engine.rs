//! The [`TxEngine`] trait: the narrow interface a transaction runtime must
//! implement to plug into the shared driver loop ([`super::run`]).
//!
//! A runtime supplies begin/commit/rollback plus the two
//! condition-synchronization hooks that genuinely differ between designs —
//! how a wait condition is materialised during rollback, and whether an
//! attempt has the lock metadata `Retry-Orig` publishes — and inherits the
//! whole retry/abort/deschedule state machine along with the public
//! [`crate::TmRuntime`] / [`crate::TmRt`] entry points.  The mode-policy
//! hooks' defaults encode the software-STM behaviour; the HTM simulator and
//! the hybrid runtime override them to express their mode ladders.

use std::sync::Arc;

use crate::ctl::{TxCtl, WaitCondition, WaitSpec};
use crate::system::TmSystem;
use crate::tx::{Tx, TxCommon, TxMode};
use crate::waitlist::WakeSet;

/// What a successful commit tells the driver loop.
///
/// One shape serves every runtime: the software STMs report the ownership
/// records they locked (feeding both the `Retry-Orig` intersection test and
/// the targeted `wakeWaiters` scan), while hardware commits — whose write
/// sets are architecturally invisible — report the stripes covered by their
/// committed cache lines, which the simulator *can* observe.
#[derive(Debug, Clone, Default)]
pub struct CommitOutcome {
    /// True if the transaction performed any write.
    pub was_writer: bool,
    /// True if the attempt committed in (simulated) hardware.
    pub hardware: bool,
    /// True if the attempt committed while holding the system's
    /// [`crate::serial::SerialGate`].  Serial commits carry no write-set
    /// metadata, so [`CommitOutcome::wake_set`] is the conservative
    /// scan-everything set for them.
    pub serial: bool,
    /// Ownership-record stripe indices covering the commit's write set: the
    /// lock set for software commits, the stripes of the written cache lines
    /// (a superset of the written words' stripes) for hardware commits.
    /// Empty for read-only and serial commits.  Every non-serial writer
    /// commit must report a complete cover: the wake path scans only these
    /// stripes, so a missed one loses wakeups.
    pub written_orecs: Vec<usize>,
    /// The commit timestamp (global-clock value); 0 when no clock was
    /// ticked (read-only and hardware commits).
    pub commit_time: u64,
}

impl CommitOutcome {
    /// A read-only commit (no wake-ups required).
    pub fn read_only() -> Self {
        CommitOutcome::default()
    }

    /// A software writer commit with its lock set and timestamp.
    pub fn software_writer(written_orecs: Vec<usize>, commit_time: u64) -> Self {
        CommitOutcome {
            was_writer: true,
            hardware: false,
            serial: false,
            written_orecs,
            commit_time,
        }
    }

    /// A (simulated) hardware commit.  `line_stripes` are the ownership-
    /// record stripes covered by the committed cache lines (empty for
    /// read-only commits), which the targeted wake path uses in place of the
    /// architecturally invisible word-level write set.
    pub fn hardware(was_writer: bool, line_stripes: Vec<usize>) -> Self {
        CommitOutcome {
            was_writer,
            hardware: true,
            serial: false,
            written_orecs: line_stripes,
            commit_time: 0,
        }
    }

    /// A serial-mode commit (software-visible, but no metadata at all: the
    /// wake path must scan conservatively).
    pub fn serial(was_writer: bool) -> Self {
        CommitOutcome {
            was_writer,
            hardware: false,
            serial: true,
            written_orecs: Vec::new(),
            commit_time: 0,
        }
    }

    /// The waiter-registry shards this writer commit must scan: every
    /// shard after a serial commit, whose write set is unknown, otherwise
    /// the shards of the reported write-set stripes.
    pub fn wake_set(&self) -> WakeSet {
        if self.serial {
            WakeSet::All
        } else {
            WakeSet::Stripes(self.written_orecs.clone())
        }
    }
}

/// The engine interface between a transaction runtime and the shared driver
/// loop.
///
/// Implementations are thin: they construct attempts and expose the
/// per-design commit/rollback/materialise primitives.  Everything that used
/// to be copied between the four runtimes — re-execution, abort-reason
/// dispatch, `Retry` value-log restarts, the deschedule hand-off,
/// post-commit `wakeWaiters`, the `Retry-Orig` waiting list and the
/// [`crate::TmRuntime`] / [`crate::TmRt`] entry points — is written once in
/// this crate instead.
pub trait TxEngine: Send + Sync + Sized {
    /// The attempt descriptor; may borrow the engine (as the HTM simulator's
    /// does).
    type Tx<'eng>: Tx
    where
        Self: 'eng;

    /// The system this engine executes against.
    fn system(&self) -> &Arc<TmSystem>;

    /// Short name used in benchmark output (see [`crate::TmRuntime::name`]).
    fn name(&self) -> &'static str;

    /// Begins a fresh attempt with the given per-attempt metadata.
    fn begin(&self, common: TxCommon) -> Self::Tx<'_>;

    /// Attempts to commit.  On `Err` the driver rolls the attempt back and
    /// dispatches on the control request.
    fn try_commit(&self, tx: &mut Self::Tx<'_>) -> Result<CommitOutcome, TxCtl>;

    /// Rolls the attempt back completely.
    fn rollback(&self, tx: &mut Self::Tx<'_>);

    /// Rolls the attempt back *and* captures the condition the thread wants
    /// to sleep on, consistently with the aborted attempt's view of memory.
    ///
    /// `Err` means the condition could not be captured consistently; the
    /// attempt is already rolled back and the driver simply re-executes.
    fn materialise_wait(
        &self,
        tx: &mut Self::Tx<'_>,
        spec: WaitSpec,
    ) -> Result<WaitCondition, TxCtl>;

    /// The execution mode of the first attempt.
    fn initial_mode(&self) -> TxMode {
        TxMode::Software
    }

    /// True while `tx` is a speculative (hardware) attempt.
    fn attempt_is_hardware(&self, tx: &Self::Tx<'_>) -> bool {
        let _ = tx;
        false
    }

    /// The lock metadata the `Retry-Orig` baseline (Algorithm 1) publishes
    /// for `tx`: the ownership-record stripes covering its read set, sorted
    /// and deduplicated, and the clock value it began at.
    ///
    /// `None` when the attempt has no such metadata — hardware and serial
    /// attempts, and software attempts on the snapshot read path, which
    /// keep no read set.  The driver then falls back to value-based `Retry`.
    fn read_cover(&self, tx: &mut Self::Tx<'_>) -> Option<(Vec<usize>, u64)> {
        let _ = tx;
        None
    }

    /// The mode to re-execute in after returning from a deschedule (whether
    /// the thread slept or skipped the sleep).  Hardware engines restart
    /// speculatively; software engines drop back to plain instrumentation.
    fn mode_after_wake(&self) -> TxMode {
        TxMode::Software
    }

    /// The mode to re-execute in after a `SwitchToSoftware` request (or a
    /// hardware attempt that needs software facilities, e.g. escape actions
    /// for descheduling) in `current` mode.  Software engines just
    /// re-execute; the HTM simulator escalates to the serial fallback; the
    /// hybrid runtime drops from hardware to its instrumented STM path.
    fn mode_for_software_switch(&self, current: TxMode) -> TxMode {
        current
    }

    /// One rung up this engine's mode ladder from `current`, taken when the
    /// contention policy requests escalation
    /// ([`crate::policy::CmAction::escalate`]).
    ///
    /// The default — and every software engine's answer — is the
    /// guaranteed-progress [`TxMode::Serial`] path behind the system's
    /// [`crate::serial::SerialGate`]; the hybrid runtime interposes its
    /// software STM rung first (hardware → software → serial).
    fn escalated_mode(&self, current: TxMode) -> TxMode {
        let _ = current;
        TxMode::Serial
    }
}
