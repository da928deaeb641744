//! The traced run: spans recorded from the benchmark's own side of each
//! layer boundary, with no tracing inside the library.
//!
//! [`Traced`] is a forwarding [`Tx`] that times every call a `tm-sync`
//! structure makes into the runtime's barriers (`read`/`write`) and into
//! the heap (`alloc`/`free`).  [`OpSpans`] stamps the driver boundaries the
//! benchmark can see from outside `TmRt::atomically`: call entry, every
//! body entry and exit, and call return.  Because those stamps chain, the
//! driver spans (begin, commit, waits, abort gaps) plus the body time
//! account for the whole call; the body time splits further into barrier,
//! heap and `tm_sync` self time.

use std::sync::Arc;
use std::time::Instant;

use tm_core::{Addr, TmSystem, Tx, TxCommon, TxCtl, TxResult};

/// Per-layer time (ns) and event counts accumulated by one worker.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    /// Completed operations.
    pub ops: u64,
    /// Body executions (attempts).
    pub attempts: u64,
    /// Bodies that returned `TxCtl::Abort`.
    pub conflict_aborts: u64,
    /// Bodies that returned `Ok` and were executed again (commit failed).
    pub commit_aborts: u64,
    pub begin_ns: u64,
    pub commit_ns: u64,
    pub wait_ns: u64,
    pub abort_gap_ns: u64,
    pub body_ns: u64,
    pub reads: u64,
    pub read_ns: u64,
    pub writes: u64,
    pub write_ns: u64,
    pub allocs: u64,
    pub alloc_ns: u64,
    pub frees: u64,
    pub free_ns: u64,
    /// Closed-loop time between consecutive call returns, summed.
    pub interval_ns: u64,
}

impl Layers {
    /// Adds `other`'s totals.
    pub fn add(&mut self, o: &Layers) {
        self.ops += o.ops;
        self.attempts += o.attempts;
        self.conflict_aborts += o.conflict_aborts;
        self.commit_aborts += o.commit_aborts;
        self.begin_ns += o.begin_ns;
        self.commit_ns += o.commit_ns;
        self.wait_ns += o.wait_ns;
        self.abort_gap_ns += o.abort_gap_ns;
        self.body_ns += o.body_ns;
        self.reads += o.reads;
        self.read_ns += o.read_ns;
        self.writes += o.writes;
        self.write_ns += o.write_ns;
        self.allocs += o.allocs;
        self.alloc_ns += o.alloc_ns;
        self.frees += o.frees;
        self.free_ns += o.free_ns;
        self.interval_ns += o.interval_ns;
    }

    /// Body time spent in neither the barriers nor the heap: the
    /// data structure's own code.
    pub fn tm_sync_self_ns(&self) -> u64 {
        self.body_ns
            .saturating_sub(self.read_ns + self.write_ns + self.alloc_ns + self.free_ns)
    }

    /// Closed-loop time not covered by any layer span (the benchmark's
    /// own per-operation bookkeeping between calls).
    pub fn unattributed_ns(&self) -> i64 {
        let spans =
            self.begin_ns + self.commit_ns + self.wait_ns + self.abort_gap_ns + self.body_ns;
        self.interval_ns as i64 - spans as i64
    }
}

fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Forwards every call to the runtime's handle, timing the barrier and
/// heap calls.  Changes nothing but time: the determinism test checks that
/// a traced and an untraced run end in the same store image.
pub struct Traced<'a> {
    pub inner: &'a mut dyn Tx,
    pub acc: &'a mut Layers,
}

impl Tx for Traced<'_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        let t = Instant::now();
        let r = self.inner.read(addr);
        self.acc.read_ns += since(t);
        self.acc.reads += 1;
        r
    }

    fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        let t = Instant::now();
        let r = self.inner.write(addr, val);
        self.acc.write_ns += since(t);
        self.acc.writes += 1;
        r
    }

    fn read_for_write(&mut self, addr: Addr) -> TxResult<u64> {
        let t = Instant::now();
        let r = self.inner.read_for_write(addr);
        self.acc.read_ns += since(t);
        self.acc.reads += 1;
        r
    }

    fn alloc(&mut self, words: usize) -> TxResult<Addr> {
        let t = Instant::now();
        let r = self.inner.alloc(words);
        self.acc.alloc_ns += since(t);
        self.acc.allocs += 1;
        r
    }

    fn free(&mut self, addr: Addr, words: usize) -> TxResult<()> {
        let t = Instant::now();
        let r = self.inner.free(addr, words);
        self.acc.free_ns += since(t);
        self.acc.frees += 1;
        r
    }

    fn commit_and_reopen(&mut self, block: &mut dyn FnMut()) -> TxResult<()> {
        self.inner.commit_and_reopen(block)
    }

    fn explicit_abort(&mut self, code: u8) -> TxCtl {
        self.inner.explicit_abort(code)
    }

    fn common(&self) -> &TxCommon {
        self.inner.common()
    }

    fn common_mut(&mut self) -> &mut TxCommon {
        self.inner.common_mut()
    }

    fn system(&self) -> &Arc<TmSystem> {
        self.inner.system()
    }
}

/// How the previous body execution of the current call ended.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Exit {
    None,
    Ok,
    Abort,
    Deschedule,
    Other,
}

/// Driver-boundary stamps for one `atomically` call.
pub struct OpSpans {
    entry: Instant,
    last_exit_at: Instant,
    last_exit: Exit,
}

impl OpSpans {
    /// Stamps call entry.
    pub fn enter() -> Self {
        let now = Instant::now();
        OpSpans {
            entry: now,
            last_exit_at: now,
            last_exit: Exit::None,
        }
    }

    /// Stamps a body entry and charges the gap before it: begin for the
    /// first attempt, wait after a deschedule, abort gap otherwise.
    pub fn body_enter(&mut self, acc: &mut Layers) -> Instant {
        let now = Instant::now();
        acc.attempts += 1;
        match self.last_exit {
            Exit::None => acc.begin_ns += (now - self.entry).as_nanos() as u64,
            Exit::Deschedule => acc.wait_ns += (now - self.last_exit_at).as_nanos() as u64,
            Exit::Ok | Exit::Abort | Exit::Other => {
                acc.abort_gap_ns += (now - self.last_exit_at).as_nanos() as u64
            }
        }
        if self.last_exit == Exit::Ok {
            acc.commit_aborts += 1;
        }
        now
    }

    /// Stamps a body exit.
    pub fn body_exit<T>(&mut self, entered: Instant, result: &TxResult<T>, acc: &mut Layers) {
        let now = Instant::now();
        acc.body_ns += (now - entered).as_nanos() as u64;
        self.last_exit = match result {
            Ok(_) => Exit::Ok,
            Err(TxCtl::Abort(_)) => {
                acc.conflict_aborts += 1;
                Exit::Abort
            }
            Err(TxCtl::Deschedule(_)) => Exit::Deschedule,
            Err(_) => Exit::Other,
        };
        self.last_exit_at = now;
    }

    /// Stamps call return (commit span: last body exit to return) and
    /// returns the return instant.
    pub fn leave(self, acc: &mut Layers) -> Instant {
        let now = Instant::now();
        acc.commit_ns += (now - self.last_exit_at).as_nanos() as u64;
        acc.ops += 1;
        now
    }
}
