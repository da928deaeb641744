//! The shared software-STM engine (`tm_core::stm::Stm`), run once under
//! each write policy: the eager STM's undo log and the lazy STM's redo log.
//! The condition-synchronization scenarios both STMs share with the other
//! runtimes live in `condition_sync.rs`, `wake_paths.rs` and
//! `mode_control.rs`; these cases cover what is specific to the engine.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tm_core::stm::{Stm, WritePolicy};
use tm_core::{TmConfig, TmRt, TmRuntime, TmSystem, TmVar};

fn runtime<W: WritePolicy>() -> (Arc<TmSystem>, Arc<Stm<W>>) {
    let system = TmSystem::new(TmConfig::small());
    let rt = Stm::<W>::new(Arc::clone(&system));
    (system, rt)
}

fn simple_transaction_commits<W: WritePolicy>() {
    let (system, rt) = runtime::<W>();
    assert_eq!(TmRuntime::name(rt.as_ref()), W::NAME);
    let th = system.register_thread();
    let v = TmVar::<u64>::alloc(&system, 3);
    let doubled = rt.atomically(&th, |tx| {
        let x = v.get(tx)?;
        v.set(tx, x * 2)?;
        Ok(x * 2)
    });
    assert_eq!(doubled, 6);
    assert_eq!(v.load_direct(&system), 6);
    assert_eq!(th.stats.snapshot().sw_commits, 1);
}

/// A `Retry-Orig` sleeper is published on the system's one waiting list and
/// leaves it once a commit that intersects its read locks wakes it.
fn retry_orig_sleeps_on_the_system_registry<W: WritePolicy + 'static>() {
    let (system, rt) = runtime::<W>();
    let flag = TmVar::<u64>::alloc(&system, 0);
    let waiter = {
        let (rt, system, flag) = (Arc::clone(&rt), Arc::clone(&system), flag.clone());
        std::thread::spawn(move || {
            let th = system.register_thread();
            rt.atomically(&th, |tx| match flag.get(tx)? {
                0 => condsync::retry_orig(tx),
                v => Ok(v),
            })
        })
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while system.orig.is_empty() {
        assert!(Instant::now() < deadline, "the sleeper never registered");
        std::thread::yield_now();
    }
    assert_eq!(system.orig.len(), 1);
    let th = system.register_thread();
    rt.atomically(&th, |tx| flag.set(tx, 9));
    assert_eq!(waiter.join().unwrap(), 9);
    assert!(system.orig.is_empty());
}

/// A declared read-only transaction on the snapshot path keeps no logs, so
/// it takes nothing from the log pool, and its free commit is counted once.
fn snapshot_transactions_skip_the_log_pool<W: WritePolicy>() {
    let (system, rt) = runtime::<W>();
    let th = system.register_thread();
    let v = TmVar::<u64>::alloc(&system, 5);
    // Warm the pool first, so a take would count as a reuse.
    rt.atomically(&th, |tx| v.set(tx, 6));
    rt.atomically(&th, |tx| v.set(tx, 7));
    let before = th.stats.snapshot();
    let spares = th.pool.spares();
    assert!(spares > 0, "an update transaction leaves its logs pooled");

    assert_eq!(rt.atomically_read(&th, |tx| v.get(tx)), 7);
    let after = th.stats.snapshot();
    assert_eq!(after.log_pool_reuses, before.log_pool_reuses);
    assert_eq!(after.ro_fast_commits, before.ro_fast_commits + 1);
    assert_eq!(th.pool.spares(), spares);
}

/// Instantiates every case above as a `#[test]` in module `$module` for
/// write policy `$policy`.
macro_rules! engine_tests {
    ($module:ident, $policy:ty) => {
        mod $module {
            #[test]
            fn simple_transaction_commits() {
                super::simple_transaction_commits::<$policy>();
            }

            #[test]
            fn snapshot_transactions_skip_the_log_pool() {
                super::snapshot_transactions_skip_the_log_pool::<$policy>();
            }

            #[test]
            fn retry_orig_sleeps_on_the_system_registry() {
                super::retry_orig_sleeps_on_the_system_registry::<$policy>();
            }
        }
    };
}

engine_tests!(eager, stm_eager::UndoPolicy);
engine_tests!(lazy, stm_lazy::RedoPolicy);
