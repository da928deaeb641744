//! The snapshot read path of the shared software-STM attempt
//! (`tm_core::stm::StmTx`), run once under each write policy: the eager
//! STM's undo log and the lazy STM's redo log.

use std::sync::Arc;

use tm_core::stm::{StmTx, WritePolicy};
use tm_core::{
    AbortReason, Addr, SnapshotMode, TmConfig, TmSystem, Tx, TxCommon, TxCtl, TxKind, TxMode,
};

fn begin<W: WritePolicy>(system: &Arc<TmSystem>, kind: TxKind) -> StmTx<W> {
    let th = system.register_thread();
    StmTx::begin(
        system,
        TxCommon::new(th, TxMode::Software, 0).with_kind(kind),
    )
}

/// Commits `addr = val` from a fresh thread, moving `addr` past the start
/// of every attempt begun earlier.
fn commit_write<W: WritePolicy>(system: &Arc<TmSystem>, addr: Addr, val: u64) {
    let mut w = begin::<W>(system, TxKind::Update);
    w.write(addr, val).unwrap();
    w.try_commit().unwrap();
}

fn snapshot_read_keeps_no_read_set_and_commits_free<W: WritePolicy>() {
    let system = TmSystem::new(TmConfig::small());
    system.heap.store(Addr(3), 7);
    system.heap.store(Addr(4), 8);
    let mut tx = begin::<W>(&system, TxKind::ReadOnly);
    assert_eq!(tx.read(Addr(3)).unwrap(), 7);
    assert_eq!(tx.read(Addr(4)).unwrap(), 8);
    assert!(
        tx.read_orec_indices().is_empty(),
        "snapshot reads record nothing"
    );
    let th = Arc::clone(&tx.common().thread);
    let info = tx.try_commit().unwrap();
    assert!(!info.was_writer);
    drop(tx);
    let snap = th.stats.snapshot();
    assert_eq!(snap.ro_fast_commits, 1, "small config enables snapshots");
    assert_eq!(snap.read_set_max, 0, "no read set ever pooled back");
}

fn snapshot_write_aborts_with_read_only_write<W: WritePolicy>() {
    // `read_for_write` differs per policy and is tested in each STM crate.
    let system = TmSystem::new(TmConfig::small());
    let mut tx = begin::<W>(&system, TxKind::ReadOnly);
    assert!(matches!(
        tx.write(Addr(1), 9),
        Err(TxCtl::Abort(AbortReason::ReadOnlyWrite))
    ));
    assert!(matches!(
        tx.alloc(4),
        Err(TxCtl::Abort(AbortReason::ReadOnlyWrite))
    ));
    assert!(matches!(
        tx.free(Addr(1), 1),
        Err(TxCtl::Abort(AbortReason::ReadOnlyWrite))
    ));
    tx.rollback();
}

fn snapshot_refreshes_at_first_read_instead_of_aborting<W: WritePolicy>() {
    let system = TmSystem::new(TmConfig::small().without_quiescence());
    let mut tx = begin::<W>(&system, TxKind::ReadOnly);
    commit_write::<W>(&system, Addr(6), 9);
    // First read: too new, but nothing observed yet — refresh, not abort.
    assert_eq!(tx.read(Addr(6)).unwrap(), 9);
    let th = Arc::clone(&tx.common().thread);
    tx.try_commit().unwrap();
    assert_eq!(th.stats.snapshot().snapshot_refreshes, 1);
}

fn snapshot_on_aborts_on_too_new_after_first_read<W: WritePolicy>() {
    let system = TmSystem::new(TmConfig::small().without_quiescence());
    let mut tx = begin::<W>(&system, TxKind::ReadOnly);
    assert_eq!(tx.read(Addr(5)).unwrap(), 0, "pin the snapshot");
    commit_write::<W>(&system, Addr(6), 9);
    assert!(matches!(
        tx.read(Addr(6)),
        Err(TxCtl::Abort(AbortReason::ReadConflict))
    ));
    tx.rollback();
}

fn snapshot_off_disables_the_fast_path<W: WritePolicy>() {
    let system = TmSystem::new(TmConfig::small().with_snapshot(SnapshotMode::Off));
    let mut tx = begin::<W>(&system, TxKind::ReadOnly);
    assert_eq!(tx.read(Addr(3)).unwrap(), 0);
    assert_eq!(
        tx.read_orec_indices().len(),
        1,
        "falls back to the tracked read path"
    );
    let th = Arc::clone(&tx.common().thread);
    tx.try_commit().unwrap();
    assert_eq!(th.stats.snapshot().ro_fast_commits, 0);
}

/// Instantiates every case above as a `#[test]` in module `$module` for
/// write policy `$policy`.
macro_rules! snapshot_tests {
    ($module:ident, $policy:ty) => {
        mod $module {
            #[test]
            fn snapshot_read_keeps_no_read_set_and_commits_free() {
                super::snapshot_read_keeps_no_read_set_and_commits_free::<$policy>();
            }

            #[test]
            fn snapshot_write_aborts_with_read_only_write() {
                super::snapshot_write_aborts_with_read_only_write::<$policy>();
            }

            #[test]
            fn snapshot_refreshes_at_first_read_instead_of_aborting() {
                super::snapshot_refreshes_at_first_read_instead_of_aborting::<$policy>();
            }

            #[test]
            fn snapshot_on_aborts_on_too_new_after_first_read() {
                super::snapshot_on_aborts_on_too_new_after_first_read::<$policy>();
            }

            #[test]
            fn snapshot_off_disables_the_fast_path() {
                super::snapshot_off_disables_the_fast_path::<$policy>();
            }
        }
    };
}

snapshot_tests!(eager, stm_eager::UndoPolicy);
snapshot_tests!(lazy, stm_lazy::RedoPolicy);
