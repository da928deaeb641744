//! Criterion benchmarks of the raw transaction primitives each runtime
//! provides: transactions that only read (as update transactions and as
//! declared read-only ones), writer transactions, and the empty-registry
//! fast path of `wakeWaiters`.
//!
//! These numbers establish the baseline transaction costs that the
//! condition-synchronization mechanisms add to; the paper's claim is that
//! in-flight transactions (especially hardware ones) pay nothing beyond the
//! empty-waiter check.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use condsync::wake_waiters;
use tm_core::{TmConfig, TmVar, Tx};
use tm_workloads::runtime::RuntimeKind;

/// Transactions that only read, run two ways: `atomically` (an update
/// transaction that happens not to write: read set, commit-time checks)
/// and `atomically_read` (declared read-only: the snapshot path with no
/// read set and a free commit).
fn read_only(c: &mut Criterion) {
    read_only_group(c, "primitive_read_only_tx", false);
    read_only_group(c, "primitive_declared_read_only_tx", true);
}

fn read_only_group(c: &mut Criterion, name: &str, declared: bool) {
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    for kind in RuntimeKind::ALL {
        for &reads in &[1usize, 16, 128] {
            let rt = kind.build(TmConfig::default().with_heap_words(1 << 12));
            let system = Arc::clone(rt.system());
            let arr: Vec<TmVar<u64>> = (0..reads)
                .map(|i| TmVar::alloc(&system, i as u64))
                .collect();
            let th = system.register_thread();
            let body = |tx: &mut dyn Tx| {
                let mut sum = 0u64;
                for v in &arr {
                    sum = sum.wrapping_add(v.get(tx)?);
                }
                Ok(sum)
            };
            group.bench_with_input(BenchmarkId::new(kind.label(), reads), &reads, |b, _| {
                if declared {
                    b.iter(|| rt.atomically_read(&th, body))
                } else {
                    b.iter(|| rt.atomically(&th, body))
                }
            });
        }
    }
    group.finish();
}

fn writer(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitive_writer_tx");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    for kind in RuntimeKind::ALL {
        for &writes in &[1usize, 16] {
            let rt = kind.build(TmConfig::default().with_heap_words(1 << 12));
            let system = Arc::clone(rt.system());
            let arr: Vec<TmVar<u64>> = (0..writes)
                .map(|i| TmVar::alloc(&system, i as u64))
                .collect();
            let th = system.register_thread();
            group.bench_with_input(BenchmarkId::new(kind.label(), writes), &writes, |b, _| {
                b.iter(|| {
                    rt.atomically(&th, |tx| {
                        for v in &arr {
                            let x = v.get(tx)?;
                            v.set(tx, x.wrapping_add(1))?;
                        }
                        Ok(())
                    })
                })
            });
        }
    }
    group.finish();
}

fn wake_waiters_empty(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitive_wake_waiters_empty");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    for kind in RuntimeKind::ALL {
        let rt = kind.build(TmConfig::default().with_heap_words(1 << 12));
        let system = Arc::clone(rt.system());
        let th = system.register_thread();
        group.bench_function(kind.label(), |b| b.iter(|| wake_waiters(rt.as_dyn(), &th)));
    }
    group.finish();
}

criterion_group!(benches, read_only, writer, wake_waiters_empty);
criterion_main!(benches);
