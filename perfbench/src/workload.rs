//! The three workloads: their parameters, generated operation streams,
//! shared state, per-operation bodies and end-of-run correctness checks.
//!
//! `handoff` is the paper's bounded buffer at one producer and one
//! consumer; it is the only workload where `condsync`, the waiter registry
//! and the wake scan do most of the work.  `kv_read` and `kv_write` are two
//! sessions over a `TmHashMap` store plus a `TmOrderedMap` index, updated
//! together in one transaction: `kv_read` is a large read-mostly keyspace
//! (fixed per-transaction cost, snapshot reads, map probing), `kv_write` a
//! small hot write-heavy keyspace (write barriers, commit, clock, orec CAS,
//! aborts, skip-list node alloc/free).

use std::sync::Arc;

use condsync::Mechanism;
use tm_core::{TmConfig, TmSystem, Tx, TxResult};
use tm_sync::{TmBoundedBuffer, TmHashMap, TmOrderedMap};
use tm_workloads::{AnyRuntime, ZipfGen};

/// Which workload a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Handoff,
    KvRead,
    KvWrite,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Handoff, Workload::KvRead, Workload::KvWrite];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Handoff => "handoff",
            Workload::KvRead => "kv_read",
            Workload::KvWrite => "kv_write",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Bounded-buffer capacity; half of it is prefilled.  At 8 a few percent
/// of operations deschedule on every runtime, so the p99 of each lies
/// inside the slow class; at 16 the HTM's slow class shrinks to about 1%
/// and its p99 flips between the two classes from run to run.
pub const HANDOFF_CAPACITY: usize = 8;

/// The `Deschedule` mechanisms the handoff items are split across, in turn.
pub const MECHANISMS: [Mechanism; 3] = [Mechanism::Retry, Mechanism::Await, Mechanism::WaitPred];

/// Parameters of a key-value workload.
#[derive(Clone, Copy, Debug)]
pub struct KvParams {
    /// Keys are `0..1 << key_bits`.
    pub key_bits: u32,
    /// Zipf skew over key ranks.
    pub theta: f64,
    /// Percent of operations that are puts and deletes; the rest are
    /// lookups, one in eight of them a range scan.
    pub put_pct: u64,
    pub delete_pct: u64,
    /// Keys covered by a range scan, `[k, k + scan_span]`.
    pub scan_span: u64,
}

impl KvParams {
    pub fn of(workload: Workload) -> KvParams {
        match workload {
            // 2^18 keys: store and index together hold ~16 MiB, well past
            // the 2 x 4 MiB L2, and the keys spread over all 2^16 orecs.
            // Four puts to each delete keep about 80% of the keys present,
            // so lookups mostly hit and the median lookup is a hit rather
            // than a coin toss between a hit and a miss.
            Workload::KvRead => KvParams {
                key_bits: 18,
                theta: 0.6,
                put_pct: 4,
                delete_pct: 1,
                scan_span: 16,
            },
            // 4096 hot keys (~100 KiB) fit in L2; writers collide.
            Workload::KvWrite => KvParams {
                key_bits: 12,
                theta: 0.99,
                put_pct: 25,
                delete_pct: 25,
                scan_span: 16,
            },
            Workload::Handoff => unreachable!("handoff has no key-value parameters"),
        }
    }

    pub fn keys(&self) -> u64 {
        1 << self.key_bits
    }

    /// Whether `key` is loaded before the run: the share of keys that
    /// puts and deletes keep present, chosen by seed.
    fn prefilled(&self, key: u64, seed: u64) -> bool {
        splitmix(key ^ seed) % (self.put_pct + self.delete_pct) < self.put_pct
    }
}

/// One generated operation.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Produce(Mechanism, u64),
    Consume(Mechanism),
    Get(u64),
    Scan(u64),
    Put(u64, u64),
    Delete(u64),
}

impl Op {
    /// Runs as a declared read-only transaction.
    pub fn read_only(self) -> bool {
        matches!(self, Op::Get(_) | Op::Scan(_))
    }
}

/// What one operation returned, for the correctness tallies.
#[derive(Clone, Copy, Debug, Default)]
pub struct Outcome {
    /// Consume found an item, get found its key, scan found entries, put
    /// inserted a fresh key, delete removed a present key.
    pub hit: bool,
    /// Item or value words the operation observed (wrapping sum).
    pub sum: u64,
}

/// Seeded xorshift64* stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(splitmix(seed) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut s = self.0;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.0 = s;
        s.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-worker generator of the operation stream.  The stream depends only
/// on the workload, the seed and the worker index, so every runtime runs
/// the same operations in the same order.
#[derive(Clone)]
pub enum OpStream {
    /// Worker 0 produces, worker 1 consumes; item `i` uses mechanism
    /// `MECHANISMS[i % 3]` on both sides.
    Handoff { producer: bool, next: u64, rng: Rng },
    Kv {
        params: KvParams,
        zipf: ZipfGen,
        rng: Rng,
    },
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64, worker: usize) -> OpStream {
        let stream_seed = splitmix(seed ^ ((worker as u64 + 1) << 40));
        match workload {
            Workload::Handoff => OpStream::Handoff {
                producer: worker == 0,
                next: 0,
                rng: Rng::new(stream_seed),
            },
            w => {
                let params = KvParams::of(w);
                OpStream::Kv {
                    params,
                    zipf: ZipfGen::new(params.keys() as usize, params.theta, stream_seed),
                    rng: Rng::new(stream_seed ^ 0x5eed),
                }
            }
        }
    }

    pub fn next_op(&mut self) -> Op {
        match self {
            OpStream::Handoff {
                producer,
                next,
                rng,
            } => {
                let mechanism = MECHANISMS[(*next % 3) as usize];
                *next += 1;
                if *producer {
                    Op::Produce(mechanism, rng.next_u64())
                } else {
                    Op::Consume(mechanism)
                }
            }
            OpStream::Kv { params, zipf, rng } => {
                let key = scatter(zipf.next_key() as u64, params.key_bits);
                let roll = rng.next_u64() % 800;
                let puts = params.put_pct * 8;
                let writes = puts + params.delete_pct * 8;
                if roll < puts {
                    Op::Put(key, rng.next_u64())
                } else if roll < writes {
                    Op::Delete(key)
                } else if roll % 8 == 0 {
                    // One lookup in eight is a range scan.
                    Op::Scan(key)
                } else {
                    Op::Get(key)
                }
            }
        }
    }
}

/// Maps a Zipf rank to a key with a bijection on `0..1 << bits`, so the
/// hot ranks are spread over the key order instead of crowding the head of
/// the index.
fn scatter(rank: u64, bits: u32) -> u64 {
    rank.wrapping_mul(0x9E37_79B9_7F4A_7C15 | 1) & ((1 << bits) - 1)
}

/// The shared structures one phase runs against.
pub enum State {
    Handoff(Arc<TmBoundedBuffer>),
    Kv {
        params: KvParams,
        store: TmHashMap<u64, u64>,
        index: TmOrderedMap<u64, u64>,
        prefill: u64,
    },
}

/// The system configuration each workload runs on: the defaults, with a
/// heap four times the default for `kv_read`'s 2^18-key store and index.
pub fn config(workload: Workload) -> TmConfig {
    match workload {
        Workload::KvRead => TmConfig::default().with_heap_words(1 << 22),
        Workload::Handoff | Workload::KvWrite => TmConfig::default(),
    }
}

impl State {
    /// Builds and prefills the structures (non-transactionally).
    pub fn build(workload: Workload, system: &Arc<TmSystem>, seed: u64) -> State {
        match workload {
            Workload::Handoff => {
                let buffer = TmBoundedBuffer::new(system, HANDOFF_CAPACITY);
                buffer.prefill(system, HANDOFF_CAPACITY / 2);
                State::Handoff(buffer)
            }
            w => {
                let params = KvParams::of(w);
                let store = TmHashMap::new(system, 2 * params.keys() as usize);
                let index = TmOrderedMap::new(system);
                let mut prefill = 0;
                for key in (0..params.keys()).filter(|&k| params.prefilled(k, seed)) {
                    let value = splitmix(key ^ !seed);
                    store.insert_direct(system, key, value);
                    index.insert_direct(system, key, value);
                    prefill += 1;
                }
                State::Kv {
                    params,
                    store,
                    index,
                    prefill,
                }
            }
        }
    }

    /// The transaction body of `op`.
    pub fn exec(&self, op: Op, tx: &mut dyn Tx) -> TxResult<Outcome> {
        match (self, op) {
            (State::Handoff(buffer), Op::Produce(m, item)) => {
                buffer.produce(m, tx, item)?;
                Ok(Outcome { hit: true, sum: 0 })
            }
            (State::Handoff(buffer), Op::Consume(m)) => {
                let item = buffer.consume(m, tx)?;
                Ok(Outcome {
                    hit: true,
                    sum: item,
                })
            }
            (State::Kv { store, .. }, Op::Get(key)) => {
                let v = store.get(tx, key)?;
                Ok(Outcome {
                    hit: v.is_some(),
                    sum: v.unwrap_or(0),
                })
            }
            (State::Kv { params, index, .. }, Op::Scan(key)) => {
                let entries = index.range(tx, key, key + params.scan_span)?;
                Ok(Outcome {
                    hit: !entries.is_empty(),
                    sum: entries
                        .iter()
                        .fold(0u64, |acc, &(k, v)| acc.wrapping_add(k ^ v)),
                })
            }
            (State::Kv { store, index, .. }, Op::Put(key, value)) => {
                let old = store.insert(tx, key, value)?;
                index.insert(tx, key, value)?;
                Ok(Outcome {
                    hit: old.is_none(),
                    sum: 0,
                })
            }
            (State::Kv { store, index, .. }, Op::Delete(key)) => {
                let old = store.remove(tx, key)?;
                if old.is_some() {
                    index.remove(tx, key)?;
                }
                Ok(Outcome {
                    hit: old.is_some(),
                    sum: 0,
                })
            }
            (_, op) => unreachable!("{op:?} does not belong to this workload"),
        }
    }
}

/// Per-worker tallies of completed operations, for the correctness check.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Items produced and their wrapping sum.
    pub produced: u64,
    pub produced_sum: u64,
    /// Items consumed and their wrapping sum.
    pub consumed: u64,
    pub consumed_sum: u64,
    /// Puts that inserted a fresh key; deletes that removed one.
    pub fresh_inserts: u64,
    pub delete_hits: u64,
    /// Wrapping sum of everything gets and scans observed.
    pub read_sum: u64,
}

impl Tally {
    pub fn note(&mut self, op: Op, out: Outcome) {
        match op {
            Op::Produce(_, item) => {
                self.produced += 1;
                self.produced_sum = self.produced_sum.wrapping_add(item);
            }
            Op::Consume(_) => {
                self.consumed += 1;
                self.consumed_sum = self.consumed_sum.wrapping_add(out.sum);
            }
            Op::Get(_) | Op::Scan(_) => self.read_sum = self.read_sum.wrapping_add(out.sum),
            Op::Put(..) => self.fresh_inserts += out.hit as u64,
            Op::Delete(_) => self.delete_hits += out.hit as u64,
        }
    }

    pub fn add(&mut self, o: &Tally) {
        self.produced += o.produced;
        self.produced_sum = self.produced_sum.wrapping_add(o.produced_sum);
        self.consumed += o.consumed;
        self.consumed_sum = self.consumed_sum.wrapping_add(o.consumed_sum);
        self.fresh_inserts += o.fresh_inserts;
        self.delete_hits += o.delete_hits;
        self.read_sum = self.read_sum.wrapping_add(o.read_sum);
    }
}

/// The final image of a phase, reduced to what the correctness check and
/// the determinism test compare (a phase's full store would be megabytes,
/// and a run keeps every phase's result).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Image {
    /// Entries in the store, and an order-sensitive hash of them all.
    pub entries: u64,
    pub digest: u64,
    /// Everything the completed operations observed, plus the final store.
    pub checksum: u64,
}

impl State {
    /// Checks the phase's final state against the tallies of every
    /// completed operation.  `interrupted` is set when a deadline cut a
    /// segment short, so the buffer need not be back at its prefill level.
    pub fn check(
        &self,
        rt: &AnyRuntime,
        tally: &Tally,
        interrupted: bool,
    ) -> Result<Image, String> {
        let system = rt.system();
        match self {
            State::Handoff(buffer) => {
                // Drain what is left, so the item sums can be compared too.
                let th = system.register_thread();
                let remaining: Vec<u64> = (0..buffer.len_direct(system))
                    .map(|_| rt.atomically(&th, |tx| buffer.get(tx)))
                    .collect();
                check_handoff(tally, &remaining, interrupted)
            }
            State::Kv {
                store,
                index,
                prefill,
                ..
            } => {
                let a = store.dump_direct(system);
                let b = index.dump_direct(system);
                if a != b {
                    return Err(format!(
                        "kv: store ({} entries) and index ({} entries) differ",
                        a.len(),
                        b.len()
                    ));
                }
                let expected = prefill + tally.fresh_inserts - tally.delete_hits;
                if a.len() as u64 != expected || store.len_direct(system) != expected {
                    return Err(format!(
                        "kv: {} entries, expected prefill {prefill} + inserts {} - delete hits {} = {expected}",
                        a.len(),
                        tally.fresh_inserts,
                        tally.delete_hits
                    ));
                }
                let checksum = a
                    .iter()
                    .fold(tally.read_sum, |acc, &(k, v)| acc.wrapping_add(k ^ v));
                Ok(Image {
                    entries: a.len() as u64,
                    digest: a.iter().fold(0, |h, &(k, v)| splitmix(h ^ k) ^ v),
                    checksum,
                })
            }
        }
    }
}

/// Checks a bounded buffer after a handoff phase: every item produced or
/// prefilled was consumed or is among the `remaining` ones, and unless a
/// deadline cut a segment short the buffer is back at its prefill level.
pub fn check_handoff(tally: &Tally, remaining: &[u64], interrupted: bool) -> Result<Image, String> {
    let prefill = (HANDOFF_CAPACITY / 2) as u64;
    // Both buffers prefill the items 1..=prefill.
    let prefill_sum = prefill * (prefill + 1) / 2;
    let left = remaining.len() as u64;
    if tally.produced + prefill != tally.consumed + left {
        return Err(format!(
            "handoff: produced {} + prefill {prefill} != consumed {} + remaining {left}",
            tally.produced, tally.consumed
        ));
    }
    let remaining_sum = remaining.iter().fold(0u64, |a, &x| a.wrapping_add(x));
    if tally.produced_sum.wrapping_add(prefill_sum)
        != tally.consumed_sum.wrapping_add(remaining_sum)
    {
        return Err("handoff: item sums are not conserved".into());
    }
    if !interrupted && left != prefill {
        return Err(format!(
            "handoff: {left} items remain, expected the prefill {prefill}"
        ));
    }
    Ok(Image {
        entries: left,
        digest: 0,
        checksum: tally.consumed_sum,
    })
}
