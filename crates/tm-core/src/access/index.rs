//! The open-addressed position map shared by the access-set containers.
//!
//! [`PosMap`] maps hashed `u64` keys to positions in an owner-maintained
//! entry vector.  It stores *only* positions: the owner keeps the actual
//! keys (addresses, stripe indices) in its entries and supplies an equality
//! probe, so the map stays a flat `u32` slab that is cheap to clear and to
//! recycle through the [`crate::access::LogPool`].
//!
//! Linear probing over a power-of-two table at ≤ 75 % load keeps probe
//! chains short; the owner rebuilds the map from its entries when
//! [`PosMap::needs_grow`] fires (growth is rare and amortised, and a rebuild
//! is just re-inserting positions).
//!
//! Invariant: `len == 0` implies every slot is [`VACANT`], so clearing an
//! empty map writes nothing.  That matters beyond the saved stores: a
//! never-grown map's table is an empty boxed slice whose pointer dangles,
//! and a zero-length `fill` there can still become a `memset` whose
//! vectorised masked store faults on the unmapped page and is replayed by
//! a microcode assist costing ~160 ns — more than the rest of a snapshot
//! commit, which holds only never-grown containers.

/// Sentinel marking an empty slot.
const VACANT: u32 = u32::MAX;

/// Fibonacci-hashes a key into the top bits (same constant as
/// [`crate::orec::OrecTable::index_for`], chosen so nearby keys spread).
#[inline]
fn spread(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Where a probe ended: an existing entry position, or the vacant slot the
/// key would occupy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The key is present; payload is the entry position the owner stored.
    Found(u32),
    /// The key is absent; payload is the slot index to pass to
    /// [`PosMap::occupy`] when inserting.
    Vacant(usize),
}

/// An open-addressed map from hashed keys to entry positions.
#[derive(Debug, Default)]
pub(crate) struct PosMap {
    slots: Box<[u32]>,
    /// Number of occupied slots (mirrors the owner's entry count).
    len: usize,
}

impl PosMap {
    /// An empty map with no table allocated (grown on first insert).
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        PosMap::default()
    }

    /// Number of occupied slots.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Total slot capacity (0 until the first grow).  The pool uses this to
    /// recognise a container whose entry vector was moved out but whose
    /// slab is still worth recycling.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The one insert protocol shared by every container: grow if needed
    /// (re-keying entries `0..count` through `key_of`), then probe for
    /// `key`.  Returns the existing entry position, or `None` after
    /// reserving a slot for position `count` (the caller then pushes the
    /// new entry at exactly that position).
    ///
    /// Keys are compared exactly (they are full addresses/indices, not
    /// hashes), so `key_of` doubles as the match predicate.
    #[inline]
    pub(crate) fn insert_or_find(
        &mut self,
        count: usize,
        key: u64,
        mut key_of: impl FnMut(u32) -> u64,
    ) -> Option<u32> {
        if self.needs_grow() {
            self.grow_from(count, &mut key_of);
        }
        match self.probe(key, |pos| key_of(pos) == key) {
            Probe::Found(pos) => Some(pos),
            Probe::Vacant(slot) => {
                self.occupy(slot, count as u32);
                None
            }
        }
    }

    /// True when an insert should trigger [`PosMap::grow_from`] first
    /// (keeps load below 75 %, and fires on the never-allocated map).
    #[inline]
    pub(crate) fn needs_grow(&self) -> bool {
        (self.len + 1) * 4 > self.slots.len() * 3
    }

    /// Probes for `key`, calling `is_match(pos)` against candidate entry
    /// positions until a match or a vacant slot is found.
    #[inline]
    pub(crate) fn probe(&self, key: u64, mut is_match: impl FnMut(u32) -> bool) -> Probe {
        debug_assert!(!self.slots.is_empty(), "probe before first grow");
        let mask = self.slots.len() - 1;
        let mut slot = (spread(key) >> 32) as usize & mask;
        loop {
            match self.slots[slot] {
                VACANT => return Probe::Vacant(slot),
                pos if is_match(pos) => return Probe::Found(pos),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Looks `key` up without reserving a slot (usable on the empty map).
    #[inline]
    pub(crate) fn lookup(&self, key: u64, is_match: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        match self.probe(key, is_match) {
            Probe::Found(pos) => Some(pos),
            Probe::Vacant(_) => None,
        }
    }

    /// Fills the vacant slot returned by a probe with an entry position.
    #[inline]
    pub(crate) fn occupy(&mut self, slot: usize, pos: u32) {
        debug_assert!(
            self.len != 0 || self.all_vacant(),
            "len 0 with slots in use"
        );
        debug_assert_eq!(self.slots[slot], VACANT);
        debug_assert_ne!(pos, VACANT);
        self.slots[slot] = pos;
        self.len += 1;
    }

    /// Doubles the table (at least 8 slots) and re-inserts positions
    /// `0..count`, hashing each entry's key via `key_of(pos)`.
    pub(crate) fn grow_from(&mut self, count: usize, mut key_of: impl FnMut(u32) -> u64) {
        let new_cap = (self.slots.len() * 2).max(8);
        self.slots = vec![VACANT; new_cap].into_boxed_slice();
        self.len = 0;
        let mask = new_cap - 1;
        for pos in 0..count as u32 {
            let mut slot = (spread(key_of(pos)) >> 32) as usize & mask;
            while self.slots[slot] != VACANT {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = pos;
            self.len += 1;
        }
    }

    /// Empties the map, keeping the allocated table for reuse.  Free on an
    /// empty map (see the module docs for why it must not touch the table).
    #[inline]
    pub(crate) fn clear(&mut self) {
        if self.len != 0 {
            self.slots.fill(VACANT);
            self.len = 0;
        }
        debug_assert!(self.all_vacant(), "len 0 with slots in use");
    }

    /// True if no slot is in use (the `len == 0` invariant's other half).
    fn all_vacant(&self) -> bool {
        self.slots.iter().all(|&s| s == VACANT)
    }
}

/// The stripe cover shared by [`crate::access::ReadSet`] and
/// [`crate::access::WriteLog`]: stripes are accumulated as they arrive and
/// sorted + deduplicated at most once per attempt, when the cover is first
/// consumed (deschedule registration, commit-time lock acquisition).
///
/// Accumulation is O(1) per stripe.  A strictly-increasing append stream —
/// including the degenerate constant-stripe stream of logs whose cover
/// nobody reads — never even sets the dirty flag, so those logs pay one
/// comparison per insert.  An earlier revision kept the cover sorted
/// incrementally with `Vec::insert`; at large transaction sizes the
/// per-insert memmove dominated the very scans this layer removes.
#[derive(Debug, Default)]
pub(crate) struct Cover {
    stripes: Vec<usize>,
    /// True when `stripes` may be unsorted or contain duplicates.
    dirty: bool,
}

impl Cover {
    /// Notes a stripe observed for a fresh entry.
    #[inline]
    pub(crate) fn note(&mut self, stripe: usize) {
        match self.stripes.last() {
            // Consecutive duplicates (and constant-stripe streams) are free.
            Some(&last) if last == stripe => {}
            Some(&last) => {
                if last > stripe {
                    self.dirty = true;
                }
                self.stripes.push(stripe);
            }
            None => self.stripes.push(stripe),
        }
    }

    /// The distinct stripes, sorted ascending (sorts on first use after a
    /// batch of out-of-order notes; a no-op when already clean).
    ///
    /// Invariant: when `dirty` is false the vector is sorted *and*
    /// deduplicated — a clean stream is strictly increasing because equal
    /// neighbours are skipped and decreasing appends set the flag.
    pub(crate) fn as_sorted(&mut self) -> &[usize] {
        if self.dirty {
            self.stripes.sort_unstable();
            self.stripes.dedup();
            self.dirty = false;
        }
        &self.stripes
    }

    /// Empties the cover, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.stripes.clear();
        self.dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the map exactly as an owner does: keys live in a Vec, the map
    /// stores positions into it via the shared insert protocol.
    fn insert(map: &mut PosMap, keys: &mut Vec<u64>, key: u64) -> bool {
        if map
            .insert_or_find(keys.len(), key, |pos| keys[pos as usize])
            .is_some()
        {
            return false;
        }
        keys.push(key);
        true
    }

    #[test]
    fn insert_lookup_round_trip() {
        let mut map = PosMap::new();
        let mut keys = Vec::new();
        for k in 0..1000u64 {
            assert!(insert(&mut map, &mut keys, k * 7919));
        }
        for k in 0..1000u64 {
            let key = k * 7919;
            let pos = map.lookup(key, |p| keys[p as usize] == key).unwrap();
            assert_eq!(keys[pos as usize], key);
        }
        assert_eq!(map.lookup(42, |p| keys[p as usize] == 42), None);
    }

    #[test]
    fn duplicate_inserts_are_rejected() {
        let mut map = PosMap::new();
        let mut keys = Vec::new();
        assert!(insert(&mut map, &mut keys, 5));
        assert!(!insert(&mut map, &mut keys, 5));
        assert_eq!(keys.len(), 1);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut map = PosMap::new();
        let mut keys = Vec::new();
        for k in 0..100 {
            insert(&mut map, &mut keys, k);
        }
        let cap = map.capacity();
        map.clear();
        keys.clear();
        assert_eq!(map.len(), 0);
        assert_eq!(map.capacity(), cap);
        assert!(insert(&mut map, &mut keys, 7));
    }

    #[test]
    fn full_then_cleared_table_is_all_vacant() {
        let mut map = PosMap::new();
        let mut keys = Vec::new();
        // Fill right up to the grow threshold, so nearly every slot is used.
        while !map.needs_grow() || keys.is_empty() {
            let key = keys.len() as u64 * 31;
            insert(&mut map, &mut keys, key);
        }
        let cap = map.capacity();
        assert!(map.slots.iter().filter(|&&s| s != VACANT).count() * 4 >= cap * 3);
        map.clear();
        assert_eq!(map.capacity(), cap);
        assert!(map.slots.iter().all(|&s| s == VACANT));
        assert_eq!(map.lookup(0, |p| keys[p as usize] == 0), None);
    }

    #[test]
    fn clearing_an_empty_map_leaves_it_unallocated() {
        let mut map = PosMap::new();
        map.clear();
        assert_eq!((map.len(), map.capacity()), (0, 0));
        assert_eq!(map.lookup(5, |_| true), None);
    }

    #[test]
    fn cover_accumulates_and_sorts_on_demand() {
        let mut c = Cover::default();
        for s in [5, 5, 9, 2, 9, 2, 2] {
            c.note(s);
        }
        assert_eq!(c.as_sorted(), &[2, 5, 9]);
        // Clean after sorting; in-order notes stay clean and deduped.
        c.note(12);
        c.note(12);
        assert_eq!(c.as_sorted(), &[2, 5, 9, 12]);
        c.clear();
        assert!(c.as_sorted().is_empty());
    }

    #[test]
    fn constant_stripe_cover_stays_degenerate() {
        let mut c = Cover::default();
        for _ in 0..10_000 {
            c.note(0);
        }
        assert_eq!(c.as_sorted(), &[0]);
    }

    #[test]
    fn colliding_keys_coexist() {
        // Keys crafted to collide in small tables still resolve by probing.
        let mut map = PosMap::new();
        let mut keys = Vec::new();
        for k in 0..64u64 {
            assert!(insert(&mut map, &mut keys, k << 56));
        }
        for k in 0..64u64 {
            let key = k << 56;
            assert!(map.lookup(key, |p| keys[p as usize] == key).is_some());
        }
    }
}
