//! The keccak-keyed verdict cache.
//!
//! On-chain, the dominant request pattern is *redeployment*: the same
//! phishing template lands at thousands of fresh addresses with
//! bit-identical runtime bytecode (the paper dedups 17,455 flagged
//! bytecodes to 3,458 uniques). Scoring is a pure function of the bytecode,
//! so the daemon memoizes it: requests are keyed by the Keccak-256 code
//! hash ([`phishinghook_evm::keccak::Digest`] — Ethereum's own code-hash
//! primitive), and a hit replays the exact `f64`s the cold path produced.
//! **Cached and uncached scores are bit-identical by construction** (the
//! scheduler's tests assert `f64::to_bits` equality).
//!
//! Eviction is strict LRU under a configurable **byte budget** (the CLI's
//! `--cache-bytes`): every lookup hit moves its entry to the front, and a
//! full cache evicts its least recently used entry to make room.
//! Hit/miss/eviction counters are exposed via [`VerdictCache::stats`] and
//! surfaced over the wire by the `stats` line-protocol command.
//!
//! The budget bounds the cache's resident memory, not only its accounting.
//! The first retained insert fixes the entry shape (`1 + members` floats)
//! and reserves flat arrays for exactly the entries the budget holds at
//! [`entry_bytes`] each:
//!
//! * per slot, one 32-byte digest key and `1 + members` `f64`s at a fixed
//!   stride;
//! * `u32` prev/next links threading the slots into the recency list;
//! * a `u32` open-addressing index (linear probing, at most half full,
//!   backward-shift deletion) hashed on digest bytes 8..16. Bytes 0..8
//!   already chose the serving lane ([`shard_of`](crate::shard_of)), so
//!   hashing on them again would leave buckets empty in every sharded lane.
//!   The hash is SipHash under a random per-cache key, as `HashMap` uses:
//!   the digest of client-supplied bytecode is public, so an unkeyed index
//!   would let a client grind bytecodes into one long probe run.
//!
//! A slot costs under `64 + 8·members` resident bytes against the
//! `128 + 8·members` the budget charges, and the index never grows, so no
//! rehash ever holds two tables at once. A budget larger than the
//! allocator will reserve is halved until the reservation succeeds (and
//! logged), so it still caches. Every entry has the first insert's shape:
//! a scheduler caches only full-model verdicts, so an insert with a
//! different member count is not retained.

use phishinghook_evm::keccak::Digest;
use std::hash::{BuildHasher, RandomState};
use std::sync::Mutex;

/// The memoized outcome of scoring one bytecode: everything a response
/// needs except the per-connection request id.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedVerdict {
    /// Combined class-1 probability (bit-exact as produced by the model).
    pub proba: f64,
    /// Per-model probabilities in [`model_names`](crate::Scheduler::model_names)
    /// order (names are fixed per serving process, so entries store only
    /// the floats).
    pub per_model: Vec<f64>,
}

/// Counter snapshot of one cache (monotonic over the cache's lifetime,
/// except `entries`/`bytes` which are the current occupancy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (and went to the scheduler).
    pub misses: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Entries inserted over the cache's lifetime.
    pub insertions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Accounted bytes currently resident.
    pub bytes: u64,
    /// The configured byte budget.
    pub capacity_bytes: u64,
}

impl CacheStats {
    /// Hit fraction of all lookups so far (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Accounted size of one cache entry holding `n_models` per-model
/// probabilities: 32 key bytes + 8 for the combined probability + 8 per
/// member + 88 bytes of fixed index/link overhead. A budget holds
/// `budget / entry_bytes(n)` entries, and since the flat layout (see the
/// module docs) spends less than this on each, the budget also bounds the
/// cache's resident memory.
pub fn entry_bytes(n_models: usize) -> usize {
    32 + 8 + 8 * n_models + 88
}

/// "No slot" in the recency links.
const NIL: u32 = u32::MAX;

struct Lru {
    /// Floats per entry (`1 + members`), fixed by the first retained
    /// insert; `0` before it.
    stride: usize,
    /// Entries the budget holds at `stride` (what the arrays reserve).
    slots: usize,
    /// One digest per occupied slot. Slots fill in order and are only
    /// recycled by eviction, so the length is the resident entry count.
    keys: Vec<Digest>,
    /// `stride` floats per slot: the combined probability, then members.
    values: Vec<f64>,
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Open-addressing buckets holding `slot + 1`; `0` marks an empty one.
    index: Vec<u32>,
    /// This cache's secret bucket-hash key.
    hasher: RandomState,
    head: u32,
    tail: u32,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

/// A thread-safe LRU verdict cache with a byte budget (see module docs).
pub struct VerdictCache {
    inner: Mutex<Lru>,
    capacity_bytes: usize,
}

impl VerdictCache {
    /// Creates a cache bounded by `capacity_bytes` of accounted entry size
    /// (see [`entry_bytes`]); nothing is allocated before the first insert.
    /// A budget too small for even one entry yields a cache that never
    /// retains anything (but still counts lookups).
    pub fn new(capacity_bytes: usize) -> Self {
        VerdictCache {
            inner: Mutex::new(Lru {
                stride: 0,
                slots: 0,
                keys: Vec::new(),
                values: Vec::new(),
                prev: Vec::new(),
                next: Vec::new(),
                index: Vec::new(),
                hasher: RandomState::new(),
                head: NIL,
                tail: NIL,
                hits: 0,
                misses: 0,
                evictions: 0,
                insertions: 0,
            }),
            capacity_bytes,
        }
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").keys.len()
    }

    /// Whether the cache is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a code hash, counting a hit (and refreshing recency) or a
    /// miss. Returns a copy of the cached verdict so the caller never
    /// holds the lock while rendering.
    pub fn lookup(&self, key: &Digest) -> Option<CachedVerdict> {
        let mut lru = self.inner.lock().expect("cache lock");
        match lru.find(key) {
            Some(slot) => {
                lru.hits += 1;
                lru.unlink(slot);
                lru.push_front(slot);
                Some(lru.verdict(slot))
            }
            None => {
                lru.misses += 1;
                None
            }
        }
    }

    /// Reads a cached verdict without counting a hit or miss and without
    /// refreshing recency — observation-only access for the bit-equality
    /// harness, which must not perturb the counters or the LRU order the
    /// serving tests assert.
    pub fn peek(&self, key: &Digest) -> Option<CachedVerdict> {
        let lru = self.inner.lock().expect("cache lock");
        lru.find(key).map(|slot| lru.verdict(slot))
    }

    /// Inserts (or refreshes) a verdict, evicting the least-recently-used
    /// entry when the budget is full. A verdict whose member count differs
    /// from the first retained insert's is not retained.
    pub fn insert(&self, key: Digest, value: CachedVerdict) {
        self.inner
            .lock()
            .expect("cache lock")
            .insert(key, &value, self.capacity_bytes);
    }

    /// Counter snapshot (see [`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        let lru = self.inner.lock().expect("cache lock");
        let entries = lru.keys.len();
        CacheStats {
            hits: lru.hits,
            misses: lru.misses,
            evictions: lru.evictions,
            insertions: lru.insertions,
            entries: entries as u64,
            bytes: (entries * entry_bytes(lru.stride.saturating_sub(1))) as u64,
            capacity_bytes: self.capacity_bytes as u64,
        }
    }
}

impl std::fmt::Debug for VerdictCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("VerdictCache")
            .field("entries", &stats.entries)
            .field("bytes", &stats.bytes)
            .field("capacity_bytes", &stats.capacity_bytes)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

/// An empty vector with room for exactly `len` items, or `None` when the
/// allocator refuses.
fn try_with_capacity<T>(len: usize) -> Option<Vec<T>> {
    let mut items = Vec::new();
    items.try_reserve_exact(len).ok()?;
    Some(items)
}

/// `len` zeroed index buckets, or `None` when the allocator refuses
/// (`vec![0; len]` would abort instead). The allocator hands back zeroed
/// pages, so buckets cost resident memory only once written.
fn try_zeroed_index(len: usize) -> Option<Vec<u32>> {
    let layout = std::alloc::Layout::array::<u32>(len).ok()?;
    if layout.size() == 0 {
        return Some(Vec::new());
    }
    // SAFETY: the layout has a nonzero size.
    let ptr = unsafe { std::alloc::alloc_zeroed(layout) }.cast::<u32>();
    if ptr.is_null() {
        return None;
    }
    // SAFETY: `ptr` was allocated by the global allocator with the layout
    // of exactly `len` `u32`s, and all-zero bytes are a valid `u32`, so
    // every element is initialised.
    Some(unsafe { Vec::from_raw_parts(ptr, len, len) })
}

impl Lru {
    /// Fixes the entry shape at `members` per-model floats and reserves
    /// the flat arrays for every entry `capacity_bytes` holds at that
    /// shape, halving the count until the allocator grants it. Leaves the
    /// cache unshaped when not even one entry fits.
    fn reserve(&mut self, members: usize, capacity_bytes: usize) {
        // `u32` links and index buckets (`slot + 1`) cap the slot count.
        let wanted = (capacity_bytes / entry_bytes(members)).min(NIL as usize);
        if wanted == 0 {
            return;
        }
        self.stride = 1 + members;
        // Reserved pages become resident only as slots fill.
        let mut slots = wanted;
        while slots > 0 && !self.try_reserve(slots) {
            slots /= 2;
        }
        if slots < wanted {
            eprintln!(
                "verdict cache: could not reserve {wanted} entries for a \
                 {capacity_bytes}-byte budget; caching at most {slots}"
            );
        }
        self.slots = slots;
    }

    /// Allocates every array for `slots` entries, or changes nothing.
    fn try_reserve(&mut self, slots: usize) -> bool {
        let arrays = (|| {
            Some((
                try_with_capacity(slots)?,
                try_with_capacity(slots * self.stride)?,
                try_with_capacity(slots)?,
                try_with_capacity(slots)?,
                // At most half full, so every probe run ends at an empty
                // bucket.
                try_zeroed_index((2 * slots).next_power_of_two())?,
            ))
        })();
        let Some((keys, values, prev, next, index)) = arrays else {
            return false;
        };
        (self.keys, self.values, self.prev, self.next, self.index) =
            (keys, values, prev, next, index);
        true
    }

    /// The home bucket of `key` in an index of `mask + 1` buckets.
    fn home(&self, key: &Digest, mask: usize) -> usize {
        let mut word = [0u8; 8];
        word.copy_from_slice(&key.0[8..16]);
        self.hasher.hash_one(u64::from_le_bytes(word)) as usize & mask
    }

    fn insert(&mut self, key: Digest, value: &CachedVerdict, capacity_bytes: usize) {
        if self.stride == 0 {
            self.reserve(value.per_model.len(), capacity_bytes);
        }
        if self.slots == 0 || self.stride != 1 + value.per_model.len() {
            return; // the budget cannot hold this entry
        }
        if let Some(slot) = self.find(&key) {
            // Concurrent scorers of the same bytecode produce identical
            // values; refresh recency and keep one copy.
            self.unlink(slot);
            self.push_front(slot);
            self.store(slot, value);
            return;
        }
        let slot = if self.keys.len() < self.slots {
            self.keys.push(key);
            self.values.resize(self.keys.len() * self.stride, 0.0);
            self.prev.push(NIL);
            self.next.push(NIL);
            self.keys.len() - 1
        } else {
            // Full: the least recently used slot takes the new entry.
            let slot = self.tail as usize;
            self.unlink(slot);
            self.unindex(slot);
            self.keys[slot] = key;
            self.evictions += 1;
            slot
        };
        self.store(slot, value);
        self.index_slot(slot);
        self.push_front(slot);
        self.insertions += 1;
    }

    /// The slot holding `key`, if resident.
    fn find(&self, key: &Digest) -> Option<usize> {
        let mask = self.index.len().checked_sub(1)?;
        let mut bucket = self.home(key, mask);
        loop {
            let slot = (self.index[bucket] as usize).checked_sub(1)?;
            if self.keys[slot] == *key {
                return Some(slot);
            }
            bucket = (bucket + 1) & mask;
        }
    }

    /// Enters `slot`, whose key is already written, into the index.
    fn index_slot(&mut self, slot: usize) {
        let mask = self.index.len() - 1;
        let mut bucket = self.home(&self.keys[slot], mask);
        while self.index[bucket] != 0 {
            bucket = (bucket + 1) & mask;
        }
        self.index[bucket] = slot as u32 + 1;
    }

    /// Removes `slot` from the index by backward-shift deletion: later
    /// members of its probe run move back into the hole, so no tombstones
    /// accumulate and probe runs stay as short as a fresh table's.
    fn unindex(&mut self, slot: usize) {
        let mask = self.index.len() - 1;
        let mut hole = self.home(&self.keys[slot], mask);
        while self.index[hole] as usize != slot + 1 {
            hole = (hole + 1) & mask;
        }
        let mut bucket = hole;
        loop {
            bucket = (bucket + 1) & mask;
            let entry = self.index[bucket];
            if entry == 0 {
                break;
            }
            // The entry may fill the hole only when the hole lies on its
            // probe path: no further from its home bucket than it is now.
            let home = self.home(&self.keys[entry as usize - 1], mask);
            if (bucket.wrapping_sub(home) & mask) >= (bucket.wrapping_sub(hole) & mask) {
                self.index[hole] = entry;
                hole = bucket;
            }
        }
        self.index[hole] = 0;
    }

    /// Detaches `slot` from the recency list (it must be linked).
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.prev[slot], self.next[slot]);
        if prev == NIL {
            self.head = next;
        } else {
            self.next[prev as usize] = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.prev[next as usize] = prev;
        }
    }

    /// Links a detached `slot` as the most recently used entry.
    fn push_front(&mut self, slot: usize) {
        let link = slot as u32;
        self.prev[slot] = NIL;
        self.next[slot] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = link;
        }
        self.head = link;
        if self.tail == NIL {
            self.tail = link;
        }
    }

    /// The verdict stored in `slot`.
    fn verdict(&self, slot: usize) -> CachedVerdict {
        let floats = &self.values[slot * self.stride..(slot + 1) * self.stride];
        CachedVerdict {
            proba: floats[0],
            per_model: floats[1..].to_vec(),
        }
    }

    /// Writes `value` (of this cache's shape) into `slot`.
    fn store(&mut self, slot: usize, value: &CachedVerdict) {
        let floats = &mut self.values[slot * self.stride..(slot + 1) * self.stride];
        floats[0] = value.proba;
        floats[1..].copy_from_slice(&value.per_model);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(i: u8) -> Digest {
        Digest::of(&[i])
    }

    fn verdict(p: f64) -> CachedVerdict {
        CachedVerdict {
            proba: p,
            per_model: vec![p],
        }
    }

    /// A budget that fits exactly `n` single-model entries.
    fn budget(n: usize) -> usize {
        n * entry_bytes(1)
    }

    #[test]
    fn hit_returns_the_exact_bits() {
        let cache = VerdictCache::new(budget(4));
        let p = 0.123456789f64;
        cache.insert(key(1), verdict(p));
        let hit = cache.lookup(&key(1)).expect("hit");
        assert_eq!(hit.proba.to_bits(), p.to_bits());
        assert_eq!(hit.per_model[0].to_bits(), p.to_bits());
        assert!(cache.lookup(&key(2)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_respects_recency_and_budget() {
        let cache = VerdictCache::new(budget(3));
        for i in 0..3 {
            cache.insert(key(i), verdict(f64::from(i)));
        }
        // Touch 0 so 1 becomes the LRU, then overflow.
        assert!(cache.lookup(&key(0)).is_some());
        cache.insert(key(3), verdict(3.0));
        assert!(cache.lookup(&key(1)).is_none(), "LRU entry must go");
        assert!(cache.lookup(&key(0)).is_some());
        assert!(cache.lookup(&key(2)).is_some());
        assert!(cache.lookup(&key(3)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.bytes, budget(3) as u64);
        assert!(stats.bytes <= stats.capacity_bytes);
    }

    #[test]
    fn slab_slots_are_recycled_across_many_evictions() {
        let cache = VerdictCache::new(budget(2));
        for round in 0..50u8 {
            cache.insert(key(round), verdict(f64::from(round)));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 48);
        assert_eq!(stats.insertions, 50);
        // The two most recent entries survive.
        assert!(cache.lookup(&key(49)).is_some());
        assert!(cache.lookup(&key(48)).is_some());
        assert!(cache.lookup(&key(0)).is_none());
    }

    #[test]
    fn duplicate_insert_refreshes_without_growing() {
        let cache = VerdictCache::new(budget(2));
        cache.insert(key(1), verdict(0.25));
        cache.insert(key(2), verdict(0.5));
        cache.insert(key(1), verdict(0.25)); // refresh: 1 is now MRU
        cache.insert(key(3), verdict(0.75)); // evicts 2, not 1
        assert!(cache.lookup(&key(1)).is_some());
        assert!(cache.lookup(&key(2)).is_none());
        // 3 fresh keys inserted; the refresh of key 1 is not an insertion.
        assert_eq!(cache.stats().insertions, 3);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn oversized_budgetless_cache_never_retains() {
        let cache = VerdictCache::new(entry_bytes(1) - 1);
        cache.insert(key(1), verdict(0.5));
        assert!(cache.is_empty());
        assert!(cache.lookup(&key(1)).is_none());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn concurrent_mixed_traffic_stays_consistent() {
        let cache = std::sync::Arc::new(VerdictCache::new(budget(16)));
        let handles: Vec<_> = (0..4u8)
            .map(|t| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200u8 {
                        let k = key(i % 32);
                        if let Some(v) = cache.lookup(&k) {
                            assert_eq!(v.proba, f64::from(i % 32), "thread {t}");
                        } else {
                            cache.insert(k, verdict(f64::from(i % 32)));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4 * 200);
        assert!(stats.entries <= 16);
    }

    #[test]
    fn an_insert_with_another_member_count_is_not_retained() {
        let cache = VerdictCache::new(budget(4));
        cache.insert(key(1), verdict(0.5));
        let wide = |p: f64| CachedVerdict {
            proba: p,
            per_model: vec![p, p],
        };
        cache.insert(key(2), wide(0.25));
        assert!(cache.peek(&key(2)).is_none());
        // Nor does a foreign shape overwrite a resident entry.
        cache.insert(key(1), wide(0.75));
        assert_eq!(cache.peek(&key(1)), Some(verdict(0.5)));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.insertions), (1, 1));
        assert_eq!(stats.bytes, budget(1) as u64);
    }

    #[test]
    fn digests_sharing_low_index_bits_do_not_form_one_probe_run() {
        // Every key agrees on the low 16 bits of digest bytes 8..16, as a
        // client grinding bytecodes offline could arrange; an unkeyed index
        // of at most 65,536 buckets would give them all one home bucket.
        const N: usize = 256;
        let cache = VerdictCache::new(budget(N));
        let keys: Vec<Digest> = (0..N as u64)
            .map(|i| {
                let mut bytes = [0u8; 32];
                bytes[8..16].copy_from_slice(&(i << 16).to_le_bytes());
                Digest(bytes)
            })
            .collect();
        for &k in &keys {
            cache.insert(k, verdict(0.5));
        }
        assert!(keys.iter().all(|k| cache.peek(k).is_some()));
        let lru = cache.inner.lock().expect("cache lock");
        let (_, longest) = lru.index.iter().fold((0, 0), |(run, longest), &b| {
            let run = if b == 0 { 0 } else { run + 1 };
            (run, longest.max(run))
        });
        assert!(longest < N / 4, "one probe run spans {longest} buckets");
    }

    #[test]
    fn a_budget_too_large_to_reserve_still_caches() {
        // Arrays for `u32::MAX` entries are halved until the allocator
        // grants them; the reserved pages stay untouched, hence virtual.
        let cache = VerdictCache::new(usize::MAX);
        cache.insert(key(1), verdict(0.5));
        assert_eq!(cache.lookup(&key(1)), Some(verdict(0.5)));
        assert_eq!(cache.stats().entries, 1);
    }

    /// The LRU contract spelled out naively — entries in recency order,
    /// least recent first, each charged [`entry_bytes`] — as the oracle
    /// for the flat layout.
    struct ReferenceLru {
        entries: Vec<(Digest, CachedVerdict)>,
        stats: CacheStats,
    }

    impl ReferenceLru {
        fn new(capacity_bytes: usize) -> Self {
            ReferenceLru {
                entries: Vec::new(),
                stats: CacheStats {
                    capacity_bytes: capacity_bytes as u64,
                    ..CacheStats::default()
                },
            }
        }

        fn position(&self, key: &Digest) -> Option<usize> {
            self.entries.iter().position(|(k, _)| k == key)
        }

        fn lookup(&mut self, key: &Digest) -> Option<CachedVerdict> {
            let Some(i) = self.position(key) else {
                self.stats.misses += 1;
                return None;
            };
            self.stats.hits += 1;
            let entry = self.entries.remove(i);
            self.entries.push(entry);
            self.entries.last().map(|(_, v)| v.clone())
        }

        fn peek(&self, key: &Digest) -> Option<CachedVerdict> {
            self.position(key).map(|i| self.entries[i].1.clone())
        }

        fn insert(&mut self, key: Digest, value: CachedVerdict) {
            let cost = entry_bytes(value.per_model.len()) as u64;
            if let Some(i) = self.position(&key) {
                self.entries.remove(i);
            } else if cost > self.stats.capacity_bytes {
                return;
            } else {
                while self.stats.bytes + cost > self.stats.capacity_bytes {
                    let (_, evicted) = self.entries.remove(0);
                    self.stats.bytes -= entry_bytes(evicted.per_model.len()) as u64;
                    self.stats.evictions += 1;
                }
                self.stats.bytes += cost;
                self.stats.insertions += 1;
            }
            self.entries.push((key, value));
        }

        fn stats(&self) -> CacheStats {
            CacheStats {
                entries: self.entries.len() as u64,
                ..self.stats
            }
        }
    }

    /// A returned verdict's floats as bits, so the comparison is exact.
    fn bits(found: Option<CachedVerdict>) -> Option<Vec<u64>> {
        found.map(|v| {
            std::iter::once(v.proba)
                .chain(v.per_model)
                .map(f64::to_bits)
                .collect()
        })
    }

    proptest! {
        #[test]
        fn flat_layout_matches_the_reference_lru(
            ops in proptest::collection::vec(0usize..3 * 24, 0..300),
            members in 1usize..4,
        ) {
            // Each op is (key index, insert | lookup | peek) over 24 keys;
            // budgets run from below one entry to 16 entries, whose index
            // sits at its half-full limit.
            let keys: Vec<Digest> = (0..24u8).map(key).collect();
            let cost = entry_bytes(members);
            for budget in [0, cost - 1, cost, 3 * cost + cost / 2, 16 * cost] {
                let cache = VerdictCache::new(budget);
                let mut reference = ReferenceLru::new(budget);
                for (i, &op) in ops.iter().enumerate() {
                    let k = keys[op / 3];
                    let (got, want) = match op % 3 {
                        0 => {
                            let p = i as f64 / 7.0;
                            let value = CachedVerdict {
                                proba: p,
                                per_model: (1..=members).map(|m| p / m as f64).collect(),
                            };
                            cache.insert(k, value.clone());
                            reference.insert(k, value);
                            (None, None)
                        }
                        1 => (cache.lookup(&k), reference.lookup(&k)),
                        _ => (cache.peek(&k), reference.peek(&k)),
                    };
                    prop_assert_eq!(bits(got), bits(want), "budget {} op {}", budget, i);
                    prop_assert_eq!(cache.stats(), reference.stats(), "budget {} op {}", budget, i);
                }
            }
        }
    }
}
