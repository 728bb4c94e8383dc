//! A precomputed-hash node index.
//!
//! The Flowtree hot path probes the key→node index once per chain step
//! while searching the longest matching parent. A general-purpose
//! `HashMap<FlowKey, u32>` re-hashes the 7-feature key on every probe;
//! this table instead takes the caller's already-computed 64-bit key
//! hash (maintained incrementally by [`flowkey::HashedChainUp`]) and
//! stores `(hash, node id)` pairs in an open-addressing array, so a
//! probe is one masked load plus a word compare. Key equality on hash
//! match is delegated to a caller closure reading the node arena — the
//! table never stores keys, keeping slots at 16 bytes.
//!
//! Linear probing with tombstones; power-of-two capacity; resizes at
//! 7/8 occupancy (live + tombstones). All operations are O(1) expected
//! with the mixed hashes [`flowkey::key_hash`] produces.
//!
//! The table starts at 16 slots and doubles on demand, so it costs
//! 16 B × 1.14–2.3 per entry (8/7 just before a doubling, twice that
//! just after). Every slot of a new table is written, which is why a
//! tree never sizes one from its node *budget* — only from a count it
//! actually holds or has been told to expect ([`KeyIndex::reserve`]).

/// Slot id marking an empty slot.
const EMPTY: u32 = u32::MAX;
/// Slot id marking a deleted slot (probe chains continue through it).
const TOMB: u32 = u32::MAX - 1;

#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u64,
    id: u32,
}

const VACANT: Slot = Slot { hash: 0, id: EMPTY };

/// Open-addressing `u64 hash → u32 node id` index with external key
/// storage (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct KeyIndex {
    slots: Vec<Slot>,
    mask: usize,
    live: usize,
    tombs: usize,
}

impl KeyIndex {
    /// Slots needed to hold `n` entries under the 7/8 load bound.
    fn slots_for(n: usize) -> usize {
        (n.saturating_mul(8) / 7 + 1).next_power_of_two().max(16)
    }

    /// An index that holds `n` entries without growing.
    pub(crate) fn with_capacity(n: usize) -> KeyIndex {
        let cap = Self::slots_for(n);
        KeyIndex {
            slots: vec![VACANT; cap],
            mask: cap - 1,
            live: 0,
            tombs: 0,
        }
    }

    /// Makes room for `additional` more entries without further
    /// growth (tombstones are flushed if the table is rebuilt).
    pub(crate) fn reserve(&mut self, additional: usize) {
        if (self.live + self.tombs + additional) * 8 > self.slots.len() * 7 {
            self.rebuild(Self::slots_for(self.live + additional).max(self.slots.len()));
        }
    }

    /// Number of live entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Finds the id mapped under `hash` whose key satisfies `eq`
    /// (at most one can, because keys are unique in the arena).
    #[inline]
    pub(crate) fn get(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut i = hash as usize & self.mask;
        loop {
            let s = self.slots[i];
            if s.id == EMPTY {
                return None;
            }
            if s.id != TOMB && s.hash == hash && eq(s.id) {
                return Some(s.id);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts `hash → id`. The caller guarantees the key is absent
    /// (always true on the miss path, which probed first).
    pub(crate) fn insert(&mut self, hash: u64, id: u32) {
        debug_assert!(id < TOMB, "node id collides with slot sentinels");
        if (self.live + self.tombs + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mut i = hash as usize & self.mask;
        loop {
            let s = self.slots[i];
            if s.id == EMPTY || s.id == TOMB {
                if s.id == TOMB {
                    self.tombs -= 1;
                }
                self.slots[i] = Slot { hash, id };
                self.live += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes and returns the id under `hash` whose key satisfies
    /// `eq`, if present.
    pub(crate) fn remove(&mut self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut i = hash as usize & self.mask;
        loop {
            let s = self.slots[i];
            if s.id == EMPTY {
                return None;
            }
            if s.id != TOMB && s.hash == hash && eq(s.id) {
                // Keep probe chains intact unless the next slot is
                // already empty, in which case the slot can empty too.
                if self.slots[(i + 1) & self.mask].id == EMPTY {
                    self.slots[i] = VACANT;
                } else {
                    self.slots[i] = Slot { hash: 0, id: TOMB };
                    self.tombs += 1;
                }
                self.live -= 1;
                return Some(s.id);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Renumbers every entry in place, `id → remap[id]`: the arena was
    /// permuted and the hashes, so every probe chain, stay as they are.
    pub(crate) fn remap_ids(&mut self, remap: &[u32]) {
        for s in &mut self.slots {
            if s.id != EMPTY && s.id != TOMB {
                s.id = remap[s.id as usize];
            }
        }
    }

    fn grow(&mut self) {
        // Double only when live entries genuinely fill the table;
        // otherwise rebuild at the same size to flush tombstones.
        let new_cap = if self.live * 8 > self.slots.len() * 5 {
            self.slots.len() * 2
        } else {
            self.slots.len()
        };
        self.rebuild(new_cap);
    }

    /// Re-inserts every live entry into a fresh table of `new_cap`
    /// slots (a power of two with room for them), dropping tombstones.
    fn rebuild(&mut self, new_cap: usize) {
        let old = std::mem::replace(&mut self.slots, vec![VACANT; new_cap]);
        self.mask = new_cap - 1;
        self.tombs = 0;
        for s in old {
            if s.id != EMPTY && s.id != TOMB {
                let mut i = s.hash as usize & self.mask;
                while self.slots[i].id != EMPTY {
                    i = (i + 1) & self.mask;
                }
                self.slots[i] = s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = KeyIndex::with_capacity(4);
        let keys: Vec<u64> = (0..1_000u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
            .collect();
        for (id, &h) in keys.iter().enumerate() {
            t.insert(h, id as u32);
        }
        assert_eq!(t.len(), 1_000);
        for (id, &h) in keys.iter().enumerate() {
            assert_eq!(t.get(h, |got| got == id as u32), Some(id as u32));
        }
        // Remove the odd ids, keep the even.
        for (id, &h) in keys.iter().enumerate().filter(|(id, _)| id % 2 == 1) {
            assert_eq!(t.remove(h, |got| got == id as u32), Some(id as u32));
        }
        assert_eq!(t.len(), 500);
        for (id, &h) in keys.iter().enumerate() {
            let want = if id % 2 == 0 { Some(id as u32) } else { None };
            assert_eq!(t.get(h, |got| got == id as u32), want);
        }
    }

    #[test]
    fn reserve_then_fill_never_regrows() {
        let mut t = KeyIndex::with_capacity(0);
        assert_eq!(t.slots.len(), 16, "the smallest table");
        t.insert(7, 0);
        t.reserve(1_000);
        let cap = t.slots.len();
        for i in 1..=1_000u64 {
            t.insert(i.wrapping_mul(0x9e3779b97f4a7c15), i as u32);
        }
        assert_eq!(t.slots.len(), cap, "reserved room was enough");
        assert_eq!(t.len(), 1_001);
        assert_eq!(t.get(7, |id| id == 0), Some(0));
        // Already roomy: a smaller request is a no-op.
        let mut r = KeyIndex::with_capacity(1_000);
        let cap = r.slots.len();
        r.reserve(10);
        assert_eq!(r.slots.len(), cap);
    }

    #[test]
    fn colliding_hashes_disambiguate_via_eq() {
        let mut t = KeyIndex::with_capacity(8);
        // Same hash, three different "keys" distinguished by id parity
        // games in the eq closure.
        t.insert(42, 0);
        t.insert(42, 1);
        t.insert(42, 2);
        assert_eq!(t.get(42, |id| id == 1), Some(1));
        assert_eq!(t.remove(42, |id| id == 1), Some(1));
        assert_eq!(t.get(42, |id| id == 1), None);
        assert_eq!(t.get(42, |id| id == 0), Some(0));
        assert_eq!(t.get(42, |id| id == 2), Some(2));
    }

    #[test]
    fn heavy_churn_keeps_probe_chains_sound() {
        let mut t = KeyIndex::with_capacity(16);
        let h = |i: u64| i.wrapping_mul(0xd6e8feb866659fd9).rotate_left(17);
        for round in 0..50u64 {
            for i in 0..200u64 {
                t.insert(h(round * 1000 + i), (round * 1000 + i) as u32);
            }
            for i in 0..200u64 {
                let k = h(round * 1000 + i);
                let id = (round * 1000 + i) as u32;
                assert_eq!(t.remove(k, |g| g == id), Some(id));
            }
        }
        assert_eq!(t.len(), 0);
    }
}
