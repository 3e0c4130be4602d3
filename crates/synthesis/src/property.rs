//! Tensor properties and canonical property sets (paper Sec. 4.2), plus the
//! interned bitset arena the search stores its states' property sets in.

use hap_graph::{NodeId, Placement};

/// A property `e | I` of a distributed tensor: executing instruction `I`
/// (identity / all-gather(d) / all-reduce) on the distributed tensor of
/// reference node `e` recovers `e` on every device.
pub type Prop = (NodeId, Placement);

/// A canonical (sorted, deduplicated) set of properties plus the set of
/// already-communicated reference tensors (the `Communicated` markers of
/// paper Sec. 4.5, optimization 2).
///
/// Equality/hashing of `PropSet`s is exactly program-state identity. The
/// search stores the same sets as interned bitsets (`SetArena`); the
/// baselines and the simulator use `PropSet`. The stable content hash is
/// maintained incrementally (`hash` is a pure function of the two lists, so
/// including it in the derived equality is sound and lets mismatches bail
/// early).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct PropSet {
    props: Vec<Prop>,
    communicated: Vec<NodeId>,
    /// Commutative mix of all entries; see [`PropSet::stable_hash`].
    hash: u64,
}

/// SplitMix64 finalizer: the per-entry mixer of the incremental set hash.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Stable 64-bit hash of one property.
#[inline]
fn prop_hash(p: Prop) -> u64 {
    let placement = match p.1 {
        Placement::Replicated => 0u64,
        Placement::PartialSum => 1,
        Placement::Shard(d) => 2 + (d as u64),
    };
    mix64((p.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ placement)
}

/// Stable 64-bit hash of one communicated marker (domain-separated from
/// property hashes).
#[inline]
fn comm_hash(e: NodeId) -> u64 {
    mix64((e as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f) ^ 0x5555_5555_5555_5555)
}

impl PropSet {
    /// The empty property set.
    pub fn new() -> Self {
        PropSet::default()
    }

    /// The properties, sorted.
    pub fn props(&self) -> &[Prop] {
        &self.props
    }

    /// Nodes already communicated, sorted.
    pub fn communicated(&self) -> &[NodeId] {
        &self.communicated
    }

    /// True if the set contains `p`.
    pub fn contains(&self, p: &Prop) -> bool {
        self.props.binary_search(p).is_ok()
    }

    /// True if every property in `pre` is present.
    pub fn contains_all(&self, pre: &[Prop]) -> bool {
        pre.iter().all(|p| self.contains(p))
    }

    /// True if any property of node `e` is present (the node is "produced").
    pub fn has_node(&self, e: NodeId) -> bool {
        let idx = self.props.partition_point(|&(n, _)| n < e);
        self.props.get(idx).is_some_and(|&(n, _)| n == e)
    }

    /// True if node `e` has already been communicated.
    pub fn is_communicated(&self, e: NodeId) -> bool {
        self.communicated.binary_search(&e).is_ok()
    }

    /// The contiguous slice of properties belonging to node `e` (the set is
    /// sorted by node first, so all of a node's placements are adjacent).
    /// Empty when the node carries no property.
    pub fn node_props(&self, e: NodeId) -> &[Prop] {
        let lo = self.props.partition_point(|&(n, _)| n < e);
        let hi = lo + self.props[lo..].partition_point(|&(n, _)| n == e);
        &self.props[lo..hi]
    }

    /// Inserts a property; returns false if it was already present.
    pub fn insert(&mut self, p: Prop) -> bool {
        match self.props.binary_search(&p) {
            Ok(_) => false,
            Err(idx) => {
                self.props.insert(idx, p);
                self.hash = self.hash.wrapping_add(prop_hash(p));
                true
            }
        }
    }

    /// Marks a node as communicated.
    pub fn mark_communicated(&mut self, e: NodeId) {
        if let Err(idx) = self.communicated.binary_search(&e) {
            self.communicated.insert(idx, e);
            self.hash = self.hash.wrapping_add(comm_hash(e));
        }
    }

    /// Removes properties not satisfying `keep`, along with communicated
    /// markers of nodes that no longer carry any property.
    pub fn retain(&mut self, mut keep: impl FnMut(&Prop) -> bool) {
        self.props.retain(|p| keep(p));
        // Both lists are sorted, so each marker resolves with one binary
        // search (O(C log P)) instead of a full rescan of the props per
        // marker (the old O(P·C) path).
        let props = std::mem::take(&mut self.props);
        self.communicated.retain(|&e| {
            let idx = props.partition_point(|&(n, _)| n < e);
            props.get(idx).is_some_and(|&(n, _)| n == e)
        });
        self.props = props;
        // Removal is the cold path: recompute the commutative mix.
        self.hash = self
            .props
            .iter()
            .map(|&p| prop_hash(p))
            .chain(self.communicated.iter().map(|&e| comm_hash(e)))
            .fold(0u64, u64::wrapping_add);
    }

    /// Stable content hash of the canonical set.
    ///
    /// Unlike `Hash`-derived hashing (whose value depends on the hasher
    /// instance), this is a pure function of the contents — identical
    /// across runs, platforms, and thread counts. The value is a
    /// commutative per-entry mix maintained incrementally on every
    /// mutation, so reading it is O(1).
    pub fn stable_hash(&self) -> u64 {
        self.hash
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.props.len()
    }

    /// True when no properties are present.
    pub fn is_empty(&self) -> bool {
        self.props.is_empty()
    }
}

/// True if `bit` is set in the bitset `set`.
#[inline]
pub(crate) fn has_bit(set: &[u64], bit: u32) -> bool {
    (set[(bit >> 6) as usize] >> (bit & 63)) & 1 == 1
}

/// Sets `bit` in the bitset `set`; returns whether it was clear before.
#[inline]
pub(crate) fn set_bit(set: &mut [u64], bit: u32) -> bool {
    let word = &mut set[(bit >> 6) as usize];
    let mask = 1u64 << (bit & 63);
    let was_clear = *word & mask == 0;
    *word |= mask;
    was_clear
}

/// Calls `f` with every set bit of `set`, in ascending order.
#[inline]
pub(crate) fn for_each_bit(set: &[u64], mut f: impl FnMut(u32)) {
    for (w, &word) in set.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(((w as u32) << 6) | bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

/// A free slot of [`SetArena`]'s probe table.
const EMPTY: u32 = u32::MAX;

/// Interned fixed-width bitsets: the search's property sets.
///
/// The theory numbers every property that appears in one of its triples,
/// and every node a collective can communicate, with one bit each, so a
/// program state's property set is a fixed number of `u64` words. Each
/// distinct set is stored once, back to back in one arena, and named by a
/// dense id assigned in insertion order, so ids are deterministic whenever
/// insertions are. Lookups probe an open-addressing table of ids by a
/// stable hash of the words. Nothing is allocated per set beyond the
/// arena's amortized growth, and dropping the arena frees three vectors.
pub(crate) struct SetArena {
    words: usize,
    data: Vec<u64>,
    hashes: Vec<u64>,
    /// Ids by hash, linear probing; the length is a power of two and at
    /// least twice the number of sets.
    slots: Vec<u32>,
}

impl SetArena {
    /// An empty arena of sets `words` words wide.
    pub(crate) fn new(words: usize) -> Self {
        SetArena { words, data: Vec::new(), hashes: Vec::new(), slots: vec![EMPTY; 64] }
    }

    /// Number of distinct sets interned.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The words of set `id`.
    #[inline]
    pub(crate) fn get(&self, id: u32) -> &[u64] {
        let at = id as usize * self.words;
        &self.data[at..at + self.words]
    }

    /// Stable hash of a set's words, identical across runs and platforms.
    #[inline]
    pub(crate) fn hash(set: &[u64]) -> u64 {
        mix64(
            set.iter()
                .fold(0, |h: u64, &w| (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)),
        )
    }

    /// The id of `set` (whose [`SetArena::hash`] is `hash`), if interned.
    #[inline]
    pub(crate) fn find(&self, set: &[u64], hash: u64) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let id = self.slots[i];
            if id == EMPTY {
                return None;
            }
            if self.hashes[id as usize] == hash && self.get(id) == set {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Interns `set` (whose [`SetArena::hash`] is `hash`), returning its id
    /// and whether it was new.
    pub(crate) fn insert(&mut self, set: &[u64], hash: u64) -> (u32, bool) {
        debug_assert_eq!(set.len(), self.words);
        if let Some(id) = self.find(set, hash) {
            return (id, false);
        }
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("set arena id space exhausted");
        self.data.extend_from_slice(set);
        self.hashes.push(hash);
        if self.len() * 2 > self.slots.len() {
            self.slots = vec![EMPTY; self.slots.len() * 2];
            for old in 0..=id {
                self.place(old);
            }
        } else {
            self.place(id);
        }
        (id, true)
    }

    fn place(&mut self, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = self.hashes[id as usize] as usize & mask;
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = id;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut s = PropSet::new();
        assert!(s.insert((3, Placement::Shard(0))));
        assert!(s.insert((1, Placement::Replicated)));
        assert!(!s.insert((3, Placement::Shard(0))));
        assert!(s.contains(&(1, Placement::Replicated)));
        assert!(s.contains_all(&[(1, Placement::Replicated), (3, Placement::Shard(0))]));
        assert!(!s.contains(&(3, Placement::Shard(1))));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn has_node_any_placement() {
        let mut s = PropSet::new();
        s.insert((5, Placement::PartialSum));
        assert!(s.has_node(5));
        assert!(!s.has_node(4));
        s.insert((4, Placement::Shard(1)));
        assert!(s.has_node(4));
    }

    #[test]
    fn canonical_equality() {
        let mut a = PropSet::new();
        a.insert((2, Placement::Shard(1)));
        a.insert((1, Placement::Replicated));
        let mut b = PropSet::new();
        b.insert((1, Placement::Replicated));
        b.insert((2, Placement::Shard(1)));
        assert_eq!(a, b);
        b.mark_communicated(2);
        assert_ne!(a, b);
    }

    #[test]
    fn stable_hash_tracks_canonical_identity() {
        let mut a = PropSet::new();
        a.insert((2, Placement::Shard(1)));
        a.insert((1, Placement::Replicated));
        let mut b = PropSet::new();
        b.insert((1, Placement::Replicated));
        b.insert((2, Placement::Shard(1)));
        // Insertion order is irrelevant: equal sets hash equal.
        assert_eq!(a.stable_hash(), b.stable_hash());
        b.mark_communicated(2);
        assert_ne!(a.stable_hash(), b.stable_hash());
        let mut c = PropSet::new();
        c.insert((2, Placement::Shard(0)));
        c.insert((1, Placement::Replicated));
        assert_ne!(a.stable_hash(), c.stable_hash());
        assert_ne!(PropSet::new().stable_hash(), a.stable_hash());
    }

    #[test]
    fn node_props_returns_the_nodes_slice() {
        let mut s = PropSet::new();
        s.insert((2, Placement::Shard(1)));
        s.insert((2, Placement::Replicated));
        s.insert((5, Placement::PartialSum));
        assert_eq!(s.node_props(2), &[(2, Placement::Replicated), (2, Placement::Shard(1))]);
        assert_eq!(s.node_props(5), &[(5, Placement::PartialSum)]);
        assert!(s.node_props(3).is_empty());
        assert!(s.node_props(99).is_empty());
        assert!(PropSet::new().node_props(0).is_empty());
    }

    #[test]
    fn retain_cleans_communicated() {
        let mut s = PropSet::new();
        s.insert((7, Placement::Shard(0)));
        s.insert((8, Placement::Replicated));
        s.mark_communicated(7);
        assert!(s.is_communicated(7));
        s.retain(|&(n, _)| n != 7);
        assert!(!s.is_communicated(7));
        assert!(s.has_node(8));
    }

    #[test]
    fn retain_keeps_markers_of_surviving_nodes() {
        let mut s = PropSet::new();
        for n in [1usize, 3, 5, 7, 9] {
            s.insert((n, Placement::Shard(0)));
            s.insert((n, Placement::Replicated));
            s.mark_communicated(n);
        }
        s.retain(|&(n, _)| n != 5);
        // Node 5 lost every property; its marker must go. The rest survive.
        assert!(!s.is_communicated(5));
        for n in [1usize, 3, 7, 9] {
            assert!(s.is_communicated(n), "marker of node {n} must survive");
        }
    }

    #[test]
    fn bit_helpers_set_test_and_enumerate() {
        let mut set = vec![0u64; 3];
        assert!(set_bit(&mut set, 0));
        assert!(set_bit(&mut set, 70));
        assert!(set_bit(&mut set, 191));
        assert!(!set_bit(&mut set, 70), "setting a set bit reports it was set");
        assert!(has_bit(&set, 70) && has_bit(&set, 191) && !has_bit(&set, 69));
        let mut seen = Vec::new();
        for_each_bit(&set, |b| seen.push(b));
        assert_eq!(seen, vec![0, 70, 191]);
    }

    #[test]
    fn set_arena_is_content_addressed_with_dense_ids() {
        let mut arena = SetArena::new(2);
        let a = [1u64, 0];
        let b = [0u64, 1 << 40];
        let (ia, new_a) = arena.insert(&a, SetArena::hash(&a));
        let (ib, new_b) = arena.insert(&b, SetArena::hash(&b));
        assert!(new_a && new_b);
        assert_eq!((ia, ib), (0, 1), "ids are dense, in insertion order");
        assert_eq!(arena.insert(&a, SetArena::hash(&a)), (0, false));
        assert_eq!(arena.find(&b, SetArena::hash(&b)), Some(1));
        assert_eq!(arena.find(&[1, 1], SetArena::hash(&[1, 1])), None);
        assert_eq!(arena.get(ib), &b);
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn set_arena_finds_every_set_across_table_growth() {
        let mut arena = SetArena::new(3);
        let sets: Vec<[u64; 3]> = (0..1000u64).map(|i| [i, i.wrapping_mul(31), !i]).collect();
        for (i, s) in sets.iter().enumerate() {
            assert_eq!(arena.insert(s, SetArena::hash(s)), (i as u32, true));
        }
        for (i, s) in sets.iter().enumerate() {
            assert_eq!(arena.find(s, SetArena::hash(s)), Some(i as u32));
            assert_eq!(arena.get(i as u32), s);
        }
    }
}
