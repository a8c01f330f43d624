//! Contiguous per-agent state arenas for large-scale ABM replicas.
//!
//! The pre-arena simulator kept the active-node set as a `Vec<usize>`
//! (8 bytes per node — 8 MB of index traffic per step at 1M nodes) and
//! allocated a fresh per-class probability vector every step. This
//! module packs everything the step loop touches into flat, exact-sized
//! arenas so a million-node replica fits comfortably and iterates
//! cache-linearly:
//!
//! * [`BitSet`] — the active (non-isolated) node set at one bit per
//!   node (125 KB at 1M nodes), iterated in ascending node order so the
//!   RNG consumption order is **identical** to the old index-vector
//!   walk — bit-for-bit trajectory parity at equal seeds is pinned
//!   against the pre-arena oracle in `abm/reference.rs`.
//! * [`StateArena`] — current and next state codes as two `n`-byte
//!   arrays ([`NodeState`] is a one-byte fieldless enum; asserted
//!   below) with a `commit` that copies next → current, exactly like
//!   the historical `copy_from_slice` double buffer.
//!
//! Neither structure allocates after construction; the step loop in
//! [`crate::abm::run`] performs zero heap allocations per step.

use crate::NodeState;

/// One-byte state codes are what makes the arena an arena: `2 * n`
/// bytes of state for `n` agents.
const _: () = assert!(std::mem::size_of::<NodeState>() == 1);

/// A fixed-capacity bitset over node ids `0..n`, iterated in ascending
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    n: usize,
    ones: usize,
}

impl BitSet {
    /// An empty set over `0..n`.
    pub fn new(n: usize) -> Self {
        BitSet {
            words: vec![0u64; n.div_ceil(64)],
            n,
            ones: 0,
        }
    }

    /// Builds the set containing every `u in 0..n` with `pred(u)`.
    pub fn from_pred(n: usize, mut pred: impl FnMut(usize) -> bool) -> Self {
        let mut set = BitSet::new(n);
        for u in 0..n {
            if pred(u) {
                set.insert(u);
            }
        }
        set
    }

    /// Inserts `u`; no-op if already present.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    pub fn insert(&mut self, u: usize) {
        assert!(u < self.n, "bit {u} out of range 0..{}", self.n);
        let (w, b) = (u / 64, u % 64);
        if self.words[w] & (1u64 << b) == 0 {
            self.words[w] |= 1u64 << b;
            self.ones += 1;
        }
    }

    /// Whether `u` is in the set (`false` for out-of-range `u`).
    pub fn contains(&self, u: usize) -> bool {
        u < self.n && self.words[u / 64] & (1u64 << (u % 64)) != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.ones
    }

    /// Capacity (the `n` of construction).
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// Iterates set bits in ascending order — the same node order as a
    /// sorted index vector, which is what keeps RNG consumption
    /// bit-identical to the pre-arena simulator.
    pub fn iter(&self) -> BitSetIter<'_> {
        BitSetIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Ascending iterator over the set bits of a [`BitSet`].
pub struct BitSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for BitSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * 64 + bit)
    }
}

/// Double-buffered per-agent state codes: two flat `n`-byte arrays and
/// a commit that mirrors the historical `copy_from_slice` hand-over.
#[derive(Debug, Clone)]
pub struct StateArena {
    current: Vec<NodeState>,
    next: Vec<NodeState>,
}

impl StateArena {
    /// Takes ownership of the seeded initial states; `next` starts as a
    /// copy (the synchronous update only writes changed nodes).
    pub fn new(initial: Vec<NodeState>) -> Self {
        let next = initial.clone();
        StateArena {
            current: initial,
            next,
        }
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// The committed (current-step) states.
    pub fn current(&self) -> &[NodeState] {
        &self.current
    }

    /// State of node `u` at the current step.
    pub fn get(&self, u: usize) -> NodeState {
        self.current[u]
    }

    /// Stages `state` for node `u`, visible after [`StateArena::commit`].
    pub fn stage(&mut self, u: usize, state: NodeState) {
        self.next[u] = state;
    }

    /// Publishes all staged writes (next → current), leaving `next`
    /// equal to `current` for the following step.
    pub fn commit(&mut self) {
        self.current.copy_from_slice(&self.next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_iterates_in_ascending_order() {
        let members = [0usize, 1, 63, 64, 65, 127, 128, 199];
        let mut set = BitSet::new(200);
        // Insert out of order; iteration must still be ascending.
        for &u in members.iter().rev() {
            set.insert(u);
        }
        let got: Vec<usize> = set.iter().collect();
        assert_eq!(got, members);
        assert_eq!(set.count(), members.len());
    }

    #[test]
    fn bitset_matches_index_vector_on_random_membership() {
        // SplitMix64-style pseudo-random membership, no rand dependency.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut step = move || {
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            x
        };
        for n in [0usize, 1, 63, 64, 65, 1000] {
            let wanted: Vec<bool> = (0..n).map(|_| step() % 3 == 0).collect();
            let set = BitSet::from_pred(n, |u| wanted[u]);
            let reference: Vec<usize> = (0..n).filter(|&u| wanted[u]).collect();
            assert_eq!(set.iter().collect::<Vec<_>>(), reference, "n = {n}");
            assert_eq!(set.count(), reference.len());
            for u in 0..n {
                assert_eq!(set.contains(u), wanted[u]);
            }
            assert!(!set.contains(n));
        }
    }

    #[test]
    fn bitset_insert_is_idempotent() {
        let mut set = BitSet::new(10);
        set.insert(3);
        set.insert(3);
        assert_eq!(set.count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitset_rejects_out_of_range_insert() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn arena_commit_publishes_staged_writes() {
        let mut arena = StateArena::new(vec![NodeState::Susceptible; 4]);
        arena.stage(2, NodeState::Infected);
        // Staged writes are invisible until commit.
        assert_eq!(arena.get(2), NodeState::Susceptible);
        arena.commit();
        assert_eq!(arena.get(2), NodeState::Infected);
        // Uncommitted nodes carry forward.
        assert_eq!(arena.get(0), NodeState::Susceptible);
        assert_eq!(arena.len(), 4);
        assert!(!arena.is_empty());
    }
}
