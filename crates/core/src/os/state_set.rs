//! Deduplicating sets of model states.
//!
//! The checker tracks the set of states the real system might be in (§5).
//! The specification's treatment of nondeterminism keeps these sets tiny
//! (§3), but they are rebuilt for every trace step, so insertion and
//! membership testing sit squarely on the hot path. A [`StateSet`] dedups on
//! insert using each state's cached 64-bit [fingerprint](crate::os::OsState::fingerprint):
//! the fingerprint is looked up in a hash index and only states whose
//! fingerprints collide are compared structurally, so the common case is one
//! hash computation and one table probe instead of the O(n²) full structural
//! comparisons a `Vec::contains`-based set performs.
//!
//! The index is built lazily, at the second insert, which hashes both
//! states then. A set that never holds more than one state, as on every
//! step of a sequential trace, hashes nothing; its `contains` compares
//! structurally.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use crate::os::OsState;

// The FxHash hasher now lives in `crate::fxhash` (it is shared with the name
// interner); re-exported here so existing `os::state_set::FxHasher64` paths
// keep working.
pub use crate::fxhash::FxHasher64;

/// The index maps fingerprints to positions in the insertion-ordered state
/// vector; fingerprints are already uniformly mixed, so the index hashes them
/// with [`FxHasher64`] rather than SipHash.
type FingerprintIndex = HashMap<u64, Vec<u32>, BuildHasherDefault<FxHasher64>>;

/// An insertion-ordered set of [`OsState`]s deduplicated by fingerprint.
///
/// Equal states (structural equality) are stored once. Fingerprint collisions
/// between unequal states are resolved with a structural comparison, so the
/// set is exact, not probabilistic. Iteration yields states in first-insertion
/// order, which keeps checker diagnostics and recovery deterministic.
#[derive(Debug, Default, Clone)]
pub struct StateSet {
    states: Vec<OsState>,
    /// Empty until the second insert, so empty only while `states` holds at
    /// most one state; from then on it indexes every state.
    index: FingerprintIndex,
    // Inserts that found an equal state already present. A plain (non-atomic)
    // local tally: the insert path is too hot for shared atomics, so the
    // checker drains this into the global registry once per step via
    // `take_dedup_hits`.
    dedup_hits: u64,
}

impl StateSet {
    /// An empty set.
    pub fn new() -> StateSet {
        StateSet::default()
    }

    /// A set containing exactly `st`.
    pub fn singleton(st: OsState) -> StateSet {
        let mut set = StateSet::new();
        set.insert(st);
        set
    }

    /// Insert a state, returning `true` if it was not already present.
    pub fn insert(&mut self, st: OsState) -> bool {
        self.insert_full(st).1
    }

    /// Insert a state, returning its position in insertion order and whether
    /// it was newly inserted (`false` when an equal state was already present
    /// — the returned index is then the existing state's). Used by the POR
    /// layer, which keeps per-state sleep sets parallel to the state vector.
    ///
    /// The first insert into an empty set hashes nothing: the index is
    /// built at the second insert, which fingerprints the state already
    /// present and the new one.
    pub fn insert_full(&mut self, st: OsState) -> (usize, bool) {
        if self.index.is_empty() {
            match self.states.first() {
                None => {
                    self.states.push(st);
                    return (0, true);
                }
                Some(first) => {
                    self.index.insert(first.fingerprint(), vec![0]);
                }
            }
        }
        let fp = st.fingerprint();
        let slot = self.index.entry(fp).or_default();
        if let Some(&i) = slot.iter().find(|&&i| self.states[i as usize] == st) {
            self.dedup_hits += 1;
            return (i as usize, false);
        }
        let idx = self.states.len();
        slot.push(idx as u32);
        self.states.push(st);
        (idx, true)
    }

    /// Remove every state, keeping allocated capacity for reuse.
    pub fn clear(&mut self) {
        self.states.clear();
        self.index.clear();
    }

    /// Whether an equal state is already present.
    pub fn contains(&self, st: &OsState) -> bool {
        if self.index.is_empty() {
            // At most one state, not yet indexed.
            return self.states.iter().any(|s| s == st);
        }
        match self.index.get(&st.fingerprint()) {
            Some(slot) => slot.iter().any(|&i| &self.states[i as usize] == st),
            None => false,
        }
    }

    /// Number of distinct states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The states in insertion order.
    pub fn states(&self) -> &[OsState] {
        &self.states
    }

    /// The state at `idx` (insertion order).
    pub fn get(&self, idx: usize) -> Option<&OsState> {
        self.states.get(idx)
    }

    /// Iterate over the states in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, OsState> {
        self.states.iter()
    }

    /// Keep only the first `n` states (used by the checker's `max_states`
    /// safety bound). A no-op when the set is already small enough.
    pub fn truncate(&mut self, n: usize) {
        if self.states.len() <= n {
            return;
        }
        self.states.truncate(n);
        for slot in self.index.values_mut() {
            slot.retain(|&i| (i as usize) < n);
        }
        self.index.retain(|_, slot| !slot.is_empty());
    }

    /// Consume the set, yielding the states in insertion order.
    pub fn into_states(self) -> Vec<OsState> {
        self.states
    }

    /// Take (and reset) the count of inserts deduplicated against an
    /// already-present equal state since the last call. The checker flushes
    /// this into `obs::m::STATE_DEDUP_HITS_TOTAL` at step granularity.
    pub fn take_dedup_hits(&mut self) -> u64 {
        std::mem::take(&mut self.dedup_hits)
    }
}

impl Extend<OsState> for StateSet {
    fn extend<T: IntoIterator<Item = OsState>>(&mut self, iter: T) {
        for st in iter {
            self.insert(st);
        }
    }
}

impl FromIterator<OsState> for StateSet {
    fn from_iter<T: IntoIterator<Item = OsState>>(iter: T) -> StateSet {
        let mut set = StateSet::new();
        set.extend(iter);
        set
    }
}

impl From<Vec<OsState>> for StateSet {
    fn from(states: Vec<OsState>) -> StateSet {
        states.into_iter().collect()
    }
}

impl IntoIterator for StateSet {
    type Item = OsState;
    type IntoIter = std::vec::IntoIter<OsState>;

    fn into_iter(self) -> Self::IntoIter {
        self.states.into_iter()
    }
}

impl<'a> IntoIterator for &'a StateSet {
    type Item = &'a OsState;
    type IntoIter = std::slice::Iter<'a, OsState>;

    fn into_iter(self) -> Self::IntoIter {
        self.states.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::FileMode;
    use crate::flavor::{Flavor, SpecConfig};
    use crate::types::{Pid, INITIAL_PID};
    use std::hash::Hasher;

    fn initial() -> OsState {
        OsState::initial_with_process(&SpecConfig::standard(Flavor::Linux), INITIAL_PID)
    }

    /// The initial state with the initial process's umask set to `mask`: a
    /// cheap way to make distinct states.
    fn with_umask(mask: u32) -> OsState {
        let mut st = initial();
        if let Some(p) = st.proc_mut(INITIAL_PID) {
            p.umask = FileMode::new(mask);
        }
        st
    }

    #[test]
    fn insert_dedups_equal_states() {
        let mut set = StateSet::new();
        assert!(set.insert(initial()));
        assert!(!set.insert(initial()));
        assert_eq!(set.len(), 1);
        assert!(set.contains(&initial()));
    }

    #[test]
    fn the_index_is_built_at_the_second_insert() {
        let mut set = StateSet::singleton(initial());
        assert!(set.states()[0].fingerprint.get().is_none(), "one state was hashed");
        assert!(set.contains(&initial()));
        assert!(!set.contains(&with_umask(0o077)));
        assert!(set.insert(with_umask(0o077)));
        assert!(set.states().iter().all(|st| st.fingerprint.get().is_some()));
        assert!(set.contains(&initial()) && set.contains(&with_umask(0o077)));
    }

    #[test]
    fn distinct_states_are_kept_in_insertion_order() {
        let mut set = StateSet::new();
        let a = initial();
        let b = with_umask(0o077);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(set.insert(a.clone()));
        assert!(set.insert(b.clone()));
        assert_eq!(set.len(), 2);
        assert_eq!(set.states()[0], a);
        assert_eq!(set.states()[1], b);
    }

    #[test]
    fn truncate_drops_states_and_index_entries() {
        let mut set = StateSet::new();
        for mask in 0..4 {
            set.insert(with_umask(mask));
        }
        assert_eq!(set.len(), 4);
        let survivor = set.states()[1].clone();
        let dropped = set.states()[3].clone();
        set.truncate(2);
        assert_eq!(set.len(), 2);
        assert!(set.contains(&survivor));
        assert!(!set.contains(&dropped));
        // A dropped state can be re-inserted.
        assert!(set.insert(dropped));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn fingerprint_is_stable_across_clones() {
        let st = initial();
        let fp = st.fingerprint();
        assert_eq!(st.clone().fingerprint(), fp);
        assert_eq!(initial().fingerprint(), fp);
        assert_ne!(fp, 0, "0 is reserved for 'not yet computed'");
    }

    #[test]
    fn states_differing_only_in_pid_table_are_distinct() {
        let cfg = SpecConfig::standard(Flavor::Linux);
        let a = OsState::initial_with_process(&cfg, INITIAL_PID);
        let b = OsState::initial_with_process(&cfg, Pid(2));
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut set = StateSet::new();
        set.insert(a);
        set.insert(b);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn fx_hasher_handles_tail_bytes() {
        fn hash_of(bytes: &[u8]) -> u64 {
            let mut h = FxHasher64::default();
            h.write(bytes);
            h.finish()
        }
        assert_ne!(hash_of(b"abc"), hash_of(b"abd"));
        assert_ne!(hash_of(b"abc"), hash_of(b"abc\0"));
        assert_ne!(hash_of(b"12345678"), hash_of(b"123456789"));
        assert_eq!(hash_of(b"abc"), hash_of(b"abc"));
    }
}
