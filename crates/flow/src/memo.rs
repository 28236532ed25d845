//! The one bounded memo type: a concurrent map cleared wholesale when
//! full. The implementation cache keeps its packing and stitch memos in
//! it, and `tms-serve` its request memos.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, PoisonError, RwLock};

/// A concurrent map of at most `capacity` entries, cleared wholesale when
/// an insert of a new key finds it full: a long-lived process that keeps
/// seeing new keys recomputes rather than grows, and no entry needs a
/// recency stamp. Lookups share a read lock and return the shared value,
/// so a hit copies nothing. The lock is held only to read or to insert,
/// never while a value is computed, so two threads that miss on one key
/// both compute it and the second insert replaces the first.
pub struct Memo<K, V> {
    map: RwLock<HashMap<K, Arc<V>>>,
    capacity: usize,
}

impl<K: Eq + Hash, V> Memo<K, V> {
    /// An empty memo of at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Memo {
            map: RwLock::new(HashMap::new()),
            capacity,
        }
    }

    /// The remembered value for `key`.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        // A poisoned map is still whole: no operation on it panics midway.
        let map = self.map.read().unwrap_or_else(PoisonError::into_inner);
        map.get(key).cloned()
    }

    /// Remember `value` under `key`, clearing the memo first if it is full.
    pub fn insert(&self, key: K, value: V) -> Arc<V> {
        let value = Arc::new(value);
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        if map.len() >= self.capacity && !map.contains_key(&key) {
            map.clear();
        }
        map.insert(key, Arc::clone(&value));
        value
    }

    /// Entries currently remembered.
    pub fn len(&self) -> usize {
        self.map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_never_exceeds_its_cap() {
        const CAP: usize = 256;
        let memo: Memo<u64, u64> = Memo::new(CAP);
        for k in 0..3 * CAP as u64 {
            memo.insert(k, k * 2);
            assert!(memo.len() <= CAP);
        }
        // Wholesale clearing: the entries before the last clear are gone,
        // the ones after it are all there.
        let last = 3 * CAP as u64 - 1;
        assert_eq!(memo.get(&last).as_deref(), Some(&(last * 2)));
        assert!(memo.get(&0).is_none());
        // Re-inserting a present key at the cap clears nothing.
        let len = memo.len();
        memo.insert(last, 1);
        assert_eq!(memo.len(), len);
    }
}
