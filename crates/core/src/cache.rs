//! Feedback-aware caching of Steiner query searches.
//!
//! The interactive loop (§2.2, §4.2) re-runs top-k Steiner search on
//! every paste and every MIRA feedback update. Repeated pastes against
//! an unchanged graph are common — the user pastes several tuples, or
//! re-opens the suggestion list — so the engine keeps a small cache of
//! search results keyed on `(terminal set, k)` and stamped with the
//! [`SourceGraph::version`] they were computed at. A feedback update
//! bumps the graph version, which lazily invalidates stale entries:
//! only the terminal sets that are actually queried again get
//! recomputed.

use copycat_graph::{EdgeId, NodeId, SourceGraph, SteinerTree};
use copycat_util::hash::FxHashMap;
use copycat_util::sync::Mutex;
use std::collections::VecDeque;

/// Hit/miss counters, readable for tests and instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a fresh entry.
    pub hits: u64,
    /// Lookups that had no entry at all.
    pub misses: u64,
    /// Lookups that found an entry stamped with an older graph version
    /// (counted in addition to the miss they become).
    pub invalidations: u64,
}

#[derive(Debug)]
struct Entry {
    version: u64,
    trees: Vec<SteinerTree>,
}

/// Cache key: sorted deduped terminals, k, and the sorted banned-edge
/// set (empty for the normal path; a failover search with tripped
/// services banned is a distinct entry).
type Key = (Vec<NodeId>, usize, Vec<EdgeId>);

#[derive(Debug, Default)]
struct Inner {
    map: FxHashMap<Key, Entry>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<Key>,
    stats: CacheStats,
}

/// A version-stamped cache of Steiner search results. Interior-mutable
/// so read paths (`&self` engine methods) can use it.
#[derive(Debug)]
pub struct QueryCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl Default for QueryCache {
    fn default() -> Self {
        Self::new(256)
    }
}

impl QueryCache {
    /// A cache holding at most `capacity` terminal-set entries (FIFO
    /// eviction).
    pub fn new(capacity: usize) -> Self {
        Self { inner: Mutex::new(Inner::default()), capacity: capacity.max(1) }
    }

    /// The trees for `(terminals, k, banned)` at the graph's current
    /// version: served from cache when a fresh entry exists, otherwise
    /// computed via `compute` (outside the cache lock) and stored. A
    /// stale entry — same key, older version — is replaced and counted
    /// as an invalidation. The ban set is part of the key, so the
    /// failover search (tripped services' edges banned) caches
    /// separately from the healthy one.
    pub fn trees_for(
        &self,
        g: &SourceGraph,
        terminals: &[NodeId],
        k: usize,
        banned: &[EdgeId],
        compute: impl FnOnce() -> Vec<SteinerTree>,
    ) -> Vec<SteinerTree> {
        let mut key_terms = terminals.to_vec();
        key_terms.sort_unstable();
        key_terms.dedup();
        let mut key_banned = banned.to_vec();
        key_banned.sort_unstable();
        key_banned.dedup();
        let key = (key_terms, k, key_banned);
        let version = g.version();
        {
            let mut inner = self.inner.lock();
            match inner.map.get(&key) {
                Some(entry) if entry.version == version => {
                    let trees = entry.trees.clone();
                    inner.stats.hits += 1;
                    return trees;
                }
                Some(_) => inner.stats.invalidations += 1,
                None => {}
            }
            inner.stats.misses += 1;
        }
        let trees = compute();
        let mut inner = self.inner.lock();
        if !inner.map.contains_key(&key) {
            inner.order.push_back(key.clone());
            if inner.order.len() > self.capacity {
                if let Some(evicted) = inner.order.pop_front() {
                    inner.map.remove(&evicted);
                }
            }
        }
        inner.map.insert(key, Entry { version, trees: trees.clone() });
        trees
    }

    /// Drop every entry (e.g. after a wholesale graph replacement, where
    /// version numbering restarts).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.order.clear();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copycat_graph::{top_k_steiner, EdgeKind, Mira};
    use copycat_query::Schema;

    /// Diamond: a–b–d (1.0 + 1.0) vs a–c–d (1.5 + 1.5).
    fn diamond() -> (SourceGraph, Vec<NodeId>) {
        let mut g = SourceGraph::new();
        let ids: Vec<NodeId> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| g.add_relation(*n, Schema::of(&["X"])))
            .collect();
        let j = || EdgeKind::Join { pairs: vec![("X".into(), "X".into())] };
        g.add_edge_with_cost(ids[0], ids[1], j(), 1.0);
        g.add_edge_with_cost(ids[1], ids[3], j(), 1.0);
        g.add_edge_with_cost(ids[0], ids[2], j(), 1.5);
        g.add_edge_with_cost(ids[2], ids[3], j(), 1.5);
        (g, ids)
    }

    #[test]
    fn repeat_lookups_hit() {
        let (g, ids) = diamond();
        let cache = QueryCache::default();
        let terms = [ids[0], ids[3]];
        let a = cache.trees_for(&g, &terms, 2, &[], || top_k_steiner(&g, &terms, 2));
        let b = cache.trees_for(&g, &terms, 2, &[], || panic!("must be served from cache"));
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidations), (1, 1, 0));
    }

    #[test]
    fn mira_update_invalidates_and_matches_cold_search() {
        let (mut g, ids) = diamond();
        let cache = QueryCache::default();
        let terms = [ids[0], ids[3]];
        let warm = cache.trees_for(&g, &terms, 2, &[], || top_k_steiner(&g, &terms, 2));
        assert_eq!(warm[0].edges, vec![copycat_graph::EdgeId(0), copycat_graph::EdgeId(1)]);
        // Feedback flips the ranking: prefer the a–c–d path.
        let preferred = warm[1].edges.clone();
        let rejected = warm[0].edges.clone();
        let tau = Mira::default().apply(&mut g, &preferred, &rejected);
        assert!(tau > 0.0, "feedback must change costs");
        // The cache must notice the version bump and agree with a cold
        // search, not replay the stale ranking.
        let cached = cache.trees_for(&g, &terms, 2, &[], || top_k_steiner(&g, &terms, 2));
        let cold = top_k_steiner(&g, &terms, 2);
        assert_eq!(cached, cold);
        assert_eq!(cached[0].edges, preferred, "new ranking visible through the cache");
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let (g, ids) = diamond();
        let cache = QueryCache::default();
        let t1 = [ids[0], ids[3]];
        let t2 = [ids[0], ids[1]];
        let r1 = cache.trees_for(&g, &t1, 1, &[], || top_k_steiner(&g, &t1, 1));
        let r2 = cache.trees_for(&g, &t2, 1, &[], || top_k_steiner(&g, &t2, 1));
        assert_ne!(r1, r2);
        // Same set, different k: separate entry.
        let r3 = cache.trees_for(&g, &t1, 2, &[], || top_k_steiner(&g, &t1, 2));
        assert_eq!(r3.len(), 2);
        // Terminal order does not matter.
        let swapped = [ids[3], ids[0]];
        cache.trees_for(&g, &swapped, 1, &[], || panic!("order-insensitive key"));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let (g, ids) = diamond();
        let cache = QueryCache::new(1);
        let t1 = [ids[0], ids[3]];
        let t2 = [ids[0], ids[1]];
        cache.trees_for(&g, &t1, 1, &[], || top_k_steiner(&g, &t1, 1));
        cache.trees_for(&g, &t2, 1, &[], || top_k_steiner(&g, &t2, 1));
        // t1 was evicted: this is a miss, not a hit.
        cache.trees_for(&g, &t1, 1, &[], || top_k_steiner(&g, &t1, 1));
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn clear_empties_the_cache() {
        let (g, ids) = diamond();
        let cache = QueryCache::default();
        let terms = [ids[0], ids[3]];
        cache.trees_for(&g, &terms, 1, &[], || top_k_steiner(&g, &terms, 1));
        cache.clear();
        cache.trees_for(&g, &terms, 1, &[], || top_k_steiner(&g, &terms, 1));
        assert_eq!(cache.stats().misses, 2);
    }
}
