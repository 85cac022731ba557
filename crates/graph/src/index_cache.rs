//! Verified per-graph caches keyed on graph identity: the
//! [`VerifiedCache`] behind the static-projection cache
//! ([`global_projection_cache`](crate::static_proj::global_projection_cache)).
//!
//! The per-graph structures the counting engines read — the SoA
//! columns, the windowed candidate index and the static triangle table —
//! live on the graph itself ([`TemporalGraph::columns`],
//! [`TemporalGraph::window_index`], [`TemporalGraph::triangles`]): each
//! is built once on first use and shared by every count of that graph
//! object. A [`VerifiedCache`] is for a structure a caller wants shared
//! across calls that hand it only a `&TemporalGraph`, without the graph
//! owning it.
//!
//! ## Identity without ownership
//!
//! Callers hand a plain `&TemporalGraph`, so the cache cannot key on an
//! owned handle. Instead an entry is keyed on the graph's **event
//! buffer address and length** — stable for the graph's whole lifetime
//! (moving a graph moves the `Vec` header, not its heap buffer; cloning
//! allocates a fresh buffer and therefore a fresh key). Addresses can be
//! recycled after a graph is dropped, so a key match alone is never
//! trusted: every hit is **verified** against the graph with
//! [`GraphDerived::matches`], an `O(m)` pass that is cheaper than a
//! rebuild. A verification failure counts as a miss and the stale entry
//! is replaced. The cache is therefore exactly as correct as building
//! fresh, merely faster.
//!
//! ## Concurrency
//!
//! Lookups take a short mutex; both construction and the `O(m)` hit
//! verification happen **outside** the lock, so concurrent lookups of
//! different graphs never serialize behind one build or one verify. Two
//! threads racing to build the same graph's structure do duplicate work
//! once, then share the winning entry.
//!
//! ## Memory
//!
//! A cache retains up to its capacity of values for the process
//! lifetime, including values of graphs that have since been dropped.
//! Call [`VerifiedCache::clear`] after releasing a large graph to return
//! the memory immediately.

use crate::graph::TemporalGraph;
use crate::window_index::WindowIndex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A per-graph structure a [`VerifiedCache`] can hold.
pub trait GraphDerived: Send + Sync + Sized {
    /// Prefix of the cache's metric names: `{prefix}.{hits,misses,
    /// rejected}` counters and the `{prefix}.verify_ns` histogram.
    const METRIC_PREFIX: &'static str;

    /// Builds the structure from `graph`.
    fn build(graph: &TemporalGraph) -> Self;

    /// True iff this structure describes exactly `graph`.
    fn matches(&self, graph: &TemporalGraph) -> bool;
}

/// Observability counters of a [`VerifiedCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered by a verified cached entry.
    pub hits: u64,
    /// Lookups that had no usable entry for the graph's key.
    pub misses: u64,
    /// Key collisions rejected by content verification (recycled buffer
    /// addresses); each also counts as a miss.
    pub rejected: u64,
}

/// One cached value with its identity key and LRU stamp.
struct Entry<T> {
    /// `(events buffer address, event count)` of the graph it describes.
    key: (usize, usize),
    value: Arc<T>,
    last_used: u64,
}

/// The metric names of one cache, formatted once from its prefix.
struct MetricNames {
    hits: String,
    misses: String,
    rejected: String,
    verify_ns: String,
}

/// A bounded, verified cache of per-graph structures keyed on graph
/// identity. See the [module docs](self) for the identity, correctness
/// and locking model.
pub struct VerifiedCache<T> {
    entries: Mutex<Vec<Entry<T>>>,
    capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    names: MetricNames,
}

impl<T: GraphDerived> std::fmt::Debug for VerifiedCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifiedCache")
            .field("kind", &T::METRIC_PREFIX)
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<T: GraphDerived> VerifiedCache<T> {
    /// An empty cache retaining at most `capacity` graphs.
    pub fn new(capacity: usize) -> Self {
        let name = |what: &str| format!("{}.{what}", T::METRIC_PREFIX);
        VerifiedCache {
            entries: Mutex::new(Vec::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            names: MetricNames {
                hits: name("hits"),
                misses: name("misses"),
                rejected: name("rejected"),
                verify_ns: name("verify_ns"),
            },
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry<T>>> {
        self.entries.lock().expect("graph cache poisoned")
    }

    /// Returns the cached value for `graph`, building (and caching) it on
    /// a miss. Hits are verified against the graph's actual content, so
    /// the returned value is always correct for `graph`.
    pub fn get_or_build(&self, graph: &TemporalGraph) -> Arc<T> {
        let key = (graph.events().as_ptr() as usize, graph.num_events());
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        // Fetch the candidate under the lock, but verify it outside: a
        // lookup of another graph must never wait on this O(m) pass.
        let candidate = self.lock().iter_mut().find(|e| e.key == key).map(|e| {
            e.last_used = stamp;
            Arc::clone(&e.value)
        });
        if let Some(value) = candidate {
            let verify_start = tnm_obs::enabled().then(std::time::Instant::now);
            let verified = value.matches(graph);
            if let Some(t0) = verify_start {
                tnm_obs::histogram_record_ns(&self.names.verify_ns, t0.elapsed().as_nanos() as u64);
            }
            if verified {
                self.hits.fetch_add(1, Ordering::Relaxed);
                tnm_obs::counter_add(&self.names.hits, 1);
                return value;
            }
            // Recycled buffer address: the entry describes a dead graph.
            // Drop exactly the value we verified (a racing thread may
            // already have replaced it with a fresh, correct one); the
            // rebuild below replaces it.
            self.rejected.fetch_add(1, Ordering::Relaxed);
            tnm_obs::counter_add(&self.names.rejected, 1);
            self.lock().retain(|e| e.key != key || !Arc::ptr_eq(&e.value, &value));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        tnm_obs::counter_add(&self.names.misses, 1);
        let built = Arc::new(T::build(graph));
        let mut entries = self.lock();
        match entries.iter_mut().find(|e| e.key == key) {
            // A racing thread cached the same graph while we built: the
            // caller's graph is alive, so an entry under its buffer
            // address can only have been built from that same graph.
            Some(e) => {
                e.last_used = stamp;
                Arc::clone(&e.value)
            }
            None => {
                if entries.len() >= self.capacity {
                    let oldest = entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(i, _)| i)
                        .expect("capacity >= 1 implies non-empty");
                    entries.swap_remove(oldest);
                }
                entries.push(Entry { key, value: Arc::clone(&built), last_used: stamp });
                built
            }
        }
    }

    /// Number of graphs currently cached.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached value (counters are kept).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Snapshot of the hit/miss/rejection counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

/// The windowed candidate index under its former cache entry point,
/// kept for the out-of-workspace benchmark harness only:
/// [`get_or_build`](GraphIndexLookup::get_or_build) returns the graph's
/// own [`TemporalGraph::window_index`] and
/// [`clear`](GraphIndexLookup::clear) has nothing to drop.
#[doc(hidden)]
pub fn global_index_cache() -> GraphIndexLookup {
    GraphIndexLookup
}

/// See [`global_index_cache`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct GraphIndexLookup;

impl GraphIndexLookup {
    /// The graph's own window index.
    pub fn get_or_build<'g>(&self, graph: &'g TemporalGraph) -> WindowIndex<'g> {
        graph.window_index()
    }

    /// A no-op: the index lives and dies with its graph.
    pub fn clear(&self) {}
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::TemporalGraphBuilder;
    use crate::static_proj::{global_projection_cache, StaticProjection};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::time::Duration;

    fn graph(seed: i64, events: usize) -> TemporalGraph {
        let mut b = TemporalGraphBuilder::new();
        for i in 0..events as i64 {
            let u = ((i + seed) % 7) as u32;
            let v = ((i + seed + 1 + i % 3) % 7) as u32;
            let v = if v == u { (v + 1) % 7 } else { v };
            b.push(crate::event::Event::new(u, v, seed + i * 2));
        }
        b.build().unwrap()
    }

    fn stats(hits: u64, misses: u64, rejected: u64) -> CacheStats {
        CacheStats { hits, misses, rejected }
    }

    fn check_hits<T: GraphDerived>() {
        let cache = VerifiedCache::<T>::new(4);
        let g1 = graph(1, 100);
        let g2 = graph(2, 100);
        let a = cache.get_or_build(&g1);
        assert_eq!(cache.stats(), stats(0, 1, 0), "{}", T::METRIC_PREFIX);
        let b = cache.get_or_build(&g1);
        assert_eq!(cache.stats().hits, 1, "{}", T::METRIC_PREFIX);
        assert!(Arc::ptr_eq(&a, &b), "{}: hit must return the cached value", T::METRIC_PREFIX);
        cache.get_or_build(&g2);
        assert_eq!(cache.stats(), stats(1, 2, 0), "{}", T::METRIC_PREFIX);
        assert_eq!(cache.len(), 2);
    }

    fn check_clone_identity<T: GraphDerived>() {
        let cache = VerifiedCache::<T>::new(4);
        let g = graph(3, 50);
        let copy = g.clone();
        cache.get_or_build(&g);
        cache.get_or_build(&copy);
        assert_eq!(cache.stats().misses, 2, "{}: a clone is a different graph", T::METRIC_PREFIX);
        assert_eq!(cache.len(), 2);
    }

    pub(crate) fn check_lru<T: GraphDerived>() {
        let cache = VerifiedCache::<T>::new(2);
        let g1 = graph(1, 40);
        let g2 = graph(2, 40);
        let g3 = graph(3, 40);
        cache.get_or_build(&g1);
        cache.get_or_build(&g2);
        cache.get_or_build(&g1); // g2 is now the LRU entry
        cache.get_or_build(&g3); // evicts g2
        assert_eq!(cache.len(), 2);
        cache.get_or_build(&g1);
        assert_eq!(cache.stats().hits, 2, "{}: g1 must have survived eviction", T::METRIC_PREFIX);
        cache.get_or_build(&g2);
        assert_eq!(cache.stats().misses, 4, "{}: g2 was evicted and rebuilt", T::METRIC_PREFIX);
    }

    pub(crate) fn check_clear_and_floor<T: GraphDerived>() {
        let cache = VerifiedCache::<T>::new(0); // clamped to 1
        let g1 = graph(1, 30);
        let g2 = graph(2, 30);
        cache.get_or_build(&g1);
        cache.get_or_build(&g2);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        cache.get_or_build(&g1);
        assert_eq!(cache.len(), 1);
    }

    /// Cached values answer like fresh builds.
    pub(crate) fn check_cached_values_match<T: GraphDerived>() {
        let cache = VerifiedCache::<T>::new(4);
        let g1 = graph(5, 80);
        let g2 = graph(6, 80);
        let a = cache.get_or_build(&g1);
        let b = cache.get_or_build(&g2);
        assert!(a.matches(&g1) && b.matches(&g2), "{}", T::METRIC_PREFIX);
        assert!(!a.matches(&g2) && !b.matches(&g1), "{}", T::METRIC_PREFIX);
        // A clone is a different graph (fresh buffer, fresh key) but the
        // same content.
        let c = cache.get_or_build(&g1.clone());
        assert!(!Arc::ptr_eq(&a, &c) && c.matches(&g1));
        assert_eq!(cache.stats(), stats(0, 3, 0), "{}", T::METRIC_PREFIX);
    }

    #[test]
    fn hit_on_same_graph_miss_on_other() {
        check_hits::<StaticProjection>();
    }

    #[test]
    fn clone_has_its_own_identity() {
        check_clone_identity::<StaticProjection>();
    }

    #[test]
    fn evicts_least_recently_used() {
        check_lru::<StaticProjection>();
    }

    #[test]
    fn clear_and_capacity_floor() {
        check_clear_and_floor::<StaticProjection>();
    }

    #[test]
    fn cached_index_is_correct() {
        check_cached_values_match::<StaticProjection>();
    }

    #[test]
    fn global_cache_is_shared() {
        let g = graph(9, 60);
        let a = global_projection_cache().get_or_build(&g);
        let b = global_projection_cache().get_or_build(&g);
        assert!(Arc::ptr_eq(&a, &b));
    }

    /// Handshake of the one parked verification: `matches` reports on the
    /// first sender, then waits on the receiver.
    static GATE: Mutex<Option<(Sender<()>, Receiver<()>)>> = Mutex::new(None);

    /// A cached value whose verification parks on [`GATE`] when armed.
    struct Parked(usize);

    impl GraphDerived for Parked {
        const METRIC_PREFIX: &'static str = "cache.test";

        fn build(graph: &TemporalGraph) -> Self {
            Parked(graph.num_events())
        }

        fn matches(&self, graph: &TemporalGraph) -> bool {
            let gate = GATE.lock().unwrap().take();
            if let Some((entered, release)) = gate {
                entered.send(()).unwrap();
                release.recv().unwrap();
            }
            self.0 == graph.num_events()
        }
    }

    #[test]
    fn verification_runs_outside_the_lock() {
        let cache = VerifiedCache::<Parked>::new(4);
        let (g1, g2) = (graph(1, 40), graph(2, 50));
        cache.get_or_build(&g1);
        cache.get_or_build(&g2);
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel();
        *GATE.lock().unwrap() = Some((entered_tx, release_rx));
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| cache.get_or_build(&g1));
            entered_rx.recv().unwrap();
            let (done_tx, done_rx) = channel();
            let cache = &cache;
            let g2 = &g2;
            scope.spawn(move || {
                cache.get_or_build(g2);
                done_tx.send(()).unwrap();
            });
            let other = done_rx.recv_timeout(Duration::from_secs(10));
            release_tx.send(()).unwrap();
            parked.join().unwrap();
            assert!(other.is_ok(), "a lookup of another graph waited on a parked verification");
        });
        assert_eq!(cache.stats(), stats(2, 2, 0));
    }
}
