//! Service primitives for the long-lived generation daemon.
//!
//! Two small, dependency-free building blocks used by `p4testgen serve`:
//!
//! * [`LruCache`] — a bounded least-recently-used map with hit/miss/eviction
//!   accounting, so both of the daemon's caches (compiled IR, and the
//!   feasibility memo shared across requests) can prove they are bounded
//!   and export their behaviour through `/metrics`. Engines are not
//!   cached: every request runs on a fresh one.
//! * [`BoundedQueue`] — a blocking MPMC queue with a hard capacity and an
//!   explicit drain mode. Admission control is a *push-side* decision: once
//!   the queue is full the caller gets the item back (`Push::Full`) and must
//!   shed deterministically instead of buffering unboundedly.
//!
//! Neither type knows anything about requests or tests; they are generic so
//! the core crate can reuse [`LruCache`] for the shared feasibility memo.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Point-in-time statistics for a [`LruCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub len: usize,
    pub capacity: usize,
}

/// A bounded least-recently-used cache.
///
/// Intentionally simple (a `HashMap` plus a recency `VecDeque`); all daemon
/// caches hold a handful to a few thousand entries, far below the point
/// where an intrusive list would matter. Not internally synchronized —
/// callers wrap it in a `Mutex`, which also makes the hit/miss counters
/// race-free.
#[derive(Debug)]
pub struct LruCache<K: Eq + Hash + Clone, V> {
    capacity: usize,
    map: HashMap<K, V>,
    order: VecDeque<K>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries. Capacity 0 is clamped to
    /// 1 so `insert` always succeeds.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn touch(&mut self, key: &K) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos).expect("position just found");
            self.order.push_back(k);
        }
    }

    /// Look up `key`, marking it most-recently-used. Counts a hit or miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if self.map.contains_key(key) {
            self.hits += 1;
            self.touch(key);
            self.map.get(key)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Insert `key → value`, evicting the least-recently-used entry if the
    /// cache is at capacity. Returns the evicted pair, if any. Re-inserting
    /// an existing key replaces its value without eviction.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.map.contains_key(&key) {
            self.touch(&key);
            self.map.insert(key, value);
            return None;
        }
        let evicted = if self.map.len() >= self.capacity {
            self.order.pop_front().and_then(|old| {
                self.evictions += 1;
                self.map.remove(&old).map(|v| (old, v))
            })
        } else {
            None
        };
        self.order.push_back(key.clone());
        self.map.insert(key, value);
        evicted
    }

    /// Peek without recency or counter effects (for status snapshots).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    pub fn stats(&self) -> LruStats {
        LruStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.map.len(),
            capacity: self.capacity,
        }
    }
}

/// Outcome of [`BoundedQueue::push`].
#[derive(Debug)]
pub enum Push<T> {
    /// The item was enqueued.
    Admitted,
    /// The queue is at capacity; the item is handed back for shedding.
    Full(T),
    /// The queue has been closed (drain); no new work is admitted.
    Closed(T),
}

/// Outcome of [`BoundedQueue::pop_timeout`].
#[derive(Debug)]
pub enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed with the queue still open but empty.
    Empty,
    /// The queue is closed *and* empty — workers should exit.
    Drained,
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A blocking bounded MPMC queue with explicit drain semantics.
///
/// `push` never blocks: the admission decision is returned to the caller so
/// load shedding stays deterministic and memory stays bounded. `pop_timeout`
/// blocks consumers up to a timeout so they can interleave shutdown checks.
pub struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueInner { items: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempt to enqueue `item`. Never blocks.
    pub fn push(&self, item: T) -> Push<T> {
        let mut g = self.inner.lock().expect("queue lock");
        if g.closed {
            return Push::Closed(item);
        }
        if g.items.len() >= self.capacity {
            return Push::Full(item);
        }
        g.items.push_back(item);
        drop(g);
        self.ready.notify_one();
        Push::Admitted
    }

    /// Dequeue an item, waiting up to `timeout`. Items already queued when
    /// the queue closes are still handed out, so draining finishes admitted
    /// work before workers see [`Pop::Drained`].
    pub fn pop_timeout(&self, timeout: Duration) -> Pop<T> {
        let mut g = self.inner.lock().expect("queue lock");
        if let Some(item) = g.items.pop_front() {
            return Pop::Item(item);
        }
        if g.closed {
            return Pop::Drained;
        }
        let (mut g, _timed_out) =
            self.ready.wait_timeout(g, timeout).expect("queue lock");
        match g.items.pop_front() {
            Some(item) => Pop::Item(item),
            None if g.closed => Pop::Drained,
            None => Pop::Empty,
        }
    }

    /// Enter drain mode: reject new pushes, wake all consumers. Idempotent.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }

    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("queue lock").closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn lru_eviction_order_and_counters() {
        let mut c: LruCache<u32, &'static str> = LruCache::new(2);
        assert!(c.insert(1, "a").is_none());
        assert!(c.insert(2, "b").is_none());
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(c.get(&1), Some(&"a"));
        let evicted = c.insert(3, "c");
        assert_eq!(evicted, Some((2, "b")));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&3), Some(&"c"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len), (2, 1, 1, 2));
        assert_eq!(s.capacity, 2);
    }

    #[test]
    fn lru_reinsert_replaces_without_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert!(c.insert(1, 11).is_none());
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(&1), Some(&11));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn lru_zero_capacity_clamped() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        assert_eq!(c.capacity(), 1);
        c.insert(1, 1);
        assert_eq!(c.insert(2, 2), Some((1, 1)));
    }

    #[test]
    fn queue_admits_until_full_then_sheds() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert!(matches!(q.push(1), Push::Admitted));
        assert!(matches!(q.push(2), Push::Admitted));
        assert!(matches!(q.push(3), Push::Full(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn queue_close_rejects_pushes_but_drains_items() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        assert!(matches!(q.push(1), Push::Admitted));
        q.close();
        assert!(matches!(q.push(2), Push::Closed(2)));
        assert!(matches!(q.pop_timeout(Duration::from_millis(10)), Pop::Item(1)));
        assert!(matches!(q.pop_timeout(Duration::from_millis(10)), Pop::Drained));
    }

    #[test]
    fn queue_pop_timeout_empty() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        assert!(matches!(q.pop_timeout(Duration::from_millis(5)), Pop::Empty));
    }

    #[test]
    fn queue_close_wakes_blocked_consumer() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        assert!(matches!(h.join().expect("join"), Pop::Drained));
    }

    #[test]
    fn queue_cross_thread_handoff() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(8));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                match q2.pop_timeout(Duration::from_millis(200)) {
                    Pop::Item(v) => got.push(v),
                    Pop::Empty => {}
                    Pop::Drained => break,
                }
            }
            got
        });
        for v in 0..5 {
            assert!(matches!(q.push(v), Push::Admitted));
        }
        q.close();
        let mut got = h.join().expect("join");
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }
}
