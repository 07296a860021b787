//! CRTurn — Correia & Ramalhete's turn-based wait-free queue (baseline).
//!
//! CRTurn is the paper's representative of *truly* wait-free queues with
//! built-in (hazard-pointer) memory reclamation: correct and bounded, but slow
//! because every operation may have to help every other thread and because the
//! queue is a single linked list.  The wCQ evaluation uses it to show the
//! price existing wait-free queues pay — wCQ matches SCQ's speed while CRTurn
//! trails far behind.
//!
//! The reproduction keeps CRTurn's structure: per-thread *enqueue request*
//! slots served round-robin starting from the thread that owns the current
//! tail node, and per-thread *dequeue requests* satisfied by assigning the
//! node after the current head to the next pending dequeuer (the "turn"),
//! with hazard pointers protecting traversal and each thread retiring the node
//! it was assigned two requests earlier.
//!
//! A dequeue request is named by a node, as published: `deqself[i]` and
//! `deqhelp[i]` both hold the node thread `i` was last given, the request is
//! open while the two are equal, and serving it swings `deqhelp[i]` to the new
//! node.  No two requests of a thread share a name while a helper can still
//! hold it (the name node is retired only after it stops being one, and
//! helpers hazard-protect it), so a late helper can never hand an already
//! delivered node to the thread's next request — a single shared "pending"
//! marker would let it, and the node would be returned and retired twice.
//!
//! Values are `u64` (the benchmark payload); the queue is unbounded.

use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering::SeqCst};

use wcq_reclaim::{HazardDomain, HazardHandle};

const NOIDX: usize = usize::MAX;

/// Hazard slots: the head (or, while enqueueing, the tail), the node after
/// the head, and the request name a helper is about to replace.
const HP_HEAD: usize = 0;
const HP_NEXT: usize = 1;
const HP_DEQ: usize = 2;

struct Node {
    item: u64,
    enq_tid: usize,
    deq_tid: AtomicUsize,
    next: AtomicPtr<Node>,
}

impl Node {
    fn new(item: u64, enq_tid: usize) -> *mut Node {
        Box::into_raw(Box::new(Node {
            item,
            enq_tid,
            deq_tid: AtomicUsize::new(NOIDX),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }))
    }
}

fn null_slots(n: usize) -> Box<[AtomicPtr<Node>]> {
    (0..n)
        .map(|_| AtomicPtr::new(std::ptr::null_mut()))
        .collect::<Vec<_>>()
        .into_boxed_slice()
}

/// One fresh, never-linked node per thread: the request names a thread uses
/// before it has been given real nodes.
fn dummy_slots(n: usize) -> Box<[AtomicPtr<Node>]> {
    (0..n)
        .map(|tid| AtomicPtr::new(Node::new(0, tid)))
        .collect::<Vec<_>>()
        .into_boxed_slice()
}

/// The turn-based wait-free queue.
pub struct CrTurnQueue {
    head: AtomicPtr<Node>,
    tail: AtomicPtr<Node>,
    /// Pending enqueue requests: the node thread `i` wants linked.
    enqueuers: Box<[AtomicPtr<Node>]>,
    /// The name of thread `i`'s current (or last) dequeue request.
    deqself: Box<[AtomicPtr<Node>]>,
    /// The node last given to thread `i`; equal to `deqself[i]` while its
    /// request is open.
    deqhelp: Box<[AtomicPtr<Node>]>,
    domain: HazardDomain,
    taken: Box<[AtomicUsize]>,
    /// The very first sentinel, freed on drop (it is never retired).
    initial: *mut Node,
}

// SAFETY: every field is an atomic, the hazard domain (itself `Send + Sync`)
// or the immutable `initial` pointer; nodes hold plain `u64`s and are reached
// only through hazard-protected loads or, on drop, exclusive access.
unsafe impl Send for CrTurnQueue {}
unsafe impl Sync for CrTurnQueue {}

impl CrTurnQueue {
    /// Creates an empty queue usable by up to `max_threads` registered
    /// threads.
    pub fn new(max_threads: usize) -> Self {
        assert!(max_threads >= 1);
        let sentinel = Node::new(0, 0);
        Self {
            head: AtomicPtr::new(sentinel),
            tail: AtomicPtr::new(sentinel),
            enqueuers: null_slots(max_threads),
            deqself: dummy_slots(max_threads),
            deqhelp: dummy_slots(max_threads),
            domain: HazardDomain::new(max_threads, 3),
            taken: (0..max_threads)
                .map(|_| AtomicUsize::new(0))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            initial: sentinel,
        }
    }

    /// Maximum number of simultaneously registered threads.
    pub fn max_threads(&self) -> usize {
        self.taken.len()
    }

    /// Registers the calling thread.
    pub fn register(&self) -> Option<CrTurnHandle<'_>> {
        for (tid, flag) in self.taken.iter().enumerate() {
            if flag.compare_exchange(0, 1, SeqCst, SeqCst).is_ok() {
                return Some(CrTurnHandle {
                    queue: self,
                    hp: self.domain.register()?,
                    tid,
                });
            }
        }
        None
    }

    /// Nodes retired but not yet reclaimed (memory statistics).
    pub fn reclamation_backlog(&self) -> usize {
        self.domain.pending()
    }

    /// Racy emptiness hint: `head == tail` holds exactly when both point at
    /// the sentinel (empty queue) or while an enqueue's tail swing is still
    /// in flight — a pointer compare, never a dereference, so it needs no
    /// hazard protection.
    pub fn is_empty_hint(&self) -> bool {
        self.head.load(SeqCst) == self.tail.load(SeqCst)
    }
}

impl Drop for CrTurnQueue {
    fn drop(&mut self) {
        // Free everything still reachable from head, then the initial
        // sentinel if head has moved past it.
        let head = self.head.load(SeqCst);
        let mut cur = head;
        while !cur.is_null() {
            // SAFETY: exclusive access during drop.
            let boxed = unsafe { Box::from_raw(cur) };
            cur = boxed.next.load(SeqCst);
        }
        if self.initial != head && !self.initial.is_null() {
            // SAFETY: the initial sentinel is never retired through hazard
            // pointers and is unreachable from `head` once head moved on.
            drop(unsafe { Box::from_raw(self.initial) });
        }
        // Each thread's two request names are not retired yet: dummies or
        // nodes the head has reached.  Only the latest (`deqhelp`) can be the
        // head itself, which the walk above already freed, and the two are
        // equal only if a dequeue was abandoned with its request open.
        for (name, given) in self.deqself.iter().zip(self.deqhelp.iter()) {
            let (name, given) = (name.load(SeqCst), given.load(SeqCst));
            if given != head {
                // SAFETY: exclusive access during drop; see above.
                drop(unsafe { Box::from_raw(given) });
            }
            if name != given && name != head {
                // SAFETY: as above.
                drop(unsafe { Box::from_raw(name) });
            }
        }
    }
}

/// Per-thread handle to a [`CrTurnQueue`].
pub struct CrTurnHandle<'q> {
    queue: &'q CrTurnQueue,
    hp: HazardHandle<'q>,
    tid: usize,
}

impl<'q> CrTurnHandle<'q> {
    /// Enqueues `value` at the tail.
    pub fn enqueue(&mut self, value: u64) {
        let n = self.queue.enqueuers.len();
        let node = Node::new(value, self.tid);
        self.queue.enqueuers[self.tid].store(node, SeqCst);
        // Help link pending enqueue requests, round-robin from the owner of
        // the current tail, until our own request has been linked.  The
        // original bounds this loop by NUM_THRDS iterations; we loop until the
        // request flag clears, which the round-robin turn guarantees happens
        // within a bounded number of helping rounds.
        loop {
            if self.queue.enqueuers[self.tid].load(SeqCst).is_null() {
                break;
            }
            let ltail = self.hp.protect(HP_HEAD, &self.queue.tail);
            if ltail != self.queue.tail.load(SeqCst) {
                continue;
            }
            // SAFETY: ltail is hazard-protected.
            let ltail_ref = unsafe { &*ltail };
            // Retire the request flag of the thread whose node is the tail.
            let owner = ltail_ref.enq_tid;
            if self.queue.enqueuers[owner].load(SeqCst) == ltail {
                let _ = self.queue.enqueuers[owner].compare_exchange(
                    ltail,
                    std::ptr::null_mut(),
                    SeqCst,
                    SeqCst,
                );
            }
            // Link the next pending request (turn order: owner + 1, ...).
            if ltail_ref.next.load(SeqCst).is_null() {
                for j in 1..=n {
                    let cand_tid = (owner + j) % n;
                    let cand = self.queue.enqueuers[cand_tid].load(SeqCst);
                    if cand.is_null() {
                        continue;
                    }
                    let _ =
                        ltail_ref
                            .next
                            .compare_exchange(std::ptr::null_mut(), cand, SeqCst, SeqCst);
                    break;
                }
            }
            let lnext = ltail_ref.next.load(SeqCst);
            if !lnext.is_null() {
                let _ = self
                    .queue
                    .tail
                    .compare_exchange(ltail, lnext, SeqCst, SeqCst);
            }
        }
        self.hp.clear();
    }

    /// Dequeues a value; `None` when the queue is empty.
    pub fn dequeue(&mut self) -> Option<u64> {
        let q = self.queue;
        let tid = self.tid;
        let pr_req = q.deqself[tid].load(SeqCst);
        let my_req = q.deqhelp[tid].load(SeqCst);
        q.deqself[tid].store(my_req, SeqCst); // Open the request.
        loop {
            if q.deqhelp[tid].load(SeqCst) != my_req {
                break; // Our request was served.
            }
            let lhead = self.hp.protect(HP_HEAD, &q.head);
            // SAFETY: lhead is hazard-protected.
            let lnext = self.hp.protect(HP_NEXT, unsafe { &(*lhead).next });
            if lhead != q.head.load(SeqCst) {
                continue;
            }
            if lnext.is_null() {
                // Empty: close the request, then settle any node a helper
                // assigned to it before it closed.
                q.deqself[tid].store(pr_req, SeqCst);
                self.give_up(my_req);
                if q.deqhelp[tid].load(SeqCst) != my_req {
                    q.deqself[tid].store(my_req, SeqCst);
                    break; // Served after all; collect it.
                }
                self.hp.clear();
                return None;
            }
            if self.search_next(lhead, lnext) != NOIDX {
                self.cas_deq_and_head(lhead, lnext);
            }
        }
        let node = q.deqhelp[tid].load(SeqCst);
        // Make sure the head has advanced past our node before we retire the
        // node we were given the time before (CRTurn's final step).
        let lhead = self.hp.protect(HP_HEAD, &q.head);
        // SAFETY: lhead is hazard-protected and validated.
        if lhead == q.head.load(SeqCst) && unsafe { (*lhead).next.load(SeqCst) } == node {
            let _ = q.head.compare_exchange(lhead, node, SeqCst, SeqCst);
        }
        // SAFETY: `node` names our next request, so nobody retires it before
        // that request completes, and only we do.
        let value = unsafe { (*node).item };
        self.hp.clear();
        // SAFETY: `pr_req` is no longer any request's name, the head has moved
        // past it, and only we retire it.
        unsafe { self.hp.retire(pr_req) };
        Some(value)
    }

    /// Assigns `lnext` (the node after `lhead`) to the next open request in
    /// turn order after `lhead`'s owner, unless it is already assigned, and
    /// returns its owner (`NOIDX` when no request is open).
    fn search_next(&self, lhead: *mut Node, lnext: *mut Node) -> usize {
        let q = self.queue;
        let n = q.deqself.len();
        // SAFETY: both nodes are hazard-protected by the caller.
        let (lhead, lnext) = unsafe { (&*lhead, &*lnext) };
        let start = match lhead.deq_tid.load(SeqCst) {
            NOIDX => 0,
            v => (v + 1) % n,
        };
        for j in 0..n {
            let cand = (start + j) % n;
            if q.deqself[cand].load(SeqCst) != q.deqhelp[cand].load(SeqCst) {
                continue;
            }
            let _ = lnext.deq_tid.compare_exchange(NOIDX, cand, SeqCst, SeqCst);
            break;
        }
        lnext.deq_tid.load(SeqCst)
    }

    /// Gives the assigned `lnext` to its owner's request, then advances the
    /// head to it.
    fn cas_deq_and_head(&self, lhead: *mut Node, lnext: *mut Node) {
        let q = self.queue;
        // SAFETY: lnext is hazard-protected by the caller.
        let owner = unsafe { (*lnext).deq_tid.load(SeqCst) };
        if owner == self.tid {
            q.deqhelp[owner].store(lnext, SeqCst);
        } else {
            let ldeqhelp = self.hp.protect(HP_DEQ, &q.deqhelp[owner]);
            if ldeqhelp != lnext && lhead == q.head.load(SeqCst) {
                let _ = q.deqhelp[owner].compare_exchange(ldeqhelp, lnext, SeqCst, SeqCst);
            }
        }
        let _ = q.head.compare_exchange(lhead, lnext, SeqCst, SeqCst);
    }

    /// After closing request `my_req` on an empty-looking queue: if the head
    /// has a successor after all, make sure it is assigned (to us when no
    /// request is open) and delivered, so a helper that saw our request open
    /// cannot leave a node assigned to it undelivered.
    fn give_up(&self, my_req: *mut Node) {
        let q = self.queue;
        if q.deqhelp[self.tid].load(SeqCst) != my_req {
            return;
        }
        let lhead = self.hp.protect(HP_HEAD, &q.head);
        // SAFETY: lhead is hazard-protected.
        let lnext = self.hp.protect(HP_NEXT, unsafe { &(*lhead).next });
        if lhead != q.head.load(SeqCst) || lnext.is_null() {
            return;
        }
        if self.search_next(lhead, lnext) == NOIDX {
            // SAFETY: lnext is hazard-protected.
            let _ = unsafe { &*lnext }
                .deq_tid
                .compare_exchange(NOIDX, self.tid, SeqCst, SeqCst);
        }
        self.cas_deq_and_head(lhead, lnext);
    }
}

impl<'q> Drop for CrTurnHandle<'q> {
    fn drop(&mut self) {
        // The thread's request names stay in `deqself`/`deqhelp` for the
        // next handle that takes this slot (or for the queue's drop).
        self.queue.taken[self.tid].store(0, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn fifo_single_thread() {
        let q = CrTurnQueue::new(2);
        let mut h = q.register().unwrap();
        assert_eq!(h.dequeue(), None);
        for i in 0..100 {
            h.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn empty_then_refill_cycles() {
        let q = CrTurnQueue::new(1);
        let mut h = q.register().unwrap();
        for round in 0..50u64 {
            assert_eq!(h.dequeue(), None);
            h.enqueue(round);
            assert_eq!(h.dequeue(), Some(round));
        }
    }

    #[test]
    fn registration_limit_and_reuse() {
        let q = CrTurnQueue::new(1);
        let h = q.register().unwrap();
        assert!(q.register().is_none());
        drop(h);
        assert!(q.register().is_some());
    }

    #[test]
    fn mpmc_stress_sum_preserved() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 3_000;
        let q = CrTurnQueue::new(THREADS as usize);
        let sum = AtomicU64::new(0);
        let count = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let q = &q;
                let sum = &sum;
                let count = &count;
                s.spawn(move || {
                    let mut h = q.register().unwrap();
                    for i in 0..PER_THREAD {
                        h.enqueue(t * PER_THREAD + i);
                        if let Some(v) = h.dequeue() {
                            sum.fetch_add(v, Ordering::Relaxed);
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    while let Some(v) = h.dequeue() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        let n = THREADS * PER_THREAD;
        assert_eq!(count.load(Ordering::Relaxed), n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    #[test]
    fn pairs_deliver_every_value_exactly_once() {
        // Two threads alternating enqueue and dequeue (the Fig. 11b pattern)
        // keep a helper's late delivery racing the owner's next request.  A
        // node delivered to two requests of one thread is returned twice and
        // retired twice, which the allocator reports as a double free.
        const THREADS: u64 = 2;
        const PAIRS: u64 = if cfg!(miri) { 200 } else { 50_000 };
        let q = CrTurnQueue::new(THREADS as usize);
        let seen: Vec<AtomicU64> = (0..THREADS * PAIRS).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (q, seen) = (&q, &seen);
                s.spawn(move || {
                    let mut h = q.register().unwrap();
                    let take = |v: u64| {
                        seen[v as usize].fetch_add(1, Ordering::Relaxed);
                    };
                    for i in 0..PAIRS {
                        h.enqueue(t * PAIRS + i);
                        if let Some(v) = h.dequeue() {
                            take(v);
                        }
                    }
                    while let Some(v) = h.dequeue() {
                        take(v);
                    }
                });
            }
        });
        for (v, count) in seen.iter().enumerate() {
            assert_eq!(count.load(Ordering::Relaxed), 1, "value {v}");
        }
    }

    #[test]
    fn per_producer_order_preserved() {
        const PER_PRODUCER: u64 = 2_000;
        let q = CrTurnQueue::new(3);
        std::thread::scope(|s| {
            for p in 0..2u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register().unwrap();
                    for i in 1..=PER_PRODUCER {
                        h.enqueue(p * 1_000_000 + i);
                    }
                });
            }
            let q = &q;
            s.spawn(move || {
                let mut h = q.register().unwrap();
                let mut last = [0u64; 2];
                let mut got = 0;
                while got < 2 * PER_PRODUCER {
                    if let Some(v) = h.dequeue() {
                        let p = (v / 1_000_000) as usize;
                        let i = v % 1_000_000;
                        assert!(i > last[p], "per-producer FIFO violated");
                        last[p] = i;
                        got += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        });
    }
}
