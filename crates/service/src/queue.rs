//! A bounded MPMC queue with admission control — the service's
//! load-shedding valve.
//!
//! `try_push` never blocks: when the queue is at capacity the caller gets
//! the item back and maps it to an `Overloaded` response, so overload
//! degrades into explicit, retriable sheds instead of unbounded memory
//! growth and collapsing latency. `pop` blocks (workers park on a
//! condvar) and keeps draining after `close()` until the queue is empty —
//! graceful shutdown finishes admitted work, it only refuses new work.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded multi-producer/multi-consumer queue.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    nonempty: Condvar,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `cap` items (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(cap.min(1024)),
                closed: false,
            }),
            nonempty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Non-blocking admit. `Err(item)` hands the item back when the queue
    /// is full or closed — the caller sheds it.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut s = crate::lock(&self.state);
        if s.closed || s.items.len() >= self.cap {
            return Err(item);
        }
        s.items.push_back(item);
        drop(s);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocking take. `None` only after `close()` once every admitted
    /// item has been drained.
    pub fn pop(&self) -> Option<T> {
        let mut s = crate::lock(&self.state);
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.nonempty.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stop admitting; wake every parked consumer so it can drain and
    /// exit.
    pub fn close(&self) {
        crate::lock(&self.state).closed = true;
        self.nonempty.notify_all();
    }

    /// Current depth (racy by nature; for gauges and tests).
    pub fn len(&self) -> usize {
        crate::lock(&self.state).items.len()
    }

    /// True when empty at the instant of the check.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn capacity_is_enforced_and_rejects_hand_the_item_back() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok(), "slot freed by pop");
    }

    #[test]
    fn close_drains_admitted_items_then_returns_none() {
        let q = BoundedQueue::new(8);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err("c"), "closed queue admits nothing");
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn parked_consumers_wake_on_push_and_on_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = 0usize;
                    while q.pop().is_some() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        let mut pushed = 0usize;
        while pushed < 50 {
            if q.try_push(pushed).is_ok() {
                pushed += 1;
            } else {
                thread::yield_now();
            }
        }
        q.close();
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, pushed, "every admitted item consumed exactly once");
    }
}
