//! The bounded job queue: backpressure instead of unbounded growth.
//!
//! This module is on the `mep-lint` hot path (`no-alloc-hot`): after
//! construction the queue never allocates. Capacity is reserved once;
//! [`BoundedQueue::try_push`] refuses work when full — admission control
//! happens *here*, in O(1), not by letting memory grow until the OOM
//! killer arrives — and `VecDeque` only reallocates when `len == capacity`
//! is exceeded, which the full-check makes unreachable.

use std::collections::VecDeque;

/// A fixed-capacity FIFO. Not internally synchronized — the server wraps
/// it in the queue mutex together with the rest of the scheduler state.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
}

/// Why [`BoundedQueue::try_push`] refused an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The configured capacity that was hit.
    pub capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1); the backing
    /// buffer is reserved here, once.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Enqueues at the tail, or reports [`QueueFull`] without taking the
    /// item's ownership anywhere — the caller still holds it and turns
    /// the refusal into a protocol-level reject-with-retry-after.
    pub fn try_push(&mut self, item: T) -> Result<(), (T, QueueFull)> {
        if self.items.len() >= self.capacity {
            return Err((
                item,
                QueueFull {
                    capacity: self.capacity,
                },
            ));
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Dequeues from the head.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_backpressure() {
        let mut q = BoundedQueue::with_capacity(2);
        assert_eq!(q.capacity(), 2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        let (rejected, full) = q.try_push(3).unwrap_err();
        assert_eq!(rejected, 3, "caller keeps ownership of the refused item");
        assert_eq!(full.capacity, 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok(), "slot freed by pop is reusable");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut q = BoundedQueue::with_capacity(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.try_push('a').is_ok());
        assert!(q.try_push('b').is_err());
    }

    #[test]
    fn steady_state_never_reallocates() {
        let mut q = BoundedQueue::with_capacity(8);
        let reserved = q.items.capacity();
        for round in 0..1000 {
            while q.try_push(round).is_ok() {}
            assert_eq!(q.len(), 8);
            while q.pop().is_some() {}
        }
        assert_eq!(
            q.items.capacity(),
            reserved,
            "bounded queue must never grow its backing buffer"
        );
    }
}
