//! The bounded job queue: backpressure instead of unbounded growth.
//!
//! This module is on the `mep-lint` hot path (`no-alloc-hot`): after
//! construction the queue never allocates. Capacity is reserved once;
//! [`BoundedQueue::try_reserve`] refuses work when every slot is queued or
//! reserved — admission control happens *here*, in O(1), not by letting
//! memory grow until the OOM killer arrives — and `VecDeque` only
//! reallocates when `len == capacity` is exceeded, which the slot count
//! makes unreachable.

use std::collections::VecDeque;

/// A fixed-capacity FIFO whose slots are reserved before they are filled.
/// Not internally synchronized — the server wraps it in the queue mutex
/// together with the rest of the scheduler state.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    /// Slots taken by [`BoundedQueue::try_reserve`] and not yet published.
    reserved: usize,
    capacity: usize,
}

/// Why [`BoundedQueue::try_reserve`] refused a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The configured capacity that was hit.
    pub capacity: usize,
}

/// One reserved slot of a [`BoundedQueue`]: the admission decision, taken
/// before the item is visible to [`BoundedQueue::pop`], and spent by
/// [`BoundedQueue::publish`].
#[derive(Debug)]
#[must_use = "a reserved slot is held until it is published"]
pub struct Slot(());

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1); the backing
    /// buffer is reserved here, once.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            items: VecDeque::with_capacity(capacity),
            reserved: 0,
            capacity,
        }
    }

    /// Reserves one slot at the tail, or reports [`QueueFull`] when every
    /// slot is queued or reserved — the caller turns the refusal into a
    /// protocol-level reject-with-retry-after.
    pub fn try_reserve(&mut self) -> Result<Slot, QueueFull> {
        if self.items.len() + self.reserved >= self.capacity {
            return Err(QueueFull {
                capacity: self.capacity,
            });
        }
        self.reserved += 1;
        Ok(Slot(()))
    }

    /// Fills a reserved slot: `item` joins the tail, visible to `pop`.
    pub fn publish(&mut self, slot: Slot, item: T) {
        let Slot(()) = slot;
        self.reserved = self.reserved.saturating_sub(1);
        self.items.push_back(item);
    }

    /// Dequeues from the head.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Published items waiting to be popped.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no item is published.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Slots reserved and not yet published.
    pub fn reserved(&self) -> usize {
        self.reserved
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(q: &mut BoundedQueue<i32>, item: i32) -> Result<(), QueueFull> {
        let slot = q.try_reserve()?;
        q.publish(slot, item);
        Ok(())
    }

    #[test]
    fn fifo_order_and_backpressure() {
        let mut q = BoundedQueue::with_capacity(2);
        assert_eq!(q.capacity(), 2);
        assert!(push(&mut q, 1).is_ok());
        assert!(push(&mut q, 2).is_ok());
        assert_eq!(push(&mut q, 3), Err(QueueFull { capacity: 2 }));
        assert_eq!(q.pop(), Some(1));
        assert!(push(&mut q, 3).is_ok(), "slot freed by pop is reusable");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn a_reserved_slot_counts_against_capacity_before_it_is_visible() {
        let mut q = BoundedQueue::with_capacity(2);
        let slot = q.try_reserve().unwrap();
        assert_eq!((q.len(), q.reserved()), (0, 1));
        assert_eq!(q.pop(), None, "a reserved slot is not poppable");
        assert!(push(&mut q, 1).is_ok());
        assert!(q.try_reserve().is_err(), "queued + reserved = capacity");
        q.publish(slot, 2);
        assert_eq!((q.len(), q.reserved()), (2, 0));
        // the order is publication order
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut q = BoundedQueue::with_capacity(0);
        assert_eq!(q.capacity(), 1);
        assert!(push(&mut q, 1).is_ok());
        assert!(push(&mut q, 2).is_err());
    }

    #[test]
    fn steady_state_never_reallocates() {
        let mut q = BoundedQueue::with_capacity(8);
        let reserved = q.items.capacity();
        for round in 0..1000 {
            while push(&mut q, round).is_ok() {}
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
