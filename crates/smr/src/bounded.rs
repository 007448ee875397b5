//! A queue whose cap is part of its type.
//!
//! Whatever a client or a peer can enqueue faster than a replica drains is
//! a memory-exhaustion lever, so the node's queues are [`Bounded`]: the
//! only way in is [`Bounded::try_push`], which hands the item back at the
//! cap. There is no unchecked push to forget the check on.

use std::collections::vec_deque::{self, VecDeque};

/// A FIFO queue that takes at most `cap` items.
pub(crate) struct Bounded<T> {
    items: VecDeque<T>,
    cap: usize,
}

impl<T> Bounded<T> {
    /// A queue holding `items` that takes more only while it holds fewer
    /// than `cap`. Items given here count against the cap but are kept
    /// even past it: they are the embedder's own, not traffic.
    pub(crate) fn new(cap: usize, items: impl IntoIterator<Item = T>) -> Self {
        Bounded {
            items: items.into_iter().collect(),
            cap,
        }
    }

    /// Appends `item`, or hands it back if the queue is at its cap.
    pub(crate) fn try_push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.cap {
            return Err(item);
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Items queued.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Removes the first `n` items (every item, if fewer are queued).
    pub(crate) fn drain_front(&mut self, n: usize) -> vec_deque::Drain<'_, T> {
        self.items.drain(..n.min(self.items.len()))
    }
}

impl<T> IntoIterator for Bounded<T> {
    type Item = T;
    type IntoIter = vec_deque::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::Bounded;

    #[test]
    fn the_cap_hands_the_item_back_and_draining_makes_room() {
        let mut queue = Bounded::new(2, [1]);
        assert_eq!(queue.try_push(2), Ok(()));
        assert_eq!(queue.try_push(3), Err(3));
        assert_eq!(queue.drain_front(5).collect::<Vec<_>>(), [1, 2]);
        assert!(queue.is_empty());
        assert_eq!(queue.try_push(4), Ok(()));
        assert_eq!(queue.into_iter().collect::<Vec<_>>(), [4]);
    }

    #[test]
    fn items_given_up_front_may_exceed_the_cap() {
        let mut queue = Bounded::new(1, [1, 2, 3]);
        assert_eq!(queue.len(), 3);
        assert_eq!(queue.try_push(4), Err(4));
    }
}
