//! The time-ordered event queue both virtual-time drivers schedule on:
//! the in-process rack's forwarding loop and the discrete-event
//! simulator.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A scheduled entry: fires at `at` nanoseconds; `seq` breaks ties FIFO.
struct Scheduled<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    /// `BinaryHeap` is a max-heap: the *earliest* `(at, seq)` must compare
    /// greatest so `pop` yields events in time order.
    fn cmp(&self, other: &Self) -> Ordering {
        Reverse((self.at, self.seq)).cmp(&Reverse((other.at, other.seq)))
    }
}

/// A min-heap of events by delivery time, with a stable push-order
/// tiebreak: of two events due at the same time, the one pushed first pops
/// first, so seeded runs replay byte for byte.
///
/// The queue has no clock of its own and accepts any time, past ones
/// included; a driver that must not schedule into its past clamps before
/// pushing. Popping it empty keeps its capacity, so a reused queue
/// allocates nothing in steady state.
///
/// # Examples
///
/// ```
/// use netcache::fabric::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(20, "later");
/// q.push(10, "sooner");
/// assert_eq!(q.pop(), Some((10, "sooner")));
/// assert_eq!(q.pop(), Some((20, "later")));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Removes and returns the earliest event with its time.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(30, 3);
        q.push(10, 1);
        q.push(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(5, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn past_times_are_not_clamped() {
        let mut q = EventQueue::new();
        q.push(10, "a");
        assert_eq!(q.pop(), Some((10, "a")));
        q.push(5, "earlier");
        assert_eq!(q.pop(), Some((5, "earlier")));
    }
}
