//! The pending-event set.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::SimTime;

/// One queued event: dispatch time plus a monotone sequence number that
/// makes simultaneous events dispatch in scheduling (FIFO) order.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// Events scheduled for the same instant dispatch in the order they were
/// scheduled, so simulations are reproducible run to run.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    seq: u64,
    now: SimTime,
    dispatched: u64,
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            dispatched: 0,
            high_water: 0,
        }
    }

    /// The current clock: the dispatch time of the most recent [`pop`].
    ///
    /// [`pop`]: EventQueue::pop
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` for dispatch at absolute time `t`.
    ///
    /// # Panics
    /// Panics when `t` is earlier than the current clock (causality).
    pub fn schedule_at(&mut self, t: SimTime, payload: E) {
        assert!(
            t >= self.now,
            "cannot schedule into the past: {t:?} < now {:?}",
            self.now
        );
        self.heap.push(Reverse(Scheduled {
            time: t,
            seq: self.seq,
            payload,
        }));
        self.seq += 1;
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// Schedules `payload` for `dt` time units after the current clock.
    ///
    /// # Panics
    /// Panics when `dt` is negative.
    pub fn schedule_in(&mut self, dt: f64, payload: E) {
        assert!(dt >= 0.0, "negative delay {dt}");
        self.schedule_at(self.now + dt, payload);
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(ev) = self.heap.pop()?;
        self.now = ev.time;
        self.dispatched += 1;
        Some((ev.time, ev.payload))
    }

    /// The dispatch time of the earliest queued event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(ev)| ev.time)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` iff no events are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events dispatched by [`pop`](EventQueue::pop) over the
    /// queue's lifetime — the simulation's `sim.events` metric.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// The largest number of simultaneously pending events so far — the
    /// simulation's queue high-water mark.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::new(5.0), 'c');
        q.schedule_at(SimTime::new(1.0), 'a');
        q.schedule_at(SimTime::new(3.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['a', 'b', 'c']);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::new(7.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::new(2.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::new(2.0));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::new(2.0), 0);
        q.pop();
        q.schedule_in(1.5, 1);
        assert_eq!(q.peek_time(), Some(SimTime::new(3.5)));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::new(2.0), 0);
        q.pop();
        q.schedule_at(SimTime::new(1.0), 1);
    }

    #[test]
    fn dispatched_and_high_water_track_lifetime_load() {
        let mut q = EventQueue::new();
        assert_eq!((q.dispatched(), q.high_water()), (0, 0));
        q.schedule_at(SimTime::new(1.0), 'a');
        q.schedule_at(SimTime::new(2.0), 'b');
        q.schedule_at(SimTime::new(3.0), 'c');
        assert_eq!(q.high_water(), 3);
        q.pop();
        q.pop();
        // High water is a lifetime mark; it does not recede.
        q.schedule_at(SimTime::new(4.0), 'd');
        assert_eq!(q.high_water(), 3);
        while q.pop().is_some() {}
        assert_eq!(q.dispatched(), 4);
    }

    #[test]
    fn len_and_is_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(SimTime::ZERO, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none(), "an empty queue pops nothing");
    }
}
