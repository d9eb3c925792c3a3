//! # hetero-sim — a deterministic discrete-event simulation engine
//!
//! The heterogeneity paper validates its closed-form analysis "via
//! simulations that illustrate and elucidate the analytical results". The
//! authors' simulator was never released, so this crate provides the
//! substrate: a small, deterministic discrete-event core on which
//! `hetero-protocol` executes worksharing protocols event by event.
//!
//! * [`SimTime`] — totally ordered simulation clock value (finite `f64`).
//! * [`EventQueue`] — time-ordered pending-event set with FIFO tie-breaking,
//!   so runs are exactly reproducible.
//! * [`run`] — the event loop.
//! * [`UnitResource`] — a serially reusable resource (a computer, or the
//!   paper's *single-message-in-transit* network) granting time intervals.
//! * [`Trace`] — span recorder producing the action/time diagrams of the
//!   paper's Figures 1–2.
//! * [`stats`] — online (Welford) accumulators and fixed histograms for
//!   sweep aggregation.
//!
//! ```
//! use hetero_sim::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule_at(SimTime::new(2.0), "later");
//! q.schedule_at(SimTime::new(1.0), "sooner");
//! let mut order = Vec::new();
//! hetero_sim::run(&mut order, &mut q, |order, _q, _t, ev| order.push(ev));
//! assert_eq!(order, ["sooner", "later"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod resource;
mod time;
mod trace;

pub mod stats;

pub use queue::EventQueue;
pub use resource::{Grant, GrantError, UnitResource};
pub use time::{NonFiniteTime, SimTime};
pub use trace::{BackwardsSpan, Span, Trace};

/// Drains the queue, dispatching every event to `handler` in time order.
///
/// The handler may schedule further events; the loop ends when the queue is
/// empty. Returns the time of the last dispatched event (or `None` if the
/// queue started empty).
pub fn run<S, E, F>(state: &mut S, queue: &mut EventQueue<E>, mut handler: F) -> Option<SimTime>
where
    F: FnMut(&mut S, &mut EventQueue<E>, SimTime, E),
{
    let mut last = None;
    while let Some((t, ev)) = queue.pop() {
        last = Some(t);
        handler(state, queue, t, ev);
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_dispatches_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::new(3.0), 3);
        q.schedule_at(SimTime::new(1.0), 1);
        q.schedule_at(SimTime::new(2.0), 2);
        let mut seen = Vec::new();
        let last = run(&mut seen, &mut q, |seen, _, _, ev| seen.push(ev));
        assert_eq!(seen, [1, 2, 3]);
        assert_eq!(last, Some(SimTime::new(3.0)));
    }

    #[test]
    fn handler_can_schedule_more_events() {
        // A chain: each event at t schedules one at t+1 until t = 5.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, ());
        let mut count = 0u32;
        run(&mut count, &mut q, |count, q, t, ()| {
            *count += 1;
            if t.get() < 5.0 {
                q.schedule_at(t + 1.0, ());
            }
        });
        assert_eq!(count, 6);
    }

    #[test]
    fn empty_queue_returns_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(run(&mut (), &mut q, |_, _, _, _| {}), None);
    }
}
