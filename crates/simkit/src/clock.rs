//! The shared simulated clock.

use std::cell::Cell;
use std::rc::Rc;

use crate::time::{SimDuration, SimTime};

/// A cloneable handle to one simulated device's timeline.
///
/// Every component that models latency holds a clone of the same `SimClock`
/// and calls [`SimClock::advance`] with its modeled cost. Handles are cheap to
/// clone (an `Rc` internally) and every advance is a plain load and store:
/// a simulated device is single-threaded, so its clock stays on the thread
/// that built it. Campaigns run one device per shard, each on its worker's
/// own clock (see [`crate::supervisor`]).
///
/// # Examples
///
/// ```
/// use ssdhammer_simkit::{SimClock, SimDuration};
///
/// let clock = SimClock::new();
/// let view = clock.clone();
/// clock.advance(SimDuration::from_micros(50));
/// assert_eq!(view.now().as_nanos(), 50_000);
/// ```
///
/// A clock cannot move to another thread, so no two threads ever advance
/// one timeline:
///
/// ```compile_fail
/// fn assert_send<T: Send>(_: T) {}
/// assert_send(ssdhammer_simkit::SimClock::new());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_ns: Rc<Cell<u64>>,
}

impl SimClock {
    /// Creates a clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current simulated instant.
    #[must_use]
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns.get())
    }

    /// Moves the timeline forward by `d` and returns the new instant.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        let new = self.now_ns.get() + d.as_nanos();
        self.now_ns.set(new);
        SimTime::from_nanos(new)
    }

    /// Moves the timeline forward to `t` if `t` is in the future; otherwise
    /// leaves it unchanged. Returns the (possibly unchanged) current instant.
    ///
    /// Useful for host-side rate shaping: "the next request may not be issued
    /// before `t`".
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        let new = self.now_ns.get().max(t.as_nanos());
        self.now_ns.set(new);
        SimTime::from_nanos(new)
    }

    /// Elapsed simulated time since `start`.
    #[must_use]
    pub fn elapsed_since(&self, start: SimTime) -> SimDuration {
        self.now().saturating_since(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        c.advance(SimDuration::from_nanos(5));
        c.advance(SimDuration::from_nanos(7));
        assert_eq!(c.now(), SimTime::from_nanos(12));
    }

    #[test]
    fn clones_share_timeline() {
        let c = SimClock::new();
        let c2 = c.clone();
        c2.advance(SimDuration::from_secs(1));
        assert_eq!(c.now().as_secs_f64(), 1.0);
    }

    #[test]
    fn advance_to_never_rewinds() {
        let c = SimClock::new();
        c.advance(SimDuration::from_nanos(100));
        c.advance_to(SimTime::from_nanos(50));
        assert_eq!(c.now(), SimTime::from_nanos(100));
        c.advance_to(SimTime::from_nanos(150));
        assert_eq!(c.now(), SimTime::from_nanos(150));
    }

    #[test]
    fn elapsed_since_measures() {
        let c = SimClock::new();
        let t0 = c.now();
        c.advance(SimDuration::from_micros(3));
        assert_eq!(c.elapsed_since(t0), SimDuration::from_micros(3));
    }
}
