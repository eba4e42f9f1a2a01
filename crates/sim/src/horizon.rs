//! The event horizon: how a unit tells a clock loop it may be left alone.
//!
//! Besides the paper's every-box-every-cycle loop, a clock loop can skip
//! dead time: each box reports a [`Horizon`] describing the earliest
//! future cycle at which clocking it could change any observable state.
//! A loop may leave one such box unclocked until then, and when every box
//! agrees the machine is idle until cycle *c* it may jump the clock
//! straight to *c* instead of spinning no-op `clock()` calls. Skipping
//! never changes observable timing — it only elides cycles that are
//! provably no-ops.

use crate::Cycle;

/// How soon a unit could next do observable work — the unit's *event
/// horizon*, reported by each box's `work_horizon()` and combined across
/// all boxes and signals by an idle-aware clock loop.
///
/// The contract is conservative: a unit may only report
/// [`IdleUntil`](Horizon::IdleUntil)`(c)` or [`Idle`](Horizon::Idle) if
/// clocking it on any cycle strictly before `c` (or, for `Idle`, on any
/// cycle before external input arrives) is a no-op for every piece of
/// observable state — queues, signals, statistics counters and functional
/// memory alike. When in doubt a unit must report [`Busy`](Horizon::Busy);
/// `Busy` is always correct, merely slower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Horizon {
    /// The unit may do work on the very next cycle; the scheduler must
    /// keep clocking it every cycle.
    Busy,
    /// The unit is guaranteed not to do observable work before the given
    /// cycle (e.g. it only waits for an in-flight object arriving then).
    IdleUntil(Cycle),
    /// The unit has nothing in flight at all; it will only wake when some
    /// *other* unit (whose own horizon covers that event) feeds it.
    Idle,
}

impl Horizon {
    /// Combines two horizons into the horizon of the pair: `Busy`
    /// dominates, two wake-up cycles keep the earlier one, and `Idle` is
    /// the identity element.
    #[must_use]
    pub fn meet(self, other: Horizon) -> Horizon {
        match (self, other) {
            (Horizon::Busy, _) | (_, Horizon::Busy) => Horizon::Busy,
            (Horizon::IdleUntil(a), Horizon::IdleUntil(b)) => Horizon::IdleUntil(a.min(b)),
            (Horizon::IdleUntil(c), Horizon::Idle) | (Horizon::Idle, Horizon::IdleUntil(c)) => {
                Horizon::IdleUntil(c)
            }
            (Horizon::Idle, Horizon::Idle) => Horizon::Idle,
        }
    }

    /// The horizon of a unit whose only pending event is an optional
    /// arrival cycle: `IdleUntil(c)` when one is known, `Idle` otherwise.
    #[must_use]
    pub fn from_event(next: Option<Cycle>) -> Horizon {
        match next {
            Some(c) => Horizon::IdleUntil(c),
            None => Horizon::Idle,
        }
    }

    /// Whether the unit must be clocked on the very next cycle.
    pub fn is_busy(&self) -> bool {
        matches!(self, Horizon::Busy)
    }

    /// The wake-up cycle, when one is known.
    pub fn wake_cycle(&self) -> Option<Cycle> {
        match self {
            Horizon::IdleUntil(c) => Some(*c),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_meet_busy_dominates() {
        assert_eq!(Horizon::Busy.meet(Horizon::Idle), Horizon::Busy);
        assert_eq!(Horizon::Idle.meet(Horizon::Busy), Horizon::Busy);
        assert_eq!(Horizon::Busy.meet(Horizon::IdleUntil(9)), Horizon::Busy);
        assert!(Horizon::Busy.is_busy());
        assert_eq!(Horizon::Busy.wake_cycle(), None);
    }

    #[test]
    fn horizon_meet_keeps_earliest_wake() {
        assert_eq!(
            Horizon::IdleUntil(7).meet(Horizon::IdleUntil(3)),
            Horizon::IdleUntil(3)
        );
        assert_eq!(Horizon::IdleUntil(5).meet(Horizon::Idle), Horizon::IdleUntil(5));
        assert_eq!(Horizon::Idle.meet(Horizon::Idle), Horizon::Idle);
        assert_eq!(Horizon::IdleUntil(5).wake_cycle(), Some(5));
    }

    #[test]
    fn horizon_from_event() {
        assert_eq!(Horizon::from_event(Some(4)), Horizon::IdleUntil(4));
        assert_eq!(Horizon::from_event(None), Horizon::Idle);
    }
}
