//! Per-bank DRAM state machine.
//!
//! A GDDR3 device is divided into independent *banks*, each holding one
//! open row (page) in its row buffer. Whether an access finds its row
//! already open is the single largest timing factor in a DRAM system:
//!
//! * **row hit** — the bank's row buffer already holds the target row; the
//!   column command can issue immediately and the access costs only the
//!   data transfer.
//! * **row miss** — the bank is idle (no row open); an ACTIVATE must run
//!   first, costing [`BankTiming::t_rcd`] cycles before the column command.
//! * **row conflict** — a *different* row is open; the bank must PRECHARGE
//!   ([`BankTiming::t_rp`] cycles) and then ACTIVATE
//!   ([`BankTiming::t_rcd`] cycles) before the column command, the most
//!   expensive case.
//!
//! [`Bank`] models this as a four-state FSM — [`BankFsm::Idle`],
//! [`BankFsm::Activating`], [`BankFsm::Active`], [`BankFsm::Precharging`]
//! — advanced *event-driven*: state deadlines are computed when an access
//! is issued, not polled every cycle, so the model adds nothing to the
//! simulator's per-cycle cost and composes with the event-horizon
//! scheduler (the channel that owns the banks reports its own completion
//! horizon; a bank never has a pending transition beyond the channel's
//! `busy_until`, so idle-skip can never jump over a bank event — see
//! DESIGN.md §19 for the full argument).

use attila_json::{array, impl_json_state, FromJson, HexJson, Json, JsonError, ToJson};
use attila_sim::Cycle;

/// Bank-level timing parameters, in core-clock cycles.
///
/// These mirror the classic DRAM datasheet parameters (scaled to the
/// simulator's core clock, as the paper does for its "configurable cycle
/// penalties"). They are carried inside
/// [`GddrTiming`](crate::gddr::GddrTiming) and surfaced as sweepable knobs
/// in the top-level GPU configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankTiming {
    /// tRCD — RAS-to-CAS delay: cycles from ACTIVATE until a column
    /// command (read/write) may issue to the opened row.
    pub t_rcd: Cycle,
    /// tRP — row precharge time: cycles from PRECHARGE until the bank is
    /// idle and may accept a new ACTIVATE.
    pub t_rp: Cycle,
    /// tRC — row cycle time: minimum cycles between two ACTIVATE commands
    /// to the *same* bank. Bounds how fast one bank can thrash rows even
    /// when tRP + tRCD would allow faster reopening.
    pub t_rc: Cycle,
}

impl Default for BankTiming {
    fn default() -> Self {
        BankTiming { t_rcd: 6, t_rp: 6, t_rc: 16 }
    }
}

/// The bank state machine.
///
/// Timed states carry the cycle at which the transition completes; the
/// FSM advances when the next access [`settle`](Bank::access)s it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankFsm {
    /// No row open; the bank can accept an ACTIVATE.
    Idle,
    /// An ACTIVATE is in flight; `row` is open at `ready_at`.
    Activating {
        /// The row being opened.
        row: u64,
        /// Cycle at which the row buffer holds the row.
        ready_at: Cycle,
    },
    /// `row` is open in the row buffer; column commands may issue.
    Active {
        /// The open row.
        row: u64,
    },
    /// A PRECHARGE is in flight; the bank is idle at `ready_at`.
    Precharging {
        /// Cycle at which the bank returns to [`BankFsm::Idle`].
        ready_at: Cycle,
    },
}

/// Row-buffer outcome of one access, in increasing cost order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RowOutcome {
    /// The target row was already open: column command issues at once.
    Hit,
    /// The bank was idle: one ACTIVATE (tRCD) before the column command.
    Miss,
    /// Another row was open: PRECHARGE (tRP) + ACTIVATE (tRCD) first.
    Conflict,
}

impl RowOutcome {
    /// Short lower-case label (`hit` / `miss` / `conf`), used in trace
    /// events and the timeline visualizer.
    pub fn label(self) -> &'static str {
        match self {
            RowOutcome::Hit => "hit",
            RowOutcome::Miss => "miss",
            RowOutcome::Conflict => "conf",
        }
    }
}

/// The resolved schedule of one bank access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankAccess {
    /// How the row buffer treated the access.
    pub outcome: RowOutcome,
    /// First cycle at which a column command may issue (row open and
    /// stable). Equals the request cycle on a hit.
    pub row_ready: Cycle,
}

/// One DRAM bank: FSM state plus occupancy counters.
///
/// # Examples
///
/// ```
/// use attila_mem::bank::{Bank, BankTiming, RowOutcome};
/// let t = BankTiming { t_rcd: 6, t_rp: 6, t_rc: 16 };
/// let mut bank = Bank::new();
/// let first = bank.access(0, 7, &t);
/// assert_eq!(first.outcome, RowOutcome::Miss);
/// assert_eq!(first.row_ready, 6); // one ACTIVATE
/// let again = bank.access(first.row_ready, 7, &t);
/// assert_eq!(again.outcome, RowOutcome::Hit);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bank {
    state: BankFsm,
    /// Cycle of the most recent ACTIVATE, for the tRC constraint.
    last_activate: Option<Cycle>,
    row_hits: u64,
    row_misses: u64,
    row_conflicts: u64,
    /// Cycles the FSM spent in timed states (activating + precharging) —
    /// the bank's *occupancy*, as distinct from the channel's bus time.
    busy_cycles: u64,
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

impl Bank {
    /// A closed, idle bank.
    pub fn new() -> Self {
        Bank {
            state: BankFsm::Idle,
            last_activate: None,
            row_hits: 0,
            row_misses: 0,
            row_conflicts: 0,
            busy_cycles: 0,
        }
    }

    /// The FSM state as of the last access (timed states may already have
    /// lapsed; they advance on the next access).
    pub fn state(&self) -> BankFsm {
        self.state
    }

    /// The row the bank holds (or is in the middle of opening), if any.
    /// This is the *arbitration* view: a scheduler probing for row hits
    /// treats an in-flight ACTIVATE as open, since by the time the data
    /// bus frees the activation has completed.
    pub fn open_row(&self) -> Option<u64> {
        match self.state {
            BankFsm::Active { row } | BankFsm::Activating { row, .. } => Some(row),
            BankFsm::Idle | BankFsm::Precharging { .. } => None,
        }
    }

    /// Advances lapsed timed states: an ACTIVATE whose deadline passed
    /// leaves the bank `Active`, a lapsed PRECHARGE leaves it `Idle`.
    fn settle(&mut self, cycle: Cycle) {
        match self.state {
            BankFsm::Activating { row, ready_at } if ready_at <= cycle => {
                self.state = BankFsm::Active { row };
            }
            BankFsm::Precharging { ready_at } if ready_at <= cycle => {
                self.state = BankFsm::Idle;
            }
            _ => {}
        }
    }

    /// Issues an ACTIVATE no earlier than `when`, respecting tRC against
    /// the previous ACTIVATE, and returns the cycle the row is usable.
    fn activate(&mut self, when: Cycle, row: u64, t: &BankTiming) -> Cycle {
        let earliest = match self.last_activate {
            Some(prev) => when.max(prev.saturating_add(t.t_rc)),
            None => when,
        };
        self.last_activate = Some(earliest);
        let ready_at = earliest + t.t_rcd;
        self.state = BankFsm::Activating { row, ready_at };
        ready_at
    }

    /// Accesses `row` at `cycle`, driving the FSM through whatever
    /// PRECHARGE/ACTIVATE sequence the row buffer requires, and returns
    /// the outcome plus the cycle at which the column command may issue.
    ///
    /// The channel serializes transactions on its data bus, so accesses
    /// arrive in non-decreasing cycle order; the FSM nevertheless handles
    /// an access landing while a timed state is still in flight (the
    /// schedule simply queues behind it).
    pub fn access(&mut self, cycle: Cycle, row: u64, t: &BankTiming) -> BankAccess {
        self.settle(cycle);
        match self.state {
            BankFsm::Active { row: open } if open == row => {
                self.row_hits += 1;
                BankAccess { outcome: RowOutcome::Hit, row_ready: cycle }
            }
            // An ACTIVATE for the same row is still in flight: the access
            // queues behind it. Counted as a hit — the row buffer needs no
            // extra command on its behalf.
            BankFsm::Activating { row: open, ready_at } if open == row => {
                self.row_hits += 1;
                BankAccess { outcome: RowOutcome::Hit, row_ready: ready_at }
            }
            BankFsm::Idle => {
                self.row_misses += 1;
                let row_ready = self.activate(cycle, row, t);
                self.busy_cycles += row_ready - cycle;
                BankAccess { outcome: RowOutcome::Miss, row_ready }
            }
            BankFsm::Precharging { ready_at } => {
                // A precharge is already running (conflict path of an
                // earlier access): wait it out, then activate.
                self.row_misses += 1;
                let row_ready = self.activate(ready_at.max(cycle), row, t);
                self.busy_cycles += row_ready - cycle;
                BankAccess { outcome: RowOutcome::Miss, row_ready }
            }
            BankFsm::Active { .. } | BankFsm::Activating { .. } => {
                // The wrong row is open (or opening): precharge first.
                self.row_conflicts += 1;
                let pre_start = match self.state {
                    BankFsm::Activating { ready_at, .. } => ready_at.max(cycle),
                    _ => cycle,
                };
                let idle_at = pre_start + t.t_rp;
                self.state = BankFsm::Precharging { ready_at: idle_at };
                let row_ready = self.activate(idle_at, row, t);
                self.busy_cycles += row_ready - cycle;
                BankAccess { outcome: RowOutcome::Conflict, row_ready }
            }
        }
    }

    /// Accesses that found their row open.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Accesses that found the bank idle and paid one ACTIVATE.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Accesses that evicted another open row (PRECHARGE + ACTIVATE).
    pub fn row_conflicts(&self) -> u64 {
        self.row_conflicts
    }

    /// Cycles spent activating or precharging — the bank's occupancy.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }
}

// Everything here shapes future timing (the open row decides hit vs
// conflict, the last ACTIVATE bounds tRC), so a bit-identical resume
// restores every field.
impl_json_state!(Bank {
    state,
    last_activate: hex,
    row_hits: hex,
    row_misses: hex,
    row_conflicts: hex,
    busy_cycles: hex,
});

/// A compact tagged value: `"I"` (idle), `["A", row]` (active),
/// `["G", row, ready_at]` (activating — "going active"),
/// `["P", ready_at]` (precharging), rows and cycles in hex.
impl ToJson for BankFsm {
    fn to_json(&self) -> Json {
        let tagged = |tag: &str, words: &[u64]| {
            Json::Arr(std::iter::once(tag.to_json()).chain(words.iter().map(u64::to_hex)).collect())
        };
        match *self {
            BankFsm::Idle => "I".to_json(),
            BankFsm::Active { row } => tagged("A", &[row]),
            BankFsm::Activating { row, ready_at } => tagged("G", &[row, ready_at]),
            BankFsm::Precharging { ready_at } => tagged("P", &[ready_at]),
        }
    }
}

impl FromJson for BankFsm {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let bad = || JsonError::msg(format!("bad bank state: {}", v.render()));
        if v.as_str() == Some("I") {
            return Ok(BankFsm::Idle);
        }
        let parts = array(v).map_err(|_| bad())?;
        let tag = parts.first().and_then(Json::as_str).ok_or_else(bad)?;
        let words = parts[1..].iter().map(u64::from_hex).collect::<Result<Vec<_>, _>>()?;
        match (tag, words.as_slice()) {
            ("A", &[row]) => Ok(BankFsm::Active { row }),
            ("G", &[row, ready_at]) => Ok(BankFsm::Activating { row, ready_at }),
            ("P", &[ready_at]) => Ok(BankFsm::Precharging { ready_at }),
            _ => Err(bad()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attila_json::JsonState;

    fn t() -> BankTiming {
        BankTiming { t_rcd: 6, t_rp: 6, t_rc: 16 }
    }

    #[test]
    fn first_access_is_a_miss_costing_trcd() {
        let mut b = Bank::new();
        let a = b.access(100, 3, &t());
        assert_eq!(a.outcome, RowOutcome::Miss);
        assert_eq!(a.row_ready, 106);
        assert_eq!(b.row_misses(), 1);
        assert_eq!(b.busy_cycles(), 6);
    }

    #[test]
    fn same_row_is_a_hit_with_zero_added_latency() {
        let mut b = Bank::new();
        let first = b.access(0, 3, &t());
        let a = b.access(first.row_ready + 4, 3, &t());
        assert_eq!(a.outcome, RowOutcome::Hit);
        assert_eq!(a.row_ready, first.row_ready + 4);
        assert_eq!(b.row_hits(), 1);
    }

    #[test]
    fn different_row_is_a_conflict_costing_trp_plus_trcd() {
        let mut b = Bank::new();
        let first = b.access(0, 3, &t()); // ACTIVATE at 0, ready at 6
        let a = b.access(first.row_ready + 20, 4, &t()); // cycle 26
        assert_eq!(a.outcome, RowOutcome::Conflict);
        // PRECHARGE 26..32, ACTIVATE 32..38 (tRC from cycle 0 long lapsed).
        assert_eq!(a.row_ready, 38);
        assert_eq!(b.row_conflicts(), 1);
    }

    #[test]
    fn trc_bounds_back_to_back_activates() {
        let mut b = Bank::new();
        b.access(0, 1, &t()); // ACTIVATE at 0
        let a = b.access(7, 2, &t()); // conflict right after the row opens
        assert_eq!(a.outcome, RowOutcome::Conflict);
        // PRECHARGE 7..13 would allow ACTIVATE at 13, but tRC holds the
        // second ACTIVATE to cycle 0 + 16 = 16; row ready 16 + 6 = 22.
        assert_eq!(a.row_ready, 22);
    }

    #[test]
    fn activating_same_row_queues_as_hit() {
        let mut b = Bank::new();
        let first = b.access(0, 9, &t()); // Activating until 6
        let a = b.access(2, 9, &t());
        assert_eq!(a.outcome, RowOutcome::Hit);
        assert_eq!(a.row_ready, first.row_ready);
    }

    #[test]
    fn open_row_reports_active_and_activating() {
        let mut b = Bank::new();
        assert_eq!(b.open_row(), None);
        b.access(0, 5, &t());
        assert_eq!(b.open_row(), Some(5), "in-flight ACTIVATE counts as open");
        b.access(6, 5, &t());
        assert_eq!(b.open_row(), Some(5));
    }

    #[test]
    fn snapshot_round_trip_is_exact() {
        let mut b = Bank::new();
        b.access(0, 1, &t());
        b.access(10, 2, &t());
        b.access(40, 2, &t());
        let saved = b.save_state();
        let mut fresh = Bank::new();
        fresh.load_state(&saved).unwrap();
        assert_eq!(fresh, b);
        // The restored bank times future accesses identically.
        let a = b.access(100, 3, &t());
        let a2 = fresh.access(100, 3, &t());
        assert_eq!(a, a2);
    }

    #[test]
    fn counters_partition_all_accesses() {
        let mut b = Bank::new();
        let rows = [1u64, 1, 2, 2, 1, 3, 3, 3];
        let mut cycle = 0;
        for r in rows {
            let a = b.access(cycle, r, &t());
            cycle = a.row_ready + 4;
        }
        assert_eq!(
            b.row_hits() + b.row_misses() + b.row_conflicts(),
            rows.len() as u64
        );
        assert_eq!(b.row_misses(), 1, "only the cold bank misses; reopens conflict");
        assert_eq!(b.row_conflicts(), 3);
    }
}
