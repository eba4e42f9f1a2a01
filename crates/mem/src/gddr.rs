//! GDDR3-style DRAM channel timing model.
//!
//! Per the paper (§2.2): "The access to ATTILA memory is based on the
//! GDDR3 specification. The memory access unit is a 64 byte transaction (4
//! cycle transfer from a double rate 64 bit DDR channel). [...] The memory
//! modules for each channel are interleaved on a 256 byte basis.
//! Configurable cycle penalties for opening a new memory page, read to
//! write transitions and write to read transitions are implemented."
//!
//! The "configurable cycle penalty for opening a new memory page" is
//! modeled with real per-bank state rather than a flat penalty: each
//! [`GddrChannel`] owns [`MemControllerConfig::banks`] independent [`Bank`] FSMs,
//! so whether an access pays nothing (row hit), one ACTIVATE (row miss)
//! or a PRECHARGE + ACTIVATE (row conflict) depends on which row each
//! bank currently holds open. See [`bank`](crate::bank) for the FSM and
//! DESIGN.md §19 for the timing derivation.

use attila_json::{impl_json_state, FromJson, Json, JsonError, ToJson};
use attila_sim::Cycle;

use crate::bank::{Bank, BankAccess, RowOutcome};
use crate::controller::MemControllerConfig;

/// Direction of a DRAM transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Memory → GPU.
    Read,
    /// GPU → memory.
    Write,
}

/// The resolved schedule of one issued transaction — everything the
/// controller needs for reply timing, statistics, and trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueReport {
    /// Cycle the transaction reached the head of the channel (bus free).
    pub start: Cycle,
    /// Cycle the data transfer begins (row open, turnaround served).
    pub data_start: Cycle,
    /// Cycle the data transfer completes and the bus frees. For reads the
    /// controller adds [`GddrChannel::read_latency`] before the reply.
    pub done: Cycle,
    /// Bank the transaction hit.
    pub bank: usize,
    /// Row (global page number) the transaction addressed.
    pub row: u64,
    /// How the bank's row buffer treated the access.
    pub outcome: RowOutcome,
}

/// Cycle-level model of a single GDDR channel servicing 64-byte
/// transactions in order.
///
/// The channel is *occupied* until [`busy_until`](Self::busy_until); the
/// caller (the memory controller) issues one transaction at a time and
/// learns its completion cycle. Row-buffer state lives in per-bank FSMs
/// ([`Bank`]); the channel adds the shared data-bus serialization and the
/// read↔write turnaround on top.
///
/// # Examples
///
/// ```
/// use attila_mem::gddr::{Direction, GddrChannel};
/// use attila_mem::MemControllerConfig;
/// let mut ch = GddrChannel::new(&MemControllerConfig::default());
/// let r1 = ch.issue(0, 0, Direction::Read);
/// // Same row, back to back: only the 4-cycle transfer is added.
/// let r2 = ch.issue(r1.done, 64, Direction::Read);
/// assert_eq!(r2.done - r1.done, 4);
/// ```
#[derive(Debug)]
pub struct GddrChannel {
    config: MemControllerConfig,
    banks: Vec<Bank>,
    busy_until: Cycle,
    last_dir: Option<Direction>,
    total_transactions: u64,
    total_busy_cycles: u64,
    turnarounds: u64,
}

impl GddrChannel {
    /// Creates an idle channel with all banks closed, timed by `config`'s
    /// DRAM parameters.
    pub fn new(config: &MemControllerConfig) -> Self {
        GddrChannel {
            banks: vec![Bank::new(); config.banks],
            config: *config,
            busy_until: 0,
            last_dir: None,
            total_transactions: 0,
            total_busy_cycles: 0,
            turnarounds: 0,
        }
    }

    /// First cycle at which a new transaction may start.
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }

    /// Maps a channel-local address to `(bank, row)`. Rows are global
    /// page numbers (they also identify the bank), so two addresses in
    /// the same page share both coordinates.
    pub fn decode(&self, addr: u64) -> (usize, u64) {
        let row = addr / self.config.page_bytes;
        let bank = (row as usize) % self.config.banks;
        (bank, row)
    }

    /// Non-mutating probe: would a transaction at `(bank, row)` (see
    /// [`decode`](Self::decode)) find its row open (or already opening)?
    /// Used by the controller's row-hit-first arbitration to pick the
    /// cheapest ready request without disturbing bank state; the
    /// controller decodes each request once, when it is submitted.
    #[inline]
    pub(crate) fn would_hit(&self, bank: usize, row: u64) -> bool {
        self.banks[bank].open_row() == Some(row)
    }

    /// Issues a 64-byte transaction at channel-local address `addr`, no
    /// earlier than `cycle`, and returns the resolved schedule.
    ///
    /// The transaction starts when the data bus frees
    /// (`max(cycle, busy_until)`), then waits for whichever of the bank's
    /// row opening ([`Bank::access`]) and the bus turnaround finishes
    /// later — the two overlap, as in real DRAM where ACTIVATE is a bank
    /// command and turnaround a bus constraint.
    pub fn issue(&mut self, cycle: Cycle, addr: u64, dir: Direction) -> IssueReport {
        let (bank, row) = self.decode(addr);
        self.issue_row(cycle, bank, row, dir)
    }

    /// [`issue`](Self::issue) for an address already decoded to `(bank,
    /// row)`.
    pub(crate) fn issue_row(
        &mut self,
        cycle: Cycle,
        bank_idx: usize,
        row: u64,
        dir: Direction,
    ) -> IssueReport {
        let start = cycle.max(self.busy_until);
        let BankAccess { outcome, row_ready } =
            self.banks[bank_idx].access(start, row, &self.config);

        let mut bus_ready = start;
        match (self.last_dir, dir) {
            (Some(Direction::Read), Direction::Write) => {
                bus_ready += self.config.read_to_write_penalty;
                self.turnarounds += 1;
            }
            (Some(Direction::Write), Direction::Read) => {
                bus_ready += self.config.write_to_read_penalty;
                self.turnarounds += 1;
            }
            _ => {}
        }
        self.last_dir = Some(dir);

        let data_start = row_ready.max(bus_ready);
        let done = data_start + self.config.transfer_cycles;
        self.total_busy_cycles += done - start;
        self.busy_until = done;
        self.total_transactions += 1;
        // Reads additionally see the access latency before data arrives,
        // but the bus frees at `done`; the extra latency is added by the
        // controller when scheduling the reply.
        IssueReport { start, data_start, done, bank: bank_idx, row, outcome }
    }

    /// Extra cycles between bus completion and read data availability.
    pub fn read_latency(&self) -> Cycle {
        self.config.access_latency
    }

    /// Transactions serviced so far.
    pub fn total_transactions(&self) -> u64 {
        self.total_transactions
    }

    /// Cycles the channel spent busy.
    pub fn total_busy_cycles(&self) -> u64 {
        self.total_busy_cycles
    }

    /// Number of banks on this channel.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Accesses that found their row open, summed over banks.
    pub fn row_hits(&self) -> u64 {
        self.banks.iter().map(|b| b.row_hits()).sum()
    }

    /// Accesses that paid one ACTIVATE, summed over banks.
    pub fn row_misses(&self) -> u64 {
        self.banks.iter().map(|b| b.row_misses()).sum()
    }

    /// Accesses that paid PRECHARGE + ACTIVATE, summed over banks.
    pub fn row_conflicts(&self) -> u64 {
        self.banks.iter().map(|b| b.row_conflicts()).sum()
    }

    /// Read↔write direction turnarounds.
    pub fn turnarounds(&self) -> u64 {
        self.turnarounds
    }
}

// Bank FSMs, bus occupancy, last direction and counters all shape the
// timing of *future* transactions, so a bit-identical resume restores
// every one; `banks` loads in place, so a file from another bank count is
// refused.
impl_json_state!(GddrChannel {
    banks: state,
    busy_until: hex,
    last_dir,
    total_transactions: hex,
    total_busy_cycles: hex,
    turnarounds: hex,
} skip {
    "configuration: timing parameters fixed at construction": config,
});

/// `"R"` or `"W"`.
impl ToJson for Direction {
    fn to_json(&self) -> Json {
        match self {
            Direction::Read => "R".to_json(),
            Direction::Write => "W".to_json(),
        }
    }
}

impl FromJson for Direction {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_str() {
            Some("R") => Ok(Direction::Read),
            Some("W") => Ok(Direction::Write),
            _ => Err(JsonError::msg(format!("bad direction: {}", v.render()))),
        }
    }
}

/// Maps a global GPU address to `(channel, channel-local address)` with
/// 256-byte interleaving, as in the paper.
pub fn interleave(addr: u64, channels: usize, granularity: u64) -> (usize, u64) {
    let block = addr / granularity;
    let channel = (block % channels as u64) as usize;
    let local_block = block / channels as u64;
    (channel, local_block * granularity + addr % granularity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use attila_json::JsonState;

    fn t() -> MemControllerConfig {
        MemControllerConfig::default()
    }

    #[test]
    fn same_row_sequential_reads_are_pipelined() {
        let mut ch = GddrChannel::new(&t());
        let r1 = ch.issue(0, 0, Direction::Read);
        assert_eq!(r1.outcome, RowOutcome::Miss);
        assert_eq!(r1.done, 6 + 4, "first access pays one ACTIVATE (tRCD)");
        let r2 = ch.issue(r1.done, 64, Direction::Read);
        assert_eq!(r2.outcome, RowOutcome::Hit);
        assert_eq!(r2.done - r1.done, 4, "same row: transfer only");
        assert_eq!(ch.row_misses(), 1);
        assert_eq!(ch.row_hits(), 1);
    }

    #[test]
    fn row_change_in_same_bank_is_a_conflict() {
        let mut ch = GddrChannel::new(&t());
        let r1 = ch.issue(0, 0, Direction::Read);
        // 8 banks * 4096-byte pages: +8 pages lands in the same bank.
        let r2 = ch.issue(r1.done, 8 * 4096, Direction::Read);
        assert_eq!(r2.outcome, RowOutcome::Conflict);
        assert_eq!(r2.bank, r1.bank);
        // PRECHARGE 10..16, ACTIVATE 16..22 (tRC from cycle 0 just met),
        // transfer 22..26.
        assert_eq!(r2.done - r1.done, 6 + 6 + 4);
        assert_eq!(ch.row_conflicts(), 1);
    }

    #[test]
    fn different_banks_keep_rows_open() {
        let mut ch = GddrChannel::new(&t());
        let r1 = ch.issue(0, 0, Direction::Read); // bank 0, row 0
        let r2 = ch.issue(r1.done, 4096, Direction::Read); // bank 1
        assert_eq!(r2.outcome, RowOutcome::Miss, "bank 1 is cold, not conflicting");
        assert_eq!(r2.done - r1.done, 6 + 4);
        let r3 = ch.issue(r2.done, 32, Direction::Read); // bank 0 row still open
        assert_eq!(r3.outcome, RowOutcome::Hit);
        assert_eq!(r3.done - r2.done, 4);
    }

    #[test]
    fn turnaround_penalties() {
        let mut ch = GddrChannel::new(&t());
        let r1 = ch.issue(0, 0, Direction::Read);
        let r2 = ch.issue(r1.done, 64, Direction::Write);
        assert_eq!(r2.done - r1.done, 4 + 4, "read->write penalty");
        let r3 = ch.issue(r2.done, 128, Direction::Read);
        assert_eq!(r3.done - r2.done, 6 + 4, "write->read penalty");
        assert_eq!(ch.turnarounds(), 2);
    }

    #[test]
    fn turnaround_overlaps_with_row_opening() {
        let mut ch = GddrChannel::new(&t());
        let r1 = ch.issue(0, 0, Direction::Read); // bank 0 open
        // Write to a cold bank: ACTIVATE (6) and read->write turnaround
        // (4) run concurrently; the longer one gates the transfer.
        let r2 = ch.issue(r1.done, 4096, Direction::Write);
        assert_eq!(r2.outcome, RowOutcome::Miss);
        assert_eq!(r2.done - r1.done, 6 + 4, "tRCD hides the 4-cycle turnaround");
    }

    #[test]
    fn channel_serializes_overlapping_requests() {
        let mut ch = GddrChannel::new(&t());
        let r1 = ch.issue(0, 0, Direction::Read);
        // Issued "at cycle 0" but the channel is busy until r1.done.
        let r2 = ch.issue(0, 64, Direction::Read);
        assert_eq!(r2.start, r1.done);
        assert!(r2.done >= r1.done + 4);
    }

    #[test]
    fn utilization_counters() {
        let mut ch = GddrChannel::new(&t());
        ch.issue(0, 0, Direction::Read); // miss: 10 busy cycles
        ch.issue(100, 64, Direction::Read); // hit: 4 busy cycles
        assert_eq!(ch.total_transactions(), 2);
        assert_eq!(ch.total_busy_cycles(), 10 + 4);
    }

    #[test]
    fn would_hit_probe_matches_issue_outcome() {
        let hit = |ch: &GddrChannel, addr| {
            let (bank, row) = ch.decode(addr);
            ch.would_hit(bank, row)
        };
        let mut ch = GddrChannel::new(&t());
        assert!(!hit(&ch, 0), "cold bank");
        let r1 = ch.issue(0, 0, Direction::Read);
        assert!(hit(&ch, 64), "same row now open");
        assert!(!hit(&ch, 8 * 4096), "same bank, other row");
        assert!(!hit(&ch, 4096), "other bank, cold");
        let r2 = ch.issue(r1.done, 64, Direction::Read);
        assert_eq!(r2.outcome, RowOutcome::Hit);
    }

    #[test]
    fn save_restore_round_trips_bank_state() {
        let mut ch = GddrChannel::new(&t());
        ch.issue(0, 0, Direction::Read);
        ch.issue(20, 8 * 4096, Direction::Write); // conflict + turnaround
        let state = ch.save_state();
        let mut fresh = GddrChannel::new(&t());
        fresh.load_state(&state).unwrap();
        assert_eq!(fresh.save_state(), state);
        // Future timing is identical.
        let a = ch.issue(100, 4096, Direction::Read);
        let b = fresh.issue(100, 4096, Direction::Read);
        assert_eq!(a, b);
    }

    #[test]
    fn load_rejects_mismatched_bank_count() {
        let mut small = GddrChannel::new(&MemControllerConfig { banks: 4, ..t() });
        let state = GddrChannel::new(&t()).save_state();
        assert!(small.load_state(&state).is_err());
    }

    #[test]
    fn interleave_spreads_256_byte_blocks() {
        assert_eq!(interleave(0, 4, 256), (0, 0));
        assert_eq!(interleave(256, 4, 256), (1, 0));
        assert_eq!(interleave(512, 4, 256), (2, 0));
        assert_eq!(interleave(768, 4, 256), (3, 0));
        assert_eq!(interleave(1024, 4, 256), (0, 256));
        assert_eq!(interleave(1024 + 100, 4, 256), (0, 356));
    }

    #[test]
    fn interleave_is_a_bijection() {
        let mut seen = std::collections::BTreeSet::new();
        for addr in (0..4096).step_by(64) {
            let key = interleave(addr, 4, 256);
            assert!(seen.insert(key), "collision at {addr}");
        }
    }
}
