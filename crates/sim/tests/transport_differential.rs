//! Differential property test for the ring-buffer signal transport.
//!
//! The preallocated ring (`crates/sim/src/signal.rs`) must be
//! *semantically invisible*: every observable behaviour — delivered
//! values, delivery cycles, verification errors, loss counters, and the
//! two arrival facts a scheduler reads — must match the plain
//! growable-`VecDeque` transport it replaced, under arbitrary latencies,
//! bandwidths, over-bandwidth bursts and reader stalls. This file retains
//! that legacy transport as an executable reference model and drives both
//! implementations with identical seeded traffic, comparing after every
//! operation.
//!
//! The arrival facts are read where the machine reads them: the binder's
//! earliest arrival over its wire table
//! ([`SignalBinder::next_event_cycle`]) and the reader box's wake line
//! ([`WakeLine::latest_arrival`](attila_sim::WakeLine::latest_arrival)).

use std::collections::VecDeque;

use attila_sim::{Signal, SignalBinder, SignalName, SignalProbe, SignalTrace, SimError, TinyRng};

/// The reader box every test wire is registered towards.
const READER: &str = "B";

/// The legacy transport: a growable `VecDeque` with no preallocation and
/// no cached back arrival — a line-for-line retention of the semantics
/// the ring replaced. Kept deliberately naive: the earliest arrival always
/// scans, pushes always go through `VecDeque` growth rules.
struct RefWire {
    name: SignalName,
    bandwidth: usize,
    latency: u64,
    in_flight: VecDeque<(u64, u32)>,
    /// The latest arrival of anything ever written (0 before any write).
    latest_arrival: u64,
    latest_cycle: u64,
    writes_this_cycle: usize,
    total_written: u64,
    total_read: u64,
    total_lost: u64,
}

impl RefWire {
    fn new(name: &str, bandwidth: usize, latency: u64) -> Self {
        RefWire {
            name: SignalName::from(name),
            bandwidth,
            latency,
            in_flight: VecDeque::new(),
            latest_arrival: 0,
            latest_cycle: 0,
            writes_this_cycle: 0,
            total_written: 0,
            total_read: 0,
            total_lost: 0,
        }
    }

    fn observe_cycle(&mut self, cycle: u64) -> Result<(), SimError> {
        if cycle > self.latest_cycle {
            self.latest_cycle = cycle;
            self.writes_this_cycle = 0;
        }
        let mut lost = 0usize;
        while let Some((arrival, _)) = self.in_flight.front() {
            if *arrival < cycle {
                self.in_flight.pop_front();
                lost += 1;
            } else {
                break;
            }
        }
        if lost > 0 {
            self.total_lost += lost as u64;
            return Err(SimError::DataLost { signal: self.name.clone(), cycle, lost });
        }
        Ok(())
    }

    fn write(&mut self, cycle: u64, obj: u32) -> Result<(), SimError> {
        if cycle < self.latest_cycle {
            return Err(SimError::TimeTravel {
                signal: self.name.clone(),
                cycle,
                latest: self.latest_cycle,
            });
        }
        self.observe_cycle(cycle)?;
        if self.writes_this_cycle >= self.bandwidth {
            return Err(SimError::BandwidthExceeded {
                signal: self.name.clone(),
                cycle,
                bandwidth: self.bandwidth,
            });
        }
        self.writes_this_cycle += 1;
        self.total_written += 1;
        self.in_flight.push_back((cycle + self.latency, obj));
        self.latest_arrival = self.latest_arrival.max(cycle + self.latency);
        Ok(())
    }

    fn read(&mut self, cycle: u64) -> Result<Option<u32>, SimError> {
        if cycle >= self.latest_cycle {
            self.observe_cycle(cycle)?;
        }
        match self.in_flight.front() {
            Some((arrival, _)) if *arrival == cycle => match self.in_flight.pop_front() {
                Some((_, obj)) => {
                    self.total_read += 1;
                    Ok(Some(obj))
                }
                None => Ok(None),
            },
            _ => Ok(None),
        }
    }

    fn can_write(&self, cycle: u64) -> bool {
        cycle > self.latest_cycle || self.writes_this_cycle < self.bandwidth
    }

    fn slots_left(&self, cycle: u64) -> usize {
        if cycle > self.latest_cycle {
            self.bandwidth
        } else {
            self.bandwidth - self.writes_this_cycle.min(self.bandwidth)
        }
    }

    fn next_arrival(&self) -> Option<u64> {
        self.in_flight.iter().map(|(a, _)| *a).min()
    }
}

/// Asserts the wire's lifetime counters, as failure reports and
/// checkpoints read them, against the reference.
fn assert_counters(probe: &SignalProbe, reference: &RefWire, at: &str) {
    let s = probe.status();
    let want = (reference.total_written, reference.total_read, reference.total_lost);
    assert_eq!((s.written, s.read, s.lost), want, "{at}: written, read, lost");
}

/// Asserts the binder's earliest arrival and the reader's wake line
/// against the reference.
fn assert_arrivals(binder: &SignalBinder, reference: &RefWire, at: &str) {
    assert_eq!(binder.next_event_cycle(), reference.next_arrival(), "{at}: next_event_cycle");
    let line = binder.wake_line(READER).expect("the wire is registered towards the reader");
    assert_eq!(line.latest_arrival(), reference.latest_arrival, "{at}: wake line");
}

/// Drives the ring transport and the reference transport with identical
/// seeded traffic — random write bursts (sometimes over bandwidth) and
/// random reader stalls (sometimes losing data) — and asserts every
/// observable matches: write results, read results, loss/traffic
/// counters, and the arrival facts the idle-skip scheduler depends on.
/// Every other seed traces the wire, which pins its table word, so the
/// core's own paths — the binder's included — are driven too.
#[test]
fn ring_transport_matches_vecdeque_reference() {
    for seed in 0..256u64 {
        let mut rng = TinyRng::new(seed);
        let latency = rng.range_u64(0, 10);
        let bandwidth = rng.range_u32(1, 5) as usize;
        let mut binder = SignalBinder::new();
        let (mut tx, mut rx) = binder.register::<u32>("p", "A", READER, bandwidth, latency).unwrap();
        let mut reference = RefWire::new("p", bandwidth, latency);
        if seed % 2 == 0 {
            assert_eq!(binder.attach_trace(&SignalTrace::new_sink(1)), 1);
        }

        let mut value = 0u32;
        for cycle in 0..80u64 {
            // Write a burst; deliberately allowed to exceed bandwidth so
            // the `BandwidthExceeded` path is exercised too.
            let burst = rng.range_u32(0, bandwidth as u32 + 2);
            for _ in 0..burst {
                value += 1;
                let got = tx.write(cycle, value);
                let want = reference.write(cycle, value);
                assert_eq!(got, want, "seed {seed} cycle {cycle}: write result diverged");
            }
            // The reader sometimes sleeps through a cycle, stranding
            // arrivals.
            if rng.chance(3, 4) {
                loop {
                    let got = rx.try_read(cycle);
                    let want = reference.read(cycle);
                    assert_eq!(got, want, "seed {seed} cycle {cycle}: read diverged");
                    match got {
                        Ok(Some(_)) => continue,
                        _ => break,
                    }
                }
            }
            assert_arrivals(&binder, &reference, &format!("seed {seed} cycle {cycle}"));
            assert_eq!(rx.in_flight(), reference.in_flight.len(), "seed {seed} cycle {cycle}");
            assert_counters(&tx.probe(), &reference, &format!("seed {seed} cycle {cycle}"));
        }
    }
}

/// The table-fronted fast paths against the reference, on the wires that
/// take them: untraced. Every cycle runs a random
/// interleaving of empty polls, bandwidth probes (at, before and after
/// the current cycle), writes (some over bandwidth, some in the past),
/// reads before and after same-cycle writes, and arrival queries; now and
/// then the reader oversleeps so that a front object is overdue when it
/// next polls. Each operation's result — `Ok`/`Err` variant and payload —
/// must equal the reference's, in particular: an empty poll must advance
/// the observed cycle (or a later write in the past would be accepted and
/// `can_write` would answer from a stale budget), and an overdue object
/// must still be reported as `DataLost`.
#[test]
fn fast_paths_match_reference_on_unfaulted_wires() {
    let mut lost_seen = 0u32;
    let mut time_travel_seen = 0u32;
    let mut empty_polls = 0u32;
    for seed in 0..256u64 {
        let mut rng = TinyRng::new(0xF1A7 ^ seed);
        let latency = rng.range_u64(0, 10);
        let bandwidth = rng.range_u32(1, 5) as usize;
        let mut binder = SignalBinder::new();
        let (mut tx, mut rx) = binder.register::<u32>("p", "A", READER, bandwidth, latency).unwrap();
        let mut reference = RefWire::new("p", bandwidth, latency);
        let mut value = 0u32;
        let mut asleep_until = 0u64;
        for cycle in 0..120u64 {
            if rng.chance(1, 40) {
                // Oversleep: whatever arrives meanwhile is overdue at the
                // next poll.
                asleep_until = cycle + rng.range_u64(1, 6);
            }
            let reader_awake = cycle >= asleep_until;
            for _ in 0..rng.range_u32(2, 9) {
                let at = format!("seed {seed} cycle {cycle}");
                match rng.range_u32(0, 8) {
                    0 | 1 if reader_awake => {
                        let got = rx.try_read(cycle);
                        assert_eq!(got, reference.read(cycle), "{at}: read");
                        match got {
                            Ok(None) => empty_polls += 1,
                            Err(SimError::DataLost { .. }) => lost_seen += 1,
                            _ => {}
                        }
                    }
                    2 | 3 => {
                        value += 1;
                        let got = tx.write(cycle, value);
                        assert_eq!(got, reference.write(cycle, value), "{at}: write");
                        if matches!(got, Err(SimError::DataLost { .. })) {
                            lost_seen += 1;
                        }
                    }
                    4 => {
                        // A write in the past: time travel, unless nothing
                        // has observed a later cycle yet.
                        let past = cycle.saturating_sub(rng.range_u64(1, 4));
                        value += 1;
                        let got = tx.write(past, value);
                        assert_eq!(got, reference.write(past, value), "{at}: past write");
                        if matches!(got, Err(SimError::TimeTravel { .. })) {
                            time_travel_seen += 1;
                        }
                    }
                    5 => {
                        let probe = (cycle + rng.range_u64(0, 3)).saturating_sub(1);
                        assert_eq!(tx.can_write(probe), reference.can_write(probe), "{at}: can_write");
                        assert_eq!(
                            tx.slots_left(probe),
                            reference.slots_left(probe),
                            "{at}: slots_left"
                        );
                    }
                    6 if reader_awake => {
                        // A poll in the past observes nothing.
                        let past = cycle.saturating_sub(1);
                        assert_eq!(rx.try_read(past), reference.read(past), "{at}: past read");
                    }
                    _ => {
                        assert_arrivals(&binder, &reference, &at);
                        assert_eq!(rx.in_flight(), reference.in_flight.len(), "{at}: in_flight");
                    }
                }
            }
            if reader_awake {
                // Drain what is due, as a box does, so most seeds mostly
                // stay healthy.
                loop {
                    let got = rx.try_read(cycle);
                    assert_eq!(got, reference.read(cycle), "seed {seed} cycle {cycle}: drain");
                    if !matches!(got, Ok(Some(_))) {
                        break;
                    }
                }
            }
            assert_counters(&tx.probe(), &reference, &format!("seed {seed} cycle {cycle}"));
        }
    }
    // The traffic must actually reach the cases the fast path could get
    // wrong.
    assert!(empty_polls > 1_000, "only {empty_polls} empty polls");
    assert!(lost_seen > 50, "only {lost_seen} overdue objects detected");
    assert!(time_travel_seen > 200, "only {time_travel_seen} time-travel rejections");
}

/// Sustained saturation: every cycle writes exactly `bandwidth` objects
/// and the reader drains them all on arrival for thousands of cycles. On
/// a healthy wire the ring must stay within its preallocated capacity
/// (this is the allocation-freedom scenario the counting-allocator test
/// in `tests/alloc.rs` measures) while remaining value-identical to the
/// reference.
#[test]
fn saturated_wire_stays_identical_over_long_runs() {
    for &(bandwidth, latency) in &[(1usize, 1u64), (2, 4), (4, 0), (3, 9)] {
        let (mut tx, mut rx) = Signal::<u32>::with_name("p", bandwidth, latency);
        let mut reference = RefWire::new("p", bandwidth, latency);
        let mut value = 0u32;
        for cycle in 0..5_000u64 {
            for _ in 0..bandwidth {
                value += 1;
                assert_eq!(tx.write(cycle, value), reference.write(cycle, value));
            }
            loop {
                let got = rx.try_read(cycle);
                assert_eq!(got, reference.read(cycle));
                match got {
                    Ok(Some(_)) => continue,
                    _ => break,
                }
            }
        }
        assert_counters(&tx.probe(), &reference, "saturated");
        assert_eq!(reference.total_lost, 0);
    }
}
