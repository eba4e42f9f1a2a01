//! Post-mortem failure reports — hang forensics for the pipeline.
//!
//! When a simulation aborts (a [`SimError`] from a signal verification
//! check) or hangs (the watchdog expires), knowing *which* wire or box is
//! stuck matters far more than the bare error. A [`FailureReport`]
//! snapshots the whole machine at the moment of death: every box's busy
//! flag and queue occupancy, every signal's in-flight/lost counters, and
//! the most recent signal-trace events when tracing was enabled. Its
//! [`Display`](std::fmt::Display) rendering is what the CLI prints to
//! stderr on failure.

use attila_sim::{Cycle, SignalStatus, SimError, TopologySummary, TraceEvent};

/// One pipeline box's health at the moment of failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoxStatus {
    /// The box's name (matches the names signals are registered under).
    pub name: String,
    /// Whether the box reported work in flight.
    pub busy: bool,
    /// Objects waiting in the box's input queues and staging buffers.
    pub queued: usize,
    /// Whether the scheduler's per-box gate would leave the box unclocked
    /// on the report's cycle. Asleep with queued work is a box stalled on
    /// its output credits, waiting for one to return; whether the gate
    /// ever sleeps a box it should clock is `tests/box_gating_lockstep.rs`'s
    /// question, not this flag's.
    pub asleep: bool,
    /// The cycle a sleeping box clocks again by its own horizon; `None`
    /// when awake, or asleep until something external wakes it (a wire
    /// arrival, a returning credit, a memory reply, a Command Processor
    /// action).
    pub wake_cycle: Option<Cycle>,
}

/// A snapshot of the machine at the moment a run failed.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureReport {
    /// The cycle at which the failure was detected.
    pub cycle: Cycle,
    /// The verification error that killed the run, or `None` for a
    /// watchdog expiry (a hang, not a detected fault).
    pub error: Option<SimError>,
    /// Per-box busy flags and queue occupancies, pipeline order.
    pub boxes: Vec<BoxStatus>,
    /// Health counters of every registered signal, in name order.
    pub signals: Vec<SignalStatus>,
    /// The most recent signal-trace events (empty unless tracing was
    /// enabled, e.g. by arming a fault injector).
    pub recent_events: Vec<TraceEvent>,
    /// What was *wired*, not just what was busy: box/signal counts and
    /// the sorted signal names, so a hang dump can be checked against the
    /// intended design.
    pub topology: Option<TopologySummary>,
}

impl FailureReport {
    /// The boxes still holding work — a drained pipeline that hangs
    /// anyway points at the memory controller or the DAC.
    pub fn busy_boxes(&self) -> impl Iterator<Item = &BoxStatus> {
        self.boxes.iter().filter(|b| b.busy)
    }
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "=== failure report (cycle {}) ===", self.cycle)?;
        match &self.error {
            Some(e) => writeln!(f, "fault: {e}")?,
            None => writeln!(f, "fault: none (watchdog expiry — the pipeline hung)")?,
        }
        writeln!(f, "boxes:")?;
        for b in &self.boxes {
            write!(
                f,
                "  {:<20} {} queued={}",
                b.name,
                if b.busy { "BUSY" } else { "idle" },
                b.queued
            )?;
            match (b.asleep, b.wake_cycle) {
                (false, _) => writeln!(f)?,
                (true, Some(c)) => writeln!(f, "  [asleep until {c}]")?,
                (true, None) => writeln!(f, "  [asleep]")?,
            }
        }
        writeln!(f, "signals (in-flight / written / read / lost):")?;
        for s in &self.signals {
            // Quiet wires are noise in a post-mortem; show the active ones.
            if s.in_flight == 0 && s.lost == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<36} {:>3} / {} / {} / {}",
                s.name, s.in_flight, s.written, s.read, s.lost
            )?;
        }
        if !self.recent_events.is_empty() {
            writeln!(f, "last {} signal events:", self.recent_events.len())?;
            for ev in &self.recent_events {
                writeln!(f, "  {:>8}  {:<36} {}", ev.cycle, ev.signal, ev.info)?;
            }
        }
        if let Some(topology) = &self.topology {
            write!(f, "{topology}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FailureReport {
        FailureReport {
            cycle: 1234,
            error: Some(SimError::DataLost {
                signal: "PA->Clipper.triangles".into(),
                cycle: 1230,
                lost: 2,
            }),
            boxes: vec![
                BoxStatus {
                    name: "Clipper".into(),
                    busy: true,
                    queued: 3,
                    asleep: false,
                    wake_cycle: None,
                },
                BoxStatus {
                    name: "TriangleSetup".into(),
                    busy: false,
                    queued: 0,
                    asleep: true,
                    wake_cycle: Some(1300),
                },
            ],
            signals: vec![SignalStatus {
                name: "PA->Clipper.triangles".into(),
                in_flight: 1,
                written: 10,
                read: 7,
                lost: 2,
            }],
            recent_events: vec![TraceEvent {
                cycle: 1229,
                signal: "PA->Clipper.triangles".into(),
                info: "Triangle#41".into(),
            }],
            topology: Some(TopologySummary {
                box_count: 2,
                signal_count: 1,
                signal_names: vec!["PA->Clipper.triangles".into()],
            }),
        }
    }

    #[test]
    fn display_names_the_offender() {
        let text = sample().to_string();
        assert!(text.contains("cycle 1234"), "{text}");
        assert!(text.contains("PA->Clipper.triangles"), "{text}");
        assert!(text.contains("BUSY queued=3\n"), "{text}");
        assert!(text.contains("idle queued=0  [asleep until 1300]"), "{text}");
        assert!(text.contains("Triangle#41"), "{text}");
        assert!(text.contains("topology: 2 boxes, 1 signals"), "{text}");
    }

    #[test]
    fn watchdog_report_has_no_fault() {
        let mut r = sample();
        r.error = None;
        let text = r.to_string();
        assert!(text.contains("watchdog"), "{text}");
    }

    #[test]
    fn helpers_filter() {
        let r = sample();
        assert_eq!(r.busy_boxes().count(), 1);
    }

    #[test]
    fn quiet_signals_are_elided() {
        let mut r = sample();
        r.signals.push(SignalStatus {
            name: "quiet->wire".into(),
            in_flight: 0,
            written: 5,
            read: 5,
            lost: 0,
        });
        assert!(!r.to_string().contains("quiet->wire"));
    }
}
