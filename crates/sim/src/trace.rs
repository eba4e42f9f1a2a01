//! Signal traces and the Signal Trace Visualizer (STV).
//!
//! The ATTILA simulator can dump, each cycle, the identity and debug
//! information of every object leaving every signal. The resulting *signal
//! trace file* is consumed by the **Signal Trace Visualizer** tool to debug
//! the performance of the simulated microarchitecture — e.g. to see a
//! bubble travel down the pipeline, or a unit saturating.
//!
//! This module provides the in-memory trace buffer ([`SignalTrace`]), the
//! shared sink handle attached to signals ([`TraceSink`]) and a text
//! renderer that draws a signals × cycles activity grid — a terminal
//! version of the visualizer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::name::SignalName;
use crate::Cycle;

/// One recorded signal transfer: an object arriving at a signal's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle at which the object arrives at the consumer end.
    pub cycle: Cycle,
    /// Name of the signal that carried it (interned: recording an event
    /// shares the wire's name handle instead of cloning a `String`).
    pub signal: SignalName,
    /// Debug description of the object (truncated).
    pub info: String,
}

/// Shared handle cloned into every traced signal.
///
/// See [`SignalWriter::attach_trace`](crate::SignalWriter::attach_trace).
pub type TraceSink = Rc<RefCell<SignalTrace>>;

/// An in-memory signal trace.
///
/// # Examples
///
/// ```
/// use attila_sim::{Signal, SignalTrace};
///
/// let sink = SignalTrace::new_sink(0);
/// let (mut tx, mut rx) = Signal::<u32>::with_name("a->b", 1, 2);
/// tx.attach_trace(sink.clone());
/// tx.write(0, 42).unwrap();
/// rx.read(2);
/// let trace = sink.borrow();
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace.events()[0].cycle, 2);
/// ```
#[derive(Debug, Default)]
pub struct SignalTrace {
    events: Vec<TraceEvent>,
    /// Maximum number of retained events (0 = unbounded). Long simulations
    /// would otherwise exhaust memory; the real tool streams to disk.
    capacity: usize,
    dropped: u64,
}

impl SignalTrace {
    /// Creates an unbounded trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a trace retaining at most `capacity` most-recent events.
    pub fn with_capacity(capacity: usize) -> Self {
        SignalTrace { events: Vec::new(), capacity, dropped: 0 }
    }

    /// A shareable sink retaining at most `capacity` most-recent events
    /// (0 = unbounded).
    pub fn new_sink(capacity: usize) -> TraceSink {
        Rc::new(RefCell::new(SignalTrace::with_capacity(capacity)))
    }

    /// Appends an event (called by traced signals).
    pub fn push(&mut self, ev: TraceEvent) {
        if self.capacity != 0 && self.events.len() >= self.capacity {
            self.events.remove(0);
            self.dropped += 1;
        }
        self.events.push(ev);
    }

    /// All retained events in arrival order (stable for equal cycles).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted due to the capacity limit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serializes the trace in the simulator's line-oriented dump format:
    /// `cycle<TAB>signal<TAB>info`.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            let _ = writeln!(out, "{}\t{}\t{}", ev.cycle, ev.signal, ev.info);
        }
        out
    }

    /// Parses a dump produced by [`dump`](Self::dump).
    pub fn parse(text: &str) -> SignalTrace {
        let mut trace = SignalTrace::new();
        for line in text.lines() {
            let mut parts = line.splitn(3, '\t');
            let (Some(cycle), Some(signal)) = (parts.next(), parts.next()) else { continue };
            let Ok(cycle) = cycle.parse() else { continue };
            trace.push(TraceEvent {
                cycle,
                signal: signal.into(),
                info: parts.next().unwrap_or("").to_string(),
            });
        }
        trace
    }

    /// Renders the terminal Signal Trace Visualizer view: one row per
    /// signal, one column per cycle in `[from, to)`; each cell shows the
    /// number of objects that arrived (`.` for none, `1`-`9`, `+` for >9).
    pub fn render(&self, from: Cycle, to: Cycle) -> String {
        let mut per_signal: BTreeMap<&str, BTreeMap<Cycle, usize>> = BTreeMap::new();
        for ev in &self.events {
            if ev.cycle >= from && ev.cycle < to {
                *per_signal
                    .entry(ev.signal.as_str())
                    .or_default()
                    .entry(ev.cycle)
                    .or_default() += 1;
            }
        }
        let name_w = per_signal.keys().map(|n| n.len()).max().unwrap_or(6).max(6);
        let mut out = String::new();
        let _ = writeln!(out, "{:>name_w$} | cycles {from}..{to}", "signal");
        for (name, cycles) in &per_signal {
            let _ = write!(out, "{name:>name_w$} | ");
            for c in from..to {
                let ch = match cycles.get(&c).copied().unwrap_or(0) {
                    0 => '.',
                    n @ 1..=9 => char::from_digit(n as u32, 10).unwrap(),
                    _ => '+',
                };
                out.push(ch);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: Cycle, signal: &str, info: &str) -> TraceEvent {
        TraceEvent { cycle, signal: signal.into(), info: info.into() }
    }

    #[test]
    fn push_and_len() {
        let mut t = SignalTrace::new();
        t.push(ev(1, "a", "x"));
        t.push(ev(2, "b", "y"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut t = SignalTrace::with_capacity(2);
        t.push(ev(1, "a", ""));
        t.push(ev(2, "a", ""));
        t.push(ev(3, "a", ""));
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.events()[0].cycle, 2);
    }

    #[test]
    fn dump_parse_round_trip() {
        let mut t = SignalTrace::new();
        t.push(ev(5, "clip->setup", "#12<-#3 tri"));
        t.push(ev(6, "setup->fg", "#13"));
        let parsed = SignalTrace::parse(&t.dump());
        assert_eq!(parsed.events(), t.events());
    }

    #[test]
    fn render_grid_shows_activity() {
        let mut t = SignalTrace::new();
        t.push(ev(0, "sig", ""));
        t.push(ev(2, "sig", ""));
        t.push(ev(2, "sig", ""));
        let grid = t.render(0, 4);
        // header + one signal row
        let row = grid.lines().nth(1).unwrap();
        assert!(row.ends_with("1.2."), "got: {row}");
    }

    #[test]
    fn render_overflow_marker() {
        let mut t = SignalTrace::new();
        for _ in 0..12 {
            t.push(ev(0, "s", ""));
        }
        let grid = t.render(0, 1);
        assert!(grid.lines().nth(1).unwrap().ends_with('+'));
    }

    #[test]
    fn parse_skips_garbage_lines() {
        let parsed = SignalTrace::parse("not-a-cycle\tx\ty\n7\tok\tinfo\n");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed.events()[0].signal, "ok");
    }
}
