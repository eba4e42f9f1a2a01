//! The signal binder: a name server for signals.
//!
//! In the ATTILA simulator the `SignalBinder` static class registers and
//! associates, using unique names, signals with the boxes they connect. The
//! set of signals a box registers conforms the box *interface*: a box can be
//! replaced by another box implementing an alternative microarchitecture as
//! long as it registers the same signals and supports the same objects.
//!
//! The Rust port keeps the binder as an explicit value (no global state).
//! Because signals are statically typed here, the binder stores the
//! *metadata* (name, direction, endpoints, bandwidth, latency) used for
//! introspection, interface checking and signal-trace tooling, while the
//! typed endpoints are handed to the boxes.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::SimError;
use crate::name::SignalName;
use crate::signal::{Signal, SignalProbe, SignalReader, SignalStatus, SignalWriter, WakeLine};
use crate::Cycle;

/// Direction of a signal relative to the box that registered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalDirection {
    /// The box reads from this signal.
    Input,
    /// The box writes to this signal.
    Output,
}

impl fmt::Display for SignalDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignalDirection::Input => write!(f, "in"),
            SignalDirection::Output => write!(f, "out"),
        }
    }
}

/// Metadata describing one registered signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalInfo {
    /// Unique signal name, conventionally `producer->consumer` or
    /// `box.purpose`.
    pub name: String,
    /// The box producing into the signal.
    pub from_box: String,
    /// The box consuming from the signal.
    pub to_box: String,
    /// Objects per cycle the wire can carry.
    pub bandwidth: usize,
    /// Cycles between write and arrival.
    pub latency: Cycle,
}

/// Registry of every signal in a simulator instance.
///
/// # Examples
///
/// ```
/// use attila_sim::SignalBinder;
///
/// let mut binder = SignalBinder::new();
/// let (_tx, _rx) =
///     binder.register::<u32>("clipper->setup", "Clipper", "TriangleSetup", 1, 6).unwrap();
/// let info = binder.info("clipper->setup").unwrap();
/// assert_eq!(info.latency, 6);
/// assert_eq!(binder.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SignalBinder {
    signals: BTreeMap<String, SignalInfo>,
    /// Type-erased handles onto the live wires, kept for post-mortem
    /// reporting and fault isolation.
    probes: BTreeMap<String, SignalProbe>,
    /// One wake line per reader box, shared by every wire registered
    /// towards it.
    wake_lines: BTreeMap<String, WakeLine>,
    /// Next dense [`SignalName`] id, assigned in registration order.
    next_id: u32,
}

impl SignalBinder {
    /// Creates an empty binder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a signal, registers its metadata under a unique name and
    /// returns the typed endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NameCollision`] if a signal with the same name
    /// was already registered.
    pub fn register<T: fmt::Debug + 'static>(
        &mut self,
        name: &str,
        from_box: &str,
        to_box: &str,
        bandwidth: usize,
        latency: Cycle,
    ) -> Result<(SignalWriter<T>, SignalReader<T>), SimError> {
        if self.signals.contains_key(name) {
            return Err(SimError::NameCollision(name.to_string()));
        }
        self.signals.insert(
            name.to_string(),
            SignalInfo {
                name: name.to_string(),
                from_box: from_box.to_string(),
                to_box: to_box.to_string(),
                bandwidth,
                latency,
            },
        );
        // Intern the name with a dense id in registration order: the
        // pipeline is wired in a fixed sequence, so ids are deterministic
        // for a given configuration.
        let interned = SignalName::interned(name, self.next_id);
        self.next_id += 1;
        let wake = self.wake_lines.entry(to_box.to_string()).or_default().clone();
        let (writer, reader) = Signal::with_wake(interned, bandwidth, latency, wake);
        self.probes.insert(name.to_string(), writer.probe());
        Ok((writer, reader))
    }

    /// The live probe of a registered signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] if no signal has that name.
    pub fn probe(&self, name: &str) -> Result<&SignalProbe, SimError> {
        self.probes.get(name).ok_or_else(|| SimError::UnknownSignal(name.to_string()))
    }

    /// The wake line of `box_name`: the latest arrival cycle over every
    /// wire registered with that box as its reader, data and credit
    /// returns alike. `None` for a box that reads no registered wire.
    pub fn wake_line(&self, box_name: &str) -> Option<WakeLine> {
        self.wake_lines.get(box_name).cloned()
    }

    /// Degrades (or restores) a registered signal to best-effort delivery
    /// by name — the mechanism behind fault *isolation*: a wire that
    /// failed a verification check keeps flowing, dropping what it cannot
    /// carry, instead of taking the simulation down.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] if no signal has that name.
    pub fn set_lossy(&self, name: &str, lossy: bool) -> Result<(), SimError> {
        self.probe(name).map(|p| p.set_lossy(lossy))
    }

    /// Attaches a compiled fault schedule to a registered signal by name
    /// (see [`FaultInjector`](crate::FaultInjector)).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] if no signal has that name.
    pub fn attach_faults(
        &self,
        name: &str,
        hook: crate::fault::SignalFaultHandle,
    ) -> Result<(), SimError> {
        self.probe(name).map(|p| p.attach_faults(hook))
    }

    /// Snapshots the health counters of every registered signal, in name
    /// order — the signal section of a failure report.
    pub fn statuses(&self) -> Vec<SignalStatus> {
        self.probes.values().map(SignalProbe::status).collect()
    }

    /// The earliest delivery cycle across every registered signal's
    /// in-flight objects, if anything is in flight at all.
    ///
    /// This is the wire half of the event-horizon computation: an
    /// idle-aware scheduler may only jump the clock to a cycle no later
    /// than this, because every in-flight object (data *and* credit
    /// returns) must be readable at its exact arrival cycle.
    pub fn next_event_cycle(&self) -> Option<Cycle> {
        self.probes.values().filter_map(SignalProbe::next_arrival).min()
    }

    /// The latest delivery cycle across every registered signal's
    /// in-flight objects — the cycle by which all wires have drained.
    pub fn drain_cycle(&self) -> Option<Cycle> {
        self.probes.values().filter_map(SignalProbe::drain_cycle).max()
    }

    /// Snapshots every registered signal as a topology edge — metadata
    /// plus current in-flight occupancy — in name order. This is the raw
    /// material of the architecture verifier
    /// ([`Topology`](crate::lint::Topology)).
    pub fn edges(&self) -> Vec<crate::lint::SignalEdge> {
        self.signals
            .values()
            .map(|info| {
                let (in_flight, next_arrival) = match self.probes.get(&info.name) {
                    Some(p) => (p.status().in_flight, p.next_arrival()),
                    None => (0, None),
                };
                crate::lint::SignalEdge { info: info.clone(), in_flight, next_arrival }
            })
            .collect()
    }

    /// Looks up the metadata of a registered signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] if no signal has that name.
    pub fn info(&self, name: &str) -> Result<&SignalInfo, SimError> {
        self.signals.get(name).ok_or_else(|| SimError::UnknownSignal(name.to_string()))
    }

    /// Iterates over all registered signals in name order.
    pub fn iter(&self) -> impl Iterator<Item = &SignalInfo> {
        self.signals.values()
    }

    /// All signals attached (as producer or consumer) to `box_name` — the
    /// box's *interface* in the paper's sense.
    pub fn interface_of<'a>(&'a self, box_name: &'a str) -> impl Iterator<Item = &'a SignalInfo> {
        self.signals.values().filter(move |s| s.from_box == box_name || s.to_box == box_name)
    }

    /// Number of registered signals.
    pub fn len(&self) -> usize {
        self.signals.len()
    }

    /// Whether the binder has no registered signals.
    pub fn is_empty(&self) -> bool {
        self.signals.is_empty()
    }

    /// Renders a human-readable interface summary (one line per signal),
    /// useful in debug dumps and documentation of configured pipelines.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for s in self.signals.values() {
            out.push_str(&format!(
                "{:<36} {} -> {} bw={} lat={}\n",
                s.name, s.from_box, s.to_box, s.bandwidth, s.latency
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut b = SignalBinder::new();
        b.register::<u8>("a->b", "A", "B", 2, 4).unwrap();
        let info = b.info("a->b").unwrap();
        assert_eq!(info.from_box, "A");
        assert_eq!(info.to_box, "B");
        assert_eq!(info.bandwidth, 2);
        assert_eq!(info.latency, 4);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut b = SignalBinder::new();
        b.register::<u8>("x", "A", "B", 1, 1).unwrap();
        let err = b.register::<u8>("x", "C", "D", 1, 1).unwrap_err();
        assert_eq!(err, SimError::NameCollision("x".into()));
    }

    #[test]
    fn unknown_lookup_errors() {
        let b = SignalBinder::new();
        assert_eq!(b.info("nope").unwrap_err(), SimError::UnknownSignal("nope".into()));
    }

    #[test]
    fn interface_of_collects_both_directions() {
        let mut b = SignalBinder::new();
        b.register::<u8>("a->b", "A", "B", 1, 1).unwrap();
        b.register::<u8>("b->c", "B", "C", 1, 1).unwrap();
        b.register::<u8>("c->a", "C", "A", 1, 1).unwrap();
        let names: Vec<_> = b.interface_of("B").map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a->b", "b->c"]);
    }

    #[test]
    fn registered_endpoints_work() {
        let mut b = SignalBinder::new();
        let (mut tx, mut rx) = b.register::<u32>("w", "A", "B", 1, 2).unwrap();
        tx.write(0, 5).unwrap();
        assert_eq!(rx.read(2), Some(5));
    }

    #[test]
    fn next_event_cycle_is_earliest_across_all_wires() {
        let mut b = SignalBinder::new();
        let (mut tx1, mut rx1) = b.register::<u32>("slow", "A", "B", 1, 10).unwrap();
        let (mut tx2, _rx2) = b.register::<u32>("fast", "B", "C", 1, 2).unwrap();
        assert_eq!(b.next_event_cycle(), None);
        assert_eq!(b.drain_cycle(), None);
        tx1.write(0, 1).unwrap(); // arrives at 10
        tx2.write(0, 2).unwrap(); // arrives at 2
        assert_eq!(b.next_event_cycle(), Some(2), "min over every wire");
        assert_eq!(b.drain_cycle(), Some(10), "max over every wire");
        assert_eq!(rx1.read(10), Some(1));
        assert_eq!(b.next_event_cycle(), Some(2), "fast wire still in flight");
    }

    #[test]
    fn wake_line_tracks_the_latest_arrival_towards_a_reader() {
        let mut b = SignalBinder::new();
        let (mut data, _rx) = b.register::<u32>("a->b", "A", "B", 1, 6).unwrap();
        let (mut credit, _crx) = b.register::<u32>("b->c.credits", "C", "B", 1, 1).unwrap();
        let (mut other, _orx) = b.register::<u32>("b->c", "B", "C", 1, 3).unwrap();
        let line = b.wake_line("B").unwrap();
        assert!(b.wake_line("Nobody").is_none());
        assert_eq!(line.latest_arrival(), 0);
        credit.write(4, 1).unwrap();
        assert_eq!(line.latest_arrival(), 5, "credit returns wake their reader too");
        data.write(4, 7).unwrap();
        assert_eq!(line.latest_arrival(), 10);
        credit.write(5, 1).unwrap();
        assert_eq!(line.latest_arrival(), 10, "the line only ever rises");
        other.write(20, 9).unwrap();
        assert_eq!(line.latest_arrival(), 10, "wires read by other boxes do not touch it");
        assert_eq!(b.wake_line("C").unwrap().latest_arrival(), 23);
    }

    #[test]
    fn describe_mentions_every_signal() {
        let mut b = SignalBinder::new();
        b.register::<u8>("alpha", "A", "B", 1, 1).unwrap();
        b.register::<u8>("beta", "B", "C", 8, 3).unwrap();
        let d = b.describe();
        assert!(d.contains("alpha") && d.contains("beta"));
        assert!(d.contains("bw=8") && d.contains("lat=3"));
    }
}
