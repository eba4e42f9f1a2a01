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
//! *metadata* (name, writer and reader box, bandwidth, latency) used for
//! wake lines, introspection and signal-trace tooling, while the typed
//! endpoints are handed to the boxes. It is the machine's one wiring
//! table: boxes do not declare their interface a second time.

use std::collections::BTreeMap;
use std::fmt;

use attila_json::{array, field, field_with, HexJson, Json, JsonError, JsonState, ToJson};

use crate::error::SimError;
use crate::name::SignalName;
use std::rc::Rc;

use crate::signal::{
    ring_capacity, Due, Signal, SignalProbe, SignalReader, SignalStatus, SignalWriter, WakeLine,
    WireSlot, WireWords,
};
use crate::trace::TraceSink;
use crate::Cycle;

/// Wires per chunk of the wire table. One chunk (64 wires × two words =
/// 16 cache lines) holds every wire of the baseline machine; a larger
/// machine adds chunks, so handles into earlier ones stay valid.
const TABLE_CHUNK: usize = 64;

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
    /// Bytes one in-flight object occupies in the wire's ring:
    /// `size_of::<(Cycle, T)>()` for payload type `T`. A payload that
    /// grows shows up here (and in `attila --dump-pipeline`).
    pub slot_bytes: usize,
    /// Slots preallocated for the ring: `(latency + 1) × bandwidth`.
    pub ring_slots: usize,
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
    /// Type-erased handles onto the live wires, in id (registration)
    /// order: post-mortem reporting, traces attached by name,
    /// and the wires whose table word says to ask the core.
    probes: Vec<SignalProbe>,
    /// Signal name → id (index into `probes` and the wire table).
    ids: BTreeMap<String, usize>,
    /// One wake line per reader box, shared by every wire registered
    /// towards it.
    wake_lines: BTreeMap<String, WakeLine>,
    /// The wire table: the words of the wire with [`SignalName`] id `i`
    /// are `table[i / TABLE_CHUNK][i % TABLE_CHUNK]` (see
    /// [`signal`](crate::signal) for what they hold).
    table: Vec<Rc<[WireWords]>>,
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
                slot_bytes: std::mem::size_of::<(Cycle, T)>(),
                ring_slots: ring_capacity(bandwidth, latency),
            },
        );
        // Intern the name with a dense id in registration order: the
        // pipeline is wired in a fixed sequence, so ids are deterministic
        // for a given configuration.
        let id = self.probes.len();
        let interned = SignalName::interned(name, id as u32);
        if id / TABLE_CHUNK == self.table.len() {
            self.table.push((0..TABLE_CHUNK).map(|_| WireWords::idle()).collect());
        }
        let wire = WireSlot::new(Rc::clone(&self.table[id / TABLE_CHUNK]), id % TABLE_CHUNK);
        let wake = self.wake_lines.entry(to_box.to_string()).or_default().clone();
        let (writer, reader) = Signal::wired(interned, bandwidth, latency, wake, wire);
        self.ids.insert(name.to_string(), id);
        self.probes.push(writer.probe());
        Ok((writer, reader))
    }

    /// The live probe of a registered signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSignal`] if no signal has that name.
    pub fn probe(&self, name: &str) -> Result<&SignalProbe, SimError> {
        match self.ids.get(name) {
            Some(&id) => Ok(&self.probes[id]),
            None => Err(SimError::UnknownSignal(name.to_string())),
        }
    }

    /// The wake line of `box_name`: the latest arrival cycle over every
    /// wire registered with that box as its reader, data and credit
    /// returns alike. `None` for a box that reads no registered wire.
    pub fn wake_line(&self, box_name: &str) -> Option<WakeLine> {
        self.wake_lines.get(box_name).cloned()
    }

    /// Attaches a Signal Trace Visualizer sink to every registered *data*
    /// wire and returns how many it reached. A name ending in `.credits`
    /// is the return wire a flow-controlled port pairs with its data wire:
    /// credit returns are not traced.
    pub fn attach_trace(&self, sink: &TraceSink) -> usize {
        let data = self.ids.iter().filter(|(name, _)| !name.ends_with(".credits"));
        data.map(|(_, &id)| self.probes[id].attach_trace(sink.clone())).count()
    }

    /// Snapshots the health counters of every registered signal, in name
    /// order — the signal section of a failure report.
    pub fn statuses(&self) -> Vec<SignalStatus> {
        self.ids.values().map(|&id| self.probes[id].status()).collect()
    }

    /// The earliest delivery cycle across every registered signal's
    /// in-flight objects, if anything is in flight at all.
    ///
    /// This is the wire half of the event-horizon computation: an
    /// idle-aware scheduler may only jump the clock to a cycle no later
    /// than this, because every in-flight object (data *and* credit
    /// returns) must be readable at its exact arrival cycle.
    ///
    /// Answered from the wire table: one pass over its words, touching a
    /// wire's core only where the word says so (pinned wires).
    pub fn next_event_cycle(&self) -> Option<Cycle> {
        let words = self.table.iter().flat_map(|chunk| chunk.iter());
        self.probes
            .iter()
            .zip(words)
            .filter_map(|(probe, words)| match words.due() {
                Due::Empty => None,
                Due::At(arrival) => Some(arrival),
                Due::AskCore => probe.next_arrival(),
            })
            .min()
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

    /// Number of registered signals.
    pub fn len(&self) -> usize {
        self.signals.len()
    }

    /// Whether the binder has no registered signals.
    pub fn is_empty(&self) -> bool {
        self.signals.is_empty()
    }

    /// Renders a human-readable interface summary: one line per signal
    /// with its ring geometry (`slot` bytes × `ring` slots), then the ring
    /// storage of all wires together — a payload type that fattens the
    /// rings shows here without a profiler. Useful in debug dumps and
    /// documentation of configured pipelines.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let mut total = 0;
        for s in self.signals.values() {
            out.push_str(&format!(
                "{:<36} {} -> {} bw={} lat={} slot={}B ring={}\n",
                s.name, s.from_box, s.to_box, s.bandwidth, s.latency, s.slot_bytes, s.ring_slots
            ));
            total += s.slot_bytes * s.ring_slots;
        }
        if !self.signals.is_empty() {
            out.push_str(&format!("ring storage: {total} bytes in {} wires\n", self.len()));
        }
        out
    }
}

/// Every registered signal's health counters as `[{name, written, read,
/// lost}, …]` in name order, so a resumed run's failure reports and signal
/// statistics match a never-stopped run's. Loaded by registered name onto
/// drained wires; a name this machine never registered is refused.
impl JsonState for SignalBinder {
    fn save_state(&self) -> Json {
        let signal = |s: SignalStatus| {
            Json::obj([
                ("name", s.name.as_str().to_json()),
                ("written", s.written.to_hex()),
                ("read", s.read.to_hex()),
                ("lost", s.lost.to_hex()),
            ])
        };
        // The counters live on the wires; metadata, wake lines and the
        // wire table are elaboration's.
        let Self { ids: _, probes: _, signals: _, wake_lines: _, table: _ } = self;
        Json::Arr(self.statuses().into_iter().map(signal).collect())
    }

    fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        let Self { ids: _, probes: _, signals: _, wake_lines: _, table: _ } = self;
        for s in array(v)? {
            let name: String = field(s, "name")?;
            let probe = self
                .probe(&name)
                .map_err(|_| JsonError::msg(format!("unregistered signal `{name}`")))?;
            probe.restore_counters(
                field_with(s, "written", u64::from_hex)?,
                field_with(s, "read", u64::from_hex)?,
                field_with(s, "lost", u64::from_hex)?,
            );
        }
        Ok(())
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
        tx1.write(0, 1).unwrap(); // arrives at 10
        tx2.write(0, 2).unwrap(); // arrives at 2
        assert_eq!(b.next_event_cycle(), Some(2), "min over every wire");
        assert_eq!(rx1.read(10), Some(1));
        assert_eq!(b.next_event_cycle(), Some(2), "fast wire still in flight");
    }

    #[test]
    fn next_event_cycle_follows_reads_and_losses() {
        let mut b = SignalBinder::new();
        let (mut tx, mut rx) = b.register::<u32>("w", "A", "B", 2, 3).unwrap();
        tx.write(0, 1).unwrap(); // arrives at 3
        tx.write(1, 2).unwrap(); // arrives at 4
        assert_eq!(b.next_event_cycle(), Some(3));
        assert_eq!(rx.read(2), None, "an empty poll leaves the event in place");
        assert_eq!(b.next_event_cycle(), Some(3));
        assert_eq!(rx.read(3), Some(1));
        assert_eq!(b.next_event_cycle(), Some(4), "the next object moves to the front");
        // Polling past it loses it; the wire is then empty.
        assert!(rx.try_read(6).is_err());
        assert_eq!(b.next_event_cycle(), None);
    }

    #[test]
    fn next_event_cycle_asks_the_core_of_a_pinned_wire() {
        let mut b = SignalBinder::new();
        let (mut plain, _rx1) = b.register::<u32>("plain", "A", "B", 1, 9).unwrap();
        let (mut traced, mut rx2) = b.register::<u32>("traced", "B", "C", 1, 4).unwrap();
        // A traced wire pins its table word: nothing may be concluded from
        // it, in flight or empty.
        traced.attach_trace(crate::SignalTrace::new_sink(0));
        assert_eq!(b.next_event_cycle(), None);
        plain.write(0, 1).unwrap(); // arrives at 9
        traced.write(0, 2).unwrap(); // arrives at 4
        assert_eq!(b.next_event_cycle(), Some(4));
        assert_eq!(rx2.read(4), Some(2));
        assert_eq!(b.next_event_cycle(), Some(9), "the traced wire is empty again");
    }

    #[test]
    fn next_event_cycle_sees_an_arrival_at_cycle_zero() {
        let mut b = SignalBinder::new();
        let (mut tx, mut rx) = b.register::<u32>("now", "A", "B", 1, 0).unwrap();
        tx.write(0, 7).unwrap();
        assert_eq!(b.next_event_cycle(), Some(0));
        assert_eq!(rx.read(0), Some(7));
        assert_eq!(b.next_event_cycle(), None);
    }

    #[test]
    fn wire_table_grows_past_one_chunk() {
        let mut b = SignalBinder::new();
        let mut ends = Vec::new();
        for i in 0..(TABLE_CHUNK + 3) {
            ends.push(b.register::<u32>(&format!("w{i}"), "A", "B", 1, 5).unwrap());
        }
        assert_eq!(b.next_event_cycle(), None);
        // First and last chunk, independently.
        ends[TABLE_CHUNK + 2].0.write(3, 1).unwrap(); // arrives at 8
        assert_eq!(b.next_event_cycle(), Some(8));
        ends[1].0.write(1, 2).unwrap(); // arrives at 6
        assert_eq!(b.next_event_cycle(), Some(6));
        assert_eq!(ends[1].1.read(6), Some(2));
        assert_eq!(b.next_event_cycle(), Some(8));
        assert_eq!(ends[TABLE_CHUNK + 2].1.read(8), Some(1));
        assert_eq!(b.next_event_cycle(), None);
    }

    #[test]
    fn info_reports_ring_geometry() {
        let mut b = SignalBinder::new();
        b.register::<u64>("w", "A", "B", 2, 3).unwrap();
        let info = b.info("w").unwrap();
        assert_eq!(info.ring_slots, 8, "(latency + 1) × bandwidth");
        assert_eq!(info.slot_bytes, 16, "arrival cycle + payload");
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
        // u8 payload: 16-byte slots; 2 and 32 ring slots.
        assert!(d.contains("slot=16B ring=32"), "{d}");
        assert!(d.contains("ring storage: 544 bytes in 2 wires"), "{d}");
    }
}
