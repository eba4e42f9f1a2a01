//! Signals: latency- and bandwidth-checked wires between boxes.
//!
//! A [`Signal`] models a physical bundle of wires (possibly pipelined over
//! several stages): an object written at cycle *c* becomes visible to the
//! reader at exactly cycle *c + latency*, and at most *bandwidth* objects
//! may be written per cycle. Because latency and bandwidth are properties
//! of the wire, not of the boxes, modelling (and *checking*) communication
//! delays and pipeline stages is straightforward — exactly the argument the
//! ATTILA paper makes for this simulation model.
//!
//! Signals are also used to simulate the latency of multistage units that
//! do not require a more precise model (e.g. multistage ALUs): the
//! producing box decides the computation latency and writes the result into
//! an intra-box signal with that latency.
//!
//! # Verification
//!
//! Following the paper, a signal performs verification checks that abort
//! the simulation (or surface a [`SimError`]):
//!
//! * writing more than `bandwidth` objects in one cycle;
//! * an object reaching the reader's end and never being read before the
//!   clock moves past its arrival cycle (data loss);
//! * writing for a cycle earlier than one already observed.
//!
//! # The wire table
//!
//! A box polls every wire it reads on every cycle it is clocked, and on
//! most of those polls nothing has arrived. So that such a poll costs one
//! compare against a hot word instead of a trip through the shared
//! `Rc<RefCell<_>>` core, every wire keeps two words in a dense table
//! (`WireWords`; the [`SignalBinder`](crate::SignalBinder) owns one table
//! for all the wires it registers, indexed by the [`SignalName`] id): the
//! arrival cycle of the front in-flight object (`due`) and the latest
//! cycle either endpoint has observed (`latest`). The core maintains `due`
//! after every change to its ring; readers answer "nothing due" from the
//! word alone. A wire with a trace sink *pins* `due` to `DUE_PINNED`
//! (zero), so every operation on it falls through to the core, where the
//! sink lives.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::error::SimError;
use crate::name::SignalName;
use crate::trace::{TraceEvent, TraceSink};
use crate::Cycle;

/// Upper bound on the preallocated ring, so a pathological
/// `latency × bandwidth` product cannot balloon memory up front; a wire
/// that large grows its ring on demand instead.
const RING_SLOTS_MAX: usize = 4096;

/// FIFO holding a signal's in-flight objects, sized once at bind time to
/// `(latency + 1) × bandwidth` slots — the most a wire can ever hold
/// (`bandwidth` writes per cycle, each resident for `latency` cycles plus
/// the arrival cycle itself), so steady-state pushes and pops never
/// allocate.
///
/// Every write arrives `latency` cycles after its cycle and a wire refuses
/// writes into the past, so arrivals are monotone: the front is the
/// earliest, the back the latest.
struct Ring<T> {
    /// The circular buffer itself (`VecDeque` is a power-of-two ring
    /// buffer, preallocated to [`ring_capacity`] slots).
    q: VecDeque<(Cycle, T)>,
    /// Arrival of the most recent push, valid while non-empty: the back of
    /// the queue without re-reading its slot.
    back_arrival: Cycle,
}

impl<T> Ring<T> {
    fn with_capacity(slots: usize) -> Self {
        Ring { q: VecDeque::with_capacity(slots.max(1)), back_arrival: 0 }
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn front(&self) -> Option<&(Cycle, T)> {
        self.q.front()
    }

    fn push_back(&mut self, arrival: Cycle, obj: T) {
        debug_assert!(
            self.q.is_empty() || arrival >= self.back_arrival,
            "arrival {arrival} pushed behind {}",
            self.back_arrival
        );
        self.back_arrival = arrival;
        self.q.push_back((arrival, obj));
    }

    fn pop_front(&mut self) -> Option<(Cycle, T)> {
        self.q.pop_front()
    }

    /// The earliest arrival among in-flight objects.
    fn min_arrival(&self) -> Option<Cycle> {
        self.front().map(|(arrival, _)| *arrival)
    }
}

/// Ring capacity for a wire: `(latency + 1) × bandwidth`, clamped to
/// [`RING_SLOTS_MAX`]. `VecDeque` rounds the allocation up to a power of
/// two internally, so index arithmetic wraps with a mask, never a
/// division.
pub(crate) fn ring_capacity(bandwidth: usize, latency: Cycle) -> usize {
    let per_cycle = bandwidth.max(1) as u64;
    latency
        .saturating_add(1)
        .saturating_mul(per_cycle)
        .clamp(1, RING_SLOTS_MAX as u64) as usize
}

/// `due` value of a wire whose every operation must go through the core
/// (trace sink attached). Zero is never later than
/// the polled cycle, so the fast paths never take it for "nothing due".
const DUE_PINNED: Cycle = 0;

/// The two table words of one wire (see the module documentation).
#[derive(Debug)]
pub(crate) struct WireWords {
    /// Earliest arrival among the in-flight objects, `Cycle::MAX` when the
    /// wire is empty, [`DUE_PINNED`] when pinned.
    /// Derived from the ring, so never checkpointed.
    due: Cell<Cycle>,
    /// Latest cycle observed by either endpoint. This is the wire's only
    /// copy of that cycle: the time-travel and bandwidth checks read it
    /// here, so an empty poll that advances it keeps them exact. Never
    /// checkpointed: wires are drained at a checkpoint, and the first
    /// access after a restore re-observes the cycle.
    latest: Cell<Cycle>,
}

impl WireWords {
    pub(crate) fn idle() -> Self {
        WireWords { due: Cell::new(Cycle::MAX), latest: Cell::new(0) }
    }

    #[inline]
    pub(crate) fn due(&self) -> Due {
        match self.due.get() {
            Cycle::MAX => Due::Empty,
            DUE_PINNED => Due::AskCore,
            arrival => Due::At(arrival),
        }
    }
}

/// What [`WireWords::due`] says about a wire, without borrowing its core.
pub(crate) enum Due {
    /// Nothing in flight.
    Empty,
    /// The earliest in-flight arrival.
    At(Cycle),
    /// Pinned (or an arrival at cycle 0): only the core knows.
    AskCore,
}

/// One wire's handle onto its [`WireWords`]: a shared table plus an index.
/// The core and both endpoints hold a clone each.
#[derive(Debug, Clone)]
pub(crate) struct WireSlot {
    table: Rc<[WireWords]>,
    index: usize,
}

impl WireSlot {
    pub(crate) fn new(table: Rc<[WireWords]>, index: usize) -> Self {
        assert!(index < table.len(), "wire slot outside its table");
        WireSlot { table, index }
    }

    /// A private one-wire table, for signals created without a binder.
    fn private() -> Self {
        WireSlot::new(Rc::new([WireWords::idle()]), 0)
    }

    #[inline]
    fn words(&self) -> &WireWords {
        &self.table[self.index]
    }

    #[inline]
    fn latest(&self) -> Cycle {
        self.words().latest.get()
    }

    /// `true` — and the cycle is observed, exactly as the core would — when
    /// nothing is due at or overdue by `cycle`.
    #[inline]
    fn nothing_due(&self, cycle: Cycle) -> bool {
        let words = self.words();
        if words.due.get() <= cycle {
            return false;
        }
        if cycle > words.latest.get() {
            words.latest.set(cycle);
        }
        true
    }

    #[inline]
    fn due(&self) -> Due {
        self.words().due()
    }
}

/// The latest arrival cycle of anything written to any wire one box reads
/// (data and credit returns alike) — what lets a scheduler leave that box
/// unclocked without missing an input.
///
/// The [`SignalBinder`](crate::SignalBinder) hands one line to every wire
/// registered towards the same reader box; each write raises it to the
/// object's arrival cycle.
#[derive(Debug, Clone, Default)]
pub struct WakeLine(Rc<Cell<Cycle>>);

impl WakeLine {
    /// The latest cycle at which a written object reaches the box; the box
    /// has no wire input due on any later cycle (until the next write).
    #[inline]
    pub fn latest_arrival(&self) -> Cycle {
        self.0.get()
    }

    #[inline]
    fn raise(&self, arrival: Cycle) {
        if arrival > self.0.get() {
            self.0.set(arrival);
        }
    }
}

/// Shared state of a signal.
struct SignalCore<T> {
    name: SignalName,
    bandwidth: usize,
    latency: Cycle,
    /// Objects in flight, in write (and so arrival) order.
    in_flight: Ring<T>,
    /// The wire's table words: `due`, kept in step with `in_flight` by
    /// [`sync_due`](Self::sync_due), and the latest observed cycle.
    wire: WireSlot,
    /// Number of writes performed at cycle `writes_at`. It counts against
    /// the bandwidth only while `writes_at` is still the latest observed
    /// cycle, so advancing that cycle — which an empty poll does without
    /// the core — resets the budget without touching this field.
    writes_this_cycle: usize,
    writes_at: Cycle,
    total_written: u64,
    total_read: u64,
    total_lost: u64,
    /// The trace sink, when attached; a traced wire is *pinned*: its
    /// `due` word stays [`DUE_PINNED`].
    trace: Option<TraceSink>,
    /// The reader box's wake line, raised by every write.
    wake: WakeLine,
}

impl<T: fmt::Debug> SignalCore<T> {
    /// Writes already performed at the latest observed cycle.
    #[inline]
    fn writes_used(&self) -> usize {
        if self.writes_at == self.wire.latest() {
            self.writes_this_cycle
        } else {
            0
        }
    }

    /// Re-derives the `due` word from the ring. Called after a pop; a push
    /// only ever lowers the word (see [`write`](Self::write)).
    #[inline]
    fn sync_due(&self) {
        let due = if self.trace.is_some() {
            DUE_PINNED
        } else {
            self.in_flight.min_arrival().unwrap_or(Cycle::MAX)
        };
        self.wire.words().due.set(due);
    }

    /// Advances the internal notion of time, detecting data loss.
    #[inline]
    fn observe_cycle(&mut self, cycle: Cycle) -> Result<(), SimError> {
        let latest = &self.wire.words().latest;
        if cycle > latest.get() {
            latest.set(cycle);
        }
        match self.in_flight.front() {
            Some((arrival, _)) if *arrival < cycle => self.drop_overdue(cycle),
            _ => Ok(()),
        }
    }

    /// Objects whose arrival cycle is already in the past can never be
    /// read again: they have fallen off the wire.
    #[cold]
    fn drop_overdue(&mut self, cycle: Cycle) -> Result<(), SimError> {
        let mut lost = 0usize;
        while self.in_flight.front().is_some_and(|(arrival, _)| *arrival < cycle) {
            self.in_flight.pop_front();
            lost += 1;
        }
        self.sync_due();
        self.total_lost += lost as u64;
        Err(SimError::DataLost { signal: self.name.clone(), cycle, lost })
    }

    fn write(&mut self, cycle: Cycle, obj: T) -> Result<(), SimError> {
        let latest = self.wire.latest();
        if cycle < latest {
            return Err(SimError::TimeTravel { signal: self.name.clone(), cycle, latest });
        }
        self.observe_cycle(cycle)?;
        // `cycle` is the latest observed cycle from here on, so the
        // writes that count are those stamped with it.
        let used = if self.writes_at == cycle { self.writes_this_cycle } else { 0 };
        self.writes_at = cycle;
        self.writes_this_cycle = used;
        if used >= self.bandwidth {
            return Err(SimError::BandwidthExceeded {
                signal: self.name.clone(),
                cycle,
                bandwidth: self.bandwidth,
            });
        }
        self.writes_this_cycle += 1;
        self.total_written += 1;
        let arrival = cycle + self.latency;
        if let Some(trace) = &self.trace {
            trace.borrow_mut().push(TraceEvent {
                cycle: arrival,
                signal: self.name.clone(),
                info: {
                    let mut s = format!("{obj:?}");
                    s.truncate(120);
                    s
                },
            });
        }
        self.in_flight.push_back(arrival, obj);
        // The new object is the front if the ring was empty (`due` is
        // `Cycle::MAX`); a pinned word is already the minimum.
        let due = &self.wire.words().due;
        if arrival < due.get() {
            due.set(arrival);
        }
        self.wake.raise(arrival);
        Ok(())
    }

    /// The earliest delivery cycle among in-flight objects, if any.
    fn next_arrival(&self) -> Option<Cycle> {
        self.in_flight.min_arrival()
    }

    fn read(&mut self, cycle: Cycle) -> Result<Option<T>, SimError> {
        // Reading never moves the latest cycle backwards, and reading at a
        // cycle older than data already dropped is harmless.
        if cycle >= self.wire.latest() {
            self.observe_cycle(cycle)?;
        }
        match self.in_flight.front() {
            Some((arrival, _)) if *arrival == cycle => match self.in_flight.pop_front() {
                Some((_, obj)) => {
                    self.total_read += 1;
                    self.sync_due();
                    Ok(Some(obj))
                }
                None => Ok(None),
            },
            _ => Ok(None),
        }
    }
}

/// A signal under construction; see [`Signal::with_name`].
///
/// `Signal` itself is a factory: creating one yields a connected
/// ([`SignalWriter`], [`SignalReader`]) pair. The two handles share the wire
/// state; the simulation is single-threaded so the sharing uses `Rc`.
#[derive(Debug)]
pub struct Signal<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: fmt::Debug> Signal<T> {
    /// Creates a named signal with the given `bandwidth` (objects per
    /// cycle) and `latency` (cycles) and returns its two endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is zero (a wire that can carry nothing is
    /// always a configuration bug).
    ///
    /// # Examples
    ///
    /// ```
    /// use attila_sim::Signal;
    /// let (mut tx, mut rx) = Signal::<&str>::with_name("clip->setup", 1, 6);
    /// tx.write(0, "triangle").unwrap();
    /// assert_eq!(rx.read(6), Some("triangle"));
    /// ```
    pub fn with_name(
        name: impl Into<SignalName>,
        bandwidth: usize,
        latency: Cycle,
    ) -> (SignalWriter<T>, SignalReader<T>) {
        Self::wired(name, bandwidth, latency, WakeLine::default(), WireSlot::private())
    }

    /// Like [`with_name`](Self::with_name), with every write raising
    /// `wake` — the reader box's line (see [`WakeLine`]) — and the wire's
    /// words living in the caller's table.
    pub(crate) fn wired(
        name: impl Into<SignalName>,
        bandwidth: usize,
        latency: Cycle,
        wake: WakeLine,
        wire: WireSlot,
    ) -> (SignalWriter<T>, SignalReader<T>) {
        assert!(bandwidth > 0, "signal bandwidth must be at least 1 object/cycle");
        let name = name.into();
        let core = Rc::new(RefCell::new(SignalCore {
            name: name.clone(),
            bandwidth,
            latency,
            in_flight: Ring::with_capacity(ring_capacity(bandwidth, latency)),
            wire: wire.clone(),
            writes_this_cycle: 0,
            writes_at: 0,
            total_written: 0,
            total_read: 0,
            total_lost: 0,
            trace: None,
            wake,
        }));
        let writer = SignalWriter {
            core: Rc::clone(&core),
            wire: wire.clone(),
            decl_bandwidth: bandwidth,
            cached_name: name,
        };
        (writer, SignalReader { core, wire })
    }
}

/// The producing endpoint of a [`Signal`].
pub struct SignalWriter<T> {
    core: Rc<RefCell<SignalCore<T>>>,
    /// The wire's table words (see the module documentation).
    wire: WireSlot,
    /// Declared bandwidth, cached at bind time (immutable in the core) so
    /// the table-fronted fast paths answer without borrowing the core.
    decl_bandwidth: usize,
    /// Interned name, cached like `decl_bandwidth` (clone = refcount bump).
    cached_name: SignalName,
}

impl<T: fmt::Debug> SignalWriter<T> {
    /// Writes `obj` into the wire at `cycle`; it will arrive at
    /// `cycle + latency`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BandwidthExceeded`] if more than `bandwidth`
    /// objects were already written this cycle, [`SimError::TimeTravel`] if
    /// `cycle` is in the past, or [`SimError::DataLost`] if advancing the
    /// clock exposes unread data.
    #[inline]
    pub fn write(&mut self, cycle: Cycle, obj: T) -> Result<(), SimError> {
        self.core.borrow_mut().write(cycle, obj)
    }

    /// Like [`write`](Self::write) but panics on verification failure.
    ///
    /// Failing a signal check means the timing model itself is buggy, so
    /// most boxes use this form — matching the paper's "checks that may
    /// terminate the simulator".
    ///
    /// # Panics
    ///
    /// Panics with the [`SimError`] display message on any verification
    /// failure.
    pub fn send(&mut self, cycle: Cycle, obj: T) {
        if let Err(e) = self.write(cycle, obj) {
            panic!("signal verification failed: {e}");
        }
    }

    /// Returns `true` if at least one more object can be written at
    /// `cycle` without exceeding the bandwidth.
    #[inline]
    pub fn can_write(&self, cycle: Cycle) -> bool {
        cycle > self.wire.latest() || {
            let core = self.core.borrow();
            core.writes_used() < core.bandwidth
        }
    }

    /// Remaining write slots at `cycle`.
    #[inline]
    pub fn slots_left(&self, cycle: Cycle) -> usize {
        if cycle > self.wire.latest() {
            return self.decl_bandwidth;
        }
        let core = self.core.borrow();
        core.bandwidth - core.writes_used().min(core.bandwidth)
    }

    /// Attaches a trace sink; every written object is recorded (with its
    /// arrival cycle) for the Signal Trace Visualizer.
    pub fn attach_trace(&mut self, sink: TraceSink) {
        ProbeOps::attach_trace(&*self.core, sink);
    }

    /// The signal's configured bandwidth in objects per cycle.
    pub fn bandwidth(&self) -> usize {
        self.decl_bandwidth
    }

    /// Total number of objects ever written.
    #[inline]
    pub fn total_written(&self) -> u64 {
        self.core.borrow().total_written
    }

    /// The signal's registered name (an interned handle: cached on the
    /// endpoint, so this never borrows the shared core).
    pub fn name(&self) -> SignalName {
        self.cached_name.clone()
    }

    /// A type-erased handle onto this signal's shared state, used by the
    /// [`SignalBinder`](crate::SignalBinder) for post-mortem reporting and
    /// for attaching trace sinks by name.
    pub fn probe(&self) -> SignalProbe
    where
        T: 'static,
    {
        SignalProbe { ops: Rc::clone(&self.core) as Rc<dyn ProbeOps> }
    }
}

/// A point-in-time snapshot of one signal's health counters, collected
/// into failure reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalStatus {
    /// The signal's registered name.
    pub name: SignalName,
    /// Objects currently travelling through the wire.
    pub in_flight: usize,
    /// Total objects ever written.
    pub written: u64,
    /// Total objects ever read.
    pub read: u64,
    /// Total objects that fell off the wire unread (data loss).
    pub lost: u64,
}

/// Type-erased operations every signal exposes for introspection.
trait ProbeOps {
    fn name(&self) -> SignalName;
    fn status(&self) -> SignalStatus;
    fn attach_trace(&self, sink: TraceSink);
    fn next_arrival(&self) -> Option<Cycle>;
    fn restore_counters(&self, written: u64, read: u64, lost: u64);
}

impl<T: fmt::Debug> ProbeOps for RefCell<SignalCore<T>> {
    fn name(&self) -> SignalName {
        self.borrow().name.clone()
    }

    fn status(&self) -> SignalStatus {
        let core = self.borrow();
        SignalStatus {
            name: core.name.clone(),
            in_flight: core.in_flight.len(),
            written: core.total_written,
            read: core.total_read,
            lost: core.total_lost,
        }
    }

    fn attach_trace(&self, sink: TraceSink) {
        let mut core = self.borrow_mut();
        core.trace = Some(sink);
        core.sync_due();
    }

    fn next_arrival(&self) -> Option<Cycle> {
        self.borrow().next_arrival()
    }

    fn restore_counters(&self, written: u64, read: u64, lost: u64) {
        let mut core = self.borrow_mut();
        core.total_written = written;
        core.total_read = read;
        core.total_lost = lost;
    }
}

/// A type-erased handle onto a signal's shared state (see
/// [`SignalWriter::probe`]). The binder keeps one per registered signal so
/// failure reports can snapshot every wire and trace sinks can be
/// attached to a wire by name without knowing its payload type.
#[derive(Clone)]
pub struct SignalProbe {
    ops: Rc<dyn ProbeOps>,
}

impl SignalProbe {
    /// The probed signal's interned name (refcount bump, no allocation).
    pub fn name(&self) -> SignalName {
        self.ops.name()
    }

    /// Snapshots the signal's health counters.
    pub fn status(&self) -> SignalStatus {
        self.ops.status()
    }

    /// Attaches a trace sink to the underlying signal; every object
    /// written from now on is recorded with its arrival cycle.
    pub fn attach_trace(&self, sink: TraceSink) {
        self.ops.attach_trace(sink);
    }

    /// The earliest delivery cycle among objects still travelling through
    /// the wire, if any — the signal's next scheduler-visible event. An
    /// idle-aware scheduler must never jump past this cycle: the reader
    /// drains the wire at exact arrival cycles, so skipping one would turn
    /// a healthy handoff into a data-loss verification failure.
    pub fn next_arrival(&self) -> Option<Cycle> {
        self.ops.next_arrival()
    }

    /// Overwrites the signal's lifetime health counters with checkpointed
    /// values, so post-restore failure reports account for the whole run
    /// rather than just the resumed tail. Only safe on a drained wire.
    pub fn restore_counters(&self, written: u64, read: u64, lost: u64) {
        self.ops.restore_counters(written, read, lost);
    }
}

impl fmt::Debug for SignalProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SignalProbe").field("status", &self.status()).finish()
    }
}

impl<T> fmt::Debug for SignalWriter<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SignalWriter")
            .field("name", &self.cached_name)
            .field("bandwidth", &self.decl_bandwidth)
            .field("latency", &self.core.borrow().latency)
            .finish()
    }
}

/// The consuming endpoint of a [`Signal`].
pub struct SignalReader<T> {
    core: Rc<RefCell<SignalCore<T>>>,
    /// The wire's table words: what lets a poll that finds nothing due
    /// return without touching `core`.
    wire: WireSlot,
}

impl<T: fmt::Debug> SignalReader<T> {
    /// Reads the next object arriving exactly at `cycle`, if any.
    ///
    /// Call repeatedly in a loop to drain everything arriving this cycle
    /// (up to the signal bandwidth objects).
    ///
    /// # Panics
    ///
    /// Panics if advancing the clock exposes unread data (a data-loss
    /// verification failure — a bug in the consuming box).
    pub fn read(&mut self, cycle: Cycle) -> Option<T> {
        match self.try_read(cycle) {
            Ok(v) => v,
            Err(e) => panic!("signal verification failed: {e}"),
        }
    }

    /// Fallible form of [`read`](Self::read).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DataLost`] instead of panicking when unread data
    /// fell off the wire.
    #[inline]
    pub fn try_read(&mut self, cycle: Cycle) -> Result<Option<T>, SimError> {
        // Nothing due or overdue: the table word answers. An overdue front
        // object fails this test and reaches the core's data-loss check.
        if self.wire.nothing_due(cycle) {
            return Ok(None);
        }
        self.core.borrow_mut().read(cycle)
    }

    /// Number of objects currently travelling through the wire.
    pub fn in_flight(&self) -> usize {
        match self.wire.due() {
            Due::Empty => 0,
            _ => self.core.borrow().in_flight.len(),
        }
    }

    /// The signal's registered name (an interned handle: cloning it out of
    /// the shared core bumps a refcount, no allocation).
    pub fn name(&self) -> SignalName {
        self.core.borrow().name.clone()
    }
}

impl<T> fmt::Debug for SignalReader<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let core = self.core.borrow();
        f.debug_struct("SignalReader")
            .field("name", &core.name)
            .field("in_flight", &core.in_flight.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_respected_exactly() {
        let (mut tx, mut rx) = Signal::<u32>::with_name("s", 1, 5);
        tx.write(10, 99).unwrap();
        assert_eq!(rx.read(14), None);
        assert_eq!(rx.read(15), Some(99));
        assert_eq!(rx.read(15), None);
    }

    #[test]
    fn zero_latency_signal_delivers_same_cycle() {
        let (mut tx, mut rx) = Signal::<u32>::with_name("s", 1, 0);
        tx.write(3, 7).unwrap();
        assert_eq!(rx.read(3), Some(7));
    }

    #[test]
    fn bandwidth_is_enforced() {
        let (mut tx, _rx) = Signal::<u32>::with_name("s", 2, 1);
        tx.write(0, 1).unwrap();
        assert!(tx.can_write(0));
        tx.write(0, 2).unwrap();
        assert!(!tx.can_write(0));
        let err = tx.write(0, 3).unwrap_err();
        assert!(matches!(err, SimError::BandwidthExceeded { bandwidth: 2, cycle: 0, .. }));
        // Next cycle the budget resets.
        assert!(tx.can_write(1));
        tx.write(1, 4).unwrap();
    }

    #[test]
    fn unread_data_is_detected_as_loss() {
        let (mut tx, mut rx) = Signal::<u32>::with_name("s", 1, 1);
        tx.write(0, 1).unwrap();
        // Data arrives at cycle 1, but the reader first looks at cycle 2.
        let err = rx.try_read(2).unwrap_err();
        assert!(matches!(err, SimError::DataLost { lost: 1, .. }));
    }

    #[test]
    fn time_travel_is_rejected() {
        let (mut tx, _rx) = Signal::<u32>::with_name("s", 1, 1);
        tx.write(10, 1).unwrap();
        let err = tx.write(5, 2).unwrap_err();
        assert!(matches!(err, SimError::TimeTravel { cycle: 5, latest: 10, .. }));
    }

    #[test]
    fn fifo_order_is_preserved_within_bandwidth() {
        let (mut tx, mut rx) = Signal::<u32>::with_name("s", 4, 2);
        for v in 0..4 {
            tx.write(0, v).unwrap();
        }
        let got: Vec<u32> = std::iter::from_fn(|| rx.read(2)).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn counters_track_traffic() {
        let (mut tx, mut rx) = Signal::<u32>::with_name("s", 2, 1);
        tx.write(0, 1).unwrap();
        tx.write(0, 2).unwrap();
        assert_eq!(rx.in_flight(), 2);
        while rx.read(1).is_some() {}
        let status = tx.probe().status();
        assert_eq!((status.written, status.read, status.lost), (2, 2, 0));
        assert_eq!(rx.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "signal verification failed")]
    fn send_panics_on_bandwidth_violation() {
        let (mut tx, _rx) = Signal::<u32>::with_name("s", 1, 1);
        tx.send(0, 1);
        tx.send(0, 2);
    }

    #[test]
    fn slots_left_reports_remaining_budget() {
        let (mut tx, _rx) = Signal::<u32>::with_name("s", 3, 1);
        assert_eq!(tx.slots_left(0), 3);
        tx.write(0, 1).unwrap();
        assert_eq!(tx.slots_left(0), 2);
        assert_eq!(tx.slots_left(1), 3);
    }
}
