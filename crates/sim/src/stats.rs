//! Statistics collection.
//!
//! The ATTILA simulator's `StatisticsManager` registers, updates, gathers
//! and outputs ~300 named statistics covering resource utilization of every
//! pipeline stage, cache hit/miss ratios and memory bandwidth. Statistics
//! are dumped as CSV, and several of the paper's figures (8 and 9) plot
//! statistics *sampled every 10 K cycles*; the [`StatsRegistry`] therefore
//! supports windowed sampling natively.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use attila_json::{array, field, field_with, HexJson, Json, JsonError, JsonState, ToJson};

use crate::Cycle;

/// A shared, monotonically increasing event counter.
///
/// Cloning a `Counter` yields another handle to the same underlying value,
/// so a box can keep a cheap handle while the registry retains another for
/// reporting.
///
/// # Examples
///
/// ```
/// use attila_sim::StatsRegistry;
/// let mut stats = StatsRegistry::new(10_000);
/// let hits = stats.counter("TextureCache.hits");
/// hits.inc();
/// hits.add(4);
/// assert_eq!(hits.value(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Rc<Cell<u64>>,
}

impl Counter {
    /// Creates a detached counter (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one event.
    pub fn inc(&self) {
        self.value.set(self.value.get() + 1);
    }

    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.value.set(self.value.get() + n);
    }

    /// Total events since simulation start.
    pub fn value(&self) -> u64 {
        self.value.get()
    }
}

/// A shared count of the cycles a unit spends in some state, which keeps
/// counting while its owner is not clocked.
///
/// A [`Counter`] bumped on every cycle the state holds needs its owner
/// clocked on every such cycle. A running counter is told when the state
/// begins and ends instead: [`start`](Self::start) opens a span on its
/// first cycle and [`stop`](Self::stop) closes it on its last, and
/// [`value`](Self::value) counts every cycle the registry that handed it
/// out has ticked through inside a span — the open one included. It reads
/// exactly as a counter `inc()`ed on every cycle from `start` to `stop`
/// would, window by window, and is saved as one.
///
/// # Examples
///
/// ```
/// use attila_sim::StatsRegistry;
/// let mut stats = StatsRegistry::new(0);
/// let busy = stats.running_counter("Unit.busy_cycles");
/// busy.start(2);
/// for cycle in 0..5 {
///     stats.tick(cycle);
/// }
/// assert_eq!(busy.value(), 3, "cycles 2, 3 and 4");
/// busy.stop(6);
/// assert_eq!(busy.value(), 5, "cycles 2 to 6");
/// ```
#[derive(Debug, Clone)]
pub struct RunningCounter {
    span: Rc<RunningSpan>,
}

#[derive(Debug)]
struct RunningSpan {
    /// Cycles counted by closed spans.
    closed: Cell<u64>,
    /// First cycle of the open span, if one is open.
    since: Cell<Option<Cycle>>,
    /// The registry's clock: how many cycles it has ticked through.
    now: Rc<Cell<Cycle>>,
}

impl RunningCounter {
    /// Opens a span whose first counted cycle is `cycle`. A span already
    /// open stays open from its own first cycle.
    pub fn start(&self, cycle: Cycle) {
        if self.span.since.get().is_none() {
            self.span.since.set(Some(cycle));
        }
    }

    /// Closes the open span, `cycle` being the last cycle it counts. Does
    /// nothing while no span is open.
    pub fn stop(&self, cycle: Cycle) {
        if let Some(since) = self.span.since.take() {
            let span = (cycle + 1).saturating_sub(since);
            self.span.closed.set(self.span.closed.get() + span);
        }
    }

    /// Cycles counted so far: every closed span, plus the cycles of the
    /// open span the registry has ticked through.
    pub fn value(&self) -> u64 {
        let open = self.span.since.get().map_or(0, |s| self.span.now.get().saturating_sub(s));
        self.span.closed.get() + open
    }

    /// Restores a saved value: closed spans totalling `value` cycles and
    /// none open.
    fn load(&self, value: u64) {
        self.span.closed.set(value);
        self.span.since.set(None);
    }
}

/// A shared instantaneous value (occupancy, ratio, level).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Rc<Cell<f64>>,
}

impl Gauge {
    /// Creates a detached gauge (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the current value.
    pub fn set(&self, v: f64) {
        self.value.set(v);
    }

    /// Reads the current value.
    pub fn value(&self) -> f64 {
        self.value.get()
    }
}

enum StatHandle {
    Counter(Counter),
    Running(RunningCounter),
    Gauge(Gauge),
}

impl StatHandle {
    /// A counter's running total, `None` for a gauge.
    fn count(&self) -> Option<u64> {
        match self {
            StatHandle::Counter(c) => Some(c.value()),
            StatHandle::Running(r) => Some(r.value()),
            StatHandle::Gauge(_) => None,
        }
    }

    /// The value the totals report: a count, or a gauge's level.
    fn total(&self) -> f64 {
        match self {
            StatHandle::Gauge(g) => g.value(),
            counter => counter.count().unwrap_or_default() as f64,
        }
    }
}

struct StatEntry {
    handle: StatHandle,
    /// Per-window samples: counter delta within the window, or gauge value
    /// at window close.
    windows: Vec<f64>,
    /// Counter value at the close of the previous window.
    last_total: u64,
}

/// Registry of named statistics with periodic window sampling.
///
/// Every statistic is identified by a `Unit.stat` style name. Calling
/// [`tick`](Self::tick) each cycle closes a sampling window every
/// `window_size` cycles; [`csv`](Self::csv) then renders one row per window
/// (the format the paper's figures 8/9 are plotted from), and
/// [`totals_csv`](Self::totals_csv) renders the end-of-run totals.
///
/// Entries live in a dense `Vec` indexed by registration order — the slot
/// a statistic gets when it is registered — so the per-window sweep in
/// [`close_window`](Self::close_window) is a linear scan over contiguous
/// slots instead of a tree walk. A sorted name → slot index sits alongside
/// purely for lookups and for rendering CSV in the historical (sorted)
/// column order, keeping the output byte-identical to the tree-backed
/// implementation.
#[derive(Default)]
pub struct StatsRegistry {
    /// Dense storage, one slot per statistic in registration order.
    entries: Vec<StatEntry>,
    /// Sorted name → slot map (lookups and CSV column order only).
    index: BTreeMap<String, u32>,
    window_size: Cycle,
    windows_closed: usize,
    /// How many cycles [`tick`](Self::tick) and [`skip_to`](Self::skip_to)
    /// have advanced through — what a [`RunningCounter`]'s open span
    /// counts up to. Shared with every running counter handed out.
    clock: Rc<Cell<Cycle>>,
}

impl StatsRegistry {
    /// Creates a registry sampling every `window_size` cycles (the paper
    /// uses 10 000). A `window_size` of 0 disables windowing.
    pub fn new(window_size: Cycle) -> Self {
        StatsRegistry {
            entries: Vec::new(),
            index: BTreeMap::new(),
            window_size,
            windows_closed: 0,
            clock: Rc::default(),
        }
    }

    /// The dense slot registered under `name`, if any.
    fn slot(&self, name: &str) -> Option<&StatEntry> {
        self.index.get(name).map(|&i| &self.entries[i as usize])
    }

    /// Registers `handle` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered: two call sites registering
    /// one name would silently merge two units' statistics. A second
    /// holder of one statistic shares it by cloning the handle.
    fn register(&mut self, name: &str, handle: StatHandle) {
        assert!(!self.index.contains_key(name), "statistic `{name}` is registered twice");
        self.index.insert(name.to_string(), self.entries.len() as u32);
        self.entries.push(StatEntry {
            handle,
            // Backfill windows closed before registration so every
            // statistic's series stays aligned.
            windows: vec![0.0; self.windows_closed],
            last_total: 0,
        });
    }

    /// Registers a counter under `name` and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn counter(&mut self, name: &str) -> Counter {
        let counter = Counter::new();
        self.register(name, StatHandle::Counter(counter.clone()));
        counter
    }

    /// Registers a running counter under `name` and returns its handle:
    /// its open span counts the cycles this registry ticks through.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn running_counter(&mut self, name: &str) -> RunningCounter {
        let running = RunningCounter {
            span: Rc::new(RunningSpan {
                closed: Cell::new(0),
                since: Cell::new(None),
                now: Rc::clone(&self.clock),
            }),
        };
        self.register(name, StatHandle::Running(running.clone()));
        running
    }

    /// Registers a gauge under `name` and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn gauge(&mut self, name: &str) -> Gauge {
        let gauge = Gauge::new();
        self.register(name, StatHandle::Gauge(gauge.clone()));
        gauge
    }

    /// Advances the sampling clock; must be called once per simulated
    /// cycle, after everything the cycle counts. Closes a window whenever
    /// `window_size` cycles have elapsed.
    pub fn tick(&mut self, cycle: Cycle) {
        self.clock.set(cycle + 1);
        if self.window_size == 0 {
            return;
        }
        if (cycle + 1).is_multiple_of(self.window_size) {
            self.close_window();
        }
    }

    /// Advances the sampling clock across a skipped cycle range: exactly
    /// equivalent to calling [`tick`](Self::tick) once for every cycle in
    /// `from..to`, but in O(windows crossed) instead of O(cycles).
    ///
    /// Used by the event-horizon scheduler when it jumps the clock over
    /// provably idle cycles: no unit is clocked during such a jump, so each
    /// window boundary crossed records the all-zero counter deltas (and
    /// unchanged gauge values) a per-cycle loop would have — except for
    /// the open spans of running counters, which count on through it.
    pub fn skip_to(&mut self, from: Cycle, to: Cycle) {
        if to <= from {
            return;
        }
        if self.window_size > 0 {
            // tick(j) closes a window when (j + 1) % window_size == 0: the
            // boundaries crossed are the multiples of W in (from, to].
            let w = self.window_size;
            for boundary in (from / w + 1..=to / w).map(|k| k * w) {
                self.clock.set(boundary);
                self.close_window();
            }
        }
        self.clock.set(to);
    }

    /// Declares every cycle before `cycle` ticked through without closing
    /// a window: for a machine restored at `cycle`, whose windows were
    /// loaded with the rest of its statistics.
    pub fn resume_at(&mut self, cycle: Cycle) {
        self.clock.set(cycle);
    }

    /// Closes the current sampling window explicitly (also called from
    /// [`tick`](Self::tick)); useful at end of frame / end of run.
    pub fn close_window(&mut self) {
        for entry in &mut self.entries {
            match entry.handle.count() {
                Some(total) => {
                    entry.windows.push((total - entry.last_total) as f64);
                    entry.last_total = total;
                }
                None => entry.windows.push(entry.handle.total()),
            }
        }
        self.windows_closed += 1;
    }

    /// Number of closed sampling windows.
    pub fn windows_closed(&self) -> usize {
        self.windows_closed
    }

    /// The per-window sample series of one statistic, if registered.
    pub fn window_series(&self, name: &str) -> Option<&[f64]> {
        self.slot(name).map(|e| e.windows.as_slice())
    }

    /// End-of-run total of a counter (or current value of a gauge).
    pub fn total(&self, name: &str) -> Option<f64> {
        self.slot(name).map(|e| e.handle.total())
    }

    /// Names of all registered statistics, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.index.keys().map(|s| s.as_str()).collect()
    }

    /// Number of registered statistics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no statistics are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the windowed samples as CSV: one column per statistic, one
    /// row per closed window (the simulator's statistics-file format).
    pub fn csv(&self) -> String {
        let mut out = String::from("window");
        for name in self.index.keys() {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for w in 0..self.windows_closed {
            let _ = write!(out, "{w}");
            for &slot in self.index.values() {
                let v = self.entries[slot as usize].windows.get(w).copied().unwrap_or(0.0);
                let _ = write!(out, ",{v}");
            }
            out.push('\n');
        }
        out
    }

    /// Renders end-of-run totals as `name,value` CSV rows.
    pub fn totals_csv(&self) -> String {
        let mut out = String::from("stat,total\n");
        for (name, &slot) in &self.index {
            let _ = writeln!(out, "{name},{}", self.entries[slot as usize].handle.total());
        }
        out
    }
}

/// Every registered statistic — totals, window series, window
/// bookkeeping — as `{"entries": [{name, counter, total, gauge, windows,
/// last_total}, …], "windows_closed": n}`, entries in sorted-name order so
/// the rendering is deterministic. Loaded into a registry holding the same
/// set of statistics (one elaborated from the same configuration): entries
/// are matched by name and kind, and each series must hold exactly
/// `windows_closed` samples — [`csv`](StatsRegistry::csv) writes that many
/// rows, so the count is believed only as far as the samples the file
/// carries. A running counter is saved as a plain counter holding its
/// value, and loads with no span open: a checkpoint is taken where none is.
impl JsonState for StatsRegistry {
    fn save_state(&self) -> Json {
        // The window size is configuration; the clock is re-observed on
        // restore (`resume_at`).
        let Self { entries, index, windows_closed, window_size: _, clock: _ } = self;
        let entries = index.iter().map(|(name, &slot)| {
            let e = &entries[slot as usize];
            let (total, gauge) = match e.handle.count() {
                Some(count) => (count, 0.0),
                None => (0, e.handle.total()),
            };
            Json::obj([
                ("name", name.to_json()),
                ("counter", e.handle.count().is_some().to_json()),
                ("total", total.to_hex()),
                ("gauge", gauge.to_json()),
                ("windows", e.windows.to_json()),
                ("last_total", e.last_total.to_hex()),
            ])
        });
        Json::obj([
            ("entries", Json::Arr(entries.collect())),
            ("windows_closed", windows_closed.to_json()),
        ])
    }

    fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        let Self { entries, index, windows_closed, window_size: _, clock: _ } = self;
        let closed: usize = field(v, "windows_closed")?;
        let saved = field_with(v, "entries", array)?;
        if saved.len() != entries.len() {
            return Err(JsonError::msg(format!(
                "entries: the file carries {} statistics, this machine registered {}",
                saved.len(),
                entries.len()
            )));
        }
        for e in saved {
            let name: String = field(e, "name")?;
            let refuse = |why: &str| JsonError::msg(format!("entries: `{name}` {why}"));
            let total = field_with(e, "total", u64::from_hex)?;
            let last_total = field_with(e, "last_total", u64::from_hex)?;
            let (gauge, windows): (f64, Vec<f64>) = (field(e, "gauge")?, field(e, "windows")?);
            let slot = index.get(&name).ok_or_else(|| refuse("is not registered"))?;
            let entry = &mut entries[*slot as usize];
            match (&entry.handle, field(e, "counter")?) {
                _ if windows.len() != closed => {
                    return Err(refuse("has a windows series that is not windows_closed long"));
                }
                // The next window's sample is `total - last_total`.
                (StatHandle::Counter(_) | StatHandle::Running(_), true) if last_total > total => {
                    return Err(refuse("has last_total past total"));
                }
                (StatHandle::Counter(c), true) => c.value.set(total),
                (StatHandle::Running(r), true) => r.load(total),
                (StatHandle::Gauge(g), false) => g.value.set(gauge),
                _ => return Err(refuse("has the wrong kind")),
            }
            entry.windows = windows;
            entry.last_total = last_total;
        }
        *windows_closed = closed;
        Ok(())
    }
}

impl std::fmt::Debug for StatsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsRegistry")
            .field("stats", &self.entries.len())
            .field("window_size", &self.window_size)
            .field("windows_closed", &self.windows_closed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let mut reg = StatsRegistry::new(0);
        let a = reg.counter("x");
        let b = a.clone();
        a.inc();
        b.add(2);
        assert_eq!(reg.total("x"), Some(3.0));
    }

    #[test]
    fn windows_capture_deltas() {
        let mut reg = StatsRegistry::new(10);
        let c = reg.counter("events");
        for cycle in 0..30 {
            if cycle < 10 {
                c.add(2);
            } else if cycle < 20 {
                c.inc();
            }
            reg.tick(cycle);
        }
        assert_eq!(reg.windows_closed(), 3);
        assert_eq!(reg.window_series("events").unwrap(), &[20.0, 10.0, 0.0]);
    }

    #[test]
    fn gauges_sample_instantaneous_values() {
        let mut reg = StatsRegistry::new(5);
        let g = reg.gauge("occupancy");
        for cycle in 0..10 {
            g.set(cycle as f64);
            reg.tick(cycle);
        }
        assert_eq!(reg.window_series("occupancy").unwrap(), &[4.0, 9.0]);
    }

    #[test]
    fn skip_to_closes_exactly_the_windows_ticking_would() {
        // Every (from, to) pair inside three windows: skip_to must leave
        // the registry in the same state as per-cycle ticking.
        for from in 0..30u64 {
            for to in from..30u64 {
                let mut ticked = StatsRegistry::new(10);
                let c = ticked.counter("events");
                c.add(4);
                for cycle in from..to {
                    ticked.tick(cycle);
                }
                let mut skipped = StatsRegistry::new(10);
                let c = skipped.counter("events");
                c.add(4);
                skipped.skip_to(from, to);
                assert_eq!(
                    skipped.windows_closed(),
                    ticked.windows_closed(),
                    "windows diverge for {from}..{to}"
                );
                assert_eq!(
                    skipped.window_series("events"),
                    ticked.window_series("events"),
                    "series diverge for {from}..{to}"
                );
            }
        }
    }

    #[test]
    fn skip_to_is_a_noop_without_windows_or_distance() {
        let mut reg = StatsRegistry::new(0);
        reg.counter("x");
        reg.skip_to(0, 1_000_000);
        assert_eq!(reg.windows_closed(), 0);
        let mut reg = StatsRegistry::new(10);
        reg.counter("x");
        reg.skip_to(25, 25);
        reg.skip_to(25, 5);
        assert_eq!(reg.windows_closed(), 0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut reg = StatsRegistry::new(2);
        let c = reg.counter("a.hits");
        let g = reg.gauge("b.level");
        c.inc();
        g.set(0.5);
        reg.tick(0);
        reg.tick(1); // closes window 0
        let csv = reg.csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("window,a.hits,b.level"));
        assert_eq!(lines.next(), Some("0,1,0.5"));
    }

    #[test]
    fn totals_csv_lists_every_stat() {
        let mut reg = StatsRegistry::new(0);
        reg.counter("one").add(7);
        reg.gauge("two").set(1.25);
        let csv = reg.totals_csv();
        assert!(csv.contains("one,7"));
        assert!(csv.contains("two,1.25"));
    }

    #[test]
    fn a_second_registration_panics() {
        fn counter(reg: &mut StatsRegistry) {
            reg.counter("x");
        }
        fn gauge(reg: &mut StatsRegistry) {
            reg.gauge("x");
        }
        type Register = fn(&mut StatsRegistry);
        let cases: [(&str, Register, Register); 2] =
            [("gauge then counter", gauge, counter), ("counter then counter", counter, counter)];
        for (case, first, second) in cases {
            let mut reg = StatsRegistry::new(0);
            first(&mut reg);
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| second(&mut reg)))
                .expect_err(case);
            let message = panic.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some("statistic `x` is registered twice"), "{case}");
        }
    }

    #[test]
    fn late_registration_stays_aligned() {
        let mut reg = StatsRegistry::new(10);
        let a = reg.counter("early");
        a.add(5);
        for cycle in 0..10 {
            reg.tick(cycle);
        }
        // Registered after one window closed: its first real sample must
        // land in window 1, not window 0.
        let b = reg.counter("late");
        b.add(3);
        for cycle in 10..20 {
            reg.tick(cycle);
        }
        assert_eq!(reg.window_series("late").unwrap(), &[0.0, 3.0]);
        assert_eq!(reg.window_series("early").unwrap(), &[5.0, 0.0]);
    }

    #[test]
    fn running_counter_windows_close_mid_span() {
        let mut reg = StatsRegistry::new(10);
        let busy = reg.running_counter("busy");
        busy.start(5);
        for cycle in 0..30 {
            reg.tick(cycle);
        }
        assert_eq!(busy.value(), 25);
        assert_eq!(reg.window_series("busy").unwrap(), &[5.0, 10.0, 10.0]);
        busy.stop(32);
        for cycle in 30..40 {
            reg.tick(cycle);
        }
        assert_eq!(reg.window_series("busy").unwrap(), &[5.0, 10.0, 10.0, 3.0]);
        assert_eq!(reg.total("busy"), Some(28.0));
        assert_eq!(reg.totals_csv(), "stat,total\nbusy,28\n");
    }

    #[test]
    fn running_counter_counts_through_skip_to() {
        let mut reg = StatsRegistry::new(10);
        let busy = reg.running_counter("busy");
        for cycle in 0..6 {
            if cycle == 4 {
                busy.start(cycle);
            }
            reg.tick(cycle);
        }
        reg.skip_to(6, 37);
        assert_eq!(reg.windows_closed(), 3);
        assert_eq!(reg.window_series("busy").unwrap(), &[6.0, 10.0, 10.0]);
        assert_eq!(busy.value(), 33, "cycles 4 to 36");
        // Without windows the jump still moves the clock.
        let mut flat = StatsRegistry::new(0);
        let busy = flat.running_counter("busy");
        busy.start(0);
        flat.skip_to(0, 1_000);
        assert_eq!(busy.value(), 1_000);
    }

    #[test]
    fn running_counter_start_and_stop_on_one_cycle_count_it_once() {
        let mut reg = StatsRegistry::new(0);
        let busy = reg.running_counter("busy");
        busy.stop(3);
        assert_eq!(busy.value(), 0, "a stop with no span open does nothing");
        busy.start(7);
        busy.start(9);
        busy.stop(7);
        assert_eq!(busy.value(), 1, "the span's one cycle, before any tick");
        busy.stop(8);
        for cycle in 0..20 {
            reg.tick(cycle);
        }
        assert_eq!(busy.value(), 1, "closed spans do not grow");
    }

    #[test]
    fn running_counter_saves_as_a_counter_and_loads_stopped() {
        let mut reg = StatsRegistry::new(4);
        let busy = reg.running_counter("busy");
        busy.start(3);
        for cycle in 0..10 {
            reg.tick(cycle);
        }
        busy.stop(9);
        let saved = reg.save_state();
        let entry = &field_with(&saved, "entries", array).unwrap()[0];
        assert!(field::<bool>(entry, "counter").unwrap());
        assert_eq!(field_with(entry, "total", u64::from_hex).unwrap(), 7);

        for kind in ["running counter", "counter"] {
            let mut loaded = StatsRegistry::new(4);
            let total = match kind {
                "counter" => {
                    let c = loaded.counter("busy");
                    loaded.load_state(&saved).unwrap();
                    c.value()
                }
                _ => {
                    let r = loaded.running_counter("busy");
                    loaded.load_state(&saved).unwrap();
                    loaded.resume_at(10);
                    r.start(12);
                    loaded.tick(10);
                    loaded.tick(11);
                    assert_eq!(r.value(), 7, "a loaded span is closed");
                    for cycle in 12..16 {
                        loaded.tick(cycle);
                    }
                    assert_eq!(loaded.window_series("busy").unwrap(), &[1.0, 4.0, 2.0, 4.0]);
                    r.value() - 4
                }
            };
            assert_eq!(total, 7, "loaded into a {kind}");
        }
    }

    #[test]
    fn running_counter_matches_per_cycle_increments() {
        // A seeded schedule of on/off stretches, each advanced either cycle
        // by cycle or by one `skip_to`: the running counter must read as a
        // counter bumped on every cycle the state held.
        for seed in 0..64 {
            let mut rng = crate::TinyRng::new(seed);
            let mut per_cycle = StatsRegistry::new(7);
            let mut running = StatsRegistry::new(7);
            let inc = per_cycle.counter("state");
            let span = running.running_counter("state");
            let (mut cycle, mut on) = (0u64, false);
            while cycle < 400 {
                let len = rng.range_u64(1, 20);
                let now_on = rng.coin();
                match (on, now_on) {
                    (false, true) => span.start(cycle),
                    (true, false) => span.stop(cycle - 1),
                    _ => {}
                }
                on = now_on;
                for c in cycle..cycle + len {
                    if on {
                        inc.inc();
                    }
                    per_cycle.tick(c);
                }
                if rng.coin() {
                    running.skip_to(cycle, cycle + len);
                } else {
                    for c in cycle..cycle + len {
                        running.tick(c);
                    }
                }
                cycle += len;
                assert_eq!(span.value(), inc.value(), "seed {seed}, cycle {cycle}");
                assert_eq!(running.csv(), per_cycle.csv(), "seed {seed}, cycle {cycle}");
            }
        }
    }

    #[test]
    fn explicit_close_window() {
        let mut reg = StatsRegistry::new(0);
        let c = reg.counter("n");
        c.add(4);
        reg.close_window();
        c.add(1);
        reg.close_window();
        assert_eq!(reg.window_series("n").unwrap(), &[4.0, 1.0]);
    }
}
