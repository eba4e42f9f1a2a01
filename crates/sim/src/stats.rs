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
    Gauge(Gauge),
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
/// a statistic gets on first use — so the per-window sweep in
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
    /// How many times each name was handed out by [`counter`](Self::counter)
    /// or [`gauge`](Self::gauge). A count above 1 means two call sites
    /// registered the same name — usually a copy-paste bug that silently
    /// merges two units' statistics (the `duplicate-stat` lint rule).
    registrations: BTreeMap<String, usize>,
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
            registrations: BTreeMap::new(),
        }
    }

    /// The dense slot registered under `name`, if any.
    fn slot(&self, name: &str) -> Option<&StatEntry> {
        self.index.get(name).map(|&i| &self.entries[i as usize])
    }

    /// Returns (creating on first use) the counter registered under `name`.
    pub fn counter(&mut self, name: &str) -> Counter {
        *self.registrations.entry(name.to_string()).or_insert(0) += 1;
        match self.slot(name) {
            Some(StatEntry { handle: StatHandle::Counter(c), .. }) => c.clone(),
            Some(_) => panic!("statistic `{name}` is registered as a gauge, not a counter"),
            None => {
                let c = Counter::new();
                self.index.insert(name.to_string(), self.entries.len() as u32);
                self.entries.push(StatEntry {
                    handle: StatHandle::Counter(c.clone()),
                    // Backfill windows closed before registration so
                    // every statistic's series stays aligned.
                    windows: vec![0.0; self.windows_closed],
                    last_total: 0,
                });
                c
            }
        }
    }

    /// Returns (creating on first use) the gauge registered under `name`.
    pub fn gauge(&mut self, name: &str) -> Gauge {
        *self.registrations.entry(name.to_string()).or_insert(0) += 1;
        match self.slot(name) {
            Some(StatEntry { handle: StatHandle::Gauge(g), .. }) => g.clone(),
            Some(_) => panic!("statistic `{name}` is registered as a counter, not a gauge"),
            None => {
                let g = Gauge::new();
                self.index.insert(name.to_string(), self.entries.len() as u32);
                self.entries.push(StatEntry {
                    handle: StatHandle::Gauge(g.clone()),
                    windows: vec![0.0; self.windows_closed],
                    last_total: 0,
                });
                g
            }
        }
    }

    /// Advances the sampling clock; must be called once per simulated
    /// cycle. Closes a window whenever `window_size` cycles have elapsed.
    pub fn tick(&mut self, cycle: Cycle) {
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
    /// provably idle cycles: no statistic changes during such a jump, so
    /// each window boundary crossed records the same all-zero counter
    /// deltas (and unchanged gauge values) a per-cycle loop would have.
    pub fn skip_to(&mut self, from: Cycle, to: Cycle) {
        if self.window_size == 0 || to <= from {
            return;
        }
        // tick(j) closes a window when (j + 1) % window_size == 0, so the
        // boundaries crossed by j in from..to number to/W - from/W.
        let crossed = to / self.window_size - from / self.window_size;
        for _ in 0..crossed {
            self.close_window();
        }
    }

    /// Closes the current sampling window explicitly (also called from
    /// [`tick`](Self::tick)); useful at end of frame / end of run.
    pub fn close_window(&mut self) {
        for entry in &mut self.entries {
            match &entry.handle {
                StatHandle::Counter(c) => {
                    let total = c.value();
                    entry.windows.push((total - entry.last_total) as f64);
                    entry.last_total = total;
                }
                StatHandle::Gauge(g) => entry.windows.push(g.value()),
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
        self.slot(name).map(|e| match &e.handle {
            StatHandle::Counter(c) => c.value() as f64,
            StatHandle::Gauge(g) => g.value(),
        })
    }

    /// Names of all registered statistics, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.index.keys().map(|s| s.as_str()).collect()
    }

    /// Names handed out more than once, with their registration counts —
    /// the input of the `duplicate-stat` architecture-lint rule. Shared
    /// handles obtained by *cloning* a [`Counter`]/[`Gauge`] do not count;
    /// only repeated lookups by name do.
    pub fn duplicate_registrations(&self) -> Vec<(String, usize)> {
        self.registrations
            .iter()
            .filter(|(_, &n)| n > 1)
            .map(|(name, &n)| (name.clone(), n))
            .collect()
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
            let v = match &self.entries[slot as usize].handle {
                StatHandle::Counter(c) => c.value() as f64,
                StatHandle::Gauge(g) => g.value(),
            };
            let _ = writeln!(out, "{name},{v}");
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
/// carries.
impl JsonState for StatsRegistry {
    fn save_state(&self) -> Json {
        let entries = self.index.iter().map(|(name, &slot)| {
            let e = &self.entries[slot as usize];
            let (total, gauge) = match &e.handle {
                StatHandle::Counter(c) => (c.value(), 0.0),
                StatHandle::Gauge(g) => (0, g.value()),
            };
            Json::obj([
                ("name", name.to_json()),
                ("counter", matches!(e.handle, StatHandle::Counter(_)).to_json()),
                ("total", total.to_hex()),
                ("gauge", gauge.to_json()),
                ("windows", e.windows.to_json()),
                ("last_total", e.last_total.to_hex()),
            ])
        });
        Json::obj([
            ("entries", Json::Arr(entries.collect())),
            ("windows_closed", self.windows_closed.to_json()),
        ])
    }

    fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        let windows_closed: usize = field(v, "windows_closed")?;
        let entries = field_with(v, "entries", array)?;
        if entries.len() != self.entries.len() {
            return Err(JsonError::msg(format!(
                "entries: the file carries {} statistics, this machine registered {}",
                entries.len(),
                self.entries.len()
            )));
        }
        for e in entries {
            let name: String = field(e, "name")?;
            let refuse = |why: &str| JsonError::msg(format!("entries: `{name}` {why}"));
            let total = field_with(e, "total", u64::from_hex)?;
            let last_total = field_with(e, "last_total", u64::from_hex)?;
            let (gauge, windows): (f64, Vec<f64>) = (field(e, "gauge")?, field(e, "windows")?);
            let slot = self.index.get(&name).ok_or_else(|| refuse("is not registered"))?;
            let entry = &mut self.entries[*slot as usize];
            match (&entry.handle, field(e, "counter")?) {
                _ if windows.len() != windows_closed => {
                    return Err(refuse("has a windows series that is not windows_closed long"));
                }
                // The next window's sample is `total - last_total`.
                (StatHandle::Counter(_), true) if last_total > total => {
                    return Err(refuse("has last_total past total"));
                }
                (StatHandle::Counter(c), true) => c.value.set(total),
                (StatHandle::Gauge(g), false) => g.value.set(gauge),
                _ => return Err(refuse("has the wrong kind")),
            }
            entry.windows = windows;
            entry.last_total = last_total;
        }
        self.windows_closed = windows_closed;
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
        let b = reg.counter("x");
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
    #[should_panic(expected = "registered as a gauge")]
    fn kind_mismatch_panics() {
        let mut reg = StatsRegistry::new(0);
        reg.gauge("x");
        reg.counter("x");
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
