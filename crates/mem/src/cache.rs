//! Generic set-associative cache timing model.
//!
//! The texture, Z and colour caches of the baseline ATTILA architecture
//! (Table 2: 16 KB, 4-way, 16 lines of 256 bytes, 1–4 ports) are instances
//! of this model. As in the paper, caches use a method interface attached
//! to their parent box rather than signals, simulating single-cycle tag
//! and data access as implementable at GPU clocks; misses and evictions
//! turn into memory-controller transactions issued by the parent box.
//!
//! The cache is *timing-only*: the data itself lives in the GPU memory
//! image (execution-driven simulation needs a single source of truth),
//! while the cache tracks tags, dirtiness and port pressure to produce
//! exact hit/miss/bandwidth behaviour.

use attila_json::{field, field_with, HexJson, Json, JsonError, JsonState, ToJson};
use attila_sim::Cycle;

/// Geometry and port configuration of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total data capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Accesses serviced per cycle.
    pub ports: u32,
}

impl CacheConfig {
    /// The paper's Table 2 baseline: 16 KB, 4-way, 256-byte lines.
    pub fn attila_baseline(ports: u32) -> Self {
        CacheConfig { size_bytes: 16 * 1024, ways: 4, line_bytes: 256, ports }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    Invalid,
    /// Fill in flight.
    Pending,
    Valid {
        dirty: bool,
    },
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    state: LineState,
    /// LRU timestamp (monotonic access counter).
    last_use: u64,
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line is resident: single-cycle access.
    Hit,
    /// The line is absent; the caller should [`allocate`](Cache::allocate)
    /// and issue a fill.
    Miss,
    /// The line is already being filled (or all ports are taken this
    /// cycle); retry later.
    Blocked,
}

/// A dirty line that must be written back before its frame is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Base address of the evicted line.
    pub line_addr: u64,
}

/// A set-associative, write-back, LRU cache (tags only).
///
/// # Examples
///
/// ```
/// use attila_mem::cache::{Cache, CacheConfig, Lookup};
///
/// let mut cache = Cache::new(CacheConfig::attila_baseline(1), "Texture");
/// assert_eq!(cache.lookup(0, 0x100, false), Lookup::Miss);
/// let evicted = cache.allocate(0x100).unwrap();
/// assert!(evicted.is_none());
/// cache.fill_done(0x100);
/// assert_eq!(cache.lookup(1, 0x100, false), Lookup::Hit);
/// ```
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    name: &'static str,
    lines: Vec<Line>,
    access_counter: u64,
    ports_used_at: (Cycle, u32),
    hits: u64,
    misses: u64,
    blocked: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible into
    /// sets, or zero ports).
    pub fn new(config: CacheConfig, name: &'static str) -> Self {
        assert!(config.ports > 0, "cache needs at least one port");
        assert!(config.line_bytes.is_power_of_two());
        assert_eq!(
            config.size_bytes % (config.ways * config.line_bytes),
            0,
            "size must be a whole number of sets"
        );
        assert!(config.sets() > 0);
        let lines = vec![
            Line { tag: 0, state: LineState::Invalid, last_use: 0 };
            (config.sets() * config.ways) as usize
        ];
        Cache {
            config,
            name,
            lines,
            access_counter: 0,
            ports_used_at: (0, 0),
            hits: 0,
            misses: 0,
            blocked: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The cache's display name (e.g. `"Texture"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Base address of the line containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.config.line_bytes as u64 - 1)
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr / self.config.line_bytes as u64) % self.config.sets() as u64) as usize
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr / self.config.line_bytes as u64 / self.config.sets() as u64
    }

    fn set_lines(&mut self, set: usize) -> &mut [Line] {
        let w = self.config.ways as usize;
        &mut self.lines[set * w..(set + 1) * w]
    }

    /// Looks up `addr` at `cycle`, consuming a port on a hit. `write`
    /// marks the line dirty on a hit.
    pub fn lookup(&mut self, cycle: Cycle, addr: u64, write: bool) -> Lookup {
        if self.ports_used_at.0 != cycle {
            self.ports_used_at = (cycle, 0);
        }
        if self.ports_used_at.1 >= self.config.ports {
            self.blocked += 1;
            return Lookup::Blocked;
        }
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.access_counter += 1;
        let counter = self.access_counter;
        let mut result = Lookup::Miss;
        for line in self.set_lines(set) {
            if line.tag == tag {
                match line.state {
                    LineState::Valid { dirty } => {
                        line.last_use = counter;
                        if write {
                            line.state = LineState::Valid { dirty: true };
                        } else {
                            line.state = LineState::Valid { dirty };
                        }
                        result = Lookup::Hit;
                    }
                    LineState::Pending => result = Lookup::Blocked,
                    LineState::Invalid => {}
                }
                if result != Lookup::Miss {
                    break;
                }
            }
        }
        match result {
            Lookup::Hit => {
                self.hits += 1;
                self.ports_used_at.1 += 1;
            }
            Lookup::Miss => self.misses += 1,
            Lookup::Blocked => self.blocked += 1,
        }
        result
    }

    /// Reserves a frame for `addr`'s line and marks it pending. Returns
    /// the eviction the caller must perform first (if the victim was
    /// dirty), or `None`. Returns `Err(())` when every way in the set is
    /// pending (no victim available — the caller stalls).
    #[allow(clippy::result_unit_err)]
    pub fn allocate(&mut self, addr: u64) -> Result<Option<Eviction>, ()> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let line_bytes = self.config.line_bytes as u64;
        let sets = self.config.sets() as u64;
        // Victim: an invalid line, else LRU among valid (never pending).
        let lines = self.set_lines(set);
        let mut victim: Option<usize> = None;
        for (i, line) in lines.iter().enumerate() {
            match line.state {
                LineState::Invalid => {
                    victim = Some(i);
                    break;
                }
                LineState::Valid { .. } => {
                    if victim
                        .map(|v| {
                            matches!(lines[v].state, LineState::Valid { .. })
                                && lines[i].last_use < lines[v].last_use
                        })
                        .unwrap_or(true)
                    {
                        victim = Some(i);
                    }
                }
                LineState::Pending => {}
            }
        }
        let Some(v) = victim else { return Err(()) };
        let old = lines[v];
        lines[v] = Line { tag, state: LineState::Pending, last_use: 0 };
        match old.state {
            LineState::Valid { dirty: true } => {
                let victim_addr = (old.tag * sets + set as u64) * line_bytes;
                Ok(Some(Eviction { line_addr: victim_addr }))
            }
            _ => Ok(None),
        }
    }

    /// Marks the pending line for `addr` as filled (memory reply arrived).
    ///
    /// # Panics
    ///
    /// Panics if no pending line matches — a protocol bug in the parent
    /// box.
    pub fn fill_done(&mut self, addr: u64) {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.access_counter += 1;
        let counter = self.access_counter;
        for line in self.set_lines(set) {
            if line.tag == tag && line.state == LineState::Pending {
                line.state = LineState::Valid { dirty: false };
                line.last_use = counter;
                return;
            }
        }
        panic!("fill_done for a line that is not pending (addr {addr:#x})");
    }

    /// Marks the (valid) line containing `addr` dirty without consuming a
    /// port — used by parent boxes that decide writes after their lookup.
    pub fn mark_dirty(&mut self, addr: u64) {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for line in self.set_lines(set) {
            if line.tag == tag {
                if let LineState::Valid { .. } = line.state {
                    line.state = LineState::Valid { dirty: true };
                }
                return;
            }
        }
    }

    /// Invalidates every valid line, returning the dirty ones that must
    /// be written back (used at frame boundaries and for fast clears).
    /// Lines with fills still in flight stay `Pending` so the eventual
    /// [`fill_done`](Self::fill_done) remains legal; callers that need a
    /// truly empty cache must drain their fills first.
    pub fn flush(&mut self) -> Vec<Eviction> {
        let line_bytes = self.config.line_bytes as u64;
        let sets = self.config.sets() as u64;
        let ways = self.config.ways as usize;
        let mut dirty = Vec::new();
        for (i, line) in self.lines.iter_mut().enumerate() {
            match line.state {
                LineState::Valid { dirty: is_dirty } => {
                    if is_dirty {
                        let set = (i / ways) as u64;
                        dirty.push(Eviction { line_addr: (line.tag * sets + set) * line_bytes });
                    }
                    line.state = LineState::Invalid;
                }
                LineState::Pending => {} // fill in flight: keep
                LineState::Invalid => {}
            }
        }
        dirty
    }

    /// Base address of every resident (valid) line; `None` for a tag that
    /// names no address — only a corrupted checkpoint holds one.
    pub fn resident_lines(&self) -> impl Iterator<Item = Option<u64>> + '_ {
        let (sets, ways) = (u64::from(self.config.sets()), self.config.ways as usize);
        let line_bytes = u64::from(self.config.line_bytes);
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, line)| matches!(line.state, LineState::Valid { .. }))
            .map(move |(i, line)| {
                let block = line.tag.checked_mul(sets)?.checked_add((i / ways) as u64)?;
                block.checked_mul(line_bytes)
            })
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]` (1.0 when no accesses yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// `LineState` as `valid`/`dirty`: a line whose fill is still in flight is
/// recorded as invalid (checkpoints are taken at quiescent points, where
/// none exist).
impl JsonState for Line {
    fn save_state(&self) -> Json {
        let Self { tag, state, last_use } = self;
        Json::obj([
            ("tag", tag.to_hex()),
            ("valid", matches!(state, LineState::Valid { .. }).to_json()),
            ("dirty", matches!(state, LineState::Valid { dirty: true }).to_json()),
            ("last_use", last_use.to_hex()),
        ])
    }

    fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        let Self { tag, state, last_use } = self;
        *tag = field_with(v, "tag", u64::from_hex)?;
        let (valid, dirty) = (field(v, "valid")?, field(v, "dirty")?);
        *state = if valid { LineState::Valid { dirty } } else { LineState::Invalid };
        *last_use = field_with(v, "last_use", u64::from_hex)?;
        Ok(())
    }
}

/// Tags, dirtiness, LRU order and statistics, loaded into a cache of
/// identical geometry: a file from another line count is refused.
impl JsonState for Cache {
    fn save_state(&self) -> Json {
        // Geometry and label are fixed at construction; the per-cycle
        // port occupancy is zeroed on restore.
        let Self {
            lines, access_counter, hits, misses, blocked, config: _, name: _, ports_used_at: _,
        } = self;
        Json::obj([
            ("lines", lines.save_state()),
            ("access_counter", access_counter.to_hex()),
            ("hits", hits.to_hex()),
            ("misses", misses.to_hex()),
            ("blocked", blocked.to_hex()),
        ])
    }

    fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        let Self {
            lines, access_counter, hits, misses, blocked, config: _, name: _, ports_used_at,
        } = self;
        field_with(v, "lines", |saved| lines.load_state(saved))?;
        *access_counter = field_with(v, "access_counter", u64::from_hex)?;
        *ports_used_at = (0, 0);
        *hits = field_with(v, "hits", u64::from_hex)?;
        *misses = field_with(v, "misses", u64::from_hex)?;
        *blocked = field_with(v, "blocked", u64::from_hex)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64-byte lines = 512 bytes.
        Cache::new(
            CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64, ports: 2 },
            "test",
        )
    }

    fn fill(c: &mut Cache, addr: u64) {
        assert_eq!(c.allocate(addr), Ok(None), "expected clean allocate");
        c.fill_done(addr);
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().sets(), 4);
        assert_eq!(c.line_addr(0x7f), 0x40);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert_eq!(c.lookup(0, 0x100, false), Lookup::Miss);
        fill(&mut c, 0x100);
        assert_eq!(c.lookup(1, 0x100, false), Lookup::Hit);
        assert_eq!(c.lookup(1, 0x13f, false), Lookup::Hit, "same line, second port");
        assert_eq!(c.lookup(1, 0x100, false), Lookup::Blocked, "both ports consumed");
    }

    #[test]
    fn pending_line_blocks_instead_of_missing_again() {
        let mut c = small();
        assert_eq!(c.lookup(0, 0x100, false), Lookup::Miss);
        c.allocate(0x100).unwrap();
        assert_eq!(c.lookup(1, 0x100, false), Lookup::Blocked);
        c.fill_done(0x100);
        assert_eq!(c.lookup(2, 0x100, false), Lookup::Hit);
    }

    #[test]
    fn port_limit_enforced_per_cycle() {
        let mut c = small();
        fill(&mut c, 0x0);
        fill(&mut c, 0x40);
        fill(&mut c, 0x80);
        assert_eq!(c.lookup(5, 0x0, false), Lookup::Hit);
        assert_eq!(c.lookup(5, 0x40, false), Lookup::Hit);
        assert_eq!(c.lookup(5, 0x80, false), Lookup::Blocked, "third access same cycle");
        assert_eq!(c.lookup(6, 0x80, false), Lookup::Hit, "next cycle the port frees");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Set 0 holds lines with addr % (4*64) == 0: 0x000, 0x100, 0x200...
        fill(&mut c, 0x000);
        fill(&mut c, 0x100);
        assert_eq!(c.lookup(1, 0x000, false), Lookup::Hit); // 0x000 now MRU
        // Allocate a third line in set 0: must evict 0x100.
        assert_eq!(c.allocate(0x200), Ok(None));
        c.fill_done(0x200);
        assert_eq!(c.lookup(2, 0x000, false), Lookup::Hit, "MRU survived");
        assert_eq!(c.lookup(3, 0x100, false), Lookup::Miss, "LRU evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = small();
        fill(&mut c, 0x000);
        assert_eq!(c.lookup(1, 0x010, true), Lookup::Hit, "write dirties the line");
        fill(&mut c, 0x100);
        let ev = c.allocate(0x200).unwrap();
        assert_eq!(ev, Some(Eviction { line_addr: 0x000 }), "dirty LRU must be written back");
    }

    #[test]
    fn allocate_fails_when_all_ways_pending() {
        let mut c = small();
        assert_eq!(c.allocate(0x000), Ok(None));
        assert_eq!(c.allocate(0x100), Ok(None));
        assert_eq!(c.allocate(0x200), Err(()), "both ways of set 0 pending");
        c.fill_done(0x000);
        assert!(c.allocate(0x200).is_ok(), "a way freed up");
    }

    #[test]
    fn flush_returns_dirty_lines_and_invalidates() {
        let mut c = small();
        fill(&mut c, 0x000);
        fill(&mut c, 0x40);
        c.lookup(1, 0x40, true);
        let dirty = c.flush();
        assert_eq!(dirty, vec![Eviction { line_addr: 0x40 }]);
        assert_eq!(c.lookup(2, 0x000, false), Lookup::Miss, "flushed");
    }

    #[test]
    fn hit_rate_statistics() {
        let mut c = small();
        assert_eq!(c.hit_rate(), 1.0);
        c.lookup(0, 0, false); // miss
        fill(&mut c, 0);
        c.lookup(1, 0, false); // hit
        c.lookup(2, 0, false); // hit
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn attila_baseline_geometry_matches_table2() {
        let c = Cache::new(CacheConfig::attila_baseline(4), "Z");
        assert_eq!(c.config().sets(), 16, "16KB / (4 ways * 256B) = 16 sets");
        assert_eq!(c.config().line_bytes, 256);
    }

    #[test]
    fn flush_keeps_pending_lines() {
        let mut c = small();
        c.allocate(0x40).unwrap(); // fill in flight
        fill(&mut c, 0x00);
        c.lookup(1, 0x00, true);
        let dirty = c.flush();
        assert_eq!(dirty, vec![Eviction { line_addr: 0x00 }]);
        // The pending fill can still complete without panicking.
        c.fill_done(0x40);
        assert_eq!(c.lookup(2, 0x40, false), Lookup::Hit);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small();
        for i in 0..4u64 {
            fill(&mut c, i * 64);
        }
        for i in 0..4u64 {
            assert_eq!(c.lookup(10 + i, i * 64, false), Lookup::Hit);
        }
    }
}
