//! ROP caches: the Z/stencil and colour caches with fast clear and
//! (for Z) lossless compression.
//!
//! Per the paper (§2.2): the Z cache "implements a lossless compression
//! algorithm with 1:2 and 1:4 ratios to reduce bandwidth usage. Fast Z and
//! Stencil clear, performed in a few cycles and without accessing memory,
//! is also implemented" (based on an ATI Hot3D presentation and patent).
//! The colour cache supports fast colour clear; colour *compression* is
//! listed as future work, so it is off by default but implementable by
//! flipping one flag.
//!
//! Mechanics: the frame buffer is divided into line-sized **blocks** (256
//! bytes = an 8×8 tile of 32-bit values). Per-block state lives on chip:
//!
//! * `Cleared` — the block reads as the clear value; filling it costs no
//!   memory traffic.
//! * `Compressed(level)` — fills/evictions transfer `level.bytes()`.
//! * `Uncompressed` — full 256-byte transfers.
//!
//! Compression ratios are computed from the *actual* data on eviction
//! (execution-driven), using
//! `compress_z_block`-compatible
//! logic supplied by the caller.

use attila_json::{field, field_with, FromJson, HexJson, Json, JsonError, JsonState, ToJson};
use attila_sim::Cycle;

use crate::cache::{Cache, CacheConfig, Eviction, Lookup};
use crate::memory::MemoryImage;

/// Compression state of one frame-buffer block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Reads as the clear value; no backing-store traffic.
    Cleared,
    /// Stored compressed; fills/evictions move `bytes` bytes.
    Compressed {
        /// Transfer size in bytes (64 or 128 for 1:4 / 1:2).
        bytes: u32,
    },
    /// Full-size transfers.
    Uncompressed,
}

/// A Z or colour cache plus the on-chip block-state memory implementing
/// fast clear and compression bookkeeping.
#[derive(Debug)]
pub struct RopCache {
    cache: Cache,
    line_bytes: u32,
    buffer_base: u64,
    block_states: Vec<BlockState>,
    clear_word: u32,
    /// Bytes actually transferred to/from memory (post-compression).
    bytes_transferred: u64,
    /// Bytes a compression-less design would have transferred.
    bytes_uncompressed_equiv: u64,
    fast_clears: u64,
}

impl RopCache {
    /// Creates a ROP cache covering the buffer `[base, base + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not a whole number of cache lines.
    pub fn new(config: CacheConfig, name: &'static str, base: u64, len: u64) -> Self {
        assert_eq!(len % config.line_bytes as u64, 0, "buffer must be whole blocks");
        let blocks = (len / config.line_bytes as u64) as usize;
        RopCache {
            line_bytes: config.line_bytes,
            cache: Cache::new(config, name),
            buffer_base: base,
            block_states: vec![BlockState::Uncompressed; blocks],
            clear_word: 0,
            bytes_transferred: 0,
            bytes_uncompressed_equiv: 0,
            fast_clears: 0,
        }
    }

    /// The underlying tag cache.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Buffer base address.
    pub fn base(&self) -> u64 {
        self.buffer_base
    }

    /// Covered buffer length in bytes.
    pub fn len(&self) -> u64 {
        self.block_states.len() as u64 * self.line_bytes as u64
    }

    /// Whether the cache covers an empty buffer.
    pub fn is_empty(&self) -> bool {
        self.block_states.is_empty()
    }

    /// The current clear word.
    pub fn clear_word(&self) -> u32 {
        self.clear_word
    }

    fn block_of(&self, addr: u64) -> usize {
        debug_assert!(addr >= self.buffer_base);
        ((addr - self.buffer_base) / self.line_bytes as u64) as usize
    }

    /// The block state covering `addr`.
    pub fn block_state(&self, addr: u64) -> BlockState {
        self.block_states[self.block_of(addr)]
    }

    /// Fast clear: marks every block `Cleared` and fills the functional
    /// image with `clear_word` — a few cycles of work, **zero** memory
    /// transactions in the timing model. Dirty cache lines are discarded
    /// (their contents are dead).
    pub fn fast_clear(&mut self, mem: &mut MemoryImage, clear_word: u32) {
        self.clear_word = clear_word;
        for s in &mut self.block_states {
            *s = BlockState::Cleared;
        }
        let _ = self.cache.flush();
        self.fast_clears += 1;
        let words = (self.block_states.len() * self.line_bytes as usize) / 4;
        mem.fill_u32(self.buffer_base, words, clear_word);
    }

    /// Cache lookup (see [`Cache::lookup`]).
    pub fn lookup(&mut self, cycle: Cycle, addr: u64, write: bool) -> Lookup {
        self.cache.lookup(cycle, addr, write)
    }

    /// Allocates a frame for `addr` and returns what the parent box must
    /// transfer: `(fill_bytes, eviction)`. A `fill_bytes` of 0 means the
    /// block is in the `Cleared` state and needs no memory read.
    ///
    /// # Errors
    ///
    /// `Err(())` when all ways are pending (caller stalls), as in
    /// [`Cache::allocate`].
    #[allow(clippy::result_unit_err)]
    pub fn allocate(&mut self, addr: u64) -> Result<(u32, Option<Eviction>), ()> {
        let ev = self.cache.allocate(addr)?;
        let fill_bytes = match self.block_state(self.cache.line_addr(addr)) {
            BlockState::Cleared => 0,
            BlockState::Compressed { bytes } => bytes,
            BlockState::Uncompressed => self.line_bytes,
        };
        // A no-fast-clear design would have read the full line even for
        // cleared blocks, so the baseline always accrues.
        self.bytes_transferred += fill_bytes as u64;
        self.bytes_uncompressed_equiv += self.line_bytes as u64;
        Ok((fill_bytes, ev))
    }

    /// Marks the fill complete (or instantly for cleared blocks).
    pub fn fill_done(&mut self, addr: u64) {
        self.cache.fill_done(addr);
    }

    /// Marks the line containing `addr` dirty (see [`Cache::mark_dirty`]).
    pub fn mark_dirty(&mut self, addr: u64) {
        self.cache.mark_dirty(addr);
    }

    /// Called when evicting a dirty line: the parent passes the line's
    /// *actual* 64 words; the compressor (e.g.
    /// `compress_z_block` (attila-emu)) decides the achieved
    /// size via `compressed_size`. Updates block state and bandwidth
    /// accounting, returning the bytes to write back.
    pub fn evict_dirty(
        &mut self,
        line_addr: u64,
        compressed_size: Option<u32>,
    ) -> u32 {
        let bytes = compressed_size.unwrap_or(self.line_bytes).min(self.line_bytes);
        let idx = self.block_of(line_addr);
        self.block_states[idx] = if bytes < self.line_bytes {
            BlockState::Compressed { bytes }
        } else {
            BlockState::Uncompressed
        };
        self.bytes_transferred += bytes as u64;
        self.bytes_uncompressed_equiv += self.line_bytes as u64;
        bytes
    }

    /// Flushes the cache, returning dirty lines the parent must write
    /// back (end of frame).
    pub fn flush(&mut self) -> Vec<Eviction> {
        self.cache.flush()
    }

    /// Bytes moved to/from memory after compression/fast-clear savings.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Bytes an uncompressed, no-fast-clear design would have moved.
    pub fn bytes_uncompressed_equiv(&self) -> u64 {
        self.bytes_uncompressed_equiv
    }

    /// Number of fast clears performed.
    pub fn fast_clears(&self) -> u64 {
        self.fast_clears
    }

    /// Effective bandwidth compression ratio achieved so far (≥ 1).
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_transferred == 0 {
            1.0
        } else {
            self.bytes_uncompressed_equiv as f64 / self.bytes_transferred as f64
        }
    }

    /// The cache tags plus the on-chip block-state memory and bandwidth
    /// accounting, with the covered `(base, len)` range so that
    /// [`load_state`](Self::load_state) can build an identically bound
    /// cache.
    pub fn save_state(&self) -> Json {
        let Self {
            cache,
            buffer_base,
            block_states,
            clear_word,
            bytes_transferred,
            bytes_uncompressed_equiv,
            fast_clears,
            line_bytes: _, // geometry: the loader's configuration carries it
        } = self;
        Json::obj([
            ("cache", cache.save_state()),
            ("base", buffer_base.to_hex()),
            ("len", self.len().to_hex()),
            ("blocks", block_states.to_json()),
            ("clear_word", clear_word.to_json()),
            ("bytes_transferred", bytes_transferred.to_hex()),
            ("bytes_uncompressed_equiv", bytes_uncompressed_equiv.to_hex()),
            ("fast_clears", fast_clears.to_hex()),
        ])
    }

    /// Builds the cache [`save_state`](Self::save_state) rendered, bound
    /// to the surface the file names. The block-state memory is the
    /// `blocks` array the file carries; `len` is then held to it, never
    /// allocated from.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when `len` is not the carried blocks' bytes,
    /// the tag cache's geometry differs, or a resident line lies outside
    /// `[base, base + len)` or off its block grid (the block-state memory
    /// is indexed by line address).
    pub fn load_state(
        config: CacheConfig,
        name: &'static str,
        v: &Json,
    ) -> Result<Self, JsonError> {
        let line = u64::from(config.line_bytes);
        let block_states: Vec<BlockState> = field(v, "blocks")?;
        let buffer_base = field_with(v, "base", u64::from_hex)?;
        let len = field_with(v, "len", u64::from_hex)?;
        if (block_states.len() as u64).checked_mul(line) != Some(len) {
            return Err(JsonError::msg(format!(
                "len: {len} bytes, but the file carries {} blocks of {line}",
                block_states.len()
            )));
        }
        let mut cache = Cache::new(config, name);
        field_with(v, "cache", |tags| cache.load_state(tags))?;
        let on_grid = |addr: u64| {
            addr.checked_sub(buffer_base).is_some_and(|off| off < len && off.is_multiple_of(line))
        };
        if !cache.resident_lines().all(|addr| addr.is_some_and(on_grid)) {
            return Err(JsonError::msg(format!(
                "cache: a resident line is not a block of base {buffer_base:#x} + {len}"
            )));
        }
        Ok(RopCache {
            cache,
            line_bytes: config.line_bytes,
            buffer_base,
            block_states,
            clear_word: field(v, "clear_word")?,
            bytes_transferred: field_with(v, "bytes_transferred", u64::from_hex)?,
            bytes_uncompressed_equiv: field_with(v, "bytes_uncompressed_equiv", u64::from_hex)?,
            fast_clears: field_with(v, "fast_clears", u64::from_hex)?,
        })
    }
}

/// `"C"` (cleared), `"U"` (uncompressed) or the compressed transfer size
/// in bytes.
impl ToJson for BlockState {
    fn to_json(&self) -> Json {
        match self {
            BlockState::Cleared => "C".to_json(),
            BlockState::Uncompressed => "U".to_json(),
            BlockState::Compressed { bytes } => bytes.to_json(),
        }
    }
}

impl FromJson for BlockState {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) if s == "C" => Ok(BlockState::Cleared),
            Json::Str(s) if s == "U" => Ok(BlockState::Uncompressed),
            Json::Num(_) => u32::from_json(v).map(|bytes| BlockState::Compressed { bytes }),
            other => Err(JsonError::msg(format!("bad block state: {}", other.render()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rop() -> (RopCache, MemoryImage) {
        let config = CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 256, ports: 4 };
        let mem = MemoryImage::new(64 * 1024);
        (RopCache::new(config, "Z", 0x1000, 16 * 256), mem)
    }

    #[test]
    fn fast_clear_marks_blocks_and_fills_memory() {
        let (mut z, mut mem) = rop();
        z.fast_clear(&mut mem, 0x00ff_ffff);
        assert_eq!(z.block_state(0x1000), BlockState::Cleared);
        assert_eq!(z.block_state(0x1000 + 15 * 256), BlockState::Cleared);
        assert_eq!(mem.read_u32(0x1000), 0x00ff_ffff);
        assert_eq!(mem.read_u32(0x1000 + 16 * 256 - 4), 0x00ff_ffff);
        assert_eq!(z.fast_clears(), 1);
    }

    #[test]
    fn cleared_block_fill_costs_no_bandwidth() {
        let (mut z, mut mem) = rop();
        z.fast_clear(&mut mem, 0);
        assert_eq!(z.lookup(0, 0x1000, false), Lookup::Miss);
        let (fill, ev) = z.allocate(0x1000).unwrap();
        assert_eq!(fill, 0, "cleared block: no memory read");
        assert!(ev.is_none());
        z.fill_done(0x1000);
        assert_eq!(z.lookup(1, 0x1000, true), Lookup::Hit);
        assert_eq!(z.bytes_transferred(), 0);
    }

    #[test]
    fn compressed_eviction_reduces_traffic() {
        let (mut z, mut mem) = rop();
        z.fast_clear(&mut mem, 0);
        z.allocate(0x1000).unwrap();
        z.fill_done(0x1000);
        z.lookup(0, 0x1000, true);
        // Evict with 1:4 compression achieved.
        let written = z.evict_dirty(0x1000, Some(64));
        assert_eq!(written, 64);
        assert_eq!(z.block_state(0x1000), BlockState::Compressed { bytes: 64 });
        // A later fill of the same block reads only 64 bytes.
        let (fill, _) = z.allocate(0x1000).unwrap();
        assert_eq!(fill, 64);
        assert!(z.compression_ratio() > 3.9, "ratio {}", z.compression_ratio());
    }

    #[test]
    fn incompressible_eviction_stays_full_size() {
        let (mut z, _mem) = rop();
        let written = z.evict_dirty(0x1100, None);
        assert_eq!(written, 256);
        assert_eq!(z.block_state(0x1100), BlockState::Uncompressed);
    }

    #[test]
    fn uncompressed_block_fill_is_full_line() {
        let (mut z, _mem) = rop();
        let (fill, _) = z.allocate(0x1200).unwrap();
        assert_eq!(fill, 256);
    }

    #[test]
    fn second_fast_clear_resets_compressed_state() {
        let (mut z, mut mem) = rop();
        z.evict_dirty(0x1000, Some(128));
        assert_eq!(z.block_state(0x1000), BlockState::Compressed { bytes: 128 });
        z.fast_clear(&mut mem, 7);
        assert_eq!(z.block_state(0x1000), BlockState::Cleared);
        assert_eq!(z.clear_word(), 7);
    }
}
