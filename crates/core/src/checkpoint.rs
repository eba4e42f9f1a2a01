//! Crash-safe checkpoint / restore.
//!
//! A checkpoint is a snapshot of the whole machine taken at a *quiescent
//! point*: the Command Processor sits at a command boundary, every
//! pipeline box is drained, the memory controller has no work in flight
//! and no signal carries data or credit returns. At such a point the only
//! state that exists is *persistent* state — counters, caches, register
//! files, the memory image — and that is exactly what the checkpoint
//! carries. Transient state (objects on wires, partially processed
//! batches) is provably empty and never serialized.
//!
//! # File format (version 3)
//!
//! One pretty-printed JSON object, written through the in-repo
//! `attila-json`:
//!
//! ```text
//! {
//!   "magic":       "ATTILA-CKPT",
//!   "version":     3,
//!   "config_hash": "<fnv1a64 of the config's JSON, hex>",
//!   "trace_hash":  "<fnv1a64 of the canonical trace encoding, hex>",
//!   "body_crc":    <crc32 of the body's compact rendering>,
//!   "body":        { ... the machine state ... }
//! }
//! ```
//!
//! Restore refuses the file — with a typed
//! [`SimError::CheckpointMismatch`] — when the magic is wrong, the CRC
//! does not match (truncated or corrupted file), a field is malformed or
//! the config/trace hashes differ from the run being resumed; any other
//! format version gets [`SimError::CheckpointVersion`] carrying the
//! version found. A resumed run is bit-identical to one that never
//! stopped; `tests/checkpoint_roundtrip.rs` proves it across seeds,
//! checkpoint cycles and active fault injection.
//!
//! `u64` values are 16-digit hex strings because the JSON number line
//! (`f64`) is only exact up to ±2^53; Hierarchical-Z entries travel as
//! `f32::to_bits` words for the same reason (`+inf` has no JSON
//! rendering at all).
//!
//! Bulk bytes — the memory image and each kept frame — are **sparse hex
//! extents**, `[offset, "hex…", offset, "hex…", …]`: each offset a
//! multiple of 4096 at or past the end of the extent before it, each
//! string two lowercase hex digits per byte, every extent inside the
//! image (`memory_len`, or `width × height × 4`). The memory image's
//! extents are its maximal runs of 4 KiB pages that are not all zero; an
//! omitted page *is* zero. That is sound because a body is only ever
//! loaded into a machine fresh from `Gpu::new`, whose image is all zeros:
//! restore writes the extents and touches nothing else, so a checkpoint
//! costs what its live bytes cost and not what the 64 MiB image would. A
//! frame is one extent holding every byte — its size comes from the
//! file, and the decoder never allocates more than the hex it was given.
//!
//! Hex inside JSON, not a binary container, because the file is read as
//! text: by `attila_json::parse`, by `grep`, by the tests that find
//! `"version"` by search, by people. Hex, not base64 (2 characters per
//! byte against 1.33): a byte is a character pair, so a page boundary is
//! a character boundary and an address can be found in the file by
//! counting; both directions are one table lookup per digit; and with
//! the zero pages gone the remaining third is cheaper than another codec.

use std::path::Path;

use attila_json::Json;
use attila_mem::{
    BankFsm, BankSnapshot, BlockState, CacheLineState, CacheState, Client, Direction, GddrState,
    MemControllerState, RopCacheState,
};
use attila_sim::{
    FaultInjectorState, MemFaultsState, SignalFaultsState, SimError, StatSnapshotEntry,
    StatsSnapshot,
};

use crate::colorwrite::ColorWriteState;
use crate::command_processor::CommandProcessorState;
use crate::commands::GpuCommand;
use crate::config::GpuConfig;
use crate::ffifo::FragmentFifoState;
use crate::gpu::FrameDump;
use crate::hz::HzState;
use crate::streamer::StreamerState;
use crate::texunit::TextureUnitState;
use crate::zstencil::ZStencilState;

/// File magic: the first field of every checkpoint.
pub const MAGIC: &str = "ATTILA-CKPT";

/// Current checkpoint format version. Bump on any body-layout change;
/// restore refuses older or newer versions outright.
///
/// Version history: 1 = flat open-page DRAM state; 2 = per-bank FSM
/// snapshots (`banks` replaces `open_pages` in each channel); 3 = bulk
/// bytes as sparse hex extents (replacing `[count, value, …]` run
/// lengths).
pub const FORMAT_VERSION: u64 = 3;

/// Most bytes [`Checkpoint::write_file`] hands to one `write` call.
const WRITE_CHUNK: usize = 64 << 10;

// ---------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------

/// Streaming FNV-1a 64-bit hasher (dependency-free, deterministic).
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
        self.write_bytes(&[0xff]); // field separator
    }
}

/// FNV-1a-64 over the config's compact JSON rendering: two configs hash
/// equal exactly when every one of their ~100 parameters matches.
pub fn config_hash(config: &GpuConfig) -> u64 {
    let json = <GpuConfig as attila_json::ToJson>::to_json(config);
    let mut h = Fnv(Fnv::OFFSET);
    h.write_bytes(json.render().as_bytes());
    h.0
}

/// FNV-1a-64 over a canonical per-command encoding of the trace: the
/// mnemonic plus every timing-relevant field, including the full payload
/// bytes of buffer uploads. A checkpoint taken against one trace refuses
/// to restore against another.
pub fn trace_hash(commands: &[GpuCommand]) -> u64 {
    extend_trace_hash(Fnv::OFFSET, commands)
}

/// [`trace_hash`] of a trace that went on with `commands` after hashing
/// to `hash`: FNV's whole state is the value it reports, so a trace
/// hashed in any number of chunks hashes as the whole. The machine
/// advances its hash as commands are enqueued and a capture reads it in
/// O(1).
pub fn extend_trace_hash(hash: u64, commands: &[GpuCommand]) -> u64 {
    let mut h = Fnv(hash);
    for c in commands {
        h.write_str(c.mnemonic());
        match c {
            GpuCommand::SetState(s) => {
                h.write_u32(s.target_width);
                h.write_u32(s.target_height);
                h.write_u64(s.color_buffer);
                h.write_u64(s.z_buffer);
                h.write_u32(s.varying_count);
                h.write_u32(s.cull as u32);
                h.write_u32(u32::from(s.depth.enabled));
                h.write_u32(u32::from(s.blend.enabled));
            }
            GpuCommand::WriteBuffer { address, data } => {
                h.write_u64(*address);
                h.write_u64(data.len() as u64);
                h.write_bytes(data);
            }
            GpuCommand::LoadPrograms | GpuCommand::Swap => {}
            GpuCommand::Draw(d) => {
                h.write_u32(d.primitive as u32);
                h.write_u32(d.vertex_count);
                h.write_u32(u32::from(d.index_buffer.is_some()));
                h.write_u64(d.index_buffer.unwrap_or(0));
            }
            GpuCommand::FastClearColor(v) | GpuCommand::FastClearZStencil(v) => {
                h.write_u32(*v);
            }
        }
    }
    h.0
}

/// Slicing-by-8 tables: `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight input bytes fold in one step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    while i < 8 * 256 {
        let prev = t[i / 256 - 1][i % 256];
        t[i / 256][i % 256] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
        i += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial) over `bytes` — a checkpoint's
/// `body_crc` is this over the body's compact rendering.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xffff_ffffu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = (crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]])).to_le_bytes();
        crc = t[7][lo[0] as usize]
            ^ t[6][lo[1] as usize]
            ^ t[5][lo[2] as usize]
            ^ t[4][lo[3] as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    crc ^ 0xffff_ffff
}

// ---------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------

fn mismatch(reason: impl Into<String>) -> SimError {
    SimError::CheckpointMismatch { reason: reason.into() }
}

fn hex64(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn parse_hex64(j: &Json, what: &str) -> Result<u64, SimError> {
    let Json::Str(s) = j else {
        return Err(mismatch(format!("{what}: expected hex string, got {}", j.type_name())));
    };
    u64::from_str_radix(s, 16).map_err(|_| mismatch(format!("{what}: bad hex string `{s}`")))
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, SimError> {
    obj.get(key).ok_or_else(|| mismatch(format!("missing field `{key}`")))
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, SimError> {
    parse_hex64(field(obj, key)?, key)
}

/// A non-negative integer that JSON's `f64` carries exactly and `T` holds.
fn as_int<T: TryFrom<u64>>(j: &Json, what: &str) -> Result<T, SimError> {
    j.as_f64()
        .filter(|v| *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53))
        .and_then(|v| T::try_from(v as u64).ok())
        .ok_or_else(|| mismatch(format!("`{what}` is not a non-negative integer in range")))
}

fn get_int<T: TryFrom<u64>>(obj: &Json, key: &str) -> Result<T, SimError> {
    as_int(field(obj, key)?, key)
}

fn get_bool(obj: &Json, key: &str) -> Result<bool, SimError> {
    match field(obj, key)? {
        Json::Bool(b) => Ok(*b),
        other => Err(mismatch(format!("field `{key}` is not a bool, got {}", other.type_name()))),
    }
}

fn get_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, SimError> {
    field(obj, key)?
        .as_str()
        .ok_or_else(|| mismatch(format!("field `{key}` is not a string")))
}

/// Every element of the array field `key`, through `item`.
fn get_vec<T>(
    obj: &Json,
    key: &str,
    item: impl FnMut(&Json) -> Result<T, SimError>,
) -> Result<Vec<T>, SimError> {
    match field(obj, key)? {
        Json::Arr(items) => items.iter().map(item).collect(),
        other => Err(mismatch(format!("field `{key}` is not an array, got {}", other.type_name()))),
    }
}

/// `null` as `None`, anything else through `some`.
fn opt_from_json<T>(
    j: &Json,
    some: impl FnOnce(&Json) -> Result<T, SimError>,
) -> Result<Option<T>, SimError> {
    match j {
        Json::Null => Ok(None),
        j => some(j).map(Some),
    }
}

fn num(v: impl Into<f64>) -> Json {
    Json::Num(v.into())
}

/// Every item of `items`, through `item`, as an array.
fn arr<T>(items: &[T], item: impl Fn(&T) -> Json) -> Json {
    Json::Arr(items.iter().map(item).collect())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

// ---------------------------------------------------------------------
// Sparse hex extents
// ---------------------------------------------------------------------

/// Extent granularity: the host's page, so a sparse image costs what the
/// pages it touched cost — to scan for, to write and to restore.
const PAGE: usize = 4096;

/// Bulk bytes without their all-zero pages: every byte of the dense
/// image outside `extents` is zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseBytes {
    /// Length of the dense image.
    pub len: usize,
    /// `(offset, bytes)` runs: page-aligned offsets, ascending, disjoint,
    /// inside `len`.
    pub extents: Vec<(usize, Vec<u8>)>,
}

impl SparseBytes {
    /// The maximal runs of non-zero pages of `bytes`, found with one
    /// page-sized slice compare (a `memcmp`) per page and copied; zero
    /// pages are not copied and, in a lazily-zeroed image, never made
    /// resident.
    pub fn scan(bytes: &[u8]) -> Self {
        let live = |page: &&[u8]| **page != [0u8; PAGE][..page.len()];
        let mut extents = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let run: usize = bytes[at..].chunks(PAGE).take_while(live).map(<[u8]>::len).sum();
            if run > 0 {
                extents.push((at, bytes[at..at + run].to_vec()));
            }
            at += run.max(PAGE);
        }
        SparseBytes { len: bytes.len(), extents }
    }

    /// Bytes the extents hold.
    pub fn live_bytes(&self) -> usize {
        self.extents.iter().map(|(_, bytes)| bytes.len()).sum()
    }

    /// The extents as `[offset, "hex…", offset, "hex…", …]`.
    pub fn to_json(&self) -> Json {
        extents_to_json(self.extents.iter().map(|(at, bytes)| (*at, &bytes[..])))
    }

    /// Decodes [`to_json`](Self::to_json)'s array for an image of `len`
    /// bytes, allocating only what the hex strings hold, whatever `len`
    /// claims.
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointMismatch`] for odd-length or non-hex text
    /// and for an extent that is unaligned, out of order, overlapping or
    /// past `len`.
    pub fn from_json(j: &Json, len: usize, what: &str) -> Result<Self, SimError> {
        let items = match j {
            Json::Arr(items) if items.len().is_multiple_of(2) => items,
            _ => return Err(mismatch(format!("{what}: not an array of offset, hex pairs"))),
        };
        let mut extents = Vec::with_capacity(items.len() / 2);
        let mut end = 0usize;
        for pair in items.chunks(2) {
            let at: usize = as_int(&pair[0], "extent offset")?;
            if !at.is_multiple_of(PAGE) || at < end {
                return Err(mismatch(format!(
                    "{what}: extent at {at} is unaligned, out of order or overlaps its predecessor"
                )));
            }
            let bytes = pair[1].as_str().and_then(hex_decode).ok_or_else(|| {
                mismatch(format!("{what}: extent at {at} is not a string of lowercase hex pairs"))
            })?;
            end = at.checked_add(bytes.len()).filter(|end| *end <= len).ok_or_else(|| {
                mismatch(format!("{what}: extent at {at} runs past the image's {len} bytes"))
            })?;
            extents.push((at, bytes));
        }
        Ok(SparseBytes { len, extents })
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Value of each lowercase hex digit; `0xff` for every other byte.
const HEX_VALUES: [u8; 256] = {
    let mut values = [0xffu8; 256];
    let mut i = 0;
    while i < 16 {
        values[HEX_DIGITS[i] as usize] = i as u8;
        i += 1;
    }
    values
};

fn extents_to_json<'a>(extents: impl Iterator<Item = (usize, &'a [u8])>) -> Json {
    let mut out = Vec::new();
    for (at, bytes) in extents {
        let mut hex = vec![0u8; bytes.len() * 2];
        for (pair, &b) in hex.chunks_exact_mut(2).zip(bytes) {
            pair[0] = HEX_DIGITS[usize::from(b >> 4)];
            pair[1] = HEX_DIGITS[usize::from(b & 15)];
        }
        out.push(num(at as f64));
        out.push(Json::Str(String::from_utf8(hex).expect("hex digits are ASCII")));
    }
    Json::Arr(out)
}

/// Decodes lowercase hex; `None` for an odd length or any other character.
fn hex_decode(hex: &str) -> Option<Vec<u8>> {
    // An invalid digit's 0xff survives the OR; valid ones stay below 16.
    let mut seen = 0u8;
    let bytes = hex
        .as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            let (hi, lo) = (HEX_VALUES[pair[0] as usize], HEX_VALUES[pair[1] as usize]);
            seen |= hi | lo;
            hi << 4 | lo
        })
        .collect();
    (hex.len().is_multiple_of(2) && seen < 16).then_some(bytes)
}

// ---------------------------------------------------------------------
// State-struct conversions
// ---------------------------------------------------------------------

fn cache_to_json(s: &CacheState) -> Json {
    let lines = arr(&s.lines, |l| {
        obj(vec![
            ("tag", hex64(l.tag)),
            ("valid", Json::Bool(l.valid)),
            ("dirty", Json::Bool(l.dirty)),
            ("last_use", hex64(l.last_use)),
        ])
    });
    obj(vec![
        ("lines", lines),
        ("access_counter", hex64(s.access_counter)),
        ("hits", hex64(s.hits)),
        ("misses", hex64(s.misses)),
        ("blocked", hex64(s.blocked)),
    ])
}

fn cache_from_json(j: &Json) -> Result<CacheState, SimError> {
    let lines = get_vec(j, "lines", |l| {
        Ok(CacheLineState {
            tag: get_u64(l, "tag")?,
            valid: get_bool(l, "valid")?,
            dirty: get_bool(l, "dirty")?,
            last_use: get_u64(l, "last_use")?,
        })
    })?;
    Ok(CacheState {
        lines,
        access_counter: get_u64(j, "access_counter")?,
        hits: get_u64(j, "hits")?,
        misses: get_u64(j, "misses")?,
        blocked: get_u64(j, "blocked")?,
    })
}

fn block_state_to_json(b: &BlockState) -> Json {
    match b {
        BlockState::Cleared => Json::Str("C".into()),
        BlockState::Uncompressed => Json::Str("U".into()),
        BlockState::Compressed { bytes } => num(*bytes),
    }
}

fn block_state_from_json(j: &Json) -> Result<BlockState, SimError> {
    match j {
        Json::Str(s) if s == "C" => Ok(BlockState::Cleared),
        Json::Str(s) if s == "U" => Ok(BlockState::Uncompressed),
        Json::Num(_) => Ok(BlockState::Compressed { bytes: as_int(j, "compressed block bytes")? }),
        other => Err(mismatch(format!("bad block state: {}", other.render()))),
    }
}

fn rop_cache_to_json(s: &RopCacheState) -> Json {
    obj(vec![
        ("cache", cache_to_json(&s.cache)),
        ("base", hex64(s.base)),
        ("len", hex64(s.len)),
        ("blocks", arr(&s.block_states, block_state_to_json)),
        ("clear_word", num(s.clear_word)),
        ("bytes_transferred", hex64(s.bytes_transferred)),
        ("bytes_uncompressed_equiv", hex64(s.bytes_uncompressed_equiv)),
        ("fast_clears", hex64(s.fast_clears)),
    ])
}

fn rop_cache_from_json(j: &Json) -> Result<RopCacheState, SimError> {
    Ok(RopCacheState {
        cache: cache_from_json(field(j, "cache")?)?,
        base: get_u64(j, "base")?,
        len: get_u64(j, "len")?,
        block_states: get_vec(j, "blocks", block_state_from_json)?,
        clear_word: get_int(j, "clear_word")?,
        bytes_transferred: get_u64(j, "bytes_transferred")?,
        bytes_uncompressed_equiv: get_u64(j, "bytes_uncompressed_equiv")?,
        fast_clears: get_u64(j, "fast_clears")?,
    })
}

/// Bank FSM state as a compact tagged array: `"I"` (idle),
/// `["A", row]` (active), `["G", row, ready_at]` (activating — "going
/// active"), `["P", ready_at]` (precharging).
fn bank_fsm_to_json(s: &BankFsm) -> Json {
    match s {
        BankFsm::Idle => Json::Str("I".into()),
        BankFsm::Active { row } => Json::Arr(vec![Json::Str("A".into()), hex64(*row)]),
        BankFsm::Activating { row, ready_at } => {
            Json::Arr(vec![Json::Str("G".into()), hex64(*row), hex64(*ready_at)])
        }
        BankFsm::Precharging { ready_at } => {
            Json::Arr(vec![Json::Str("P".into()), hex64(*ready_at)])
        }
    }
}

fn bank_fsm_from_json(j: &Json) -> Result<BankFsm, SimError> {
    let bad = || mismatch(format!("bad bank state: {}", j.render()));
    match j {
        Json::Str(s) if s == "I" => Ok(BankFsm::Idle),
        Json::Arr(parts) => {
            let Some(Json::Str(tag)) = parts.first() else { return Err(bad()) };
            match (tag.as_str(), parts.len()) {
                ("A", 2) => Ok(BankFsm::Active { row: parse_hex64(&parts[1], "bank row")? }),
                ("G", 3) => Ok(BankFsm::Activating {
                    row: parse_hex64(&parts[1], "bank row")?,
                    ready_at: parse_hex64(&parts[2], "bank ready_at")?,
                }),
                ("P", 2) => {
                    Ok(BankFsm::Precharging { ready_at: parse_hex64(&parts[1], "bank ready_at")? })
                }
                _ => Err(bad()),
            }
        }
        _ => Err(bad()),
    }
}

fn bank_to_json(s: &BankSnapshot) -> Json {
    obj(vec![
        ("state", bank_fsm_to_json(&s.state)),
        ("last_activate", s.last_activate.map_or(Json::Null, hex64)),
        ("row_hits", hex64(s.row_hits)),
        ("row_misses", hex64(s.row_misses)),
        ("row_conflicts", hex64(s.row_conflicts)),
        ("busy_cycles", hex64(s.busy_cycles)),
    ])
}

fn bank_from_json(j: &Json) -> Result<BankSnapshot, SimError> {
    Ok(BankSnapshot {
        state: bank_fsm_from_json(field(j, "state")?)?,
        last_activate: opt_from_json(field(j, "last_activate")?, |c| parse_hex64(c, "activate"))?,
        row_hits: get_u64(j, "row_hits")?,
        row_misses: get_u64(j, "row_misses")?,
        row_conflicts: get_u64(j, "row_conflicts")?,
        busy_cycles: get_u64(j, "busy_cycles")?,
    })
}

fn gddr_to_json(s: &GddrState) -> Json {
    obj(vec![
        ("banks", arr(&s.banks, bank_to_json)),
        ("busy_until", hex64(s.busy_until)),
        (
            "last_dir",
            match s.last_dir {
                Some(Direction::Read) => Json::Str("R".into()),
                Some(Direction::Write) => Json::Str("W".into()),
                None => Json::Null,
            },
        ),
        ("total_transactions", hex64(s.total_transactions)),
        ("total_busy_cycles", hex64(s.total_busy_cycles)),
        ("turnarounds", hex64(s.turnarounds)),
    ])
}

fn gddr_from_json(j: &Json) -> Result<GddrState, SimError> {
    let last_dir = match field(j, "last_dir")? {
        Json::Null => None,
        Json::Str(s) if s == "R" => Some(Direction::Read),
        Json::Str(s) if s == "W" => Some(Direction::Write),
        other => return Err(mismatch(format!("bad last_dir: {}", other.render()))),
    };
    Ok(GddrState {
        banks: get_vec(j, "banks", bank_from_json)?,
        busy_until: get_u64(j, "busy_until")?,
        last_dir,
        total_transactions: get_u64(j, "total_transactions")?,
        total_busy_cycles: get_u64(j, "total_busy_cycles")?,
        turnarounds: get_u64(j, "turnarounds")?,
    })
}

fn mem_ctrl_to_json(s: &MemControllerState) -> Json {
    obj(vec![
        ("channels", arr(&s.channels, gddr_to_json)),
        ("next_clients", arr(&s.next_clients, |&n| num(n as f64))),
        ("queue_slots", arr(&s.queue_slots, |&n| num(n as f64))),
        ("system_bus_free_at", hex64(s.system_bus_free_at)),
        ("bytes_read", hex64(s.bytes_read)),
        ("bytes_written", hex64(s.bytes_written)),
        (
            "per_client_bytes",
            arr(&s.per_client_bytes, |(c, b)| Json::Arr(vec![num(c.code()), hex64(*b)])),
        ),
    ])
}

fn mem_ctrl_from_json(j: &Json) -> Result<MemControllerState, SimError> {
    let per_client_bytes = get_vec(j, "per_client_bytes", |e| {
        let Json::Arr(pair) = e else {
            return Err(mismatch("per_client_bytes entry is not a pair"));
        };
        if pair.len() != 2 {
            return Err(mismatch("per_client_bytes entry is not a pair"));
        }
        let code: u32 = as_int(&pair[0], "client code")?;
        let client = Client::from_code(code)
            .ok_or_else(|| mismatch(format!("unknown client code {code}")))?;
        Ok((client, parse_hex64(&pair[1], "per_client_bytes")?))
    })?;
    Ok(MemControllerState {
        channels: get_vec(j, "channels", gddr_from_json)?,
        next_clients: get_vec(j, "next_clients", |n| as_int(n, "next_clients"))?,
        queue_slots: get_vec(j, "queue_slots", |n| as_int(n, "queue_slots"))?,
        system_bus_free_at: get_u64(j, "system_bus_free_at")?,
        bytes_read: get_u64(j, "bytes_read")?,
        bytes_written: get_u64(j, "bytes_written")?,
        per_client_bytes,
    })
}

fn stats_to_json(s: &StatsSnapshot) -> Json {
    let entries = arr(&s.entries, |e| {
        obj(vec![
            ("name", Json::Str(e.name.clone())),
            ("counter", Json::Bool(e.is_counter)),
            ("total", hex64(e.total)),
            ("gauge", num(e.gauge)),
            ("windows", arr(&e.windows, |&w| num(w))),
            ("last_total", hex64(e.last_total)),
        ])
    });
    obj(vec![
        ("entries", entries),
        ("windows_closed", num(s.windows_closed as f64)),
    ])
}

fn stats_from_json(j: &Json) -> Result<StatsSnapshot, SimError> {
    let entries = get_vec(j, "entries", |e| {
        Ok(StatSnapshotEntry {
            name: get_str(e, "name")?.to_string(),
            is_counter: get_bool(e, "counter")?,
            total: get_u64(e, "total")?,
            gauge: field(e, "gauge")?.as_f64().ok_or_else(|| mismatch("bad stats gauge"))?,
            windows: get_vec(e, "windows", |w| {
                w.as_f64().ok_or_else(|| mismatch("bad stats window"))
            })?,
            last_total: get_u64(e, "last_total")?,
        })
    })?;
    Ok(StatsSnapshot { entries, windows_closed: get_int(j, "windows_closed")? })
}

fn fault_to_json(s: &FaultInjectorState) -> Json {
    let hooks = arr(&s.hooks, |h| {
        obj(vec![
            ("signal", Json::Str(h.signal.clone())),
            ("write_index", hex64(h.write_index)),
            ("hits", hex64(h.hits)),
        ])
    });
    let mem = s.mem.as_ref().map_or(Json::Null, |m| {
        obj(vec![
            ("replies_seen", hex64(m.replies_seen)),
            ("stall_cycles_served", hex64(m.stall_cycles_served)),
            ("bits_flipped", hex64(m.bits_flipped)),
        ])
    });
    obj(vec![("rng_state", hex64(s.rng_state)), ("hooks", hooks), ("mem", mem)])
}

fn fault_from_json(j: &Json) -> Result<FaultInjectorState, SimError> {
    let hooks = get_vec(j, "hooks", |h| {
        Ok(SignalFaultsState {
            signal: get_str(h, "signal")?.to_string(),
            write_index: get_u64(h, "write_index")?,
            hits: get_u64(h, "hits")?,
        })
    })?;
    let mem = opt_from_json(field(j, "mem")?, |m| {
        Ok(MemFaultsState {
            replies_seen: get_u64(m, "replies_seen")?,
            stall_cycles_served: get_u64(m, "stall_cycles_served")?,
            bits_flipped: get_u64(m, "bits_flipped")?,
        })
    })?;
    Ok(FaultInjectorState { rng_state: get_u64(j, "rng_state")?, hooks, mem })
}

fn frame_to_json(f: &FrameDump) -> Json {
    obj(vec![
        ("width", num(f.width)),
        ("height", num(f.height)),
        // One extent with every byte: the file says how big a frame is,
        // so the decoder believes only the bytes that are there.
        ("rgba", extents_to_json(std::iter::once((0, &f.rgba[..])))),
    ])
}

fn frame_from_json(j: &Json) -> Result<FrameDump, SimError> {
    let width: u32 = get_int(j, "width")?;
    let height: u32 = get_int(j, "height")?;
    let len = (width as usize)
        .checked_mul(height as usize)
        .and_then(|n| n.checked_mul(4))
        .ok_or_else(|| mismatch("frame: size overflows usize"))?;
    let sparse = SparseBytes::from_json(field(j, "rgba")?, len, "frame")?;
    match <[_; 1]>::try_from(sparse.extents) {
        Ok([(0, rgba)]) if rgba.len() == len => Ok(FrameDump { width, height, rgba }),
        _ => Err(mismatch(format!("frame: {width}x{height} needs one extent of {len} bytes"))),
    }
}

fn cp_to_json(s: &CommandProcessorState) -> Json {
    obj(vec![
        ("next_upload_id", hex64(s.next_upload_id)),
        ("next_batch_id", hex64(s.next_batch_id)),
        ("last_draw_early", s.last_draw_early.map_or(Json::Null, Json::Bool)),
    ])
}

fn cp_from_json(j: &Json) -> Result<CommandProcessorState, SimError> {
    let last_draw_early = match field(j, "last_draw_early")? {
        Json::Null => None,
        Json::Bool(b) => Some(*b),
        other => return Err(mismatch(format!("bad last_draw_early: {}", other.render()))),
    };
    Ok(CommandProcessorState {
        next_upload_id: get_u64(j, "next_upload_id")?,
        next_batch_id: get_u64(j, "next_batch_id")?,
        last_draw_early,
    })
}

fn streamer_to_json(s: &StreamerState) -> Json {
    obj(vec![
        ("index_chunks", arr(&s.index_chunks, |&c| hex64(c))),
        ("next_req_id", hex64(s.next_req_id)),
        ("ids_issued", hex64(s.ids_issued)),
    ])
}

fn streamer_from_json(j: &Json) -> Result<StreamerState, SimError> {
    Ok(StreamerState {
        index_chunks: get_vec(j, "index_chunks", |c| parse_hex64(c, "index_chunks"))?,
        next_req_id: get_u64(j, "next_req_id")?,
        ids_issued: get_u64(j, "ids_issued")?,
    })
}

fn hz_to_json(s: &HzState) -> Json {
    obj(vec![
        ("entry_bits", arr(&s.entry_bits, |&b| num(b))),
        ("target_width", num(s.target_width)),
        (
            "bound_z",
            s.bound_z
                .map_or(Json::Null, |(base, w, h)| Json::Arr(vec![hex64(base), num(w), num(h)])),
        ),
        ("ids_issued", hex64(s.ids_issued)),
    ])
}

fn hz_from_json(j: &Json) -> Result<HzState, SimError> {
    let bound_z = opt_from_json(field(j, "bound_z")?, |t| match t {
        Json::Arr(t) if t.len() == 3 => Ok((
            parse_hex64(&t[0], "bound_z")?,
            as_int(&t[1], "bound_z width")?,
            as_int(&t[2], "bound_z height")?,
        )),
        other => Err(mismatch(format!("bad bound_z: {}", other.render()))),
    })?;
    Ok(HzState {
        entry_bits: get_vec(j, "entry_bits", |b| as_int(b, "HZ entry bits"))?,
        target_width: get_int(j, "target_width")?,
        bound_z,
        ids_issued: get_u64(j, "ids_issued")?,
    })
}

fn ffifo_to_json(s: &FragmentFifoState) -> Json {
    obj(vec![
        ("next_order", hex64(s.next_order)),
        ("next_tex_id", hex64(s.next_tex_id)),
        ("next_tu", num(s.next_tu as f64)),
        ("ids_issued", hex64(s.ids_issued)),
    ])
}

fn ffifo_from_json(j: &Json) -> Result<FragmentFifoState, SimError> {
    Ok(FragmentFifoState {
        next_order: get_u64(j, "next_order")?,
        next_tex_id: get_u64(j, "next_tex_id")?,
        next_tu: get_int(j, "next_tu")?,
        ids_issued: get_u64(j, "ids_issued")?,
    })
}

fn texunit_to_json(s: &TextureUnitState) -> Json {
    obj(vec![
        ("cache", cache_to_json(&s.cache)),
        ("next_req_id", hex64(s.next_req_id)),
    ])
}

fn texunit_from_json(j: &Json) -> Result<TextureUnitState, SimError> {
    Ok(TextureUnitState {
        cache: cache_from_json(field(j, "cache")?)?,
        next_req_id: get_u64(j, "next_req_id")?,
    })
}

fn zstencil_to_json(s: &ZStencilState) -> Json {
    obj(vec![
        ("cache", s.cache.as_ref().map_or(Json::Null, rop_cache_to_json)),
        ("target_width", num(s.target_width)),
        ("prefer_late", Json::Bool(s.prefer_late)),
        ("next_req_id", hex64(s.next_req_id)),
    ])
}

fn zstencil_from_json(j: &Json) -> Result<ZStencilState, SimError> {
    Ok(ZStencilState {
        cache: opt_from_json(field(j, "cache")?, rop_cache_from_json)?,
        target_width: get_int(j, "target_width")?,
        prefer_late: get_bool(j, "prefer_late")?,
        next_req_id: get_u64(j, "next_req_id")?,
    })
}

fn colorwrite_to_json(s: &ColorWriteState) -> Json {
    obj(vec![
        ("cache", s.cache.as_ref().map_or(Json::Null, rop_cache_to_json)),
        ("prefer_late", Json::Bool(s.prefer_late)),
        ("next_req_id", hex64(s.next_req_id)),
    ])
}

fn colorwrite_from_json(j: &Json) -> Result<ColorWriteState, SimError> {
    Ok(ColorWriteState {
        cache: opt_from_json(field(j, "cache")?, rop_cache_from_json)?,
        prefer_late: get_bool(j, "prefer_late")?,
        next_req_id: get_u64(j, "next_req_id")?,
    })
}

// ---------------------------------------------------------------------
// The checkpoint body and container
// ---------------------------------------------------------------------

/// Health counters of one signal, restored so a resumed run's failure
/// reports and signal statistics match a never-stopped run's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalCounterState {
    /// The signal's registered name.
    pub name: String,
    /// Objects written so far.
    pub written: u64,
    /// Objects read so far.
    pub read: u64,
    /// Objects lost so far (lossy/isolated wires).
    pub lost: u64,
}

/// The machine state carried by a checkpoint: everything persistent, and
/// nothing else (the quiescence condition guarantees transient state is
/// empty when a snapshot is taken).
#[derive(Debug, Clone)]
pub struct CheckpointBody {
    /// Global cycle counter at the snapshot.
    pub cycle: u64,
    /// Frames completed (swaps) so far.
    pub frames: u64,
    /// Cycles the idle-skip scheduler jumped so far.
    pub cycles_skipped: u64,
    /// Steps left on the horizon poll's `Busy`-verdict cache. Restoring
    /// it keeps a resumed run's skip decisions — and so its
    /// `cycles_skipped` counter — bit-identical to an uninterrupted run.
    pub horizon_backoff: u64,
    /// Commands the Command Processor has fully consumed; restore
    /// re-enqueues the rest of the trace from this index.
    pub commands_consumed: u64,
    /// The GPU memory image, without its all-zero pages.
    pub memory: SparseBytes,
    /// Framebuffer dumps accumulated so far (when
    /// [`keep_frames`](crate::gpu::Gpu::keep_frames) is on).
    pub framebuffers: Vec<FrameDump>,
    /// Memory-controller and DRAM-channel state.
    pub mem_ctrl: MemControllerState,
    /// Command Processor registers.
    pub cp: CommandProcessorState,
    /// Streamer state.
    pub streamer: StreamerState,
    /// Primitive Assembly object-id cursor.
    pub pa_ids: u64,
    /// Triangle Setup object-id cursor.
    pub setup_ids: u64,
    /// Fragment Generator object-id cursor.
    pub fraggen_ids: u64,
    /// Hierarchical Z buffer and registers.
    pub hz: HzState,
    /// Interpolator round-robin cursor.
    pub interpolator_next_input: usize,
    /// Fragment FIFO cursors.
    pub ffifo: FragmentFifoState,
    /// Per-texture-unit state, in unit order.
    pub texunits: Vec<TextureUnitState>,
    /// Per-ROPz-unit state, in unit order.
    pub zstencil: Vec<ZStencilState>,
    /// Per-ROPc-unit state, in unit order.
    pub colorwrite: Vec<ColorWriteState>,
    /// DAC read-request id cursor.
    pub dac_next_id: u64,
    /// Every statistic's counters and windows.
    pub stats: StatsSnapshot,
    /// Per-signal health counters, in name order.
    pub signals: Vec<SignalCounterState>,
    /// Fault-injector progress, when the run is chaos-tested.
    pub fault: Option<FaultInjectorState>,
}

impl CheckpointBody {
    fn to_json(&self) -> Json {
        obj(vec![
            ("cycle", hex64(self.cycle)),
            ("frames", hex64(self.frames)),
            ("cycles_skipped", hex64(self.cycles_skipped)),
            ("horizon_backoff", hex64(self.horizon_backoff)),
            ("commands_consumed", hex64(self.commands_consumed)),
            ("memory_len", num(self.memory.len as f64)),
            ("memory", self.memory.to_json()),
            ("framebuffers", arr(&self.framebuffers, frame_to_json)),
            ("mem_ctrl", mem_ctrl_to_json(&self.mem_ctrl)),
            ("cp", cp_to_json(&self.cp)),
            ("streamer", streamer_to_json(&self.streamer)),
            ("pa_ids", hex64(self.pa_ids)),
            ("setup_ids", hex64(self.setup_ids)),
            ("fraggen_ids", hex64(self.fraggen_ids)),
            ("hz", hz_to_json(&self.hz)),
            ("interpolator_next_input", num(self.interpolator_next_input as f64)),
            ("ffifo", ffifo_to_json(&self.ffifo)),
            ("texunits", arr(&self.texunits, texunit_to_json)),
            ("zstencil", arr(&self.zstencil, zstencil_to_json)),
            ("colorwrite", arr(&self.colorwrite, colorwrite_to_json)),
            ("dac_next_id", hex64(self.dac_next_id)),
            ("stats", stats_to_json(&self.stats)),
            (
                "signals",
                arr(&self.signals, |s| {
                    obj(vec![
                        ("name", Json::Str(s.name.clone())),
                        ("written", hex64(s.written)),
                        ("read", hex64(s.read)),
                        ("lost", hex64(s.lost)),
                    ])
                }),
            ),
            ("fault", self.fault.as_ref().map_or(Json::Null, fault_to_json)),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, SimError> {
        let memory =
            SparseBytes::from_json(field(j, "memory")?, get_int(j, "memory_len")?, "memory image")?;
        let signals = get_vec(j, "signals", |s| {
            Ok(SignalCounterState {
                name: get_str(s, "name")?.to_string(),
                written: get_u64(s, "written")?,
                read: get_u64(s, "read")?,
                lost: get_u64(s, "lost")?,
            })
        })?;
        Ok(CheckpointBody {
            cycle: get_u64(j, "cycle")?,
            frames: get_u64(j, "frames")?,
            cycles_skipped: get_u64(j, "cycles_skipped")?,
            horizon_backoff: get_u64(j, "horizon_backoff")?,
            commands_consumed: get_u64(j, "commands_consumed")?,
            memory,
            framebuffers: get_vec(j, "framebuffers", frame_from_json)?,
            mem_ctrl: mem_ctrl_from_json(field(j, "mem_ctrl")?)?,
            cp: cp_from_json(field(j, "cp")?)?,
            streamer: streamer_from_json(field(j, "streamer")?)?,
            pa_ids: get_u64(j, "pa_ids")?,
            setup_ids: get_u64(j, "setup_ids")?,
            fraggen_ids: get_u64(j, "fraggen_ids")?,
            hz: hz_from_json(field(j, "hz")?)?,
            interpolator_next_input: get_int(j, "interpolator_next_input")?,
            ffifo: ffifo_from_json(field(j, "ffifo")?)?,
            texunits: get_vec(j, "texunits", texunit_from_json)?,
            zstencil: get_vec(j, "zstencil", zstencil_from_json)?,
            colorwrite: get_vec(j, "colorwrite", colorwrite_from_json)?,
            dac_next_id: get_u64(j, "dac_next_id")?,
            stats: stats_from_json(field(j, "stats")?)?,
            signals,
            fault: opt_from_json(field(j, "fault")?, fault_from_json)?,
        })
    }
}

/// A versioned, checksummed, hash-guarded checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// FNV-1a-64 of the config's JSON rendering (see [`config_hash`]).
    pub config_hash: u64,
    /// FNV-1a-64 of the trace's canonical encoding (see [`trace_hash`]).
    pub trace_hash: u64,
    /// The machine state.
    pub body: CheckpointBody,
}

impl Checkpoint {
    /// Renders the checkpoint as its on-disk JSON document, computing the
    /// body CRC.
    pub fn to_json(&self) -> Json {
        let body = self.body.to_json();
        let crc = crc32(body.render().as_bytes());
        obj(vec![
            ("magic", Json::Str(MAGIC.into())),
            ("version", num(FORMAT_VERSION as f64)),
            ("config_hash", hex64(self.config_hash)),
            ("trace_hash", hex64(self.trace_hash)),
            ("body_crc", num(crc)),
            ("body", body),
        ])
    }

    /// Parses and validates a checkpoint document: magic, format version
    /// and body CRC are all checked before the body is decoded.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CheckpointMismatch`] on any violation, except
    /// an unsupported format version which yields the typed
    /// [`SimError::CheckpointVersion`].
    pub fn from_json(j: &Json) -> Result<Self, SimError> {
        let magic = get_str(j, "magic")?;
        if magic != MAGIC {
            return Err(mismatch(format!("bad magic `{magic}`, expected `{MAGIC}`")));
        }
        let found: u64 = get_int(j, "version")?;
        if found != FORMAT_VERSION {
            return Err(SimError::CheckpointVersion { found, supported: FORMAT_VERSION });
        }
        let body_json = field(j, "body")?;
        let crc = crc32(body_json.render().as_bytes());
        let stored: u32 = get_int(j, "body_crc")?;
        if crc != stored {
            return Err(mismatch(format!(
                "body CRC mismatch: stored {stored:#010x}, computed {crc:#010x} (truncated or corrupted file)"
            )));
        }
        Ok(Checkpoint {
            config_hash: get_u64(j, "config_hash")?,
            trace_hash: get_u64(j, "trace_hash")?,
            body: CheckpointBody::from_json(body_json)?,
        })
    }

    /// Writes the checkpoint atomically: the document lands in a `.tmp`
    /// sibling, is flushed, then renamed over `path` — a process killed
    /// mid-write always leaves the previous valid checkpoint in place.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CheckpointMismatch`] describing the I/O
    /// failure.
    pub fn write_file(&self, path: &Path) -> Result<(), SimError> {
        self.write_file_sized(path).map(|_| ())
    }

    /// [`write_file`](Self::write_file), returning the bytes written.
    pub(crate) fn write_file_sized(&self, path: &Path) -> Result<u64, SimError> {
        use std::io::Write;
        let text = self.to_json().pretty();
        let tmp = path.with_extension("ckpt.tmp");
        let io = |e: std::io::Error| mismatch(format!("checkpoint write failed: {e}"));
        let mut f = std::fs::File::create(&tmp).map_err(io)?;
        // Bounded writes: one multi-megabyte `write` makes ext4 back it
        // with megabyte page-cache folios, and allocating those took 0.3 ms
        // or 6–13 ms from one checkpoint to the next (EXPERIMENTS.md).
        for part in text.as_bytes().chunks(WRITE_CHUNK) {
            f.write_all(part).map_err(io)?;
        }
        f.sync_all().map_err(io)?;
        drop(f);
        std::fs::rename(&tmp, path).map_err(io)?;
        Ok(text.len() as u64)
    }

    /// Reads and validates a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CheckpointMismatch`] when the file is missing,
    /// unparseable, truncated, corrupted or of the wrong version.
    pub fn read_file(path: &Path) -> Result<Self, SimError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| mismatch(format!("cannot read checkpoint {}: {e}", path.display())))?;
        let json = attila_json::parse(&text)
            .map_err(|e| mismatch(format!("checkpoint is not valid JSON: {e}")))?;
        drop(text); // the tree owns its strings; do not hold the file twice
        Self::from_json(&json)
    }

    /// Checks the checkpoint against the config and trace of the run
    /// being resumed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CheckpointMismatch`] naming the differing
    /// hash.
    pub fn validate_against(
        &self,
        config: &GpuConfig,
        commands: &[GpuCommand],
    ) -> Result<(), SimError> {
        let ch = config_hash(config);
        if ch != self.config_hash {
            return Err(mismatch(format!(
                "config hash mismatch: checkpoint {:016x}, run {ch:016x}",
                self.config_hash
            )));
        }
        let th = trace_hash(commands);
        if th != self.trace_hash {
            return Err(mismatch(format!(
                "trace hash mismatch: checkpoint {:016x}, run {th:016x}",
                self.trace_hash
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        let hash = |bytes: &[u8]| {
            let mut h = Fnv(Fnv::OFFSET);
            h.write_bytes(bytes);
            h.0
        };
        // The reference FNV-1a-64 test vectors for "" and "a".
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 check values: one sliced word and a
        // byte, then five words chained and three bytes.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
    }

    #[test]
    fn extents_skip_zero_pages_and_round_trip() {
        let mut data = vec![0u8; 5 * PAGE + 17];
        data[PAGE] = 7;
        data[3 * PAGE - 1] = 1;
        data[5 * PAGE + 16] = 255;
        let sparse = SparseBytes::scan(&data);
        assert!(sparse.extents.iter().map(|e| e.0).eq([PAGE, 5 * PAGE]));
        assert_eq!(sparse.live_bytes(), 2 * PAGE + 17);
        let enc = sparse.to_json();
        assert_eq!(SparseBytes::from_json(&enc, data.len(), "t").unwrap(), sparse);
        assert!(SparseBytes::from_json(&enc, data.len() - 1, "t").is_err());
        assert_eq!(hex_decode("00ff1a"), Some(vec![0, 255, 26]));
        assert_eq!([hex_decode("0"), hex_decode("0G"), hex_decode("0A")], [None, None, None]);
    }

    #[test]
    fn hex_round_trips_extremes() {
        for v in [0u64, 1, u64::MAX, 1 << 53, (1 << 53) + 1] {
            assert_eq!(parse_hex64(&hex64(v), "t").unwrap(), v);
        }
    }

    #[test]
    fn trace_hash_sees_payload_bytes() {
        use std::sync::Arc;
        let a = vec![GpuCommand::WriteBuffer { address: 0, data: Arc::new(vec![1, 2, 3]) }];
        let b = vec![GpuCommand::WriteBuffer { address: 0, data: Arc::new(vec![1, 2, 4]) }];
        assert_ne!(trace_hash(&a), trace_hash(&b));
        assert_eq!(trace_hash(&a), trace_hash(&a.clone()));
    }

    #[test]
    fn config_hash_distinguishes_presets() {
        assert_ne!(config_hash(&GpuConfig::baseline()), config_hash(&GpuConfig::embedded()));
        assert_eq!(config_hash(&GpuConfig::baseline()), config_hash(&GpuConfig::baseline()));
    }
}
