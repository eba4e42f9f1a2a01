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
//! # File format (version 5)
//!
//! One pretty-printed JSON object, written through the in-repo
//! `attila-json`:
//!
//! ```text
//! {
//!   "magic":       "ATTILA-CKPT",
//!   "version":     5,
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
//! stopped; `tests/checkpoint_roundtrip.rs` proves it across seeds and
//! checkpoint cycles.
//!
//! `u64` values are 16-digit hex strings because the JSON number line
//! (`f64`) is only exact up to ±2^53; Hierarchical-Z entries travel as
//! `f32::to_bits` words for the same reason (`+inf` has no JSON
//! rendering at all).
//!
//! # Who owns what
//!
//! This module owns the container and the body's header: `cycle`,
//! `frames`, `cycles_skipped`, `commands_consumed`, the memory image and
//! the kept frames. Every other key of the body
//! (`mem_ctrl` … `signals`) is the state of one box, and the box's own file
//! both renders and reads it through [`attila_json::JsonState`];
//! [`CheckpointBody::boxes`] carries those keys as the parsed tree and
//! `Gpu`'s own state list pairs each with the field that owns it. Key
//! order *is* the format (`Json::Obj` keeps insertion order; the CRC is
//! over the body's rendering): a change of order, key or encoding is a
//! new [`FORMAT_VERSION`].
//!
//! **Adding a persistent field** is one line: its name in the owner's
//! [`impl_json_state!`](attila_json::impl_json_state) list (`field`,
//! `field: hex` for a `u64`, `field: state` for a nested box, `field as
//! key` where the names differ), which expands to both directions. An
//! encoding that is *derived* rather than 1:1 — a ROP cache rebuilt on the
//! surface the file names, statistics matched by name — is a hand-written
//! `save_state`/`load_state` pair, adjacent, in the owner's file; two
//! functions is the ceiling, and each opens with an exhaustive `let Self {
//! … } = self;`. A field left out goes in the list's `skip { "why": … }`
//! tail (or binds as `field: _` in a pair); one named nowhere is a compile
//! error.
//!
//! **Loaders size by what the file carries.** An allocation is sized by
//! an array that is in the file, then checked against the machine — never
//! by a number the file states: a ROP cache's `len` must equal its
//! `blocks` array × the line size, `hz.bound_z`'s block count its
//! `entry_bits`, `windows_closed` every statistic's `windows`. A refusal
//! names the path to the leaf (`zstencil: [0]: cache: len: …`).
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

use attila_json::{array, field, field_with, FromJson, HexJson, Json, JsonError, ToJson};
use attila_mem::memory::{MemoryImage, PAGE_BYTES};
use attila_sim::SimError;

use crate::commands::GpuCommand;
use crate::config::GpuConfig;
use crate::gpu::FrameDump;

/// File magic: the first field of every checkpoint.
pub const MAGIC: &str = "ATTILA-CKPT";

/// Current checkpoint format version. Bump on any body-layout change;
/// restore refuses older or newer versions outright.
///
/// Version history: 1 = flat open-page DRAM state; 2 = per-bank FSM
/// snapshots (`banks` replaces `open_pages` in each channel); 3 = bulk
/// bytes as sparse hex extents (replacing `[count, value, …]` run
/// lengths); 4 = the horizon back-off counter left the body's header (the
/// clock loop keeps no state between its jumps); 5 = the fault injector's
/// `fault` key left the body (fault injection is gone).
pub const FORMAT_VERSION: u64 = 5;

/// Most bytes [`Checkpoint::write_file`] hands to one `write` call.
const WRITE_CHUNK: usize = 64 << 10;

/// The file end of [`Json::write_pretty`]: text gathers in one
/// [`WRITE_CHUNK`] buffer that goes to the file whenever it fills, so the
/// document is never held whole. The first I/O error stops the writer
/// and is kept for the caller.
struct ChunkedFile {
    file: std::fs::File,
    buf: Vec<u8>,
    written: u64,
    error: Option<std::io::Error>,
}

impl ChunkedFile {
    fn flush_chunk(&mut self) -> std::fmt::Result {
        use std::io::Write;
        let result = self.file.write_all(&self.buf);
        self.written += self.buf.len() as u64;
        self.buf.clear();
        result.map_err(|e| {
            self.error = Some(e);
            std::fmt::Error
        })
    }
}

impl std::fmt::Write for ChunkedFile {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let mut rest = s.as_bytes();
        while !rest.is_empty() {
            let take = rest.len().min(WRITE_CHUNK - self.buf.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() == WRITE_CHUNK {
                self.flush_chunk()?;
            }
        }
        Ok(())
    }
}

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
/// equal exactly when every one of their 100 parameters matches.
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
    crc32_update(0xffff_ffff, bytes) ^ 0xffff_ffff
}

/// Runs the CRC register `crc` over `bytes`; any split of a message into
/// pieces leaves the same register.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    crc
}

/// [`crc32`] of `json.render()`, fed piece by piece as the text is
/// written instead of over a rendered copy of a multi-megabyte body.
fn render_crc32(json: &Json) -> u32 {
    struct Crc(u32);
    impl std::fmt::Write for Crc {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 = crc32_update(self.0, s.as_bytes());
            Ok(())
        }
    }
    let mut crc = Crc(0xffff_ffff);
    json.write_compact(&mut crc).expect("the CRC sink takes every write");
    crc.0 ^ 0xffff_ffff
}

pub(crate) fn mismatch(reason: impl Into<String>) -> SimError {
    SimError::CheckpointMismatch { reason: reason.into() }
}

/// What a state loader refused, as the checkpoint layer's typed error:
/// the one place a [`JsonError`]'s path becomes a refusal reason.
pub(crate) fn refused(e: JsonError) -> SimError {
    mismatch(e.to_string())
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
    /// The maximal runs of non-zero 4 KiB pages of `image`. Only pages the
    /// image holds bytes for are read — a page never written is skipped
    /// without a look — and each of their 4 KiB pages is tested with one
    /// slice compare (a `memcmp`); zero pages are not copied, so a page
    /// written back to all zeros still yields no extent.
    pub fn scan(image: &MemoryImage) -> Self {
        const _: () = assert!(PAGE_BYTES.is_multiple_of(PAGE));
        // `(offset, length)` of each run, grown while the next live 4 KiB
        // page starts where it ends.
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for (index, page) in image.pages().enumerate() {
            let Some(bytes) = page else { continue };
            for (n, chunk) in bytes.chunks(PAGE).enumerate() {
                if *chunk == [0u8; PAGE][..chunk.len()] {
                    continue;
                }
                let at = index * PAGE_BYTES + n * PAGE;
                match runs.last_mut() {
                    Some((start, len)) if *start + *len == at => *len += chunk.len(),
                    _ => runs.push((at, chunk.len())),
                }
            }
        }
        let extents =
            runs.into_iter().map(|(at, len)| (at, image.read_vec(at as u64, len))).collect();
        SparseBytes { len: image.size(), extents }
    }

    /// Writes the extents into `image` and touches nothing else: sound
    /// only for an image that is all zeros, as one fresh from `Gpu::new`
    /// is — and then the omitted pages stay untouched: never written and
    /// never made resident.
    pub(crate) fn write_into(&self, image: &mut MemoryImage) -> Result<(), SimError> {
        let size = image.size();
        if self.len != size {
            return Err(mismatch(format!(
                "memory image is {} bytes, this machine has {size}",
                self.len
            )));
        }
        for (at, bytes) in &self.extents {
            if at.checked_add(bytes.len()).is_none_or(|end| end > size) {
                return Err(mismatch(format!("memory extent at {at} runs past the image")));
            }
            image.write(*at as u64, bytes);
        }
        Ok(())
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
        Self::read_extents(j, len).map_err(|e| refused(e.in_context(what)))
    }

    fn read_extents(j: &Json, len: usize) -> Result<Self, JsonError> {
        let items = match j {
            Json::Arr(items) if items.len().is_multiple_of(2) => items,
            _ => return Err(JsonError::msg("not an array of offset, hex pairs")),
        };
        let mut extents = Vec::with_capacity(items.len() / 2);
        let mut end = 0usize;
        for pair in items.chunks(2) {
            let at = usize::from_json(&pair[0]).map_err(|e| e.in_context("extent offset"))?;
            if !at.is_multiple_of(PAGE) || at < end {
                return Err(JsonError::msg(format!(
                    "extent at {at} is unaligned, out of order or overlaps its predecessor"
                )));
            }
            let bytes = pair[1].as_str().and_then(hex_decode).ok_or_else(|| {
                JsonError::msg(format!("extent at {at} is not a string of lowercase hex pairs"))
            })?;
            end = at.checked_add(bytes.len()).filter(|end| *end <= len).ok_or_else(|| {
                JsonError::msg(format!("extent at {at} runs past the image's {len} bytes"))
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
        out.push(at.to_json());
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
// The checkpoint body and container
// ---------------------------------------------------------------------

fn frame_to_json(f: &FrameDump) -> Json {
    Json::obj([
        ("width", f.width.to_json()),
        ("height", f.height.to_json()),
        // One extent with every byte: the file says how big a frame is,
        // so the decoder believes only the bytes that are there.
        ("rgba", extents_to_json(std::iter::once((0, &f.rgba[..])))),
    ])
}

fn frame_from_json(j: &Json) -> Result<FrameDump, JsonError> {
    let width: u32 = field(j, "width")?;
    let height: u32 = field(j, "height")?;
    let len = (width as usize)
        .checked_mul(height as usize)
        .and_then(|n| n.checked_mul(4))
        .ok_or_else(|| JsonError::msg("size overflows usize"))?;
    let sparse = field_with(j, "rgba", |rgba| SparseBytes::read_extents(rgba, len))?;
    match <[_; 1]>::try_from(sparse.extents) {
        Ok([(0, rgba)]) if rgba.len() == len => Ok(FrameDump { width, height, rgba }),
        _ => Err(JsonError::msg(format!("{width}x{height} needs one extent of {len} bytes"))),
    }
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
    /// Commands the Command Processor has fully consumed; restore
    /// re-enqueues the rest of the trace from this index.
    pub commands_consumed: u64,
    /// The GPU memory image, without its all-zero pages.
    pub memory: SparseBytes,
    /// Framebuffer dumps accumulated so far (when
    /// [`keep_frames`](crate::gpu::Gpu::keep_frames) is on).
    pub framebuffers: Vec<FrameDump>,
    /// Every other key of the body in file order, `mem_ctrl` … `signals`,
    /// as one object: one key per stateful box, holding the tree that box
    /// rendered ([`Gpu::capture_checkpoint`](crate::gpu::Gpu::capture_checkpoint))
    /// and will decode ([`Gpu::restore`](crate::gpu::Gpu::restore)).
    /// Nothing in this module knows their layout.
    pub boxes: Json,
}

impl CheckpointBody {
    /// Keys this module decodes itself; every other one is a box's.
    const TYPED_KEYS: [&str; 7] = [
        "cycle",
        "frames",
        "cycles_skipped",
        "commands_consumed",
        "memory_len",
        "memory",
        "framebuffers",
    ];

    fn to_json(&self) -> Json {
        let typed = [
            ("cycle", self.cycle.to_hex()),
            ("frames", self.frames.to_hex()),
            ("cycles_skipped", self.cycles_skipped.to_hex()),
            ("commands_consumed", self.commands_consumed.to_hex()),
            ("memory_len", self.memory.len.to_json()),
            ("memory", self.memory.to_json()),
            ("framebuffers", Json::Arr(self.framebuffers.iter().map(frame_to_json).collect())),
        ];
        let Json::Obj(boxes) = &self.boxes else { return Json::obj(typed) };
        let boxes = boxes.iter().map(|(key, state)| (key.as_str(), state.clone()));
        Json::obj(typed.into_iter().chain(boxes))
    }

    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let Json::Obj(fields) = j else {
            return Err(JsonError::msg(format!("expected object, found {}", j.type_name())));
        };
        let memory_len = field(j, "memory_len")?;
        Ok(CheckpointBody {
            cycle: field_with(j, "cycle", u64::from_hex)?,
            frames: field_with(j, "frames", u64::from_hex)?,
            cycles_skipped: field_with(j, "cycles_skipped", u64::from_hex)?,
            commands_consumed: field_with(j, "commands_consumed", u64::from_hex)?,
            memory: field_with(j, "memory", |m| SparseBytes::read_extents(m, memory_len))?,
            framebuffers: field_with(j, "framebuffers", |frames| {
                array(frames)?.iter().map(frame_from_json).collect()
            })?,
            boxes: Json::Obj(
                fields
                    .iter()
                    .filter(|(key, _)| !Self::TYPED_KEYS.contains(&key.as_str()))
                    .cloned()
                    .collect(),
            ),
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
        let crc = render_crc32(&body);
        Json::obj([
            ("magic", MAGIC.to_json()),
            ("version", FORMAT_VERSION.to_json()),
            ("config_hash", self.config_hash.to_hex()),
            ("trace_hash", self.trace_hash.to_hex()),
            ("body_crc", crc.to_json()),
            ("body", body),
        ])
    }

    /// Parses and validates a checkpoint document: magic, format version
    /// and body CRC are all checked before the body is decoded. The boxes'
    /// own state is carried as parsed; a malformed leaf there is refused
    /// when [`Gpu::restore`](crate::gpu::Gpu::restore) hands it to its box.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CheckpointMismatch`] on any violation, except
    /// an unsupported format version which yields the typed
    /// [`SimError::CheckpointVersion`].
    pub fn from_json(j: &Json) -> Result<Self, SimError> {
        let magic: String = field(j, "magic").map_err(refused)?;
        if magic != MAGIC {
            return Err(mismatch(format!("bad magic `{magic}`, expected `{MAGIC}`")));
        }
        let found: u64 = field(j, "version").map_err(refused)?;
        if found != FORMAT_VERSION {
            return Err(SimError::CheckpointVersion { found, supported: FORMAT_VERSION });
        }
        let body_json = field_with(j, "body", Ok).map_err(refused)?;
        let crc = render_crc32(body_json);
        let stored: u32 = field(j, "body_crc").map_err(refused)?;
        if crc != stored {
            return Err(mismatch(format!(
                "body CRC mismatch: stored {stored:#010x}, computed {crc:#010x} (truncated or corrupted file)"
            )));
        }
        Ok(Checkpoint {
            config_hash: field_with(j, "config_hash", u64::from_hex).map_err(refused)?,
            trace_hash: field_with(j, "trace_hash", u64::from_hex).map_err(refused)?,
            body: CheckpointBody::from_json(body_json)
                .map_err(|e| refused(e.in_context("body")))?,
        })
    }

    /// Writes the checkpoint atomically: the document lands in a `.tmp`
    /// sibling, is flushed, then renamed over `path` — a process killed
    /// mid-write always leaves the previous valid checkpoint in place, and
    /// a write that fails removes the sibling it created.
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
        let json = self.to_json();
        let tmp = path.with_extension("ckpt.tmp");
        let write = || {
            // Bounded writes: one multi-megabyte `write` makes ext4 back it
            // with megabyte page-cache folios, and allocating those took
            // 0.3 ms or 6–13 ms from one checkpoint to the next
            // (EXPERIMENTS.md).
            let mut out = ChunkedFile {
                file: std::fs::File::create(&tmp)?,
                buf: Vec::with_capacity(WRITE_CHUNK),
                written: 0,
                error: None,
            };
            if json.write_pretty(&mut out).and_then(|()| out.flush_chunk()).is_err() {
                return Err(out
                    .error
                    .take()
                    .unwrap_or_else(|| std::io::Error::other("JSON formatting failed")));
            }
            out.file.sync_all()?;
            drop(out.file);
            std::fs::rename(&tmp, path)?;
            Ok(out.written)
        };
        write().map_err(|e: std::io::Error| {
            // A write that failed part-way must not leave its temp file.
            let _ = std::fs::remove_file(&tmp);
            mismatch(format!("checkpoint write failed: {e}"))
        })
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

    /// An image holding exactly `bytes`.
    fn image_of(bytes: &[u8]) -> MemoryImage {
        let mut image = MemoryImage::new(bytes.len());
        image.write(0, bytes);
        image
    }

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
    fn streamed_crc_is_the_crc_of_the_rendering() {
        // Pieces of every length 1..=9 cross the 8-byte words at every
        // offset; the register does not care where the cuts fall.
        let text = b"The quick brown fox jumps over the lazy dog, twice over: 0123456789";
        for piece in 1..=9 {
            let crc = text.chunks(piece).fold(0xffff_ffff, crc32_update) ^ 0xffff_ffff;
            assert_eq!(crc, crc32(text), "pieces of {piece}");
        }
        let doc = Json::obj([
            ("name", Json::Str("a \"quoted\"\nline".into())),
            ("bytes", SparseBytes::scan(&image_of(&[3u8; 100])).to_json()),
            ("list", Json::Arr(vec![Json::Num(1.5), Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(render_crc32(&doc), crc32(doc.render().as_bytes()));
    }

    #[test]
    fn extents_skip_zero_pages_and_round_trip() {
        let mut data = vec![0u8; 5 * PAGE + 17];
        data[PAGE] = 7;
        data[3 * PAGE - 1] = 1;
        data[5 * PAGE + 16] = 255;
        let sparse = SparseBytes::scan(&image_of(&data));
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
            assert_eq!(u64::from_hex(&v.to_hex()).unwrap(), v);
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
