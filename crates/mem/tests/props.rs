//! Property tests for the memory hierarchy: the cache timing model
//! against a reference set-associative oracle, the paged memory image
//! against a flat byte array, and controller functional coherence under
//! random traffic. Driven by the framework's seeded [`TinyRng`] so runs
//! are reproducible offline.

use std::sync::Arc;

use attila_mem::cache::{Cache, CacheConfig, Lookup};
use attila_mem::memory::{MemoryImage, PAGE_BYTES};
use attila_mem::{Client, MemOp, MemRequest, MemoryController};
use attila_sim::TinyRng;

/// A tiny reference model of a set-associative LRU cache (tags only,
/// fills instantaneous) to pin the steady-state hit/miss behaviour.
struct OracleCache {
    sets: usize,
    ways: usize,
    line: u64,
    frames: Vec<Vec<u64>>, // per set, MRU at the back
}

impl OracleCache {
    fn new(sets: usize, ways: usize, line: u64) -> Self {
        OracleCache { sets, ways, line, frames: vec![Vec::new(); sets] }
    }
    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line;
        let set = (line % self.sets as u64) as usize;
        let tag = line / self.sets as u64;
        let frame = &mut self.frames[set];
        if let Some(pos) = frame.iter().position(|t| *t == tag) {
            frame.remove(pos);
            frame.push(tag);
            true
        } else {
            if frame.len() == self.ways {
                frame.remove(0);
            }
            frame.push(tag);
            false
        }
    }
}

/// With instantaneous fills and one access per cycle, the timing cache's
/// hit/miss sequence matches the oracle exactly.
#[test]
fn cache_matches_oracle() {
    for seed in 0..32u64 {
        let mut rng = TinyRng::new(seed);
        let count = rng.range_u32(1, 300);
        let config = CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64, ports: 1 };
        let mut cache = Cache::new(config, "prop");
        let mut oracle = OracleCache::new(4, 2, 64);
        for cycle in 0..count as u64 {
            let addr = rng.range_u64(0, 4096) & !3;
            let expected_hit = oracle.access(addr);
            match cache.lookup(cycle, addr, false) {
                Lookup::Hit => assert!(expected_hit, "false hit at {addr:#x}, seed {seed}"),
                Lookup::Miss => {
                    assert!(!expected_hit, "false miss at {addr:#x}, seed {seed}");
                    cache.allocate(addr).unwrap();
                    cache.fill_done(addr);
                }
                Lookup::Blocked => panic!("1 access/cycle never blocks, seed {seed}"),
            }
        }
    }
}

/// A range `[at, at + len)` inside `size` bytes that, more often than
/// not, starts, ends or straddles a page boundary.
fn ranged(rng: &mut TinyRng, size: usize) -> (usize, usize) {
    let edge = rng.range_u64(0, size.div_ceil(PAGE_BYTES) as u64 + 1) as usize * PAGE_BYTES;
    let near = |rng: &mut TinyRng| rng.range_u64(0, 9) as usize;
    let len = match rng.range_u64(0, 4) {
        0 => rng.range_u64(1, 9) as usize,
        1 => rng.range_u64(1, PAGE_BYTES as u64) as usize,
        _ => rng.range_u64(1, 3 * PAGE_BYTES as u64) as usize,
    };
    let at = match rng.range_u64(0, 4) {
        0 => edge.saturating_sub(near(rng)),                  // ends on or just past an edge
        1 => edge + near(rng),                                // starts on or just past one
        2 => edge.saturating_sub(len.saturating_sub(near(rng))), // ends near one
        _ => rng.range_u64(0, size as u64) as usize,
    }
    .min(size);
    (at, len.min(size - at))
}

/// Every operation of the paged image, against a flat `Vec<u8>`: seeded
/// sequences of writes, word writes, fills, uploads and reads over ranges
/// that start, end and straddle page boundaries agree byte for byte, and
/// no write ever reaches an upload's own bytes (copy-on-write).
#[test]
fn memory_image_matches_a_flat_model() {
    for seed in 0..64u64 {
        let mut rng = TinyRng::new(seed ^ 0x1a6e);
        let pages = rng.range_u64(1, 6) as usize;
        let size = pages * PAGE_BYTES - if rng.coin() { 0 } else { rng.range_u64(1, 999) as usize };
        let mut image = MemoryImage::new(size);
        let mut flat = vec![0u8; size];
        let mut uploads: Vec<(Arc<Vec<u8>>, Vec<u8>)> = Vec::new();
        for step in 0..200 {
            let (at, len) = ranged(&mut rng, size);
            let byte = rng.next_u64() as u8;
            match rng.range_u64(0, 6) {
                0 => {
                    let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    image.write(at as u64, &data);
                    flat[at..at + len].copy_from_slice(&data);
                }
                1 if at + 4 <= size => {
                    let word = rng.next_u64() as u32;
                    image.write_u32(at as u64, word);
                    flat[at..at + 4].copy_from_slice(&word.to_le_bytes());
                    assert_eq!(image.read_u32(at as u64), word, "seed {seed} step {step}");
                }
                2 => {
                    let byte = if rng.coin() { 0 } else { byte };
                    image.fill(at as u64, len, byte);
                    flat[at..at + len].fill(byte);
                }
                3 => {
                    let word = if rng.coin() { 0 } else { rng.next_u64() as u32 };
                    let words = len / 4;
                    image.fill_u32(at as u64, words, word);
                    let pattern = word.to_le_bytes();
                    for (i, b) in flat[at..at + words * 4].iter_mut().enumerate() {
                        *b = pattern[i % 4];
                    }
                }
                4 => {
                    let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    let upload = Arc::new(data.clone());
                    image.write_shared(at as u64, &upload);
                    flat[at..at + len].copy_from_slice(&data);
                    uploads.push((upload, data));
                }
                _ => {
                    let mut buf = vec![0u8; len];
                    image.read(at as u64, &mut buf);
                    assert!(buf == flat[at..at + len], "seed {seed} step {step}: read {at}+{len}");
                }
            }
        }
        assert!(image.read_vec(0, size) == flat, "seed {seed}: the images differ");
        for (n, (upload, bytes)) in uploads.iter().enumerate() {
            assert!(**upload == *bytes, "seed {seed}: upload {n} was written through");
        }
    }
}

/// Reads through the controller always return the latest functionally
/// written data, for arbitrary interleavings of clients and addresses.
#[test]
fn controller_reads_see_latest_writes() {
    for seed in 0..12u64 {
        let mut rng = TinyRng::new(seed);
        let count = rng.range_u32(1, 40);
        let mut ctl = MemoryController::new(Default::default(), 1 << 16);
        let mut shadow = vec![0u8; 1 << 16];
        let mut cycle = 0u64;
        for id in 1..=count as u64 {
            let addr = rng.range_u64(0, 64) * 64;
            if rng.coin() {
                let val = rng.range_u32(0, 255) as u8;
                shadow[addr as usize..addr as usize + 64].fill(val);
                ctl.submit(MemRequest {
                    id,
                    client: Client::ColorWrite(0),
                    addr,
                    op: MemOp::Write { data: vec![val; 64] },
                })
                .unwrap();
                // Drain until the write completes (same-channel ordering
                // makes this deterministic).
                loop {
                    ctl.clock(cycle);
                    cycle += 1;
                    if ctl.pop_reply(Client::ColorWrite(0)).is_some() {
                        break;
                    }
                    assert!(cycle < 100_000, "seed {seed}");
                }
            } else {
                ctl.submit(MemRequest {
                    id,
                    client: Client::Texture(0),
                    addr,
                    op: MemOp::Read { size: 64 },
                })
                .unwrap();
                let data = loop {
                    ctl.clock(cycle);
                    cycle += 1;
                    if let Some(r) = ctl.pop_reply(Client::Texture(0)) {
                        break r.data;
                    }
                    assert!(cycle < 100_000, "seed {seed}");
                };
                assert_eq!(
                    &data[..],
                    &shadow[addr as usize..addr as usize + 64],
                    "seed {seed}"
                );
            }
        }
    }
}

/// Timing ops never corrupt the functional image.
#[test]
fn timing_ops_leave_image_untouched() {
    for seed in 0..16u64 {
        let mut rng = TinyRng::new(seed);
        let count = rng.range_u32(1, 20);
        let mut ctl = MemoryController::new(Default::default(), 1 << 12);
        for i in 0..(1u64 << 12) / 4 {
            ctl.gpu_mem_mut().write_u32(i * 4, i as u32);
        }
        let mut cycle = 0;
        for i in 0..count as u64 {
            let addr = rng.range_u64(0, 32) * 64;
            let op = if i % 2 == 0 {
                MemOp::TimingRead { size: 64 }
            } else {
                MemOp::TimingWrite { size: 64 }
            };
            ctl.submit(MemRequest { id: i, client: Client::Dac, addr, op }).unwrap();
        }
        for _ in 0..10_000 {
            ctl.clock(cycle);
            cycle += 1;
            while ctl.pop_reply(Client::Dac).is_some() {}
            if !ctl.busy() {
                break;
            }
        }
        for i in 0..(1u64 << 12) / 4 {
            assert_eq!(ctl.gpu_mem().read_u32(i * 4), i as u32, "seed {seed}");
        }
    }
}
