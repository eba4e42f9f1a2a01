//! Backing storage: the GPU and system memory images.
//!
//! ATTILA is execution driven: the bytes a unit reads from memory are the
//! bytes an earlier unit (or the Command Processor) actually wrote. The
//! [`MemoryImage`] holds those bytes; all *timing* lives in the
//! [`controller`](crate::controller) and [`gddr`](crate::gddr) models.
//!
//! The image is a page table over its own zero-allocated bytes, so what
//! it costs follows what a run touches, not the memory it configures: a
//! page nobody wrote is never made resident and never scanned, and a page
//! an upload covers whole is a reference to the upload's own bytes until
//! something writes into it.

use std::fmt;
use std::sync::Arc;

/// Bytes per page of a [`MemoryImage`]: the unit in which an upload is
/// shared, in which a first write copies a shared page, and in which a
/// checkpoint skips memory never written.
pub const PAGE_BYTES: usize = 32 * 1024;

/// Mask of the offset inside a page.
const PAGE_MASK: usize = PAGE_BYTES - 1;

/// What holds one page's bytes.
enum Page {
    /// Never written: the image's own bytes, still the zeros they were
    /// allocated as.
    Zero,
    /// Written: the image's own bytes.
    Owned,
    /// Covered whole by an upload: the page's bytes are
    /// `data[offset..offset + page length]`, shared with the command that
    /// carried them. The first write copies them into the image's own
    /// bytes and makes the page [`Page::Owned`].
    Shared(Arc<Vec<u8>>, usize),
}

/// A byte-addressable memory image: a table of [`PAGE_BYTES`]-sized pages
/// over the image's own bytes.
///
/// Every page is one of three kinds, and none of them shows through the
/// byte interface. A page never written reads as zeros. A written page
/// reads the image's own bytes, allocated zeroed (`vec![0; size]`, a
/// lazily zeroed mapping), so host pages nobody writes never become
/// resident. A page an upload covered whole
/// ([`write_shared`](Self::write_shared)) reads the upload's bytes until
/// the first write into it copies them (copy-on-write). An access inside
/// one page — nearly every access — looks its page up once; only an
/// access that straddles a page boundary loops over pages.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use attila_mem::memory::{MemoryImage, PAGE_BYTES};
///
/// let mut mem = MemoryImage::new(4 * PAGE_BYTES);
/// mem.write(64, &[1, 2, 3]);
/// assert_eq!(mem.read_vec(64, 3), vec![1, 2, 3]);
///
/// // An upload covering page 1 whole lands by reference ...
/// let upload = Arc::new(vec![7u8; 2 * PAGE_BYTES]);
/// mem.write_shared(PAGE_BYTES as u64 / 2, &upload);
/// assert_eq!(mem.shared_pages(), 1);
/// assert_eq!(mem.read_u32(PAGE_BYTES as u64), 0x0707_0707);
/// // ... and a write into it copies the page, never the upload.
/// mem.write_u32(PAGE_BYTES as u64, 0xdead_beef);
/// assert_eq!(mem.read_u32(PAGE_BYTES as u64), 0xdead_beef);
/// assert_eq!(mem.read_u32(PAGE_BYTES as u64 + 4), 0x0707_0707);
/// assert_eq!(mem.shared_pages(), 0);
/// assert!(upload.iter().all(|&b| b == 7));
/// ```
pub struct MemoryImage {
    /// The image's own bytes: what every page that is not
    /// [`Page::Shared`] reads.
    bytes: Vec<u8>,
    pages: Vec<Page>,
}

impl MemoryImage {
    /// An image of `size` zero bytes, none of them resident until written.
    pub fn new(size: usize) -> Self {
        let pages = (0..size.div_ceil(PAGE_BYTES)).map(|_| Page::Zero).collect();
        MemoryImage { bytes: vec![0; size], pages }
    }

    /// Total size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// The addresses of page `index`: [`PAGE_BYTES`] of them, fewer for a
    /// ragged last page.
    #[inline]
    fn page_range(&self, index: usize) -> std::ops::Range<usize> {
        let start = index * PAGE_BYTES;
        start..(start + PAGE_BYTES).min(self.bytes.len())
    }

    /// The bytes of page `index`, whatever holds them.
    #[inline]
    fn page(&self, index: usize) -> &[u8] {
        let range = self.page_range(index);
        match &self.pages[index] {
            Page::Shared(data, at) => &data[*at..*at + range.len()],
            _ => &self.bytes[range],
        }
    }

    /// Makes page `index` the image's own before a write: an untouched
    /// page only changes kind, a shared page is copied out of its upload.
    #[cold]
    #[inline(never)]
    fn own(&mut self, index: usize) {
        let range = self.page_range(index);
        if let Page::Shared(data, at) = &self.pages[index] {
            self.bytes[range.clone()].copy_from_slice(&data[*at..*at + range.len()]);
        }
        self.pages[index] = Page::Owned;
    }

    /// The image's own bytes `[start, start + len)`, inside page `index`,
    /// ready to be written.
    #[inline(always)]
    fn own_bytes(&mut self, index: usize, start: usize, len: usize) -> &mut [u8] {
        if !matches!(self.pages[index], Page::Owned) {
            self.own(index);
        }
        &mut self.bytes[start..start + len]
    }

    /// Checks `[addr, addr + len)` against the image and returns `addr`
    /// as an index.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline(always)]
    #[track_caller]
    fn check(&self, addr: u64, len: usize) -> usize {
        let size = self.bytes.len();
        match usize::try_from(addr).ok().filter(|&a| a <= size && len <= size - a) {
            Some(start) => start,
            None => out_of_bounds(addr, len, size),
        }
    }

    /// Calls `each(page, at, done, n)` for every page piece of the checked
    /// range `[start, start + len)`, in address order: `n` bytes at
    /// address `at` in page `page`, after `done` bytes of the range.
    #[inline]
    fn for_pieces(start: usize, len: usize, mut each: impl FnMut(usize, usize, usize, usize)) {
        let mut done = 0;
        while done < len {
            let at = start + done;
            let n = (PAGE_BYTES - (at & PAGE_MASK)).min(len - done);
            each(at / PAGE_BYTES, at, done, n);
            done += n;
        }
    }

    /// The page holding byte `addr`: its first address and its bytes. A
    /// reader that keeps both can serve later reads inside the page
    /// without asking the image again.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    #[inline]
    pub fn page_at(&self, addr: u64) -> (u64, &[u8]) {
        let index = self.check(addr, 1) / PAGE_BYTES;
        ((index * PAGE_BYTES) as u64, self.page(index))
    }

    /// The pages in address order, each starting at its index times
    /// [`PAGE_BYTES`]: `None` for a page never written, which is all zeros
    /// and is not read.
    pub fn pages(&self) -> impl Iterator<Item = Option<&[u8]>> {
        (0..self.pages.len())
            .map(|index| (!matches!(self.pages[index], Page::Zero)).then(|| self.page(index)))
    }

    /// Pages that still read an upload's bytes.
    pub fn shared_pages(&self) -> usize {
        self.pages.iter().filter(|p| matches!(p, Page::Shared(..))).count()
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds (always a simulator bug: the
    /// driver allocates all regions up front).
    #[inline(always)]
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        let start = self.check(addr, buf.len());
        let offset = start & PAGE_MASK;
        if offset + buf.len() > PAGE_BYTES {
            return self.read_pieces(start, buf);
        }
        match self.pages.get(start / PAGE_BYTES) {
            Some(Page::Shared(data, at)) => buf.copy_from_slice(&data[at + offset..][..buf.len()]),
            _ => buf.copy_from_slice(&self.bytes[start..start + buf.len()]),
        }
    }

    /// [`read`](Self::read) of a checked range that straddles pages.
    #[cold]
    #[inline(never)]
    fn read_pieces(&self, start: usize, buf: &mut [u8]) {
        Self::for_pieces(start, buf.len(), |page, at, done, n| {
            let offset = at & PAGE_MASK;
            buf[done..done + n].copy_from_slice(&self.page(page)[offset..offset + n]);
        });
    }

    /// Reads `len` bytes into a fresh `Vec`.
    pub fn read_vec(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0; len];
        self.read(addr, &mut v);
        v
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline(always)]
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.bytes_mut(addr, data.len()).copy_from_slice(data);
    }

    /// The image's own bytes `[addr, addr + len)`, every page they touch
    /// made the image's own first: a write, or a read-modify-write of a
    /// small span (a ROP unit's quad) for one page lookup instead of one
    /// per access.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline(always)]
    pub fn bytes_mut(&mut self, addr: u64, len: usize) -> &mut [u8] {
        let start = self.check(addr, len);
        if len != 0 && (start & PAGE_MASK) + len <= PAGE_BYTES {
            return self.own_bytes(start / PAGE_BYTES, start, len);
        }
        self.own_pieces(start, len);
        &mut self.bytes[start..start + len]
    }

    /// Makes every page of a checked range that straddles pages the
    /// image's own.
    #[cold]
    #[inline(never)]
    fn own_pieces(&mut self, start: usize, len: usize) {
        Self::for_pieces(start, len, |page, at, _, n| {
            self.own_bytes(page, at, n);
        });
    }

    /// Writes an upload's bytes starting at `addr`: every page `data`
    /// covers whole becomes a reference into it, and only a partly
    /// covered first or last page is copied. `data` itself is never
    /// written — a later write into a shared page copies that page first.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_shared(&mut self, addr: u64, data: &Arc<Vec<u8>>) {
        let start = self.check(addr, data.len());
        Self::for_pieces(start, data.len(), |page, at, done, n| {
            if n == self.page_range(page).len() {
                self.pages[page] = Page::Shared(Arc::clone(data), done);
            } else {
                self.own_bytes(page, at, n).copy_from_slice(&data[done..done + n]);
            }
        });
    }

    /// Reads a little-endian `u32`.
    #[inline(always)]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32`.
    #[inline(always)]
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Fills `[addr, addr + len)` with `value`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn fill(&mut self, addr: u64, len: usize, value: u8) {
        let start = self.check(addr, len);
        Self::for_pieces(start, len, |page, at, _, n| {
            if value != 0 || !matches!(self.pages[page], Page::Zero) {
                self.own_bytes(page, at, n).fill(value);
            }
        });
    }

    /// Writes `words` copies of the little-endian `word` starting at
    /// `addr` — one pass per page instead of one call per word.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds (or its length overflows).
    pub fn fill_u32(&mut self, addr: u64, words: usize, word: u32) {
        let len =
            words.checked_mul(4).unwrap_or_else(|| out_of_bounds(addr, usize::MAX, self.size()));
        let start = self.check(addr, len);
        Self::for_pieces(start, len, |page, at, done, n| {
            if word == 0 && matches!(self.pages[page], Page::Zero) {
                return;
            }
            // A piece starts mid-word when `addr` is not word-aligned in
            // its page: rotate the pattern to the piece's phase.
            let mut pattern = word.to_le_bytes();
            pattern.rotate_left(done % 4);
            let mut chunks = self.own_bytes(page, at, n).chunks_exact_mut(4);
            for chunk in &mut chunks {
                chunk.copy_from_slice(&pattern);
            }
            let tail = chunks.into_remainder();
            let k = tail.len();
            tail.copy_from_slice(&pattern[..k]);
        });
    }
}

#[cold]
#[track_caller]
fn out_of_bounds(addr: u64, len: usize, size: usize) -> ! {
    panic!("range {addr:#x} + {len} bytes is out of bounds for a {size}-byte memory image")
}

impl fmt::Debug for MemoryImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let owned = self.pages.iter().filter(|p| matches!(p, Page::Owned)).count();
        f.debug_struct("MemoryImage")
            .field("size", &self.size())
            .field("owned_pages", &owned)
            .field("shared_pages", &self.shared_pages())
            .finish()
    }
}

/// A simple bump allocator over a memory image — the driver's low-level
/// "basic memory allocation" service (paper §4).
#[derive(Debug, Clone)]
pub struct BumpAllocator {
    next: u64,
    limit: u64,
}

impl BumpAllocator {
    /// Manages the address range `[base, limit)`.
    pub fn new(base: u64, limit: u64) -> Self {
        assert!(base <= limit);
        BumpAllocator { next: base, limit }
    }

    /// Allocates `size` bytes aligned to `align` (a power of two).
    /// Returns `None` when the region is exhausted.
    pub fn alloc(&mut self, size: u64, align: u64) -> Option<u64> {
        assert!(align.is_power_of_two());
        let addr = (self.next + align - 1) & !(align - 1);
        if addr + size > self.limit {
            return None;
        }
        self.next = addr + size;
        Some(addr)
    }

    /// Bytes still available (ignoring alignment padding).
    pub fn remaining(&self) -> u64 {
        self.limit - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = MemoryImage::new(256);
        m.write(10, &[0xaa, 0xbb]);
        assert_eq!(m.read_vec(10, 2), vec![0xaa, 0xbb]);
        assert_eq!(m.read_vec(12, 1), vec![0]);
    }

    #[test]
    fn u32_round_trip() {
        let mut m = MemoryImage::new(64);
        m.write_u32(4, 0xdead_beef);
        assert_eq!(m.read_u32(4), 0xdead_beef);
    }

    #[test]
    fn fill_sets_range() {
        let mut m = MemoryImage::new(64);
        m.fill(8, 16, 0x7f);
        assert_eq!(m.read_vec(7, 1), vec![0]);
        assert_eq!(m.read_vec(8, 16), vec![0x7f; 16]);
        assert_eq!(m.read_vec(24, 1), vec![0]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let m = MemoryImage::new(16);
        let mut b = [0u8; 4];
        m.read(14, &mut b);
    }

    #[test]
    fn bump_allocator_aligns() {
        let mut a = BumpAllocator::new(100, 1000);
        let p1 = a.alloc(10, 64).unwrap();
        assert_eq!(p1 % 64, 0);
        let p2 = a.alloc(10, 64).unwrap();
        assert!(p2 >= p1 + 10);
        assert_eq!(p2 % 64, 0);
    }

    #[test]
    fn bump_allocator_exhausts() {
        let mut a = BumpAllocator::new(0, 128);
        assert!(a.alloc(100, 1).is_some());
        assert!(a.alloc(100, 1).is_none());
        assert!(a.remaining() < 100);
    }
}
