//! Framebuffer address layout.
//!
//! The colour and depth/stencil buffers are stored in 8×8-pixel tiles of
//! 32-bit values — 256 bytes per tile, exactly one ROP cache line (Table
//! 2) and one Z-compression block. This is the paper's third tiling
//! level: "the third level is set to the size of the HZ blocks and
//! framebuffer cache lines", which is what gives fragment-quad traffic
//! its locality.

/// Pixels per framebuffer tile edge.
pub const FB_TILE: u32 = 8;
/// Bytes per pixel (RGBA8 colour or S8Z24 depth/stencil).
pub const FB_BYTES_PER_PIXEL: u32 = 4;
/// Bytes per 8×8 framebuffer tile (= ROP cache line).
pub const FB_TILE_BYTES: u32 = FB_TILE * FB_TILE * FB_BYTES_PER_PIXEL;

/// Number of tiles per row for a given width.
pub fn tiles_per_row(width: u32) -> u32 {
    width.div_ceil(FB_TILE)
}

/// Total bytes of a tiled framebuffer surface.
pub fn surface_bytes(width: u32, height: u32) -> u64 {
    tiles_per_row(width) as u64 * height.div_ceil(FB_TILE) as u64 * FB_TILE_BYTES as u64
}

/// Byte address of pixel `(x, y)` in a tiled surface at `base`.
///
/// # Examples
///
/// ```
/// use attila_core::address::{pixel_address, FB_TILE_BYTES};
/// // Pixel (0,0) is at the base; pixel (8,0) starts the second tile.
/// assert_eq!(pixel_address(0x1000, 64, 0, 0), 0x1000);
/// assert_eq!(pixel_address(0x1000, 64, 8, 0), 0x1000 + FB_TILE_BYTES as u64);
/// ```
pub fn pixel_address(base: u64, width: u32, x: u32, y: u32) -> u64 {
    let tile = (y / FB_TILE) as u64 * tiles_per_row(width) as u64 + (x / FB_TILE) as u64;
    let intra = ((y % FB_TILE) * FB_TILE + (x % FB_TILE)) as u64;
    base + tile * FB_TILE_BYTES as u64 + intra * FB_BYTES_PER_PIXEL as u64
}

/// The tile-base address containing pixel `(x, y)` — the cache line / HZ
/// block the pixel maps to.
pub fn tile_address(base: u64, width: u32, x: u32, y: u32) -> u64 {
    pixel_address(base, width, x, y) & !(FB_TILE_BYTES as u64 - 1)
}

/// Index of the 8×8 block containing `(x, y)` — used by the on-chip HZ
/// buffer and block-state memories.
pub fn block_index(width: u32, x: u32, y: u32) -> usize {
    ((y / FB_TILE) * tiles_per_row(width) + x / FB_TILE) as usize
}

/// Number of 8×8 blocks covering a surface. Widened before multiplying:
/// the product of two `u32` tile counts fits a `usize`, not a `u32`.
pub fn block_count(width: u32, height: u32) -> usize {
    tiles_per_row(width) as usize * height.div_ceil(FB_TILE) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_are_dense_and_unique() {
        let (w, h) = (24, 16);
        let mut seen = std::collections::HashSet::new();
        for y in 0..h {
            for x in 0..w {
                let a = pixel_address(0, w, x, y);
                assert!(a < surface_bytes(w, h), "({x},{y}) -> {a}");
                assert_eq!(a % 4, 0);
                assert!(seen.insert(a), "duplicate address for ({x},{y})");
            }
        }
    }

    #[test]
    fn tile_locality_within_8x8() {
        // All pixels of one 8x8 tile fall within one 256-byte line.
        let base = pixel_address(0, 64, 8, 8);
        for y in 8..16 {
            for x in 8..16 {
                let a = pixel_address(0, 64, x, y);
                assert_eq!(a / 256, base / 256, "({x},{y}) escapes its tile");
            }
        }
    }

    #[test]
    fn non_multiple_of_8_width_rounds_up() {
        assert_eq!(tiles_per_row(65), 9);
        assert_eq!(surface_bytes(65, 9), 9 * 2 * 256);
    }

    #[test]
    fn tile_address_is_line_aligned() {
        let t = tile_address(0x1000, 320, 100, 50);
        assert_eq!(t % 256, 0x1000 % 256);
        assert_eq!(t, pixel_address(0x1000, 320, 96, 48));
    }

    #[test]
    fn block_index_walks_row_major() {
        assert_eq!(block_index(64, 0, 0), 0);
        assert_eq!(block_index(64, 63, 0), 7);
        assert_eq!(block_index(64, 0, 8), 8);
        assert_eq!(block_count(64, 64), 64);
    }
}
