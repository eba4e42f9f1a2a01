//! Rasterization mathematics: triangle setup, traversal, interpolation.
//!
//! ATTILA's rasterizer implements the **2D homogeneous** algorithm of Olano
//! and Greer (paper ref \[14\]): edge equations are derived from the adjoint
//! of the 3×3 matrix of homogeneous vertex positions, which removes the
//! need for geometric clipping — triangles crossing the near plane
//! rasterize correctly without being cut. Triangle Setup computes the three
//! half-plane edge equations and a depth (`z/w`) interpolation equation;
//! the Fragment Generator then traverses the triangle's projected area.
//! Edge equation values double as barycentric coordinates for
//! perspective-correct attribute interpolation (paper §2.2, ref \[5\]).
//!
//! Two traversal algorithms are provided, as in ATTILA: a tile-by-tile
//! scanner in the style of Neon (ref \[16\]) and the recursive-descent
//! rasterizer described by McCool (ref \[15\], the simulator's default).

use crate::vector::Vec4;

/// A render-target viewport: maps NDC to pixel coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Viewport {
    /// Left edge in pixels.
    pub x: u32,
    /// Bottom edge in pixels.
    pub y: u32,
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl Viewport {
    /// A viewport at the origin.
    pub fn new(width: u32, height: u32) -> Self {
        Viewport { x: 0, y: 0, width, height }
    }
}

/// Result of triangle setup: everything the fragment generator and
/// interpolator need.
#[derive(Debug, Clone, PartialEq)]
pub struct SetupTriangle {
    /// Edge equation coefficients `[a, b, c]` for each of the 3 edges;
    /// `e_i(x, y) = a x + b y + c`, positive inside after normalization.
    pub edges: [[f32; 3]; 3],
    /// Depth plane `[a, b, c]`: `z(x, y) = a x + b y + c` in `[0, 1]`
    /// (window depth), linear in screen space.
    pub z_plane: [f32; 3],
    /// Conservative pixel bounding box `(x0, y0, x1, y1)`, inclusive.
    pub bbox: (u32, u32, u32, u32),
    /// `true` if the triangle is front facing (counter-clockwise in window
    /// space).
    pub front_facing: bool,
    /// Original clip-space `w` of each vertex (used by the interpolator's
    /// tests and for debugging).
    pub vertex_w: [f32; 3],
}

/// Evaluated edge values at a sample point — the fragment's "barycentric"
/// payload travelling down the ATTILA pipeline.
pub type EdgeValues = [f32; 3];

/// Performs triangle setup in 2D homogeneous coordinates.
///
/// `clip` holds the three clip-space positions `(x, y, z, w)` straight out
/// of the vertex shader. Returns `None` for degenerate (zero-area)
/// triangles.
///
/// # Examples
///
/// ```
/// use attila_emu::raster::{setup_triangle, Viewport};
/// use attila_emu::Vec4;
///
/// let vp = Viewport::new(64, 64);
/// let tri = setup_triangle(
///     &[
///         Vec4::new(-1.0, -1.0, 0.0, 1.0),
///         Vec4::new(1.0, -1.0, 0.0, 1.0),
///         Vec4::new(-1.0, 1.0, 0.0, 1.0),
///     ],
///     vp,
/// )
/// .expect("not degenerate");
/// assert!(tri.front_facing);
/// assert!(tri.inside(10.5, 10.5));
/// assert!(!tri.inside(60.5, 60.5));
/// ```
pub fn setup_triangle(clip: &[Vec4; 3], vp: Viewport) -> Option<SetupTriangle> {
    // Map homogeneous clip coords to homogeneous *window* coords without
    // dividing by w: X = (x/w * 0.5 + 0.5) * width + vx  (all times w).
    let half_w = vp.width as f32 * 0.5;
    let half_h = vp.height as f32 * 0.5;
    let px = |v: &Vec4| {
        [
            v.x * half_w + v.w * (half_w + vp.x as f32),
            v.y * half_h + v.w * (half_h + vp.y as f32),
            v.w,
        ]
    };
    let p: [[f32; 3]; 3] = [px(&clip[0]), px(&clip[1]), px(&clip[2])];

    // adj(M) where rows of M are the homogeneous window positions.
    // Column i of the adjoint is the edge equation opposite... in fact the
    // i-th *row* of adj(M) here is the cross product of the other two
    // vertex rows, giving edge equation e_i with e_i(vertex_i) = det(M).
    let cross = |a: &[f32; 3], b: &[f32; 3]| {
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    };
    let mut e0 = cross(&p[1], &p[2]);
    let mut e1 = cross(&p[2], &p[0]);
    let mut e2 = cross(&p[0], &p[1]);
    let det = p[0][0] * e0[0] + p[0][1] * e0[1] + p[0][2] * e0[2];
    if det == 0.0 {
        return None;
    }
    let front_facing = det > 0.0;
    // Normalize so "inside" is all-edges-nonnegative regardless of facing.
    let flip = if det > 0.0 { 1.0 } else { -1.0 };
    for e in [&mut e0, &mut e1, &mut e2] {
        for c in e.iter_mut() {
            *c *= flip;
        }
    }
    let det_n = det * flip;

    // Depth plane: z_ndc(x,y) = Σ e_i z_i / det; window z = z_ndc*0.5+0.5.
    let zs = [clip[0].z, clip[1].z, clip[2].z];
    let mut z_plane = [0.0f32; 3];
    for c in 0..3 {
        z_plane[c] = (e0[c] * zs[0] + e1[c] * zs[1] + e2[c] * zs[2]) / det_n * 0.5;
    }
    // Σ e_i z_i / det is NDC z (z/w); window z = 0.5*z_ndc + 0.5, so the
    // 0.5 scale is folded above and the bias lands on the constant term.
    z_plane[2] += 0.5;

    // Bounding box: project vertices with positive w; if any vertex has
    // w <= 0, fall back to the full viewport (the paper divides by w
    // "except for triangles with w = 0" and clamps).
    let mut bbox = (vp.x, vp.y, vp.x + vp.width - 1, vp.y + vp.height - 1);
    if clip.iter().all(|v| v.w > 0.0) {
        let (mut x0, mut y0, mut x1, mut y1) = (f32::MAX, f32::MAX, f32::MIN, f32::MIN);
        for row in &p {
            let sx = row[0] / row[2];
            let sy = row[1] / row[2];
            x0 = x0.min(sx);
            y0 = y0.min(sy);
            x1 = x1.max(sx);
            y1 = y1.max(sy);
        }
        let clampx = |v: f32| (v.max(vp.x as f32) as u32).min(vp.x + vp.width - 1);
        let clampy = |v: f32| (v.max(vp.y as f32) as u32).min(vp.y + vp.height - 1);
        bbox = (clampx(x0.floor()), clampy(y0.floor()), clampx(x1.ceil()), clampy(y1.ceil()));
    }

    Some(SetupTriangle {
        edges: [e0, e1, e2],
        z_plane,
        bbox,
        front_facing,
        vertex_w: [clip[0].w, clip[1].w, clip[2].w],
    })
}

impl SetupTriangle {
    /// Evaluates the three edge equations at pixel center `(x, y)` (pass
    /// `px + 0.5` style coordinates).
    pub fn edge_values(&self, x: f32, y: f32) -> EdgeValues {
        [
            self.edges[0][0] * x + self.edges[0][1] * y + self.edges[0][2],
            self.edges[1][0] * x + self.edges[1][1] * y + self.edges[1][2],
            self.edges[2][0] * x + self.edges[2][1] * y + self.edges[2][2],
        ]
    }

    /// Whether the sample point is inside the triangle, applying the
    /// top-left fill rule on shared edges so adjacent triangles never
    /// double-shade a pixel.
    pub fn inside(&self, x: f32, y: f32) -> bool {
        let e = self.edge_values(x, y);
        (0..3).all(|i| {
            if e[i] > 0.0 {
                true
            } else if e[i] == 0.0 {
                // Top-left rule: a left edge has a > 0; a top edge is
                // horizontal (a == 0) with b < 0 in a y-down raster; our y
                // grows upward, so top edges have b > 0.
                let a = self.edges[i][0];
                let b = self.edges[i][1];
                a > 0.0 || (a == 0.0 && b > 0.0)
            } else {
                false
            }
        })
    }

    /// Window-space depth in `[0, 1]` at the sample point (linear — no
    /// division; this is the `z/w` equation Triangle Setup produces).
    pub fn depth(&self, x: f32, y: f32) -> f32 {
        self.z_plane[0] * x + self.z_plane[1] * y + self.z_plane[2]
    }

    /// Perspective-correct interpolation of per-vertex attributes using
    /// edge values as homogeneous barycentrics: `u = Σ e_i u_i / Σ e_i`.
    pub fn interpolate(&self, e: EdgeValues, attrs: &[Vec4; 3]) -> Vec4 {
        let sum = e[0] + e[1] + e[2];
        if sum == 0.0 {
            return attrs[0];
        }
        (attrs[0] * e[0] + attrs[1] * e[1] + attrs[2] * e[2]) / sum
    }

    /// Conservative tile test: returns `false` if the aligned `size`×`size`
    /// pixel tile at `(tx, ty)` is certainly outside the triangle.
    pub fn tile_may_overlap(&self, tx: u32, ty: u32, size: u32) -> bool {
        let x0 = tx as f32;
        let y0 = ty as f32;
        let x1 = (tx + size) as f32;
        let y1 = (ty + size) as f32;
        for edge in &self.edges {
            // Max of the linear function over the tile corners.
            let mx = if edge[0] > 0.0 { x1 } else { x0 };
            let my = if edge[1] > 0.0 { y1 } else { y0 };
            if edge[0] * mx + edge[1] * my + edge[2] < 0.0 {
                return false;
            }
        }
        true
    }
}

/// A generated fragment-to-be: position, edge values, depth and cull flag —
/// the attributes the paper lists for Fragment Generator output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RasterFragment {
    /// Pixel x coordinate.
    pub x: u32,
    /// Pixel y coordinate.
    pub y: u32,
    /// Edge equation values at the pixel center (barycentric payload).
    pub edges: EdgeValues,
    /// Window depth in `[0, 1]`.
    pub depth: f32,
    /// Set when the pixel center is outside the triangle or viewport; such
    /// fragments still travel in their quad until culled.
    pub culled: bool,
}

/// Generates the fragment for pixel `(x, y)`, marking coverage.
pub fn gen_fragment(tri: &SetupTriangle, x: u32, y: u32) -> RasterFragment {
    let cx = x as f32 + 0.5;
    let cy = y as f32 + 0.5;
    RasterFragment {
        x,
        y,
        edges: tri.edge_values(cx, cy),
        depth: tri.depth(cx, cy),
        culled: !tri.inside(cx, cy),
    }
}

/// Traversal algorithm selector (an ATTILA config parameter; the recursive
/// algorithm is the simulator's default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TraversalAlgorithm {
    /// McCool-style recursive descent over power-of-two tiles.
    #[default]
    Recursive,
    /// Neon-style linear scan of tiles over the bounding box.
    TileScan,
}

/// Enumerates the `tile`×`tile` aligned tiles that may contain covered
/// pixels, in the order the selected traversal visits them.
pub fn covered_tiles(
    tri: &SetupTriangle,
    tile: u32,
    algorithm: TraversalAlgorithm,
) -> Vec<(u32, u32)> {
    assert!(tile.is_power_of_two(), "tile size must be a power of two");
    match algorithm {
        TraversalAlgorithm::TileScan => {
            let (x0, y0, x1, y1) = tri.bbox;
            let mut out = Vec::new();
            let ty0 = y0 / tile;
            let ty1 = y1 / tile;
            let tx0 = x0 / tile;
            let tx1 = x1 / tile;
            for ty in ty0..=ty1 {
                for tx in tx0..=tx1 {
                    if tri.tile_may_overlap(tx * tile, ty * tile, tile) {
                        out.push((tx * tile, ty * tile));
                    }
                }
            }
            out
        }
        TraversalAlgorithm::Recursive => {
            let (x0, y0, x1, y1) = tri.bbox;
            // Smallest power-of-two square covering the bbox, aligned down.
            let span = (x1 - x0 + 1).max(y1 - y0 + 1).max(tile).next_power_of_two();
            let bx = x0 / span * span;
            let by = y0 / span * span;
            let mut out = Vec::new();
            // The square may not cover the bbox after alignment; recurse
            // over the (at most 2×2) aligned squares that do.
            let mut sy = by;
            while sy <= y1 {
                let mut sx = bx;
                while sx <= x1 {
                    recurse_tiles(tri, sx, sy, span, tile, &mut out);
                    sx += span;
                }
                sy += span;
            }
            out
        }
    }
}

fn recurse_tiles(
    tri: &SetupTriangle,
    x: u32,
    y: u32,
    size: u32,
    tile: u32,
    out: &mut Vec<(u32, u32)>,
) {
    let (bx0, by0, bx1, by1) = tri.bbox;
    if x > bx1 || y > by1 || x + size <= bx0 || y + size <= by0 {
        return;
    }
    if !tri.tile_may_overlap(x, y, size) {
        return;
    }
    if size == tile {
        out.push((x, y));
        return;
    }
    let half = size / 2;
    recurse_tiles(tri, x, y, half, tile, out);
    recurse_tiles(tri, x + half, y, half, tile, out);
    recurse_tiles(tri, x, y + half, half, tile, out);
    recurse_tiles(tri, x + half, y + half, half, tile, out);
}

/// Rasterizes an entire triangle into covered fragments — the reference
/// path used by the golden-model renderer and by tests that validate the
/// cycle-level Fragment Generator.
pub fn rasterize_reference(tri: &SetupTriangle, vp: Viewport) -> Vec<RasterFragment> {
    let mut out = Vec::new();
    let (x0, y0, x1, y1) = tri.bbox;
    for y in y0..=y1 {
        for x in x0..=x1 {
            if x >= vp.x && x < vp.x + vp.width && y >= vp.y && y < vp.y + vp.height {
                let f = gen_fragment(tri, x, y);
                if !f.culled {
                    out.push(f);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_screen_tri(vp: Viewport) -> SetupTriangle {
        setup_triangle(
            &[
                Vec4::new(-1.0, -1.0, 0.0, 1.0),
                Vec4::new(3.0, -1.0, 0.0, 1.0),
                Vec4::new(-1.0, 3.0, 0.0, 1.0),
            ],
            vp,
        )
        .unwrap()
    }

    #[test]
    fn setup_rejects_degenerate() {
        let vp = Viewport::new(16, 16);
        let v = Vec4::new(0.0, 0.0, 0.0, 1.0);
        assert!(setup_triangle(&[v, v, v], vp).is_none());
        // Collinear.
        assert!(setup_triangle(
            &[
                Vec4::new(-1.0, -1.0, 0.0, 1.0),
                Vec4::new(0.0, 0.0, 0.0, 1.0),
                Vec4::new(1.0, 1.0, 0.0, 1.0),
            ],
            vp
        )
        .is_none());
    }

    #[test]
    fn facing_depends_on_winding() {
        let vp = Viewport::new(16, 16);
        let a = Vec4::new(-0.5, -0.5, 0.0, 1.0);
        let b = Vec4::new(0.5, -0.5, 0.0, 1.0);
        let c = Vec4::new(0.0, 0.5, 0.0, 1.0);
        assert!(setup_triangle(&[a, b, c], vp).unwrap().front_facing);
        assert!(!setup_triangle(&[a, c, b], vp).unwrap().front_facing);
    }

    #[test]
    fn full_screen_triangle_covers_everything() {
        let vp = Viewport::new(32, 32);
        let tri = full_screen_tri(vp);
        let frags = rasterize_reference(&tri, vp);
        assert_eq!(frags.len(), 32 * 32);
    }

    #[test]
    fn half_screen_triangle_covers_half() {
        let vp = Viewport::new(64, 64);
        let tri = setup_triangle(
            &[
                Vec4::new(-1.0, -1.0, 0.0, 1.0),
                Vec4::new(1.0, -1.0, 0.0, 1.0),
                Vec4::new(-1.0, 1.0, 0.0, 1.0),
            ],
            vp,
        )
        .unwrap();
        let frags = rasterize_reference(&tri, vp);
        // Pixels strictly below the diagonal: the 63 diagonal centers are
        // excluded by the fill rule for this winding (they belong to the
        // other half of the quad — see adjacent_triangles_share_no_pixels).
        assert_eq!(frags.len(), (1..=63).sum::<usize>());
    }

    #[test]
    fn adjacent_triangles_share_no_pixels() {
        // A quad split along the diagonal: every covered pixel belongs to
        // exactly one triangle (top-left fill rule).
        let vp = Viewport::new(16, 16);
        let bl = Vec4::new(-1.0, -1.0, 0.0, 1.0);
        let br = Vec4::new(1.0, -1.0, 0.0, 1.0);
        let tl = Vec4::new(-1.0, 1.0, 0.0, 1.0);
        let tr = Vec4::new(1.0, 1.0, 0.0, 1.0);
        let t1 = setup_triangle(&[bl, br, tl], vp).unwrap();
        let t2 = setup_triangle(&[br, tr, tl], vp).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for f in rasterize_reference(&t1, vp).iter().chain(rasterize_reference(&t2, vp).iter()) {
            assert!(seen.insert((f.x, f.y)), "pixel ({}, {}) shaded twice", f.x, f.y);
        }
        assert_eq!(seen.len(), 16 * 16, "the quad covers every pixel exactly once");
    }

    #[test]
    fn depth_is_interpolated_linearly_in_screen_space() {
        let vp = Viewport::new(16, 16);
        let tri = setup_triangle(
            &[
                Vec4::new(-1.0, -1.0, -1.0, 1.0), // near
                Vec4::new(3.0, -1.0, 1.0, 1.0),   // far
                Vec4::new(-1.0, 3.0, -1.0, 1.0),
            ],
            vp,
        )
        .unwrap();
        // NDC z=-1 -> window 0; z=1 -> window 1.
        let z_left = tri.depth(0.0, 0.0);
        let z_mid = tri.depth(16.0, 0.0);
        assert!((z_left - 0.0).abs() < 1e-4, "left depth {z_left}");
        assert!((z_mid - 0.5).abs() < 1e-4, "mid depth {z_mid}");
    }

    #[test]
    fn interpolation_is_perspective_correct() {
        let vp = Viewport::new(16, 16);
        // Right vertex twice as far (w=2). A naive screen-space lerp of the
        // attribute at the screen midpoint would give 0.5; perspective
        // correct gives 1/3-weighted toward the near vertex... precisely
        // u_mid = (u0/w0 + u1/w1)/(1/w0 + 1/w1) at equal screen distance.
        let tri = setup_triangle(
            &[
                Vec4::new(-1.0, -1.0, 0.0, 1.0),
                Vec4::new(2.0, -1.0, 0.0, 2.0),
                Vec4::new(-1.0, 3.0, 0.0, 1.0),
            ],
            vp,
        )
        .unwrap();
        let attrs = [Vec4::splat(0.0), Vec4::splat(1.0), Vec4::splat(0.0)];
        // Screen midpoint of bottom edge: v0 projects to (0, 0), v1 to (16, 0).
        let e = tri.edge_values(8.0, 0.0);
        let u = tri.interpolate(e, &attrs);
        let expected = (0.0 / 1.0 + 1.0 / 2.0) / (1.0 / 1.0 + 1.0 / 2.0);
        assert!((u.x - expected).abs() < 1e-4, "u {} expected {}", u.x, expected);
        assert!(u.x < 0.5, "perspective pulls toward the near vertex");
    }

    #[test]
    fn near_plane_crossing_triangle_rasterizes() {
        // One vertex behind the eye (w < 0): 2DH must still produce the
        // correct visible region without clipping.
        let vp = Viewport::new(32, 32);
        let tri = setup_triangle(
            &[
                Vec4::new(0.0, 0.5, 0.0, 1.0),
                Vec4::new(-0.5, -0.5, 0.0, 1.0),
                Vec4::new(0.5, -0.5, 0.0, -0.5), // behind the eye
            ],
            vp,
        );
        let tri = tri.expect("still a valid triangle");
        // Bbox falls back to the viewport.
        assert_eq!(tri.bbox, (0, 0, 31, 31));
        let frags = rasterize_reference(&tri, vp);
        assert!(!frags.is_empty(), "the visible part must produce fragments");
    }

    #[test]
    fn tile_overlap_test_is_conservative() {
        let vp = Viewport::new(64, 64);
        let tri = setup_triangle(
            &[
                Vec4::new(-0.5, -0.5, 0.0, 1.0),
                Vec4::new(0.5, -0.5, 0.0, 1.0),
                Vec4::new(0.0, 0.5, 0.0, 1.0),
            ],
            vp,
        )
        .unwrap();
        // Every tile containing a covered pixel must pass the test.
        for f in rasterize_reference(&tri, vp) {
            let tx = f.x / 8 * 8;
            let ty = f.y / 8 * 8;
            assert!(tri.tile_may_overlap(tx, ty, 8), "tile ({tx},{ty}) wrongly rejected");
        }
        // A far-away tile must fail.
        assert!(!tri.tile_may_overlap(56, 56, 8));
    }

    #[test]
    fn traversals_agree_on_covered_tiles() {
        let vp = Viewport::new(128, 128);
        let tri = setup_triangle(
            &[
                Vec4::new(-0.9, -0.8, 0.0, 1.0),
                Vec4::new(0.7, -0.3, 0.0, 1.0),
                Vec4::new(-0.1, 0.9, 0.0, 1.0),
            ],
            vp,
        )
        .unwrap();
        let mut scan = covered_tiles(&tri, 8, TraversalAlgorithm::TileScan);
        let mut rec = covered_tiles(&tri, 8, TraversalAlgorithm::Recursive);
        scan.sort_unstable();
        rec.sort_unstable();
        assert_eq!(scan, rec, "both traversals must visit the same tile set");
        assert!(!scan.is_empty());
    }

    #[test]
    fn recursive_traversal_visits_every_covered_pixel_tile() {
        let vp = Viewport::new(64, 64);
        let tri = setup_triangle(
            &[
                Vec4::new(-1.0, -1.0, 0.0, 1.0),
                Vec4::new(1.0, -0.5, 0.0, 1.0),
                Vec4::new(0.0, 1.0, 0.0, 1.0),
            ],
            vp,
        )
        .unwrap();
        let tiles: std::collections::BTreeSet<_> =
            covered_tiles(&tri, 8, TraversalAlgorithm::Recursive).into_iter().collect();
        for f in rasterize_reference(&tri, vp) {
            assert!(
                tiles.contains(&(f.x / 8 * 8, f.y / 8 * 8)),
                "pixel ({},{}) in unvisited tile",
                f.x,
                f.y
            );
        }
    }

    #[test]
    fn gen_fragment_marks_outside_pixels_culled() {
        let vp = Viewport::new(16, 16);
        let tri = setup_triangle(
            &[
                Vec4::new(-1.0, -1.0, 0.0, 1.0),
                Vec4::new(0.0, -1.0, 0.0, 1.0),
                Vec4::new(-1.0, 0.0, 0.0, 1.0),
            ],
            vp,
        )
        .unwrap();
        assert!(!gen_fragment(&tri, 1, 1).culled);
        assert!(gen_fragment(&tri, 15, 15).culled);
    }
}
