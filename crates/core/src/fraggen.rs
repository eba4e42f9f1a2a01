//! The Fragment Generator: triangle traversal and fragment creation.
//!
//! "The Fragment Generator traverses the triangle area projected in the
//! viewport and iteratively generates fragments" with attributes: 2D
//! coordinate, the three edge equation values, a cull flag and the
//! fragment depth (§2.2). Up to three levels of tiling are supported; the
//! second and third levels are 8×8 fragments in the current
//! implementation, and the generator emits up to two 8×8 tiles per cycle
//! (Table 1: 2×64 fragments).

use attila_emu::raster::{covered_tiles, gen_fragment, RasterFragment};
use attila_json::impl_json_state;
use attila_sim::{Counter, Cycle, DynamicObject, Horizon, ObjectIdGen, SimError};

use crate::address::FB_TILE;
use crate::config::FragGenConfig;
use crate::port::{PortReceiver, PortSender};
use crate::types::{FragTile, SetupTriWork};
use crate::unit::Unit;

/// An in-flight traversal: the triangle, its tile worklist, and the index
/// of the next tile to emit.
type ActiveTraversal = (SetupTriWork, Vec<(u32, u32)>, usize);

/// The Fragment Generator box.
#[derive(Debug)]
pub struct FragmentGenerator {
    config: FragGenConfig,
    /// Set-up triangles from Triangle Setup.
    pub in_tris: PortReceiver<SetupTriWork>,
    /// Generated 8×8 fragment tiles to Hierarchical Z.
    pub out_tiles: PortSender<FragTile>,
    /// The triangle being traversed and its remaining tiles.
    current: Option<ActiveTraversal>,
    ids: ObjectIdGen,
    stat_tiles: Counter,
    stat_fragments: Counter,
    stat_empty_tiles: Counter,
}

impl FragmentGenerator {
    /// The name the box's signals are registered under.
    pub const NAME: &'static str = "FragmentGenerator";

    /// Builds the box around its ports.
    pub fn new(
        config: FragGenConfig,
        in_tris: PortReceiver<SetupTriWork>,
        out_tiles: PortSender<FragTile>,
        stats: &mut attila_sim::StatsRegistry,
    ) -> Self {
        FragmentGenerator {
            config,
            in_tris,
            out_tiles,
            current: None,
            ids: ObjectIdGen::new(),
            stat_tiles: stats.counter("FragGen.tiles"),
            stat_fragments: stats.counter("FragGen.fragments"),
            stat_empty_tiles: stats.counter("FragGen.empty_tiles"),
        }
    }

    /// Advances the box one cycle: emits up to `tiles_per_cycle` tiles.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised by the box's signals.
    pub fn clock(&mut self, cycle: Cycle) -> Result<(), SimError> {
        self.in_tris.try_update(cycle)?;
        self.out_tiles.try_update(cycle)?;

        for _ in 0..self.config.tiles_per_cycle {
            if self.current.is_none() {
                let Some(tri) = self.in_tris.try_pop(cycle)? else { break };
                let tiles = covered_tiles(&tri.data.setup, FB_TILE, self.config.traversal);
                self.current = Some((tri, tiles, 0));
            }
            if !self.out_tiles.can_send(cycle) {
                break;
            }
            let Some((tri, tiles, next)) = &mut self.current else { break };
            if *next >= tiles.len() {
                self.current = None;
                continue;
            }
            let (tx, ty) = tiles[*next];
            let is_last = *next + 1 == tiles.len();
            *next += 1;

            // Generate the tile's fragments (cull flag = outside triangle
            // or outside scissor/viewport).
            let state = &tri.data.batch.state;
            let vp = state.viewport;
            let size = FB_TILE;
            let mut frags: Vec<RasterFragment> = Vec::with_capacity((size * size) as usize);
            let mut min_depth = f32::MAX;
            let mut any_alive = false;
            for dy in 0..size {
                for dx in 0..size {
                    let x = tx + dx;
                    let y = ty + dy;
                    let mut f = gen_fragment(&tri.data.setup, x, y);
                    let in_viewport =
                        x >= vp.x && x < vp.x + vp.width && y >= vp.y && y < vp.y + vp.height;
                    if !in_viewport || !state.scissor.contains(x, y) {
                        f.culled = true;
                    }
                    // Depth-range cull: with trivial-rejection-only
                    // clipping, fragments outside [0,1] window depth are
                    // dropped here.
                    if !(0.0..=1.0).contains(&f.depth) {
                        f.culled = true;
                    }
                    if !f.culled {
                        min_depth = min_depth.min(f.depth);
                        any_alive = true;
                        self.stat_fragments.inc();
                    }
                    frags.push(f);
                }
            }
            if !any_alive {
                self.stat_empty_tiles.inc();
                if is_last {
                    self.current = None;
                }
                continue;
            }
            self.stat_tiles.inc();
            self.out_tiles.try_send(
                cycle,
                FragTile {
                    obj: DynamicObject::child_of(self.ids.next_id(), &tri.obj),
                    tri: std::sync::Arc::clone(&tri.data),
                    x: tx,
                    y: ty,
                    frags,
                    min_depth,
                },
            )?;
            if is_last {
                self.current = None;
            }
        }
        Ok(())
    }

    /// Covered fragments generated so far.
    pub fn fragments_generated(&self) -> u64 {
        self.stat_fragments.value()
    }
}

impl Unit for FragmentGenerator {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn busy(&self) -> bool {
        self.current.is_some() || !self.in_tris.idle()
    }

    /// The box's event horizon: busy while a clock could make progress —
    /// a queued triangle with no traversal to block it, or a traversal
    /// with a credit to send its next tile — otherwise idle. A traversal
    /// without credits is stalled, not busy: `clock()` pops nothing (a
    /// triangle waits for `current` to empty) and sends nothing
    /// (`can_send` is false), and the returning credit wakes the box (see
    /// [`Horizon`]).
    fn work_horizon(&self) -> Horizon {
        match self.current {
            None if !self.in_tris.is_empty() => Horizon::Busy,
            Some(_) if self.out_tiles.credits() > 0 => Horizon::Busy,
            _ => Horizon::Idle,
        }
    }

    fn queued(&self) -> usize {
        self.in_tris.len() + usize::from(self.current.is_some())
    }
}

impl_json_state!(FragmentGenerator = ids: state skip {
    "wiring: rebuilt at elaboration": config, in_tris, out_tiles, stat_tiles, stat_fragments,
        stat_empty_tiles;
    "transient: `None` at any quiescent point": current;
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{DrawCall, Primitive};
    use crate::config::GpuConfig;
    use crate::port::unbound_port;
    use crate::state::RenderState;
    use crate::types::{Batch, TriangleData};
    use attila_emu::isa::limits;
    use attila_emu::raster::{setup_triangle, Viewport};
    use attila_emu::vector::Vec4;
    use attila_sim::StatsRegistry;
    use std::sync::Arc;

    fn make_work(clip: [Vec4; 3], vp: Viewport) -> SetupTriWork {
        let state = RenderState { viewport: vp, ..Default::default() };
        let batch = Arc::new(Batch {
            id: 0,
            state: Arc::new(state),
            draw: DrawCall {
                primitive: Primitive::Triangles,
                vertex_count: 3,
                index_buffer: None,
            },
        });
        let setup = setup_triangle(&clip, vp).unwrap();
        SetupTriWork {
            obj: DynamicObject::new(0),
            data: Arc::new(TriangleData {
                batch,
                setup,
                outputs: [
                    Arc::new([Vec4::ZERO; limits::OUTPUTS]),
                    Arc::new([Vec4::ZERO; limits::OUTPUTS]),
                    Arc::new([Vec4::ZERO; limits::OUTPUTS]),
                ],
            }),
            end_of_batch: true,
        }
    }

    fn run_gen(work: SetupTriWork) -> Vec<FragTile> {
        let mut stats = StatsRegistry::new(0);
        let (mut tri_tx, tri_rx) = unbound_port::<SetupTriWork>("t", 1, 1, 4);
        let (tile_tx, mut tile_rx) = unbound_port::<FragTile>("f", 2, 1, 256);
        let mut fg = FragmentGenerator::new(
            GpuConfig::baseline().fraggen,
            tri_rx,
            tile_tx,
            &mut stats,
        );
        tri_tx.update(0);
        tri_tx.send(0, work);
        let mut out = Vec::new();
        for cycle in 0..200 {
            fg.clock(cycle).expect("no faults");
            tile_rx.update(cycle);
            while let Some(t) = tile_rx.pop(cycle) {
                out.push(t);
            }
        }
        out
    }

    #[test]
    fn full_screen_triangle_covers_all_tiles() {
        let vp = Viewport::new(32, 32);
        let tiles = run_gen(make_work(
            [
                Vec4::new(-1.0, -1.0, 0.0, 1.0),
                Vec4::new(3.0, -1.0, 0.0, 1.0),
                Vec4::new(-1.0, 3.0, 0.0, 1.0),
            ],
            vp,
        ));
        assert_eq!(tiles.len(), 16, "32x32 = 4x4 tiles of 8x8");
        let total: usize =
            tiles.iter().map(|t| t.frags.iter().filter(|f| !f.culled).count()).sum();
        assert_eq!(total, 32 * 32);
        assert!(tiles.iter().all(|t| t.frags.len() == 64));
    }

    #[test]
    fn small_triangle_emits_few_tiles_with_cull_flags() {
        let vp = Viewport::new(64, 64);
        // A triangle inside one 8x8 tile at the origin.
        let tiles = run_gen(make_work(
            [
                Vec4::new(-1.0, -1.0, 0.0, 1.0),
                Vec4::new(-0.8, -1.0, 0.0, 1.0),
                Vec4::new(-1.0, -0.8, 0.0, 1.0),
            ],
            vp,
        ));
        assert_eq!(tiles.len(), 1);
        let covered = tiles[0].frags.iter().filter(|f| !f.culled).count();
        assert!(covered > 0 && covered < 64, "partial tile: {covered}");
    }

    #[test]
    fn min_depth_is_minimum_of_covered() {
        let vp = Viewport::new(16, 16);
        let tiles = run_gen(make_work(
            [
                Vec4::new(-1.0, -1.0, -0.5, 1.0),
                Vec4::new(3.0, -1.0, 0.5, 1.0),
                Vec4::new(-1.0, 3.0, 0.5, 1.0),
            ],
            vp,
        ));
        for t in &tiles {
            let computed = t
                .frags
                .iter()
                .filter(|f| !f.culled)
                .map(|f| f.depth)
                .fold(f32::MAX, f32::min);
            assert_eq!(t.min_depth, computed);
        }
    }

    #[test]
    fn rate_limited_to_tiles_per_cycle() {
        let mut stats = StatsRegistry::new(0);
        let (mut tri_tx, tri_rx) = unbound_port::<SetupTriWork>("t", 1, 1, 4);
        let (tile_tx, mut tile_rx) = unbound_port::<FragTile>("f", 2, 1, 256);
        let mut fg = FragmentGenerator::new(
            GpuConfig::baseline().fraggen,
            tri_rx,
            tile_tx,
            &mut stats,
        );
        let vp = Viewport::new(64, 64);
        tri_tx.update(0);
        tri_tx.send(
            0,
            make_work(
                [
                    Vec4::new(-1.0, -1.0, 0.0, 1.0),
                    Vec4::new(3.0, -1.0, 0.0, 1.0),
                    Vec4::new(-1.0, 3.0, 0.0, 1.0),
                ],
                vp,
            ),
        );
        for cycle in 0..100 {
            fg.clock(cycle).expect("no faults");
            tile_rx.update(cycle);
            let mut arrived = 0;
            while tile_rx.pop(cycle).is_some() {
                arrived += 1;
            }
            assert!(arrived <= 2, "cycle {cycle}: {arrived} tiles");
        }
    }
}
