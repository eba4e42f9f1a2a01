//! The Interpolator.
//!
//! "The Interpolator unit interpolates the fragment attributes from the
//! triangle vertex attributes received from Primitive Assembly. We
//! implement the perspective corrected linear interpolation algorithm"
//! (§2.2). Latency grows with the number of interpolated attributes
//! (Table 1: 2 to 8 cycles); throughput is 2×4 fragments per cycle.
//!
//! Convention: vertex-shader output `o0` is the clip position; outputs
//! `o1..=o{n}` are the `n = varying_count` varyings, delivered to the
//! fragment shader as inputs `i0..i{n-1}`. All four fragments of a quad
//! are interpolated — dead fragments become *helper pixels* whose values
//! feed the texture-derivative computation.

use std::collections::VecDeque;

use attila_json::impl_json_state;
use attila_sim::{Counter, Cycle, Horizon, SimError};

use crate::config::InterpolatorConfig;
use crate::port::{PortReceiver, PortSender};
use crate::types::FragQuad;
use crate::unit::Unit;

/// Quads the delay pipe holds; a full pipe stops the box taking input.
const PIPE_QUADS: usize = 64;

/// The Interpolator box.
#[derive(Debug)]
pub struct Interpolator {
    config: InterpolatorConfig,
    /// Quads from the early Z/stencil units.
    pub in_early: Vec<PortReceiver<FragQuad>>,
    /// Quads arriving directly from Hierarchical Z (late-Z datapath).
    pub in_late: PortReceiver<FragQuad>,
    /// Interpolated quads to the Fragment FIFO / shader scheduler.
    pub out_quads: PortSender<FragQuad>,
    /// Internal delay pipe modelling the attribute-count-dependent
    /// latency.
    pipe: VecDeque<(Cycle, FragQuad)>,
    next_input: usize,
    stat_quads: Counter,
    stat_attributes: Counter,
}

impl Interpolator {
    /// The name the box's signals are registered under.
    pub const NAME: &'static str = "Interpolator";

    /// Builds the box around its ports.
    pub fn new(
        config: InterpolatorConfig,
        in_early: Vec<PortReceiver<FragQuad>>,
        in_late: PortReceiver<FragQuad>,
        out_quads: PortSender<FragQuad>,
        stats: &mut attila_sim::StatsRegistry,
    ) -> Self {
        Interpolator {
            config,
            in_early,
            in_late,
            out_quads,
            pipe: VecDeque::new(),
            next_input: 0,
            stat_quads: stats.counter("Interpolator.quads"),
            stat_attributes: stats.counter("Interpolator.attributes"),
        }
    }

    /// Advances the box one cycle.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised by the box's signals.
    pub fn clock(&mut self, cycle: Cycle) -> Result<(), SimError> {
        for p in &mut self.in_early {
            p.try_update(cycle)?;
        }
        self.in_late.try_update(cycle)?;
        self.out_quads.try_update(cycle)?;

        // Accept up to frags_per_cycle/4 quads, round-robin over inputs.
        let quads_per_cycle = (self.config.frags_per_cycle / 4).max(1) as usize;
        let inputs = self.in_early.len() + 1;
        let mut taken = 0;
        let mut scanned = 0;
        while taken < quads_per_cycle && scanned < inputs && self.pipe.len() < PIPE_QUADS {
            let idx = self.next_input % inputs;
            let quad = if idx < self.in_early.len() {
                self.in_early[idx].try_pop(cycle)?
            } else {
                self.in_late.try_pop(cycle)?
            };
            self.next_input = (self.next_input + 1) % inputs;
            match quad {
                Some(mut quad) => {
                    scanned = 0;
                    taken += 1;
                    let varyings = quad.tri.batch.state.varying_count as usize;
                    // Perspective-correct interpolation for every
                    // fragment, including helpers, into the quad's one
                    // input buffer (fragment-major).
                    let mut inputs = Vec::with_capacity(4 * varyings);
                    for i in 0..4 {
                        let (x, y) = quad.frag_coords(i);
                        // Use exact pixel-centre edge values (dead helper
                        // fragments carry valid edge values too).
                        let e = if quad.frags[i].edges == [0.0; 3] {
                            quad.tri.setup.edge_values(x as f32 + 0.5, y as f32 + 0.5)
                        } else {
                            quad.frags[i].edges
                        };
                        for v in 0..varyings {
                            let attrs = [
                                quad.tri.outputs[0][v + 1],
                                quad.tri.outputs[1][v + 1],
                                quad.tri.outputs[2][v + 1],
                            ];
                            inputs.push(quad.tri.setup.interpolate(e, &attrs));
                        }
                    }
                    quad.inputs = inputs;
                    self.stat_quads.inc();
                    self.stat_attributes.add(4 * varyings as u64);
                    let latency = self.config.base_latency
                        + self.config.latency_per_attribute * varyings.saturating_sub(1) as u64;
                    self.pipe.push_back((cycle + latency, quad));
                }
                None => scanned += 1,
            }
        }

        // Release quads whose latency elapsed, in order.
        while let Some((ready, _)) = self.pipe.front() {
            if *ready <= cycle && self.out_quads.can_send(cycle) {
                let (_, quad) = self.pipe.pop_front().expect("front exists");
                self.out_quads.try_send(cycle, quad)?;
            } else {
                break;
            }
        }
        Ok(())
    }
}

impl Unit for Interpolator {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn busy(&self) -> bool {
        !self.pipe.is_empty()
            || !self.in_late.idle()
            || self.in_early.iter().any(|p| !p.idle())
    }

    /// The box's event horizon: busy while a queued quad has room in the
    /// delay pipe; else the cycle the pipe's front is released when the
    /// output holds a credit, and idle otherwise. A front without a credit
    /// is stalled, not busy: `clock()` takes no quad (the pipe is full or the
    /// inputs are empty, and a scan of empty inputs turns `next_input`
    /// full circle) and releases none, and the returning credit wakes the
    /// box (see [`Horizon`]).
    fn work_horizon(&self) -> Horizon {
        let queued = !self.in_late.is_empty() || self.in_early.iter().any(|p| !p.is_empty());
        if self.pipe.len() < PIPE_QUADS && queued {
            return Horizon::Busy;
        }
        match self.pipe.front() {
            Some(&(ready, _)) if self.out_quads.credits() > 0 => Horizon::IdleUntil(ready),
            _ => Horizon::Idle,
        }
    }

    /// Objects waiting in the box's input queues and delay pipe.
    fn queued(&self) -> usize {
        self.pipe.len()
            + self.in_late.len()
            + self.in_early.iter().map(PortReceiver::len).sum::<usize>()
    }
}

impl_json_state!(Interpolator = next_input skip {
    "wiring: rebuilt at elaboration": config, in_early, in_late, out_quads, stat_quads,
        stat_attributes;
    "transient: empty at any quiescent point": pipe;
});
