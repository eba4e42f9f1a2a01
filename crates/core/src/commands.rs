//! The Command Processor's instruction set.
//!
//! Per the paper (§4): "The ATTILA Command Processor supports a simple set
//! of instructions: write a render state register, write a buffer into GPU
//! memory, draw a batch, fast clear of the color or z and stencil buffers
//! and swap the current front and back color buffers (finishing the
//! frame)." The OpenGL framework translates every API call into one or
//! more of these low-level control commands.

use std::sync::Arc;

use crate::state::RenderState;

/// OpenGL primitives supported by Primitive Assembly (paper §2.2:
/// "triangle lists, fans and strips and quad lists and strips").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Primitive {
    /// Independent triangles (3 vertices each).
    #[default]
    Triangles,
    /// Triangle strip.
    TriangleStrip,
    /// Triangle fan.
    TriangleFan,
    /// Independent quads (4 vertices each, split into two triangles).
    Quads,
    /// Quad strip.
    QuadStrip,
}

impl Primitive {
    /// Number of triangles produced by `n` vertices of this primitive.
    pub fn triangle_count(self, n: u32) -> u32 {
        match self {
            Primitive::Triangles => n / 3,
            Primitive::TriangleStrip | Primitive::TriangleFan => n.saturating_sub(2),
            Primitive::Quads => n / 4 * 2,
            Primitive::QuadStrip => {
                if n < 4 {
                    0
                } else {
                    (n - 2) / 2 * 2
                }
            }
        }
    }
}

/// A draw-batch command: the vertex stream description. The render state
/// itself travels as a snapshot taken when the draw is issued.
#[derive(Debug, Clone)]
pub struct DrawCall {
    /// Primitive topology.
    pub primitive: Primitive,
    /// Number of vertices in the batch.
    pub vertex_count: u32,
    /// Address of a `u32` index buffer, or `None` for sequential
    /// (non-indexed) batches.
    pub index_buffer: Option<u64>,
}

/// One Command Processor instruction.
#[derive(Debug, Clone)]
pub enum GpuCommand {
    /// Update the render state registers (the GL driver encodes each
    /// state change as a register write; here a whole-state closure keeps
    /// the command stream compact while costing the documented cycles).
    SetState(Box<RenderState>),
    /// Upload a buffer from system memory to GPU memory over the system
    /// bus (vertex/index/texture data).
    WriteBuffer {
        /// Destination GPU address.
        address: u64,
        /// Payload copied from "system memory".
        data: Arc<Vec<u8>>,
    },
    /// Preload a shader program into shader instruction memory.
    LoadPrograms,
    /// Render a batch with the current state.
    Draw(DrawCall),
    /// Fast clear of the colour buffer to an RGBA8 value.
    FastClearColor(u32),
    /// Fast clear of the Z/stencil buffer to an `S8Z24` word.
    FastClearZStencil(u32),
    /// Finish the frame: drain the pipeline, flush caches, let the DAC
    /// dump the colour buffer.
    Swap,
}

impl GpuCommand {
    /// Short mnemonic used in logs and traces.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            GpuCommand::SetState(_) => "STATE",
            GpuCommand::WriteBuffer { .. } => "WRITE",
            GpuCommand::LoadPrograms => "LOADP",
            GpuCommand::Draw(_) => "DRAW",
            GpuCommand::FastClearColor(_) => "CLRC",
            GpuCommand::FastClearZStencil(_) => "CLRZ",
            GpuCommand::Swap => "SWAP",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_counts_per_primitive() {
        assert_eq!(Primitive::Triangles.triangle_count(9), 3);
        assert_eq!(Primitive::Triangles.triangle_count(8), 2);
        assert_eq!(Primitive::TriangleStrip.triangle_count(5), 3);
        assert_eq!(Primitive::TriangleStrip.triangle_count(2), 0);
        assert_eq!(Primitive::TriangleFan.triangle_count(6), 4);
        assert_eq!(Primitive::Quads.triangle_count(8), 4);
        assert_eq!(Primitive::QuadStrip.triangle_count(4), 2);
        assert_eq!(Primitive::QuadStrip.triangle_count(6), 4);
        assert_eq!(Primitive::QuadStrip.triangle_count(3), 0);
    }

    #[test]
    fn mnemonics_are_unique() {
        let cmds = [
            GpuCommand::LoadPrograms.mnemonic(),
            GpuCommand::Swap.mnemonic(),
            GpuCommand::FastClearColor(0).mnemonic(),
            GpuCommand::FastClearZStencil(0).mnemonic(),
        ];
        let set: std::collections::BTreeSet<_> = cmds.iter().collect();
        assert_eq!(set.len(), cmds.len());
    }
}
