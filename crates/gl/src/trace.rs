//! Trace capture and replay: GLInterceptor and GLPlayer.
//!
//! Per the paper (§4): "GLInterceptor replaces the OpenGL library and
//! records all OpenGL commands issued by the application with all their
//! parameter values, associated texture and vertex buffers data. This
//! information is stored in an output file, a trace file for our
//! simulator. [...] To verify the integrity and faithfulness of the
//! recorded trace a second tool, GLPlayer, can be used to reproduce and
//! validate the captured trace." Traces are not time-stamped, isolating
//! the simulator from CPU-side effects.
//!
//! A trace here is the serialized [`GlCall`] list plus the display
//! geometry. The player supports the paper's **hot start**: skipping the
//! draw commands of leading frames while still applying state changes and
//! buffer writes, so any span of frames can be simulated independently.

use attila_core::commands::GpuCommand;

use crate::api::{GlCall, GlContext, GlError};

/// A captured API trace — the simulator's input file format.
#[derive(Debug, Clone, PartialEq)]
pub struct GlTrace {
    /// Framebuffer width the trace was captured at.
    pub width: u32,
    /// Framebuffer height.
    pub height: u32,
    /// The recorded calls.
    pub calls: Vec<GlCall>,
}

impl GlTrace {
    /// Number of frames (SwapBuffers calls) in the trace.
    pub fn frame_count(&self) -> usize {
        self.calls.iter().filter(|c| matches!(c, GlCall::SwapBuffers)).count()
    }

    /// Serializes to the on-disk trace format (JSON).
    pub fn to_json(&self) -> String {
        attila_json::ToJson::to_json(self).render()
    }

    /// Parses a trace file.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error for malformed input.
    pub fn from_json(text: &str) -> Result<Self, attila_json::JsonError> {
        attila_json::FromJson::from_json(&attila_json::parse(text)?)
    }
}

attila_json::impl_json_struct!(GlTrace { width, height, calls });

/// Records API calls while forwarding them to a live context — the
/// GLInterceptor sits between the "application" and the library.
pub struct GlInterceptor {
    context: GlContext,
    trace: GlTrace,
}

impl GlInterceptor {
    /// Wraps a fresh context of the given size.
    pub fn new(width: u32, height: u32) -> Self {
        GlInterceptor {
            context: GlContext::new(width, height),
            trace: GlTrace { width, height, calls: Vec::new() },
        }
    }

    /// Records and applies one call.
    ///
    /// # Errors
    ///
    /// Propagates the context's [`GlError`]; failing calls are *not*
    /// recorded (the real interceptor also forwards to the original
    /// library and only stores successful calls).
    pub fn call(&mut self, call: GlCall) -> Result<(), GlError> {
        self.context.apply(&call)?;
        self.trace.calls.push(call);
        Ok(())
    }

    /// Finishes the capture, returning the trace and the command stream
    /// the application produced while being recorded.
    pub fn finish(mut self) -> (GlTrace, Vec<GpuCommand>) {
        let commands = self.context.take_commands();
        (self.trace, commands)
    }
}

impl std::fmt::Debug for GlInterceptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlInterceptor").field("calls", &self.trace.calls.len()).finish()
    }
}

/// Replays a captured trace, producing the simulator's command stream —
/// the GLPlayer.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlPlayer {
    /// Skip the draws of the first `skip_frames` frames (hot start).
    pub skip_frames: u64,
    /// Stop after `max_frames` frames when set (frame-range simulation on
    /// a cluster, as the paper describes).
    pub max_frames: Option<u64>,
}

impl GlPlayer {
    /// A player that replays everything.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replays `trace` and returns the Command Processor stream.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GlError`] (a malformed trace).
    pub fn replay(&self, trace: &GlTrace) -> Result<Vec<GpuCommand>, GlError> {
        let mut ctx = GlContext::new(trace.width, trace.height);
        ctx.set_hot_start(self.skip_frames);
        for call in &trace.calls {
            ctx.apply(call)?;
            if let Some(max) = self.max_frames {
                if ctx.frames() >= self.skip_frames + max {
                    break;
                }
            }
        }
        Ok(ctx.take_commands())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{clear_mask, GlPrimitive};

    fn tiny_trace() -> GlTrace {
        let mut cap = GlInterceptor::new(32, 32);
        cap.call(GlCall::BufferData { id: 1, data: vec![0u8; 48] }).unwrap();
        cap.call(GlCall::VertexAttribPointer {
            attr: 0,
            buffer: 1,
            components: 4,
            stride: 16,
            offset: 0,
        })
        .unwrap();
        for _ in 0..3 {
            cap.call(GlCall::ClearColor { r: 0.0, g: 0.0, b: 0.0, a: 1.0 }).unwrap();
            cap.call(GlCall::Clear { mask: clear_mask::COLOR }).unwrap();
            cap.call(GlCall::DrawArrays { primitive: GlPrimitive::Triangles, count: 3 }).unwrap();
            cap.call(GlCall::SwapBuffers).unwrap();
        }
        cap.finish().0
    }

    #[test]
    fn interceptor_records_all_calls() {
        let trace = tiny_trace();
        assert_eq!(trace.frame_count(), 3);
        assert_eq!(trace.calls.len(), 2 + 3 * 4);
    }

    #[test]
    fn json_round_trip() {
        let trace = tiny_trace();
        let text = trace.to_json();
        let back = GlTrace::from_json(&text).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn replay_reproduces_capture_commands() {
        let mut cap = GlInterceptor::new(32, 32);
        cap.call(GlCall::BufferData { id: 1, data: vec![7u8; 48] }).unwrap();
        cap.call(GlCall::VertexAttribPointer {
            attr: 0,
            buffer: 1,
            components: 4,
            stride: 16,
            offset: 0,
        })
        .unwrap();
        cap.call(GlCall::DrawArrays { primitive: GlPrimitive::Triangles, count: 3 }).unwrap();
        cap.call(GlCall::SwapBuffers).unwrap();
        let (trace, captured_cmds) = cap.finish();
        let replayed = GlPlayer::new().replay(&trace).unwrap();
        assert_eq!(captured_cmds.len(), replayed.len());
        for (a, b) in captured_cmds.iter().zip(&replayed) {
            assert_eq!(a.mnemonic(), b.mnemonic());
        }
    }

    #[test]
    fn hot_start_skips_leading_draws() {
        let trace = tiny_trace();
        let full = GlPlayer::new().replay(&trace).unwrap();
        let hot = GlPlayer { skip_frames: 2, max_frames: None }.replay(&trace).unwrap();
        let draws = |cmds: &[GpuCommand]| {
            cmds.iter().filter(|c| matches!(c, GpuCommand::Draw(_))).count()
        };
        assert_eq!(draws(&full), 3);
        assert_eq!(draws(&hot), 1, "two frames of draws skipped");
        // Buffer uploads are preserved for hot start.
        let writes = hot
            .iter()
            .filter(|c| matches!(c, GpuCommand::WriteBuffer { .. }))
            .count();
        assert_eq!(writes, 1);
    }

    #[test]
    fn max_frames_truncates() {
        let trace = tiny_trace();
        let cmds = GlPlayer { skip_frames: 0, max_frames: Some(1) }.replay(&trace).unwrap();
        let swaps = cmds.iter().filter(|c| matches!(c, GpuCommand::Swap)).count();
        assert_eq!(swaps, 1);
    }
}
