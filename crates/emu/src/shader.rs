//! The shader emulator: a threaded interpreter for the ATTILA ISA.
//!
//! The `ShaderEmulator` of the paper "implements a threaded interpreter
//! that executes, instruction by instruction, shader programs updating the
//! stored per-thread state (registers)". It is *used by* the timing boxes
//! (`ShaderFetch` / `ShaderDecodeExecute`) but contains no timing itself —
//! keeping emulation bugs separate from simulation bugs, one of the stated
//! benefits of the ATTILA design.
//!
//! Texture instructions do not sample directly: they surface a
//! [`TextureRequest`] so the caller (the timing model's Texture Unit, or
//! the golden-model renderer) performs the access and resumes the thread
//! with [`ShaderEmulator::complete_texture`]. This mirrors the hardware,
//! where a texture access blocks the thread until the texture operation
//! finishes.

use std::sync::Arc;

use crate::isa::{
    limits, Comp, Decoded, DecodedSrc, DstBank, Kind, Opcode, Program, SrcBank, TexTarget,
};
use crate::vector::Vec4;

/// Identifier of a live thread inside a [`ShaderEmulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadId(pub usize);

/// A texture access requested by a thread; the thread is blocked until the
/// caller answers with [`ShaderEmulator::complete_texture`].
#[derive(Debug, Clone, PartialEq)]
pub struct TextureRequest {
    /// The thread that issued the access.
    pub thread: ThreadId,
    /// Sampler index (`texture[n]`).
    pub sampler: u8,
    /// Texture target named by the instruction.
    pub target: TexTarget,
    /// The (possibly projected) coordinates, straight from the register.
    pub coords: Vec4,
    /// LOD bias (`TXB`) in effect, 0 otherwise.
    pub lod_bias: f32,
    /// Whether coordinates must be divided by `w` (`TXP`).
    pub projective: bool,
}

/// Result of stepping a thread one instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum StepResult {
    /// The instruction executed; the timing model says when its result is ready.
    Executed,
    /// A texture instruction started; the thread is blocked.
    Texture(TextureRequest),
    /// The program reached `END` (or the fragment was killed); outputs are
    /// ready to collect.
    Finished {
        /// Whether a `KIL` culled the fragment.
        killed: bool,
    },
}

/// The texture access of a lockstep group: one request for the lanes that
/// reached a texture instruction together (a fragment quad, whose
/// level-of-detail derivatives need all four coordinates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadTexture {
    /// Sampler index (`texture[n]`).
    pub sampler: u8,
    /// Texture target named by the instruction.
    pub target: TexTarget,
    /// Each lane's coordinates; a lane that did not issue (finished, or
    /// past the group's lanes) carries the first issuing lane's, so
    /// helper slots never disturb the derivatives.
    pub coords: [Vec4; 4],
    /// The lanes now blocked on the access.
    pub lanes: [bool; 4],
    /// The LOD bias of the whole quad: for `TXB`, the first issuing lane's
    /// `w`; 0 otherwise. One quad samples with one bias.
    pub lod_bias: f32,
    /// Whether coordinates must be divided by `w` (`TXP`).
    pub projective: bool,
}

/// What one [`ShaderEmulator::step_group`] did to a lockstep group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupStep {
    /// The instruction's opcode.
    pub op: Opcode,
    /// Whether some lane executed the instruction and moved past it (an
    /// ALU instruction, or a `KIL` that spared a lane).
    pub executed: bool,
    /// The lanes this step finished: `END`, or culled by `KIL`.
    pub finished: [bool; 4],
    /// Of `finished`, the lanes `KIL` culled.
    pub killed: [bool; 4],
    /// The access of a texture instruction; its lanes are blocked until
    /// [`ShaderEmulator::complete_texture`].
    pub texture: Option<QuadTexture>,
}

/// Per-thread architectural state.
#[derive(Debug, Clone, Default)]
struct ThreadState {
    pc: usize,
    inputs: [Vec4; limits::INPUTS],
    outputs: [Vec4; limits::OUTPUTS],
    temps: Vec<Vec4>,
    killed: bool,
    finished: bool,
    /// Blocked on the texture instruction at `pc`.
    blocked_on_tex: bool,
}

impl ThreadState {
    /// Source operand `s`, swizzled and negated.
    #[inline(always)]
    fn read(&self, constants: &[Vec4], s: &DecodedSrc) -> Vec4 {
        let raw = match s.bank {
            SrcBank::Input => self.inputs[s.index as usize],
            SrcBank::Temp => self.temps[s.index as usize],
            SrcBank::Param => constants[s.index as usize],
        };
        let v = if s.identity {
            raw
        } else {
            let [a, b, c, d] = s.swizzle;
            Vec4::new(raw[a as usize], raw[b as usize], raw[c as usize], raw[d as usize])
        };
        if s.negate {
            -v
        } else {
            v
        }
    }

    /// Writes the result of `d` through its saturation and write mask.
    #[inline(always)]
    fn write(&mut self, d: &Decoded, mut value: Vec4) {
        if d.saturate {
            value = value.saturate();
        }
        let target = match d.dst.bank {
            DstBank::Temp => &mut self.temps[d.dst.index as usize],
            DstBank::Output => &mut self.outputs[d.dst.index as usize],
            DstBank::None => return,
        };
        if d.dst.full {
            *target = value;
        } else {
            for i in 0..4 {
                if d.dst.mask[i] {
                    target[i] = value[i];
                }
            }
        }
    }
}

/// A lane's view of the instruction being executed: its operands read on
/// demand, so an opcode reads only the sources it has.
struct Operands<'a> {
    st: &'a ThreadState,
    constants: &'a [Vec4],
    d: &'a Decoded,
}

impl Operands<'_> {
    #[inline(always)]
    fn src(&self, i: usize) -> Vec4 {
        self.st.read(self.constants, &self.d.srcs[i])
    }
}

/// A threaded interpreter executing one [`Program`] for many independent
/// inputs (vertices or fragments).
///
/// The interpreter runs the program's decoded table (lowered once by
/// [`Program::new`]): [`step`](Self::step), [`run_to_end`](Self::run_to_end)
/// and [`step_group`](Self::step_group) are one loop over lanes behind one
/// decode and one dispatch per instruction.
///
/// # Examples
///
/// ```
/// use attila_emu::asm;
/// use attila_emu::shader::{ShaderEmulator, StepResult};
/// use attila_emu::Vec4;
///
/// let program = asm::assemble("!!ATTILAvp1.0\nADD o0, i0, c0;\nEND;")?;
/// let mut emu = ShaderEmulator::new(std::sync::Arc::new(program));
/// emu.set_constant(0, Vec4::splat(1.0));
/// let t = emu.spawn(&[Vec4::new(1.0, 2.0, 3.0, 4.0)]);
/// while !matches!(emu.step(t), StepResult::Finished { .. }) {}
/// assert_eq!(emu.output(t, 0), Vec4::new(2.0, 3.0, 4.0, 5.0));
/// # Ok::<(), attila_emu::asm::AsmError>(())
/// ```
#[derive(Debug)]
pub struct ShaderEmulator {
    program: Arc<Program>,
    constants: Vec<Vec4>,
    threads: Vec<ThreadState>,
    free_list: Vec<usize>,
}

impl ShaderEmulator {
    /// Creates an emulator for `program` with all constants zeroed.
    pub fn new(program: Arc<Program>) -> Self {
        ShaderEmulator {
            program,
            constants: vec![Vec4::ZERO; limits::PARAMS],
            threads: Vec::new(),
            free_list: Vec::new(),
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Sets constant register `c<index>` (program parameter).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_constant(&mut self, index: usize, value: Vec4) {
        self.constants[index] = value;
    }

    /// Reads back a constant register.
    pub fn constant(&self, index: usize) -> Vec4 {
        self.constants[index]
    }

    /// Creates a thread with the given input attributes (missing inputs
    /// read as zero) and returns its id.
    pub fn spawn(&mut self, inputs: &[Vec4]) -> ThreadId {
        // A retired slot keeps its `temps` buffer: re-zeroing it in place
        // saves one allocation per thread on the simulator's hot path.
        let slot = self.free_list.pop().unwrap_or_else(|| {
            self.threads.push(ThreadState::default());
            self.threads.len() - 1
        });
        let temps_used = self.program.temps_used();
        let st = &mut self.threads[slot];
        st.pc = 0;
        let given = inputs.len().min(limits::INPUTS);
        st.inputs[..given].copy_from_slice(&inputs[..given]);
        st.inputs[given..].fill(Vec4::ZERO);
        st.outputs = [Vec4::ZERO; limits::OUTPUTS];
        st.temps.clear();
        // Exact, not amortized: a fresh slot allocates what `vec![..]` did.
        st.temps.reserve_exact(temps_used);
        st.temps.resize(temps_used, Vec4::ZERO);
        st.killed = false;
        st.finished = false;
        st.blocked_on_tex = false;
        ThreadId(slot)
    }

    /// Number of threads currently allocated (not yet
    /// [retired](Self::retire)).
    pub fn live_threads(&self) -> usize {
        self.threads.len() - self.free_list.len()
    }

    /// Executes the next instruction of `thread`.
    ///
    /// # Panics
    ///
    /// Panics if the thread is finished, retired or blocked on an
    /// unanswered texture request.
    pub fn step(&mut self, thread: ThreadId) -> StepResult {
        let step = self.execute(&[thread], &[false, true, true, true]);
        if let Some(tex) = step.texture {
            StepResult::Texture(TextureRequest {
                thread,
                sampler: tex.sampler,
                target: tex.target,
                coords: tex.coords[0],
                lod_bias: tex.lod_bias,
                projective: tex.projective,
            })
        } else if step.finished[0] {
            StepResult::Finished { killed: step.killed[0] }
        } else {
            StepResult::Executed
        }
    }

    /// Executes the next instruction for every lane of a lockstep group
    /// that `done` does not mark finished, with one decode and one
    /// dispatch for the whole group. `lanes[i]` is lane `i`'s thread; lanes
    /// past `lanes.len()` must be marked done. The live lanes share a
    /// program counter — they were spawned together and only ever stepped
    /// through this call.
    ///
    /// # Panics
    ///
    /// Panics if every lane is done, or a live lane's thread is finished,
    /// retired or blocked on an unanswered texture request.
    pub fn step_group(&mut self, lanes: &[ThreadId], done: &[bool; 4]) -> GroupStep {
        self.execute(lanes, done)
    }

    /// The interpreter behind [`step`](Self::step) and
    /// [`step_group`](Self::step_group), inlined into each so the
    /// single-thread step is compiled for its one lane.
    #[inline(always)]
    fn execute(&mut self, lanes: &[ThreadId], done: &[bool; 4]) -> GroupStep {
        let first = (0..lanes.len()).find(|&i| !done[i]).expect("a group with a live lane");
        let pc = self.threads[lanes[first].0].pc;
        // A copy: the lanes below borrow the threads mutably.
        let d = self.program.decoded()[pc];
        let mut step = GroupStep {
            op: d.op,
            executed: false,
            finished: [false; 4],
            killed: [false; 4],
            texture: None,
        };
        let constants = &self.constants;
        let threads = &mut self.threads;
        match d.kind {
            Kind::End => each_lane(threads, lanes, done, pc, #[inline(always)] |lane, st| {
                st.finished = true;
                step.finished[lane] = true;
                step.killed[lane] = st.killed;
            }),
            Kind::Kil => each_lane(threads, lanes, done, pc, #[inline(always)] |lane, st| {
                let v = st.read(constants, &d.srcs[0]);
                if v.x < 0.0 || v.y < 0.0 || v.z < 0.0 || v.w < 0.0 {
                    st.killed = true;
                    st.finished = true;
                    step.finished[lane] = true;
                    step.killed[lane] = true;
                } else {
                    st.pc += 1;
                    step.executed = true;
                }
            }),
            Kind::Tex => {
                let mut coords = [Vec4::ZERO; 4];
                let mut issued = [false; 4];
                each_lane(threads, lanes, done, pc, #[inline(always)] |lane, st| {
                    coords[lane] = st.read(constants, &d.srcs[0]);
                    issued[lane] = true;
                    st.blocked_on_tex = true;
                });
                let lead = coords[first];
                for lane in 0..4 {
                    if !issued[lane] {
                        coords[lane] = lead;
                    }
                }
                step.texture = Some(QuadTexture {
                    sampler: d.sampler,
                    target: d.tex_target,
                    coords,
                    lanes: issued,
                    lod_bias: if d.op == Opcode::Txb { lead.w } else { 0.0 },
                    projective: d.op == Opcode::Txp,
                });
            }
            Kind::Alu => {
                step.executed = true;
                alu(Lanes { threads, constants, lanes, done, pc }, &d);
            }
        }
        step
    }

    /// Delivers the filtered texel for a pending [`TextureRequest`],
    /// unblocking the thread.
    ///
    /// # Panics
    ///
    /// Panics if the thread has no pending texture access.
    pub fn complete_texture(&mut self, thread: ThreadId, texel: Vec4) {
        let st = &mut self.threads[thread.0];
        assert!(st.blocked_on_tex, "no pending texture access");
        st.blocked_on_tex = false;
        st.write(&self.program.decoded()[st.pc], texel);
        st.pc += 1;
    }

    /// Whether the thread has reached `END` (or was killed).
    pub fn is_finished(&self, thread: ThreadId) -> bool {
        self.threads[thread.0].finished
    }

    /// Whether the thread was culled by `KIL`.
    pub fn is_killed(&self, thread: ThreadId) -> bool {
        self.threads[thread.0].killed
    }

    /// Reads output register `o<index>` of a thread.
    pub fn output(&self, thread: ThreadId, index: usize) -> Vec4 {
        self.threads[thread.0].outputs[index]
    }

    /// Copies all output registers of a thread.
    pub fn outputs(&self, thread: ThreadId) -> [Vec4; limits::OUTPUTS] {
        self.threads[thread.0].outputs
    }

    /// Releases a finished thread's state for reuse.
    pub fn retire(&mut self, thread: ThreadId) {
        debug_assert!(!self.free_list.contains(&thread.0), "double retire");
        self.free_list.push(thread.0);
    }

    /// Runs a thread to completion, sampling textures through `sample`.
    /// Returns `(outputs, killed)`. This is the golden-model path used for
    /// functional verification.
    pub fn run_to_end(
        &mut self,
        thread: ThreadId,
        mut sample: impl FnMut(&TextureRequest) -> Vec4,
    ) -> ([Vec4; limits::OUTPUTS], bool) {
        loop {
            match self.step(thread) {
                StepResult::Executed => {}
                StepResult::Texture(req) => {
                    let texel = sample(&req);
                    self.complete_texture(thread, texel);
                }
                StepResult::Finished { killed } => {
                    return (self.outputs(thread), killed);
                }
            }
        }
    }
}

/// Runs `f` on the state of every live lane of a group whose lanes all
/// stand at `pc`.
#[inline(always)]
fn each_lane(
    threads: &mut [ThreadState],
    lanes: &[ThreadId],
    done: &[bool; 4],
    pc: usize,
    mut f: impl FnMut(usize, &mut ThreadState),
) {
    for (lane, &t) in lanes.iter().enumerate() {
        if done[lane] {
            continue;
        }
        let st = &mut threads[t.0];
        assert!(
            !st.finished && !st.blocked_on_tex,
            "stepping a finished thread or one blocked on a texture access"
        );
        debug_assert_eq!(st.pc, pc, "the lanes of a group execute in lockstep");
        f(lane, st);
    }
}

/// The live lanes of a group and the constants they read.
struct Lanes<'a> {
    threads: &'a mut [ThreadState],
    constants: &'a [Vec4],
    lanes: &'a [ThreadId],
    done: &'a [bool; 4],
    pc: usize,
}

impl Lanes<'_> {
    /// Computes `f` for every live lane and writes it back.
    #[inline(always)]
    fn map(self, d: &Decoded, f: impl Fn(&Operands<'_>) -> Vec4) {
        let constants = self.constants;
        each_lane(self.threads, self.lanes, self.done, self.pc, #[inline(always)] |_, st| {
            let value = f(&Operands { st, constants, d });
            st.write(d, value);
            st.pc += 1;
        });
    }
}

/// The one dispatch of an ALU instruction: the opcode picks the operation,
/// which then runs over the group's live lanes.
#[inline(always)]
fn alu(l: Lanes<'_>, d: &Decoded) {
    match d.op {
        Opcode::Mov => l.map(d, |o| o.src(0)),
        Opcode::Add => l.map(d, |o| o.src(0) + o.src(1)),
        Opcode::Sub => l.map(d, |o| o.src(0) - o.src(1)),
        Opcode::Mul => l.map(d, |o| o.src(0) * o.src(1)),
        Opcode::Mad => l.map(d, |o| o.src(0) * o.src(1) + o.src(2)),
        Opcode::Dp3 => l.map(d, |o| Vec4::splat(o.src(0).dot3(o.src(1)))),
        Opcode::Dp4 => l.map(d, |o| Vec4::splat(o.src(0).dot4(o.src(1)))),
        Opcode::Dph => l.map(d, |o| Vec4::splat(o.src(0).dph(o.src(1)))),
        Opcode::Min => l.map(d, |o| o.src(0).min(o.src(1))),
        Opcode::Max => l.map(d, |o| o.src(0).max(o.src(1))),
        Opcode::Slt => l.map(d, |o| o.src(0).zip(o.src(1), |a, b| if a < b { 1.0 } else { 0.0 })),
        Opcode::Sge => l.map(d, |o| o.src(0).zip(o.src(1), |a, b| if a >= b { 1.0 } else { 0.0 })),
        Opcode::Rcp => l.map(d, |o| Vec4::splat(1.0 / o.src(0).x)),
        Opcode::Rsq => l.map(d, |o| Vec4::splat(1.0 / o.src(0).x.abs().sqrt())),
        Opcode::Ex2 => l.map(d, |o| Vec4::splat(o.src(0).x.exp2())),
        Opcode::Lg2 => l.map(d, |o| Vec4::splat(o.src(0).x.abs().log2())),
        Opcode::Pow => l.map(d, |o| Vec4::splat(o.src(0).x.abs().powf(o.src(1).x))),
        Opcode::Frc => l.map(d, |o| o.src(0).fract()),
        Opcode::Flr => l.map(d, |o| o.src(0).floor()),
        Opcode::Abs => l.map(d, |o| o.src(0).abs()),
        Opcode::Cmp => l.map(d, |o| {
            let (c, a, b) = (o.src(0), o.src(1), o.src(2));
            Vec4::new(
                if c.x < 0.0 { a.x } else { b.x },
                if c.y < 0.0 { a.y } else { b.y },
                if c.z < 0.0 { a.z } else { b.z },
                if c.w < 0.0 { a.w } else { b.w },
            )
        }),
        Opcode::Lrp => l.map(d, |o| {
            let (t, a, b) = (o.src(0), o.src(1), o.src(2));
            t * a + (Vec4::ONE - t) * b
        }),
        Opcode::Xpd => l.map(d, |o| o.src(0).cross3(o.src(1))),
        Opcode::Sin => l.map(d, |o| Vec4::splat(o.src(0).x.sin())),
        Opcode::Cos => l.map(d, |o| Vec4::splat(o.src(0).x.cos())),
        Opcode::Tex | Opcode::Txb | Opcode::Txp | Opcode::Kil | Opcode::End => {
            unreachable!("decoded as Tex, Kil or End")
        }
    }
}

/// Convenience: returns component `c` of `v` (used by scalar-source tests).
pub fn component(v: Vec4, c: Comp) -> f32 {
    v[c.index()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_fp(body: &str, inputs: &[Vec4], constants: &[(usize, Vec4)]) -> (Vec4, bool) {
        let src = format!("!!ATTILAfp1.0\n{body}\nEND;");
        let program = Arc::new(assemble(&src).expect("assembles"));
        let mut emu = ShaderEmulator::new(program);
        for (i, v) in constants {
            emu.set_constant(*i, *v);
        }
        let t = emu.spawn(inputs);
        let (outs, killed) = emu.run_to_end(t, |req| {
            // Deterministic fake texture: colour derived from coords.
            Vec4::new(req.coords.x, req.coords.y, req.sampler as f32, 1.0)
        });
        (outs[0], killed)
    }

    #[test]
    fn mov_add_mul_chain() {
        let (out, _) = run_fp(
            "MOV r0, i0;\nADD r0, r0, r0;\nMUL o0, r0, c0;",
            &[Vec4::new(1.0, 2.0, 3.0, 4.0)],
            &[(0, Vec4::splat(10.0))],
        );
        assert_eq!(out, Vec4::new(20.0, 40.0, 60.0, 80.0));
    }

    #[test]
    fn dot_products_broadcast() {
        let (out, _) = run_fp(
            "DP3 o0, i0, i1;",
            &[Vec4::new(1.0, 2.0, 3.0, 100.0), Vec4::new(4.0, 5.0, 6.0, 100.0)],
            &[],
        );
        assert_eq!(out, Vec4::splat(32.0));
    }

    #[test]
    fn scalar_ops_use_selected_component() {
        let (out, _) = run_fp("RCP o0, i0.w;", &[Vec4::new(0.0, 0.0, 0.0, 4.0)], &[]);
        assert_eq!(out, Vec4::splat(0.25));
        let (out, _) = run_fp("RSQ o0, i0.y;", &[Vec4::new(0.0, 16.0, 0.0, 0.0)], &[]);
        assert_eq!(out, Vec4::splat(0.25));
    }

    #[test]
    fn mad_and_lrp() {
        let a = Vec4::new(1.0, 2.0, 3.0, 4.0);
        let b = Vec4::splat(2.0);
        let c = Vec4::splat(1.0);
        let (out, _) = run_fp("MAD o0, i0, i1, i2;", &[a, b, c], &[]);
        assert_eq!(out, Vec4::new(3.0, 5.0, 7.0, 9.0));
        let (out, _) = run_fp(
            "LRP o0, c0, i0, i1;",
            &[Vec4::splat(10.0), Vec4::splat(20.0)],
            &[(0, Vec4::splat(0.25))],
        );
        assert_eq!(out, Vec4::splat(17.5));
    }

    #[test]
    fn slt_sge_cmp() {
        let (out, _) = run_fp(
            "SLT o0, i0, i1;",
            &[Vec4::new(0.0, 2.0, -1.0, 5.0), Vec4::new(1.0, 1.0, 1.0, 5.0)],
            &[],
        );
        assert_eq!(out, Vec4::new(1.0, 0.0, 1.0, 0.0));
        let (out, _) = run_fp(
            "CMP o0, i0, i1, i2;",
            &[Vec4::new(-1.0, 1.0, -0.5, 0.0), Vec4::splat(7.0), Vec4::splat(9.0)],
            &[],
        );
        assert_eq!(out, Vec4::new(7.0, 9.0, 7.0, 9.0));
    }

    #[test]
    fn saturate_clamps_result() {
        let (out, _) = run_fp("ADD_SAT o0, i0, i0;", &[Vec4::new(0.4, -1.0, 0.1, 2.0)], &[]);
        assert_eq!(out, Vec4::new(0.8, 0.0, 0.2, 1.0));
    }

    #[test]
    fn write_mask_preserves_components() {
        let (out, _) = run_fp(
            "MOV o0, i1;\nMOV o0.xz, i0;",
            &[Vec4::splat(5.0), Vec4::splat(1.0)],
            &[],
        );
        assert_eq!(out, Vec4::new(5.0, 1.0, 5.0, 1.0));
    }

    #[test]
    fn kill_on_negative_component() {
        let (_, killed) = run_fp("KIL i0;\nMOV o0, i0;", &[Vec4::new(1.0, -0.1, 0.0, 0.0)], &[]);
        assert!(killed);
        let (_, killed) = run_fp("KIL i0;\nMOV o0, i0;", &[Vec4::new(1.0, 0.1, 0.0, 0.0)], &[]);
        assert!(!killed);
    }

    #[test]
    fn texture_request_blocks_and_resumes() {
        let src = "!!ATTILAfp1.0\nTEX r0, i0, texture[2], 2D;\nMOV o0, r0;\nEND;";
        let program = Arc::new(assemble(src).unwrap());
        let mut emu = ShaderEmulator::new(program);
        let t = emu.spawn(&[Vec4::new(0.5, 0.25, 0.0, 0.0)]);
        let StepResult::Texture(req) = emu.step(t) else {
            panic!("expected texture request")
        };
        assert_eq!(req.sampler, 2);
        assert_eq!(req.coords.x, 0.5);
        assert!(!req.projective);
        emu.complete_texture(t, Vec4::splat(0.9));
        assert!(matches!(emu.step(t), StepResult::Executed));
        assert!(matches!(emu.step(t), StepResult::Finished { killed: false }));
        assert_eq!(emu.output(t, 0), Vec4::splat(0.9));
    }

    #[test]
    fn txp_flags_projection_and_txb_extracts_bias() {
        let src = "!!ATTILAfp1.0\nTXP r0, i0, texture[0], 2D;\nTXB r1, i1, texture[0], 2D;\nMOV o0, r0;\nEND;";
        let program = Arc::new(assemble(src).unwrap());
        let mut emu = ShaderEmulator::new(program);
        let t = emu.spawn(&[Vec4::new(2.0, 2.0, 0.0, 2.0), Vec4::new(0.1, 0.1, 0.0, -1.5)]);
        let StepResult::Texture(req) = emu.step(t) else { panic!() };
        assert!(req.projective);
        emu.complete_texture(t, Vec4::ZERO);
        let StepResult::Texture(req) = emu.step(t) else { panic!() };
        assert_eq!(req.lod_bias, -1.5);
    }

    #[test]
    fn step_group_runs_live_lanes_in_lockstep() {
        let src = "!!ATTILAfp1.0\nKIL i0;\nTXB r0, i1, texture[1], 2D;\nMOV o0, r0;\nEND;";
        let program = Arc::new(assemble(src).unwrap());
        let mut emu = ShaderEmulator::new(program);
        let kill = Vec4::splat(-1.0);
        let keep = Vec4::splat(1.0);
        let lanes = [
            emu.spawn(&[kill, Vec4::new(0.0, 0.0, 0.0, 5.0)]),
            emu.spawn(&[keep, Vec4::new(0.1, 0.0, 0.0, 1.0)]),
            emu.spawn(&[keep, Vec4::new(0.2, 0.0, 0.0, 2.0)]),
        ];
        let mut done = [false, false, false, true];
        let step = emu.step_group(&lanes, &done);
        assert_eq!(step.op, Opcode::Kil);
        assert!(step.executed, "two lanes survive the KIL");
        assert_eq!(step.finished, [true, false, false, false]);
        assert_eq!(step.killed, [true, false, false, false]);
        done[0] = true;

        let step = emu.step_group(&lanes, &done);
        let tex = step.texture.expect("TXB issues for the live lanes");
        assert_eq!(tex.sampler, 1);
        assert_eq!(tex.lanes, [false, true, true, false]);
        assert_eq!(tex.lod_bias, 1.0, "the first issuing lane's w");
        assert_eq!(tex.coords[0], tex.coords[1], "helpers carry the first lane's coordinates");
        assert_eq!(tex.coords[3], tex.coords[1]);
        emu.complete_texture(lanes[1], Vec4::splat(0.25));
        emu.complete_texture(lanes[2], Vec4::splat(0.5));

        let step = emu.step_group(&lanes, &done);
        assert!(step.executed && step.texture.is_none());
        let step = emu.step_group(&lanes, &done);
        assert_eq!(step.finished, [false, true, true, false]);
        assert_eq!(step.killed, [false; 4]);
        assert_eq!(emu.output(lanes[1], 0), Vec4::splat(0.25));
        assert_eq!(emu.output(lanes[2], 0), Vec4::splat(0.5));
    }

    #[test]
    fn threads_are_independent() {
        let src = "!!ATTILAvp1.0\nADD o0, i0, c0;\nEND;";
        let program = Arc::new(assemble(src).unwrap());
        let mut emu = ShaderEmulator::new(program);
        emu.set_constant(0, Vec4::splat(100.0));
        let t1 = emu.spawn(&[Vec4::splat(1.0)]);
        let t2 = emu.spawn(&[Vec4::splat(2.0)]);
        // Interleave execution.
        emu.step(t1);
        emu.step(t2);
        emu.step(t1);
        emu.step(t2);
        assert_eq!(emu.output(t1, 0), Vec4::splat(101.0));
        assert_eq!(emu.output(t2, 0), Vec4::splat(102.0));
    }

    #[test]
    fn retire_recycles_slots() {
        let src = "!!ATTILAvp1.0\nMOV o0, i0;\nEND;";
        let program = Arc::new(assemble(src).unwrap());
        let mut emu = ShaderEmulator::new(program);
        let t1 = emu.spawn(&[]);
        emu.run_to_end(t1, |_| Vec4::ZERO);
        emu.retire(t1);
        assert_eq!(emu.live_threads(), 0);
        let t2 = emu.spawn(&[]);
        assert_eq!(t1.0, t2.0, "slot should be reused");
    }

    #[test]
    fn recycled_slot_starts_clean() {
        // The first thread dirties a temp and an output and is killed; the
        // thread that inherits its slot (and its temps buffer) must see
        // none of that.
        let src = "!!ATTILAfp1.0\nMOV r0, i0;\nMOV o0, r0;\nKIL i1;\nEND;";
        let program = Arc::new(assemble(src).unwrap());
        let mut emu = ShaderEmulator::new(program);
        let t1 = emu.spawn(&[Vec4::splat(7.0), Vec4::splat(-1.0)]);
        let (_, killed) = emu.run_to_end(t1, |_| Vec4::ZERO);
        assert!(killed);
        emu.retire(t1);
        let t2 = emu.spawn(&[]);
        assert_eq!(t1, t2);
        assert!(!emu.is_killed(t2) && !emu.is_finished(t2));
        assert_eq!(emu.output(t2, 0), Vec4::ZERO);
        let (outs, killed) = emu.run_to_end(t2, |_| Vec4::ZERO);
        assert!(!killed);
        assert_eq!(outs[0], Vec4::ZERO, "inputs and temps re-zeroed");
    }

    #[test]
    fn vertex_transform_program() {
        // The canonical 4xDP4 position transform with an identity matrix.
        let src = "!!ATTILAvp1.0\n\
                   DP4 o0.x, c0, i0;\n\
                   DP4 o0.y, c1, i0;\n\
                   DP4 o0.z, c2, i0;\n\
                   DP4 o0.w, c3, i0;\n\
                   END;";
        let program = Arc::new(assemble(src).unwrap());
        let mut emu = ShaderEmulator::new(program);
        emu.set_constant(0, Vec4::new(1.0, 0.0, 0.0, 0.0));
        emu.set_constant(1, Vec4::new(0.0, 1.0, 0.0, 0.0));
        emu.set_constant(2, Vec4::new(0.0, 0.0, 1.0, 0.0));
        emu.set_constant(3, Vec4::new(0.0, 0.0, 0.0, 1.0));
        let t = emu.spawn(&[Vec4::new(3.0, -4.0, 5.0, 1.0)]);
        let (outs, _) = emu.run_to_end(t, |_| Vec4::ZERO);
        assert_eq!(outs[0], Vec4::new(3.0, -4.0, 5.0, 1.0));
    }
}
