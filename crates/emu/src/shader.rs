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

use crate::isa::{limits, Bank, Comp, Instruction, Opcode, Program, Src, TexTarget};
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
    /// The instruction executed; the timing model should charge `latency`
    /// cycles before the result may be consumed.
    Executed {
        /// Execution latency of the retired instruction.
        latency: u64,
    },
    /// A texture instruction started; the thread is blocked.
    Texture(TextureRequest),
    /// The program reached `END` (or the fragment was killed); outputs are
    /// ready to collect.
    Finished {
        /// Whether a `KIL` culled the fragment.
        killed: bool,
    },
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
    blocked_on_tex: Option<Instruction>,
}

/// A threaded interpreter executing one [`Program`] for many independent
/// inputs (vertices or fragments).
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

    /// Replaces the running program. Existing threads keep executing the
    /// old shape only if none are live; callers must drain threads first.
    ///
    /// # Panics
    ///
    /// Panics if threads are still live.
    pub fn set_program(&mut self, program: Arc<Program>) {
        assert_eq!(
            self.live_threads(),
            0,
            "cannot switch programs while threads are in flight"
        );
        self.threads.clear();
        self.free_list.clear();
        self.program = program;
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
        st.inputs = [Vec4::ZERO; limits::INPUTS];
        for (i, v) in inputs.iter().take(limits::INPUTS).enumerate() {
            st.inputs[i] = *v;
        }
        st.outputs = [Vec4::ZERO; limits::OUTPUTS];
        st.temps.clear();
        // Exact, not amortized: a fresh slot allocates what `vec![..]` did.
        st.temps.reserve_exact(temps_used);
        st.temps.resize(temps_used, Vec4::ZERO);
        st.killed = false;
        st.finished = false;
        st.blocked_on_tex = None;
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
        let st = &mut self.threads[thread.0];
        assert!(!st.finished, "stepping a finished thread");
        assert!(st.blocked_on_tex.is_none(), "thread is blocked on a texture access");
        let inst = self.program.instructions()[st.pc];

        if inst.op == Opcode::End {
            st.finished = true;
            return StepResult::Finished { killed: st.killed };
        }
        if inst.op.is_texture() {
            let coords = read_src(st, &self.constants, &inst.srcs[0].expect("tex coord src"));
            st.blocked_on_tex = Some(inst);
            return StepResult::Texture(TextureRequest {
                thread,
                sampler: inst.sampler,
                target: inst.tex_target,
                coords,
                lod_bias: if inst.op == Opcode::Txb { coords.w } else { 0.0 },
                projective: inst.op == Opcode::Txp,
            });
        }
        if inst.op == Opcode::Kil {
            let v = read_src(st, &self.constants, &inst.srcs[0].expect("kil src"));
            if v.x < 0.0 || v.y < 0.0 || v.z < 0.0 || v.w < 0.0 {
                st.killed = true;
                st.finished = true;
                return StepResult::Finished { killed: true };
            }
            st.pc += 1;
            return StepResult::Executed { latency: inst.op.default_latency() };
        }

        let result = exec_alu(st, &self.constants, &inst);
        write_dst(st, &inst, result);
        st.pc += 1;
        StepResult::Executed { latency: inst.op.default_latency() }
    }

    /// Delivers the filtered texel for a pending [`TextureRequest`],
    /// unblocking the thread.
    ///
    /// # Panics
    ///
    /// Panics if the thread has no pending texture access.
    pub fn complete_texture(&mut self, thread: ThreadId, texel: Vec4) {
        let st = &mut self.threads[thread.0];
        let inst = st.blocked_on_tex.take().expect("no pending texture access");
        write_dst(st, &inst, texel);
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
                StepResult::Executed { .. } => {}
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

fn read_src(st: &ThreadState, constants: &[Vec4], src: &Src) -> Vec4 {
    let raw = match src.reg.bank {
        Bank::Input => st.inputs[src.reg.index as usize],
        Bank::Temp => st.temps[src.reg.index as usize],
        Bank::Param => constants[src.reg.index as usize],
        Bank::Output => unreachable!("validated programs never read outputs"),
    };
    let sw = src.swizzle.0;
    let v = Vec4::new(
        raw[sw[0].index()],
        raw[sw[1].index()],
        raw[sw[2].index()],
        raw[sw[3].index()],
    );
    if src.negate {
        -v
    } else {
        v
    }
}

fn write_dst(st: &mut ThreadState, inst: &Instruction, mut value: Vec4) {
    let Some(dst) = inst.dst else { return };
    if inst.saturate {
        value = value.saturate();
    }
    let target = match dst.reg.bank {
        Bank::Output => &mut st.outputs[dst.reg.index as usize],
        Bank::Temp => &mut st.temps[dst.reg.index as usize],
        Bank::Input | Bank::Param => unreachable!("validated programs never write these banks"),
    };
    for i in 0..4 {
        if dst.mask.writes(i) {
            target[i] = value[i];
        }
    }
}

fn exec_alu(st: &ThreadState, constants: &[Vec4], inst: &Instruction) -> Vec4 {
    let src = |i: usize| read_src(st, constants, &inst.srcs[i].expect("operand"));
    match inst.op {
        Opcode::Mov => src(0),
        Opcode::Add => src(0) + src(1),
        Opcode::Sub => src(0) - src(1),
        Opcode::Mul => src(0) * src(1),
        Opcode::Mad => src(0) * src(1) + src(2),
        Opcode::Dp3 => Vec4::splat(src(0).dot3(src(1))),
        Opcode::Dp4 => Vec4::splat(src(0).dot4(src(1))),
        Opcode::Dph => Vec4::splat(src(0).dph(src(1))),
        Opcode::Min => src(0).min(src(1)),
        Opcode::Max => src(0).max(src(1)),
        Opcode::Slt => src(0).zip(src(1), |a, b| if a < b { 1.0 } else { 0.0 }),
        Opcode::Sge => src(0).zip(src(1), |a, b| if a >= b { 1.0 } else { 0.0 }),
        Opcode::Rcp => Vec4::splat(1.0 / src(0).x),
        Opcode::Rsq => Vec4::splat(1.0 / src(0).x.abs().sqrt()),
        Opcode::Ex2 => Vec4::splat(src(0).x.exp2()),
        Opcode::Lg2 => Vec4::splat(src(0).x.abs().log2()),
        Opcode::Pow => Vec4::splat(src(0).x.abs().powf(src(1).x)),
        Opcode::Frc => src(0).fract(),
        Opcode::Flr => src(0).floor(),
        Opcode::Abs => src(0).abs(),
        Opcode::Cmp => {
            let (c, a, b) = (src(0), src(1), src(2));
            Vec4::new(
                if c.x < 0.0 { a.x } else { b.x },
                if c.y < 0.0 { a.y } else { b.y },
                if c.z < 0.0 { a.z } else { b.z },
                if c.w < 0.0 { a.w } else { b.w },
            )
        }
        Opcode::Lrp => {
            let (t, a, b) = (src(0), src(1), src(2));
            t * a + (Vec4::ONE - t) * b
        }
        Opcode::Xpd => src(0).cross3(src(1)),
        Opcode::Sin => Vec4::splat(src(0).x.sin()),
        Opcode::Cos => Vec4::splat(src(0).x.cos()),
        Opcode::Tex | Opcode::Txb | Opcode::Txp | Opcode::Kil | Opcode::End => {
            unreachable!("handled before exec_alu")
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
        assert!(matches!(emu.step(t), StepResult::Executed { .. }));
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
