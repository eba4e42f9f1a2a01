//! The decoded-table interpreter against the per-`Instruction` one it
//! replaced.
//!
//! `reference` below is the shader interpreter this crate shipped before
//! programs were decoded once by `Program::new`: every step re-reads the
//! `Instruction`, tests the opcode, resolves each operand's bank, swizzle
//! and negation and the destination's mask. Its stepping is kept verbatim;
//! dropped is what a test needs no more of (program switching, slot reuse
//! and retiring, `run_to_end`).
//!
//! Over seeded random fragment programs — every opcode, random swizzles,
//! negations, write masks and `_SAT`, `KIL` on mixed signs, `TEX`/`TXP`/
//! `TXB` on random samplers and targets — fed inputs and constants that
//! include NaN, ±inf, huge and signed-zero values:
//!
//! * `ShaderEmulator::step`, one thread at a time, must produce the same
//!   step results (latencies, texture requests), the same output bits
//!   (NaNs unified) and the same `killed` flags as the reference;
//! * `ShaderEmulator::step_group` over the four threads in lockstep must
//!   produce what those four independent `step`s did: each lane's outputs
//!   and `killed` flag, each lane's texture coordinates, and for the quad
//!   the bias of its first issuing lane.

use std::collections::BTreeSet;
use std::sync::Arc;

use attila_emu::isa::{
    Bank, Comp, Dst, Instruction, Opcode, Program, Reg, ShaderTarget, Src, Swizzle, TexTarget,
    WriteMask,
};
use attila_emu::shader::{ShaderEmulator, StepResult, TextureRequest, ThreadId};
use attila_emu::vector::Vec4;
use attila_sim::TinyRng;

/// The per-`Instruction` interpreter, as it was.
mod reference {
    use std::sync::Arc;

    use attila_emu::isa::{limits, Bank, Instruction, Opcode, Program, Src};
    use attila_emu::shader::{StepResult, TextureRequest, ThreadId};
    use attila_emu::vector::Vec4;

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

    pub struct ShaderEmulator {
        program: Arc<Program>,
        constants: Vec<Vec4>,
        threads: Vec<ThreadState>,
    }

    impl ShaderEmulator {
        pub fn new(program: Arc<Program>) -> Self {
            ShaderEmulator {
                program,
                constants: vec![Vec4::ZERO; limits::PARAMS],
                threads: Vec::new(),
            }
        }

        pub fn set_constant(&mut self, index: usize, value: Vec4) {
            self.constants[index] = value;
        }

        pub fn spawn(&mut self, inputs: &[Vec4]) -> ThreadId {
            let mut st = ThreadState {
                temps: vec![Vec4::ZERO; self.program.temps_used()],
                ..ThreadState::default()
            };
            for (i, v) in inputs.iter().take(limits::INPUTS).enumerate() {
                st.inputs[i] = *v;
            }
            self.threads.push(st);
            ThreadId(self.threads.len() - 1)
        }

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

        pub fn complete_texture(&mut self, thread: ThreadId, texel: Vec4) {
            let st = &mut self.threads[thread.0];
            let inst = st.blocked_on_tex.take().expect("no pending texture access");
            write_dst(st, &inst, texel);
            st.pc += 1;
        }

        pub fn outputs(&self, thread: ThreadId) -> [Vec4; limits::OUTPUTS] {
            self.threads[thread.0].outputs
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
}

const SEEDS: u64 = 2_500;
const LANES: usize = 4;
const INPUTS: usize = 4;
const TEMPS: usize = 6;
const PARAMS: usize = 6;
const OUTPUTS: usize = 3;

/// A component value: mostly ordinary, sometimes one a shader must not
/// choke on.
fn value(rng: &mut TinyRng) -> f32 {
    match rng.range_u32(0, 16) {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 3.0e38,
        4 => -1.0e30,
        5 => -0.0,
        6 => 0.0,
        7 => 1.0e-40,
        _ => rng.range_f32(-2.0, 2.0),
    }
}

fn vec4(rng: &mut TinyRng) -> Vec4 {
    Vec4::new(value(rng), value(rng), value(rng), value(rng))
}

fn src(rng: &mut TinyRng) -> Src {
    let reg = match rng.range_u32(0, 3) {
        0 => Reg::input(rng.range_u32(0, INPUTS as u32) as usize),
        1 => Reg::temp(rng.range_u32(0, TEMPS as u32) as usize),
        _ => Reg::param(rng.range_u32(0, PARAMS as u32) as usize),
    };
    let mut s = Src::reg(reg);
    if rng.range_u32(0, 2) == 0 {
        s = s.swizzled(Swizzle(std::array::from_fn(|_| {
            Comp::from_index(rng.range_u32(0, 4) as usize)
        })));
    }
    if rng.range_u32(0, 3) == 0 {
        s = s.negated();
    }
    s
}

fn dst(rng: &mut TinyRng) -> Dst {
    let reg = if rng.range_u32(0, 3) == 0 {
        Reg::output(rng.range_u32(0, OUTPUTS as u32) as usize)
    } else {
        Reg::temp(rng.range_u32(0, TEMPS as u32) as usize)
    };
    let mut d = Dst::reg(reg);
    if rng.range_u32(0, 5) < 2 {
        // Any of the 16 masks, the empty one included.
        let bits = rng.range_u32(0, 16);
        d = d.masked(WriteMask(std::array::from_fn(|i| bits & (1 << i) != 0)));
    }
    d
}

/// A random valid fragment program; the last instruction before `END`
/// writes `o0`, so every program has an output worth comparing.
fn program(rng: &mut TinyRng) -> Program {
    let ops: Vec<Opcode> = Opcode::ALL.iter().copied().filter(|&op| op != Opcode::End).collect();
    let len = rng.range_u32(1, 25) as usize;
    let mut insts = Vec::with_capacity(len + 2);
    for _ in 0..len {
        let op = ops[rng.range_u32(0, ops.len() as u32) as usize];
        let mut inst = if op == Opcode::Kil {
            Instruction::kil(src(rng))
        } else if op.is_texture() {
            let target = [TexTarget::Tex1D, TexTarget::Tex2D, TexTarget::Tex3D, TexTarget::Cube]
                [rng.range_u32(0, 4) as usize];
            Instruction::tex(op, dst(rng), src(rng), rng.range_u32(0, 4) as u8, target)
        } else {
            let srcs: Vec<Src> = (0..op.num_srcs()).map(|_| src(rng)).collect();
            Instruction::alu(op, dst(rng), &srcs)
        };
        if op != Opcode::Kil && rng.range_u32(0, 4) == 0 {
            inst = inst.saturated();
        }
        insts.push(inst);
    }
    insts.push(Instruction::alu(Opcode::Mov, Dst::reg(Reg::output(0)), &[src(rng)]));
    insts.push(Instruction::nullary(Opcode::End));
    Program::new(ShaderTarget::Fragment, insts).expect("generated programs are valid")
}

/// The fake texture: a texel that is a pure function of the coordinates'
/// bits, so both interpreters are answered alike.
fn texel(coords: Vec4) -> Vec4 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in [coords.x, coords.y, coords.z, coords.w] {
        h = (h ^ u64::from(key(c))).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let f = |shift: u32| ((h >> shift) & 0xffff) as f32 / 21_845.0 - 1.0;
    Vec4::new(f(0), f(16), f(32), f(48))
}

/// A float's bits with every NaN the same.
fn key(v: f32) -> u32 {
    if v.is_nan() {
        0x7fc0_0000
    } else {
        v.to_bits()
    }
}

fn keys(v: Vec4) -> [u32; 4] {
    [key(v.x), key(v.y), key(v.z), key(v.w)]
}

/// A texture request with its floats as comparable keys.
type Request = (u8, TexTarget, [u32; 4], u32, bool);

fn request(r: &TextureRequest) -> Request {
    (r.sampler, r.target, keys(r.coords), key(r.lod_bias), r.projective)
}

/// One thread's observable run: its step results (texture requests as
/// keys), its outputs and its `killed` flag.
#[derive(Debug, PartialEq, Eq)]
struct Run {
    steps: Vec<(Option<u64>, Option<Request>, Option<bool>)>,
    outputs: Vec<[u32; 4]>,
    killed: bool,
}

/// One thread's `step` / `complete_texture` / outputs, for either
/// interpreter.
trait Thread {
    fn step(&mut self) -> StepResult;
    fn complete(&mut self, texel: Vec4);
    fn outputs(&self) -> Vec<Vec4>;
}

impl Thread for (&mut reference::ShaderEmulator, ThreadId) {
    fn step(&mut self) -> StepResult {
        self.0.step(self.1)
    }
    fn complete(&mut self, texel: Vec4) {
        self.0.complete_texture(self.1, texel)
    }
    fn outputs(&self) -> Vec<Vec4> {
        self.0.outputs(self.1)[..OUTPUTS].to_vec()
    }
}

impl Thread for (&mut ShaderEmulator, ThreadId) {
    fn step(&mut self) -> StepResult {
        self.0.step(self.1)
    }
    fn complete(&mut self, texel: Vec4) {
        self.0.complete_texture(self.1, texel)
    }
    fn outputs(&self) -> Vec<Vec4> {
        self.0.outputs(self.1)[..OUTPUTS].to_vec()
    }
}

/// Runs one thread to its end, answering each texture access with
/// [`texel`].
fn run_thread(mut thread: impl Thread) -> Run {
    let mut steps = Vec::new();
    let killed = loop {
        match thread.step() {
            StepResult::Executed { latency } => steps.push((Some(latency), None, None)),
            StepResult::Texture(req) => {
                steps.push((None, Some(request(&req)), None));
                thread.complete(texel(req.coords));
            }
            StepResult::Finished { killed } => {
                steps.push((None, None, Some(killed)));
                break killed;
            }
        }
    };
    Run { steps, outputs: thread.outputs().into_iter().map(keys).collect(), killed }
}

/// What the seeds covered, asserted once at the end.
#[derive(Default)]
struct Coverage {
    ops: BTreeSet<&'static str>,
    killed_lanes: usize,
    surviving_lanes: usize,
    split_kills: usize,
    biased_quads: usize,
    nan_outputs: usize,
    inf_outputs: usize,
}

#[test]
fn decoded_interpreter_matches_the_per_instruction_one() {
    let mut cov = Coverage::default();
    for seed in 0..SEEDS {
        let mut rng = TinyRng::new(seed);
        let program = Arc::new(program(&mut rng));
        let constants: Vec<Vec4> = (0..PARAMS).map(|_| vec4(&mut rng)).collect();
        let inputs: Vec<Vec<Vec4>> =
            (0..LANES).map(|_| (0..INPUTS).map(|_| vec4(&mut rng)).collect()).collect();
        let ctx = || format!("seed {seed}:\n{}", attila_emu::asm::disassemble(&program));

        let mut reference = reference::ShaderEmulator::new(Arc::clone(&program));
        let mut single = ShaderEmulator::new(Arc::clone(&program));
        let mut group = ShaderEmulator::new(Arc::clone(&program));
        for (i, c) in constants.iter().enumerate() {
            reference.set_constant(i, *c);
            single.set_constant(i, *c);
            group.set_constant(i, *c);
        }

        // Four independent threads through each interpreter's `step`.
        let mut expected = Vec::new();
        for lane_inputs in &inputs {
            let t = reference.spawn(lane_inputs);
            let want = run_thread((&mut reference, t));
            let t = single.spawn(lane_inputs);
            let got = run_thread((&mut single, t));
            assert_eq!(got, want, "`step` diverges from the reference, {}", ctx());
            expected.push(want);
        }

        // The same four threads as one lockstep group.
        let threads: [ThreadId; LANES] = std::array::from_fn(|i| group.spawn(&inputs[i]));
        let mut done = [false; LANES];
        let mut killed = [false; LANES];
        let mut requests: [Vec<Request>; LANES] = Default::default();
        while !done.iter().all(|d| *d) {
            let step = group.step_group(&threads, &done);
            cov.ops.insert(step.op.mnemonic());
            assert_eq!(step.latency, step.op.default_latency(), "{}", ctx());
            for lane in 0..LANES {
                if step.finished[lane] {
                    done[lane] = true;
                    killed[lane] = step.killed[lane];
                }
            }
            if step.op == Opcode::Kil && step.executed && step.finished.iter().any(|f| *f) {
                cov.split_kills += 1;
            }
            let Some(tex) = step.texture else { continue };
            let first = tex.lanes.iter().position(|l| *l).expect("an issuing lane");
            let mut biases = BTreeSet::new();
            for lane in 0..LANES {
                assert_eq!(tex.lanes[lane], !done[lane], "lane {lane} issue, {}", ctx());
                let coords = if tex.lanes[lane] { tex.coords[lane] } else { tex.coords[first] };
                assert_eq!(keys(tex.coords[lane]), keys(coords), "helper coordinates, {}", ctx());
                if tex.lanes[lane] {
                    let bias = if step.op == Opcode::Txb { tex.coords[lane].w } else { 0.0 };
                    biases.insert(key(bias));
                    requests[lane].push((
                        tex.sampler,
                        tex.target,
                        keys(tex.coords[lane]),
                        key(bias),
                        tex.projective,
                    ));
                    group.complete_texture(threads[lane], texel(tex.coords[lane]));
                }
            }
            let first_bias = if step.op == Opcode::Txb { tex.coords[first].w } else { 0.0 };
            assert_eq!(key(tex.lod_bias), key(first_bias), "the quad's bias, {}", ctx());
            if biases.len() > 1 {
                cov.biased_quads += 1;
            }
        }
        for lane in 0..LANES {
            let want = &expected[lane];
            let outputs: Vec<[u32; 4]> =
                group.outputs(threads[lane])[..OUTPUTS].iter().map(|v| keys(*v)).collect();
            assert_eq!(outputs, want.outputs, "lane {lane} outputs, {}", ctx());
            assert_eq!(killed[lane], want.killed, "lane {lane} killed, {}", ctx());
            let want_requests: Vec<Request> = want.steps.iter().filter_map(|s| s.1).collect();
            assert_eq!(requests[lane], want_requests, "lane {lane} requests, {}", ctx());
            if want.killed {
                cov.killed_lanes += 1;
            } else {
                cov.surviving_lanes += 1;
            }
            cov.nan_outputs += outputs.iter().flatten().filter(|&&b| b == key(f32::NAN)).count();
            cov.inf_outputs += outputs
                .iter()
                .flatten()
                .filter(|&&b| f32::from_bits(b).is_infinite())
                .count();
        }
    }

    let missing: Vec<_> =
        Opcode::ALL.iter().map(|op| op.mnemonic()).filter(|m| !cov.ops.contains(m)).collect();
    assert!(missing.is_empty(), "opcodes never executed: {missing:?}");
    assert!(cov.killed_lanes > 100 && cov.surviving_lanes > 100, "KIL both ways");
    assert!(cov.split_kills > 10, "KIL splitting a quad: {}", cov.split_kills);
    assert!(cov.biased_quads > 10, "TXB quads with differing biases: {}", cov.biased_quads);
    assert!(cov.nan_outputs > 100 && cov.inf_outputs > 100, "special values reach outputs");
}

/// The operand shapes the generator must produce, checked on the
/// programs themselves.
#[test]
fn generated_programs_cover_every_operand_shape() {
    let (mut swizzled, mut negated, mut masked, mut saturated) = (0, 0, 0, 0);
    let mut banks = BTreeSet::new();
    for seed in 0..SEEDS {
        let program = program(&mut TinyRng::new(seed));
        for inst in program.instructions() {
            for s in inst.srcs.iter().flatten() {
                swizzled += usize::from(!s.swizzle.is_identity());
                negated += usize::from(s.negate);
                banks.insert(format!("{:?}", s.reg.bank));
            }
            if let Some(d) = inst.dst {
                masked += usize::from(!d.mask.is_all());
                banks.insert(format!("{:?} dst", d.reg.bank));
            }
            saturated += usize::from(inst.saturate);
        }
    }
    assert!(swizzled > 1000 && negated > 1000 && masked > 1000 && saturated > 1000);
    for bank in [Bank::Input, Bank::Temp, Bank::Param] {
        assert!(banks.contains(&format!("{bank:?}")), "{bank:?} sources");
    }
    assert!(banks.contains("Output dst") && banks.contains("Temp dst"));
}
