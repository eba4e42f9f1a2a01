//! The ATTILA shader instruction set.
//!
//! The unified shader ISA is modelled on the `ARB_vertex_program` /
//! `ARB_fragment_program` OpenGL extensions, exactly as in the paper
//! (§2.3): the shader works on 4-component 32-bit floating-point registers
//! and implements SIMD and scalar instructions; the fragment/unified target
//! adds texture instructions for accessing memory and a `KIL` instruction
//! for culling fragments.
//!
//! The ARB model defines four register banks: **input** attributes (read
//! only), **output** attributes (write only), **temporary** registers
//! (read/write) and **constants** (read only, called *parameters* here).

use std::fmt;

/// Shader target: which pipeline stage a program runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShaderTarget {
    /// Vertex program (`!!ARBvp1.0`-style).
    Vertex,
    /// Fragment program (`!!ARBfp1.0`-style); may use `TEX*` and `KIL`.
    Fragment,
}

impl fmt::Display for ShaderTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShaderTarget::Vertex => write!(f, "vertex"),
            ShaderTarget::Fragment => write!(f, "fragment"),
        }
    }
}

/// Architectural limits of the shader model.
pub mod limits {
    /// Input attribute registers per thread.
    pub const INPUTS: usize = 16;
    /// Output attribute registers per thread.
    pub const OUTPUTS: usize = 16;
    /// Temporary registers addressable by a program (the ARB ISA defines up
    /// to 32; real programs use 2–8, which bounds thread availability).
    pub const TEMPS: usize = 32;
    /// Constant (parameter) registers per program.
    pub const PARAMS: usize = 256;
    /// Texture samplers addressable by a fragment program.
    pub const SAMPLERS: usize = 16;
    /// Maximum instructions per program (the paper notes a "relatively
    /// small shader instruction memory" preloaded per batch).
    pub const MAX_INSTRUCTIONS: usize = 512;
}

/// Register banks of the ARB programming model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bank {
    /// Read-only per-thread input attributes (`v[n]` / fragment inputs).
    Input,
    /// Write-only per-thread outputs (`result.*`).
    Output,
    /// Read/write temporaries (`r0..r31`).
    Temp,
    /// Read-only constants (`c[n]`, program parameters).
    Param,
}

impl fmt::Display for Bank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bank::Input => write!(f, "i"),
            Bank::Output => write!(f, "o"),
            Bank::Temp => write!(f, "r"),
            Bank::Param => write!(f, "c"),
        }
    }
}

/// A register reference: a bank plus an index within the bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg {
    /// Which bank the register lives in.
    pub bank: Bank,
    /// Index within the bank.
    pub index: u8,
}

impl Reg {
    /// Creates a register reference, validating the index against the
    /// bank's architectural limit.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for `bank`.
    pub fn new(bank: Bank, index: usize) -> Self {
        let limit = match bank {
            Bank::Input => limits::INPUTS,
            Bank::Output => limits::OUTPUTS,
            Bank::Temp => limits::TEMPS,
            Bank::Param => limits::PARAMS,
        };
        assert!(index < limit, "register index {index} out of range for bank {bank:?}");
        Reg { bank, index: index as u8 }
    }

    /// Input register `i<n>`.
    pub fn input(n: usize) -> Self {
        Reg::new(Bank::Input, n)
    }

    /// Output register `o<n>`.
    pub fn output(n: usize) -> Self {
        Reg::new(Bank::Output, n)
    }

    /// Temporary register `r<n>`.
    pub fn temp(n: usize) -> Self {
        Reg::new(Bank::Temp, n)
    }

    /// Constant register `c<n>`.
    pub fn param(n: usize) -> Self {
        Reg::new(Bank::Param, n)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.bank, self.index)
    }
}

/// One of the four vector components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Comp {
    /// First component.
    X,
    /// Second component.
    Y,
    /// Third component.
    Z,
    /// Fourth component.
    W,
}

impl Comp {
    /// The component's index (0–3).
    pub fn index(self) -> usize {
        match self {
            Comp::X => 0,
            Comp::Y => 1,
            Comp::Z => 2,
            Comp::W => 3,
        }
    }

    /// The component selecting `index` (0–3).
    ///
    /// # Panics
    ///
    /// Panics if `index > 3`.
    pub fn from_index(index: usize) -> Self {
        match index {
            0 => Comp::X,
            1 => Comp::Y,
            2 => Comp::Z,
            3 => Comp::W,
            _ => panic!("component index {index} out of range"),
        }
    }

    /// The single-letter name (`x`, `y`, `z`, `w`).
    pub fn letter(self) -> char {
        match self {
            Comp::X => 'x',
            Comp::Y => 'y',
            Comp::Z => 'z',
            Comp::W => 'w',
        }
    }

    /// Parses a single-letter component name.
    pub fn from_letter(c: char) -> Option<Self> {
        match c {
            'x' => Some(Comp::X),
            'y' => Some(Comp::Y),
            'z' => Some(Comp::Z),
            'w' => Some(Comp::W),
            _ => None,
        }
    }
}

/// A component swizzle applied to a source operand (e.g. `.xyzw`, `.wzyx`,
/// `.xxxx`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Swizzle(pub [Comp; 4]);

impl Swizzle {
    /// The identity swizzle `.xyzw`.
    pub const IDENTITY: Swizzle = Swizzle([Comp::X, Comp::Y, Comp::Z, Comp::W]);

    /// Broadcast of a single component (`.xxxx` etc.), as used by scalar
    /// instructions.
    pub fn broadcast(c: Comp) -> Self {
        Swizzle([c, c, c, c])
    }

    /// Whether this is the identity swizzle.
    pub fn is_identity(self) -> bool {
        self == Swizzle::IDENTITY
    }

    /// Parses suffixes like `xyzw`, `x` (scalar select) or 4-letter
    /// patterns. A single letter broadcasts per ARB semantics.
    pub fn parse(s: &str) -> Option<Self> {
        let chars: Vec<Comp> = s.chars().map(Comp::from_letter).collect::<Option<_>>()?;
        match chars.len() {
            1 => Some(Swizzle::broadcast(chars[0])),
            4 => Some(Swizzle([chars[0], chars[1], chars[2], chars[3]])),
            _ => None,
        }
    }
}

impl Default for Swizzle {
    fn default() -> Self {
        Swizzle::IDENTITY
    }
}

impl fmt::Display for Swizzle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0 {
            write!(f, "{}", c.letter())?;
        }
        Ok(())
    }
}

/// A destination write mask (e.g. `.xyz`). Components not in the mask keep
/// their previous value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WriteMask(pub [bool; 4]);

impl WriteMask {
    /// Write all four components.
    pub const ALL: WriteMask = WriteMask([true; 4]);

    /// Parses masks like `xyzw`, `xz`, `w` (letters must appear in
    /// `x y z w` order, per ARB grammar).
    pub fn parse(s: &str) -> Option<Self> {
        let mut mask = [false; 4];
        let mut last = -1i32;
        for ch in s.chars() {
            let c = Comp::from_letter(ch)?;
            let i = c.index() as i32;
            if i <= last {
                return None;
            }
            last = i;
            mask[c.index()] = true;
        }
        Some(WriteMask(mask))
    }

    /// Whether the mask writes component `i`.
    pub fn writes(self, i: usize) -> bool {
        self.0[i]
    }

    /// Whether all components are written.
    pub fn is_all(self) -> bool {
        self == WriteMask::ALL
    }
}

impl Default for WriteMask {
    fn default() -> Self {
        WriteMask::ALL
    }
}

impl fmt::Display for WriteMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, on) in self.0.iter().enumerate() {
            if *on {
                write!(f, "{}", Comp::from_index(i).letter())?;
            }
        }
        Ok(())
    }
}

/// A source operand: register + swizzle + optional negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Src {
    /// The register read.
    pub reg: Reg,
    /// Component swizzle applied after the read.
    pub swizzle: Swizzle,
    /// Whether the (swizzled) value is negated.
    pub negate: bool,
}

impl Src {
    /// A plain, un-swizzled, un-negated source.
    pub fn reg(reg: Reg) -> Self {
        Src { reg, swizzle: Swizzle::IDENTITY, negate: false }
    }

    /// Applies a swizzle.
    pub fn swizzled(mut self, sw: Swizzle) -> Self {
        self.swizzle = sw;
        self
    }

    /// Negates the operand.
    pub fn negated(mut self) -> Self {
        self.negate = true;
        self
    }
}

impl fmt::Display for Src {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negate {
            write!(f, "-")?;
        }
        write!(f, "{}", self.reg)?;
        if !self.swizzle.is_identity() {
            write!(f, ".{}", self.swizzle)?;
        }
        Ok(())
    }
}

/// A destination operand: register + write mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dst {
    /// The register written.
    pub reg: Reg,
    /// Which components are written.
    pub mask: WriteMask,
}

impl Dst {
    /// A full-mask destination.
    pub fn reg(reg: Reg) -> Self {
        Dst { reg, mask: WriteMask::ALL }
    }

    /// Restricts the write mask.
    pub fn masked(mut self, mask: WriteMask) -> Self {
        self.mask = mask;
        self
    }
}

impl fmt::Display for Dst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.reg)?;
        if !self.mask.is_all() {
            write!(f, ".{}", self.mask)?;
        }
        Ok(())
    }
}

/// Shader opcodes (the ARB vp/fp 1.0 instruction set, minus the rarely
/// used `SWZ`/`SCS`/`DST`/`LIT`, plus nothing — no branching until the
/// Shader Model 3 upgrade the paper lists as future work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Copy.
    Mov,
    /// Add.
    Add,
    /// Subtract.
    Sub,
    /// Multiply.
    Mul,
    /// Multiply-add: `dst = s0 * s1 + s2`.
    Mad,
    /// 3-component dot product (broadcast).
    Dp3,
    /// 4-component dot product (broadcast).
    Dp4,
    /// Homogeneous dot product (broadcast).
    Dph,
    /// Component minimum.
    Min,
    /// Component maximum.
    Max,
    /// Set-on-less-than: `dst = (s0 < s1) ? 1 : 0` per component.
    Slt,
    /// Set-on-greater-equal.
    Sge,
    /// Scalar reciprocal (broadcast).
    Rcp,
    /// Scalar reciprocal square root (broadcast).
    Rsq,
    /// Scalar `2^x` (broadcast).
    Ex2,
    /// Scalar `log2 x` (broadcast).
    Lg2,
    /// Scalar power `s0 ^ s1` (broadcast).
    Pow,
    /// Fractional part per component.
    Frc,
    /// Floor per component.
    Flr,
    /// Absolute value per component.
    Abs,
    /// Conditional select: `dst = (s0 < 0) ? s1 : s2` per component.
    Cmp,
    /// Linear interpolation: `dst = s0 * s1 + (1 - s0) * s2`.
    Lrp,
    /// Cross product (xyz).
    Xpd,
    /// Scalar sine (broadcast; fragment-profile trig).
    Sin,
    /// Scalar cosine (broadcast).
    Cos,
    /// Texture sample: `dst = sample(sampler, s0.xy[z])`.
    Tex,
    /// Texture sample with LOD bias in `s0.w`.
    Txb,
    /// Projective texture sample (`s0.xyz / s0.w`).
    Txp,
    /// Kill the fragment if any component of `s0` is negative.
    Kil,
    /// End of program.
    End,
}

impl Opcode {
    /// Number of opcodes — the size of dense per-opcode lookup tables.
    pub const COUNT: usize = Opcode::ALL.len();

    /// Every opcode, in declaration order (`op as usize` indexes it).
    pub const ALL: [Opcode; 30] = [
        Opcode::Mov, Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Mad,
        Opcode::Dp3, Opcode::Dp4, Opcode::Dph, Opcode::Min, Opcode::Max,
        Opcode::Slt, Opcode::Sge, Opcode::Rcp, Opcode::Rsq, Opcode::Ex2,
        Opcode::Lg2, Opcode::Pow, Opcode::Frc, Opcode::Flr, Opcode::Abs,
        Opcode::Cmp, Opcode::Lrp, Opcode::Xpd, Opcode::Sin, Opcode::Cos,
        Opcode::Tex, Opcode::Txb, Opcode::Txp, Opcode::Kil, Opcode::End,
    ];

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Mov => "MOV",
            Opcode::Add => "ADD",
            Opcode::Sub => "SUB",
            Opcode::Mul => "MUL",
            Opcode::Mad => "MAD",
            Opcode::Dp3 => "DP3",
            Opcode::Dp4 => "DP4",
            Opcode::Dph => "DPH",
            Opcode::Min => "MIN",
            Opcode::Max => "MAX",
            Opcode::Slt => "SLT",
            Opcode::Sge => "SGE",
            Opcode::Rcp => "RCP",
            Opcode::Rsq => "RSQ",
            Opcode::Ex2 => "EX2",
            Opcode::Lg2 => "LG2",
            Opcode::Pow => "POW",
            Opcode::Frc => "FRC",
            Opcode::Flr => "FLR",
            Opcode::Abs => "ABS",
            Opcode::Cmp => "CMP",
            Opcode::Lrp => "LRP",
            Opcode::Xpd => "XPD",
            Opcode::Sin => "SIN",
            Opcode::Cos => "COS",
            Opcode::Tex => "TEX",
            Opcode::Txb => "TXB",
            Opcode::Txp => "TXP",
            Opcode::Kil => "KIL",
            Opcode::End => "END",
        }
    }

    /// Parses a mnemonic (optionally with the `_SAT` suffix stripped by the
    /// assembler).
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Some(match s {
            "MOV" => Opcode::Mov,
            "ADD" => Opcode::Add,
            "SUB" => Opcode::Sub,
            "MUL" => Opcode::Mul,
            "MAD" => Opcode::Mad,
            "DP3" => Opcode::Dp3,
            "DP4" => Opcode::Dp4,
            "DPH" => Opcode::Dph,
            "MIN" => Opcode::Min,
            "MAX" => Opcode::Max,
            "SLT" => Opcode::Slt,
            "SGE" => Opcode::Sge,
            "RCP" => Opcode::Rcp,
            "RSQ" => Opcode::Rsq,
            "EX2" => Opcode::Ex2,
            "LG2" => Opcode::Lg2,
            "POW" => Opcode::Pow,
            "FRC" => Opcode::Frc,
            "FLR" => Opcode::Flr,
            "ABS" => Opcode::Abs,
            "CMP" => Opcode::Cmp,
            "LRP" => Opcode::Lrp,
            "XPD" => Opcode::Xpd,
            "SIN" => Opcode::Sin,
            "COS" => Opcode::Cos,
            "TEX" => Opcode::Tex,
            "TXB" => Opcode::Txb,
            "TXP" => Opcode::Txp,
            "KIL" => Opcode::Kil,
            "END" => Opcode::End,
            _ => return None,
        })
    }

    /// Number of source operands the opcode takes.
    pub fn num_srcs(self) -> usize {
        match self {
            Opcode::End => 0,
            Opcode::Mov
            | Opcode::Rcp
            | Opcode::Rsq
            | Opcode::Ex2
            | Opcode::Lg2
            | Opcode::Frc
            | Opcode::Flr
            | Opcode::Abs
            | Opcode::Sin
            | Opcode::Cos
            | Opcode::Tex
            | Opcode::Txb
            | Opcode::Txp
            | Opcode::Kil => 1,
            Opcode::Add
            | Opcode::Sub
            | Opcode::Mul
            | Opcode::Dp3
            | Opcode::Dp4
            | Opcode::Dph
            | Opcode::Min
            | Opcode::Max
            | Opcode::Slt
            | Opcode::Sge
            | Opcode::Pow
            | Opcode::Xpd => 2,
            Opcode::Mad | Opcode::Cmp | Opcode::Lrp => 3,
        }
    }

    /// Whether the opcode writes a destination register.
    pub fn has_dst(self) -> bool {
        !matches!(self, Opcode::Kil | Opcode::End)
    }

    /// Whether the opcode reads texture memory (blocks the thread in the
    /// timing model until the Texture Unit answers).
    pub fn is_texture(self) -> bool {
        matches!(self, Opcode::Tex | Opcode::Txb | Opcode::Txp)
    }

    /// Whether the opcode is restricted to the fragment/unified profile.
    pub fn fragment_only(self) -> bool {
        self.is_texture() || matches!(self, Opcode::Kil | Opcode::Sin | Opcode::Cos)
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

/// Texture target named by a `TEX`-family instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TexTarget {
    /// One-dimensional texture.
    Tex1D,
    /// Two-dimensional texture (the default).
    #[default]
    Tex2D,
    /// Three-dimensional texture.
    Tex3D,
    /// Cube map.
    Cube,
}

impl TexTarget {
    /// The assembly keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            TexTarget::Tex1D => "1D",
            TexTarget::Tex2D => "2D",
            TexTarget::Tex3D => "3D",
            TexTarget::Cube => "CUBE",
        }
    }

    /// Parses the assembly keyword.
    pub fn from_keyword(s: &str) -> Option<Self> {
        match s {
            "1D" => Some(TexTarget::Tex1D),
            "2D" => Some(TexTarget::Tex2D),
            "3D" => Some(TexTarget::Tex3D),
            "CUBE" => Some(TexTarget::Cube),
            _ => None,
        }
    }
}

/// One decoded shader instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instruction {
    /// The operation.
    pub op: Opcode,
    /// Destination operand, for opcodes with [`Opcode::has_dst`].
    pub dst: Option<Dst>,
    /// Source operands (`num_srcs` of them are `Some`).
    pub srcs: [Option<Src>; 3],
    /// Texture sampler index for `TEX`-family opcodes.
    pub sampler: u8,
    /// Texture target for `TEX`-family opcodes.
    pub tex_target: TexTarget,
    /// Whether the result is clamped to `[0,1]` (`_SAT` suffix).
    pub saturate: bool,
}

impl Instruction {
    /// Builds an instruction with no operands (e.g. `END`).
    pub fn nullary(op: Opcode) -> Self {
        Instruction {
            op,
            dst: None,
            srcs: [None; 3],
            sampler: 0,
            tex_target: TexTarget::default(),
            saturate: false,
        }
    }

    /// Builds a standard ALU instruction.
    pub fn alu(op: Opcode, dst: Dst, srcs: &[Src]) -> Self {
        assert_eq!(srcs.len(), op.num_srcs(), "wrong operand count for {op}");
        assert!(op.has_dst(), "{op} does not write a destination");
        let mut s = [None; 3];
        for (i, src) in srcs.iter().enumerate() {
            s[i] = Some(*src);
        }
        Instruction {
            op,
            dst: Some(dst),
            srcs: s,
            sampler: 0,
            tex_target: TexTarget::default(),
            saturate: false,
        }
    }

    /// Builds a texture instruction.
    pub fn tex(op: Opcode, dst: Dst, coord: Src, sampler: u8, target: TexTarget) -> Self {
        assert!(op.is_texture(), "{op} is not a texture opcode");
        Instruction {
            op,
            dst: Some(dst),
            srcs: [Some(coord), None, None],
            sampler,
            tex_target: target,
            saturate: false,
        }
    }

    /// Builds a `KIL` instruction.
    pub fn kil(src: Src) -> Self {
        Instruction {
            op: Opcode::Kil,
            dst: None,
            srcs: [Some(src), None, None],
            sampler: 0,
            tex_target: TexTarget::default(),
            saturate: false,
        }
    }

    /// Enables result saturation (`_SAT`).
    pub fn saturated(mut self) -> Self {
        self.saturate = true;
        self
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.op.mnemonic())?;
        if self.saturate {
            write!(f, "_SAT")?;
        }
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if first {
                first = false;
                write!(f, " ")
            } else {
                write!(f, ", ")
            }
        };
        if let Some(dst) = &self.dst {
            sep(f)?;
            write!(f, "{dst}")?;
        }
        for src in self.srcs.iter().flatten() {
            sep(f)?;
            write!(f, "{src}")?;
        }
        if self.op.is_texture() {
            sep(f)?;
            write!(f, "texture[{}]", self.sampler)?;
            sep(f)?;
            write!(f, "{}", self.tex_target.keyword())?;
        }
        Ok(())
    }
}

/// A complete shader program: validated instruction list plus metadata the
/// timing simulator needs (temporaries used → thread availability).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    target: ShaderTarget,
    instructions: Vec<Instruction>,
    /// `instructions` lowered once for the interpreter, index for index.
    decoded: Vec<Decoded>,
    temps_used: usize,
    samplers_used: Vec<u8>,
    has_kill: bool,
}

/// The register file a decoded source operand reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SrcBank {
    Input,
    Temp,
    Param,
}

/// A source operand with its swizzle and negation resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DecodedSrc {
    pub(crate) bank: SrcBank,
    pub(crate) index: u8,
    /// Component indices (0–3) read for `x y z w`.
    pub(crate) swizzle: [u8; 4],
    /// `swizzle` is `[0, 1, 2, 3]`: the register is read as is.
    pub(crate) identity: bool,
    pub(crate) negate: bool,
}

impl DecodedSrc {
    /// What an operand slot the opcode does not read holds: never read.
    const UNUSED: DecodedSrc = DecodedSrc {
        bank: SrcBank::Param,
        index: 0,
        swizzle: [0, 1, 2, 3],
        identity: true,
        negate: false,
    };

    fn new(src: &Src) -> Self {
        DecodedSrc {
            bank: match src.reg.bank {
                Bank::Input => SrcBank::Input,
                Bank::Temp => SrcBank::Temp,
                Bank::Param => SrcBank::Param,
                Bank::Output => unreachable!("validated programs never read outputs"),
            },
            index: src.reg.index,
            swizzle: src.swizzle.0.map(|c| c.index() as u8),
            identity: src.swizzle.is_identity(),
            negate: src.negate,
        }
    }
}

/// The register file a decoded destination writes, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DstBank {
    None,
    Output,
    Temp,
}

/// A destination with its write mask resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DecodedDst {
    pub(crate) bank: DstBank,
    pub(crate) index: u8,
    pub(crate) mask: [bool; 4],
    /// `mask` writes all four components.
    pub(crate) full: bool,
}

/// How the interpreter treats an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Alu,
    Tex,
    Kil,
    End,
}

/// One instruction lowered for the interpreter: operands, mask and the
/// temporaries a scheduler must see ready before issuing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Decoded {
    pub(crate) kind: Kind,
    pub(crate) op: Opcode,
    /// The first `op.num_srcs()` are the operands; the rest are unused.
    pub(crate) srcs: [DecodedSrc; 3],
    pub(crate) dst: DecodedDst,
    pub(crate) saturate: bool,
    pub(crate) sampler: u8,
    pub(crate) tex_target: TexTarget,
    /// Temporaries read or written, `temps[..n_temps]`.
    temps: [u8; 4],
    n_temps: u8,
}

impl Decoded {
    fn new(inst: &Instruction) -> Self {
        let mut srcs = [DecodedSrc::UNUSED; 3];
        let mut temps = [0; 4];
        let mut n_temps = 0;
        for (slot, src) in srcs.iter_mut().zip(&inst.srcs).take(inst.op.num_srcs()) {
            let src = src.as_ref().expect("validated programs have every operand");
            *slot = DecodedSrc::new(src);
            if src.reg.bank == Bank::Temp {
                temps[n_temps] = src.reg.index;
                n_temps += 1;
            }
        }
        let dst = match inst.dst {
            None => DecodedDst { bank: DstBank::None, index: 0, mask: [false; 4], full: false },
            Some(dst) => {
                let bank = match dst.reg.bank {
                    Bank::Output => DstBank::Output,
                    Bank::Temp => {
                        temps[n_temps] = dst.reg.index;
                        n_temps += 1;
                        DstBank::Temp
                    }
                    Bank::Input | Bank::Param => {
                        unreachable!("validated programs never write these banks")
                    }
                };
                DecodedDst { bank, index: dst.reg.index, mask: dst.mask.0, full: dst.mask.is_all() }
            }
        };
        let kind = match inst.op {
            Opcode::End => Kind::End,
            Opcode::Kil => Kind::Kil,
            op if op.is_texture() => Kind::Tex,
            _ => Kind::Alu,
        };
        Decoded {
            kind,
            op: inst.op,
            srcs,
            dst,
            saturate: inst.saturate,
            sampler: inst.sampler,
            tex_target: inst.tex_target,
            temps,
            n_temps: n_temps as u8,
        }
    }
}

/// Errors produced when validating a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The program has no `END` instruction or it is not last.
    MissingEnd,
    /// The program exceeds [`limits::MAX_INSTRUCTIONS`].
    TooLong(usize),
    /// A fragment-only opcode appears in a vertex program.
    FragmentOnlyOpcode(Opcode),
    /// An instruction reads an `Output` register or writes a non-writable
    /// bank.
    BadBankUsage(&'static str),
    /// An instruction lacks one of the source operands its opcode reads.
    MissingOperand(Opcode),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::MissingEnd => write!(f, "program must end with a single END"),
            ProgramError::TooLong(n) => {
                write!(f, "program has {n} instructions, max {}", limits::MAX_INSTRUCTIONS)
            }
            ProgramError::FragmentOnlyOpcode(op) => {
                write!(f, "opcode {op} is not allowed in a vertex program")
            }
            ProgramError::BadBankUsage(what) => write!(f, "invalid register bank usage: {what}"),
            ProgramError::MissingOperand(op) => write!(f, "{op} is missing a source operand"),
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Validates an instruction list into a program.
    ///
    /// # Errors
    ///
    /// See [`ProgramError`].
    pub fn new(
        target: ShaderTarget,
        instructions: Vec<Instruction>,
    ) -> Result<Self, ProgramError> {
        if instructions.len() > limits::MAX_INSTRUCTIONS {
            return Err(ProgramError::TooLong(instructions.len()));
        }
        match instructions.last() {
            Some(i) if i.op == Opcode::End => {}
            _ => return Err(ProgramError::MissingEnd),
        }
        if instructions.iter().filter(|i| i.op == Opcode::End).count() != 1 {
            return Err(ProgramError::MissingEnd);
        }
        let mut temps_used = 0usize;
        let mut samplers_used = Vec::new();
        let mut has_kill = false;
        for inst in &instructions {
            if target == ShaderTarget::Vertex && inst.op.fragment_only() {
                return Err(ProgramError::FragmentOnlyOpcode(inst.op));
            }
            if inst.op == Opcode::Kil {
                has_kill = true;
            }
            if inst.srcs.iter().take(inst.op.num_srcs()).any(Option::is_none) {
                return Err(ProgramError::MissingOperand(inst.op));
            }
            if let Some(dst) = &inst.dst {
                match dst.reg.bank {
                    Bank::Temp => temps_used = temps_used.max(dst.reg.index as usize + 1),
                    Bank::Output => {}
                    Bank::Input | Bank::Param => {
                        return Err(ProgramError::BadBankUsage("write to read-only bank"))
                    }
                }
            }
            for src in inst.srcs.iter().flatten() {
                match src.reg.bank {
                    Bank::Output => {
                        return Err(ProgramError::BadBankUsage("read from output bank"))
                    }
                    Bank::Temp => temps_used = temps_used.max(src.reg.index as usize + 1),
                    _ => {}
                }
            }
            if inst.op.is_texture() && !samplers_used.contains(&inst.sampler) {
                samplers_used.push(inst.sampler);
            }
        }
        samplers_used.sort_unstable();
        let decoded = instructions.iter().map(Decoded::new).collect();
        Ok(Program { target, instructions, decoded, temps_used, samplers_used, has_kill })
    }

    /// The decoded form of every instruction, index for index.
    pub(crate) fn decoded(&self) -> &[Decoded] {
        &self.decoded
    }

    /// The temporaries instruction `pc` reads or writes: what must be
    /// ready before it issues.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is past the end of the program.
    pub fn temp_operands(&self, pc: usize) -> &[u8] {
        let d = &self.decoded[pc];
        &d.temps[..d.n_temps as usize]
    }

    /// The temporary instruction `pc` writes, if it writes one.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is past the end of the program.
    pub fn temp_dst(&self, pc: usize) -> Option<u8> {
        let dst = &self.decoded[pc].dst;
        (dst.bank == DstBank::Temp).then_some(dst.index)
    }

    /// The shader target.
    pub fn target(&self) -> ShaderTarget {
        self.target
    }

    /// The validated instructions (ends with `END`).
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions including `END`.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program is just `END`.
    pub fn is_empty(&self) -> bool {
        self.instructions.len() <= 1
    }

    /// Highest temporary register index used plus one. Determines how many
    /// physical registers a thread needs, which limits the number of
    /// threads in flight (paper §2.3).
    pub fn temps_used(&self) -> usize {
        self.temps_used
    }

    /// Sorted list of sampler indices the program reads.
    pub fn samplers_used(&self) -> &[u8] {
        &self.samplers_used
    }

    /// Whether the program may kill fragments.
    pub fn has_kill(&self) -> bool {
        self.has_kill
    }

    /// Number of texture instructions (the ALU:TEX ratio of the case study
    /// derives from this).
    pub fn texture_instruction_count(&self) -> usize {
        self.instructions.iter().filter(|i| i.op.is_texture()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swizzle_parse_forms() {
        assert_eq!(Swizzle::parse("xyzw"), Some(Swizzle::IDENTITY));
        assert_eq!(Swizzle::parse("x"), Some(Swizzle::broadcast(Comp::X)));
        assert_eq!(
            Swizzle::parse("wzyx"),
            Some(Swizzle([Comp::W, Comp::Z, Comp::Y, Comp::X]))
        );
        assert_eq!(Swizzle::parse("xy"), None);
        assert_eq!(Swizzle::parse("abcd"), None);
    }

    #[test]
    fn write_mask_requires_order() {
        assert_eq!(WriteMask::parse("xw"), Some(WriteMask([true, false, false, true])));
        assert_eq!(WriteMask::parse("wx"), None);
        assert_eq!(WriteMask::parse("xyzw"), Some(WriteMask::ALL));
    }

    #[test]
    fn opcode_mnemonic_round_trip() {
        for op in [
            Opcode::Mov,
            Opcode::Mad,
            Opcode::Dp4,
            Opcode::Rsq,
            Opcode::Tex,
            Opcode::Kil,
            Opcode::End,
        ] {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(Opcode::from_mnemonic("NOP"), None);
    }

    #[test]
    fn reg_limits_enforced() {
        let r = Reg::temp(31);
        assert_eq!(r.index, 31);
        let result = std::panic::catch_unwind(|| Reg::temp(32));
        assert!(result.is_err());
    }

    #[test]
    fn program_requires_end() {
        let insts = vec![Instruction::alu(
            Opcode::Mov,
            Dst::reg(Reg::output(0)),
            &[Src::reg(Reg::input(0))],
        )];
        assert_eq!(
            Program::new(ShaderTarget::Vertex, insts).unwrap_err(),
            ProgramError::MissingEnd
        );
    }

    #[test]
    fn program_tracks_temps_and_samplers() {
        let insts = vec![
            Instruction::tex(
                Opcode::Tex,
                Dst::reg(Reg::temp(3)),
                Src::reg(Reg::input(2)),
                5,
                TexTarget::Tex2D,
            ),
            Instruction::alu(
                Opcode::Mov,
                Dst::reg(Reg::output(0)),
                &[Src::reg(Reg::temp(3))],
            ),
            Instruction::nullary(Opcode::End),
        ];
        let p = Program::new(ShaderTarget::Fragment, insts).unwrap();
        assert_eq!(p.temps_used(), 4);
        assert_eq!(p.samplers_used(), &[5]);
        assert_eq!(p.texture_instruction_count(), 1);
        assert!(!p.has_kill());
    }

    #[test]
    fn vertex_program_rejects_texture() {
        let insts = vec![
            Instruction::tex(
                Opcode::Tex,
                Dst::reg(Reg::temp(0)),
                Src::reg(Reg::input(0)),
                0,
                TexTarget::Tex2D,
            ),
            Instruction::nullary(Opcode::End),
        ];
        assert_eq!(
            Program::new(ShaderTarget::Vertex, insts).unwrap_err(),
            ProgramError::FragmentOnlyOpcode(Opcode::Tex)
        );
    }

    #[test]
    fn bank_usage_is_validated() {
        let write_input = vec![
            Instruction::alu(Opcode::Mov, Dst::reg(Reg::input(0)), &[Src::reg(Reg::temp(0))]),
            Instruction::nullary(Opcode::End),
        ];
        assert!(matches!(
            Program::new(ShaderTarget::Vertex, write_input).unwrap_err(),
            ProgramError::BadBankUsage(_)
        ));
        let read_output = vec![
            Instruction::alu(Opcode::Mov, Dst::reg(Reg::temp(0)), &[Src::reg(Reg::output(0))]),
            Instruction::nullary(Opcode::End),
        ];
        assert!(matches!(
            Program::new(ShaderTarget::Vertex, read_output).unwrap_err(),
            ProgramError::BadBankUsage(_)
        ));
    }

    #[test]
    fn missing_operand_is_refused() {
        let mut mad =
            Instruction::alu(Opcode::Mad, Dst::reg(Reg::temp(0)), &[Src::reg(Reg::input(0)); 3]);
        mad.srcs[2] = None;
        assert_eq!(
            Program::new(ShaderTarget::Vertex, vec![mad, Instruction::nullary(Opcode::End)])
                .unwrap_err(),
            ProgramError::MissingOperand(Opcode::Mad)
        );
    }

    #[test]
    fn decoded_table_names_the_temporaries_an_instruction_waits_on() {
        let insts = vec![
            Instruction::alu(
                Opcode::Mad,
                Dst::reg(Reg::temp(2)).masked(WriteMask::parse("xy").unwrap()),
                &[
                    Src::reg(Reg::temp(0)),
                    Src::reg(Reg::input(1)),
                    Src::reg(Reg::temp(1)).negated(),
                ],
            ),
            Instruction::alu(Opcode::Mov, Dst::reg(Reg::output(0)), &[Src::reg(Reg::param(3))]),
            Instruction::kil(Src::reg(Reg::temp(2))),
            Instruction::nullary(Opcode::End),
        ];
        let p = Program::new(ShaderTarget::Fragment, insts).unwrap();
        assert_eq!(p.temp_operands(0), &[0, 1, 2]);
        assert_eq!(p.temp_dst(0), Some(2));
        assert_eq!(p.temp_operands(1), &[] as &[u8]);
        assert_eq!(p.temp_dst(1), None, "outputs are not temporaries");
        assert_eq!((p.temp_operands(2), p.temp_dst(2)), (&[2u8][..], None));
        assert_eq!((p.temp_operands(3), p.temp_dst(3)), (&[] as &[u8], None));
    }

    #[test]
    fn instruction_display_is_assembly_like() {
        let i = Instruction::alu(
            Opcode::Mad,
            Dst::reg(Reg::temp(0)).masked(WriteMask::parse("xyz").unwrap()),
            &[
                Src::reg(Reg::input(1)),
                Src::reg(Reg::param(4)).swizzled(Swizzle::broadcast(Comp::W)),
                Src::reg(Reg::temp(2)).negated(),
            ],
        )
        .saturated();
        assert_eq!(i.to_string(), "MAD_SAT r0.xyz, i1, c4.wwww, -r2");
    }
}
