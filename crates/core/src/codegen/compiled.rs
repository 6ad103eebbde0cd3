//! The typed compiler: monomorphized register bytecode (paper §6.1,
//! "compiled" execution, standing in for the paper's LLVM backend).
//!
//! The closure-compiled [`Program`](super::Program) interprets every
//! operation over the dynamic [`Value`] enum — each node matches on tags and
//! clones payloads. This module lowers the same body once into a small
//! straight-line register bytecode: the type checker assigns every
//! sub-expression a static type, and every value lives in one of three
//! unboxed register files (`f64`/`i64`/`bool`, class `F`/`I`/`B`) with an
//! out-of-band [`NullMask`] carrying φ. The batched tier (`super::batch`)
//! executes this bytecode over runs of ticks; the scalar [`exec`] here runs
//! the constant prelude and fused window maps one element at a time.
//!
//! `if`/`else` is **if-converted**: both branches execute unconditionally
//! and one [`Instr::Select`] picks the taken value, which is invisible
//! because every typed instruction only writes its own fresh destination
//! and the branches may not trap ([`speculatable`]). A subtree the bytecode
//! cannot express fails [`compile_typed`] and its whole kernel stays on the
//! interpreter: `Str` and `Tuple` values, custom reductions, an `if` whose
//! branches differ in class (the taken branch's unpromoted value is
//! observable), and an `if` with a branch that could trap. There are no
//! boxed registers: such a subtree has no [`Class`], and neither has an
//! object that such an interpreted kernel produces.
//!
//! Typed and interpreted kernels are *byte-identical* on well-typed data:
//! the differential property suite (`tests/compiled_tier_properties.rs`)
//! compares them span by span. Payloads that violate their declared input
//! type follow [`Value`]'s unboxing semantics on the typed path — `Int` on
//! a `Float` input coerces ([`Value::as_f64`]), anything else reads as φ —
//! instead of reproducing the interpreter's dynamic-dispatch quirks;
//! ingestion owns the contract that event payloads match their declared
//! types.

use std::collections::HashMap;

use tilt_data::{NullMask, Value};

use super::program::{PointSpec, Program};
use crate::error::{CompileError, Result};
use crate::ir::typeck::{binary_type, unary_type, TypeInfo};
use crate::ir::{BinOp, DataType, Expr, ReduceOp, TObjId, UnOp, VarId};

/// The register class of a typed value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Class {
    /// Unboxed `f64`.
    F,
    /// Unboxed `i64`.
    I,
    /// Unboxed `bool`.
    B,
}

impl Class {
    /// The class representing payloads of declared type `ty`, or `None`
    /// when they stay boxed.
    pub(crate) fn of_type(ty: &DataType) -> Option<Class> {
        match ty {
            DataType::Float => Some(Class::F),
            DataType::Int => Some(Class::I),
            DataType::Bool => Some(Class::B),
            // Unknown inputs carry arbitrary runtime payloads: stay boxed.
            DataType::Str | DataType::Tuple(_) | DataType::Unknown => None,
        }
    }

    /// Whether payload `v` reads as a non-φ value of this class under
    /// [`Value`]'s unboxing rule (the rule [`TypedCtx::load_value`]
    /// applies).
    pub(crate) fn reads(self, v: &Value) -> bool {
        match self {
            Class::F => v.as_f64().is_some(),
            Class::I => v.as_i64().is_some(),
            Class::B => v.as_bool().is_some(),
        }
    }
}

/// A typed register: class + index into that class's file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Reg {
    pub(crate) class: Class,
    pub(crate) idx: u16,
}

/// Arithmetic operations shared by the `F` and `I` instruction arms.
#[derive(Clone, Copy, Debug)]
pub(super) enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Pow,
    Min,
    Max,
}

impl ArithOp {
    fn of(op: BinOp) -> Option<ArithOp> {
        Some(match op {
            BinOp::Add => ArithOp::Add,
            BinOp::Sub => ArithOp::Sub,
            BinOp::Mul => ArithOp::Mul,
            BinOp::Div => ArithOp::Div,
            BinOp::Rem => ArithOp::Rem,
            BinOp::Pow => ArithOp::Pow,
            BinOp::Min => ArithOp::Min,
            BinOp::Max => ArithOp::Max,
            _ => return None,
        })
    }

    /// Float semantics, identical to `Value`'s float arms.
    #[inline]
    pub(super) fn apply_f(self, a: f64, b: f64) -> f64 {
        match self {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
            ArithOp::Rem => a % b,
            ArithOp::Pow => a.powf(b),
            ArithOp::Min => a.min(b),
            ArithOp::Max => a.max(b),
        }
    }

    /// Integer semantics, identical to `Value`'s int arms (`None` = φ).
    #[inline]
    pub(super) fn apply_i(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            ArithOp::Add => a.wrapping_add(b),
            ArithOp::Sub => a.wrapping_sub(b),
            ArithOp::Mul => a.wrapping_mul(b),
            ArithOp::Div if b == 0 => return None,
            ArithOp::Div => a / b,
            ArithOp::Rem if b == 0 => return None,
            ArithOp::Rem => a % b,
            ArithOp::Pow => a.pow(b.clamp(0, u32::MAX as i64) as u32),
            ArithOp::Min => a.min(b),
            ArithOp::Max => a.max(b),
        })
    }
}

/// Ordering comparisons shared by the typed comparison arms.
#[derive(Clone, Copy, Debug)]
pub(super) enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn of(op: BinOp) -> Option<CmpOp> {
        Some(match op {
            BinOp::Lt => CmpOp::Lt,
            BinOp::Le => CmpOp::Le,
            BinOp::Gt => CmpOp::Gt,
            BinOp::Ge => CmpOp::Ge,
            _ => return None,
        })
    }

    /// The mirrored comparison: `c op a ⇔ a flip(op) c`, used when folding
    /// a left-hand constant into a `Cmp*C` superinstruction.
    fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    #[inline]
    pub(super) fn apply<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// One typed instruction. Register operands are indices into the class
/// files of [`TypedCtx`]; programs are straight-line.
#[derive(Clone, Debug)]
pub(super) enum Instr {
    ConstF {
        dst: u16,
        v: f64,
    },
    ConstI {
        dst: u16,
        v: i64,
    },
    ConstB {
        dst: u16,
        v: bool,
    },
    /// Sets `dst` to φ.
    Null {
        dst: Reg,
    },
    /// Loads the evaluation time into an `I` register.
    Time {
        dst: u16,
    },
    ArithF {
        op: ArithOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    ArithI {
        op: ArithOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    /// Arithmetic with an embedded constant operand (`rev` puts the
    /// constant on the left: `c op a`). Saves a constant register read per
    /// tick — the most common binary shape after fusion.
    ArithFC {
        op: ArithOp,
        a: u16,
        c: f64,
        dst: u16,
        rev: bool,
    },
    /// `x * y + z` in one dispatch (peephole-fused; computed as separate
    /// multiply-then-add so rounding matches the interpreter exactly —
    /// this is *not* an FMA).
    MulAddF {
        x: u16,
        y: u16,
        z: u16,
        dst: u16,
    },
    /// `x * y + c` with an embedded constant addend.
    MulAddFC {
        x: u16,
        y: u16,
        c: f64,
        dst: u16,
    },
    ArithIC {
        op: ArithOp,
        a: u16,
        c: i64,
        dst: u16,
        rev: bool,
    },
    CmpF {
        op: CmpOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    CmpI {
        op: CmpOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    CmpB {
        op: CmpOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    /// Comparison against an embedded constant (left-hand constants are
    /// pre-flipped by the compiler).
    CmpFC {
        op: CmpOp,
        a: u16,
        c: f64,
        dst: u16,
    },
    CmpIC {
        op: CmpOp,
        a: u16,
        c: i64,
        dst: u16,
    },
    /// The filter idiom `cond ? a : b` where both branches are plain
    /// registers or φ: a single conditional move, no jump scaffold.
    Select {
        cond: u16,
        t: Option<Reg>,
        f: Option<Reg>,
        dst: Reg,
    },
    /// Float equality with snapshot-identity semantics (bitwise, like
    /// [`Value::same`]); `neg` selects `!=`.
    EqF {
        neg: bool,
        a: u16,
        b: u16,
        dst: u16,
    },
    EqI {
        neg: bool,
        a: u16,
        b: u16,
        dst: u16,
    },
    EqB {
        neg: bool,
        a: u16,
        b: u16,
        dst: u16,
    },
    /// Kleene conjunction over `B` registers.
    AndB {
        a: u16,
        b: u16,
        dst: u16,
    },
    /// Kleene disjunction over `B` registers.
    OrB {
        a: u16,
        b: u16,
        dst: u16,
    },
    NotB {
        a: u16,
        dst: u16,
    },
    NegF {
        a: u16,
        dst: u16,
    },
    NegI {
        a: u16,
        dst: u16,
    },
    AbsF {
        a: u16,
        dst: u16,
    },
    AbsI {
        a: u16,
        dst: u16,
    },
    SqrtF {
        a: u16,
        dst: u16,
    },
    /// Int → float conversion (the numeric promotion step).
    I2F {
        a: u16,
        dst: u16,
    },
    /// Float → int truncation (`ToInt`).
    F2I {
        a: u16,
        dst: u16,
    },
    /// The `e != φ` test; never φ, works on every class.
    IsNull {
        a: Reg,
        dst: u16,
    },
}

/// The scalar register files of a compiled typed program.
///
/// φ lives in per-class [`NullMask`]s. Registers persist across ticks, like
/// the interpreter's [`super::EvalCtx`] slots.
#[derive(Clone, Debug)]
pub(crate) struct TypedCtx {
    /// The current evaluation time in ticks.
    pub(crate) t: i64,
    f: Vec<f64>,
    i: Vec<i64>,
    b: Vec<bool>,
    nf: NullMask,
    ni: NullMask,
    nb: NullMask,
    /// Executions of fused window maps since creation — the observable for
    /// the map-once-per-element invariant (Subtract-on-Evict must *not*
    /// re-run maps; see `super::reduce`).
    pub(crate) map_runs: u64,
}

impl TypedCtx {
    #[inline]
    fn set_f(&mut self, i: u16, v: f64) {
        self.f[i as usize] = v;
        self.nf.set(i as usize, false);
    }

    #[inline]
    fn set_i(&mut self, i: u16, v: i64) {
        self.i[i as usize] = v;
        self.ni.set(i as usize, false);
    }

    #[inline]
    fn set_b(&mut self, i: u16, v: bool) {
        self.b[i as usize] = v;
        self.nb.set(i as usize, false);
    }

    #[inline]
    pub(super) fn get_f(&self, i: u16) -> (f64, bool) {
        (self.f[i as usize], self.nf.get(i as usize))
    }

    #[inline]
    pub(super) fn get_i(&self, i: u16) -> (i64, bool) {
        (self.i[i as usize], self.ni.get(i as usize))
    }

    #[inline]
    pub(super) fn get_b(&self, i: u16) -> (bool, bool) {
        (self.b[i as usize], self.nb.get(i as usize))
    }

    #[inline]
    fn set_null(&mut self, r: Reg) {
        match r.class {
            Class::F => self.nf.set(r.idx as usize, true),
            Class::I => self.ni.set(r.idx as usize, true),
            Class::B => self.nb.set(r.idx as usize, true),
        }
    }

    /// Whether the register currently holds φ.
    #[inline]
    fn is_null(&self, r: Reg) -> bool {
        match r.class {
            Class::F => self.nf.get(r.idx as usize),
            Class::I => self.ni.get(r.idx as usize),
            Class::B => self.nb.get(r.idx as usize),
        }
    }

    /// Copies `src`'s value and φ flag into `dst` (same class).
    #[inline]
    fn copy(&mut self, src: Reg, dst: Reg) {
        match (src.class, dst.class) {
            (Class::F, Class::F) => {
                let (x, n) = self.get_f(src.idx);
                self.f[dst.idx as usize] = x;
                self.nf.set(dst.idx as usize, n);
            }
            (Class::I, Class::I) => {
                let (x, n) = self.get_i(src.idx);
                self.i[dst.idx as usize] = x;
                self.ni.set(dst.idx as usize, n);
            }
            (Class::B, Class::B) => {
                let (x, n) = self.get_b(src.idx);
                self.b[dst.idx as usize] = x;
                self.nb.set(dst.idx as usize, n);
            }
            _ => unreachable!("typed copies are same-class"),
        }
    }

    /// Loads a payload into `r` by reference (φ on class mismatch, with
    /// int → float coercion on the `F` file, mirroring [`Value::as_f64`]).
    /// Returns whether the payload read as a non-φ value.
    #[inline]
    pub(crate) fn load_value(&mut self, r: Reg, v: &Value) -> bool {
        let loaded = match r.class {
            Class::F => v.as_f64().map(|x| self.set_f(r.idx, x)),
            Class::I => v.as_i64().map(|x| self.set_i(r.idx, x)),
            Class::B => v.as_bool().map(|x| self.set_b(r.idx, x)),
        };
        if loaded.is_none() {
            self.set_null(r);
        }
        loaded.is_some()
    }
}

/// A compiled per-element window map (the typed counterpart of
/// [`super::MapFn`]): its instructions share the enclosing program's
/// register space.
#[derive(Clone, Debug)]
pub(crate) struct TypedMap {
    /// The register the element value is loaded into before evaluation.
    pub(super) var: Reg,
    pub(super) instrs: Vec<Instr>,
    pub(super) root: Option<Reg>,
}

impl TypedMap {
    /// The class of the mapped element, or `None` when the map is provably
    /// φ for every element.
    pub(crate) fn fold_class(&self) -> Option<Class> {
        self.root.map(|r| r.class)
    }

    /// Applies the map to one window element and reads the root as an
    /// unboxed `f64` (`None` = φ) — the typed reduce fold path when
    /// [`TypedMap::fold_class`] is `Some(Class::F)`. No boxed `Value` is
    /// built on either side. An element that reads as φ in the map's input
    /// class (see [`Class::reads`]) does not run the map.
    pub(crate) fn run_f64(&self, ctx: &mut TypedCtx, elem: &Value) -> Option<f64> {
        if !ctx.load_value(self.var, elem) {
            return None;
        }
        ctx.map_runs += 1;
        exec(&self.instrs, ctx);
        let r = self.root?;
        debug_assert_eq!(r.class, Class::F);
        let (x, n) = ctx.get_f(r.idx);
        if n {
            None
        } else {
            Some(x)
        }
    }

    /// Applies the map and reads the root as an unboxed `i64` (`None` = φ),
    /// like [`TypedMap::run_f64`].
    pub(crate) fn run_i64(&self, ctx: &mut TypedCtx, elem: &Value) -> Option<i64> {
        if !ctx.load_value(self.var, elem) {
            return None;
        }
        ctx.map_runs += 1;
        exec(&self.instrs, ctx);
        let r = self.root?;
        debug_assert_eq!(r.class, Class::I);
        let (x, n) = ctx.get_i(r.idx);
        if n {
            None
        } else {
            Some(x)
        }
    }
}

/// A kernel body lowered to typed register bytecode.
#[derive(Clone)]
pub(crate) struct TypedProgram {
    /// Constant materialization, executed **once** per register file
    /// ([`TypedProgram::new_ctx`]) — constants never burn a dispatch in the
    /// per-run loop.
    pub(super) prelude: Vec<Instr>,
    pub(super) instrs: Vec<Instr>,
    pub(super) root: Option<Reg>,
    pub(super) n_f: u16,
    pub(super) n_i: u16,
    pub(super) n_b: u16,
    /// Destination register per point slot of the paired [`Program`]
    /// (`None` when the body never reads the slot's value — the kernel
    /// still advances its cursor for change-point stepping).
    pub(crate) point_regs: Vec<Option<Reg>>,
    /// Destination register per reduce slot (`None` when provably φ).
    pub(crate) reduce_regs: Vec<Option<Reg>>,
    /// Typed map per reduce slot, when the fused map compiled.
    pub(crate) typed_maps: Vec<Option<TypedMap>>,
    /// Per reduce slot: the element class when unboxed accumulators apply.
    pub(crate) reduce_elem: Vec<Option<Class>>,
}

impl TypedProgram {
    /// Creates a register file sized for this program, with every constant
    /// register pre-materialized by the prelude.
    pub(crate) fn new_ctx(&self) -> TypedCtx {
        let mut ctx = TypedCtx {
            t: 0,
            f: vec![0.0; self.n_f as usize],
            i: vec![0; self.n_i as usize],
            b: vec![false; self.n_b as usize],
            nf: NullMask::new(self.n_f as usize),
            ni: NullMask::new(self.n_i as usize),
            nb: NullMask::new(self.n_b as usize),
            map_runs: 0,
        };
        exec(&self.prelude, &mut ctx);
        ctx
    }

    /// The register class of the kernel's output values (what downstream
    /// consumers of the output buffer should assume), or `None` for an
    /// output that is provably φ.
    pub(crate) fn output_class(&self) -> Option<Class> {
        self.root.map(|r| r.class)
    }
}

impl std::fmt::Debug for TypedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TypedProgram")
            .field("instrs", &self.instrs.len())
            .field("regs", &(self.n_f, self.n_i, self.n_b))
            .finish()
    }
}

/// Executes one straight-line instruction sequence over `ctx`.
pub(super) fn exec(instrs: &[Instr], ctx: &mut TypedCtx) {
    for ins in instrs {
        match ins {
            Instr::ConstF { dst, v } => ctx.set_f(*dst, *v),
            Instr::ConstI { dst, v } => ctx.set_i(*dst, *v),
            Instr::ConstB { dst, v } => ctx.set_b(*dst, *v),
            Instr::Null { dst } => ctx.set_null(*dst),
            Instr::Time { dst } => {
                let t = ctx.t;
                ctx.set_i(*dst, t);
            }
            Instr::ArithF { op, a, b, dst } => {
                // Branch-free: IEEE float ops cannot trap, so the value is
                // computed unconditionally and φ rides the flag store.
                let (x, xn) = ctx.get_f(*a);
                let (y, yn) = ctx.get_f(*b);
                ctx.f[*dst as usize] = op.apply_f(x, y);
                ctx.nf.set(*dst as usize, xn | yn);
            }
            Instr::ArithI { op, a, b, dst } => {
                let (x, xn) = ctx.get_i(*a);
                let (y, yn) = ctx.get_i(*b);
                match if xn || yn { None } else { op.apply_i(x, y) } {
                    Some(r) => ctx.set_i(*dst, r),
                    None => ctx.ni.set(*dst as usize, true),
                }
            }
            Instr::ArithFC { op, a, c, dst, rev } => {
                let (x, n) = ctx.get_f(*a);
                let r = if *rev { op.apply_f(*c, x) } else { op.apply_f(x, *c) };
                ctx.f[*dst as usize] = r;
                ctx.nf.set(*dst as usize, n);
            }
            Instr::MulAddF { x, y, z, dst } => {
                let (a, an) = ctx.get_f(*x);
                let (b, bn) = ctx.get_f(*y);
                let (c, cn) = ctx.get_f(*z);
                ctx.f[*dst as usize] = a * b + c;
                ctx.nf.set(*dst as usize, an | bn | cn);
            }
            Instr::MulAddFC { x, y, c, dst } => {
                let (a, an) = ctx.get_f(*x);
                let (b, bn) = ctx.get_f(*y);
                ctx.f[*dst as usize] = a * b + *c;
                ctx.nf.set(*dst as usize, an | bn);
            }
            Instr::ArithIC { op, a, c, dst, rev } => {
                let (x, n) = ctx.get_i(*a);
                let r = if n {
                    None
                } else if *rev {
                    op.apply_i(*c, x)
                } else {
                    op.apply_i(x, *c)
                };
                match r {
                    Some(r) => ctx.set_i(*dst, r),
                    None => ctx.ni.set(*dst as usize, true),
                }
            }
            Instr::CmpFC { op, a, c, dst } => {
                let (x, n) = ctx.get_f(*a);
                ctx.b[*dst as usize] = op.apply(x, *c);
                ctx.nb.set(*dst as usize, n);
            }
            Instr::CmpIC { op, a, c, dst } => {
                let (x, n) = ctx.get_i(*a);
                if n {
                    ctx.nb.set(*dst as usize, true);
                } else {
                    ctx.set_b(*dst, op.apply(x, *c));
                }
            }
            Instr::Select { cond, t, f, dst } => {
                let (c, n) = ctx.get_b(*cond);
                let taken = if n {
                    None
                } else if c {
                    *t
                } else {
                    *f
                };
                match taken {
                    None => ctx.set_null(*dst),
                    Some(src) if src == *dst => {}
                    Some(src) => ctx.copy(src, *dst),
                }
            }
            Instr::CmpF { op, a, b, dst } => {
                let (x, xn) = ctx.get_f(*a);
                let (y, yn) = ctx.get_f(*b);
                ctx.b[*dst as usize] = op.apply(x, y);
                ctx.nb.set(*dst as usize, xn | yn);
            }
            Instr::CmpI { op, a, b, dst } => {
                let (x, xn) = ctx.get_i(*a);
                let (y, yn) = ctx.get_i(*b);
                if xn || yn {
                    ctx.nb.set(*dst as usize, true);
                } else {
                    ctx.set_b(*dst, op.apply(x, y));
                }
            }
            Instr::CmpB { op, a, b, dst } => {
                let (x, xn) = ctx.get_b(*a);
                let (y, yn) = ctx.get_b(*b);
                if xn || yn {
                    ctx.nb.set(*dst as usize, true);
                } else {
                    ctx.set_b(*dst, op.apply(x, y));
                }
            }
            Instr::EqF { neg, a, b, dst } => {
                let (x, xn) = ctx.get_f(*a);
                let (y, yn) = ctx.get_f(*b);
                ctx.b[*dst as usize] = (x.to_bits() == y.to_bits()) != *neg;
                ctx.nb.set(*dst as usize, xn | yn);
            }
            Instr::EqI { neg, a, b, dst } => {
                let (x, xn) = ctx.get_i(*a);
                let (y, yn) = ctx.get_i(*b);
                if xn || yn {
                    ctx.nb.set(*dst as usize, true);
                } else {
                    ctx.set_b(*dst, (x == y) != *neg);
                }
            }
            Instr::EqB { neg, a, b, dst } => {
                let (x, xn) = ctx.get_b(*a);
                let (y, yn) = ctx.get_b(*b);
                if xn || yn {
                    ctx.nb.set(*dst as usize, true);
                } else {
                    ctx.set_b(*dst, (x == y) != *neg);
                }
            }
            Instr::AndB { a, b, dst } => {
                let (x, xn) = ctx.get_b(*a);
                let (y, yn) = ctx.get_b(*b);
                // Kleene: false ∧ φ = false.
                if (!xn && !x) || (!yn && !y) {
                    ctx.set_b(*dst, false);
                } else if !xn && !yn {
                    ctx.set_b(*dst, true);
                } else {
                    ctx.nb.set(*dst as usize, true);
                }
            }
            Instr::OrB { a, b, dst } => {
                let (x, xn) = ctx.get_b(*a);
                let (y, yn) = ctx.get_b(*b);
                // Kleene: true ∨ φ = true.
                if (!xn && x) || (!yn && y) {
                    ctx.set_b(*dst, true);
                } else if !xn && !yn {
                    ctx.set_b(*dst, false);
                } else {
                    ctx.nb.set(*dst as usize, true);
                }
            }
            Instr::NotB { a, dst } => {
                let (x, n) = ctx.get_b(*a);
                if n {
                    ctx.nb.set(*dst as usize, true);
                } else {
                    ctx.set_b(*dst, !x);
                }
            }
            Instr::NegF { a, dst } => {
                let (x, n) = ctx.get_f(*a);
                ctx.f[*dst as usize] = -x;
                ctx.nf.set(*dst as usize, n);
            }
            Instr::NegI { a, dst } => {
                let (x, n) = ctx.get_i(*a);
                if n {
                    ctx.ni.set(*dst as usize, true);
                } else {
                    ctx.set_i(*dst, -x);
                }
            }
            Instr::AbsF { a, dst } => {
                let (x, n) = ctx.get_f(*a);
                ctx.f[*dst as usize] = x.abs();
                ctx.nf.set(*dst as usize, n);
            }
            Instr::AbsI { a, dst } => {
                let (x, n) = ctx.get_i(*a);
                if n {
                    ctx.ni.set(*dst as usize, true);
                } else {
                    ctx.set_i(*dst, x.abs());
                }
            }
            Instr::SqrtF { a, dst } => {
                let (x, n) = ctx.get_f(*a);
                ctx.f[*dst as usize] = x.sqrt();
                ctx.nf.set(*dst as usize, n);
            }
            Instr::I2F { a, dst } => {
                let (x, n) = ctx.get_i(*a);
                ctx.f[*dst as usize] = x as f64;
                ctx.nf.set(*dst as usize, n);
            }
            Instr::F2I { a, dst } => {
                let (x, n) = ctx.get_f(*a);
                if n {
                    ctx.ni.set(*dst as usize, true);
                } else {
                    ctx.set_i(*dst, x as i64);
                }
            }
            Instr::IsNull { a, dst } => {
                let n = ctx.is_null(*a);
                ctx.set_b(*dst, n);
            }
        }
    }
}

/// Compile-time descriptor of a sub-expression's value.
#[derive(Clone, Debug)]
enum Out {
    /// Lives in a register, with its inferred static type.
    Reg(Reg, DataType),
    /// Provably φ (type `Unknown`): folded away, no register.
    Null,
}

impl Out {
    fn ty(&self) -> DataType {
        match self {
            Out::Reg(_, ty) => ty.clone(),
            Out::Null => DataType::Unknown,
        }
    }
}

/// Compiles a kernel body into a [`TypedProgram`].
///
/// `program` is the already-compiled interpreter tier: its point and reduce
/// slot layout is authoritative, and the typed program maps registers onto
/// the *same* slots so both tiers share cursors, reduce runners, and
/// change-point stepping. `objs` resolves temporal-object payload types
/// (from [`TypeInfo`]); `classes` gives each upstream object's register
/// class — `None` for objects produced by interpreted kernels, whose
/// buffers may hold runtime types the static type does not pin down.
///
/// # Errors
///
/// Propagates type or structure errors, and rejects every subtree the
/// bytecode cannot express (see the module docs); callers treat a failed
/// typed compile as "stay on the interpreter" (see `Kernel::with_types`).
pub(crate) fn compile_typed(
    body: &Expr,
    program: &Program,
    objs: &dyn Fn(TObjId) -> Result<DataType>,
    classes: &HashMap<TObjId, Option<Class>>,
) -> Result<TypedProgram> {
    let mut cc = TypedCompiler {
        program,
        objs,
        classes,
        env: HashMap::new(),
        prelude: Vec::new(),
        instrs: Vec::new(),
        const_f: HashMap::new(),
        const_i: HashMap::new(),
        n_regs: [0; 3],
        next_reduce: 0,
        point_regs: vec![None; program.points.len()],
        reduce_regs: vec![None; program.reduces.len()],
        typed_maps: vec![None; program.reduces.len()],
        reduce_elem: vec![None; program.reduces.len()],
    };
    let root = cc.emit(body)?;
    if cc.next_reduce != program.reduces.len() {
        return Err(CompileError::Invalid("typed tier lost a reduce slot".into()));
    }
    let root = match root {
        Out::Reg(r, _) => Some(r),
        Out::Null => None,
    };
    Ok(TypedProgram {
        prelude: cc.prelude,
        instrs: cc.instrs,
        root,
        n_f: cc.n_regs[0],
        n_i: cc.n_regs[1],
        n_b: cc.n_regs[2],
        point_regs: cc.point_regs,
        reduce_regs: cc.reduce_regs,
        typed_maps: cc.typed_maps,
        reduce_elem: cc.reduce_elem,
    })
}

/// Whether `code` is safe to execute on a path the source program did not
/// take: typed instructions only write their destination register, so the
/// one hazard is a trap on operands the taken path never constrained.
/// Integer `Pow` and `NegI`/`AbsI` (overflow) are excluded, as are `Div`
/// and `Rem` except by a constant divisor other than −1: `apply_i` turns a
/// zero divisor into φ, so their only trap is `i64::MIN` by −1.
fn speculatable(code: &[Instr]) -> bool {
    code.iter().all(|ins| match ins {
        Instr::ConstF { .. }
        | Instr::ConstI { .. }
        | Instr::ConstB { .. }
        | Instr::Null { .. }
        | Instr::Time { .. }
        | Instr::ArithF { .. }
        | Instr::ArithFC { .. }
        | Instr::MulAddF { .. }
        | Instr::MulAddFC { .. }
        | Instr::CmpF { .. }
        | Instr::CmpI { .. }
        | Instr::CmpB { .. }
        | Instr::CmpFC { .. }
        | Instr::CmpIC { .. }
        | Instr::Select { .. }
        | Instr::EqF { .. }
        | Instr::EqI { .. }
        | Instr::EqB { .. }
        | Instr::AndB { .. }
        | Instr::OrB { .. }
        | Instr::NotB { .. }
        | Instr::NegF { .. }
        | Instr::AbsF { .. }
        | Instr::SqrtF { .. }
        | Instr::I2F { .. }
        | Instr::F2I { .. }
        | Instr::IsNull { .. } => true,
        Instr::ArithI { op, .. } => !matches!(op, ArithOp::Div | ArithOp::Rem | ArithOp::Pow),
        Instr::ArithIC { op: ArithOp::Div | ArithOp::Rem, c, rev, .. } => !*rev && *c != -1,
        Instr::ArithIC { op, .. } => !matches!(op, ArithOp::Pow),
        Instr::NegI { .. } | Instr::AbsI { .. } => false,
    })
}

/// Object-type lookup backed by whole-query [`TypeInfo`].
pub(crate) fn type_lookup<'a>(info: &'a TypeInfo) -> impl Fn(TObjId) -> Result<DataType> + 'a {
    move |obj| {
        info.object_type(obj)
            .cloned()
            .ok_or_else(|| CompileError::UnboundObject(format!("{obj} (typed tier)")))
    }
}

/// The error of a binary operator over operand classes the bytecode has no
/// instruction for.
fn mixed(op: BinOp) -> CompileError {
    CompileError::Invalid(format!("typed tier: no instruction for mixed-class {op}"))
}

/// The error of a subtree that needs a boxed value.
fn boxed() -> CompileError {
    CompileError::Invalid("typed tier: boxed value (the kernel stays interpreted)".into())
}

struct TypedCompiler<'a> {
    program: &'a Program,
    objs: &'a dyn Fn(TObjId) -> Result<DataType>,
    classes: &'a HashMap<TObjId, Option<Class>>,
    env: HashMap<VarId, (Option<Reg>, DataType)>,
    /// Run-once constant materialization (see [`TypedProgram::new_ctx`]).
    prelude: Vec<Instr>,
    instrs: Vec<Instr>,
    /// Known-constant registers, for folding into `*C` superinstructions.
    const_f: HashMap<u16, f64>,
    const_i: HashMap<u16, i64>,
    /// Register counts per class, indexed F, I, B.
    n_regs: [u16; 3],
    /// Reduce slots are assigned in body traversal order, exactly like the
    /// interpreter compiler's `reduces` list.
    next_reduce: usize,
    point_regs: Vec<Option<Reg>>,
    reduce_regs: Vec<Option<Reg>>,
    typed_maps: Vec<Option<TypedMap>>,
    reduce_elem: Vec<Option<Class>>,
}

impl TypedCompiler<'_> {
    /// Allocates a fresh register of `class`.
    fn alloc(&mut self, class: Class) -> Result<Reg> {
        let slot = match class {
            Class::F => 0,
            Class::I => 1,
            Class::B => 2,
        };
        let idx = self.n_regs[slot];
        if idx == u16::MAX {
            return Err(CompileError::Invalid("typed tier register file overflow".into()));
        }
        self.n_regs[slot] += 1;
        Ok(Reg { class, idx })
    }

    /// The register class of upstream object `obj` with payload type `ty`;
    /// a boxed object (one an interpreted kernel produces, or of a boxed
    /// type) fails the typed compile.
    fn obj_class(&self, obj: TObjId, ty: &DataType) -> Result<Class> {
        let class = match self.classes.get(&obj) {
            Some(class) => *class,
            None => Class::of_type(ty),
        };
        class.ok_or_else(boxed)
    }

    /// Allocates a register holding φ (a materialized folded-null operand;
    /// nothing else ever writes it, so it initializes in the prelude).
    fn null_reg(&mut self, class: Class) -> Result<Reg> {
        let r = self.alloc(class)?;
        self.prelude.push(Instr::Null { dst: r });
        Ok(r)
    }

    /// The constant value of a numeric register, widened to `f64` (int
    /// constants promote exactly like `Value`'s mixed arithmetic).
    fn as_const_f(&self, r: Reg) -> Option<f64> {
        match r.class {
            Class::F => self.const_f.get(&r.idx).copied(),
            Class::I => self.const_i.get(&r.idx).map(|x| *x as f64),
            _ => None,
        }
    }

    /// Coerces an `I`-class operand to a fresh `F` register (numeric
    /// promotion); `F` operands pass through.
    fn promote_f(&mut self, r: Reg) -> Result<Reg> {
        match r.class {
            Class::F => Ok(r),
            Class::I => {
                let dst = self.alloc(Class::F)?;
                self.instrs.push(Instr::I2F { a: r.idx, dst: dst.idx });
                Ok(dst)
            }
            _ => Err(CompileError::Invalid("typed tier promoted a non-numeric class".into())),
        }
    }

    fn emit(&mut self, e: &Expr) -> Result<Out> {
        match e {
            // Constants materialize in the prelude — once per register
            // file, never in the per-run instruction stream.
            Expr::Const(v) => match v {
                Value::Null => Ok(Out::Null),
                Value::Bool(b) => {
                    let r = self.alloc(Class::B)?;
                    self.prelude.push(Instr::ConstB { dst: r.idx, v: *b });
                    Ok(Out::Reg(r, DataType::Bool))
                }
                Value::Int(x) => {
                    let r = self.alloc(Class::I)?;
                    self.prelude.push(Instr::ConstI { dst: r.idx, v: *x });
                    self.const_i.insert(r.idx, *x);
                    Ok(Out::Reg(r, DataType::Int))
                }
                Value::Float(x) => {
                    let r = self.alloc(Class::F)?;
                    self.prelude.push(Instr::ConstF { dst: r.idx, v: *x });
                    self.const_f.insert(r.idx, *x);
                    Ok(Out::Reg(r, DataType::Float))
                }
                _ => Err(boxed()),
            },
            Expr::Var(v) => match self.env.get(v) {
                Some((Some(r), ty)) => Ok(Out::Reg(*r, ty.clone())),
                Some((None, _)) => Ok(Out::Null),
                None => Err(CompileError::UnboundVar(v.to_string())),
            },
            Expr::Time => {
                let r = self.alloc(Class::I)?;
                self.instrs.push(Instr::Time { dst: r.idx });
                Ok(Out::Reg(r, DataType::Int))
            }
            Expr::Unary(op, a) => {
                let ao = self.emit(a)?;
                self.emit_unary(*op, ao)
            }
            Expr::Binary(op, a, b) => {
                let ao = self.emit(a)?;
                let bo = self.emit(b)?;
                self.emit_binary(*op, ao, bo)
            }
            Expr::If(c, t, f) => self.emit_if(c, t, f),
            Expr::Let { var, value, body } => {
                let vo = self.emit(value)?;
                let entry = match &vo {
                    Out::Reg(r, ty) => (Some(*r), ty.clone()),
                    Out::Null => (None, DataType::Unknown),
                };
                let shadowed = self.env.insert(*var, entry);
                let bo = self.emit(body);
                match shadowed {
                    Some(prev) => {
                        self.env.insert(*var, prev);
                    }
                    None => {
                        self.env.remove(var);
                    }
                }
                bo
            }
            // Tuples are boxed values; a projection of φ is φ.
            Expr::Field(a, _) => match self.emit(a)? {
                Out::Null => Ok(Out::Null),
                Out::Reg(..) => Err(boxed()),
            },
            Expr::Tuple(_) => Err(boxed()),
            Expr::At { obj, offset } => {
                let ty = (self.objs)(*obj)?;
                let spec = PointSpec { obj: *obj, offset: *offset };
                let slot =
                    self.program.points.iter().position(|p| *p == spec).ok_or_else(|| {
                        CompileError::Invalid("typed tier missing point slot".into())
                    })?;
                if let Some(r) = self.point_regs[slot] {
                    return Ok(Out::Reg(r, ty));
                }
                let r = self.alloc(self.obj_class(*obj, &ty)?)?;
                self.point_regs[slot] = Some(r);
                Ok(Out::Reg(r, ty))
            }
            Expr::Reduce { op, window } => {
                let slot = self.next_reduce;
                if slot >= self.program.reduces.len()
                    || self.program.reduces[slot].obj != window.obj
                    || (self.program.reduces[slot].lo, self.program.reduces[slot].hi)
                        != (window.lo, window.hi)
                {
                    return Err(CompileError::Invalid("typed tier reduce slot mismatch".into()));
                }
                self.next_reduce += 1;
                let src_ty = (self.objs)(window.obj)?;
                let src_class = self.obj_class(window.obj, &src_ty)?;
                let (elem_class, elem_ty) = match &window.map {
                    None => (src_class, src_ty),
                    Some((var, mapped)) => {
                        let (map, elem) = self.compile_map(*var, mapped, src_class, src_ty)?;
                        self.typed_maps[slot] = Some(map);
                        match elem {
                            // The map is provably φ for every element: the
                            // window never fills and the result is φ.
                            None => return Ok(Out::Null),
                            Some(ct) => ct,
                        }
                    }
                };
                if matches!(elem_class, Class::F | Class::I) {
                    self.reduce_elem[slot] = Some(elem_class);
                }
                let result_ty = op.result_type(&elem_ty);
                let class = match op {
                    ReduceOp::Count => Class::I,
                    ReduceOp::Mean | ReduceOp::StdDev => Class::F,
                    // Custom reducers run opaque user closures: stay boxed.
                    ReduceOp::Custom(_) => return Err(boxed()),
                    ReduceOp::Min | ReduceOp::Max => elem_class,
                    ReduceOp::Sum | ReduceOp::Product => match elem_class {
                        Class::F => Class::F,
                        Class::I => Class::I,
                        Class::B => return Err(boxed()),
                    },
                };
                let r = self.alloc(class)?;
                self.reduce_regs[slot] = Some(r);
                Ok(Out::Reg(r, result_ty))
            }
        }
    }

    /// Compiles a fused window map into a side instruction sequence sharing
    /// this program's registers. Returns the map and the element's
    /// `(class, type)` after mapping (`None` when provably φ).
    #[allow(clippy::type_complexity)]
    fn compile_map(
        &mut self,
        var: VarId,
        body: &Expr,
        src_class: Class,
        src_ty: DataType,
    ) -> Result<(TypedMap, Option<(Class, DataType)>)> {
        let var_reg = self.alloc(src_class)?;
        let shadowed = self.env.insert(var, (Some(var_reg), src_ty));
        let outer = std::mem::take(&mut self.instrs);
        let rooted = self.emit(body);
        let instrs = std::mem::replace(&mut self.instrs, outer);
        match shadowed {
            Some(prev) => {
                self.env.insert(var, prev);
            }
            None => {
                self.env.remove(&var);
            }
        }
        let root = rooted?;
        let (root_reg, elem) = match root {
            Out::Reg(r, ty) => (Some(r), Some((r.class, ty))),
            Out::Null => (None, None),
        };
        Ok((TypedMap { var: var_reg, instrs, root: root_reg }, elem))
    }

    fn emit_unary(&mut self, op: UnOp, ao: Out) -> Result<Out> {
        // `is_null` is the one operator that observes φ rather than
        // propagating it.
        if let UnOp::IsNull = op {
            let dst = self.alloc(Class::B)?;
            match &ao {
                Out::Null => self.instrs.push(Instr::ConstB { dst: dst.idx, v: true }),
                Out::Reg(r, _) => self.instrs.push(Instr::IsNull { a: *r, dst: dst.idx }),
            }
            return Ok(Out::Reg(dst, DataType::Bool));
        }
        let Out::Reg(r, ty) = ao else { return Ok(Out::Null) };
        let result_ty = unary_type(op, &ty)?;
        let out = match (op, r.class) {
            (UnOp::Neg, Class::F) => {
                let dst = self.alloc(Class::F)?;
                self.instrs.push(Instr::NegF { a: r.idx, dst: dst.idx });
                dst
            }
            (UnOp::Neg, Class::I) => {
                let dst = self.alloc(Class::I)?;
                self.instrs.push(Instr::NegI { a: r.idx, dst: dst.idx });
                dst
            }
            (UnOp::Abs, Class::F) => {
                let dst = self.alloc(Class::F)?;
                self.instrs.push(Instr::AbsF { a: r.idx, dst: dst.idx });
                dst
            }
            (UnOp::Abs, Class::I) => {
                let dst = self.alloc(Class::I)?;
                self.instrs.push(Instr::AbsI { a: r.idx, dst: dst.idx });
                dst
            }
            (UnOp::Sqrt, Class::F | Class::I) => {
                let a = self.promote_f(r)?;
                let dst = self.alloc(Class::F)?;
                self.instrs.push(Instr::SqrtF { a: a.idx, dst: dst.idx });
                dst
            }
            (UnOp::Not, Class::B) => {
                let dst = self.alloc(Class::B)?;
                self.instrs.push(Instr::NotB { a: r.idx, dst: dst.idx });
                dst
            }
            (UnOp::ToFloat, Class::F) => r,
            (UnOp::ToFloat, Class::I) => self.promote_f(r)?,
            (UnOp::ToInt, Class::I) => r,
            (UnOp::ToInt, Class::F) => {
                let dst = self.alloc(Class::I)?;
                self.instrs.push(Instr::F2I { a: r.idx, dst: dst.idx });
                dst
            }
            _ => {
                return Err(CompileError::Invalid(format!(
                    "typed tier cannot apply {op} to class {:?}",
                    r.class
                )))
            }
        };
        Ok(Out::Reg(out, result_ty))
    }

    fn emit_binary(&mut self, op: BinOp, ao: Out, bo: Out) -> Result<Out> {
        let result_ty = binary_type(op, &ao.ty(), &bo.ty())?;
        // Kleene connectives observe φ; everything else propagates it.
        if op.is_logical() {
            let a = self.logical_operand(&ao)?;
            let b = self.logical_operand(&bo)?;
            // `φ ∧ φ` / `φ ∨ φ` are φ — but one φ operand must stay live:
            // `false ∧ φ = false` and `true ∨ φ = true`.
            let (a, b) = match (a, b) {
                (Some(a), Some(b)) => (a, b),
                (None, None) => return Ok(Out::Null),
                (Some(a), None) => (a, self.null_reg(Class::B)?),
                (None, Some(b)) => (self.null_reg(Class::B)?, b),
            };
            let dst = self.alloc(Class::B)?;
            let instr = match op {
                BinOp::And => Instr::AndB { a: a.idx, b: b.idx, dst: dst.idx },
                _ => Instr::OrB { a: a.idx, b: b.idx, dst: dst.idx },
            };
            self.instrs.push(instr);
            return Ok(Out::Reg(dst, DataType::Bool));
        }
        let (Out::Reg(ar, _), Out::Reg(br, _)) = (&ao, &bo) else { return Ok(Out::Null) };
        let (ar, br) = (*ar, *br);

        if let Some(cmp) = CmpOp::of(op) {
            let dst = self.alloc(Class::B)?;
            match (ar.class, br.class) {
                (Class::I, Class::I) => {
                    // Embedded-constant comparison (flipping when the
                    // constant sits on the left).
                    if let Some(c) = self.const_i.get(&br.idx).copied() {
                        self.instrs.push(Instr::CmpIC { op: cmp, a: ar.idx, c, dst: dst.idx });
                    } else if let Some(c) = self.const_i.get(&ar.idx).copied() {
                        self.instrs.push(Instr::CmpIC {
                            op: cmp.flip(),
                            a: br.idx,
                            c,
                            dst: dst.idx,
                        });
                    } else {
                        self.instrs.push(Instr::CmpI {
                            op: cmp,
                            a: ar.idx,
                            b: br.idx,
                            dst: dst.idx,
                        })
                    }
                }
                (Class::B, Class::B) => {
                    self.instrs.push(Instr::CmpB { op: cmp, a: ar.idx, b: br.idx, dst: dst.idx })
                }
                (Class::F | Class::I, Class::F | Class::I) => {
                    // Float or mixed numeric: constants (including int
                    // constants on a float comparison) embed pre-promoted.
                    if let Some(c) = self.as_const_f(br) {
                        let a = self.promote_f(ar)?;
                        self.instrs.push(Instr::CmpFC { op: cmp, a: a.idx, c, dst: dst.idx });
                    } else if let Some(c) = self.as_const_f(ar) {
                        let b = self.promote_f(br)?;
                        self.instrs.push(Instr::CmpFC {
                            op: cmp.flip(),
                            a: b.idx,
                            c,
                            dst: dst.idx,
                        });
                    } else {
                        let a = self.promote_f(ar)?;
                        let b = self.promote_f(br)?;
                        self.instrs.push(Instr::CmpF { op: cmp, a: a.idx, b: b.idx, dst: dst.idx })
                    }
                }
                _ => return Err(mixed(op)),
            }
            return Ok(Out::Reg(dst, DataType::Bool));
        }
        if matches!(op, BinOp::Eq | BinOp::Ne) {
            let neg = op == BinOp::Ne;
            let dst = self.alloc(Class::B)?;
            match (ar.class, br.class) {
                (Class::F, Class::F) => {
                    self.instrs.push(Instr::EqF { neg, a: ar.idx, b: br.idx, dst: dst.idx })
                }
                (Class::I, Class::I) => {
                    self.instrs.push(Instr::EqI { neg, a: ar.idx, b: br.idx, dst: dst.idx })
                }
                (Class::B, Class::B) => {
                    self.instrs.push(Instr::EqB { neg, a: ar.idx, b: br.idx, dst: dst.idx })
                }
                // Mixed int/float equality follows `Value::same`, which
                // only the interpreter implements.
                _ => return Err(mixed(op)),
            }
            return Ok(Out::Reg(dst, DataType::Bool));
        }
        let arith = ArithOp::of(op)
            .ok_or_else(|| CompileError::Invalid(format!("typed tier unknown operator {op}")))?;
        match (ar.class, br.class) {
            (Class::I, Class::I) => {
                let dst = self.alloc(Class::I)?;
                if let Some(c) = self.const_i.get(&br.idx).copied() {
                    self.instrs.push(Instr::ArithIC {
                        op: arith,
                        a: ar.idx,
                        c,
                        dst: dst.idx,
                        rev: false,
                    });
                } else if let Some(c) = self.const_i.get(&ar.idx).copied() {
                    self.instrs.push(Instr::ArithIC {
                        op: arith,
                        a: br.idx,
                        c,
                        dst: dst.idx,
                        rev: true,
                    });
                } else {
                    self.instrs.push(Instr::ArithI {
                        op: arith,
                        a: ar.idx,
                        b: br.idx,
                        dst: dst.idx,
                    });
                }
                Ok(Out::Reg(dst, result_ty))
            }
            (Class::F | Class::I, Class::F | Class::I) => {
                // Peephole: `x * y + rhs` fuses into one dispatch when the
                // multiply's value is consumed only here (left operand
                // order is preserved, so NaN payloads match the
                // interpreter bit-for-bit).
                if op == BinOp::Add && ar.class == Class::F && br.class == Class::F {
                    if let Some(dst) = self.try_mul_add(ar, br)? {
                        return Ok(Out::Reg(dst, result_ty));
                    }
                }
                // Float or mixed numeric arithmetic; constant operands
                // (int constants pre-promoted) embed in the instruction.
                let dst = self.alloc(Class::F)?;
                if let Some(c) = self.as_const_f(br) {
                    let a = self.promote_f(ar)?;
                    self.instrs.push(Instr::ArithFC {
                        op: arith,
                        a: a.idx,
                        c,
                        dst: dst.idx,
                        rev: false,
                    });
                } else if let Some(c) = self.as_const_f(ar) {
                    let b = self.promote_f(br)?;
                    self.instrs.push(Instr::ArithFC {
                        op: arith,
                        a: b.idx,
                        c,
                        dst: dst.idx,
                        rev: true,
                    });
                } else {
                    let a = self.promote_f(ar)?;
                    let b = self.promote_f(br)?;
                    self.instrs.push(Instr::ArithF { op: arith, a: a.idx, b: b.idx, dst: dst.idx });
                }
                Ok(Out::Reg(dst, result_ty))
            }
            _ => Err(mixed(op)),
        }
    }

    /// Fuses `mul + rhs` into a `MulAddF`/`MulAddFC` when the immediately
    /// preceding instruction is the multiply producing the *left* operand
    /// and nothing else can read its register (not let-bound). Returns the
    /// fused destination, or `None` when the pattern does not apply.
    fn try_mul_add(&mut self, ar: Reg, br: Reg) -> Result<Option<Reg>> {
        let Some(Instr::ArithF { op: ArithOp::Mul, a: x, b: y, dst }) = self.instrs.last() else {
            return Ok(None);
        };
        let (x, y, mul_dst) = (*x, *y, *dst);
        if mul_dst != ar.idx || br.idx == mul_dst || self.env.values().any(|(r, _)| *r == Some(ar))
        {
            return Ok(None);
        }
        self.instrs.pop();
        let out = self.alloc(Class::F)?;
        match self.const_f.get(&br.idx).copied() {
            Some(c) => self.instrs.push(Instr::MulAddFC { x, y, c, dst: out.idx }),
            None => self.instrs.push(Instr::MulAddF { x, y, z: br.idx, dst: out.idx }),
        }
        Ok(Some(out))
    }

    /// Materializes a Kleene-connective operand as a `B` register (`None`
    /// when the operand is provably φ on both sides — caller folds).
    fn logical_operand(&mut self, o: &Out) -> Result<Option<Reg>> {
        match o {
            Out::Reg(r, _) if r.class == Class::B => Ok(Some(*r)),
            Out::Reg(..) => {
                Err(CompileError::Invalid("typed tier non-bool logical operand".into()))
            }
            Out::Null => Ok(None),
        }
    }

    /// If-converts `c ? t : f`: both branches execute unconditionally and
    /// one `Select` merges them — invisible, because typed instructions only
    /// write their own fresh destination, provided neither branch can trap
    /// ([`speculatable`]) and both produce one register class.
    fn emit_if(&mut self, c: &Expr, t: &Expr, f: &Expr) -> Result<Out> {
        let co = self.emit(c)?;
        // A φ condition yields φ without evaluating either branch — the
        // interpreter's laziness, preserved.
        let Out::Reg(cr, _) = co else { return Ok(Out::Null) };
        if cr.class != Class::B {
            return Err(CompileError::Invalid("typed tier non-bool if condition".into()));
        }
        // Compile each branch into a side buffer, to check it before it
        // joins the body.
        let outer = std::mem::take(&mut self.instrs);
        let to = self.emit(t);
        let t_code = std::mem::take(&mut self.instrs);
        let fo = self.emit(f);
        let f_code = std::mem::replace(&mut self.instrs, outer);
        let (to, fo) = (to?, fo?);

        let (class, ty) = match (&to, &fo) {
            // Both branches are φ: so is the result, and their code is dead.
            (Out::Null, Out::Null) => return Ok(Out::Null),
            (Out::Reg(r, ty), Out::Null) | (Out::Null, Out::Reg(r, ty)) => (r.class, ty.clone()),
            (Out::Reg(ra, ta), Out::Reg(rb, tb)) => {
                let ty = ta.unify(tb).or_else(|| ta.promote(tb)).ok_or_else(|| {
                    CompileError::Type(format!("if branches disagree: {ta} vs {tb}"))
                })?;
                // Mixed classes would box: the taken branch's unpromoted
                // value is observable.
                if ra.class != rb.class {
                    return Err(boxed());
                }
                (ra.class, ty)
            }
        };
        if !speculatable(&t_code) || !speculatable(&f_code) {
            return Err(CompileError::Invalid("typed tier: `if` branch may trap".into()));
        }
        let dst = self.alloc(class)?;
        let as_src = |o: &Out| match o {
            Out::Reg(r, _) => Some(*r),
            Out::Null => None,
        };
        self.instrs.extend(t_code);
        self.instrs.extend(f_code);
        self.instrs.push(Instr::Select { cond: cr.idx, t: as_src(&to), f: as_src(&fo), dst });
        Ok(Out::Reg(dst, ty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::program::compile;
    use crate::ir::{Query, TDom};
    use crate::{Compiler, ExecTier};
    use tilt_data::{Event, SnapshotBuf, Time, TimeRange};

    fn typed_with(
        body: &Expr,
        objs: &dyn Fn(TObjId) -> Result<DataType>,
    ) -> Result<(Program, TypedProgram)> {
        let program = compile(body).unwrap();
        let tp = compile_typed(body, &program, objs, &HashMap::new())?;
        Ok((program, tp))
    }

    fn typed(body: &Expr, obj_ty: DataType) -> Result<(Program, TypedProgram)> {
        typed_with(body, &move |_: TObjId| Ok(obj_ty.clone()))
    }

    /// The typed root register boxed, as the batched tier pushes it.
    fn root_value(tp: &TypedProgram, ctx: &TypedCtx) -> Value {
        let Some(r) = tp.root else { return Value::Null };
        let (v, null) = match r.class {
            Class::F => (Value::Float(ctx.get_f(r.idx).0), ctx.get_f(r.idx).1),
            Class::I => (Value::Int(ctx.get_i(r.idx).0), ctx.get_i(r.idx).1),
            Class::B => (Value::Bool(ctx.get_b(r.idx).0), ctx.get_b(r.idx).1),
        };
        if null {
            Value::Null
        } else {
            v
        }
    }

    /// Runs the interpreter and the typed body over the same point-slot
    /// inputs.
    fn run_both(program: &Program, tp: &TypedProgram, points: &[Value]) -> (Value, Value) {
        let mut ictx = program.new_ctx();
        let mut tctx = tp.new_ctx();
        for (i, v) in points.iter().enumerate() {
            ictx.points[i] = v.clone();
            if let Some(r) = tp.point_regs[i] {
                tctx.load_value(r, v);
            }
        }
        exec(&tp.instrs, &mut tctx);
        (program.run(&mut ictx), root_value(tp, &tctx))
    }

    fn both(body: &Expr, obj_ty: DataType, points: &[Value]) -> (Value, Value) {
        let (program, tp) = typed(body, obj_ty).unwrap();
        run_both(&program, &tp, points)
    }

    fn obj(i: u32) -> TObjId {
        TObjId(i)
    }

    /// Compiles `body` over one input of `ty` on both tiers, runs both over
    /// `events`, and returns the batched kernel count after asserting the
    /// outputs are byte-identical.
    fn kernel_differential(ty: DataType, body: Expr, events: &[Event<Value>]) -> usize {
        let mut b = Query::builder();
        let input = b.input("x", ty);
        assert_eq!(input, obj(0));
        let out = b.temporal("out", TDom::every_tick(), body);
        let q = b.finish(out).unwrap();
        let batched = Compiler::new().compile(&q).unwrap();
        let interp = Compiler::interpreted().compile(&q).unwrap();
        assert_eq!(interp.tier(), ExecTier::Interpreted);
        let end = events.last().map_or(Time::new(4), |e| e.end) + 4;
        let range = TimeRange::new(Time::ZERO, end);
        let buf = SnapshotBuf::from_events(events, range);
        assert_eq!(batched.run(&[&buf], range), interp.run(&[&buf], range));
        if batched.batched_kernels() == 0 {
            assert!(batched.fallback_ops() > 0, "interpreted kernels count as fallback");
        }
        batched.batched_kernels()
    }

    fn points(values: &[Value]) -> Vec<Event<Value>> {
        // Every other tick, so φ gaps separate the values.
        (0..values.len())
            .map(|i| Event::point(Time::new(2 * i as i64 + 1), values[i].clone()))
            .collect()
    }

    #[test]
    fn numeric_filter_map_is_fully_typed_and_identical() {
        // (p0 * 2 + 1 > 10) ? p0 : φ
        let e = Expr::if_else(
            Expr::at(obj(0)).mul(Expr::c(2.0)).add(Expr::c(1.0)).gt(Expr::c(10.0)),
            Expr::at(obj(0)),
            Expr::null(),
        );
        for v in [Value::Float(7.5), Value::Float(1.0), Value::Null] {
            let (a, b) = both(&e, DataType::Float, std::slice::from_ref(&v));
            assert!(a.same(&b), "input {v:?}: interp {a:?} vs typed {b:?}");
        }
    }

    #[test]
    fn kleene_and_null_propagation_match_interpreter() {
        // (p0 > 0 && p1 > 0) || is_null(p0), with p0: float and p1: int.
        let e = Expr::at(obj(0))
            .gt(Expr::c(0.0))
            .and(Expr::at(obj(1)).gt(Expr::c(0i64)))
            .or(Expr::at(obj(0)).is_null());
        let objs = |o: TObjId| Ok(if o == obj(0) { DataType::Float } else { DataType::Int });
        let (program, tp) = typed_with(&e, &objs).unwrap();
        let cases = [
            [Value::Float(1.0), Value::Int(1)],
            [Value::Float(1.0), Value::Null],
            [Value::Null, Value::Int(-1)],
            [Value::Null, Value::Null],
            [Value::Float(-1.0), Value::Null],
        ];
        for points in &cases {
            let (a, b) = run_both(&program, &tp, points);
            assert!(a.same(&b), "points {points:?}: interp {a:?} vs typed {b:?}");
        }
    }

    #[test]
    fn mixed_branch_if_stays_boxed_for_identity() {
        // if p0 > 0 then 1 (int) else 2.5 (float): the taken branch's
        // dynamic type is observable, so the kernel stays on the
        // interpreter.
        let e = Expr::if_else(Expr::at(obj(0)).gt(Expr::c(0.0)), Expr::c(1i64), Expr::c(2.5));
        assert!(typed(&e, DataType::Float).is_err());
        let program = compile(&e).unwrap();
        let interp = |x: f64| {
            let mut ctx = program.new_ctx();
            ctx.points[0] = Value::Float(x);
            program.run(&mut ctx)
        };
        assert!(interp(5.0).same(&Value::Int(1)));
        assert!(interp(-5.0).same(&Value::Float(2.5)));
        let events = points(&[Value::Float(5.0), Value::Float(-5.0)]);
        assert_eq!(kernel_differential(DataType::Float, e, &events), 0);
    }

    #[test]
    fn str_and_tuple_fall_back_but_agree() {
        // {p0, p0 == "hot"} — string equality + tuple construction.
        let e = Expr::Tuple(vec![Expr::at(obj(0)), Expr::at(obj(0)).eq(Expr::c("hot"))]);
        assert!(typed(&e, DataType::Str).is_err());
        let events = points(&[Value::str("hot"), Value::str("cold")]);
        assert_eq!(kernel_differential(DataType::Str, e, &events), 0);
    }

    #[test]
    fn field_projection_and_int_division_semantics() {
        // Projections read boxed tuples: interpreter only.
        let tuple_ty = DataType::Tuple(vec![DataType::Float, DataType::Int]);
        assert!(typed(&Expr::at(obj(0)).get(1), tuple_ty).is_err());
        // p0 / 2 over int: integer division, φ on a zero divisor.
        let e = Expr::at(obj(0)).div(Expr::c(2i64));
        let (a, b) = both(&e, DataType::Int, &[Value::Int(7)]);
        assert!(a.same(&Value::Int(3)));
        assert!(a.same(&b));
        let e0 = Expr::at(obj(0)).div(Expr::c(0i64));
        let (a, b) = both(&e0, DataType::Int, &[Value::Int(7)]);
        assert!(a.same(&Value::Null));
        assert!(a.same(&b));
    }

    #[test]
    fn guarded_division_by_constant_if_converts_unless_it_can_trap() {
        // x >= 0 ? x / c : t % c. If-conversion evaluates `x / c` on every
        // lane, `i64::MIN` included: only c = −1 can trap there, so only
        // that kernel stays interpreted.
        let xs = [5, -7, i64::MIN, 0, i64::MAX, -1, 12, i64::MIN + 1];
        let events = points(&xs.map(Value::Int));
        for c in [3i64, -3, 0, -1] {
            let body = Expr::if_else(
                Expr::at(obj(0)).ge(Expr::c(0i64)),
                Expr::at(obj(0)).div(Expr::c(c)),
                Expr::Time.rem(Expr::c(c)),
            );
            let batched = kernel_differential(DataType::Int, body, &events);
            assert_eq!(batched, usize::from(c != -1), "c = {c}");
        }
    }

    #[test]
    fn let_bindings_and_time_share_registers() {
        let v = VarId::from_raw(0);
        let e = Expr::Let {
            var: v,
            value: Box::new(Expr::at(obj(0)).mul(Expr::c(3.0))),
            body: Box::new(
                Expr::Var(v).add(Expr::Var(v)).add(Expr::Time.bin(BinOp::Mul, Expr::c(0i64))),
            ),
        };
        let (a, b) = both(&e, DataType::Float, &[Value::Float(2.0)]);
        assert!(a.same(&Value::Float(12.0)));
        assert!(a.same(&b), "interp {a:?} vs typed {b:?}");
    }

    #[test]
    fn bitwise_float_equality_matches_value_same() {
        // NaN == NaN is true under snapshot identity; -0.0 == 0.0 is false.
        let e = Expr::at(obj(0)).eq(Expr::at_off(obj(0), -1));
        let (program, _) = typed(&e, DataType::Float).unwrap();
        assert_eq!(program.points.len(), 2);
        for (x, y) in [(f64::NAN, f64::NAN), (-0.0, 0.0), (1.5, 1.5), (1.5, 2.5)] {
            let (a, b) = both(&e, DataType::Float, &[Value::Float(x), Value::Float(y)]);
            assert!(a.same(&b), "({x}, {y}): interp {a:?} vs typed {b:?}");
        }
    }
}

#[cfg(test)]
mod size_probe {
    use super::*;

    #[test]
    #[ignore]
    fn instr_size() {
        eprintln!("size_of Instr = {}", std::mem::size_of::<Instr>());
        eprintln!("size_of Value = {}", std::mem::size_of::<Value>());
        eprintln!("size_of Reg = {}", std::mem::size_of::<Reg>());
    }
}
