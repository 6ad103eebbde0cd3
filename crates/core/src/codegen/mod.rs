//! Code generation: lowering temporal expressions to executable kernels
//! (paper §6.1).
//!
//! The pipeline is `TempExpr` → executable body → [`Kernel`] (the
//! synthesized change-point-driven loop). Kernel bodies run on one of **two
//! tiers**:
//!
//! * the *interpreted* tier ([`Program`]) — a tree of composed closures
//!   matching on the dynamic [`tilt_data::Value`] enum at every node; the
//!   reference semantics, and the home of every body the typed compiler
//!   cannot take (`Str`/`Tuple` values, custom reductions, mixed-class or
//!   possibly trapping `if`s);
//! * the *batched* tier (the `batch` module) — the type checker assigns
//!   every sub-expression a static type, the body is monomorphized into
//!   straight-line register bytecode over unboxed `f64`/`i64`/`bool` files
//!   with an explicit null mask for φ (the `compiled` module, built by
//!   [`lower_typed`]), and that bytecode executes over a **run** of grid
//!   ticks at once: columnar registers, one dispatch per instruction per
//!   run, word-level φ masks (one branch per 64 lanes), and plain slice
//!   loops the compiler auto-vectorizes. A body runs batched when it
//!   compiles and passes the batch gate (see `batch::batchable`).
//!
//! Both tiers share one stepping rule, one slot layout, and one set of
//! incremental reduce runners, so their outputs are byte-identical. The
//! batched tier stands in for the paper's LLVM JIT: where TiLT emits one
//! compiled loop per fused expression, this repo emits typed bytecode whose
//! per-instruction dispatch is amortized over a run of ticks.

mod batch;
pub(crate) mod compiled;
mod kernel;
mod program;
mod reduce;

pub use kernel::{Kernel, KernelProfile};
pub use program::{compile, EvalCtx, EvalFn, MapFn, PointSpec, Program, ReduceSpec};
pub use reduce::ReduceRunner;

use std::collections::HashMap;

use crate::error::Result;
use crate::ir::typeck::TypeInfo;
use crate::ir::Query;

/// Lowers every temporal expression of `query` into an interpreter-tier
/// kernel, in execution (topological) order.
pub fn lower(query: &Query) -> Result<Vec<Kernel>> {
    query.exprs().iter().map(|te| Kernel::new(te, query.name(te.output))).collect()
}

/// Lowers every temporal expression of `query` into a kernel carrying the
/// interpreter body plus, where it compiles and passes the batch gate, the
/// typed register bytecode the batched tier runs, in execution
/// (topological) order. `types` must come from [`crate::ir::typecheck`]
/// over this exact query.
///
/// Object register classes thread through the kernel chain: a kernel that
/// stays on the interpreter produces an object with no register class,
/// and a downstream kernel that reads its values stays interpreted too — so fallback is
/// per-kernel, never whole-query.
pub fn lower_typed(query: &Query, types: &TypeInfo) -> Result<Vec<Kernel>> {
    let mut classes: HashMap<crate::ir::TObjId, Option<compiled::Class>> = HashMap::new();
    for &input in query.inputs() {
        classes.insert(input, types.object_type(input).and_then(compiled::Class::of_type));
    }
    let mut kernels = Vec::with_capacity(query.exprs().len());
    for te in query.exprs() {
        let kernel = Kernel::with_types(te, query.name(te.output), types, &classes)?;
        classes.insert(te.output, kernel.output_class());
        kernels.push(kernel);
    }
    Ok(kernels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{DataType, Expr, ReduceOp, TDom};

    #[test]
    fn lower_produces_one_kernel_per_expression() {
        let mut b = Query::builder();
        let input = b.input("in", DataType::Float);
        let avg =
            b.temporal("avg", TDom::every_tick(), Expr::reduce_window(ReduceOp::Mean, input, 10));
        let out = b.temporal("out", TDom::every_tick(), Expr::at(avg).mul(Expr::c(2.0)));
        let q = b.finish(out).unwrap();
        let kernels = lower(&q).unwrap();
        assert_eq!(kernels.len(), 2);
        assert_eq!(kernels[0].name, "avg");
        assert_eq!(kernels[1].dependencies(), vec![avg]);
    }
}
