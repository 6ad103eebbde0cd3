//! Loop synthesis: one kernel per temporal expression (paper §6.1.3).
//!
//! A [`Kernel`] is the executable form of a temporal expression. Its `run`
//! method is the synthesized loop of Fig. 3d: starting from the (symbolic)
//! domain start, it repeatedly advances the clock to the next time any
//! referenced access can change value — input change points shifted by
//! access offsets, window enter/evict crossings for reductions — evaluates
//! the compiled expression once, and appends one snapshot to the output
//! buffer. Ticks at which no input changes are never visited.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tilt_data::{SnapshotBuf, SsCursor, Time, TimeRange, Value};
use tilt_obs::Profiler;

use super::batch::{batchable, BatchCtx, MAX_BATCH};
use super::compiled::{compile_typed, type_lookup, Class, TypedProgram};
use super::program::{compile, EvalCtx, PointSpec, Program};
use super::reduce::{typed_fold_class, typed_result_class, FoldMode, ReduceRunner, TypedFold};
use crate::error::Result;
use crate::ir::typeck::TypeInfo;
use crate::ir::{TObjId, TempExpr};

/// A compiled temporal expression: the unit of execution.
#[derive(Debug)]
pub struct Kernel {
    /// The temporal object this kernel materializes.
    pub out: TObjId,
    /// Human-readable name (the object's name in the source query).
    pub name: String,
    /// Output time-domain precision.
    pub precision: i64,
    /// Sampled (every tick) vs event-driven loop synthesis.
    pub sample: bool,
    /// Whether the body reads the clock (`Expr::Time`) outside reduce maps;
    /// such kernels can change value at every grid tick and therefore also
    /// step densely.
    pub uses_time: bool,
    /// The interpreted expression body (always present: the reference tier
    /// and the slot-layout authority).
    pub program: Program,
    /// The typed register-bytecode body the batched tier executes, when
    /// [`super::lower_typed`] compiled it and the batch gate admitted it.
    pub(crate) typed: Option<TypedProgram>,
    /// Per reduce slot of `typed`: the fold and result classes when the
    /// unboxed map→accumulator path applies — the typed map's output feeds
    /// the monomorphized accumulator directly, no `Value` round trip — and
    /// whether the map runs over lane columns.
    reduce_modes: Vec<Option<FoldMode>>,
    /// True when typed lowering was requested but this body stayed on the
    /// interpreter: every run then counts as one fallback op.
    interp_fallback: bool,
    /// Interpreted runs of a kernel that typed lowering could not take,
    /// accumulated across runs.
    fallback: AtomicU64,
    /// Fused window-map executions, accumulated across runs — the
    /// observable for the map-once-per-element invariant (Subtract-on-
    /// Evict must not re-run maps; see `super::reduce`).
    map_runs: AtomicU64,
    /// Whether [`Kernel::run_into`] reads the clock around each call.
    /// Off by default: the disabled cost is this one relaxed load.
    timed: AtomicBool,
    /// Timed invocations of this kernel (counted only while profiling).
    invocations: AtomicU64,
    /// Wall nanoseconds spent inside timed invocations.
    nanos: AtomicU64,
}

impl Kernel {
    /// Compiles a temporal expression into an interpreter-tier kernel.
    pub fn new(te: &TempExpr, name: &str) -> Result<Kernel> {
        let mut uses_time = false;
        te.body.walk(&mut |e| {
            if matches!(e, crate::ir::Expr::Time) {
                uses_time = true;
            }
        });
        Ok(Kernel {
            out: te.output,
            name: name.to_string(),
            precision: te.dom.precision,
            sample: te.sample,
            uses_time,
            program: compile(&te.body)?,
            typed: None,
            reduce_modes: Vec::new(),
            interp_fallback: false,
            fallback: AtomicU64::new(0),
            map_runs: AtomicU64::new(0),
            timed: AtomicBool::new(false),
            invocations: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        })
    }

    /// Compiles a temporal expression with the interpreter body plus, when
    /// the body lowers to typed register bytecode and passes the batch gate,
    /// the batched body — using `types` for static types and `classes` for
    /// upstream objects' register classes. Any other body stays
    /// interpreter-only, which callers observe through
    /// [`Kernel::is_batched`].
    pub(crate) fn with_types(
        te: &TempExpr,
        name: &str,
        types: &TypeInfo,
        classes: &HashMap<TObjId, Option<Class>>,
    ) -> Result<Kernel> {
        let mut kernel = Kernel::new(te, name)?;
        let objs = type_lookup(types);
        if let Ok(tp) = compile_typed(&te.body, &kernel.program, &objs, classes) {
            let mut modes: Vec<Option<FoldMode>> = kernel
                .program
                .reduces
                .iter()
                .zip(&tp.reduce_elem)
                .map(|(rs, elem)| {
                    let fold = typed_fold_class(&rs.op, *elem)?;
                    let res = typed_result_class(&rs.op, *elem)?;
                    Some(FoldMode { fold, res, lanes: false })
                })
                .collect();
            if batchable(&tp, &mut modes) {
                kernel.typed = Some(tp);
                kernel.reduce_modes = modes;
            }
        }
        kernel.interp_fallback = kernel.typed.is_none();
        Ok(kernel)
    }

    /// Whether this kernel executes a typed body on the batched tier (the
    /// alternative is the interpreter).
    pub fn is_batched(&self) -> bool {
        self.typed.is_some()
    }

    /// Interpreted runs so far of a kernel that typed lowering could not
    /// take (0 for batched kernels and for interpreter-tier queries, whose
    /// kernels were never offered to the typed compiler).
    pub fn fallback_ops(&self) -> u64 {
        self.fallback.load(Ordering::Relaxed)
    }

    /// Fused window-map executions by the batched tier so far. The map-once
    /// invariant bounds this by the number of elements ever *accumulated*
    /// into this kernel's windows — eviction must re-use cached mapped
    /// values, never re-run the map.
    pub fn map_runs(&self) -> u64 {
        self.map_runs.load(Ordering::Relaxed)
    }

    /// The register class of this kernel's output values (what downstream
    /// kernels assume when reading its buffer).
    pub(crate) fn output_class(&self) -> Option<Class> {
        self.typed.as_ref().and_then(TypedProgram::output_class)
    }

    /// The objects this kernel reads, in slot order (points then reduces).
    pub fn dependencies(&self) -> Vec<TObjId> {
        let mut deps: Vec<TObjId> = self
            .program
            .points
            .iter()
            .map(|p| p.obj)
            .chain(self.program.reduces.iter().map(|r| r.obj))
            .collect();
        deps.sort();
        deps.dedup();
        deps
    }

    /// Executes the kernel over `(range.start, range.end]`.
    ///
    /// `bufs` is indexed by [`TObjId::index`]; every dependency must be
    /// present (times outside a buffer's coverage read as φ, which is how
    /// partition lookback edges degrade gracefully).
    ///
    /// # Panics
    ///
    /// Panics if a dependency buffer is missing.
    pub fn run(
        &self,
        bufs: &[Option<&SnapshotBuf<Value>>],
        range: TimeRange,
    ) -> SnapshotBuf<Value> {
        let mut out = SnapshotBuf::new(range.start);
        self.run_into(bufs, range, &mut out);
        out
    }

    /// Like [`Kernel::run`], but writes into `out` (reset to `range.start`
    /// first), reusing its span allocation. Hot emission paths recycle
    /// output buffers through a [`tilt_data::BufPool`] this way instead of
    /// reallocating one per kernel per advance.
    ///
    /// Dispatches to the batched tier when the kernel has a typed body, the
    /// interpreter otherwise; both tiers share one stepping rule, so output
    /// shape is identical.
    pub fn run_into(
        &self,
        bufs: &[Option<&SnapshotBuf<Value>>],
        range: TimeRange,
        out: &mut SnapshotBuf<Value>,
    ) {
        if Profiler::enabled(self) {
            let start = std::time::Instant::now();
            self.dispatch(bufs, range, out);
            Profiler::record(self, start.elapsed().as_nanos() as u64);
        } else {
            self.dispatch(bufs, range, out);
        }
    }

    fn dispatch(
        &self,
        bufs: &[Option<&SnapshotBuf<Value>>],
        range: TimeRange,
        out: &mut SnapshotBuf<Value>,
    ) {
        match &self.typed {
            Some(tp) => self.run_batched(tp, bufs, range, out),
            None => self.run_interp(bufs, range, out),
        }
    }

    /// Turns per-invocation wall timing on (or off). Profiling is
    /// per-kernel state shared by every clone of the owning
    /// `CompiledQuery`'s `Arc`, so enabling it on a live service takes
    /// effect on the next invocation.
    pub fn set_profiling(&self, on: bool) {
        self.timed.store(on, Ordering::Relaxed);
    }

    /// A frozen view of this kernel's profile counters.
    pub fn profile(&self) -> KernelProfile {
        KernelProfile {
            name: self.name.clone(),
            batched: self.is_batched(),
            invocations: self.invocations.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
            fallback_ops: self.fallback_ops(),
            map_runs: self.map_runs(),
        }
    }

    /// The interpreted tier: per-tick closure-tree evaluation over
    /// [`Value`] slots, one output span per visited tick.
    fn run_interp(
        &self,
        bufs: &[Option<&SnapshotBuf<Value>>],
        range: TimeRange,
        out: &mut SnapshotBuf<Value>,
    ) {
        if self.interp_fallback {
            self.fallback.fetch_add(1, Ordering::Relaxed);
        }
        let Some(Drive { g_first, g_last, mut points, mut reduces }) =
            self.start(bufs, range, out, None)
        else {
            return;
        };
        let mut ctx = self.program.new_ctx();
        let mut g = g_first;
        loop {
            let v = eval_at(&self.program, &mut ctx, &mut points, &mut reduces, g);
            match self.next_tick(g, g_last, &points, &reduces) {
                Some(ng) => {
                    // `v` holds for every tick in [g, ng − p].
                    out.push_raw(ng - self.precision, v);
                    g = ng;
                }
                None => {
                    out.push_raw(g_last, v);
                    break;
                }
            }
        }
        if g_last < range.end {
            out.push_raw(range.end, Value::Null);
        }
    }

    /// The batched tier: the interpreter's change-point stepping, but lanes
    /// accumulate while stepping stays dense (`next == g + p`) and the typed
    /// body then executes **once per run** over columnar registers (see
    /// [`super::batch`]) — one instruction dispatch per run instead of per
    /// tick, φ checks one branch per 64 lanes. Each tick's window slides
    /// fold their entering spans a run at a time, with lane-gated fused
    /// maps executing over the same [`BatchCtx`] (map registers are
    /// disjoint from body registers). Point cursor reads and the slide
    /// calls themselves stay per tick: cursors are O(1) per tick through
    /// [`SsCursor`] (constant-span stretches never re-search the buffer),
    /// and both carry the per-tick change-point state `next_tick` steps
    /// on, so stepping — and therefore output — is byte-identical to the
    /// interpreter.
    fn run_batched(
        &self,
        tp: &TypedProgram,
        bufs: &[Option<&SnapshotBuf<Value>>],
        range: TimeRange,
        out: &mut SnapshotBuf<Value>,
    ) {
        let p = self.precision;
        let Some(Drive { g_first, g_last, mut points, mut reduces }) =
            self.start(bufs, range, out, Some(tp))
        else {
            return;
        };

        // The scalar file holds prelude constants and hosts typed map
        // execution; columns are broadcast from it once per drive.
        let mut ctx = tp.new_ctx();
        let mut bc = BatchCtx::new(tp);
        bc.broadcast(&ctx, tp);

        let mut g = g_first;
        loop {
            let span_cap = (((g_last.ticks() - g.ticks()) / p) as usize + 1).min(MAX_BATCH);
            let mut k = 0usize;
            // The grid tick after this run; `None` once stepping passed
            // `g_last` (the drive is over after this batch).
            let mut succ: Option<Time> = None;
            let mut stop = false;
            while k < span_cap {
                let gk = g + (k as i64) * p;
                ctx.t = gk.ticks();
                for (i, runner) in reduces.iter_mut().enumerate() {
                    match self.reduce_modes[i] {
                        Some(mode) => {
                            let map = tp.typed_maps[i].as_ref().map(|m| (m, &mut ctx));
                            let lanes = if mode.lanes { Some(&mut bc) } else { None };
                            runner.slide_typed(gk, TypedFold { map, lanes });
                        }
                        // The fused map is provably φ (no register): it drops
                        // every element, but the window still slides so
                        // `next_tick` sees its state.
                        None => {
                            let _ = runner.eval_at_with(gk, &mut |_: &Value| Value::Null);
                        }
                    }
                    if let Some(reg) = tp.reduce_regs[i] {
                        match reg.class {
                            Class::F => bc.store_f_lane(reg, k, runner.result_f()),
                            Class::I => bc.store_i_lane(reg, k, runner.result_i()),
                            _ => unreachable!("batch gate admits only typed reduce registers"),
                        }
                    }
                }
                for (i, runner) in points.iter_mut().enumerate() {
                    let t = gk + runner.spec.offset;
                    match tp.point_regs[i] {
                        Some(reg) => match reg.class {
                            Class::F => {
                                let (v, b) = runner.cursor.value_f64_and_boundary(t);
                                bc.store_f_lane(reg, k, v);
                                runner.boundary = b;
                            }
                            Class::I => {
                                let (v, b) = runner.cursor.value_i64_and_boundary(t);
                                bc.store_i_lane(reg, k, v);
                                runner.boundary = b;
                            }
                            Class::B => {
                                let (v, b) = runner.cursor.value_bool_and_boundary(t);
                                bc.store_b_lane(reg, k, v);
                                runner.boundary = b;
                            }
                        },
                        None => {
                            let (_, b) = runner.cursor.value_ref_and_boundary(t);
                            runner.boundary = b;
                        }
                    }
                }
                k += 1;
                match self.next_tick(gk, g_last, &points, &reduces) {
                    Some(ng) if ng.ticks() == gk.ticks() + p => {
                        // Dense: extend the run (or hand the successor to
                        // the next batch when this one is full).
                        if k == span_cap {
                            succ = Some(ng);
                        }
                    }
                    Some(ng) => {
                        succ = Some(ng);
                        break;
                    }
                    None => {
                        stop = true;
                        break;
                    }
                }
            }
            bc.exec(&tp.instrs, g.ticks(), p, k);
            for j in 0..k {
                let v = match tp.root {
                    Some(r) => bc.read_lane(r, j),
                    None => Value::Null,
                };
                // Interior lanes are dense, so each value holds exactly at
                // its own tick; the last lane holds until the successor
                // (or `g_last`), same spans the scalar skeleton pushes.
                let end = if j + 1 < k {
                    g + (j as i64) * p
                } else if stop {
                    g_last
                } else {
                    succ.expect("a non-final batch has a successor tick") - p
                };
                out.push_raw(end, v);
            }
            if stop {
                break;
            }
            g = succ.expect("a non-final batch has a successor tick");
        }
        if g_last < range.end {
            out.push_raw(range.end, Value::Null);
        }
        if ctx.map_runs > 0 {
            self.map_runs.fetch_add(ctx.map_runs, Ordering::Relaxed);
        }
    }

    /// The setup both tiers share: resets `out` and resolves the range's
    /// grid ticks, then opens a cursor per point access and a runner per
    /// reduce (typed accumulators and source reads per `typed`, the
    /// batched body). `None` when the range holds no grid tick; `out` is
    /// then complete.
    fn start<'b>(
        &'b self,
        bufs: &[Option<&'b SnapshotBuf<Value>>],
        range: TimeRange,
        out: &mut SnapshotBuf<Value>,
        typed: Option<&TypedProgram>,
    ) -> Option<Drive<'b>> {
        let p = self.precision;
        out.reset(range.start);
        if range.is_empty() {
            return None;
        }
        let g_first = Time::new(range.start.ticks() + 1).align_up(p);
        let g_last = range.end.align_down(p);
        if g_first > g_last {
            out.push_raw(range.end, Value::Null);
            return None;
        }

        let buf_for = |obj: TObjId| -> &SnapshotBuf<Value> {
            bufs.get(obj.index())
                .and_then(|b| *b)
                .unwrap_or_else(|| panic!("kernel {}: missing buffer for {obj}", self.name))
        };
        let points = self
            .program
            .points
            .iter()
            .map(|ps| PointRunner {
                cursor: SsCursor::new(buf_for(ps.obj)),
                spec: *ps,
                boundary: None,
            })
            .collect();
        let reduces = self
            .program
            .reduces
            .iter()
            .enumerate()
            .map(|(i, rs)| {
                let Some(tp) = typed else {
                    return ReduceRunner::new(rs, buf_for(rs.obj));
                };
                // A fused map reads the source as its input class; an
                // unmapped fold reads it as the element class.
                let elem = tp.reduce_elem[i];
                let reads = tp.typed_maps[i].as_ref().map_or(elem, |m| Some(m.var.class));
                ReduceRunner::with_elem_class(rs, buf_for(rs.obj), elem, reads)
            })
            .collect();
        Some(Drive { g_first, g_last, points, reduces })
    }

    /// The next grid tick (≤ `g_last`) at which any access may change value.
    fn next_tick(
        &self,
        g: Time,
        g_last: Time,
        points: &[PointRunner<'_>],
        reduces: &[ReduceRunner<'_>],
    ) -> Option<Time> {
        let p = self.precision;
        if self.sample || self.uses_time {
            let ng = g + p;
            return if ng <= g_last { Some(ng) } else { None };
        }
        let mut best: Option<Time> = None;
        let mut consider = |t: Time| {
            best = Some(match best {
                Some(b) => b.min(t),
                None => t,
            });
        };
        for runner in points {
            // The value read at source time `g + offset` lasts until the end
            // of its span (cached by `eval_at`); the new value becomes
            // visible one tick later.
            if let Some(b) = runner.boundary {
                consider(Time::new(b.ticks() + 1 - runner.spec.offset));
            }
        }
        for runner in reduces {
            if runner.has_content() {
                // A non-empty reduction defines one snapshot per grid tick:
                // downstream consumers count window outputs per stride
                // (event identity), so equal-valued consecutive ticks must
                // not be skipped. φ gaps (below) still are.
                consider(g + p);
            } else if let Some(t) = runner.next_enter_time() {
                consider(t);
            }
        }
        let mut ng = if p == 1 { best? } else { best?.align_up(p) };
        if ng <= g {
            ng = g + p;
        }
        if ng <= g_last {
            Some(ng)
        } else {
            None
        }
    }
}

impl Profiler for Kernel {
    fn enabled(&self) -> bool {
        self.timed.load(Ordering::Relaxed)
    }

    fn record(&self, nanos: u64) {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

/// A frozen per-kernel profile: what `kernel_hot --json` and the service
/// exposition report per kernel instead of the old aggregate-only
/// fallback count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelProfile {
    /// The kernel's human-readable name (its object's query name).
    pub name: String,
    /// Whether the kernel executes a typed body batched (runs of ticks per
    /// dispatch) rather than on the interpreter.
    pub batched: bool,
    /// Timed invocations (0 unless profiling was enabled).
    pub invocations: u64,
    /// Total wall nanoseconds across timed invocations.
    pub nanos: u64,
    /// Interpreted runs of a kernel typed lowering could not take
    /// (counted even when untimed).
    pub fallback_ops: u64,
    /// Fused window-map executions (counted even when untimed); bounded by
    /// elements accumulated — the map-once-per-element invariant.
    pub map_runs: u64,
}

impl KernelProfile {
    /// Mean wall nanoseconds per timed invocation (0.0 when untimed).
    pub fn ns_per_invocation(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.nanos as f64 / self.invocations as f64
        }
    }

    /// Fallback operations per timed invocation (0.0 when untimed).
    pub fn fallback_rate(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.fallback_ops as f64 / self.invocations as f64
        }
    }
}

/// A drive's grid ticks and access state, from [`Kernel::start`].
struct Drive<'a> {
    g_first: Time,
    g_last: Time,
    points: Vec<PointRunner<'a>>,
    reduces: Vec<ReduceRunner<'a>>,
}

/// One point access during kernel execution: a cursor plus the cached end of
/// the span last read (the access's next possible change point).
struct PointRunner<'a> {
    cursor: SsCursor<'a, Value>,
    spec: PointSpec,
    boundary: Option<Time>,
}

/// Evaluates the program at grid tick `g`: reduces first (their fused maps
/// use variable slots), then point accesses, then the compiled body.
fn eval_at(
    program: &Program,
    ctx: &mut EvalCtx,
    points: &mut [PointRunner<'_>],
    reduces: &mut [ReduceRunner<'_>],
    g: Time,
) -> Value {
    ctx.t = g.ticks();
    for (i, runner) in reduces.iter_mut().enumerate() {
        let v = runner.eval_at(g, ctx);
        ctx.reduces[i] = v;
    }
    for (i, runner) in points.iter_mut().enumerate() {
        let (v, b) = runner.cursor.value_and_boundary(g + runner.spec.offset);
        ctx.points[i] = v;
        runner.boundary = b;
    }
    program.run(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{DataType, Expr, Query, ReduceOp, TDom};
    use tilt_data::Event;

    fn float_events(points: &[(i64, f64)]) -> Vec<Event<Value>> {
        points.iter().map(|&(t, v)| Event::point(Time::new(t), Value::Float(v))).collect()
    }

    fn run_single(
        body: Expr,
        dom: TDom,
        sample: bool,
        events: &[(i64, f64)],
        range: (i64, i64),
    ) -> SnapshotBuf<Value> {
        let mut b = Query::builder();
        let input = b.input("in", DataType::Float);
        // Tests write the input as TObjId(0), which is exactly what the
        // builder assigned: no rewrite needed.
        let _ = input;
        let out = if sample {
            b.temporal_sampled("out", dom, body)
        } else {
            b.temporal("out", dom, body)
        };
        let q = b.finish(out).unwrap();
        let te = q.exprs()[0].clone();
        let kernel = Kernel::new(&te, "out").unwrap();
        let range = TimeRange::new(Time::new(range.0), Time::new(range.1));
        let buf = SnapshotBuf::from_events(&float_events(events), range);
        let bufs = [Some(&buf), None];
        kernel.run(&bufs, range)
    }

    #[test]
    fn select_maps_every_event() {
        let body = Expr::at(TObjId(0)).add(Expr::c(1.0));
        let out =
            run_single(body, TDom::every_tick(), false, &[(1, 10.0), (2, 11.0), (3, 12.0)], (0, 4));
        let events = out.to_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].payload, Value::Float(11.0));
        assert_eq!(events[2].payload, Value::Float(13.0));
        assert_eq!(out.value_at(Time::new(4)), Value::Null);
    }

    #[test]
    fn where_filters_via_phi() {
        let body =
            Expr::if_else(Expr::at(TObjId(0)).gt(Expr::c(10.5)), Expr::at(TObjId(0)), Expr::null());
        let out =
            run_single(body, TDom::every_tick(), false, &[(1, 10.0), (2, 11.0), (3, 12.0)], (0, 3));
        let events = out.to_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].payload, Value::Float(11.0));
    }

    #[test]
    fn window_sum_with_stride_matches_hand_computation() {
        // Events valued 1..=12 at ticks 1..=12; Window(10, 5): at t=5 sum(1..=5)=15,
        // t=10 sum(1..=10)=55, t=15 windows (5,15]: sum(6..=12)=63.
        let events: Vec<(i64, f64)> = (1..=12).map(|t| (t, t as f64)).collect();
        let body = Expr::reduce_window(ReduceOp::Sum, TObjId(0), 10);
        let out = run_single(body, TDom::unbounded(5), false, &events, (0, 15));
        assert_eq!(out.value_at(Time::new(5)), Value::Float(15.0));
        assert_eq!(out.value_at(Time::new(10)), Value::Float(55.0));
        assert_eq!(out.value_at(Time::new(15)), Value::Float(63.0));
        // Precision 5: value at non-grid t equals value at the next grid tick.
        assert_eq!(out.value_at(Time::new(7)), Value::Float(55.0));
    }

    #[test]
    fn event_driven_loop_skips_idle_gaps() {
        // Two bursts separated by a huge gap; the kernel output must stay
        // small (no per-tick φ spans inside the gap).
        let mut events = vec![(1, 1.0), (2, 2.0)];
        events.push((1_000_000, 3.0));
        let body = Expr::reduce_window(ReduceOp::Sum, TObjId(0), 10);
        let out = run_single(body, TDom::every_tick(), false, &events, (0, 1_000_010));
        assert!(out.len() < 32, "expected sparse output, got {} spans", out.len());
        assert_eq!(out.value_at(Time::new(2)), Value::Float(3.0));
        assert_eq!(out.value_at(Time::new(500_000)), Value::Null);
        assert_eq!(out.value_at(Time::new(1_000_000)), Value::Float(3.0));
        assert_eq!(out.value_at(Time::new(1_000_009)), Value::Float(3.0));
        assert_eq!(out.value_at(Time::new(1_000_010)), Value::Null);
    }

    #[test]
    fn shift_reads_the_past() {
        let body = Expr::at_off(TObjId(0), -2);
        let out = run_single(body, TDom::every_tick(), false, &[(1, 5.0)], (0, 5));
        assert_eq!(out.value_at(Time::new(3)), Value::Float(5.0));
        assert_eq!(out.value_at(Time::new(1)), Value::Null);
        assert_eq!(out.value_at(Time::new(4)), Value::Null);
    }

    #[test]
    fn sampled_kernel_emits_every_tick() {
        // Chop semantics: one long event resampled at precision 2.
        let mut b = Query::builder();
        let input = b.input("in", DataType::Float);
        let out = b.temporal_sampled("chop", TDom::unbounded(2), Expr::at(input));
        let q = b.finish(out).unwrap();
        let kernel = Kernel::new(&q.exprs()[0], "chop").unwrap();
        let range = TimeRange::new(Time::new(0), Time::new(10));
        let events = vec![Event::new(Time::new(0), Time::new(10), Value::Float(7.0))];
        let buf = SnapshotBuf::from_events(&events, range);
        let out = kernel.run(&[Some(&buf), None], range);
        // 5 snapshots of value 7.0, one per 2-tick step.
        assert_eq!(out.len(), 5);
        assert!(out.spans().iter().all(|s| s.value == Value::Float(7.0)));
    }

    #[test]
    fn join_shape_intersects_intervals() {
        // ~join[t] = (a[t] != φ && b[t] != φ) ? a[t] + b[t] : φ over two inputs.
        let mut b = Query::builder();
        let a_in = b.input("a", DataType::Float);
        let b_in = b.input("b", DataType::Float);
        let body = Expr::if_else(
            Expr::at(a_in).is_present().and(Expr::at(b_in).is_present()),
            Expr::at(a_in).add(Expr::at(b_in)),
            Expr::null(),
        );
        let out = b.temporal("join", TDom::every_tick(), body);
        let q = b.finish(out).unwrap();
        let kernel = Kernel::new(&q.exprs()[0], "join").unwrap();
        let range = TimeRange::new(Time::new(0), Time::new(20));
        let buf_a = SnapshotBuf::from_events(
            &[Event::new(Time::new(0), Time::new(10), Value::Float(1.0))],
            range,
        );
        let buf_b = SnapshotBuf::from_events(
            &[Event::new(Time::new(5), Time::new(15), Value::Float(2.0))],
            range,
        );
        let out = kernel.run(&[Some(&buf_a), Some(&buf_b), None], range);
        let events = out.to_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].interval(), TimeRange::new(Time::new(5), Time::new(10)));
        assert_eq!(events[0].payload, Value::Float(3.0));
    }

    #[test]
    fn empty_range_and_no_grid_ticks() {
        let body = Expr::at(TObjId(0));
        let out = run_single(body, TDom::unbounded(100), false, &[(1, 1.0)], (0, 50));
        // No grid tick inside (0, 50] for precision 100: all φ.
        assert_eq!(out.to_events().len(), 0);
        assert_eq!(out.range(), TimeRange::new(Time::new(0), Time::new(50)));
    }

    #[test]
    fn filter_map_folds_over_lanes() {
        // Where → tumbling Count (the YSB kernel): the fused filter passes
        // the lane gate, so batched slides map whole runs of spans.
        let mut b = Query::builder();
        let x = b.input("x", DataType::Int);
        let views = b.temporal(
            "views",
            TDom::every_tick(),
            Expr::if_else(Expr::at(x).eq(Expr::c(0i64)), Expr::at(x), Expr::null()),
        );
        let out = b.temporal(
            "counts",
            TDom::unbounded(100),
            Expr::reduce_window(ReduceOp::Count, views, 100),
        );
        let cq = crate::Compiler::new().compile(&b.finish(out).unwrap()).unwrap();
        let kernel = &cq.kernels()[0];
        assert!(kernel.is_batched());
        assert!(kernel.reduce_modes[0].is_some_and(|m| m.lanes));

        let events: Vec<Event<Value>> =
            (1..=1000).map(|t| Event::point(Time::new(t), Value::Int(t % 3))).collect();
        let range = TimeRange::new(Time::new(0), Time::new(1000));
        let buf = SnapshotBuf::from_events(&events, range);
        let counts = cq.run(&[&buf], range);
        assert_eq!(counts.value_at(Time::new(100)), Value::Int(33));
        assert_eq!(counts.value_at(Time::new(1000)), Value::Int(33));
        assert_eq!(cq.map_runs(), 1000);
    }

    #[test]
    fn dependencies_listed_once() {
        let body = Expr::at(TObjId(0)).add(Expr::reduce_window(ReduceOp::Sum, TObjId(0), 5));
        let mut b = Query::builder();
        let _ = b.input("in", DataType::Float);
        let out = b.temporal("out", TDom::every_tick(), body);
        let q = b.finish(out).unwrap();
        let kernel = Kernel::new(&q.exprs()[0], "out").unwrap();
        assert_eq!(kernel.dependencies(), vec![TObjId(0)]);
    }
}
