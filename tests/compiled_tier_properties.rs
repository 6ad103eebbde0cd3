//! Differential property tests for the batched kernel tier: randomly
//! generated *well-typed* expression DAGs over random event streams must
//! produce **byte-identical** output on both tiers — batched and
//! interpreted; identical span boundaries, identical payload bits
//! (`SnapshotBuf` equality uses `Value::same`, which compares floats
//! bitwise) — one-shot, fused and unfused, and through the sharded
//! `StreamService` at 1/2/4 shards.
//!
//! The generator deliberately covers the tier boundary: φ-heavy bodies
//! (null literals, filters, sparse streams), `Str` equality, `Tuple`
//! construction/projection, custom reductions, and mixed `int`/`float`
//! `if` branches whose unpromoted taken value keeps their kernel on the
//! interpreter. A deterministic suite at the bottom pins the batched
//! tier's word-edge behavior: runs of 63/64/65 ticks and φ gaps
//! straddling 64-lane mask word boundaries.

use std::sync::Arc;

use proptest::prelude::*;
use tilt_core::ir::{CustomReduce, DataType, Expr, Query, QueryBuilder, ReduceOp, TDom, TObjId};
use tilt_core::{Compiler, ExecTier};
use tilt_data::{Event, SnapshotBuf, Time, TimeRange, Value};
use tilt_runtime::{KeyedEvent, RuntimeConfig};

mod common;
use common::Single;

/// Deterministic expression/DAG generator driven by one seed.
struct Gen {
    rng: TestRng,
}

impl Gen {
    fn pick(&mut self, n: usize) -> usize {
        self.rng.below(n)
    }

    fn small_float(&mut self) -> f64 {
        // Quarter-steps so equal values (and coalescing) happen often.
        (self.rng.below(41) as f64 - 20.0) * 0.25
    }

    fn small_int(&mut self) -> i64 {
        self.rng.below(21) as i64 - 10
    }

    fn a_str(&mut self) -> &'static str {
        ["hot", "cold", "a", "b"][self.pick(4)]
    }

    /// Objects of a given type available as leaves.
    fn pick_obj(objs: &[(TObjId, DataType)], ty: &DataType, g: &mut Gen) -> Option<TObjId> {
        let candidates: Vec<TObjId> =
            objs.iter().filter(|(_, t)| t == ty).map(|(o, _)| *o).collect();
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[g.pick(candidates.len())])
        }
    }

    /// A leaf expression of the target type.
    fn leaf(&mut self, ty: &DataType, objs: &[(TObjId, DataType)]) -> Expr {
        if self.pick(6) == 0 {
            return Expr::null(); // φ inhabits every type
        }
        if self.pick(2) == 0 {
            if let Some(obj) = Self::pick_obj(objs, ty, self) {
                let offset = self.small_int().clamp(-4, 4);
                return Expr::at_off(obj, offset);
            }
        }
        match ty {
            DataType::Float => {
                // Occasionally project a tuple field (fallback boundary).
                if self.pick(4) == 0 {
                    if let Some(tp) = Self::pick_obj(objs, &tuple_ty(), self) {
                        return Expr::at(tp).get(0);
                    }
                }
                Expr::c(self.small_float())
            }
            DataType::Int => {
                if self.pick(4) == 0 {
                    if let Some(tp) = Self::pick_obj(objs, &tuple_ty(), self) {
                        return Expr::at(tp).get(1);
                    }
                }
                Expr::c(self.small_int())
            }
            DataType::Bool => Expr::c(self.pick(2) == 0),
            DataType::Str => Expr::c(self.a_str()),
            _ => Expr::null(),
        }
    }

    /// A well-typed expression of the target type, depth-bounded.
    fn expr(&mut self, ty: &DataType, depth: u32, objs: &[(TObjId, DataType)]) -> Expr {
        if depth == 0 {
            return self.leaf(ty, objs);
        }
        let d = depth - 1;
        match ty {
            DataType::Float => match self.pick(8) {
                0 | 1 => {
                    // Arithmetic; mixed operands exercise promotion.
                    let ops = [Expr::add, Expr::sub, Expr::mul, Expr::div];
                    let op = ops[self.pick(4)];
                    let rhs_ty = if self.pick(3) == 0 { DataType::Int } else { DataType::Float };
                    op(self.expr(&DataType::Float, d, objs), self.expr(&rhs_ty, d, objs))
                }
                2 => Expr::if_else(
                    self.expr(&DataType::Bool, d, objs),
                    self.expr(&DataType::Float, d, objs),
                    self.expr(&DataType::Float, d, objs),
                ),
                // Mixed-branch if: static type Float, runtime int/float.
                3 => Expr::if_else(
                    self.expr(&DataType::Bool, d, objs),
                    self.expr(&DataType::Int, d, objs),
                    self.expr(&DataType::Float, d, objs),
                ),
                4 => self.expr(&DataType::Float, d, objs).neg(),
                5 => self.expr(&DataType::Float, d, objs).abs(),
                6 => self.expr(&DataType::Float, d, objs).sqrt(),
                _ => Expr::Unary(
                    tilt_core::ir::UnOp::ToFloat,
                    Box::new(self.expr(&DataType::Int, d, objs)),
                ),
            },
            DataType::Int => match self.pick(6) {
                0 | 1 => {
                    let ops = [Expr::add, Expr::sub, Expr::mul, Expr::div, Expr::rem];
                    let op = ops[self.pick(5)];
                    op(self.expr(&DataType::Int, d, objs), self.expr(&DataType::Int, d, objs))
                }
                2 => Expr::if_else(
                    self.expr(&DataType::Bool, d, objs),
                    self.expr(&DataType::Int, d, objs),
                    self.expr(&DataType::Int, d, objs),
                ),
                3 => self.expr(&DataType::Int, d, objs).abs(),
                4 => Expr::Unary(
                    tilt_core::ir::UnOp::ToInt,
                    Box::new(self.expr(&DataType::Float, d, objs)),
                ),
                _ => self.leaf(&DataType::Int, objs),
            },
            DataType::Bool => match self.pick(8) {
                0 => self.expr(&DataType::Float, d, objs).lt(self.expr(&DataType::Float, d, objs)),
                1 => self.expr(&DataType::Int, d, objs).ge(self.expr(&DataType::Int, d, objs)),
                // Mixed-class comparison (int vs float promotes).
                2 => self.expr(&DataType::Float, d, objs).gt(self.expr(&DataType::Int, d, objs)),
                // Equality across every class, including the quirky mixed
                // int/float case and Str (fallback boundary).
                3 => {
                    let eq_ty = [DataType::Float, DataType::Int, DataType::Bool, DataType::Str]
                        [self.pick(4)]
                    .clone();
                    let lhs = self.expr(&eq_ty, d, objs);
                    let rhs = self.expr(&eq_ty, d, objs);
                    if self.pick(2) == 0 {
                        lhs.eq(rhs)
                    } else {
                        lhs.ne(rhs)
                    }
                }
                4 => self.expr(&DataType::Bool, d, objs).and(self.expr(&DataType::Bool, d, objs)),
                5 => self.expr(&DataType::Bool, d, objs).or(self.expr(&DataType::Bool, d, objs)),
                6 => {
                    let any_ty =
                        [DataType::Float, DataType::Int, DataType::Str][self.pick(3)].clone();
                    self.expr(&any_ty, d, objs).is_null()
                }
                _ => Expr::Unary(
                    tilt_core::ir::UnOp::Not,
                    Box::new(self.expr(&DataType::Bool, d, objs)),
                ),
            },
            DataType::Str => {
                if self.pick(2) == 0 {
                    Expr::if_else(
                        self.expr(&DataType::Bool, d, objs),
                        self.leaf(&DataType::Str, objs),
                        self.leaf(&DataType::Str, objs),
                    )
                } else {
                    self.leaf(&DataType::Str, objs)
                }
            }
            _ => self.leaf(ty, objs),
        }
    }

    /// Appends 1..=4 temporal stages over `objs`, returning the output.
    fn stages(
        &mut self,
        b: &mut QueryBuilder,
        objs: &mut Vec<(TObjId, DataType)>,
        numeric_only: bool,
    ) -> TObjId {
        let n = 1 + self.pick(3);
        let mut last = objs[0].0;
        for si in 0..=n {
            let name = format!("s{si}");
            let (obj, ty) = match self.pick(5) {
                // Window reduction over a numeric upstream object.
                0 | 1 => {
                    let srcs: Vec<TObjId> = objs
                        .iter()
                        .filter(|(_, t)| matches!(t, DataType::Float | DataType::Int))
                        .map(|(o, _)| *o)
                        .collect();
                    let src = srcs[self.pick(srcs.len())];
                    let size = 1 + self.pick(10) as i64;
                    let prec = 1 + self.pick(3) as i64;
                    let op = match self.pick(7) {
                        0 => ReduceOp::Sum,
                        1 => ReduceOp::Count,
                        2 => ReduceOp::Mean,
                        3 => ReduceOp::Min,
                        4 => ReduceOp::Max,
                        5 => ReduceOp::StdDev,
                        _ => ReduceOp::Custom(last_value_reduce()),
                    };
                    let src_ty = objs
                        .iter()
                        .find(|(o, _)| *o == src)
                        .map(|(_, t)| t.clone())
                        .expect("source tracked");
                    let ty = op.result_type(&src_ty);
                    let body = Expr::reduce_window(op, src, size);
                    (b.temporal(&name, TDom::unbounded(prec), body), ty)
                }
                // Sampled (chop) stage: re-emits a numeric object.
                2 => {
                    let srcs: Vec<(TObjId, DataType)> = objs
                        .iter()
                        .filter(|(_, t)| matches!(t, DataType::Float | DataType::Int))
                        .cloned()
                        .collect();
                    let (src, ty) = srcs[self.pick(srcs.len())].clone();
                    let prec = 1 + self.pick(3) as i64;
                    (b.temporal_sampled(&name, TDom::unbounded(prec), Expr::at(src)), ty)
                }
                // Pointwise stage.
                _ => {
                    let ty = if numeric_only {
                        [DataType::Float, DataType::Int][self.pick(2)].clone()
                    } else {
                        [DataType::Float, DataType::Int, DataType::Bool][self.pick(3)].clone()
                    };
                    let depth = 1 + self.pick(3) as u32;
                    let body = self.expr(&ty, depth, objs);
                    (b.temporal(&name, TDom::every_tick(), body), ty)
                }
            };
            objs.push((obj, ty));
            last = obj;
        }
        last
    }
}

fn tuple_ty() -> DataType {
    DataType::Tuple(vec![DataType::Float, DataType::Int])
}

/// A non-invertible custom reduction ("last value"): exercises the
/// full-window recompute path, which keeps its kernel on the interpreter.
fn last_value_reduce() -> Arc<CustomReduce> {
    Arc::new(CustomReduce {
        name: "last".into(),
        result_type: DataType::Float,
        init: Value::Null,
        acc: Arc::new(|_, v, _| v.to_float()),
        deacc: None,
        result: Arc::new(|s, _| s.clone()),
    })
}

/// Random sorted, disjoint event stream over roughly (0, 200].
fn stream(g: &mut Gen, mk: &mut dyn FnMut(&mut Gen) -> Value) -> Vec<Event<Value>> {
    let n = g.pick(40);
    let mut t = 0i64;
    let mut out = Vec::new();
    for _ in 0..n {
        let gap = 1 + g.pick(5) as i64; // φ-heavy: every stream has gaps
        let len = 1 + g.pick(4) as i64;
        let start = t + gap;
        let end = start + len;
        out.push(Event::new(Time::new(start), Time::new(end), mk(g)));
        t = end;
    }
    out
}

/// Builds the 4-input query plus matching random input buffers.
fn full_case(seed: u64) -> (Query, Vec<Vec<Event<Value>>>) {
    let mut g = Gen { rng: TestRng::new(seed) };
    let mut b = Query::builder();
    let f = b.input("f", DataType::Float);
    let i = b.input("i", DataType::Int);
    let s = b.input("s", DataType::Str);
    let tp = b.input("tp", tuple_ty());
    let mut objs =
        vec![(f, DataType::Float), (i, DataType::Int), (s, DataType::Str), (tp, tuple_ty())];
    let out = g.stages(&mut b, &mut objs, false);
    let q = b.finish(out).expect("generated query is well-formed");
    let events = vec![
        stream(&mut g, &mut |g| Value::Float(g.small_float())),
        stream(&mut g, &mut |g| Value::Int(g.small_int())),
        stream(&mut g, &mut |g| Value::str(g.a_str())),
        stream(&mut g, &mut |g| {
            Value::tuple([Value::Float(g.small_float()), Value::Int(g.small_int())])
        }),
    ];
    (q, events)
}

fn run_tiers(q: &Query, events: &[Vec<Event<Value>>], optimized: bool) {
    let base = if optimized { Compiler::new() } else { Compiler::unoptimized() };
    let batched = base.compile(q).expect("compiles (batched tier)");
    let interp = base.with_tier(ExecTier::Interpreted).compile(q).expect("compiles (interpreter)");
    assert_eq!(batched.tier(), ExecTier::Batched);
    assert_eq!(interp.tier(), ExecTier::Interpreted);
    assert_eq!(interp.batched_kernels(), 0);

    let hi = events.iter().flat_map(|evs| evs.last()).map(|e| e.end).max().unwrap_or(Time::new(8));
    let range = TimeRange::new(Time::ZERO, (hi + 16).align_up(batched.grid()));
    let bufs: Vec<SnapshotBuf<Value>> =
        events.iter().map(|evs| SnapshotBuf::from_events(evs, range)).collect();
    let refs: Vec<&SnapshotBuf<Value>> = bufs.iter().collect();
    let a = batched.run(&refs, range);
    let c = interp.run(&refs, range);
    // Byte-identical: same span boundaries, same payload bits.
    assert_eq!(a, c, "batched vs interpreted diverged (optimized={optimized})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One-shot differential: random well-typed DAGs over Float/Int/Str/
    /// Tuple inputs (φ-heavy streams, fallback boundaries, custom reduces)
    /// are byte-identical across both tiers, fused and unfused.
    #[test]
    fn compiled_tier_matches_interpreter_oneshot(seed in any::<u64>()) {
        let (q, events) = full_case(seed);
        run_tiers(&q, &events, true);
        run_tiers(&q, &events, false);
    }
}

/// Builds a single-input numeric DAG (the shape the keyed service runs).
fn keyed_case(seed: u64) -> (Query, Vec<Vec<Event<Value>>>) {
    let mut g = Gen { rng: TestRng::new(seed) };
    let mut b = Query::builder();
    let f = b.input("x", DataType::Float);
    let mut objs = vec![(f, DataType::Float)];
    let out = g.stages(&mut b, &mut objs, true);
    let q = b.finish(out).expect("generated query is well-formed");
    let keys = 1 + g.pick(4);
    let streams =
        (0..keys).map(|_| stream(&mut g, &mut |g| Value::Float(g.small_float()))).collect();
    (q, streams)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Service differential: the same keyed workload through a sharded
    /// `StreamService` produces identical per-key output whether the query
    /// was compiled to the batched tier or pinned to the interpreter — at
    /// 1, 2, and 4 shards.
    #[test]
    fn compiled_tier_matches_interpreter_through_service(
        seed in any::<u64>(),
        shard_pick in 0usize..3,
    ) {
        let shards = [1, 2, 4][shard_pick];
        let (q, streams) = keyed_case(seed);
        let tiers = [
            Arc::new(Compiler::new().compile(&q).expect("compiles")),
            Arc::new(Compiler::interpreted().compile(&q).expect("compiles")),
        ];

        let mut arrivals: Vec<KeyedEvent> = streams
            .iter()
            .enumerate()
            .flat_map(|(k, evs)| {
                evs.iter().map(move |e| KeyedEvent::new(k as u64, 0, e.clone()))
            })
            .collect();
        arrivals.sort_by_key(|ke| (ke.event.end, ke.key));
        let hi = arrivals.iter().map(|ke| ke.event.end).max().unwrap_or(Time::new(4));
        let end = (hi + 32).align_up(tiers[0].grid());

        let config = RuntimeConfig {
            shards,
            allowed_lateness: 0,
            emit_interval: 4,
            ..RuntimeConfig::default()
        };
        let outs: Vec<_> = tiers
            .iter()
            .map(|cq| {
                let svc = Single::start(Arc::clone(cq), config);
                svc.ingest(arrivals.iter().cloned());
                svc.finish_at(end)
            })
            .collect();

        prop_assert_eq!(outs[0].stats.late_dropped, 0);
        let (a, b) = (&outs[0], &outs[1]);
        prop_assert_eq!(a.per_key.len(), b.per_key.len());
        for (key, got) in &a.per_key {
            let want = &b.per_key[key];
            prop_assert_eq!(
                got, want,
                "key {} diverged (batched vs interpreted) at {} shards", key, shards
            );
        }
    }
}

/// Deterministic word-edge coverage for the batched tier: a fused numeric
/// plan driven over dense runs of exactly 63/64/65/128/130 ticks (the
/// `NullMask` word size is 64, the batch cap 256), with φ gaps positioned
/// to straddle lane-word boundaries. Both tiers must agree byte-for-byte,
/// and the plan must actually take the batched path.
#[test]
fn batched_tier_word_boundary_runs() {
    for total_ticks in [63i64, 64, 65, 128, 130, 257] {
        for gap_at in [None, Some(62i64), Some(63), Some(64), Some(65), Some(127)] {
            let mut b = Query::builder();
            let x = b.input("x", DataType::Float);
            let sum =
                b.temporal("sum", TDom::unbounded(1), Expr::reduce_window(ReduceOp::Sum, x, 16));
            let out = b.temporal(
                "out",
                TDom::every_tick(),
                Expr::at(sum).mul(Expr::c(2.0)).add(Expr::at(x)),
            );
            let q = b.finish(out).expect("well-formed");

            // One long span, optionally interrupted by a φ gap whose edges
            // land on/next to a 64-lane word boundary.
            let mut events = Vec::new();
            match gap_at {
                None => {
                    events.push(Event::new(Time::ZERO, Time::new(total_ticks), Value::Float(1.5)))
                }
                Some(g) if g + 2 < total_ticks => {
                    events.push(Event::new(Time::ZERO, Time::new(g), Value::Float(1.5)));
                    events.push(Event::new(
                        Time::new(g + 2),
                        Time::new(total_ticks),
                        Value::Float(-0.25),
                    ));
                }
                Some(_) => continue,
            }

            let batched = Compiler::new().compile(&q).expect("compiles");
            assert_eq!(batched.batched_kernels(), batched.num_kernels());
            assert!(batched.fully_typed());
            let interp = Compiler::interpreted().compile(&q).expect("compiles");

            let range = TimeRange::new(Time::ZERO, Time::new(total_ticks));
            let bufs = [SnapshotBuf::from_events(&events, range)];
            let refs: Vec<&SnapshotBuf<Value>> = bufs.iter().collect();
            let a = batched.run(&refs, range);
            let c = interp.run(&refs, range);
            assert_eq!(
                a, c,
                "batched vs interpreted diverged (ticks={total_ticks}, gap={gap_at:?})"
            );
        }
    }
}

/// The input shapes of [`window_fold_run_edges`].
#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    /// A point event at every tick: spans are back to back, no φ.
    Dense,
    /// Point events separated by φ gaps of one to three ticks (the YSB
    /// shape: a filtered stream partitioned by key).
    Sparse,
    /// Dense, but every fifth payload has the other numeric class.
    WrongClass,
}

/// Builds `Where → windowed op` (or the bare window) over one input of
/// `ty`. The optimizer fuses the filter into the window as its map.
fn window_case(op: ReduceOp, ty: DataType, mapped: bool, width: i64, stride: i64) -> Query {
    let mut b = Query::builder();
    let x = b.input("x", ty.clone());
    let src = if mapped {
        let cut = match ty {
            DataType::Float => Expr::c(0.5),
            _ => Expr::c(0i64),
        };
        b.temporal(
            "kept",
            TDom::every_tick(),
            Expr::if_else(Expr::at(x).gt(cut), Expr::at(x), Expr::null()),
        )
    } else {
        x
    };
    let out = b.temporal("win", TDom::unbounded(stride), Expr::reduce_window(op, src, width));
    b.finish(out).expect("well-formed")
}

/// Point events over ticks `1..=n` per `shape`. Float payloads cycle
/// through magnitudes that make any reassociated sum round differently.
fn run_edge_events(ty: &DataType, shape: Shape, n: i64) -> Vec<Event<Value>> {
    const FLOATS: [f64; 7] = [1e16, 1.0, -1e16, 1.0, 0.25, -3.5, 0.0];
    const INTS: [i64; 7] = [1_000_003, 3, -2, 0, 5, 7, -4];
    let value = |i: usize, wrong: bool| match (ty, wrong) {
        (DataType::Float, false) | (DataType::Int, true) => Value::Float(FLOATS[i % 7]),
        _ => Value::Int(INTS[i % 7]),
    };
    let mut out = Vec::new();
    let (mut t, mut i) = (1i64, 0usize);
    while t <= n {
        out.push(Event::point(Time::new(t), value(i, shape == Shape::WrongClass && i % 5 == 4)));
        t += if shape == Shape::Sparse { 2 + (i % 3) as i64 } else { 1 };
        i += 1;
    }
    out
}

/// `v` as the batched tier unboxes a payload of an input declared `ty`:
/// `Int` on a `Float` input coerces ([`Value::as_f64`]), any other wrong
/// class reads as φ.
fn unboxed(ty: &DataType, v: &Value) -> Value {
    match ty {
        DataType::Float => v.as_f64().map_or(Value::Null, Value::Float),
        _ => v.as_i64().map_or(Value::Null, Value::Int),
    }
}

/// Deterministic run-edge coverage for column-at-a-time window folds: every
/// typed window op over `F` and `I`, with and without a fused filtering
/// map, where each slide enters runs of exactly 1/63/64/65/256/257 spans
/// (the lane word is 64, the run cap 256), tumbling and overlapping (whose
/// evictions stop inside a cached 64-span word), over dense, sparse (φ
/// gaps), and wrong-class input. Outputs must be byte-identical to the
/// interpreter and the fused map must run exactly once per non-φ span that
/// entered. Wrong-class payloads follow `Value`'s unboxing on the batched
/// tier and the interpreter's dynamic dispatch otherwise (see
/// `tilt_core::codegen::compiled`), so the interpreter reads the input
/// after that unboxing rule ([`unboxed`]).
#[test]
fn window_fold_run_edges() {
    let ops = [
        ReduceOp::Sum,
        ReduceOp::Count,
        ReduceOp::Mean,
        ReduceOp::StdDev,
        ReduceOp::Product,
        ReduceOp::Min,
        ReduceOp::Max,
    ];
    for run in [1i64, 63, 64, 65, 256, 257] {
        for stride in [run, (run + 2) / 3] {
            for shape in [Shape::Dense, Shape::Sparse, Shape::WrongClass] {
                for ty in [DataType::Float, DataType::Int] {
                    // Dense input enters `stride` spans per slide; sparse
                    // input needs twice the ticks for as many events.
                    let n = 3 * run + 40;
                    let events = run_edge_events(&ty, shape, n);
                    let end = Time::new(n + run).align_up(stride);
                    let range = TimeRange::new(Time::ZERO, end);
                    let buf = SnapshotBuf::from_events(&events, range);
                    let coerced: Vec<Event<Value>> = events
                        .iter()
                        .map(|e| Event::new(e.start, e.end, unboxed(&ty, &e.payload)))
                        .collect();
                    let ibuf = SnapshotBuf::from_events(&coerced, range);
                    let present =
                        ibuf.spans().iter().filter(|s| !matches!(s.value, Value::Null)).count();
                    for op in &ops {
                        for mapped in [false, true] {
                            let case = format!(
                                "{} {ty:?} mapped={mapped} width={run} stride={stride} {shape:?}",
                                op.name()
                            );
                            let q = window_case(op.clone(), ty.clone(), mapped, run, stride);
                            let batched = Compiler::new().compile(&q).expect("compiles");
                            assert_eq!(batched.batched_kernels(), batched.num_kernels(), "{case}");
                            let interp = Compiler::interpreted().compile(&q).expect("compiles");
                            let a = batched.run(&[&buf], range);
                            let c = interp.run(&[&ibuf], range);
                            assert_eq!(a, c, "batched vs interpreted diverged: {case}");
                            let want = if mapped { present as u64 } else { 0 };
                            assert_eq!(batched.map_runs(), want, "batched map runs: {case}");
                        }
                    }
                }
            }
        }
    }
}
