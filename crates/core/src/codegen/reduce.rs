//! Incremental window-reduction state (paper §6.1.2).
//!
//! Each [`ReduceSpec`] in a kernel gets a [`ReduceRunner`] that maintains the
//! reduction over a sliding window `(t+lo, t+hi]` as `t` advances
//! monotonically. A snapshot (span) of the source object is folded *once*
//! while it overlaps the window — eq. 3 of the paper reduces the values the
//! object assumes, one per snapshot.
//!
//! Strategy per operation:
//!
//! * Sum / Count / Mean / StdDev / Product — invertible accumulators with
//!   Subtract-on-Evict \[16\];
//! * Min / Max — monotonic deques with expiry-based eviction (O(1) amortized,
//!   no inverse needed);
//! * Custom with `deacc` — Subtract-on-Evict through the user's template;
//! * Custom without `deacc` — full window recomputation per evaluation.
//!
//! A slide enters spans a *run* at a time: the spans entering the window,
//! up to [`MAX_BATCH`] of them, are mapped together — unboxed into a typed
//! column, or run through the fused map over lane columns
//! ([`BatchCtx::map_run`]) — and the mapped lanes fold into the
//! accumulator one by one, in span order, so float sums round exactly as
//! a per-span fold would. Boxed runners (the interpreter, custom and
//! dynamically typed folds) take the same run loop with a per-element
//! boxed transform.
//!
//! Mapped windows fold the *mapped* value, and eviction must subtract the
//! same value that entered. The runner therefore keeps each in-window
//! span's fold outcome in a columnar cache ([`FoldCache`]): one "folded"
//! bit per span, packed in words, beside a typed value column (or, for
//! boxed runners, the folded values in order). Eviction retires whole
//! words — the count drops by a popcount, and only subtractive
//! accumulators visit the folded lanes — and never re-executes the fused
//! map: each element is mapped exactly once over its lifetime in the
//! window.

use std::collections::VecDeque;
use std::sync::Arc;

use tilt_data::{Payload, SnapshotBuf, Span, Time, Value};

use super::batch::{load_run, BatchCtx, MAX_BATCH};
use super::compiled::{Class, TypedCtx, TypedMap};
use super::program::{EvalCtx, MapFn, ReduceSpec};
use crate::ir::{CustomReduce, ReduceOp};

/// Mask words covering one run of at most [`MAX_BATCH`] spans.
const RUN_WORDS: usize = MAX_BATCH / 64;

/// Runs shorter than this fold lane by lane — unboxed or through the
/// scalar map bytecode — instead of as a column: a column pass has a fixed
/// cost that a handful of spans cannot repay (sliding windows over dense
/// input enter one span per slide).
const SHORT_RUN: usize = 8;

/// The accumulator of one reduction.
///
/// The dynamic variants fold boxed [`Value`]s; the `*F`/`*I` variants are
/// the batched tier's unboxed counterparts, selected when the window's
/// element class is statically `f64`/`i64` ([`ReduceRunner::with_elem_class`]).
/// Each typed variant replays the exact operation sequence of its dynamic
/// twin (including int-wrapping and promotion order), so results are
/// bit-identical.
#[derive(Clone, Debug)]
enum State {
    Sum { acc: Value },
    SumF { acc: f64 },
    SumI { acc: i64 },
    Product { acc: Value, zeros: i64 },
    ProductF { acc: f64, zeros: i64 },
    ProductI { acc: i64, zeros: i64 },
    Count,
    Mean { sum: Value },
    MeanF { sum: f64 },
    MeanI { sum: i64 },
    StdDev { sum: f64, sumsq: f64 },
    MinMax { deque: VecDeque<(Value, Time)>, is_max: bool },
    MinMaxF { deque: VecDeque<(f64, Time)>, is_max: bool },
    MinMaxI { deque: VecDeque<(i64, Time)>, is_max: bool },
    Custom { state: Value, spec: Arc<CustomReduce> },
}

impl State {
    fn with_class(op: &ReduceOp, class: Option<Class>) -> State {
        match (op, class) {
            (ReduceOp::Sum, Some(Class::F)) => State::SumF { acc: 0.0 },
            (ReduceOp::Sum, Some(Class::I)) => State::SumI { acc: 0 },
            (ReduceOp::Sum, _) => State::Sum { acc: Value::Int(0) },
            (ReduceOp::Product, Some(Class::F)) => State::ProductF { acc: 1.0, zeros: 0 },
            (ReduceOp::Product, Some(Class::I)) => State::ProductI { acc: 1, zeros: 0 },
            (ReduceOp::Product, _) => State::Product { acc: Value::Int(1), zeros: 0 },
            (ReduceOp::Count, _) => State::Count,
            (ReduceOp::Mean, Some(Class::F)) => State::MeanF { sum: 0.0 },
            (ReduceOp::Mean, Some(Class::I)) => State::MeanI { sum: 0 },
            (ReduceOp::Mean, _) => State::Mean { sum: Value::Int(0) },
            (ReduceOp::StdDev, _) => State::StdDev { sum: 0.0, sumsq: 0.0 },
            (ReduceOp::Min, Some(Class::F)) => {
                State::MinMaxF { deque: VecDeque::new(), is_max: false }
            }
            (ReduceOp::Max, Some(Class::F)) => {
                State::MinMaxF { deque: VecDeque::new(), is_max: true }
            }
            (ReduceOp::Min, Some(Class::I)) => {
                State::MinMaxI { deque: VecDeque::new(), is_max: false }
            }
            (ReduceOp::Max, Some(Class::I)) => {
                State::MinMaxI { deque: VecDeque::new(), is_max: true }
            }
            (ReduceOp::Min, _) => State::MinMax { deque: VecDeque::new(), is_max: false },
            (ReduceOp::Max, _) => State::MinMax { deque: VecDeque::new(), is_max: true },
            (ReduceOp::Custom(c), _) => State::Custom { state: c.init.clone(), spec: c.clone() },
        }
    }

    /// Whether eviction is supported incrementally (otherwise the runner
    /// recomputes the window from scratch at each evaluation).
    fn invertible(&self) -> bool {
        match self {
            State::Custom { spec, .. } => spec.deacc.is_some(),
            _ => true,
        }
    }

    /// Folds one snapshot value in. `expire` is the snapshot's end time,
    /// used by deque-based states for eviction.
    fn add(&mut self, v: &Value, expire: Time) {
        match self {
            State::Sum { acc } | State::Mean { sum: acc } => *acc = acc.add(v),
            // Typed accumulators replay the dynamic promotion exactly: the
            // first `Int(0) + Float(x)` already computed in f64.
            State::SumF { acc } | State::MeanF { sum: acc } => {
                if let Some(x) = v.as_f64() {
                    *acc += x;
                }
            }
            State::SumI { acc } | State::MeanI { sum: acc } => {
                if let Some(x) = v.as_i64() {
                    *acc = acc.wrapping_add(x);
                }
            }
            State::Product { acc, zeros } => {
                if v.as_f64() == Some(0.0) || v.as_i64() == Some(0) {
                    *zeros += 1;
                } else {
                    *acc = acc.mul(v);
                }
            }
            State::ProductF { acc, zeros } => {
                if let Some(x) = v.as_f64() {
                    if x == 0.0 {
                        *zeros += 1;
                    } else {
                        *acc *= x;
                    }
                }
            }
            State::ProductI { acc, zeros } => {
                if let Some(x) = v.as_i64() {
                    if x == 0 {
                        *zeros += 1;
                    } else {
                        *acc = acc.wrapping_mul(x);
                    }
                }
            }
            State::Count => {}
            State::StdDev { sum, sumsq } => {
                let x = v.as_f64().unwrap_or(0.0);
                *sum += x;
                *sumsq += x * x;
            }
            State::MinMax { deque, is_max } => {
                let keep = |cand: &Value, v: &Value, is_max: bool| {
                    // Pop candidates dominated by the new value.
                    let cmp = if is_max { cand.le(v) } else { cand.ge(v) };
                    matches!(cmp, Value::Bool(true))
                };
                while let Some((cand, _)) = deque.back() {
                    if keep(cand, v, *is_max) {
                        deque.pop_back();
                    } else {
                        break;
                    }
                }
                deque.push_back((v.clone(), expire));
            }
            State::MinMaxF { deque, is_max } => {
                if let Some(x) = v.as_f64() {
                    push_dominant(deque, x, expire, *is_max);
                }
            }
            State::MinMaxI { deque, is_max } => {
                if let Some(x) = v.as_i64() {
                    push_dominant(deque, x, expire, *is_max);
                }
            }
            State::Custom { state, spec } => *state = (spec.acc)(state, v, 1),
        }
    }

    /// Folds one typed lane: `x` is `f64` bits or an `i64` per the
    /// element class `class`, expiring at `expire`. Each arm replays its
    /// boxed twin in [`State::add`] exactly (including int-wrapping and
    /// the `f64` coercion of `StdDev`), so results are bit-identical.
    #[inline]
    fn add_lane(&mut self, class: Class, x: u64, expire: Time) {
        let (f, i) = (f64::from_bits(x), x as i64);
        match self {
            State::Count => {}
            State::SumF { acc } | State::MeanF { sum: acc } => *acc += f,
            State::SumI { acc } | State::MeanI { sum: acc } => *acc = acc.wrapping_add(i),
            State::ProductF { acc, zeros } => {
                if f == 0.0 {
                    *zeros += 1;
                } else {
                    *acc *= f;
                }
            }
            State::ProductI { acc, zeros } => {
                if i == 0 {
                    *zeros += 1;
                } else {
                    *acc = acc.wrapping_mul(i);
                }
            }
            State::StdDev { sum, sumsq } => {
                let x = if class == Class::F { f } else { i as f64 };
                *sum += x;
                *sumsq += x * x;
            }
            State::MinMaxF { deque, is_max } => push_dominant(deque, f, expire, *is_max),
            State::MinMaxI { deque, is_max } => push_dominant(deque, i, expire, *is_max),
            _ => unreachable!("boxed accumulator on the typed lane path"),
        }
    }

    /// Removes one snapshot value (Subtract-on-Evict path).
    fn remove(&mut self, v: &Value) {
        match self {
            State::Sum { acc } | State::Mean { sum: acc } => *acc = acc.sub(v),
            State::SumF { acc } | State::MeanF { sum: acc } => {
                if let Some(x) = v.as_f64() {
                    *acc -= x;
                }
            }
            State::SumI { acc } | State::MeanI { sum: acc } => {
                if let Some(x) = v.as_i64() {
                    *acc = acc.wrapping_sub(x);
                }
            }
            State::Product { acc, zeros } => {
                if v.as_f64() == Some(0.0) || v.as_i64() == Some(0) {
                    *zeros -= 1;
                } else {
                    *acc = acc.div(v);
                }
            }
            State::ProductF { acc, zeros } => {
                if let Some(x) = v.as_f64() {
                    if x == 0.0 {
                        *zeros -= 1;
                    } else {
                        *acc /= x;
                    }
                }
            }
            State::ProductI { acc, zeros } => {
                if let Some(x) = v.as_i64() {
                    if x == 0 {
                        *zeros -= 1;
                    } else {
                        *acc /= x;
                    }
                }
            }
            State::Count => {}
            State::StdDev { sum, sumsq } => {
                let x = v.as_f64().unwrap_or(0.0);
                *sum -= x;
                *sumsq -= x * x;
            }
            State::MinMax { .. } | State::MinMaxF { .. } | State::MinMaxI { .. } => {
                unreachable!("deque states evict by expiry")
            }
            State::Custom { state, spec } => {
                let deacc = spec.deacc.as_ref().expect("checked by invertible()");
                *state = (deacc)(state, v, 1);
            }
        }
    }

    /// Removes one typed lane — the inverse of [`State::add_lane`] for
    /// the accumulators that [`State::subtracts`].
    #[inline]
    fn remove_lane(&mut self, class: Class, x: u64) {
        let (f, i) = (f64::from_bits(x), x as i64);
        match self {
            State::SumF { acc } | State::MeanF { sum: acc } => *acc -= f,
            State::SumI { acc } | State::MeanI { sum: acc } => *acc = acc.wrapping_sub(i),
            State::ProductF { acc, zeros } => {
                if f == 0.0 {
                    *zeros -= 1;
                } else {
                    *acc /= f;
                }
            }
            State::ProductI { acc, zeros } => {
                if i == 0 {
                    *zeros -= 1;
                } else {
                    *acc /= i;
                }
            }
            State::StdDev { sum, sumsq } => {
                let x = if class == Class::F { f } else { i as f64 };
                *sum -= x;
                *sumsq -= x * x;
            }
            _ => unreachable!("no typed inverse for this accumulator"),
        }
    }

    /// Whether eviction must visit each retired lane: `Count` only drops
    /// the count, and deques evict by expiry.
    fn subtracts(&self) -> bool {
        !matches!(self, State::Count) && !self.is_deque()
    }

    /// Whether this accumulator evicts by expiry (monotonic deques) rather
    /// than subtraction.
    fn is_deque(&self) -> bool {
        matches!(self, State::MinMax { .. } | State::MinMaxF { .. } | State::MinMaxI { .. })
    }

    /// Expiry-based eviction for deque states: drops entries whose snapshot
    /// no longer overlaps a window starting (exclusively) at `new_lo`.
    fn evict_expired(&mut self, new_lo: Time) {
        fn drop_expired<T>(deque: &mut VecDeque<(T, Time)>, new_lo: Time) {
            while let Some((_, expire)) = deque.front() {
                if *expire <= new_lo {
                    deque.pop_front();
                } else {
                    break;
                }
            }
        }
        match self {
            State::MinMax { deque, .. } => drop_expired(deque, new_lo),
            State::MinMaxF { deque, .. } => drop_expired(deque, new_lo),
            State::MinMaxI { deque, .. } => drop_expired(deque, new_lo),
            _ => {}
        }
    }

    /// The reduction result given the number of folded snapshots.
    fn result(&self, count: i64) -> Value {
        if count == 0 {
            return Value::Null;
        }
        match self {
            State::Sum { acc } => acc.clone(),
            State::SumF { acc } => Value::Float(*acc),
            State::SumI { acc } => Value::Int(*acc),
            State::Product { acc, zeros } => {
                if *zeros > 0 {
                    Value::Int(0).mul(acc).add(&Value::Int(0)) // zero of acc's type
                } else {
                    acc.clone()
                }
            }
            State::ProductF { acc, zeros } => {
                if *zeros > 0 {
                    // The dynamic zero-of-type dance, replayed in f64.
                    Value::Float(0.0 * *acc + 0.0)
                } else {
                    Value::Float(*acc)
                }
            }
            State::ProductI { acc, zeros } => {
                if *zeros > 0 {
                    Value::Int(0)
                } else {
                    Value::Int(*acc)
                }
            }
            State::Count => Value::Int(count),
            State::Mean { sum } => sum.to_float().div(&Value::Int(count)),
            State::MeanF { sum } => Value::Float(sum / count as f64),
            State::MeanI { sum } => Value::Float(*sum as f64 / count as f64),
            State::StdDev { sum, sumsq } => {
                let n = count as f64;
                let mean = sum / n;
                let var = (sumsq / n - mean * mean).max(0.0);
                Value::Float(var.sqrt())
            }
            State::MinMax { deque, .. } => {
                deque.front().map(|(v, _)| v.clone()).unwrap_or(Value::Null)
            }
            State::MinMaxF { deque, .. } => {
                deque.front().map(|(v, _)| Value::Float(*v)).unwrap_or(Value::Null)
            }
            State::MinMaxI { deque, .. } => {
                deque.front().map(|(v, _)| Value::Int(*v)).unwrap_or(Value::Null)
            }
            State::Custom { state, spec } => (spec.result)(state, count),
        }
    }

    /// Unboxed `f64` result (`None` = φ) for states whose
    /// [`typed_result_class`] is `Some(Class::F)`. Replays the arithmetic
    /// of [`State::result`] exactly so `Some(x)` boxes to the same bits.
    #[inline]
    fn result_f(&self, count: i64) -> Option<f64> {
        if count == 0 {
            return None;
        }
        match self {
            State::SumF { acc } => Some(*acc),
            State::ProductF { acc, zeros } => {
                if *zeros > 0 {
                    // The dynamic zero-of-type dance, replayed in f64.
                    Some(0.0 * *acc + 0.0)
                } else {
                    Some(*acc)
                }
            }
            State::MeanF { sum } => Some(sum / count as f64),
            State::MeanI { sum } => Some(*sum as f64 / count as f64),
            State::StdDev { sum, sumsq } => {
                let n = count as f64;
                let mean = sum / n;
                let var = (sumsq / n - mean * mean).max(0.0);
                Some(var.sqrt())
            }
            State::MinMaxF { deque, .. } => deque.front().map(|(v, _)| *v),
            _ => unreachable!("result_f on a non-f64-result accumulator"),
        }
    }

    /// Unboxed `i64` result (`None` = φ) for states whose
    /// [`typed_result_class`] is `Some(Class::I)`.
    #[inline]
    fn result_i(&self, count: i64) -> Option<i64> {
        if count == 0 {
            return None;
        }
        match self {
            State::SumI { acc } => Some(*acc),
            State::ProductI { acc, zeros } => {
                if *zeros > 0 {
                    Some(0)
                } else {
                    Some(*acc)
                }
            }
            State::Count => Some(count),
            State::MinMaxI { deque, .. } => deque.front().map(|(v, _)| *v),
            _ => unreachable!("result_i on a non-i64-result accumulator"),
        }
    }

    fn reset(&mut self, op: &ReduceOp, class: Option<Class>) {
        *self = State::with_class(op, class);
    }
}

/// The unboxed class a typed runner folds elements as, or `None` when the
/// fold must stay dynamic (boxed `Value`). This is the static twin of the
/// accumulator variant [`State::with_class`] picks: `Some` exactly when
/// that variant has an [`State::add_lane`] arm for the element class.
pub(crate) fn typed_fold_class(op: &ReduceOp, class: Option<Class>) -> Option<Class> {
    match (op, class) {
        (ReduceOp::Custom(_), _) => None,
        (_, Some(Class::F)) => Some(Class::F),
        (_, Some(Class::I)) => Some(Class::I),
        _ => None,
    }
}

/// The unboxed class a typed runner's *result* reads back as, or `None`
/// when the result must stay boxed. Mirrors [`State::result`]'s output
/// type per operation.
pub(crate) fn typed_result_class(op: &ReduceOp, class: Option<Class>) -> Option<Class> {
    match (op, typed_fold_class(op, class)?) {
        (ReduceOp::Count, _) => Some(Class::I),
        (ReduceOp::Mean | ReduceOp::StdDev, _) => Some(Class::F),
        (ReduceOp::Sum | ReduceOp::Product | ReduceOp::Min | ReduceOp::Max, c) => Some(c),
        (ReduceOp::Custom(_), _) => None,
    }
}

/// How one reduce slot of a typed kernel folds: the unboxed element and
/// result classes ([`typed_fold_class`], [`typed_result_class`]), and
/// whether its fused map passed the lane gate (see `super::batch`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct FoldMode {
    pub(crate) fold: Class,
    pub(crate) res: Class,
    /// The fused map runs over lane columns on the batched tier.
    pub(crate) lanes: bool,
}

/// Pushes `x` onto a monotonic Min/Max deque, first popping the candidates
/// it dominates.
fn push_dominant<T: PartialOrd>(deque: &mut VecDeque<(T, Time)>, x: T, expire: Time, is_max: bool) {
    while let Some((cand, _)) = deque.back() {
        if if is_max { *cand <= x } else { *cand >= x } {
            deque.pop_back();
        } else {
            break;
        }
    }
    deque.push_back((x, expire));
}

/// The words of `words` that hold bits `lo..hi`, each masked to that
/// range, with their indices.
#[inline]
fn masked_words(words: &[u64], lo: usize, hi: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
    let span = if lo < hi { lo / 64..(hi - 1) / 64 + 1 } else { 0..0 };
    let first = span.start;
    words[span].iter().enumerate().map(move |(q, &m)| {
        let w = first + q;
        let mut m = m;
        if w == lo / 64 {
            m &= !0u64 << (lo % 64);
        }
        if w == (hi - 1) / 64 {
            m &= !0u64 >> (63 - (hi - 1) % 64);
        }
        (w, m)
    })
}

/// Calls `f(l)` for every set bit `l` in `lo..hi` of `words`, ascending.
#[inline]
fn each_set(words: &[u64], lo: usize, hi: usize, mut f: impl FnMut(usize)) {
    for (w, mut m) in masked_words(words, lo, hi) {
        while m != 0 {
            f(w * 64 + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

/// The number of set bits in `lo..hi` of `words`.
fn count_set(words: &[u64], lo: usize, hi: usize) -> i64 {
    masked_words(words, lo, hi).map(|(_, m)| i64::from(m.count_ones())).sum()
}

/// The length of the prefix of `spans` that ends at or before `lo` (span
/// ends increase strictly). Most slides retire a span or two, so those
/// are scanned; longer prefixes gallop, then binary-search.
#[inline]
fn expired_prefix(spans: &[Span<Value>], lo: Time) -> usize {
    const SCAN: usize = 4;
    let mut n = 0;
    while n < spans.len() && spans[n].t_end <= lo {
        n += 1;
        if n == SCAN {
            let mut hi = 2 * SCAN;
            while hi <= spans.len() && spans[hi - 1].t_end <= lo {
                n = hi;
                hi *= 2;
            }
            return n + spans[n..hi.min(spans.len())].partition_point(|s| s.t_end <= lo);
        }
    }
    n
}

/// The fold outcomes of a runner's in-window spans `[evict_idx,
/// enter_idx)`, by column: span `i` sits at lane `i - base`.
#[derive(Debug, Default)]
struct FoldCache {
    /// The span at lane 0; advances a whole word (64 lanes) at a time.
    base: usize,
    /// Lane `l` is bit `l % 64` of word `l / 64`: set iff the span folded.
    folded: Vec<u64>,
    /// Typed runners: each lane's folded value (`f64` bits or `i64`);
    /// lanes that did not fold hold garbage.
    vals: Vec<u64>,
    /// Boxed runners: the folded values, oldest first (one per set bit).
    boxed: VecDeque<Value>,
}

impl FoldCache {
    /// Appends lane `l`, the next one: its fold bit and, for typed
    /// runners, its value.
    #[inline]
    fn push(&mut self, l: usize, folded: bool, val: u64, typed: bool) {
        if l.is_multiple_of(64) {
            self.folded.push(0);
            if typed {
                // Grow a word's worth at a time, not by doubling from one.
                self.vals.reserve(64);
            }
        }
        self.folded[l / 64] |= u64::from(folded) << (l % 64);
        if typed {
            self.vals.push(val);
        }
    }

    /// Appends the fold bits of a run at lanes `pos..pos + k` (the run's
    /// values are already in place).
    fn push_bits(&mut self, pos: usize, bits: &[u64; RUN_WORDS], k: usize) {
        self.folded.resize((pos + k).div_ceil(64), 0);
        let (w0, off) = (pos / 64, pos % 64);
        for (q, &b) in bits[..k.div_ceil(64)].iter().enumerate() {
            self.folded[w0 + q] |= b << off;
            if off != 0 && b >> (64 - off) != 0 {
                self.folded[w0 + q + 1] |= b >> (64 - off);
            }
        }
    }

    /// Drops the words wholly before span `live` (the oldest in-window
    /// span) once they make up half the storage, so compaction costs O(1)
    /// amortized per span; an empty window (`live == end`) resets.
    #[inline]
    fn retire(&mut self, live: usize, end: usize) {
        if live == end {
            self.folded.clear();
            self.vals.clear();
            self.base = end;
            return;
        }
        let words = (live - self.base) / 64;
        if words == 0 || words * 2 < self.folded.len() {
            return;
        }
        self.folded.drain(..words);
        self.vals.drain(..(words * 64).min(self.vals.len()));
        self.base += words * 64;
    }
}

/// The element transform of one slide, in the representation the
/// accumulator folds.
pub(crate) enum FoldKind<'m> {
    /// Boxed: each non-φ element through a per-element transform; a φ
    /// output drops the element.
    Dyn(&'m mut dyn FnMut(&Value) -> Value),
    /// Unboxed: the runner's element class, a run of spans at a time.
    Typed(TypedFold<'m>),
}

/// Where a typed slide's fold values come from: the source payloads
/// unboxed directly, or the fused typed map.
pub(crate) struct TypedFold<'m> {
    /// The fused map and the scalar register file it runs in (its clock,
    /// `TypedCtx::t`, is the slide's grid tick; its `map_runs` counts
    /// executions).
    pub(crate) map: Option<(&'m TypedMap, &'m mut TypedCtx)>,
    /// Lane columns, when the map passed the lane gate (batched tier).
    pub(crate) lanes: Option<&'m mut BatchCtx>,
}

impl TypedFold<'_> {
    /// One span's fold value (`f64` bits or `i64`, per `class`), or `None`
    /// when it does not fold. Spans that read as φ never run the map.
    #[inline]
    fn lane(&mut self, class: Class, v: &Value) -> Option<u64> {
        match &mut self.map {
            None => unbox(class, v),
            Some((map, ctx)) => match class {
                Class::F => map.run_f64(ctx, v).map(f64::to_bits),
                Class::I => map.run_i64(ctx, v).map(|x| x as u64),
                _ => unreachable!("typed fold classes are F and I"),
            },
        }
    }

    /// Maps a whole run of entering spans: sets bit `j` of `folded` iff
    /// span `j` folds, with its value in `vals[j]` as [`TypedFold::lane`]
    /// would give it.
    fn map_run(
        &mut self,
        class: Class,
        run: &[Span<Value>],
        folded: &mut [u64; RUN_WORDS],
        vals: &mut [u64],
    ) {
        if self.map.is_none() {
            load_run(run, vals, &mut [0u64; RUN_WORDS], folded, |v| unbox(class, v));
        } else if let (Some((map, ctx)), Some(bc)) = (&mut self.map, &mut self.lanes) {
            ctx.map_runs += bc.map_run(map, ctx.t, run, folded, vals);
        } else {
            // The lane gate rejected the map: its scalar bytecode runs per
            // lane, inside the same run loop.
            for (j, (s, v)) in run.iter().zip(vals.iter_mut()).enumerate() {
                if let Some(x) = self.lane(class, &s.value) {
                    *v = x;
                    folded[j / 64] |= 1 << (j % 64);
                }
            }
        }
    }
}

/// Unboxes a payload as a fold lane of `class` (`f64` bits, with int →
/// float coercion, or an `i64`); `None` for φ and other classes.
#[inline]
fn unbox(class: Class, v: &Value) -> Option<u64> {
    match class {
        Class::F => v.as_f64().map(f64::to_bits),
        Class::I => v.as_i64().map(|x| x as u64),
        _ => unreachable!("typed fold classes are F and I"),
    }
}

/// Incremental evaluation of one window reduction over one source buffer.
///
/// The runner tracks which source spans currently overlap the window
/// `(t+lo, t+hi]`: a span `(s, e]` overlaps iff `s < t+hi && e > t+lo`.
/// `advance_to` must be called with non-decreasing `t`.
pub struct ReduceRunner<'a> {
    spec: &'a ReduceSpec,
    src: &'a SnapshotBuf<Value>,
    state: State,
    /// The statically known element class, when the typed kernel tier
    /// picked an unboxed accumulator.
    class: Option<Class>,
    /// The class a typed kernel reads source payloads as (`None` on the
    /// interpreter, which reads every payload but φ): a payload that does
    /// not read as it ([`Class::reads`]) is φ, so its span neither runs
    /// the fused map nor folds nor counts as entering content.
    reads: Option<Class>,
    /// Number of snapshots currently folded in (non-φ, post-map non-φ).
    count: i64,
    /// Index of the next span to *enter* (first span with `start ≥ cur_hi`).
    enter_idx: usize,
    /// Index of the next span to *evict* (first span with `end > cur_lo`).
    evict_idx: usize,
    /// Fold outcomes of the spans in `[evict_idx, enter_idx)`, recorded
    /// once per span at entry — the fused map runs exactly once per
    /// element.
    cache: FoldCache,
    /// Whether slides fold boxed values (the cache then holds them in
    /// `cache.boxed`, typed slides in `cache.vals`).
    boxed: bool,
    /// Current window end edge.
    cur_hi: Time,
    initialized: bool,
}

impl<'a> ReduceRunner<'a> {
    /// Creates a runner for `spec` over `src` with dynamic accumulators.
    pub fn new(spec: &'a ReduceSpec, src: &'a SnapshotBuf<Value>) -> Self {
        Self::with_elem_class(spec, src, None, None)
    }

    /// Creates a runner whose accumulator is monomorphized to the window's
    /// element class when that class is unboxed (`F`/`I`) — the typed
    /// tier's reduce fast path — and whose source payloads read as
    /// `reads`. Typed accumulators replay the dynamic operation sequence
    /// exactly, so either constructor produces bit-identical results on
    /// well-typed data.
    pub(crate) fn with_elem_class(
        spec: &'a ReduceSpec,
        src: &'a SnapshotBuf<Value>,
        class: Option<Class>,
        reads: Option<Class>,
    ) -> Self {
        ReduceRunner {
            spec,
            src,
            state: State::with_class(&spec.op, class),
            class,
            reads,
            count: 0,
            enter_idx: 0,
            evict_idx: 0,
            cache: FoldCache::default(),
            boxed: true,
            cur_hi: Time::MIN,
            initialized: false,
        }
    }

    /// The unboxed class this runner's typed slide folds elements as
    /// ([`ReduceRunner::slide_typed`]), or `None` when only the dynamic
    /// path applies.
    #[cfg(test)]
    pub(crate) fn fold_class(&self) -> Option<Class> {
        typed_fold_class(&self.spec.op, self.class)
    }

    /// Whether any snapshot is currently folded in.
    #[inline]
    pub fn has_content(&self) -> bool {
        self.count > 0
    }

    /// The time `t` at which the *next* non-φ source span would enter the
    /// window, or `None` when no further one exists. Used by the kernel to
    /// skip over φ gaps.
    pub fn next_enter_time(&self) -> Option<Time> {
        let spans = self.src.spans();
        let mut i = self.enter_idx;
        while i < spans.len() {
            let start = self.src.span_start(i);
            if start >= self.cur_hi {
                // First span not yet entered; skip φ spans (they never
                // produce content).
                let v = &spans[i].value;
                if self.reads.map_or(!v.is_null(), |c| c.reads(v)) {
                    return Some(Time::new(start.ticks() - self.spec.hi + 1));
                }
                i += 1;
            } else {
                i += 1;
            }
        }
        None
    }

    /// The time `t` at which the oldest in-window *non-φ* span will be
    /// evicted, or `None` if no folded span remains (φ evictions cannot
    /// change the result and are skipped).
    pub fn next_evict_time(&self) -> Option<Time> {
        let spans = self.src.spans();
        let mut i = self.evict_idx;
        while i < self.enter_idx.min(spans.len()) {
            if !spans[i].value.is_null() {
                return Some(Time::new(spans[i].t_end.ticks() - self.spec.lo));
            }
            i += 1;
        }
        None
    }

    /// Slides the window to `(t+lo, t+hi]` and returns the reduction
    /// result, applying the spec's interpreted [`MapFn`] (if any) through
    /// `ctx`.
    pub fn eval_at(&mut self, t: Time, ctx: &mut EvalCtx) -> Value {
        // Copy the `&'a` spec reference out of `self` so the map closure
        // can borrow `ctx` while `eval_at_with` holds `&mut self`.
        let spec = self.spec;
        match &spec.map {
            None => self.eval_at_with(t, &mut |v| v.clone()),
            Some(MapFn { var_slot, eval }) => {
                let slot = *var_slot;
                self.eval_at_with(t, &mut |v| {
                    ctx.vars[slot] = v.clone();
                    eval(ctx)
                })
            }
        }
    }

    /// Slides the window to `(t+lo, t+hi]` and returns the reduction
    /// result, with the fused element transform supplied as a closure —
    /// identity for unmapped windows, the interpreted [`MapFn`] via
    /// [`ReduceRunner::eval_at`], or a map that drops every element. A φ
    /// result from `map` drops the element, exactly like a φ source span.
    pub fn eval_at_with(&mut self, t: Time, map: &mut dyn FnMut(&Value) -> Value) -> Value {
        self.slide(t, &mut FoldKind::Dyn(map));
        self.state.result(self.count)
    }

    /// Typed slide: entering spans fold unboxed, a run at a time, through
    /// `fold` — the batched tier's path when
    /// [`typed_fold_class`] applies. Read the result afterwards with
    /// [`ReduceRunner::result_f`] or [`ReduceRunner::result_i`] per the
    /// operation's result class.
    pub(crate) fn slide_typed(&mut self, t: Time, fold: TypedFold<'_>) {
        self.slide(t, &mut FoldKind::Typed(fold));
    }

    /// The unboxed `f64` result after a typed slide (`None` = φ).
    #[inline]
    pub(crate) fn result_f(&self) -> Option<f64> {
        self.state.result_f(self.count)
    }

    /// The unboxed `i64` result after a typed slide (`None` = φ).
    #[inline]
    pub(crate) fn result_i(&self) -> Option<i64> {
        self.state.result_i(self.count)
    }

    fn slide(&mut self, t: Time, fold: &mut FoldKind) {
        let new_lo = t + self.spec.lo;
        let new_hi = t + self.spec.hi;
        if !self.initialized {
            self.initialized = true;
            // Position the indices at the first span that could overlap.
            let spans = self.src.spans();
            self.evict_idx = spans.partition_point(|s| s.t_end <= new_lo);
            self.enter_idx = self.evict_idx;
            self.cache.base = self.evict_idx;
            self.cur_hi = new_lo;
        }
        debug_assert!(new_hi >= self.cur_hi, "reduce window must advance monotonically");
        let boxed = matches!(fold, FoldKind::Dyn(_));
        debug_assert!(
            boxed == self.boxed || self.enter_idx == self.evict_idx,
            "a runner's fold representation must not change mid-window"
        );
        self.boxed = boxed;

        if self.state.invertible() {
            self.enter_until(new_hi, fold);
            self.evict_until(new_lo);
        } else {
            // Recompute the window from scratch (map re-execution is
            // inherent to recomputation). Only custom reductions without
            // an inverse land here, and those always fold boxed.
            let FoldKind::Dyn(map) = fold else {
                unreachable!("non-invertible reductions fold boxed")
            };
            self.state.reset(&self.spec.op, self.class);
            self.count = 0;
            let spans = self.src.spans();
            let first = spans.partition_point(|s| s.t_end <= new_lo);
            let mut i = first;
            while i < spans.len() && self.src.span_start(i) < new_hi {
                if !spans[i].value.is_null() {
                    let mv = map(&spans[i].value);
                    if !mv.is_null() {
                        self.state.add(&mv, spans[i].t_end);
                        self.count += 1;
                    }
                }
                i += 1;
            }
            // Keep indices roughly in sync for next_enter/evict queries.
            self.evict_idx = first;
            self.enter_idx = i;
        }
        self.cur_hi = new_hi;
    }

    /// Enters every span that starts before `new_hi`, a run of at most
    /// [`MAX_BATCH`] spans at a time: the run is mapped as a whole, then
    /// its folded lanes join the accumulator one by one in span order.
    fn enter_until(&mut self, new_hi: Time, fold: &mut FoldKind) {
        let spans = self.src.spans();
        while self.enter_idx < spans.len() && self.src.span_start(self.enter_idx) < new_hi {
            let first = self.enter_idx;
            let cap = (spans.len() - first).min(MAX_BATCH);
            let mut k = 1;
            while k < cap && spans[first + k - 1].t_end < new_hi {
                k += 1;
            }
            let run = &spans[first..first + k];
            let pos = first - self.cache.base;
            let mut n = 0;
            match fold {
                FoldKind::Dyn(map) => {
                    for (j, s) in run.iter().enumerate() {
                        let mv = if s.value.is_null() { Value::Null } else { map(&s.value) };
                        let folds = !mv.is_null();
                        if folds {
                            self.state.add(&mv, s.t_end);
                            self.cache.boxed.push_back(mv);
                            n += 1;
                        }
                        self.cache.push(pos + j, folds, 0, false);
                    }
                }
                // Short runs fold lane by lane: a column pass costs more
                // than it saves on a handful of spans.
                FoldKind::Typed(tf) if k < SHORT_RUN => {
                    let class = self.class.expect("typed slides have an element class");
                    for (j, s) in run.iter().enumerate() {
                        let x = tf.lane(class, &s.value);
                        if let Some(x) = x {
                            self.state.add_lane(class, x, s.t_end);
                            n += 1;
                        }
                        self.cache.push(pos + j, x.is_some(), x.unwrap_or(0), true);
                    }
                }
                FoldKind::Typed(tf) => {
                    let class = self.class.expect("typed slides have an element class");
                    let mut folded = [0u64; RUN_WORDS];
                    self.cache.vals.resize(pos + k, 0);
                    let vals = &mut self.cache.vals[pos..];
                    tf.map_run(class, run, &mut folded, vals);
                    if !matches!(self.state, State::Count) {
                        let state = &mut self.state;
                        each_set(&folded, 0, k, |j| state.add_lane(class, vals[j], run[j].t_end));
                    }
                    self.cache.push_bits(pos, &folded, k);
                    n = count_set(&folded, 0, k);
                }
            }
            self.count += n;
            self.enter_idx += k;
        }
    }

    /// Retires every span that ends at or before `new_lo`. Eviction never
    /// consults the map: the count drops by the popcount of the retired
    /// fold bits, and subtractive accumulators remove the cached values of
    /// the folded lanes, oldest first.
    fn evict_until(&mut self, new_lo: Time) {
        if self.state.is_deque() {
            self.state.evict_expired(new_lo);
        }
        let end = self.evict_idx + expired_prefix(&self.src.spans()[self.evict_idx..], new_lo);
        // Only spans that actually entered have cache lanes; spans the
        // initial partition_point skipped never did.
        let base = self.cache.base;
        let (lo, hi) = (self.evict_idx - base, end.min(self.enter_idx).max(self.evict_idx) - base);
        if lo < hi {
            let (boxed, class) = (self.boxed, self.class);
            let state = &mut self.state;
            let subtract = if boxed { !state.is_deque() } else { state.subtracts() };
            let (folded, vals, cached) =
                (&self.cache.folded, &self.cache.vals, &mut self.cache.boxed);
            let mut n = 0;
            let mut retire = |l: usize| {
                n += 1;
                if boxed {
                    let v = cached.pop_front().expect("one cached value per folded span");
                    if subtract {
                        state.remove(&v);
                    }
                } else if subtract {
                    state.remove_lane(class.expect("typed slides have an element class"), vals[l]);
                }
            };
            if !boxed && !subtract {
                n = count_set(folded, lo, hi);
            } else if hi - lo < SHORT_RUN {
                // Sliding windows retire a span or two per slide.
                for l in lo..hi {
                    if folded[l / 64] >> (l % 64) & 1 != 0 {
                        retire(l);
                    }
                }
            } else {
                each_set(folded, lo, hi, retire);
            }
            self.count -= n;
        }
        self.evict_idx = end;
        self.cache.retire(end.min(self.enter_idx), self.enter_idx);
    }
}

impl std::fmt::Debug for ReduceRunner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReduceRunner")
            .field("op", &self.spec.op.name())
            .field("window", &(self.spec.lo, self.spec.hi))
            .field("count", &self.count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::DataType;
    use tilt_data::{Event, TimeRange};

    fn buf(points: &[(i64, f64)]) -> SnapshotBuf<Value> {
        let events: Vec<Event<Value>> =
            points.iter().map(|&(t, v)| Event::point(Time::new(t), Value::Float(v))).collect();
        let hi = points.iter().map(|p| p.0).max().unwrap_or(0);
        SnapshotBuf::from_events(&events, TimeRange::new(Time::new(0), Time::new(hi)))
    }

    fn spec(op: ReduceOp, size: i64) -> ReduceSpec {
        ReduceSpec { op, obj: crate::ir::TObjId(0), lo: -size, hi: 0, map: None }
    }

    /// A typed slide with no fused map: source payloads unbox directly.
    fn unmapped() -> TypedFold<'static> {
        TypedFold { map: None, lanes: None }
    }

    fn eval_series(spec: &ReduceSpec, src: &SnapshotBuf<Value>, ts: &[i64]) -> Vec<Value> {
        let mut runner = ReduceRunner::new(spec, src);
        let mut ctx = EvalCtx::default();
        ts.iter().map(|&t| runner.eval_at(Time::new(t), &mut ctx)).collect()
    }

    #[test]
    fn sliding_sum_subtract_on_evict() {
        let src = buf(&[(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0), (5, 5.0)]);
        let s = spec(ReduceOp::Sum, 3);
        let out = eval_series(&s, &src, &[1, 2, 3, 4, 5, 8, 9]);
        let expect = [1.0, 3.0, 6.0, 9.0, 12.0];
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(out[i], Value::Float(*e), "t index {i}");
        }
        assert_eq!(out[5], Value::Null); // window (5,8] is empty
        assert_eq!(out[6], Value::Null); // window (6,9] is empty
    }

    #[test]
    fn mean_and_count() {
        let src = buf(&[(1, 2.0), (2, 4.0), (3, 6.0)]);
        let m = spec(ReduceOp::Mean, 2);
        assert_eq!(eval_series(&m, &src, &[2]), vec![Value::Float(3.0)]);
        let c = spec(ReduceOp::Count, 2);
        assert_eq!(eval_series(&c, &src, &[2, 3]), vec![Value::Int(2), Value::Int(2)]);
    }

    #[test]
    fn max_deque_evicts_correctly() {
        let src = buf(&[(1, 5.0), (2, 3.0), (3, 4.0), (4, 1.0), (5, 2.0)]);
        let s = spec(ReduceOp::Max, 2);
        let out = eval_series(&s, &src, &[1, 2, 3, 4, 5]);
        let expect = [5.0, 5.0, 4.0, 4.0, 2.0];
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(out[i], Value::Float(*e), "t={}", i + 1);
        }
    }

    #[test]
    fn min_deque() {
        let src = buf(&[(1, 5.0), (2, 3.0), (3, 4.0), (4, 6.0)]);
        let s = spec(ReduceOp::Min, 2);
        let out = eval_series(&s, &src, &[2, 3, 4]);
        assert_eq!(out, vec![Value::Float(3.0), Value::Float(3.0), Value::Float(4.0)]);
    }

    #[test]
    fn stddev_population() {
        let src =
            buf(&[(1, 2.0), (2, 4.0), (3, 4.0), (4, 4.0), (5, 5.0), (6, 5.0), (7, 7.0), (8, 9.0)]);
        let s = spec(ReduceOp::StdDev, 8);
        let out = eval_series(&s, &src, &[8]);
        let Value::Float(x) = out[0] else { panic!("expected float") };
        assert!((x - 2.0).abs() < 1e-9); // classic σ=2 dataset
    }

    #[test]
    fn product_handles_zeros() {
        let src = buf(&[(1, 2.0), (2, 0.0), (3, 3.0), (4, 4.0)]);
        let s = spec(ReduceOp::Product, 2);
        let out = eval_series(&s, &src, &[2, 3, 4]);
        assert_eq!(out[0], Value::Float(0.0));
        assert_eq!(out[1], Value::Float(0.0));
        assert_eq!(out[2], Value::Float(12.0));
    }

    #[test]
    fn empty_window_is_null() {
        let src = buf(&[(5, 1.0)]);
        let s = spec(ReduceOp::Sum, 2);
        assert_eq!(eval_series(&s, &src, &[2]), vec![Value::Null]);
    }

    #[test]
    fn next_enter_and_evict_times() {
        let src = buf(&[(5, 1.0), (10, 2.0)]);
        let s = spec(ReduceOp::Sum, 3);
        let mut runner = ReduceRunner::new(&s, &src);
        let mut ctx = EvalCtx::default();
        let v = runner.eval_at(Time::new(1), &mut ctx);
        assert_eq!(v, Value::Null);
        // Event at 5 spans (4,5]; enters window (t-3, t] when t > 4.
        assert_eq!(runner.next_enter_time(), Some(Time::new(5)));
        runner.eval_at(Time::new(5), &mut ctx);
        assert!(runner.has_content());
        // Span (4,5] evicted when t-3 >= 5, i.e. t = 8.
        assert_eq!(runner.next_evict_time(), Some(Time::new(8)));
    }

    #[test]
    fn custom_reduce_with_deacc() {
        // Sum of squares via the user template.
        let custom = Arc::new(CustomReduce {
            name: "sumsq".into(),
            result_type: DataType::Float,
            init: Value::Float(0.0),
            acc: Arc::new(|s, v, _| s.add(&v.mul(v))),
            deacc: Some(Arc::new(|s, v, _| s.sub(&v.mul(v)))),
            result: Arc::new(|s, _| s.clone()),
        });
        let src = buf(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        let s = spec(ReduceOp::Custom(custom), 2);
        let out = eval_series(&s, &src, &[2, 3]);
        assert_eq!(out, vec![Value::Float(5.0), Value::Float(13.0)]);
    }

    #[test]
    fn custom_reduce_without_deacc_recomputes() {
        // "last value" aggregate: not invertible.
        let custom = Arc::new(CustomReduce {
            name: "last".into(),
            result_type: DataType::Float,
            init: Value::Null,
            acc: Arc::new(|_, v, _| v.clone()),
            deacc: None,
            result: Arc::new(|s, _| s.clone()),
        });
        let src = buf(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        let s = spec(ReduceOp::Custom(custom), 2);
        let out = eval_series(&s, &src, &[2, 3, 6]);
        assert_eq!(out, vec![Value::Float(2.0), Value::Float(3.0), Value::Null]);
    }

    #[test]
    fn evict_subtracts_cached_value_without_rerunning_map() {
        // Ten points sliding through a width-3 window: each element must be
        // mapped exactly once (at entry), never again at eviction.
        let pts: Vec<(i64, f64)> = (1..=10).map(|t| (t, t as f64)).collect();
        let src = buf(&pts);
        let s = spec(ReduceOp::Sum, 3);
        let mut runner = ReduceRunner::new(&s, &src);
        let mut runs = 0u64;
        let mut out = Vec::new();
        for t in 1..=13 {
            out.push(runner.eval_at_with(Time::new(t), &mut |v| {
                runs += 1;
                v.clone()
            }));
        }
        assert_eq!(runs, 10, "fused map must run once per element, not once per evict too");
        // And the results are still the correct sliding sums.
        assert_eq!(out[4], Value::Float(3.0 + 4.0 + 5.0));
        assert_eq!(out[12], Value::Null);
    }

    #[test]
    fn deque_recount_uses_cached_fold_outcome() {
        // The Max deque's evict-recount path historically re-applied the map
        // to decide whether an expired span had been counted.
        let pts: Vec<(i64, f64)> = (1..=10).map(|t| (t, (t % 4) as f64)).collect();
        let src = buf(&pts);
        let s = spec(ReduceOp::Max, 2);
        let mut runner = ReduceRunner::new(&s, &src);
        let mut runs = 0u64;
        for t in 1..=12 {
            runner.eval_at_with(Time::new(t), &mut |v| {
                runs += 1;
                v.clone()
            });
        }
        assert_eq!(runs, 10);
    }

    #[test]
    fn typed_slide_matches_dynamic_results() {
        let pts: Vec<(i64, f64)> = (1..=20).map(|t| (t, (t as f64) * 1.5 - 7.0)).collect();
        let src = buf(&pts);
        for op in [ReduceOp::Sum, ReduceOp::Mean, ReduceOp::Product, ReduceOp::StdDev] {
            let s = spec(op.clone(), 5);
            let mut dynr = ReduceRunner::new(&s, &src);
            let mut typr = ReduceRunner::with_elem_class(&s, &src, Some(Class::F), Some(Class::F));
            assert_eq!(typr.fold_class(), Some(Class::F));
            for t in 1..=25 {
                let d = dynr.eval_at_with(Time::new(t), &mut |v| v.clone());
                typr.slide_typed(Time::new(t), unmapped());
                let ty = typr.result_f().map(Value::Float).unwrap_or(Value::Null);
                assert_eq!(d, ty, "op {} t={t}", s.op.name());
            }
        }
        // Count folds either class and results in i64.
        let s = spec(ReduceOp::Count, 5);
        let mut dynr = ReduceRunner::new(&s, &src);
        let mut typr = ReduceRunner::with_elem_class(&s, &src, Some(Class::F), Some(Class::F));
        for t in 1..=25 {
            let d = dynr.eval_at_with(Time::new(t), &mut |v| v.clone());
            typr.slide_typed(Time::new(t), unmapped());
            let ty = typr.result_i().map(Value::Int).unwrap_or(Value::Null);
            assert_eq!(d, ty, "count t={t}");
        }
        // Min/Max through the typed deque.
        for op in [ReduceOp::Min, ReduceOp::Max] {
            let s = spec(op, 3);
            let mut dynr = ReduceRunner::new(&s, &src);
            let mut typr = ReduceRunner::with_elem_class(&s, &src, Some(Class::F), Some(Class::F));
            for t in 1..=25 {
                let d = dynr.eval_at_with(Time::new(t), &mut |v| v.clone());
                typr.slide_typed(Time::new(t), unmapped());
                let ty = typr.result_f().map(Value::Float).unwrap_or(Value::Null);
                assert_eq!(d, ty, "op {} t={t}", s.op.name());
            }
        }
    }

    #[test]
    fn typed_i64_slide_matches_dynamic() {
        let events: Vec<Event<Value>> =
            (1..=15).map(|t| Event::point(Time::new(t), Value::Int(t * 3 - 20))).collect();
        let src = SnapshotBuf::from_events(&events, TimeRange::new(Time::new(0), Time::new(15)));
        for op in [ReduceOp::Sum, ReduceOp::Mean, ReduceOp::Min, ReduceOp::Max] {
            let s = spec(op.clone(), 4);
            let mut dynr = ReduceRunner::new(&s, &src);
            let mut typr = ReduceRunner::with_elem_class(&s, &src, Some(Class::I), Some(Class::I));
            assert_eq!(typr.fold_class(), Some(Class::I));
            let res_class = typed_result_class(&s.op, Some(Class::I)).unwrap();
            for t in 1..=20 {
                let d = dynr.eval_at_with(Time::new(t), &mut |v| v.clone());
                typr.slide_typed(Time::new(t), unmapped());
                let ty = match res_class {
                    Class::F => typr.result_f().map(Value::Float).unwrap_or(Value::Null),
                    Class::I => typr.result_i().map(Value::Int).unwrap_or(Value::Null),
                    _ => unreachable!(),
                };
                assert_eq!(d, ty, "op {} t={t}", s.op.name());
            }
        }
    }

    #[test]
    fn mapped_window_filters_nulls() {
        // map: keep only values > 2 (others become φ and are skipped).
        use super::super::program::compile;
        let v = crate::ir::VarId(0);
        let body = Expr::Reduce {
            op: ReduceOp::Count,
            window: crate::ir::WindowRef {
                obj: crate::ir::TObjId(0),
                lo: -3,
                hi: 0,
                map: Some((
                    v,
                    Box::new(Expr::if_else(
                        Expr::Var(v).gt(Expr::c(2.0)),
                        Expr::Var(v),
                        Expr::null(),
                    )),
                )),
            },
        };
        use crate::ir::Expr;
        let p = compile(&body).unwrap();
        let src = buf(&[(1, 1.0), (2, 3.0), (3, 5.0)]);
        let mut ctx = p.new_ctx();
        let mut runner = ReduceRunner::new(&p.reduces[0], &src);
        let out = runner.eval_at(Time::new(3), &mut ctx);
        assert_eq!(out, Value::Int(2));
    }
}
