//! In-memory span recorder for the traced run.
//!
//! A span is opened around one call the benchmark makes into a layer's
//! public API and closed when its guard drops. Each span has a name
//! (`<layer>.<call>`), start and end (ns since the recorder's epoch), the
//! span that caused it, and a request id shared by every span of one
//! partition or one ingest batch. Spans stay in memory until [`write`]
//! dumps them at the end of the run. With tracing off, [`span`] costs one
//! relaxed atomic load and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread, innermost last: the implicit parent.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer is the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Turns recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
pub struct Guard {
    open: Option<Span>,
}

impl Guard {
    /// This span's id (0 when tracing is off), for parenting spans opened
    /// on other threads.
    pub fn id(&self) -> u64 {
        self.open.as_ref().map_or(0, |s| s.id)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut span) = self.open.take() {
            span.end_ns = epoch().elapsed().as_nanos() as u64;
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if s.last() == Some(&span.id) {
                    s.pop();
                }
            });
            SPANS.lock().expect("span store poisoned").push(span);
        }
    }
}

/// Opens a span whose parent is the innermost open span on this thread.
pub fn span(name: &'static str, request: u64) -> Guard {
    let parent = if enabled() { STACK.with(|s| s.borrow().last().copied()) } else { None };
    open(name, parent.unwrap_or(0), request)
}

/// Opens a span with an explicit parent (for work handed to another
/// thread).
pub fn child_of(parent: u64, name: &'static str, request: u64) -> Guard {
    open(name, parent, request)
}

fn open(name: &'static str, parent: u64, request: u64) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    let start_ns = epoch().elapsed().as_nanos() as u64;
    Guard { open: Some(Span { name, id, parent, request, start_ns, end_ns: start_ns }) }
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Per-span self time: duration minus the part of it covered by the
/// span's children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    iv.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Self time and call count per span name and per layer, as a table.
pub fn self_time_table(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
        *by_layer.entry(s.layer()).or_default() += own;
    }
    let mut out = String::new();
    let _ = writeln!(out, "{:<34} {:>8} {:>12} {:>12}", "span", "calls", "total_ms", "self_ms");
    for (name, (calls, total, own)) in &by_name {
        let _ = writeln!(
            out,
            "{name:<34} {calls:>8} {:>12.3} {:>12.3}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
    let _ = writeln!(out, "{:<34} {:>8} {:>12} {:>12}", "layer", "", "", "self_ms");
    for (layer, own) in &by_layer {
        let _ = writeln!(out, "{layer:<34} {:>8} {:>12} {:>12.3}", "", "", *own as f64 / 1e6);
    }
    out
}

/// Writes spans as JSON lines: one object per span.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 25)], 0, 100), 20);
        assert_eq!(covered_ns(&[(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }
}
