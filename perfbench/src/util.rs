//! Shared measurement helpers: open-loop pacing, percentiles, the
//! sustained-rate ladder, metric collection, and process memory.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tilt_obs::{HistogramSnapshot, MetricsSnapshot, SampleValue};

/// Shares of a run's `--seconds` budget: the closed-loop runs, the
/// fixed-rate passes, and the ladder probes.
pub const CLOSED_SHARE: f64 = 0.25;
pub const FIXED_SHARE: f64 = 0.25;
pub const PROBE_SHARE: f64 = 0.4;

/// How many closed-loop passes of about `pass_s` seconds fill `secs`, at
/// least one. A count fixed by the budget rather than by the clock keeps
/// the work of a run, and so its memory history, the same from run to run.
pub fn passes_for(secs: f64, pass_s: f64) -> usize {
    ((secs / pass_s).round() as usize).max(1)
}

/// The `q`-quantile of `values` (nearest rank on a sorted copy).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    *v.select_nth_unstable_by(rank - 1, f64::total_cmp).1
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

pub fn median(values: &[f64]) -> f64 {
    interpolated_quantile(values, 0.5)
}

/// The `q`-quantile of `values`, interpolated between the two nearest
/// ranks (for `q` = 0.5, the median).
pub fn interpolated_quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let h = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

/// Sleeps until `due` and returns how late the caller woke, in ms.
pub fn wait_until(due: Instant) -> f64 {
    wait_until_spinning(due, Duration::ZERO)
}

/// Sleeps until `spin` before `due`, spins from there to `due`, and
/// returns how late the caller got past `due`, in ms.
pub fn wait_until_spinning(due: Instant, spin: Duration) -> f64 {
    let now = Instant::now();
    if due > now + spin {
        std::thread::sleep(due - now - spin);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
    Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3
}

/// An open-loop schedule: event `i` is due `i / rate` seconds after `t0`.
#[derive(Clone, Copy)]
pub struct Schedule {
    pub t0: Instant,
    /// Events per second; `None` is a closed loop (everything due at `t0`).
    pub rate: Option<f64>,
}

impl Schedule {
    pub fn new(rate: Option<f64>) -> Schedule {
        Schedule { t0: Instant::now(), rate }
    }

    pub fn due(&self, i: usize) -> Instant {
        match self.rate {
            Some(r) => self.t0 + Duration::from_secs_f64(i as f64 / r),
            None => self.t0,
        }
    }

    /// Milliseconds from event `i`'s due time to `at` (0 when `at` is
    /// earlier).
    pub fn since_due_ms(&self, i: usize, at: Instant) -> f64 {
        at.saturating_duration_since(self.due(i)).as_secs_f64() * 1e3
    }
}

/// What one open-loop pass measured.
#[derive(Clone, Debug, Default)]
pub struct OpenLoop {
    /// Offered rate, events per second.
    pub rate: f64,
    /// `(due-time offset in s, latency in ms)` per result.
    pub latencies: Vec<(f64, f64)>,
    /// How late the generator sent each batch, in ms, in send order.
    pub gen_late_ms: Vec<f64>,
}

impl OpenLoop {
    /// The latency `q`-quantile of each segment of `segment_events`
    /// events (by due position), and the median over the segments. The
    /// median keeps one stall of the shared machine from setting the
    /// whole pass's tail.
    pub fn segment_quantile(&self, q: f64, segment_events: f64) -> f64 {
        median(&self.segment_quantiles(q, segment_events))
    }

    /// The latency `q`-quantile of each segment of `segment_events`
    /// events (by due position).
    pub fn segment_quantiles(&self, q: f64, segment_events: f64) -> Vec<f64> {
        let mut segs: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for &(due_s, ms) in &self.latencies {
            segs.entry((due_s * self.rate / segment_events) as u64).or_default().push(ms);
        }
        segs.values().map(|v| quantile(v, q)).collect()
    }

    /// Growth of generator lateness from the first to the last quarter of
    /// batches, in ms.
    pub fn gen_late_growth_ms(&self) -> f64 {
        let q = self.gen_late_ms.len() / 4;
        if q == 0 {
            return 0.0;
        }
        let n = self.gen_late_ms.len();
        median(&self.gen_late_ms[n - q..]) - median(&self.gen_late_ms[..q])
    }
}

/// The fixed open-loop parameters of one workload.
#[derive(Clone, Copy, Debug)]
pub struct LoadSpec {
    /// The fixed rate latency is measured at, and the ladder's first rung
    /// (events per second).
    pub fixed_rate: f64,
    /// Ratio between consecutive ladder rungs.
    pub step: f64,
    /// Latency limit on p99, in ms.
    pub p99_limit_ms: f64,
    /// Largest allowed growth of generator lateness over one probe, in
    /// ms.
    pub growth_limit_ms: f64,
    /// Latency percentiles are taken per segment of this many events (by
    /// due position).
    pub segment_events: f64,
    /// The quantile over a run's segments that the latency metrics report.
    pub over_segments: f64,
    /// Set-up blocks, closed-loop runs, fixed-rate passes and ladder
    /// probes alternate in this many rounds, so every metric samples the
    /// whole run and a slow spell of the shared machine lands in one
    /// round, not in every sample of a metric.
    pub rounds: usize,
    /// Ladder probes per round.
    pub probes_per_round: usize,
    /// Largest ladder probe, in events, to bound memory at high rates.
    pub max_probe_events: f64,
    /// The staircase starts at this multiple of the first round's
    /// closed-loop rate.
    pub start: f64,
}

impl LoadSpec {
    /// Events in one ladder probe at `rate` when all probes of a run
    /// share `secs`: its part of `secs` at `rate`, capped.
    pub fn probe_events(&self, rate: f64, secs: f64) -> f64 {
        let probes = (self.rounds * self.probes_per_round) as f64;
        (rate * secs / probes).min(self.max_probe_events)
    }

    pub fn rung(&self, k: usize) -> f64 {
        self.fixed_rate * self.step.powi(k as i32)
    }

    /// A pass's p99 latency, as the median over its segments.
    pub fn p99(&self, run: &OpenLoop) -> f64 {
        run.segment_quantile(0.99, self.segment_events)
    }

    /// Whether an open-loop pass sustained its rate: no growing backlog
    /// and p99 within the limit.
    pub fn sustained(&self, run: &OpenLoop) -> bool {
        self.p99(run) <= self.p99_limit_ms && run.gen_late_growth_ms() <= self.growth_limit_ms
    }
}

/// The search for the sustained rate: an up-down staircase on the rate
/// ladder. A probe that sustains moves the next probe up, one that fails
/// moves it down: four rungs at a time at first, half as many after each
/// turn, down to one. Once the steps are single rungs, the staircase swings
/// between the highest rung that sustains and the one above it, so the
/// mean of the rates that sustained at rungs reached by one-rung moves is
/// that highest rung.
/// There a probe that a slow spell of the shared machine fails moves the
/// staircase by one rung and the figure by a fraction of one, where it
/// would send a bisection to another part of the ladder.
pub struct Staircase<'a> {
    spec: &'a LoadSpec,
    /// The rung to probe next.
    k: usize,
    /// Rungs per move.
    step: usize,
    /// Whether the last probe sustained.
    last: Option<bool>,
    /// Whether rung `k` was reached by a one-rung move.
    by_one: bool,
    /// Rates that sustained at rungs reached by one-rung moves.
    settled: Vec<f64>,
    /// The highest rate that sustained at all.
    best: f64,
}

impl<'a> Staircase<'a> {
    /// A staircase whose first probe is the highest rung at or below
    /// `start` (the fixed rate if `start` is lower).
    pub fn new(spec: &'a LoadSpec, start: f64) -> Staircase<'a> {
        let mut k = 0usize;
        while spec.rung(k + 1) <= start {
            k += 1;
        }
        Staircase { spec, k, step: 4, last: None, by_one: false, settled: Vec::new(), best: 0.0 }
    }

    /// The rate to probe next.
    pub fn rate(&self) -> f64 {
        self.spec.rung(self.k)
    }

    /// Takes in a probe at [`Staircase::rate`].
    pub fn record(&mut self, run: &OpenLoop) {
        let spec = self.spec;
        let ok = spec.sustained(run);
        eprintln!(
            "  ladder {:.3} Mev/s: {} (latency p99 {:.2} ms over {} results, \
             gen late p99 {:.3} ms, growth {:.3} ms)",
            self.rate() / 1e6,
            if ok { "sustained" } else { "not sustained" },
            spec.p99(run),
            run.latencies.len(),
            quantile(&run.gen_late_ms, 0.99),
            run.gen_late_growth_ms(),
        );
        if self.last.is_some_and(|last| last != ok) {
            self.step = (self.step / 2).max(1);
        }
        if ok {
            self.best = self.best.max(self.rate());
            if self.by_one {
                self.settled.push(self.rate());
            }
        }
        self.last = Some(ok);
        let k = if ok { self.k + self.step } else { self.k.saturating_sub(self.step) };
        self.by_one = k.abs_diff(self.k) == 1;
        self.k = k;
    }

    /// The sustained rate: the mean of the rates that sustained at rungs
    /// reached by one-rung moves; the highest that sustained if there
    /// were none; 0 if no probe sustained.
    pub fn result(&self) -> f64 {
        if self.settled.is_empty() {
            self.best
        } else {
            self.settled.iter().sum::<f64>() / self.settled.len() as f64
        }
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: hands free heap pages back to the operating system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Resets the process's peak resident set (`VmHWM`) to the memory live
/// now, so the next [`peak_rss_mb`] reads the peak of what ran in between
/// rather than heap an earlier pass freed but the allocator kept.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and is safe to call from any
    // thread at any time; it only releases pages no allocation uses.
    unsafe {
        malloc_trim(0);
    }
    // Linux only; where it fails, the peak simply covers more of the run.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// All shards' samples of one histogram, merged.
pub fn merged_histogram(m: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    let mut out = HistogramSnapshot { buckets: Vec::new(), sum: 0, max: 0 };
    for s in m.samples.iter().filter(|s| s.name == name) {
        if let SampleValue::Histogram(h) = &s.value {
            if out.buckets.len() < h.buckets.len() {
                out.buckets.resize(h.buckets.len(), 0);
            }
            for (o, b) in out.buckets.iter_mut().zip(&h.buckets) {
                *o += b;
            }
            out.sum += h.sum;
            out.max = out.max.max(h.max);
        }
    }
    out
}

/// Named metrics with their units.
#[derive(Default)]
pub struct Metrics {
    pub values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_owned(), (value, unit));
    }
}

/// Time a closure, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Deterministic 64-bit mixer (SplitMix64) for seeded inputs.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: LoadSpec = LoadSpec {
        fixed_rate: 1.0e6,
        step: 1.05,
        p99_limit_ms: 10.0,
        growth_limit_ms: 5.0,
        segment_events: 1.0e6,
        over_segments: 0.5,
        rounds: 12,
        probes_per_round: 1,
        max_probe_events: f64::INFINITY,
        start: 1.0,
    };

    /// A probe at `rate` against a program that sustains up to `limit`:
    /// beyond it the generator falls further behind with every batch.
    fn probe(rate: f64, limit: f64) -> OpenLoop {
        let behind = if rate <= limit { 0.0 } else { 100.0 };
        OpenLoop {
            rate,
            latencies: vec![(0.0, 1.0)],
            gen_late_ms: (0..8).map(|i| i as f64 * behind).collect(),
        }
    }

    #[test]
    fn staircase_settles_on_the_highest_sustained_rung() {
        for (start, top) in [(3, 10), (14, 10), (0, 0), (10, 11)] {
            let limit = SPEC.rung(top);
            let mut st = Staircase::new(&SPEC, SPEC.rung(start));
            for _ in 0..12 {
                st.record(&probe(st.rate(), limit));
            }
            assert!((st.result() / limit - 1.0).abs() < 1e-9, "start {start}, top {top}");
        }
        let mut st = Staircase::new(&SPEC, SPEC.rung(2));
        for _ in 0..12 {
            st.record(&probe(st.rate(), 0.5 * SPEC.fixed_rate));
        }
        assert_eq!(st.result(), 0.0, "no rung sustains");
    }

    #[test]
    fn interpolated_quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(interpolated_quantile(&v, 0.25), 1.75);
        assert_eq!(interpolated_quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
