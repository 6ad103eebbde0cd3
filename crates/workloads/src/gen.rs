//! Synthetic dataset generators standing in for the paper's gated datasets.
//!
//! Every generator is deterministic in its seed, emits events in time order,
//! and matches the event-rate/payload shape of the dataset it replaces:
//!
//! | paper dataset              | generator                  |
//! |----------------------------|----------------------------|
//! | NYSE stock ticks           | [`stock_walk`]             |
//! | synthetic 1000 Hz floats   | [`uniform_floats`]         |
//! | MIMIC-III ECG waveforms    | [`ecg_wave`]               |
//! | bearing vibration data     | [`vibration_wave`]         |
//! | Kaggle credit-card data    | [`transactions`]           |

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tilt_data::{Event, Time, Value};

/// Uniform random floats in `[0, 1)`, one point event per tick — the paper's
/// own synthetic dataset ("random floating point values generated at 1000 Hz";
/// one tick = 1 ms).
pub fn uniform_floats(n: usize, seed: u64) -> Vec<Event<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..=n as i64).map(|t| Event::point(Time::new(t), Value::Float(rng.gen::<f64>()))).collect()
}

/// A geometric-ish random walk around 100.0, one price per tick (NYSE
/// stand-in).
pub fn stock_walk(n: usize, seed: u64) -> Vec<Event<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut price = 100.0f64;
    (1..=n as i64)
        .map(|t| {
            price += rng.gen_range(-0.5..0.5) + 0.002;
            price = price.max(1.0);
            Event::point(Time::new(t), Value::Float(price))
        })
        .collect()
}

/// An ECG-like waveform: sinus baseline with a tall QRS-like spike every
/// `period` ticks plus noise (MIMIC-III stand-in). One sample per tick.
pub fn ecg_wave(n: usize, seed: u64) -> Vec<Event<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let period = 200i64; // ~250 Hz sampling, ~75 bpm
    (1..=n as i64)
        .map(|t| {
            let phase = t % period;
            let mut v = 0.1 * (2.0 * std::f64::consts::PI * phase as f64 / period as f64).sin();
            // QRS complex: sharp triangular spike near the period start.
            let d = (phase - 10).abs();
            if d < 4 {
                v += 1.2 * (1.0 - d as f64 / 4.0);
            }
            v += rng.gen_range(-0.02..0.02);
            Event::point(Time::new(t), Value::Float(v))
        })
        .collect()
}

/// Bearing-vibration stand-in: two sinusoids (shaft + bearing tone) with
/// occasional fault impulses. One sample per tick (1 kHz scale).
pub fn vibration_wave(n: usize, seed: u64) -> Vec<Event<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..=n as i64)
        .map(|t| {
            let x = t as f64;
            let mut v = (x * 0.31).sin() + 0.4 * (x * 1.7).sin();
            if rng.gen::<f64>() < 0.002 {
                v += rng.gen_range(4.0..8.0); // fault impulse
            }
            v += rng.gen_range(-0.1..0.1);
            Event::point(Time::new(t), Value::Float(v))
        })
        .collect()
}

/// Credit-card-like transaction amounts: lognormal body with a heavy tail,
/// one transaction per tick (Kaggle stand-in).
pub fn transactions(n: usize, seed: u64) -> Vec<Event<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..=n as i64)
        .map(|t| {
            let z: f64 = rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0);
            let mut amount = (z * 0.8).exp() * 40.0;
            if rng.gen::<f64>() < 0.003 {
                amount *= rng.gen_range(10.0..40.0); // the frauds to catch
            }
            Event::point(Time::new(t), Value::Float(amount))
        })
        .collect()
}

/// A signal with missing stretches: like [`uniform_floats`] but dropping
/// events in random gaps (imputation stand-in). Returns `(events, n_gaps)`.
pub fn gapped_signal(n: usize, seed: u64) -> Vec<Event<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut t = 1i64;
    while out.len() < n {
        if rng.gen::<f64>() < 0.05 {
            t += rng.gen_range(2..8); // gap
        }
        out.push(Event::point(Time::new(t), Value::Float(rng.gen::<f64>())));
        t += 1;
    }
    out
}

/// A sampled smooth signal: one event of length `period` per sample, values
/// from a slow sinusoid plus noise (resampling stand-in).
pub fn sampled_signal(n: usize, period: i64, seed: u64) -> Vec<Event<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as i64)
        .map(|k| {
            let v = (k as f64 * 0.05).sin() * 10.0 + rng.gen_range(-0.2..0.2);
            Event::new(Time::new(k * period), Time::new((k + 1) * period), Value::Float(v))
        })
        .collect()
}

/// A Zipf(`exponent`) sampler over ranks `0..num_keys`: rank `r` is drawn
/// with probability proportional to `1 / (r + 1)^exponent` via an inverted
/// precomputed CDF (O(num_keys) setup, O(log num_keys) per draw).
///
/// This is the key-popularity shape of real keyed traffic (users,
/// campaigns, devices): a small hot set plus a long tail of keys touched a
/// handful of times — exactly what idle-session eviction exists for.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics when `num_keys` is zero or `exponent` is not finite.
    pub fn new(num_keys: usize, exponent: f64) -> Zipf {
        assert!(num_keys > 0, "Zipf needs at least one key");
        assert!(exponent.is_finite(), "Zipf exponent must be finite");
        let mut cdf = Vec::with_capacity(num_keys);
        let mut total = 0.0f64;
        for r in 0..num_keys {
            total += 1.0 / ((r + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws one rank in `0..num_keys` (rank 0 is the hottest).
    pub fn sample<R: rand::RngCore>(&self, rng: &mut R) -> u64 {
        let u: f64 = rand::Rng::gen(rng);
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// A skewed keyed event stream: `n` point events at one tick each, keys
/// drawn Zipf(`exponent`) over `0..num_keys` (the runtime's own key hash
/// spreads the hot set across shards). Returns `(key, event)` pairs in
/// time order.
pub fn zipf_keyed_floats(
    n: usize,
    num_keys: usize,
    exponent: f64,
    seed: u64,
) -> Vec<(u64, Event<Value>)> {
    let zipf = Zipf::new(num_keys, exponent);
    let mut rng = StdRng::seed_from_u64(seed);
    (1..=n as i64)
        .map(|t| {
            (zipf.sample(&mut rng), Event::point(Time::new(t), Value::Float(rng.gen::<f64>())))
        })
        .collect()
}

/// A sliding-window sum whose accumulator **panics on negative input** —
/// the deliberate poison pill for exercising the runtime's per-key panic
/// quarantine (tests and the `hardening` bench). Pair with
/// [`silence_poison_panics`] to keep the deliberate unwinds off stderr.
pub fn poisonable_sum(window: i64) -> std::sync::Arc<tilt_core::CompiledQuery> {
    use tilt_core::ir::{CustomReduce, DataType, Expr, Query, ReduceOp, TDom};
    let acc = std::sync::Arc::new(|state: &Value, v: &Value, w: i64| {
        let x = v.as_f64().expect("float input");
        assert!(x >= 0.0, "poison-pill value reached the kernel");
        Value::Float(state.as_f64().unwrap_or(0.0) + x * w as f64)
    });
    let op = ReduceOp::Custom(std::sync::Arc::new(CustomReduce {
        name: "poisonable_sum".to_string(),
        result_type: DataType::Float,
        init: Value::Float(0.0),
        acc,
        deacc: None,
        result: std::sync::Arc::new(|state: &Value, _n: i64| state.clone()),
    }));
    let mut b = Query::builder();
    let input = b.input("x", DataType::Float);
    let out = b.temporal("sum", TDom::every_tick(), Expr::reduce_window(op, input, window));
    std::sync::Arc::new(
        tilt_core::Compiler::new().compile(&b.finish(out).expect("valid query")).expect("compiles"),
    )
}

/// Filters the deliberate [`poisonable_sum`] panics out of stderr (the
/// runtime catches the unwind; this only silences the default hook's
/// noise). Installs a chaining hook once per process; everything else
/// still prints through the previously installed hook.
pub fn silence_poison_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg =
                info.payload().downcast_ref::<String>().map(String::as_str).unwrap_or_else(|| {
                    info.payload().downcast_ref::<&str>().copied().unwrap_or("")
                });
            if !msg.contains("poison-pill") {
                default_hook(info);
            }
        }));
    });
}

/// Converts `Value` events to plain-`f64` events (for the specialized
/// baseline engines).
///
/// # Panics
///
/// Panics on non-numeric payloads.
pub fn to_f64_events(events: &[Event<Value>]) -> Vec<Event<f64>> {
    events
        .iter()
        .map(|e| Event::new(e.start, e.end, e.payload.as_f64().expect("numeric payload")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_data::validate_stream;

    #[test]
    fn generators_are_deterministic_and_ordered() {
        for gen in
            [uniform_floats, stock_walk, ecg_wave, vibration_wave, transactions, gapped_signal]
        {
            let a = gen(500, 42);
            let b = gen(500, 42);
            assert_eq!(a.len(), 500);
            assert_eq!(a, b, "same seed must give same data");
            assert_eq!(validate_stream(&a), Ok(()));
            let c = gen(500, 43);
            assert_ne!(a, c, "different seeds should differ");
        }
    }

    #[test]
    fn ecg_has_periodic_spikes() {
        let evs = ecg_wave(1000, 1);
        let spikes = evs.iter().filter(|e| e.payload.as_f64().unwrap() > 0.8).count();
        assert!((4..=40).contains(&spikes), "expected ~5 QRS complexes, got {spikes}");
    }

    #[test]
    fn sampled_signal_has_contiguous_intervals() {
        let evs = sampled_signal(10, 4, 7);
        assert_eq!(validate_stream(&evs), Ok(()));
        assert_eq!(evs[0].interval().len(), 4);
        assert_eq!(evs[9].end, Time::new(40));
    }

    #[test]
    fn transactions_have_heavy_tail() {
        let evs = transactions(20_000, 3);
        let max = evs.iter().map(|e| e.payload.as_f64().unwrap()).fold(0.0f64, f64::max);
        let mean: f64 =
            evs.iter().map(|e| e.payload.as_f64().unwrap()).sum::<f64>() / evs.len() as f64;
        assert!(max > mean * 10.0, "tail missing: max {max}, mean {mean}");
    }

    #[test]
    fn zipf_is_skewed_deterministic_and_in_range() {
        let zipf = Zipf::new(1000, 1.2);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = vec![0usize; 1000];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 dominates and the tail is long: the head outdraws any
        // mid-rank key by an order of magnitude.
        assert!(counts[0] > 2_000, "head rank too cold: {}", counts[0]);
        assert!(counts[0] > 20 * counts[500].max(1));
        let touched = counts.iter().filter(|&&c| c > 0).count();
        assert!(touched > 200, "tail never sampled: {touched} keys touched");

        // Deterministic in the rng stream.
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut a), zipf.sample(&mut b));
        }
    }

    #[test]
    fn zipf_keyed_floats_shape() {
        let stream = zipf_keyed_floats(5000, 300, 1.1, 9);
        assert_eq!(stream.len(), 5000);
        assert!(stream.iter().all(|(k, _)| *k < 300));
        // Time-ordered point events, one per tick.
        assert!(stream
            .windows(2)
            .all(|w| w[0].1.end <= w[1].1.start || w[0].1.start < w[1].1.start));
        assert_eq!(stream, zipf_keyed_floats(5000, 300, 1.1, 9), "deterministic in seed");
        // Skew: the most popular key owns a large share of the stream.
        let mut counts = std::collections::HashMap::new();
        for (k, _) in &stream {
            *counts.entry(*k).or_insert(0usize) += 1;
        }
        let hottest = counts.values().copied().max().unwrap();
        assert!(hottest > stream.len() / 20, "hottest key only {hottest} events");
    }

    #[test]
    fn to_f64_conversion() {
        let evs = uniform_floats(10, 9);
        let f = to_f64_events(&evs);
        assert_eq!(f.len(), 10);
        assert_eq!(f[0].payload, evs[0].payload.as_f64().unwrap());
    }
}
