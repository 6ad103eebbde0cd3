//! The repository benchmark: end-to-end and per-layer numbers for three
//! workloads, driven from outside through each layer's public API.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ysb_batch --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! variant, prints the per-layer metrics, writes the span file and the
//! self-time table under `.perfbench_out/`, and reports the tracing
//! overhead. Every run checks every output against a reference computed
//! directly from the generated inputs. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`. A
//! wrong output exits with code 1. See `perfbench/README.md`.

mod sliding_wire;
mod trace;
mod util;
mod ysb_batch;
mod ysb_service;

use std::collections::BTreeMap;
use std::path::PathBuf;

use tilt_core::CompiledQuery;
use tilt_obs::Json;

use util::{interpolated_quantile, median, quantile, LoadSpec, Metrics, OpenLoop};

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_meps", "Mev/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("sustained_meps", "Mev/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`. A workload that never
/// calls into a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("query.lower_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("runtime.start_ms", "ms"),
    ("server.start_ms", "ms"),
    ("workloads.partition_ms", "ms"),
    ("workloads.straggler_ms", "ms"),
    ("data.snapshot_build_ms", "ms"),
    ("data.spans_built", "count"),
    ("data.materialize_ms", "ms"),
    ("core.kernel_ms", "ms"),
    ("core.spans_out", "count"),
    ("core.batched_kernel_share", "ratio"),
    ("core.fallback_ops", "count"),
    ("runtime.ingest_ms", "ms"),
    ("runtime.ingest_call_p99_us", "us"),
    ("runtime.advance_busy_ms", "ms"),
    ("runtime.advance_p99_us", "us"),
    ("runtime.flush_ms", "ms"),
    ("runtime.finish_ms", "ms"),
    ("runtime.queue_depth_max", "count"),
    ("runtime.reorder_residency_p99_ticks", "ticks"),
    ("runtime.watermark_lag_p99_ticks", "ticks"),
    ("runtime.kernels_run_per_kevent", "1/kev"),
    ("runtime.kernels_saved_share", "ratio"),
    ("runtime.sink_events_per_call", "count"),
    ("runtime.late_dropped", "count"),
    ("server.client_ingest_ms", "ms"),
    ("server.ingest_call_p99_us", "us"),
    ("server.busy_share", "ratio"),
    ("server.credit_stalls", "count"),
    ("server.bytes_in_per_event", "B"),
    ("server.bytes_out_per_result", "B"),
    ("server.frames_out_per_kresult", "1/kres"),
    ("server.subscriber_wait_ms", "ms"),
    ("server.subscriber_busy_ms", "ms"),
    ("server.decode_errors", "count"),
    ("gen.late_p99_ms", "ms"),
    ("trace.throughput_ratio", "ratio"),
    ("trace.stage_coverage", "ratio"),
];

const WORKLOADS: &[&str] = &["ysb_batch", "ysb_service", "sliding_wire"];

/// Parsed command line.
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    /// Measurement budget of one run, in seconds.
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Cfg, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Cfg { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

/// What a workload run hands back.
pub struct Outcome {
    pub correct: bool,
    /// Events sent to the program.
    pub attempted: u64,
    /// Events sent but not accounted for in the output.
    pub failed: u64,
    pub metrics: Metrics,
    /// Recorded spans (traced run only).
    pub spans: Vec<trace::Span>,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            spans: Vec::new(),
        }
    }
}

impl Outcome {
    /// Sets the end-to-end metrics and prints them, with sample counts.
    /// A latency percentile is taken per segment of every fixed-rate pass
    /// and reported as a quantile over all of them (the workload's
    /// `over_segments`): the segments spread over the whole run, and one
    /// stall of the shared machine sets only the segments it falls in.
    pub fn set_e2e(
        &mut self,
        closed_samples: &[f64],
        fixed: &[OpenLoop],
        load: &LoadSpec,
        sustained_eps: f64,
        setup_s: f64,
        peak_rss: &[f64],
    ) {
        let peak_rss_mb = median(peak_rss);
        let closed_eps = median(closed_samples);
        let segments = |q: f64| -> Vec<f64> {
            fixed.iter().flat_map(|f| f.segment_quantiles(q, load.segment_events)).collect()
        };
        let (p50s, p99s) = (segments(0.5), segments(0.99));
        let over = |v: &[f64]| interpolated_quantile(v, load.over_segments);
        let (p50, p99) = (over(&p50s), over(&p99s));
        let results: usize = fixed.iter().map(|f| f.latencies.len()).sum();
        let m = &mut self.metrics;
        m.set("throughput_meps", closed_eps / 1e6, "Mev/s");
        m.set("latency_p50_ms", p50, "ms");
        m.set("latency_p99_ms", p99, "ms");
        m.set("sustained_meps", sustained_eps / 1e6, "Mev/s");
        m.set("setup_s", setup_s, "s");
        m.set("peak_rss_mb", peak_rss_mb, "MiB");
        let round = |v: &[f64], k: f64| v.iter().map(|x| (x * k).round() / k).collect::<Vec<_>>();
        eprintln!(
            "throughput_meps {:.4} Mev/s (median of {} closed-loop runs: {:?})",
            closed_eps / 1e6,
            closed_samples.len(),
            round(&closed_samples.iter().map(|x| x / 1e6).collect::<Vec<_>>(), 100.0)
        );
        eprintln!(
            "latency_p50_ms {p50:.3} ms, latency_p99_ms {p99:.3} ms ({}-quantile over {} segments of \
             {} events in {} passes, n = {results} results at {:.3} Mev/s; segment p50 quartiles \
             {:.2}/{:.2} ms, p99 quartiles {:.2}/{:.2} ms)",
            load.over_segments,
            p50s.len(),
            load.segment_events,
            fixed.len(),
            load.fixed_rate / 1e6,
            quantile(&p50s, 0.25),
            quantile(&p50s, 0.75),
            quantile(&p99s, 0.25),
            quantile(&p99s, 0.75),
        );
        eprintln!(
            "sustained_meps {:.4} Mev/s (staircase on the ladder from {:.3} Mev/s in steps of x{}, \
             {} probes, p99 limit {} ms, lateness growth limit {} ms)",
            sustained_eps / 1e6,
            load.fixed_rate / 1e6,
            load.step,
            load.rounds * load.probes_per_round,
            load.p99_limit_ms,
            load.growth_limit_ms
        );
        eprintln!(
            "setup_s {setup_s:.6} s (median of each block of set-ups, mean over {} blocks)",
            load.rounds + 1
        );
        eprintln!(
            "peak_rss_mb {peak_rss_mb:.1} MiB (median over passes of VmHWM, reset before each: {:?})",
            round(peak_rss, 10.0)
        );
    }
}

/// Prints one open-loop pass's generator lateness and latency summary.
pub fn report_open_loop(label: &str, run: &OpenLoop) {
    let lat: Vec<f64> = run.latencies.iter().map(|l| l.1).collect();
    eprintln!(
        "{label}: {:.3} Mev/s offered, {} results, whole-pass latency p50 {:.3} ms p99 {:.3} ms, \
         gen late p99 {:.3} ms over {} batches",
        run.rate / 1e6,
        lat.len(),
        quantile(&lat, 0.5),
        quantile(&lat, 0.99),
        quantile(&run.gen_late_ms, 0.99),
        run.gen_late_ms.len()
    );
}

/// `query.lower_ms`, `core.compile_ms`, `runtime.start_ms` and
/// `server.start_ms`: mean time per set-up repetition.
pub fn setup_layer_metrics(m: &mut Metrics, spans: &[trace::Span], reps: usize) {
    for (span, metric) in [
        ("query.lower", "query.lower_ms"),
        ("core.compile", "core.compile_ms"),
        ("runtime.start", "runtime.start_ms"),
        ("server.start", "server.start_ms"),
    ] {
        let ns: u64 = spans.iter().filter(|s| s.name == span).map(|s| s.duration_ns()).sum();
        m.set(metric, ns as f64 / reps as f64 / 1e6, "ms");
    }
}

/// Batch-gate admission and fallback work of the compiled queries.
pub fn kernel_metrics(m: &mut Metrics, cqs: &[&CompiledQuery]) {
    let kernels: usize = cqs.iter().map(|q| q.num_kernels()).sum();
    let batched: usize = cqs.iter().map(|q| q.batched_kernels()).sum();
    m.set("core.batched_kernel_share", batched as f64 / kernels.max(1) as f64, "ratio");
    m.set("core.fallback_ops", cqs.iter().map(|q| q.fallback_ops()).sum::<u64>() as f64, "count");
}

fn num(x: f64) -> Json {
    Json::Num(if x.is_finite() { x } else { 0.0 })
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} ({} hardware threads)",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let out = match cfg.workload.as_str() {
        "ysb_batch" => ysb_batch::run(&cfg),
        "ysb_service" => ysb_service::run(&cfg),
        "sliding_wire" => sliding_wire::run(&cfg),
        _ => unreachable!("workload validated by parse_args"),
    };

    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = BTreeMap::new();
    for &(name, unit) in wanted {
        let value = match out.metrics.values.get(name) {
            Some(&(v, u)) => {
                assert_eq!(u, unit, "unit of {name}");
                v
            }
            // A layer this workload never calls into did no work.
            None if cfg.trace => 0.0,
            None => panic!("workload did not measure {name}"),
        };
        metrics.insert(
            name.to_owned(),
            Json::obj([("value", num(value)), ("unit", Json::from(unit))]),
        );
    }
    if cfg.trace {
        let dir = PathBuf::from(".perfbench_out");
        let spans_path = dir.join(format!("spans_{}_seed{}.jsonl", cfg.workload, cfg.seed));
        let table = trace::self_time_table(&out.spans);
        let table_path = dir.join(format!("self_time_{}_seed{}.txt", cfg.workload, cfg.seed));
        if let Err(e) =
            trace::write(&spans_path, &out.spans).and_then(|_| std::fs::write(&table_path, &table))
        {
            eprintln!("perfbench: cannot write trace output: {e}");
            std::process::exit(2);
        }
        eprintln!("{} spans written to {}", out.spans.len(), spans_path.display());
        eprint!("{table}");
        let ratio = out.metrics.values.get("trace.throughput_ratio").map_or(0.0, |x| x.0);
        eprintln!(
            "tracing overhead: traced / untraced closed-loop throughput = {ratio:.3} ({:+.1}%)",
            (ratio - 1.0) * 100.0
        );
        for &(name, unit) in PER_LAYER {
            let v = out.metrics.values.get(name).map_or(0.0, |x| x.0);
            eprintln!("  {name:<38} {v:>14.4} {unit}");
        }
    }
    eprintln!(
        "failed_frac {:.6} ({} of {} events not accounted for)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let result = Json::obj([
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{result}");
    if !out.correct {
        eprintln!("perfbench: output differs from the reference");
        std::process::exit(1);
    }
}
