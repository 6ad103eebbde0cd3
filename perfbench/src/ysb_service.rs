//! `ysb_service`: keyed YSB plus the correlated factor query on one
//! in-process `StreamService` — 1000 campaigns, 2 shards, bounded disorder
//! (`shuffle_bounded` displacement 512, allowed lateness 1026).
//!
//! One generator thread (the caller) ingests batches of keyed events; in
//! the open loop each batch goes out when its last event is due. The YSB
//! query streams to a sink that stamps every result on arrival; the factor
//! query's output is collected at shutdown. Both are checked against view
//! counts taken directly from the generated events.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tilt_core::{CompiledQuery, Compiler};
use tilt_data::{Event, Time, Value};
use tilt_obs::MetricsSnapshot;
use tilt_runtime::{QueryHandle, QuerySettings, RuntimeConfig, RuntimeStats, StreamService};
use tilt_workloads::ysb;

use crate::trace;
use crate::util::{
    mean, median, merged_histogram, passes_for, quantile, splitmix, timed, wait_until, LoadSpec,
    OpenLoop, Schedule, Staircase, CLOSED_SHARE, FIXED_SHARE, PROBE_SHARE,
};
use crate::{Cfg, Outcome};

const CAMPAIGNS: usize = 1000;
const SHARDS: usize = 2;
const DISPLACEMENT: usize = 512;
const LATENESS: i64 = 2 * DISPLACEMENT as i64 + 2;
/// 10 "seconds" at 10k events per second: 100k ticks, one event per tick.
const WINDOW: i64 = 100_000;
/// Inputs are whole factor windows, so both queries close every window.
const COARSE: usize = (ysb::FACTOR * WINDOW) as usize;
const BATCH: usize = 2048;
const CLOSED_EVENTS: usize = 4 * COARSE;
const SETUP_REPS: usize = 21;
/// Set-ups per round of the untraced run.
const SETUP_BLOCK: usize = 15;
/// Rough length of one closed-loop pass, for sizing the pass count.
const CLOSED_PASS_S: f64 = 0.9;

pub const LOAD: LoadSpec = LoadSpec {
    fixed_rate: 0.8e6,
    step: 1.05,
    p99_limit_ms: 2500.0,
    growth_limit_ms: 40.0,
    segment_events: COARSE as f64,
    over_segments: 0.5,
    rounds: 4,
    probes_per_round: 3,
    max_probe_events: 6.0 * COARSE as f64,
    start: 0.9,
};

type Sink = Arc<dyn Fn(u64, &[Event<Value>]) + Send + Sync>;

struct Service {
    svc: StreamService,
    factor: QueryHandle,
    cqs: [Arc<CompiledQuery>; 2],
}

/// lower + compile both queries, then start the service.
fn setup(sink: Sink) -> (Service, f64) {
    timed(|| {
        let (p1, o1) = ysb::plan(WINDOW);
        let (p2, o2) = ysb::factor_plan(WINDOW, ysb::FACTOR);
        let (q1, q2) = {
            let _s = trace::span("query.lower", 0);
            (
                tilt_query::lower(&p1, o1).expect("YSB lowers"),
                tilt_query::lower(&p2, o2).expect("factor lowers"),
            )
        };
        let cqs = {
            let _s = trace::span("core.compile", 0);
            let c = Compiler::new();
            [
                Arc::new(c.compile(&q1).expect("YSB compiles")),
                Arc::new(c.compile(&q2).expect("factor compiles")),
            ]
        };
        let _s = trace::span("runtime.start", 0);
        let mut b = StreamService::builder(RuntimeConfig {
            shards: SHARDS,
            allowed_lateness: LATENESS,
            emit_interval: WINDOW,
            ..RuntimeConfig::default()
        });
        b.register_with(Arc::clone(&cqs[0]), QuerySettings::with_sink(sink));
        let factor = b.register(Arc::clone(&cqs[1]));
        let svc = b.start().expect("both queries read the ad stream as Int");
        Service { svc, factor, cqs }
    })
}

/// One YSB result as the sink saw it.
struct Rec {
    key: u64,
    start: i64,
    end: i64,
    count: i64,
    at: Instant,
}

#[derive(Default)]
struct Pass {
    wall_s: f64,
    /// Peak resident set over the pass, in MiB.
    peak_rss_mb: f64,
    open: OpenLoop,
    ok: bool,
    failed: u64,
    ingest_us: Vec<f64>,
    finish_ms: f64,
    queue_max: usize,
    sink_events: u64,
    sink_calls: u64,
    stats: Option<RuntimeStats>,
    metrics: MetricsSnapshot,
}

/// One pass over `n` events (a multiple of [`COARSE`]): closed loop when
/// `rate` is `None`.
fn pass(n: usize, rate: Option<f64>, seed: u64, sample_queues: bool) -> Pass {
    crate::util::reset_peak_rss();
    let events =
        ysb::shuffle_bounded(&ysb::generate(n, CAMPAIGNS, seed), DISPLACEMENT, splitmix(seed));
    let windows = n / WINDOW as usize;
    let mut last = vec![usize::MAX; windows * CAMPAIGNS];
    let mut expected = vec![0i64; windows * CAMPAIGNS];
    for (i, e) in events.iter().enumerate() {
        let cell = ((e.time.ticks() - 1) / WINDOW) as usize * CAMPAIGNS + e.campaign as usize;
        last[cell] = i;
        if e.event_type == 0 {
            expected[cell] += 1;
        }
    }

    let recs = Arc::new(Mutex::new(Vec::<Rec>::with_capacity(windows * CAMPAIGNS)));
    let calls = Arc::new(AtomicU64::new(0));
    let sink: Sink = {
        let (recs, calls) = (Arc::clone(&recs), Arc::clone(&calls));
        Arc::new(move |key, evs: &[Event<Value>]| {
            let at = Instant::now();
            calls.fetch_add(1, Ordering::Relaxed);
            let mut r = recs.lock().expect("sink records lock");
            r.extend(evs.iter().map(|e| Rec {
                key,
                start: e.start.ticks(),
                end: e.end.ticks(),
                count: e.payload.as_i64().unwrap_or(0),
                at,
            }));
        })
    };
    let (service, _) = setup(sink);
    let mut p = Pass { ok: true, ..Pass::default() };
    p.open.rate = rate.unwrap_or(0.0);

    let sched = Schedule::new(rate);
    for (b, chunk) in events.chunks(BATCH).enumerate() {
        if rate.is_some() {
            p.open.gen_late_ms.push(wait_until(sched.due(b * BATCH + chunk.len() - 1)));
        }
        let keyed = {
            let _s = trace::span("gen.batch", b as u64);
            ysb::keyed(chunk)
        };
        let t = Instant::now();
        {
            let _s = trace::span("runtime.ingest", b as u64);
            service.svc.ingest(keyed);
        }
        p.ingest_us.push(t.elapsed().as_secs_f64() * 1e6);
        if sample_queues && b % 4 == 0 {
            p.queue_max = p.queue_max.max(service.svc.stats().queue_depths.iter().sum());
        }
    }
    let finish_start = Instant::now();
    let output = {
        let _s = trace::span("runtime.finish", 0);
        service.svc.finish_at(Time::new(n as i64))
    };
    let done = Instant::now();
    p.finish_ms = (done - finish_start).as_secs_f64() * 1e3;
    p.wall_s = (done - sched.t0).as_secs_f64();
    p.peak_rss_mb = crate::util::peak_rss_mb();

    let st = &output.stats;
    let dropped = st.late_dropped + st.backstop_dropped + st.quarantine_dropped + st.detach_dropped;
    p.failed = (n as u64).saturating_sub(st.events_in) + dropped;
    if st.events_in != n as u64 || dropped != 0 {
        eprintln!("ysb_service: events_in {} of {n} sent, {dropped} dropped", st.events_in);
        p.ok = false;
    }

    // YSB: every (campaign, window) count, each received once.
    let recs = std::mem::take(&mut *recs.lock().expect("sink records lock"));
    p.sink_events = recs.len() as u64;
    p.sink_calls = calls.load(Ordering::Relaxed);
    let mut got = vec![None::<i64>; windows * CAMPAIGNS];
    let mut bad = 0usize;
    for r in &recs {
        if r.start % WINDOW != 0
            || r.end % WINDOW != 0
            || r.end as usize > n
            || r.key as usize >= CAMPAIGNS
        {
            bad += 1;
            continue;
        }
        for w in (r.start / WINDOW) as usize..(r.end / WINDOW) as usize {
            let cell = w * CAMPAIGNS + r.key as usize;
            if got[cell].replace(r.count).is_some() {
                bad += 1;
            }
            // Results the final flush releases measure the end of the
            // input, not the service: they are checked but not timed.
            if let (Some(rate), true) = (rate, r.at < finish_start) {
                if last[cell] != usize::MAX {
                    p.open
                        .latencies
                        .push((last[cell] as f64 / rate, sched.since_due_ms(last[cell], r.at)));
                }
            }
        }
    }
    let wrong = got.iter().zip(&expected).filter(|(g, e)| g.unwrap_or(0) != **e).count();
    // Factor: the peak window count per campaign and coarse window.
    let coarse = ysb::FACTOR as usize;
    let mut fwrong = 0usize;
    let mut fgot = vec![None::<i64>; (windows / coarse) * CAMPAIGNS];
    for (&key, evs) in &output.per_query[service.factor.index()] {
        for e in evs {
            let (a, b) = (e.start.ticks(), e.end.ticks());
            let cw = COARSE as i64;
            if a % cw != 0 || b % cw != 0 || b as usize > n || key as usize >= CAMPAIGNS {
                fwrong += 1;
                continue;
            }
            for j in (a / cw) as usize..(b / cw) as usize {
                if fgot[j * CAMPAIGNS + key as usize]
                    .replace(e.payload.as_i64().unwrap_or(0))
                    .is_some()
                {
                    fwrong += 1;
                }
            }
        }
    }
    for (cell, g) in fgot.iter().enumerate() {
        let (j, k) = (cell / CAMPAIGNS, cell % CAMPAIGNS);
        let peak =
            (j * coarse..(j + 1) * coarse).map(|w| expected[w * CAMPAIGNS + k]).max().unwrap_or(0);
        if g.unwrap_or(0) != peak {
            fwrong += 1;
        }
    }
    if bad + wrong + fwrong > 0 {
        eprintln!(
            "ysb_service: {bad} malformed or duplicate YSB results, {wrong} wrong YSB counts, \
             {fwrong} wrong factor peaks"
        );
        p.ok = false;
    }
    p.metrics = output.metrics;
    p.stats = Some(output.stats);
    p
}

/// `n` rounded to whole coarse windows, at least one.
fn coarse_events(n: f64) -> usize {
    ((n / COARSE as f64).round() as usize).max(1) * COARSE
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let noop: Sink = Arc::new(|_, _| {});
    let mut cqs = None;
    // The median time of `reps` set-ups.
    let mut setup_block = |reps: usize| {
        let mut secs = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (s, t) = setup(Arc::clone(&noop));
            secs.push(t);
            cqs = Some(s.cqs.clone());
            let _ = s.svc.finish();
        }
        median(&secs)
    };
    trace::set_enabled(cfg.trace);
    // The untraced run adds a block of set-ups in every round.
    let mut setup_blocks = vec![setup_block(SETUP_REPS)];
    trace::set_enabled(false);
    let setup_spans = trace::take();
    let budget = cfg.seconds;
    let mut seq = 0u64;
    let mut next_seed = || {
        seq += 1;
        splitmix(cfg.seed.wrapping_mul(1000).wrapping_add(seq))
    };
    let account = |out: &mut Outcome, p: &Pass, n: usize| {
        out.attempted += n as u64;
        out.failed += p.failed;
        out.correct &= p.ok;
    };

    // The YSB query's results leave two factor windows behind the input,
    // so an open-loop pass spans at least three.
    let fixed_n =
        coarse_events(LOAD.fixed_rate * budget * FIXED_SHARE / LOAD.rounds as f64).max(3 * COARSE);

    // Warm-up, untimed: one fixed-rate pass, then one closed pass. The
    // fixed-rate pass comes right after the set-ups and gives
    // `peak_rss_mb`, with the same history in every run.
    let w = pass(fixed_n, Some(LOAD.fixed_rate), next_seed(), false);
    account(&mut out, &w, fixed_n);
    let peak_rss = [w.peak_rss_mb];
    let w = pass(2 * COARSE, None, next_seed(), false);
    account(&mut out, &w, 2 * COARSE);

    // Closed-loop passes for `share` of the budget, at least one.
    let closed = |share: f64, out: &mut Outcome, seed: &mut dyn FnMut() -> u64| {
        let mut passes = Vec::new();
        for _ in 0..passes_for(budget * share, CLOSED_PASS_S) {
            let p = pass(CLOSED_EVENTS, None, seed(), false);
            account(out, &p, CLOSED_EVENTS);
            passes.push(p);
        }
        passes
    };

    if !cfg.trace {
        let (mut thr, mut fixed) = (Vec::new(), Vec::new());
        let mut stairs = None;
        for _ in 0..LOAD.rounds {
            setup_blocks.push(setup_block(SETUP_BLOCK));
            let passes = closed(CLOSED_SHARE / LOAD.rounds as f64, &mut out, &mut next_seed);
            thr.extend(passes.iter().map(|p| CLOSED_EVENTS as f64 / p.wall_s));
            let p = pass(fixed_n, Some(LOAD.fixed_rate), next_seed(), false);
            account(&mut out, &p, fixed_n);
            crate::report_open_loop("fixed rate", &p.open);
            fixed.push(p.open);
            let st = stairs.get_or_insert_with(|| Staircase::new(&LOAD, median(&thr) * LOAD.start));
            for _ in 0..LOAD.probes_per_round {
                let n = coarse_events(LOAD.probe_events(st.rate(), budget * PROBE_SHARE))
                    .max(3 * COARSE);
                let p = pass(n, Some(st.rate()), next_seed(), false);
                account(&mut out, &p, n);
                st.record(&p.open);
            }
        }
        let sustained = stairs.expect("at least one round").result();
        out.set_e2e(&thr, &fixed, &LOAD, sustained, mean(&setup_blocks), &peak_rss);
    } else {
        // Plain and traced passes alternate, so drift of the shared machine
        // does not read as tracing overhead.
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..passes_for(budget * CLOSED_SHARE / 2.0, CLOSED_PASS_S).max(2) {
            for on in [false, true] {
                trace::set_enabled(on);
                let p = pass(CLOSED_EVENTS, None, next_seed(), false);
                account(&mut out, &p, CLOSED_EVENTS);
                if on {
                    traced.push(p)
                } else {
                    plain.push(p)
                }
            }
        }
        let fixed = pass(fixed_n, Some(LOAD.fixed_rate), next_seed(), true);
        account(&mut out, &fixed, fixed_n);
        trace::set_enabled(false);
        let thr = |ps: &[Pass]| {
            median(&ps.iter().map(|p| CLOSED_EVENTS as f64 / p.wall_s).collect::<Vec<_>>())
        };

        let c = traced.last().expect("at least two traced passes");
        let cs = c.stats.as_ref().expect("pass stats");
        let fs = fixed.stats.as_ref().expect("pass stats");
        let m = &mut out.metrics;
        crate::setup_layer_metrics(m, &setup_spans, SETUP_REPS);
        let cqs = cqs.expect("setup ran");
        crate::kernel_metrics(m, &[&cqs[0], &cqs[1]]);
        m.set("runtime.ingest_ms", c.ingest_us.iter().sum::<f64>() / 1e3, "ms");
        m.set("runtime.ingest_call_p99_us", quantile(&fixed.ingest_us, 0.99), "us");
        m.set(
            "runtime.advance_busy_ms",
            merged_histogram(&c.metrics, "tilt_advance_ns").sum as f64 / 1e6,
            "ms",
        );
        m.set(
            "runtime.advance_p99_us",
            merged_histogram(&fixed.metrics, "tilt_advance_ns").p99() as f64 / 1e3,
            "us",
        );
        m.set(
            "runtime.flush_ms",
            merged_histogram(&c.metrics, "tilt_flush_ns").sum as f64 / 1e6,
            "ms",
        );
        m.set("runtime.finish_ms", c.finish_ms, "ms");
        m.set("runtime.queue_depth_max", fixed.queue_max as f64, "count");
        m.set(
            "runtime.reorder_residency_p99_ticks",
            merged_histogram(&fixed.metrics, "tilt_reorder_residency_ticks").p99() as f64,
            "ticks",
        );
        m.set(
            "runtime.watermark_lag_p99_ticks",
            merged_histogram(&fixed.metrics, "tilt_watermark_lag_ticks").p99() as f64,
            "ticks",
        );
        m.set(
            "runtime.kernels_run_per_kevent",
            cs.kernels_run as f64 / (CLOSED_EVENTS as f64 / 1e3),
            "1/kev",
        );
        m.set(
            "runtime.kernels_saved_share",
            cs.kernels_saved as f64 / (cs.kernels_run + cs.kernels_saved).max(1) as f64,
            "ratio",
        );
        m.set(
            "runtime.sink_events_per_call",
            fixed.sink_events as f64 / fixed.sink_calls.max(1) as f64,
            "count",
        );
        let late: u64 = traced
            .iter()
            .chain(&plain)
            .filter_map(|p| p.stats.as_ref())
            .map(|s| s.late_dropped)
            .sum();
        m.set("runtime.late_dropped", (late + fs.late_dropped) as f64, "count");
        m.set("gen.late_p99_ms", quantile(&fixed.open.gen_late_ms, 0.99), "ms");
        m.set("trace.throughput_ratio", thr(&traced) / thr(&plain), "ratio");
        let mut all = setup_spans;
        all.extend(trace::take());
        out.spans = all;
    }
    out
}
