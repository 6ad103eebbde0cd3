//! `sliding_wire`: an 8-tick sliding `Sum` with per-tick output over 64
//! keys interleaved in time order, served by `tilt-server` on loopback
//! with 2 shards, one producer connection and one subscriber connection.
//!
//! Every key has one event per tick, so the query produces one result per
//! input. Values are multiples of 0.25, so every sum is exact. The
//! generator (the caller) sends batches over the producer connection; in
//! the open loop each batch goes out when its last event is due. A
//! subscriber thread stamps each result on arrival and checks it against
//! the sum taken directly from the generated values.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use tilt_core::ir::DataType;
use tilt_core::{CompiledQuery, Compiler};
use tilt_data::{Event, Time, Value};
use tilt_obs::HistogramSnapshot;
use tilt_query::{Agg, LogicalPlan};
use tilt_runtime::{KeyedEvent, RuntimeConfig};
use tilt_server::{Client, IngestReport, RemoteQuery, Server, Subscription};

use crate::trace;
use crate::util::{
    mean, median, passes_for, quantile, splitmix, timed, wait_until, LoadSpec, OpenLoop, Schedule,
    Staircase, CLOSED_SHARE, FIXED_SHARE, PROBE_SHARE,
};
use crate::{Cfg, Outcome};

const KEYS: usize = 64;
const WINDOW: i64 = 8;
const SHARDS: usize = 2;
const BATCH: usize = 1024;
const CLOSED_TICKS: usize = 40_000;
const SETUP_REPS: usize = 21;
/// Set-ups per round of the untraced run.
const SETUP_BLOCK: usize = 15;
/// Rough length of one closed-loop pass, for sizing the pass count.
const CLOSED_PASS_S: f64 = 1.0;
/// Values are `q × 0.25` with `q` in `0..64`.
const QUANTUM: f64 = 0.25;

pub const LOAD: LoadSpec = LoadSpec {
    fixed_rate: 0.5e6,
    step: 1.05,
    p99_limit_ms: 25.0,
    growth_limit_ms: 5.0,
    segment_events: 100_000.0,
    // About eight threads share the few cores, so the latency of whole
    // spells of segments follows other tenants' load, which only ever
    // adds to it: the quieter quarter of the segments is the program's.
    over_segments: 0.25,
    rounds: 6,
    probes_per_round: 2,
    max_probe_events: 4.0e6,
    start: 0.9,
};

struct Wire {
    server: Server,
    producer: Client,
    /// Keeps the subscriber connection open.
    consumer: Client,
    sub: Subscription,
    cq: Arc<CompiledQuery>,
}

/// lower + compile, then `Server::start`, two client connects, attach and
/// subscribe.
fn setup() -> (Wire, f64) {
    timed(|| {
        let mut plan = LogicalPlan::new();
        let src = plan.source("x", DataType::Float);
        let sum = plan.window(src, WINDOW, 1, Agg::Sum);
        let q = {
            let _s = trace::span("query.lower", 0);
            tilt_query::lower(&plan, sum).expect("sliding sum lowers")
        };
        let cq = {
            let _s = trace::span("core.compile", 0);
            Arc::new(Compiler::new().compile(&q).expect("sliding sum compiles"))
        };
        let server = {
            let _s = trace::span("server.start", 0);
            let config = RuntimeConfig { shards: SHARDS, ..RuntimeConfig::default() };
            Server::start(config, vec![("sliding_sum".into(), Arc::clone(&cq))])
                .expect("server starts")
        };
        let _s = trace::span("server.connect", 0);
        let producer = Client::connect(server.addr()).expect("producer connects");
        let consumer = Client::connect(server.addr()).expect("subscriber connects");
        let query: RemoteQuery = producer.attach("sliding_sum", None, None).expect("attach");
        let sub = consumer.subscribe(query).expect("subscribe");
        Wire { server, producer, consumer, sub, cq }
    })
}

/// What the subscriber thread saw.
#[derive(Default)]
struct Received {
    /// The sum received for each input position (`(tick - 1) × KEYS + key`).
    got: Vec<f64>,
    seen: Vec<u8>,
    out_of_range: usize,
    latencies: Vec<(f64, f64)>,
    last_at: Option<Instant>,
    wait_ns: u64,
    busy_ns: u64,
}

/// Records and stamps every result until the stream ends. Results that
/// arrive once `closing` is set come from the final flush: they are
/// checked but not timed.
fn subscribe_loop(
    sub: Subscription,
    n: usize,
    sched: Arc<OnceLock<Schedule>>,
    closing: Arc<AtomicBool>,
    rate: Option<f64>,
) -> Received {
    let mut r = Received { got: vec![0.0; n], seen: vec![0; n], ..Received::default() };
    loop {
        let t = Instant::now();
        let item = {
            let _s = trace::span("server.subscriber_wait", 0);
            sub.next()
        };
        let at = Instant::now();
        r.wait_ns += (at - t).as_nanos() as u64;
        let Some((key, events)) = item else { break };
        let _s = trace::span("server.subscriber_busy", key);
        let sched = sched.get().copied().filter(|_| !closing.load(Ordering::Acquire));
        for e in &events {
            let v = e.payload.as_f64().unwrap_or(f64::NAN);
            for tick in e.start.ticks() + 1..=e.end.ticks() {
                let i = (tick - 1) as usize * KEYS + key as usize;
                if tick < 1 || key as usize >= KEYS || i >= n {
                    r.out_of_range += 1;
                    continue;
                }
                r.got[i] = v;
                r.seen[i] = r.seen[i].saturating_add(1);
                if let (Some(rate), Some(s)) = (rate, sched) {
                    r.latencies.push((i as f64 / rate, s.since_due_ms(i, at)));
                }
            }
        }
        r.last_at = Some(at);
        r.busy_ns += at.elapsed().as_nanos() as u64;
    }
    r
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
    report: IngestReport,
    stat: Vec<(String, i64)>,
    advance_ns: Option<HistogramSnapshot>,
    wait_ms: f64,
    busy_ms: f64,
}

impl Pass {
    fn stat(&self, name: &str) -> i64 {
        self.stat.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }
}

/// One pass over `ticks × KEYS` events: closed loop when `rate` is `None`.
fn pass(ticks: usize, rate: Option<f64>, seed: u64) -> Pass {
    crate::util::reset_peak_rss();
    let n = ticks * KEYS;
    let q: Vec<u8> = (0..n as u64)
        .map(|i| (splitmix(seed ^ i.wrapping_mul(0x100_0000_01B3)) % 64) as u8)
        .collect();
    let (wire, _) = setup();
    let Wire { server, producer, consumer, sub, cq: _ } = wire;
    let sched_cell = Arc::new(OnceLock::new());
    let closing = Arc::new(AtomicBool::new(false));
    let subscriber = {
        let (sched_cell, closing) = (Arc::clone(&sched_cell), Arc::clone(&closing));
        std::thread::spawn(move || subscribe_loop(sub, n, sched_cell, closing, rate))
    };
    let mut p = Pass { ok: true, ..Pass::default() };
    p.open.rate = rate.unwrap_or(0.0);
    let sched = Schedule::new(rate);
    let _ = sched_cell.set(sched);
    for (b, lo) in (0..n).step_by(BATCH).enumerate() {
        let hi = (lo + BATCH).min(n);
        if rate.is_some() {
            p.open.gen_late_ms.push(wait_until(sched.due(hi - 1)));
        }
        let batch: Vec<KeyedEvent> = {
            let _s = trace::span("gen.batch", b as u64);
            (lo..hi)
                .map(|i| {
                    let tick = Time::new((i / KEYS) as i64 + 1);
                    KeyedEvent::new(
                        (i % KEYS) as u64,
                        0,
                        Event::point(tick, Value::Float(q[i] as f64 * QUANTUM)),
                    )
                })
                .collect()
        };
        let t = Instant::now();
        let rep = {
            let _s = trace::span("server.client_ingest", b as u64);
            producer.ingest(batch).expect("ingest over loopback")
        };
        p.ingest_us.push(t.elapsed().as_secs_f64() * 1e6);
        p.report.events += rep.events;
        p.report.frames += rep.frames;
        p.report.busy += rep.busy;
    }
    closing.store(true, Ordering::Release);
    {
        let _s = trace::span("server.shutdown", 0);
        producer.shutdown(Some(Time::new(ticks as i64))).expect("shutdown");
    }
    let r = subscriber.join().expect("subscriber thread panicked");
    p.stat = producer.stats().expect("final stats").fields;
    p.advance_ns =
        Some(parse_histogram(&producer.metrics_text().expect("metrics scrape"), "tilt_advance_ns"));
    drop((producer, consumer));
    server.stop();
    p.wall_s = r.last_at.map_or(f64::NAN, |at| (at - sched.t0).as_secs_f64());
    p.peak_rss_mb = crate::util::peak_rss_mb();
    p.wait_ms = r.wait_ns as f64 / 1e6;
    p.busy_ms = r.busy_ns as f64 / 1e6;

    let dropped =
        p.stat("late_dropped") + p.stat("backstop_dropped") + p.stat("quarantine_dropped");
    let events_in = p.stat("events_in");
    p.failed = (n as i64 - events_in).max(0) as u64 + dropped as u64;
    let decode_errors = p.stat("decode_errors");
    // Direct per-(key, tick) sliding sums, in quanta.
    let mut wrong = 0usize;
    let mut missing_or_dup = 0usize;
    for key in 0..KEYS {
        let mut acc = 0i64;
        for tick in 0..ticks {
            let i = tick * KEYS + key;
            acc += q[i] as i64;
            if tick >= WINDOW as usize {
                acc -= q[i - WINDOW as usize * KEYS] as i64;
            }
            if r.seen[i] != 1 {
                missing_or_dup += 1;
            } else if r.got[i] != acc as f64 * QUANTUM {
                wrong += 1;
            }
        }
    }
    if events_in != n as i64
        || dropped != 0
        || decode_errors != 0
        || wrong + missing_or_dup + r.out_of_range > 0
    {
        eprintln!(
            "sliding_wire: events_in {events_in} of {n}, {dropped} dropped, {decode_errors} decode errors, \
             {wrong} wrong sums, {missing_or_dup} missing or repeated results, {} out of range",
            r.out_of_range
        );
        p.ok = false;
    }
    p.open.latencies = r.latencies;
    p
}

/// Merges one histogram's series across label sets from Prometheus text.
fn parse_histogram(text: &str, name: &str) -> HistogramSnapshot {
    let prefix = format!("{name}_bucket{{");
    let mut h = HistogramSnapshot { buckets: vec![0; 65], sum: 0, max: 0 };
    let mut prev_cum = 0u64;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(&prefix) {
            let Some((labels, value)) = rest.rsplit_once("} ") else { continue };
            let cum: u64 = value.trim().parse().unwrap_or(0);
            let le = labels
                .split(',')
                .find_map(|l| l.strip_prefix("le=\""))
                .map(|l| l.trim_end_matches('"'));
            match le {
                Some("+Inf") => prev_cum = 0,
                Some(le) => {
                    // Bucket `i` holds values up to `2^i - 1`.
                    let upper: u64 = le.parse().unwrap_or(0);
                    let i = upper.checked_add(1).map_or(64, |x| x.trailing_zeros() as usize);
                    h.buckets[i] += cum - prev_cum.min(cum);
                    h.max = h.max.max(upper);
                    prev_cum = cum;
                }
                None => {}
            }
        } else if let Some(rest) = line.strip_prefix(&format!("{name}_sum")) {
            h.sum += rest.rsplit(' ').next().and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        }
    }
    h
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let mut cq = None;
    // The median time of `reps` set-ups.
    let mut setup_block = |reps: usize| {
        let mut secs = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (w, t) = setup();
            secs.push(t);
            cq = Some(Arc::clone(&w.cq));
            w.producer.shutdown(None).expect("shutdown");
            drop(w.sub);
            w.server.stop();
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
    let account = |out: &mut Outcome, p: &Pass, ticks: usize| {
        out.attempted += (ticks * KEYS) as u64;
        out.failed += p.failed;
        out.correct &= p.ok;
    };
    let ticks_for = |rate: f64, secs: f64| ((rate * secs) as usize / KEYS).max(1000);

    let fixed_ticks = ticks_for(LOAD.fixed_rate, budget * FIXED_SHARE / LOAD.rounds as f64);

    // Warm-up, untimed: one fixed-rate pass, then one closed pass. The
    // fixed-rate pass comes right after the set-ups and gives
    // `peak_rss_mb`: the process keeps resident memory that earlier passes
    // used, so only the first pass has the same history in every run.
    let w = pass(fixed_ticks, Some(LOAD.fixed_rate), next_seed());
    account(&mut out, &w, fixed_ticks);
    let peak_rss = [w.peak_rss_mb];
    let w = pass(CLOSED_TICKS / 2, None, next_seed());
    account(&mut out, &w, CLOSED_TICKS / 2);

    // Closed-loop passes for `share` of the budget, at least one.
    let closed = |share: f64, out: &mut Outcome, seed: &mut dyn FnMut() -> u64| {
        let mut passes = Vec::new();
        for _ in 0..passes_for(budget * share, CLOSED_PASS_S) {
            let p = pass(CLOSED_TICKS, None, seed());
            account(out, &p, CLOSED_TICKS);
            passes.push(p);
        }
        passes
    };
    let thr = |ps: &[Pass]| {
        ps.iter().map(|p| (CLOSED_TICKS * KEYS) as f64 / p.wall_s).collect::<Vec<_>>()
    };

    if !cfg.trace {
        let (mut samples, mut fixed) = (Vec::new(), Vec::new());
        let mut stairs = None;
        for _ in 0..LOAD.rounds {
            setup_blocks.push(setup_block(SETUP_BLOCK));
            let passes = closed(CLOSED_SHARE / LOAD.rounds as f64, &mut out, &mut next_seed);
            samples.extend(thr(&passes));
            let p = pass(fixed_ticks, Some(LOAD.fixed_rate), next_seed());
            account(&mut out, &p, fixed_ticks);
            crate::report_open_loop("fixed rate", &p.open);
            fixed.push(p.open);
            let st =
                stairs.get_or_insert_with(|| Staircase::new(&LOAD, median(&samples) * LOAD.start));
            for _ in 0..LOAD.probes_per_round {
                let t = ticks_for(LOAD.probe_events(st.rate(), budget * PROBE_SHARE), 1.0);
                let p = pass(t, Some(st.rate()), next_seed());
                account(&mut out, &p, t);
                st.record(&p.open);
            }
        }
        let sustained = stairs.expect("at least one round").result();
        out.set_e2e(&samples, &fixed, &LOAD, sustained, mean(&setup_blocks), &peak_rss);
    } else {
        // Plain and traced passes alternate, so drift of the shared machine
        // does not read as tracing overhead.
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..passes_for(budget * CLOSED_SHARE / 2.0, CLOSED_PASS_S).max(2) {
            for on in [false, true] {
                trace::set_enabled(on);
                let p = pass(CLOSED_TICKS, None, next_seed());
                account(&mut out, &p, CLOSED_TICKS);
                if on {
                    traced.push(p)
                } else {
                    plain.push(p)
                }
            }
        }
        let fixed = pass(fixed_ticks, Some(LOAD.fixed_rate), next_seed());
        account(&mut out, &fixed, fixed_ticks);
        trace::set_enabled(false);

        let c = traced.last().expect("at least two traced passes");
        let n = (CLOSED_TICKS * KEYS) as f64;
        let m = &mut out.metrics;
        crate::setup_layer_metrics(m, &setup_spans, SETUP_REPS);
        let cq = cq.expect("setup ran");
        crate::kernel_metrics(m, &[&cq]);
        let adv = |p: &Pass| p.advance_ns.clone().expect("scraped after every pass");
        m.set("runtime.advance_busy_ms", adv(c).sum as f64 / 1e6, "ms");
        m.set("runtime.advance_p99_us", adv(&fixed).p99() as f64 / 1e3, "us");
        let late: i64 =
            traced.iter().chain(&plain).chain([&fixed]).map(|p| p.stat("late_dropped")).sum();
        m.set("runtime.late_dropped", late as f64, "count");
        m.set("server.client_ingest_ms", c.ingest_us.iter().sum::<f64>() / 1e3, "ms");
        m.set("server.ingest_call_p99_us", quantile(&fixed.ingest_us, 0.99), "us");
        m.set("server.busy_share", c.report.busy as f64 / c.report.frames.max(1) as f64, "ratio");
        m.set("server.credit_stalls", c.stat("credit_stalls") as f64, "count");
        m.set("server.bytes_in_per_event", c.stat("bytes_in") as f64 / n, "B");
        m.set("server.bytes_out_per_result", c.stat("bytes_out") as f64 / n, "B");
        m.set("server.frames_out_per_kresult", c.stat("frames_out") as f64 / (n / 1e3), "1/kres");
        m.set("server.subscriber_wait_ms", c.wait_ms, "ms");
        m.set("server.subscriber_busy_ms", c.busy_ms, "ms");
        let decode: i64 =
            traced.iter().chain(&plain).chain([&fixed]).map(|p| p.stat("decode_errors")).sum();
        m.set("server.decode_errors", decode as f64, "count");
        m.set("gen.late_p99_ms", quantile(&fixed.open.gen_late_ms, 0.99), "ms");
        m.set("trace.throughput_ratio", median(&thr(&traced)) / median(&thr(&plain)), "ratio");
        let mut all = setup_spans;
        all.extend(trace::take());
        out.spans = all;
    }
    out
}
