//! `ysb_batch`: one-shot YSB (Where → tumbling Count) over a flat in-order
//! ad stream, 100 campaigns, 2 workers — the paper's Table 1 path.
//!
//! Each run goes from the flat `YsbEvent` slice through
//! `ysb::partition`, `SnapshotBuf::from_events` and `CompiledQuery::run`
//! to per-(campaign, window) counts, checked against counts taken
//! directly from the generated events. The closed loop runs the whole
//! input as one batch. The open loop feeds the same pipeline one window
//! of events at a time, each batch handed over when its last event is
//! due.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tilt_core::{CompiledQuery, Compiler};
use tilt_data::{SnapshotBuf, Time, TimeRange};
use tilt_workloads::ysb::{self, YsbEvent};

use crate::trace;
use crate::util::{
    mean, median, passes_for, quantile, splitmix, timed, wait_until_spinning, LoadSpec, OpenLoop,
    Schedule, Staircase, CLOSED_SHARE, FIXED_SHARE, PROBE_SHARE,
};
use crate::{Cfg, Outcome};

const CAMPAIGNS: usize = 100;
const WORKERS: usize = 2;
/// 10 "seconds" at 10k events per second: 100k ticks, one event per tick.
/// The open loop hands over one window per batch.
const WINDOW: i64 = 100_000;
/// Closed-loop input: 20 windows.
const CLOSED_EVENTS: usize = 2_000_000;
const SETUP_REPS: usize = 201;
/// Set-ups per round of the untraced run.
const SETUP_BLOCK: usize = 51;
/// Rough length of one closed-loop run, for sizing the run count.
const CLOSED_PASS_S: f64 = 0.3;

pub const LOAD: LoadSpec = LoadSpec {
    fixed_rate: 4.0e6,
    step: 1.05,
    p99_limit_ms: 50.0,
    growth_limit_ms: 10.0,
    // One batch: a segment's p99 is then the typical batch's, not the
    // worst of several batches, which follows the shared machine's
    // stalls.
    segment_events: 100_000.0,
    over_segments: 0.5,
    rounds: 12,
    probes_per_round: 1,
    // Probes cycle through pooled windows, so their memory does not grow.
    max_probe_events: f64::INFINITY,
    // One-window micro-batches run well above the one-shot run over the
    // whole input.
    start: 1.7,
};

/// Lowers and compiles the YSB query.
fn setup() -> (CompiledQuery, f64) {
    timed(|| {
        let (plan, out) = ysb::plan(WINDOW);
        let q = {
            let _s = trace::span("query.lower", 0);
            tilt_query::lower(&plan, out).expect("YSB lowers")
        };
        let _s = trace::span("core.compile", 0);
        Compiler::new().compile(&q).expect("YSB compiles")
    })
}

/// What one pipeline run produced.
struct Batch {
    /// `counts[campaign][window]` as materialized from the output.
    counts: Vec<Vec<i64>>,
    /// When each campaign's counts were materialized: its results are
    /// ready then, whatever the other partitions are doing.
    ready: Vec<Option<Instant>>,
    /// Output spans that did not sit on the window grid.
    misaligned: usize,
    spans_in: usize,
    spans_out: usize,
    straggler_ns: u64,
}

/// partition → per-partition snapshot build, kernel, materialize, on
/// `workers` threads (inline for one worker).
fn pipeline(
    cq: &CompiledQuery,
    events: &[YsbEvent],
    range: TimeRange,
    workers: usize,
    req: u64,
) -> Batch {
    let rep = trace::span("bench.pipeline", req);
    let rep_id = rep.id();
    let windows = ((range.end.ticks() - range.start.ticks()) / WINDOW) as usize;
    let parts = {
        let _s = trace::child_of(rep_id, "workloads.partition", req);
        ysb::partition(events, CAMPAIGNS)
    };
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(CAMPAIGNS));
    let work = || {
        let mut local = Vec::new();
        let (mut spans_in, mut spans_out, mut misaligned) = (0, 0, 0);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= parts.len() {
                break;
            }
            let preq = req * 1024 + i as u64;
            let buf = {
                let _s = trace::child_of(rep_id, "data.snapshot_build", preq);
                SnapshotBuf::from_events(&parts[i], range)
            };
            let out = {
                let _s = trace::child_of(rep_id, "core.kernel", preq);
                cq.run(&[&buf], range)
            };
            let _s = trace::child_of(rep_id, "data.materialize", preq);
            let mut counts = vec![0i64; windows];
            for (r, v) in out.iter() {
                let (a, b) =
                    (r.start.ticks() - range.start.ticks(), r.end.ticks() - range.start.ticks());
                if a % WINDOW != 0 || b % WINDOW != 0 || b as usize > windows * WINDOW as usize {
                    misaligned += 1;
                    continue;
                }
                for w in (a / WINDOW)..(b / WINDOW) {
                    counts[w as usize] = v.as_i64().unwrap_or(0);
                }
            }
            spans_in += buf.len();
            spans_out += out.len();
            local.push((i, counts, Instant::now()));
        }
        let mut r = results.lock().expect("results lock");
        r.extend(local);
        (spans_in, spans_out, misaligned, Instant::now())
    };
    let ends: Vec<(usize, usize, usize, Instant)> = if workers <= 1 {
        vec![work()]
    } else {
        // The calling thread is one of the workers.
        std::thread::scope(|s| {
            let hs: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
            let mut ends = vec![work()];
            ends.extend(hs.into_iter().map(|h| h.join().expect("YSB worker panicked")));
            ends
        })
    };
    let mut counts = vec![Vec::new(); CAMPAIGNS];
    let mut ready = vec![None; CAMPAIGNS];
    for (i, c, at) in results.into_inner().expect("results lock") {
        counts[i] = c;
        ready[i] = Some(at);
    }
    let first = ends.iter().map(|e| e.3).min().expect("at least one worker");
    let last = ends.iter().map(|e| e.3).max().expect("at least one worker");
    Batch {
        counts,
        ready,
        misaligned: ends.iter().map(|e| e.2).sum(),
        spans_in: ends.iter().map(|e| e.0).sum(),
        spans_out: ends.iter().map(|e| e.1).sum(),
        straggler_ns: (last - first).as_nanos() as u64,
    }
}

/// Direct view counts per campaign and window of `range`.
fn reference(events: &[YsbEvent], range: TimeRange) -> Vec<Vec<i64>> {
    let windows = ((range.end.ticks() - range.start.ticks()) / WINDOW) as usize;
    let mut exp = vec![vec![0i64; windows]; CAMPAIGNS];
    for e in events.iter().filter(|e| e.event_type == 0) {
        exp[e.campaign as usize][((e.time.ticks() - 1 - range.start.ticks()) / WINDOW) as usize] +=
            1;
    }
    exp
}

fn matches(batch: &Batch, expected: &[Vec<i64>]) -> bool {
    batch.misaligned == 0 && batch.counts == expected
}

fn range_of(first_window: usize, windows: usize) -> TimeRange {
    let a = first_window as i64 * WINDOW;
    TimeRange::new(Time::new(a), Time::new(a + windows as i64 * WINDOW))
}

/// One closed-loop run over the whole input: (events/s, batch).
fn closed(cq: &CompiledQuery, events: &[YsbEvent], workers: usize, req: u64) -> (f64, Batch) {
    let range = range_of(0, events.len() / WINDOW as usize);
    let (batch, secs) = timed(|| pipeline(cq, events, range, workers, req));
    (events.len() as f64 / secs, batch)
}

/// The open loop spins through this much of each wait, so the thread
/// that hands a batch over is already running when the batch is due:
/// waking a sleeping one on a shared machine takes a varying while.
const SPIN: Duration = Duration::from_millis(1);

/// Distinct windows an open-loop pass draws its batches from; longer
/// passes cycle through them, so memory stays bounded at any rate.
const POOL_WINDOWS: usize = 20;

/// One open-loop pass of `batches` one-window batches at `rate`.
fn open(cq: &CompiledQuery, rate: f64, batches: usize, seed: u64, ok: &mut bool) -> OpenLoop {
    let w = WINDOW as usize;
    let pool = batches.min(POOL_WINDOWS);
    let events = ysb::generate(pool * w, CAMPAIGNS, seed);
    let expected: Vec<_> =
        (0..pool).map(|p| reference(&events[p * w..(p + 1) * w], range_of(p, 1))).collect();
    let mut run = OpenLoop { rate, ..OpenLoop::default() };
    let mut outputs = Vec::with_capacity(batches);
    let sched = Schedule::new(Some(rate));
    for b in 0..batches {
        let p = b % pool;
        run.gen_late_ms.push(wait_until_spinning(sched.due((b + 1) * w - 1), SPIN));
        let batch = pipeline(cq, &events[p * w..(p + 1) * w], range_of(p, 1), WORKERS, b as u64);
        outputs.push(batch);
    }
    for (b, batch) in outputs.iter().enumerate() {
        let p = b % pool;
        *ok &= matches(batch, &expected[p]);
        // Each campaign's result waits on that campaign's last event.
        let mut last = [b * w; CAMPAIGNS];
        for (j, e) in events[p * w..(p + 1) * w].iter().enumerate() {
            last[e.campaign as usize] = b * w + j;
        }
        for (&i, ready) in last.iter().zip(&batch.ready) {
            let ready = ready.expect("every campaign's partition ran");
            run.latencies.push((i as f64 / rate, sched.since_due_ms(i, ready)));
        }
    }
    run
}

fn batches_for(rate: f64, secs: f64) -> usize {
    ((rate * secs / WINDOW as f64).round() as usize).max(4)
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    trace::set_enabled(cfg.trace);
    // The untraced run adds a block of set-ups in every round.
    let setups: Vec<(CompiledQuery, f64)> = (0..SETUP_REPS).map(|_| setup()).collect();
    trace::set_enabled(false);
    let setup_s = median(&setups.iter().map(|s| s.1).collect::<Vec<_>>());
    let cq = setups.into_iter().next().expect("setup ran").0;
    let setup_spans = trace::take();

    let events = ysb::generate(CLOSED_EVENTS, CAMPAIGNS, cfg.seed);
    let expected = reference(&events, range_of(0, CLOSED_EVENTS / WINDOW as usize));
    let attempted = |out: &mut Outcome, n: usize| out.attempted += n as u64;

    // Warm-up: one untimed pass of each kind.
    out.correct &= matches(&closed(&cq, &events, WORKERS, 0).1, &expected);
    let mut ok = true;
    let _ = open(&cq, LOAD.fixed_rate, 4, splitmix(cfg.seed ^ 1), &mut ok);

    let budget = cfg.seconds;
    let reps = |workers: usize, share: f64, min: usize, out: &mut Outcome| {
        let (mut thr, mut batches, mut rss) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..passes_for(budget * share, CLOSED_PASS_S).max(min) {
            crate::util::reset_peak_rss();
            let (r, b) = closed(&cq, &events, workers, thr.len() as u64 + 1);
            rss.push(crate::util::peak_rss_mb());
            attempted(out, events.len());
            out.correct &= matches(&b, &expected);
            thr.push(r);
            batches.push(b);
        }
        (thr, batches, rss)
    };

    if !cfg.trace {
        let (mut thr, mut rss, mut fixed, mut setup_blocks) =
            (vec![], vec![], vec![], vec![setup_s]);
        let fixed_n = batches_for(LOAD.fixed_rate, budget * FIXED_SHARE / LOAD.rounds as f64);
        let mut probe_no = 0u64;
        let mut stairs = None;
        for r in 0..LOAD.rounds as u64 {
            setup_blocks.push(median(&(0..SETUP_BLOCK).map(|_| setup().1).collect::<Vec<_>>()));
            let (t, _, m) = reps(WORKERS, CLOSED_SHARE / LOAD.rounds as f64, 1, &mut out);
            thr.extend(t);
            rss.extend(m);
            fixed.push(open(&cq, LOAD.fixed_rate, fixed_n, splitmix(cfg.seed ^ (2 + r)), &mut ok));
            attempted(&mut out, fixed_n * WINDOW as usize);
            crate::report_open_loop("fixed rate", &fixed[fixed.len() - 1]);
            let st = stairs.get_or_insert_with(|| Staircase::new(&LOAD, median(&thr) * LOAD.start));
            for _ in 0..LOAD.probes_per_round {
                probe_no += 1;
                let n = batches_for(LOAD.probe_events(st.rate(), budget * PROBE_SHARE), 1.0);
                attempted(&mut out, n * WINDOW as usize);
                st.record(&open(&cq, st.rate(), n, splitmix(cfg.seed ^ (64 + probe_no)), &mut ok));
            }
        }
        out.correct &= ok;
        let sustained = stairs.expect("at least one round").result();
        out.set_e2e(&thr, &fixed, &LOAD, sustained, mean(&setup_blocks), &rss);
    } else {
        // Plain and traced runs alternate, so drift of the shared machine
        // does not read as tracing overhead.
        let (mut plain, mut traced, mut two) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..passes_for(budget * CLOSED_SHARE / 2.0, CLOSED_PASS_S).max(3) {
            for on in [false, true] {
                trace::set_enabled(on);
                let (r, b) = closed(&cq, &events, WORKERS, traced.len() as u64 + 1);
                attempted(&mut out, events.len());
                out.correct &= matches(&b, &expected);
                if on {
                    traced.push(r);
                    two.push(b);
                } else {
                    plain.push(r);
                }
            }
        }
        let straggler: Vec<f64> = two.iter().map(|b| b.straggler_ns as f64 / 1e6).collect();
        let before = trace::take();
        let (_, one, _) = reps(1, CLOSED_SHARE, 3, &mut out);
        let one_spans = trace::take();
        let fixed_batches = batches_for(LOAD.fixed_rate, budget * FIXED_SHARE);
        let fixed = open(&cq, LOAD.fixed_rate, fixed_batches, splitmix(cfg.seed ^ 2), &mut ok);
        attempted(&mut out, fixed_batches * WINDOW as usize);
        trace::set_enabled(false);
        out.correct &= ok;

        let n1 = one.len() as f64;
        let per_rep = |name: &str| -> f64 {
            one_spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).sum::<f64>()
                / n1
                / 1e6
        };
        let m = &mut out.metrics;
        crate::setup_layer_metrics(m, &setup_spans, SETUP_REPS);
        m.set("workloads.partition_ms", per_rep("workloads.partition"), "ms");
        m.set("workloads.straggler_ms", median(&straggler), "ms");
        m.set("data.snapshot_build_ms", per_rep("data.snapshot_build"), "ms");
        m.set("data.spans_built", one[0].spans_in as f64, "count");
        m.set("data.materialize_ms", per_rep("data.materialize"), "ms");
        m.set("core.kernel_ms", per_rep("core.kernel"), "ms");
        m.set("core.spans_out", one[0].spans_out as f64, "count");
        crate::kernel_metrics(m, &[&cq]);
        m.set("gen.late_p99_ms", quantile(&fixed.gen_late_ms, 0.99), "ms");
        m.set("trace.throughput_ratio", median(&traced) / median(&plain), "ratio");
        let coverage = stage_coverage(&one_spans);
        m.set("trace.stage_coverage", coverage, "ratio");
        eprintln!(
            "ysb_batch @1 worker: stage spans cover {:.1}% of traced wall time (need >= 90%)",
            coverage * 100.0
        );
        if coverage < 0.9 {
            eprintln!("ysb_batch: stage coverage below 90%");
            out.correct = false;
        }
        let mut all = setup_spans;
        all.extend(before);
        all.extend(one_spans);
        all.extend(trace::take());
        out.spans = all;
    }
    out
}

/// Share of the 1-worker pipelines' wall time that their stage spans
/// cover.
fn stage_coverage(spans: &[trace::Span]) -> f64 {
    let (mut wall, mut covered) = (0u64, 0u64);
    for rep in spans.iter().filter(|s| s.name == "bench.pipeline") {
        let kids: Vec<(u64, u64)> =
            spans.iter().filter(|s| s.parent == rep.id).map(|s| (s.start_ns, s.end_ns)).collect();
        wall += rep.duration_ns();
        covered += trace::covered_ns(&kids, rep.start_ns, rep.end_ns);
    }
    if wall == 0 {
        0.0
    } else {
        covered as f64 / wall as f64
    }
}
