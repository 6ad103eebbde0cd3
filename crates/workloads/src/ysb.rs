//! The Yahoo Streaming Benchmark \[12\] for all five engines.
//!
//! YSB: filter ad events to views, map ad → campaign, count views per
//! campaign in 10-second tumbling windows. As in standard YSB setups the
//! stream is hash-partitioned by campaign; TiLT and Trill consume the
//! per-campaign partitions (Trill's only source of parallelism), while
//! LightSaber and Grizzly consume the flat keyed stream their aggregation
//! models expect.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tilt_core::ir::{DataType, Expr};
use tilt_core::Compiler;
use tilt_data::{Event, Time, TimeRange, Value};
use tilt_query::{elem, Agg, LogicalPlan, NodeId};
use tilt_runtime::{
    KeyedEvent, QueryHandle, RuntimeConfig, RuntimeStats, ServiceOutput, StreamService,
};

/// The YSB window length in "seconds".
pub const WINDOW_SECONDS: i64 = 10;

/// Window length in ticks for a stream of `events_per_sec` events per
/// second: event timestamps are strictly increasing (one tick per event), so
/// a 10-second window covers `10 × events_per_sec` ticks.
pub fn window_ticks(events_per_sec: usize) -> i64 {
    WINDOW_SECONDS * events_per_sec.max(1) as i64
}

/// One YSB ad event.
#[derive(Clone, Copy, Debug)]
pub struct YsbEvent {
    /// Event timestamp.
    pub time: Time,
    /// Campaign id (already joined from ad id, as in pre-joined YSB setups).
    pub campaign: i64,
    /// 0 = view (kept), 1 = click, 2 = purchase (filtered out).
    pub event_type: i64,
}

/// Generates `n` YSB events across `campaigns` campaigns with strictly
/// increasing timestamps (one tick per event, keeping every stream and every
/// campaign partition well formed), uniformly typed over view/click/purchase.
pub fn generate(n: usize, campaigns: usize, seed: u64) -> Vec<YsbEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| YsbEvent {
            time: Time::new(i as i64 + 1),
            campaign: rng.gen_range(0..campaigns as i64),
            event_type: rng.gen_range(0..3),
        })
        .collect()
}

/// The logical YSB query (per campaign partition): Where → Window-Count.
pub fn plan(window: i64) -> (LogicalPlan, NodeId) {
    let mut plan = LogicalPlan::new();
    let src = plan.source("ad_events", DataType::Int);
    let views = plan.where_(src, elem().eq(Expr::c(0i64)));
    let counts = plan.window(views, window, window, Agg::Count);
    (plan, counts)
}

/// How many YSB windows the correlated factor query aggregates over.
pub const FACTOR: i64 = 6;

/// The correlated *factor* query (cf. Factor Windows): the peak per-window
/// view count within each coarse window of `factor` YSB windows — "hottest
/// 10-second burst per campaign per minute".
///
/// Its first two operators (Where → Window-Count over the same ad stream)
/// are structurally identical to [`plan`]'s, so when both queries are
/// registered in one [`StreamService`] the pane-count kernel is detected
/// by the kernel-prefix dedup and executed once per advance, serving both.
pub fn factor_plan(window: i64, factor: i64) -> (LogicalPlan, NodeId) {
    let mut plan = LogicalPlan::new();
    let src = plan.source("ad_events", DataType::Int);
    let views = plan.where_(src, elem().eq(Expr::c(0i64)));
    let counts = plan.window(views, window, window, Agg::Count);
    let peak = plan.window(counts, factor * window, factor * window, Agg::Max);
    (plan, peak)
}

/// Hash-partitions events by campaign into per-campaign event streams whose
/// payload is the event type.
pub fn partition(events: &[YsbEvent], campaigns: usize) -> Vec<Vec<Event<Value>>> {
    // Count first so every stream is allocated once at its exact size:
    // the scatter then never reallocates and copies a growing stream.
    let mut sizes = vec![0usize; campaigns];
    for e in events {
        sizes[(e.campaign as usize) % campaigns] += 1;
    }
    let mut parts: Vec<Vec<Event<Value>>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for e in events {
        parts[(e.campaign as usize) % campaigns].push(Event::new(
            e.time - 1,
            e.time,
            Value::Int(e.event_type),
        ));
    }
    parts
}

/// The covered time range of an event set, aligned to the window grid.
pub fn extent(events: &[YsbEvent], window: i64) -> TimeRange {
    let hi = events.iter().map(|e| e.time).max().unwrap_or(Time::ZERO);
    TimeRange::new(Time::ZERO, hi.align_up(window))
}

/// Converts the flat ad stream into keyed events for `tilt-runtime`:
/// campaign id is the key, the payload is the event type.
pub fn keyed(events: &[YsbEvent]) -> Vec<KeyedEvent> {
    events
        .iter()
        .map(|e| {
            KeyedEvent::new(
                e.campaign as u64,
                0,
                Event::new(e.time - 1, e.time, Value::Int(e.event_type)),
            )
        })
        .collect()
}

/// Deterministically scrambles arrival order within consecutive blocks of
/// `displacement` events (Fisher–Yates per block), so no event arrives more
/// than `2 × displacement` positions — and, with one-tick event spacing,
/// `2 × displacement` ticks — from its timestamp order.
pub fn shuffle_bounded(events: &[YsbEvent], displacement: usize, seed: u64) -> Vec<YsbEvent> {
    let mut out = events.to_vec();
    if displacement < 2 {
        return out;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for block in out.chunks_mut(displacement) {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.gen_range(0..i + 1));
        }
    }
    out
}

/// Total view count per engine output, used to cross-check engines.
pub type ViewCount = i64;

/// Runs YSB on TiLT: one compiled query, campaign partitions processed by a
/// synchronization-free worker pool. Returns the total counted views.
pub fn run_tilt(
    partitions: &[Vec<Event<Value>>],
    range: TimeRange,
    threads: usize,
    window: i64,
) -> ViewCount {
    let (plan, out) = plan(window);
    let q = tilt_query::lower(&plan, out).expect("YSB lowers");
    let cq = Compiler::new().compile(&q).expect("YSB compiles");
    let total = std::sync::atomic::AtomicI64::new(0);
    let next = std::sync::atomic::AtomicUsize::new(0);
    crossbeam::thread::scope(|s| {
        let (cq, total, next, partitions) = (&cq, &total, &next, &partitions);
        for _ in 0..threads.max(1).min(partitions.len()) {
            s.spawn(move |_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= partitions.len() {
                    break;
                }
                let buf = tilt_data::SnapshotBuf::from_events(&partitions[i], range);
                let out = cq.run(&[&buf], range);
                // Sum raw spans (one per window): `to_events` would coalesce
                // adjacent windows that happen to have equal counts.
                let sum: i64 = out.spans().iter().filter_map(|s| s.value.as_i64()).sum();
                total.fetch_add(sum, std::sync::atomic::Ordering::Relaxed);
            });
        }
    })
    .expect("YSB worker panicked");
    total.load(std::sync::atomic::Ordering::Relaxed)
}

/// Runs keyed YSB through a single-query [`StreamService`]: the flat
/// (optionally out-of-order) ad stream is ingested as keyed events, the
/// service hash-partitions campaigns across `shards` worker threads, and
/// each campaign's windows are counted by its own streaming session over
/// one shared compiled query. Returns the total counted views and the
/// final service stats.
pub fn run_tilt_service(
    events: &[YsbEvent],
    shards: usize,
    window: i64,
    allowed_lateness: i64,
) -> (ViewCount, RuntimeStats) {
    let (plan, out) = plan(window);
    let q = tilt_query::lower(&plan, out).expect("YSB lowers");
    let cq = Arc::new(Compiler::new().compile(&q).expect("YSB compiles"));
    let mut builder = StreamService::builder(RuntimeConfig {
        shards,
        allowed_lateness,
        emit_interval: window,
        ..RuntimeConfig::default()
    });
    let ysb = builder.register(cq);
    let service = builder.start().expect("single registration cannot conflict");
    service.ingest(keyed(events));
    let end = extent(events, window).end;
    let output = service.finish_at(end);
    (count_views(output.per_query[ysb.index()].values(), end, window), output.stats)
}

/// Totals the views in per-campaign YSB window outputs, counting windows
/// that close at or before `end`.
///
/// Each output event covers one or more whole windows; adjacent windows
/// with equal counts coalesce, so each event is weighted by the number of
/// windows it spans. Every YSB consumer (runtime, multi-runtime, bench,
/// examples) must count this one way — use this helper, don't re-derive
/// the fold.
pub fn count_views<'a, I>(outputs: I, end: Time, window: i64) -> ViewCount
where
    I: IntoIterator<Item = &'a Vec<Event<Value>>>,
{
    outputs
        .into_iter()
        .flatten()
        .filter(|e| e.end <= end)
        .filter_map(|e| Some(e.payload.as_i64()? * (e.interval().len() / window)))
        .sum()
}

/// Runs YSB *and* the correlated factor query through one shared
/// [`StreamService`]: the flat (optionally out-of-order) ad stream is
/// ingested, reorder-buffered, and watermarked **once** per shard, feeding
/// both queries; the pane-count kernel they structurally share executes
/// once per advance. Returns the YSB view count, the full per-query
/// output, and the two query handles (YSB first, factor second).
pub fn run_tilt_shared_service(
    events: &[YsbEvent],
    shards: usize,
    window: i64,
    allowed_lateness: i64,
) -> (ViewCount, ServiceOutput, [QueryHandle; 2]) {
    let (p1, out1) = plan(window);
    let (p2, out2) = factor_plan(window, FACTOR);
    let q1 = tilt_query::lower(&p1, out1).expect("YSB lowers");
    let q2 = tilt_query::lower(&p2, out2).expect("factor query lowers");
    let cq1 = Arc::new(Compiler::new().compile(&q1).expect("YSB compiles"));
    let cq2 = Arc::new(Compiler::new().compile(&q2).expect("factor query compiles"));

    let mut builder = StreamService::builder(RuntimeConfig {
        shards,
        allowed_lateness,
        emit_interval: window,
        ..RuntimeConfig::default()
    });
    let ysb_id = builder.register(cq1);
    let factor_id = builder.register(cq2);
    let service = builder.start().expect("queries share the ad stream source");
    service.ingest(keyed(events));
    let end = extent(events, FACTOR * window).end;
    let output = service.finish_at(end);
    let views = count_views(output.per_query[ysb_id.index()].values(), end, window);
    (views, output, [ysb_id, factor_id])
}

/// Runs YSB on the Trill baseline: one operator graph per campaign
/// partition, `threads` workers.
pub fn run_trill(
    partitions: &[Vec<Event<Value>>],
    batch_size: usize,
    threads: usize,
    range: TimeRange,
    window: i64,
) -> ViewCount {
    let (plan, out) = plan(window);
    let outputs = spe_trill::run_partitioned(&plan, out, partitions, batch_size, threads);
    outputs.iter().flatten().filter(|e| e.end <= range.end).filter_map(|e| e.payload.as_i64()).sum()
}

/// Runs YSB on the StreamBox baseline: pipeline-parallel stages, one
/// campaign partition at a time.
pub fn run_streambox(
    partitions: &[Vec<Event<Value>>],
    bundle: usize,
    range: TimeRange,
    window: i64,
) -> ViewCount {
    let (plan, out) = plan(window);
    let mut total = 0i64;
    for part in partitions {
        if part.is_empty() {
            continue;
        }
        let events = spe_streambox::run_pipeline(&plan, out, std::slice::from_ref(part), bundle);
        total += events
            .iter()
            .filter(|e| e.end <= range.end)
            .filter_map(|e| e.payload.as_i64())
            .sum::<i64>();
    }
    total
}

/// Runs YSB on the LightSaber baseline: parallel filter + pane-parallel
/// grouped count over the flat keyed stream.
pub fn run_lightsaber(
    events: &[YsbEvent],
    range: TimeRange,
    threads: usize,
    window: i64,
) -> ViewCount {
    let keyed: Vec<(Time, i64)> =
        events.iter().filter(|e| e.event_type == 0).map(|e| (e.time, e.campaign)).collect();
    let tables = spe_lightsaber::run_grouped_count(&keyed, window, range, threads);
    tables.iter().flat_map(|t| t.values()).sum()
}

/// Runs YSB on the Grizzly baseline: fused loop with shared atomic state
/// over the flat keyed stream.
pub fn run_grizzly(
    events: &[YsbEvent],
    campaigns: usize,
    range: TimeRange,
    threads: usize,
    window: i64,
) -> ViewCount {
    let keyed: Vec<(Time, i64)> =
        events.iter().filter(|e| e.event_type == 0).map(|e| (e.time, e.campaign)).collect();
    let tables = spe_grizzly::run_grouped_count(&keyed, window, campaigns, range, threads);
    tables.iter().flatten().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_engines_count_the_same_views() {
        let campaigns = 8;
        let window = window_ticks(40);
        let events = generate(4000, campaigns, 99);
        let range = extent(&events, window);
        let partitions = partition(&events, campaigns);
        let expected: i64 = events.iter().filter(|e| e.event_type == 0).count() as i64;

        assert_eq!(run_tilt(&partitions, range, 3, window), expected, "tilt");
        assert_eq!(run_trill(&partitions, 256, 3, range, window), expected, "trill");
        assert_eq!(run_streambox(&partitions, 256, range, window), expected, "streambox");
        assert_eq!(run_lightsaber(&events, range, 3, window), expected, "lightsaber");
        assert_eq!(run_grizzly(&events, campaigns, range, 3, window), expected, "grizzly");
    }

    #[test]
    fn keyed_runtime_counts_match_batch_engines() {
        let campaigns = 8;
        let window = window_ticks(40);
        let events = generate(4000, campaigns, 99);
        let expected: i64 = events.iter().filter(|e| e.event_type == 0).count() as i64;
        for shards in [1usize, 3] {
            let (views, stats) = run_tilt_service(&events, shards, window, 0);
            assert_eq!(views, expected, "shards={shards}");
            assert_eq!(stats.late_dropped, 0);
            assert_eq!(stats.events_in, events.len() as u64);
        }
    }

    #[test]
    fn keyed_runtime_tolerates_bounded_disorder() {
        let campaigns = 10;
        let window = window_ticks(40);
        let events = generate(5000, campaigns, 7);
        let expected: i64 = events.iter().filter(|e| e.event_type == 0).count() as i64;
        let displacement = 64usize;
        let shuffled = shuffle_bounded(&events, displacement, 11);
        assert_ne!(
            shuffled.iter().map(|e| e.time).collect::<Vec<_>>(),
            events.iter().map(|e| e.time).collect::<Vec<_>>(),
            "shuffle must actually reorder"
        );
        let (views, stats) = run_tilt_service(&shuffled, 2, window, 2 * displacement as i64 + 2);
        assert_eq!(stats.late_dropped, 0, "lateness bound must absorb the shuffle");
        assert_eq!(views, expected);
    }

    #[test]
    fn zero_lateness_drops_stragglers_behind_the_watermark() {
        // With zero allowed lateness, events arriving after the watermark
        // passed them are lost — and say so in the stats rather than
        // failing silently. The watermark is pushed deterministically past
        // the in-order prefix before the stragglers are sent, so the
        // outcome does not depend on how ingest batches interleave with
        // shard emission cycles.
        let campaigns = 10;
        let window = window_ticks(40);
        let events = generate(5000, campaigns, 7);
        let expected: i64 = events.iter().filter(|e| e.event_type == 0).count() as i64;

        let (plan, out) = plan(window);
        let q = tilt_query::lower(&plan, out).expect("YSB lowers");
        let cq = Arc::new(Compiler::new().compile(&q).expect("YSB compiles"));
        let mut builder = StreamService::builder(RuntimeConfig {
            shards: 2,
            allowed_lateness: 0,
            emit_interval: window,
            ..RuntimeConfig::default()
        });
        let qh = builder.register(cq);
        let runtime = builder.start().unwrap();
        runtime.ingest(keyed(&events));
        // Wait until every shard's watermark has crossed the last emission
        // grid point: by then each key's pushed frontier is within one
        // campaign round of the stream head.
        let hi = events.iter().map(|e| e.time).max().unwrap();
        let drained_past = Time::new(hi.align_down(window).ticks() + 1);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while runtime.stats().min_watermark < drained_past && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(runtime.stats().min_watermark >= drained_past, "watermark never advanced");

        // Stragglers more than a window behind the drained frontier: every
        // one is unsalvageably late.
        let stragglers = shuffle_bounded(&generate(500, campaigns, 8), 64, 9);
        assert!(Time::new(500) < Time::new(drained_past.ticks() - window));
        runtime.ingest(keyed(&stragglers));
        let end = extent(&events, window).end;
        let output = runtime.finish_at(end);
        assert_eq!(output.stats.late_dropped, 500, "every straggler is counted");
        let views = count_views(output.per_query[qh.index()].values(), end, window);
        assert_eq!(views, expected, "the in-order prefix is untouched");
    }

    #[test]
    fn shared_service_shares_ingestion_and_counts_views() {
        let campaigns = 8;
        let window = window_ticks(40);
        let events = generate(4000, campaigns, 99);
        let expected: i64 = events.iter().filter(|e| e.event_type == 0).count() as i64;
        for shards in [1usize, 2] {
            let (views, out, _) = run_tilt_shared_service(&events, shards, window, 0);
            assert_eq!(views, expected, "shards={shards}");
            assert_eq!(out.stats.late_dropped, 0);
            // One shared ingestion pass: each event reorder-buffered once,
            // not once per query.
            assert_eq!(out.stats.reorder_buffered, events.len() as u64);
            // The pane-count kernel is structurally shared between YSB and
            // the factor query and must have been deduplicated.
            assert!(out.stats.kernels_saved > 0, "prefix dedup never fired");
        }
    }

    #[test]
    fn shared_factor_query_matches_standalone() {
        // Differential check at the workload level: the factor query served
        // from the shared service (with its pane prefix deduped into YSB's
        // kernel) produces exactly what it produces alone, in-order and
        // under bounded disorder.
        let campaigns = 6;
        let window = window_ticks(20);
        let events = generate(3000, campaigns, 5);
        let shuffled = shuffle_bounded(&events, 32, 3);
        let end = extent(&events, FACTOR * window).end;
        for (input, lateness) in [(&events, 0i64), (&shuffled, 66i64)] {
            let (_, multi, [_, factor_id]) = run_tilt_shared_service(input, 2, window, lateness);
            assert_eq!(multi.stats.late_dropped, 0);

            let (fp, fout) = factor_plan(window, FACTOR);
            let q = tilt_query::lower(&fp, fout).unwrap();
            let cq = Arc::new(Compiler::new().compile(&q).unwrap());
            let mut builder = StreamService::builder(RuntimeConfig {
                shards: 2,
                allowed_lateness: lateness,
                emit_interval: window,
                ..RuntimeConfig::default()
            });
            let solo_q = builder.register(cq);
            let solo = builder.start().unwrap();
            solo.ingest(keyed(input));
            let solo_out = solo.finish_at(end);
            let solo_map = &solo_out.per_query[solo_q.index()];
            assert_eq!(solo_map.len(), multi.per_query[factor_id.index()].len());
            for (key, events) in solo_map {
                assert!(
                    tilt_data::streams_equivalent(
                        &tilt_data::coalesce(events),
                        &tilt_data::coalesce(&multi.per_query[factor_id.index()][key])
                    ),
                    "campaign {key}: shared factor output diverged from standalone"
                );
            }
        }
    }

    #[test]
    fn generator_shape() {
        let events = generate(1000, 10, 1);
        assert_eq!(events.len(), 1000);
        assert!(events.iter().map(|e| e.time).max().unwrap() == Time::new(1000));
        assert!(events.iter().all(|e| (0..10).contains(&e.campaign)));
        // Strictly increasing, so every partition is well formed.
        let parts = partition(&events, 10);
        for p in &parts {
            assert_eq!(tilt_data::validate_stream(p), Ok(()));
        }
    }
}
