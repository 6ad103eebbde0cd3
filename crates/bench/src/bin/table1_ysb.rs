//! Table 1: Yahoo Streaming Benchmark throughput across scale-up SPEs.
//!
//! Paper (32 cores, 160 M events, million events/sec):
//! Trill 34.07, StreamBox 167.19, Grizzly 118.74, LightSaber 296.40;
//! TiLT peaks at 450 (Fig. 8b). The claim reproduced here is the *ordering*
//! (interpreted Trill slowest; TiLT at or above the compiled baselines)
//! rather than the absolute numbers: TiLT runs typed bytecode instead of
//! LLVM code, and the baselines are in-repo Rust re-implementations.

use tilt_bench::{best_throughput, fmt_meps, print_table, RunCfg};
use tilt_workloads::ysb;

fn main() {
    let cfg = RunCfg::from_args(4_000_000);
    let campaigns = 100;
    let rate = 10_000; // events per "second"
    let window = ysb::window_ticks(rate);

    let events = ysb::generate(cfg.events, campaigns, 1);
    let range = ysb::extent(&events, window);
    let partitions = ysb::partition(&events, campaigns);

    // StreamBox buffers whole windows per stage; give it a smaller slice and
    // normalize by its own event count.
    let sb_events = ysb::generate(cfg.events / 8, campaigns, 1);
    let sb_range = ysb::extent(&sb_events, window);
    let sb_parts = ysb::partition(&sb_events, campaigns);

    let rows = vec![
        vec![
            "Trill".to_string(),
            fmt_meps(best_throughput(cfg.events, cfg.runs, || {
                ysb::run_trill(&partitions, 65_536, cfg.threads, range, window) as usize
            })),
            "34.07".to_string(),
        ],
        vec![
            "StreamBox".to_string(),
            fmt_meps(best_throughput(sb_events.len(), cfg.runs, || {
                ysb::run_streambox(&sb_parts, 65_536, sb_range, window) as usize
            })),
            "167.19".to_string(),
        ],
        vec![
            "Grizzly".to_string(),
            fmt_meps(best_throughput(cfg.events, cfg.runs, || {
                ysb::run_grizzly(&events, campaigns, range, cfg.threads, window) as usize
            })),
            "118.74".to_string(),
        ],
        vec![
            "LightSaber".to_string(),
            fmt_meps(best_throughput(cfg.events, cfg.runs, || {
                ysb::run_lightsaber(&events, range, cfg.threads, window) as usize
            })),
            "296.40".to_string(),
        ],
        vec![
            "TiLT".to_string(),
            fmt_meps(best_throughput(cfg.events, cfg.runs, || {
                ysb::run_tilt(&partitions, range, cfg.threads, window) as usize
            })),
            "450 (Fig. 8b)".to_string(),
        ],
    ];
    print_table(
        "Table 1 — YSB throughput (million events/sec)",
        &format!(
            "{} events, {campaigns} campaigns, {} threads; paper column: 32-core m5.8xlarge",
            cfg.events, cfg.threads
        ),
        &["engine", "measured", "paper"],
        &rows,
    );
}
