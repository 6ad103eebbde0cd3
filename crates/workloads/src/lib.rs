//! `tilt-workloads` — datasets, the eight real-world applications of
//! Table 2, the Yahoo Streaming Benchmark, and the primitive-operation
//! micro-benchmarks, wired to every engine in the workspace.
//!
//! * [`gen`] — deterministic synthetic stand-ins for the paper's datasets;
//! * [`apps`] — the benchmark suite of Fig. 7b / Fig. 9;
//! * [`ysb`] — YSB for all five engines (Table 1, Fig. 8);
//! * [`ops`] — Select / Where / WSum / Join micro-benchmarks (Fig. 7a).

#![warn(missing_docs)]

pub mod apps;
pub mod gen;
pub mod ops;
pub mod ysb;

pub use apps::{all_apps, App};
