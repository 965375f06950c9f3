//! The R-Opus workload placement service (§VI of the paper).
//!
//! Two cooperating components:
//!
//! * a **simulator** ([`simulator`]) that emulates the assignment of a set
//!   of workloads to a single resource — it replays per-CoS allocation
//!   traces, checks the guaranteed-class constraint, measures the resource
//!   access probability `θ` and the carry-over deadline, and binary-searches
//!   the smallest *required capacity* that satisfies the pool's resource
//!   access CoS commitments (Fig. 4);
//! * an **optimizing search** ([`ga`]) — a genetic algorithm over
//!   workload-to-server assignments scored by the paper's
//!   `f(U) = U^(2Z)` objective ([`score`]), with mutation biased toward
//!   poorly utilized servers and simple random crossover (Fig. 5).
//!
//! [`greedy`] provides the first-fit family of baselines the paper compares
//! against, [`consolidate`] wraps everything into the consolidation
//! exercise that produces the Table I columns (`servers`, `C_requ`,
//! `C_peak`), and [`failure`] implements the §VI-C single-failure planning.
//!
//! Both the search and the baselines run their per-server fit tests
//! through [`engine::FitEngine`], which memoizes required-capacity results
//! by member set and, when configured with more than one worker thread,
//! scores populations and per-server binary searches in parallel —
//! bit-identically to the serial path under a fixed seed.
//!
//! # Example
//!
//! ```
//! use ropus_placement::consolidate::{Consolidator, ConsolidationOptions};
//! use ropus_placement::server::ServerSpec;
//! use ropus_placement::workload::Workload;
//! use ropus_qos::{CosSpec, PoolCommitments};
//! use ropus_trace::{Calendar, Trace};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cal = Calendar::five_minute();
//! let commitments = PoolCommitments::new(CosSpec::new(0.9, 60)?);
//! let workloads: Vec<Workload> = (0..4)
//!     .map(|i| {
//!         Workload::new(
//!             format!("app-{i}"),
//!             Trace::constant(cal, 1.0, cal.slots_per_week()).unwrap(),
//!             Trace::constant(cal, 2.0, cal.slots_per_week()).unwrap(),
//!         )
//!         .unwrap()
//!     })
//!     .collect();
//! let consolidator = Consolidator::new(
//!     ServerSpec::new(16, 1.0),
//!     commitments,
//!     ConsolidationOptions::fast(7).with_threads(2),
//! );
//! let report = consolidator.consolidate(&workloads, ropus_obs::ObsCtx::none())?;
//! assert!(report.servers_used >= 1);
//! // The engine reports its cache effectiveness and wall time.
//! assert!(report.stats.evaluations > 0);
//! assert_eq!(report.stats.evaluations, report.stats.cache_hits + report.stats.cache_misses);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod error;
mod sumtree;

pub mod consolidate;
pub mod engine;
pub mod failure;
pub mod ga;
pub mod greedy;
pub mod hetero;
pub mod migration;
pub mod score;
pub mod server;
pub mod session;
pub mod simulator;
pub mod workload;

pub use error::PlacementError;
pub use sumtree::SlotArena;
