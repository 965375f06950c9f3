//! Demand traces and synthetic workload generation for the R-Opus framework.
//!
//! This crate provides the data substrate every other R-Opus component builds
//! on:
//!
//! * [`Calendar`] — slot/day/week arithmetic for regularly sampled traces
//!   (the paper samples every 5 minutes, giving `T = 288` slots per day);
//! * [`Trace`] — a validated, non-negative time series of demand (or
//!   allocation) observations aligned to a calendar, backed by a shared
//!   immutable buffer so clones and weekly windows are allocation-free;
//! * [`TraceView`] — the borrowed, lifetime-bound companion of [`Trace`]
//!   for layers that only read samples;
//! * [`FleetMatrix`] — columnar, slot-major storage packing a whole
//!   fleet's traces into one contiguous buffer with O(1) per-app `Trace`
//!   windows;
//! * [`kernels`] — the chunked, auto-vectorizable slot kernels
//!   (aggregate, cap/scale, CoS split, lane-chunked reductions) every hot
//!   loop funnels through;
//! * [`stats`] — percentiles, summaries and the distribution samplers used
//!   by the generator;
//! * [`rng`] — a deterministic, splittable PRNG so experiments are
//!   bit-reproducible across platforms;
//! * [`runs`] — run-length analysis used by the time-limited-degradation
//!   (`T_degr`) translation;
//! * [`parallel`] — the order-preserving scoped-thread fan-out every
//!   layer maps independent work through;
//! * [`gen`] — the synthetic enterprise workload generator and the 26-app
//!   case-study fleet standing in for the paper's proprietary HP traces.
//!
//! # Example
//!
//! ```
//! use ropus_trace::{Calendar, Trace};
//! use ropus_trace::gen::{WorkloadProfile, generate};
//! use ropus_trace::rng::Rng;
//!
//! # fn main() -> Result<(), ropus_trace::TraceError> {
//! let calendar = Calendar::five_minute();
//! let profile = WorkloadProfile::builder("web-frontend")
//!     .mean_demand(2.0)
//!     .diurnal_amplitude(1.5)
//!     .build();
//! let mut rng = Rng::seed_from_u64(7);
//! let trace: Trace = generate(&profile, calendar, 4, &mut rng);
//! assert_eq!(trace.weeks(), 4);
//! assert!(trace.peak() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod calendar;
mod error;
mod matrix;
mod trace;

pub mod gen;
pub mod io;
pub mod kernels;
pub mod parallel;
pub mod rng;
pub mod runs;
pub mod stats;

pub use calendar::{Calendar, DayOfWeek, SlotPosition};
pub use error::TraceError;
pub use matrix::FleetMatrix;
pub use trace::{Trace, TraceView};
