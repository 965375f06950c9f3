//! Workload-manager and host-scheduler simulation (§II of the paper).
//!
//! The paper assumes each resource runs a *workload manager* (HP-UX WLM /
//! gWLM class) that periodically sets each resource container's capacity
//! allocation to `burst factor × recent demand`, and a scheduler that
//! serves the higher allocation priority (CoS1) before the lower (CoS2).
//! Those products are proprietary, so this crate simulates their documented
//! semantics at trace granularity:
//!
//! * [`manager`] — the per-workload allocation rule (burst factor times
//!   the last interval's demand, capped, split across the two CoS);
//! * [`host`] — the two-priority slot scheduler: each server grants CoS1
//!   requests first and shares the remaining capacity across CoS2
//!   requests, over serving and reservation views that may change from
//!   slot to slot, deferring or shedding what it cannot serve;
//! * [`metrics`] — the utilization-of-allocation audit that checks the
//!   delivered QoS against an [`AppQos`](ropus_qos::AppQos) requirement,
//!   closing the loop on the translation's promise.
//!
//! # Example
//!
//! ```
//! use ropus_obs::ObsCtx;
//! use ropus_qos::{AppQos, CosSpec};
//! use ropus_qos::translation::translate;
//! use ropus_trace::{Calendar, Trace};
//! use ropus_wlm::host::SlotScheduler;
//! use ropus_wlm::manager::WlmPolicy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cal = Calendar::five_minute();
//! let demand = Trace::constant(cal, 2.0, cal.slots_per_week())?;
//! let qos = AppQos::paper_default(None);
//! let cos2 = CosSpec::new(0.9, 60)?;
//! let translation = translate(&demand, &qos, &cos2, ObsCtx::none())?;
//! let policy = WlmPolicy::from_translation(&qos, &translation.report);
//! // One application on server 0 of 16 CPUs; shortfalls are shed at once.
//! let mut scheduler = SlotScheduler::new(16.0, 1, 0)?;
//! scheduler.set_views(&[Some(0)], &[]);
//! for (slot, &d) in demand.samples().iter().enumerate() {
//!     scheduler.step(slot, &[d], &[policy])?;
//!     assert_eq!(scheduler.apps()[0].served, d);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod error;
pub mod host;
pub mod manager;
pub mod metrics;

pub use error::WlmError;
