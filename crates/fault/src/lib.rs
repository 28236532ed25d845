//! # tms-fault — deterministic fault injection and resilience policies
//!
//! The paper's flow exists because real CAD runs fail: placement attempts
//! on nearly-full devices abort, and the pipeline recovers by retrying
//! with a corrected PBlock. The serving stack around that flow has the
//! same problem at every boundary — a WAL append can hit a full disk, an
//! fsync can be interrupted, a client can vanish mid-request. This crate
//! makes those failures *schedulable* so the rest of the workspace can
//! prove it survives them:
//!
//! * [`FaultPoint`] names each instrumented failure site (`store.append`,
//!   `store.fsync`, `store.open`, `store.rename`, `flow.place`,
//!   `flow.route`, `serve.read`, `serve.write`).
//! * [`FaultInjector`] is the trait library code consults at each site.
//!   The default implementation ([`NoopInjector`], via [`noop`]) answers
//!   `false` from a non-armed object — a branch on a constant, so the
//!   instrumentation costs nothing in production builds.
//! * [`FaultPlan`] is the armed implementation: a **seeded**, rate- or
//!   schedule-driven plan. Decisions are a pure function of
//!   `(seed, point, hit-index)`, so a chaos test that fails replays
//!   byte-for-byte from its seed. Rates can be changed or cleared at
//!   runtime (all state is atomic) to model faults that come and go.
//! * [`Retry`] is a deterministic retry/backoff policy — max attempts
//!   and exponential backoff with deterministic jitter — used by the
//!   store-backed cache writes and the module-implementation tool-run
//!   loop.
//!
//! ```
//! use tms_fault::{FaultInjector, FaultPlan, FaultPoint};
//!
//! let plan = FaultPlan::seeded(42).with_fail_next(FaultPoint::StoreFsync, 2);
//! assert!(plan.should_fail(FaultPoint::StoreFsync));
//! assert!(plan.should_fail(FaultPoint::StoreFsync));
//! assert!(!plan.should_fail(FaultPoint::StoreFsync)); // schedule exhausted
//! assert_eq!(plan.injected(FaultPoint::StoreFsync), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod inject;
pub mod plan;
pub mod retry;

pub use inject::{check_io, injected_io_error, noop, FaultInjector, FaultPoint, NoopInjector};
pub use plan::FaultPlan;
pub use retry::{Retry, RetryError};
