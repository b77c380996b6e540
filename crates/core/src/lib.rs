//! # save-core — cycle-level out-of-order core with the SAVE extensions
//!
//! This crate models the execution back-end of a Skylake/Sunny-Cove-class
//! core (Table I of the paper: 5-wide allocation, 224-entry ROB, 97-entry
//! unified reservation station, 2 load ports, 1 or 2 512-bit VPUs) together
//! with every mechanism the SAVE paper adds to it:
//!
//! * Mask Generation Units producing Effectual Lane Masks ([`mgu`], §III);
//! * vertical coalescing of effectual lanes across ready VFMAs
//!   ([`sched`], Algorithm 1);
//! * broadcasted-sparsity skipping (whole-VFMA removal, §III);
//! * rotate-vertical coalescing with 3 rotational states (§IV-B);
//! * lane-wise dependence tracking (§IV-C);
//! * horizontal compression as the paper's rejected comparison point
//!   (Fig 5b, evaluated in Fig 18);
//! * the mixed-precision multiplicand-lane compression with order-preserving
//!   accumulation and partial-result forwarding (§V, Figs 9-11);
//! * VPU-count / frequency scaling (§IV-D) via [`CoreConfig`].
//!
//! The model is **execute-driven**: physical registers hold real values, so
//! a kernel's numerical output can be compared against a reference — the
//! integration tests verify that every scheduler configuration computes
//! bit-identical FP32 GEMM results (vertical coalescing preserves per-lane
//! accumulation order) and that the mixed-precision technique preserves the
//! sequential accumulation order (§V-A).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod core;
pub mod diag;
pub mod fault;
pub mod lsu;
pub mod mgu;
pub mod rename;
pub mod rob;
pub mod rs;
pub mod sanitizer;
pub mod sched;
pub mod stats;
pub mod trace;
pub mod uop;
pub mod vpu;

pub use crate::core::{Core, RunOutcome, CANCEL_QUANTUM};
pub use config::{CoreConfig, SanitizeLevel, SchedulerKind};
pub use diag::{StallCause, StallDiag};
pub use fault::{FaultKind, FaultPlan};
pub use sanitizer::{Sanitizer, SanitizerReport};
pub use stats::CoreStats;
pub use trace::{CountingTracer, TextTracer, TraceEvent, Tracer};
