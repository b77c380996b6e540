//! # save-sim — simulation driver and end-to-end estimation
//!
//! This crate ties the core model, memory hierarchy, kernels and sparsity
//! models into the paper's evaluation methodology (§VI):
//!
//! 1. [`CellSpec::run`] executes one kernel on one simulated machine
//!    operating point (baseline 2 VPUs @ 1.7 GHz, SAVE 2 VPUs @ 1.7 GHz,
//!    SAVE 1 VPU @ 2.1 GHz, or an ablation's [`save_core::CoreConfig`]) in
//!    either the fast *symmetric* 28-core mode ([`runner`]) or the
//!    [`multicore`] *detailed* mode that cycle-interleaves real cores over
//!    the shared NUCA L3 + mesh + DRAM;
//! 2. [`surface`] sweeps a kernel over a 2-D grid of (broadcasted,
//!    non-broadcasted) sparsity and interpolates bilinearly — the paper's
//!    "2D surface of execution times" (§VI);
//! 3. [`net`] composes the workloads into networks and encodes Table III's
//!    sparsity roles per phase;
//! 4. [`estimate`] produces the end-to-end inference and training numbers of
//!    Fig 14, including the static (per-epoch) and dynamic (per-kernel)
//!    1-vs-2-VPU selection of §IV-D.
//!
//! Every fallible entry point returns a typed [`SimError`] instead of
//! panicking, and [`parallel::parallel_try_map`] isolates panics at the
//! sweep-job boundary, so a figure sweep with one bad operating point still
//! completes with partial results and a [`parallel::FailureReport`]
//! (DESIGN.md, "Error handling & fault isolation").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod checkpoint;
pub mod durable;
pub mod error;
pub mod estimate;
pub mod multicore;
pub mod net;
pub mod parallel;
pub mod policy;
pub mod power;
pub mod relaxed;
pub mod runner;
pub mod spec;
pub mod surface;
pub mod trace;


pub use cancel::{CancelToken, Supervisor, SupervisorHandle, WatchGuard};
pub use checkpoint::{fsck_journal, CellRecord, Checkpoint, FsckReport, SweepManifest};
pub use durable::{
    exit_code_for, run_cell, CellRun, RetryPolicy, EXIT_CANCELLED, EXIT_FAILURES, EXIT_OK,
    EXIT_USAGE,
};
pub use error::{RetryClass, SimError};
pub use spec::{CellSpec, CoreSel};
pub use estimate::{
    Estimator, EstimatorConfig, EstimatorDurability, InferenceEstimate, TrainingEstimate,
};
pub use net::{LayerShape, Network};
pub use parallel::{
    host_parallelism, parallel_map, parallel_try_map, parallel_try_map_cancel,
    sim_thread_allowance, FailureReport, JobFailure,
};
pub use policy::{PolicyOutcome, VpuPolicy};
pub use power::{EnergyBreakdown, PowerModel};
pub use runner::{
    run_kernel_full, ConfigKind, KernelResult, KernelRun, MachineConfig, MachineMode,
    MulticoreConfig,
};
pub use surface::{DurableSweep, Surface, SweepOutcome};
pub use trace::{trace_key, TraceStore};

/// Unit-test fixtures shared by the modules of this crate.
#[cfg(test)]
pub(crate) mod testutil {
    use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};

    /// A dense FP32 explicit-broadcast GEMM named `name`: an
    /// `m_tiles`×`n_vecs` register block, reduction length `k` over
    /// `tiles` tiles, at sparsity `(a, b)`.
    pub(crate) fn gemm(
        name: &str,
        (m_tiles, n_vecs): (usize, usize),
        k: usize,
        tiles: usize,
        (a, b): (f64, f64),
    ) -> GemmWorkload {
        let pattern = BroadcastPattern::Explicit;
        let spec = GemmKernelSpec { m_tiles, n_vecs, pattern, precision: Precision::F32 };
        GemmWorkload::dense(name, spec, k, tiles).with_sparsity(a, b)
    }
}
