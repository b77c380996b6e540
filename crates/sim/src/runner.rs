//! Single-kernel execution on a configured machine.

use crate::cancel::CancelToken;
use crate::error::SimError;
use crate::trace::{self, CoreTrace, KernelTrace, TraceMode, TraceStore};
use save_core::{Core, CoreConfig, CoreStats, SchedulerKind};
use save_isa::Memory;
use save_kernels::{BuiltKernel, GemmWorkload, Region, RegionRole};
use save_mem::{CoreMemory, MemConfig, Uncore, UncoreReport, WarmLevel};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How the multicore machine is modelled.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum MachineMode {
    /// One simulated core against its 1/N share of uncore resources
    /// (DESIGN.md §2) — used for the large parameter sweeps.
    Symmetric,
    /// N cores cycle-interleaved over the shared NUCA L3 + mesh + DRAM.
    Detailed,
}

/// Multicore execution knobs for [`MachineMode::Detailed`] (DESIGN.md §5i).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MulticoreConfig {
    /// Relaxed-synchronization quantum in core cycles. `1` (the default)
    /// runs the serial lockstep engine — cores reconcile shared uncore
    /// state every cycle, bit-identical to the pre-relaxed simulator.
    /// Larger quanta let each core run (and fast-forward) independently
    /// between deterministic barriers, at a timing-accuracy cost bounded by
    /// the quantum length. Changes simulated timing, so it is part of the
    /// cell cache key.
    pub quantum: u64,
    /// Host threads for the relaxed engine; `0` = auto (the shared thread
    /// budget of [`crate::parallel`], clamped to the core count). Provably
    /// does NOT affect simulation results — only wall-clock speed — so it
    /// is excluded from the cell cache key.
    pub threads: usize,
}

impl Default for MulticoreConfig {
    fn default() -> Self {
        MulticoreConfig { quantum: 1, threads: 0 }
    }
}

impl MulticoreConfig {
    /// Rejects degenerate configurations (`quantum == 0`).
    pub fn validate(&self) -> Result<(), String> {
        if self.quantum == 0 {
            return Err("machine config: mc.quantum must be >= 1".to_string());
        }
        Ok(())
    }
}

/// Machine-level configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Core count (Table I: 28).
    pub cores: usize,
    /// Simulation mode.
    pub mode: MachineMode,
    /// Memory-system configuration.
    pub mem: MemConfig,
    /// Multicore engine knobs (quantum / host threads); defaults preserve
    /// the serial lockstep behaviour.
    #[serde(default)]
    pub mc: MulticoreConfig,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 28,
            mode: MachineMode::Symmetric,
            mem: MemConfig::default(),
            mc: MulticoreConfig::default(),
        }
    }
}

/// The three machine operating points evaluated throughout §VII, plus the
/// derived selection policies of §IV-D.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ConfigKind {
    /// Conventional scheduler, 2 VPUs @ 1.7 GHz.
    Baseline,
    /// SAVE, 2 VPUs @ 1.7 GHz.
    Save2Vpu,
    /// SAVE, 1 VPU @ 2.1 GHz (frequency-boosted, §IV-D).
    Save1Vpu,
}

impl ConfigKind {
    /// The three simulated points.
    pub const ALL: [ConfigKind; 3] = [ConfigKind::Baseline, ConfigKind::Save2Vpu, ConfigKind::Save1Vpu];

    /// The core configuration for this operating point.
    pub fn core_config(&self) -> CoreConfig {
        match self {
            ConfigKind::Baseline => CoreConfig::baseline(),
            ConfigKind::Save2Vpu => CoreConfig::save_2vpu(),
            ConfigKind::Save1Vpu => CoreConfig::save_1vpu(),
        }
    }

    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            ConfigKind::Baseline => "baseline",
            ConfigKind::Save2Vpu => "2 VPUs",
            ConfigKind::Save1Vpu => "1 VPU",
        }
    }
}

/// Result of running one kernel.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct KernelResult {
    /// Wall-clock seconds at the configured frequency.
    pub seconds: f64,
    /// Core cycles.
    pub cycles: u64,
    /// Core counters.
    pub stats: CoreStats,
    /// Whether the numerical output matched the reference (only checked
    /// when requested).
    pub verified: bool,
    /// Whether the run completed within the cycle budget.
    pub completed: bool,
}

/// A kernel result together with the machine's uncore contention report
/// (per-link flit occupancy, per-slice MSHR conflicts, DRAM queue depth) —
/// the many-core signals [`KernelResult`] alone cannot carry because it
/// stays `Copy`.
#[derive(Clone, Debug)]
pub struct KernelRun {
    /// The timing result (slowest core in detailed mode).
    pub result: KernelResult,
    /// Shared-uncore contention counters for the whole run.
    pub uncore: UncoreReport,
}

/// Applies the paper's §VI warm-up policy: the broadcast-side input (the
/// previous operation's output) is warm in L3; a reused weight panel is
/// L3-warm as well (full-size layers amortize its first streaming pass —
/// DESIGN.md §4); streamed panels and the output are cold.
pub fn warm_regions(
    w: &GemmWorkload,
    regions: &[Region],
    cmem: &mut CoreMemory,
    uncore: &mut Uncore,
) {
    for r in regions {
        let warm = match r.role {
            RegionRole::BroadcastInput => true,
            RegionRole::VectorInput => w.reuse_b(),
            RegionRole::Output => false,
        };
        if warm {
            cmem.warm(uncore, r.base, r.bytes, WarmLevel::L3);
        }
    }
}

/// Runs `w` on the machine at the given operating point.
///
/// In [`MachineMode::Symmetric`] one core is simulated against its share of
/// the uncore; in [`MachineMode::Detailed`] this delegates to the
/// [`crate::multicore`] engines and reports the slowest core.
///
/// # Errors
/// * [`SimError::InvalidConfig`] if the operating point fails validation;
/// * [`SimError::VerifyMismatch`] if `verify` is set and the kernel's
///   numerical output disagrees with the reference (always a simulator bug);
/// * [`SimError::CycleBudgetExceeded`] if the run hits the cycle budget or
///   the retire-progress watchdog — the error carries a
///   [`save_core::StallDiag`] naming the stalled resource;
/// * [`SimError::InvariantViolation`] if the cycle-level sanitizer
///   ([`save_core::SanitizeLevel`], `SAVE_SANITIZE`) aborted the run — the
///   error carries the [`save_core::SanitizerReport`] witness.
pub fn run_kernel(
    w: &GemmWorkload,
    kind: ConfigKind,
    machine: &MachineConfig,
    seed: u64,
    verify: bool,
) -> Result<KernelResult, SimError> {
    run_kernel_cancel(w, kind, machine, seed, verify, None)
}

/// [`run_kernel`] with an optional cooperative cancel token. When the token
/// latches (Ctrl-C, a per-cell deadline), the simulated core stops at its
/// next [`save_core::CANCEL_QUANTUM`] boundary and this returns
/// [`SimError::Cancelled`] — no partial [`KernelResult`] escapes.
pub fn run_kernel_cancel(
    w: &GemmWorkload,
    kind: ConfigKind,
    machine: &MachineConfig,
    seed: u64,
    verify: bool,
    cancel: Option<&CancelToken>,
) -> Result<KernelResult, SimError> {
    run_kernel_custom_cancel(w, &kind.core_config(), machine, seed, verify, cancel)
}

/// [`run_kernel_cancel`] that additionally returns the uncore contention
/// report (see [`KernelRun`]). Same errors and timing semantics.
pub fn run_kernel_full(
    w: &GemmWorkload,
    kind: ConfigKind,
    machine: &MachineConfig,
    seed: u64,
    verify: bool,
    cancel: Option<&CancelToken>,
) -> Result<KernelRun, SimError> {
    match machine.mode {
        MachineMode::Detailed => crate::multicore::run_multicore_full(
            w,
            &kind.core_config(),
            machine,
            seed,
            verify,
            cancel,
        ),
        MachineMode::Symmetric => {
            run_symmetric(w, &kind.core_config(), machine, seed, verify, cancel, None)
        }
    }
}

/// Like [`run_kernel`] but with an arbitrary core configuration — used by
/// the ablation studies (Figs 17-19) that toggle individual SAVE features.
/// Respects `machine.mode` like [`run_kernel`] does.
pub fn run_kernel_custom(
    w: &GemmWorkload,
    core_cfg: &CoreConfig,
    machine: &MachineConfig,
    seed: u64,
    verify: bool,
) -> Result<KernelResult, SimError> {
    run_kernel_custom_cancel(w, core_cfg, machine, seed, verify, None)
}

/// [`run_kernel_custom`] with an optional cooperative cancel token (see
/// [`run_kernel_cancel`]).
pub fn run_kernel_custom_cancel(
    w: &GemmWorkload,
    core_cfg: &CoreConfig,
    machine: &MachineConfig,
    seed: u64,
    verify: bool,
    cancel: Option<&CancelToken>,
) -> Result<KernelResult, SimError> {
    if machine.mode == MachineMode::Detailed {
        return crate::multicore::run_multicore_custom_cancel(
            w, core_cfg, machine, seed, verify, cancel,
        );
    }
    run_symmetric(w, core_cfg, machine, seed, verify, cancel, None).map(|r| r.result)
}

/// [`run_kernel_cancel`] with a [`TraceStore`]: the first cell to run for a
/// given `(workload, machine shape, seed)` records a functional trace and
/// files it under [`trace::trace_key`]; every later cell *replays* that
/// trace — skipping codegen, operand generation and FMA arithmetic — and
/// produces bit-identical seconds, cycles and [`CoreStats`] (the
/// "execute once, time N" machinery of DESIGN.md §5h).
///
/// A recording run always checks the numerical output against the
/// reference before the trace is admitted, so a simulator bug surfaces as
/// [`SimError::VerifyMismatch`] on the *first* cell rather than being
/// multiplied across the sweep. The reported `verified` flag still follows
/// the `verify` argument, as in [`run_kernel`].
pub fn run_kernel_traced(
    w: &GemmWorkload,
    kind: ConfigKind,
    machine: &MachineConfig,
    seed: u64,
    verify: bool,
    cancel: Option<&CancelToken>,
    store: &TraceStore,
) -> Result<KernelResult, SimError> {
    run_kernel_custom_traced(w, &kind.core_config(), machine, seed, verify, cancel, store)
}

/// [`run_kernel_traced`] with an arbitrary core configuration — the traced
/// counterpart of [`run_kernel_custom_cancel`].
pub fn run_kernel_custom_traced(
    w: &GemmWorkload,
    core_cfg: &CoreConfig,
    machine: &MachineConfig,
    seed: u64,
    verify: bool,
    cancel: Option<&CancelToken>,
    store: &TraceStore,
) -> Result<KernelResult, SimError> {
    let key = trace::trace_key(w, machine, seed)?;
    let mode = match store.get(key) {
        Some(t) => TraceMode::Replay { trace: t },
        None => TraceMode::Record { store, key },
    };
    match machine.mode {
        MachineMode::Detailed => {
            crate::multicore::run_multicore_traced(w, core_cfg, machine, seed, verify, cancel, mode)
        }
        MachineMode::Symmetric => {
            run_symmetric(w, core_cfg, machine, seed, verify, cancel, Some(mode)).map(|r| r.result)
        }
    }
}

/// What a symmetric run executes from: a freshly built kernel (direct and
/// record modes) or a recorded trace plus an empty functional arena
/// (replay never touches memory values).
enum Exec {
    Built(Box<BuiltKernel>),
    Replay { trace: Arc<KernelTrace>, mem: Memory },
}

/// The symmetric-mode engine behind [`run_kernel_custom_cancel`] and the
/// traced entry points.
fn run_symmetric(
    w: &GemmWorkload,
    core_cfg: &CoreConfig,
    machine: &MachineConfig,
    seed: u64,
    verify: bool,
    cancel: Option<&CancelToken>,
    mode: Option<TraceMode<'_>>,
) -> Result<KernelRun, SimError> {
    let cfg = *core_cfg;
    cfg.validate().map_err(|what| SimError::InvalidConfig { what })?;
    machine.mem.validate().map_err(|what| SimError::InvalidConfig { what })?;
    machine.mc.validate().map_err(|what| SimError::InvalidConfig { what })?;
    let mut uncore = Uncore::new_symmetric(&machine.mem, machine.cores);
    let mut cmem = CoreMemory::new(0, machine.mem, cfg.freq_ghz);
    let mut core = Core::new(cfg);
    if let Some(tok) = cancel {
        core.set_cancel(tok.as_flag());
    }
    let mut exec = match &mode {
        Some(TraceMode::Replay { trace }) => {
            let Some(ct) = trace.cores.first() else {
                return Err(SimError::Protocol { what: "empty kernel trace".to_string() });
            };
            warm_regions(w, &ct.regions, &mut cmem, &mut uncore);
            core.set_replay(Arc::clone(&ct.func));
            Exec::Replay { trace: Arc::clone(trace), mem: Memory::new(0) }
        }
        other => {
            let built = w.build(seed);
            warm_regions(w, &built.regions, &mut cmem, &mut uncore);
            if matches!(other, Some(TraceMode::Record { .. })) {
                core.set_record();
            }
            Exec::Built(Box::new(built))
        }
    };
    let out = match &mut exec {
        Exec::Built(b) => core.run_mut(&b.program, &mut b.mem, &mut cmem, &mut uncore),
        Exec::Replay { trace, mem } => {
            core.run_mut(&trace.cores[0].program, mem, &mut cmem, &mut uncore)
        }
    };
    if let Some(report) = out.violation {
        return Err(SimError::InvariantViolation {
            kernel: w.name.clone(),
            core: None,
            report,
        });
    }
    if out.cancelled {
        return Err(SimError::Cancelled { what: w.name.clone() });
    }
    if !out.completed {
        let Some(diag) = out.stall else {
            return Err(SimError::Io {
                what: "run stopped without a stall diagnosis or violation report".to_string(),
            });
        };
        return Err(SimError::CycleBudgetExceeded {
            kernel: w.name.clone(),
            core: None,
            diag: Box::new(diag),
        });
    }
    let verified = match (&mode, exec) {
        // A recording run is always checked against the reference before
        // the trace is admitted (see `run_kernel_traced`).
        (Some(TraceMode::Record { store, key }), Exec::Built(built)) => {
            if let Err((i, got, want)) = built.verify() {
                return Err(SimError::VerifyMismatch {
                    kernel: w.name.clone(),
                    core: None,
                    index: i,
                    got,
                    want,
                });
            }
            if let Some(func) = core.take_trace().filter(|t| t.replayable) {
                let built = *built;
                store.insert(
                    *key,
                    KernelTrace {
                        cores: vec![CoreTrace {
                            program: built.program,
                            regions: built.regions,
                            func: Arc::new(func),
                        }],
                    },
                );
            }
            verify
        }
        // Replay has no functional output; the trace verified at record.
        (Some(TraceMode::Replay { .. }), _) => verify,
        (_, Exec::Built(built)) => {
            if verify {
                if let Err((i, got, want)) = built.verify() {
                    return Err(SimError::VerifyMismatch {
                        kernel: w.name.clone(),
                        core: None,
                        index: i,
                        got,
                        want,
                    });
                }
                true
            } else {
                false
            }
        }
        (_, Exec::Replay { .. }) => unreachable!("replay implies TraceMode::Replay"),
    };
    Ok(KernelRun {
        result: KernelResult {
            seconds: cfg.cycles_to_seconds(out.stats.cycles),
            cycles: out.stats.cycles,
            stats: out.stats,
            verified,
            completed: out.completed,
        },
        uncore: uncore.report(),
    })
}

/// Sanity helper used by tests: the scheduler kind of an operating point.
pub fn scheduler_of(kind: ConfigKind) -> SchedulerKind {
    kind.core_config().scheduler
}

#[cfg(test)]
mod tests {
    use super::*;
    use save_kernels::{BroadcastPattern, GemmKernelSpec, Precision};

    fn tiny() -> GemmWorkload {
        GemmWorkload::dense(
            "tiny",
            GemmKernelSpec {
                m_tiles: 4,
                n_vecs: 2,
                pattern: BroadcastPattern::Explicit,
                precision: Precision::F32,
            },
            16,
            2,
        )
        .with_sparsity(0.3, 0.3)
    }

    #[test]
    fn symmetric_run_verifies_and_times() {
        let r = run_kernel(&tiny(), ConfigKind::Save2Vpu, &MachineConfig::default(), 1, true)
            .unwrap();
        assert!(r.completed && r.verified);
        assert!(r.seconds > 0.0);
        assert_eq!(r.stats.fma_uops, tiny().fma_count());
    }

    #[test]
    fn invalid_operating_point_is_rejected_up_front() {
        let bad = CoreConfig { num_vpus: 0, ..CoreConfig::default() };
        let err = run_kernel_custom(&tiny(), &bad, &MachineConfig::default(), 1, false)
            .unwrap_err();
        match err {
            SimError::InvalidConfig { what } => assert!(what.contains("num_vpus"), "{what}"),
            other => panic!("expected InvalidConfig, got {other}"),
        }
    }

    #[test]
    fn cycle_budget_overrun_carries_a_stall_diag() {
        let starved = CoreConfig { max_cycles: 20, ..CoreConfig::default() };
        let err = run_kernel_custom(&tiny(), &starved, &MachineConfig::default(), 1, false)
            .unwrap_err();
        match err {
            SimError::CycleBudgetExceeded { kernel, diag, .. } => {
                assert_eq!(kernel, "tiny");
                assert_eq!(diag.cause, save_core::StallCause::CycleBudget);
                assert_eq!(diag.cycle, 20);
            }
            other => panic!("expected CycleBudgetExceeded, got {other}"),
        }
    }

    #[test]
    fn operating_points_differ_in_frequency() {
        assert_eq!(ConfigKind::Baseline.core_config().freq_ghz, 1.7);
        assert_eq!(ConfigKind::Save1Vpu.core_config().freq_ghz, 2.1);
        assert_eq!(ConfigKind::Save1Vpu.core_config().num_vpus, 1);
        assert_eq!(scheduler_of(ConfigKind::Baseline), SchedulerKind::Baseline);
    }

    #[test]
    fn deterministic_across_repeats() {
        let a = run_kernel(&tiny(), ConfigKind::Save1Vpu, &MachineConfig::default(), 7, false)
            .unwrap();
        let b = run_kernel(&tiny(), ConfigKind::Save1Vpu, &MachineConfig::default(), 7, false)
            .unwrap();
        assert_eq!(a.cycles, b.cycles);
    }
}
