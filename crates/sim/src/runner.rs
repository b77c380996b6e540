//! Single-kernel execution on a configured machine.

use crate::cancel::CancelToken;
use crate::error::SimError;
use crate::spec::CellSpec;
use save_core::{Core, CoreConfig, CoreStats};
use save_isa::Memory;
use save_kernels::{BuiltKernel, GemmWorkload, Region, RegionRole};
use save_mem::{CoreMemory, MemConfig, Uncore, UncoreReport, WarmLevel};
use serde::{Deserialize, Serialize};

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

/// Runs `w` at a named operating point and returns the run with its uncore
/// report: [`CellSpec::run`] over the equivalent spec. Kept with this
/// signature for the `perfbench` benchmark; code in this workspace builds a
/// [`CellSpec`] instead.
pub fn run_kernel_full(
    w: &GemmWorkload,
    kind: ConfigKind,
    machine: &MachineConfig,
    seed: u64,
    verify: bool,
    cancel: Option<&CancelToken>,
) -> Result<KernelRun, SimError> {
    CellSpec::new(w.clone(), kind, *machine, seed).with_verify(verify).run(cancel)
}

/// The symmetric-mode engine: one core runs `kernel`'s program against
/// `mem` — the caller's copy of the kernel's functional memory, so a
/// kernel cached in a [`crate::TraceStore`] stays pristine — under its
/// 1/N share of the uncore. With `verify` set, the output in `mem` is
/// checked against the kernel's reference.
pub(crate) fn run_symmetric(
    w: &GemmWorkload,
    core_cfg: &CoreConfig,
    machine: &MachineConfig,
    kernel: &BuiltKernel,
    mem: &mut Memory,
    verify: bool,
    cancel: Option<&CancelToken>,
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
    warm_regions(w, &kernel.regions, &mut cmem, &mut uncore);
    let out = core.run_mut(&kernel.program, mem, &mut cmem, &mut uncore);
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
    if verify {
        if let Err((i, got, want)) = kernel.verify_in(mem) {
            return Err(SimError::VerifyMismatch {
                kernel: w.name.clone(),
                core: None,
                index: i,
                got,
                want,
            });
        }
    }
    Ok(KernelRun {
        result: KernelResult {
            seconds: cfg.cycles_to_seconds(out.stats.cycles),
            cycles: out.stats.cycles,
            stats: out.stats,
            verified: verify,
            completed: out.completed,
        },
        uncore: uncore.report(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GemmWorkload {
        crate::testutil::gemm("tiny", (4, 2), 16, 2, (0.3, 0.3))
    }

    fn spec(cfg: CoreConfig, seed: u64) -> CellSpec {
        CellSpec::custom(tiny(), cfg, MachineConfig::default(), seed)
    }

    #[test]
    fn symmetric_run_verifies_and_times() {
        let r = spec(CoreConfig::save_2vpu(), 1).with_verify(true).run(None).unwrap().result;
        assert!(r.completed && r.verified);
        assert!(r.seconds > 0.0);
        assert_eq!(r.stats.fma_uops, tiny().fma_count());
    }

    #[test]
    fn invalid_operating_point_is_rejected_up_front() {
        let bad = CoreConfig { num_vpus: 0, ..CoreConfig::default() };
        match spec(bad, 1).run(None).unwrap_err() {
            SimError::InvalidConfig { what } => assert!(what.contains("num_vpus"), "{what}"),
            other => panic!("expected InvalidConfig, got {other}"),
        }
    }

    #[test]
    fn cycle_budget_overrun_carries_a_stall_diag() {
        let starved = CoreConfig { max_cycles: 20, ..CoreConfig::default() };
        match spec(starved, 1).run(None).unwrap_err() {
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
        assert_eq!(
            ConfigKind::Baseline.core_config().scheduler,
            save_core::SchedulerKind::Baseline
        );
    }

    #[test]
    fn deterministic_across_repeats() {
        let a = spec(CoreConfig::save_1vpu(), 7).run(None).unwrap().result;
        let b = spec(CoreConfig::save_1vpu(), 7).run(None).unwrap().result;
        assert_eq!(a.cycles, b.cycles);
    }
}
