//! Detailed multicore mode: N cores over one shared uncore (NUCA L3 slices
//! + mesh + DRAM channels).
//!
//! Each core runs its own instance of the kernel (data-parallel tiles, as
//! DNNL parallelizes a layer across cores) with a distinct data seed; the
//! shared structures see each core's buffers as distinct physical memory.
//! The kernel's wall-clock time is the slowest core's finish time — exactly
//! how a parallel layer completes.
//!
//! Two engines share the per-core [`Lane`] machinery (DESIGN.md §5i):
//!
//! * **lockstep** (`mc.quantum == 1`, the default) — cores are interleaved
//!   cycle by cycle on one host thread, every uncore access hits shared
//!   state immediately;
//! * **relaxed** (`mc.quantum > 1`, [`crate::relaxed`]) — each core runs a
//!   quantum of cycles against a private uncore view, then all logs replay
//!   into the shared uncore at a deterministic barrier.

use crate::cancel::CancelToken;
use crate::error::SimError;
use crate::runner::{warm_regions, KernelResult, KernelRun, MachineConfig};
use save_core::{Core, CoreConfig, RunOutcome};
use save_kernels::BuiltKernel;
use save_mem::{CoreMemory, Uncore, UncoreAccess};

/// One simulated core with everything it needs to run: the core, its
/// private memory, its own built kernel and (once done) its outcome. Both
/// the lockstep and relaxed engines drive a `Vec<Lane>`.
pub(crate) struct Lane {
    /// Core index == mesh tile index.
    pub(crate) idx: usize,
    pub(crate) core: Core,
    pub(crate) cmem: CoreMemory,
    pub(crate) kernel: BuiltKernel,
    pub(crate) outcome: Option<RunOutcome>,
}

impl Lane {
    /// Advances the lane one cycle against `uncore` (lockstep engine).
    fn step(&mut self, uncore: &mut dyn UncoreAccess) -> Option<RunOutcome> {
        let k = &mut self.kernel;
        self.core.step(&k.program, &mut k.mem, &mut self.cmem, uncore)
    }

    /// Runs the lane until its local clock reaches `limit` (relaxed engine;
    /// see [`Core::run_until_cycle`]). No-op once the outcome is set.
    pub(crate) fn run_until(&mut self, limit: u64, uncore: &mut dyn UncoreAccess) {
        if self.outcome.is_some() {
            return;
        }
        let k = &mut self.kernel;
        self.outcome =
            self.core.run_until_cycle(limit, &k.program, &mut k.mem, &mut self.cmem, uncore);
    }
}

/// Builds one lane per core: validates nothing (callers validate configs),
/// builds the per-core kernels and applies the §VI warm-up policy against
/// the shared uncore in core order — identical for both engines, so
/// warm-up state never depends on the engine choice.
fn setup_lanes(
    w: &save_kernels::GemmWorkload,
    cfg: CoreConfig,
    machine: &MachineConfig,
    seed: u64,
    uncore: &mut Uncore,
) -> Vec<Lane> {
    (0..machine.cores.max(1))
        .map(|c| {
            let kernel = w.build(seed.wrapping_add(c as u64));
            let mut cmem = CoreMemory::new(c, machine.mem, cfg.freq_ghz);
            warm_regions(w, &kernel.regions, &mut cmem, uncore);
            Lane { idx: c, core: Core::new(cfg), cmem, kernel, outcome: None }
        })
        .collect()
}

/// The serial lockstep engine: cores are interleaved cycle by cycle over
/// the shared uncore. This is the `quantum == 1` degenerate case of the
/// relaxed protocol (a barrier every cycle) and the bit-exactness oracle
/// the relaxed engine is tested against.
fn run_lockstep(lanes: &mut [Lane], uncore: &mut Uncore) {
    let mut remaining = lanes.iter().filter(|l| l.outcome.is_none()).count();
    while remaining > 0 {
        for lane in lanes.iter_mut() {
            if lane.outcome.is_some() {
                continue;
            }
            // Per-core single-cycle skip: an inert core whose next event is
            // still in the future would execute a provable no-op this cycle
            // (it touches no shared state), so replay its inert delta for
            // one cycle instead of stepping it. This is what keeps mixed
            // rounds cheap — typically only one core is actually active
            // while the rest wait on DRAM.
            let skip = lane.core.ff_target().is_some_and(|t| t > lane.core.cycle());
            let res = if skip {
                let next = lane.core.cycle() + 1;
                lane.core.advance_to(next)
            } else {
                lane.step(uncore)
            };
            if let Some(out) = res {
                lane.outcome = Some(out);
                remaining -= 1;
            }
        }
        // Event-driven fast-forward, in lockstep: the shared uncore is
        // time-stamped by core clocks, so cores must stay cycle-aligned.
        // Only when EVERY unfinished core just executed an inert cycle may
        // the machine jump, and then only to the earliest next event across
        // cores — any core's earlier event would re-engage the others.
        let mut target: Option<u64> = None;
        let mut all_inert = true;
        for lane in lanes.iter() {
            if lane.outcome.is_some() {
                continue;
            }
            match lane.core.ff_target() {
                Some(t) => target = Some(target.map_or(t, |m| m.min(t))),
                None => {
                    all_inert = false;
                    break;
                }
            }
        }
        if all_inert {
            if let Some(t) = target {
                for lane in lanes.iter_mut() {
                    if lane.outcome.is_some() {
                        continue;
                    }
                    if let Some(out) = lane.core.advance_to(t) {
                        lane.outcome = Some(out);
                        remaining -= 1;
                    }
                }
            }
        }
    }
}

/// Runs `w` on every core of a detailed machine under an arbitrary core
/// configuration; returns the slowest core's result (with its stats) and
/// the uncore contention report. The optional cancel token's flag is shared
/// by every simulated core, so one latch stops the whole machine within a
/// cancel quantum.
///
/// # Errors
/// [`SimError::InvalidConfig`] for a rejected operating point,
/// [`SimError::VerifyMismatch`] (tagged with the offending core) if
/// `verify` is set and any core's output disagrees with its reference,
/// [`SimError::InvariantViolation`] (tagged with the offending core) if a
/// core's sanitizer aborted the run, and [`SimError::CycleBudgetExceeded`]
/// with the first stalled core's diagnosis if any core fails to drain.
pub(crate) fn run_multicore_full(
    w: &save_kernels::GemmWorkload,
    core_cfg: &CoreConfig,
    machine: &MachineConfig,
    seed: u64,
    verify: bool,
    cancel: Option<&CancelToken>,
) -> Result<KernelRun, SimError> {
    let cfg = *core_cfg;
    cfg.validate().map_err(|what| SimError::InvalidConfig { what })?;
    machine.mem.validate().map_err(|what| SimError::InvalidConfig { what })?;
    machine.mc.validate().map_err(|what| SimError::InvalidConfig { what })?;
    let n = machine.cores.max(1);
    let mut uncore = Uncore::new(&machine.mem, n);
    let mut lanes = setup_lanes(w, cfg, machine, seed, &mut uncore);
    if let Some(tok) = cancel {
        for lane in &mut lanes {
            lane.core.set_cancel(tok.as_flag());
        }
    }
    if machine.mc.quantum > 1 {
        crate::relaxed::run_relaxed(
            &mut lanes,
            &mut uncore,
            machine.mc.quantum,
            machine.mc.threads,
        );
    } else {
        run_lockstep(&mut lanes, &mut uncore);
    }
    finalize(w, cfg, &lanes, &uncore, verify)
}

/// Turns finished lanes into the run verdict: cancellation first, then
/// per-core violations/stalls, then verification, then the slowest core's
/// timing. Shared by both engines.
fn finalize(
    w: &save_kernels::GemmWorkload,
    cfg: CoreConfig,
    lanes: &[Lane],
    uncore: &Uncore,
    verify: bool,
) -> Result<KernelRun, SimError> {
    // Cancellation outranks every other verdict: a machine whose cores were
    // told to stop produced no meaningful timing, and the caller needs the
    // dedicated error to journal/exit correctly.
    if lanes.iter().filter_map(|l| l.outcome.as_ref()).any(|o| o.cancelled) {
        return Err(SimError::Cancelled { what: w.name.clone() });
    }
    // A core that aborted (sanitizer) or stalled (watchdog or budget)
    // poisons the whole run: the layer never finishes. Report the first
    // such core's evidence.
    for lane in lanes {
        let o = lane.outcome.as_ref().expect("engine filled every outcome");
        if let Some(report) = &o.violation {
            return Err(SimError::InvariantViolation {
                kernel: w.name.clone(),
                core: Some(lane.idx),
                report: report.clone(),
            });
        }
        if !o.completed {
            let Some(diag) = o.stall.clone() else {
                return Err(SimError::Io {
                    what: format!(
                        "core {} stopped without a stall diagnosis or violation report",
                        lane.idx
                    ),
                });
            };
            return Err(SimError::CycleBudgetExceeded {
                kernel: w.name.clone(),
                core: Some(lane.idx),
                diag: Box::new(diag),
            });
        }
    }
    if verify {
        for lane in lanes {
            if let Err((i, got, want)) = lane.kernel.verify() {
                return Err(SimError::VerifyMismatch {
                    kernel: w.name.clone(),
                    core: Some(lane.idx),
                    index: i,
                    got,
                    want,
                });
            }
        }
    }
    let slowest = lanes
        .iter()
        .filter_map(|l| l.outcome.as_ref())
        .max_by_key(|o| o.stats.cycles)
        .cloned()
        .expect("at least one core");
    Ok(KernelRun {
        result: KernelResult {
            seconds: cfg.cycles_to_seconds(slowest.stats.cycles),
            cycles: slowest.stats.cycles,
            stats: slowest.stats,
            verified: verify,
            completed: slowest.completed,
        },
        uncore: uncore.report(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{ConfigKind, MachineMode};
    use crate::spec::CellSpec;
    use save_kernels::GemmWorkload;

    fn tiny() -> GemmWorkload {
        crate::testutil::gemm("mc", (4, 2), 16, 2, (0.2, 0.4))
    }

    #[test]
    fn four_core_detailed_run_is_correct() {
        let m = MachineConfig { cores: 4, mode: MachineMode::Detailed, ..Default::default() };
        let spec = CellSpec::new(tiny(), ConfigKind::Save2Vpu, m, 3).with_verify(true);
        let r = spec.run(None).unwrap().result;
        assert!(r.completed && r.verified);
    }

    #[test]
    fn contention_slows_cores_down() {
        // The same kernel on a detailed 8-core machine (8 cores fighting for
        // DRAM) must not be faster than on a detailed single-core machine.
        let w = GemmWorkload {
            b_panel_tiles: 1, // stream B: guarantees DRAM traffic
            ..tiny()
        };
        let m1 = MachineConfig { cores: 1, mode: MachineMode::Detailed, ..Default::default() };
        let m8 = MachineConfig { cores: 8, mode: MachineMode::Detailed, ..Default::default() };
        let r1 = CellSpec::new(w.clone(), ConfigKind::Baseline, m1, 5).run(None).unwrap().result;
        let r8 = CellSpec::new(w, ConfigKind::Baseline, m8, 5).run(None).unwrap().result;
        assert!(r8.cycles >= r1.cycles, "8-core {} vs 1-core {}", r8.cycles, r1.cycles);
    }

    #[test]
    fn symmetric_approximates_detailed() {
        // The symmetric mode must land within a reasonable factor of the
        // detailed mode for a compute-bound kernel.
        let md = MachineConfig { cores: 4, mode: MachineMode::Detailed, ..Default::default() };
        let ms = MachineConfig { cores: 4, mode: MachineMode::Symmetric, ..Default::default() };
        let rd = CellSpec::new(tiny(), ConfigKind::Baseline, md, 9).run(None).unwrap().result;
        let rs = CellSpec::new(tiny(), ConfigKind::Baseline, ms, 9).run(None).unwrap().result;
        let ratio = rd.seconds / rs.seconds;
        assert!((0.5..2.0).contains(&ratio), "detailed/symmetric ratio {ratio:.2}");
    }

    #[test]
    fn quantum_zero_is_rejected() {
        let mut m = MachineConfig { cores: 2, mode: MachineMode::Detailed, ..Default::default() };
        m.mc.quantum = 0;
        let err = CellSpec::new(tiny(), ConfigKind::Baseline, m, 1).run(None).unwrap_err();
        match err {
            SimError::InvalidConfig { what } => assert!(what.contains("quantum"), "{what}"),
            other => panic!("expected InvalidConfig, got {other}"),
        }
    }
}
