//! Quantum-based relaxed-synchronization multicore engine (DESIGN.md §5i).
//!
//! Sniper-style relaxed sync: instead of interleaving all cores cycle by
//! cycle over the shared uncore (the lockstep engine), each core runs a
//! *quantum* of cycles against a core-private [`QuantumView`] — a read-only
//! snapshot of shared L3 state plus a private DRAM-channel clone — and logs
//! every uncore request it issues. At the quantum barrier all logs replay
//! into the real [`Uncore`] in the canonical `(start_ns, core, seq)` order
//! ([`Uncore::reconcile`]), so shared state evolves identically no matter
//! how many host threads ran the quantum or how they were scheduled.
//!
//! # Determinism argument
//!
//! * A lane's quantum execution is a pure function of (lane state, shared
//!   snapshot): the view never reads another lane's in-quantum activity.
//! * The barrier replay order is a total order over requests that depends
//!   only on simulated time, core id and per-core issue sequence — never on
//!   host scheduling.
//! * Therefore `threads = 1, 2, N` produce bit-identical lane states,
//!   outcomes and uncore counters for any fixed quantum. (Enforced by
//!   `tests/relaxed.rs`.)
//!
//! The *quantum length* does change results: within a quantum a core cannot
//! see sibling evictions or DRAM queueing from the same quantum, which is
//! the classic relaxed-sync timing error, bounded by the quantum. That is
//! why `quantum` is part of the cell cache key while `threads` is not, and
//! why `quantum == 1` dispatches to the lockstep engine (a barrier every
//! cycle collapses the protocol onto cycle-accurate interleaving).
//!
//! # Why it is fast
//!
//! Between barriers each core fast-forwards through its own inert stretches
//! independently ([`save_core::Core::run_until_cycle`] clamps jumps to the
//! quantum end). The lockstep engine can only jump when *every* core is
//! simultaneously inert, so mixed rounds degrade to per-cycle stepping —
//! the dominant cost at 28 cores. Host threads add wall-clock parallelism
//! on top when available (`threads == 0` asks the shared budget in
//! [`crate::parallel`], so sweeps and engines never oversubscribe).

use crate::multicore::Lane;
use save_mem::{QuantumView, Uncore, UncoreAccess, UncoreReq};

/// Resolves the host-thread request: `0` = the shared budget allowance,
/// always clamped to the lane count.
fn resolve_threads(threads: usize, lanes: usize) -> usize {
    let t = if threads == 0 { crate::parallel::sim_thread_allowance() } else { threads };
    t.clamp(1, lanes.max(1))
}

/// Runs one lane to the quantum boundary against a fresh view of `shared`,
/// appending its request log to `reqs`.
fn run_lane_quantum(lane: &mut Lane, shared: &Uncore, boundary: u64, reqs: &mut Vec<UncoreReq>) {
    if lane.outcome.is_some() {
        return;
    }
    let mut view = QuantumView::new(shared);
    lane.run_until(boundary, &mut view as &mut dyn UncoreAccess);
    reqs.append(&mut view.take_log());
}

/// Drives every lane to completion under relaxed synchronization. Lane
/// outcomes are filled in place; the shared uncore ends in exactly the
/// state the canonical replay of all quanta produces.
pub(crate) fn run_relaxed(lanes: &mut [Lane], uncore: &mut Uncore, quantum: u64, threads: usize) {
    debug_assert!(quantum > 1, "quantum == 1 is the lockstep engine");
    let threads = resolve_threads(threads, lanes.len());
    let mut boundary = quantum;
    let mut reqs: Vec<UncoreReq> = Vec::new();
    while lanes.iter().any(|l| l.outcome.is_none()) {
        if threads <= 1 {
            for lane in lanes.iter_mut() {
                run_lane_quantum(lane, uncore, boundary, &mut reqs);
            }
        } else {
            let shared: &Uncore = uncore;
            let chunk = lanes.len().div_ceil(threads);
            std::thread::scope(|s| {
                let handles: Vec<_> = lanes
                    .chunks_mut(chunk)
                    .map(|slice| {
                        s.spawn(move || {
                            let mut local: Vec<UncoreReq> = Vec::new();
                            for lane in slice {
                                run_lane_quantum(lane, shared, boundary, &mut local);
                            }
                            local
                        })
                    })
                    .collect();
                for h in handles {
                    // A worker panic (a simulator bug) propagates exactly as
                    // it would under lockstep; the scope joins the rest.
                    match h.join() {
                        Ok(mut local) => reqs.append(&mut local),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
            });
        }
        // Deterministic barrier: replay the whole quantum's traffic into
        // the shared uncore in canonical order.
        uncore.reconcile(&mut reqs);
        boundary += quantum;
    }
}

#[cfg(test)]
mod tests {
    use crate::runner::{ConfigKind, KernelResult, MachineConfig, MachineMode};
    use crate::spec::CellSpec;
    use save_kernels::GemmWorkload;

    fn tiny() -> GemmWorkload {
        crate::testutil::gemm("relaxed", (4, 2), 16, 2, (0.2, 0.4))
    }

    fn machine(cores: usize, quantum: u64, threads: usize) -> MachineConfig {
        let mut m =
            MachineConfig { cores, mode: MachineMode::Detailed, ..Default::default() };
        m.mc.quantum = quantum;
        m.mc.threads = threads;
        m
    }

    fn spec(kind: ConfigKind, machine: MachineConfig, seed: u64) -> CellSpec {
        CellSpec::new(tiny(), kind, machine, seed)
    }

    fn result(spec: CellSpec) -> KernelResult {
        spec.run(None).unwrap().result
    }

    #[test]
    fn relaxed_run_completes_and_verifies() {
        let r = result(spec(ConfigKind::Save2Vpu, machine(4, 200, 1), 3).with_verify(true));
        assert!(r.completed && r.verified);
        assert!(r.cycles > 0);
    }

    #[test]
    fn thread_count_never_changes_results() {
        let base = result(spec(ConfigKind::Baseline, machine(4, 128, 1), 7));
        for threads in [2, 4, 7] {
            let r = result(spec(ConfigKind::Baseline, machine(4, 128, threads), 7));
            assert_eq!(r.cycles, base.cycles, "threads={threads}");
            assert_eq!(
                r.seconds.to_bits(),
                base.seconds.to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn quantum_error_is_bounded() {
        // Relaxed timing may drift from lockstep, but only within the
        // bounded in-quantum error — a generous band catches protocol bugs
        // (e.g. lost requests) without pinning the exact drift.
        let lock = result(spec(ConfigKind::Baseline, machine(4, 1, 0), 11));
        let rel = result(spec(ConfigKind::Baseline, machine(4, 1000, 1), 11));
        let ratio = rel.cycles as f64 / lock.cycles as f64;
        assert!((0.7..1.3).contains(&ratio), "relaxed/lockstep cycle ratio {ratio:.3}");
    }
}
