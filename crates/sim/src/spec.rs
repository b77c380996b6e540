//! Self-contained cell specifications — the identity of one sweep cell.
//!
//! A [`CellSpec`] captures *everything* that determines one simulation
//! cell's result: the workload (shape + sparsity + sparsity seed baked
//! into [`GemmWorkload`]), the core operating point, the machine/memory
//! configuration, the RNG seed, and whether numerical verification runs.
//! Because the simulator is deterministic (DESIGN.md §1), two executions
//! of the same spec — in different processes, at different times —
//! produce bit-identical seconds. That determinism is what makes the
//! [`TraceStore`] result memo sound: results are keyed by
//! [`CellSpec::cache_key`], a content hash over the spec's JSON encoding,
//! so a memo hit *is* a re-execution as far as the numbers are concerned.
//!
//! The bench binaries build specs with [`crate::surface::Surface::point_seed`]
//! so a batch of spec cells reproduces `sweep_durable`'s bits exactly.

use crate::cancel::CancelToken;
use crate::checkpoint::fnv1a;
use crate::error::SimError;
use crate::multicore::run_multicore_full;
use crate::runner::{run_symmetric, ConfigKind, KernelResult, KernelRun, MachineConfig, MachineMode};
use crate::trace::TraceStore;
use save_core::CoreConfig;
use save_kernels::GemmWorkload;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which core configuration a cell runs under: one of the paper's three
/// named operating points, or an arbitrary ablation configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum CoreSel {
    /// A named operating point ([`ConfigKind`]).
    Kind {
        /// The operating point.
        kind: ConfigKind,
    },
    /// An explicit core configuration (ablation studies, Figs 17-19).
    Custom {
        /// The full configuration.
        config: Box<CoreConfig>,
    },
}

/// One fully-specified simulation cell (see module docs).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellSpec {
    /// The kernel to run (name, shape, sparsity levels and seed).
    pub workload: GemmWorkload,
    /// Core operating point.
    pub core: CoreSel,
    /// Machine/memory configuration and simulation mode.
    pub machine: MachineConfig,
    /// RNG seed for operand generation.
    pub seed: u64,
    /// Whether to verify numerical output against the reference.
    pub verify: bool,
}

impl CellSpec {
    /// Builds a spec for a named operating point.
    pub fn new(workload: GemmWorkload, kind: ConfigKind, machine: MachineConfig, seed: u64) -> Self {
        CellSpec { workload, core: CoreSel::Kind { kind }, machine, seed, verify: false }
    }

    /// Builds a spec for an explicit core configuration.
    pub fn custom(
        workload: GemmWorkload,
        config: CoreConfig,
        machine: MachineConfig,
        seed: u64,
    ) -> Self {
        CellSpec {
            workload,
            core: CoreSel::Custom { config: Box::new(config) },
            machine,
            seed,
            verify: false,
        }
    }

    /// The same cell with numerical verification switched on or off.
    pub fn with_verify(self, verify: bool) -> Self {
        CellSpec { verify, ..self }
    }

    /// Content address of the cell's *functional* work: everything shared
    /// by all timing configurations of this cell — the workload, the
    /// machine shape (mode + core count) and the data seed. Cells with
    /// equal trace keys share one built kernel (see [`crate::trace`]).
    pub fn trace_key(&self) -> Result<u64, SimError> {
        crate::trace::trace_key(&self.workload, &self.machine, self.seed)
    }

    /// Content address of the cell's *timing* configuration: the core
    /// operating point, the memory-system configuration, the relaxed-sync
    /// quantum (it bounds the in-quantum timing error, so different quanta
    /// are different timing results) and the verify flag — everything
    /// [`CellSpec::trace_key`] deliberately excludes. The host-thread count
    /// is deliberately NOT hashed: it provably never changes results
    /// (deterministic barrier reconciliation, DESIGN.md §5i), so cached
    /// cells stay valid across machines with different core counts.
    pub fn timing_key(&self) -> Result<u64, SimError> {
        let cj = serde_json::to_string(&self.core)
            .map_err(|e| SimError::Protocol { what: format!("serialize core sel: {e}") })?;
        let mj = serde_json::to_string(&self.machine.mem)
            .map_err(|e| SimError::Protocol { what: format!("serialize mem config: {e}") })?;
        Ok(fnv1a(
            format!("time|{cj}|{mj}|q{}|{}", self.machine.mc.quantum, self.verify).as_bytes(),
        ))
    }

    /// Content hash keying the memo cache: `hash(trace_key ‖ timing_key)`.
    /// Two specs share a key iff every field that can influence the result
    /// is identical — the same contract as the original canonical-JSON
    /// hash, but split along the functional/timing line so that cells
    /// sharing a kernel visibly share the functional half of their key.
    pub fn cache_key(&self) -> Result<u64, SimError> {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&self.trace_key()?.to_le_bytes());
        bytes[8..].copy_from_slice(&self.timing_key()?.to_le_bytes());
        Ok(fnv1a(&bytes))
    }

    /// The core configuration the cell runs under.
    fn core_config(&self) -> CoreConfig {
        match &self.core {
            CoreSel::Kind { kind } => kind.core_config(),
            CoreSel::Custom { config } => **config,
        }
    }

    /// Executes the cell and returns its result with the uncore contention
    /// report. A [`MachineMode::Symmetric`] cell builds its kernel and runs
    /// one core against its 1/N share of the uncore; a
    /// [`MachineMode::Detailed`] cell runs every core through the
    /// [`crate::multicore`] engines and reports the slowest. When `cancel`
    /// latches (Ctrl-C, a per-cell deadline), the simulated cores stop at
    /// their next [`save_core::CANCEL_QUANTUM`] boundary.
    ///
    /// # Errors
    /// * [`SimError::InvalidConfig`] if the operating point fails validation;
    /// * [`SimError::VerifyMismatch`] if [`CellSpec::verify`] is set and the
    ///   kernel's numerical output disagrees with the reference (always a
    ///   simulator bug);
    /// * [`SimError::CycleBudgetExceeded`] if the run hits the cycle budget
    ///   or the retire-progress watchdog — the error carries a
    ///   [`save_core::StallDiag`] naming the stalled resource;
    /// * [`SimError::InvariantViolation`] if the cycle-level sanitizer
    ///   aborted the run — the error carries the
    ///   [`save_core::SanitizerReport`] witness;
    /// * [`SimError::Cancelled`] if `cancel` latched before the run drained.
    pub fn run(&self, cancel: Option<&CancelToken>) -> Result<KernelRun, SimError> {
        let (w, cfg) = (&self.workload, self.core_config());
        match self.machine.mode {
            MachineMode::Detailed => {
                run_multicore_full(w, &cfg, &self.machine, self.seed, self.verify, cancel)
            }
            MachineMode::Symmetric => {
                // A fresh build: its own memory is the run's memory.
                let mut built = w.build(self.seed);
                let mut mem = std::mem::take(&mut built.mem);
                run_symmetric(w, &cfg, &self.machine, &built, &mut mem, self.verify, cancel)
            }
        }
    }

    /// Executes the cell through a [`TraceStore`]. Cells whose full
    /// [`CellSpec::cache_key`] already ran through this store are served
    /// from its result memo without entering the core at all — the
    /// simulator is deterministic, so the memoized bits are the bits a
    /// re-execution would produce. Otherwise a symmetric-machine cell runs
    /// the ordinary direct path on a copy of the kernel filed under its
    /// [`CellSpec::trace_key`], building and admitting that kernel first
    /// when the store has none. The admitting run always checks the
    /// numerical output, so a simulator bug surfaces as
    /// [`SimError::VerifyMismatch`] on the first cell rather than being
    /// multiplied across the sweep; the reported `verified` flag still
    /// follows [`CellSpec::verify`]. Detailed-machine cells use the memo
    /// only.
    pub fn run_traced(
        &self,
        cancel: Option<&CancelToken>,
        store: &TraceStore,
    ) -> Result<KernelResult, SimError> {
        let cache_key = self.cache_key()?;
        if let Some(memo) = store.result(cache_key) {
            return Ok(memo);
        }
        let result = match self.machine.mode {
            MachineMode::Detailed => self.run(cancel)?.result,
            MachineMode::Symmetric => {
                let key = self.trace_key()?;
                let (kernel, admit) = match store.get(key) {
                    Some(k) => (k, false),
                    None => (Arc::new(self.workload.build(self.seed)), true),
                };
                let mut mem = kernel.mem.clone();
                let mut r = run_symmetric(
                    &self.workload,
                    &self.core_config(),
                    &self.machine,
                    &kernel,
                    &mut mem,
                    self.verify || admit,
                    cancel,
                )?
                .result;
                if admit {
                    r.verified = self.verify;
                    store.insert(key, kernel);
                }
                r
            }
        };
        store.record_result(cache_key, result);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::Surface;

    fn tiny() -> GemmWorkload {
        crate::testutil::gemm("tiny", (4, 2), 16, 2, (0.3, 0.3))
    }

    #[test]
    fn cache_key_is_deterministic_and_input_sensitive() {
        let spec = CellSpec::new(tiny(), ConfigKind::Save2Vpu, MachineConfig::default(), 7);
        let k1 = spec.cache_key().unwrap();
        let k2 = spec.clone().cache_key().unwrap();
        assert_eq!(k1, k2, "same spec, same key");

        let mut other = spec.clone();
        other.seed = 8;
        assert_ne!(k1, other.cache_key().unwrap(), "seed is part of the key");

        let other = CellSpec::new(tiny(), ConfigKind::Baseline, MachineConfig::default(), 7);
        assert_ne!(k1, other.cache_key().unwrap(), "operating point is part of the key");

        let other = CellSpec::new(
            tiny().with_sparsity(0.3, 0.4),
            ConfigKind::Save2Vpu,
            MachineConfig::default(),
            7,
        );
        assert_ne!(k1, other.cache_key().unwrap(), "sparsity is part of the key");
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = CellSpec::custom(
            tiny(),
            ConfigKind::Save1Vpu.core_config(),
            MachineConfig::default(),
            3,
        );
        let json = serde_json::to_string(&spec).unwrap();
        let back: CellSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec.cache_key().unwrap(), back.cache_key().unwrap());
    }

    /// A named operating point and its core configuration stated as a
    /// `Custom` cell are the same cell to the simulator: equal seconds
    /// bits, cycles, `CoreStats` and uncore report on both machine modes.
    /// The ratio binaries state their baselines as `Custom` cells while
    /// fig15/fig16 use `Kind` cells, so their figures rest on this.
    #[test]
    fn custom_config_matches_its_named_kind() {
        let detailed = MachineConfig { cores: 4, mode: MachineMode::Detailed, ..Default::default() };
        for machine in [MachineConfig::default(), detailed] {
            for kind in ConfigKind::ALL {
                let named = CellSpec::new(tiny(), kind, machine, 5).run(None).unwrap();
                let custom =
                    CellSpec::custom(tiny(), kind.core_config(), machine, 5).run(None).unwrap();
                let what = format!("{kind:?} on {:?}", machine.mode);
                assert_eq!(named.result.seconds.to_bits(), custom.result.seconds.to_bits(), "{what}");
                assert_eq!(named.result.cycles, custom.result.cycles, "{what}");
                assert_eq!(named.result.stats, custom.result.stats, "{what}");
                let report = |r: &KernelRun| format!("{:?}", r.uncore);
                assert_eq!(report(&named), report(&custom), "{what}: uncore report");
            }
        }
    }

    /// The bit-identity contract: a spec built with [`Surface::point_seed`]
    /// reproduces the exact bits a [`Surface::sweep`] records for the same
    /// grid point — this is what lets a spec batch stand in for a sweep.
    #[test]
    fn spec_execution_matches_local_sweep_bits() {
        let w = tiny();
        let (a, b) = (0.5, 0.25);
        let surf =
            Surface::sweep(&w, ConfigKind::Save2Vpu, &MachineConfig::default(), &[a], &[b], 1)
                .unwrap();
        let spec = CellSpec::new(
            w.with_sparsity(a, b),
            ConfigKind::Save2Vpu,
            MachineConfig::default(),
            Surface::point_seed(a, b),
        );
        let run = spec.run(None).unwrap().result;
        assert_eq!(
            run.seconds.to_bits(),
            surf.secs[0].to_bits(),
            "spec execution must be bit-identical to the sweep"
        );
    }
}
