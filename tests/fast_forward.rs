//! Event-driven fast-forward purity: skipping provably inert cycles must
//! be invisible in every observable — cycle counts, the full statistics
//! struct, and functional outputs — across workload classes, operating
//! points, both machine modes, and with the sanitizer in the pipeline.
//!
//! These tests A/B the same (workload, config, seed) with
//! [`CoreConfig::fast_forward`] on and off and require bit-identical
//! results. The memory-streaming workload matters most: its long
//! DRAM-bound idle stretches are where fast-forward actually engages.

use save::core::{CoreConfig, SanitizeLevel};
use save::kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save::sim::{CellSpec, ConfigKind, KernelResult, MachineConfig, MachineMode};

/// The three reference workload classes (mirroring perfstat's pinned sweep,
/// scaled down): compute-bound, memory-streaming, and mixed-precision.
fn workloads() -> Vec<GemmWorkload> {
    let spec_f32 = GemmKernelSpec {
        m_tiles: 6,
        n_vecs: 4,
        pattern: BroadcastPattern::Explicit,
        precision: Precision::F32,
    };
    let spec_mp = GemmKernelSpec { precision: Precision::Mixed, ..spec_f32 };
    let compute = GemmWorkload::dense("ff-compute", spec_f32, 32, 2).with_sparsity(0.3, 0.5);
    let stream = GemmWorkload {
        b_panel_tiles: 1, // stream B panels: DRAM-bound, long idle stretches
        ..GemmWorkload::dense("ff-stream", spec_f32, 32, 2).with_sparsity(0.6, 0.6)
    };
    let mixed = GemmWorkload::dense("ff-mixed", spec_mp, 32, 2).with_sparsity(0.5, 0.5);
    vec![compute, stream, mixed]
}

fn verified(spec: CellSpec) -> KernelResult {
    spec.with_verify(true).run(None).unwrap().result
}

#[test]
fn fast_forward_is_observationally_pure() {
    let m = MachineConfig::default();
    for w in workloads() {
        for kind in ConfigKind::ALL {
            let on = kind.core_config();
            assert!(on.fast_forward, "fast-forward must default on");
            let off = CoreConfig { fast_forward: false, ..on };
            let a = verified(CellSpec::custom(w.clone(), on, m, 7));
            let b = verified(CellSpec::custom(w.clone(), off, m, 7));
            assert!(a.verified && b.verified, "{} {kind:?}", w.name);
            assert_eq!(a.cycles, b.cycles, "{} {kind:?}: cycle counts drifted", w.name);
            assert_eq!(a.stats, b.stats, "{} {kind:?}: statistics drifted", w.name);
        }
    }
}

#[test]
fn fast_forward_is_deterministic() {
    // Same run twice with fast-forward engaged: bit-identical everything.
    let m = MachineConfig::default();
    for w in workloads() {
        let cfg = ConfigKind::Save2Vpu.core_config();
        let a = verified(CellSpec::custom(w.clone(), cfg, m, 11));
        let b = verified(CellSpec::custom(w.clone(), cfg, m, 11));
        assert_eq!(a.cycles, b.cycles, "{}", w.name);
        assert_eq!(a.stats, b.stats, "{}", w.name);
    }
}

#[test]
fn fast_forward_is_pure_in_detailed_multicore() {
    // The lockstep machine may only jump when every unfinished core is
    // inert; the coordinated jump must be invisible too.
    let m = MachineConfig { cores: 4, mode: MachineMode::Detailed, ..Default::default() };
    let w = &workloads()[1]; // the streaming workload: real DRAM gaps
    let on = ConfigKind::Save2Vpu.core_config();
    let off = CoreConfig { fast_forward: false, ..on };
    let a = verified(CellSpec::custom(w.clone(), on, m, 7));
    let b = verified(CellSpec::custom(w.clone(), off, m, 7));
    assert!(a.verified && b.verified);
    assert_eq!(a.cycles, b.cycles, "multicore cycle counts drifted");
    assert_eq!(a.stats, b.stats, "multicore statistics drifted");
}

#[test]
fn fast_forward_is_pure_under_full_sanitizer() {
    // With every invariant checked every cycle, a clean run must stay
    // clean and bit-identical through the fast-forward path: skipped
    // cycles would have scanned exactly the state the probe cycle scanned.
    let m = MachineConfig::default();
    let w = &workloads()[1];
    let on = CoreConfig { sanitize: SanitizeLevel::Full, ..ConfigKind::Save2Vpu.core_config() };
    let off = CoreConfig { fast_forward: false, ..on };
    let a = verified(CellSpec::custom(w.clone(), on, m, 7));
    let b = verified(CellSpec::custom(w.clone(), off, m, 7));
    assert!(a.completed && b.completed, "sanitizer flagged a clean run");
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.stats, b.stats);
}
