//! Criterion micro-benchmarks of the cycle-loop hot path itself: whole
//! small kernels driven through `CellSpec::run`, which exercises the
//! scheduler (window masks + select), rename/allocate, the MGU sync path,
//! and write-back every cycle. The `_ff_off` variants pin the raw cost of
//! an executed cycle; the `_ff_on` variants show what event-driven
//! fast-forward recovers on idle-heavy workloads. Tracked over time via
//! `perfstat` (see BENCH_PERF.json); these exist to localize a regression
//! the trajectory only detects in aggregate.

use criterion::{criterion_group, criterion_main, Criterion};
use save_core::CoreConfig;
use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save_sim::runner::{ConfigKind, MachineConfig};
use save_sim::CellSpec;

fn spec() -> GemmKernelSpec {
    GemmKernelSpec {
        m_tiles: 6,
        n_vecs: 4,
        pattern: BroadcastPattern::Explicit,
        precision: Precision::F32,
    }
}

/// Compute-bound: B panels resident, nearly every cycle does work, so
/// fast-forward barely engages and the number measures the step loop.
fn compute_workload() -> GemmWorkload {
    GemmWorkload::dense("hot-compute", spec(), 32, 2).with_sparsity(0.3, 0.5)
}

/// Memory-streaming: B panels stream from DRAM, leaving long inert
/// stretches — the fast-forward target case.
fn stream_workload() -> GemmWorkload {
    GemmWorkload {
        b_panel_tiles: 1,
        ..GemmWorkload::dense("hot-stream", spec(), 32, 2).with_sparsity(0.6, 0.6)
    }
}

fn run(w: &GemmWorkload, cfg: &CoreConfig) -> u64 {
    let spec = CellSpec::custom(w.clone(), *cfg, MachineConfig::default(), 7);
    spec.run(None).expect("bench kernel must run clean").result.cycles
}

fn bench_step_loop(c: &mut Criterion) {
    let on = ConfigKind::Save2Vpu.core_config();
    let off = CoreConfig { fast_forward: false, ..on };
    let compute = compute_workload();
    let stream = stream_workload();
    c.bench_function("hotpath/compute_step_loop", |b| {
        b.iter(|| std::hint::black_box(run(&compute, &off)))
    });
    c.bench_function("hotpath/stream_step_loop_ff_off", |b| {
        b.iter(|| std::hint::black_box(run(&stream, &off)))
    });
    c.bench_function("hotpath/stream_step_loop_ff_on", |b| {
        b.iter(|| std::hint::black_box(run(&stream, &on)))
    });
}

fn bench_baseline_vs_save(c: &mut Criterion) {
    // Scheduler cost comparison: the Baseline selector walks a plain ready
    // scan, the SAVE selector additionally coalesces and compresses — both
    // go through the same zero-allocation scratch, so their gap is the
    // price of sparsity awareness, not of the harness.
    let compute = compute_workload();
    c.bench_function("hotpath/select_baseline", |b| {
        let cfg = ConfigKind::Baseline.core_config();
        b.iter(|| std::hint::black_box(run(&compute, &cfg)))
    });
    c.bench_function("hotpath/select_save2vpu", |b| {
        let cfg = ConfigKind::Save2Vpu.core_config();
        b.iter(|| std::hint::black_box(run(&compute, &cfg)))
    });
}

criterion_group! {
    name = hotpath;
    config = Criterion::default().sample_size(10);
    targets = bench_step_loop, bench_baseline_vs_save
}
criterion_main!(hotpath);
