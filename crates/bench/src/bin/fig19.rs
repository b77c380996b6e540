//! Fig 19 — the mixed-precision technique (§V): SAVE speedups on the
//! mixed-precision backward-input kernel of ResNet4_1a with one VPU, with
//! and without multiplicand-lane compression.
//!
//! Without the technique an accumulator lane can only be skipped when both
//! of its BF16 multiplicand lanes are ineffectual, so exploitable sparsity
//! is roughly squared; ML compression recovers it at every level.

use save_bench::print_table;
use save_core::CoreConfig;
use save_kernels::{Phase, Precision};
use save_sim::{CellSpec, MachineConfig, SimError};
use serde::Serialize;
use std::process::ExitCode;

#[derive(Serialize)]
// Fields are consumed via `Serialize` in the session JSON dump only.
#[allow(dead_code)]
struct Point {
    mp_technique: bool,
    nbs: f64,
    speedup: f64,
}

fn main() -> ExitCode {
    save_bench::run_main("fig19", body)
}

fn body(
    cli: &save_bench::BenchCli,
    session: &mut save_bench::SweepSession,
) -> Result<(), SimError> {
    let grid = cli.grid();
    let shape = save_kernels::shapes::conv_by_name("ResNet4_1a").ok_or_else(|| {
        SimError::InvalidConfig { what: "fig19: ResNet4_1a missing from the shape table".into() }
    })?;
    let w0 = shape.workload(Phase::BackwardInput, Precision::Mixed);
    let machine = MachineConfig::default();

    // Each configuration's cell sits next to the baseline cell of its NBS
    // level; the baseline repeats once per configuration and the repeat is
    // answered from the batch's memo. A label names one spec: the journal
    // keys cells by label.
    let configs = [("w/o MP techniques", false), ("w/ MP techniques", true)];
    let mut batch = Vec::new();
    for (label, compress) in configs {
        let cfg = CoreConfig { mp_compress: compress, ..CoreConfig::save_1vpu() };
        for &nbs in &grid {
            let w = w0.clone().with_sparsity(0.0, nbs);
            let seed = (nbs * 100.0) as u64;
            let cell = |c| CellSpec::custom(w.clone(), c, machine, seed);
            batch.push((format!("nbs={nbs:.1} baseline"), cell(CoreConfig::baseline())));
            batch.push((format!("nbs={nbs:.1} {label}"), cell(cfg)));
        }
    }
    let secs = session.spec_seconds_batch(&batch);
    let mut speedups = secs.chunks(2).map(|p| p[0] / p[1]);
    let mut points = Vec::new();
    let mut rows = Vec::new();
    for (label, compress) in configs {
        let mut row = vec![label.to_string()];
        for &nbs in &grid {
            let speedup = speedups.next().unwrap_or(f64::NAN);
            row.push(format!("{speedup:.2}"));
            points.push(Point { mp_technique: compress, nbs, speedup });
        }
        rows.push(row);
    }
    let mut headers: Vec<String> = vec!["config".into()];
    headers.extend(grid.iter().map(|b| format!("NBS {:.0}%", b * 100.0)));
    let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table("Fig 19: ResNet4_1a MP bwd-input, 1 VPU, speedup over 2-VPU baseline", &hrefs, &rows);
    save_bench::write_json("fig19", &points)
}
