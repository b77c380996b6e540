//! Fig 15 — SAVE speedups on the mixed-precision forward propagation of
//! ResNet2_2 over the full (NBS x BS) sparsity grid, with 2 VPUs @ 1.7 GHz
//! and 1 VPU @ 2.1 GHz.
//!
//! Paper landmarks to compare against: 2-VPU benefit caps ~1.49x once
//! either sparsity type reaches ~60%; 1 VPU is 29% slower when dense,
//! reaches ~1.96x, and overtakes 2 VPUs past ~70% sparsity.

use save_bench::print_table;
use save_kernels::{Phase, Precision};
use save_sim::{CellSpec, ConfigKind, MachineConfig, SimError};
use serde::Serialize;
use std::process::ExitCode;

#[derive(Serialize)]
// Fields are consumed via `Serialize` in the session JSON dump only.
#[allow(dead_code)]
struct Cell {
    bs: f64,
    nbs: f64,
    speedup_2vpu: f64,
    speedup_1vpu: f64,
}

fn main() -> ExitCode {
    save_bench::run_main("fig15", body)
}

fn body(
    cli: &save_bench::BenchCli,
    session: &mut save_bench::SweepSession,
) -> Result<(), SimError> {
    let grid = cli.grid();
    let shape = save_kernels::shapes::conv_by_name("ResNet2_2").ok_or_else(|| {
        SimError::InvalidConfig { what: "fig15: ResNet2_2 missing from the shape table".into() }
    })?;
    let w0 = shape.workload(Phase::Forward, Precision::Mixed);
    let machine = MachineConfig::default();

    // One journal cell per (sparsity point, operating point): the config
    // is part of the label so resume keys never collide. The whole grid
    // is submitted as one batch — grid-point-major, so the three
    // operating points of a point sit next to each other and share one
    // built kernel.
    let mut batch: Vec<(String, CellSpec)> = Vec::new();
    for &nbs in &grid {
        for &bs in &grid {
            let w = w0.clone().with_sparsity(bs, nbs);
            let seed = ((bs * 100.0) as u64) << 8 | (nbs * 100.0) as u64;
            for kind in ConfigKind::ALL {
                batch.push((
                    format!("bs={bs:.1} nbs={nbs:.1} {}", kind.label()),
                    CellSpec::new(w.clone(), kind, machine, seed),
                ));
            }
        }
    }
    let secs = session.spec_seconds_batch(&batch);
    let mut secs_iter = secs.into_iter();

    let mut cells = Vec::new();
    let mut rows2 = Vec::new();
    let mut rows1 = Vec::new();
    for &nbs in &grid {
        let mut r2 = vec![format!("NBS {:>3.0}%", nbs * 100.0)];
        let mut r1 = r2.clone();
        for &bs in &grid {
            let tb = secs_iter.next().unwrap_or(f64::NAN);
            let t2 = secs_iter.next().unwrap_or(f64::NAN);
            let t1 = secs_iter.next().unwrap_or(f64::NAN);
            r2.push(format!("{:.2}", tb / t2));
            r1.push(format!("{:.2}", tb / t1));
            cells.push(Cell { bs, nbs, speedup_2vpu: tb / t2, speedup_1vpu: tb / t1 });
        }
        rows2.push(r2);
        rows1.push(r1);
    }
    let mut headers: Vec<String> = vec!["".into()];
    headers.extend(grid.iter().map(|b| format!("BS {:.0}%", b * 100.0)));
    let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table("Fig 15a: ResNet2_2 MP fwd speedup, 2 VPUs @ 1.7GHz", &hrefs, &rows2);
    print_table("Fig 15b: ResNet2_2 MP fwd speedup, 1 VPU @ 2.1GHz", &hrefs, &rows1);
    save_bench::write_json("fig15", &cells)?;

    let max2 = cells.iter().map(|c| c.speedup_2vpu).fold(0.0f64, f64::max);
    let max1 = cells.iter().map(|c| c.speedup_1vpu).fold(0.0f64, f64::max);
    let dense1 = cells
        .iter()
        .find(|c| c.bs == 0.0 && c.nbs == 0.0)
        .map(|c| c.speedup_1vpu)
        .unwrap_or(f64::NAN);
    println!("\nlandmarks: 2-VPU cap {max2:.2}x (paper ~1.49x); 1-VPU max {max1:.2}x (paper ~1.96x);");
    println!("           1-VPU dense {dense1:.2}x (paper ~0.71x, i.e. 29% slowdown)");
    Ok(())
}
