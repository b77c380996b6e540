//! Detailed multicore simulation: cycle-interleaves real cores over the
//! shared NUCA L3 + 2-D mesh + DRAM channels, and compares against the fast
//! symmetric mode used for the big sweeps.
//!
//! Run with: `cargo run --release --example multicore_detailed`

use save::kernels::{Phase, Precision};
use save::sim::{CellSpec, ConfigKind, MachineConfig, MachineMode, SimError};

fn main() -> Result<(), SimError> {
    let shape = save::kernels::shapes::conv_by_name("ResNet3_2").ok_or_else(|| {
        SimError::InvalidConfig { what: "ResNet3_2 missing from the shape table".into() }
    })?;
    let w = shape.workload(Phase::Forward, Precision::F32).with_sparsity(0.4, 0.8);

    for cores in [1usize, 4, 8] {
        let run = |mode| {
            let machine = MachineConfig { cores, mode, ..Default::default() };
            CellSpec::new(w.clone(), ConfigKind::Save2Vpu, machine, 1).with_verify(true).run(None)
        };
        let rd = run(MachineMode::Detailed)?.result;
        let rs = run(MachineMode::Symmetric)?.result;
        println!(
            "{cores:>2} cores: detailed {:>8} cycles (slowest core), symmetric {:>8} cycles, ratio {:.2}",
            rd.cycles,
            rs.cycles,
            rd.cycles as f64 / rs.cycles as f64
        );
    }
    println!("\nEvery core's numerical output was verified against its reference.");
    println!("The symmetric mode (used for the parameter sweeps) tracks the detailed");
    println!("mode closely for the compute-bound kernels that dominate the evaluation.");
    Ok(())
}
