//! Related-work synergies from §VIII, made quantitative:
//!
//! 1. **SparseTrain** (software BS skipping, Gong et al. PACT'20): branches
//!    around zero-broadcast VFMA groups in software. Exploits BS only, on
//!    unmodified hardware — and *composes* with SAVE because it relieves
//!    the front-end bandwidth SAVE is bound by at high BS.
//! 2. **ZCOMP** (compressed vector loads, Akin et al. MICRO'19): stores
//!    streamed panels compressed, so memory traffic shrinks proportionally
//!    to NBS — exactly the reduction SAVE makes in computation, lifting the
//!    bandwidth cap of memory-bound (LSTM-like) kernels.

use save_bench::print_table;
use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save_sim::{CellSpec, ConfigKind, MachineConfig, SimError};
use std::process::ExitCode;

fn explicit_spec() -> GemmKernelSpec {
    GemmKernelSpec {
        m_tiles: 6,
        n_vecs: 3,
        pattern: BroadcastPattern::Explicit,
        precision: Precision::F32,
    }
}

fn main() -> ExitCode {
    save_bench::run_main("extensions", body)
}

fn body(
    cli: &save_bench::BenchCli,
    session: &mut save_bench::SweepSession,
) -> Result<(), SimError> {
    let grid = cli.grid();
    let machine = MachineConfig::default();

    // Both tables pair every approach's cell with the baseline cell of its
    // sparsity level (and, for the first table, its zero clustering); the
    // baselines repeat across approaches and the repeats are answered from
    // the batch's memo. A label names one spec: the journal keys cells by
    // label.

    // 1. SparseTrain-style software skipping vs / with SAVE, across BS,
    // under uniform-random and clustered (ReLU-like) sparsity.
    let approaches = [
        ("software skip, uniform zeros", true, ConfigKind::Baseline, 1usize),
        ("software skip, clustered zeros", true, ConfigKind::Baseline, 16),
        ("SAVE (hardware), uniform", false, ConfigKind::Save2Vpu, 1),
        ("SAVE (hardware), clustered", false, ConfigKind::Save2Vpu, 16),
        ("SAVE + software skip, clustered", true, ConfigKind::Save2Vpu, 16),
    ];
    let mut batch = Vec::new();
    for (label, software, kind, cluster) in approaches {
        for &bs in &grid {
            let plain = GemmWorkload {
                a_cluster: cluster,
                ..GemmWorkload::dense("st", explicit_spec(), 64, 3).with_sparsity(bs, 0.0)
            };
            let w = GemmWorkload { software_bs_skip: software, ..plain.clone() };
            let seed = (bs * 100.0) as u64;
            let base = CellSpec::new(plain, ConfigKind::Baseline, machine, seed);
            batch.push((format!("bs={bs:.1} cluster={cluster} baseline"), base));
            batch.push((format!("bs={bs:.1} {label}"), CellSpec::new(w, kind, machine, seed)));
        }
    }
    let secs = session.spec_seconds_batch(&batch);
    let mut speedups = secs.chunks(2).map(|p| p[0] / p[1]);
    let mut rows = Vec::new();
    for (label, ..) in approaches {
        let mut row = vec![label.to_string()];
        row.extend(grid.iter().map(|_| format!("{:.2}", speedups.next().unwrap_or(f64::NAN))));
        rows.push(row);
    }
    let mut headers: Vec<String> = vec!["approach".into()];
    headers.extend(grid.iter().map(|b| format!("BS {:.0}%", b * 100.0)));
    let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(
        "Extension: SparseTrain-style software skipping vs SAVE (speedup over baseline)",
        &hrefs,
        &rows,
    );

    // 2. ZCOMP compressed streaming on a bandwidth-bound kernel, across NBS.
    let streaming = |nbs: f64, compressed: bool| GemmWorkload {
        b_panel_tiles: 1,
        compressed_b: compressed,
        ..GemmWorkload::dense("zc", explicit_spec(), 64, 8).with_sparsity(0.2, nbs)
    };
    let approaches = [
        ("SAVE 2 VPUs", false, ConfigKind::Save2Vpu),
        ("SAVE 2 VPUs + ZCOMP", true, ConfigKind::Save2Vpu),
        ("SAVE 1 VPU", false, ConfigKind::Save1Vpu),
        ("SAVE 1 VPU + ZCOMP", true, ConfigKind::Save1Vpu),
    ];
    let mut batch = Vec::new();
    for (label, compressed, kind) in approaches {
        for &nbs in &grid {
            let seed = (nbs * 100.0) as u64;
            let base = CellSpec::new(streaming(nbs, false), ConfigKind::Baseline, machine, seed);
            batch.push((format!("nbs={nbs:.1} baseline"), base));
            let cell = CellSpec::new(streaming(nbs, compressed), kind, machine, seed);
            batch.push((format!("nbs={nbs:.1} {label}"), cell));
        }
    }
    let secs = session.spec_seconds_batch(&batch);
    let mut speedups = secs.chunks(2).map(|p| p[0] / p[1]);
    let mut rows = Vec::new();
    for (label, ..) in approaches {
        let mut row = vec![label.to_string()];
        row.extend(grid.iter().map(|_| format!("{:.2}", speedups.next().unwrap_or(f64::NAN))));
        rows.push(row);
    }
    let mut headers: Vec<String> = vec!["approach".into()];
    headers.extend(grid.iter().map(|b| format!("NBS {:.0}%", b * 100.0)));
    let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(
        "Extension: ZCOMP compressed streaming on a bandwidth-bound kernel (speedup over baseline)",
        &hrefs,
        &rows,
    );
    println!("\nReadings: software zero-skipping lives and dies by branch prediction —");
    println!("clustered (ReLU-like) zeros predict well, uniform random zeros do not —");
    println!("while SAVE is insensitive to sparsity structure; and ZCOMP keeps");
    println!("memory-bound kernels scaling with NBS where SAVE alone hits the");
    println!("bandwidth roof (§VIII).");
    Ok(())
}
