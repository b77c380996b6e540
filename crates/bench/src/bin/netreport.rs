//! Per-layer network report: for one network and precision, the per-layer
//! inference sparsity and speedups under each SAVE operating point — the
//! layer-resolved view behind Fig 14's aggregates.
//!
//! With `--mesh`, the heaviest layer additionally runs on the detailed
//! NUCA/mesh machine under the relaxed-sync engine and the uncore
//! contention report (per-link flit occupancy, per-slice MSHR conflicts,
//! DRAM queue depth — DESIGN.md §5i) is printed and saved as JSON.
//!
//! Usage: `netreport [vgg16|resnet50|resnet50-pruned|gnmt] [--mp]
//!                   [--mesh] [--cores N] [--quantum Q]`

use save_bench::print_table;
use save_kernels::{GemmWorkload, Phase, Precision};
use save_sim::{
    CellSpec, ConfigKind, MachineConfig, MachineMode, MulticoreConfig, Network, SimError,
};
use save_sparsity::NetKind;
use serde::Serialize;
use std::process::ExitCode;

struct LayerRow {
    name: String,
    bs: f64,
    nbs: f64,
    tb: f64,
    t2: f64,
    t1: f64,
}

/// One operating point's mesh-contention measurement (the JSON surface).
#[derive(Serialize)]
struct MeshRecord {
    layer: String,
    kind: String,
    cores: usize,
    quantum: u64,
    seconds: f64,
    l3_hit_rate: f64,
    mshr_conflicts: u64,
    max_link_flits: u64,
    mean_link_flits: f64,
    hottest_links: Vec<(usize, usize, u64)>,
    dram_max_queue: u64,
    dram_mean_queue: f64,
}

/// Parses `--flag N` out of the free argument list.
fn flag_value(rest: &[String], flag: &str) -> Option<u64> {
    let i = rest.iter().position(|a| a == flag)?;
    rest.get(i + 1)?.parse().ok()
}

const DIR_NAMES: [&str; 4] = ["E", "W", "S", "N"];

fn main() -> ExitCode {
    save_bench::run_main("netreport", body)
}

/// Runs the network's heaviest layer on the detailed NUCA/mesh machine at
/// every operating point and surfaces the uncore contention counters.
fn mesh_report(
    cli: &save_bench::BenchCli,
    session: &mut save_bench::SweepSession,
    layer_name: &str,
    w: &GemmWorkload,
) -> Result<(), SimError> {
    let cores = flag_value(&cli.rest, "--cores").unwrap_or(28) as usize;
    let quantum = flag_value(&cli.rest, "--quantum").unwrap_or(1000);
    let machine = MachineConfig {
        cores,
        mode: MachineMode::Detailed,
        mc: MulticoreConfig { quantum, threads: 0 },
        ..Default::default()
    };
    let mut records = Vec::new();
    let mut rows = Vec::new();
    for kind in ConfigKind::ALL {
        let spec = CellSpec::new(w.clone(), kind, machine, 1);
        let Some(run) = session.run(&format!("mesh-{kind:?}"), |tok| spec.run(Some(tok))) else {
            continue;
        };
        let u = &run.uncore;
        let l3_total = (u.l3_hits + u.l3_misses).max(1);
        let rec = MeshRecord {
            layer: layer_name.to_string(),
            kind: format!("{kind:?}"),
            cores,
            quantum,
            seconds: run.result.seconds,
            l3_hit_rate: u.l3_hits as f64 / l3_total as f64,
            mshr_conflicts: u.total_mshr_conflicts(),
            max_link_flits: u.max_link_flits,
            mean_link_flits: u.mean_link_flits,
            hottest_links: u.hottest_links(4),
            dram_max_queue: u.dram.max_queue_depth,
            dram_mean_queue: u.dram.queue_depth_sum as f64 / u.dram.queue_samples.max(1) as f64,
        };
        rows.push(vec![
            rec.kind.clone(),
            format!("{:.3e}", rec.seconds),
            format!("{:.1}%", rec.l3_hit_rate * 100.0),
            format!("{}", rec.mshr_conflicts),
            format!("{}", rec.max_link_flits),
            format!("{:.1}", rec.mean_link_flits),
            format!("{}", rec.dram_max_queue),
            format!("{:.2}", rec.dram_mean_queue),
            rec.hottest_links
                .iter()
                .map(|&(tile, dir, f)| format!("t{tile}{}:{f}", DIR_NAMES[dir]))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
        records.push(rec);
    }
    print_table(
        &format!("Mesh contention: {layer_name} ({cores} cores, quantum {quantum})"),
        &[
            "config",
            "seconds",
            "L3 hit",
            "MSHR conf",
            "max flits",
            "mean flits",
            "DRAM maxQ",
            "DRAM meanQ",
            "hottest links",
        ],
        &rows,
    );
    save_bench::write_json("netreport_mesh", &records)?;
    Ok(())
}

fn body(
    cli: &save_bench::BenchCli,
    session: &mut save_bench::SweepSession,
) -> Result<(), SimError> {
    let kind = match cli.rest.first().map(|s| s.as_str()) {
        Some("vgg16") => NetKind::Vgg16Dense,
        Some("resnet50") => NetKind::ResNet50Dense,
        Some("gnmt") => NetKind::GnmtPruned,
        _ => NetKind::ResNet50Pruned,
    };
    let precision =
        if cli.rest.iter().any(|a| a == "--mp") { Precision::Mixed } else { Precision::F32 };
    let machine = MachineConfig::default();
    let net = Network::build(kind);

    let mut layers = Vec::new();
    let mut heaviest: Option<(f64, String, GemmWorkload)> = None;
    for (li, layer) in net.layers.iter().enumerate() {
        let p = net.inference_point(li);
        let w = layer.workload(Phase::Forward, precision);
        let scale = layer.flops() / w.flops();
        let w = w.with_sparsity(p.a, p.b);
        let Some((tb, t2, t1)) = session.run(layer.name(), |tok| {
            let secs = |kind| -> Result<f64, SimError> {
                let spec = CellSpec::new(w.clone(), kind, machine, li as u64);
                Ok(spec.run(Some(tok))?.result.seconds)
            };
            let tb = secs(ConfigKind::Baseline)?;
            let t2 = secs(ConfigKind::Save2Vpu)?;
            let t1 = secs(ConfigKind::Save1Vpu)?;
            Ok((tb * scale, t2 * scale, t1 * scale))
        }) else {
            continue;
        };
        if heaviest.as_ref().is_none_or(|(t, _, _)| tb > *t) {
            heaviest = Some((tb, layer.name().to_string(), w.clone()));
        }
        layers.push(LayerRow { name: layer.name().to_string(), bs: p.a, nbs: p.b, tb, t2, t1 });
    }
    let total_b: f64 = layers.iter().map(|l| l.tb).sum();
    let total_2: f64 = layers.iter().map(|l| l.t2).sum();
    let total_1: f64 = layers.iter().map(|l| l.t1).sum();
    let total_d: f64 = layers.iter().map(|l| l.t2.min(l.t1)).sum();
    let rows: Vec<Vec<String>> = layers
        .iter()
        .map(|l| {
            vec![
                l.name.clone(),
                format!("{:.0}%", l.bs * 100.0),
                format!("{:.0}%", l.nbs * 100.0),
                format!("{:.2}x", l.tb / l.t2),
                format!("{:.2}x", l.tb / l.t1),
                format!("{:.2}x", l.tb / l.t2.min(l.t1)),
                format!("{:.1}%", l.tb / total_b * 100.0),
            ]
        })
        .collect();
    print_table(
        &format!("Per-layer inference report: {} ({precision})", kind.label()),
        &["layer", "BS", "NBS", "2 VPUs", "1 VPU", "dynamic", "time share"],
        &rows,
    );
    println!(
        "\nwhole network: 2 VPUs {:.2}x | 1 VPU {:.2}x | dynamic {:.2}x",
        total_b / total_2,
        total_b / total_1,
        total_b / total_d
    );
    if cli.rest.iter().any(|a| a == "--mesh") {
        if let Some((_, name, w)) = &heaviest {
            println!();
            mesh_report(cli, session, name, w)?;
        }
    }
    Ok(())
}
