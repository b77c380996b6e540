//! White-box scheduler tests: hand-built reservation-station states
//! reproducing the paper's worked examples — Fig 5a (vertical coalescing
//! with lane conflicts), Fig 7 (rotation vs register reuse) and Fig 8
//! (vector-wise vs lane-wise dependence) — checked directly against the
//! select logic's lane assignments.

use save_core::rename::PhysRegFile;
use save_core::rs::{FmaEntry, Rs, RsEntry, NO_FWD};
use save_core::sched;
use save_core::uop::FmaPrecision;
use save_core::{CoreConfig, CoreStats};
use save_isa::{VReg, VecF32, LANES};

struct Setup {
    rs: Rs,
    prf: PhysRegFile,
}

fn setup() -> Setup {
    Setup { rs: Rs::new(97), prf: PhysRegFile::new(128) }
}

/// Adds an FMA whose operands are ready, with the given remaining ELM and
/// rotation; returns its acc_dst physical register.
fn add_fma(s: &mut Setup, rob: usize, acc_log: u8, rot: i8, elm: u16) -> u32 {
    let a = s.prf.alloc().unwrap();
    let b = s.prf.alloc().unwrap();
    let acc_src = s.prf.alloc().unwrap();
    let acc_dst = s.prf.alloc().unwrap();
    s.prf.write_all(a, VecF32::splat(2.0));
    s.prf.write_all(b, VecF32::splat(3.0));
    s.prf.write_all(acc_src, VecF32::splat(1.0));
    s.rs.push(RsEntry::Fma(FmaEntry {
        rob,
        precision: FmaPrecision::F32,
        acc_log: VReg(acc_log),
        rot,
        acc_src,
        acc_dst,
        a,
        b,
        wm: u16::MAX,
        elm_ready: true,
        elm,
        orig_elm: elm,
        ml: 0,
        orig_ml: 0,
        chain_pred: None,
        chain_succ: None,
        fwd_base: [0.0; LANES],
        fwd_ready: [NO_FWD; LANES],
    }));
    acc_dst
}

/// Old-signature convenience wrappers: refresh the window scoreboard (as
/// the core's cycle loop does) and collect the issued ops.
fn select_vertical(
    rs: &mut Rs,
    prf: &PhysRegFile,
    cfg: &CoreConfig,
    cycle: u64,
    stats: &mut CoreStats,
) -> Vec<save_core::vpu::VpuOp> {
    let mut sx = sched::SelectScratch::new();
    sched::window_masks(rs, prf, cfg.lane_wise, &mut sx);
    let mut out = Vec::new();
    sched::vertical::select(rs, prf, cfg, cycle, stats, &mut sx, &mut out);
    out
}

fn select_horizontal(
    rs: &mut Rs,
    prf: &PhysRegFile,
    cfg: &CoreConfig,
    cycle: u64,
    stats: &mut CoreStats,
) -> Vec<save_core::vpu::VpuOp> {
    let mut sx = sched::SelectScratch::new();
    sched::window_masks(rs, prf, cfg.lane_wise, &mut sx);
    let mut out = Vec::new();
    sched::horizontal::select(rs, prf, cfg, cycle, stats, &mut sx, &mut out);
    out
}

fn one_vpu() -> CoreConfig {
    CoreConfig { num_vpus: 1, ..CoreConfig::save_2vpu() }
}

#[test]
fn fig5a_vertical_coalescing_fills_per_lane_oldest_first() {
    // I1 effectual on lanes {0, 2}; I2 on {0}; I3 on {1, 2}. One VPU.
    // Vertical coalescing must take lane 0 and 2 from I1 (oldest) and lane
    // 1 from I3; I2's lane 0 and I3's lane 2 wait for the next cycle.
    let mut s = setup();
    add_fma(&mut s, 1, 0, 0, 0b101);
    add_fma(&mut s, 2, 1, 0, 0b001);
    add_fma(&mut s, 3, 2, 0, 0b110);
    let mut stats = CoreStats::default();
    let ops = select_vertical(&mut s.rs, &s.prf, &one_vpu(), 0, &mut stats);
    assert_eq!(ops.len(), 1);
    let mut got: Vec<(usize, usize)> =
        ops[0].results.iter().map(|r| (r.rob, r.lane)).collect();
    got.sort_unstable();
    assert_eq!(got, vec![(1, 0), (1, 2), (3, 1)]);
    // Remaining ELM bits: I1 empty, I2 lane 0, I3 lane 2.
    let leftover: Vec<(usize, u16)> = s
        .rs
        .iter()
        .filter_map(|e| match e {
            RsEntry::Fma(f) => Some((f.rob, f.elm)),
            _ => None,
        })
        .collect();
    assert_eq!(leftover, vec![(1, 0), (2, 0b001), (3, 0b100)]);
}

#[test]
fn fig7_rotation_breaks_shared_pattern_conflicts() {
    // Three VFMAs whose effectual lanes all sit at logical lane 0 (shared
    // non-broadcasted register, Fig 7a). Without rotation a single VPU can
    // only serve one per cycle; with the accumulator-derived rotations
    // (0, +1, -1) all three fit one temp (Fig 7b).
    let mut s = setup();
    for (rob, acc) in [(1usize, 0u8), (2, 1), (3, 2)] {
        let rot = VReg(acc).rotation_state();
        add_fma(&mut s, rob, acc, rot, 0b1);
    }
    let mut stats = CoreStats::default();
    let ops = select_vertical(&mut s.rs, &s.prf, &one_vpu(), 0, &mut stats);
    assert_eq!(ops.len(), 1);
    assert_eq!(ops[0].results.len(), 3, "rotation must de-conflict all three lanes");

    // Same state without rotation: only one lane scheduled.
    let mut s = setup();
    for (rob, acc) in [(1usize, 0u8), (2, 1), (3, 2)] {
        add_fma(&mut s, rob, acc, 0, 0b1);
    }
    let ops = select_vertical(&mut s.rs, &s.prf, &one_vpu(), 0, &mut stats);
    assert_eq!(ops[0].results.len(), 1, "without rotation the lanes conflict");
}

#[test]
fn fig8_lane_wise_dependence_unblocks_false_dependences() {
    // I1 (acc chain R_src -> R_mid) still has lane 0 outstanding; I2
    // consumes R_mid. I2's lane 1 input is ready (lane 1 of R_mid written
    // by pass-through), lane 0 is not. Under vector-wise dependence I2 must
    // wait entirely; under lane-wise dependence its lane 1 issues.
    let mut s = setup();
    let a = s.prf.alloc().unwrap();
    let b = s.prf.alloc().unwrap();
    s.prf.write_all(a, VecF32::splat(2.0));
    s.prf.write_all(b, VecF32::splat(3.0));
    let r_mid = s.prf.alloc().unwrap(); // I1's dst = I2's acc_src
    s.prf.write_lane(r_mid, 1, 1.0); // lane 1 complete, lane 0 outstanding
    let r_dst = s.prf.alloc().unwrap();
    s.rs.push(RsEntry::Fma(FmaEntry {
        rob: 2,
        precision: FmaPrecision::F32,
        acc_log: VReg(0),
        rot: 0,
        acc_src: r_mid,
        acc_dst: r_dst,
        a,
        b,
        wm: u16::MAX,
        elm_ready: true,
        elm: 0b10, // effectual on lane 1 only
        orig_elm: 0b10,
        ml: 0,
        orig_ml: 0,
        chain_pred: Some(1),
        chain_succ: None,
        fwd_base: [0.0; LANES],
        fwd_ready: [NO_FWD; LANES],
    }));
    let mut stats = CoreStats::default();

    // Vector-wise: nothing issues.
    let vw = CoreConfig { lane_wise: false, ..one_vpu() };
    let ops = select_vertical(&mut s.rs, &s.prf, &vw, 0, &mut stats);
    assert!(ops.is_empty(), "vector-wise dependence must block I2");

    // Lane-wise: lane 1 issues with the correct value 1 + 2*3.
    let lw = CoreConfig { lane_wise: true, ..one_vpu() };
    let ops = select_vertical(&mut s.rs, &s.prf, &lw, 0, &mut stats);
    assert_eq!(ops.len(), 1);
    assert_eq!(ops[0].results.len(), 1);
    assert_eq!(ops[0].results[0].lane, 1);
    assert_eq!(ops[0].results[0].value, 7.0);
}

#[test]
fn two_vpus_double_per_lane_throughput() {
    // Four entries all effectual on lane 3 only: one VPU serves one per
    // cycle, two VPUs serve two.
    for (vpus, expect) in [(1usize, 1usize), (2, 2)] {
        let mut s = setup();
        for rob in 1..=4 {
            add_fma(&mut s, rob, rob as u8 * 3, 0, 0b1000);
        }
        let cfg = CoreConfig { num_vpus: vpus, rotate: false, ..CoreConfig::save_2vpu() };
        let mut stats = CoreStats::default();
        let ops = select_vertical(&mut s.rs, &s.prf, &cfg, 0, &mut stats);
        assert_eq!(ops.len(), expect, "{vpus} VPUs");
        assert!(ops.iter().all(|o| o.results.len() == 1));
    }
}

#[test]
fn horizontal_compression_ignores_lane_positions() {
    // The same conflicting state as fig7 (all lanes at position 0, no
    // rotation): HC packs all three into one temp anyway, at the price of
    // its latency penalty.
    let mut s = setup();
    for (rob, acc) in [(1usize, 0u8), (2, 1), (3, 2)] {
        add_fma(&mut s, rob, acc, 0, 0b1);
    }
    let cfg = CoreConfig {
        scheduler: save_core::SchedulerKind::Horizontal,
        num_vpus: 1,
        ..CoreConfig::save_2vpu()
    };
    let mut stats = CoreStats::default();
    let ops = select_horizontal(&mut s.rs, &s.prf, &cfg, 10, &mut stats);
    assert_eq!(ops.len(), 1);
    assert_eq!(ops[0].results.len(), 3);
    assert_eq!(
        ops[0].complete_at,
        10 + cfg.fp32_fma_cycles + cfg.hc_penalty_cycles,
        "HC pays the crossbar latency"
    );
}
