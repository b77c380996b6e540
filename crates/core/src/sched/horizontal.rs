//! Horizontal compression — the paper's rejected alternative (Fig 5b),
//! implemented as a comparison point for Fig 18.
//!
//! Effectual lanes are bubble-collapsed and concatenated into the temp in
//! program order, so lane conflicts never occur; the price is the
//! bubble-collapse/expand crossbars, modelled as
//! [`crate::CoreConfig::hc_penalty_cycles`] of extra VFMA latency (the
//! 3-cycle AVX-512 permutation cost in each direction, §VII-D).

use crate::config::CoreConfig;
use crate::rename::PhysRegFile;
use crate::rs::{Rs, RsEntry};
use crate::sched::SelectScratch;
use crate::stats::CoreStats;
use crate::uop::FmaPrecision;
use crate::vpu::{LaneResult, VpuOp};
use save_isa::LANES;

/// Runs one cycle of horizontal compression.
#[allow(clippy::too_many_arguments)]
pub fn select(
    rs: &mut Rs,
    prf: &PhysRegFile,
    cfg: &CoreConfig,
    cycle: u64,
    stats: &mut CoreStats,
    sx: &mut SelectScratch,
    out: &mut Vec<VpuOp>,
) {
    let precision = match super::oldest_window_precision(rs, prf) {
        Some(p) => p,
        None => return,
    };
    let latency = match precision {
        FmaPrecision::F32 => cfg.fp32_fma_cycles,
        FmaPrecision::Bf16 => cfg.mp_fma_cycles,
    } + cfg.hc_penalty_cycles;

    // Walk the window scoreboard oldest-first; each entry's schedulable
    // mask was computed this cycle by `window_masks` and is unaffected by
    // the lane consumption of older entries.
    let mut current: Vec<LaneResult> = sx.lease();
    let mut slots_in_current = 0usize;
    for mi in 0..sx.masks.len() {
        if out.len() == cfg.num_vpus {
            break;
        }
        let (pos, mut mask) = sx.masks[mi];
        let f = match rs.at_mut(pos) {
            RsEntry::Fma(f) => f,
            _ => unreachable!(),
        };
        if f.precision != precision {
            continue;
        }
        while mask != 0 {
            if out.len() == cfg.num_vpus {
                break;
            }
            let lane = mask.trailing_zeros() as usize;
            mask &= !(1 << lane);
            let value = match precision {
                FmaPrecision::F32 => super::lane_value_f32(f, prf, lane),
                FmaPrecision::Bf16 => {
                    let bits = f.ml_bits_at(lane);
                    let base = prf.value(f.acc_src).lane(lane);
                    let v = super::al_value_mp(f, prf, lane, bits, base);
                    f.ml &= !(0b11 << (2 * lane));
                    stats.mp_mls_issued += bits.count_ones() as u64;
                    v
                }
            };
            f.elm &= !(1 << lane);
            current.push(LaneResult { rob: f.rob, dst: f.acc_dst, lane, value });
            slots_in_current += 1;
            if slots_in_current == LANES {
                stats.vpu_ops += 1;
                stats.lanes_issued += LANES as u64;
                let full = std::mem::replace(&mut current, sx.lease());
                out.push(VpuOp { complete_at: cycle + latency, results: full });
                slots_in_current = 0;
            }
        }
    }
    if !current.is_empty() && out.len() < cfg.num_vpus {
        stats.vpu_ops += 1;
        stats.lanes_issued += current.len() as u64;
        out.push(VpuOp { complete_at: cycle + latency, results: current });
    } else {
        sx.recycle(current);
    }
}
