//! Conventional select: oldest-first, whole-vector issue, no sparsity
//! awareness. This is the paper's baseline machine (2 VPUs at 1.7 GHz).

use crate::config::CoreConfig;
use crate::rename::PhysRegFile;
use crate::rs::{Rs, RsEntry};
use crate::sched::SelectScratch;
use crate::stats::CoreStats;
use crate::uop::FmaPrecision;
use crate::vpu::{LaneResult, VpuOp};
use save_isa::LANES;

/// Issues up to one full VFMA per VPU per cycle.
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
    sx.issued.clear();
    for e in rs.iter() {
        if out.len() == cfg.num_vpus {
            break;
        }
        let f = match e {
            RsEntry::Fma(f) => f,
            _ => continue,
        };
        if !(prf.fully_ready(f.a) && prf.fully_ready(f.b) && prf.fully_ready(f.acc_src)) {
            continue;
        }
        let mut results = sx.lease();
        let latency = match f.precision {
            FmaPrecision::F32 => {
                for lane in 0..LANES {
                    let value = if f.wm >> lane & 1 == 1 {
                        super::lane_value_f32(f, prf, lane)
                    } else {
                        prf.value(f.acc_src).lane(lane)
                    };
                    results.push(LaneResult { rob: f.rob, dst: f.acc_dst, lane, value });
                }
                cfg.fp32_fma_cycles
            }
            FmaPrecision::Bf16 => {
                for al in 0..LANES {
                    let base = prf.value(f.acc_src).lane(al);
                    let value = super::al_value_mp(f, prf, al, 0b11, base);
                    results.push(LaneResult { rob: f.rob, dst: f.acc_dst, lane: al, value });
                }
                cfg.mp_fma_cycles
            }
        };
        stats.vpu_ops += 1;
        stats.lanes_issued += LANES as u64;
        out.push(VpuOp { complete_at: cycle + latency, results });
        sx.issued.push(f.rob);
    }
    if !sx.issued.is_empty() {
        let issued = &sx.issued;
        rs.retain(|e| match e {
            RsEntry::Fma(f) => !issued.contains(&f.rob),
            _ => true,
        });
    }
}
