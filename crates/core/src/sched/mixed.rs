//! Mixed-precision multiplicand-lane compression (§V, Figs 10-11).
//!
//! A mixed-precision VFMA maps two BF16 multiplicand lanes (MLs) onto each
//! FP32 accumulator lane (AL); an AL can only be skipped outright when both
//! MLs are ineffectual, squaring the exploitable sparsity (Fig 9). SAVE
//! instead *horizontally compresses MLs within each AL* across VFMAs that
//! accumulate into the same register:
//!
//! * each temp AL slot packs up to two effectual MLs drawn **in program
//!   order** from the accumulator chain at that AL — order preservation
//!   keeps floating-point results deterministic (§V-A, Fig 10b);
//! * a VPU op performs the two chained MACs; the first accumulation result
//!   belongs to the older instruction when its last ML completes there, and
//!   the second to the younger — both destinations are written correctly so
//!   intermediate VFMAs retain precise architectural state (§V-B, Fig 11);
//! * when an op ends mid-instruction, the *partial result* is never stored
//!   architecturally: it is forwarded to the next op in the chain, which may
//!   issue [`crate::CoreConfig::mp_forward_overlap`] cycles before the full
//!   latency elapses (§V-B).

use crate::config::CoreConfig;
use crate::rename::PhysRegFile;
use crate::rs::{FmaEntry, Rs, RsEntry, NO_FWD};
use crate::sched::SelectScratch;
use crate::stats::CoreStats;
use crate::uop::FmaPrecision;
use crate::vpu::{LaneResult, VpuOp};
use save_isa::LANES;

fn as_fma(e: &RsEntry) -> Option<&FmaEntry> {
    match e {
        RsEntry::Fma(f) => Some(f),
        _ => None,
    }
}

/// Runs one cycle of mixed-precision selection with ML compression.
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
    let nv = cfg.num_vpus;
    let latency = cfg.mp_fma_cycles;
    let fwd_delay = latency.saturating_sub(cfg.mp_forward_overlap).max(1);

    // Index MP entries oldest-first; chain lookups (predecessor/successor by
    // ROB id) go through the RS's own sorted order index.
    sx.idxs.clear();
    for (i, e) in rs.iter().enumerate() {
        if let Some(f) = as_fma(e) {
            if f.precision == FmaPrecision::Bf16 {
                sx.idxs.push(i);
            }
        }
    }
    if sx.idxs.is_empty() {
        return;
    }

    // Per-VPU result accumulators, recycled across cycles.
    for slot in sx.per_vpu.iter_mut() {
        slot.clear();
    }
    while sx.per_vpu.len() < nv {
        let v = sx.lease();
        sx.per_vpu.push(v);
    }

    for pos in 0..LANES {
        let mut v = 0;
        for ii in 0..sx.idxs.len() {
            if v == nv {
                break;
            }
            let idx = sx.idxs[ii];
            // Immutable phase: decide whether this entry can lead a slot.
            // At most two MLs fit a temp AL slot, so a pick list is a
            // fixed pair: the leader and optionally its chain successor.
            let (l, picks, npicks, base) = {
                let Some(f) = as_fma(rs.at(idx)) else { continue };
                if !f.in_window(prf) {
                    continue;
                }
                let l = f.logical_lane(pos);
                let bits = f.ml_bits_at(l);
                if bits == 0 {
                    continue;
                }
                // Chain order: the predecessor must have drained this AL.
                if let Some(p) = f.chain_pred {
                    if let Some(pidx) = rs.pos_of(p) {
                        if let Some(pf) = as_fma(rs.at(pidx)) {
                            if pf.ml_bits_at(l) != 0 {
                                continue;
                            }
                        }
                    }
                }
                // Accumulation base: a forwarded partial, or the source
                // register lane under the configured dependence scheme.
                let base = if f.fwd_ready[l] != NO_FWD {
                    if f.fwd_ready[l] > cycle {
                        continue;
                    }
                    f.fwd_base[l]
                } else {
                    let ok = if cfg.lane_wise {
                        prf.lane_ready(f.acc_src, l)
                    } else {
                        prf.fully_ready(f.acc_src)
                    };
                    if !ok {
                        continue;
                    }
                    prf.value(f.acc_src).lane(l)
                };
                // Consume this entry's MLs (1 or 2); if only one, try to
                // extend with the chain successor's first ML.
                let mut picks = [(idx, bits), (0, 0)];
                let mut npicks = 1;
                if bits.count_ones() == 1 {
                    if let Some(sidx) = f.chain_succ.and_then(|s| rs.pos_of(s)) {
                        if let Some(sf) = as_fma(rs.at(sidx)) {
                            if sf.in_window(prf) {
                                let sbits = sf.ml_bits_at(l);
                                if sbits != 0 {
                                    let first = sbits & sbits.wrapping_neg();
                                    picks[1] = (sidx, first);
                                    npicks = 2;
                                }
                            }
                        }
                    }
                }
                (l, picks, npicks, base)
            };

            // Mutable phase: compute values, clear bits, record results.
            let mut cum = base;
            for &(eidx, take) in &picks[..npicks] {
                let f = match rs.at_mut(eidx) {
                    RsEntry::Fma(f) => f,
                    _ => unreachable!(),
                };
                cum = super::al_value_mp(f, prf, l, take, cum);
                f.ml &= !(take << (2 * l));
                stats.mp_mls_issued += take.count_ones() as u64;
                if f.ml_bits_at(l) == 0 {
                    // This op finalizes the instruction at this AL.
                    f.elm &= !(1 << l);
                    f.fwd_ready[l] = NO_FWD;
                    sx.per_vpu[v].push(LaneResult { rob: f.rob, dst: f.acc_dst, lane: l, value: cum });
                } else {
                    // Partial: forward the running value to the chain's next
                    // op instead of storing it architecturally (§V-B).
                    f.fwd_base[l] = cum;
                    f.fwd_ready[l] = cycle + fwd_delay;
                }
            }
            v += 1;
        }
    }

    for v in 0..nv {
        if sx.per_vpu[v].is_empty() {
            continue;
        }
        let fresh = sx.lease();
        let results = std::mem::replace(&mut sx.per_vpu[v], fresh);
        stats.vpu_ops += 1;
        stats.lanes_issued += results.len() as u64;
        out.push(VpuOp { complete_at: cycle + latency, results });
    }
}
