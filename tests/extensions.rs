//! Extension features from the paper's related-work synergies (§VIII):
//! SparseTrain-style software BS skipping and ZCOMP-style compressed
//! vector loads. Both must stay functionally exact and show their expected
//! performance characters.

use save::kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save::sim::{CellSpec, ConfigKind, KernelResult, MachineConfig};

/// `w` at `kind` on the default machine, seeded with `seed`.
fn cell(w: &GemmWorkload, kind: ConfigKind, seed: u64) -> CellSpec {
    CellSpec::new(w.clone(), kind, MachineConfig::default(), seed)
}

fn run(spec: CellSpec) -> KernelResult {
    spec.run(None).unwrap().result
}

fn verified(spec: CellSpec) -> KernelResult {
    spec.with_verify(true).run(None).unwrap().result
}

fn explicit_spec() -> GemmKernelSpec {
    GemmKernelSpec {
        m_tiles: 6,
        n_vecs: 3,
        pattern: BroadcastPattern::Explicit,
        precision: Precision::F32,
    }
}

#[test]
fn software_bs_skip_helps_on_clustered_sparsity_only() {
    // SparseTrain-style skipping branches on data: with *clustered* zeros
    // (real ReLU activations) the branches predict well and it wins; with
    // uniform random zeros the mispredictions erase the benefit — while
    // SAVE's hardware skipping is insensitive to structure.
    let clustered = GemmWorkload {
        a_cluster: 16,
        ..GemmWorkload::dense("st", explicit_spec(), 48, 2).with_sparsity(0.6, 0.0)
    };
    let skipping = GemmWorkload { software_bs_skip: true, ..clustered.clone() };
    let r_plain = verified(cell(&clustered, ConfigKind::Baseline, 3));
    let r_skip = verified(cell(&skipping, ConfigKind::Baseline, 3));
    assert!(r_plain.completed && r_skip.completed);
    assert!(
        r_skip.cycles < r_plain.cycles,
        "software skipping must help on clustered 60% BS: {} vs {}",
        r_skip.cycles,
        r_plain.cycles
    );
    assert!(r_skip.stats.fma_uops < r_plain.stats.fma_uops);

    // Uniform random: all-zero blocks are vanishingly rare, so software
    // skipping finds nothing to skip; SAVE still wins outright.
    let uniform = GemmWorkload::dense("st", explicit_spec(), 48, 2).with_sparsity(0.6, 0.0);
    let uskip = GemmWorkload { software_bs_skip: true, ..uniform.clone() };
    let r_uplain = verified(cell(&uniform, ConfigKind::Baseline, 3));
    let r_uskip = verified(cell(&uskip, ConfigKind::Baseline, 3));
    assert!(
        r_uskip.cycles as f64 >= r_uplain.cycles as f64 * 0.97,
        "uniform-random software skipping must not find meaningful gains: {} vs {}",
        r_uskip.cycles,
        r_uplain.cycles
    );
    let r_usave = verified(cell(&uniform, ConfigKind::Save2Vpu, 3));
    assert!(r_usave.cycles < r_uplain.cycles * 9 / 10, "SAVE is structure-insensitive");
}

#[test]
fn software_bs_skip_cannot_touch_nbs_but_save_can() {
    // SparseTrain exploits broadcasted sparsity only (§VIII); with pure NBS
    // it skips nothing, while SAVE keeps its gain.
    let plain = GemmWorkload::dense("st", explicit_spec(), 48, 2).with_sparsity(0.0, 0.7);
    let skipping = GemmWorkload { software_bs_skip: true, ..plain.clone() };
    let r_plain = verified(cell(&plain, ConfigKind::Baseline, 5));
    let r_skip = verified(cell(&skipping, ConfigKind::Baseline, 5));
    assert_eq!(r_skip.stats.fma_uops, r_plain.stats.fma_uops, "nothing to skip");
    let r_save = verified(cell(&plain, ConfigKind::Save2Vpu, 5));
    assert!(r_save.cycles < r_plain.cycles * 9 / 10);
}

#[test]
fn software_skipping_composes_with_save_by_freeing_the_front_end() {
    // SAVE's BS skip still pays allocation/commit bandwidth for the dropped
    // VFMAs (the MGU removes them after rename); software skipping removes
    // the µops before they exist. At high BS the SAVE kernel is front-end
    // bound, so the combination helps on balance — the same observation the
    // paper makes about SparCE "saving front-end bandwidth" (§VIII).
    //
    // The effect is real but small, and a single seed's zero placement can
    // tip an individual run a handful of cycles either way (the branch-skip
    // blocks perturb alignment). Sum over several seeds and allow a 1%
    // band so the assertion tests the trend, not one draw's noise.
    let mut sum_save = 0u64;
    let mut sum_both = 0u64;
    for seed in [7, 11, 13] {
        let plain = GemmWorkload {
            a_cluster: 16,
            ..GemmWorkload::dense("st", explicit_spec(), 48, 2).with_sparsity(0.6, 0.0)
        };
        let skipping = GemmWorkload { software_bs_skip: true, ..plain.clone() };
        let r_save = verified(cell(&plain, ConfigKind::Save2Vpu, seed));
        let r_both = verified(cell(&skipping, ConfigKind::Save2Vpu, seed));
        assert!(r_save.completed && r_both.completed);
        sum_save += r_save.cycles;
        sum_both += r_both.cycles;
    }
    assert!(
        sum_both as f64 <= sum_save as f64 * 1.01,
        "SAVE+software must not be meaningfully slower than SAVE alone \
         across seeds: {sum_both} vs {sum_save}"
    );
}

fn streaming_workload(nbs: f64, compressed: bool) -> GemmWorkload {
    GemmWorkload {
        b_panel_tiles: 1, // stream every panel: bandwidth bound
        compressed_b: compressed,
        ..GemmWorkload::dense("zc", explicit_spec(), 64, 8).with_sparsity(0.2, nbs)
    }
}

#[test]
fn compressed_loads_are_functionally_exact() {
    for nbs in [0.0, 0.5, 0.9] {
        let r = verified(cell(&streaming_workload(nbs, true), ConfigKind::Save2Vpu, 9));
        assert!(r.completed && r.verified, "nbs={nbs}");
    }
}

#[test]
fn zcomp_lifts_the_bandwidth_cap_proportionally_to_nbs() {
    // §VIII: ZCOMP's memory reduction is proportional to SAVE's computation
    // reduction. On a streaming (bandwidth-bound) kernel, SAVE alone caps;
    // SAVE+ZCOMP keeps scaling with NBS.
    let nbs = 0.8;
    let save_only = run(cell(&streaming_workload(nbs, false), ConfigKind::Save2Vpu, 11));
    let with_zcomp = run(cell(&streaming_workload(nbs, true), ConfigKind::Save2Vpu, 11));
    assert!(
        with_zcomp.cycles * 10 < save_only.cycles * 9,
        "compressed streaming must be >10% faster at 80% NBS: {} vs {}",
        with_zcomp.cycles,
        save_only.cycles
    );
    // Dense data: compression buys (almost) nothing.
    let d_plain = run(cell(&streaming_workload(0.0, false), ConfigKind::Save2Vpu, 13));
    let d_comp = run(cell(&streaming_workload(0.0, true), ConfigKind::Save2Vpu, 13));
    let ratio = d_comp.cycles as f64 / d_plain.cycles as f64;
    assert!((0.85..=1.15).contains(&ratio), "dense compression is a wash: {ratio:.2}");
}
