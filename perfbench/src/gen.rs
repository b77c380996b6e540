//! Seeded input generation: the workload seed is the only source of
//! variation, and the simulator receives nothing but what is built here.
//!
//! Every choice is a pick from a pool of equally sized kernels or a small
//! jitter, so the host work per pass stays the same across seeds while the
//! simulated inputs differ.

use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Phase, Precision};
use save_sim::surface::coarse_grid;
use save_sim::{
    CellSpec, ConfigKind, LayerShape, MachineConfig, MachineMode, MulticoreConfig, Network, Surface,
};
use save_sparsity::NetKind;

/// SplitMix64: a tiny, well-mixed generator with no external dependency.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and one named stream (so workloads drawing
    /// from the same seed stay independent).
    pub fn new(seed: u64, stream: &str) -> Self {
        let salt = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        Rng(seed ^ salt)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct picks from `pool`, in pool order.
    pub fn pick<T: Clone>(&mut self, pool: &[T], k: usize) -> Vec<T> {
        let mut idx: Vec<usize> = (0..pool.len()).collect();
        for i in 0..k {
            let j = i + self.below(idx.len() - i);
            idx.swap(i, j);
        }
        let mut chosen = idx[..k].to_vec();
        chosen.sort_unstable();
        chosen.into_iter().map(|i| pool[i].clone()).collect()
    }

    /// `centre` moved by up to `±spread`, rounded to whole percent so the
    /// level prints exactly and hashes stably.
    pub fn jitter(&mut self, centre: f64, spread: f64) -> f64 {
        let steps = (spread * 100.0).round() as i64;
        let off = (self.next_u64() % (2 * steps as u64 + 1)) as i64 - steps;
        ((centre * 100.0).round() as i64 + off) as f64 / 100.0
    }
}

/// The blocking every full-depth kernel shares.
const FULL_SPEC: (usize, usize) = (6, 4);

/// Layers of `net` whose kernels have the full 128-deep reduction and the
/// common blocking in all three phases, so every pick costs the same to
/// simulate. (Their training surfaces are one and the same kernel per
/// phase; only the name and the inference point differ.)
fn full_depth(net: &Network) -> Vec<usize> {
    (0..net.layers.len())
        .filter(|&li| net.phases(li).len() == 3)
        .filter(|&li| {
            Phase::ALL.iter().all(|&p| {
                let w = net.layers[li].workload(p, Precision::F32);
                w.k_total == 128 && (w.spec.m_tiles, w.spec.n_vecs) == FULL_SPEC
            })
        })
        .collect()
}

/// One Surface::sweep call: a kernel, an operating point and its grid.
#[derive(Clone, Debug)]
pub struct SweepJob {
    /// The kernel (sparsity is set per grid point by the sweep).
    pub kernel: GemmWorkload,
    /// Operating point.
    pub kind: ConfigKind,
    /// Broadcast-side sparsity levels.
    pub a_levels: Vec<f64>,
    /// Vector-side sparsity levels.
    pub b_levels: Vec<f64>,
}

impl SweepJob {
    /// The grid's cells as the specs `Surface::sweep` runs, `a`-major.
    pub fn cells(&self, machine: MachineConfig) -> Vec<CellSpec> {
        self.a_levels
            .iter()
            .flat_map(|&a| self.b_levels.iter().map(move |&b| (a, b)))
            .map(|(a, b)| {
                let w = self.kernel.clone().with_sparsity(a, b);
                CellSpec::new(w, self.kind, machine, Surface::point_seed(a, b))
            })
            .collect()
    }
}

/// The estimator's levels for one axis (`Estimator::axis_levels`): the
/// coarse grid if the sparsity varies over training, else its one level.
fn axis_levels(samples: &[f64]) -> Vec<f64> {
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = samples.iter().cloned().fold(0.0f64, f64::max);
    if max - min < 1e-9 {
        vec![max]
    } else {
        coarse_grid()
    }
}

/// Inference layers the seed picks per network.
const INFERENCE_LAYERS: usize = 4;

/// `surface`: the `Surface::sweep` calls the estimator makes for dense
/// VGG16 in FP32 and pruned ResNet-50 in MP.
///
/// Per network, `Estimator::estimate_training` sweeps each (layer, phase)
/// under baseline, SAVE 2 VPU and SAVE 1 VPU over `axis_levels` of the
/// layer's sparsity samples: 6 × 6 points where both sides vary, 6 where
/// one does. All full-depth layers share one kernel per phase, and the
/// estimator caches surfaces by kernel, so this is every training sweep it
/// sends for them (48 points × 3 operating points). Then
/// `Estimator::estimate_inference` sends one 1-point sweep per (layer,
/// operating point) at the layer's end-of-training sparsity; the seed picks
/// which layers.
pub fn surface_jobs(seed: u64) -> Vec<SweepJob> {
    let mut rng = Rng::new(seed, "surface");
    let mut jobs = Vec::new();
    for (kind, prec) in [
        (NetKind::Vgg16Dense, Precision::F32),
        (NetKind::ResNet50Pruned, Precision::Mixed),
    ] {
        let net = Network::build(kind);
        let layers = full_depth(&net);
        let training = layers[rng.below(layers.len())];
        for phase in net.phases(training) {
            let samples = |axis: fn(save_sim::net::SparsityPoint) -> f64| {
                (0..8)
                    .map(|i| axis(net.sparsity_point(training, phase, i as f64 / 7.0)))
                    .collect::<Vec<f64>>()
            };
            let a_levels = axis_levels(&samples(|p| p.a));
            let b_levels = axis_levels(&samples(|p| p.b));
            for op in ConfigKind::ALL {
                jobs.push(SweepJob {
                    kernel: net.layers[training].workload(phase, prec),
                    kind: op,
                    a_levels: a_levels.clone(),
                    b_levels: b_levels.clone(),
                });
            }
        }
        for li in rng.pick(&layers, INFERENCE_LAYERS) {
            let p = net.inference_point(li);
            for op in ConfigKind::ALL {
                jobs.push(SweepJob {
                    kernel: net.layers[li].workload(Phase::Forward, prec),
                    kind: op,
                    a_levels: vec![p.a],
                    b_levels: vec![p.b],
                });
            }
        }
    }
    jobs
}

/// The fig16 sparsity corners: (0.6, 0.6), (0.8, 0.8) and (0.9, 0.9). They
/// are not jittered: near 0.9 a few percent of sparsity changes the share of
/// non-zeros a SAVE cell computes by half, and its host cost with it, so the
/// seed picks the operand data instead.
const CORNERS: [f64; 3] = [0.6, 0.8, 0.9];

/// Weight-panel reuse of the `sweep` LSTM cell: 1, a fresh panel from DRAM
/// per tile, the most memory-bound of fig16's settings (1, 2, 4, 8, 16).
/// It is fixed because the reuse sets the cell's host cost several-fold.
const LSTM_REUSE: usize = 1;

/// `sweep`: a fig16-shaped batch of labelled cells, laid out as `fig16`
/// lays out its batch: kernel-major, and per (kernel, corner) one baseline
/// cell shared by both panels, then SAVE 2 VPU and SAVE 1 VPU. Where
/// `fig16` seeds corner `i`'s operands with `1000 + i`, the seed picks the
/// thousand. The kernels
/// are two VGG16 forward layers of one repeated shape (so the second is
/// answered from the result memo), a ResNet-50 backward-input layer and a
/// GNMT LSTM cell, in FP32 and MP. Labels follow `fig16`'s.
pub fn sweep_cells(seed: u64) -> Vec<(String, CellSpec)> {
    let mut rng = Rng::new(seed, "sweep");
    let machine = MachineConfig::default();
    let vgg = Network::build(NetKind::Vgg16Dense);
    let twins: Vec<(usize, usize)> = full_depth(&vgg)
        .windows(2)
        .map(|p| (p[0], p[1]))
        .filter(|&(a, b)| {
            let shape = |li: usize| match &vgg.layers[li] {
                LayerShape::Conv(c) => (c.c_in, c.c_out, c.hw, c.rs),
                LayerShape::Lstm(_) => unreachable!("VGG16 is all conv"),
            };
            shape(a) == shape(b)
        })
        .collect();
    let (first, twin) = twins[rng.below(twins.len())];
    let res = Network::build(NetKind::ResNet50Pruned);
    let res_layers = full_depth(&res);
    let res_layer = &res.layers[res_layers[rng.below(res_layers.len())]];
    let gnmt = save_kernels::shapes::gnmt(64);
    let lstm_phase = [Phase::Forward, Phase::BackwardInput][rng.below(2)];
    let data_seed = 1000 * (1 + rng.below(1000) as u64);

    let lstm = LayerShape::Lstm(gnmt[rng.below(gnmt.len())].clone());
    let kernels = [
        (&vgg.layers[first], Phase::Forward),
        (&vgg.layers[twin], Phase::Forward),
        (res_layer, Phase::BackwardInput),
        (&lstm, lstm_phase),
    ];
    let mut cells = Vec::new();
    for prec in [Precision::F32, Precision::Mixed] {
        for &(layer, phase) in &kernels {
            let mut w0 = layer.workload(phase, prec);
            let mut name = format!("{} {phase}", layer.name());
            if let LayerShape::Lstm(_) = layer {
                w0.b_panel_tiles = LSTM_REUSE;
                name.push_str(&format!(" r{LSTM_REUSE}"));
            }
            for (i, &c) in CORNERS.iter().enumerate() {
                let w = w0.clone().with_sparsity(c, c);
                let s = data_seed + i as u64;
                cells.push((
                    format!("{name} {prec} base corner{i}"),
                    CellSpec::new(w.clone(), ConfigKind::Baseline, machine, s),
                ));
                for (vpus, kind) in [(2, ConfigKind::Save2Vpu), (1, ConfigKind::Save1Vpu)] {
                    cells.push((
                        format!("{name} {prec} {vpus}vpu corner{i}"),
                        CellSpec::new(w.clone(), kind, machine, s),
                    ));
                }
            }
        }
    }
    cells
}

/// The detailed 28-core machine under one sync quantum.
pub fn mesh_machine(quantum: u64, threads: usize) -> MachineConfig {
    MachineConfig {
        cores: 28,
        mode: MachineMode::Detailed,
        mc: MulticoreConfig { quantum, threads },
        ..MachineConfig::default()
    }
}

/// `mesh28`: one compute kernel (weights resident) and one streaming
/// kernel (a fresh weight panel per tile), with jittered sparsity.
pub fn mesh_kernels(seed: u64) -> (Vec<GemmWorkload>, u64) {
    let mut rng = Rng::new(seed, "mesh28");
    let spec = GemmKernelSpec {
        m_tiles: 6,
        n_vecs: 4,
        pattern: BroadcastPattern::Explicit,
        precision: Precision::F32,
    };
    let compute = GemmWorkload::dense("mesh-compute", spec, 32, 4)
        .with_sparsity(rng.jitter(0.4, 0.05), rng.jitter(0.5, 0.05));
    let stream = GemmWorkload {
        b_panel_tiles: 1,
        ..GemmWorkload::dense("mesh-stream", spec, 32, 4)
            .with_sparsity(rng.jitter(0.6, 0.05), rng.jitter(0.6, 0.05))
    };
    (vec![compute, stream], 1 + rng.below(1 << 16) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys<'a>(cells: impl IntoIterator<Item = &'a CellSpec>) -> Vec<u64> {
        cells.into_iter().map(|c| c.cache_key().unwrap()).collect()
    }

    fn surface_keys(seed: u64) -> Vec<u64> {
        let cells: Vec<CellSpec> = surface_jobs(seed)
            .iter()
            .flat_map(|j| j.cells(MachineConfig::default()))
            .collect();
        keys(&cells)
    }

    fn sweep_keys(seed: u64) -> Vec<u64> {
        keys(sweep_cells(seed).iter().map(|(_, c)| c))
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for seed in [0, 1, 7919, u64::MAX] {
            assert_eq!(surface_keys(seed), surface_keys(seed));
            assert_eq!(sweep_keys(seed), sweep_keys(seed));
            let labels = |s| sweep_cells(s).into_iter().map(|c| c.0).collect::<Vec<_>>();
            assert_eq!(labels(seed), labels(seed));
            assert_eq!(
                format!("{:?}", mesh_kernels(seed)),
                format!("{:?}", mesh_kernels(seed))
            );
        }
    }

    #[test]
    fn seeds_change_the_inputs() {
        assert_ne!(sweep_keys(1), sweep_keys(2));
        assert_ne!(
            format!("{:?}", mesh_kernels(1)),
            format!("{:?}", mesh_kernels(2))
        );
        assert_ne!(surface_keys(1), surface_keys(2));
    }

    #[test]
    fn jitter_stays_in_band_and_on_whole_percents() {
        let mut rng = Rng::new(3, "t");
        for _ in 0..1000 {
            let x = rng.jitter(0.6, 0.05);
            assert!((0.55..=0.65).contains(&x), "{x}");
            assert_eq!((x * 100.0).round() / 100.0, x);
        }
    }

    #[test]
    fn picks_are_distinct_and_in_pool_order() {
        let mut rng = Rng::new(5, "t");
        let pool: Vec<usize> = (0..10).collect();
        for _ in 0..100 {
            let got = rng.pick(&pool, 4);
            assert_eq!(got.len(), 4);
            assert!(got.windows(2).all(|w| w[0] < w[1]), "{got:?}");
        }
    }

    #[test]
    fn surface_grids_are_the_estimators() {
        for seed in 0..20 {
            let jobs = surface_jobs(seed);
            let points = |j: &SweepJob| j.a_levels.len() * j.b_levels.len();
            // Per network: 3 phases × 3 operating points of training
            // sweeps (36 + 6 + 6 points), then 1-point inference sweeps.
            assert_eq!(jobs.len(), 2 * (3 * 3 + INFERENCE_LAYERS * 3));
            for net in jobs.chunks(3 * 3 + INFERENCE_LAYERS * 3) {
                let (training, inference) = net.split_at(9);
                let mut sizes: Vec<usize> = training.iter().map(points).collect();
                sizes.sort_unstable();
                assert_eq!(sizes, [6, 6, 6, 6, 6, 6, 36, 36, 36]);
                for j in training {
                    for levels in [&j.a_levels, &j.b_levels] {
                        assert!(levels.len() == 1 || *levels == coarse_grid());
                    }
                }
                assert!(inference.iter().all(|j| points(j) == 1));
            }
            assert!(jobs.iter().all(|j| j.kernel.k_total == 128));
        }
    }

    #[test]
    fn sweep_batch_is_fig16_shaped() {
        for seed in 0..20 {
            let cells = sweep_cells(seed);
            assert_eq!(cells.len(), 2 * 4 * CORNERS.len() * 3);
            let labels: std::collections::HashSet<&str> =
                cells.iter().map(|c| c.0.as_str()).collect();
            assert_eq!(labels.len(), cells.len(), "labels are unique");
            for triple in cells.chunks(3) {
                assert!(triple[0].0.contains(" base corner"));
                let kinds: Vec<ConfigKind> = triple
                    .iter()
                    .map(|c| match c.1.core {
                        save_sim::CoreSel::Kind { kind } => kind,
                        save_sim::CoreSel::Custom { .. } => unreachable!(),
                    })
                    .collect();
                assert_eq!(kinds, ConfigKind::ALL);
            }
            // The twin VGG16 layer is the same kernel under another name.
            let distinct: std::collections::HashSet<u64> = sweep_keys(seed).into_iter().collect();
            assert_eq!(distinct.len(), cells.len() - 2 * CORNERS.len() * 3);
        }
    }
}
