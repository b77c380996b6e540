//! The store purity canary (DESIGN.md §5h): a cell run through a
//! [`TraceStore`] — answered from the result memo, or run on a copy of a
//! reused built kernel — must be indistinguishable, bit for bit, from its
//! direct execution. Random cells across every operating point, both
//! machine modes, and the Full sanitizer; plus a check that the store's
//! kernels stay pristine however many cells run on them.

use proptest::prelude::*;
use save_core::{CoreConfig, SanitizeLevel};
use save_isa::Memory;
use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save_sim::{CellSpec, ConfigKind, CoreSel, MachineConfig, MachineMode, TraceStore};

#[derive(Clone, Debug)]
struct Cell {
    m: usize,
    n: usize,
    k: usize,
    tiles: usize,
    a_sparsity: f64,
    b_sparsity: f64,
    pattern: BroadcastPattern,
    precision: Precision,
    detailed: bool,
    seed: u64,
}

fn cell() -> impl Strategy<Value = Cell> {
    (
        1usize..6,
        1usize..3,
        1usize..12,
        1usize..3,
        0.0f64..0.95,
        0.0f64..0.95,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(m, n, k, tiles, a_s, b_s, emb, mp, detailed, seed)| Cell {
            m,
            n,
            k: k * 2, // even for MP
            tiles,
            a_sparsity: a_s,
            b_sparsity: b_s,
            pattern: if emb { BroadcastPattern::Embedded } else { BroadcastPattern::Explicit },
            precision: if mp { Precision::Mixed } else { Precision::F32 },
            detailed,
            seed,
        })
        .prop_filter("register budget", |c| {
            GemmKernelSpec {
                m_tiles: c.m,
                n_vecs: c.n,
                pattern: c.pattern,
                precision: c.precision,
            }
            .fits_register_file()
        })
}

fn workload_of(c: &Cell) -> GemmWorkload {
    GemmWorkload::dense(
        "canary",
        GemmKernelSpec {
            m_tiles: c.m,
            n_vecs: c.n,
            pattern: c.pattern,
            precision: c.precision,
        },
        c.k,
        c.tiles,
    )
    .with_sparsity(c.a_sparsity, c.b_sparsity)
}

fn machine_of(c: &Cell) -> MachineConfig {
    if c.detailed {
        MachineConfig { cores: 2, mode: MachineMode::Detailed, ..Default::default() }
    } else {
        MachineConfig::default()
    }
}

/// Runs every operating point for the cell twice — directly and through a
/// shared [`TraceStore`] (the first store-backed run builds and admits the
/// kernel, the rest reuse it) — and asserts bit-identical seconds, cycles
/// and stats.
fn assert_store_pure(w: &GemmWorkload, machine: &MachineConfig, seed: u64, kinds: &[CoreSel]) {
    let store = TraceStore::new();
    for (i, core) in kinds.iter().enumerate() {
        let spec = CellSpec {
            workload: w.clone(),
            core: core.clone(),
            machine: *machine,
            seed,
            verify: false,
        };
        let direct = spec.run(None).expect("direct run").result;
        let stored = spec.run_traced(None, &store).expect("store-backed run");
        assert_eq!(
            direct.seconds.to_bits(),
            stored.seconds.to_bits(),
            "kind {i}: store-backed seconds must be bit-identical"
        );
        assert_eq!(direct.cycles, stored.cycles, "kind {i}: cycles diverged");
        assert_eq!(direct.stats, stored.stats, "kind {i}: CoreStats diverged");
        assert_eq!(direct.verified, stored.verified, "kind {i}: verified flag diverged");
    }
    // Symmetric cells reuse the kernel the first one admitted; detailed
    // cells go through the memo only.
    let reuses = match machine.mode {
        MachineMode::Symmetric => kinds.len() as u64 - 1,
        MachineMode::Detailed => 0,
    };
    assert_eq!(store.hits(), reuses, "kernel reuses");
}

fn named_kinds() -> Vec<CoreSel> {
    ConfigKind::ALL.iter().map(|&kind| CoreSel::Kind { kind }).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// Random cells: a run through the store is bit-identical to direct
    /// execution for all three operating points, in whichever machine mode
    /// the cell drew.
    #[test]
    fn store_run_is_bit_identical_to_direct(c in cell()) {
        assert_store_pure(&workload_of(&c), &machine_of(&c), c.seed, &named_kinds());
    }
}

/// The Full sanitizer — every issue-time and state-scan check, every cycle
/// — must accept store-backed runs exactly as it accepts direct ones, in
/// both machine modes.
#[test]
fn store_survives_full_sanitizer_in_both_modes() {
    let sanitized: Vec<CoreSel> = ConfigKind::ALL
        .iter()
        .map(|k| CoreSel::Custom {
            config: Box::new(CoreConfig {
                sanitize: SanitizeLevel::Full,
                ..k.core_config()
            }),
        })
        .collect();
    for precision in [Precision::F32, Precision::Mixed] {
        let w = GemmWorkload::dense(
            "canary-sane",
            GemmKernelSpec {
                m_tiles: 4,
                n_vecs: 2,
                pattern: BroadcastPattern::Explicit,
                precision,
            },
            16,
            2,
        )
        .with_sparsity(0.6, 0.5);
        for mode in [MachineMode::Symmetric, MachineMode::Detailed] {
            let machine = MachineConfig { cores: 2, mode, ..Default::default() };
            assert_store_pure(&w, &machine, 17, &sanitized);
        }
    }
}

/// Every f32 word of two arenas, bit for bit.
fn same_arena(a: &Memory, b: &Memory) -> bool {
    a.size() == b.size()
        && (0..a.size() as u64 / 4)
            .all(|i| a.read_f32(4 * i).to_bits() == b.read_f32(4 * i).to_bits())
}

/// The store hands out pristine kernels: one trace key run under every
/// operating point and then once more with verification, each on the same
/// cached kernel. Every result matches its direct run, the verified run
/// checks out, and the cached kernel's memory still equals a fresh build —
/// a run that wrote its output into the cached arena fails here.
#[test]
fn store_hands_out_pristine_kernels() {
    let w = GemmWorkload::dense(
        "canary-pristine",
        GemmKernelSpec {
            m_tiles: 4,
            n_vecs: 2,
            pattern: BroadcastPattern::Explicit,
            precision: Precision::F32,
        },
        16,
        2,
    )
    .with_sparsity(0.5, 0.4);
    let machine = MachineConfig::default();
    let store = TraceStore::new();
    let mut specs: Vec<CellSpec> =
        ConfigKind::ALL.iter().map(|&k| CellSpec::new(w.clone(), k, machine, 23)).collect();
    specs.push(CellSpec { verify: true, ..specs[2].clone() });
    for spec in &specs {
        let stored = spec.run_traced(None, &store).expect("store-backed run");
        let direct = spec.run(None).expect("direct run").result;
        assert_eq!(stored.seconds.to_bits(), direct.seconds.to_bits());
        assert_eq!(stored.cycles, direct.cycles);
        assert_eq!(stored.stats, direct.stats);
        assert_eq!(stored.verified, spec.verify);
    }
    assert_eq!(store.result_hits(), 0, "every cell differs in its timing key");
    assert_eq!(store.hits(), specs.len() as u64 - 1, "one build, reused by every later cell");
    let cached = store.get(specs[0].trace_key().unwrap()).expect("kernel admitted");
    assert!(same_arena(&cached.mem, &w.build(23).mem), "a run wrote into the cached kernel");
}

/// The result memo and the display-name-agnostic trace key must both be
/// invisible in the bits: a duplicate cell served from the memo, and a
/// renamed-but-identical workload answered from another's memo, each match
/// their own direct execution exactly.
#[test]
fn result_memo_and_renamed_workloads_stay_pure() {
    let w = GemmWorkload::dense(
        "canary-memo",
        GemmKernelSpec {
            m_tiles: 4,
            n_vecs: 2,
            pattern: BroadcastPattern::Explicit,
            precision: Precision::F32,
        },
        16,
        2,
    )
    .with_sparsity(0.6, 0.6);
    let machine = MachineConfig::default();
    let store = TraceStore::new();
    let spec = CellSpec::new(w.clone(), ConfigKind::Save2Vpu, machine, 11);
    let first = spec.run_traced(None, &store).expect("first run");
    let second = spec.run_traced(None, &store).expect("memoized run");
    assert_eq!(store.result_hits(), 1, "identical cell must be served from the memo");
    assert_eq!(first.seconds.to_bits(), second.seconds.to_bits());
    assert_eq!(first.stats, second.stats);

    // Same shape under a different label: the name is excluded from the
    // trace key (and hence the cache key), so this is served from the
    // original's memo — and must still match the alias's *own* direct
    // execution bit-for-bit, which is what proves the label really is
    // non-functional.
    let mut renamed = w;
    renamed.name = "canary-memo-alias".into();
    let alias = CellSpec::new(renamed, ConfigKind::Save2Vpu, machine, 11);
    assert_eq!(spec.trace_key().unwrap(), alias.trace_key().unwrap());
    let stored = alias.run_traced(None, &store).expect("alias store-backed");
    let direct = alias.run(None).expect("alias direct").result;
    assert_eq!(stored.seconds.to_bits(), direct.seconds.to_bits());
    assert_eq!(stored.stats, direct.stats);
}
