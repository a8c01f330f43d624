//! Frozen adjoint right-hand sides across the kernel partition boundary.
//!
//! The costate RHS of both optimized kinds reduces its network couplings
//! over fixed 256-class partitions (`rumor_core::kernels::PART_CHUNK`).
//! The frozen sweeps run at most 300 classes, so these digests hold the
//! adjoint alone at 7 classes (one partition), 264 (two), 848 (four, the
//! full-scale Digg net) and 1,031 (five, the last one ragged). They are
//! FNV-1a digests of the `f64` bit patterns, recorded before the pooled
//! adjoint path was deleted; a deliberate numerics change updates them in
//! the same commit.

use rumor_compartments::model::CompartmentModel;
use rumor_compartments::paper::PaperSir;
use rumor_models::two_rumor::TwoRumorModel;

/// Class counts on both sides of the partition boundary.
const SIZES: [usize; 4] = [7, 264, 848, 1031];

/// FNV-1a over the little-endian bit patterns of `values`.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Deterministic pseudo-random fill (SplitMix64 mapped into [lo, hi)).
fn fill(seed: u64, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            lo + (hi - lo) * (z >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// Digest of `model.adjoint_rhs` at a seeded state and costate.
fn adjoint_digest(model: &impl CompartmentModel, seed: u64) -> u64 {
    let state = fill(seed, model.state_dim(), 0.0, 1.0);
    let p = fill(seed ^ 0xA5, model.costate_dim(), -1.0, 1.0);
    let mut dpdt = vec![f64::NAN; model.costate_dim()];
    model.adjoint_rhs(&state, &p, &[0.17, 0.06], &mut dpdt);
    fnv1a(&dpdt)
}

#[test]
fn paper_adjoint_rhs_is_frozen_across_partitions() {
    let digests: Vec<u64> = SIZES
        .iter()
        .map(|&n| {
            let seed = n as u64;
            let model = PaperSir::from_parts(
                fill(seed ^ 1, n, 0.0, 0.5),
                fill(seed ^ 2, n, 0.0, 0.01),
                0.002,
                5.0,
                10.0,
            )
            .unwrap();
            adjoint_digest(&model, seed)
        })
        .collect();
    assert_eq!(
        digests,
        [
            0xf470f622d2956598,
            0x9b58cefedeefcfd1,
            0x6b30d69d02fdf4de,
            0x133f007e54192f69,
        ]
    );
}

#[test]
fn two_rumor_adjoint_rhs_is_frozen_across_partitions() {
    let digests: Vec<u64> = SIZES
        .iter()
        .map(|&n| {
            let seed = n as u64;
            let model = TwoRumorModel::from_parts(
                fill(seed ^ 1, n, 0.0, 0.5),
                fill(seed ^ 3, n, 0.0, 0.5),
                fill(seed ^ 2, n, 0.0, 0.01),
                0.002,
                0.05,
                0.08,
                0.5,
                5.0,
                10.0,
            )
            .unwrap();
            adjoint_digest(&model, seed)
        })
        .collect();
    assert_eq!(
        digests,
        [
            0x2ad4f8e9bd642562,
            0x071b969dc244676f,
            0x3a986cde6ffcf990,
            0x939517b3e50e3ec8,
        ]
    );
}
