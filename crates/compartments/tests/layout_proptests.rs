//! Property coverage for the generalized flat layout: compartment-major
//! band order across the kernel-relevant class counts, and structured
//! errors on malformed flat lengths and non-finite values.

use proptest::prelude::*;
use rumor_compartments::layout::CompartmentLayout;

/// Class counts straddling the lane and partition widths, matching the
/// kernel identity suites.
const CLASS_COUNTS: [usize; 5] = [1, 7, 8, 9, 264];

/// Deterministic fill from a seed (SplitMix64), uniformly in [0, 1).
fn fill(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bands_tile_the_flat_state(
        size_idx in 0usize..CLASS_COUNTS.len(),
        n_compartments in 1usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let n = CLASS_COUNTS[size_idx];
        let layout = CompartmentLayout::new(n, n_compartments).unwrap();
        let flat = fill(seed, layout.flat_dim());
        // Band views follow the compartment-major order, back to back.
        let joined: Vec<f64> = (0..n_compartments)
            .flat_map(|c| layout.band(&flat, c).iter().copied())
            .collect();
        prop_assert_eq!(joined, flat);
    }

    #[test]
    fn malformed_flat_lengths_are_rejected(
        size_idx in 0usize..CLASS_COUNTS.len(),
        n_compartments in 1usize..6,
        delta in 1usize..5,
        longer in 0usize..2,
        value in 0.0..1.0_f64,
    ) {
        let n = CLASS_COUNTS[size_idx];
        let layout = CompartmentLayout::new(n, n_compartments).unwrap();
        let dim = layout.flat_dim();
        let len = if longer == 1 { dim + delta } else { dim.saturating_sub(delta) };
        prop_assume!(len != dim);
        let mut flat = vec![value; len];
        prop_assert!(layout.sanitize(&mut flat).is_err());
    }

    #[test]
    fn non_finite_values_are_rejected(
        size_idx in 0usize..CLASS_COUNTS.len(),
        poison_num in 0usize..1000,
    ) {
        let n = CLASS_COUNTS[size_idx];
        let layout = CompartmentLayout::new(n, 3).unwrap();
        let mut flat = vec![0.25; layout.flat_dim()];
        let at = poison_num % flat.len();
        flat[at] = f64::NAN;
        prop_assert!(layout.sanitize(&mut flat).is_err());
        flat[at] = f64::INFINITY;
        prop_assert!(layout.sanitize(&mut flat).is_err());
    }
}
