//! Chunked, auto-vectorizable numeric kernels for the per-class hot
//! loops.
//!
//! Every kernel here is written in **chunked** form: fixed-width
//! [`LANES`]-lane loops over [`slice::chunks_exact`] with a scalar
//! in-order remainder, shaped so LLVM's auto-vectorizer turns the lane
//! loop into SIMD without any `unsafe` or intrinsics. Each has one
//! association order — per-lane strided sums combined lane 0 → lane
//! `LANES−1`, then the remainder in order — and the tests hold each to a
//! differently-written scalar mirror with that order, bit for bit. The
//! mirrors are test code (`tests/support/scalar_kernels.rs`), shared by
//! this module's unit tests and `tests/kernel_identity.rs`, which holds
//! the model's kernels to them at class counts {1, 7, 8, 9, 264, 848};
//! so any future rewrite that silently changes the floating-point
//! association order fails the suite instead of drifting results.
//!
//! Reductions (the `Θ` dot product, the adjoint coupling sum) are the
//! kernels that *need* this treatment: a strict left-fold cannot be
//! vectorized without reassociation, so we fix one deterministic
//! lane-wise association. Element-wise maps (the SIR and costate
//! right-hand sides) are order-free per element; they are chunked over
//! disjoint `split_at_mut` slices so the optimizer can prove
//! independence.
//!
//! On top of the lane-chunked kernels sits the **partitioned** layer
//! (`*_partitioned`): fixed [`PART_CHUNK`]-wide partitions whose
//! boundaries depend only on the class count, with per-chunk partials
//! folded in chunk order (for `n <= PART_CHUNK`, the plain kernels' bits).
//! Production solves run it serially. [`dot_pooled`] and
//! [`sir_rhs_pooled`] run the same plan, with the same bits, on a
//! [`rumor_par::InnerPool`] that only the benchmark probes and
//! perfreport's `intra_scaling.rhs_848` rows build.

/// Fixed vector width of every chunked kernel (f64 lanes). Eight lanes
/// fill one AVX-512 register or two AVX2 registers — wide enough to
/// saturate either, narrow enough that the remainder loop stays cheap at
/// small class counts.
pub const LANES: usize = 8;

/// Chunked dot product `Σ_i a_i b_i`.
///
/// Accumulates into [`LANES`] independent lanes (block-strided), combines
/// the lanes in index order, then folds the remainder in order. The
/// result is deterministic — but it is *not* the naive left-fold sum, so
/// compare against the scalar mirror, not against `iter().sum()`.
///
/// # Panics
///
/// Panics (in debug builds) if the slices differ in length; release
/// builds truncate to the shorter length via `zip`.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let blocks = n / LANES;
    let split = blocks * LANES;
    let mut acc = [0.0f64; LANES];
    for (ca, cb) in a[..split]
        .chunks_exact(LANES)
        .zip(b[..split].chunks_exact(LANES))
    {
        for j in 0..LANES {
            acc[j] += ca[j] * cb[j];
        }
    }
    let mut total = 0.0;
    for lane in acc {
        total += lane;
    }
    for (x, y) in a[split..n].iter().zip(&b[split..n]) {
        total += x * y;
    }
    total
}

/// Chunked adjoint coupling sum `Σ_i (a_i − b_i) · w_i · s_i` (the
/// network term of the costate `φ̇` equation, with `a = ψ`, `b = φ`,
/// `w = λ`, `s = S`). Same lane association as [`dot`].
pub fn coupling_sum(a: &[f64], b: &[f64], w: &[f64], s: &[f64]) -> f64 {
    debug_assert!(b.len() >= a.len() && w.len() >= a.len() && s.len() >= a.len());
    let n = a.len();
    let blocks = n / LANES;
    let split = blocks * LANES;
    let mut acc = [0.0f64; LANES];
    let mut base = 0;
    while base < split {
        for j in 0..LANES {
            let i = base + j;
            acc[j] += (a[i] - b[i]) * w[i] * s[i];
        }
        base += LANES;
    }
    let mut total = 0.0;
    for lane in acc {
        total += lane;
    }
    for i in split..n {
        total += (a[i] - b[i]) * w[i] * s[i];
    }
    total
}

/// Chunked element-wise SIR right-hand side (paper Eq. (1)) for one
/// evaluation instant:
///
/// ```text
/// ds_i = α − λ_i s_i Θ − ε1 s_i
/// di_i = λ_i s_i Θ − ε2 i_i
/// dr_i = ε1 s_i + ε2 i_i − recycle
/// ```
///
/// Element-wise maps carry no reduction, so chunking does not change any
/// association — the output is bit-identical to the historical
/// per-index loop. The chunked shape (disjoint
/// `chunks_exact` over every slice) is what lets LLVM keep the three
/// streams in registers and vectorize the body.
#[allow(clippy::too_many_arguments)]
pub fn sir_rhs(
    s: &[f64],
    inf: &[f64],
    lambda: &[f64],
    theta: f64,
    alpha: f64,
    eps1: f64,
    eps2: f64,
    recycle: f64,
    ds: &mut [f64],
    di: &mut [f64],
    dr: &mut [f64],
) {
    let n = s.len();
    // Re-slice every stream to the common length so the optimizer sees
    // one shared bound and drops the per-index checks inside the lanes.
    let (s, inf, lambda) = (&s[..n], &inf[..n], &lambda[..n]);
    let (ds, di, dr) = (&mut ds[..n], &mut di[..n], &mut dr[..n]);
    let split = (n / LANES) * LANES;
    let mut base = 0;
    while base < split {
        for j in 0..LANES {
            let i = base + j;
            let force = lambda[i] * s[i] * theta;
            ds[i] = alpha - force - eps1 * s[i];
            di[i] = force - eps2 * inf[i];
            dr[i] = eps1 * s[i] + eps2 * inf[i] - recycle;
        }
        base += LANES;
    }
    for i in split..n {
        let force = lambda[i] * s[i] * theta;
        ds[i] = alpha - force - eps1 * s[i];
        di[i] = force - eps2 * inf[i];
        dr[i] = eps1 * s[i] + eps2 * inf[i] - recycle;
    }
}

/// Chunked element-wise costate right-hand side (paper Eqs. (15)–(16),
/// exact-adjoint form) for one evaluation instant, given the already
/// reduced network scalars `theta` and `coupling`:
///
/// ```text
/// dψ_j = −2 c1 ε1² s_j + ψ_j (λ_j Θ + ε1) − φ_j λ_j Θ
/// dφ_j = −2 c2 ε2² i_j + θw_j · coupling + φ_j ε2
/// ```
#[allow(clippy::too_many_arguments)]
pub fn costate_rhs(
    s: &[f64],
    inf: &[f64],
    psi: &[f64],
    phi: &[f64],
    lambda: &[f64],
    theta_w: &[f64],
    theta: f64,
    coupling: f64,
    c1e1sq2: f64,
    c2e2sq2: f64,
    eps1: f64,
    eps2: f64,
    dpsi: &mut [f64],
    dphi: &mut [f64],
) {
    let n = s.len();
    debug_assert!(
        inf.len() == n
            && psi.len() == n
            && phi.len() == n
            && lambda.len() >= n
            && theta_w.len() >= n
            && dpsi.len() == n
            && dphi.len() == n
    );
    let split = (n / LANES) * LANES;
    let mut base = 0;
    while base < split {
        for j in 0..LANES {
            let i = base + j;
            dpsi[i] =
                -c1e1sq2 * s[i] + psi[i] * (lambda[i] * theta + eps1) - phi[i] * lambda[i] * theta;
            dphi[i] = -c2e2sq2 * inf[i] + theta_w[i] * coupling + phi[i] * eps2;
        }
        base += LANES;
    }
    for i in split..n {
        dpsi[i] =
            -c1e1sq2 * s[i] + psi[i] * (lambda[i] * theta + eps1) - phi[i] * lambda[i] * theta;
        dphi[i] = -c2e2sq2 * inf[i] + theta_w[i] * coupling + phi[i] * eps2;
    }
}

/// Fixed partition width (in classes) of the partitioned reductions — a
/// multiple of [`LANES`] so every full chunk keeps the 8-lane
/// association intact. For `n <= PART_CHUNK` the partitioned reductions
/// collapse to a single chunk and are bit-identical to
/// [`dot`]/[`coupling_sum`]; 848 classes (full-scale Digg) split into 4.
pub const PART_CHUNK: usize = 256;

/// Largest partition count [`dot_pooled`] handles on the stack
/// (`MAX_PARTIALS × PART_CHUNK = 32768` classes); beyond that the
/// partitioned *serial* path runs — same chunk plan, same bits.
pub const MAX_PARTIALS: usize = 128;

/// Number of fixed [`PART_CHUNK`]-wide partitions covering `n` classes.
/// Outside the serial plan only the pooled forward paths read it, and
/// only the benchmark probes and perfreport's `intra_scaling.rhs_848`
/// rows reach those.
pub const fn partition_count(n: usize) -> usize {
    rumor_par::chunk_count(n, PART_CHUNK)
}

/// Folds per-chunk partials in chunk order: `p[0] + p[1] + …` (0.0 when
/// empty), the same tree as the serial partitioned fold.
fn combine_partials(partials: &[f64]) -> f64 {
    partials.iter().copied().reduce(|a, b| a + b).unwrap_or(0.0)
}

/// Serial reduction over the fixed partition plan: evaluates
/// `chunk_val(lo, hi)` per chunk and folds in chunk order.
fn reduce_partitioned(n: usize, chunk_val: impl Fn(usize, usize) -> f64) -> f64 {
    let chunks = partition_count(n);
    let mut total = 0.0;
    for c in 0..chunks {
        let (lo, hi) = rumor_par::chunk_bounds(n, PART_CHUNK, c);
        let partial = chunk_val(lo, hi);
        if c == 0 {
            total = partial;
        } else {
            total += partial;
        }
    }
    total
}

/// Partitioned dot product: per-[`PART_CHUNK`] [`dot`] partials folded in
/// chunk order. Bit-identical to [`dot`] for `n <= PART_CHUNK` and to
/// [`dot_pooled`] at every pool size.
pub fn dot_partitioned(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    reduce_partitioned(n, |lo, hi| dot(&a[lo..hi], &b[lo..hi]))
}

/// Pooled [`dot_partitioned`]: chunk partials are computed on the pool's
/// threads into per-chunk slots and folded in chunk order on the calling
/// thread. The chunk plan is thread-count independent, so the result is
/// bit-identical to the serial partitioned form at every pool size. Only
/// the benchmark probes and perfreport's `intra_scaling.rhs_848` rows
/// reach it.
pub fn dot_pooled(pool: &rumor_par::InnerPool, a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let chunks = partition_count(n);
    if pool.threads() <= 1 || chunks <= 1 || chunks > MAX_PARTIALS {
        return dot_partitioned(a, b);
    }
    let mut partials = [0.0f64; MAX_PARTIALS];
    pool.map_into(&mut partials[..chunks], |c| {
        let (lo, hi) = rumor_par::chunk_bounds(n, PART_CHUNK, c);
        dot(&a[lo..hi], &b[lo..hi])
    });
    combine_partials(&partials[..chunks])
}

/// Partitioned adjoint coupling sum; see [`dot_partitioned`].
pub fn coupling_sum_partitioned(a: &[f64], b: &[f64], w: &[f64], s: &[f64]) -> f64 {
    let n = a.len();
    reduce_partitioned(n, |lo, hi| {
        coupling_sum(&a[lo..hi], &b[lo..hi], &w[lo..hi], &s[lo..hi])
    })
}

/// Pooled [`sir_rhs`]: class chunks are computed on the pool's threads
/// into disjoint output sub-slices. Element-wise maps carry no
/// reduction, so the output is bit-identical to the serial kernel at
/// every pool size and chunking level. Only the benchmark probes and
/// perfreport's `intra_scaling.rhs_848` rows reach it.
#[allow(clippy::too_many_arguments)]
pub fn sir_rhs_pooled(
    pool: &rumor_par::InnerPool,
    s: &[f64],
    inf: &[f64],
    lambda: &[f64],
    theta: f64,
    alpha: f64,
    eps1: f64,
    eps2: f64,
    recycle: f64,
    ds: &mut [f64],
    di: &mut [f64],
    dr: &mut [f64],
) {
    let n = s.len();
    if pool.threads() <= 1 || partition_count(n) <= 1 {
        sir_rhs(
            s, inf, lambda, theta, alpha, eps1, eps2, recycle, ds, di, dr,
        );
        return;
    }
    let chunks: Vec<(&mut [f64], &mut [f64], &mut [f64])> = ds[..n]
        .chunks_mut(PART_CHUNK)
        .zip(di[..n].chunks_mut(PART_CHUNK))
        .zip(dr[..n].chunks_mut(PART_CHUNK))
        .map(|((a, b), c)| (a, b, c))
        .collect();
    pool.scatter(chunks, |c, (ds_c, di_c, dr_c)| {
        let (lo, hi) = rumor_par::chunk_bounds(n, PART_CHUNK, c);
        sir_rhs(
            &s[lo..hi],
            &inf[lo..hi],
            &lambda[lo..hi],
            theta,
            alpha,
            eps1,
            eps2,
            recycle,
            ds_c,
            di_c,
            dr_c,
        );
    });
}

#[cfg(test)]
#[path = "../tests/support/scalar_kernels.rs"]
mod scalar;

#[cfg(test)]
mod tests {
    use super::scalar::*;
    use super::*;

    /// Deterministic pseudo-random fill without pulling `rand` into the
    /// unit tests: SplitMix64 mapped into [lo, hi).
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

    const SIZES: [usize; 8] = [0, 1, 7, 8, 9, 63, 264, 848];

    #[test]
    fn dot_matches_scalar_bitwise() {
        for &n in &SIZES {
            let a = fill(1, n, -2.0, 2.0);
            let b = fill(2, n, -1.0, 3.0);
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_scalar(&a, &b).to_bits(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn dot_is_close_to_naive_sum() {
        let a = fill(3, 848, 0.0, 1.0);
        let b = fill(4, 848, 0.0, 1.0);
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-12 * naive.abs().max(1.0));
    }

    #[test]
    fn coupling_matches_scalar_bitwise() {
        for &n in &SIZES {
            let a = fill(5, n, -1.0, 1.0);
            let b = fill(6, n, -1.0, 1.0);
            let w = fill(7, n, 0.0, 2.0);
            let s = fill(8, n, 0.0, 1.0);
            assert_eq!(
                coupling_sum(&a, &b, &w, &s).to_bits(),
                coupling_sum_scalar(&a, &b, &w, &s).to_bits(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn sir_rhs_matches_scalar_bitwise() {
        for &n in &SIZES {
            let s = fill(9, n, 0.0, 1.0);
            let inf = fill(10, n, 0.0, 1.0);
            let lambda = fill(11, n, 0.0, 0.5);
            let (mut ds, mut di, mut dr) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            let (mut ds2, mut di2, mut dr2) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            sir_rhs(
                &s, &inf, &lambda, 0.3, 0.01, 0.2, 0.05, 0.01, &mut ds, &mut di, &mut dr,
            );
            sir_rhs_scalar(
                &s, &inf, &lambda, 0.3, 0.01, 0.2, 0.05, 0.01, &mut ds2, &mut di2, &mut dr2,
            );
            for i in 0..n {
                assert_eq!(ds[i].to_bits(), ds2[i].to_bits());
                assert_eq!(di[i].to_bits(), di2[i].to_bits());
                assert_eq!(dr[i].to_bits(), dr2[i].to_bits());
            }
        }
    }

    #[test]
    fn costate_rhs_matches_scalar_bitwise() {
        for &n in &SIZES {
            let s = fill(12, n, 0.0, 1.0);
            let inf = fill(13, n, 0.0, 1.0);
            let psi = fill(14, n, -1.0, 1.0);
            let phi = fill(15, n, -1.0, 1.0);
            let lambda = fill(16, n, 0.0, 0.5);
            let tw = fill(17, n, 0.0, 0.1);
            let (mut dp, mut df) = (vec![0.0; n], vec![0.0; n]);
            let (mut dp2, mut df2) = (vec![0.0; n], vec![0.0; n]);
            costate_rhs(
                &s, &inf, &psi, &phi, &lambda, &tw, 0.2, 0.7, 0.4, 0.8, 0.1, 0.2, &mut dp, &mut df,
            );
            costate_rhs_scalar(
                &s, &inf, &psi, &phi, &lambda, &tw, 0.2, 0.7, 0.4, 0.8, 0.1, 0.2, &mut dp2,
                &mut df2,
            );
            for i in 0..n {
                assert_eq!(dp[i].to_bits(), dp2[i].to_bits());
                assert_eq!(df[i].to_bits(), df2[i].to_bits());
            }
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot_scalar(&[], &[]), 0.0);
        assert_eq!(coupling_sum(&[], &[], &[], &[]), 0.0);
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
        assert_eq!(dot_partitioned(&[], &[]), 0.0);
        assert_eq!(combine_partials(&[]), 0.0);
    }

    #[test]
    fn partitioned_reductions_match_their_scalar_mirrors_bitwise() {
        for &n in &SIZES {
            let a = fill(21, n, -2.0, 2.0);
            let b = fill(22, n, -1.0, 3.0);
            let w = fill(23, n, 0.0, 2.0);
            let s = fill(24, n, 0.0, 1.0);
            assert_eq!(
                dot_partitioned(&a, &b).to_bits(),
                dot_partitioned_scalar(&a, &b).to_bits(),
                "dot n = {n}"
            );
            assert_eq!(
                coupling_sum_partitioned(&a, &b, &w, &s).to_bits(),
                coupling_sum_partitioned_scalar(&a, &b, &w, &s).to_bits(),
                "coupling n = {n}"
            );
            // Single-partition inputs collapse to the plain chunked form.
            if n <= PART_CHUNK {
                assert_eq!(
                    dot_partitioned(&a, &b).to_bits(),
                    dot(&a, &b).to_bits(),
                    "single-chunk dot n = {n}"
                );
                assert_eq!(
                    coupling_sum_partitioned(&a, &b, &w, &s).to_bits(),
                    coupling_sum(&a, &b, &w, &s).to_bits(),
                    "single-chunk coupling n = {n}"
                );
            }
        }
    }

    #[test]
    fn pooled_kernels_are_bit_identical_to_serial_at_every_pool_size() {
        for &n in &[9usize, 256, 264, 848, 1031] {
            let a = fill(31, n, -2.0, 2.0);
            let b = fill(32, n, -1.0, 3.0);
            let w = fill(33, n, 0.0, 2.0);
            let dot_serial = dot_partitioned(&a, &b);
            let (mut ds, mut di, mut dr) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            sir_rhs(
                &a, &b, &w, 0.3, 0.01, 0.2, 0.05, 0.01, &mut ds, &mut di, &mut dr,
            );
            for threads in [1usize, 2, 4, 8] {
                let pool = rumor_par::InnerPool::new(threads);
                assert_eq!(
                    dot_pooled(&pool, &a, &b).to_bits(),
                    dot_serial.to_bits(),
                    "dot n = {n}, threads = {threads}"
                );
                let (mut ds2, mut di2, mut dr2) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
                sir_rhs_pooled(
                    &pool, &a, &b, &w, 0.3, 0.01, 0.2, 0.05, 0.01, &mut ds2, &mut di2, &mut dr2,
                );
                for i in 0..n {
                    assert_eq!(ds[i].to_bits(), ds2[i].to_bits(), "dS n = {n}, i = {i}");
                    assert_eq!(di[i].to_bits(), di2[i].to_bits(), "dI n = {n}, i = {i}");
                    assert_eq!(dr[i].to_bits(), dr2[i].to_bits(), "dR n = {n}, i = {i}");
                }
            }
        }
    }
}
