//! A compact, versioned byte encoding of a [`MultiPiecewiseControl`]
//! schedule.
//!
//! This is the watchdog's in-memory best-so-far checkpoint made
//! external: the durable-jobs layer persists the previous grid point's
//! optimized schedule between points (and across process restarts), and
//! feeds it back through [`MultiFbsmOptions::initial_control`] so a
//! resumed sweep warm-starts instead of re-deriving the schedule from the
//! mid-box guess.
//!
//! Format (all little-endian): `magic "RCP2"` · `n_channels: u32` ·
//! `n: u32` · `grid: n×f64` · `n_channels` value series of `n×f64` each.
//! Every model kind writes this form. Decoding revalidates through
//! [`MultiPiecewiseControl::from_values`], so corrupt bytes surface as a
//! structured error, never as NaN inside a sweep — and never as a panic:
//! the declared sizes are checked with overflow-safe arithmetic before
//! any slice is taken.
//!
//! [`decode_multi_schedule`] also reads the older two-channel form,
//! `magic "RCP1"` · `n: u32` · `grid: n×f64` · `eps1: n×f64` ·
//! `eps2: n×f64`, which paper-model journals written before RCP2 still
//! hold; nothing writes it any more.
//!
//! [`MultiFbsmOptions::initial_control`]: crate::multi::MultiFbsmOptions::initial_control

use crate::multi::MultiPiecewiseControl;
use crate::{ControlError, Result};

/// Format tag of the legacy two-channel form (decode only).
const MAGIC_PAIR: &[u8; 4] = b"RCP1";

/// Format tag of the multi-channel form.
const MAGIC_MULTI: &[u8; 4] = b"RCP2";

/// Encodes a multi-channel schedule into the RCP2 byte form.
pub fn encode_multi_schedule(control: &MultiPiecewiseControl) -> Vec<u8> {
    let grid = control.grid();
    let n_channels = control.n_channels();
    let mut out = Vec::with_capacity(12 + 8 * grid.len() * (1 + n_channels));
    out.extend_from_slice(MAGIC_MULTI);
    out.extend_from_slice(&(n_channels as u32).to_le_bytes());
    out.extend_from_slice(&(grid.len() as u32).to_le_bytes());
    for &x in grid {
        out.extend_from_slice(&x.to_le_bytes());
    }
    for c in 0..n_channels {
        for &x in control.values(c) {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    out
}

/// Decodes checkpoint bytes: RCP2, or legacy RCP1 as a two-channel
/// schedule (`ε1 → 0`, `ε2 → 1`).
///
/// # Errors
///
/// Returns [`ControlError::InvalidConfig`] for an unrecognized magic, a
/// truncated buffer, trailing bytes, fewer than two grid nodes, a zero
/// channel count, declared sizes that overflow, or node values the
/// schedule validation rejects.
pub fn decode_multi_schedule(bytes: &[u8]) -> Result<MultiPiecewiseControl> {
    let bad = |reason: &str| ControlError::InvalidConfig(format!("control checkpoint: {reason}"));
    let u32_at = |start: usize| {
        u32::from_le_bytes(bytes[start..start + 4].try_into().expect("4 bytes")) as usize
    };
    let (header, n_channels, n) = match bytes.get(..4) {
        Some(magic) if magic == MAGIC_PAIR => {
            if bytes.len() < 8 {
                return Err(bad("truncated header"));
            }
            (8, 2, u32_at(4))
        }
        Some(magic) if magic == MAGIC_MULTI => {
            if bytes.len() < 12 {
                return Err(bad("truncated header"));
            }
            (12, u32_at(4), u32_at(8))
        }
        Some(_) => return Err(bad("unrecognized format tag")),
        None => return Err(bad("truncated header")),
    };
    // Every schedule has at least two nodes. Checked before the length,
    // because at `n = 0` the expected length is the bare header whatever
    // the channel count, and the decoder would then collect that many
    // empty series; from two nodes on, each channel costs 16 bytes of
    // input, so the length check bounds the count.
    if n < 2 {
        return Err(bad(&format!("{n} grid nodes, need at least two")));
    }
    if n_channels == 0 {
        return Err(bad("zero control channels"));
    }
    let expected = n_channels
        .checked_add(1)
        .and_then(|series| series.checked_mul(n))
        .and_then(|values| values.checked_mul(8))
        .and_then(|len| len.checked_add(header))
        .ok_or_else(|| {
            bad(&format!(
                "{n_channels} channels of {n} nodes overflow the addressable size"
            ))
        })?;
    if bytes.len() != expected {
        return Err(bad(&format!(
            "expected {expected} bytes for {n_channels} channels of {n} nodes, got {}",
            bytes.len()
        )));
    }
    let f64_at = |i: usize| {
        let start = header + 8 * i;
        f64::from_le_bytes(bytes[start..start + 8].try_into().expect("8 bytes"))
    };
    let grid: Vec<f64> = (0..n).map(f64_at).collect();
    let channels: Vec<Vec<f64>> = (0..n_channels)
        .map(|c| ((c + 1) * n..(c + 2) * n).map(f64_at).collect())
        .collect();
    MultiPiecewiseControl::from_values(grid, channels)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An RCP1 checkpoint as paper-model journals stored it: grid
    /// `[0, 1.5, 4]`, `ε1 = [0.4, 0.25, 0]`, `ε2 = [0, 0.125, 0.5]`.
    fn rcp1_fixture() -> Vec<u8> {
        let mut bytes = b"RCP1".to_vec();
        bytes.extend_from_slice(&3u32.to_le_bytes());
        for x in [0.0f64, 1.5, 4.0, 0.4, 0.25, 0.0, 0.0, 0.125, 0.5] {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn decodes_a_legacy_pair_checkpoint() {
        let bytes = rcp1_fixture();
        assert_eq!(bytes.len(), 8 + 24 * 3);
        let mc = decode_multi_schedule(&bytes).unwrap();
        let expected = MultiPiecewiseControl::from_values(
            vec![0.0, 1.5, 4.0],
            vec![vec![0.4, 0.25, 0.0], vec![0.0, 0.125, 0.5]],
        )
        .unwrap();
        assert_eq!(mc, expected);
        // Re-encoding upgrades the checkpoint to RCP2.
        assert_eq!(&encode_multi_schedule(&mc)[..4], b"RCP2");
    }

    #[test]
    fn rejects_corrupt_legacy_pair_bytes() {
        let bytes = rcp1_fixture();
        assert!(decode_multi_schedule(&bytes[..6]).is_err());
        assert!(decode_multi_schedule(&bytes[..bytes.len() - 1]).is_err());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(decode_multi_schedule(&wrong_magic).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_multi_schedule(&trailing).is_err());
        // A NaN node value fails schedule validation on decode.
        let mut nan_value = bytes;
        nan_value[8 + 8 * 5..8 + 8 * 6].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(decode_multi_schedule(&nan_value).is_err());
    }

    #[test]
    fn multi_round_trips_a_schedule() {
        let mc = MultiPiecewiseControl::from_values(
            vec![0.0, 1.5, 4.0],
            vec![
                vec![0.4, 0.25, 0.0],
                vec![0.0, 0.125, 0.5],
                vec![0.2, 0.2, 0.2],
            ],
        )
        .unwrap();
        let bytes = encode_multi_schedule(&mc);
        let back = decode_multi_schedule(&bytes).unwrap();
        assert_eq!(back, mc);
        // Byte-identity of re-encoding: resume-across-SIGKILL contract.
        assert_eq!(encode_multi_schedule(&back), bytes);
    }

    #[test]
    fn multi_rejects_corrupt_bytes() {
        let mc = MultiPiecewiseControl::constant(2.0, 5, &[0.3, 0.1, 0.2]).unwrap();
        let bytes = encode_multi_schedule(&mc);
        assert!(decode_multi_schedule(&[]).is_err());
        assert!(decode_multi_schedule(&bytes[..10]).is_err());
        assert!(decode_multi_schedule(&bytes[..bytes.len() - 1]).is_err());
        let mut wrong_magic = bytes.clone();
        wrong_magic[3] = b'9';
        assert!(decode_multi_schedule(&wrong_magic).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_multi_schedule(&trailing).is_err());
        let mut zero_channels = bytes.clone();
        zero_channels[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_multi_schedule(&zero_channels).is_err());
        // A negative node value fails schedule validation on decode.
        let mut negative = bytes;
        negative[12 + 8 * 5..12 + 8 * 6].copy_from_slice(&(-1.0f64).to_le_bytes());
        assert!(decode_multi_schedule(&negative).is_err());
    }

    #[test]
    fn overflowing_declared_sizes_are_an_error_not_a_panic() {
        // n_channels = u32::MAX and n = 2^29: 8·n·(1 + n_channels) is
        // 2^64 exactly, which an unchecked product wraps to 0 — a 12-byte
        // buffer would then pass the length check and panic on the first
        // slice.
        let mut header = b"RCP2".to_vec();
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        header.extend_from_slice(&(1u32 << 29).to_le_bytes());
        assert!(matches!(
            decode_multi_schedule(&header),
            Err(ControlError::InvalidConfig(_))
        ));
        // The largest legacy pair header is merely a length mismatch.
        let mut pair = b"RCP1".to_vec();
        pair.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_multi_schedule(&pair).is_err());
    }

    #[test]
    fn fewer_than_two_nodes_are_rejected_before_any_series() {
        // Zero nodes: the expected length is the bare 12-byte header for
        // any channel count, so without the node check this header alone
        // would make the decoder collect 2^32 − 1 empty series.
        let mut empty = b"RCP2".to_vec();
        empty.extend_from_slice(&u32::MAX.to_le_bytes());
        empty.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_multi_schedule(&empty),
            Err(ControlError::InvalidConfig(_))
        ));
        // One node, seven channels, every byte present.
        let mut single = b"RCP2".to_vec();
        single.extend_from_slice(&7u32.to_le_bytes());
        single.extend_from_slice(&1u32.to_le_bytes());
        for _ in 0..8 {
            single.extend_from_slice(&0.5f64.to_le_bytes());
        }
        assert!(decode_multi_schedule(&single).is_err());
        // The legacy pair form with zero and one node.
        for n in [0u32, 1] {
            let mut pair = b"RCP1".to_vec();
            pair.extend_from_slice(&n.to_le_bytes());
            for _ in 0..3 * n {
                pair.extend_from_slice(&0.5f64.to_le_bytes());
            }
            assert!(decode_multi_schedule(&pair).is_err(), "n = {n}");
        }
    }
}
