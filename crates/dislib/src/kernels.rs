//! The K-means assignment kernel: one generic body, compiled once per
//! vector width and picked per block from what the CPU reports.
//!
//! Instantiations of [`nearest_in_panel`]: `nearest_plain` (the target's
//! baseline — SSE2 on `x86_64`, whatever a non-x86 target has) and, on
//! `x86_64` only, `nearest_avx2`. Never `fma`: a fused multiply-add
//! rounds once where the reference rounds twice. This module holds the
//! crate's one `unsafe` block, in [`nearest`].

use crate::matrix::Matrix;

/// Centroids one assignment block wide: the kernel keeps this many
/// running sums in registers per sample.
const PANEL_BLOCK: usize = 8;

/// Calls `each(row, index, squared distance)` with the nearest centroid
/// of every row of `block`, in row order, ties to the lowest index.
/// `panel` is the centroid matrix transposed, i.e. feature-major (`d`
/// rows of `k`): feature `j` of every centroid is contiguous, so one
/// sample feature meets a whole block of centroids in one pass.
///
/// Each distance is summed over features in index order, exactly as
/// [`Matrix::row_distance_sq`] sums it, one lane per centroid, so it has
/// the same bits at any vector width; only the `PANEL_BLOCK` sums of a
/// block advance together, which makes the add chains independent of
/// one another.
///
/// `#[inline(always)]` so that the body — and `each` with it — is
/// compiled with the features of the instantiation it lands in.
#[inline(always)]
fn nearest_in_panel(panel: &Matrix, block: &Matrix, mut each: impl FnMut(&[f64], usize, f64)) {
    assert_eq!(panel.rows(), block.cols(), "column mismatch");
    let k = panel.cols();
    let blocked = k - k % PANEL_BLOCK;
    for r in 0..block.rows() {
        let x = block.row(r);
        let features = || x.iter().zip(panel.as_slice().chunks_exact(k));
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for c0 in (0..blocked).step_by(PANEL_BLOCK) {
            let mut acc = [0.0; PANEL_BLOCK];
            for (&xj, feature) in features() {
                for (a, c) in acc.iter_mut().zip(&feature[c0..c0 + PANEL_BLOCK]) {
                    let t = xj - c;
                    *a += t * t;
                }
            }
            for (i, &dist) in acc.iter().enumerate() {
                if dist < best_d {
                    best_d = dist;
                    best = c0 + i;
                }
            }
        }
        for c in blocked..k {
            let mut dist = 0.0;
            for (&xj, feature) in features() {
                let t = xj - feature[c];
                dist += t * t;
            }
            if dist < best_d {
                best_d = dist;
                best = c;
            }
        }
        each(x, best, best_d);
    }
}

fn nearest_plain(panel: &Matrix, block: &Matrix, each: impl FnMut(&[f64], usize, f64)) {
    nearest_in_panel(panel, block, each);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn nearest_avx2(panel: &Matrix, block: &Matrix, each: impl FnMut(&[f64], usize, f64)) {
    nearest_in_panel(panel, block, each);
}

/// [`nearest_in_panel`] at the widest instantiation this CPU runs.
pub(crate) fn nearest(panel: &Matrix, block: &Matrix, each: impl FnMut(&[f64], usize, f64)) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `nearest_avx2` needs AVX2, detected on this CPU on the
        // line above.
        #[allow(unsafe_code)]
        return unsafe { nearest_avx2(panel, block, each) };
    }
    nearest_plain(panel, block, each);
}

/// Which instantiation of the K-means assignment kernel this CPU runs:
/// `"avx2"` or `"baseline"`. For reports; nothing branches on it.
pub fn kernel_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "baseline"
}

/// The pair-at-a-time assignment the panel kernel replaced, kept as
/// its reference: `row_distance_sq` over centroids in index order,
/// strict `<`.
#[cfg(test)]
pub(crate) fn closest_by_row_distance(centroids: &Matrix, b: &Matrix, r: usize) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for c in 0..centroids.rows() {
        let d = b.row_distance_sq(r, centroids, c);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Kernel = fn(&Matrix, &Matrix, &mut dyn FnMut(&[f64], usize, f64));

    /// Every instantiation this host can run. [`nearest`] is the AVX2
    /// one exactly when `kernel_isa()` says so; elsewhere it is the
    /// plain one again and is left out.
    fn instantiations() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> =
            vec![("baseline", |p, b, each| nearest_plain(p, b, each))];
        if kernel_isa() == "avx2" {
            all.push(("avx2", |p, b, each| nearest(p, b, each)));
        } else {
            static SKIPPED: std::sync::Once = std::sync::Once::new();
            SKIPPED.call_once(|| {
                println!("avx2 instantiation skipped: this CPU does not report avx2");
            });
        }
        all
    }

    proptest! {
        /// Each instantiation hands the callback every row once, in row
        /// order, with the reference's `(argmin, min)` bit for bit — for
        /// every `k mod PANEL_BLOCK`, with ties planted.
        #[test]
        fn every_instantiation_matches_row_distance_bit_for_bit(
            rows in 1usize..65,
            d in 1usize..34,
            k in 1usize..41,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Half the cases draw from a 4-value grid, so distinct
            // centroids tie too and many distances are exactly equal.
            let coarse = seed % 2 == 0;
            let mut draw = |n: usize| -> Vec<f64> {
                (0..n)
                    .map(|_| {
                        if coarse {
                            f64::from(rng.gen_range(0u32..4)) * 0.25
                        } else {
                            rng.gen::<f64>()
                        }
                    })
                    .collect()
            };
            let mut cents = draw(k * d);
            let samples = Matrix::from_vec(rows, d, draw(rows * d));
            // Planted duplicates: every third centroid repeats an
            // earlier one, across block boundaries as well.
            for c in (2..k).step_by(3) {
                let from = c / 2;
                cents.copy_within(from * d..(from + 1) * d, c * d);
            }
            let cents = Matrix::from_vec(k, d, cents);
            let panel = cents.transpose();
            for (isa, kernel) in instantiations() {
                let mut seen = 0;
                let mut failure = None;
                kernel(&panel, &samples, &mut |x, got, got_d| {
                    let (want, want_d) = closest_by_row_distance(&cents, &samples, seen);
                    if x != samples.row(seen) || got != want || got_d.to_bits() != want_d.to_bits() {
                        failure.get_or_insert((seen, got, got_d, want, want_d));
                    }
                    seen += 1;
                });
                prop_assert_eq!(failure, None, "{} (row, got, want)", isa);
                prop_assert_eq!(seen, rows, "{} visits every row once", isa);
            }
        }
    }
}
