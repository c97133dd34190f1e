//! Seeded input generation and exact output checking.
//!
//! Matrix values are multiples of 1/8 in [-2, 2] and vector entries
//! multiples of 1/16 in [-1/2, 1/2], so every product and every partial
//! sum the kernels form is exactly representable in f64: any summation
//! order gives the same bits. Outputs are therefore checked for exact
//! equality with the reference, through a hash of their bits (with
//! `-0.0` folded into `+0.0`), which keeps the references small.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smat_matrix::Csr;

/// A generator keyed by the workload seed and a stream label.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn matrix_value(r: &mut SmallRng) -> f64 {
    let k = r.gen_range(1..=16) as f64 / 8.0;
    if r.gen_bool(0.5) {
        -k
    } else {
        k
    }
}

pub fn vector_value(r: &mut SmallRng) -> f64 {
    r.gen_range(-8i64..=8) as f64 / 16.0
}

/// Overwrites `m`'s values with a seeded dyadic set.
pub fn fill_values(m: &mut Csr<f64>, seed: u64, stream: u64) {
    let mut r = rng(seed, stream);
    for v in m.values_mut() {
        *v = matrix_value(&mut r);
    }
}

pub fn vector(len: usize, seed: u64, stream: u64) -> Vec<f64> {
    let mut r = rng(seed, stream);
    (0..len).map(|_| vector_value(&mut r)).collect()
}

/// FNV-1a over the bits of `v`, `-0.0` folded into `+0.0`.
pub fn hash(v: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in v {
        h ^= (x + 0.0).to_bits();
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Reference `Y = A X` for a row-major `cols x k` block, as `k`
/// separate `Csr::spmv` calls gathered per column.
pub fn reference_spmm(m: &Csr<f64>, x: &[f64], k: usize) -> Vec<f64> {
    let mut y = vec![0.0; m.rows() * k];
    let mut xc = vec![0.0; m.cols()];
    let mut yc = vec![0.0; m.rows()];
    for j in 0..k {
        for (c, v) in xc.iter_mut().enumerate() {
            *v = x[c * k + j];
        }
        m.spmv(&xc, &mut yc).expect("reference shapes match");
        for (r, v) in yc.iter().enumerate() {
            y[r * k + j] = *v;
        }
    }
    y
}

pub fn reference_spmv(m: &Csr<f64>, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; m.rows()];
    m.spmv(x, &mut y).expect("reference shapes match");
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_matrix::gen::random_uniform;

    #[test]
    fn same_seed_same_inputs_and_hash_folds_signed_zero() {
        let mut a = random_uniform::<f64>(50, 50, 4, 1);
        let mut b = a.clone();
        fill_values(&mut a, 7, 1);
        fill_values(&mut b, 7, 1);
        assert_eq!(a, b);
        fill_values(&mut b, 8, 1);
        assert_ne!(a, b);
        assert_eq!(hash(&[0.0, 1.5]), hash(&[-0.0, 1.5]));
        assert_ne!(hash(&[0.5]), hash(&[0.25]));
    }

    #[test]
    fn reference_spmm_matches_columns() {
        let mut m = random_uniform::<f64>(40, 30, 3, 2);
        fill_values(&mut m, 1, 2);
        let x = vector(30 * 3, 1, 3);
        let y = reference_spmm(&m, &x, 3);
        let x1: Vec<f64> = (0..30).map(|c| x[c * 3 + 1]).collect();
        let y1 = reference_spmv(&m, &x1);
        for r in 0..40 {
            assert_eq!(y[r * 3 + 1], y1[r]);
        }
    }
}
