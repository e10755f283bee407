//! Fused encrypted dot products.
//!
//! The model provider's linear layers evaluate `Π E(mᵢ)^{wᵢ} · g^b mod n²`
//! (paper Eq. 3). The naive path pays, per weight, a full `pow_mod` with
//! Montgomery in/out conversions — and a `modinv` for every *negative*
//! weight. [`MontInputs`] fuses the whole dot product:
//!
//! * each input ciphertext is converted to Montgomery form **once per
//!   layer** (lazily, since conv taps touch a sparse subset) and reused by
//!   every output neuron that reads it;
//! * the positive-weight and negative-weight terms are each evaluated by a
//!   single Straus interleaved multi-exponentiation
//!   ([`pp_bigint::MontgomeryCtx::pow_mod_multi_mont`]), sharing one
//!   squaring ladder across all bases;
//! * negative weights are folded into one product `B = Π cᵢ^{|wᵢ⁻|}` and
//!   inverted **once** (`A·B⁻¹`), instead of once per negative weight —
//!   valid because `(Π cᵢ^{|wᵢ|})⁻¹ = Π (cᵢ⁻¹)^{|wᵢ|}` in `Z*_{n²}`;
//! * a layer's rows ([`MontInputs::dot_rows`]) share one `modinv`
//!   between all their `B`s (Montgomery's batch-inversion trick).
//!
//! Every step multiplies exactly the same residues mod `n²` as the scalar
//! mul/add loop, just reassociated — multiplication in `Z*_{n²}` is
//! commutative — so the fused result is **bit-identical** to the naive
//! path, and the existing end-to-end bit-for-bit assertions double as
//! correctness gates for this kernel.

use crate::ciphertext::Ciphertext;
use crate::encoding::encode_i64;
use crate::keys::PublicKey;
use pp_bigint::{Limb, MontgomeryCtx};
use std::cell::OnceCell;

#[cfg(test)]
thread_local! {
    /// `modinv` calls made by this thread's dot products.
    pub(crate) static MODINVS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The two Straus multi-exponentiations of one dot product, in
/// Montgomery form: `A = Π cᵢ^{wᵢ⁺}` (`1·R` when no weight is positive)
/// and `B = Π cᵢ^{|wᵢ⁻|}` (`None` when no weight is negative). `mont(i)`
/// is input `i`'s Montgomery residue.
pub(crate) fn signed_products<'m>(
    ctx: &MontgomeryCtx,
    terms: &[(usize, i64)],
    mont: impl Fn(usize) -> &'m [Limb],
) -> (Vec<Limb>, Option<Vec<Limb>>) {
    let mut pos_bases: Vec<&[Limb]> = Vec::new();
    let mut pos_exps: Vec<u64> = Vec::new();
    let mut neg_bases: Vec<&[Limb]> = Vec::new();
    let mut neg_exps: Vec<u64> = Vec::new();
    for &(i, w) in terms {
        if w > 0 {
            pos_bases.push(mont(i));
            pos_exps.push(w as u64);
        } else if w < 0 {
            neg_bases.push(mont(i));
            neg_exps.push(w.unsigned_abs());
        }
    }
    let a = ctx.pow_mod_multi_mont(&pos_bases, &pos_exps);
    let b = (!neg_bases.is_empty()).then(|| ctx.pow_mod_multi_mont(&neg_bases, &neg_exps));
    (a, b)
}

/// Replaces every residue in `bs` (Montgomery form, units mod `n²`) by
/// its inverse with **one** `modinv`, by Montgomery's trick: invert the
/// product of all of them, then peel one factor off at a time —
/// `Bᵢ⁻¹ = (B₁⋯Bᵢ₋₁)·(B₁⋯Bᵢ)⁻¹` — for `3(k−1)` Montgomery multiplies.
/// Inverses mod `n²` are unique, so each result is the residue a
/// `modinv` of its own would give; an empty `bs` inverts nothing.
pub(crate) fn invert_all_mont(pk: &PublicKey, bs: &mut [&mut Vec<Limb>]) {
    let Some((first, rest)) = bs.split_first_mut() else {
        return;
    };
    let ctx = pk.ctx();
    let mut scratch = ctx.scratch();
    // prefix[i] = B₁⋯Bᵢ₊₁, ending with the product of everything.
    let mut prefix: Vec<Vec<Limb>> = Vec::with_capacity(rest.len() + 1);
    prefix.push((**first).clone());
    for b in rest.iter() {
        let mut next = prefix.last().expect("non-empty").clone();
        ctx.mont_mul_inplace(&mut next, b, &mut scratch);
        prefix.push(next);
    }
    #[cfg(test)]
    MODINVS.with(|c| c.set(c.get() + 1));
    let all = ctx.from_mont(&prefix.pop().expect("non-empty"));
    // inv = (B₁⋯Bᵢ)⁻¹ as i walks down from k.
    let mut inv = ctx.to_mont(&all.modinv(pk.n_squared()).expect("ciphertexts are units mod n²"));
    for b in rest.iter_mut().rev() {
        let mut b_inv = prefix.pop().expect("one prefix per remaining factor");
        ctx.mont_mul_inplace(&mut b_inv, &inv, &mut scratch);
        ctx.mont_mul_inplace(&mut inv, b, &mut scratch);
        **b = b_inv;
    }
    **first = inv;
}

/// A layer's encrypted inputs with per-ciphertext Montgomery residues,
/// converted lazily and cached for the lifetime of the layer evaluation.
pub struct MontInputs<'a> {
    pk: &'a PublicKey,
    cts: &'a [Ciphertext],
    monts: Vec<OnceCell<Vec<Limb>>>,
}

impl<'a> MontInputs<'a> {
    /// Wraps a layer's input ciphertexts. No conversion happens yet:
    /// each input enters the Montgomery domain the first time a dot
    /// product reads it (conv layers only ever touch a sparse subset).
    pub fn new(pk: &'a PublicKey, cts: &'a [Ciphertext]) -> Self {
        let monts = (0..cts.len()).map(|_| OnceCell::new()).collect();
        MontInputs { pk, cts, monts }
    }

    /// Number of wrapped inputs.
    pub fn len(&self) -> usize {
        self.cts.len()
    }

    /// True when the layer has no inputs.
    pub fn is_empty(&self) -> bool {
        self.cts.is_empty()
    }

    fn mont(&self, i: usize) -> &[Limb] {
        self.monts[i].get_or_init(|| self.pk.ctx().to_mont(self.cts[i].raw()))
    }

    /// `A · B⁻¹ · g^bias` out of the Montgomery domain.
    fn finish(&self, mut acc: Vec<Limb>, b_inv: Option<&[Limb]>, bias: i64) -> Ciphertext {
        let ctx = self.pk.ctx();
        let mut scratch = ctx.scratch();
        if let Some(b_inv) = b_inv {
            ctx.mont_mul_inplace(&mut acc, b_inv, &mut scratch);
        }
        // g^bias = 1 + bias·n, reduction-free for encoded bias < n.
        if bias != 0 {
            let gb = self.pk.g_pow_encoded(&encode_i64(bias, self.pk.n()));
            ctx.mont_mul_inplace(&mut acc, &ctx.to_mont(&gb), &mut scratch);
        }
        Ciphertext::new(ctx.from_mont(&acc))
    }

    /// Fused `Σ wᵢ·mᵢ + bias` over the wrapped ciphertexts:
    /// `terms` pairs an input index with its signed weight.
    ///
    /// Bit-identical to the naive
    /// `fold(E(bias), |acc, (i, w)| acc · cᵢ^w)` loop.
    pub fn dot_i64(&self, terms: &[(usize, i64)], bias: i64) -> Ciphertext {
        let (acc, mut b) = signed_products(self.pk.ctx(), terms, |i| self.mont(i));
        // B inverted once: A · B⁻¹.
        if let Some(b) = b.as_mut() {
            invert_all_mont(self.pk, &mut [b]);
        }
        self.finish(acc, b.as_deref(), bias)
    }

    /// A layer's dot products, one `(terms, bias)` per output: each
    /// row's multi-exponentiations as in [`MontInputs::dot_i64`], but
    /// the rows' negative-weight products are inverted together with a
    /// single `modinv` (rows without a negative weight take no part).
    /// Every output is bit-identical to `dot_i64` on its row.
    pub fn dot_rows<'r>(
        &self,
        rows: impl IntoIterator<Item = (&'r [(usize, i64)], i64)>,
    ) -> Vec<Ciphertext> {
        let ctx = self.pk.ctx();
        let mut rows: Vec<_> = rows
            .into_iter()
            .map(|(terms, bias)| (signed_products(ctx, terms, |i| self.mont(i)), bias))
            .collect();
        let mut negatives: Vec<&mut Vec<Limb>> =
            rows.iter_mut().filter_map(|((_, b), _)| b.as_mut()).collect();
        invert_all_mont(self.pk, &mut negatives);
        rows.into_iter()
            .map(|((acc, b_inv), bias)| self.finish(acc, b_inv.as_deref(), bias))
            .collect()
    }
}

impl PublicKey {
    /// Fused encrypted dot product `Σ wᵢ·mᵢ` over parallel slices —
    /// the one-shot convenience form of [`MontInputs::dot_i64`]. For a
    /// whole layer (many dot products over the same inputs), build one
    /// [`MontInputs`] instead so the Montgomery conversions are shared.
    pub fn dot_i64(&self, cts: &[Ciphertext], weights: &[i64]) -> Ciphertext {
        assert_eq!(cts.len(), weights.len(), "cts/weights length mismatch");
        let inputs = MontInputs::new(self, cts);
        let terms: Vec<(usize, i64)> = weights.iter().copied().enumerate().collect();
        inputs.dot_i64(&terms, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Keypair;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn naive_dot(pk: &PublicKey, cts: &[Ciphertext], terms: &[(usize, i64)], bias: i64) -> Ciphertext {
        let mut acc = pk.encrypt_constant_i64(bias);
        for &(i, w) in terms {
            acc = pk.add(&acc, &pk.mul_scalar_i64(&cts[i], w));
        }
        acc
    }

    #[test]
    fn fused_dot_matches_naive_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(30);
        let kp = Keypair::generate(128, &mut rng);
        let (pk, sk) = (kp.public(), kp.private());
        let ms: Vec<i64> = (0..12).map(|_| rng.gen_range(-500i64..500)).collect();
        let cts: Vec<_> = ms.iter().map(|&m| pk.encrypt_i64(m, &mut rng)).collect();
        let ws: Vec<i64> = (0..12).map(|_| rng.gen_range(-1000i64..1000)).collect();
        let inputs = MontInputs::new(&pk, &cts);
        let terms: Vec<(usize, i64)> = ws.iter().copied().enumerate().collect();
        for bias in [0i64, 17, -3] {
            let fused = inputs.dot_i64(&terms, bias);
            let naive = naive_dot(&pk, &cts, &terms, bias);
            assert_eq!(fused.raw(), naive.raw(), "bias={bias}");
            let want: i64 = ms.iter().zip(&ws).map(|(m, w)| m * w).sum::<i64>() + bias;
            assert_eq!(sk.decrypt_i64(&fused), want);
        }
    }

    #[test]
    fn fused_dot_edge_cases() {
        let mut rng = StdRng::seed_from_u64(31);
        let kp = Keypair::generate(128, &mut rng);
        let pk = kp.public();
        let cts: Vec<_> = [3i64, -5, 11].iter().map(|&m| pk.encrypt_i64(m, &mut rng)).collect();
        let inputs = MontInputs::new(&pk, &cts);

        // Empty term list is E(bias) with unit randomness.
        let empty = inputs.dot_i64(&[], 4);
        assert_eq!(empty.raw(), pk.encrypt_constant_i64(4).raw());

        // All-zero weights equal the empty dot.
        let zeros = inputs.dot_i64(&[(0, 0), (1, 0), (2, 0)], 4);
        assert_eq!(zeros.raw(), empty.raw());

        // All-negative and single-element cases match the naive loop.
        for terms in [vec![(0usize, -2i64), (1, -7), (2, -1)], vec![(1, 9)], vec![(2, -4)]] {
            let fused = inputs.dot_i64(&terms, 0);
            let naive = naive_dot(&pk, &cts, &terms, 0);
            assert_eq!(fused.raw(), naive.raw(), "terms={terms:?}");
        }
    }

    /// `dot_rows` against one `dot_i64` per row, on raw residues; returns
    /// how many `modinv`s the batched call made.
    fn check_rows(inputs: &MontInputs<'_>, rows: &[(Vec<(usize, i64)>, i64)]) -> u64 {
        let before = MODINVS.with(|c| c.get());
        let batched = inputs.dot_rows(rows.iter().map(|(t, b)| (t.as_slice(), *b)));
        let inversions = MODINVS.with(|c| c.get()) - before;
        assert_eq!(batched.len(), rows.len());
        for (j, ((terms, bias), got)) in rows.iter().zip(&batched).enumerate() {
            assert_eq!(got.raw(), inputs.dot_i64(terms, *bias).raw(), "row {j}: {terms:?}");
        }
        inversions
    }

    #[test]
    fn dot_rows_matches_per_row_dot_with_one_inversion() {
        let mut rng = StdRng::seed_from_u64(33);
        let kp = Keypair::generate(128, &mut rng);
        let pk = kp.public();
        let cts: Vec<_> =
            [3i64, -5, 11, 0, 250].iter().map(|&m| pk.encrypt_i64(m, &mut rng)).collect();
        let inputs = MontInputs::new(&pk, &cts);

        // No negative weight anywhere: nothing to invert.
        let positive = vec![(vec![(0, 2), (1, 7)], 0), (vec![(4, 1)], -9), (vec![], 4)];
        assert_eq!(check_rows(&inputs, &positive), 0);
        assert_eq!(check_rows(&inputs, &[]), 0);

        // Every row negative, biases included: one inversion for all.
        let negative = vec![
            (vec![(0, -2), (1, 3)], 5),
            (vec![(2, -1)], 0),
            (vec![(3, -4), (4, -6), (0, 1)], -17),
            (vec![(1, -1), (2, -1)], 1),
        ];
        assert_eq!(check_rows(&inputs, &negative), 1);

        // A single row is the per-row path: its own inversion.
        assert_eq!(check_rows(&inputs, &negative[..1]), 1);

        // Rows without a negative weight — empty and all-zero ones among
        // them — sit between the inverted rows and take no part.
        let mixed = vec![
            (vec![], 0),
            (vec![(0, -3), (2, 8)], 2),
            (vec![(0, 0), (1, 0)], -1),
            (vec![(4, 5)], 0),
            (vec![(1, -9)], 0),
            (vec![], 6),
            (vec![(2, -2), (3, -2), (4, 2)], 3),
        ];
        assert_eq!(check_rows(&inputs, &mixed), 1);
        let sk = kp.private();
        let got = inputs.dot_rows(mixed.iter().map(|(t, b)| (t.as_slice(), *b)));
        assert_eq!(sk.decrypt_i64(&got[1]), -9 + 88 + 2);
        assert_eq!(sk.decrypt_i64(&got[6]), -22 + 500 + 3);
    }

    #[test]
    fn one_shot_dot_matches_mont_inputs() {
        let mut rng = StdRng::seed_from_u64(32);
        let kp = Keypair::generate(128, &mut rng);
        let (pk, sk) = (kp.public(), kp.private());
        let ms = [10i64, -20, 30];
        let ws = [1i64, -2, 3];
        let cts: Vec<_> = ms.iter().map(|&m| pk.encrypt_i64(m, &mut rng)).collect();
        let got = pk.dot_i64(&cts, &ws);
        assert_eq!(sk.decrypt_i64(&got), 10 + 40 + 90);
    }
}
