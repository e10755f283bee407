//! Homomorphic arithmetic back-end for the shared layer kernels.

use pp_paillier::{Ciphertext, MontInputs, PublicKey};
use pp_tensor::{DotRow, LinearAlgebra};

/// [`LinearAlgebra`] over Paillier ciphertexts: the model provider's view
/// of a linear layer. `weight × element` is `E(m)^w mod n²` and
/// `a + b` is `E(m₁)·E(m₂) mod n²` (paper Eqs. 1–3); bias constants enter
/// via deterministic encryption (they are the model provider's own data).
#[derive(Clone, Copy)]
pub struct EncCtx<'a> {
    /// The data provider's public key.
    pub pk: &'a PublicKey,
}

impl LinearAlgebra for EncCtx<'_> {
    type Elem = Ciphertext;
    type Weight = i64;

    fn mul(&self, w: i64, x: &Ciphertext) -> Ciphertext {
        self.pk.mul_scalar_i64(x, w)
    }

    fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.pk.add(a, b)
    }

    fn constant(&self, w: i64) -> Ciphertext {
        self.pk.encrypt_constant_i64(w)
    }

    /// Fused dot product via Straus multi-exponentiation — one shared
    /// squaring ladder across every term and a single `modinv` for the
    /// negative-weight product, bit-identical to the mul/add fold.
    fn dot(&self, elems: &[Ciphertext], terms: &[(usize, i64)], bias: i64) -> Ciphertext {
        MontInputs::new(self.pk, elems).dot_i64(terms, bias)
    }

    /// A layer's worth of fused dot products sharing one set of
    /// Montgomery conversions — each input ciphertext enters the residue
    /// domain once, no matter how many output neurons read it — and one
    /// `modinv` between all the rows with a negative weight.
    fn dot_rows(&self, elems: &[Ciphertext], rows: &[DotRow<i64>]) -> Vec<Ciphertext> {
        MontInputs::new(self.pk, elems).dot_rows(rows.iter().map(|r| (r.terms.as_slice(), r.bias)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_paillier::Keypair;
    use pp_tensor::ops::{conv2d, fully_connected, Conv2dSpec};
    use pp_tensor::{PlainI128, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn encrypted_fc_matches_plain_scaled() {
        let mut rng = StdRng::seed_from_u64(1);
        let kp = Keypair::generate(128, &mut rng);
        let pk = kp.public();
        let ctx = EncCtx { pk: &pk };

        let input_plain: Vec<i64> = vec![10, -20, 30];
        let weights = Tensor::from_vec(vec![2, 3], vec![2i64, -1, 0, 3, 3, 3]).unwrap();
        let bias = [5i64, -7];

        let enc_input = Tensor::from_vec(
            vec![3],
            input_plain.iter().map(|&m| pk.encrypt_i64(m, &mut rng)).collect(),
        )
        .unwrap();
        let enc_out = fully_connected(&ctx, &enc_input, &weights, &bias).unwrap();

        let plain_in = Tensor::from_vec(vec![3], input_plain.iter().map(|&v| v as i128).collect()).unwrap();
        let plain_out = fully_connected(&PlainI128, &plain_in, &weights, &bias).unwrap();

        for (c, &want) in enc_out.data().iter().zip(plain_out.data()) {
            assert_eq!(kp.private().decrypt_i128(c), want);
        }
    }

    #[test]
    fn encrypted_conv_matches_plain_scaled() {
        let mut rng = StdRng::seed_from_u64(2);
        let kp = Keypair::generate(128, &mut rng);
        let pk = kp.public();
        let ctx = EncCtx { pk: &pk };

        let spec = Conv2dSpec { in_channels: 1, out_channels: 1, kernel: 2, stride: 1, padding: 0 };
        let vals: Vec<i64> = vec![1, -2, 3, 4, 5, -6, 7, 8, 9];
        let enc_input = Tensor::from_vec(
            vec![1, 3, 3],
            vals.iter().map(|&m| pk.encrypt_i64(m, &mut rng)).collect(),
        )
        .unwrap();
        let weights = Tensor::from_vec(vec![1, 1, 2, 2], vec![1i64, 2, -1, 0]).unwrap();
        let enc_out = conv2d(&ctx, &enc_input, &weights, &[100], &spec).unwrap();

        let plain_in =
            Tensor::from_vec(vec![1, 3, 3], vals.iter().map(|&v| v as i128).collect()).unwrap();
        let plain_out = conv2d(&PlainI128, &plain_in, &weights, &[100], &spec).unwrap();
        for (c, &want) in enc_out.data().iter().zip(plain_out.data()) {
            assert_eq!(kp.private().decrypt_i128(c), want);
        }
    }

    #[test]
    fn fused_dot_bit_identical_to_mul_add_fold() {
        // The override must produce the exact residues of the default
        // mul/add fold, not just values that decrypt equally — the
        // deployment bit-for-bit soaks depend on it.
        let mut rng = StdRng::seed_from_u64(3);
        let kp = Keypair::generate(128, &mut rng);
        let pk = kp.public();
        let ctx = EncCtx { pk: &pk };

        let ms = [4i64, 0, -9, 17, -1];
        let cts: Vec<Ciphertext> = ms.iter().map(|&m| pk.encrypt_i64(m, &mut rng)).collect();
        let terms: Vec<(usize, i64)> = vec![(0, 3), (1, -5), (2, 0), (3, -2), (4, 7)];
        let bias = -11i64;

        let fused = ctx.dot(&cts, &terms, bias);
        let mut naive = ctx.constant(bias);
        for &(i, w) in &terms {
            naive = ctx.add(&naive, &ctx.mul(w, &cts[i]));
        }
        assert_eq!(fused.raw(), naive.raw());

        let rows = vec![
            pp_tensor::DotRow { bias, terms: terms.clone() },
            pp_tensor::DotRow { bias: 0, terms: vec![(2, -4)] },
        ];
        let batched = ctx.dot_rows(&cts, &rows);
        assert_eq!(batched[0].raw(), naive.raw());
        assert_eq!(batched[1].raw(), ctx.mul(-4, &cts[2]).raw());
    }
}
