//! Key generation, encryption, and decryption.
//!
//! Decryption uses the CRT split over `p²` and `q²` (the classic ~4×
//! speedup from Paillier's original paper); the `abl_crt` bench in
//! `pp-bench` quantifies the gain against the direct `λ, μ` method.

use crate::ciphertext::Ciphertext;
use crate::encoding::{decode_i64, encode_i64};
use crate::PaillierError;
use pp_bigint::{gen_prime, random_coprime, BigUint, MontgomeryCtx};
use pp_stream_runtime::pool::WorkerPool;
use rand::Rng;
use std::sync::Arc;

/// Paillier public key: the modulus `n`, with precomputed `n²` and a shared
/// Montgomery context for `n²` (built once per key, reused for every tensor
/// element).
#[derive(Clone, Debug)]
pub struct PublicKey {
    n: BigUint,
    n_squared: BigUint,
    half_n: BigUint,
    ctx_n2: Arc<MontgomeryCtx>,
}

/// Paillier private key with CRT precomputations.
#[derive(Clone, Debug)]
pub struct PrivateKey {
    public: PublicKey,
    p: BigUint,
    q: BigUint,
    p_squared: BigUint,
    q_squared: BigUint,
    /// `p^{-1} mod q` for CRT recombination.
    p_inv_q: BigUint,
    /// `hp = L_p(g^{p-1} mod p²)^{-1} mod p`.
    hp: BigUint,
    /// `hq = L_q(g^{q-1} mod q²)^{-1} mod q`.
    hq: BigUint,
    ctx_p2: Arc<MontgomeryCtx>,
    ctx_q2: Arc<MontgomeryCtx>,
}

/// A freshly generated public/private key pair.
#[derive(Clone, Debug)]
pub struct Keypair {
    public: PublicKey,
    private: PrivateKey,
}

impl Keypair {
    /// Generates a keypair with an `n` of `bits` bits (so `p` and `q` are
    /// `bits/2`-bit primes). The paper uses 2048-bit keys per NIST
    /// guidance [16]; tests use much smaller keys for speed.
    ///
    /// Panics if `bits < 16`.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(bits >= 16, "key size too small");
        let half = bits / 2;
        loop {
            let p = gen_prime(half, rng);
            let q = gen_prime(bits - half, rng);
            if p == q {
                continue;
            }
            // gcd(n, (p-1)(q-1)) == 1 holds automatically when p, q have the
            // same bit length; re-sample defensively when it does not.
            let n = &p * &q;
            let p_minus_1 = &p - &BigUint::one();
            let q_minus_1 = &q - &BigUint::one();
            if !n.gcd(&p_minus_1.mul_ref(&q_minus_1)).is_one() {
                continue;
            }
            if n.bit_len() != bits {
                continue;
            }
            let public = PublicKey::from_n(n);
            let private = PrivateKey::from_primes(public.clone(), p, q);
            return Keypair { public, private };
        }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public.clone()
    }

    /// The private half.
    pub fn private(&self) -> PrivateKey {
        self.private.clone()
    }

    /// Rebuilds a keypair from its private half.
    pub fn from_private(private: PrivateKey) -> Self {
        Keypair { public: private.public().clone(), private }
    }
}

/// `L(x) = (x - 1) / n` — Paillier's quotient function, defined on
/// `x ≡ 1 (mod n)`.
fn l_function(x: &BigUint, n: &BigUint) -> BigUint {
    let x_minus_1 = x - &BigUint::one();
    &x_minus_1 / n
}

impl PublicKey {
    /// Builds a public key from a modulus `n` (uses `g = n + 1`).
    pub fn from_n(n: BigUint) -> Self {
        let n_squared = n.square();
        let ctx_n2 = Arc::new(MontgomeryCtx::new(&n_squared).expect("n² odd"));
        let half_n = n.shr_bits(1);
        PublicKey { n, n_squared, half_n, ctx_n2 }
    }

    /// The modulus `n`.
    pub fn n(&self) -> &BigUint {
        &self.n
    }

    /// `n²`, the ciphertext modulus.
    pub fn n_squared(&self) -> &BigUint {
        &self.n_squared
    }

    /// `⌊n/2⌋`, the positive/negative split of the signed encoding.
    pub fn half_n(&self) -> &BigUint {
        &self.half_n
    }

    /// Key size in bits (bit length of `n`).
    pub fn bits(&self) -> usize {
        self.n.bit_len()
    }

    /// FNV-1a-64 fingerprint of the modulus — a stable per-key cache
    /// and routing handle (also what the wire handshake hashes).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &limb in self.n.limbs() {
            for byte in limb.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    pub(crate) fn ctx(&self) -> &MontgomeryCtx {
        &self.ctx_n2
    }

    /// `g^m = 1 + m·n mod n²` for an already-encoded residue `m < n`.
    ///
    /// No reduction is needed: `1 + m·n ≤ 1 + (n−1)·n = n² − n + 1 < n²`
    /// whenever `m < n`, which `encode_i64` guarantees.
    pub(crate) fn g_pow_encoded(&self, encoded: &BigUint) -> BigUint {
        debug_assert!(encoded < &self.n, "encoded message must be reduced mod n");
        &BigUint::one() + &encoded.mul_ref(&self.n)
    }

    /// Encrypts a non-negative message `m < n` with fresh randomness.
    ///
    /// With `g = n + 1`, `g^m = 1 + m·n (mod n²)`, so encryption costs one
    /// modular exponentiation (`r^n`) plus one multiplication.
    pub fn encrypt<R: Rng + ?Sized>(&self, m: &BigUint, rng: &mut R) -> Ciphertext {
        let r = random_coprime(rng, &self.n);
        self.encrypt_with_randomness(m, &r)
    }

    /// Encrypts with caller-provided randomness `r ∈ Z*_n` (used by
    /// [`crate::RandomnessPool`] and by deterministic tests).
    pub fn encrypt_with_randomness(&self, m: &BigUint, r: &BigUint) -> Ciphertext {
        let gm = self.g_pow_encoded(m);
        let rn = self.ctx_n2.pow_mod(r, &self.n);
        Ciphertext::new(self.ctx_n2.mul_mod(&gm, &rn))
    }

    /// Encrypts a signed message with a **precomputed** blinding factor
    /// `rn = r^n mod n²` (the expensive half of encryption), as produced
    /// by [`crate::RandomnessPool`]. This is the request-path entry
    /// point when the exponentiation already happened off-path.
    pub fn encrypt_i64_with_factor(&self, m: i64, rn: &BigUint) -> Ciphertext {
        let gm = self.g_pow_encoded(&encode_i64(m, &self.n));
        Ciphertext::new(self.ctx_n2.mul_mod(&gm, rn))
    }

    /// Encrypts a signed 64-bit message (PP-Stream's scaled values).
    pub fn encrypt_i64<R: Rng + ?Sized>(&self, m: i64, rng: &mut R) -> Ciphertext {
        let encoded = encode_i64(m, &self.n);
        self.encrypt(&encoded, rng)
    }

    /// Deterministic encryption with unit randomness: `c = 1 + m·n mod n²`.
    ///
    /// **Not semantically secure on its own** — used only for the model
    /// provider's *own* bias constants, which are immediately multiplied
    /// into data-derived ciphertexts (whose randomness re-randomizes the
    /// product) and never sent bare. Avoids one modular exponentiation per
    /// bias term.
    pub fn encrypt_constant_i64(&self, m: i64) -> Ciphertext {
        Ciphertext::new(self.g_pow_encoded(&encode_i64(m, &self.n)))
    }

    /// Homomorphic addition: `D(add(c₁, c₂)) = m₁ + m₂` (paper Eq. 1).
    pub fn add(&self, c1: &Ciphertext, c2: &Ciphertext) -> Ciphertext {
        Ciphertext::new(self.ctx_n2.mul_mod(c1.raw(), c2.raw()))
    }

    /// Homomorphic addition of a plaintext constant (no encryption of the
    /// constant needed): `D(add_plain(c, k)) = m + k`.
    pub fn add_plain_i64(&self, c: &Ciphertext, k: i64) -> Ciphertext {
        // c · g^k = c · (1 + k·n) mod n²
        let gk = self.g_pow_encoded(&encode_i64(k, &self.n));
        Ciphertext::new(self.ctx_n2.mul_mod(c.raw(), &gk))
    }

    /// Homomorphic scalar multiplication by a non-negative scalar:
    /// `D(mul_scalar(c, w)) = w·m` (paper Eq. 2).
    pub fn mul_scalar(&self, c: &Ciphertext, w: &BigUint) -> Ciphertext {
        Ciphertext::new(self.ctx_n2.pow_mod(c.raw(), w))
    }

    /// Homomorphic scalar multiplication by a signed scalar. Negative
    /// scalars invert the ciphertext in `Z*_{n²}` first
    /// (`D(c^{-1}) = -m`), then raise to `|w|`.
    pub fn mul_scalar_i64(&self, c: &Ciphertext, w: i64) -> Ciphertext {
        if w >= 0 {
            self.mul_scalar(c, &BigUint::from(w as u64))
        } else {
            let inv = c
                .raw()
                .modinv(&self.n_squared)
                .expect("ciphertexts are units mod n²");
            self.mul_scalar(&Ciphertext::new(inv), &BigUint::from(w.unsigned_abs()))
        }
    }

    /// The additive identity `E(0)` with fresh randomness — useful for
    /// re-randomizing a ciphertext.
    pub fn encrypt_zero<R: Rng + ?Sized>(&self, rng: &mut R) -> Ciphertext {
        self.encrypt(&BigUint::zero(), rng)
    }

    /// Re-randomizes `c` so it is unlinkable to its origin while decrypting
    /// to the same message.
    pub fn rerandomize<R: Rng + ?Sized>(&self, c: &Ciphertext, rng: &mut R) -> Ciphertext {
        self.add(c, &self.encrypt_zero(rng))
    }

    /// Checks that a ciphertext lies in `Z*_{n²}`.
    pub fn validate(&self, c: &Ciphertext) -> bool {
        !c.raw().is_zero() && c.raw() < &self.n_squared && c.raw().gcd(&self.n_squared).is_one()
    }
}

impl PrivateKey {
    /// Builds a private key from the prime factorization of `n`.
    pub fn from_primes(public: PublicKey, p: BigUint, q: BigUint) -> Self {
        let p_squared = p.square();
        let q_squared = q.square();
        let ctx_p2 = Arc::new(MontgomeryCtx::new(&p_squared).expect("p² odd"));
        let ctx_q2 = Arc::new(MontgomeryCtx::new(&q_squared).expect("q² odd"));
        let p_minus_1 = &p - &BigUint::one();
        let q_minus_1 = &q - &BigUint::one();

        // hp = L_p(g^{p-1} mod p²)^{-1} mod p, with g = n+1.
        let g = &public.n + &BigUint::one();
        let gp = ctx_p2.pow_mod(&g, &p_minus_1);
        let hp = l_function(&gp, &p)
            .modinv(&p)
            .expect("hp invertible for valid key");
        let gq = ctx_q2.pow_mod(&g, &q_minus_1);
        let hq = l_function(&gq, &q)
            .modinv(&q)
            .expect("hq invertible for valid key");

        let p_inv_q = p.modinv(&q).expect("p, q distinct primes");

        PrivateKey {
            public,
            p,
            q,
            p_squared,
            q_squared,
            p_inv_q,
            hp,
            hq,
            ctx_p2,
            ctx_q2,
        }
    }

    /// The associated public key.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// The prime factor `p` (secret).
    pub fn p(&self) -> &BigUint {
        &self.p
    }

    /// The prime factor `q` (secret).
    pub fn q(&self) -> &BigUint {
        &self.q
    }

    /// The `p²` half of a CRT decryption:
    /// `mp = L_p(c^{p−1} mod p²)·hp mod p`.
    fn crt_half_p(&self, c: &Ciphertext) -> BigUint {
        let p_minus_1 = &self.p - &BigUint::one();
        let cp = c.raw().rem_ref(&self.p_squared).expect("p² non-zero");
        l_function(&self.ctx_p2.pow_mod(&cp, &p_minus_1), &self.p)
            .mulmod(&self.hp, &self.p)
            .expect("p non-zero")
    }

    /// The `q²` half of a CRT decryption:
    /// `mq = L_q(c^{q−1} mod q²)·hq mod q`.
    fn crt_half_q(&self, c: &Ciphertext) -> BigUint {
        let q_minus_1 = &self.q - &BigUint::one();
        let cq = c.raw().rem_ref(&self.q_squared).expect("q² non-zero");
        l_function(&self.ctx_q2.pow_mod(&cq, &q_minus_1), &self.q)
            .mulmod(&self.hq, &self.q)
            .expect("q non-zero")
    }

    /// CRT recombination: `m = mp + p·((mq − mp)·p^{-1} mod q)`.
    fn crt_combine(&self, mp: &BigUint, mq: &BigUint) -> BigUint {
        let diff = mq.submod(mp, &self.q).expect("q non-zero");
        let t = diff.mulmod(&self.p_inv_q, &self.q).expect("q non-zero");
        mp + &t.mul_ref(&self.p)
    }

    /// Decrypts to the raw residue in `[0, n)` using the CRT split.
    pub fn decrypt(&self, c: &Ciphertext) -> BigUint {
        self.crt_combine(&self.crt_half_p(c), &self.crt_half_q(c))
    }

    /// Decrypts with the two CRT halves on separate workers. The halves
    /// are fully independent `~bits/2` exponentiations, so on two cores
    /// this approaches 2× the sequential CRT path. Falls back to
    /// sequential below [`DECRYPT_PAR_MIN_BITS`] (the spawn/park
    /// overhead dwarfs a small-key exponentiation) or when `workers`
    /// has no real parallelism.
    pub fn decrypt_crt_parallel(&self, c: &Ciphertext, workers: &WorkerPool) -> BigUint {
        if workers.size() < 2 || self.public.bits() < DECRYPT_PAR_MIN_BITS {
            return self.decrypt(c);
        }
        self.decrypt_crt_parallel_unchecked(c, workers)
    }

    /// The parallel two-half split without the size gate (benches and
    /// tests drive it directly; production goes through the gated entry).
    pub(crate) fn decrypt_crt_parallel_unchecked(
        &self,
        c: &Ciphertext,
        workers: &WorkerPool,
    ) -> BigUint {
        let sk = self.clone();
        let ct = c.clone();
        let halves = workers.map_ranges(2, move |range| {
            range
                .map(|i| if i == 0 { sk.crt_half_p(&ct) } else { sk.crt_half_q(&ct) })
                .collect()
        });
        self.crt_combine(&halves[0], &halves[1])
    }

    /// Decrypts a batch, spreading the `2·len` independent CRT half
    /// exponentiations across the worker pool — twice the schedulable
    /// units of a per-ciphertext split, which matters when the batch is
    /// smaller than the pool. The halves are handed out in
    /// [`DECRYPT_CHUNKS_PER_WORKER`] ranges per worker rather than one,
    /// so a worker the host slows down mid-batch takes fewer of them
    /// instead of holding the whole batch up. Sequential below the same
    /// cutoff as [`PrivateKey::decrypt_crt_parallel`].
    pub fn decrypt_batch(&self, cts: &[Ciphertext], workers: &WorkerPool) -> Vec<BigUint> {
        if workers.size() < 2 || self.public.bits() < DECRYPT_PAR_MIN_BITS {
            return cts.iter().map(|c| self.decrypt(c)).collect();
        }
        if cts.len() == 1 {
            return vec![self.decrypt_crt_parallel_unchecked(&cts[0], workers)];
        }
        self.decrypt_batch_unchecked(cts, workers)
    }

    /// The batch half-split without the size gate.
    pub(crate) fn decrypt_batch_unchecked(
        &self,
        cts: &[Ciphertext],
        workers: &WorkerPool,
    ) -> Vec<BigUint> {
        let sk = self.clone();
        let cts_shared: Arc<[Ciphertext]> = Arc::from(cts.to_vec());
        let halves = 2 * cts.len();
        let chunk = halves.div_ceil(DECRYPT_CHUNKS_PER_WORKER * workers.size());
        let halves = workers.map_chunks(halves, chunk, move |range| {
            range
                .map(|i| {
                    let c = &cts_shared[i / 2];
                    if i % 2 == 0 {
                        sk.crt_half_p(c)
                    } else {
                        sk.crt_half_q(c)
                    }
                })
                .collect()
        });
        halves.chunks_exact(2).map(|h| self.crt_combine(&h[0], &h[1])).collect()
    }

    /// Batch decryption to signed 128-bit messages, with per-batch error
    /// reporting instead of a panic on out-of-range plaintexts.
    pub fn try_decrypt_batch_i128(
        &self,
        cts: &[Ciphertext],
        workers: &WorkerPool,
    ) -> Result<Vec<i128>, PaillierError> {
        self.decrypt_batch(cts, workers)
            .iter()
            .map(|m| crate::encoding::decode_i128(m, &self.public.n))
            .collect()
    }

    /// Decrypts without CRT (directly via `λ = lcm(p-1, q-1)`). Kept for
    /// cross-validation and the `abl_crt` ablation bench.
    pub fn decrypt_direct(&self, c: &Ciphertext) -> BigUint {
        let p_minus_1 = &self.p - &BigUint::one();
        let q_minus_1 = &self.q - &BigUint::one();
        let lambda = p_minus_1.lcm(&q_minus_1);
        let n = &self.public.n;
        let u = self.public.ctx_n2.pow_mod(c.raw(), &lambda);
        let l = l_function(&u, n);
        let g = n + &BigUint::one();
        let mu = l_function(&self.public.ctx_n2.pow_mod(&g, &lambda), n)
            .modinv(n)
            .expect("valid key");
        l.mulmod(&mu, n).expect("n non-zero")
    }

    /// Decrypts to a signed 64-bit message, or an error when the
    /// decoded value does not fit `i64` — the recoverable form for
    /// paths fed by untrusted peers, where an out-of-range plaintext
    /// means a corrupt (but well-formed) reply, not a local bug.
    pub fn try_decrypt_i64(&self, c: &Ciphertext) -> Result<i64, PaillierError> {
        decode_i64(&self.decrypt(c), &self.public.n)
    }

    /// Decrypts to a signed 128-bit message, or an error when the
    /// decoded value does not fit `i128`.
    pub fn try_decrypt_i128(&self, c: &Ciphertext) -> Result<i128, PaillierError> {
        crate::encoding::decode_i128(&self.decrypt(c), &self.public.n)
    }

    /// Decrypts to a signed 64-bit message.
    ///
    /// Panics if the decoded value does not fit in `i64` (indicates the
    /// plaintext grew beyond the scaled-integer space — a parameter-scaling
    /// configuration error in PP-Stream terms).
    pub fn decrypt_i64(&self, c: &Ciphertext) -> i64 {
        self.try_decrypt_i64(c)
            .expect("decrypted value exceeds i64 message space")
    }

    /// Decrypts to a signed 128-bit message, for accumulations that
    /// overflow 64 bits before rescaling.
    pub fn decrypt_i128(&self, c: &Ciphertext) -> i128 {
        self.try_decrypt_i128(c)
            .expect("decrypted value exceeds i128 message space")
    }
}

/// Key size (bits of `n`) below which parallel CRT decryption is not
/// worth the hand-off: the two half exponentiations must each outweigh
/// a worker wake-up.
const DECRYPT_PAR_MIN_BITS: usize = 1024;

/// Ranges a batch decryption queues per worker. With one per worker the
/// batch ends when the slower worker does. With `k`, a worker slowed to
/// 0.6 of the other's speed can hold the batch up by at most the one
/// range it took last, `1 / (0.6·k)` of an even share: a fifth at
/// eight. A range never holds less than one half exponentiation (a
/// millisecond at 2048 bits), against microseconds to queue it.
const DECRYPT_CHUNKS_PER_WORKER: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_keypair(seed: u64) -> Keypair {
        let mut rng = StdRng::seed_from_u64(seed);
        Keypair::generate(128, &mut rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let kp = small_keypair(1);
        for m in [0u64, 1, 42, 1_000_000, u32::MAX as u64] {
            let c = kp.public().encrypt(&BigUint::from(m), &mut rng);
            assert_eq!(kp.private().decrypt(&c).to_u64(), Some(m), "m={m}");
        }
    }

    #[test]
    fn crt_matches_direct_decryption() {
        let mut rng = StdRng::seed_from_u64(2);
        let kp = small_keypair(2);
        for m in [0u64, 7, 123_456_789] {
            let c = kp.public().encrypt(&BigUint::from(m), &mut rng);
            assert_eq!(kp.private().decrypt(&c), kp.private().decrypt_direct(&c));
        }
    }

    #[test]
    fn homomorphic_addition() {
        let mut rng = StdRng::seed_from_u64(3);
        let kp = small_keypair(3);
        let (pk, sk) = (kp.public(), kp.private());
        let c1 = pk.encrypt_i64(1234, &mut rng);
        let c2 = pk.encrypt_i64(-234, &mut rng);
        assert_eq!(sk.decrypt_i64(&pk.add(&c1, &c2)), 1000);
    }

    #[test]
    fn homomorphic_scalar_multiplication() {
        let mut rng = StdRng::seed_from_u64(4);
        let kp = small_keypair(4);
        let (pk, sk) = (kp.public(), kp.private());
        let c = pk.encrypt_i64(37, &mut rng);
        assert_eq!(sk.decrypt_i64(&pk.mul_scalar_i64(&c, 100)), 3700);
        assert_eq!(sk.decrypt_i64(&pk.mul_scalar_i64(&c, -2)), -74);
        assert_eq!(sk.decrypt_i64(&pk.mul_scalar_i64(&c, 0)), 0);
    }

    #[test]
    fn linear_combination_matches_plaintext() {
        // The exact Eq. 3 shape: Σ wᵢmᵢ + b.
        let mut rng = StdRng::seed_from_u64(5);
        let kp = small_keypair(5);
        let (pk, sk) = (kp.public(), kp.private());
        let ms = [13i64, -7, 250, 0, -99];
        let ws = [2i64, -3, 10, 7, 1];
        let b = -5i64;
        let cts: Vec<_> = ms.iter().map(|&m| pk.encrypt_i64(m, &mut rng)).collect();
        let mut acc = pk.encrypt_i64(b, &mut rng);
        for (c, &w) in cts.iter().zip(&ws) {
            acc = pk.add(&acc, &pk.mul_scalar_i64(c, w));
        }
        let want: i64 = ms.iter().zip(&ws).map(|(m, w)| m * w).sum::<i64>() + b;
        assert_eq!(sk.decrypt_i64(&acc), want);
    }

    #[test]
    fn add_plain_constant() {
        let mut rng = StdRng::seed_from_u64(6);
        let kp = small_keypair(6);
        let (pk, sk) = (kp.public(), kp.private());
        let c = pk.encrypt_i64(-50, &mut rng);
        assert_eq!(sk.decrypt_i64(&pk.add_plain_i64(&c, 92)), 42);
        assert_eq!(sk.decrypt_i64(&pk.add_plain_i64(&c, -1)), -51);
    }

    #[test]
    fn semantic_security_randomness() {
        // Two encryptions of the same message differ (probabilistic
        // encryption), yet decrypt identically.
        let mut rng = StdRng::seed_from_u64(7);
        let kp = small_keypair(7);
        let pk = kp.public();
        let c1 = pk.encrypt_i64(5, &mut rng);
        let c2 = pk.encrypt_i64(5, &mut rng);
        assert_ne!(c1.raw(), c2.raw());
        assert_eq!(kp.private().decrypt_i64(&c1), kp.private().decrypt_i64(&c2));
    }

    #[test]
    fn rerandomize_preserves_message() {
        let mut rng = StdRng::seed_from_u64(8);
        let kp = small_keypair(8);
        let pk = kp.public();
        let c = pk.encrypt_i64(777, &mut rng);
        let r = pk.rerandomize(&c, &mut rng);
        assert_ne!(c.raw(), r.raw());
        assert_eq!(kp.private().decrypt_i64(&r), 777);
    }

    #[test]
    fn validate_ciphertexts() {
        let mut rng = StdRng::seed_from_u64(9);
        let kp = small_keypair(9);
        let pk = kp.public();
        let c = pk.encrypt_i64(1, &mut rng);
        assert!(pk.validate(&c));
        assert!(!pk.validate(&Ciphertext::new(BigUint::zero())));
        assert!(!pk.validate(&Ciphertext::new(pk.n_squared().clone())));
    }

    #[test]
    fn parallel_crt_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(40);
        let kp = small_keypair(40);
        let (pk, sk) = (kp.public(), kp.private());
        let workers = WorkerPool::new(2);
        for m in [0i64, 1, -1, 987_654_321, -123_456_789] {
            let c = pk.encrypt_i64(m, &mut rng);
            // Direct parallel body (128-bit keys sit below the gate).
            assert_eq!(sk.decrypt_crt_parallel_unchecked(&c, &workers), sk.decrypt(&c));
            // Gated entry falls back below the cutoff but stays correct.
            assert_eq!(sk.decrypt_crt_parallel(&c, &workers), sk.decrypt(&c));
        }
    }

    #[test]
    fn batch_decrypt_matches_individual() {
        let mut rng = StdRng::seed_from_u64(41);
        let kp = small_keypair(41);
        let (pk, sk) = (kp.public(), kp.private());
        let workers = WorkerPool::new(3);
        let ms: Vec<i64> =
            [5i64, -6, 0, i32::MAX as i64, -40_000].into_iter().chain(-7..8).collect();
        let cts: Vec<_> = ms.iter().map(|&m| pk.encrypt_i64(m, &mut rng)).collect();
        let want: Vec<_> = cts.iter().map(|c| sk.decrypt(c)).collect();
        assert_eq!(sk.decrypt_batch_unchecked(&cts, &workers), want);
        assert_eq!(sk.decrypt_batch(&cts, &workers), want);
        // Every range length the queueing can choose, odd ones included:
        // twenty ciphertexts on two workers queue ranges of three halves,
        // so every other range starts on a `q²` half.
        for size in [2, 4] {
            let workers = WorkerPool::new(size);
            for len in 1..=cts.len() {
                assert_eq!(sk.decrypt_batch_unchecked(&cts[..len], &workers), want[..len]);
            }
        }
        assert!(sk.decrypt_batch(&[], &workers).is_empty());
        // Inline pool (size 0) takes the sequential path.
        assert_eq!(sk.decrypt_batch(&cts, &WorkerPool::inline()), want);
    }

    #[test]
    fn try_decrypt_reports_out_of_range() {
        let mut rng = StdRng::seed_from_u64(42);
        let kp = small_keypair(42);
        let (pk, sk) = (kp.public(), kp.private());
        let c = pk.encrypt_i64(1234, &mut rng);
        assert_eq!(sk.try_decrypt_i64(&c).unwrap(), 1234);
        assert_eq!(sk.try_decrypt_i128(&c).unwrap(), 1234);
        // A plaintext near n/2 decodes outside i64: clean Err, no panic.
        let big = pk.half_n() - &BigUint::from(1u64);
        let c_big = pk.encrypt(&big, &mut rng);
        assert!(sk.try_decrypt_i64(&c_big).is_err());
        // i128 overflow needs a key wider than 129 bits (a 128-bit n
        // decodes entirely inside i128).
        let kp_wide = Keypair::generate(160, &mut rng);
        let (pkw, skw) = (kp_wide.public(), kp_wide.private());
        let big_w = pkw.half_n() - &BigUint::from(1u64);
        let c_big_w = pkw.encrypt(&big_w, &mut rng);
        assert!(skw.try_decrypt_i128(&c_big_w).is_err());
        // Batch form surfaces the same error.
        let workers = WorkerPool::new(2);
        let c_ok = pkw.encrypt_i64(1234, &mut rng);
        assert!(skw.try_decrypt_batch_i128(&[c_ok.clone(), c_big_w], &workers).is_err());
        assert_eq!(skw.try_decrypt_batch_i128(&[c_ok], &workers).unwrap(), vec![1234]);
    }

    #[test]
    fn fingerprint_is_stable_and_distinct() {
        let kp1 = small_keypair(43);
        let kp2 = small_keypair(44);
        assert_eq!(kp1.public().fingerprint(), kp1.public().fingerprint());
        assert_ne!(kp1.public().fingerprint(), kp2.public().fingerprint());
    }

    #[test]
    fn keypair_bits() {
        let kp = small_keypair(10);
        assert_eq!(kp.public().bits(), 128);
    }

    #[test]
    fn encrypt_at_message_space_boundary() {
        // m = n − 1 maximizes g^m = 1 + m·n; since 1 + (n−1)·n < n²,
        // the reduction-free g_pow_encoded stays valid at the boundary.
        let mut rng = StdRng::seed_from_u64(11);
        let kp = small_keypair(11);
        let (pk, sk) = (kp.public(), kp.private());
        let m = pk.n() - &BigUint::one();
        assert!(pk.g_pow_encoded(&m) < *pk.n_squared());
        let c = pk.encrypt(&m, &mut rng);
        assert_eq!(sk.decrypt(&c), m);
        // The signed view of n − 1 is −1.
        assert_eq!(sk.decrypt_i64(&c), -1);
    }

    #[test]
    fn encrypt_with_precomputed_factor_matches_inline() {
        let mut rng = StdRng::seed_from_u64(12);
        let kp = small_keypair(12);
        let (pk, sk) = (kp.public(), kp.private());
        let r = pp_bigint::random_coprime(&mut rng, pk.n());
        let rn = pk.ctx().pow_mod(&r, pk.n());
        let via_factor = pk.encrypt_i64_with_factor(-1234, &rn);
        let inline = pk.encrypt_with_randomness(&encode_i64(-1234, pk.n()), &r);
        assert_eq!(via_factor.raw(), inline.raw());
        assert_eq!(sk.decrypt_i64(&via_factor), -1234);
    }
}
