//! Montgomery modular arithmetic (CIOS multiplication) used to make modular
//! exponentiation — the dominant cost of Paillier encryption — fast.

use crate::{BigIntError, BigUint, Limb};

/// A reusable Montgomery context for a fixed odd modulus `n`.
///
/// Construction precomputes `n' = -n^{-1} mod 2^64` and `R² mod n`
/// (`R = 2^(64·k)` where `k` is the limb count of `n`), after which
/// multiplication modulo `n` costs a single CIOS pass and exponentiation a
/// fixed-window ladder. Paillier key material is long-lived, so the context
/// is built once per key and shared across tensor elements.
#[derive(Clone, Debug)]
pub struct MontgomeryCtx {
    /// The modulus, padded view length in limbs.
    n: Vec<Limb>,
    /// `-n^{-1} mod 2^64`.
    n_prime: Limb,
    /// `R mod n` (the Montgomery form of 1).
    r_mod_n: Vec<Limb>,
    /// `R² mod n`, used to convert into Montgomery form.
    r2_mod_n: Vec<Limb>,
}

/// Reusable CIOS accumulator for the in-place Montgomery operations.
/// Obtain one from [`MontgomeryCtx::scratch`]; the buffer is sized for
/// the limb width of the context that created it and must not be shared
/// across contexts of different widths.
#[derive(Clone, Debug)]
pub struct MontScratch {
    t: Vec<Limb>,
}

/// Computes `-n^{-1} mod 2^64` for odd `n0` via Newton–Hensel lifting.
fn neg_inv_u64(n0: Limb) -> Limb {
    debug_assert!(n0 & 1 == 1);
    // x = n0^{-1} mod 2^64 by five Newton iterations (doubles precision each).
    let mut x = n0; // correct mod 2^3 already for odd n0? Use standard trick:
    for _ in 0..6 {
        x = x.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(x)));
    }
    debug_assert_eq!(n0.wrapping_mul(x), 1);
    x.wrapping_neg()
}

impl MontgomeryCtx {
    /// Builds a context for an odd modulus `n > 1`.
    pub fn new(n: &BigUint) -> Result<Self, BigIntError> {
        if n.is_even() || n.is_zero() {
            return Err(BigIntError::EvenModulus);
        }
        if n.is_one() {
            return Err(BigIntError::EvenModulus);
        }
        let k = n.limbs.len();
        let n_prime = neg_inv_u64(n.limbs[0]);
        // R = 2^(64k); R mod n and R^2 mod n via shifting + reduction.
        let r = BigUint::one().shl_bits(64 * k);
        let r_mod_n = r.rem_ref(n)?;
        let r2_mod_n = r.square().rem_ref(n)?;
        Ok(MontgomeryCtx {
            n: n.limbs.clone(),
            n_prime,
            r_mod_n: pad(&r_mod_n.limbs, k),
            r2_mod_n: pad(&r2_mod_n.limbs, k),
        })
    }

    /// Limb count of the modulus.
    pub fn limbs(&self) -> usize {
        self.n.len()
    }

    /// The modulus as a [`BigUint`].
    pub fn modulus(&self) -> BigUint {
        BigUint::from_limbs(self.n.clone())
    }

    /// A scratch buffer sized for this context's CIOS accumulator, so the
    /// in-place Montgomery operations can run without per-call allocation.
    pub fn scratch(&self) -> MontScratch {
        MontScratch { t: vec![0 as Limb; self.n.len() + 2] }
    }

    /// `1` in Montgomery form (`R mod n`) — the neutral element for
    /// [`MontgomeryCtx::mont_mul_inplace`] ladders.
    pub fn one_mont(&self) -> Vec<Limb> {
        self.r_mod_n.clone()
    }

    /// CIOS core: accumulates `a·b·R^{-1}` into `t` (length `k + 2`),
    /// leaving the possibly-unreduced result in `t[..=k]`.
    ///
    /// The accumulate (`t += a·bi`) and reduce (`t = (t + m·n)/2^64`)
    /// steps are fused into a single walk over `t` per `b`-limb, halving
    /// the number of times the accumulator is streamed through memory.
    /// The two partial products keep *separate* carry chains: folding
    /// them into one `u128` accumulator could overflow, since each term
    /// `x[j]·y + carry` already saturates 128 bits on its own.
    fn cios(&self, a: &[Limb], b: &[Limb], t: &mut [Limb]) {
        let k = self.n.len();
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(b.len(), k);
        debug_assert_eq!(t.len(), k + 2);
        t.fill(0);
        for &bi in b {
            // Low limb decides m; its reduced value is 0 mod 2^64 by
            // construction, so only the carries survive.
            let s0 = t[0] as u128 + a[0] as u128 * bi as u128;
            let m = (s0 as Limb).wrapping_mul(self.n_prime);
            let r0 = (s0 as Limb) as u128 + m as u128 * self.n[0] as u128;
            debug_assert_eq!(r0 as Limb, 0);
            let mut carry_a = s0 >> 64;
            let mut carry_m = r0 >> 64;
            for j in 1..k {
                let s = t[j] as u128 + a[j] as u128 * bi as u128 + carry_a;
                carry_a = s >> 64;
                let r = (s as Limb) as u128 + m as u128 * self.n[j] as u128 + carry_m;
                carry_m = r >> 64;
                t[j - 1] = r as Limb;
            }
            let s = t[k] as u128 + carry_a + carry_m;
            t[k - 1] = s as Limb;
            t[k] = (s >> 64) as Limb;
        }
    }

    /// Final conditional subtraction of the CIOS pass: `t` may be in
    /// `[0, 2n)`. When the carry limb `t[k]` is set, `t[..k]` alone is
    /// below `n` and the subtraction borrows out of that implicit high
    /// limb — the wrapped low limbs are exactly `t - n`.
    fn reduce(&self, t: &[Limb], out: &mut [Limb]) {
        let k = self.n.len();
        out.copy_from_slice(&t[..k]);
        if t[k] != 0 || ge(out, &self.n) {
            let borrow = sub_in_place(out, &self.n);
            debug_assert_eq!(borrow, t[k]);
        }
    }

    /// CIOS Montgomery multiplication: returns `a·b·R^{-1} mod n`.
    /// `a` and `b` must be padded to `k` limbs and `< n`.
    fn mont_mul(&self, a: &[Limb], b: &[Limb]) -> Vec<Limb> {
        let mut scratch = self.scratch();
        let mut out = vec![0 as Limb; self.n.len()];
        self.cios(a, b, &mut scratch.t);
        self.reduce(&scratch.t, &mut out);
        out
    }

    /// In-place Montgomery multiplication `acc ← acc·b·R^{-1} mod n`.
    /// Both operands are Montgomery-domain residues padded to `k` limbs;
    /// `scratch` comes from [`MontgomeryCtx::scratch`] and is reused
    /// across calls, so a ladder allocates nothing per step.
    pub fn mont_mul_inplace(&self, acc: &mut [Limb], b: &[Limb], scratch: &mut MontScratch) {
        self.cios(acc, b, &mut scratch.t);
        self.reduce(&scratch.t, acc);
    }

    /// In-place Montgomery squaring `acc ← acc²·R^{-1} mod n`.
    pub fn mont_sqr_inplace(&self, acc: &mut [Limb], scratch: &mut MontScratch) {
        let a: &[Limb] = acc;
        self.cios(a, a, &mut scratch.t);
        self.reduce(&scratch.t, acc);
    }

    /// Converts `x < n` into Montgomery form (`x·R mod n`).
    pub fn to_mont(&self, x: &BigUint) -> Vec<Limb> {
        let k = self.n.len();
        debug_assert!(x.limbs.len() <= k);
        self.mont_mul(&pad(&x.limbs, k), &self.r2_mod_n)
    }

    /// Converts from Montgomery form back to a normal residue.
    pub fn from_mont(&self, x: &[Limb]) -> BigUint {
        let k = self.n.len();
        let one = pad(&[1], k);
        BigUint::from_limbs(self.mont_mul(x, &one))
    }

    /// Modular multiplication `a·b mod n` for ordinary residues.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(&self.mont_mul(&am, &bm))
    }

    /// Modular exponentiation `base^exp mod n` with a fixed 4-bit window.
    pub fn pow_mod(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one().rem_ref(&self.modulus()).expect("n > 1");
        }
        let base = base.rem_ref(&self.modulus()).expect("n > 1");
        let bm = self.to_mont(&base);

        // Short exponents (PP-Stream's scaled weights are ~10–24 bits):
        // plain square-and-multiply beats paying for the window table.
        let mut scratch = self.scratch();
        let bits = exp.bit_len();
        if bits <= 32 {
            let mut acc = bm.clone();
            for i in (0..bits - 1).rev() {
                self.mont_sqr_inplace(&mut acc, &mut scratch);
                if exp.bit(i) {
                    self.mont_mul_inplace(&mut acc, &bm, &mut scratch);
                }
            }
            return self.from_mont(&acc);
        }

        // Precompute bm^0..bm^15 in Montgomery form.
        let mut table: Vec<Vec<Limb>> = Vec::with_capacity(16);
        table.push(self.r_mod_n.clone()); // 1 in Montgomery form
        table.push(bm.clone());
        for i in 2..16 {
            let mut next = table[i - 1].clone();
            self.mont_mul_inplace(&mut next, &bm, &mut scratch);
            table.push(next);
        }

        let windows = bits.div_ceil(4);
        let mut acc = self.r_mod_n.clone();
        let mut started = false;
        for w in (0..windows).rev() {
            if started {
                for _ in 0..4 {
                    self.mont_sqr_inplace(&mut acc, &mut scratch);
                }
            }
            let mut digit = 0usize;
            for b in 0..4 {
                let bit_idx = w * 4 + (3 - b);
                digit <<= 1;
                if exp.bit(bit_idx) {
                    digit |= 1;
                }
            }
            if digit != 0 {
                if started {
                    self.mont_mul_inplace(&mut acc, &table[digit], &mut scratch);
                } else {
                    acc.copy_from_slice(&table[digit]);
                    started = true;
                }
            }
        }
        if !started {
            // exp was zero (handled above) — defensive.
            return BigUint::one();
        }
        self.from_mont(&acc)
    }

    /// Straus/interleaved multi-exponentiation `Π bᵢ^{eᵢ} mod n` over
    /// Montgomery-domain bases, returning a Montgomery-domain result.
    ///
    /// All bases share a single squaring ladder: the ladder costs
    /// `max_bits` squarings **total** instead of per base, which is the
    /// whole win for encrypted dot products where one accumulator
    /// absorbs dozens-to-thousands of small-exponent terms. Each base
    /// pays only its windowed table (`2^w − 2` multiplies) plus one
    /// multiply per non-zero window digit.
    ///
    /// Bases with a zero exponent are skipped entirely (no table, no
    /// digit scan). An empty or all-zero input yields `1` in Montgomery
    /// form.
    pub fn pow_mod_multi_mont(&self, bases: &[&[Limb]], exps: &[u64]) -> Vec<Limb> {
        debug_assert_eq!(bases.len(), exps.len());
        let k = self.n.len();
        let active: Vec<(usize, u64)> = exps
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e != 0)
            .map(|(i, &e)| (i, e))
            .collect();
        if active.is_empty() {
            return self.one_mont();
        }
        let mut scratch = self.scratch();
        let max_bits = active
            .iter()
            .map(|&(_, e)| 64 - e.leading_zeros() as usize)
            .max()
            .expect("active is non-empty");
        let w = multi_exp_window(max_bits);
        let table_len = 1usize << w;

        // Per-base windowed tables b^1 .. b^(2^w - 1); slot 0 unused.
        let mut tables: Vec<Vec<Vec<Limb>>> = Vec::with_capacity(active.len());
        for &(i, _) in &active {
            let b = bases[i];
            debug_assert_eq!(b.len(), k);
            let mut tbl: Vec<Vec<Limb>> = Vec::with_capacity(table_len);
            tbl.push(Vec::new());
            tbl.push(b.to_vec());
            for j in 2..table_len {
                let mut next = tbl[j - 1].clone();
                self.mont_mul_inplace(&mut next, b, &mut scratch);
                tbl.push(next);
            }
            tables.push(tbl);
        }

        let windows = max_bits.div_ceil(w);
        let digit_mask = (1u64 << w) - 1;
        let mut acc = vec![0 as Limb; k];
        let mut started = false;
        for win in (0..windows).rev() {
            if started {
                for _ in 0..w {
                    self.mont_sqr_inplace(&mut acc, &mut scratch);
                }
            }
            for (slot, &(_, e)) in active.iter().enumerate() {
                let digit = ((e >> (win * w)) & digit_mask) as usize;
                if digit != 0 {
                    if started {
                        self.mont_mul_inplace(&mut acc, &tables[slot][digit], &mut scratch);
                    } else {
                        acc.copy_from_slice(&tables[slot][digit]);
                        started = true;
                    }
                }
            }
        }
        debug_assert!(started, "at least one non-zero exponent implies a non-empty ladder");
        acc
    }

    /// Multi-exponentiation `Π bᵢ^{eᵢ} mod n` over ordinary residues —
    /// the convenience wrapper around [`MontgomeryCtx::pow_mod_multi_mont`]
    /// that pays one domain conversion per base.
    pub fn pow_mod_multi(&self, bases: &[BigUint], exps: &[u64]) -> BigUint {
        assert_eq!(bases.len(), exps.len(), "bases/exps length mismatch");
        let n = self.modulus();
        let monts: Vec<Vec<Limb>> = bases
            .iter()
            .map(|b| self.to_mont(&b.rem_ref(&n).expect("n > 1")))
            .collect();
        let refs: Vec<&[Limb]> = monts.iter().map(|m| m.as_slice()).collect();
        self.from_mont(&self.pow_mod_multi_mont(&refs, exps))
    }

    /// Precomputes a fixed-base exponentiation table for `base`, sized
    /// for exponents up to `max_exp_bits` bits. See [`FixedBaseTable`].
    pub fn fixed_base_table(&self, base: &BigUint, max_exp_bits: usize) -> FixedBaseTable {
        let max_bits = max_exp_bits.max(1);
        let w = fixed_base_window(max_bits);
        let windows = max_bits.div_ceil(w);
        let mut scratch = self.scratch();
        let base = base.rem_ref(&self.modulus()).expect("n > 1");
        // base^(2^(w·i)) for the current window i, advanced as rows fill.
        let mut base_i = self.to_mont(&base);
        let mut table: Vec<Vec<Vec<Limb>>> = Vec::with_capacity(windows);
        for _ in 0..windows {
            let mut row: Vec<Vec<Limb>> = Vec::with_capacity((1usize << w) - 1);
            row.push(base_i.clone());
            for d in 2..(1usize << w) {
                let mut next = row[d - 2].clone();
                self.mont_mul_inplace(&mut next, &base_i, &mut scratch);
                row.push(next);
            }
            // base_{i+1} = base_i^(2^w) = row.last() · base_i.
            let mut next_base = row.last().expect("w >= 1").clone();
            self.mont_mul_inplace(&mut next_base, &base_i, &mut scratch);
            base_i = next_base;
            table.push(row);
        }
        FixedBaseTable { window: w, max_bits: windows * w, k: self.n.len(), table }
    }

    /// Fixed-base exponentiation `base^exp mod n` via a precomputed
    /// [`FixedBaseTable`], returning the result in Montgomery form.
    ///
    /// Costs one Montgomery multiply per non-zero `w`-bit digit of the
    /// exponent and **zero** squarings. Exponents wider than the table
    /// fall back to the generic windowed ladder (correct, just slower).
    pub fn pow_fixed_base_mont(&self, table: &FixedBaseTable, exp: &BigUint) -> Vec<Limb> {
        assert_eq!(
            table.k,
            self.n.len(),
            "fixed-base table belongs to a context of a different width"
        );
        if exp.is_zero() {
            return self.one_mont();
        }
        if exp.bit_len() > table.max_bits {
            let base = self.from_mont(&table.table[0][0]);
            return self.to_mont(&self.pow_mod(&base, exp));
        }
        let w = table.window;
        let mut scratch = self.scratch();
        let mut acc: Option<Vec<Limb>> = None;
        for (i, row) in table.table.iter().enumerate() {
            let digit = exp_digit(exp, i * w, w);
            if digit != 0 {
                match acc.as_mut() {
                    Some(a) => self.mont_mul_inplace(a, &row[digit - 1], &mut scratch),
                    None => acc = Some(row[digit - 1].clone()),
                }
            }
        }
        acc.unwrap_or_else(|| self.one_mont())
    }

    /// Fixed-base exponentiation over ordinary residues — the
    /// convenience wrapper around [`MontgomeryCtx::pow_fixed_base_mont`].
    pub fn pow_fixed_base(&self, table: &FixedBaseTable, exp: &BigUint) -> BigUint {
        self.from_mont(&self.pow_fixed_base_mont(table, exp))
    }
}

/// Precomputed radix-`2^w` fixed-base exponentiation table (the
/// Brickell–Gordon–McCurley–Wilson method): entry `table[i][d-1]` holds
/// `base^(d · 2^(w·i))` in Montgomery form, so an exponentiation is the
/// product of one table entry per non-zero `w`-bit exponent digit — no
/// squarings at all. Building the table costs `⌈bits/w⌉ · (2^w − 1)`
/// multiplies once; it pays for itself after a handful of
/// exponentiations over the same base, which is exactly the pool-refill
/// shape (`h^a` for one `h` per key and thousands of short `a`).
#[derive(Clone, Debug)]
pub struct FixedBaseTable {
    window: usize,
    max_bits: usize,
    /// Limb width of the owning context, to catch cross-context misuse.
    k: usize,
    table: Vec<Vec<Vec<Limb>>>,
}

impl FixedBaseTable {
    /// The window width `w` in bits.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Largest exponent bit length the table covers without falling
    /// back to the generic ladder.
    pub fn max_bits(&self) -> usize {
        self.max_bits
    }

    /// Total precomputed entries (`windows · (2^w − 1)`).
    pub fn entries(&self) -> usize {
        self.table.iter().map(|row| row.len()).sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.entries() * self.k * std::mem::size_of::<Limb>()
    }
}

/// Extracts the `w`-bit exponent digit starting at bit `bit`.
fn exp_digit(exp: &BigUint, bit: usize, w: usize) -> usize {
    debug_assert!((1..=8).contains(&w));
    let limb = bit / 64;
    let off = bit % 64;
    if limb >= exp.limbs.len() {
        return 0;
    }
    let mut d = exp.limbs[limb] >> off;
    if off + w > 64 && limb + 1 < exp.limbs.len() {
        d |= exp.limbs[limb + 1] << (64 - off);
    }
    (d & ((1u64 << w) - 1)) as usize
}

/// Window width for a fixed-base table over exponents of `max_bits`
/// bits. Build cost is `(bits/w)·(2^w − 1)` multiplies, per-exponent
/// cost `~bits/w`, so wider windows trade one-time memory/build for
/// cheaper walks.
fn fixed_base_window(max_bits: usize) -> usize {
    if max_bits <= 64 {
        3
    } else if max_bits <= 192 {
        4
    } else if max_bits <= 768 {
        5
    } else {
        6
    }
}

/// Window width for the interleaved ladder, chosen by the largest
/// exponent's bit length: per base the table costs `2^w − 2` multiplies
/// while wider windows save ladder multiplies, so small exponents (the
/// common case — quantized NN weights are ≲ 24 bits) want narrow
/// windows.
fn multi_exp_window(max_bits: usize) -> usize {
    if max_bits <= 16 {
        1
    } else if max_bits <= 40 {
        2
    } else {
        4
    }
}

fn pad(limbs: &[Limb], k: usize) -> Vec<Limb> {
    let mut v = limbs.to_vec();
    v.resize(k, 0);
    v
}

/// `a >= b` for equal-length limb slices.
fn ge(a: &[Limb], b: &[Limb]) -> bool {
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// `a -= b` for equal-length limb slices, wrapping mod 2^(64·len);
/// returns the final borrow (0 or 1) so callers can account for an
/// implicit high limb.
fn sub_in_place(a: &mut [Limb], b: &[Limb]) -> Limb {
    let mut borrow = 0i128;
    for i in 0..a.len() {
        let d = a[i] as i128 - b[i] as i128 + borrow;
        a[i] = d as Limb;
        borrow = d >> 64;
    }
    (-borrow) as Limb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BigUint;

    #[test]
    fn neg_inv_is_correct() {
        for n0 in [1u64, 3, 5, 0xdead_beef | 1, u64::MAX] {
            let ni = neg_inv_u64(n0);
            assert_eq!(n0.wrapping_mul(ni), 1u64.wrapping_neg(), "n0={n0}");
        }
    }

    #[test]
    fn rejects_even_modulus() {
        assert!(MontgomeryCtx::new(&BigUint::from(10u64)).is_err());
        assert!(MontgomeryCtx::new(&BigUint::zero()).is_err());
        assert!(MontgomeryCtx::new(&BigUint::one()).is_err());
    }

    #[test]
    fn mont_roundtrip() {
        let n = BigUint::from(1_000_000_007u64);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        for x in [0u64, 1, 42, 999_999_999] {
            let xm = ctx.to_mont(&BigUint::from(x));
            assert_eq!(ctx.from_mont(&xm).to_u64(), Some(x));
        }
    }

    #[test]
    fn mul_mod_small() {
        let n = BigUint::from(97u64);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        for a in 0..20u64 {
            for b in 0..20u64 {
                let got = ctx.mul_mod(&BigUint::from(a), &BigUint::from(b));
                assert_eq!(got.to_u64(), Some(a * b % 97), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn pow_mod_fermat() {
        // a^(p-1) = 1 mod p for prime p and gcd(a, p) = 1.
        let p = BigUint::from(1_000_000_007u64);
        let ctx = MontgomeryCtx::new(&p).unwrap();
        let exp = BigUint::from(1_000_000_006u64);
        for a in [2u64, 3, 65537, 999_999_999] {
            let r = ctx.pow_mod(&BigUint::from(a), &exp);
            assert!(r.is_one(), "a={a}");
        }
    }

    #[test]
    fn pow_mod_edge_cases() {
        let n = BigUint::from(101u64);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        // x^0 = 1
        assert!(ctx.pow_mod(&BigUint::from(5u64), &BigUint::zero()).is_one());
        // 0^x = 0 for x > 0
        assert!(ctx.pow_mod(&BigUint::zero(), &BigUint::from(7u64)).is_zero());
        // x^1 = x
        assert_eq!(
            ctx.pow_mod(&BigUint::from(42u64), &BigUint::one()).to_u64(),
            Some(42)
        );
        // base bigger than modulus is reduced first
        assert_eq!(
            ctx.pow_mod(&BigUint::from(205u64), &BigUint::from(2u64)).to_u64(),
            Some(9) // (205 mod 101)² = 3² = 9
        );
    }

    #[test]
    fn multi_exp_matches_iterated_pow() {
        let p = BigUint::from(1_000_000_007u64);
        let ctx = MontgomeryCtx::new(&p).unwrap();
        let bases: Vec<BigUint> =
            [2u64, 3, 65537, 999_999_999, 12345].iter().map(|&b| BigUint::from(b)).collect();
        let exps: [u64; 5] = [1, 77, 0, 300_000, u64::MAX];
        let got = ctx.pow_mod_multi(&bases, &exps);
        let mut want = BigUint::one();
        for (b, &e) in bases.iter().zip(exps.iter()) {
            let term = ctx.pow_mod(b, &BigUint::from(e));
            want = ctx.mul_mod(&want, &term);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn multi_exp_empty_and_all_zero() {
        let p = BigUint::from(1_000_000_007u64);
        let ctx = MontgomeryCtx::new(&p).unwrap();
        assert!(ctx.pow_mod_multi(&[], &[]).is_one());
        let bases = vec![BigUint::from(5u64), BigUint::from(7u64)];
        assert!(ctx.pow_mod_multi(&bases, &[0, 0]).is_one());
    }

    #[test]
    fn multi_exp_single_base_all_windows() {
        // One base exercises each window width: ≤16-bit, ≤40-bit, 64-bit.
        let p = BigUint::from(1_000_000_007u64);
        let ctx = MontgomeryCtx::new(&p).unwrap();
        for e in [1u64, 2, 65535, 65536, (1 << 40) - 1, 1 << 40, u64::MAX] {
            let got = ctx.pow_mod_multi(&[BigUint::from(3u64)], &[e]);
            let want = ctx.pow_mod(&BigUint::from(3u64), &BigUint::from(e));
            assert_eq!(got, want, "e={e}");
        }
    }

    #[test]
    fn multi_exp_mont_domain_roundtrip() {
        // Exercise the Montgomery-domain entry point directly with
        // reused scratch-domain bases, as the paillier dot kernel does.
        let p = BigUint::from(1_000_000_007u64);
        let ctx = MontgomeryCtx::new(&p).unwrap();
        let b1 = ctx.to_mont(&BigUint::from(123u64));
        let b2 = ctx.to_mont(&BigUint::from(456u64));
        let acc = ctx.pow_mod_multi_mont(&[&b1, &b2], &[10, 20]);
        let want = ctx.mul_mod(
            &ctx.pow_mod(&BigUint::from(123u64), &BigUint::from(10u64)),
            &ctx.pow_mod(&BigUint::from(456u64), &BigUint::from(20u64)),
        );
        assert_eq!(ctx.from_mont(&acc), want);
    }

    #[test]
    fn inplace_ops_match_by_value_api() {
        let n = BigUint::from_hex_str("f123456789abcdef0011223344556678").unwrap();
        let n = if n.is_even() { &n + &BigUint::one() } else { n };
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let mut scratch = ctx.scratch();
        let a = ctx.to_mont(&BigUint::from(0xdead_beefu64));
        let b = ctx.to_mont(&BigUint::from(0x1234_5678u64));
        let mut acc = a.clone();
        ctx.mont_mul_inplace(&mut acc, &b, &mut scratch);
        assert_eq!(ctx.from_mont(&acc), ctx.mul_mod(&BigUint::from(0xdead_beefu64), &BigUint::from(0x1234_5678u64)));
        let mut sq = a.clone();
        ctx.mont_sqr_inplace(&mut sq, &mut scratch);
        assert_eq!(ctx.from_mont(&sq), ctx.mul_mod(&BigUint::from(0xdead_beefu64), &BigUint::from(0xdead_beefu64)));
    }

    #[test]
    fn fixed_base_matches_pow_mod() {
        let n = BigUint::from_hex_str("f123456789abcdef0011223344556677").unwrap();
        let n = if n.is_even() { &n + &BigUint::one() } else { n };
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let base = BigUint::from(0x1234_5678_9abcu64);
        let table = ctx.fixed_base_table(&base, 128);
        for e in [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from(2u64),
            BigUint::from(0xdead_beefu64),
            BigUint::from(u64::MAX),
            BigUint::from_hex_str("ffffffffffffffffffffffffffffffff").unwrap(),
        ] {
            assert_eq!(ctx.pow_fixed_base(&table, &e), ctx.pow_mod(&base, &e), "e={e:?}");
        }
    }

    #[test]
    fn fixed_base_overflow_exponent_falls_back() {
        let n = BigUint::from(1_000_000_007u64);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let base = BigUint::from(3u64);
        let table = ctx.fixed_base_table(&base, 16);
        // Exponent wider than the table's capacity: generic ladder path.
        let e = BigUint::from(u64::MAX);
        assert!(e.bit_len() > table.max_bits());
        assert_eq!(ctx.pow_fixed_base(&table, &e), ctx.pow_mod(&base, &e));
    }

    #[test]
    fn fixed_base_table_geometry() {
        let n = BigUint::from(1_000_000_007u64);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let table = ctx.fixed_base_table(&BigUint::from(2u64), 64);
        let w = table.window();
        assert!(table.max_bits() >= 64);
        assert_eq!(table.entries(), table.max_bits() / w * ((1 << w) - 1));
        assert!(table.bytes() > 0);
    }

    #[test]
    fn pow_mod_multi_limb() {
        // 2^e mod n cross-checked via repeated squaring on BigUint directly.
        let n = BigUint::from_hex_str("f123456789abcdef0011223344556677").unwrap();
        let n = if n.is_even() { &n + &BigUint::one() } else { n };
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let e = BigUint::from(1027u64);
        let got = ctx.pow_mod(&BigUint::from(2u64), &e);
        // slow path: square-and-multiply with div_rem reduction
        let mut acc = BigUint::one();
        let base = BigUint::from(2u64);
        for i in (0..e.bit_len()).rev() {
            acc = acc.square().rem_ref(&n).unwrap();
            if e.bit(i) {
                acc = acc.mul_ref(&base).rem_ref(&n).unwrap();
            }
        }
        assert_eq!(got, acc);
    }
}
