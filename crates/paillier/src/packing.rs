//! Ciphertext packing: batching many small values into one Paillier
//! plaintext (the BatchCrypt technique — the paper's reference [66]).
//!
//! A 2048-bit plaintext has room for dozens of 32-bit activations; packing
//! them into slots makes one encryption/decryption/transfer carry a whole
//! sub-tensor. Homomorphic slot-wise **addition** and **uniform scalar
//! multiplication** work directly on the packed ciphertext:
//!
//! ```text
//!   pack(v) = Σⱼ enc(vⱼ) · 2^(j·s)
//!   pack(v) + pack(w)  →  slot-wise vⱼ + wⱼ
//!   pack(v) · k        →  slot-wise vⱼ · k      (uniform k)
//! ```
//!
//! Per-slot *distinct* weights do not distribute over slots — but a dot
//! product whose **batch dimension lives in the slots** applies each
//! weight uniformly across slots. [`PackedMontInputs::dot_i64`] exploits
//! this: slot `j` of input ciphertext `i` holds activation `i` of request
//! `j`, so one Straus multi-exponentiation (the same kernel as
//! [`crate::MontInputs`]) evaluates the whole batch's `Σᵢ wᵢ·xᵢ + b` at
//! once, negative weights folded into a single inversion.
//!
//! ## Slot arithmetic, offsets, and the operation budget
//!
//! Values are offset-encoded so slot contents stay non-negative. Every
//! packed ciphertext carries a **weight** `w`: the invariant is
//!
//! ```text
//!   slot content = v + w·2B,   |v| ≤ w·(B−1),   w ≤ W (the op budget)
//! ```
//!
//! A fresh encryption has `w = 1`; addition sums weights; uniform
//! multiplication by `k` scales the weight by `k`; signed/negative
//! operations re-center by multiplying in `g^{δ·ones}` (a plaintext
//! constant added to every active slot) so contents never wrap. The value
//! bound is sized as `B = 2^(s−2−⌈log₂W⌉)`, which guarantees
//! `content < 3·W·B ≤ 2^s`: a slot can never spill into its neighbour
//! while the weight stays within budget. Every operation **checks** the
//! budget and returns a typed [`PaillierError`] instead of corrupting
//! slots.
//!
//! ## Folding unpacked ciphertexts into slots
//!
//! The slots need not be filled at encryption time. Ciphertexts of
//! small signed values `vᵢ` fold into one packed ciphertext
//! homomorphically, `Π ctᵢ^(2^{i·s})` — by Horner, `s` squarings and one
//! multiply per element — plus one `g^{W·2B·ones}` multiply that lifts
//! every slot to the offset encoding at weight `W`
//! ([`PackedCiphertext::fold`]). The folding party never learns the
//! values; whoever produced them must guarantee `|vᵢ| ≤ W·(B−1)`, or
//! slots borrow from their neighbours.

use crate::ciphertext::Ciphertext;
use crate::dot::{invert_all_mont, signed_products};
use crate::{PaillierError, PrivateKey, PublicKey};
use pp_bigint::{BigUint, Limb};
use pp_stream_runtime::pool::WorkerPool;
use rand::Rng;
use std::cell::OnceCell;
use std::ops::Range;
use std::sync::Arc;

/// Layout and operation budget of a packed ciphertext.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackingSpec {
    /// Bits per slot (including offset/guard headroom).
    pub slot_bits: usize,
    /// Number of slots per ciphertext.
    pub slots: usize,
    /// Maximum accumulated operation weight (see module docs).
    pub op_budget: u64,
}

impl PackingSpec {
    /// Largest spec with `slot_bits`-wide slots that fits the key's
    /// plaintext space, with a default operation budget of 16.
    ///
    /// Fails with a typed error when `slot_bits` is zero, wider than the
    /// key's usable plaintext bits, or too narrow to leave headroom for
    /// the offset encoding.
    pub fn for_key(pk: &PublicKey, slot_bits: usize) -> Result<Self, PaillierError> {
        let usable = pk.bits().saturating_sub(2);
        if slot_bits == 0 || slot_bits > usable {
            return Err(PaillierError::InvalidPacking(format!(
                "slot_bits {slot_bits} outside usable plaintext bits 1..={usable}"
            )));
        }
        let spec = PackingSpec { slot_bits, slots: usable / slot_bits, op_budget: 16 };
        spec.check()?;
        Ok(spec)
    }

    /// Adjusts the operation budget (shrinks the per-value bound). The
    /// combination is re-validated by every packing operation, so a
    /// budget too large for the slot width fails typed, not silently.
    pub fn with_budget(mut self, op_budget: u64) -> Self {
        self.op_budget = op_budget.max(1);
        self
    }

    /// `⌈log₂ op_budget⌉`, conservatively (≥ 1).
    fn budget_bits(&self) -> u32 {
        64 - (self.op_budget.max(1) - 1).leading_zeros().min(63)
    }

    /// Validates the layout: the slot must hold `2 + ⌈log₂W⌉` guard bits
    /// *and* at least one value bit, and slot extraction must fit `u128`.
    pub fn check(&self) -> Result<(), PaillierError> {
        if self.slot_bits > 120 {
            return Err(PaillierError::InvalidPacking(format!(
                "slot_bits {} exceeds the 120-bit slot extraction limit",
                self.slot_bits
            )));
        }
        if self.slots == 0 {
            return Err(PaillierError::InvalidPacking("zero slots".into()));
        }
        let need = 3 + self.budget_bits() as usize;
        if self.slot_bits < need {
            return Err(PaillierError::InvalidPacking(format!(
                "slot_bits {} too narrow for op budget {} (needs ≥ {need})",
                self.slot_bits, self.op_budget
            )));
        }
        Ok(())
    }

    /// Magnitude bound for a slot value: `|v| < 2^(s − 2 − ⌈log₂W⌉)`.
    pub fn value_bound(&self) -> i64 {
        let shift = self.slot_bits.saturating_sub(2 + self.budget_bits() as usize);
        1i64 << shift.min(62)
    }

    /// The per-unit-weight slot offset `2B`.
    pub fn offset(&self) -> u64 {
        2 * self.value_bound() as u64
    }

    /// `Σ_{j<used} 2^{j·s}` — the mask that broadcasts a per-slot
    /// constant across the first `used` slots.
    pub fn ones_mask(&self, used: usize) -> BigUint {
        let mut m = BigUint::zero();
        for _ in 0..used {
            m = m.shl_bits(self.slot_bits);
            m = &m + &BigUint::one();
        }
        m
    }

    /// How a tensor of `len` values spreads over folded ciphertexts:
    /// `⌈len ÷ slots⌉` runs of consecutive positions, as even as they
    /// come (the first `len mod groups` hold one more), so the longest
    /// Horner chain is as short as the ciphertext count allows. Both
    /// parties derive it from `(len, slots)` alone.
    pub fn fold_groups(&self, len: usize) -> impl Iterator<Item = Range<usize>> {
        let groups = len.div_ceil(self.slots.max(1));
        let base = len.checked_div(groups).unwrap_or(0);
        let longer = len.checked_rem(groups).unwrap_or(0);
        (0..groups).scan(0, move |start, g| {
            let run = *start..*start + base + usize::from(g < longer);
            *start = run.end;
            Some(run)
        })
    }

    /// Capacity check against a key: all slots must fit the usable
    /// plaintext space (the encoding never reduces mod `n`).
    pub(crate) fn check_key(&self, pk: &PublicKey) -> Result<(), PaillierError> {
        let usable = pk.bits().saturating_sub(2);
        match self.slots.checked_mul(self.slot_bits) {
            Some(total) if total <= usable => Ok(()),
            _ => Err(PaillierError::InvalidPacking(format!(
                "{} slots × {} bits exceed the key's usable {usable} plaintext bits",
                self.slots, self.slot_bits
            ))),
        }
    }
}

/// Packs `values` into one plaintext with the fresh-encryption offset
/// (`v + 2B` per slot), validating range and capacity.
pub(crate) fn pack_values(spec: &PackingSpec, values: &[i64]) -> Result<BigUint, PaillierError> {
    spec.check()?;
    if values.len() > spec.slots {
        return Err(PaillierError::InvalidPacking(format!(
            "{} values exceed {} slots",
            values.len(),
            spec.slots
        )));
    }
    let bound = spec.value_bound();
    let mut m = BigUint::zero();
    // Highest slot first: m = ((v_{k-1}) << s | … ) | v_0.
    for &v in values.iter().rev() {
        if v <= -bound || v >= bound {
            return Err(PaillierError::MessageOutOfRange);
        }
        let encoded = (v + spec.offset() as i64) as u64;
        m = m.shl_bits(spec.slot_bits);
        m = &m + &BigUint::from(encoded);
    }
    Ok(m)
}

/// `magnitude · ones(used)` reduced mod `n`, negated in `Z_n` when
/// `negative` — the encoded per-slot correction constant `δ`.
fn signed_broadcast_residue(
    pk: &PublicKey,
    spec: &PackingSpec,
    used: usize,
    magnitude: u128,
    negative: bool,
) -> Result<BigUint, PaillierError> {
    let plain = BigUint::from(magnitude).mul_ref(&spec.ones_mask(used));
    let r = plain
        .rem_ref(pk.n())
        .map_err(|_| PaillierError::InvalidPacking("zero modulus".into()))?;
    if negative && !r.is_zero() {
        Ok(pk.n() - &r)
    } else {
        Ok(r)
    }
}

/// A ciphertext holding up to `spec.slots` packed values, with the weight
/// bookkeeping needed to strip offsets at decode time.
#[derive(Clone, Debug)]
pub struct PackedCiphertext {
    pub ct: Ciphertext,
    pub spec: PackingSpec,
    /// How many of the slots actually carry values.
    used: usize,
    /// Accumulated operation weight: every slot holds `v + weight·2B`.
    weight: u64,
}

impl PackedCiphertext {
    /// Packs and encrypts up to `spec.slots` values, each `|v| <
    /// spec.value_bound()`, with fresh randomness.
    pub fn encrypt<R: Rng + ?Sized>(
        pk: &PublicKey,
        spec: PackingSpec,
        values: &[i64],
        rng: &mut R,
    ) -> Result<Self, PaillierError> {
        spec.check_key(pk)?;
        let m = pack_values(&spec, values)?;
        Ok(PackedCiphertext { ct: pk.encrypt(&m, rng), spec, used: values.len(), weight: 1 })
    }

    /// Packs and encrypts with a **precomputed** blinding factor
    /// `rn = r^n mod n²` (see [`crate::RandomnessPool`]) — the packed
    /// analogue of [`PublicKey::encrypt_i64_with_factor`].
    pub fn encrypt_with_factor(
        pk: &PublicKey,
        spec: PackingSpec,
        values: &[i64],
        rn: &BigUint,
    ) -> Result<Self, PaillierError> {
        spec.check_key(pk)?;
        let m = pack_values(&spec, values)?;
        Ok(PackedCiphertext::from_plain_with_factor(pk, spec, values.len(), &m, rn))
    }

    pub(crate) fn from_plain_with_factor(
        pk: &PublicKey,
        spec: PackingSpec,
        used: usize,
        m: &BigUint,
        rn: &BigUint,
    ) -> Self {
        let ct = Ciphertext::new(pk.ctx().mul_mod(&pk.g_pow_encoded(m), rn));
        PackedCiphertext { ct, spec, used, weight: 1 }
    }

    /// The deterministic packed constant `k` in every active slot
    /// (weight 1, unit randomness — the packed analogue of
    /// [`PublicKey::encrypt_constant_i64`], with the same caveat: only
    /// for model-side constants that get multiplied into data-derived
    /// ciphertexts).
    pub fn constant(
        pk: &PublicKey,
        spec: PackingSpec,
        used: usize,
        k: i64,
    ) -> Result<Self, PaillierError> {
        spec.check()?;
        spec.check_key(pk)?;
        if used > spec.slots {
            return Err(PaillierError::InvalidPacking(format!(
                "{used} used slots exceed {}",
                spec.slots
            )));
        }
        let bound = spec.value_bound();
        if k <= -bound || k >= bound {
            return Err(PaillierError::MessageOutOfRange);
        }
        let per_slot = (k + spec.offset() as i64) as u128;
        let residue = signed_broadcast_residue(pk, &spec, used, per_slot, false)?;
        Ok(PackedCiphertext {
            ct: Ciphertext::new(pk.g_pow_encoded(&residue)),
            spec,
            used,
            weight: 1,
        })
    }

    /// Reassembles a packed ciphertext received off the wire, validating
    /// the metadata against the key and budget before it can be used.
    pub fn from_parts(
        pk: &PublicKey,
        ct: Ciphertext,
        spec: PackingSpec,
        used: usize,
        weight: u64,
    ) -> Result<Self, PaillierError> {
        spec.check()?;
        spec.check_key(pk)?;
        if used > spec.slots {
            return Err(PaillierError::InvalidPacking(format!(
                "{used} used slots exceed {}",
                spec.slots
            )));
        }
        if weight > spec.op_budget {
            return Err(PaillierError::BudgetExceeded { weight, budget: spec.op_budget });
        }
        Ok(PackedCiphertext { ct, spec, used, weight })
    }

    /// Folds up to `spec.slots` unpacked ciphertexts into one packed
    /// ciphertext at weight `spec.op_budget`: slot `i` decodes to the
    /// plaintext of `cts[i]`, provided every plaintext satisfies
    /// `|v| ≤ W·(B−1)` (module docs). Horner in the Montgomery domain,
    /// highest slot first: `slot_bits` squarings and one multiply per
    /// element, no table, then the offset multiply.
    pub fn fold(
        pk: &PublicKey,
        spec: PackingSpec,
        cts: &[Ciphertext],
    ) -> Result<Self, PaillierError> {
        spec.check()?;
        spec.check_key(pk)?;
        let Some((top, lower)) = cts.split_last() else {
            return Err(PaillierError::InvalidPacking("nothing to fold".into()));
        };
        if cts.len() > spec.slots {
            return Err(PaillierError::InvalidPacking(format!(
                "{} ciphertexts exceed {} slots",
                cts.len(),
                spec.slots
            )));
        }
        let ctx = pk.ctx();
        let mut scratch = ctx.scratch();
        let mut acc = ctx.to_mont(top.raw());
        for ct in lower.iter().rev() {
            for _ in 0..spec.slot_bits {
                ctx.mont_sqr_inplace(&mut acc, &mut scratch);
            }
            ctx.mont_mul_inplace(&mut acc, &ctx.to_mont(ct.raw()), &mut scratch);
        }
        let weight = spec.op_budget;
        let offset = weight as u128 * spec.offset() as u128;
        let residue = signed_broadcast_residue(pk, &spec, cts.len(), offset, false)?;
        ctx.mont_mul_inplace(&mut acc, &ctx.to_mont(&pk.g_pow_encoded(&residue)), &mut scratch);
        Ok(PackedCiphertext {
            ct: Ciphertext::new(ctx.from_mont(&acc)),
            spec,
            used: cts.len(),
            weight,
        })
    }

    /// Folds a whole tensor: one [`PackedCiphertext::fold`] per run of
    /// [`PackingSpec::fold_groups`], the runs queued on `workers` and
    /// taken by whichever is free. The result depends on the inputs and
    /// the layout only, never on the pool.
    pub fn fold_all(
        pk: &PublicKey,
        spec: PackingSpec,
        cts: &[Ciphertext],
        workers: &WorkerPool,
    ) -> Result<Vec<Self>, PaillierError> {
        let groups: Vec<Range<usize>> = spec.fold_groups(cts.len()).collect();
        let (pk, cts) = (pk.clone(), Arc::<[Ciphertext]>::from(cts));
        workers
            .map_chunks(groups.len(), 1, move |run| {
                run.map(|g| PackedCiphertext::fold(&pk, spec, &cts[groups[g].clone()])).collect()
            })
            .into_iter()
            .collect()
    }

    /// Accumulated operation weight.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Number of meaningful slots.
    pub fn used(&self) -> usize {
        self.used
    }

    fn checked_weight(&self, weight: Option<u64>) -> Result<u64, PaillierError> {
        match weight {
            Some(w) if w <= self.spec.op_budget => Ok(w),
            Some(w) => Err(PaillierError::BudgetExceeded { weight: w, budget: self.spec.op_budget }),
            // Arithmetic overflow: report the saturated weight.
            None => Err(PaillierError::BudgetExceeded {
                weight: u64::MAX,
                budget: self.spec.op_budget,
            }),
        }
    }

    /// Slot-wise homomorphic addition. Both operands must share the spec
    /// **and** active slot count; fails typed when the operation budget
    /// would be exceeded.
    pub fn add(&self, pk: &PublicKey, other: &Self) -> Result<Self, PaillierError> {
        if self.spec != other.spec || self.used != other.used {
            return Err(PaillierError::PackingMismatch);
        }
        let weight = self.checked_weight(self.weight.checked_add(other.weight))?;
        Ok(PackedCiphertext {
            ct: pk.add(&self.ct, &other.ct),
            spec: self.spec,
            used: self.used,
            weight,
        })
    }

    /// Uniform positive scalar multiplication across all slots; fails
    /// typed when the operation budget would be exceeded.
    pub fn mul_uniform(&self, pk: &PublicKey, k: u64) -> Result<Self, PaillierError> {
        if k == 0 {
            return Err(PaillierError::MessageOutOfRange);
        }
        let weight = self.checked_weight(self.weight.checked_mul(k))?;
        Ok(PackedCiphertext {
            ct: pk.mul_scalar(&self.ct, &BigUint::from(k)),
            spec: self.spec,
            used: self.used,
            weight,
        })
    }

    /// Uniform **signed** scalar multiplication. A negative scalar
    /// inverts the ciphertext (slot contents go to `k·v + k·w·2B` mod
    /// `n`), then re-centers every active slot by `+2|k|·w·2B` so the
    /// invariant `content = k·v + |k|·w·2B ∈ (0, 2^s)` is restored.
    pub fn mul_signed(&self, pk: &PublicKey, k: i64) -> Result<Self, PaillierError> {
        if k > 0 {
            return self.mul_uniform(pk, k as u64);
        }
        if k == 0 {
            return Ok(PackedCiphertext {
                ct: pk.mul_scalar_i64(&self.ct, 0),
                spec: self.spec,
                used: self.used,
                weight: 0,
            });
        }
        let weight = self.checked_weight(self.weight.checked_mul(k.unsigned_abs()))?;
        let raw = pk.mul_scalar_i64(&self.ct, k);
        // δ = (|k| − k)·w·2B = 2·|k|·w·2B per active slot.
        let delta = 2 * weight as u128 * self.spec.offset() as u128;
        let residue = signed_broadcast_residue(pk, &self.spec, self.used, delta, false)?;
        let ct = Ciphertext::new(pk.ctx().mul_mod(raw.raw(), &pk.g_pow_encoded(&residue)));
        Ok(PackedCiphertext { ct, spec: self.spec, used: self.used, weight })
    }

    /// Lifts the ciphertext to a larger weight without changing slot
    /// values, by adding `(target − w)·2B` to every active slot. Used to
    /// give every element of a packed round the same decode offset.
    pub fn raise_weight(&self, pk: &PublicKey, target: u64) -> Result<Self, PaillierError> {
        if target < self.weight {
            return Err(PaillierError::InvalidPacking(format!(
                "cannot lower weight {} to {target}",
                self.weight
            )));
        }
        let target = self.checked_weight(Some(target))?;
        if target == self.weight {
            return Ok(self.clone());
        }
        let delta = (target - self.weight) as u128 * self.spec.offset() as u128;
        let residue = signed_broadcast_residue(pk, &self.spec, self.used, delta, false)?;
        let ct = Ciphertext::new(pk.ctx().mul_mod(self.ct.raw(), &pk.g_pow_encoded(&residue)));
        Ok(PackedCiphertext { ct, spec: self.spec, used: self.used, weight: target })
    }

    /// Decrypts and unpacks the active slots, stripping `weight·2B` from
    /// each.
    pub fn decrypt(&self, sk: &PrivateKey) -> Result<Vec<i64>, PaillierError> {
        narrow(self.unpack_residue(sk.decrypt(&self.ct))?)
    }

    /// Like [`PackedCiphertext::decrypt`], but splits the one big
    /// decryption's CRT halves across `workers` — the packed path
    /// carries a whole batch in a single ciphertext, so this is where
    /// parallel CRT pays even when there is nothing else to batch with.
    pub fn decrypt_parallel(
        &self,
        sk: &PrivateKey,
        workers: &WorkerPool,
    ) -> Result<Vec<i64>, PaillierError> {
        narrow(self.unpack_residue(sk.decrypt_crt_parallel(&self.ct, workers))?)
    }

    /// Decrypts and unpacks a tensor's packed positions in one dispatch:
    /// the CRT halves of all positions go through
    /// [`PrivateKey::decrypt_batch`] together, where a
    /// [`PackedCiphertext::decrypt_parallel`] per position would wake and
    /// join the workers once for every two half exponentiations. Slot
    /// values come back at full width: a folded slot wider than 64 bits
    /// may hold a value `i64` cannot.
    pub fn decrypt_all(
        positions: &[PackedCiphertext],
        sk: &PrivateKey,
        workers: &WorkerPool,
    ) -> Result<Vec<Vec<i128>>, PaillierError> {
        let cts: Vec<Ciphertext> = positions.iter().map(|p| p.ct.clone()).collect();
        positions
            .iter()
            .zip(sk.decrypt_batch(&cts, workers))
            .map(|(p, m)| p.unpack_residue(m))
            .collect()
    }

    /// Unpacks a decrypted residue into the active slots.
    fn unpack_residue(&self, m: BigUint) -> Result<Vec<i128>, PaillierError> {
        let offset_total = (self.weight as u128)
            .checked_mul(self.spec.offset() as u128)
            .and_then(|o| i128::try_from(o).ok())
            .ok_or(PaillierError::MessageOutOfRange)?;
        let mut out = Vec::with_capacity(self.used);
        let mut rest = m;
        for _ in 0..self.used {
            // The budget guarantees slot contents never spill, so the low
            // `slot_bits` are exactly this slot.
            let slot = rest.low_bits(self.spec.slot_bits);
            let raw = slot.to_u128().ok_or(PaillierError::MessageOutOfRange)? as i128;
            out.push(raw - offset_total);
            rest = rest.shr_bits(self.spec.slot_bits);
        }
        Ok(out)
    }
}

/// Slot values as `i64`, for the layouts whose bound keeps them there.
fn narrow(values: Vec<i128>) -> Result<Vec<i64>, PaillierError> {
    values
        .into_iter()
        .map(|v| i64::try_from(v).map_err(|_| PaillierError::MessageOutOfRange))
        .collect()
}

/// A batch's packed inputs with per-ciphertext Montgomery residues,
/// converted lazily and cached — the packed counterpart of
/// [`crate::MontInputs`]. Slot `j` of input `i` holds activation `i` of
/// batch item `j`, so one fused dot product evaluates all items at once.
pub struct PackedMontInputs<'a> {
    pk: &'a PublicKey,
    cts: &'a [PackedCiphertext],
    monts: Vec<OnceCell<Vec<Limb>>>,
    spec: PackingSpec,
    used: usize,
}

impl<'a> PackedMontInputs<'a> {
    /// Wraps a batch's packed input ciphertexts. All inputs must share
    /// one spec and active slot count. No Montgomery conversion happens
    /// yet: each input converts the first time a dot product reads it.
    pub fn new(pk: &'a PublicKey, cts: &'a [PackedCiphertext]) -> Result<Self, PaillierError> {
        let first = cts.first().ok_or(PaillierError::PackingMismatch)?;
        if cts.iter().any(|c| c.spec != first.spec || c.used != first.used) {
            return Err(PaillierError::PackingMismatch);
        }
        first.spec.check()?;
        first.spec.check_key(pk)?;
        let monts = (0..cts.len()).map(|_| OnceCell::new()).collect();
        Ok(PackedMontInputs { pk, cts, monts, spec: first.spec, used: first.used })
    }

    /// Number of wrapped inputs.
    pub fn len(&self) -> usize {
        self.cts.len()
    }

    /// True when the batch has no inputs.
    pub fn is_empty(&self) -> bool {
        self.cts.is_empty()
    }

    fn mont(&self, i: usize) -> &[Limb] {
        self.monts[i].get_or_init(|| self.pk.ctx().to_mont(self.cts[i].ct.raw()))
    }

    /// The smallest weight a dot product over `terms` (plus a bias slot)
    /// can carry: `1 + Σ|wᵢ|·weight(ctᵢ)`, checked against the budget.
    pub fn natural_weight(&self, terms: &[(usize, i64)]) -> Result<u64, PaillierError> {
        let mut acc: u64 = 1;
        for &(i, w) in terms {
            let contrib = w
                .unsigned_abs()
                .checked_mul(self.cts[i].weight)
                .ok_or(PaillierError::BudgetExceeded {
                    weight: u64::MAX,
                    budget: self.spec.op_budget,
                })?;
            acc = acc.checked_add(contrib).ok_or(PaillierError::BudgetExceeded {
                weight: u64::MAX,
                budget: self.spec.op_budget,
            })?;
        }
        if acc > self.spec.op_budget {
            return Err(PaillierError::BudgetExceeded { weight: acc, budget: self.spec.op_budget });
        }
        Ok(acc)
    }

    /// Fused batched `Σᵢ wᵢ·xᵢ + bias`: slot `j` of the result decodes
    /// to the dot product of batch item `j` — bit-identical to `used`
    /// independent unpacked [`crate::MontInputs::dot_i64`] evaluations.
    pub fn dot_i64(&self, terms: &[(usize, i64)], bias: i64) -> Result<PackedCiphertext, PaillierError> {
        let weight = self.natural_weight(terms)?;
        self.dot_i64_with_weight(terms, bias, weight)
    }

    /// [`Self::dot_i64`] re-centered to a caller-chosen `target` weight
    /// (≥ the natural weight), so every output of a layer can share one
    /// uniform decode offset regardless of its row's weight mass.
    pub fn dot_i64_with_weight(
        &self,
        terms: &[(usize, i64)],
        bias: i64,
        target: u64,
    ) -> Result<PackedCiphertext, PaillierError> {
        let mut row = self.products(terms, bias, target)?;
        // B inverted once: A · B⁻¹.
        if let Some(b) = row.b.as_mut() {
            invert_all_mont(self.pk, &mut [b]);
        }
        self.finish(row)
    }

    /// A layer's dot products, one `(terms, bias)` per output at its
    /// natural weight: each row as in [`Self::dot_i64`], but the rows'
    /// negative-weight products are inverted together with a single
    /// `modinv` (see [`crate::MontInputs::dot_rows`]). Every output is
    /// bit-identical to `dot_i64` on its row.
    pub fn dot_rows<'r>(
        &self,
        rows: impl IntoIterator<Item = (&'r [(usize, i64)], i64)>,
    ) -> Result<Vec<PackedCiphertext>, PaillierError> {
        let mut rows = rows
            .into_iter()
            .map(|(terms, bias)| self.products(terms, bias, self.natural_weight(terms)?))
            .collect::<Result<Vec<_>, _>>()?;
        let mut negatives: Vec<&mut Vec<Limb>> =
            rows.iter_mut().filter_map(|row| row.b.as_mut()).collect();
        invert_all_mont(self.pk, &mut negatives);
        rows.into_iter().map(|row| self.finish(row)).collect()
    }

    /// Validates one row against the layout and evaluates its two
    /// multi-exponentiations.
    fn products(
        &self,
        terms: &[(usize, i64)],
        bias: i64,
        target: u64,
    ) -> Result<RowProducts, PaillierError> {
        let natural = self.natural_weight(terms)?;
        if target < natural {
            return Err(PaillierError::InvalidPacking(format!(
                "target weight {target} below natural weight {natural}"
            )));
        }
        if target > self.spec.op_budget {
            return Err(PaillierError::BudgetExceeded {
                weight: target,
                budget: self.spec.op_budget,
            });
        }
        let bound = self.spec.value_bound();
        if bias <= -bound || bias >= bound {
            return Err(PaillierError::MessageOutOfRange);
        }
        // S = Σ wᵢ·weight(ctᵢ): the signed offset mass the raw product
        // accumulates, to be re-centered to `target`.
        let offset_mass: i128 =
            terms.iter().map(|&(i, w)| w as i128 * self.cts[i].weight as i128).sum();
        // δ = bias + (target − S)·2B per active slot: one g-power fixes
        // both the bias and the offset re-centering.
        let delta = (target as i128)
            .checked_sub(offset_mass)
            .and_then(|d| d.checked_mul(self.spec.offset() as i128))
            .and_then(|d| d.checked_add(bias as i128))
            .ok_or(PaillierError::InvalidPacking("offset correction overflow".into()))?;
        let (a, b) = signed_products(self.pk.ctx(), terms, |i| self.mont(i));
        Ok(RowProducts { a, b, delta, weight: target })
    }

    /// `A · B⁻¹ · g^{δ·ones}` out of the Montgomery domain; `row.b` has
    /// been inverted.
    fn finish(&self, row: RowProducts) -> Result<PackedCiphertext, PaillierError> {
        let ctx = self.pk.ctx();
        let mut acc = row.a;
        let mut scratch = ctx.scratch();
        if let Some(b_inv) = &row.b {
            ctx.mont_mul_inplace(&mut acc, b_inv, &mut scratch);
        }
        if row.delta != 0 {
            let residue = signed_broadcast_residue(
                self.pk,
                &self.spec,
                self.used,
                row.delta.unsigned_abs(),
                row.delta < 0,
            )?;
            let gd_m = ctx.to_mont(&self.pk.g_pow_encoded(&residue));
            ctx.mont_mul_inplace(&mut acc, &gd_m, &mut scratch);
        }
        Ok(PackedCiphertext {
            ct: Ciphertext::new(ctx.from_mont(&acc)),
            spec: self.spec,
            used: self.used,
            weight: row.weight,
        })
    }
}

/// One packed dot row between its multi-exponentiations and its
/// inversion: `A`, `B` (Montgomery form), the per-slot correction `δ`
/// and the weight the result will carry.
struct RowProducts {
    a: Vec<Limb>,
    b: Option<Vec<Limb>>,
    delta: i128,
    weight: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Keypair, MontInputs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(budget: u64) -> (Keypair, PackingSpec, StdRng) {
        let mut rng = StdRng::seed_from_u64(80);
        let kp = Keypair::generate(256, &mut rng);
        let spec = PackingSpec::for_key(&kp.public(), 32).unwrap().with_budget(budget);
        (kp, spec, rng)
    }

    #[test]
    fn spec_capacity_and_bounds() {
        let (_, spec, _) = setup(16);
        assert!(spec.slots >= 5, "slots = {}", spec.slots);
        // s=32, W=16 → bound 2^(32-2-4) = 2^26.
        assert_eq!(spec.value_bound(), 1 << 26);
        let tight = spec.with_budget(1024);
        assert_eq!(tight.value_bound(), 1 << 20);
    }

    #[test]
    fn pack_roundtrip() {
        let (kp, spec, mut rng) = setup(16);
        let values = vec![0i64, 1, -1, 123_456, -654_321];
        let packed = PackedCiphertext::encrypt(&kp.public(), spec, &values, &mut rng).unwrap();
        assert_eq!(packed.decrypt(&kp.private()).unwrap(), values);
    }

    #[test]
    fn decrypt_all_matches_decrypt_per_position() {
        let (kp, spec, mut rng) = setup(16);
        let (pk, sk) = (kp.public(), kp.private());
        let positions: Vec<PackedCiphertext> = (0..5i64)
            .map(|a| {
                let values = [a, -a * 7, 123_456 - a, 0];
                PackedCiphertext::encrypt(&pk, spec, &values, &mut rng).unwrap()
            })
            .collect();
        let want: Vec<Vec<i128>> = positions
            .iter()
            .map(|p| p.decrypt(&sk).unwrap().into_iter().map(i128::from).collect())
            .collect();
        for workers in [WorkerPool::new(2), WorkerPool::inline()] {
            assert_eq!(PackedCiphertext::decrypt_all(&positions, &sk, &workers).unwrap(), want);
            assert!(PackedCiphertext::decrypt_all(&[], &sk, &workers).unwrap().is_empty());
        }
    }

    #[test]
    fn packed_addition_is_slotwise() {
        let (kp, spec, mut rng) = setup(16);
        let a = vec![10i64, -20, 30];
        let b = vec![1i64, 2, -3];
        let pa = PackedCiphertext::encrypt(&kp.public(), spec, &a, &mut rng).unwrap();
        let pb = PackedCiphertext::encrypt(&kp.public(), spec, &b, &mut rng).unwrap();
        let sum = pa.add(&kp.public(), &pb).unwrap();
        assert_eq!(sum.decrypt(&kp.private()).unwrap(), vec![11, -18, 27]);
    }

    #[test]
    fn packed_uniform_scaling() {
        let (kp, spec, mut rng) = setup(1024);
        let v = vec![5i64, -7, 0, 100];
        let p = PackedCiphertext::encrypt(&kp.public(), spec, &v, &mut rng).unwrap();
        let scaled = p.mul_uniform(&kp.public(), 1000).unwrap();
        assert_eq!(scaled.decrypt(&kp.private()).unwrap(), vec![5000, -7000, 0, 100_000]);
    }

    #[test]
    fn add_then_scale_composes() {
        let (kp, spec, mut rng) = setup(16);
        let a = PackedCiphertext::encrypt(&kp.public(), spec, &[3, -4], &mut rng).unwrap();
        let b = PackedCiphertext::encrypt(&kp.public(), spec, &[10, 20], &mut rng).unwrap();
        let r = a
            .add(&kp.public(), &b)
            .unwrap()
            .mul_uniform(&kp.public(), 7)
            .unwrap();
        assert_eq!(r.decrypt(&kp.private()).unwrap(), vec![91, 112]);
    }

    #[test]
    fn many_additions_within_budget() {
        let (kp, spec, mut rng) = setup(16);
        let mut acc = PackedCiphertext::encrypt(&kp.public(), spec, &[1, -1], &mut rng).unwrap();
        for i in 2..=10i64 {
            let next =
                PackedCiphertext::encrypt(&kp.public(), spec, &[i, -i], &mut rng).unwrap();
            acc = acc.add(&kp.public(), &next).unwrap();
        }
        // Σ 1..10 = 55.
        assert_eq!(acc.decrypt(&kp.private()).unwrap(), vec![55, -55]);
    }

    #[test]
    fn budget_enforced_with_typed_error() {
        let (kp, spec, mut rng) = setup(2);
        let a = PackedCiphertext::encrypt(&kp.public(), spec, &[1], &mut rng).unwrap();
        let b = PackedCiphertext::encrypt(&kp.public(), spec, &[2], &mut rng).unwrap();
        let sum = a.add(&kp.public(), &b).unwrap(); // weight 2 == budget
        let c = PackedCiphertext::encrypt(&kp.public(), spec, &[3], &mut rng).unwrap();
        assert_eq!(
            sum.add(&kp.public(), &c).unwrap_err(),
            PaillierError::BudgetExceeded { weight: 3, budget: 2 },
            "third add exceeds the budget"
        );
        assert_eq!(
            a.mul_uniform(&kp.public(), 3).unwrap_err(),
            PaillierError::BudgetExceeded { weight: 3, budget: 2 },
            "scale 3 exceeds the budget"
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let (kp, spec, mut rng) = setup(16);
        let too_big = spec.value_bound();
        assert!(PackedCiphertext::encrypt(&kp.public(), spec, &[too_big], &mut rng).is_err());
        assert!(
            PackedCiphertext::encrypt(&kp.public(), spec, &[i64::MIN], &mut rng).is_err(),
            "i64::MIN must not wrap the range check"
        );
        let too_many = vec![1i64; spec.slots + 1];
        assert!(PackedCiphertext::encrypt(&kp.public(), spec, &too_many, &mut rng).is_err());
    }

    #[test]
    fn mismatched_specs_and_slots_rejected() {
        let (kp, spec, mut rng) = setup(16);
        let other_spec = PackingSpec { slot_bits: 16, slots: 4, op_budget: 16 };
        let a = PackedCiphertext::encrypt(&kp.public(), spec, &[1], &mut rng).unwrap();
        let b = PackedCiphertext::encrypt(&kp.public(), other_spec, &[1], &mut rng).unwrap();
        assert_eq!(a.add(&kp.public(), &b).unwrap_err(), PaillierError::PackingMismatch);
        // Same spec, different active slot counts: a silent max() here
        // would decode garbage, so it must be a typed error.
        let c = PackedCiphertext::encrypt(&kp.public(), spec, &[1, 2], &mut rng).unwrap();
        assert_eq!(a.add(&kp.public(), &c).unwrap_err(), PaillierError::PackingMismatch);
    }

    #[test]
    fn for_key_boundary_slot_widths() {
        let (kp, _, _) = setup(16);
        let pk = kp.public();
        let usable = pk.bits() - 2;
        assert!(matches!(
            PackingSpec::for_key(&pk, 0),
            Err(PaillierError::InvalidPacking(_))
        ));
        assert!(matches!(
            PackingSpec::for_key(&pk, usable + 1),
            Err(PaillierError::InvalidPacking(_))
        ));
        // Widest supported slot on this key: two slots at 100 bits.
        let wide = PackingSpec::for_key(&pk, 100).unwrap();
        assert_eq!(wide.slots, 2);
        // Too narrow to hold the default budget's guard bits.
        assert!(matches!(
            PackingSpec::for_key(&pk, 4),
            Err(PaillierError::InvalidPacking(_))
        ));
    }

    #[test]
    fn budget_arithmetic_near_u64_overflow() {
        let (kp, spec, mut rng) = setup(16);
        // A budget of u64::MAX forces ⌈log₂W⌉ ≈ 64 guard bits into a
        // 32-bit slot: every operation must fail typed, never wrap.
        let huge = spec.with_budget(u64::MAX);
        assert!(matches!(huge.check(), Err(PaillierError::InvalidPacking(_))));
        assert!(PackedCiphertext::encrypt(&kp.public(), huge, &[1], &mut rng).is_err());

        // Weight arithmetic overflow (not just budget comparison) on a
        // wide-slot spec with a near-max budget.
        let wide = PackingSpec { slot_bits: 80, slots: 3, op_budget: u64::MAX / 2 };
        wide.check().unwrap();
        let a = PackedCiphertext::encrypt(&kp.public(), wide, &[7, -9], &mut rng).unwrap();
        let big = a.mul_uniform(&kp.public(), 1 << 40).unwrap();
        assert_eq!(
            big.mul_uniform(&kp.public(), 1 << 40).unwrap_err(),
            PaillierError::BudgetExceeded { weight: u64::MAX, budget: u64::MAX / 2 },
            "u64 overflow in weight arithmetic must saturate into a typed error"
        );
        assert_eq!(big.decrypt(&kp.private()).unwrap(), vec![7 << 40, -9 << 40]);
    }

    #[test]
    fn mul_signed_recenters() {
        let (kp, spec, mut rng) = setup(64);
        let v = vec![5i64, -7, 0, 100];
        let p = PackedCiphertext::encrypt(&kp.public(), spec, &v, &mut rng).unwrap();
        let neg = p.mul_signed(&kp.public(), -3).unwrap();
        assert_eq!(neg.weight(), 3);
        assert_eq!(neg.decrypt(&kp.private()).unwrap(), vec![-15, 21, 0, -300]);
        let zero = p.mul_signed(&kp.public(), 0).unwrap();
        assert_eq!(zero.weight(), 0);
        assert_eq!(zero.decrypt(&kp.private()).unwrap(), vec![0, 0, 0, 0]);
        let pos = p.mul_signed(&kp.public(), 4).unwrap();
        assert_eq!(pos.decrypt(&kp.private()).unwrap(), vec![20, -28, 0, 400]);
    }

    #[test]
    fn constant_and_raise_weight() {
        let (kp, spec, mut rng) = setup(16);
        let c = PackedCiphertext::constant(&kp.public(), spec, 3, -42).unwrap();
        assert_eq!(c.weight(), 1);
        assert_eq!(c.decrypt(&kp.private()).unwrap(), vec![-42, -42, -42]);

        let p = PackedCiphertext::encrypt(&kp.public(), spec, &[9, -9, 9], &mut rng).unwrap();
        let lifted = p.raise_weight(&kp.public(), 5).unwrap();
        assert_eq!(lifted.weight(), 5);
        assert_eq!(lifted.decrypt(&kp.private()).unwrap(), vec![9, -9, 9]);
        // Lifted operands still add with plain ones of the same weight.
        let sum = lifted.add(&kp.public(), &c.raise_weight(&kp.public(), 5).unwrap()).unwrap();
        assert_eq!(sum.decrypt(&kp.private()).unwrap(), vec![-33, -51, -33]);
        assert!(p.raise_weight(&kp.public(), 0).is_err(), "weights never lower");
        assert!(matches!(
            p.raise_weight(&kp.public(), 17).unwrap_err(),
            PaillierError::BudgetExceeded { weight: 17, budget: 16 }
        ));
    }

    #[test]
    fn from_parts_validates_metadata() {
        let (kp, spec, mut rng) = setup(16);
        let p = PackedCiphertext::encrypt(&kp.public(), spec, &[1, 2], &mut rng).unwrap();
        let ok = PackedCiphertext::from_parts(&kp.public(), p.ct.clone(), spec, 2, 1).unwrap();
        assert_eq!(ok.decrypt(&kp.private()).unwrap(), vec![1, 2]);
        assert!(matches!(
            PackedCiphertext::from_parts(&kp.public(), p.ct.clone(), spec, spec.slots + 1, 1),
            Err(PaillierError::InvalidPacking(_))
        ));
        assert!(matches!(
            PackedCiphertext::from_parts(&kp.public(), p.ct.clone(), spec, 2, 17),
            Err(PaillierError::BudgetExceeded { weight: 17, budget: 16 })
        ));
    }

    #[test]
    fn packed_dot_matches_independent_unpacked_dots() {
        let (kp, spec, mut rng) = setup(1 << 14);
        let pk = kp.public();
        // 4 activations × 3 batch items, batch-major in the slots.
        let acts: Vec<Vec<i64>> = vec![
            vec![120, -45, 300],
            vec![-7, 0, 99],
            vec![1000, 1000, -1000],
            vec![0, 5, -5],
        ];
        let packs: Vec<PackedCiphertext> = acts
            .iter()
            .map(|row| PackedCiphertext::encrypt(&pk, spec, row, &mut rng).unwrap())
            .collect();
        let inputs = PackedMontInputs::new(&pk, &packs).unwrap();
        for (terms, bias) in [
            (vec![(0usize, 3i64), (1, -2), (2, 7), (3, 1)], 17i64),
            (vec![(0, -1), (1, -4), (2, -2), (3, -8)], -9), // all-negative
            (vec![(0, 0), (1, 0), (2, 0), (3, 0)], 5),      // zero-weight row
            (vec![], 0),
        ] {
            let packed = inputs.dot_i64(&terms, bias).unwrap();
            let got = packed.decrypt(&kp.private()).unwrap();
            for (j, &g) in got.iter().enumerate() {
                let cts: Vec<Ciphertext> = acts
                    .iter()
                    .map(|row| pk.encrypt_i64(row[j], &mut rng))
                    .collect();
                let want = kp
                    .private()
                    .decrypt_i64(&MontInputs::new(&pk, &cts).dot_i64(&terms, bias));
                assert_eq!(g, want, "slot {j}, terms {terms:?}");
            }
        }
    }

    #[test]
    fn packed_dot_rows_matches_per_row_dot_with_one_inversion() {
        use crate::dot::MODINVS;
        let (kp, spec, mut rng) = setup(1 << 14);
        let pk = kp.public();
        let packs: Vec<PackedCiphertext> = [[120i64, -45, 300], [-7, 0, 99], [1000, 1000, -1000]]
            .iter()
            .map(|row| PackedCiphertext::encrypt(&pk, spec, row, &mut rng).unwrap())
            .collect();
        let inputs = PackedMontInputs::new(&pk, &packs).unwrap();
        let rows: Vec<(Vec<(usize, i64)>, i64)> = vec![
            (vec![(0, 3), (1, -2), (2, 7)], 17),
            (vec![], 4),
            (vec![(0, -1), (1, -4), (2, -2)], -9),
            (vec![(0, 0), (2, 5)], 0),
            (vec![(1, -8)], 1),
        ];
        let before = MODINVS.with(|c| c.get());
        let batched = inputs.dot_rows(rows.iter().map(|(t, b)| (t.as_slice(), *b))).unwrap();
        assert_eq!(MODINVS.with(|c| c.get()) - before, 1, "three negative rows, one inversion");
        for (j, ((terms, bias), got)) in rows.iter().zip(&batched).enumerate() {
            let want = inputs.dot_i64(terms, *bias).unwrap();
            assert_eq!(got.ct.raw(), want.ct.raw(), "row {j}");
            assert_eq!(got.weight(), want.weight(), "row {j}");
        }
        // One row over budget fails the layer, typed, as per-row does.
        let heavy = [(vec![(0usize, 1i64)], 0i64), (vec![(0, 1 << 14)], 0)];
        assert!(matches!(
            inputs.dot_rows(heavy.iter().map(|(t, b)| (t.as_slice(), *b))),
            Err(PaillierError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn packed_dot_target_weight_uniformity() {
        let (kp, spec, mut rng) = setup(1 << 10);
        let pk = kp.public();
        let packs: Vec<PackedCiphertext> = [[10i64, -10], [20, 5]]
            .iter()
            .map(|row| PackedCiphertext::encrypt(&pk, spec, row, &mut rng).unwrap())
            .collect();
        let inputs = PackedMontInputs::new(&pk, &packs).unwrap();
        let light = inputs.dot_i64_with_weight(&[(0, 1)], 0, 100).unwrap();
        let heavy = inputs.dot_i64_with_weight(&[(0, 3), (1, -5)], 2, 100).unwrap();
        assert_eq!(light.weight(), 100);
        assert_eq!(heavy.weight(), 100);
        // Uniform weights make rows of one layer mutually addable.
        let sum = light.add(&pk, &heavy).unwrap();
        assert_eq!(sum.decrypt(&kp.private()).unwrap(), vec![10 - 68, -10 - 53]);
        assert!(
            inputs.dot_i64_with_weight(&[(0, 3), (1, -5)], 2, 4).is_err(),
            "target below natural weight must fail"
        );
    }

    #[test]
    fn packing_saves_ciphertexts() {
        // The point of the exercise: one ciphertext instead of `slots`.
        let (kp, spec, mut rng) = setup(16);
        let values: Vec<i64> = (0..spec.slots as i64).collect();
        let packed = PackedCiphertext::encrypt(&kp.public(), spec, &values, &mut rng).unwrap();
        let packed_bytes = packed.ct.to_bytes().len();
        let individual_bytes: usize = values
            .iter()
            .map(|&v| kp.public().encrypt_i64(v, &mut rng).to_bytes().len())
            .sum();
        assert!(
            packed_bytes * 2 < individual_bytes,
            "packed {packed_bytes} vs individual {individual_bytes}"
        );
    }
}
