//! Batch-packed execution: a whole batch of requests rides in the slots
//! of each ciphertext.
//!
//! The layout is *batch-major*: slot `j` of packed ciphertext `i` holds
//! activation `i` of request `j` (DESIGN.md §8). One homomorphic linear
//! pass then serves the entire batch — the Straus multi-exponentiation
//! in [`PackedMontInputs`] computes every request's dot product at once,
//! amortizing the `O(key_bits)` squarings that dominate unpacked cost.
//!
//! The module supplies the data provider's three legs of the packed
//! round trip; the model provider's linear round is the per-item one
//! ([`crate::protocol::LinearStage`]), run over [`PackedEncCtx`]:
//!
//! * [`pack_plain_batch`] — data provider: gather a batch of scaled
//!   plaintext tensors into one [`PackedTensorMsg`] (encrypt once per
//!   tensor *position*, not per request);
//! * [`repack_nonlinear`] — data provider: decrypt each position, apply
//!   the stage's element-wise non-linear ops to the slot values, and
//!   re-encrypt at weight 1;
//! * [`unpack_final`] — data provider: scatter the final decrypted
//!   positions back into one [`PlainTensorMsg`] per request.
//!
//! Because every slot sees exactly the arithmetic the unpacked protocol
//! would apply to that request (same weights, same rescales, same
//! rounding on the same `i128` values), a packed run is bit-identical to
//! the per-request baseline.

use crate::encapsulate::{MergedStage, StageRole};
use crate::messages::{PackedTensorMsg, PlainTensorMsg};
use crate::protocol::{mix, NonLinearStage, RoundBackend};
use pp_nn::scaling::ScaledOp;
use pp_paillier::packing::{PackedCiphertext, PackedMontInputs, PackingSpec};
use pp_paillier::{
    shared_refill_cache, Ciphertext, PaillierError, PrivateKey, PublicKey, RandomnessPool,
};
use pp_stream_runtime::pool::WorkerPool;
use pp_tensor::LinearAlgebra;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Packed rounds share the per-connection [`crate::protocol::PermStore`]
/// with unpacked requests. A batch's permutations are stored under its
/// first member's sequence number with this bit set, which cannot
/// collide with any per-request key: `u64::MAX / 2` requests would have
/// to be in flight first.
pub(crate) const PACKED_PERM_BIT: u64 = 1 << 63;

/// The [`LinearAlgebra`] back-end over batch-packed ciphertexts — the
/// packed sibling of [`crate::encctx::EncCtx`]. The same layer kernels
/// (`conv2d`, `fully_connected`, …) run unchanged; every element-level
/// operation transparently applies to all `used` slots at once.
///
/// Operations panic when the packing invariant would break (mismatched
/// layouts, op-budget overflow). Sessions size the budget up front with
/// [`required_budget`], so a panic here means a negotiation bug; the
/// serving loop backstops it with `catch_unwind` and aborts the batch
/// instead of the connection.
pub struct PackedEncCtx<'a> {
    pub pk: &'a PublicKey,
    pub spec: PackingSpec,
    /// Active slots (= batch size) in every operand.
    pub used: usize,
}

impl LinearAlgebra for PackedEncCtx<'_> {
    type Elem = PackedCiphertext;
    type Weight = i64;

    fn mul(&self, w: i64, x: &PackedCiphertext) -> PackedCiphertext {
        x.mul_signed(self.pk, w).expect("packed scalar multiply within op budget")
    }

    fn add(&self, a: &PackedCiphertext, b: &PackedCiphertext) -> PackedCiphertext {
        a.add(self.pk, b).expect("packed add on matching layouts within op budget")
    }

    fn constant(&self, w: i64) -> PackedCiphertext {
        PackedCiphertext::constant(self.pk, self.spec, self.used, w)
            .expect("packed constant within value bound")
    }

    fn dot(
        &self,
        elems: &[PackedCiphertext],
        terms: &[(usize, i64)],
        bias: i64,
    ) -> PackedCiphertext {
        PackedMontInputs::new(self.pk, elems)
            .expect("packed dot inputs share one layout")
            .dot_i64(terms, bias)
            .expect("packed dot within op budget")
    }

    fn dot_rows(
        &self,
        elems: &[PackedCiphertext],
        rows: &[pp_tensor::DotRow<i64>],
    ) -> Vec<PackedCiphertext> {
        PackedMontInputs::new(self.pk, elems)
            .expect("packed dot inputs share one layout")
            .dot_rows(rows.iter().map(|r| (r.terms.as_slice(), r.bias)))
            .expect("packed dots within op budget")
    }
}

/// The owned form of a [`PackedEncCtx`] that the linear round's worker
/// tasks carry. An element travels to a task as its weight followed by
/// its ciphertext: inside a stage weights differ between elements
/// (padded conv edges, zero weights) until the reply equalizes them.
#[derive(Clone)]
pub(crate) struct PackedBackend {
    pub(crate) pk: PublicKey,
    pub(crate) spec: PackingSpec,
    pub(crate) used: usize,
}

impl PackedBackend {
    fn elem(&self, ct: Ciphertext, weight: u64) -> PackedCiphertext {
        PackedCiphertext::from_parts(&self.pk, ct, self.spec, self.used, weight)
            .expect("layout validated when the message was reassembled")
    }
}

impl RoundBackend for PackedBackend {
    type Elem = PackedCiphertext;
    type Ctx<'a> = PackedEncCtx<'a>;

    fn ctx(&self) -> PackedEncCtx<'_> {
        PackedEncCtx { pk: &self.pk, spec: self.spec, used: self.used }
    }
    fn task_bytes(elem: &PackedCiphertext) -> Vec<u8> {
        let mut bytes = elem.weight().to_le_bytes().to_vec();
        bytes.extend_from_slice(&elem.ct.to_bytes());
        bytes
    }
    fn read_task_bytes(&self, bytes: &[u8]) -> PackedCiphertext {
        let (weight, ct) = bytes.split_at(8);
        let weight = u64::from_le_bytes(weight.try_into().expect("split at 8"));
        self.elem(Ciphertext::from_bytes(ct), weight)
    }
    fn placeholder(&self) -> PackedCiphertext {
        self.elem(Ciphertext::new(pp_bigint::BigUint::zero()), 0)
    }
}

/// The smallest op budget `W` that keeps every linear stage of `stages`
/// within the packed weight invariant, assuming weight-1 inputs per
/// stage (non-linear stages re-encrypt fresh between linear rounds).
///
/// Per op the simulation tracks the worst-case accumulated weight `u`
/// of any output element (bias constants count one unit, dot products
/// `1 + Σ|wᵢ|·u`, sum-pools `u·window²`), saturating on overflow — so
/// the result can only *over*-provision, never under. Conv2d uses the
/// full-kernel mass per output channel; zero-padded edge taps only
/// shrink the true weight.
pub fn required_budget(stages: &[MergedStage]) -> u64 {
    let mut worst = 1u64;
    for stage in stages.iter().filter(|s| s.role == StageRole::Linear) {
        let mut u = 1u64;
        for op in &stage.ops {
            u = match op {
                ScaledOp::Dense { weights, .. } => {
                    let in_features = weights.shape().dims()[1].max(1);
                    weights
                        .data()
                        .chunks(in_features)
                        .map(|row| abs_mass(row, u))
                        .max()
                        .unwrap_or(1)
                }
                ScaledOp::Conv2d { spec, weights, .. } => {
                    let per_oc = weights.data().len() / spec.out_channels.max(1);
                    weights
                        .data()
                        .chunks(per_oc.max(1))
                        .map(|taps| abs_mass(taps, u))
                        .max()
                        .unwrap_or(1)
                }
                ScaledOp::Affine { scale, .. } => scale
                    .iter()
                    .map(|s| 1u64.saturating_add(s.unsigned_abs().saturating_mul(u)))
                    .max()
                    .unwrap_or(u),
                ScaledOp::ScaleMul { alpha } => alpha.unsigned_abs().saturating_mul(u).max(1),
                ScaledOp::SumPool { window, .. } => {
                    let taps = (*window as u64).saturating_mul(*window as u64);
                    u.saturating_mul(taps).max(1)
                }
                ScaledOp::Flatten => u,
                // Non-linear ops never appear in linear stages
                // (encapsulation guarantees it); they reset u anyway.
                _ => u,
            };
            worst = worst.max(u);
        }
    }
    worst
}

/// `1 + Σ|wᵢ|·input_weight` — one dot row's packed weight, saturating.
fn abs_mass(weights: &[i64], input_weight: u64) -> u64 {
    weights.iter().fold(1u64, |acc, &w| {
        acc.saturating_add(w.unsigned_abs().saturating_mul(input_weight))
    })
}

/// Narrowest slot a folded reply is laid out in, the widening step, and
/// the widest slot tried.
const FOLD_SLOT_BITS: std::ops::RangeInclusive<usize> = 64..=112;
const FOLD_SLOT_STEP: usize = 16;
/// Slots widen only while the layout's value bound is below this: under
/// it an ordinary activation at an ordinary scaling factor would already
/// send its round unfolded.
const FOLD_MIN_VALUE_BOUND: i64 = 1 << 40;

/// The slot layout the model provider folds its linear replies into
/// (DESIGN.md §8), or `None` when it folds nothing: a pure function of
/// the client's key and the model, so every accept of a session —
/// resumes included — announces the same one and nothing is stored.
///
/// The op budget is [`required_budget`]: if every plaintext entering a
/// linear stage is inside the layout's value bound `B` (the client says
/// so per request) and every bias and shift is too (checked here), then
/// every output is within `±W·(B−1)` — a slot at weight `W`. Slots are
/// 64 bits wide unless that leaves `B` below [`FOLD_MIN_VALUE_BOUND`].
pub(crate) fn fold_layout(pk: &PublicKey, stages: &[MergedStage]) -> Option<PackingSpec> {
    let budget = required_budget(stages);
    // Every width the key and the budget's guard bits allow, narrowest
    // first: take the first with bound enough, else the widest.
    let candidates: Vec<PackingSpec> = FOLD_SLOT_BITS
        .step_by(FOLD_SLOT_STEP)
        .map_while(|slot_bits| PackingSpec::for_key(pk, slot_bits).ok())
        .map(|spec| spec.with_budget(budget))
        .filter(|spec| spec.check().is_ok())
        .collect();
    let spec = *candidates
        .iter()
        .find(|spec| spec.value_bound() >= FOLD_MIN_VALUE_BOUND)
        .or(candidates.last())?;
    (largest_constant(stages) < spec.value_bound().unsigned_abs()).then_some(spec)
}

/// The largest `|bias|` or `|shift|` any linear stage adds.
fn largest_constant(stages: &[MergedStage]) -> u64 {
    stages
        .iter()
        .filter(|s| s.role == StageRole::Linear)
        .flat_map(|s| &s.ops)
        .flat_map(|op| match op {
            ScaledOp::Dense { bias, .. } | ScaledOp::Conv2d { bias, .. } => bias.as_slice(),
            ScaledOp::Affine { shift, .. } => shift.as_slice(),
            _ => &[],
        })
        .map(|c| c.unsigned_abs())
        .max()
        .unwrap_or(0)
}

/// The packing layout a wire message claims to use.
pub(crate) fn msg_spec(msg: &PackedTensorMsg) -> PackingSpec {
    PackingSpec {
        slot_bits: msg.slot_bits as usize,
        slots: msg.slots as usize,
        op_budget: msg.op_budget,
    }
}

/// Revalidates and reassembles every packed ciphertext of a wire
/// message ([`PackedCiphertext::from_parts`] checks layout, key
/// capacity, and budget).
pub(crate) fn reassemble(
    pk: &PublicKey,
    msg: &PackedTensorMsg,
) -> Result<Vec<PackedCiphertext>, PaillierError> {
    let spec = msg_spec(msg);
    msg.cts
        .iter()
        .map(|b| {
            PackedCiphertext::from_parts(pk, Ciphertext::from_bytes(b), spec, msg.seqs.len(), msg.weight)
        })
        .collect()
}

/// Data provider: packs one batch of scaled plaintext tensors into a
/// single [`PackedTensorMsg`] at weight 1. All members must share one
/// shape; member `j`'s activations land in slot `j` of every ciphertext.
/// Blinding factors come from the randomness pool (misses counted), the
/// derivation seed follows the unpacked [`crate::protocol::EncryptStage`]
/// convention keyed by the first member's sequence number.
pub(crate) fn pack_plain_batch(
    spec: PackingSpec,
    plains: &[PlainTensorMsg],
    rand_pool: &mut RandomnessPool,
    seed: u64,
) -> Result<PackedTensorMsg, PaillierError> {
    let first = plains
        .first()
        .ok_or_else(|| PaillierError::InvalidPacking("empty packed batch".into()))?;
    if plains.len() > spec.slots {
        return Err(PaillierError::InvalidPacking(format!(
            "batch of {} exceeds {} slots",
            plains.len(),
            spec.slots
        )));
    }
    let n = first.values.len();
    if plains.iter().any(|p| p.shape != first.shape || p.values.len() != n) {
        return Err(PaillierError::PackingMismatch);
    }
    let mut rng = StdRng::seed_from_u64(mix(seed ^ first.seq.wrapping_mul(0x517c_c1b7)));
    let mut slots = vec![0i64; plains.len()];
    let mut cts = Vec::with_capacity(n);
    for a in 0..n {
        for (j, p) in plains.iter().enumerate() {
            slots[j] =
                i64::try_from(p.values[a]).map_err(|_| PaillierError::MessageOutOfRange)?;
        }
        let packed = rand_pool.encrypt_packed(spec, &slots, &mut rng)?;
        cts.push(packed.ct.to_bytes());
    }
    Ok(PackedTensorMsg {
        seqs: plains.iter().map(|p| p.seq).collect(),
        shape: first.shape.clone(),
        obfuscated: false,
        slot_bits: spec.slot_bits as u32,
        slots: spec.slots as u32,
        op_budget: spec.op_budget,
        weight: 1,
        cts,
    })
}

/// Data provider: validates every position of a packed message against
/// the key and the negotiated layout, then decrypts them all in one
/// worker dispatch. Each inner vector holds one position's slot values.
fn decrypt_positions(
    msg: &PackedTensorMsg,
    pk: &PublicKey,
    sk: &PrivateKey,
    workers: &WorkerPool,
) -> Result<Vec<Vec<i128>>, PaillierError> {
    PackedCiphertext::decrypt_all(&reassemble(pk, msg)?, sk, workers)
}

/// Data provider, mid-pipeline: decrypt every packed position, apply the
/// stage's element-wise non-linear ops to the slot values (the identical
/// `i128` math as [`NonLinearStage::apply_ops`] on the unpacked path),
/// and re-encrypt at weight 1 for the next linear stage.
///
/// Positions re-encrypt in parallel, each on an rng seeded from
/// `(nl.seed, first seq | PACKED_PERM_BIT, position)`: a position's
/// bytes are a pure function of its address, as on the unpacked leg.
pub(crate) fn repack_nonlinear(
    nl: &NonLinearStage,
    msg: PackedTensorMsg,
    workers: &WorkerPool,
) -> Result<PackedTensorMsg, PaillierError> {
    if msg.seqs.is_empty() {
        return Err(PaillierError::InvalidPacking("empty packed batch".into()));
    }
    let spec = msg_spec(&msg);
    let pk = nl.keypair.public();
    let sk = nl.keypair.private();
    let mut positions: Vec<Vec<i64>> = Vec::with_capacity(msg.cts.len());
    for mut vals in decrypt_positions(&msg, &pk, &sk, workers)? {
        nl.apply_ops(&mut vals);
        positions.push(
            vals.iter()
                .map(|&v| i64::try_from(v).map_err(|_| PaillierError::MessageOutOfRange))
                .collect::<Result<_, _>>()?,
        );
    }
    let base = shared_refill_cache().get(&pk);
    let packed_key = msg.seqs[0] | PACKED_PERM_BIT;
    let seed = mix(nl.seed ^ mix(packed_key).rotate_left(17));
    let positions = Arc::new(positions);
    let cts = workers
        .map_ranges(positions.len(), move |r| {
            r.map(|i| {
                let mut rng = StdRng::seed_from_u64(mix(seed ^ i as u64));
                base.encrypt_packed(&pk, spec, &positions[i], &mut rng).map(|c| c.ct.to_bytes())
            })
            .collect()
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
    Ok(PackedTensorMsg {
        seqs: msg.seqs,
        shape: msg.shape,
        obfuscated: msg.obfuscated,
        slot_bits: spec.slot_bits as u32,
        slots: spec.slots as u32,
        op_budget: spec.op_budget,
        weight: 1,
        cts,
    })
}

/// Data provider, final round: decrypt every position, apply the final
/// stage's ops, and scatter slot `j` of each position into request `j`'s
/// [`PlainTensorMsg`] (Steps 3.5–3.7, batch-wide).
pub(crate) fn unpack_final(
    nl: &NonLinearStage,
    msg: PackedTensorMsg,
    workers: &WorkerPool,
) -> Result<Vec<PlainTensorMsg>, PaillierError> {
    if msg.seqs.is_empty() {
        return Err(PaillierError::InvalidPacking("empty packed batch".into()));
    }
    if msg.obfuscated {
        return Err(PaillierError::InvalidPacking(
            "final packed round arrived obfuscated (Step 3.4 violation)".into(),
        ));
    }
    if msg.cts.is_empty() {
        return Err(PaillierError::InvalidPacking(
            "packed batch without ciphertexts".into(),
        ));
    }
    let pk = nl.keypair.public();
    let sk = nl.keypair.private();
    // The scatter buffers are sized `seqs × cts` — both attacker-chosen —
    // so allocation waits until `from_parts` has bounded the member
    // count by the slot count and the slot count by the key capacity.
    let decrypted = decrypt_positions(&msg, &pk, &sk, workers)?;
    let mut per_item: Vec<Vec<i128>> =
        vec![Vec::with_capacity(msg.cts.len()); msg.seqs.len()];
    for mut vals in decrypted {
        nl.apply_ops(&mut vals);
        for (item, &v) in per_item.iter_mut().zip(vals.iter()) {
            item.push(v);
        }
    }
    Ok(msg
        .seqs
        .iter()
        .zip(per_item)
        .map(|(&seq, values)| PlainTensorMsg { seq, shape: msg.shape.clone(), values })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{linear_execs, nonlinear_execs, LinearStage, PartitionMode};
    use pp_paillier::Keypair;
    use pp_stream_runtime::WorkerPool;
    use pp_tensor::ops as plain_ops;
    use pp_tensor::ops::Conv2dSpec;
    use pp_tensor::{PlainI64, Shape, Tensor};

    fn keypair(seed: u64) -> Keypair {
        let mut rng = StdRng::seed_from_u64(seed);
        Keypair::generate(256, &mut rng)
    }

    /// `stage` as a model's only linear stage: first and last, so its
    /// round neither inverts nor draws a permutation.
    fn linear_exec(kp: &Keypair, stage: MergedStage) -> LinearStage {
        linear_execs(&[stage], &kp.public(), 7, PartitionMode::Partitioned).remove(0)
    }

    #[test]
    fn required_budget_tracks_abs_weight_mass() {
        let dense = |rows: Vec<Vec<i64>>| {
            let out = rows.len();
            let inn = rows[0].len();
            ScaledOp::Dense {
                weights: Tensor::from_vec(vec![out, inn], rows.concat()).unwrap(),
                bias: vec![0; out],
            }
        };
        let stage = |ops: Vec<ScaledOp>, n: usize| MergedStage {
            role: StageRole::Linear,
            ops,
            input_shape: Shape::vector(n),
            output_shape: Shape::vector(n),
        };

        // One dense: worst row is 1 + |3| + |-4| = 8.
        let s = stage(vec![dense(vec![vec![3, -4], vec![1, 1]])], 2);
        assert_eq!(required_budget(std::slice::from_ref(&s)), 8);

        // ScaleMul then dense compounds: u = 3, then 1 + (2+2)·3 = 13.
        let s2 = stage(
            vec![ScaledOp::ScaleMul { alpha: -3 }, dense(vec![vec![2, -2]])],
            2,
        );
        assert_eq!(required_budget(&[s2]), 13);

        // SumPool multiplies by window²: u = 2·2² = 8 (no bias term).
        let s3 = MergedStage {
            role: StageRole::Linear,
            ops: vec![
                ScaledOp::ScaleMul { alpha: 2 },
                ScaledOp::SumPool { window: 2, stride: 2 },
            ],
            input_shape: Shape::new(vec![1, 4, 4]),
            output_shape: Shape::new(vec![1, 2, 2]),
        };
        assert_eq!(required_budget(&[s3]), 8);

        // Non-linear stages are ignored; budgets never drop below 1.
        let nl = MergedStage {
            role: StageRole::NonLinear,
            ops: vec![ScaledOp::ReLU { rescale: 1 }],
            input_shape: Shape::vector(2),
            output_shape: Shape::vector(2),
        };
        assert_eq!(required_budget(&[nl]), 1);
        assert_eq!(required_budget(&[]), 1);
    }

    #[test]
    fn fold_layout_is_64_bit_slots_sized_by_the_model_and_the_key() {
        use crate::encapsulate::encapsulate;
        use pp_nn::{zoo, Layer, Model, ScaledModel};
        // A key of a given width, without the prime search: the layout
        // reads only the modulus size.
        let key = |bits: usize| {
            let one = pp_bigint::BigUint::one();
            PublicKey::from_n(&one.shl_bits(bits - 1) + &one)
        };
        let mut rng = StdRng::seed_from_u64(60);
        let fanin = Model::new(
            "fanin",
            vec![1, 28, 28],
            vec![
                Layer::Flatten,
                zoo::dense_layer(&mut rng, 784, 8),
                Layer::ReLU,
                zoo::dense_layer(&mut rng, 8, 10),
                Layer::SoftMax,
            ],
        )
        .unwrap();
        // The benchmark's three models at its scaling factor.
        for model in [
            zoo::healthcare_3fc("fc3", 30, &mut rng).unwrap(),
            fanin,
            zoo::small_convnet("conv", (1, 8, 8), 2, 10, &mut rng).unwrap(),
        ] {
            let stages = encapsulate(&ScaledModel::from_model(&model, 10_000)).unwrap();
            let budget = required_budget(&stages);
            for (bits, slots) in [(2048, 31), (256, 3), (128, 1)] {
                assert_eq!(
                    fold_layout(&key(bits), &stages),
                    Some(PackingSpec { slot_bits: 64, slots, op_budget: budget }),
                    "{} under a {bits}-bit key",
                    model.name()
                );
            }
            assert_eq!(fold_layout(&key(64), &stages), None, "no 64-bit slot fits a 64-bit key");
        }
    }

    #[test]
    fn fold_layout_widens_for_heavy_rows_and_refuses_oversized_constants() {
        let dense = |weight: i64, bias: i64| MergedStage {
            role: StageRole::Linear,
            ops: vec![ScaledOp::Dense {
                weights: Tensor::from_vec(vec![1, 2], vec![weight, -weight]).unwrap(),
                bias: vec![bias],
            }],
            input_shape: Shape::vector(2),
            output_shape: Shape::vector(1),
        };
        let pk = keypair(38).public();
        let layout = |stage: MergedStage| fold_layout(&pk, &[stage]);

        // Row mass 2²³ + 1 leaves 64-bit slots a bound of 2³⁸: one step
        // wider restores it (2⁵⁴), at the same three slots on this key.
        let heavy = layout(dense(1 << 22, 0)).expect("a wider slot holds it");
        assert_eq!((heavy.slot_bits, heavy.slots), (80, 3));
        assert!(heavy.value_bound() >= FOLD_MIN_VALUE_BOUND);
        // Mass 2⁶³ + 1 needs 67 guard bits: the widest slot, two per
        // ciphertext here, is the first with a bound of 2⁴⁰ to spare.
        let heaviest = layout(dense(1 << 62, 0)).expect("the widest slot holds it");
        assert_eq!((heaviest.slot_bits, heaviest.slots), (112, 2));

        // A bias the bound does not cover could carry an output past its
        // slot with every input in range.
        let light = layout(dense(3, 0)).expect("layout");
        assert_eq!(light.slot_bits, 64);
        assert!(layout(dense(3, light.value_bound() - 1)).is_some());
        assert_eq!(layout(dense(3, light.value_bound())), None);
        assert_eq!(layout(dense(3, -light.value_bound())), None);
    }

    #[test]
    fn required_budget_bounds_actual_packed_weights() {
        // The simulated budget must dominate the weight the kernels
        // actually accumulate, conv padding included.
        let kp = keypair(31);
        let conv = ScaledOp::Conv2d {
            spec: Conv2dSpec {
                in_channels: 1,
                out_channels: 2,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            weights: Tensor::from_vec(
                vec![2, 1, 3, 3],
                (0..18).map(|i| (i as i64 % 5) - 2).collect(),
            )
            .unwrap(),
            bias: vec![1, -1],
        };
        let stage = MergedStage {
            role: StageRole::Linear,
            ops: vec![conv],
            input_shape: Shape::new(vec![1, 4, 4]),
            output_shape: Shape::new(vec![2, 4, 4]),
        };
        let budget = required_budget(std::slice::from_ref(&stage));
        let exec = linear_exec(&kp, stage);

        let spec = PackingSpec::for_key(&kp.public(), 40).unwrap().with_budget(budget);
        spec.check().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let plains: Vec<PlainTensorMsg> = (0..3)
            .map(|j| PlainTensorMsg {
                seq: j,
                shape: vec![1, 4, 4],
                values: (0..16).map(|i| ((i as i128 * 7 + j as i128) % 9) - 4).collect(),
            })
            .collect();
        let mut pool = RandomnessPool::new(kp.public());
        pool.refill(16, &mut rng);
        let msg = pack_plain_batch(spec, &plains, &mut pool, 3).unwrap();
        let out = exec.execute_packed(msg, &WorkerPool::new(2)).unwrap();
        assert!(out.weight <= budget, "weight {} over budget {budget}", out.weight);
    }

    #[test]
    fn packed_linear_round_matches_scaled_reference_per_item() {
        let kp = keypair(32);
        let weights = Tensor::from_vec(vec![2, 3], vec![2, -1, 3, 0, 4, -2]).unwrap();
        let bias = vec![5, -7];
        let stage = MergedStage {
            role: StageRole::Linear,
            ops: vec![
                ScaledOp::ScaleMul { alpha: 2 },
                ScaledOp::Dense { weights: weights.clone(), bias: bias.clone() },
            ],
            input_shape: Shape::vector(3),
            output_shape: Shape::vector(2),
        };
        let budget = required_budget(std::slice::from_ref(&stage));
        let exec = linear_exec(&kp, stage);
        let spec = PackingSpec::for_key(&kp.public(), 32).unwrap().with_budget(budget);

        let batch: Vec<Vec<i64>> = vec![vec![3, -2, 5], vec![-4, 0, 1], vec![7, 7, -7]];
        let plains: Vec<PlainTensorMsg> = batch
            .iter()
            .enumerate()
            .map(|(j, v)| PlainTensorMsg {
                seq: j as u64,
                shape: vec![3],
                values: v.iter().map(|&x| x as i128).collect(),
            })
            .collect();
        let mut pool = RandomnessPool::new(kp.public());
        let msg = pack_plain_batch(spec, &plains, &mut pool, 11).unwrap();
        assert_eq!(msg.weight, 1);
        assert_eq!(msg.seqs, vec![0, 1, 2]);

        let out = exec.execute_packed(msg, &WorkerPool::new(2)).unwrap();
        assert!(!out.obfuscated, "last linear stage sends in the clear ordering");
        assert_eq!(out.shape, vec![2]);

        // Decrypt each output position; slot j must equal the plain
        // scaled-integer reference for batch item j.
        let out_spec = msg_spec(&out);
        for (pos, b) in out.cts.iter().enumerate() {
            let packed = PackedCiphertext::from_parts(
                &kp.public(),
                Ciphertext::from_bytes(b),
                out_spec,
                out.seqs.len(),
                out.weight,
            )
            .unwrap();
            let slots = packed.decrypt(&kp.private()).unwrap();
            for (j, item) in batch.iter().enumerate() {
                let scaled: Vec<i64> = item.iter().map(|&x| 2 * x).collect();
                let want = plain_ops::fully_connected(
                    &PlainI64,
                    &Tensor::from_flat(scaled),
                    &weights,
                    &bias,
                )
                .unwrap();
                assert_eq!(slots[j], want.data()[pos], "item {j} position {pos}");
            }
        }
    }

    /// The reply `exec` owes for `msg`, from the whole-tensor kernels over
    /// the packed back-end on the calling thread — no worker tasks, no
    /// task bytes. `exec` must be a first and last stage (no permutation).
    fn whole_tensor_reply(exec: &LinearStage, msg: &PackedTensorMsg) -> (Vec<Vec<u8>>, u64) {
        let ctx = PackedEncCtx { pk: &exec.pk, spec: msg_spec(msg), used: msg.seqs.len() };
        let cts = reassemble(&exec.pk, msg).unwrap();
        let mut tensor = Tensor::from_vec(exec.stage.input_shape.clone(), cts).unwrap();
        for op in &exec.stage.ops {
            tensor = match op {
                ScaledOp::Flatten => Ok(tensor.flatten()),
                ScaledOp::ScaleMul { alpha } => Tensor::from_vec(
                    tensor.shape().clone(),
                    tensor.data().iter().map(|x| ctx.mul(*alpha, x)).collect(),
                ),
                ScaledOp::Affine { scale, shift } => plain_ops::affine(&ctx, &tensor, scale, shift),
                ScaledOp::Dense { weights, bias } => {
                    plain_ops::fully_connected(&ctx, &tensor, weights, bias)
                }
                ScaledOp::Conv2d { spec, weights, bias } => {
                    plain_ops::conv2d(&ctx, &tensor, weights, bias, spec)
                }
                ScaledOp::SumPool { window, stride } => {
                    plain_ops::sum_pool2d(&ctx, &tensor, *window, *stride)
                }
                other => unreachable!("{other:?} in a linear stage"),
            }
            .unwrap();
        }
        let weight = tensor.data().iter().map(PackedCiphertext::weight).max().unwrap();
        let cts = tensor
            .data()
            .iter()
            .map(|c| c.raise_weight(&exec.pk, weight).unwrap().ct.to_bytes())
            .collect();
        (cts, weight)
    }

    #[test]
    fn packed_round_matches_whole_tensor_kernels_on_every_pool() {
        let kp = keypair(37);
        let conv = ScaledOp::Conv2d {
            spec: Conv2dSpec { in_channels: 1, out_channels: 2, kernel: 3, stride: 1, padding: 1 },
            weights: Tensor::from_vec(
                vec![2, 1, 3, 3],
                (0..18).map(|i| (i as i64 % 5) - 2).collect(),
            )
            .unwrap(),
            bias: vec![1, -1],
        };
        let dense = ScaledOp::Dense {
            weights: Tensor::from_vec(vec![5, 3], (0..15).map(|i| (i as i64 % 7) - 3).collect())
                .unwrap(),
            bias: vec![5, -7, 0, 2, -1],
        };
        let stage = |ops, input: Vec<usize>, output: Vec<usize>| MergedStage {
            role: StageRole::Linear,
            ops,
            input_shape: Shape::new(input),
            output_shape: Shape::new(output),
        };
        let stages = [
            stage(vec![ScaledOp::ScaleMul { alpha: -2 }, dense], vec![3], vec![5]),
            stage(
                vec![conv, ScaledOp::SumPool { window: 2, stride: 2 }],
                vec![1, 4, 4],
                vec![2, 2, 2],
            ),
            stage(
                vec![ScaledOp::Affine { scale: vec![3, -2], shift: vec![1, 4] }],
                vec![2, 2, 2],
                vec![2, 2, 2],
            ),
        ];
        let pools =
            [WorkerPool::new(1), WorkerPool::new(2), WorkerPool::new(3), WorkerPool::inline()];
        for stage in stages {
            let budget = required_budget(std::slice::from_ref(&stage));
            let spec = PackingSpec::for_key(&kp.public(), 40).unwrap().with_budget(budget);
            spec.check().unwrap();
            let plains: Vec<PlainTensorMsg> = (0..3)
                .map(|j| PlainTensorMsg {
                    seq: j,
                    shape: stage.input_shape.dims().iter().map(|&d| d as u64).collect(),
                    values: (0..stage.input_shape.len() as i128)
                        .map(|i| (i * 7 + j as i128) % 9 - 4)
                        .collect(),
                })
                .collect();
            let mut pool = RandomnessPool::new(kp.public());
            let msg = pack_plain_batch(spec, &plains, &mut pool, 3).unwrap();
            let exec = linear_exec(&kp, stage);
            let want = whole_tensor_reply(&exec, &msg);
            for workers in &pools {
                let got = exec.execute_packed(msg.clone(), workers).unwrap();
                assert_eq!(got.shape, crate::protocol::shape_to_wire(&exec.stage.output_shape));
                assert_eq!((got.cts, got.weight), want, "{} workers", workers.size());
            }
        }
    }

    #[test]
    fn packed_round_trip_obfuscation_and_nonlinear_matches_unpacked() {
        // Two linear stages with a ReLU between them: the packed path
        // must invert the stored permutation and produce exactly the
        // per-item unpacked pipeline's final values.
        let kp = keypair(33);
        let w1 = Tensor::from_vec(vec![4, 2], vec![1, -2, 3, 1, -1, 2, 2, 2]).unwrap();
        let w2 = Tensor::from_vec(vec![2, 4], vec![1, 1, -1, 0, 2, -2, 1, 1]).unwrap();
        let lin1 = MergedStage {
            role: StageRole::Linear,
            ops: vec![ScaledOp::Dense { weights: w1.clone(), bias: vec![1, 0, -1, 2] }],
            input_shape: Shape::vector(2),
            output_shape: Shape::vector(4),
        };
        let relu = MergedStage {
            role: StageRole::NonLinear,
            ops: vec![ScaledOp::ReLU { rescale: 1 }],
            input_shape: Shape::vector(4),
            output_shape: Shape::vector(4),
        };
        let lin2 = MergedStage {
            role: StageRole::Linear,
            ops: vec![ScaledOp::Dense { weights: w2.clone(), bias: vec![0, 3] }],
            input_shape: Shape::vector(4),
            output_shape: Shape::vector(2),
        };
        let final_sm = MergedStage {
            role: StageRole::NonLinear,
            ops: vec![ScaledOp::SoftMax { rescale: 1 }],
            input_shape: Shape::vector(2),
            output_shape: Shape::vector(2),
        };
        let stages = [lin1, relu, lin2, final_sm];
        let budget = required_budget(&stages);
        // One perm store for the packed batch, one for the unpacked items.
        let execs = || linear_execs(&stages, &kp.public(), 21, PartitionMode::Partitioned);
        let (packed_execs, item_execs) = (execs(), execs());
        let nl = nonlinear_execs(&stages, &kp, 100, 21);

        let spec = PackingSpec::for_key(&kp.public(), 32).unwrap().with_budget(budget);
        let batch: Vec<Vec<i64>> = vec![vec![5, -3], vec![-2, 9], vec![0, 4], vec![6, 6]];
        let plains: Vec<PlainTensorMsg> = batch
            .iter()
            .enumerate()
            .map(|(j, v)| PlainTensorMsg {
                seq: 10 + j as u64,
                shape: vec![2],
                values: v.iter().map(|&x| x as i128).collect(),
            })
            .collect();
        let mut pool = RandomnessPool::new(kp.public());
        let msg = pack_plain_batch(spec, &plains, &mut pool, 9).unwrap();

        let wp = WorkerPool::new(2);
        let msg = packed_execs[0].execute_packed(msg, &wp).unwrap();
        assert!(msg.obfuscated, "mid-pipeline linear output is obfuscated");
        let msg = repack_nonlinear(&nl[0], msg, &wp).unwrap();
        assert_eq!(msg.weight, 1, "re-encryption resets the op weight");
        let msg = packed_execs[1].execute_packed(msg, &wp).unwrap();
        let outs = unpack_final(&nl[1], msg, &wp).unwrap();

        // Unpacked per-item reference through the same stage executors.
        for (j, item) in batch.iter().enumerate() {
            let seq = 10 + j as u64;
            let mut rng = StdRng::seed_from_u64(77 + j as u64);
            let cts: Vec<Vec<u8>> = item
                .iter()
                .map(|&v| kp.public().encrypt_i64(v, &mut rng).to_bytes())
                .collect();
            let enc = crate::messages::EncTensorMsg {
                seq,
                shape: vec![2],
                obfuscated: false,
                folded: false,
                cts,
            };
            let enc = item_execs[0].execute(enc, &wp).unwrap();
            let enc = nl[0].execute(enc, &wp).unwrap();
            let enc = item_execs[1].execute(enc, &wp).unwrap();
            let plain = nl[1].execute_final(enc, &wp).unwrap();
            assert_eq!(outs[j].seq, seq);
            assert_eq!(outs[j].shape, plain.shape);
            assert_eq!(outs[j].values, plain.values, "item {j} diverges from unpacked");
        }
    }

    #[test]
    fn pack_plain_batch_validates_members() {
        let kp = keypair(34);
        let spec = PackingSpec::for_key(&kp.public(), 32).unwrap();
        let mut pool = RandomnessPool::new(kp.public());
        let a = PlainTensorMsg { seq: 0, shape: vec![2], values: vec![1, 2] };
        let b = PlainTensorMsg { seq: 1, shape: vec![3], values: vec![1, 2, 3] };
        assert!(matches!(
            pack_plain_batch(spec, &[a.clone(), b], &mut pool, 0),
            Err(PaillierError::PackingMismatch)
        ));
        assert!(pack_plain_batch(spec, &[], &mut pool, 0).is_err());

        // Oversized batches are rejected up front.
        let many: Vec<PlainTensorMsg> = (0..spec.slots as u64 + 1)
            .map(|j| PlainTensorMsg { seq: j, shape: vec![1], values: vec![0] })
            .collect();
        assert!(pack_plain_batch(spec, &many, &mut pool, 0).is_err());
    }

    #[test]
    fn unpack_final_rejects_obfuscated_input() {
        let kp = keypair(35);
        let stage = MergedStage {
            role: StageRole::NonLinear,
            ops: vec![ScaledOp::SoftMax { rescale: 1 }],
            input_shape: Shape::vector(1),
            output_shape: Shape::vector(1),
        };
        let nl = NonLinearStage { keypair: kp.clone(), stage, factor: 100, is_last: true, seed: 1 };
        let spec = PackingSpec::for_key(&kp.public(), 32).unwrap();
        let msg = PackedTensorMsg {
            seqs: vec![0],
            shape: vec![1],
            obfuscated: true,
            slot_bits: spec.slot_bits as u32,
            slots: spec.slots as u32,
            op_budget: spec.op_budget,
            weight: 1,
            cts: vec![],
        };
        assert!(unpack_final(&nl, msg, &WorkerPool::new(1)).is_err());
    }

    #[test]
    fn unpack_final_rejects_hostile_header_before_sizing_buffers() {
        // A peer controls `seqs`, `slots`, and `cts` independently; a
        // hostile header claiming u32::MAX slots with a long `seqs` list
        // must fail metadata validation instead of committing a
        // `seqs × cts` scatter allocation.
        let kp = keypair(36);
        let stage = MergedStage {
            role: StageRole::NonLinear,
            ops: vec![ScaledOp::SoftMax { rescale: 1 }],
            input_shape: Shape::vector(1),
            output_shape: Shape::vector(1),
        };
        let nl = NonLinearStage { keypair: kp.clone(), stage, factor: 100, is_last: true, seed: 2 };
        let msg = PackedTensorMsg {
            seqs: (0..4096).collect(),
            shape: vec![1],
            obfuscated: false,
            slot_bits: 40,
            slots: u32::MAX,
            op_budget: 1,
            weight: 1,
            cts: vec![vec![1u8; 8]; 64],
        };
        let wp = WorkerPool::new(1);
        assert!(matches!(
            unpack_final(&nl, msg, &wp),
            Err(PaillierError::InvalidPacking(_))
        ));

        // A batch with sequence numbers but no ciphertexts is malformed,
        // not a batch of empty tensors.
        let empty_cts = PackedTensorMsg {
            seqs: vec![0, 1],
            shape: vec![1],
            obfuscated: false,
            slot_bits: 40,
            slots: 4,
            op_budget: 1,
            weight: 1,
            cts: vec![],
        };
        assert!(matches!(
            unpack_final(&nl, empty_cts, &wp),
            Err(PaillierError::InvalidPacking(_))
        ));
    }
}
