//! Stage executors implementing the collaborative workflow of paper
//! Fig. 3 / Fig. 4:
//!
//! * [`EncryptStage`] — data provider: scale + encrypt the raw input
//!   (Step 1.1);
//! * [`LinearStage`] — model provider: inverse obfuscation (Steps 2.5 /
//!   3.2), homomorphic linear operations (1.3 / 2.6 / 3.3), obfuscation
//!   (1.4 / 2.7; skipped in the last round, 3.4);
//! * [`NonLinearStage`] — data provider: decryption (2.1 / 3.5),
//!   non-linear operations on permuted values (2.2 / 3.6), re-encryption
//!   (2.3) — or, in the final round, the cleartext inference result (3.7).
//!
//! Every ciphertext the data provider emits is blinded by a fixed-base
//! factor `h^a` (DESIGN.md §7): inputs from the pool, activations
//! inline. Neither stage pays a full-width `r^n`.
//!
//! Tensor partitioning (Sec. IV-D) is implemented here as well: each
//! worker-thread task is *sent* (serialized + deserialized, byte-counted)
//! either the whole input tensor (no partitioning: one task per output
//! element), the whole tensor once per thread (output partitioning), or
//! only the receptive-field sub-tensor (input + output partitioning,
//! convolutions only).

use crate::encapsulate::{MergedStage, StageRole};
use crate::encctx::EncCtx;
use crate::messages::{EncTensorMsg, PlainTensorMsg};
use parking_lot::Mutex;
use pp_nn::activation::sigmoid_scalar;
use pp_nn::scaling::{div_round, ScaledOp};
use pp_obfuscate::Permutation;
use pp_paillier::{shared_refill_cache, Ciphertext, Keypair, PublicKey, RandomnessPool};
use pp_stream_runtime::{Stage, StageContext, StreamError, WorkerPool};
use pp_tensor::ops::{
    conv2d_range, conv_input_indices_for_range, fully_connected_range,
    pool_input_indices_for_range, sum_pool2d_range,
};
use pp_tensor::LinearAlgebra;
use pp_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Permutations drawn by linear stages, awaiting inversion by the next
/// linear stage — shared state within the model provider. Keyed by
/// `(request seq, linear stage index)`.
#[derive(Default)]
pub struct PermStore {
    map: Mutex<HashMap<(u64, usize), Permutation>>,
}

impl PermStore {
    pub(crate) fn put(&self, seq: u64, linear_idx: usize, perm: Permutation) {
        self.map.lock().insert((seq, linear_idx), perm);
    }
    pub(crate) fn take(&self, seq: u64, linear_idx: usize) -> Option<Permutation> {
        self.map.lock().remove(&(seq, linear_idx))
    }
}

/// SplitMix64 — deterministic seed derivation for per-(stage, request)
/// randomness.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

pub(crate) fn shape_to_wire(shape: &Shape) -> Vec<u64> {
    shape.dims().iter().map(|&d| d as u64).collect()
}

/// Serializes a slice of ciphertexts (the "send" half of a worker task).
fn cts_to_bytes(cts: &[Ciphertext]) -> Vec<Vec<u8>> {
    cts.iter().map(Ciphertext::to_bytes).collect()
}

/// Data provider: scales are already applied by the session; this stage
/// encrypts every element under the data provider's public key.
///
/// When a [`RandomnessPool`] is attached, the blinding factors are
/// popped from the pool (precomputed off the request path) and each
/// element costs only `g^m` and one modular multiplication; an element
/// the pool has no factor for walks the key's fixed-base table inline
/// ([`pp_paillier::RefillBase::encrypt_i64`]), counted by the pool's miss
/// statistic.
pub struct EncryptStage {
    pub pk: PublicKey,
    pub seed: u64,
    /// Precomputed `h^a` factors; `None` encrypts inline.
    pub rand_pool: Option<Arc<Mutex<RandomnessPool>>>,
}

impl EncryptStage {
    /// Encrypts a plaintext scaled tensor (Step 1.1 + 1.2).
    pub fn encrypt(&self, msg: PlainTensorMsg, pool: &WorkerPool) -> EncTensorMsg {
        let pk = self.pk.clone();
        let values: Arc<Vec<i128>> = Arc::new(msg.values);
        let seed = mix(self.seed ^ msg.seq.wrapping_mul(0x517c_c1b7));
        let n = values.len();
        // Pop the whole batch under one short lock; workers then run
        // lock-free. Missing factors (drained pool) are walked inline in
        // the worker, and the pool counts each miss.
        let (factors, base) = match &self.rand_pool {
            Some(rp) => {
                let mut rp = rp.lock();
                ((0..n).map(|_| rp.take_factor()).collect(), Arc::clone(rp.base()))
            }
            None => (vec![None; n], shared_refill_cache().get(&pk)),
        };
        let factors: Arc<Vec<Option<pp_bigint::BigUint>>> = Arc::new(factors);
        let values2 = Arc::clone(&values);
        let cts: Vec<Vec<u8>> = pool.map_ranges(n, move |r| {
            let mut rng = StdRng::seed_from_u64(mix(seed ^ r.start as u64));
            r.map(|i| {
                let v = i64::try_from(values2[i]).expect("scaled input fits i64");
                match &factors[i] {
                    Some(rn) => pk.encrypt_i64_with_factor(v, rn).to_bytes(),
                    None => base.encrypt_i64(&pk, v, &mut rng).to_bytes(),
                }
            })
            .collect()
        });
        EncTensorMsg { seq: msg.seq, shape: msg.shape, obfuscated: false, cts }
    }
}

impl Stage for EncryptStage {
    type In = PlainTensorMsg;
    type Out = EncTensorMsg;

    fn process(&self, msg: PlainTensorMsg, cx: &mut StageContext) -> Result<EncTensorMsg, StreamError> {
        Ok(self.encrypt(msg, cx.pool()))
    }
}

/// How a linear stage distributes work to its threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionMode {
    /// One task per output element, whole input tensor shipped per task
    /// (the paper's "without tensor partitioning" baseline).
    None,
    /// One task per thread chunk; whole input for dense layers (output
    /// partitioning), receptive-field sub-tensor for convolutions (input
    /// + output partitioning).
    Partitioned,
}

/// Model provider: homomorphic linear operations with obfuscation
/// management.
pub struct LinearStage {
    pub pk: PublicKey,
    pub stage: MergedStage,
    /// Index among linear stages (0-based).
    pub linear_idx: usize,
    /// First linear stage receives non-obfuscated input (Step 1.2).
    pub is_first: bool,
    /// Last linear stage sends without obfuscation (Step 3.4).
    pub is_last: bool,
    pub perms: Arc<PermStore>,
    pub mode: PartitionMode,
    pub seed: u64,
    /// Bytes shipped to worker threads (the Sec. IV-D communication).
    pub intra_bytes: Arc<AtomicU64>,
}

impl LinearStage {
    /// Full linear-stage round: inverse obfuscation → linear ops →
    /// obfuscation. Fails when the preceding linear stage's permutation
    /// is missing (a protocol-ordering violation), which stops the
    /// pipeline cleanly instead of panicking its stage thread.
    pub fn execute(&self, msg: EncTensorMsg, pool: &WorkerPool) -> Result<EncTensorMsg, StreamError> {
        assert_eq!(self.stage.role, StageRole::Linear, "misconfigured stage");
        let seq = msg.seq;
        let mut cts: Vec<Ciphertext> =
            msg.cts.iter().map(|b| Ciphertext::from_bytes(b)).collect();

        // Inverse obfuscation (Steps 2.5 / 3.2).
        if !self.is_first {
            let perm = self.perms.take(seq, self.linear_idx - 1).ok_or_else(|| {
                StreamError::Stage(format!(
                    "linear stage {} has no stored permutation for request {seq}",
                    self.linear_idx
                ))
            })?;
            cts = perm.invert(&cts).map_err(|e| {
                StreamError::Stage(format!("inverse obfuscation failed: {e}"))
            })?;
        }

        // Homomorphic linear ops.
        let mut shape = self.stage.input_shape.clone();
        let mut tensor = Tensor::from_vec(shape.clone(), cts).expect("shape matches");
        for op in &self.stage.ops {
            let out_shape =
                crate::encapsulate::op_output_shape(op, &shape).expect("validated at build");
            tensor = self.run_op(op, tensor, &out_shape, pool);
            shape = out_shape;
        }

        // Obfuscation (Steps 1.4 / 2.7), skipped in the last round (3.4).
        let mut out = tensor.into_data();
        let obfuscated = if self.is_last {
            false
        } else {
            let mut rng =
                StdRng::seed_from_u64(mix(self.seed ^ mix(seq) ^ self.linear_idx as u64));
            let perm = Permutation::random(out.len(), &mut rng);
            out = perm.apply(&out).expect("lengths match");
            self.perms.put(seq, self.linear_idx, perm);
            true
        };

        Ok(EncTensorMsg {
            seq,
            shape: shape_to_wire(&shape),
            obfuscated,
            cts: cts_to_bytes(&out),
        })
    }

    /// Executes one linear op with the configured partitioning mode.
    fn run_op(
        &self,
        op: &ScaledOp,
        input: Tensor<Ciphertext>,
        out_shape: &Shape,
        pool: &WorkerPool,
    ) -> Tensor<Ciphertext> {
        let pk = self.pk.clone();
        let intra = Arc::clone(&self.intra_bytes);
        match op {
            ScaledOp::Flatten => input.flatten(),
            ScaledOp::ScaleMul { alpha } => {
                // Element-wise: threads receive exactly their slice.
                let alpha = *alpha;
                let data = Arc::new(input.into_data());
                let n = data.len();
                let out = pool.map_ranges(n, move |r| {
                    let ctx = EncCtx { pk: &pk };
                    let sub = cts_to_bytes(&data[r.clone()]);
                    intra.fetch_add(
                        sub.iter().map(|b| b.len() as u64).sum::<u64>(),
                        Ordering::Relaxed,
                    );
                    sub.iter()
                        .map(|b| ctx.mul(alpha, &Ciphertext::from_bytes(b)))
                        .collect::<Vec<_>>()
                });
                Tensor::from_vec(out_shape.clone(), out).expect("sized output")
            }
            ScaledOp::Affine { scale, shift } => {
                let scale = scale.clone();
                let shift = shift.clone();
                let channels = scale.len();
                let per_channel = input.len() / channels;
                let data = Arc::new(input.into_data());
                let n = data.len();
                let out = pool.map_ranges(n, move |r| {
                    let ctx = EncCtx { pk: &pk };
                    let sub = cts_to_bytes(&data[r.clone()]);
                    intra.fetch_add(
                        sub.iter().map(|b| b.len() as u64).sum::<u64>(),
                        Ordering::Relaxed,
                    );
                    r.zip(sub.iter())
                        .map(|(i, b)| {
                            let c = i / per_channel;
                            let x = Ciphertext::from_bytes(b);
                            ctx.add(&ctx.mul(scale[c], &x), &ctx.constant(shift[c]))
                        })
                        .collect::<Vec<_>>()
                });
                Tensor::from_vec(out_shape.clone(), out).expect("sized output")
            }
            ScaledOp::Dense { weights, bias } => {
                let weights = Arc::new(weights.clone());
                let bias = Arc::new(bias.clone());
                // Simulated send: serialize the whole input once.
                let input_bytes = Arc::new(cts_to_bytes(input.data()));
                let in_shape = input.shape().clone();
                let out_f = out_shape.len();
                let mode = self.mode;
                let total_in: u64 = input_bytes.iter().map(|b| b.len() as u64).sum();
                let out = pool.map_ranges(out_f, move |r| {
                    let ctx = EncCtx { pk: &pk };
                    match mode {
                        PartitionMode::Partitioned => {
                            // Whole input shipped once per chunk (output
                            // partitioning), then the whole range computed.
                            intra.fetch_add(total_in, Ordering::Relaxed);
                            let inp = deserialize_tensor(&input_bytes, &in_shape);
                            fully_connected_range(&ctx, &inp, &weights, &bias, r)
                                .expect("validated shapes")
                        }
                        PartitionMode::None => {
                            // Whole input shipped per output element.
                            let mut out = Vec::with_capacity(r.len());
                            for j in r {
                                intra.fetch_add(total_in, Ordering::Relaxed);
                                let inp = deserialize_tensor(&input_bytes, &in_shape);
                                out.extend(
                                    fully_connected_range(&ctx, &inp, &weights, &bias, j..j + 1)
                                        .expect("validated shapes"),
                                );
                            }
                            out
                        }
                    }
                });
                Tensor::from_vec(out_shape.clone(), out).expect("sized output")
            }
            ScaledOp::Conv2d { spec, weights, bias } => {
                let spec = spec.clone();
                let weights = Arc::new(weights.clone());
                let bias = Arc::new(bias.clone());
                let input_bytes = Arc::new(cts_to_bytes(input.data()));
                let in_shape = input.shape().clone();
                let n_out = out_shape.len();
                let mode = self.mode;
                let total_in: u64 = input_bytes.iter().map(|b| b.len() as u64).sum();
                let out = pool.map_ranges(n_out, move |r| {
                    let ctx = EncCtx { pk: &pk };
                    match mode {
                        PartitionMode::Partitioned => {
                            // Input + output partitioning: ship only the
                            // receptive-field sub-tensor of this range.
                            let needed =
                                conv_input_indices_for_range(&in_shape, &spec, r.clone())
                                    .expect("validated shapes");
                            let sub_bytes: u64 =
                                needed.iter().map(|&i| input_bytes[i].len() as u64).sum();
                            intra.fetch_add(sub_bytes, Ordering::Relaxed);
                            let inp =
                                deserialize_sparse(&input_bytes, &needed, &in_shape);
                            conv2d_range(&ctx, &inp, &weights, &bias, &spec, r)
                                .expect("validated shapes")
                        }
                        PartitionMode::None => {
                            let mut out = Vec::with_capacity(r.len());
                            for e in r {
                                intra.fetch_add(total_in, Ordering::Relaxed);
                                let inp = deserialize_tensor(&input_bytes, &in_shape);
                                out.extend(
                                    conv2d_range(&ctx, &inp, &weights, &bias, &spec, e..e + 1)
                                        .expect("validated shapes"),
                                );
                            }
                            out
                        }
                    }
                });
                Tensor::from_vec(out_shape.clone(), out).expect("sized output")
            }
            ScaledOp::SumPool { window, stride } => {
                let (window, stride) = (*window, *stride);
                let input_bytes = Arc::new(cts_to_bytes(input.data()));
                let in_shape = input.shape().clone();
                let n_out = out_shape.len();
                let mode = self.mode;
                let total_in: u64 = input_bytes.iter().map(|b| b.len() as u64).sum();
                let out = pool.map_ranges(n_out, move |r| {
                    let ctx = EncCtx { pk: &pk };
                    match mode {
                        PartitionMode::Partitioned => {
                            let needed = pool_input_indices_for_range(
                                &in_shape, window, stride, r.clone(),
                            )
                            .expect("validated shapes");
                            let sub_bytes: u64 =
                                needed.iter().map(|&i| input_bytes[i].len() as u64).sum();
                            intra.fetch_add(sub_bytes, Ordering::Relaxed);
                            let inp = deserialize_sparse(&input_bytes, &needed, &in_shape);
                            sum_pool2d_range(&ctx, &inp, window, stride, r)
                                .expect("validated shapes")
                        }
                        PartitionMode::None => {
                            let mut out = Vec::with_capacity(r.len());
                            for e in r {
                                intra.fetch_add(total_in, Ordering::Relaxed);
                                let inp = deserialize_tensor(&input_bytes, &in_shape);
                                out.extend(
                                    sum_pool2d_range(&ctx, &inp, window, stride, e..e + 1)
                                        .expect("validated shapes"),
                                );
                            }
                            out
                        }
                    }
                });
                Tensor::from_vec(out_shape.clone(), out).expect("sized output")
            }
            // Non-linear ops never reach a linear stage.
            ScaledOp::ReLU { .. }
            | ScaledOp::Sigmoid { .. }
            | ScaledOp::SoftMax { .. }
            | ScaledOp::MaxPool { .. } => unreachable!("non-linear op in linear stage"),
        }
    }
}

impl Stage for LinearStage {
    type In = EncTensorMsg;
    type Out = EncTensorMsg;

    fn process(&self, msg: EncTensorMsg, cx: &mut StageContext) -> Result<EncTensorMsg, StreamError> {
        // Attribute this message's worker-dispatch bytes (Sec. IV-D) to
        // the stage's metrics. The stage instance is driven by a single
        // pipeline thread, so the before/after delta is this message's.
        let before = self.intra_bytes.load(Ordering::Relaxed);
        let out = self.execute(msg, cx.pool())?;
        let after = self.intra_bytes.load(Ordering::Relaxed);
        cx.record_serialized_bytes(after.saturating_sub(before));
        Ok(out)
    }
}

/// Rebuilds a full ciphertext tensor from serialized bytes (the "receive"
/// half of a worker task).
fn deserialize_tensor(bytes: &[Vec<u8>], shape: &Shape) -> Tensor<Ciphertext> {
    let cts: Vec<Ciphertext> = bytes.iter().map(|b| Ciphertext::from_bytes(b)).collect();
    Tensor::from_vec(shape.clone(), cts).expect("shape matches")
}

/// Rebuilds a sparse tensor: only `indices` are real; the rest are cheap
/// placeholders that the range kernel never reads.
fn deserialize_sparse(
    bytes: &[Vec<u8>],
    indices: &std::collections::BTreeSet<usize>,
    shape: &Shape,
) -> Tensor<Ciphertext> {
    let placeholder = Ciphertext::new(pp_bigint::BigUint::zero());
    let mut cts = vec![placeholder; bytes.len()];
    for &i in indices {
        cts[i] = Ciphertext::from_bytes(&bytes[i]);
    }
    Tensor::from_vec(shape.clone(), cts).expect("shape matches")
}

/// Data provider: decrypt, apply non-linear ops (on permuted values),
/// re-encrypt — or emit the cleartext result in the final round.
pub struct NonLinearStage {
    pub keypair: Keypair,
    pub stage: MergedStage,
    pub factor: i64,
    /// Final stage: no re-encryption, output is the inference result.
    pub is_last: bool,
    pub seed: u64,
}

impl NonLinearStage {
    /// Decrypt → non-linear ops → re-encrypt (Steps 2.1–2.3).
    /// Only valid for non-final stages. Fails cleanly (instead of
    /// panicking) when a ciphertext decrypts outside the message space —
    /// the signature of a corrupt or hostile upstream reply.
    pub fn execute(&self, msg: EncTensorMsg, pool: &WorkerPool) -> Result<EncTensorMsg, StreamError> {
        assert!(!self.is_last, "final stage must use execute_final");
        let values = self.decrypt_and_apply(&msg, pool)?;
        // Re-encrypt at scale F (fits i64 after rescaling). Range-check
        // before fanning out so an oversized activation is an error on
        // this item, not a worker panic.
        let scaled: Vec<i64> = values
            .iter()
            .map(|&v| i64::try_from(v))
            .collect::<Result<_, _>>()
            .map_err(|_| {
                StreamError::Stage(format!(
                    "rescaled activation exceeds i64 message space in round {}",
                    msg.seq
                ))
            })?;
        let pk = self.keypair.public();
        // Blinded by `h^a` from the key's comb table, like the pooled
        // inputs; the rng is a function of (stage seed, seq, chunk
        // start), so a replay of this message reproduces its bytes.
        let base = shared_refill_cache().get(&pk);
        let seed = mix(self.seed ^ mix(msg.seq).rotate_left(17));
        let scaled = Arc::new(scaled);
        let n = scaled.len();
        let cts = pool.map_ranges(n, move |r| {
            let mut rng = StdRng::seed_from_u64(mix(seed ^ r.start as u64));
            r.map(|i| base.encrypt_i64(&pk, scaled[i], &mut rng).to_bytes()).collect::<Vec<_>>()
        });
        Ok(EncTensorMsg { seq: msg.seq, shape: msg.shape, obfuscated: msg.obfuscated, cts })
    }

    /// Final round (Steps 3.5–3.7): decrypt and produce the cleartext
    /// scaled result — stays at the data provider.
    pub fn execute_final(
        &self,
        msg: EncTensorMsg,
        pool: &WorkerPool,
    ) -> Result<PlainTensorMsg, StreamError> {
        assert!(self.is_last, "non-final stage must use execute");
        assert!(!msg.obfuscated, "final round arrives without obfuscation (Step 3.4)");
        let values = self.decrypt_and_apply(&msg, pool)?;
        Ok(PlainTensorMsg { seq: msg.seq, shape: msg.shape, values })
    }

    fn decrypt_and_apply(
        &self,
        msg: &EncTensorMsg,
        pool: &WorkerPool,
    ) -> Result<Vec<i128>, StreamError> {
        assert_eq!(self.stage.role, StageRole::NonLinear, "misconfigured stage");
        let sk = self.keypair.private();
        // Decrypt in parallel (Step 2.1): the batch API splits each
        // ciphertext into its two CRT halves, so even a short tensor
        // saturates the pool at production key sizes.
        let cts: Vec<Ciphertext> = msg.cts.iter().map(|b| Ciphertext::from_bytes(b)).collect();
        let mut values = sk.try_decrypt_batch_i128(&cts, pool).map_err(|e| {
            StreamError::Stage(format!("decrypt failed in round {}: {e}", msg.seq))
        })?;
        self.apply_ops(&mut values);
        Ok(values)
    }

    /// The stage's non-linear ops, element-wise on already-decrypted
    /// values — valid on permuted positions (Step 2.2). Rescale divisors
    /// restore scale F first. Public so the packed-batch path can apply
    /// the *same* math to slot-scattered values and stay bit-identical
    /// to the unpacked protocol.
    pub fn apply_ops(&self, values: &mut [i128]) {
        for op in &self.stage.ops {
            match op {
                ScaledOp::ReLU { rescale } => {
                    for v in values.iter_mut() {
                        *v = div_round(*v, *rescale).max(0);
                    }
                }
                ScaledOp::Sigmoid { rescale } => {
                    let f = self.factor as f64;
                    for v in values.iter_mut() {
                        let x = div_round(*v, *rescale) as f64 / f;
                        *v = (sigmoid_scalar(x) * f).round() as i128;
                    }
                }
                ScaledOp::SoftMax { rescale } => {
                    // Monotone: rescale only; probabilities are recovered
                    // from the scaled logits by the session.
                    for v in values.iter_mut() {
                        *v = div_round(*v, *rescale);
                    }
                }
                other => unreachable!("op {other:?} in non-linear stage"),
            }
        }
    }
}

/// Mid-pipeline rounds: re-encrypted ciphertext tensor out.
impl Stage for NonLinearStage {
    type In = EncTensorMsg;
    type Out = EncTensorMsg;

    fn process(&self, msg: EncTensorMsg, cx: &mut StageContext) -> Result<EncTensorMsg, StreamError> {
        if self.is_last {
            return Err(StreamError::Stage(
                "final non-linear stage placed mid-pipeline; wrap it in FinalNonLinearStage".into(),
            ));
        }
        self.execute(msg, cx.pool())
    }
}

/// The final round of a [`NonLinearStage`] as a typed pipeline terminal:
/// consumes the last linear stage's ciphertexts, emits the cleartext
/// scaled result (Steps 3.5–3.7).
pub struct FinalNonLinearStage(pub Arc<NonLinearStage>);

impl Stage for FinalNonLinearStage {
    type In = EncTensorMsg;
    type Out = PlainTensorMsg;

    fn process(&self, msg: EncTensorMsg, cx: &mut StageContext) -> Result<PlainTensorMsg, StreamError> {
        if !self.0.is_last {
            return Err(StreamError::Stage(
                "non-final stage wrapped as the pipeline terminal".into(),
            ));
        }
        if msg.obfuscated {
            return Err(StreamError::Stage(
                "final round arrived obfuscated (Step 3.4 violated)".into(),
            ));
        }
        self.0.execute_final(msg, cx.pool())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encapsulate::encapsulate;
    use pp_nn::{zoo, ScaledModel};
    use pp_stream_runtime::WorkerPool;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (Keypair, WorkerPool) {
        let mut rng = StdRng::seed_from_u64(seed);
        (Keypair::generate(128, &mut rng), WorkerPool::new(2))
    }

    fn run_stages(
        kp: &Keypair,
        scaled: &ScaledModel,
        input: &pp_tensor::Tensor<f64>,
        mode: PartitionMode,
        pool: &WorkerPool,
    ) -> Vec<i128> {
        let stages = encapsulate(scaled).unwrap();
        let perms = Arc::new(PermStore::default());
        let intra = Arc::new(AtomicU64::new(0));
        let n_linear = stages.iter().filter(|s| s.role == StageRole::Linear).count();

        let enc = EncryptStage { pk: kp.public(), seed: 7, rand_pool: None };
        let scaled_in = scaled.scale_input(input);
        let mut msg = enc.encrypt(
            PlainTensorMsg {
                seq: 0,
                shape: shape_to_wire(input.shape()),
                values: scaled_in.data().iter().map(|&v| v as i128).collect(),
            },
            pool,
        );

        let mut linear_idx = 0usize;
        let mut final_values = None;
        for (i, stage) in stages.iter().enumerate() {
            match stage.role {
                StageRole::Linear => {
                    let exec = LinearStage {
                        pk: kp.public(),
                        stage: stage.clone(),
                        linear_idx,
                        is_first: linear_idx == 0,
                        is_last: linear_idx == n_linear - 1,
                        perms: Arc::clone(&perms),
                        mode,
                        seed: 11,
                        intra_bytes: Arc::clone(&intra),
                    };
                    msg = exec.execute(msg, pool).unwrap();
                    linear_idx += 1;
                }
                StageRole::NonLinear => {
                    let is_last = i == stages.len() - 1;
                    let exec = NonLinearStage {
                        keypair: kp.clone(),
                        stage: stage.clone(),
                        factor: scaled.factor(),
                        is_last,
                        seed: 13,
                    };
                    if is_last {
                        final_values = Some(exec.execute_final(msg.clone(), pool).unwrap().values);
                    } else {
                        msg = exec.execute(msg, pool).unwrap();
                    }
                }
            }
        }
        final_values.expect("model ends with non-linear stage")
    }

    #[test]
    fn full_protocol_matches_scaled_reference() {
        let (kp, pool) = setup(1);
        let mut rng = StdRng::seed_from_u64(2);
        let model = zoo::mlp("m", &[4, 5, 3], &mut rng).unwrap();
        let scaled = ScaledModel::from_model(&model, 100);
        let input = pp_tensor::Tensor::from_flat(vec![0.5, -0.25, 0.75, 0.1]);

        let got = run_stages(&kp, &scaled, &input, PartitionMode::Partitioned, &pool);
        let want = scaled.forward_scaled(&scaled.scale_input(&input)).unwrap();
        assert_eq!(
            got,
            want.data().iter().map(|&v| v as i128).collect::<Vec<_>>(),
            "encrypted pipeline must match the scaled plaintext reference bit-for-bit"
        );
    }

    #[test]
    fn partition_modes_agree_on_results() {
        let (kp, pool) = setup(3);
        let mut rng = StdRng::seed_from_u64(4);
        let model = zoo::small_convnet("c", (1, 5, 5), 2, 3, &mut rng).unwrap();
        let scaled = ScaledModel::from_model(&model, 100);
        let input = pp_tensor::Tensor::from_vec(
            vec![1, 5, 5],
            (0..25).map(|i| (i % 3) as f64 * 0.3 - 0.3).collect(),
        )
        .unwrap();
        let a = run_stages(&kp, &scaled, &input, PartitionMode::Partitioned, &pool);
        let b = run_stages(&kp, &scaled, &input, PartitionMode::None, &pool);
        assert_eq!(a, b);
    }

    #[test]
    fn partitioning_reduces_intra_stage_bytes() {
        let (kp, _) = setup(5);
        let pool = WorkerPool::new(4);
        let mut rng = StdRng::seed_from_u64(6);
        let model = zoo::small_convnet("c", (1, 6, 6), 2, 3, &mut rng).unwrap();
        let scaled = ScaledModel::from_model(&model, 100);
        let stages = encapsulate(&scaled).unwrap();
        let conv_stage = stages[0].clone();
        let input_len = conv_stage.input_shape.len();

        let mut rng2 = StdRng::seed_from_u64(7);
        let cts: Vec<Vec<u8>> = (0..input_len)
            .map(|i| kp.public().encrypt_i64(i as i64, &mut rng2).to_bytes())
            .collect();
        let msg = EncTensorMsg {
            seq: 0,
            shape: shape_to_wire(&conv_stage.input_shape),
            obfuscated: false,
            cts,
        };

        let run = |mode: PartitionMode| {
            let intra = Arc::new(AtomicU64::new(0));
            let exec = LinearStage {
                pk: kp.public(),
                stage: conv_stage.clone(),
                linear_idx: 0,
                is_first: true,
                is_last: false,
                perms: Arc::new(PermStore::default()),
                mode,
                seed: 1,
                intra_bytes: Arc::clone(&intra),
            };
            let _ = exec.execute(msg.clone(), &pool).unwrap();
            intra.load(Ordering::Relaxed)
        };
        let with = run(PartitionMode::Partitioned);
        let without = run(PartitionMode::None);
        assert!(
            with * 2 < without,
            "partitioning should cut thread-input bytes: with={with} without={without}"
        );
    }

    #[test]
    fn obfuscation_round_trip_across_linear_stages() {
        // Two linear stages with a pass-through non-linear stage between:
        // the second linear stage must see the *original* positions.
        let (kp, pool) = setup(8);
        let mut rng = StdRng::seed_from_u64(9);
        let model = zoo::mlp("m", &[3, 3, 2], &mut rng).unwrap();
        let scaled = ScaledModel::from_model(&model, 10);
        let input = pp_tensor::Tensor::from_flat(vec![1.0, 2.0, 3.0]);
        let got = run_stages(&kp, &scaled, &input, PartitionMode::Partitioned, &pool);
        let want = scaled.forward_scaled(&scaled.scale_input(&input)).unwrap();
        assert_eq!(got, want.data().iter().map(|&v| v as i128).collect::<Vec<_>>());
    }

    #[test]
    fn middle_rounds_are_obfuscated_and_last_is_not() {
        let (kp, pool) = setup(10);
        let mut rng = StdRng::seed_from_u64(11);
        let model = zoo::mlp("m", &[3, 4, 2], &mut rng).unwrap();
        let scaled = ScaledModel::from_model(&model, 10);
        let stages = encapsulate(&scaled).unwrap();
        let perms = Arc::new(PermStore::default());
        let intra = Arc::new(AtomicU64::new(0));

        let enc = EncryptStage { pk: kp.public(), seed: 1, rand_pool: None };
        let scaled_in = scaled.scale_input(&pp_tensor::Tensor::from_flat(vec![0.1, 0.2, 0.3]));
        let msg0 = enc.encrypt(
            PlainTensorMsg {
                seq: 0,
                shape: vec![3],
                values: scaled_in.data().iter().map(|&v| v as i128).collect(),
            },
            &pool,
        );
        assert!(!msg0.obfuscated);

        let first = LinearStage {
            pk: kp.public(),
            stage: stages[0].clone(),
            linear_idx: 0,
            is_first: true,
            is_last: false,
            perms: Arc::clone(&perms),
            mode: PartitionMode::Partitioned,
            seed: 2,
            intra_bytes: Arc::clone(&intra),
        };
        let msg1 = first.execute(msg0, &pool).unwrap();
        assert!(msg1.obfuscated, "intermediate round must be obfuscated (Step 1.4)");

        let nl = NonLinearStage {
            keypair: kp.clone(),
            stage: stages[1].clone(),
            factor: scaled.factor(),
            is_last: false,
            seed: 3,
        };
        let msg2 = nl.execute(msg1, &pool).unwrap();
        assert!(msg2.obfuscated, "re-encrypted tensor keeps permuted order");

        let last = LinearStage {
            pk: kp.public(),
            stage: stages[2].clone(),
            linear_idx: 1,
            is_first: false,
            is_last: true,
            perms,
            mode: PartitionMode::Partitioned,
            seed: 4,
            intra_bytes: intra,
        };
        let msg3 = last.execute(msg2, &pool).unwrap();
        assert!(!msg3.obfuscated, "last round sends without obfuscation (Step 3.4)");
    }

    #[test]
    fn reencryption_bytes_are_a_function_of_seed_and_seq() {
        // A kill-and-resume replay re-executes the stage on the same
        // message and must reproduce its bytes; the next request must not.
        let (kp, pool) = setup(18);
        let nl = NonLinearStage {
            keypair: kp.clone(),
            stage: MergedStage {
                role: StageRole::NonLinear,
                ops: vec![ScaledOp::ReLU { rescale: 1 }],
                input_shape: Shape::vector(5),
                output_shape: Shape::vector(5),
            },
            factor: 10,
            is_last: false,
            seed: 3,
        };
        let mut rng = StdRng::seed_from_u64(19);
        let cts: Vec<Vec<u8>> = [4i64, -4, 0, 9, 1]
            .iter()
            .map(|&m| kp.public().encrypt_i64(m, &mut rng).to_bytes())
            .collect();
        let msg = |seq| EncTensorMsg { seq, shape: vec![5], obfuscated: true, cts: cts.clone() };

        let first = nl.execute(msg(7), &pool).unwrap();
        let replay = nl.execute(msg(7), &pool).unwrap();
        assert_eq!(first.cts, replay.cts);
        let next = nl.execute(msg(8), &pool).unwrap();
        for (a, b) in first.cts.iter().zip(&next.cts) {
            assert_ne!(a, b, "the next request must draw fresh blinding");
        }
        let sk = kp.private();
        let plain: Vec<i64> =
            first.cts.iter().map(|b| sk.decrypt_i64(&Ciphertext::from_bytes(b))).collect();
        assert_eq!(plain, vec![4, 0, 0, 9, 1]);
    }

    #[test]
    fn fresh_permutation_per_request() {
        let (kp, pool) = setup(12);
        let stage = MergedStage {
            role: StageRole::Linear,
            ops: vec![ScaledOp::ScaleMul { alpha: 1 }],
            input_shape: Shape::vector(8),
            output_shape: Shape::vector(8),
        };
        let perms = Arc::new(PermStore::default());
        let exec = LinearStage {
            pk: kp.public(),
            stage,
            linear_idx: 0,
            is_first: true,
            is_last: false,
            perms: Arc::clone(&perms),
            mode: PartitionMode::Partitioned,
            seed: 5,
            intra_bytes: Arc::new(AtomicU64::new(0)),
        };
        let mut rng = StdRng::seed_from_u64(13);
        let make = |seq: u64, rng: &mut StdRng| EncTensorMsg {
            seq,
            shape: vec![8],
            obfuscated: false,
            cts: (0..8)
                .map(|i| kp.public().encrypt_i64(i, rng).to_bytes())
                .collect(),
        };
        let _ = exec.execute(make(0, &mut rng), &pool).unwrap();
        let _ = exec.execute(make(1, &mut rng), &pool).unwrap();
        let p0 = perms.take(0, 0).unwrap();
        let p1 = perms.take(1, 0).unwrap();
        assert_ne!(
            p0.forward_indices(),
            p1.forward_indices(),
            "permutations must differ across requests/rounds (Sec. III-C)"
        );
    }

    #[test]
    fn missing_permutation_is_an_error_not_a_panic() {
        let (kp, pool) = setup(14);
        let stage = MergedStage {
            role: StageRole::Linear,
            ops: vec![ScaledOp::ScaleMul { alpha: 1 }],
            input_shape: Shape::vector(4),
            output_shape: Shape::vector(4),
        };
        // is_first == false but nothing was stored for (seq, linear_idx-1).
        let exec = LinearStage {
            pk: kp.public(),
            stage,
            linear_idx: 1,
            is_first: false,
            is_last: false,
            perms: Arc::new(PermStore::default()),
            mode: PartitionMode::Partitioned,
            seed: 5,
            intra_bytes: Arc::new(AtomicU64::new(0)),
        };
        let mut rng = StdRng::seed_from_u64(15);
        let msg = EncTensorMsg {
            seq: 9,
            shape: vec![4],
            obfuscated: true,
            cts: (0..4).map(|i| kp.public().encrypt_i64(i, &mut rng).to_bytes()).collect(),
        };
        let err = exec.execute(msg, &pool).unwrap_err();
        assert!(
            matches!(&err, StreamError::Stage(s) if s.contains("permutation")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn final_stage_wrapper_rejects_obfuscated_input() {
        use pp_stream_runtime::StageMetrics;
        let (kp, pool) = setup(16);
        let stage = MergedStage {
            role: StageRole::NonLinear,
            ops: vec![ScaledOp::ReLU { rescale: 1 }],
            input_shape: Shape::vector(2),
            output_shape: Shape::vector(2),
        };
        let nl = Arc::new(NonLinearStage {
            keypair: kp.clone(),
            stage,
            factor: 10,
            is_last: true,
            seed: 3,
        });
        let mut rng = StdRng::seed_from_u64(17);
        let msg = EncTensorMsg {
            seq: 0,
            shape: vec![2],
            obfuscated: true,
            cts: (0..2).map(|i| kp.public().encrypt_i64(i, &mut rng).to_bytes()).collect(),
        };
        let metrics = StageMetrics::default();
        let mut cx = StageContext::new(&pool, &metrics);
        let err = FinalNonLinearStage(nl).process(msg, &mut cx).unwrap_err();
        assert!(matches!(&err, StreamError::Stage(s) if s.contains("obfuscated")), "{err}");
    }
}
