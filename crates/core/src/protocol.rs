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
//! convolutions and pooling).
//!
//! The linear round is written once, over the [`LinearAlgebra`]
//! back-end: [`LinearStage::execute`] and its batch-packed form are
//! codecs around it. Output folding (DESIGN.md §8) is the per-item
//! codec's last step on the model provider's side and the first step of
//! [`NonLinearStage`]'s decrypt on the data provider's; the layout
//! reaches both as an argument, from the connection that announced it.
//! The executors of a model are built in one place ([`linear_execs`],
//! [`nonlinear_execs`]), so every party derives the same seeds and
//! results match bit-for-bit across deployments.

use crate::encapsulate::{MergedStage, StageRole};
use crate::encctx::EncCtx;
use crate::messages::{shape_len, EncTensorMsg, PackedTensorMsg, PlainTensorMsg};
use crate::packed::{msg_spec, reassemble, PackedBackend, PACKED_PERM_BIT};
use parking_lot::Mutex;
use pp_nn::activation::sigmoid_scalar;
use pp_nn::scaling::{div_round, ScaledModel, ScaledOp};
use pp_obfuscate::Permutation;
use pp_paillier::packing::{PackedCiphertext, PackingSpec};
use pp_paillier::{shared_refill_cache, Ciphertext, Keypair, PublicKey, RandomnessPool};
use pp_stream_runtime::wire::to_frame;
use pp_stream_runtime::{Stage, StageContext, StreamError, WorkerPool};
use pp_tensor::ops::{
    conv2d_range, conv_input_indices_for_range, fully_connected_range,
    pool_input_indices_for_range, sum_pool2d_range,
};
use pp_tensor::LinearAlgebra;
use pp_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Seed of the input-pool refill for the stream call whose first item
/// is `first_item` (the session's items-done count when the call
/// starts) — the one seeding rule of both sessions. It must differ
/// between calls: under one seed the k-th input element of every call
/// would be blinded by the same factor, and the quotient of two such
/// ciphertexts is `1 + (x_k − x'_k)·n` — the plaintext difference,
/// readable by the model provider.
pub(crate) fn refill_seed(encrypt_seed: u64, first_item: u64) -> u64 {
    mix(encrypt_seed ^ 0x5EED ^ mix(first_item))
}

pub(crate) fn shape_to_wire(shape: &Shape) -> Vec<u64> {
    shape.dims().iter().map(|&d| d as u64).collect()
}

/// The data provider's source message for request `seq`: `input` scaled
/// to the model's integers (Sec. IV-A), not yet encrypted.
pub(crate) fn plain_msg(scaled: &ScaledModel, seq: u64, input: &Tensor<f64>) -> PlainTensorMsg {
    PlainTensorMsg {
        seq,
        shape: shape_to_wire(input.shape()),
        values: scaled.scale_input(input).data().iter().map(|&v| v as i128).collect(),
    }
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
        EncTensorMsg { seq: msg.seq, shape: msg.shape, obfuscated: false, folded: false, cts }
    }
}

/// Whether a request that encrypts `values` may ask for a folded reply:
/// a layout was announced and every plaintext is inside its value
/// bound — the premise under which `required_budget` keeps the linear
/// stage's outputs inside their slots. One value outside and the round
/// travels unfolded.
pub(crate) fn may_fold(fold: Option<PackingSpec>, values: impl IntoIterator<Item = i128>) -> bool {
    fold.is_some_and(|spec| {
        let bound = u128::from(spec.value_bound().unsigned_abs());
        values.into_iter().all(|v| v.unsigned_abs() < bound)
    })
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

/// What the linear round needs from a [`LinearAlgebra`] back-end beyond
/// the algebra: an owned handle that worker tasks carry (the contexts
/// themselves borrow their key), and the bytes an element is sent to a
/// worker as. Implemented by [`PublicKey`] for [`EncCtx`] and by
/// [`PackedBackend`] for [`crate::packed::PackedEncCtx`].
pub(crate) trait RoundBackend: Clone + Send + Sync + 'static {
    type Elem: Clone + Send + Sync + 'static;
    type Ctx<'a>: LinearAlgebra<Elem = Self::Elem, Weight = i64>;

    fn ctx(&self) -> Self::Ctx<'_>;
    /// The "send" half of a worker task.
    fn task_bytes(elem: &Self::Elem) -> Vec<u8>;
    /// The "receive" half; `bytes` came from [`Self::task_bytes`].
    fn read_task_bytes(&self, bytes: &[u8]) -> Self::Elem;
    /// Fills the positions a task was not sent; no kernel reads it.
    fn placeholder(&self) -> Self::Elem;
}

impl RoundBackend for PublicKey {
    type Elem = Ciphertext;
    type Ctx<'a> = EncCtx<'a>;

    fn ctx(&self) -> EncCtx<'_> {
        EncCtx { pk: self }
    }
    fn task_bytes(elem: &Ciphertext) -> Vec<u8> {
        elem.to_bytes()
    }
    fn read_task_bytes(&self, bytes: &[u8]) -> Ciphertext {
        Ciphertext::from_bytes(bytes)
    }
    fn placeholder(&self) -> Ciphertext {
        Ciphertext::new(pp_bigint::BigUint::zero())
    }
}

impl LinearStage {
    /// Full linear-stage round: inverse obfuscation → linear ops →
    /// obfuscation. Fails when the preceding linear stage's permutation
    /// is missing (a protocol-ordering violation) or the tensor has the
    /// wrong length, which stops the pipeline cleanly instead of
    /// panicking its stage thread.
    pub fn execute(&self, msg: EncTensorMsg, pool: &WorkerPool) -> Result<EncTensorMsg, StreamError> {
        self.execute_folding(msg, None, pool)
    }

    /// [`LinearStage::execute`] on a connection that announced the fold
    /// layout `fold`: the reply to a request flagged `folded` carries
    /// its (already permuted) outputs in `⌈outputs ÷ slots⌉` slot-packed
    /// ciphertexts and the same flag. Without a layout, or on an
    /// unflagged request, the reply is `execute`'s.
    pub(crate) fn execute_folding(
        &self,
        msg: EncTensorMsg,
        fold: Option<PackingSpec>,
        pool: &WorkerPool,
    ) -> Result<EncTensorMsg, StreamError> {
        let cts = msg.cts.iter().map(|b| Ciphertext::from_bytes(b)).collect();
        let (out, shape) = self.round(&self.pk, msg.seq, cts, pool)?;
        let fold = fold.filter(|_| msg.folded);
        let cts = match fold {
            Some(spec) => PackedCiphertext::fold_all(&self.pk, spec, &out, pool)
                .map_err(|e| StreamError::Stage(format!("output folding: {e}")))?
                .iter()
                .map(|group| group.ct.to_bytes())
                .collect(),
            None => out.iter().map(Ciphertext::to_bytes).collect(),
        };
        Ok(EncTensorMsg {
            seq: msg.seq,
            shape: shape_to_wire(&shape),
            obfuscated: !self.is_last,
            folded: fold.is_some(),
            cts,
        })
    }

    /// [`LinearStage::execute`] on a batch-packed tensor: the same round
    /// over all slots at once, its permutations stored under the batch's
    /// [`PACKED_PERM_BIT`] key. Errors are returned (not panicked)
    /// wherever the input could be at fault, so the server can abort the
    /// batch and keep the connection.
    pub(crate) fn execute_packed(
        &self,
        msg: PackedTensorMsg,
        pool: &WorkerPool,
    ) -> Result<PackedTensorMsg, StreamError> {
        let Some(&first) = msg.seqs.first() else {
            return Err(StreamError::Stage("empty packed batch".into()));
        };
        let cts = reassemble(&self.pk, &msg)
            .map_err(|e| StreamError::Stage(format!("packed decode: {e}")))?;
        let backend =
            PackedBackend { pk: self.pk.clone(), spec: msg_spec(&msg), used: msg.seqs.len() };
        let key = first | PACKED_PERM_BIT;
        let (mut out, shape) = self.round(&backend, key, cts, pool)?;

        // Equalize weights: sparse rows (padded conv edges, zero weights)
        // accumulate less offset than dense ones; raising everything to
        // the max lets the wire format carry one weight for the whole
        // tensor. Element-wise, so it commutes with the obfuscation.
        let weight = out.iter().map(PackedCiphertext::weight).max().unwrap_or(1).max(1);
        for c in out.iter_mut() {
            *c = c
                .raise_weight(&self.pk, weight)
                .map_err(|e| StreamError::Stage(format!("packed weight equalization: {e}")))?;
        }
        Ok(PackedTensorMsg {
            shape: shape_to_wire(&shape),
            obfuscated: !self.is_last,
            weight,
            cts: out.iter().map(|c| c.ct.to_bytes()).collect(),
            ..msg
        })
    }

    /// The round itself, on either back-end: the output elements —
    /// obfuscated unless this is the last stage — and their shape. `key`
    /// addresses this request's (or batch's) permutations in the store.
    fn round<B: RoundBackend>(
        &self,
        backend: &B,
        key: u64,
        mut elems: Vec<B::Elem>,
        pool: &WorkerPool,
    ) -> Result<(Vec<B::Elem>, Shape), StreamError> {
        assert_eq!(self.stage.role, StageRole::Linear, "misconfigured stage");
        let mut shape = self.stage.input_shape.clone();
        if elems.len() != shape.len() {
            return Err(StreamError::Stage(format!(
                "linear stage {} takes a {shape} tensor, got {} ciphertexts",
                self.linear_idx,
                elems.len()
            )));
        }

        // Inverse obfuscation (Steps 2.5 / 3.2).
        if !self.is_first {
            let perm = self.perms.take(key, self.linear_idx - 1).ok_or_else(|| {
                StreamError::Stage(format!(
                    "linear stage {} has no stored permutation under key {key:#x}",
                    self.linear_idx
                ))
            })?;
            elems = perm.invert(&elems).map_err(|e| {
                StreamError::Stage(format!("inverse obfuscation failed: {e}"))
            })?;
        }

        // Homomorphic linear ops.
        let mut tensor = Tensor::from_vec(shape.clone(), elems).expect("length checked");
        for op in &self.stage.ops {
            let out_shape =
                crate::encapsulate::op_output_shape(op, &shape).expect("validated at build");
            tensor = self.run_op(backend, op, tensor, &out_shape, pool);
            shape = out_shape;
        }

        // Obfuscation (Steps 1.4 / 2.7), skipped in the last round (3.4).
        let mut out = tensor.into_data();
        if !self.is_last {
            let mut rng =
                StdRng::seed_from_u64(mix(self.seed ^ mix(key) ^ self.linear_idx as u64));
            let perm = Permutation::random(out.len(), &mut rng);
            out = perm.apply(&out).expect("lengths match");
            self.perms.put(key, self.linear_idx, perm);
        }
        Ok((out, shape))
    }

    /// Executes one linear op as worker tasks (Sec. IV-D): the input is
    /// serialized once, and each task deserializes — and counts — what
    /// it is sent before running its range of the output.
    fn run_op<B: RoundBackend>(
        &self,
        backend: &B,
        op: &ScaledOp,
        input: Tensor<B::Elem>,
        out_shape: &Shape,
        pool: &WorkerPool,
    ) -> Tensor<B::Elem> {
        if matches!(op, ScaledOp::Flatten) {
            return input.flatten();
        }
        let sent: Arc<Vec<Vec<u8>>> =
            Arc::new(input.data().iter().map(B::task_bytes).collect());
        let in_shape = input.shape().clone();
        // Without partitioning every output element is its own task and
        // is sent the whole input. An element-wise op reads one input per
        // output, so there is nothing to withhold from it: in both modes
        // a thread's chunk is one task and is sent its own slice.
        let task_per_element = self.mode == PartitionMode::None
            && !matches!(op, ScaledOp::ScaleMul { .. } | ScaledOp::Affine { .. });
        let (backend, op) = (backend.clone(), Arc::new(op.clone()));
        let intra = Arc::clone(&self.intra_bytes);
        let out = pool.map_ranges(out_shape.len(), move |r| {
            let ctx = backend.ctx();
            let tasks: Vec<Range<usize>> =
                if task_per_element { r.map(|e| e..e + 1).collect() } else { vec![r] };
            let mut out = Vec::new();
            for task in tasks {
                let read =
                    if task_per_element { None } else { inputs_read(&op, &in_shape, task.clone()) };
                let input = receive(&backend, &sent, read.as_ref(), &in_shape, &intra);
                out.extend(compute_range(&ctx, &op, &input, task));
            }
            out
        });
        Tensor::from_vec(out_shape.clone(), out).expect("sized output")
    }
}

/// The input positions that outputs `range` of `op` read — what tensor
/// partitioning sends to the task computing them; `None` is all of them
/// (a dense layer: output partitioning only).
fn inputs_read(op: &ScaledOp, in_shape: &Shape, range: Range<usize>) -> Option<BTreeSet<usize>> {
    match op {
        ScaledOp::ScaleMul { .. } | ScaledOp::Affine { .. } => Some(range.collect()),
        ScaledOp::Conv2d { spec, .. } => {
            Some(conv_input_indices_for_range(in_shape, spec, range).expect("validated shapes"))
        }
        ScaledOp::SumPool { window, stride } => Some(
            pool_input_indices_for_range(in_shape, *window, *stride, range)
                .expect("validated shapes"),
        ),
        _ => None,
    }
}

/// Rebuilds a task's input tensor from the bytes it is sent — all of
/// them, or only the positions in `read`, the rest being placeholders the
/// range kernel never touches — and counts those bytes.
fn receive<B: RoundBackend>(
    backend: &B,
    sent: &[Vec<u8>],
    read: Option<&BTreeSet<usize>>,
    shape: &Shape,
    intra: &AtomicU64,
) -> Tensor<B::Elem> {
    let mut bytes = 0u64;
    let mut get = |i: usize| {
        bytes += sent[i].len() as u64;
        backend.read_task_bytes(&sent[i])
    };
    let elems = match read {
        None => (0..sent.len()).map(get).collect(),
        Some(read) => {
            let mut elems = vec![backend.placeholder(); sent.len()];
            for &i in read {
                elems[i] = get(i);
            }
            elems
        }
    };
    intra.fetch_add(bytes, Ordering::Relaxed);
    Tensor::from_vec(shape.clone(), elems).expect("shape matches")
}

/// Outputs `range` of one linear op.
fn compute_range<L: LinearAlgebra<Weight = i64>>(
    ctx: &L,
    op: &ScaledOp,
    input: &Tensor<L::Elem>,
    range: Range<usize>,
) -> Vec<L::Elem> {
    match op {
        ScaledOp::ScaleMul { alpha } => {
            range.map(|i| ctx.mul(*alpha, &input.data()[i])).collect()
        }
        ScaledOp::Affine { scale, shift } => {
            let per_channel = input.len() / scale.len();
            range
                .map(|i| {
                    let c = i / per_channel;
                    ctx.add(&ctx.mul(scale[c], &input.data()[i]), &ctx.constant(shift[c]))
                })
                .collect()
        }
        ScaledOp::Dense { weights, bias } => {
            fully_connected_range(ctx, input, weights, bias, range).expect("validated shapes")
        }
        ScaledOp::Conv2d { spec, weights, bias } => {
            conv2d_range(ctx, input, weights, bias, spec, range).expect("validated shapes")
        }
        ScaledOp::SumPool { window, stride } => {
            sum_pool2d_range(ctx, input, *window, *stride, range).expect("validated shapes")
        }
        // Flatten moves no data; non-linear ops never reach a linear stage.
        other => unreachable!("op {other:?} in a linear stage's worker task"),
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
        self.execute_folding(msg, None, pool)
    }

    /// [`NonLinearStage::execute`] on a connection whose server
    /// announced the fold layout `fold`: a folded `msg` is unfolded, and
    /// the re-encrypted tensor is flagged for a folded reply when its
    /// plaintexts allow one ([`may_fold`]).
    pub(crate) fn execute_folding(
        &self,
        msg: EncTensorMsg,
        fold: Option<PackingSpec>,
        pool: &WorkerPool,
    ) -> Result<EncTensorMsg, StreamError> {
        assert!(!self.is_last, "final stage must use execute_final");
        let values = self.decrypt_and_apply(&msg, fold, pool)?;
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
        let folded = may_fold(fold, scaled.iter().map(|&v| i128::from(v)));
        let scaled = Arc::new(scaled);
        let n = scaled.len();
        let cts = pool.map_ranges(n, move |r| {
            let mut rng = StdRng::seed_from_u64(mix(seed ^ r.start as u64));
            r.map(|i| base.encrypt_i64(&pk, scaled[i], &mut rng).to_bytes()).collect::<Vec<_>>()
        });
        Ok(EncTensorMsg { seq: msg.seq, shape: msg.shape, obfuscated: msg.obfuscated, folded, cts })
    }

    /// Final round (Steps 3.5–3.7): decrypt and produce the cleartext
    /// scaled result — stays at the data provider.
    pub fn execute_final(
        &self,
        msg: EncTensorMsg,
        pool: &WorkerPool,
    ) -> Result<PlainTensorMsg, StreamError> {
        self.execute_final_folding(msg, None, pool)
    }

    /// [`NonLinearStage::execute_final`] under the announced layout
    /// `fold` (see [`NonLinearStage::execute_folding`]).
    pub(crate) fn execute_final_folding(
        &self,
        msg: EncTensorMsg,
        fold: Option<PackingSpec>,
        pool: &WorkerPool,
    ) -> Result<PlainTensorMsg, StreamError> {
        assert!(self.is_last, "non-final stage must use execute");
        assert!(!msg.obfuscated, "final round arrives without obfuscation (Step 3.4)");
        let values = self.decrypt_and_apply(&msg, fold, pool)?;
        Ok(PlainTensorMsg { seq: msg.seq, shape: msg.shape, values })
    }

    fn decrypt_and_apply(
        &self,
        msg: &EncTensorMsg,
        fold: Option<PackingSpec>,
        pool: &WorkerPool,
    ) -> Result<Vec<i128>, StreamError> {
        assert_eq!(self.stage.role, StageRole::NonLinear, "misconfigured stage");
        let failed = |e: &dyn std::fmt::Display| {
            StreamError::Stage(format!("decrypt failed in round {}: {e}", msg.seq))
        };
        // The shape is the peer's claim: it must be this stage's, or a
        // reply of any other length would be decrypted and activated.
        let len = self.stage.input_shape.len();
        if shape_len(&msg.shape) != Some(len as u64) {
            return Err(failed(&"reply's shape is not the stage's input shape"));
        }
        let sk = self.keypair.private();
        // Decrypt in parallel (Step 2.1): the batch API splits each
        // ciphertext into its two CRT halves, so even a short tensor
        // saturates the pool at production key sizes.
        let cts = msg.cts.iter().map(|b| Ciphertext::from_bytes(b));
        let mut values = if msg.folded {
            // Unfold: one decryption per slot group, the slots flattened
            // back into tensor order. Count, layout and slot range are
            // the peer's claims; each is checked before it is used.
            let spec = fold.ok_or_else(|| failed(&"folded reply, but no layout was announced"))?;
            if len.div_ceil(spec.slots) != msg.cts.len() {
                return Err(failed(&"folded reply's ciphertext count does not fit its shape"));
            }
            let pk = self.keypair.public();
            let groups = spec
                .fold_groups(len)
                .zip(cts)
                .map(|(run, ct)| {
                    PackedCiphertext::from_parts(&pk, ct, spec, run.len(), spec.op_budget)
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| failed(&e))?;
            let values: Vec<i128> = PackedCiphertext::decrypt_all(&groups, &sk, pool)
                .map_err(|e| failed(&e))?
                .into_iter()
                .flatten()
                .collect();
            let limit =
                u128::from(spec.op_budget) * u128::from(spec.value_bound().unsigned_abs() - 1);
            if values.iter().any(|v| v.unsigned_abs() > limit) {
                return Err(failed(&"folded slot outside the layout's value range"));
            }
            values
        } else {
            sk.try_decrypt_batch_i128(&cts.collect::<Vec<_>>(), pool).map_err(|e| failed(&e))?
        };
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

/// The data provider's input stage for a deployment seeded with `seed`.
pub(crate) fn encrypt_exec(
    pk: PublicKey,
    seed: u64,
    rand_pool: Option<Arc<Mutex<RandomnessPool>>>,
) -> EncryptStage {
    EncryptStage { pk, seed: seed ^ 0x0E2C, rand_pool }
}

/// The model provider's executors for a deployment seeded with `seed`:
/// one per linear stage of `stages`, in round order, sharing one fresh
/// permutation store.
pub(crate) fn linear_execs(
    stages: &[MergedStage],
    pk: &PublicKey,
    seed: u64,
    mode: PartitionMode,
) -> Vec<LinearStage> {
    let perms = Arc::new(PermStore::default());
    let n_linear = stages.iter().filter(|s| s.role == StageRole::Linear).count();
    stages
        .iter()
        .enumerate()
        .filter(|(_, stage)| stage.role == StageRole::Linear)
        .enumerate()
        .map(|(linear_idx, (i, stage))| LinearStage {
            pk: pk.clone(),
            stage: stage.clone(),
            linear_idx,
            is_first: linear_idx == 0,
            is_last: linear_idx + 1 == n_linear,
            perms: Arc::clone(&perms),
            mode,
            seed: seed ^ 0x11AE ^ (i as u64) << 8,
            intra_bytes: Arc::new(AtomicU64::new(0)),
        })
        .collect()
}

/// The data provider's executors for the same deployment: one per
/// non-linear stage of `stages`, in order.
pub(crate) fn nonlinear_execs(
    stages: &[MergedStage],
    keypair: &Keypair,
    factor: i64,
    seed: u64,
) -> Vec<NonLinearStage> {
    stages
        .iter()
        .enumerate()
        .filter(|(_, stage)| stage.role == StageRole::NonLinear)
        .map(|(i, stage)| NonLinearStage {
            keypair: keypair.clone(),
            stage: stage.clone(),
            factor,
            is_last: i + 1 == stages.len(),
            seed: seed ^ 0x2020 ^ (i as u64) << 8,
        })
        .collect()
}

pub(crate) enum StageExec {
    Linear(Arc<LinearStage>),
    NonLinear(Arc<NonLinearStage>),
}

/// Both parties' executors in one process: the encrypt stage, then one
/// executor per merged stage in pipeline order.
pub(crate) struct StageChain {
    pub(crate) encrypt: Arc<EncryptStage>,
    pub(crate) stages: Vec<StageExec>,
}

/// What a stage of a [`StageChain::walk`] sent on.
pub(crate) enum StageOut<'a> {
    Enc(&'a EncTensorMsg),
    Plain(&'a PlainTensorMsg),
}

impl StageOut<'_> {
    /// Its size as a wire frame.
    pub(crate) fn frame_len(&self) -> u64 {
        match self {
            StageOut::Enc(msg) => to_frame(*msg).len() as u64,
            StageOut::Plain(msg) => to_frame(*msg).len() as u64,
        }
    }
}

impl StageChain {
    pub(crate) fn new(
        stages: &[MergedStage],
        keypair: &Keypair,
        factor: i64,
        seed: u64,
        mode: PartitionMode,
        rand_pool: Option<Arc<Mutex<RandomnessPool>>>,
    ) -> Self {
        let mut linear = linear_execs(stages, &keypair.public(), seed, mode).into_iter();
        let mut nonlinear = nonlinear_execs(stages, keypair, factor, seed).into_iter();
        let stages = stages
            .iter()
            .map(|stage| match stage.role {
                StageRole::Linear => StageExec::Linear(Arc::new(
                    linear.next().expect("one executor per linear stage"),
                )),
                StageRole::NonLinear => StageExec::NonLinear(Arc::new(
                    nonlinear.next().expect("one executor per non-linear stage"),
                )),
            })
            .collect();
        StageChain { encrypt: Arc::new(encrypt_exec(keypair.public(), seed, rand_pool)), stages }
    }

    /// Total bytes dispatched to worker threads inside linear stages
    /// (Sec. IV-D's intra-stage communication), summed over the
    /// per-stage counters.
    pub(crate) fn intra_total(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| match s {
                StageExec::Linear(l) => l.intra_bytes.load(Ordering::Relaxed),
                StageExec::NonLinear(_) => 0,
            })
            .sum()
    }

    /// One item through the chain, stage after stage on `pool` — the
    /// protocol without the pipeline (offline profiling, CipherBase).
    /// `visit` sees each pipeline stage as it finishes, the encrypt
    /// stage first: its wall time, the bytes it dispatched to workers,
    /// and what it sent on.
    pub(crate) fn walk(
        &self,
        plain: PlainTensorMsg,
        pool: &WorkerPool,
        mut visit: impl FnMut(Duration, u64, StageOut<'_>),
    ) -> Result<PlainTensorMsg, StreamError> {
        let t0 = Instant::now();
        let mut msg = self.encrypt.encrypt(plain, pool);
        visit(t0.elapsed(), 0, StageOut::Enc(&msg));
        for exec in &self.stages {
            let t0 = Instant::now();
            match exec {
                StageExec::Linear(l) => {
                    let before = l.intra_bytes.load(Ordering::Relaxed);
                    msg = l.execute(msg, pool)?;
                    let wall = t0.elapsed();
                    let dispatched = l.intra_bytes.load(Ordering::Relaxed) - before;
                    visit(wall, dispatched, StageOut::Enc(&msg));
                }
                StageExec::NonLinear(nl) if nl.is_last => {
                    let out = nl.execute_final(msg, pool)?;
                    visit(t0.elapsed(), 0, StageOut::Plain(&out));
                    return Ok(out);
                }
                StageExec::NonLinear(nl) => {
                    msg = nl.execute(msg, pool)?;
                    visit(t0.elapsed(), 0, StageOut::Enc(&msg));
                }
            }
        }
        Err(StreamError::Stage("pipeline must end with a final non-linear stage".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encapsulate::encapsulate;
    use crate::packed::{fold_layout, pack_plain_batch, required_budget};
    use pp_nn::{zoo, ScaledModel};
    use pp_paillier::packing::PackingSpec;
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
        let chain = StageChain::new(&stages, kp, scaled.factor(), 7, mode, None);
        chain.walk(plain_msg(scaled, 0, input), pool, |_, _, _| {}).unwrap().values
    }

    /// A weight-1 packed batch of `members` inputs to `stages[0]`, laid
    /// out for the op budget `stages` need, under a key wide enough for it.
    fn packed_batch(stages: &[MergedStage], members: usize) -> (Keypair, PackedTensorMsg) {
        let kp = Keypair::generate(256, &mut StdRng::seed_from_u64(40));
        let spec =
            PackingSpec::for_key(&kp.public(), 40).unwrap().with_budget(required_budget(stages));
        spec.check().unwrap();
        let shape = &stages[0].input_shape;
        let plains: Vec<PlainTensorMsg> = (0..members)
            .map(|j| PlainTensorMsg {
                seq: j as u64,
                shape: shape_to_wire(shape),
                values: (0..shape.len()).map(|i| ((i * 7 + j) % 9) as i128 - 4).collect(),
            })
            .collect();
        let mut factors = RandomnessPool::new(kp.public());
        let msg = pack_plain_batch(spec, &plains, &mut factors, 3).unwrap();
        (kp, msg)
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

        // The packed back-end goes through the same dispatch: same reply.
        let stages = encapsulate(&scaled).unwrap();
        let (kp, msg) = packed_batch(&stages, 3);
        let reply = |mode| {
            linear_execs(&stages, &kp.public(), 7, mode)[0]
                .execute_packed(msg.clone(), &pool)
                .unwrap()
        };
        let (a, b) = (reply(PartitionMode::Partitioned), reply(PartitionMode::None));
        assert_eq!((a.cts, a.weight), (b.cts, b.weight));
    }

    #[test]
    fn partitioning_reduces_intra_stage_bytes() {
        let (kp, _) = setup(5);
        let pool = WorkerPool::new(4);
        let mut rng = StdRng::seed_from_u64(6);
        let model = zoo::small_convnet("c", (1, 6, 6), 2, 3, &mut rng).unwrap();
        let scaled = ScaledModel::from_model(&model, 100);
        let stages = encapsulate(&scaled).unwrap();
        let conv_shape = &stages[0].input_shape;

        let mut rng2 = StdRng::seed_from_u64(7);
        let msg = EncTensorMsg {
            seq: 0,
            shape: shape_to_wire(conv_shape),
            obfuscated: false,
            folded: false,
            cts: (0..conv_shape.len())
                .map(|i| kp.public().encrypt_i64(i as i64, &mut rng2).to_bytes())
                .collect(),
        };
        let (packed_kp, packed_msg) = packed_batch(&stages, 3);

        // Bytes the conv stage dispatches for one message, per back-end.
        let unpacked = |mode| {
            let exec = linear_execs(&stages, &kp.public(), 1, mode).remove(0);
            exec.execute(msg.clone(), &pool).unwrap();
            exec.intra_bytes.load(Ordering::Relaxed)
        };
        let packed = |mode| {
            let exec = linear_execs(&stages, &packed_kp.public(), 1, mode).remove(0);
            exec.execute_packed(packed_msg.clone(), &pool).unwrap();
            exec.intra_bytes.load(Ordering::Relaxed)
        };
        for (with, without) in [
            (unpacked(PartitionMode::Partitioned), unpacked(PartitionMode::None)),
            (packed(PartitionMode::Partitioned), packed(PartitionMode::None)),
        ] {
            assert!(
                with * 2 < without,
                "partitioning should cut thread-input bytes: with={with} without={without}"
            );
        }
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
        let linear = linear_execs(&stages, &kp.public(), 2, PartitionMode::Partitioned);
        let nonlinear = nonlinear_execs(&stages, &kp, scaled.factor(), 2);

        let enc = encrypt_exec(kp.public(), 2, None);
        let input = pp_tensor::Tensor::from_flat(vec![0.1, 0.2, 0.3]);
        let msg0 = enc.encrypt(plain_msg(&scaled, 0, &input), &pool);
        assert!(!msg0.obfuscated);

        let msg1 = linear[0].execute(msg0, &pool).unwrap();
        assert!(msg1.obfuscated, "intermediate round must be obfuscated (Step 1.4)");

        let msg2 = nonlinear[0].execute(msg1, &pool).unwrap();
        assert!(msg2.obfuscated, "re-encrypted tensor keeps permuted order");

        let msg3 = linear[1].execute(msg2, &pool).unwrap();
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
        let msg = |seq| EncTensorMsg {
            seq,
            shape: vec![5],
            obfuscated: true,
            folded: false,
            cts: cts.clone(),
        };

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
            folded: false,
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
            folded: false,
            cts: (0..4).map(|i| kp.public().encrypt_i64(i, &mut rng).to_bytes()).collect(),
        };
        let err = exec.execute(msg, &pool).unwrap_err();
        assert!(
            matches!(&err, StreamError::Stage(s) if s.contains("permutation")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn wrong_tensor_length_is_an_error_not_a_panic() {
        // A well-formed frame whose ciphertext count is not the stage's:
        // malformed input, so an error on either back-end — no panic for
        // `catch_unwind` to quarantine, and no permutation left behind.
        let (_, pool) = setup(20);
        let stages = [MergedStage {
            role: StageRole::Linear,
            ops: vec![ScaledOp::ScaleMul { alpha: 2 }],
            input_shape: Shape::vector(4),
            output_shape: Shape::vector(4),
        }];
        for members in [3usize, 5] {
            let wrong = MergedStage { input_shape: Shape::vector(members), ..stages[0].clone() };
            let (kp, packed) = packed_batch(std::slice::from_ref(&wrong), 2);
            let exec = LinearStage {
                is_last: false,
                ..linear_execs(&stages, &kp.public(), 5, PartitionMode::Partitioned).remove(0)
            };
            let unpacked = EncTensorMsg {
                seq: 9,
                shape: packed.shape.clone(),
                obfuscated: false,
                folded: false,
                cts: packed.cts.clone(),
            };
            let err = exec.execute(unpacked, &pool).unwrap_err();
            assert!(matches!(&err, StreamError::Stage(s) if s.contains("ciphertexts")), "{err}");
            let err = exec.execute_packed(packed, &pool).unwrap_err();
            assert!(matches!(&err, StreamError::Stage(s) if s.contains("ciphertexts")), "{err}");
            assert!(exec.perms.take(9, 0).is_none());
            assert!(exec.perms.take(PACKED_PERM_BIT, 0).is_none());
        }
    }

    /// A dense 4 → 7 model's two executors under a 256-bit key (three
    /// 64-bit slots), the layout the provider would announce for them,
    /// and an encrypted input.
    fn foldable_round() -> (LinearStage, NonLinearStage, PackingSpec, EncTensorMsg, WorkerPool) {
        let kp = Keypair::generate(256, &mut StdRng::seed_from_u64(50));
        let model = zoo::mlp("m", &[4, 7], &mut StdRng::seed_from_u64(51)).unwrap();
        let scaled = ScaledModel::from_model(&model, 100);
        let stages = encapsulate(&scaled).unwrap();
        let layout = fold_layout(&kp.public(), &stages).expect("the model folds under this key");
        assert_eq!((layout.slot_bits, layout.slots), (64, 3));
        let linear = linear_execs(&stages, &kp.public(), 9, PartitionMode::Partitioned).remove(0);
        let nonlinear = nonlinear_execs(&stages, &kp, scaled.factor(), 9).remove(0);
        let pool = WorkerPool::new(2);
        let input = pp_tensor::Tensor::from_flat(vec![0.5, -0.25, 0.75, 0.1]);
        let request =
            encrypt_exec(kp.public(), 9, None).encrypt(plain_msg(&scaled, 3, &input), &pool);
        (linear, nonlinear, layout, request, pool)
    }

    #[test]
    fn folded_reply_unfolds_to_the_unfolded_reply() {
        let (linear, nonlinear, layout, request, pool) = foldable_round();
        let flagged = EncTensorMsg { folded: true, ..request.clone() };

        // Without a layout the flag asks for nothing: `execute` answers a
        // flagged request with the bytes it answers an unflagged one.
        let plain_reply = linear.execute(request.clone(), &pool).unwrap();
        assert!(!plain_reply.folded);
        assert_eq!(plain_reply.cts.len(), 7);
        assert_eq!(linear.execute(flagged.clone(), &pool).unwrap(), plain_reply);
        // With one, only a flagged request is folded.
        assert_eq!(linear.execute_folding(request, Some(layout), &pool).unwrap(), plain_reply);
        let folded_reply = linear.execute_folding(flagged, Some(layout), &pool).unwrap();
        assert!(folded_reply.folded);
        assert_eq!(folded_reply.shape, plain_reply.shape);
        assert_eq!(folded_reply.cts.len(), 3, "seven outputs in three slots each");

        let want = nonlinear.execute_final(plain_reply, &pool).unwrap();
        let got = nonlinear.execute_final_folding(folded_reply, Some(layout), &pool).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn hostile_folded_tensors_are_errors_not_values() {
        let (linear, nonlinear, layout, request, pool) = foldable_round();
        let pk = nonlinear.keypair.public();
        let honest = linear
            .execute_folding(EncTensorMsg { folded: true, ..request }, Some(layout), &pool)
            .unwrap();
        let refused = |msg: EncTensorMsg, fold, what: &str| {
            let err = nonlinear.execute_final_folding(msg, fold, &pool).expect_err(what);
            assert!(matches!(&err, StreamError::Stage(s) if s.contains("decrypt failed")), "{err}");
        };

        refused(honest.clone(), None, "folded, but this connection announced no layout");
        let mut short = honest.clone();
        short.cts.pop();
        refused(short, Some(layout), "one ciphertext fewer than the shape needs");
        let mut long = honest.clone();
        long.cts.push(long.cts[0].clone());
        refused(long, Some(layout), "one ciphertext more than the shape needs");
        let mut unfolded_count = honest.clone();
        unfolded_count.cts = vec![honest.cts[0].clone(); 7];
        refused(unfolded_count, Some(layout), "one ciphertext per element under the folded flag");

        // A slot one past `W·(B−1)`: only a value the stage could not
        // have produced from in-bound inputs decodes there.
        let limit = layout.op_budget as i128 * (layout.value_bound() as i128 - 1);
        let mut rng = StdRng::seed_from_u64(52);
        for outside in [limit + 1, -limit - 1] {
            // (Seven outputs over three slots: runs of 3, 2 and 2; this
            // is the second.)
            let slots: Vec<Ciphertext> = [0, outside]
                .iter()
                .map(|&v| pk.encrypt_i64(i64::try_from(v).unwrap(), &mut rng))
                .collect();
            let forged = PackedCiphertext::fold(&pk, layout, &slots).unwrap();
            let mut msg = honest.clone();
            msg.cts[1] = forged.ct.to_bytes();
            refused(msg, Some(layout), "a slot outside the layout's value range");
        }
        // The ends of the range themselves are values.
        let slots: Vec<Ciphertext> = [limit, -limit]
            .iter()
            .map(|&v| pk.encrypt_i64(i64::try_from(v).unwrap(), &mut rng))
            .collect();
        let mut msg = honest.clone();
        msg.cts[1] = PackedCiphertext::fold(&pk, layout, &slots).unwrap().ct.to_bytes();
        assert!(nonlinear.execute_final_folding(msg, Some(layout), &pool).is_ok());
    }

    #[test]
    fn only_in_bound_plaintexts_ask_for_a_folded_reply() {
        let spec = PackingSpec { slot_bits: 64, slots: 3, op_budget: 1 << 10 };
        let bound = spec.value_bound() as i128;
        assert!(may_fold(Some(spec), [0, bound - 1, 1 - bound]));
        assert!(may_fold(Some(spec), []));
        assert!(!may_fold(Some(spec), [0, bound]));
        assert!(!may_fold(Some(spec), [-bound]));
        assert!(!may_fold(Some(spec), [i128::MIN]));
        assert!(!may_fold(None, [0]));

        // The re-encrypting stage applies it to what it encrypts.
        let (_, _, layout, _, pool) = foldable_round();
        let kp = Keypair::generate(256, &mut StdRng::seed_from_u64(50));
        let relu = NonLinearStage {
            keypair: kp.clone(),
            stage: MergedStage {
                role: StageRole::NonLinear,
                ops: vec![ScaledOp::ReLU { rescale: 1 }],
                input_shape: Shape::vector(2),
                output_shape: Shape::vector(2),
            },
            factor: 10,
            is_last: false,
            seed: 3,
        };
        let mut rng = StdRng::seed_from_u64(53);
        let mut msg = |values: [i64; 2]| EncTensorMsg {
            seq: 1,
            shape: vec![2],
            obfuscated: true,
            folded: false,
            cts: values.iter().map(|&v| kp.public().encrypt_i64(v, &mut rng).to_bytes()).collect(),
        };
        let bound = layout.value_bound();
        assert!(relu.execute_folding(msg([5, bound - 1]), Some(layout), &pool).unwrap().folded);
        assert!(!relu.execute_folding(msg([5, bound]), Some(layout), &pool).unwrap().folded);
        assert!(!relu.execute_folding(msg([5, 6]), None, &pool).unwrap().folded);
        assert!(!relu.execute(msg([5, 6]), &pool).unwrap().folded);
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
            folded: false,
            cts: (0..2).map(|i| kp.public().encrypt_i64(i, &mut rng).to_bytes()).collect(),
        };
        let metrics = StageMetrics::default();
        let mut cx = StageContext::new(&pool, &metrics);
        let err = FinalNonLinearStage(nl).process(msg, &mut cx).unwrap_err();
        assert!(matches!(&err, StreamError::Stage(s) if s.contains("obfuscated")), "{err}");
    }

    #[test]
    fn consecutive_stream_calls_refill_from_disjoint_factors() {
        // Two one-item calls start at items_done = 0 and 1. Their pool
        // refills must share no factor, or the model provider could
        // divide the two requests' ciphertexts element by element.
        let encrypt_seed = 42 ^ 0x0E2C;
        let (first, second) = (refill_seed(encrypt_seed, 0), refill_seed(encrypt_seed, 1));
        assert_ne!(first, second);
        assert_eq!(first, refill_seed(encrypt_seed, 0));

        let (kp, workers) = setup(5);
        let factors = |seed| {
            let mut pool = RandomnessPool::new(kp.public());
            pool.refill_parallel(12, &workers, seed);
            std::iter::from_fn(|| pool.take_factor()).collect::<Vec<_>>()
        };
        let (a, b) = (factors(first), factors(second));
        assert_eq!(a.len(), 12);
        assert!(a.iter().all(|f| !b.contains(f)), "a blinding factor repeats across calls");
    }
}
