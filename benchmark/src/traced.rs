//! The hand-driven item: the benchmark plays both parties itself, one
//! public call at a time, with a span around each.
//!
//! `NetworkedSession` and `ModelProvider` give no view inside an item,
//! so the per-layer numbers come from driving the same stages through
//! the same codec and a real loopback socket by hand:
//! `EncryptStage::encrypt` → `to_frame` → TCP → `from_frame` →
//! `LinearStage::execute` → … → `NonLinearStage::execute_final`. Callees
//! of a stage (`MontInputs::dot_i64`, `Permutation`, batch decrypt,
//! `encrypt_i64`, and for stage 0 the Montgomery kernels under the dot)
//! cannot be bracketed from outside; they are *replayed* after the item
//! on the inputs the stage saw, with the same `WorkerPool`, and charged
//! to the stage as replayed children (see `spans.rs`).
//!
//! The packed protocol legs in `pp_stream::packed` are crate-private, so
//! the packed item is assembled from the public pieces they are made of
//! (`RandomnessPool::encrypt_packed`, `PackedEncCtx` under the
//! `pp_tensor::ops` kernels, `PackedCiphertext::decrypt_parallel`).

use crate::deploy::{keypair, packing_spec, RunParams, KEY_SEEDS};
use crate::spans::{self, self_time_ns, Recorder, Span};
use crate::workloads::{Workload, PACK_BATCH};
use bytes::Bytes;
use parking_lot::Mutex;
use pp_bigint::{Limb, MontgomeryCtx};
use pp_nn::scaling::ScaledOp;
use pp_obfuscate::Permutation;
use pp_paillier::packing::{PackedCiphertext, PackedMontInputs, PackingSpec};
use pp_paillier::{Ciphertext, Keypair, MontInputs, PublicKey, RandomnessPool};
use pp_stream::messages::{AckMsg, PackedTensorMsg, PlainTensorMsg};
use pp_stream::protocol::{EncryptStage, LinearStage, NonLinearStage, PartitionMode, PermStore};
use pp_stream::{encapsulate_with, MergedStage, PackedEncCtx, StageRole};
use pp_stream_runtime::link::Frame;
use pp_stream_runtime::wire::{from_frame, to_frame};
use pp_stream_runtime::{
    tcp, TcpConfig, TcpFrameReceiver, TcpFrameSender, WireDecode, WireEncode, WorkerPool,
};
use pp_tensor::ops::{
    affine, conv2d, conv2d_range, fully_connected, fully_connected_range, sum_pool2d,
};
use pp_tensor::{DotRow, LinearAlgebra, Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// What the traced run hands back: spans, per-item totals, outputs.
pub struct Traced {
    pub spans: Vec<Span>,
    /// Items driven by hand (batch members on the packed workload).
    pub items: usize,
    pub outputs: Vec<Tensor<i64>>,
    pub counts: Counts,
    /// Slots carrying a value ÷ slots per ciphertext; 0 when unpacked.
    pub slot_utilisation: f64,
}

/// Work counted where it happens, summed over the traced items.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub request_bytes: u64,
    pub reply_bytes: u64,
    pub frames: u64,
    pub encrypts: u64,
    pub dots: u64,
    pub dot_terms: u64,
    pub decrypts: u64,
    pub reencrypts: u64,
    pub pool_misses: u64,
}

/// Both ends of one loopback connection, held by one thread.
struct Wire {
    client_tx: TcpFrameSender,
    client_rx: TcpFrameReceiver,
    server_tx: TcpFrameSender,
    server_rx: TcpFrameReceiver,
}

impl Wire {
    fn open() -> Result<Wire, String> {
        let config = TcpConfig::new();
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let client = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let (server_tx, server_rx) =
            tcp::accept_on(&listener, &config).map_err(|e| e.to_string())?;
        let (client_tx, client_rx) =
            tcp::framed_with(client, &config).map_err(|e| e.to_string())?;
        Ok(Wire {
            client_tx,
            client_rx,
            server_tx,
            server_rx,
        })
    }
}

/// Payloads up to this size are sent and then received on one thread:
/// they fit the loopback socket's buffers with room to spare.
const INLINE_SEND_MAX: usize = 32 * 1024;

/// Sends on one half, receives on the peer's. A large payload is sent
/// from a scoped thread: a 400 KB request need not fit the socket buffers
/// of a peer that has not started reading.
fn transfer(
    tx: &mut TcpFrameSender,
    rx: &mut TcpFrameReceiver,
    payload: Bytes,
) -> Result<Frame, String> {
    let recv = |rx: &mut TcpFrameReceiver| {
        rx.recv()
            .map_err(|e| format!("recv: {e}"))?
            .ok_or_else(|| "peer closed mid-item".to_string())
    };
    if payload.len() <= INLINE_SEND_MAX {
        tx.send_payload(payload).map_err(|e| format!("send: {e}"))?;
        return recv(rx);
    }
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || tx.send_payload(payload));
        let frame = recv(rx);
        sender
            .join()
            .map_err(|_| "sender thread panicked".to_string())?
            .map_err(|e| format!("send: {e}"))?;
        frame
    })
}

#[derive(Clone, Copy)]
enum Direction {
    Request,
    Reply,
}

/// Inputs kept from the item so its stages' callees can be replayed.
enum Pending {
    Linear {
        span: usize,
        linear_idx: usize,
        cts: Vec<Vec<u8>>,
    },
    NonLinear {
        span: usize,
        stage_idx: usize,
        cts: Vec<Vec<u8>>,
    },
    PackedEncrypt {
        span: usize,
        slots: Vec<Vec<i64>>,
        spec: PackingSpec,
    },
    PackedLinear {
        span: usize,
        linear_idx: usize,
        msg: PackedTensorMsg,
    },
    PackedNonLinear {
        span: usize,
        stage_idx: usize,
        msg: PackedTensorMsg,
    },
}

struct Hand<'w> {
    workload: &'w Workload,
    keypair: Keypair,
    pk: PublicKey,
    stages: Vec<MergedStage>,
    /// Indexed by linear-stage index.
    linears: Vec<LinearStage>,
    /// Indexed by merged-stage index; `None` at linear stages.
    nonlinears: Vec<Option<NonLinearStage>>,
    encrypt: EncryptStage,
    rand_pool: Arc<Mutex<RandomnessPool>>,
    client_pool: WorkerPool,
    server_pool: WorkerPool,
    wire: Wire,
    rec: Recorder,
    counts: Counts,
    /// Packed rounds: the permutation each linear stage drew, awaiting
    /// inversion by the next (the job `PermStore` does for `LinearStage`).
    packed_perms: Vec<Option<Permutation>>,
}

/// SplitMix64, for per-(stage, item) seeds of the packed legs.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn wire_shape(shape: &Shape) -> Vec<u64> {
    shape.dims().iter().map(|&d| d as u64).collect()
}

impl<'w> Hand<'w> {
    /// Builds both parties the way `NetworkedSession::connect` and
    /// `ModelProvider` build theirs: same key derivation, same stage
    /// seeds, same partition mode, same pool sizes.
    fn new(workload: &'w Workload, params: &RunParams) -> Result<Self, String> {
        let seed = *KEY_SEEDS.last().expect("KEY_SEEDS is not empty");
        let keypair = keypair(params.key_bits, seed);
        let pk = keypair.public();
        let stages = encapsulate_with(&workload.scaled, true).map_err(|e| e.to_string())?;
        let n_linear = stages
            .iter()
            .filter(|s| s.role == StageRole::Linear)
            .count();
        let perms = Arc::new(PermStore::default());
        let mut linears = Vec::with_capacity(n_linear);
        let mut nonlinears = Vec::with_capacity(stages.len());
        for (i, stage) in stages.iter().enumerate() {
            match stage.role {
                StageRole::Linear => {
                    let linear_idx = linears.len();
                    linears.push(LinearStage {
                        pk: pk.clone(),
                        stage: stage.clone(),
                        linear_idx,
                        is_first: linear_idx == 0,
                        is_last: linear_idx == n_linear - 1,
                        perms: Arc::clone(&perms),
                        mode: PartitionMode::Partitioned,
                        seed: seed ^ 0x11AE ^ (i as u64) << 8,
                        intra_bytes: Arc::new(AtomicU64::new(0)),
                    });
                    nonlinears.push(None);
                }
                StageRole::NonLinear => nonlinears.push(Some(NonLinearStage {
                    keypair: keypair.clone(),
                    stage: stage.clone(),
                    factor: workload.scaled.factor(),
                    is_last: i == stages.len() - 1,
                    seed: seed ^ 0x2020 ^ (i as u64) << 8,
                })),
            }
        }
        if !matches!(nonlinears.last(), Some(Some(nl)) if nl.is_last) {
            return Err("model must end with a non-linear stage".into());
        }
        let base = pp_paillier::shared_refill_cache().get(&pk);
        let rand_pool = Arc::new(Mutex::new(RandomnessPool::with_base(pk.clone(), base)));
        Ok(Hand {
            workload,
            pk: pk.clone(),
            keypair,
            stages,
            packed_perms: vec![None; n_linear],
            linears,
            nonlinears,
            encrypt: EncryptStage {
                pk,
                seed: seed ^ 0x0E2C,
                rand_pool: Some(Arc::clone(&rand_pool)),
            },
            rand_pool,
            client_pool: WorkerPool::new(params.threads),
            server_pool: WorkerPool::new(params.threads),
            wire: Wire::open()?,
            rec: Recorder::default(),
            counts: Counts::default(),
        })
    }

    fn plain(&self, seq: u64, input: &Tensor<f64>) -> PlainTensorMsg {
        let scaled = self.workload.scaled.scale_input(input);
        PlainTensorMsg {
            seq,
            shape: wire_shape(input.shape()),
            values: scaled.data().iter().map(|&v| v as i128).collect(),
        }
    }

    /// The stream's pool refill, before the item as in `infer_stream`.
    fn refill(&mut self, item: u64, count: usize) {
        let id = self.rec.open("pool_refill", item, None, false);
        self.rand_pool.lock().refill_parallel(
            count,
            &self.client_pool,
            self.encrypt.seed ^ 0x5EED ^ mix(item),
        );
        self.rec.close(id);
    }

    /// One hop: encode, cross the socket, decode on the far side.
    fn hop<M: WireEncode + WireDecode>(
        &mut self,
        item: u64,
        root: usize,
        msg: &M,
        direction: Direction,
    ) -> Result<M, String> {
        let payload = self.rec.time("wire_codec", item, root, || to_frame(msg));
        let len = payload.len() as u64;
        let wire = &mut self.wire;
        let frame = self
            .rec
            .time("tcp_transfer", item, root, || match direction {
                Direction::Request => transfer(&mut wire.client_tx, &mut wire.server_rx, payload),
                Direction::Reply => transfer(&mut wire.server_tx, &mut wire.client_rx, payload),
            })?;
        match direction {
            Direction::Request => self.counts.request_bytes += len,
            Direction::Reply => self.counts.reply_bytes += len,
        }
        self.counts.frames += 1;
        self.rec
            .time("wire_codec", item, root, || from_frame::<M>(frame.payload))
            .map_err(|e| format!("decode: {e}"))
    }

    /// The fire-and-forget ack that ends every networked item.
    fn ack(&mut self, item: u64, root: usize, items_done: u64) -> Result<(), String> {
        self.hop(item, root, &AckMsg { items_done }, Direction::Request)
            .map(|_| ())
    }

    fn output(&self, plain: PlainTensorMsg) -> Result<Tensor<i64>, String> {
        let shape: Vec<usize> = plain.shape.iter().map(|&d| d as usize).collect();
        let values = plain
            .values
            .iter()
            .map(|&v| i64::try_from(v).map_err(|_| format!("logit {v} does not fit i64")))
            .collect::<Result<Vec<_>, _>>()?;
        Tensor::from_vec(shape, values).map_err(|e| e.to_string())
    }

    /// One unpacked item, hand-driven. Returns its output and what its
    /// replays need.
    fn drive_item(
        &mut self,
        seq: u64,
        input: &Tensor<f64>,
    ) -> Result<(Tensor<i64>, Vec<Pending>), String> {
        let n_in = input.len();
        self.refill(seq, n_in);
        let mut pending = Vec::new();
        let root = self.rec.open("item", seq, None, false);
        let plain = self.plain(seq, input);
        self.counts.encrypts += n_in as u64;
        let (encrypt, pool) = (&self.encrypt, &self.client_pool);
        let mut msg = self
            .rec
            .time("client_encrypt", seq, root, || encrypt.encrypt(plain, pool));
        let mut linear_idx = 0usize;
        let mut result = None;
        for stage_idx in 0..self.stages.len() {
            match self.stages[stage_idx].role {
                StageRole::Linear => {
                    let request = self.hop(seq, root, &msg, Direction::Request)?;
                    let cts = request.cts.clone();
                    let span = self.rec.open(
                        &format!("server_linear[{linear_idx}]"),
                        seq,
                        Some(root),
                        false,
                    );
                    let reply = self.linears[linear_idx]
                        .execute(request, &self.server_pool)
                        .map_err(|e| e.to_string())?;
                    self.rec.close(span);
                    pending.push(Pending::Linear {
                        span,
                        linear_idx,
                        cts,
                    });
                    msg = self.hop(seq, root, &reply, Direction::Reply)?;
                    linear_idx += 1;
                }
                StageRole::NonLinear => {
                    let nl = self.nonlinears[stage_idx]
                        .as_ref()
                        .expect("non-linear stage");
                    let cts = msg.cts.clone();
                    let span = self.rec.open("client_nonlinear", seq, Some(root), false);
                    if nl.is_last {
                        let out = nl
                            .execute_final(msg, &self.client_pool)
                            .map_err(|e| e.to_string())?;
                        self.rec.close(span);
                        pending.push(Pending::NonLinear {
                            span,
                            stage_idx,
                            cts,
                        });
                        result = Some(out);
                        break;
                    }
                    msg = nl
                        .execute(msg, &self.client_pool)
                        .map_err(|e| e.to_string())?;
                    self.rec.close(span);
                    pending.push(Pending::NonLinear {
                        span,
                        stage_idx,
                        cts,
                    });
                }
            }
        }
        self.ack(seq, root, seq + 1)?;
        self.rec.close(root);
        let out = result.ok_or("pipeline ended without a final non-linear stage")?;
        Ok((self.output(out)?, pending))
    }

    /// Replays the callees of one unpacked item's stages.
    fn replay(&mut self, seq: u64, pending: Vec<Pending>) -> Result<(), String> {
        for p in pending {
            match p {
                Pending::Linear {
                    span,
                    linear_idx,
                    cts,
                } => self.replay_linear(seq, span, linear_idx, &cts)?,
                Pending::NonLinear {
                    span,
                    stage_idx,
                    cts,
                } => self.replay_nonlinear(seq, span, stage_idx, &cts)?,
                Pending::PackedEncrypt { span, slots, spec } => {
                    self.replay_packed_encrypt(seq, span, &slots, spec)?
                }
                Pending::PackedLinear {
                    span,
                    linear_idx,
                    msg,
                } => self.replay_packed_linear(seq, span, linear_idx, &msg)?,
                Pending::PackedNonLinear {
                    span,
                    stage_idx,
                    msg,
                } => self.replay_packed_nonlinear(seq, span, stage_idx, &msg)?,
            }
        }
        Ok(())
    }

    /// `pp-paillier::dot` under every dot-product op of the stage, the
    /// Montgomery kernels under stage 0's dots, and `pp-obfuscate`.
    fn replay_linear(
        &mut self,
        seq: u64,
        span: usize,
        linear_idx: usize,
        cts: &[Vec<u8>],
    ) -> Result<(), String> {
        let exec = &self.linears[linear_idx];
        let (is_first, is_last) = (exec.is_first, exec.is_last);
        let stage = exec.stage.clone();
        let mut shape = stage.input_shape.clone();
        let mut values: Arc<Vec<Ciphertext>> =
            Arc::new(cts.iter().map(|b| Ciphertext::from_bytes(b)).collect());
        // Stored ciphertexts arrive permuted; a dot product costs the
        // same on any arrangement of 2048-bit residues, so the replay
        // neither needs nor undoes the permutation.
        let inverse =
            (!is_first).then(|| Permutation::random(values.len(), &mut StdRng::seed_from_u64(seq)));
        let received = Arc::clone(&values);
        let mut kernels_done = linear_idx != 0;
        for op in &stage.ops {
            let Some(rows) = op_rows(op, &mut shape)? else {
                continue;
            };
            self.counts.dots += rows.len() as u64;
            self.counts.dot_terms += rows.iter().map(|r| r.terms.len() as u64).sum::<u64>();
            let rows = Arc::new(rows);
            let (pk, pool) = (self.pk.clone(), &self.server_pool);
            let (r2, v2) = (Arc::clone(&rows), Arc::clone(&values));
            let (dot_span, outputs) = self.rec.replay("dot", seq, span, || {
                pool.map_ranges(r2.len(), move |range| {
                    let inputs = MontInputs::new(&pk, &v2);
                    range
                        .map(|j| inputs.dot_i64(&r2[j].terms, r2[j].bias))
                        .collect()
                })
            });
            if !kernels_done {
                self.replay_kernels(seq, dot_span, &rows, &values)?;
                kernels_done = true;
            }
            values = Arc::new(outputs);
        }
        let rec = &mut self.rec;
        rec.replay("obfuscate", seq, span, || -> Result<(), String> {
            if let Some(perm) = inverse {
                perm.invert(&received).map_err(|e| e.to_string())?;
            }
            if !is_last {
                let perm = Permutation::random(values.len(), &mut StdRng::seed_from_u64(mix(seq)));
                perm.apply(&values).map_err(|e| e.to_string())?;
            }
            Ok(())
        })
        .1
    }

    /// `pp-bigint` under stage 0's dot products: every input's
    /// Montgomery conversion, the two Straus multi-exponentiations per
    /// row, and the one inversion per row with a negative weight — the
    /// steps of `MontInputs::dot_i64`, each as its own pass over the rows
    /// with the partitioning of the real call.
    fn replay_kernels(
        &mut self,
        seq: u64,
        dot_span: usize,
        rows: &Arc<Vec<DotRow<i64>>>,
        values: &Arc<Vec<Ciphertext>>,
    ) -> Result<(), String> {
        let mont = Arc::new(MontgomeryCtx::new(self.pk.n_squared()).map_err(|e| e.to_string())?);
        let n2 = Arc::new(self.pk.n_squared().clone());
        let pool = &self.server_pool;

        let (m, r, v) = (Arc::clone(&mont), Arc::clone(rows), Arc::clone(values));
        let (_, converted) = self.rec.replay("to_mont", seq, dot_span, || {
            pool.map_ranges(r.len(), move |range| {
                let touched: BTreeSet<usize> = r[range]
                    .iter()
                    .flat_map(|row| row.terms.iter().map(|&(i, _)| i))
                    .collect();
                touched
                    .into_iter()
                    .map(|i| (i, m.to_mont(v[i].raw())))
                    .collect()
            })
        });
        let mut table: Vec<Option<Vec<Limb>>> = vec![None; values.len()];
        for (i, limbs) in converted {
            table[i] = Some(limbs);
        }
        let table = Arc::new(table);

        let (m, r) = (Arc::clone(&mont), Arc::clone(rows));
        let (_, products) = self.rec.replay("multi_exp", seq, dot_span, || {
            pool.map_ranges(r.len(), move |range| {
                range
                    .map(|j| {
                        let side = |keep: fn(i64) -> bool| {
                            let (bases, exps): (Vec<&[Limb]>, Vec<u64>) = r[j]
                                .terms
                                .iter()
                                .filter(|&&(_, w)| keep(w))
                                .map(|&(i, w)| {
                                    (
                                        table[i].as_deref().expect("converted above"),
                                        w.unsigned_abs(),
                                    )
                                })
                                .unzip();
                            (!bases.is_empty()).then(|| m.pow_mod_multi_mont(&bases, &exps))
                        };
                        (side(|w| w > 0), side(|w| w < 0))
                    })
                    .collect::<Vec<_>>()
            })
        });
        let negatives: Arc<Vec<Vec<Limb>>> =
            Arc::new(products.into_iter().filter_map(|(_, neg)| neg).collect());

        let m = Arc::clone(&mont);
        let (_, inverted) = self.rec.replay("modinv", seq, dot_span, || {
            pool.map_ranges(negatives.len(), move |range| {
                range
                    .map(|j| m.from_mont(&negatives[j]).modinv(&n2).is_ok())
                    .collect()
            })
        });
        if inverted.iter().all(|&ok| ok) {
            Ok(())
        } else {
            Err("a ciphertext product was not a unit mod n²".into())
        }
    }

    /// `pp-paillier::keys` under a non-linear stage: the batch decrypt,
    /// and (mid-pipeline) the inline `encrypt_i64` of every activation.
    fn replay_nonlinear(
        &mut self,
        seq: u64,
        span: usize,
        stage_idx: usize,
        cts: &[Vec<u8>],
    ) -> Result<(), String> {
        let nl = self.nonlinears[stage_idx]
            .as_ref()
            .expect("non-linear stage");
        let cts: Vec<Ciphertext> = cts.iter().map(|b| Ciphertext::from_bytes(b)).collect();
        let sk = self.keypair.private();
        let pool = &self.client_pool;
        self.counts.decrypts += cts.len() as u64;
        let (_, values) = self.rec.replay("decrypt", seq, span, || {
            sk.try_decrypt_batch_i128(&cts, pool)
        });
        let mut values = values.map_err(|e| e.to_string())?;
        if nl.is_last {
            return Ok(());
        }
        nl.apply_ops(&mut values);
        let scaled: Arc<Vec<i64>> = Arc::new(
            values
                .iter()
                .map(|&v| i64::try_from(v).map_err(|_| "activation exceeds i64".to_string()))
                .collect::<Result<_, _>>()?,
        );
        self.counts.reencrypts += scaled.len() as u64;
        let pk = self.pk.clone();
        self.rec.replay("reencrypt", seq, span, || {
            pool.map_ranges(scaled.len(), move |range| {
                let mut rng = StdRng::seed_from_u64(mix(seq ^ range.start as u64));
                range
                    .map(|i| pk.encrypt_i64(scaled[i], &mut rng).to_bytes())
                    .collect::<Vec<_>>()
            })
        });
        Ok(())
    }

    // ---- the packed item -------------------------------------------------

    /// One packed batch, hand-driven: the four legs of
    /// `pp_stream::packed` rebuilt from the public pieces under them.
    fn drive_batch(
        &mut self,
        first_seq: u64,
        inputs: &[Tensor<f64>],
        spec: PackingSpec,
    ) -> Result<(Vec<Tensor<i64>>, Vec<Pending>), String> {
        let members = inputs.len();
        let n_in = inputs[0].len();
        // `infer_stream` refills one factor per input element of every
        // member, though a packed batch spends one per position.
        self.refill(first_seq, members * n_in);
        let mut pending = Vec::new();
        let seq = first_seq;
        let root = self.rec.open("item", seq, None, false);
        let plains: Vec<PlainTensorMsg> = inputs
            .iter()
            .enumerate()
            .map(|(j, x)| self.plain(first_seq + j as u64, x))
            .collect();
        let slots: Vec<Vec<i64>> = (0..n_in)
            .map(|a| {
                plains
                    .iter()
                    .map(|p| {
                        i64::try_from(p.values[a]).map_err(|_| "input exceeds i64".to_string())
                    })
                    .collect()
            })
            .collect::<Result<_, _>>()?;
        self.counts.encrypts += n_in as u64;
        let span = self.rec.open("client_encrypt", seq, Some(root), false);
        let mut rng = StdRng::seed_from_u64(mix(self.encrypt.seed ^ seq));
        let cts = {
            let mut pool = self.rand_pool.lock();
            slots
                .iter()
                .map(|s| {
                    pool.encrypt_packed(spec, s, &mut rng)
                        .map(|c| c.ct.to_bytes())
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?
        };
        self.rec.close(span);
        pending.push(Pending::PackedEncrypt { span, slots, spec });
        let mut msg = PackedTensorMsg {
            seqs: plains.iter().map(|p| p.seq).collect(),
            shape: plains[0].shape.clone(),
            obfuscated: false,
            slot_bits: spec.slot_bits as u32,
            slots: spec.slots as u32,
            op_budget: spec.op_budget,
            weight: 1,
            cts,
        };
        let mut linear_idx = 0usize;
        let mut result = None;
        for stage_idx in 0..self.stages.len() {
            match self.stages[stage_idx].role {
                StageRole::Linear => {
                    let request = self.hop(seq, root, &msg, Direction::Request)?;
                    let kept = request.clone();
                    let span = self.rec.open(
                        &format!("server_linear[{linear_idx}]"),
                        seq,
                        Some(root),
                        false,
                    );
                    let reply = self.packed_linear(linear_idx, request)?;
                    self.rec.close(span);
                    pending.push(Pending::PackedLinear {
                        span,
                        linear_idx,
                        msg: kept,
                    });
                    msg = self.hop(seq, root, &reply, Direction::Reply)?;
                    linear_idx += 1;
                }
                StageRole::NonLinear => {
                    let kept = msg.clone();
                    let span = self.rec.open("client_nonlinear", seq, Some(root), false);
                    let (next, finals) = self.packed_nonlinear(stage_idx, msg)?;
                    self.rec.close(span);
                    pending.push(Pending::PackedNonLinear {
                        span,
                        stage_idx,
                        msg: kept,
                    });
                    match next {
                        Some(next) => msg = next,
                        None => {
                            result = Some(finals);
                            break;
                        }
                    }
                }
            }
        }
        self.ack(seq, root, first_seq + members as u64)?;
        self.rec.close(root);
        let finals = result.ok_or("pipeline ended without a final non-linear stage")?;
        let outputs = finals
            .into_iter()
            .map(|p| self.output(p))
            .collect::<Result<_, _>>()?;
        Ok((outputs, pending))
    }

    fn reassemble(
        &self,
        msg: &PackedTensorMsg,
    ) -> Result<(PackingSpec, Vec<PackedCiphertext>), String> {
        let spec = PackingSpec {
            slot_bits: msg.slot_bits as usize,
            slots: msg.slots as usize,
            op_budget: msg.op_budget,
        };
        let cts = msg
            .cts
            .iter()
            .map(|b| {
                PackedCiphertext::from_parts(
                    &self.pk,
                    Ciphertext::from_bytes(b),
                    spec,
                    msg.seqs.len(),
                    msg.weight,
                )
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok((spec, cts))
    }

    /// Model provider, packed: inverse obfuscation → whole-tensor linear
    /// ops over `PackedEncCtx` → weight equalisation → obfuscation.
    fn packed_linear(
        &mut self,
        linear_idx: usize,
        msg: PackedTensorMsg,
    ) -> Result<PackedTensorMsg, String> {
        let (spec, mut cts) = self.reassemble(&msg)?;
        let exec = &self.linears[linear_idx];
        if !exec.is_first {
            let perm = self.packed_perms[linear_idx - 1]
                .take()
                .ok_or("missing packed permutation")?;
            cts = perm.invert(&cts).map_err(|e| e.to_string())?;
        }
        let ctx = PackedEncCtx {
            pk: &self.pk,
            spec,
            used: msg.seqs.len(),
        };
        let mut tensor =
            Tensor::from_vec(exec.stage.input_shape.clone(), cts).map_err(|e| e.to_string())?;
        for op in &exec.stage.ops {
            tensor = match op {
                ScaledOp::Flatten => tensor.flatten(),
                ScaledOp::Dense { weights, bias } => {
                    fully_connected(&ctx, &tensor, weights, bias).map_err(|e| e.to_string())?
                }
                ScaledOp::Conv2d {
                    spec,
                    weights,
                    bias,
                } => conv2d(&ctx, &tensor, weights, bias, spec).map_err(|e| e.to_string())?,
                ScaledOp::Affine { scale, shift } => {
                    affine(&ctx, &tensor, scale, shift).map_err(|e| e.to_string())?
                }
                ScaledOp::SumPool { window, stride } => {
                    sum_pool2d(&ctx, &tensor, *window, *stride).map_err(|e| e.to_string())?
                }
                ScaledOp::ScaleMul { alpha } => tensor.map(|x| ctx.mul(*alpha, x)),
                other => return Err(format!("non-linear op {other:?} in a linear stage")),
            };
        }
        let shape = tensor.shape().clone();
        let mut out = tensor.into_data();
        let weight = out
            .iter()
            .map(PackedCiphertext::weight)
            .max()
            .unwrap_or(1)
            .max(1);
        for c in out.iter_mut() {
            *c = c
                .raise_weight(&self.pk, weight)
                .map_err(|e| e.to_string())?;
        }
        let obfuscated = !exec.is_last;
        if obfuscated {
            let mut rng =
                StdRng::seed_from_u64(mix(exec.seed ^ mix(msg.seqs[0]) ^ linear_idx as u64));
            let perm = Permutation::random(out.len(), &mut rng);
            out = perm.apply(&out).map_err(|e| e.to_string())?;
            self.packed_perms[linear_idx] = Some(perm);
        }
        Ok(PackedTensorMsg {
            shape: wire_shape(&shape),
            obfuscated,
            weight,
            cts: out.iter().map(|c| c.ct.to_bytes()).collect(),
            ..msg
        })
    }

    /// Data provider, packed: decrypt each position, apply the stage's
    /// ops to its slot values, then re-encrypt at weight 1 — or, at the
    /// final stage, scatter slot `j` of every position into member `j`.
    fn packed_nonlinear(
        &mut self,
        stage_idx: usize,
        msg: PackedTensorMsg,
    ) -> Result<(Option<PackedTensorMsg>, Vec<PlainTensorMsg>), String> {
        let (spec, cts) = self.reassemble(&msg)?;
        let nl = self.nonlinears[stage_idx]
            .as_ref()
            .expect("non-linear stage");
        let sk = self.keypair.private();
        let mut rng = StdRng::seed_from_u64(mix(nl.seed ^ mix(msg.seqs[0]).rotate_left(17)));
        let mut per_member: Vec<Vec<i128>> = vec![Vec::with_capacity(cts.len()); msg.seqs.len()];
        let mut repacked = Vec::with_capacity(cts.len());
        for packed in &cts {
            let mut values: Vec<i128> = packed
                .decrypt_parallel(&sk, &self.client_pool)
                .map_err(|e| e.to_string())?
                .iter()
                .map(|&v| v as i128)
                .collect();
            nl.apply_ops(&mut values);
            if nl.is_last {
                for (member, &v) in per_member.iter_mut().zip(&values) {
                    member.push(v);
                }
            } else {
                let out: Vec<i64> = values
                    .iter()
                    .map(|&v| i64::try_from(v).map_err(|_| "activation exceeds i64".to_string()))
                    .collect::<Result<_, _>>()?;
                let ct = PackedCiphertext::encrypt(&self.pk, spec, &out, &mut rng)
                    .map_err(|e| e.to_string())?;
                repacked.push(ct.ct.to_bytes());
            }
        }
        if nl.is_last {
            if msg.obfuscated {
                return Err("final packed round arrived obfuscated".into());
            }
            let finals = msg
                .seqs
                .iter()
                .zip(per_member)
                .map(|(&seq, values)| PlainTensorMsg {
                    seq,
                    shape: msg.shape.clone(),
                    values,
                })
                .collect();
            return Ok((None, finals));
        }
        Ok((
            Some(PackedTensorMsg {
                weight: 1,
                cts: repacked,
                ..msg
            }),
            Vec::new(),
        ))
    }

    /// `PackedCiphertext::encrypt_with_factor` under the packed encrypt.
    fn replay_packed_encrypt(
        &mut self,
        seq: u64,
        span: usize,
        slots: &[Vec<i64>],
        spec: PackingSpec,
    ) -> Result<(), String> {
        self.rand_pool
            .lock()
            .refill_parallel(slots.len(), &self.client_pool, mix(seq));
        let factors: Vec<_> = {
            let mut pool = self.rand_pool.lock();
            (0..slots.len())
                .map(|_| pool.take_factor().expect("refilled above"))
                .collect()
        };
        let pk = &self.pk;
        self.rec
            .replay("packed_encrypt", seq, span, || {
                slots.iter().zip(&factors).try_for_each(|(s, rn)| {
                    PackedCiphertext::encrypt_with_factor(pk, spec, s, rn).map(|_| ())
                })
            })
            .1
            .map_err(|e| e.to_string())
    }

    /// `PackedMontInputs::dot_i64` under a packed linear stage, and
    /// `pp-obfuscate` on its outputs.
    fn replay_packed_linear(
        &mut self,
        seq: u64,
        span: usize,
        linear_idx: usize,
        msg: &PackedTensorMsg,
    ) -> Result<(), String> {
        let (_, mut values) = self.reassemble(msg)?;
        let exec = &self.linears[linear_idx];
        let (is_first, is_last) = (exec.is_first, exec.is_last);
        let stage = exec.stage.clone();
        let mut shape = stage.input_shape.clone();
        for op in &stage.ops {
            let Some(rows) = op_rows(op, &mut shape)? else {
                continue;
            };
            self.counts.dots += rows.len() as u64;
            self.counts.dot_terms += rows.iter().map(|r| r.terms.len() as u64).sum::<u64>();
            let pk = &self.pk;
            let (_, outputs) = self.rec.replay("packed_dot", seq, span, || {
                let inputs = PackedMontInputs::new(pk, &values)?;
                rows.iter()
                    .map(|r| inputs.dot_i64(&r.terms, r.bias))
                    .collect::<Result<Vec<_>, _>>()
            });
            values = outputs.map_err(|e| e.to_string())?;
        }
        self.rec
            .replay("obfuscate", seq, span, || -> Result<(), String> {
                for needed in [!is_first, !is_last] {
                    if needed {
                        let perm =
                            Permutation::random(values.len(), &mut StdRng::seed_from_u64(mix(seq)));
                        perm.apply(&values).map_err(|e| e.to_string())?;
                    }
                }
                Ok(())
            })
            .1
    }

    /// `decrypt_parallel` per position under a packed non-linear stage,
    /// and (mid-pipeline) the inline packed re-encryption.
    fn replay_packed_nonlinear(
        &mut self,
        seq: u64,
        span: usize,
        stage_idx: usize,
        msg: &PackedTensorMsg,
    ) -> Result<(), String> {
        let (spec, cts) = self.reassemble(msg)?;
        let nl = self.nonlinears[stage_idx]
            .as_ref()
            .expect("non-linear stage");
        let sk = self.keypair.private();
        let pool = &self.client_pool;
        let (_, slots) = self.rec.replay("packed_decrypt", seq, span, || {
            cts.iter()
                .map(|c| c.decrypt_parallel(&sk, pool))
                .collect::<Result<Vec<_>, _>>()
        });
        let slots = slots.map_err(|e| e.to_string())?;
        if nl.is_last {
            return Ok(());
        }
        let outs: Vec<Vec<i64>> = slots
            .iter()
            .map(|position| {
                let mut values: Vec<i128> = position.iter().map(|&v| v as i128).collect();
                nl.apply_ops(&mut values);
                values
                    .iter()
                    .map(|&v| i64::try_from(v).map_err(|_| "activation exceeds i64".to_string()))
                    .collect()
            })
            .collect::<Result<_, _>>()?;
        self.counts.reencrypts += outs.len() as u64;
        let pk = &self.pk;
        let mut rng = StdRng::seed_from_u64(mix(seq));
        self.rec
            .replay("reencrypt", seq, span, || {
                outs.iter()
                    .try_for_each(|o| PackedCiphertext::encrypt(pk, spec, o, &mut rng).map(|_| ()))
            })
            .1
            .map_err(|e| e.to_string())
    }
}

/// A `LinearAlgebra` back-end that computes nothing and keeps the rows
/// the `pp_tensor::ops` range kernels lower a layer to — how the replay
/// learns a layer's exact dot products from public functions.
struct RowRecorder(RefCell<Vec<DotRow<i64>>>);

impl LinearAlgebra for RowRecorder {
    type Elem = ();
    type Weight = i64;

    fn mul(&self, _: i64, _: &()) {}
    fn add(&self, _: &(), _: &()) {}
    fn constant(&self, _: i64) {}

    fn dot_rows(&self, _: &[()], rows: &[DotRow<i64>]) -> Vec<()> {
        self.0.borrow_mut().extend_from_slice(rows);
        vec![(); rows.len()]
    }
}

fn record_rows(
    input_shape: &Shape,
    kernel: impl FnOnce(&RowRecorder, &Tensor<()>) -> Result<(), pp_tensor::TensorError>,
) -> Result<Vec<DotRow<i64>>, String> {
    let recorder = RowRecorder(RefCell::new(Vec::new()));
    let input = Tensor::from_vec(input_shape.clone(), vec![(); input_shape.len()])
        .map_err(|e| e.to_string())?;
    kernel(&recorder, &input).map_err(|e| e.to_string())?;
    Ok(recorder.0.into_inner())
}

/// The dot products a linear op lowers to on an input of `shape` —
/// `None` for a pure reshape — advancing `shape` to the op's output.
fn op_rows(op: &ScaledOp, shape: &mut Shape) -> Result<Option<Vec<DotRow<i64>>>, String> {
    match op {
        ScaledOp::Flatten => {
            *shape = Shape::vector(shape.len());
            Ok(None)
        }
        ScaledOp::Dense { weights, bias } => {
            let out = weights.shape().dims()[0];
            let rows = record_rows(shape, |ctx, input| {
                fully_connected_range(ctx, input, weights, bias, 0..out).map(|_| ())
            })?;
            *shape = Shape::vector(out);
            Ok(Some(rows))
        }
        ScaledOp::Conv2d {
            spec,
            weights,
            bias,
        } => {
            let out_shape = spec.output_shape(shape).map_err(|e| e.to_string())?;
            let rows = record_rows(shape, |ctx, input| {
                conv2d_range(ctx, input, weights, bias, spec, 0..out_shape.len()).map(|_| ())
            })?;
            *shape = out_shape;
            Ok(Some(rows))
        }
        other => Err(format!("replay does not cover linear op {other:?}")),
    }
}

/// Drives items (batches of [`PACK_BATCH`] on the packed workload) by
/// hand for as long as `more(rounds_done)` says, replaying each one's
/// callees before the next. Every output is held against
/// `forward_scaled`.
pub fn run(
    workload: &Workload,
    params: &RunParams,
    first_item: usize,
    mut more: impl FnMut(usize) -> bool,
) -> Result<Traced, String> {
    let mut hand = Hand::new(workload, params)?;
    let spec = if workload.spec.packed {
        Some(packing_spec(workload, &hand.keypair)?)
    } else {
        None
    };
    let per_round = spec.map_or(1, |s| PACK_BATCH.min(s.slots));
    let mut outputs = Vec::new();
    let mut rounds = 0usize;
    while more(rounds) {
        let seq = (rounds * per_round) as u64;
        let inputs = workload.take(first_item + rounds * per_round, per_round);
        let (outs, pending) = match spec {
            Some(spec) => hand.drive_batch(seq, &inputs, spec)?,
            None => {
                let (out, pending) = hand.drive_item(seq, &inputs[0])?;
                (vec![out], pending)
            }
        };
        for (out, input) in outs.iter().zip(&inputs) {
            if *out != workload.expected(input) {
                return Err(format!(
                    "hand-driven item {seq} differs from forward_scaled"
                ));
            }
        }
        outputs.extend(outs);
        hand.replay(seq, pending)?;
        rounds += 1;
    }
    if rounds == 0 {
        return Err("traced run drove no item".into());
    }
    hand.counts.pool_misses = hand.rand_pool.lock().misses();
    Ok(Traced {
        spans: hand.rec.spans().to_vec(),
        items: rounds * per_round,
        outputs,
        counts: hand.counts,
        slot_utilisation: spec.map_or(0.0, |s| per_round as f64 / s.slots as f64),
    })
}

/// The least-disturbed hand-driven round's wall time, and the largest
/// share of any round's wall time that no span covers (time between the
/// benchmark's own calls).
pub fn wall_ms_and_gap_share(spans: &[Span]) -> (f64, f64) {
    let roots = spans.iter().enumerate().filter(|(_, s)| s.name == "item");
    roots.fold((f64::INFINITY, 0.0), |(wall, gap), (id, root)| {
        let duration = root.duration_ns() as f64;
        (
            wall.min(duration / 1e6),
            f64::max(gap, self_time_ns(spans, id) as f64 / duration),
        )
    })
}

/// Per-item layer times from the spans: `(metric, milliseconds)`, each
/// the layer's cost on the round the host disturbed least, divided by
/// the round's members. Self times are those minima's differences.
pub fn layer_times(traced: &Traced) -> Vec<(&'static str, f64)> {
    let rounds = spans::items(&traced.spans).len().max(1);
    let members = (traced.items / rounds).max(1) as f64;
    let least = |key: &str| spans::least_ms(&traced.spans, key) / members;
    let mut times: Vec<(&'static str, f64)> = [
        ("pool_refill_ms", "pool_refill"),
        ("client_encrypt_ms", "client_encrypt"),
        ("wire_codec_ms", "wire_codec"),
        ("tcp_transfer_ms", "tcp_transfer"),
        ("server_linear_ms", "server_linear"),
        ("server_linear_stage0_ms", "server_linear[0]"),
        ("dot_ms", "dot"),
        ("to_mont_ms", "to_mont"),
        ("multi_exp_ms", "multi_exp"),
        ("modinv_ms", "modinv"),
        ("obfuscate_ms", "obfuscate"),
        ("client_nonlinear_ms", "client_nonlinear"),
        ("decrypt_ms", "decrypt"),
        ("reencrypt_ms", "reencrypt"),
        ("packed_encrypt_ms", "packed_encrypt"),
        ("packed_dot_ms", "packed_dot"),
        ("packed_decrypt_ms", "packed_decrypt"),
    ]
    .into_iter()
    .map(|(metric, key)| (metric, least(key)))
    .collect();
    let of = |times: &[(&'static str, f64)], name: &str| {
        times
            .iter()
            .find(|(n, _)| *n == name)
            .expect("computed above")
            .1
    };
    let linear_self = of(&times, "server_linear_ms")
        - of(&times, "dot_ms")
        - of(&times, "packed_dot_ms")
        - of(&times, "obfuscate_ms");
    let nonlinear_self = of(&times, "client_nonlinear_ms")
        - of(&times, "decrypt_ms")
        - of(&times, "packed_decrypt_ms")
        - of(&times, "reencrypt_ms");
    times.push(("server_linear_self_ms", linear_self));
    times.push(("client_nonlinear_self_ms", nonlinear_self));
    times
}
