//! Security-property integration tests for the guarantees of paper
//! Sec. II-C: what each party (and an eavesdropper) can observe.

mod common;

use common::{relay, Hop};
use pp_nn::{zoo, ScaledModel};
use pp_obfuscate::distance_correlation;
use pp_paillier::Keypair;
use pp_stream::encapsulate::{encapsulate, StageRole};
use pp_stream::messages::{EncTensorMsg, PlainTensorMsg};
use pp_stream::protocol::{EncryptStage, LinearStage, NonLinearStage, PartitionMode, PermStore};
use pp_stream_runtime::WorkerPool;
use pp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

struct Protocol {
    kp: Keypair,
    scaled: ScaledModel,
    stages: Vec<pp_stream::MergedStage>,
    perms: Arc<PermStore>,
    pool: WorkerPool,
}

impl Protocol {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = zoo::mlp("m", &[6, 8, 3], &mut rng).expect("model");
        let scaled = ScaledModel::from_model(&model, 1_000);
        let stages = encapsulate(&scaled).expect("stages");
        Protocol {
            kp: Keypair::generate(128, &mut rng),
            scaled,
            stages,
            perms: Arc::new(PermStore::default()),
            pool: WorkerPool::new(2),
        }
    }

    /// Runs the protocol, returning every message that crossed the
    /// provider boundary (model↔data), in order.
    fn run_collecting(&self, input: &Tensor<f64>, seq: u64) -> Vec<EncTensorMsg> {
        let mut crossings = Vec::new();
        let enc = EncryptStage { pk: self.kp.public(), seed: 1 ^ seq, rand_pool: None };
        let scaled_in = self.scaled.scale_input(input);
        let mut msg = enc.encrypt(
            PlainTensorMsg {
                seq,
                shape: vec![input.len() as u64],
                values: scaled_in.data().iter().map(|&v| v as i128).collect(),
            },
            &self.pool,
        );
        crossings.push(msg.clone()); // data → model

        let n_linear = self.stages.iter().filter(|s| s.role == StageRole::Linear).count();
        let mut linear_idx = 0;
        for (i, stage) in self.stages.iter().enumerate() {
            match stage.role {
                StageRole::Linear => {
                    let exec = LinearStage {
                        pk: self.kp.public(),
                        stage: stage.clone(),
                        linear_idx,
                        is_first: linear_idx == 0,
                        is_last: linear_idx == n_linear - 1,
                        perms: Arc::clone(&self.perms),
                        mode: PartitionMode::Partitioned,
                        seed: 2,
                        intra_bytes: Arc::new(AtomicU64::new(0)),
                    };
                    msg = exec.execute(msg, &self.pool).expect("linear round");
                    crossings.push(msg.clone()); // model → data
                    linear_idx += 1;
                }
                StageRole::NonLinear => {
                    let exec = NonLinearStage {
                        keypair: self.kp.clone(),
                        stage: stage.clone(),
                        factor: self.scaled.factor(),
                        is_last: i == self.stages.len() - 1,
                        seed: 3,
                    };
                    if !exec.is_last {
                        msg = exec.execute(msg, &self.pool).expect("nonlinear round");
                        crossings.push(msg.clone()); // data → model
                    }
                }
            }
        }
        crossings
    }
}

#[test]
fn everything_crossing_providers_is_encrypted() {
    // Eavesdropper guarantee: all inter-provider traffic is ciphertext.
    let p = Protocol::new(1);
    let input = Tensor::from_flat(vec![0.5, -0.25, 0.1, 0.9, -0.7, 0.3]);
    let crossings = p.run_collecting(&input, 0);
    assert!(crossings.len() >= 3);
    let pk = p.kp.public();
    for (i, msg) in crossings.iter().enumerate() {
        for ct_bytes in &msg.cts {
            let ct = pp_paillier::Ciphertext::from_bytes(ct_bytes);
            assert!(pk.validate(&ct), "crossing {i} carries an invalid ciphertext");
            // A plaintext leak would be a small integer; real ciphertexts
            // are indistinguishable from random elements of Z_{n²}.
            assert!(
                ct.raw().bit_len() > 64,
                "crossing {i} carries a suspiciously small value"
            );
        }
    }
}

#[test]
fn model_provider_cannot_decrypt_what_it_sees() {
    // The model provider holds only the public key; semantic security of
    // Paillier (Sec. III-D) covers the values. We check the system-level
    // consequence: two encryptions of the same input are unlinkable.
    let p = Protocol::new(2);
    let input = Tensor::from_flat(vec![0.5, -0.25, 0.1, 0.9, -0.7, 0.3]);
    let a = p.run_collecting(&input, 0);
    let b = p.run_collecting(&input, 1);
    // Same plaintext request, different randomness: every ciphertext
    // differs.
    for (ma, mb) in a.iter().zip(&b) {
        for (ca, cb) in ma.cts.iter().zip(&mb.cts) {
            assert_ne!(ca, cb, "ciphertexts must be probabilistic");
        }
    }
}

#[test]
fn intermediate_crossings_to_data_provider_are_obfuscated() {
    let p = Protocol::new(3);
    let input = Tensor::from_flat(vec![0.2, 0.4, -0.6, 0.8, -1.0, 0.1]);
    let crossings = p.run_collecting(&input, 0);
    // crossings: [enc input (D→M), linear0 out (M→D, obf), re-enc (D→M,
    // still obf), linear1 out (M→D, last round: clear positions)].
    assert!(!crossings[0].obfuscated, "input tensor is not obfuscated");
    assert!(crossings[1].obfuscated, "intermediate round must be obfuscated (Step 1.4)");
    let last = crossings.last().unwrap();
    assert!(!last.obfuscated, "final round skips obfuscation (Step 3.4)");
}

#[test]
fn data_provider_view_is_weakly_correlated_with_true_activations() {
    // What the curious data provider actually sees mid-protocol: the
    // decrypted but permuted activation vector. Its positional
    // correlation with the true (unpermuted) activations must be weak —
    // the Exp#5 argument, at integration level.
    let mut rng = StdRng::seed_from_u64(4);
    let model = zoo::mlp("m", &[32, 256, 4], &mut rng).expect("model");
    let scaled = ScaledModel::from_model(&model, 1_000);

    let input = Tensor::from_flat((0..32).map(|i| ((i as f64) * 0.3).sin()).collect::<Vec<_>>());
    let x = scaled.scale_input(&input);

    // True first-layer pre-activations (what obfuscation protects).
    let ops = scaled.ops();
    let (weights, bias) = match &ops[0] {
        pp_nn::scaling::ScaledOp::Dense { weights, bias } => (weights, bias),
        _ => panic!("expected dense"),
    };
    let truth: Vec<f64> = (0..weights.shape().dims()[0])
        .map(|j| {
            let mut acc = bias[j] as i128;
            for (i, &xi) in x.data().iter().enumerate() {
                acc += *weights.get(&[j, i]).unwrap() as i128 * xi as i128;
            }
            acc as f64
        })
        .collect();

    // The data provider's view: a fresh random permutation of it.
    let perm = pp_obfuscate::Permutation::random(truth.len(), &mut rng);
    let view = perm.apply(&truth).unwrap();
    let d = distance_correlation(&truth, &view);
    assert!(d < 0.25, "positional leakage too high: dcor={d}");
}

#[test]
fn permutations_vary_per_round_and_request() {
    // Fresh seeds per round (Sec. III-C): the permutation drawn by the
    // same stage for different requests must differ, so positions cannot
    // be linked across rounds.
    let p = Protocol::new(5);
    let input = Tensor::from_flat(vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
    let a = p.run_collecting(&input, 10);
    let b = p.run_collecting(&input, 11);
    // Same request content, different seq: the obfuscated crossings carry
    // different element orders. Decrypt both and compare orders.
    let sk = p.kp.private();
    let dec = |m: &EncTensorMsg| -> Vec<i64> {
        m.cts
            .iter()
            .map(|c| sk.decrypt_i64(&pp_paillier::Ciphertext::from_bytes(c)))
            .collect()
    };
    let va = dec(&a[1]);
    let vb = dec(&b[1]);
    let mut sa = va.clone();
    let mut sb = vb.clone();
    sa.sort_unstable();
    sb.sort_unstable();
    assert_eq!(sa, sb, "same multiset of activations");
    assert_ne!(va, vb, "different permutation per request");
}

#[test]
fn input_blinding_does_not_repeat_across_stream_calls() {
    // Two `infer_stream` calls on one session, same input. Were the k-th
    // input element of both calls blinded by the same factor, the model
    // provider could divide the two ciphertexts and read
    // `1 + (x_k − x'_k)·n`; with equal inputs the ciphertexts would be
    // byte-identical. A frame-forwarding relay stands where the model
    // provider's socket is and records what the client sends.
    use pp_stream::messages::{peek_tag, MsgTag};
    use pp_stream::{ModelProvider, NetConfig, NetworkedSession, ServeOptions};
    use pp_stream_runtime::wire::from_frame;
    use std::net::TcpListener;
    use std::sync::Mutex;

    let mut rng = StdRng::seed_from_u64(6);
    let model = zoo::mlp("m", &[6, 8, 3], &mut rng).expect("model");
    let scaled = ScaledModel::from_model(&model, 1_000);
    let config = NetConfig::small_test(128);
    let provider = Arc::new(ModelProvider::new(&scaled, &config).expect("provider"));
    let handle = provider
        .serve_forever(TcpListener::bind("127.0.0.1:0").expect("bind"), ServeOptions::default())
        .expect("spawn server");
    let server = handle.addr();

    let requests: Arc<Mutex<Vec<EncTensorMsg>>> = Arc::default();
    let seen = Arc::clone(&requests);
    let (relay_addr, forwarding) = relay(server, move |hop, payload| {
        if hop == Hop::ToServer && peek_tag(&payload) == Some(MsgTag::EncTensor) {
            seen.lock().unwrap().push(from_frame(payload.clone()).expect("request"));
        }
        payload
    });

    let mut session = NetworkedSession::connect(relay_addr, scaled, &config).expect("connect");
    let input = Tensor::from_flat(vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
    let (first, _) = session.infer_stream(std::slice::from_ref(&input)).expect("first call");
    let (second, _) = session.infer_stream(std::slice::from_ref(&input)).expect("second call");
    assert_eq!(first, second, "same input, same inference");
    assert!(session.shutdown().clean_shutdown);
    forwarding.join().expect("relay");
    handle.shutdown();

    // Round 0 of each item is the un-obfuscated input tensor.
    let requests = requests.lock().unwrap();
    let inputs: Vec<&EncTensorMsg> = requests.iter().filter(|m| !m.obfuscated).collect();
    assert_eq!(inputs.len(), 2, "one input tensor per call");
    assert_eq!(inputs[0].cts.len(), 6);
    for (k, (a, b)) in inputs[0].cts.iter().zip(&inputs[1].cts).enumerate() {
        assert_ne!(a, b, "input element {k} is blinded by the same factor in both calls");
    }
}

/// A provider, a relay in front of it, and the frames a two-item stream
/// put on the wire after the handshake — with `tap` free to rewrite
/// requests on their way up. Also: the layout the session was announced
/// and its keypair (a session derives its key from `config.seed`).
fn folded_crossings(
    tap: impl Fn(EncTensorMsg) -> EncTensorMsg + Send + 'static,
) -> (Vec<(Hop, bytes::Bytes)>, pp_paillier::PackingSpec, Keypair) {
    use pp_stream::messages::{peek_tag, MsgTag};
    use pp_stream::{ModelProvider, NetConfig, NetworkedSession, ServeOptions};
    use pp_stream_runtime::wire::{from_frame, to_frame};
    use std::sync::Mutex;

    let model = zoo::mlp("m", &[6, 8, 3], &mut StdRng::seed_from_u64(7)).expect("model");
    let scaled = ScaledModel::from_model(&model, 1_000);
    // Three 64-bit slots per ciphertext.
    let config = NetConfig::small_test(256);
    let provider = Arc::new(ModelProvider::new(&scaled, &config).expect("provider"));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = provider.serve_forever(listener, ServeOptions::default()).expect("spawn server");

    let crossings: Arc<Mutex<Vec<(Hop, bytes::Bytes)>>> = Arc::default();
    let seen = Arc::clone(&crossings);
    let (relay_addr, forwarding) = relay(handle.addr(), move |hop, payload| {
        let payload = match (hop, peek_tag(&payload)) {
            (_, Some(MsgTag::Hello | MsgTag::Accept)) => return payload,
            (Hop::ToServer, Some(MsgTag::EncTensor)) => {
                to_frame(&tap(from_frame(payload).expect("request")))
            }
            _ => payload,
        };
        seen.lock().unwrap().push((hop, payload.clone()));
        payload
    });

    let mut session = NetworkedSession::connect(relay_addr, scaled, &config).expect("connect");
    let layout = session.fold_layout().expect("a 256-bit key folds this model");
    let inputs: Vec<Tensor<f64>> = (0..2)
        .map(|i| Tensor::from_flat(vec![0.1 * i as f64, -0.2, 0.3, 0.4, -0.5, 0.6]))
        .collect();
    session.infer_stream(&inputs).expect("stream");
    assert!(session.shutdown().clean_shutdown);
    forwarding.join().expect("relay");
    handle.shutdown();

    let keypair = Keypair::generate(config.key_bits, &mut StdRng::seed_from_u64(config.seed));
    let crossings = std::mem::take(&mut *crossings.lock().unwrap());
    (crossings, layout, keypair)
}

#[test]
fn folded_traffic_is_still_nothing_but_ciphertext_tensors() {
    // With replies folded, every frame after the handshake is, in both
    // directions, a tensor of units mod n² (or an Ack / the Bye, which
    // carry a count and nothing): slot-packing changed what a ciphertext
    // encrypts, not what crosses.
    use pp_stream::messages::{peek_tag, MsgTag};
    use pp_stream_runtime::wire::from_frame;

    let (crossings, layout, keypair) = folded_crossings(|request| request);
    let pk = keypair.public();
    let mut folded_replies = 0;
    for (i, (hop, payload)) in crossings.iter().enumerate() {
        match peek_tag(payload) {
            Some(MsgTag::EncTensor) => {}
            Some(MsgTag::Ack | MsgTag::Bye) if *hop == Hop::ToServer => continue,
            other => panic!("crossing {i} ({hop:?}) is a {other:?} frame"),
        }
        let msg: EncTensorMsg = from_frame(payload.clone()).expect("tensor");
        assert!(!msg.cts.is_empty());
        for ct in &msg.cts {
            let ct = pp_paillier::Ciphertext::from_bytes(ct);
            assert!(pk.validate(&ct), "crossing {i} ({hop:?}) carries a non-unit");
            assert!(ct.raw().bit_len() > 256, "crossing {i} carries a suspiciously small value");
        }
        if *hop == Hop::ToClient {
            assert!(msg.folded, "every request was in bounds, so every reply is folded");
            let elements: u64 = msg.shape.iter().product();
            assert_eq!(msg.cts.len() as u64, elements.div_ceil(layout.slots as u64));
            folded_replies += 1;
        }
    }
    assert_eq!(folded_replies, 4, "two items, two linear rounds each");
}

#[test]
fn a_folded_reply_shows_the_data_provider_what_the_unfolded_one_would() {
    // The same stream twice under one seed (same key, same permutations):
    // once as the client runs it, once with a relay clearing the `folded`
    // flag off every request so the provider answers one ciphertext per
    // output. What the data provider decrypts must be the same values in
    // the same (permuted) order — folding moves the stage's outputs into
    // slots and adds nothing: the bits above the last used slot are zero.
    use pp_paillier::packing::PackedCiphertext;
    use pp_stream_runtime::wire::from_frame;

    let replies = |crossings: Vec<(Hop, bytes::Bytes)>| -> Vec<EncTensorMsg> {
        crossings
            .into_iter()
            .filter(|(hop, _)| *hop == Hop::ToClient)
            .map(|(_, payload)| from_frame(payload).expect("reply"))
            .collect()
    };
    let (folded, layout, keypair) = folded_crossings(|request| request);
    let (unfolded, _, _) = folded_crossings(|request| EncTensorMsg { folded: false, ..request });
    let (folded, unfolded) = (replies(folded), replies(unfolded));
    assert_eq!(folded.len(), 4);
    assert_eq!(unfolded.len(), 4);

    let (pk, sk) = (keypair.public(), keypair.private());
    for (round, (f, u)) in folded.iter().zip(&unfolded).enumerate() {
        assert!(f.folded && !u.folded, "round {round}");
        assert_eq!((f.seq, &f.shape, f.obfuscated), (u.seq, &u.shape, u.obfuscated));
        let want: Vec<i128> = u
            .cts
            .iter()
            .map(|c| sk.decrypt_i128(&pp_paillier::Ciphertext::from_bytes(c)))
            .collect();

        let mut got = Vec::new();
        for (run, bytes) in layout.fold_groups(want.len()).zip(&f.cts) {
            let ct = pp_paillier::Ciphertext::from_bytes(bytes);
            let spare = sk.decrypt(&ct).shr_bits(run.len() * layout.slot_bits);
            assert!(spare.is_zero(), "round {round}: something rides above slot {}", run.len());
            let group =
                PackedCiphertext::from_parts(&pk, ct, layout, run.len(), layout.op_budget).unwrap();
            got.extend(group.decrypt(&sk).unwrap().into_iter().map(i128::from));
        }
        assert_eq!(got, want, "round {round}: same values, same order");
    }
}
