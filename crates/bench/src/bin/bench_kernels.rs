//! **Kernel microbenchmark** — the fused Montgomery multi-exponentiation
//! dot kernel versus the naive per-term `mul_scalar`/`add` fold, a
//! layer's rows with one batched inversion versus one per row, the
//! encryption hot path (full-width `r^n` vs inline fixed-base `h^a` vs
//! pooled factor), pool refill (full-width pow_mod vs fixed-base comb),
//! CRT decrypt (sequential vs parallel halves vs batched), and output
//! folding (one fold of a ciphertext's worth of slots vs the decrypts it
//! takes off the client).
//!
//! Writes machine-readable results to `BENCH_paillier.json` (override
//! with `PP_BENCH_OUT`) and asserts along the way that the fused kernel
//! is *bit-identical* to the naive fold — a benchmark that silently
//! benchmarked a wrong kernel would be worse than none.
//!
//! ```sh
//! cargo run -p pp-bench --release --bin bench_kernels            # full
//! cargo run -p pp-bench --release --bin bench_kernels -- --smoke # CI gate
//! ```
//!
//! Full mode sweeps `PP_KEY_BITS ∈ {256, 2048}` (or just `PP_KEY_BITS`
//! when set) and dot lengths {9, 64, 256, 1024} with ~25% negative
//! weights. Smoke mode (also `PP_BENCH_SMOKE=1`) runs 256-bit keys at
//! lengths {9, 64} and fails if the fused kernel is not at least as fast
//! as the naive fold, the fixed-base encryption not faster than the
//! full-width one, or the batched-inversion rows slower than per-row
//! — the CI regression gates for the kernels. The refill, batch-decrypt
//! and fold gates run at 2048 bits in either mode.

use pp_bigint::{random_coprime, MontgomeryCtx};
use pp_paillier::packing::{PackedCiphertext, PackedMontInputs, PackingSpec};
use pp_paillier::{Ciphertext, Keypair, MontInputs, PublicKey, RandomnessPool};
use pp_stream_runtime::WorkerPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One benchmark row destined for the JSON report.
struct Sample {
    key_bits: usize,
    op: &'static str,
    /// Dot-product length; 0 for per-ciphertext ops.
    len: usize,
    /// Requests served per evaluation (packed rows); 1 for per-item ops.
    batch: usize,
    ns_per_op: u128,
    ops_per_sec: f64,
}

/// Times `f` `reps` times and returns the *minimum* per-op duration
/// (noise-robust for CPU-bound work), where each rep performs `ops`
/// operations.
fn time_min<F: FnMut()>(reps: usize, ops: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best / ops.max(1) as u32
}

fn record(out: &mut Vec<Sample>, key_bits: usize, op: &'static str, len: usize, per_op: Duration) {
    record_batch(out, key_bits, op, len, 1, per_op);
}

/// As [`record`], with the packed batch size; `ns_per_op` is *per item*
/// so packed rows compare directly against the per-item kernels.
fn record_batch(
    out: &mut Vec<Sample>,
    key_bits: usize,
    op: &'static str,
    len: usize,
    batch: usize,
    per_op: Duration,
) {
    let ns = per_op.as_nanos().max(1);
    out.push(Sample { key_bits, op, len, batch, ns_per_op: ns, ops_per_sec: 1e9 / ns as f64 });
    let mut tag = if len > 0 { format!(" len={len}") } else { String::new() };
    if batch > 1 {
        let _ = write!(tag, " batch={batch}");
    }
    println!("  {key_bits:>4}-bit {op:<16}{tag:<16} {:>12} ns/op", ns);
}

/// Signed weights with ~25% negative entries — the mix a trained layer
/// actually feeds the kernel (all-positive would skip the `modinv` path).
fn weights(rng: &mut StdRng, len: usize) -> Vec<i64> {
    (0..len)
        .map(|_| {
            let mag = rng.gen_range(1i64..1_000_000);
            if rng.gen_bool(0.25) {
                -mag
            } else {
                mag
            }
        })
        .collect()
}

/// The pre-kernel linear fold: one `pow_mod` and one `mul_mod` per term.
fn naive_dot(pk: &PublicKey, cts: &[Ciphertext], ws: &[i64]) -> Ciphertext {
    let mut acc = pk.encrypt_constant_i64(0);
    for (c, &w) in cts.iter().zip(ws) {
        acc = pk.add(&acc, &pk.mul_scalar_i64(c, w));
    }
    acc
}

fn bench_key_size(bits: usize, lens: &[usize], smoke: bool, out: &mut Vec<Sample>) {
    let mut rng = StdRng::seed_from_u64(bits as u64 ^ 0xD07);
    let kp = Keypair::generate(bits, &mut rng);
    let pk = kp.public();
    let enc_reps = if bits >= 2048 { 3 } else { 8 };
    let enc_ops = if bits >= 2048 { 4 } else { 64 };

    // Full-width encryption: r^n computed on the request path.
    let ms: Vec<i64> = (0..enc_ops).map(|_| rng.gen_range(-1000i64..1000)).collect();
    let full_per = time_min(enc_reps, enc_ops, || {
        for &m in &ms {
            std::hint::black_box(pk.encrypt_i64(m, &mut rng));
        }
    });
    record(out, bits, "encrypt", 0, full_per);

    // Pooled encryption: r^n precomputed off-path (untimed refill); the
    // timed section is what a streaming client pays per input element.
    let workers = WorkerPool::new(4);
    let mut pool = RandomnessPool::new(kp.public());
    let mut pool_rng = StdRng::seed_from_u64(bits as u64 ^ 0xF00D);
    pool.refill_parallel(enc_ops * enc_reps, &workers, bits as u64 ^ 0xF2);
    let per = time_min(enc_reps, enc_ops, || {
        for &m in &ms {
            std::hint::black_box(pool.encrypt_i64(m, &mut pool_rng));
        }
    });
    assert_eq!(pool.misses(), 0, "pooled bench must not walk the table inline");
    record(out, bits, "encrypt_pooled", 0, per);

    // Fixed-base encryption: the comb walk `h^a` and the multiply, both
    // on the request path — what the data provider pays per re-encrypted
    // activation (and per pool miss). The table build is untimed.
    let base = pp_paillier::shared_refill_cache().get(&pk);
    let ct = base.encrypt_i64(&pk, -12_345, &mut rng);
    assert_eq!(
        kp.private().decrypt_i64(&ct),
        -12_345,
        "fixed-base encryption broke the round trip at {bits} bits"
    );
    let fixed_per = time_min(enc_reps, enc_ops, || {
        for &m in &ms {
            std::hint::black_box(base.encrypt_i64(&pk, m, &mut rng));
        }
    });
    record(out, bits, "encrypt_fixed_base", 0, fixed_per);
    let speedup = full_per.as_secs_f64() / fixed_per.as_secs_f64().max(1e-12);
    println!("       encrypt: fixed-base is {speedup:.2}x full-width");
    if smoke {
        assert!(
            fixed_per < full_per,
            "encrypt regression: fixed-base ({fixed_per:?}) not faster than full-width \
             ({full_per:?}) at {bits} bits"
        );
    }

    // Scalar multiply: the unit the naive fold is built from.
    let ct = pk.encrypt_i64(7, &mut rng);
    let mul_ops = if bits >= 2048 { 8 } else { 128 };
    let per = time_min(enc_reps, mul_ops, || {
        for i in 0..mul_ops {
            std::hint::black_box(pk.mul_scalar_i64(&ct, 999_983 + i as i64));
        }
    });
    record(out, bits, "mul_scalar_i64", 0, per);

    // Naive vs fused dot product across layer widths.
    for &len in lens {
        let cts: Vec<Ciphertext> =
            (0..len).map(|_| pk.encrypt_i64(rng.gen_range(-500i64..500), &mut rng)).collect();
        let ws = weights(&mut rng, len);

        // Bit-identity first: a fast wrong kernel must fail loudly here.
        let naive_ct = naive_dot(&pk, &cts, &ws);
        let fused_ct = pk.dot_i64(&cts, &ws);
        assert_eq!(
            fused_ct.raw(),
            naive_ct.raw(),
            "fused dot diverged from naive fold at {bits} bits, len {len}"
        );

        let dot_reps = if bits >= 2048 { 2 } else { 4 };
        let naive_per = time_min(dot_reps, 1, || {
            std::hint::black_box(naive_dot(&pk, &cts, &ws));
        });
        record(out, bits, "dot_naive", len, naive_per);
        let fused_per = time_min(dot_reps, 1, || {
            std::hint::black_box(pk.dot_i64(&cts, &ws));
        });
        record(out, bits, "dot_fused", len, fused_per);
        let speedup = naive_per.as_secs_f64() / fused_per.as_secs_f64().max(1e-12);
        println!("       dot len={len}: fused is {speedup:.2}x naive");
        if smoke {
            assert!(
                fused_per <= naive_per,
                "kernel regression: fused dot ({fused_per:?}) slower than naive \
                 ({naive_per:?}) at {bits} bits, len {len}"
            );
        }
    }
}

/// One layer's dot products with a single batched inversion
/// ([`MontInputs::dot_rows`]) versus one `modinv` per row: 64 rows of 9
/// taps over an 8×8 input with ~25% negative weights, the shape of the
/// benchmark's `conv_single` first stage. Bit-identity is checked before
/// timing; the smoke gate is batched ≤ per-row (the batch trades each
/// inversion but one for three multiplies, on any host).
fn bench_dot_rows(bits: usize, smoke: bool, out: &mut Vec<Sample>) {
    let mut rng = StdRng::seed_from_u64(bits as u64 ^ 0xC0DE);
    let kp = Keypair::generate(bits, &mut rng);
    let pk = kp.public();
    let (n_rows, taps) = (64usize, 9usize);
    let cts: Vec<Ciphertext> =
        (0..n_rows).map(|_| pk.encrypt_i64(rng.gen_range(-500i64..500), &mut rng)).collect();
    let rows: Vec<Vec<(usize, i64)>> = (0..n_rows)
        .map(|j| {
            let ws = weights(&mut rng, taps);
            (0..taps).map(|t| ((j + t * 7) % n_rows, ws[t])).collect()
        })
        .collect();
    let batched = |inputs: &MontInputs<'_>| inputs.dot_rows(rows.iter().map(|r| (r.as_slice(), 3)));
    let per_row = |inputs: &MontInputs<'_>| -> Vec<Ciphertext> {
        rows.iter().map(|r| inputs.dot_i64(r, 3)).collect()
    };

    let inputs = MontInputs::new(&pk, &cts);
    for (j, (b, p)) in batched(&inputs).iter().zip(&per_row(&inputs)).enumerate() {
        assert_eq!(b.raw(), p.raw(), "batched inversion diverged on row {j} at {bits} bits");
    }

    // A fresh MontInputs per pass: both sides pay the layer's
    // Montgomery conversions, as one layer evaluation does.
    let reps = if bits >= 2048 { 2 } else { 6 };
    let per_row_t = time_min(reps, n_rows, || {
        std::hint::black_box(per_row(&MontInputs::new(&pk, &cts)));
    });
    record(out, bits, "dot_rows_per_row", taps, per_row_t);
    let batched_t = time_min(reps, n_rows, || {
        std::hint::black_box(batched(&MontInputs::new(&pk, &cts)));
    });
    record(out, bits, "dot_rows_batch_inv", taps, batched_t);
    let speedup = per_row_t.as_secs_f64() / batched_t.as_secs_f64().max(1e-12);
    println!("       dot rows: one batched inversion is {speedup:.2}x one per row");
    if smoke {
        assert!(
            batched_t <= per_row_t,
            "dot-rows regression: batched inversion ({batched_t:?}) slower than per-row \
             ({per_row_t:?}) at {bits} bits"
        );
    }
}

/// Pool refill (full-width `r^n` pow_mod vs fixed-base comb walk) and
/// CRT decrypt (sequential halves vs the two-worker splits), the two
/// sides of the fixed-base exponentiation layer. Before timing, each
/// pair is checked for agreement — the parallel and batch decrypts must
/// match the sequential bit-for-bit, and a fixed-base pooled encryption
/// must round-trip through decrypt.
///
/// Smoke gates: `pool_refill_fixed_base` must never be slower than
/// `pool_refill` (the win is algorithmic — short exponent, no
/// squarings — so it holds on any host); at 2048 bits a 16-ciphertext
/// `decrypt_batch` on two workers must take no longer than 16
/// sequential decrypts, with a 15% grace on single-core hosts where the
/// split is pure overhead.
fn bench_refill_decrypt(bits: usize, smoke: bool, out: &mut Vec<Sample>) {
    let mut rng = StdRng::seed_from_u64(bits as u64 ^ 0x5EED);
    let kp = Keypair::generate(bits, &mut rng);
    let pk = kp.public();
    let sk = kp.private();
    let reps = if bits >= 2048 { 3 } else { 6 };
    let count = if bits >= 2048 { 4 } else { 32 };

    // Full-width refill, the reference the comb walk replaced: a fresh
    // `r ∈ Z*_n` and one |n|-bit pow_mod per blinding factor.
    let ctx_n2 = MontgomeryCtx::new(pk.n_squared()).expect("n² is odd");
    let mut refill_rng = StdRng::seed_from_u64(bits as u64 ^ 0x01);
    let pow_per = time_min(reps, count, || {
        for _ in 0..count {
            let r = random_coprime(&mut refill_rng, pk.n());
            std::hint::black_box(ctx_n2.pow_mod(&r, pk.n()));
        }
    });
    record(out, bits, "pool_refill", 0, pow_per);

    // Fixed-base refill: a short-exponent comb walk over the per-key
    // table. The table build is untimed — it comes from the shared cache
    // and amortizes across every pool under this key.
    let base = pp_paillier::shared_refill_cache().get(&pk);
    let mut fb_pool = RandomnessPool::with_base(pk.clone(), base);
    let fb_per = time_min(reps, count, || {
        fb_pool.refill(count, &mut refill_rng);
        while fb_pool.take_factor().is_some() {}
    });
    record(out, bits, "pool_refill_fixed_base", 0, fb_per);
    let speedup = pow_per.as_secs_f64() / fb_per.as_secs_f64().max(1e-12);
    println!("       pool refill: fixed-base is {speedup:.2}x pow_mod");
    if smoke {
        assert!(
            fb_per <= pow_per,
            "refill regression: fixed-base ({fb_per:?}) slower than pow_mod \
             ({pow_per:?}) at {bits} bits"
        );
    }

    // A fixed-base blinding factor must still produce a valid ciphertext.
    fb_pool.refill(1, &mut refill_rng);
    let ct = fb_pool.encrypt_i64(-12_345, &mut refill_rng);
    assert_eq!(
        sk.decrypt_i64(&ct),
        -12_345,
        "fixed-base blinding broke encryption at {bits} bits"
    );

    // CRT decrypt. One ciphertext's p²/q² halves sequentially vs on two
    // workers is reported, not gated: no stage decrypts a lone
    // ciphertext, and a single fork-join is within the host's noise of
    // the sequential call.
    let ct = pk.encrypt_i64(987_654, &mut rng);
    let workers = WorkerPool::new(2);
    assert_eq!(
        sk.decrypt(&ct),
        sk.decrypt_crt_parallel(&ct, &workers),
        "parallel CRT decrypt diverged from sequential at {bits} bits"
    );
    let dec_ops = if bits >= 2048 { 4 } else { 64 };
    let seq_per = time_min(reps, dec_ops, || {
        for _ in 0..dec_ops {
            std::hint::black_box(sk.decrypt(&ct));
        }
    });
    record(out, bits, "decrypt_crt", 0, seq_per);
    let par_per = time_min(reps, dec_ops, || {
        for _ in 0..dec_ops {
            std::hint::black_box(sk.decrypt_crt_parallel(&ct, &workers));
        }
    });
    record(out, bits, "decrypt_crt_parallel", 0, par_per);
    let speedup = seq_per.as_secs_f64() / par_per.as_secs_f64().max(1e-12);
    println!("       decrypt: lone parallel CRT is {speedup:.2}x sequential (not gated)");

    // What the stages call: a tensor's ciphertexts in one batch, their
    // 2·16 halves queued to the two workers.
    let batch: Vec<Ciphertext> = (0..16).map(|m| pk.encrypt_i64(m - 8, &mut rng)).collect();
    assert_eq!(
        sk.decrypt_batch(&batch, &workers),
        batch.iter().map(|c| sk.decrypt(c)).collect::<Vec<_>>(),
        "batch decrypt diverged from sequential at {bits} bits"
    );
    if bits >= 2048 {
        let batch_per = time_min(reps, batch.len(), || {
            std::hint::black_box(sk.decrypt_batch(&batch, &workers));
        });
        record(out, bits, "decrypt_batch", 0, batch_per);
        let speedup = seq_per.as_secs_f64() / batch_per.as_secs_f64().max(1e-12);
        println!("       decrypt: batch of {} is {speedup:.2}x sequential", batch.len());
        if smoke {
            let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            let budget = if cores < 2 { seq_per.mul_f64(1.15) } else { seq_per };
            assert!(
                batch_per <= budget,
                "decrypt regression: batch decrypt ({batch_per:?} per ciphertext) slower \
                 than sequential ({seq_per:?}, budget {budget:?}, {cores} cores) at {bits} bits"
            );
        }
    }
}

/// Output folding ([`PackedCiphertext::fold`]): a full ciphertext's worth
/// of unpacked outputs into one, in the 64-bit layout the model provider
/// announces for a zoo model — 31 slots at 2048 bits, 3 at 256 — against
/// the CRT decrypts it takes off the data provider (all but one). The
/// slots are checked against the plaintexts before timing. Smoke gate,
/// 2048 bits only: the fold costs at most a quarter of those decrypts
/// (`slot_bits + 1` multiplies mod n² per element against one CRT
/// decrypt; about a tenth on this code).
fn bench_fold(bits: usize, smoke: bool, out: &mut Vec<Sample>) {
    let mut rng = StdRng::seed_from_u64(bits as u64 ^ 0xF01D);
    let kp = Keypair::generate(bits, &mut rng);
    let (pk, sk) = (kp.public(), kp.private());
    let spec =
        PackingSpec::for_key(&pk, 64).expect("64-bit slots fit the key").with_budget(1 << 17);
    let values: Vec<i64> =
        (0..spec.slots).map(|_| rng.gen_range(-(1i64 << 40)..1 << 40)).collect();
    let cts: Vec<Ciphertext> = values.iter().map(|&v| pk.encrypt_i64(v, &mut rng)).collect();
    let folded = PackedCiphertext::fold(&pk, spec, &cts).expect("fold");
    assert_eq!(folded.decrypt(&sk).expect("slots"), values, "fold diverged at {bits} bits");

    let reps = if bits >= 2048 { 3 } else { 8 };
    let fold_t = time_min(reps, 1, || {
        std::hint::black_box(PackedCiphertext::fold(&pk, spec, &cts).expect("fold"));
    });
    record(out, bits, "fold_slots", spec.slots, fold_t);
    let saved = spec.slots - 1;
    let decrypts_t = time_min(reps, 1, || {
        for ct in &cts[..saved] {
            std::hint::black_box(sk.decrypt(ct));
        }
    });
    let share = fold_t.as_secs_f64() / decrypts_t.as_secs_f64().max(1e-12);
    println!(
        "       fold: {} ciphertexts into one costs {share:.2}x the {saved} decrypts it removes",
        spec.slots
    );
    if smoke && bits >= 2048 {
        assert!(
            share <= 0.25,
            "fold regression: folding {} ciphertexts ({fold_t:?}) costs {share:.2}x the {saved} \
             sequential decrypts it removes ({decrypts_t:?}) at {bits} bits; the gate is 0.25x",
            spec.slots
        );
    }
}

/// Batch-packed dot kernel versus the per-item fused kernel: one packed
/// evaluation over `len` ciphertexts serves `batch` requests at once, so
/// the per-item cost divides by the batch. Gates (when `gate`):
/// per-item packed ≤ per-item unpacked at batch ≥ 8, and ≥ 4× faster at
/// batch ≥ 32 — the acceptance bar for end-to-end ciphertext packing.
fn bench_packed_dot(bits: usize, slot_bits: usize, gate: bool, out: &mut Vec<Sample>) {
    let mut rng = StdRng::seed_from_u64(bits as u64 ^ 0xBA7C);
    let kp = Keypair::generate(bits, &mut rng);
    let pk = kp.public();
    let len = 9usize; // a 3×3 conv patch / small dense row

    // Small signed weights: the slot width must hold the op budget
    // (1 + Σ|wᵢ|) alongside the value payload, unlike the unbounded
    // weights of the per-item sweep.
    let ws: Vec<i64> =
        (0..len as i64).map(|i| if i % 4 == 0 { -(i % 13 + 1) } else { i % 13 + 1 }).collect();
    let mass: u64 = 1 + ws.iter().map(|w| w.unsigned_abs()).sum::<u64>();
    let spec = PackingSpec::for_key(&pk, slot_bits)
        .map(|s| s.with_budget(mass))
        .and_then(|s| s.check().map(|()| s))
        .expect("packed bench layout must fit the key");
    let bound = spec.value_bound().min(500);
    println!("  packed layout: {slot_bits}-bit slots x {}, budget {mass}", spec.slots);

    // Per-item baseline: the fused unpacked kernel on the same weights
    // and value magnitudes.
    let xs: Vec<i64> = (0..len).map(|_| rng.gen_range(1 - bound..bound)).collect();
    let cts: Vec<Ciphertext> = xs.iter().map(|&x| pk.encrypt_i64(x, &mut rng)).collect();
    let reps = if bits >= 2048 { 2 } else { 4 };
    let unpacked_per = time_min(reps, 1, || {
        std::hint::black_box(pk.dot_i64(&cts, &ws));
    });
    record_batch(out, bits, "dot_unpacked_ref", len, 1, unpacked_per);

    let mut batches = vec![8usize, 32, spec.slots];
    batches.iter_mut().for_each(|b| *b = (*b).min(spec.slots));
    batches.dedup();
    let bias = 3i64;
    for &batch in &batches {
        // Element e of request j — deterministic, within the value bound.
        let value = |e: usize, j: usize| ((e * 31 + j * 17) as i64 % (2 * bound - 1)) - (bound - 1);
        let packed: Vec<PackedCiphertext> = (0..len)
            .map(|e| {
                let slot_vals: Vec<i64> = (0..batch).map(|j| value(e, j)).collect();
                PackedCiphertext::encrypt(&pk, spec, &slot_vals, &mut rng).expect("pack")
            })
            .collect();
        let inputs = PackedMontInputs::new(&pk, &packed).expect("packed inputs");
        let terms: Vec<(usize, i64)> = ws.iter().copied().enumerate().collect();

        // Bit-identity first: slot j must decode to request j's dot.
        let got =
            inputs.dot_i64(&terms, bias).expect("packed dot").decrypt(&kp.private()).expect("slots");
        for (j, &slot) in got.iter().enumerate().take(batch) {
            let want: i64 = ws.iter().enumerate().map(|(e, &w)| w * value(e, j)).sum::<i64>() + bias;
            assert_eq!(slot, want, "packed dot diverged for member {j} at batch {batch}");
        }

        let per_eval = time_min(reps, 1, || {
            std::hint::black_box(inputs.dot_i64(&terms, bias).expect("packed dot"));
        });
        let per_item = per_eval / batch as u32;
        record_batch(out, bits, "dot_packed", len, batch, per_item);
        let speedup = unpacked_per.as_secs_f64() / per_item.as_secs_f64().max(1e-12);
        println!("       packed dot batch={batch}: {speedup:.2}x per-item vs unpacked fused");
        if gate && batch >= 8 {
            assert!(
                per_item <= unpacked_per,
                "packing regression: per-item packed dot ({per_item:?}) slower than \
                 unpacked ({unpacked_per:?}) at {bits} bits, batch {batch}"
            );
        }
        if gate && batch >= 32 {
            assert!(
                speedup >= 4.0,
                "packing acceptance: per-item packed dot must be ≥4x the unpacked \
                 kernel at batch {batch} ({bits} bits), got {speedup:.2}x"
            );
        }
    }
}

fn write_json(path: &str, mode: &str, samples: &[Sample]) {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"paillier_kernels\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    // The parallel-CRT rows only show their 2x on multi-core hosts;
    // record what this run actually had.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let _ = writeln!(s, "  \"host_cores\": {cores},");
    s.push_str("  \"results\": [\n");
    for (i, r) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"key_bits\": {}, \"op\": \"{}\", \"len\": {}, \"batch\": {}, \
             \"ns_per_op\": {}, \"ops_per_sec\": {:.1}}}{comma}",
            r.key_bits, r.op, r.len, r.batch, r.ns_per_op, r.ops_per_sec
        );
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).expect("write benchmark JSON");
    println!("\nwrote {path}");
}

/// The slot width benched per key size: wide enough for realistic
/// activations, narrow enough to pack a useful batch.
fn slot_bits_for(key_bits: usize) -> usize {
    if key_bits >= 2048 {
        32
    } else {
        16
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("PP_BENCH_SMOKE").map(|v| v == "1").unwrap_or(false);
    let packed_gate = std::env::args().any(|a| a == "--packed-gate");
    let out_path =
        std::env::var("PP_BENCH_OUT").unwrap_or_else(|_| "BENCH_paillier.json".into());

    if packed_gate {
        // Packed-dot acceptance gate only (no JSON artifact): per-item
        // packed ≤ unpacked at batch ≥ 8, and ≥4x at batch 32 on
        // 2048-bit keys — run from ci.sh.
        println!("=== Packed-dot kernel gate ===");
        let mut samples = Vec::new();
        for bits in [256usize, 2048] {
            println!("\nkey size {bits} bits:");
            bench_packed_dot(bits, slot_bits_for(bits), true, &mut samples);
        }
        println!("packed gate passed: per-item packed ≤ unpacked at batch ≥ 8, ≥4x at batch 32");
        return;
    }

    let key_sizes: Vec<usize> = if smoke {
        vec![256]
    } else if let Ok(v) = std::env::var("PP_KEY_BITS") {
        vec![v.parse().expect("PP_KEY_BITS must be an integer")]
    } else {
        vec![256, 2048]
    };
    let lens: &[usize] = if smoke { &[9, 64] } else { &[9, 64, 256, 1024] };

    println!(
        "=== Paillier kernel benchmark ({}) ===",
        if smoke { "smoke" } else { "full" }
    );
    let mut samples = Vec::new();
    for &bits in &key_sizes {
        println!("\nkey size {bits} bits:");
        bench_key_size(bits, lens, smoke, &mut samples);
        bench_dot_rows(bits, smoke, &mut samples);
        bench_refill_decrypt(bits, smoke, &mut samples);
        bench_fold(bits, smoke, &mut samples);
        bench_packed_dot(bits, slot_bits_for(bits), smoke, &mut samples);
    }
    if smoke && !key_sizes.contains(&2048) {
        // The inversion, refill, CRT and fold gates only mean something
        // at production key size; run them once at 2048 bits even in
        // smoke mode.
        println!("\nkey size 2048 bits (dot-rows/refill/decrypt/fold gates):");
        bench_dot_rows(2048, true, &mut samples);
        bench_refill_decrypt(2048, true, &mut samples);
        bench_fold(2048, true, &mut samples);
    }
    write_json(&out_path, if smoke { "smoke" } else { "full" }, &samples);
    if smoke {
        println!(
            "smoke gate passed: fused ≤ naive, fixed-base encrypt < full-width, \
             batched-inversion rows ≤ per-row, packed per-item ≤ unpacked, \
             fixed-base refill ≤ pow_mod, batch decrypt ≤ sequential, \
             fold of 31 ≤ 0.25x the 30 decrypts it removes"
        );
    }
}
