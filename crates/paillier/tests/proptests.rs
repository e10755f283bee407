//! Property tests for Paillier homomorphic semantics (paper Eqs. 1–3).

use pp_paillier::packing::{PackedCiphertext, PackedMontInputs, PackingSpec};
use pp_paillier::{Keypair, PaillierError};
use pp_stream_runtime::WorkerPool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// One shared small keypair — keygen dominates test time otherwise.
fn keypair() -> &'static Keypair {
    static KP: OnceLock<Keypair> = OnceLock::new();
    KP.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        Keypair::generate(192, &mut rng)
    })
}

/// The layout the fold properties run under: four 40-bit slots on the
/// shared key, at weight 4 — so a slot holds up to `±4·(2³⁶ − 1)`.
fn fold_spec() -> PackingSpec {
    PackingSpec::for_key(&keypair().public(), 40).unwrap().with_budget(4)
}

/// A slot value from a selector: mostly anywhere in `±limit`, now and
/// then exactly at either end or at zero.
fn slot_value(edge: u8, raw: i64, limit: i64) -> i64 {
    match edge % 8 {
        0 => limit,
        1 => -limit,
        2 => 0,
        _ => raw % (limit + 1),
    }
}

#[test]
fn fold_groups_partition_a_tensor_evenly() {
    let spec = PackingSpec { slot_bits: 64, slots: 31, op_budget: 1 << 17 };
    for len in [0usize, 1, 2, 30, 31, 32, 62, 63, 72, 93, 94, 784] {
        let groups: Vec<_> = spec.fold_groups(len).collect();
        assert_eq!(groups.len(), len.div_ceil(31), "len {len}");
        let mut next = 0;
        for run in &groups {
            assert_eq!(run.start, next, "len {len}: runs are consecutive");
            assert!(!run.is_empty() && run.len() <= 31, "len {len}: {run:?}");
            next = run.end;
        }
        assert_eq!(next, len, "len {len}: every position is in a run");
        let longest = groups.iter().map(|r| r.len()).max().unwrap_or(0);
        let shortest = groups.iter().map(|r| r.len()).min().unwrap_or(0);
        assert!(longest - shortest <= 1, "len {len}: {groups:?}");
    }
    assert_eq!(spec.fold_groups(72).map(|r| r.len()).collect::<Vec<_>>(), vec![24, 24, 24]);
}

#[test]
fn fold_all_gives_the_same_bytes_on_every_pool() {
    // 72 outputs over 31 slots is three runs of 24: more runs than two
    // workers, fewer than four. Which worker folds which run must not
    // show in the result.
    let mut rng = StdRng::seed_from_u64(0xF01D);
    let kp = Keypair::generate(256, &mut rng);
    let pk = kp.public();
    let spec = PackingSpec { slot_bits: 8, slots: 31, op_budget: 2 };
    let limit = 2 * (spec.value_bound() - 1);
    let values: Vec<i64> = (0..72).map(|i| (i * 37 % (2 * limit + 1)) - limit).collect();
    let cts: Vec<_> = values.iter().map(|&v| pk.encrypt_i64(v, &mut rng)).collect();

    let inline = PackedCiphertext::fold_all(&pk, spec, &cts, &WorkerPool::inline()).unwrap();
    assert_eq!(inline.len(), 3);
    let decoded: Vec<i64> =
        inline.iter().flat_map(|group| group.decrypt(&kp.private()).unwrap()).collect();
    assert_eq!(decoded, values);
    for workers in [1usize, 2, 4] {
        let pooled =
            PackedCiphertext::fold_all(&pk, spec, &cts, &WorkerPool::new(workers)).unwrap();
        assert_eq!(pooled.len(), inline.len());
        for (a, b) in pooled.iter().zip(&inline) {
            assert_eq!(a.ct.to_bytes(), b.ct.to_bytes(), "{workers} workers");
            assert_eq!((a.used(), a.weight()), (b.used(), b.weight()));
        }
    }
}

#[test]
fn fold_refuses_what_the_layout_cannot_hold() {
    let kp = keypair();
    let pk = kp.public();
    let spec = fold_spec();
    let mut rng = StdRng::seed_from_u64(9);
    let cts: Vec<_> = (0..=spec.slots as i64).map(|v| pk.encrypt_i64(v, &mut rng)).collect();
    assert!(matches!(
        PackedCiphertext::fold(&pk, spec, &cts),
        Err(PaillierError::InvalidPacking(_))
    ));
    assert!(matches!(
        PackedCiphertext::fold(&pk, spec, &[]),
        Err(PaillierError::InvalidPacking(_))
    ));
    // One slot more than the key's plaintext space holds.
    let wide = PackingSpec { slots: spec.slots + 1, ..spec };
    for refused in [
        PackedCiphertext::fold(&pk, wide, &cts[..2]).map(|_| ()),
        PackedCiphertext::fold_all(&pk, wide, &cts, &WorkerPool::inline()).map(|_| ()),
    ] {
        assert!(matches!(refused, Err(PaillierError::InvalidPacking(_))));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Folding unpacked ciphertexts and decrypting the slots returns
    /// their plaintexts in order, for every occupancy and every signed
    /// value a slot at that weight can hold — the ends included.
    #[test]
    fn fold_then_decrypt_returns_the_values_in_order(
        picks in proptest::collection::vec((any::<u8>(), any::<i64>()), 1..=4),
        seed in any::<u64>(),
    ) {
        let kp = keypair();
        let pk = kp.public();
        let spec = fold_spec();
        let limit = spec.op_budget as i64 * (spec.value_bound() - 1);
        let values: Vec<i64> =
            picks.iter().map(|&(edge, raw)| slot_value(edge, raw, limit)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let cts: Vec<_> = values.iter().map(|&v| pk.encrypt_i64(v, &mut rng)).collect();
        let folded = PackedCiphertext::fold(&pk, spec, &cts).unwrap();
        prop_assert_eq!(folded.used(), values.len());
        prop_assert_eq!(folded.weight(), spec.op_budget);
        prop_assert_eq!(folded.decrypt(&kp.private()).unwrap(), values);
    }

    /// A fold is the packed ciphertext that packing at encryption time
    /// and adding would have built: same occupancy, weight and slots.
    #[test]
    fn fold_agrees_with_packed_encrypt_and_add(
        picks in proptest::collection::vec((any::<u8>(), any::<i64>()), 1..=4),
        seed in any::<u64>(),
    ) {
        let kp = keypair();
        let pk = kp.public();
        let spec = fold_spec();
        let per_part = spec.value_bound() - 1;
        let limit = spec.op_budget as i64 * per_part;
        let values: Vec<i64> =
            picks.iter().map(|&(edge, raw)| slot_value(edge, raw, limit)).collect();
        let mut rng = StdRng::seed_from_u64(seed);

        // Each value as `op_budget` addends inside the fresh-encryption
        // bound, one packed ciphertext per addend.
        let mut rest = values.clone();
        let mut sum: Option<PackedCiphertext> = None;
        for _ in 0..spec.op_budget {
            let part: Vec<i64> = rest.iter().map(|&v| v.clamp(-per_part, per_part)).collect();
            for (r, p) in rest.iter_mut().zip(&part) {
                *r -= p;
            }
            let packed = PackedCiphertext::encrypt(&pk, spec, &part, &mut rng).unwrap();
            sum = Some(match sum {
                Some(acc) => acc.add(&pk, &packed).unwrap(),
                None => packed,
            });
        }
        let sum = sum.unwrap();

        let cts: Vec<_> = values.iter().map(|&v| pk.encrypt_i64(v, &mut rng)).collect();
        let folded = PackedCiphertext::fold(&pk, spec, &cts).unwrap();
        prop_assert_eq!((folded.used(), folded.weight()), (sum.used(), sum.weight()));
        prop_assert_eq!(
            folded.decrypt(&kp.private()).unwrap(),
            sum.decrypt(&kp.private()).unwrap()
        );
    }

    #[test]
    fn roundtrip(m in any::<i32>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(m as u64);
        let c = kp.public().encrypt_i64(m as i64, &mut rng);
        prop_assert_eq!(kp.private().decrypt_i64(&c), m as i64);
    }

    #[test]
    fn additive_homomorphism(a in any::<i32>(), b in any::<i32>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(a as u64 ^ (b as u64) << 1);
        let (pk, sk) = (kp.public(), kp.private());
        let c = pk.add(&pk.encrypt_i64(a as i64, &mut rng), &pk.encrypt_i64(b as i64, &mut rng));
        prop_assert_eq!(sk.decrypt_i64(&c), a as i64 + b as i64);
    }

    #[test]
    fn scalar_homomorphism(m in -1_000_000i64..1_000_000, w in -10_000i64..10_000) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64((m ^ w) as u64);
        let (pk, sk) = (kp.public(), kp.private());
        let c = pk.mul_scalar_i64(&pk.encrypt_i64(m, &mut rng), w);
        prop_assert_eq!(sk.decrypt_i64(&c), m * w);
    }

    #[test]
    fn linear_form(ms in proptest::collection::vec(-1000i64..1000, 1..8),
                   ws in proptest::collection::vec(-1000i64..1000, 8),
                   b in -1000i64..1000) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(b as u64);
        let (pk, sk) = (kp.public(), kp.private());
        let mut acc = pk.encrypt_i64(b, &mut rng);
        for (m, w) in ms.iter().zip(&ws) {
            let c = pk.encrypt_i64(*m, &mut rng);
            acc = pk.add(&acc, &pk.mul_scalar_i64(&c, *w));
        }
        let want: i64 = ms.iter().zip(&ws).map(|(m, w)| m * w).sum::<i64>() + b;
        prop_assert_eq!(sk.decrypt_i64(&acc), want);
    }

    #[test]
    fn add_plain_matches_encrypted_add(m in any::<i32>(), k in any::<i32>()) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(m as u64 ^ (k as u64).rotate_left(7));
        let (pk, sk) = (kp.public(), kp.private());
        let c = pk.encrypt_i64(m as i64, &mut rng);
        prop_assert_eq!(sk.decrypt_i64(&pk.add_plain_i64(&c, k as i64)), m as i64 + k as i64);
    }

    /// The fused multi-exponentiation dot kernel must be *bit-for-bit*
    /// identical to the naive mul/add fold — not just decrypt-equal —
    /// for arbitrary signed weights (zeros included) and biases.
    #[test]
    fn fused_dot_bit_identical_to_naive(
        pairs in proptest::collection::vec((-1000i64..1000, -1000i64..1000), 0..10),
        bias in -1000i64..1000,
    ) {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(bias as u64 ^ (pairs.len() as u64) << 32);
        let pk = kp.public();
        let cts: Vec<_> =
            pairs.iter().map(|(m, _)| pk.encrypt_i64(*m, &mut rng)).collect();
        let terms: Vec<(usize, i64)> =
            pairs.iter().enumerate().map(|(i, (_, w))| (i, *w)).collect();

        let fused = pp_paillier::MontInputs::new(&pk, &cts).dot_i64(&terms, bias);

        let mut naive = pk.encrypt_constant_i64(bias);
        for &(i, w) in &terms {
            naive = pk.add(&naive, &pk.mul_scalar_i64(&cts[i], w));
        }
        prop_assert_eq!(fused.raw(), naive.raw());

        let want: i64 =
            pairs.iter().map(|(m, w)| m * w).sum::<i64>() + bias;
        prop_assert_eq!(kp.private().decrypt_i64(&fused), want);
    }

    /// A layer's rows through one batched inversion must equal one
    /// `dot_i64` per row bit for bit, whichever rows carry a negative
    /// weight (none, some or all of them).
    #[test]
    fn dot_rows_bit_identical_to_per_row_dot(
        ms in proptest::collection::vec(-1000i64..1000, 1..6),
        rows in proptest::collection::vec(
            (proptest::collection::vec((0usize..6, -1000i64..1000), 0..6), -1000i64..1000),
            0..6),
    ) {
        let kp = keypair();
        let pk = kp.public();
        let mut rng = StdRng::seed_from_u64(ms.len() as u64 ^ (rows.len() as u64) << 32);
        let cts: Vec<_> = ms.iter().map(|&m| pk.encrypt_i64(m, &mut rng)).collect();
        let rows: Vec<(Vec<(usize, i64)>, i64)> = rows
            .into_iter()
            .map(|(terms, bias)| {
                (terms.into_iter().map(|(i, w)| (i % cts.len(), w)).collect(), bias)
            })
            .collect();

        let inputs = pp_paillier::MontInputs::new(&pk, &cts);
        let batched = inputs.dot_rows(rows.iter().map(|(t, b)| (t.as_slice(), *b)));
        prop_assert_eq!(batched.len(), rows.len());
        for ((terms, bias), got) in rows.iter().zip(&batched) {
            let per_row = inputs.dot_i64(terms, *bias);
            prop_assert_eq!(got.raw(), per_row.raw());
        }
    }

    /// Packed encrypt → decrypt is the identity at every slot width and
    /// occupancy the key supports.
    #[test]
    fn packed_roundtrip_at_random_slot_counts(
        slot_bits in 24usize..=40,
        values in proptest::collection::vec(-1000i64..1000, 0..8),
        seed in any::<u64>(),
    ) {
        let kp = keypair();
        let pk = kp.public();
        let spec = PackingSpec::for_key(&pk, slot_bits).unwrap();
        prop_assume!(values.len() <= spec.slots);
        let mut rng = StdRng::seed_from_u64(seed);
        let packed = PackedCiphertext::encrypt(&pk, spec, &values, &mut rng).unwrap();
        prop_assert_eq!(packed.used(), values.len());
        prop_assert_eq!(packed.weight(), 1);
        prop_assert_eq!(packed.decrypt(&kp.private()).unwrap(), values);
    }

    /// A packed batched dot (batch in the slots) must decode
    /// bit-identical to `used` independent unpacked `dot_i64` calls —
    /// signed weights, all-negative rows, and zero-weight rows included.
    #[test]
    fn packed_dot_matches_unpacked_dot_per_slot(
        // acts[i][j]: activation i of batch item j.
        acts in proptest::collection::vec(
            proptest::collection::vec(-1000i64..1000, 3), 1..6),
        ws in proptest::collection::vec(-50i64..=50, 6),
        bias in -1000i64..1000,
        negate_all in any::<bool>(),
    ) {
        let kp = keypair();
        let pk = kp.public();
        let spec = PackingSpec::for_key(&pk, 32).unwrap().with_budget(512);
        let mut rng = StdRng::seed_from_u64(bias as u64 ^ (acts.len() as u64) << 48);

        let terms: Vec<(usize, i64)> = acts
            .iter()
            .enumerate()
            .map(|(i, _)| (i, if negate_all { -ws[i].abs() } else { ws[i] }))
            .collect();

        let packs: Vec<PackedCiphertext> = acts
            .iter()
            .map(|row| PackedCiphertext::encrypt(&pk, spec, row, &mut rng).unwrap())
            .collect();
        let packed = PackedMontInputs::new(&pk, &packs)
            .unwrap()
            .dot_i64(&terms, bias)
            .unwrap();
        let got = packed.decrypt(&kp.private()).unwrap();
        prop_assert_eq!(got.len(), 3);

        for (j, &g) in got.iter().enumerate() {
            let cts: Vec<_> = acts
                .iter()
                .map(|row| pk.encrypt_i64(row[j], &mut rng))
                .collect();
            let unpacked = pp_paillier::MontInputs::new(&pk, &cts).dot_i64(&terms, bias);
            prop_assert_eq!(g, kp.private().decrypt_i64(&unpacked), "batch item {}", j);
        }
    }

    /// The parallel CRT split must be bit-identical to the sequential
    /// decrypt for every message, and batch decrypt must agree with
    /// item-at-a-time decryption in order.
    #[test]
    fn parallel_crt_decrypt_matches_sequential(
        ms in proptest::collection::vec(any::<i32>(), 1..5),
    ) {
        let kp = keypair();
        let (pk, sk) = (kp.public(), kp.private());
        let mut rng = StdRng::seed_from_u64(ms[0] as u64 ^ (ms.len() as u64) << 40);
        let workers = WorkerPool::new(2);
        let cts: Vec<_> = ms.iter().map(|&m| pk.encrypt_i64(m as i64, &mut rng)).collect();
        for (c, &m) in cts.iter().zip(&ms) {
            prop_assert_eq!(sk.decrypt(c), sk.decrypt_crt_parallel(c, &workers));
            prop_assert_eq!(sk.try_decrypt_i64(c).unwrap(), m as i64);
        }
        let batch = sk.decrypt_batch(&cts, &workers);
        let seq: Vec<_> = cts.iter().map(|c| sk.decrypt(c)).collect();
        prop_assert_eq!(batch, seq);
    }

    /// A pool refilled through the fixed-base comb must hand out factors
    /// that blind correctly — every pooled encryption decrypts to its
    /// message — and the per-key refill base must be identical no matter
    /// which pool instance derives it.
    #[test]
    fn fixed_base_refill_factors_blind_correctly(
        ms in proptest::collection::vec(-100_000i64..100_000, 1..5),
        seed in any::<u64>(),
    ) {
        let kp = keypair();
        let (pk, sk) = (kp.public(), kp.private());
        let mut rng = StdRng::seed_from_u64(seed);
        let base_a = pp_paillier::RefillBase::for_key(&pk);
        let base_b = pp_paillier::RefillBase::for_key(&pk);
        prop_assert_eq!(base_a.fingerprint(), base_b.fingerprint());
        prop_assert_eq!(base_a.h(), base_b.h());

        let mut pool = pp_paillier::RandomnessPool::with_base(
            pk.clone(),
            std::sync::Arc::new(base_a),
        );
        pool.refill(ms.len(), &mut rng);
        for &m in &ms {
            let c = pool.encrypt_i64(m, &mut rng);
            prop_assert_eq!(sk.try_decrypt_i64(&c).unwrap(), m);
        }
        prop_assert_eq!(pool.misses(), 0);
    }
}
