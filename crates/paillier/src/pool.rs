//! Encryption randomness without a full-width exponentiation.
//!
//! Paillier encryption cost is dominated by the blinding factor
//! `r^n mod n²`, which is independent of the message. A [`RefillBase`]
//! holds a per-key comb table over `h = x^n`, so a valid factor `h^a` is
//! a short fixed-base walk; [`RefillBase::encrypt_i64`] and
//! [`RefillBase::encrypt_packed`] are the data provider's one online
//! encryption path. A [`RandomnessPool`] runs the same walk ahead of
//! time (e.g. while the pipeline is idle), turning each online
//! encryption into a single modular multiplication.
//!
//! A drained pool never degrades *silently*: every encryption that had
//! to walk the table inline bumps [`RandomnessPool::misses`], which the
//! pipeline surfaces through its run report so an undersized pool shows
//! up in telemetry.

use crate::packing::{pack_values, PackedCiphertext, PackingSpec};
use crate::{Ciphertext, PaillierError, PublicKey};
use pp_bigint::{random_bits, random_coprime, BigUint, FixedBaseTable};
use pp_stream_runtime::pool::WorkerPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Bits of the short exponent `a` in the fixed-base refill `h^a`.
/// 128 bits of exponent entropy at minimum (the usual short-exponent
/// indistinguishability margin), growing with the key so bigger keys
/// keep a proportional margin — 256 bits at the paper's 2048-bit keys.
pub(crate) fn short_exp_bits(key_bits: usize) -> usize {
    (key_bits / 8).max(128).min(key_bits)
}

/// Samples a short exponent with its top bit pinned (exact bit length,
/// never zero) so every factor walks the same number of table windows.
fn sample_exponent<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    random_bits(rng, bits)
}

/// Per-key fixed-base refill state: one full-width `h = x^n mod n²`
/// exponentiation plus a comb table over `h`, after which every pool
/// factor is a short fixed-base walk `h^a = (x^a)^n` instead of a
/// full-width `pow_mod`.
///
/// `x` is derived deterministically from the key — the base (like a
/// group generator) carries no secret; the blinding entropy lives
/// entirely in the per-factor exponent `a`. Determinism keeps the
/// factor stream a pure function of `(key, seed, seq)`, which
/// exactly-once replay depends on.
pub struct RefillBase {
    fingerprint: u64,
    exp_bits: usize,
    h: BigUint,
    table: FixedBaseTable,
}

impl RefillBase {
    /// Builds the per-key state: one `pow_mod` for `h` plus the comb
    /// table. Costs on the order of a few hundred Montgomery multiplies
    /// — amortized away after a handful of factors, and shared across
    /// sessions via [`RefillCache`].
    pub fn for_key(pk: &PublicKey) -> Self {
        let fingerprint = pk.fingerprint();
        let mut rng = StdRng::seed_from_u64(fingerprint ^ 0x5F1D_BA5E_0000_0001);
        let x = random_coprime(&mut rng, pk.n());
        let h = pk.ctx().pow_mod(&x, pk.n());
        let exp_bits = short_exp_bits(pk.bits());
        let table = pk.ctx().fixed_base_table(&h, exp_bits);
        RefillBase { fingerprint, exp_bits, h, table }
    }

    /// Fingerprint of the key this state belongs to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Bit length of the short exponents drawn per factor.
    pub fn exp_bits(&self) -> usize {
        self.exp_bits
    }

    /// The precomputed base `h = x^n mod n²`.
    pub fn h(&self) -> &BigUint {
        &self.h
    }

    /// Approximate table footprint in bytes.
    pub fn table_bytes(&self) -> usize {
        self.table.bytes()
    }

    /// One blinding factor `h^a mod n²` for a given short exponent.
    pub fn factor_for(&self, pk: &PublicKey, a: &BigUint) -> BigUint {
        pk.ctx().pow_fixed_base(&self.table, a)
    }

    /// Draws a fresh short exponent from `rng` and returns its factor.
    pub fn sample_factor<R: Rng + ?Sized>(&self, pk: &PublicKey, rng: &mut R) -> BigUint {
        let a = sample_exponent(rng, self.exp_bits);
        self.factor_for(pk, &a)
    }

    /// Encrypts a signed message under a fresh factor `h^a`, `a` drawn
    /// from `rng` — the online encryption: one comb walk and one
    /// multiply, no full-width exponentiation. The bytes are a pure
    /// function of `(key, m, rng state)`.
    pub fn encrypt_i64<R: Rng + ?Sized>(&self, pk: &PublicKey, m: i64, rng: &mut R) -> Ciphertext {
        pk.encrypt_i64_with_factor(m, &self.sample_factor(pk, rng))
    }

    /// Packs and encrypts `values` under a fresh factor `h^a` — the
    /// packed twin of [`RefillBase::encrypt_i64`].
    pub fn encrypt_packed<R: Rng + ?Sized>(
        &self,
        pk: &PublicKey,
        spec: PackingSpec,
        values: &[i64],
        rng: &mut R,
    ) -> Result<PackedCiphertext, PaillierError> {
        PackedCiphertext::encrypt_with_factor(pk, spec, values, &self.sample_factor(pk, rng))
    }
}

/// Process-wide LRU cache of [`RefillBase`] tables keyed by key
/// fingerprint, so multi-tenant servers build each key's table once
/// instead of once per session. Bounded: evicting beyond `cap` tenants
/// drops the least-recently-used table (it rebuilds on next use).
pub struct RefillCache {
    cap: usize,
    entries: Mutex<VecDeque<(u64, Arc<RefillBase>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RefillCache {
    /// Creates a cache holding at most `cap` per-key tables.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "refill cache needs capacity");
        RefillCache {
            cap,
            entries: Mutex::new(VecDeque::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The table for `pk`, building (and caching) it on first use.
    pub fn get(&self, pk: &PublicKey) -> Arc<RefillBase> {
        let fp = pk.fingerprint();
        {
            let mut entries = self.entries.lock().expect("refill cache poisoned");
            if let Some(pos) = entries.iter().position(|(k, _)| *k == fp) {
                let entry = entries.remove(pos).expect("position is valid");
                let base = entry.1.clone();
                entries.push_front(entry);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return base;
            }
        }
        // Build outside the lock: a 2048-bit table costs real time and
        // must not block other tenants' lookups. Two racing builders
        // produce identical state (the derivation is deterministic), so
        // whichever inserts second simply reuses the first's entry.
        let built = Arc::new(RefillBase::for_key(pk));
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().expect("refill cache poisoned");
        if let Some(pos) = entries.iter().position(|(k, _)| *k == fp) {
            let entry = entries.remove(pos).expect("position is valid");
            let base = entry.1.clone();
            entries.push_front(entry);
            return base;
        }
        entries.push_front((fp, built.clone()));
        entries.truncate(self.cap);
        built
    }

    /// Number of cached per-key tables.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("refill cache poisoned").len()
    }

    /// True when no table is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build a table.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// The process-global refill cache shared by every session. Capacity
/// defaults to 16 tenants; `PP_REFILL_CACHE_CAP` overrides.
pub fn shared_refill_cache() -> &'static RefillCache {
    static CACHE: OnceLock<RefillCache> = OnceLock::new();
    CACHE.get_or_init(|| {
        let cap = std::env::var("PP_REFILL_CACHE_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&c| c > 0)
            .unwrap_or(16);
        RefillCache::new(cap)
    })
}

/// A pool of precomputed `r^n mod n²` factors for fast online encryption.
pub struct RandomnessPool {
    pk: PublicKey,
    base: Option<Arc<RefillBase>>,
    factors: VecDeque<BigUint>,
    misses: u64,
}

impl RandomnessPool {
    /// Creates an empty pool for `pk`. The per-key fixed-base table is
    /// fetched from the shared [`RefillCache`] on first refill.
    pub fn new(pk: PublicKey) -> Self {
        RandomnessPool { pk, base: None, factors: VecDeque::new(), misses: 0 }
    }

    /// Creates an empty pool with an explicit per-key table — for
    /// callers that manage their own cache (or pre-warmed handshakes).
    pub fn with_base(pk: PublicKey, base: Arc<RefillBase>) -> Self {
        debug_assert_eq!(base.fingerprint(), pk.fingerprint(), "table belongs to another key");
        RandomnessPool { pk, base: Some(base), factors: VecDeque::new(), misses: 0 }
    }

    /// The per-key fixed-base state, resolving through the shared cache
    /// on first use.
    pub fn base(&mut self) -> &Arc<RefillBase> {
        if self.base.is_none() {
            self.base = Some(shared_refill_cache().get(&self.pk));
        }
        self.base.as_ref().expect("just initialized")
    }

    /// Precomputes `count` randomness factors via the fixed-base walk.
    pub fn refill<R: Rng + ?Sized>(&mut self, count: usize, rng: &mut R) {
        let base = self.base().clone();
        for _ in 0..count {
            let f = base.sample_factor(&self.pk, rng);
            self.factors.push_back(f);
        }
    }

    /// Precomputes `count` factors across a [`WorkerPool`], keeping the
    /// exponentiations off the request path. Each worker chunk derives
    /// its own deterministic RNG from `seed` and its start index, so
    /// the refill is reproducible regardless of how the pool splits the
    /// range.
    pub fn refill_parallel(&mut self, count: usize, workers: &WorkerPool, seed: u64) {
        let base = self.base().clone();
        let pk = self.pk.clone();
        let factors = workers.map_ranges(count, move |range| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (range.start as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            range.map(|_| base.sample_factor(&pk, &mut rng)).collect()
        });
        self.factors.extend(factors);
    }

    /// Number of factors currently available.
    pub fn available(&self) -> usize {
        self.factors.len()
    }

    /// Number of times an encryption found the pool empty and had to
    /// walk the fixed-base table inline on the request path.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Pops a precomputed `r^n` factor, recording a miss when drained.
    pub fn take_factor(&mut self) -> Option<BigUint> {
        let f = self.factors.pop_front();
        if f.is_none() {
            self.misses += 1;
        }
        f
    }

    /// A pooled factor, or — pool drained, miss counted — one walked
    /// inline from the same table with an exponent drawn from `rng`.
    fn factor<R: Rng + ?Sized>(&mut self, rng: &mut R) -> BigUint {
        match self.take_factor() {
            Some(rn) => rn,
            None => self.base().clone().sample_factor(&self.pk, rng),
        }
    }

    /// Encrypts a signed message using a pooled factor; a drained pool
    /// walks the table inline instead, counting the miss.
    pub fn encrypt_i64<R: Rng + ?Sized>(&mut self, m: i64, rng: &mut R) -> Ciphertext {
        let rn = self.factor(rng);
        self.pk.encrypt_i64_with_factor(m, &rn)
    }

    /// Packs and encrypts a batch of values using a pooled factor (or an
    /// inline one, counting the miss, when the pool is drained).
    /// Packing is validated *before* a factor is consumed, so a rejected
    /// batch neither spends nor miscounts pool state.
    pub fn encrypt_packed<R: Rng + ?Sized>(
        &mut self,
        spec: PackingSpec,
        values: &[i64],
        rng: &mut R,
    ) -> Result<PackedCiphertext, PaillierError> {
        spec.check_key(&self.pk)?;
        let m = pack_values(&spec, values)?;
        let rn = self.factor(rng);
        Ok(PackedCiphertext::from_plain_with_factor(&self.pk, spec, values.len(), &m, &rn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Keypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pooled_encryption_decrypts_correctly() {
        let mut rng = StdRng::seed_from_u64(20);
        let kp = Keypair::generate(128, &mut rng);
        let mut pool = RandomnessPool::new(kp.public());
        pool.refill(4, &mut rng);
        assert_eq!(pool.available(), 4);
        for m in [5i64, -17, 0, 123_456] {
            let c = pool.encrypt_i64(m, &mut rng);
            assert_eq!(kp.private().decrypt_i64(&c), m);
        }
        assert_eq!(pool.available(), 0);
        assert_eq!(pool.misses(), 0);
        // Fallback path when drained is counted, not silent.
        let c = pool.encrypt_i64(-1, &mut rng);
        assert_eq!(kp.private().decrypt_i64(&c), -1);
        assert_eq!(pool.misses(), 1);
    }

    #[test]
    fn pooled_ciphertexts_are_distinct() {
        let mut rng = StdRng::seed_from_u64(21);
        let kp = Keypair::generate(128, &mut rng);
        let mut pool = RandomnessPool::new(kp.public());
        pool.refill(2, &mut rng);
        let c1 = pool.encrypt_i64(9, &mut rng);
        let c2 = pool.encrypt_i64(9, &mut rng);
        assert_ne!(c1.raw(), c2.raw());
    }

    #[test]
    fn parallel_refill_is_deterministic_and_valid() {
        let mut rng = StdRng::seed_from_u64(22);
        let kp = Keypair::generate(128, &mut rng);
        let workers = WorkerPool::new(4);

        let mut a = RandomnessPool::new(kp.public());
        a.refill_parallel(16, &workers, 0x5EED);
        let mut b = RandomnessPool::new(kp.public());
        b.refill_parallel(16, &workers, 0x5EED);
        assert_eq!(a.available(), 16);
        // Same seed → identical factor stream, independent of scheduling.
        let fa: Vec<_> = (0..16).map(|_| a.take_factor().unwrap()).collect();
        let fb: Vec<_> = (0..16).map(|_| b.take_factor().unwrap()).collect();
        assert_eq!(fa, fb);

        // Factors from the parallel path encrypt correctly.
        let mut pool = RandomnessPool::new(kp.public());
        pool.refill_parallel(3, &workers, 99);
        for m in [7i64, -42, 0] {
            let c = pool.encrypt_i64(m, &mut rng);
            assert_eq!(kp.private().decrypt_i64(&c), m);
        }
        assert_eq!(pool.misses(), 0);
    }

    #[test]
    fn packed_encrypts_draw_pooled_factors() {
        let mut rng = StdRng::seed_from_u64(24);
        let kp = Keypair::generate(256, &mut rng);
        let spec = PackingSpec::for_key(&kp.public(), 32).unwrap();
        let mut pool = RandomnessPool::new(kp.public());
        pool.refill(2, &mut rng);

        let a = pool.encrypt_packed(spec, &[4, -4, 44], &mut rng).unwrap();
        assert_eq!(a.decrypt(&kp.private()).unwrap(), vec![4, -4, 44]);
        assert_eq!(pool.available(), 1, "a packed encrypt consumes exactly one factor");
        assert_eq!(pool.misses(), 0);

        // A rejected batch consumes nothing and records no miss.
        let too_big = spec.value_bound();
        assert!(pool.encrypt_packed(spec, &[too_big], &mut rng).is_err());
        assert_eq!(pool.available(), 1);
        assert_eq!(pool.misses(), 0);

        // Draining the pool falls back inline and counts the miss.
        pool.encrypt_packed(spec, &[1], &mut rng).unwrap();
        let b = pool.encrypt_packed(spec, &[2, 3], &mut rng).unwrap();
        assert_eq!(b.decrypt(&kp.private()).unwrap(), vec![2, 3]);
        assert_eq!(pool.misses(), 1);
    }

    #[test]
    fn pooled_packed_matches_factor_encryption() {
        // The pooled path must produce exactly encrypt_with_factor's
        // ciphertext for the factor at the head of the pool.
        let mut rng = StdRng::seed_from_u64(25);
        let kp = Keypair::generate(256, &mut rng);
        let spec = PackingSpec::for_key(&kp.public(), 32).unwrap();
        let mut pool = RandomnessPool::new(kp.public());
        pool.refill(1, &mut rng);
        let rn = pool.factors.front().unwrap().clone();
        let via_pool = pool.encrypt_packed(spec, &[7, -8], &mut rng).unwrap();
        let direct =
            PackedCiphertext::encrypt_with_factor(&kp.public(), spec, &[7, -8], &rn).unwrap();
        assert_eq!(via_pool.ct.raw(), direct.ct.raw());
    }

    #[test]
    fn fixed_base_factor_is_bit_identical_to_pow_mod() {
        // The comb walk must produce exactly pow_mod's h^a — same bits,
        // not just the same residue class.
        let mut rng = StdRng::seed_from_u64(26);
        let kp = Keypair::generate(256, &mut rng);
        let pk = kp.public();
        let base = RefillBase::for_key(&pk);
        for bits in [1usize, 17, 64, base.exp_bits()] {
            let a = pp_bigint::random_bits(&mut rng, bits);
            assert_eq!(
                base.factor_for(&pk, &a),
                pk.ctx().pow_mod(base.h(), &a),
                "bits={bits}"
            );
        }
    }

    #[test]
    fn fixed_base_factors_are_valid_blinding() {
        // h^a is a valid r^n with r = x^a: pooled encryptions decrypt.
        let mut rng = StdRng::seed_from_u64(27);
        let kp = Keypair::generate(128, &mut rng);
        let mut pool = RandomnessPool::new(kp.public());
        pool.refill(6, &mut rng);
        for m in [0i64, 1, -1, 123_456, -98_765, i32::MAX as i64] {
            let c = pool.encrypt_i64(m, &mut rng);
            assert_eq!(kp.private().decrypt_i64(&c), m);
        }
        assert_eq!(pool.misses(), 0);
        // Distinct exponents → distinct factors.
        pool.refill(2, &mut rng);
        let f1 = pool.take_factor().unwrap();
        let f2 = pool.take_factor().unwrap();
        assert_ne!(f1, f2);
    }

    #[test]
    fn fixed_base_encrypt_round_trips_at_the_message_bounds() {
        let mut rng = StdRng::seed_from_u64(32);
        let kp = Keypair::generate(128, &mut rng);
        let (pk, sk) = (kp.public(), kp.private());
        let base = RefillBase::for_key(&pk);
        for m in [0i64, 1, -1, i64::MAX, -i64::MAX] {
            let c = base.encrypt_i64(&pk, m, &mut rng);
            assert_eq!(sk.decrypt_i64(&c), m, "m={m}");
        }

        let kp = Keypair::generate(256, &mut rng);
        let (pk, sk) = (kp.public(), kp.private());
        let base = RefillBase::for_key(&pk);
        let spec = PackingSpec::for_key(&pk, 32).unwrap();
        let edge = spec.value_bound() - 1;
        let values = [0, 1, -1, edge, -edge];
        let packed = base.encrypt_packed(&pk, spec, &values, &mut rng).unwrap();
        assert_eq!(packed.weight(), 1);
        assert_eq!(packed.decrypt(&sk).unwrap(), values);
        // The bound itself is out of range, on either side.
        for v in [edge + 1, -edge - 1] {
            assert!(matches!(
                base.encrypt_packed(&pk, spec, &[v], &mut rng),
                Err(PaillierError::MessageOutOfRange)
            ));
        }
    }

    #[test]
    fn fixed_base_encrypt_bytes_are_a_function_of_the_rng_seed() {
        let mut rng = StdRng::seed_from_u64(33);
        let kp = Keypair::generate(256, &mut rng);
        let pk = kp.public();
        let base = RefillBase::for_key(&pk);
        let spec = PackingSpec::for_key(&pk, 32).unwrap();
        let single = |seed| base.encrypt_i64(&pk, -77, &mut StdRng::seed_from_u64(seed));
        let packed = |seed| {
            base.encrypt_packed(&pk, spec, &[5, -6], &mut StdRng::seed_from_u64(seed)).unwrap().ct
        };
        assert_eq!(single(1).raw(), single(1).raw());
        assert_ne!(single(1).raw(), single(2).raw());
        assert_eq!(packed(1).raw(), packed(1).raw());
        assert_ne!(packed(1).raw(), packed(2).raw());
    }

    #[test]
    fn drained_pool_walks_the_table_inline() {
        // A miss is the fixed-base encryption on the caller's rng, not a
        // full-width r^n: same bytes as RefillBase gives for that rng.
        let mut rng = StdRng::seed_from_u64(34);
        let kp = Keypair::generate(256, &mut rng);
        let pk = kp.public();
        let base = Arc::new(RefillBase::for_key(&pk));
        let spec = PackingSpec::for_key(&pk, 32).unwrap();
        let mut pool = RandomnessPool::with_base(pk.clone(), base.clone());

        let via_pool = pool.encrypt_i64(9, &mut StdRng::seed_from_u64(7));
        let direct = base.encrypt_i64(&pk, 9, &mut StdRng::seed_from_u64(7));
        assert_eq!(via_pool.raw(), direct.raw());
        assert_eq!(kp.private().decrypt_i64(&via_pool), 9);

        let via_pool = pool.encrypt_packed(spec, &[3, -4], &mut StdRng::seed_from_u64(8)).unwrap();
        let direct =
            base.encrypt_packed(&pk, spec, &[3, -4], &mut StdRng::seed_from_u64(8)).unwrap();
        assert_eq!(via_pool.ct.raw(), direct.ct.raw());
        assert_eq!(via_pool.decrypt(&kp.private()).unwrap(), vec![3, -4]);
        assert_eq!(pool.misses(), 2);
    }

    #[test]
    fn refill_base_is_deterministic_per_key() {
        let mut rng = StdRng::seed_from_u64(28);
        let kp = Keypair::generate(128, &mut rng);
        let a = RefillBase::for_key(&kp.public());
        let b = RefillBase::for_key(&kp.public());
        assert_eq!(a.h(), b.h());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.exp_bits(), b.exp_bits());
        assert!(a.table_bytes() > 0);
    }

    #[test]
    fn refill_cache_is_lru_bounded() {
        let mut rng = StdRng::seed_from_u64(29);
        let cache = RefillCache::new(2);
        let kps: Vec<_> = (0..3).map(|_| Keypair::generate(64, &mut rng)).collect();

        let b0 = cache.get(&kps[0].public());
        let _b1 = cache.get(&kps[1].public());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
        // Hit refreshes recency.
        let b0_again = cache.get(&kps[0].public());
        assert!(Arc::ptr_eq(&b0, &b0_again));
        assert_eq!(cache.hits(), 1);
        // Third key evicts the LRU entry (key 1).
        cache.get(&kps[2].public());
        assert_eq!(cache.len(), 2);
        cache.get(&kps[1].public());
        assert_eq!(cache.misses(), 4, "evicted entry rebuilds");
    }

    #[test]
    fn with_base_shares_one_table() {
        let mut rng = StdRng::seed_from_u64(30);
        let kp = Keypair::generate(128, &mut rng);
        let base = Arc::new(RefillBase::for_key(&kp.public()));
        let mut p1 = RandomnessPool::with_base(kp.public(), base.clone());
        let mut p2 = RandomnessPool::with_base(kp.public(), base.clone());
        assert!(Arc::ptr_eq(p1.base(), p2.base()));
        p1.refill(1, &mut rng);
        let c = p1.encrypt_i64(7, &mut rng);
        assert_eq!(kp.private().decrypt_i64(&c), 7);
    }

    #[test]
    fn take_factor_counts_misses() {
        let mut rng = StdRng::seed_from_u64(23);
        let kp = Keypair::generate(128, &mut rng);
        let mut pool = RandomnessPool::new(kp.public());
        assert!(pool.take_factor().is_none());
        assert!(pool.take_factor().is_none());
        assert_eq!(pool.misses(), 2);
        pool.refill(1, &mut rng);
        assert!(pool.take_factor().is_some());
        assert_eq!(pool.misses(), 2);
    }
}
