//! The centralized baselines of Exp#2 (paper Fig. 8):
//!
//! * **PlainBase** — plaintext inference on a single server, no privacy.
//! * **CipherBase** — the full hybrid privacy protocol (encrypt → linear
//!   homomorphic ops → obfuscated non-linear rounds → decrypt) executed
//!   sequentially on a single server with one thread: privacy without
//!   the distributed stream-processing architecture.
//!
//! Both reuse the exact stage executors of [`crate::protocol`], so
//! CipherBase's outputs are bit-identical to the pipelined system's.

use crate::encapsulate::encapsulate;
use crate::protocol::{plain_msg, PartitionMode, StageChain};
use crate::CoreError;
use pp_nn::scaling::ScaledModel;
use pp_nn::Model;
use pp_paillier::Keypair;
use pp_stream_runtime::WorkerPool;
use pp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Result of a baseline run.
#[derive(Clone, Debug)]
pub struct BaselineReport {
    /// Per-request latency.
    pub latencies: Vec<Duration>,
    /// Total wall time.
    pub total: Duration,
}

impl BaselineReport {
    /// Mean per-request latency.
    pub fn mean_latency(&self) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        self.latencies.iter().sum::<Duration>() / self.latencies.len() as u32
    }
}

/// PlainBase: centralized plaintext inference.
pub fn plain_base(
    model: &Model,
    inputs: &[Tensor<f64>],
) -> Result<(Vec<usize>, BaselineReport), CoreError> {
    let start = Instant::now();
    let mut classes = Vec::with_capacity(inputs.len());
    let mut latencies = Vec::with_capacity(inputs.len());
    for input in inputs {
        let t0 = Instant::now();
        classes.push(model.classify(input)?);
        latencies.push(t0.elapsed());
    }
    Ok((classes, BaselineReport { latencies, total: start.elapsed() }))
}

/// CipherBase: the hybrid privacy protocol on one server, one thread,
/// requests processed strictly one after another.
pub fn cipher_base(
    scaled: &ScaledModel,
    key_bits: usize,
    seed: u64,
    inputs: &[Tensor<f64>],
) -> Result<(Vec<usize>, BaselineReport), CoreError> {
    let stages = encapsulate(scaled)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let keypair = Keypair::generate(key_bits, &mut rng);
    let pool = WorkerPool::new(1);
    let chain =
        StageChain::new(&stages, &keypair, scaled.factor(), seed, PartitionMode::Partitioned, None);

    let start = Instant::now();
    let mut classes = Vec::with_capacity(inputs.len());
    let mut latencies = Vec::with_capacity(inputs.len());
    for (seq, input) in inputs.iter().enumerate() {
        let t0 = Instant::now();
        let result = chain
            .walk(plain_msg(scaled, seq as u64, input), &pool, |_, _, _| {})
            .map_err(|e| CoreError::Runtime(e.to_string()))?;
        let out: Vec<i64> = result
            .values
            .iter()
            .map(|&v| i64::try_from(v).expect("final logits fit i64"))
            .collect();
        classes.push(pp_nn::activation::argmax_i64(&Tensor::from_flat(out)));
        latencies.push(t0.elapsed());
    }
    Ok((classes, BaselineReport { latencies, total: start.elapsed() }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_nn::zoo;

    #[test]
    fn plain_base_classifies() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = zoo::mlp("m", &[3, 4, 2], &mut rng).unwrap();
        let inputs = vec![
            Tensor::from_flat(vec![0.5, -0.5, 0.1]),
            Tensor::from_flat(vec![-0.9, 0.4, 0.2]),
        ];
        let (classes, report) = plain_base(&model, &inputs).unwrap();
        assert_eq!(classes.len(), 2);
        assert_eq!(report.latencies.len(), 2);
        for (input, &c) in inputs.iter().zip(&classes) {
            assert_eq!(c, model.classify(input).unwrap());
        }
    }

    #[test]
    fn cipher_base_matches_plain_classification() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = zoo::mlp("m", &[4, 5, 3], &mut rng).unwrap();
        let scaled = ScaledModel::from_model(&model, 100);
        let inputs = vec![
            Tensor::from_flat(vec![0.3, -0.2, 0.8, -0.5]),
            Tensor::from_flat(vec![0.0, 0.9, -0.9, 0.1]),
        ];
        let (classes, report) = cipher_base(&scaled, 128, 7, &inputs).unwrap();
        for (input, &c) in inputs.iter().zip(&classes) {
            assert_eq!(c, model.classify(input).unwrap());
        }
        // Privacy costs time: CipherBase is slower than PlainBase.
        let (_, plain_report) = plain_base(&model, &inputs).unwrap();
        assert!(report.mean_latency() > plain_report.mean_latency());
    }
}
