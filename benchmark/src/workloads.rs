//! The four workloads: which model, which inputs, and why each exists.
//!
//! Weights and inputs derive from `--seed`; the program under test only
//! ever sees the generated tensors.

use pp_nn::scaling::ScaledModel;
use pp_nn::{zoo, Layer, Model};
use pp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fixed-point scaling factor, the value the repository's deployment
/// examples use.
pub const SCALING_FACTOR: i64 = 10_000;

/// Members per packed batch on `fc3_packed`.
pub const PACK_BATCH: usize = 8;

/// Slot widths tried in order on `fc3_packed`; the first the key and the
/// model's op budget admit is proposed in the handshake.
pub const PACK_SLOT_BITS: [usize; 4] = [64, 80, 96, 128];

#[derive(Debug, PartialEq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub packed: bool,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "fc3_single",
        why: "paper's Table III 3FC on Breast, smallest item: per-round overhead and client re-encrypt have their largest share",
        packed: false,
    },
    WorkloadSpec {
        name: "fanin_single",
        why: "784-input dense with few outputs, 400 KB requests: server multi-exp, pool refill, codec and TCP dominate; client does least",
        packed: false,
    },
    WorkloadSpec {
        name: "conv_single",
        why: "72 len-9 dots and 72 reply ciphertexts: per-dot overheads and decrypt/re-encrypt count dominate; output packing must show here",
        packed: false,
    },
    WorkloadSpec {
        name: "fc3_packed",
        why: "fc3_single's model in batches of 8 packed slots: same layers through the batch-major legs; throughput is the metric that moves",
        packed: true,
    },
];

pub fn spec(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Workload {
    pub spec: &'static WorkloadSpec,
    pub scaled: ScaledModel,
    /// Cycled when a run needs more items than there are inputs.
    pub inputs: Vec<Tensor<f64>>,
}

impl Workload {
    pub fn build(spec: &'static WorkloadSpec, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        let (model, inputs) = match spec.name {
            "fc3_single" | "fc3_packed" => (
                zoo::healthcare_3fc("Breast", 30, &mut rng).expect("valid 3FC"),
                test_inputs(pp_datasets::breast(seed)),
            ),
            "fanin_single" => (
                fanin_model(&mut rng),
                test_inputs(pp_datasets::mnist_small(seed)),
            ),
            "conv_single" => (
                zoo::small_convnet("Conv8", (1, 8, 8), 2, 10, &mut rng).expect("valid convnet"),
                (0..64)
                    .map(|_| {
                        let data = (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect();
                        Tensor::from_vec(vec![1, 8, 8], data).expect("sized buffer")
                    })
                    .collect(),
            ),
            other => unreachable!("workload {other} is not in WORKLOADS"),
        };
        Workload {
            spec,
            scaled: ScaledModel::from_model(&model, SCALING_FACTOR),
            inputs,
        }
    }

    /// `count` inputs starting at item `from`, cycling through the set.
    pub fn take(&self, from: usize, count: usize) -> Vec<Tensor<f64>> {
        (from..from + count)
            .map(|i| self.inputs[i % self.inputs.len()].clone())
            .collect()
    }

    /// The bit-for-bit reference every output is held against.
    pub fn expected(&self, input: &Tensor<f64>) -> Tensor<i64> {
        self.scaled
            .forward_scaled(&self.scaled.scale_input(input))
            .expect("reference forward pass on a valid input")
    }
}

fn test_inputs(dataset: pp_datasets::Dataset) -> Vec<Tensor<f64>> {
    dataset.test.into_iter().map(|(input, _)| input).collect()
}

/// `[1,28,28]` → Flatten → Dense(784, 8) → ReLU → Dense(8, 10) → SoftMax.
fn fanin_model(rng: &mut StdRng) -> Model {
    let layers = vec![
        Layer::Flatten,
        zoo::dense_layer(rng, 784, 8),
        Layer::ReLU,
        zoo::dense_layer(rng, 8, 10),
        Layer::SoftMax,
    ];
    Model::new("FanIn", vec![1, 28, 28], layers).expect("valid fan-in model")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_weights() {
        for spec in &WORKLOADS {
            let a = Workload::build(spec, 11);
            let b = Workload::build(spec, 11);
            let c = Workload::build(spec, 12);
            assert_eq!(a.inputs[0].data(), b.inputs[0].data(), "{}", spec.name);
            assert_eq!(
                a.expected(&a.inputs[0]).data(),
                b.expected(&b.inputs[0]).data()
            );
            assert_ne!(a.inputs[0].data(), c.inputs[0].data(), "{}", spec.name);
        }
    }

    #[test]
    fn take_cycles_through_the_inputs() {
        let w = Workload::build(&WORKLOADS[2], 1);
        let n = w.inputs.len();
        let got = w.take(n - 1, 2);
        assert_eq!(got[0].data(), w.inputs[n - 1].data());
        assert_eq!(got[1].data(), w.inputs[0].data());
    }

    #[test]
    fn why_lines_fit_the_manifest_limit() {
        for spec in &WORKLOADS {
            assert!(
                spec.why.len() <= 200 && !spec.why.contains('\n'),
                "{}",
                spec.name
            );
        }
    }
}
