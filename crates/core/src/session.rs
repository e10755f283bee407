//! The top-level PP-Stream session: key generation, operation
//! encapsulation, offline profiling, load-balanced resource allocation,
//! and pipelined streaming inference.

use crate::encapsulate::{encapsulate_with, MergedStage, StageRole};
use crate::messages::PlainTensorMsg;
use crate::plan::{AllocationPlan, PlanSource};
use crate::protocol::{
    plain_msg, refill_seed, FinalNonLinearStage, PartitionMode, StageChain, StageExec,
};
use crate::simulate::StageProfile;
use crate::CoreError;
use pp_allocate::{even_allocation, solve, Allocation, LayerLoad, Role, ServerSpec, SolveConfig};
use pp_nn::scaling::ScaledModel;
use parking_lot::Mutex;
use pp_paillier::{Keypair, RandomnessPool};
use pp_stream_runtime::{PipelineBuilder, StageReport, WorkerPool};
use pp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Session configuration.
#[derive(Clone, Debug)]
pub struct PpStreamConfig {
    /// Paillier key size in bits. The paper uses 2048 [16]; tests and CI
    /// benches use smaller keys (every compared variant uses the same
    /// size, so relative results are unaffected — DESIGN.md §3).
    pub key_bits: usize,
    /// The deployment's servers (model-provider servers host linear
    /// stages, data-provider servers the rest — paper Table III).
    pub servers: Vec<ServerSpec>,
    /// Two threads per core when `true` (Eq. 8).
    pub hyperthreading: bool,
    /// Solve the ILP (Sec. IV-C); `false` = even split (Exp#3 baseline).
    pub load_balance: bool,
    /// Tensor partitioning (Sec. IV-D); `false` = whole-tensor-per-element
    /// (Exp#4 baseline).
    pub tensor_partition: bool,
    /// Inference requests profiled per stage offline (paper uses 100).
    pub profile_samples: usize,
    /// In-flight frames per link.
    pub link_capacity: usize,
    /// Merge adjacent same-type primitive layers into one stage
    /// (Sec. IV-B). `false` = one stage per primitive (ablation).
    pub merge_stages: bool,
    /// Determinism seed for keys, permutations, and encryption randomness.
    pub seed: u64,
}

impl Default for PpStreamConfig {
    fn default() -> Self {
        PpStreamConfig {
            key_bits: 512,
            servers: vec![
                ServerSpec { role: Role::Linear, cores: 4 },
                ServerSpec { role: Role::Linear, cores: 4 },
                ServerSpec { role: Role::NonLinear, cores: 4 },
            ],
            hyperthreading: true,
            load_balance: true,
            tensor_partition: true,
            profile_samples: 2,
            link_capacity: 4,
            merge_stages: true,
            seed: 0x9950_57EA,
        }
    }
}

impl PpStreamConfig {
    /// A fast configuration for unit tests: tiny key, two small servers.
    pub fn small_test(key_bits: usize) -> Self {
        PpStreamConfig {
            key_bits,
            servers: vec![
                ServerSpec { role: Role::Linear, cores: 4 },
                ServerSpec { role: Role::NonLinear, cores: 4 },
            ],
            hyperthreading: false,
            load_balance: true,
            tensor_partition: true,
            profile_samples: 1,
            link_capacity: 4,
            merge_stages: true,
            seed: 42,
        }
    }
}

/// Outcome statistics of one streaming run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-request end-to-end latency.
    pub latencies: Vec<Duration>,
    /// First-injection → last-arrival wall time.
    pub makespan: Duration,
    /// Mean of `latencies`; [`Duration::ZERO`] when the stream resolved
    /// zero items (empty input slice) — never a division by zero.
    pub mean_latency: Duration,
    /// Bytes over each inter-stage link.
    pub link_bytes: Vec<u64>,
    /// Bytes shipped to worker threads inside linear stages
    /// (Sec. IV-D's communication).
    pub intra_stage_bytes: u64,
    /// Per-stage runtime metrics (name, threads, items in/out,
    /// serialized bytes, compute time, queue wait, errors), in pipeline
    /// order; empty for networked runs, whose linear stages are remote.
    pub stages: Vec<StageReport>,
    /// Socket-level statistics when the run crossed real sockets
    /// ([`crate::net::NetworkedSession`]); `None` for in-process runs.
    pub transport: Option<crate::net::TransportReport>,
    /// Times the encrypt stage found the randomness pool drained and
    /// paid an inline `r^n` exponentiation on the request path. A
    /// non-zero value means the pool is undersized for the workload.
    pub pool_misses: u64,
}

/// A ready-to-run PP-Stream deployment for one model.
pub struct PpStream {
    scaled: ScaledModel,
    stages: Vec<MergedStage>,
    keypair: Keypair,
    config: PpStreamConfig,
    allocation: Allocation,
    plan: AllocationPlan,
    profile: Vec<f64>,
    /// Items handed to earlier [`PpStream::infer_stream`] calls: the
    /// next call's first request seq, and what its pool refill is
    /// seeded from, so no two calls share a blinding factor or a
    /// `(seed, seq)`-keyed re-encrypt stream.
    items_done: AtomicU64,
}

impl PpStream {
    /// Builds a session: generates keys, encapsulates the model into
    /// stages, profiles each stage offline, and solves (or evenly splits)
    /// the resource allocation.
    pub fn new(scaled: ScaledModel, config: PpStreamConfig) -> Result<Self, CoreError> {
        let stages = encapsulate_with(&scaled, config.merge_stages)?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let keypair = Keypair::generate(config.key_bits, &mut rng);

        let n_pipeline_stages = stages.len() + 1;
        let mut session = PpStream {
            scaled,
            stages,
            keypair,
            config,
            allocation: Allocation { threads: vec![], server_of: vec![], objective: 0.0 },
            plan: AllocationPlan::profiling_baseline(n_pipeline_stages),
            profile: vec![],
            items_done: AtomicU64::new(0),
        };
        session.profile = session.profile_stages()?;
        let (allocation, source) = session.allocate()?;
        session.plan = AllocationPlan::from_allocation(&allocation, source);
        session.allocation = allocation;
        Ok(session)
    }

    /// The merged stages (encrypt + alternating linear/non-linear).
    pub fn stages(&self) -> &[MergedStage] {
        &self.stages
    }

    /// The resource allocation in use.
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// The allocation plan driving per-stage pool sizes.
    pub fn plan(&self) -> &AllocationPlan {
        &self.plan
    }

    /// The offline profile `T_i` per pipeline stage (seconds).
    pub fn profile(&self) -> &[f64] {
        &self.profile
    }

    /// Offline profiling (Sec. IV-C): run sample inputs through the
    /// stages sequentially and average each stage's time.
    fn profile_stages(&self) -> Result<Vec<f64>, CoreError> {
        let samples = self.config.profile_samples.max(1);
        let mut times = vec![0.0f64; self.stages.len() + 1];
        for s in 0..samples {
            let walk = self.profile_walk(s, PartitionMode::Partitioned)?;
            for (t, stage) in times.iter_mut().zip(&walk) {
                *t += stage.wall_1thread / samples as f64;
            }
        }
        Ok(times)
    }

    /// Detailed single-thread profiling for the deployment simulator
    /// (`crate::simulate`): per-stage wall time, dispatch bytes, and
    /// outgoing link bytes, measured in the given partition mode.
    pub fn profile_deployment(&self, mode: PartitionMode) -> Result<Vec<StageProfile>, CoreError> {
        self.profile_walk(0, mode)
    }

    /// Sample input `sample` (deterministic pseudo-random in [-1, 1])
    /// through a fresh executor chain on one worker — the simulate model
    /// scales single-thread times. One profile per pipeline stage, the
    /// encrypt stage first.
    fn profile_walk(
        &self,
        sample: usize,
        mode: PartitionMode,
    ) -> Result<Vec<StageProfile>, CoreError> {
        let input_shape = self.scaled.input_shape().clone();
        let values: Vec<f64> = (0..input_shape.len())
            .map(|i| (((i * 31 + sample * 17) % 200) as f64 / 100.0) - 1.0)
            .collect();
        let input = Tensor::from_vec(input_shape, values)
            .map_err(|e| CoreError::Model(e.to_string()))?;
        let mut profiles = Vec::with_capacity(self.stages.len() + 1);
        let plain = plain_msg(&self.scaled, sample as u64, &input);
        self.chain(mode, None)
            .walk(plain, &WorkerPool::new(1), |wall, dispatched, out| {
                profiles.push(StageProfile {
                    // Guard against sub-resolution zero times.
                    wall_1thread: wall.as_secs_f64().max(1e-9),
                    dispatch_bytes_1thread: dispatched,
                    link_bytes: out.frame_len(),
                })
            })
            .map_err(|e| CoreError::Runtime(e.to_string()))?;
        Ok(profiles)
    }

    /// Re-solves the allocation for a different server set / policy
    /// without re-profiling. Returns threads per pipeline stage.
    pub fn allocation_for(
        &self,
        servers: &[ServerSpec],
        load_balance: bool,
        hyperthreading: bool,
    ) -> Result<Allocation, CoreError> {
        let layers = self.layer_loads();
        let alloc = if load_balance {
            solve(
                &layers,
                servers,
                SolveConfig { hyperthreading, node_budget: 2_000_000 },
            )?
        } else {
            even_allocation(&layers, servers, hyperthreading)?
        };
        Ok(alloc)
    }

    /// Like [`PpStream::allocation_for`], but returns an
    /// [`AllocationPlan`] ready to drive per-stage pool sizes: the
    /// solver's thread counts when `load_balance` holds and the ILP is
    /// feasible, the even-split baseline otherwise.
    pub fn plan_for(
        &self,
        servers: &[ServerSpec],
        load_balance: bool,
        hyperthreading: bool,
    ) -> Result<AllocationPlan, CoreError> {
        let layers = self.layer_loads();
        if load_balance {
            if let Ok(alloc) = solve(
                &layers,
                servers,
                SolveConfig { hyperthreading, node_budget: 2_000_000 },
            ) {
                return Ok(AllocationPlan::from_allocation(&alloc, PlanSource::Solver));
            }
        }
        let alloc = even_allocation(&layers, servers, hyperthreading)?;
        Ok(AllocationPlan::from_allocation(&alloc, PlanSource::EvenSplit))
    }

    /// The scaled model this session serves.
    pub fn scaled_model(&self) -> &ScaledModel {
        &self.scaled
    }

    /// Paillier key size in use.
    pub fn key_bits(&self) -> usize {
        self.config.key_bits
    }

    /// Solves the stage → server/thread allocation (Sec. IV-C). The
    /// even-split baseline is used when load balancing is disabled and
    /// as the fallback when the ILP instance is infeasible.
    fn allocate(&self) -> Result<(Allocation, PlanSource), CoreError> {
        let layers = self.layer_loads();
        if self.config.load_balance {
            if let Ok(alloc) = solve(
                &layers,
                &self.config.servers,
                SolveConfig {
                    hyperthreading: self.config.hyperthreading,
                    node_budget: 2_000_000,
                },
            ) {
                return Ok((alloc, PlanSource::Solver));
            }
        }
        let alloc = even_allocation(&layers, &self.config.servers, self.config.hyperthreading)?;
        Ok((alloc, PlanSource::EvenSplit))
    }

    /// Profiled load per pipeline stage, in the solver's input form.
    fn layer_loads(&self) -> Vec<LayerLoad> {
        self.pipeline_roles()
            .iter()
            .zip(&self.profile)
            .map(|(&role, &time)| LayerLoad { role, time })
            .collect()
    }

    /// Role of each pipeline stage (index 0 = encrypt stage).
    fn pipeline_roles(&self) -> Vec<Role> {
        std::iter::once(Role::NonLinear) // encrypt runs at the data provider
            .chain(self.stages.iter().map(|s| match s.role {
                StageRole::Linear => Role::Linear,
                StageRole::NonLinear => Role::NonLinear,
            }))
            .collect()
    }

    /// Human-readable stage names.
    fn stage_names(&self) -> Vec<String> {
        let mut names = vec!["encrypt@data".to_string()];
        let mut li = 0;
        let mut ni = 0;
        for s in &self.stages {
            match s.role {
                StageRole::Linear => {
                    names.push(format!("linear-{li}@model"));
                    li += 1;
                }
                StageRole::NonLinear => {
                    names.push(format!("nonlinear-{ni}@data"));
                    ni += 1;
                }
            }
        }
        names
    }

    /// Fresh executors (and permutation store) for this session's model.
    fn chain(
        &self,
        mode: PartitionMode,
        rand_pool: Option<Arc<Mutex<RandomnessPool>>>,
    ) -> StageChain {
        let (factor, seed) = (self.scaled.factor(), self.config.seed);
        StageChain::new(&self.stages, &self.keypair, factor, seed, mode, rand_pool)
    }

    /// Opens a stream call of `items` requests: reserves their seqs and
    /// builds fresh executors whose input pool holds one blinding factor
    /// per element of the batch — the exponentiations run across the
    /// encrypt stage's thread allocation, off the request path, over the
    /// process-wide fixed-base table of the key. Returns the call's
    /// first seq, the executors and the pool.
    fn begin_call(
        &self,
        items: usize,
        mode: PartitionMode,
    ) -> (u64, StageChain, Arc<Mutex<RandomnessPool>>) {
        let first_item = self.items_done.fetch_add(items as u64, Ordering::Relaxed);
        let pk = self.keypair.public();
        let base = pp_paillier::shared_refill_cache().get(&pk);
        let rand_pool = Arc::new(Mutex::new(RandomnessPool::with_base(pk, base)));
        let execs = self.chain(mode, Some(Arc::clone(&rand_pool)));
        let need = items * self.scaled.input_shape().len();
        let workers = WorkerPool::new(self.plan.threads_for(0));
        let seed = refill_seed(execs.encrypt.seed, first_item);
        rand_pool.lock().refill_parallel(need, &workers, seed);
        (first_item, execs, rand_pool)
    }

    /// Streams a batch of inference requests through the pipeline,
    /// returning the scaled output tensors (at scale `F`) and the run
    /// report.
    pub fn infer_stream(
        &self,
        inputs: &[Tensor<f64>],
    ) -> Result<(Vec<Tensor<i64>>, RunReport), CoreError> {
        if inputs.is_empty() {
            return Err(CoreError::Runtime("no inputs".into()));
        }
        let mode = if self.config.tensor_partition {
            PartitionMode::Partitioned
        } else {
            PartitionMode::None
        };
        let (first_item, execs, rand_pool) = self.begin_call(inputs.len(), mode);

        // Assemble the typed pipeline: the encrypt stage followed by one
        // protocol stage per merged stage. `.link()` marks the hops that
        // cross between the data provider and a model-provider server —
        // only those serialize through the wire codec; co-located hops
        // hand owned messages across directly.
        let names = self.stage_names();
        let roles = self.pipeline_roles();
        let n = execs.stages.len();
        let last = match execs.stages.last() {
            Some(StageExec::NonLinear(nl)) if nl.is_last => FinalNonLinearStage(Arc::clone(nl)),
            _ => {
                return Err(CoreError::Runtime(
                    "pipeline must end with a final non-linear stage".into(),
                ))
            }
        };

        let mut builder = PipelineBuilder::<PlainTensorMsg, PlainTensorMsg>::new()
            .with_capacity(self.config.link_capacity)
            .stage(names[0].clone(), self.plan.threads_for(0), Arc::clone(&execs.encrypt));
        for (i, exec) in execs.stages.iter().take(n - 1).enumerate() {
            if roles[i] != roles[i + 1] {
                builder = builder.link();
            }
            let threads = self.plan.threads_for(i + 1);
            builder = match exec {
                StageExec::Linear(l) => builder.stage(names[i + 1].clone(), threads, Arc::clone(l)),
                StageExec::NonLinear(nl) => {
                    builder.stage(names[i + 1].clone(), threads, Arc::clone(nl))
                }
            };
        }
        if roles[n - 1] != roles[n] {
            builder = builder.link();
        }
        let pipeline =
            builder.stage(names[n].clone(), self.plan.threads_for(n), last).build()?;

        let msgs: Vec<PlainTensorMsg> = inputs
            .iter()
            .enumerate()
            .map(|(j, input)| plain_msg(&self.scaled, first_item + j as u64, input))
            .collect();

        let (out_msgs, stats) = pipeline.process_stream(msgs)?;
        if out_msgs.len() != inputs.len() {
            return Err(CoreError::Runtime(format!(
                "expected {} results, got {}",
                inputs.len(),
                out_msgs.len()
            )));
        }

        let mut outputs = Vec::with_capacity(out_msgs.len());
        for msg in out_msgs {
            let shape: Vec<usize> = msg.shape.iter().map(|&d| d as usize).collect();
            let values: Vec<i64> = msg
                .values
                .iter()
                .map(|&v| i64::try_from(v).expect("final logits fit i64"))
                .collect();
            outputs
                .push(Tensor::from_vec(shape, values).map_err(|e| CoreError::Runtime(e.to_string()))?);
        }

        let report = RunReport {
            mean_latency: stats.mean_latency(),
            latencies: stats.latencies,
            makespan: stats.makespan,
            link_bytes: stats.link_bytes,
            intra_stage_bytes: execs.intra_total(),
            stages: stats.stages,
            transport: None,
            pool_misses: rand_pool.lock().misses(),
        };
        Ok((outputs, report))
    }

    /// Streams requests and returns the predicted class per input.
    pub fn classify_stream(
        &self,
        inputs: &[Tensor<f64>],
    ) -> Result<(Vec<usize>, RunReport), CoreError> {
        let (outputs, report) = self.infer_stream(inputs)?;
        let classes = outputs
            .iter()
            .map(pp_nn::activation::argmax_i64)
            .collect();
        Ok((classes, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_nn::{zoo, ScaledModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_session(seed: u64) -> (pp_nn::Model, PpStream) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = zoo::mlp("m", &[4, 6, 3], &mut rng).unwrap();
        let scaled = ScaledModel::from_model(&model, 100);
        let session = PpStream::new(scaled, PpStreamConfig::small_test(128)).unwrap();
        (model, session)
    }

    #[test]
    fn classification_matches_plaintext() {
        let (model, session) = small_session(1);
        let inputs: Vec<Tensor<f64>> = (0..4)
            .map(|i| {
                Tensor::from_flat(vec![
                    (i as f64 * 0.3).sin(),
                    -0.4,
                    0.2 * i as f64,
                    0.5 - 0.1 * i as f64,
                ])
            })
            .collect();
        let (classes, report) = session.classify_stream(&inputs).unwrap();
        for (input, &got) in inputs.iter().zip(&classes) {
            assert_eq!(got, model.classify(input).unwrap());
        }
        assert_eq!(report.latencies.len(), 4);
        assert!(report.link_bytes.iter().sum::<u64>() > 0);
    }

    #[test]
    fn outputs_match_scaled_reference_exactly() {
        let (_, session) = small_session(2);
        let input = Tensor::from_flat(vec![0.9, -0.1, 0.0, 0.33]);
        let (outputs, _) = session.infer_stream(std::slice::from_ref(&input)).unwrap();
        let want = session.scaled.forward_scaled(&session.scaled.scale_input(&input)).unwrap();
        assert_eq!(outputs[0].data(), want.data());
    }

    #[test]
    fn two_calls_with_the_same_input_share_no_blinding_factor() {
        // Every element equal, so two ciphertexts are equal exactly when
        // their blinding factors are: a repeat across (or within) calls
        // would let the model provider divide two requests and read the
        // plaintext difference.
        let (_, session) = small_session(8);
        let input = Tensor::from_flat(vec![0.5; 4]);
        session.infer_stream(std::slice::from_ref(&input)).unwrap();

        let pool = WorkerPool::new(2);
        let mut seen = std::collections::HashSet::new();
        for call in 1..3 {
            let (first_item, execs, _) = session.begin_call(1, PartitionMode::Partitioned);
            assert_eq!(first_item, call, "each call starts where the last one ended");
            let msg = execs.encrypt.encrypt(plain_msg(&session.scaled, first_item, &input), &pool);
            assert_eq!(msg.seq, first_item);
            for ct in msg.cts {
                assert!(seen.insert(ct), "a blinding factor repeats across calls");
            }
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn profile_and_allocation_cover_all_stages() {
        let (_, session) = small_session(3);
        let n = session.stages().len() + 1;
        assert_eq!(session.profile().len(), n);
        assert_eq!(session.allocation().threads.len(), n);
        assert!(session.allocation().threads.iter().all(|&t| t >= 1));
    }

    #[test]
    fn no_load_balance_config_runs() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = zoo::mlp("m", &[3, 4, 2], &mut rng).unwrap();
        let scaled = ScaledModel::from_model(&model, 10);
        let mut cfg = PpStreamConfig::small_test(128);
        cfg.load_balance = false;
        let session = PpStream::new(scaled, cfg).unwrap();
        let input = Tensor::from_flat(vec![0.5, 0.5, -0.5]);
        let (classes, _) = session.classify_stream(std::slice::from_ref(&input)).unwrap();
        assert_eq!(classes[0], model.classify(&input).unwrap());
    }

    #[test]
    fn no_partition_config_matches_partitioned_results() {
        let mut rng = StdRng::seed_from_u64(5);
        let model = zoo::mlp("m", &[3, 5, 2], &mut rng).unwrap();
        let scaled = ScaledModel::from_model(&model, 100);
        let input = Tensor::from_flat(vec![0.2, -0.7, 0.4]);

        let mut cfg = PpStreamConfig::small_test(128);
        cfg.tensor_partition = false;
        let s1 = PpStream::new(scaled.clone(), cfg).unwrap();
        let s2 = PpStream::new(scaled, PpStreamConfig::small_test(128)).unwrap();
        let (o1, r1) = s1.infer_stream(std::slice::from_ref(&input)).unwrap();
        let (o2, r2) = s2.infer_stream(&[input]).unwrap();
        assert_eq!(o1[0].data(), o2[0].data());
        assert!(
            r1.intra_stage_bytes >= r2.intra_stage_bytes,
            "partitioning should not increase thread-input bytes"
        );
    }

    #[test]
    fn avgpool_model_end_to_end() {
        // AvgPool's sum half runs homomorphically; the window² divisor
        // folds into the next rescale. The pipeline must match the scaled
        // reference exactly.
        let mut rng = StdRng::seed_from_u64(60);
        let model = zoo::avgpool_convnet("avg", (1, 6, 6), 2, 3, &mut rng).unwrap();
        let scaled = ScaledModel::from_model(&model, 100);
        let session = PpStream::new(scaled.clone(), PpStreamConfig::small_test(128)).unwrap();
        let input = Tensor::from_vec(
            vec![1, 6, 6],
            (0..36).map(|i| ((i * 7) % 12) as f64 / 12.0 - 0.5).collect(),
        )
        .unwrap();
        let (outputs, _) = session.infer_stream(std::slice::from_ref(&input)).unwrap();
        let want = scaled.forward_scaled(&scaled.scale_input(&input)).unwrap();
        assert_eq!(outputs[0].data(), want.data());
    }

    #[test]
    fn conv_model_end_to_end() {
        let mut rng = StdRng::seed_from_u64(6);
        let model = zoo::small_convnet("c", (1, 5, 5), 2, 3, &mut rng).unwrap();
        let scaled = ScaledModel::from_model(&model, 100);
        let session = PpStream::new(scaled, PpStreamConfig::small_test(128)).unwrap();
        let input = Tensor::from_vec(
            vec![1, 5, 5],
            (0..25).map(|i| ((i * 13) % 10) as f64 / 10.0 - 0.5).collect(),
        )
        .unwrap();
        let (classes, _) = session.classify_stream(std::slice::from_ref(&input)).unwrap();
        assert_eq!(classes[0], model.classify(&input).unwrap());
    }
}
