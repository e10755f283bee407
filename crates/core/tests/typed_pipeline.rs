//! Integration tests for the typed-stage runtime: the full protocol
//! (encrypt → merged linear/non-linear stages → final decrypt) running
//! on `TypedPipeline`, checked against plaintext inference, with the
//! per-stage instrumentation and allocator-driven pool sizes the
//! session promises.

use pp_stream::{PpStream, PpStreamConfig, PlanSource};
use pp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn pp_stream_infer_matches_plain_infer_with_merged_stages() {
    let mut rng = StdRng::seed_from_u64(11);
    let model = pp_nn::zoo::small_convnet("c", (1, 5, 5), 2, 3, &mut rng).unwrap();
    let scaled = pp_nn::ScaledModel::from_model(&model, 100);
    let config = PpStreamConfig::small_test(128); // merge_stages: true
    let session = PpStream::new(scaled.clone(), config).unwrap();

    // Operation encapsulation produced at least one *merged* stage
    // (several primitive ops behind a single Stage impl).
    assert!(
        session.stages().iter().any(|s| s.ops.len() > 1),
        "expected a merged encapsulated stage in the convnet pipeline"
    );

    let inputs: Vec<Tensor<f64>> = (0..3)
        .map(|k| {
            Tensor::from_vec(
                vec![1, 5, 5],
                (0..25).map(|i| (((i * 13 + k * 7) % 10) as f64) / 10.0 - 0.5).collect(),
            )
            .unwrap()
        })
        .collect();

    let (outputs, report) = session.infer_stream(&inputs).unwrap();
    for (input, output) in inputs.iter().zip(&outputs) {
        let want = scaled.forward_scaled(&scaled.scale_input(input)).unwrap();
        assert_eq!(output.data(), want.data(), "pp_stream_infer(x) != plain_infer(x)");
    }

    // ---- Per-stage instrumentation (tentpole acceptance criteria). ----
    let n_stages = session.stages().len() + 1;
    assert_eq!(report.stages.len(), n_stages);
    assert_eq!(report.stages[0].name, "encrypt@data");
    assert_eq!(report.stages[1].name, "linear-0@model");
    for stage in &report.stages {
        let name = &stage.name;
        assert_eq!(stage.items_in, inputs.len() as u64, "{name} items in");
        assert_eq!(stage.items_out, inputs.len() as u64, "{name} items out");
        assert_eq!(stage.errors, 0, "{name} errors");
        assert!(stage.compute > std::time::Duration::ZERO, "{name} compute time");
    }

    // Owned hops at both ends: the source and the sink live inside the
    // data provider, so no serialization there …
    assert_eq!(report.link_bytes.len(), n_stages + 1);
    assert_eq!(report.link_bytes[0], 0, "source hop is co-located (owned)");
    assert_eq!(*report.link_bytes.last().unwrap(), 0, "sink hop is co-located (owned)");
    // … while provider-crossing hops do serialize.
    assert!(
        report.link_bytes.iter().any(|&b| b > 0),
        "at least one provider-crossing hop carries wire bytes"
    );
    // The serializing stages account for those bytes.
    let wire_total: u64 = report.link_bytes.iter().sum();
    let stage_serialized: u64 = report.stages.iter().map(|s| s.bytes_serialized).sum();
    assert!(stage_serialized >= wire_total, "stages record at least the link bytes");
    // Linear stages partition tensors across their pools (Sec. IV-D).
    assert!(report.intra_stage_bytes > 0);

    // ---- Allocator-driven pool sizing. ----
    let plan = session.plan();
    assert!(matches!(plan.source(), PlanSource::Solver | PlanSource::EvenSplit));
    assert_eq!(plan.n_stages(), n_stages);
    for (stage, &threads) in report.stages.iter().zip(plan.threads()) {
        assert_eq!(stage.threads, threads, "{} pool size follows the plan", stage.name);
    }
}

#[test]
fn classification_matches_on_typed_runtime() {
    let mut rng = StdRng::seed_from_u64(12);
    let model = pp_nn::zoo::mlp("m", &[6, 9, 4], &mut rng).unwrap();
    let scaled = pp_nn::ScaledModel::from_model(&model, 100);
    let session = PpStream::new(scaled, PpStreamConfig::small_test(128)).unwrap();

    let inputs: Vec<Tensor<f64>> = (0..5)
        .map(|k| {
            Tensor::from_flat(
                (0..6).map(|i| ((i as f64 + k as f64 * 1.3) * 0.37).sin()).collect::<Vec<_>>(),
            )
        })
        .collect();
    let (classes, report) = session.classify_stream(&inputs).unwrap();
    for (input, &got) in inputs.iter().zip(&classes) {
        assert_eq!(got, model.classify(input).unwrap());
    }
    // Queue-wait is recorded per stage (zero is fine on an idle machine,
    // but the report must cover every stage).
    assert_eq!(report.stages.len(), session.stages().len() + 1);
    assert_eq!(report.latencies.len(), inputs.len());
    assert!(report.mean_latency > std::time::Duration::ZERO);
}
