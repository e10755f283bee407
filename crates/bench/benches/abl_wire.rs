//! Ablation: the hand-rolled wire codec — serialization throughput of
//! ciphertext tensors, the per-hop cost every pipelined stage pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pp_stream::messages::EncTensorMsg;
use pp_stream_runtime::wire::{from_frame, to_frame};

fn msg_with(elements: usize, ct_bytes: usize) -> EncTensorMsg {
    EncTensorMsg {
        seq: 1,
        shape: vec![elements as u64],
        obfuscated: true,
        folded: false,
        folded: false,
        cts: (0..elements)
            .map(|i| (0..ct_bytes).map(|j| ((i * 31 + j) % 251) as u8).collect())
            .collect(),
    }
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    for elements in [64usize, 512, 4096] {
        let msg = msg_with(elements, 64); // 256-bit-key ciphertexts
        let frame = to_frame(&msg);
        group.throughput(Throughput::Bytes(frame.len() as u64));
        group.bench_with_input(BenchmarkId::new("encode", elements), &elements, |b, _| {
            b.iter(|| to_frame(std::hint::black_box(&msg)))
        });
        group.bench_with_input(BenchmarkId::new("decode", elements), &elements, |b, _| {
            b.iter(|| {
                let m: EncTensorMsg = from_frame(std::hint::black_box(frame.clone())).expect("decodes");
                m
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
