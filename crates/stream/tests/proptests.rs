//! Property tests for the stream runtime: wire-codec roundtrips and
//! pipeline order/content preservation.

use pp_stream_runtime::wire::{from_frame, to_frame};
use pp_stream_runtime::{stage_fn, PipelineBuilder, StageContext, WorkerPool};
use proptest::prelude::*;

proptest! {
    #[test]
    fn wire_roundtrip_vec_i64(v in proptest::collection::vec(any::<i64>(), 0..200)) {
        let back: Vec<i64> = from_frame(to_frame(&v)).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn wire_roundtrip_nested(v in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..40), 0..40)) {
        let back: Vec<Vec<u8>> = from_frame(to_frame(&v)).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn wire_roundtrip_string(s in ".{0,100}") {
        let back: String = from_frame(to_frame(&s)).unwrap();
        prop_assert_eq!(back, s);
    }

    #[test]
    fn truncation_never_panics(v in proptest::collection::vec(any::<u64>(), 1..50),
                               cut in 0usize..100) {
        let frame = to_frame(&v);
        let cut = cut.min(frame.len());
        let truncated = frame.slice(..cut);
        // Must return Ok or Err, never panic; Ok only if nothing was cut.
        let res: Result<Vec<u64>, _> = from_frame(truncated);
        if cut == frame.len() {
            prop_assert!(res.is_ok());
        }
    }

    #[test]
    fn pipeline_preserves_order_and_values(
        values in proptest::collection::vec(any::<u64>(), 1..30),
        stages in 1usize..4,
    ) {
        // Every hop a wire boundary, so each of the `stages + 1` hops
        // serializes and counts its frames.
        let mut builder = PipelineBuilder::<u64, u64>::new().link();
        for i in 0..stages {
            builder = builder
                .stage(format!("s{i}"), 1, stage_fn(|v: u64, _: &mut StageContext| Ok(v.wrapping_add(1))))
                .link();
        }
        let (out, stats) = builder.build().unwrap().process_stream(values.clone()).unwrap();
        prop_assert_eq!(out.len(), values.len());
        for (orig, v) in values.iter().zip(out) {
            prop_assert_eq!(v, orig.wrapping_add(stages as u64));
        }
        prop_assert_eq!(stats.latencies.len(), values.len());
        prop_assert_eq!(stats.link_bytes, vec![8 * values.len() as u64; stages + 1]);
    }

    #[test]
    fn worker_pool_map_ranges_is_order_preserving(
        n in 0usize..500,
        workers in 1usize..6,
    ) {
        let pool = WorkerPool::new(workers);
        let out = pool.map_ranges(n, |r| r.map(|i| i * 3 + 1).collect());
        prop_assert_eq!(out, (0..n).map(|i| i * 3 + 1).collect::<Vec<_>>());
    }
}
