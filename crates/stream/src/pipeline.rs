//! Pipelined stage execution (paper Fig. 4): each stage runs on its own
//! thread with a private worker pool; inference requests stream through
//! the chain so consecutive requests overlap across stages.
//!
//! Stages are typed [`Stage`] implementations chained by a typestate
//! [`PipelineBuilder`]: `.stage()` appends a stage whose input type must
//! equal the chain's current message type, `.link()` marks the hop after
//! the latest stage as a **wire boundary** (the message is serialized on
//! the sender thread, its bytes counted, and deserialized on the
//! receiver thread — the cost a real deployment pays between servers).
//! Hops *not* marked with `.link()` hand the owned message over directly,
//! so co-located stages skip serialization entirely.

use crate::pool::WorkerPool;
use crate::stage::{Stage, StageContext, StageMetrics, StageReport};
use crate::wire::{from_frame, to_frame, WireDecode, WireEncode};
use crate::StreamError;
use bytes::Bytes;
use std::any::Any;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Type-erased message travelling an owned (co-located) hop.
pub type BoxMsg = Box<dyn Any + Send>;

type MsgRunFn = Box<dyn Fn(BoxMsg, &mut StageContext) -> Result<BoxMsg, StreamError> + Send + Sync>;
type MsgEncodeFn = Box<dyn Fn(BoxMsg) -> Bytes + Send + Sync>;
type MsgDecodeFn = Box<dyn Fn(Bytes) -> Result<BoxMsg, StreamError> + Send + Sync>;

/// What travels a hop: an owned message (co-located stages) or a
/// serialized frame (wire boundary).
enum Payload {
    Owned(BoxMsg),
    Wire(Bytes),
}

/// One in-flight message plus the instant it was enqueued, from which the
/// receiving stage derives queue-wait time.
struct Envelope {
    seq: u64,
    sent_at: Instant,
    /// Absolute instant the item's end-to-end budget runs out (stamped by
    /// the source from the builder's deadline); `None` = no deadline.
    deadline: Option<Instant>,
    payload: Payload,
}

/// A type-erased stage plus its hop codecs, as assembled by the builder.
struct StageSlot {
    name: String,
    threads: usize,
    /// Present iff the hop *into* this stage is a wire boundary.
    in_decode: Option<MsgDecodeFn>,
    run: MsgRunFn,
    /// Present iff the hop *out of* this stage is a wire boundary.
    out_encode: Option<MsgEncodeFn>,
}

/// Typestate builder for a [`TypedPipeline`]: `In` is the pipeline input
/// type, `Cur` the message type at the current end of the chain.
pub struct PipelineBuilder<In, Cur> {
    slots: Vec<StageSlot>,
    /// Present iff `.link()` was called before the first stage: the
    /// source serializes inputs before injecting them.
    source_encode: Option<MsgEncodeFn>,
    /// Decode half of the most recent `.link()`, consumed by the next
    /// `.stage()` (or by `.build()` as the sink decoder).
    pending_decode: Option<MsgDecodeFn>,
    capacity: usize,
    deadline: Option<Duration>,
    watchdog: Option<Duration>,
    quarantine: bool,
    _marker: PhantomData<fn(In) -> Cur>,
}

impl<In: Send + 'static> PipelineBuilder<In, In> {
    /// Starts an empty chain whose first stage consumes `In`.
    pub fn new() -> Self {
        PipelineBuilder {
            slots: Vec::new(),
            source_encode: None,
            pending_decode: None,
            capacity: 4,
            deadline: None,
            watchdog: None,
            quarantine: false,
            _marker: PhantomData,
        }
    }
}

impl<In: Send + 'static> Default for PipelineBuilder<In, In> {
    fn default() -> Self {
        Self::new()
    }
}

impl<In: Send + 'static, Cur: Send + 'static> PipelineBuilder<In, Cur> {
    /// Appends a stage. Its input type must be the chain's current
    /// message type; the chain advances to the stage's output type.
    pub fn stage<S>(
        mut self,
        name: impl Into<String>,
        threads: usize,
        stage: S,
    ) -> PipelineBuilder<In, S::Out>
    where
        S: Stage<In = Cur> + 'static,
    {
        let run: MsgRunFn = Box::new(move |msg, cx| {
            let input = msg
                .downcast::<Cur>()
                .expect("builder typestate guarantees the hop message type");
            Ok(Box::new(stage.process(*input, cx)?) as BoxMsg)
        });
        self.slots.push(StageSlot {
            name: name.into(),
            threads: threads.max(1),
            in_decode: self.pending_decode.take(),
            run,
            out_encode: None,
        });
        PipelineBuilder {
            slots: self.slots,
            source_encode: self.source_encode,
            pending_decode: None,
            capacity: self.capacity,
            deadline: self.deadline,
            watchdog: self.watchdog,
            quarantine: self.quarantine,
            _marker: PhantomData,
        }
    }

    /// Marks the hop after the latest stage (or the source hop, if no
    /// stage has been added yet) as a wire boundary: the current message
    /// type is serialized on the sender thread — bytes counted into the
    /// hop's `link_bytes` entry — and deserialized on the receiver.
    pub fn link(mut self) -> Self
    where
        Cur: WireEncode + WireDecode,
    {
        let encode: MsgEncodeFn = Box::new(|msg| {
            let v = msg
                .downcast::<Cur>()
                .expect("builder typestate guarantees the hop message type");
            to_frame(&*v)
        });
        let decode: MsgDecodeFn =
            Box::new(|bytes| Ok(Box::new(from_frame::<Cur>(bytes)?) as BoxMsg));
        match self.slots.last_mut() {
            Some(last) => last.out_encode = Some(encode),
            None => self.source_encode = Some(encode),
        }
        self.pending_decode = Some(decode);
        self
    }

    /// Overrides the per-hop buffering capacity (default 4).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Gives every item an end-to-end deadline of `budget` from the
    /// moment the source injects it. A stage that dequeues an item whose
    /// deadline has already passed **sheds** it — counts it in the
    /// stage's `deadline_expired` and drops it — instead of spending
    /// compute on an answer nobody is waiting for. Shed items are simply
    /// missing from the output; the run itself still succeeds.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Arms a stall watchdog: a monitor thread flags any stage that has
    /// input queued but has made no progress for `window`, aborting the
    /// run with [`StreamError::Stalled`] naming the stage — instead of
    /// the whole call hanging forever behind one wedged stage. (The
    /// watchdog cannot preempt a handler: a stage blocked *inside*
    /// `process` must still return before the call unwinds, but the
    /// error is already recorded and the drain is already underway.)
    pub fn with_watchdog(mut self, window: Duration) -> Self {
        self.watchdog = Some(window.max(Duration::from_millis(1)));
        self
    }

    /// Quarantines poison items: an item whose handler **panics** is
    /// counted in the stage's `quarantined` metric and dropped, and the
    /// stream keeps flowing. Without this (the default), a panicking
    /// item stops the run with a clean [`StreamError::Stage`] carrying
    /// the panic message — in neither mode does the panic unwind through
    /// `process_stream`.
    pub fn with_quarantine(mut self, quarantine: bool) -> Self {
        self.quarantine = quarantine;
        self
    }

    /// Finalizes the chain. Fails if no stage was added.
    pub fn build(self) -> Result<TypedPipeline<In, Cur>, StreamError> {
        if self.slots.is_empty() {
            return Err(StreamError::Config("pipeline needs at least one stage".into()));
        }
        Ok(TypedPipeline {
            slots: self.slots,
            source_encode: self.source_encode,
            sink_decode: self.pending_decode,
            capacity: self.capacity,
            deadline: self.deadline,
            watchdog: self.watchdog,
            quarantine: self.quarantine,
            _marker: PhantomData,
        })
    }
}

/// Execution statistics of one pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineStats {
    /// Per-request latency (source injection → sink arrival), in request
    /// order.
    pub latencies: Vec<Duration>,
    /// Wall-clock time from first injection to last arrival.
    pub makespan: Duration,
    /// Bytes transferred per hop (`n_stages + 1` entries: source → s0,
    /// s0 → s1, …, s_last → sink). Owned hops carry no serialized bytes
    /// and report 0.
    pub link_bytes: Vec<u64>,
    /// Per-stage busy time (sum of handler execution times).
    pub stage_busy: Vec<Duration>,
    /// Per-stage metrics: items in/out, serialized bytes, compute time,
    /// queue wait, errors.
    pub stages: Vec<StageReport>,
}

impl PipelineStats {
    /// Mean request latency; zero when no request completed.
    pub fn mean_latency(&self) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        self.latencies.iter().sum::<Duration>() / self.latencies.len() as u32
    }

    /// Total bytes over all hops.
    pub fn total_bytes(&self) -> u64 {
        self.link_bytes.iter().sum()
    }

    /// Items shed across all stages because their deadline had expired.
    pub fn deadline_expired(&self) -> u64 {
        self.stages.iter().map(|s| s.deadline_expired).sum()
    }

    /// Items quarantined across all stages after panicking.
    pub fn quarantined(&self) -> u64 {
        self.stages.iter().map(|s| s.quarantined).sum()
    }

    /// Max observed input-queue depth over all stages — how close the
    /// bounded hops came to saturation during the run.
    pub fn max_queue_depth(&self) -> u64 {
        self.stages.iter().map(|s| s.max_queue_depth).max().unwrap_or(0)
    }
}

/// A built chain of typed stages connected by bounded channels.
pub struct TypedPipeline<In, Out> {
    slots: Vec<StageSlot>,
    source_encode: Option<MsgEncodeFn>,
    sink_decode: Option<MsgDecodeFn>,
    capacity: usize,
    deadline: Option<Duration>,
    watchdog: Option<Duration>,
    quarantine: bool,
    _marker: PhantomData<fn(In) -> Out>,
}

impl<In: Send + 'static, Out: Send + 'static> TypedPipeline<In, Out> {
    /// Starts a builder for a pipeline consuming `In`.
    pub fn builder() -> PipelineBuilder<In, In> {
        PipelineBuilder::new()
    }

    /// Number of stages in the chain.
    pub fn n_stages(&self) -> usize {
        self.slots.len()
    }

    /// Streams `inputs` through the pipeline, returning the outputs in
    /// request order together with run statistics. Fails with the first
    /// stage error, naming the stage.
    ///
    /// Stages run on dedicated threads for the duration of the call;
    /// requests are injected back-to-back, so with `k` stages up to `k`
    /// requests execute concurrently — the pipelining the paper's Exp#2
    /// measures. On a stage error the chain drains cleanly: upstream
    /// senders observe the closed channel and stop, all stage threads
    /// join before this returns.
    pub fn process_stream(
        &self,
        inputs: Vec<In>,
    ) -> Result<(Vec<Out>, PipelineStats), StreamError> {
        let n_stages = self.slots.len();
        let hop_bytes: Vec<Arc<AtomicU64>> =
            (0..=n_stages).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let metrics: Vec<Arc<StageMetrics>> =
            (0..n_stages).map(|_| Arc::new(StageMetrics::default())).collect();

        let mut senders: Vec<Option<crate::chan::Sender<Envelope>>> =
            Vec::with_capacity(n_stages + 1);
        let mut receivers: Vec<Option<crate::chan::Receiver<Envelope>>> =
            Vec::with_capacity(n_stages + 1);
        for _ in 0..=n_stages {
            let (tx, rx) = crate::chan::bounded(self.capacity);
            senders.push(Some(tx));
            receivers.push(Some(rx));
        }

        let start = Instant::now();

        let failure: Arc<parking_lot::Mutex<Option<(String, StreamError)>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let quarantine = self.quarantine;
        // Receiver clones for the watchdog: receivers are multi-consumer
        // and the watchdog only ever calls len() on them. Only cloned
        // when a watchdog is armed — a lingering receiver clone would
        // keep a hop open after its consumer stage exited, so the
        // watchdog must (and does) drop these the moment any failure is
        // recorded.
        let watch_rx: Vec<crate::chan::Receiver<Envelope>> = if self.watchdog.is_some() {
            (0..n_stages)
                .map(|i| receivers[i].as_ref().expect("receiver present").clone())
                .collect()
        } else {
            Vec::new()
        };
        let watchdog_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            // Spawn stage threads.
            let mut busy_handles = Vec::with_capacity(n_stages);
            for (i, slot) in self.slots.iter().enumerate() {
                let rx = receivers[i].take().expect("receiver unused");
                let tx = senders[i + 1].take().expect("sender unused");
                let failure = Arc::clone(&failure);
                let m = Arc::clone(&metrics[i]);
                let out_hop = Arc::clone(&hop_bytes[i + 1]);
                let handle = scope.spawn(move || {
                    let pool = WorkerPool::new(slot.threads);
                    let mut busy = Duration::ZERO;
                    while let Ok(env) = rx.recv() {
                        // Queue depth at the moment of dequeue: the item
                        // in hand plus whatever is still waiting.
                        m.observe_queue_depth(rx.len() as u64 + 1);
                        m.queue_wait_ns
                            .fetch_add(env.sent_at.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        m.items_in.fetch_add(1, Ordering::Relaxed);
                        let deadline = env.deadline;
                        // Shed before the expensive work: an item whose
                        // budget is already gone gets no compute.
                        if deadline.is_some_and(|d| Instant::now() > d) {
                            m.deadline_expired.fetch_add(1, Ordering::Relaxed);
                            m.touch();
                            continue;
                        }
                        let t0 = Instant::now();
                        // Decode (wire hop only) + process + encode (wire
                        // hop only) all count as this stage's compute.
                        // The catch_unwind is the poison-item boundary:
                        // a panicking item must not tear down the chain.
                        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                            || -> Result<Payload, StreamError> {
                                let msg: BoxMsg = match env.payload {
                                    Payload::Owned(b) => b,
                                    Payload::Wire(bytes) => {
                                        let decode = slot
                                            .in_decode
                                            .as_ref()
                                            .expect("wire payload only arrives on linked hops");
                                        decode(bytes)?
                                    }
                                };
                                let mut cx = StageContext::new(&pool, &m);
                                let out = (slot.run)(msg, &mut cx)?;
                                Ok(match &slot.out_encode {
                                    Some(encode) => {
                                        let bytes = encode(out);
                                        out_hop.fetch_add(bytes.len() as u64, Ordering::Relaxed);
                                        m.bytes_serialized
                                            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                                        Payload::Wire(bytes)
                                    }
                                    None => Payload::Owned(out),
                                })
                            },
                        ));
                        let elapsed = t0.elapsed();
                        busy += elapsed;
                        m.compute_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
                        match step {
                            Ok(Ok(payload)) => {
                                m.items_out.fetch_add(1, Ordering::Relaxed);
                                m.touch();
                                let env = Envelope {
                                    seq: env.seq,
                                    sent_at: Instant::now(),
                                    deadline,
                                    payload,
                                };
                                if tx.send(env).is_err() {
                                    break; // sink gone
                                }
                            }
                            Ok(Err(e)) => {
                                // Record the first failure and stop this
                                // stage; dropping rx/tx unwinds the chain.
                                m.errors.fetch_add(1, Ordering::Relaxed);
                                failure.lock().get_or_insert((slot.name.clone(), e));
                                break;
                            }
                            Err(payload) => {
                                let msg = panic_message(payload.as_ref());
                                if quarantine {
                                    m.quarantined.fetch_add(1, Ordering::Relaxed);
                                    m.touch();
                                    continue;
                                }
                                m.errors.fetch_add(1, Ordering::Relaxed);
                                failure.lock().get_or_insert((
                                    slot.name.clone(),
                                    StreamError::Stage(format!(
                                        "item {} panicked: {msg}",
                                        env.seq
                                    )),
                                ));
                                break;
                            }
                        }
                    }
                    busy
                });
                busy_handles.push(handle);
            }

            // Stall watchdog: flags a stage with input queued but no
            // progress for the window — an alive-but-stuck diagnosis a
            // plain join could never make.
            if let Some(window) = self.watchdog {
                let failure = Arc::clone(&failure);
                let metrics = metrics.clone();
                let slot_names: Vec<String> =
                    self.slots.iter().map(|s| s.name.clone()).collect();
                let stop = Arc::clone(&watchdog_stop);
                let poll = (window / 8).clamp(Duration::from_millis(1), Duration::from_millis(50));
                scope.spawn(move || {
                    // Returning drops the watch_rx clones so blocked
                    // upstream senders observe the closed hops.
                    let _watch_rx = watch_rx;
                    while !stop.load(Ordering::Relaxed) {
                        if failure.lock().is_some() {
                            return; // some stage already failed; stand down
                        }
                        for (i, name) in slot_names.iter().enumerate() {
                            if !_watch_rx[i].is_empty() && metrics[i].heartbeat_age() > window {
                                failure.lock().get_or_insert((
                                    name.clone(),
                                    StreamError::Stalled { stage: name.clone() },
                                ));
                                return;
                            }
                        }
                        std::thread::sleep(poll);
                    }
                });
            }

            // Source: inject requests from a dedicated thread so the
            // sink below drains concurrently — injecting and collecting
            // on one thread would deadlock once the bounded hops fill.
            let source = senders[0].take().expect("source sender");
            let source_hop = Arc::clone(&hop_bytes[0]);
            let source_encode = &self.source_encode;
            let budget = self.deadline;
            let source_handle = scope.spawn(move || {
                let mut inject_times: HashMap<u64, Instant> = HashMap::new();
                for (seq, input) in inputs.into_iter().enumerate() {
                    let payload = match source_encode {
                        Some(encode) => {
                            let bytes = encode(Box::new(input) as BoxMsg);
                            source_hop.fetch_add(bytes.len() as u64, Ordering::Relaxed);
                            Payload::Wire(bytes)
                        }
                        None => Payload::Owned(Box::new(input)),
                    };
                    let now = Instant::now();
                    inject_times.insert(seq as u64, now);
                    let env = Envelope {
                        seq: seq as u64,
                        sent_at: now,
                        deadline: budget.map(|b| now + b),
                        payload,
                    };
                    if source.send(env).is_err() {
                        break; // chain collapsed after a stage failure
                    }
                }
                inject_times // sender drops here, closing the chain head
            });

            // Sink: collect everything. Polls rather than blocks so a
            // watchdog-detected stall (the wedged stage never closes the
            // sink hop) still aborts the collection loop.
            let sink = receivers[n_stages].take().expect("sink receiver");
            let mut arrived: Vec<(u64, Out, Instant)> = Vec::new();
            loop {
                let env = match sink.recv_timeout(Duration::from_millis(20)) {
                    Ok(env) => env,
                    Err(crate::chan::RecvTimeoutError::Timeout) => {
                        if failure.lock().is_some() {
                            break; // stall or stage error recorded; stop waiting
                        }
                        continue;
                    }
                    Err(crate::chan::RecvTimeoutError::Disconnected) => break,
                };
                let at = Instant::now();
                let msg: BoxMsg = match env.payload {
                    Payload::Owned(b) => b,
                    Payload::Wire(bytes) => {
                        let decode = self
                            .sink_decode
                            .as_ref()
                            .expect("wire payload only arrives on linked hops");
                        match decode(bytes) {
                            Ok(msg) => msg,
                            Err(e) => {
                                failure.lock().get_or_insert(("sink".into(), e));
                                break;
                            }
                        }
                    }
                };
                let out = *msg
                    .downcast::<Out>()
                    .expect("builder typestate guarantees the sink message type");
                arrived.push((env.seq, out, at));
            }
            // Drop the sink receiver before joining: if the loop broke on
            // a decode failure, stages still sending must observe the
            // closed hop rather than block forever. The watchdog is told
            // to stand down for the same reason — joins must not wait on
            // its poll loop.
            drop(sink);
            watchdog_stop.store(true, Ordering::Relaxed);

            let makespan = start.elapsed();
            let inject_times = source_handle.join().expect("source thread");
            let stage_busy: Vec<Duration> =
                busy_handles.into_iter().map(|h| h.join().expect("stage thread")).collect();

            if let Some((stage, err)) = failure.lock().take() {
                // A stall is already a first-class diagnosis naming the
                // stage; every other stage error gets the naming wrapper.
                if matches!(err, StreamError::Stalled { .. }) {
                    return Err(err);
                }
                return Err(StreamError::Config(format!("stage {stage:?} failed: {err}")));
            }

            arrived.sort_by_key(|(seq, _, _)| *seq);
            let latencies =
                arrived.iter().map(|(seq, _, at)| *at - inject_times[seq]).collect();
            let outputs = arrived.into_iter().map(|(_, out, _)| out).collect();
            let link_bytes = hop_bytes.iter().map(|b| b.load(Ordering::Relaxed)).collect();
            let stages = self
                .slots
                .iter()
                .zip(&metrics)
                .map(|(s, m)| m.report(s.name.clone(), s.threads))
                .collect();

            Ok((
                outputs,
                PipelineStats { latencies, makespan, link_bytes, stage_busy, stages },
            ))
        })
    }
}

/// Extracts the human-readable message from a caught panic payload
/// (`panic!` with a literal yields `&str`, with formatting a `String`).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::stage_fn;

    fn sleepy(ms: u64) -> impl Stage<In = u64, Out = u64> {
        stage_fn(move |v: u64, _: &mut StageContext| {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(v)
        })
    }

    #[test]
    fn empty_pipeline_rejected() {
        assert!(PipelineBuilder::<u64, u64>::new().build().is_err());
    }

    #[test]
    fn pipelining_overlaps_requests() {
        // Two stages each sleeping 30 ms: serial time for 4 requests would
        // be 240 ms; pipelined it is ~150 ms. Check makespan < serial.
        let p = TypedPipeline::<u64, u64>::builder()
            .stage("s1", 1, sleepy(30))
            .stage("s2", 1, sleepy(30))
            .build()
            .unwrap();
        let (outputs, stats) = p.process_stream((0..4).collect()).unwrap();
        assert_eq!(outputs, vec![0, 1, 2, 3]);
        assert!(
            stats.makespan < Duration::from_millis(220),
            "makespan {:?} shows no overlap",
            stats.makespan
        );
        assert!(stats.stage_busy.iter().all(|b| *b >= Duration::from_millis(100)));
    }

    #[test]
    fn per_request_latency_recorded() {
        let p = TypedPipeline::<u64, u64>::builder().stage("s", 1, sleepy(10)).build().unwrap();
        let (_, stats) = p.process_stream(vec![1, 2]).unwrap();
        assert_eq!(stats.latencies.len(), 2);
        for l in &stats.latencies {
            assert!(*l >= Duration::from_millis(9), "latency {l:?}");
        }
        assert!(stats.mean_latency() >= Duration::from_millis(9));
    }

    #[test]
    fn mean_latency_of_empty_run_is_zero() {
        // Division-by-zero guard: zero completed requests must not panic.
        let stats = PipelineStats {
            latencies: vec![],
            makespan: Duration::ZERO,
            link_bytes: vec![0, 0],
            stage_busy: vec![],
            stages: vec![],
        };
        assert_eq!(stats.mean_latency(), Duration::ZERO);

        // And an actual run with zero inputs takes the same path.
        let p = TypedPipeline::<u64, u64>::builder()
            .stage("id", 1, stage_fn(|v: u64, _: &mut StageContext| Ok(v)))
            .build()
            .unwrap();
        let (out, stats) = p.process_stream(vec![]).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.mean_latency(), Duration::ZERO);
    }

    #[test]
    fn typed_owned_hops_move_messages_without_serialization() {
        // u64 → Vec<u64> → String with no .link(): every hop is owned,
        // none of the message types even need a wire codec impl.
        struct Fan;
        impl Stage for Fan {
            type In = u64;
            type Out = Vec<u64>;
            fn process(&self, v: u64, _: &mut StageContext) -> Result<Vec<u64>, StreamError> {
                Ok((0..v).collect())
            }
        }
        let p = TypedPipeline::<u64, String>::builder()
            .stage("fan", 1, Fan)
            .stage(
                "fmt",
                1,
                stage_fn(|v: Vec<u64>, _: &mut StageContext| Ok(v.len().to_string())),
            )
            .build()
            .unwrap();
        let (out, stats) = p.process_stream(vec![3, 7]).unwrap();
        assert_eq!(out, vec!["3".to_string(), "7".to_string()]);
        assert_eq!(stats.link_bytes, vec![0, 0, 0], "owned hops serialize nothing");
        assert_eq!(stats.stages.len(), 2);
        assert_eq!(stats.stages[0].items_in, 2);
        assert_eq!(stats.stages[0].items_out, 2);
        assert_eq!(stats.stages[1].name, "fmt");
    }

    #[test]
    fn typed_wire_hop_counts_bytes_only_at_boundary() {
        // Owned hop into "a", wire boundary between "a" and "b", owned
        // hop to the sink: only the middle hop carries serialized bytes.
        let p = TypedPipeline::<u64, u64>::builder()
            .stage("a", 1, stage_fn(|v: u64, _: &mut StageContext| Ok(v * 2)))
            .link()
            .stage("b", 1, stage_fn(|v: u64, _: &mut StageContext| Ok(v + 1)))
            .build()
            .unwrap();
        let (out, stats) = p.process_stream(vec![10, 20]).unwrap();
        assert_eq!(out, vec![21, 41]);
        assert_eq!(stats.link_bytes[0], 0);
        assert_eq!(stats.link_bytes[1], 2 * 8, "two u64 frames over the wire hop");
        assert_eq!(stats.link_bytes[2], 0);
        assert_eq!(stats.stages[0].bytes_serialized, 16, "sender pays the encode");
        assert_eq!(stats.stages[1].bytes_serialized, 0);
    }

    #[test]
    fn typed_source_and_sink_links_serialize_ends() {
        let p = TypedPipeline::<u64, u64>::builder()
            .link() // client → first stage
            .stage("id", 1, stage_fn(|v: u64, _: &mut StageContext| Ok(v)))
            .link() // last stage → client
            .build()
            .unwrap();
        let (out, stats) = p.process_stream(vec![1, 2, 3]).unwrap();
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(stats.link_bytes, vec![24, 24]);
    }

    #[test]
    fn stage_reports_record_compute_and_queue_wait() {
        let p = TypedPipeline::<u64, u64>::builder()
            .stage(
                "slow",
                2,
                stage_fn(|v: u64, _: &mut StageContext| {
                    std::thread::sleep(Duration::from_millis(5));
                    Ok(v)
                }),
            )
            .build()
            .unwrap();
        let (_, stats) = p.process_stream((0..4).collect()).unwrap();
        let r = &stats.stages[0];
        assert_eq!(r.name, "slow");
        assert_eq!(r.threads, 2);
        assert_eq!(r.items_in, 4);
        assert_eq!(r.items_out, 4);
        assert!(r.compute >= Duration::from_millis(4 * 5 - 2), "compute {:?}", r.compute);
        // Requests are injected back-to-back, so later ones queue while
        // the first is in the handler.
        assert!(r.queue_wait > Duration::ZERO, "queue wait {:?}", r.queue_wait);
        assert_eq!(r.errors, 0);
    }

    #[test]
    fn mid_pipeline_error_drains_cleanly_under_backpressure() {
        // A failing middle stage with a tiny hop capacity and many
        // in-flight requests: the run must terminate (no deadlock, all
        // scoped threads join), surface the error, and name the stage.
        let p = TypedPipeline::<u64, u64>::builder()
            .stage("head", 1, stage_fn(|v: u64, _: &mut StageContext| Ok(v)))
            .stage(
                "mid",
                1,
                stage_fn(|v: u64, _: &mut StageContext| {
                    if v == 10 {
                        Err(StreamError::Stage("tensor shape mismatch".into()))
                    } else {
                        Ok(v)
                    }
                }),
            )
            .stage("tail", 1, stage_fn(|v: u64, _: &mut StageContext| Ok(v)))
            .with_capacity(2)
            .build()
            .unwrap();
        let err = p.process_stream((0..50).collect()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("mid"), "error should name the stage: {msg}");
        assert!(msg.contains("tensor shape mismatch"), "{msg}");
    }

    #[test]
    fn error_in_first_stage_with_pending_injections_terminates() {
        let p = TypedPipeline::<u64, u64>::builder()
            .stage(
                "gate",
                1,
                stage_fn(|v: u64, _: &mut StageContext| {
                    if v == 0 {
                        Err(StreamError::Stage("rejected".into()))
                    } else {
                        Ok(v)
                    }
                }),
            )
            .with_capacity(1)
            .build()
            .unwrap();
        // First request fails while dozens more wait to be injected; the
        // source must observe the closed channel instead of blocking.
        let err = p.process_stream((0..64).collect()).unwrap_err();
        assert!(err.to_string().contains("gate"), "{err}");
    }

    #[test]
    fn expired_deadline_sheds_items_but_run_succeeds() {
        // A zero budget expires before the first stage dequeues anything:
        // every item is shed, none reach the output, the run still Oks.
        let p = TypedPipeline::<u64, u64>::builder()
            .stage("work", 1, stage_fn(|v: u64, _: &mut StageContext| Ok(v)))
            .with_deadline(Duration::ZERO)
            .build()
            .unwrap();
        let (out, stats) = p.process_stream((0..8).collect()).unwrap();
        assert!(out.is_empty(), "expired items must be shed, got {out:?}");
        assert_eq!(stats.deadline_expired(), 8);
        assert_eq!(stats.stages[0].items_in, 8);
        assert_eq!(stats.stages[0].items_out, 0);
        assert_eq!(stats.stages[0].errors, 0, "shedding is not an error");
    }

    #[test]
    fn generous_deadline_passes_everything_through() {
        let p = TypedPipeline::<u64, u64>::builder()
            .stage("work", 1, stage_fn(|v: u64, _: &mut StageContext| Ok(v + 1)))
            .with_deadline(Duration::from_secs(60))
            .build()
            .unwrap();
        let (out, stats) = p.process_stream(vec![1, 2, 3]).unwrap();
        assert_eq!(out, vec![2, 3, 4]);
        assert_eq!(stats.deadline_expired(), 0);
    }

    #[test]
    fn deadline_propagates_across_stages() {
        // A slow first stage eats the whole budget, so a later stage does
        // the shedding: deadlines must travel with the item, not reset
        // per hop.
        let p = TypedPipeline::<u64, u64>::builder()
            .stage(
                "slow",
                1,
                stage_fn(|v: u64, _: &mut StageContext| {
                    std::thread::sleep(Duration::from_millis(30));
                    Ok(v)
                }),
            )
            .stage("late", 1, stage_fn(|v: u64, _: &mut StageContext| Ok(v)))
            .with_deadline(Duration::from_millis(5))
            .build()
            .unwrap();
        let (out, stats) = p.process_stream(vec![1, 2]).unwrap();
        assert!(out.is_empty(), "budget spent upstream, got {out:?}");
        assert_eq!(stats.deadline_expired(), 2, "every item shed somewhere");
        // The first item passes "slow" with budget left, so only the
        // downstream stage can shed it — the deadline travelled the hop.
        assert!(stats.stages[1].deadline_expired >= 1, "the late stage sheds");
    }

    #[test]
    fn watchdog_flags_stalled_stage_by_name() {
        // The first item wedges the stage far longer than the window
        // while more input sits queued behind it — the watchdog must
        // diagnose the stall instead of the call just taking forever.
        let p = TypedPipeline::<u64, u64>::builder()
            .stage(
                "wedged",
                1,
                stage_fn(|v: u64, _: &mut StageContext| {
                    if v == 0 {
                        std::thread::sleep(Duration::from_millis(400));
                    }
                    Ok(v)
                }),
            )
            .with_watchdog(Duration::from_millis(60))
            .with_capacity(2)
            .build()
            .unwrap();
        let err = p.process_stream((0..6).collect()).unwrap_err();
        match err {
            StreamError::Stalled { stage } => assert_eq!(stage, "wedged"),
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_stays_quiet_on_a_healthy_run() {
        let p = TypedPipeline::<u64, u64>::builder()
            .stage(
                "steady",
                1,
                stage_fn(|v: u64, _: &mut StageContext| {
                    std::thread::sleep(Duration::from_millis(2));
                    Ok(v)
                }),
            )
            .with_watchdog(Duration::from_millis(500))
            .build()
            .unwrap();
        let (out, _) = p.process_stream((0..10).collect()).unwrap();
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn quarantine_drops_poison_item_and_stream_survives() {
        let p = TypedPipeline::<u64, u64>::builder()
            .stage(
                "risky",
                1,
                stage_fn(|v: u64, _: &mut StageContext| {
                    if v == 3 {
                        panic!("poison item {v}");
                    }
                    Ok(v * 10)
                }),
            )
            .with_quarantine(true)
            .build()
            .unwrap();
        let (out, stats) = p.process_stream((0..6).collect()).unwrap();
        assert_eq!(out, vec![0, 10, 20, 40, 50], "only the poison item is missing");
        assert_eq!(stats.quarantined(), 1);
        assert_eq!(stats.stages[0].errors, 0, "quarantine is not a stage error");
    }

    #[test]
    fn panic_without_quarantine_is_a_clean_stage_error() {
        let p = TypedPipeline::<u64, u64>::builder()
            .stage(
                "risky",
                1,
                stage_fn(|v: u64, _: &mut StageContext| {
                    if v == 2 {
                        panic!("bad tensor");
                    }
                    Ok(v)
                }),
            )
            .build()
            .unwrap();
        let err = p.process_stream((0..5).collect()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("risky"), "error should name the stage: {msg}");
        assert!(msg.contains("panicked"), "{msg}");
        assert!(msg.contains("bad tensor"), "original payload must survive: {msg}");
    }

    #[test]
    fn quarantine_catches_worker_pool_panics_with_payload() {
        // The panic happens on a pool worker thread; map_ranges re-raises
        // the original payload on the stage thread, where the quarantine
        // boundary catches it.
        let p = TypedPipeline::<Vec<u64>, Vec<u64>>::builder()
            .stage(
                "par",
                2,
                stage_fn(|v: Vec<u64>, cx: &mut StageContext| {
                    let v = Arc::new(v);
                    let n = v.len();
                    let v2 = Arc::clone(&v);
                    Ok(cx.pool().map_ranges(n, move |r| {
                        r.map(|i| {
                            if v2[i] == 99 {
                                panic!("poison element");
                            }
                            v2[i] + 1
                        })
                        .collect()
                    }))
                }),
            )
            .with_quarantine(true)
            .build()
            .unwrap();
        let (out, stats) = p.process_stream(vec![vec![1, 2], vec![99], vec![3]]).unwrap();
        assert_eq!(out, vec![vec![2, 3], vec![4]]);
        assert_eq!(stats.quarantined(), 1);
    }

    #[test]
    fn queue_depth_high_water_mark_reported() {
        // One slow stage with many queued items: max observed depth must
        // exceed 1 (items stack up behind the handler).
        let p = TypedPipeline::<u64, u64>::builder()
            .stage(
                "slow",
                1,
                stage_fn(|v: u64, _: &mut StageContext| {
                    std::thread::sleep(Duration::from_millis(3));
                    Ok(v)
                }),
            )
            .with_capacity(8)
            .build()
            .unwrap();
        let (_, stats) = p.process_stream((0..12).collect()).unwrap();
        assert!(stats.max_queue_depth() >= 2, "depth {}", stats.max_queue_depth());
    }

    #[test]
    fn arc_shared_stage_runs_in_pipeline() {
        let shared = Arc::new(stage_fn(|v: u64, _: &mut StageContext| Ok(v + 1)));
        let p = TypedPipeline::<u64, u64>::builder()
            .stage("shared", 1, Arc::clone(&shared))
            .build()
            .unwrap();
        let (out, _) = p.process_stream(vec![41]).unwrap();
        assert_eq!(out, vec![42]);
    }
}
