//! In-memory spans recorded by the benchmark around calls into each
//! layer, and the self-time arithmetic over them.
//!
//! Two kinds of child span exist. A *nested* child ran inside its
//! parent's interval (a codec call inside an item). A *replayed* child
//! is the benchmark calling a layer's public function again, after the
//! parent returned, on the inputs the parent gave it — the only way to
//! time a callee from outside the program. Its interval lies outside the
//! parent's, so it is charged by duration, not by overlap.

use crate::json::Json;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// Spans of one request share this identifier.
    pub item: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replay: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Appends spans in memory; nothing is written until the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that other spans will name as their parent; pair
    /// with [`Recorder::close`].
    pub fn open(&mut self, name: &str, item: u64, parent: Option<usize>, replay: bool) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            item,
            parent,
            start_ns: now,
            end_ns: now,
            replay,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a nested leaf span around `f`.
    pub fn time<T>(&mut self, name: &str, item: u64, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, item, Some(parent), false);
        let out = f();
        self.close(id);
        out
    }

    /// Records a replayed child of `parent` around `f`; returns its id so
    /// deeper replays can hang off it.
    pub fn replay<T>(
        &mut self,
        name: &str,
        item: u64,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let id = self.open(name, item, Some(parent), true);
        let out = f();
        self.close(id);
        (id, out)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Span `id`'s duration minus the part its children account for:
/// the union of nested children's intervals (clipped to the parent) plus
/// the summed durations of replayed children. Negative when replays cost
/// more than the call they decompose.
pub fn self_time_ns(spans: &[Span], id: usize) -> i64 {
    let parent = &spans[id];
    let mut nested: Vec<(u64, u64)> = Vec::new();
    let mut replayed = 0u64;
    for child in spans.iter().filter(|s| s.parent == Some(id)) {
        if child.replay {
            replayed += child.duration_ns();
        } else {
            let start = child.start_ns.max(parent.start_ns);
            let end = child.end_ns.min(parent.end_ns);
            if end > start {
                nested.push((start, end));
            }
        }
    }
    nested.sort_unstable();
    let mut covered = 0u64;
    let mut reach = 0u64;
    for (start, end) in nested {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.duration_ns() as i64 - covered as i64 - replayed as i64
}

/// Whether a span called `name` counts under `key`: the same name, or
/// `key` followed by an index, so `server_linear` sums every
/// `server_linear[i]`.
fn counts_under(name: &str, key: &str) -> bool {
    name.strip_prefix(key)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('['))
}

fn sum_ms<'a>(spans: impl Iterator<Item = &'a Span>, key: &str) -> f64 {
    // From 0.0: an empty float sum is -0.0, which would print as such.
    spans
        .filter(|s| counts_under(&s.name, key))
        .fold(0.0, |acc, s| acc + s.duration_ns() as f64 / 1e6)
}

/// Summed duration of every span under `key`, in milliseconds.
pub fn total_ms(spans: &[Span], key: &str) -> f64 {
    sum_ms(spans.iter(), key)
}

/// The item ids in `spans`, in order of first appearance.
pub fn items(spans: &[Span]) -> Vec<u64> {
    let mut seen = Vec::new();
    for s in spans {
        if !seen.contains(&s.item) {
            seen.push(s.item);
        }
    }
    seen
}

/// The smallest per-item total under `key`, in milliseconds: the layer's
/// cost on the item the host disturbed least. Host noise only adds time,
/// so with a handful of traced items the minimum repeats where the mean
/// does not.
pub fn least_ms(spans: &[Span], key: &str) -> f64 {
    items(spans)
        .into_iter()
        .map(|item| sum_ms(spans.iter().filter(|s| s.item == item), key))
        .reduce(f64::min)
        .unwrap_or(0.0)
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::uint(id as u64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::uint(p as u64)),
                    ),
                    ("item", Json::uint(s.item)),
                    ("name", Json::str(s.name.clone())),
                    ("start_ns", Json::uint(s.start_ns)),
                    ("end_ns", Json::uint(s.end_ns)),
                    ("replay", Json::Bool(s.replay)),
                    ("self_ns", Json::Int(self_time_ns(spans, id))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: u64, end: u64, replay: bool) -> Span {
        Span {
            name: name.into(),
            item: 0,
            parent,
            start_ns: start,
            end_ns: end,
            replay,
        }
    }

    #[test]
    fn nested_children_are_charged_by_overlap() {
        let spans = vec![
            span("item", None, 0, 100, false),
            span("encrypt", Some(0), 10, 40, false),
            // A grandchild does not reduce the root's self time twice.
            span("refill", Some(1), 15, 25, false),
        ];
        assert_eq!(self_time_ns(&spans, 0), 70);
        assert_eq!(self_time_ns(&spans, 1), 20);
        assert_eq!(self_time_ns(&spans, 2), 10);
    }

    #[test]
    fn adjacent_and_overlapping_children_count_their_union_once() {
        let spans = vec![
            span("item", None, 0, 100, false),
            span("a", Some(0), 10, 30, false),
            span("b", Some(0), 30, 50, false),  // adjacent to a
            span("c", Some(0), 45, 60, false),  // overlaps b
            span("d", Some(0), 90, 120, false), // clipped at the parent's end
        ];
        // union = [10,60) ∪ [90,100) = 60
        assert_eq!(self_time_ns(&spans, 0), 40);
    }

    #[test]
    fn replayed_children_are_charged_by_duration() {
        let spans = vec![
            span("linear", None, 0, 100, false),
            // Replays run after the parent returned.
            span("dot", Some(0), 200, 260, true),
            span("obfuscate", Some(0), 260, 270, true),
            span("multi_exp", Some(1), 300, 345, true),
        ];
        assert_eq!(self_time_ns(&spans, 0), 30);
        assert_eq!(self_time_ns(&spans, 1), 15);
        // Replays costlier than the call they decompose go negative
        // rather than being clamped out of sight.
        let over = vec![
            span("p", None, 0, 10, false),
            span("c", Some(0), 20, 45, true),
        ];
        assert_eq!(self_time_ns(&over, 0), -15);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let spans = vec![
            span("item", None, 0, 1000, false),
            span("x", Some(0), 0, 400, false),
            span("y", Some(0), 400, 900, false),
            span("y.child", Some(2), 1000, 1300, true),
        ];
        let total: i64 = (0..spans.len()).map(|id| self_time_ns(&spans, id)).sum();
        assert_eq!(total, 1000);
        assert_eq!(total_ms(&spans, "y"), 0.0005);
    }

    #[test]
    fn indexed_names_sum_under_their_stem() {
        let spans = vec![
            span("server_linear[0]", None, 0, 1_000_000, false),
            span("server_linear[1]", None, 0, 2_000_000, false),
            span("server_linear_other", None, 0, 4_000_000, false),
        ];
        assert_eq!(total_ms(&spans, "server_linear"), 3.0);
        assert_eq!(total_ms(&spans, "server_linear[1]"), 2.0);
        assert_eq!(total_ms(&spans, "server"), 0.0);
    }

    #[test]
    fn least_takes_the_cheapest_item_per_layer() {
        let mut spans = vec![
            span("dot", None, 0, 5_000_000, true),
            span("dot", None, 0, 2_000_000, true),
            span("decrypt", None, 0, 1_000_000, true),
        ];
        spans[0].item = 1;
        spans[1].item = 1;
        let mut second = vec![
            span("dot", None, 0, 6_000_000, true),
            span("decrypt", None, 0, 3_000_000, true),
        ];
        second.iter_mut().for_each(|s| s.item = 2);
        spans[2].item = 1;
        spans.extend(second);
        assert_eq!(items(&spans), vec![1, 2]);
        assert_eq!(least_ms(&spans, "dot"), 6.0); // item 2: one 6 ms dot; item 1: 5 + 2
        assert_eq!(least_ms(&spans, "decrypt"), 1.0);
        assert_eq!(least_ms(&spans, "absent"), 0.0);
    }

    #[test]
    fn recorder_links_spans_to_their_parent() {
        let mut rec = Recorder::default();
        let root = rec.open("item", 7, None, false);
        let v = rec.time("leaf", 7, root, || 41 + 1);
        let (rid, _) = rec.replay("again", 7, root, || ());
        rec.close(root);
        assert_eq!(v, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[rid].replay && !spans[1].replay);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert!(spans.iter().all(|s| s.item == 7));
    }
}
