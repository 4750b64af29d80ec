//! Spans the benchmark records around the calls it makes into each layer,
//! and the attribution of a traced run's wall time to those layers.
//!
//! Every span has a name, a layer, start and end, its parent, the thread
//! ("lane") that recorded it and a request or shard-day id. Spans are
//! buffered per lane and collected when the lane is dropped. A span's self
//! time is its duration minus what its children cover. A *fan-out* span
//! (a `for_each_shard` day, the client threads) has its children on
//! `workers` other lanes: each lane gets `1/workers` of the parent's
//! wall, and whatever part of that a lane spends outside child spans is
//! the fan-out's own self time (threads idle at the barrier). Weighting
//! the children by `1/workers` makes every span's weighted self time sum
//! to the root's duration exactly — the sum identity the traced report
//! rests on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layer a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `ts-population`: world builds.
    Population,
    /// `ts-scanner`: grabs and the daily campaign loop, including the
    /// simnet, TLS, x509 and crypto work inside them.
    Scanner,
    /// `ts-core`: streaming accumulators and the shard fan-out.
    Core,
    /// `ts-tls`: handshake steps and the record layer.
    Tls,
    /// `ts-crypto`: DRBG construction and constant-time checks the
    /// benchmark calls directly.
    Crypto,
    /// `ts-bench`: whole experiments.
    Bench,
    /// The benchmark's own glue between spans.
    Unattributed,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Population,
        Layer::Scanner,
        Layer::Core,
        Layer::Tls,
        Layer::Crypto,
        Layer::Bench,
        Layer::Unattributed,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Population => "population",
            Layer::Scanner => "scanner",
            Layer::Core => "core",
            Layer::Tls => "tls",
            Layer::Crypto => "crypto",
            Layer::Bench => "bench",
            Layer::Unattributed => "unattributed",
        }
    }
}

/// One recorded span. Ids start at 1; parent 0 marks the root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the trace.
    pub id: u32,
    /// Enclosing span (0 for the root).
    pub parent: u32,
    /// What the span covers, e.g. `core.span_acc.record`.
    pub name: &'static str,
    /// Layer its self time is charged to.
    pub layer: Layer,
    /// Recording thread.
    pub lane: u32,
    /// Request or shard-day id (0 where none applies).
    pub ctx: u64,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
    /// Worker lanes the children run on (0: children on this lane).
    pub fanout: u32,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static LANE_ID: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// Collects the spans of one traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    done: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Start a trace; span times count from now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// A span buffer for the calling thread. Spans opened while no other
    /// span of this buffer is open get `parent` as their parent.
    pub fn lane(&self, parent: u32) -> Lane<'_> {
        Lane {
            tracer: self,
            lane: LANE_ID.with(|id| *id),
            base_parent: parent,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Every span recorded by lanes dropped so far, ordered by id.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self.done.into_inner().expect("span collector poisoned");
        spans.sort_by_key(|s| s.id);
        spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// One thread's span buffer; hands its spans to the [`Tracer`] on drop.
pub struct Lane<'t> {
    tracer: &'t Tracer,
    lane: u32,
    base_parent: u32,
    open: Vec<Span>,
    spans: Vec<Span>,
}

impl Lane<'_> {
    /// Open a span inside the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str, layer: Layer, ctx: u64) -> u32 {
        self.open_fanout(name, layer, ctx, 0)
    }

    /// Open a span whose children will run on `workers` other lanes.
    pub fn open_fanout(&mut self, name: &'static str, layer: Layer, ctx: u64, workers: u32) -> u32 {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.open.last().map_or(self.base_parent, |s| s.id);
        self.open.push(Span {
            id,
            parent,
            name,
            layer,
            lane: self.lane,
            ctx,
            start_ns: self.tracer.now_ns(),
            end_ns: 0,
            fanout: workers,
        });
        id
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let mut span = self.open.pop().expect("close without an open span");
        span.end_ns = self.tracer.now_ns();
        self.spans.push(span);
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        while !self.open.is_empty() {
            self.close();
        }
        if let Ok(mut done) = self.tracer.done.lock() {
            done.append(&mut self.spans);
        }
    }
}

/// Times a named step: a span in a traced run, a running total in a
/// calibration loop, nothing in an untraced run.
pub trait StepTimer {
    /// Run `f` as the step `name` of `layer`.
    fn step<R>(&mut self, name: &'static str, layer: Layer, ctx: u64, f: impl FnOnce() -> R) -> R;
}

impl StepTimer for Lane<'_> {
    fn step<R>(&mut self, name: &'static str, layer: Layer, ctx: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, layer, ctx);
        let out = f();
        self.close();
        out
    }
}

/// Accumulates wall nanoseconds and call counts per step name.
#[derive(Default)]
pub struct StepTotals(pub BTreeMap<&'static str, (u64, u64)>);

impl StepTimer for StepTotals {
    fn step<R>(
        &mut self,
        name: &'static str,
        _layer: Layer,
        _ctx: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let t = Instant::now();
        let out = f();
        let e = self.0.entry(name).or_default();
        e.0 += t.elapsed().as_nanos() as u64;
        e.1 += 1;
        out
    }
}

/// A traced run's wall time split into weighted self times.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Duration of the root span, ns.
    pub wall_ns: f64,
    /// Weighted self time per layer, ns.
    pub layers: BTreeMap<Layer, f64>,
    /// Weighted self time per span name, ns.
    pub names: BTreeMap<&'static str, f64>,
}

impl Attribution {
    /// Share of the traced wall, in percent.
    pub fn pct(&self, ns: f64) -> f64 {
        100.0 * ns / self.wall_ns
    }

    /// Weighted self time of spans named `name` (0 when none ran).
    pub fn name_ns(&self, name: &str) -> f64 {
        self.names.get(name).copied().unwrap_or(0.0)
    }

    /// Weighted self time of `layer` (0 when none ran).
    pub fn layer_ns(&self, layer: Layer) -> f64 {
        self.layers.get(&layer).copied().unwrap_or(0.0)
    }
}

/// Attribute `spans` (one root, the rest its descendants) to layers.
pub fn attribute(spans: &[Span]) -> Result<Attribution, String> {
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    let mut roots = Vec::new();
    for s in spans {
        if s.parent == 0 {
            roots.push(s);
        } else {
            children.entry(s.parent).or_default().push(s);
        }
    }
    let [root] = roots[..] else {
        return Err(format!(
            "trace needs exactly one root span, has {}",
            roots.len()
        ));
    };
    let mut out = Attribution {
        wall_ns: root.duration(),
        ..Attribution::default()
    };
    let mut reached = 0usize;
    let mut stack = vec![(root, 1.0f64)];
    while let Some((span, weight)) = stack.pop() {
        reached += 1;
        let kids = children.get(&span.id).map_or(&[][..], Vec::as_slice);
        let (self_ns, kid_weight) = if span.fanout == 0 {
            if let Some(k) = kids.iter().find(|k| k.lane != span.lane) {
                return Err(format!(
                    "{} has child {} on another lane",
                    span.name, k.name
                ));
            }
            let covered: f64 = kids.iter().map(|k| k.duration()).sum();
            (span.duration() - covered, weight)
        } else {
            let workers = f64::from(span.fanout);
            let mut busy: BTreeMap<u32, f64> = BTreeMap::new();
            for k in kids {
                *busy.entry(k.lane).or_default() += k.duration();
            }
            if busy.len() > span.fanout as usize {
                return Err(format!(
                    "{} fans out to {} lanes, declared {}",
                    span.name,
                    busy.len(),
                    span.fanout
                ));
            }
            let busy_total: f64 = busy.values().sum();
            (span.duration() - busy_total / workers, weight / workers)
        };
        if self_ns < -1.0 {
            return Err(format!("{} is shorter than its children", span.name));
        }
        *out.layers.entry(span.layer).or_default() += weight * self_ns;
        *out.names.entry(span.name).or_default() += weight * self_ns;
        stack.extend(kids.iter().map(|k| (*k, kid_weight)));
    }
    if reached != spans.len() {
        return Err(format!(
            "{} spans are not under the root",
            spans.len() - reached
        ));
    }
    Ok(out)
}

/// Render spans as compact JSON rows:
/// `[id, parent, name, layer, lane, ctx, start_ns, end_ns, fanout]`.
pub fn spans_json(workload: &str, spans: &[Span]) -> String {
    let mut out = format!(
        "{{\"workload\":\"{workload}\",\"columns\":[\"id\",\"parent\",\"name\",\"layer\",\
         \"lane\",\"ctx\",\"start_ns\",\"end_ns\",\"fanout\"],\"spans\":[\n"
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "[{},{},\"{}\",\"{}\",{},{},{},{},{}]",
            s.id,
            s.parent,
            s.name,
            s.layer.name(),
            s.lane,
            s.ctx,
            s.start_ns,
            s.end_ns,
            s.fanout
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: Layer, lane: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: ["root", "a", "b", "c", "d", "e"][id as usize - 1],
            layer,
            lane,
            ctx: 0,
            start_ns: start,
            end_ns: end,
            fanout: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = vec![
            span(1, 0, Layer::Unattributed, 1, 0, 100),
            span(2, 1, Layer::Scanner, 1, 10, 70),
            span(3, 2, Layer::Core, 1, 20, 30),
            span(4, 2, Layer::Core, 1, 40, 55),
        ];
        let a = attribute(&spans).unwrap();
        assert_eq!(a.wall_ns, 100.0);
        assert_eq!(a.layer_ns(Layer::Scanner), 60.0 - 25.0);
        assert_eq!(a.layer_ns(Layer::Core), 25.0);
        assert_eq!(a.layer_ns(Layer::Unattributed), 40.0);
        assert_eq!(a.name_ns("a"), 35.0);
    }

    #[test]
    fn layer_rows_plus_unattributed_sum_to_the_traced_wall() {
        // Root 0..100 on lane 1 fans a 10..90 section out to two workers:
        // lane 2 is busy 50 of its 80, lane 3 busy 80 (one child with a
        // nested grandchild).
        let mut fan = span(2, 1, Layer::Core, 1, 10, 90);
        fan.fanout = 2;
        let spans = vec![
            span(1, 0, Layer::Unattributed, 1, 0, 100),
            fan,
            span(3, 2, Layer::Scanner, 2, 10, 60),
            span(4, 2, Layer::Scanner, 3, 10, 90),
            span(5, 4, Layer::Core, 3, 20, 40),
        ];
        let a = attribute(&spans).unwrap();
        let total: f64 = a.layers.values().sum();
        assert!((total - a.wall_ns).abs() < 1e-9, "{total} vs {}", a.wall_ns);
        // Idle: lane 2 waits 30 of 80; weighted by 1/2.
        assert_eq!(a.name_ns("a"), 15.0);
        assert_eq!(a.layer_ns(Layer::Scanner), (50.0 + 60.0) / 2.0);
        assert_eq!(a.layer_ns(Layer::Core), 15.0 + 20.0 / 2.0);
        assert_eq!(a.layer_ns(Layer::Unattributed), 20.0);
    }

    #[test]
    fn malformed_traces_are_rejected() {
        let two_roots = vec![
            span(1, 0, Layer::Bench, 1, 0, 10),
            span(2, 0, Layer::Bench, 1, 10, 20),
        ];
        assert!(attribute(&two_roots).is_err());
        let cross_lane = vec![
            span(1, 0, Layer::Bench, 1, 0, 10),
            span(2, 1, Layer::Bench, 2, 0, 10),
        ];
        assert!(attribute(&cross_lane).is_err());
    }

    #[test]
    fn lanes_record_nesting_and_hand_spans_over_on_drop() {
        let tracer = Tracer::new();
        {
            let mut lane = tracer.lane(0);
            let root = lane.open("root", Layer::Unattributed, 0);
            lane.step("a", Layer::Tls, 7, || ());
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut worker = tracer.lane(root);
                    worker.step("b", Layer::Core, 8, || ());
                });
            });
            lane.close();
        }
        let spans = tracer.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].ctx, 7);
        assert_eq!(spans[2].parent, spans[0].id);
        assert_ne!(spans[2].lane, spans[0].lane);
    }
}
