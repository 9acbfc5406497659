//! Structured execution tracing.
//!
//! A [`Database`](crate::Database) normally runs with tracing disabled and
//! pays a single `Option` check per statement — no clock reads, no
//! allocation, no counter perturbation (the session tests pin the exact
//! `ExecStats` values either way). Installing a [`TraceSink`] turns every
//! pipeline phase into a [`TraceEvent`]: the phase name, a human-readable
//! detail, wall-clock nanoseconds, and the [`ExecStats`] *delta* the phase
//! produced. Sinks are deliberately dumb — a bounded ring buffer for
//! post-hoc inspection and a callback adapter for streaming — so the
//! emission path stays allocation-light and the policy lives with the
//! caller.
//!
//! Alongside events, the tracer folds per-statement wall time into
//! power-of-two histograms keyed by statement kind;
//! [`Database::stats_report`](crate::Database::stats_report) renders them.

use crate::stats::ExecStats;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// One traced phase of statement or pipeline processing.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotonic per-tracer sequence number (0-based).
    pub seq: u64,
    /// Phase tag: `"parse"`, `"execute"`, or a pipeline-level
    /// span such as `"shred"` / `"generate"` / `"load"` / `"retrieve"`.
    pub phase: &'static str,
    /// Human-readable context — the statement kind, the plan-cache outcome,
    /// the document name.
    pub detail: String,
    /// Wall-clock duration of the phase.
    pub nanos: u64,
    /// Counter movement attributable to this phase
    /// ([`ExecStats::since`] of the snapshots around it).
    pub delta: ExecStats,
}

/// Receives [`TraceEvent`]s as they are produced. Implementations must not
/// call back into the database (the tracer holds no re-entrancy guard; it
/// is invoked while the session is mid-statement).
pub trait TraceSink {
    fn record(&mut self, event: &TraceEvent);
}

/// Bounded FIFO of the most recent events. When full, the oldest event is
/// discarded and [`RingBufferSink::dropped`] counts it — tracing a bulk
/// load cannot grow memory without bound.
#[derive(Debug, Default)]
pub struct RingBufferSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingBufferSink {
    pub fn new(capacity: usize) -> RingBufferSink {
        RingBufferSink { capacity, events: VecDeque::new(), dropped: 0 }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Remove and return all retained events, oldest first.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.events.drain(..).collect()
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event.clone());
    }
}

/// Streams every event into a closure — the adapter for callers that want
/// their own aggregation without defining a sink type.
pub struct CallbackSink<F: FnMut(&TraceEvent)> {
    callback: F,
}

impl<F: FnMut(&TraceEvent)> CallbackSink<F> {
    pub fn new(callback: F) -> CallbackSink<F> {
        CallbackSink { callback }
    }
}

impl<F: FnMut(&TraceEvent)> TraceSink for CallbackSink<F> {
    fn record(&mut self, event: &TraceEvent) {
        (self.callback)(event);
    }
}

/// Shared, clonable handle to a sink. The database keeps one; the caller
/// keeps another to inspect what was collected. Cloning a traced
/// [`Database`](crate::Database) shares the sink rather than copying it —
/// tracing is an observation channel, not database state. The sink lives
/// behind `Arc<Mutex<…>>` so a traced `Database` stays `Send` and can
/// serve a connection thread.
#[derive(Clone)]
pub struct TraceHandle {
    sink: Arc<Mutex<dyn TraceSink + Send>>,
}

impl TraceHandle {
    pub fn new(sink: impl TraceSink + Send + 'static) -> TraceHandle {
        TraceHandle { sink: Arc::new(Mutex::new(sink)) }
    }

    /// A ring-buffer sink plus a *typed* reference to it, so the caller can
    /// read the collected events back after the run without downcasting.
    pub fn ring(capacity: usize) -> (TraceHandle, Arc<Mutex<RingBufferSink>>) {
        let ring = Arc::new(Mutex::new(RingBufferSink::new(capacity)));
        (TraceHandle { sink: ring.clone() }, ring)
    }

    pub fn record(&self, event: &TraceEvent) {
        self.sink.lock().unwrap_or_else(PoisonError::into_inner).record(event);
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceHandle").finish_non_exhaustive()
    }
}

/// Wall-time distribution as power-of-two buckets of nanoseconds.
/// `counts[b]` holds samples with `floor(log2(nanos)) == b - 1`
/// (bucket 0 is the `0ns` degenerate). Fixed-size, allocation-free
/// recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; 65],
    total_nanos: u64,
    max_nanos: u64,
    samples: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { counts: [0; 65], total_nanos: 0, max_nanos: 0, samples: 0 }
    }
}

impl Histogram {
    pub fn record(&mut self, nanos: u64) {
        let bucket = (64 - nanos.leading_zeros()) as usize;
        self.counts[bucket] += 1;
        self.total_nanos += nanos;
        self.max_nanos = self.max_nanos.max(nanos);
        self.samples += 1;
    }

    pub fn samples(&self) -> u64 {
        self.samples
    }

    pub fn total_nanos(&self) -> u64 {
        self.total_nanos
    }

    pub fn max_nanos(&self) -> u64 {
        self.max_nanos
    }

    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.samples).unwrap_or(0)
    }

    /// `(lower-bound-nanos, count)` for each populated bucket, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(b, c)| (if b == 0 { 0 } else { 1u64 << (b - 1) }, *c))
            .collect()
    }
}

/// The per-database tracer: sink handle, sequence counter, and the
/// per-statement-kind timing histograms.
#[derive(Debug, Clone)]
pub struct Tracer {
    handle: TraceHandle,
    seq: u64,
    timings: BTreeMap<&'static str, Histogram>,
}

impl Tracer {
    pub fn new(handle: TraceHandle) -> Tracer {
        Tracer { handle, seq: 0, timings: BTreeMap::new() }
    }

    /// Emit one event to the sink (assigning it the next sequence number).
    pub fn emit(&mut self, phase: &'static str, detail: String, nanos: u64, delta: ExecStats) {
        let event = TraceEvent { seq: self.seq, phase, detail, nanos, delta };
        self.seq += 1;
        self.handle.record(&event);
    }

    /// Fold a sample into the histogram for `kind`.
    pub fn time(&mut self, kind: &'static str, nanos: u64) {
        self.timings.entry(kind).or_default().record(nanos);
    }

    pub fn timings(&self) -> &BTreeMap<&'static str, Histogram> {
        &self.timings
    }

    pub fn handle(&self) -> &TraceHandle {
        &self.handle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn event(seq: u64) -> TraceEvent {
        TraceEvent {
            seq,
            phase: "execute",
            detail: format!("stmt {seq}"),
            nanos: seq * 100,
            delta: ExecStats::default(),
        }
    }

    #[test]
    fn ring_buffer_keeps_the_newest_and_counts_drops() {
        let mut ring = RingBufferSink::new(3);
        for seq in 0..5 {
            ring.record(&event(seq));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let seqs: Vec<u64> = ring.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(ring.drain().len(), 3);
        assert!(ring.is_empty());
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut ring = RingBufferSink::new(0);
        ring.record(&event(0));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn callback_sink_streams_each_event() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let inner = seen.clone();
        let mut sink = CallbackSink::new(move |e: &TraceEvent| inner.borrow_mut().push(e.seq));
        sink.record(&event(7));
        sink.record(&event(9));
        assert_eq!(*seen.borrow(), vec![7, 9]);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(1); // bucket lower bound 1
        h.record(1000); // floor(log2)=9 → lower bound 512
        h.record(1023);
        assert_eq!(h.samples(), 5);
        assert_eq!(h.max_nanos(), 1023);
        assert_eq!(h.mean_nanos(), (1 + 1 + 1000 + 1023) / 5);
        assert_eq!(h.buckets(), vec![(0, 1), (1, 2), (512, 2)]);
    }

    #[test]
    fn tracer_sequences_events_and_times_kinds() {
        let (handle, ring) = TraceHandle::ring(16);
        let mut tracer = Tracer::new(handle);
        tracer.emit("parse", "hit".into(), 10, ExecStats::default());
        tracer.emit("execute", "INSERT".into(), 20, ExecStats::default());
        tracer.time("INSERT", 20);
        tracer.time("INSERT", 40);
        assert_eq!(tracer.timings()["INSERT"].samples(), 2);
        // The shared ring saw both events in order.
        let seqs: Vec<u64> = ring.lock().unwrap().events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }
}
