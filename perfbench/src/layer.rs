//! Per-layer metrics of the traced mode. Layers are timed from outside,
//! by calling each layer's public functions on the workload's own inputs;
//! server stages come from the flight recorder the server already has.
//! Every workload reports every field; a layer the workload does not
//! exercise reads 0.

use std::collections::HashMap;
use std::time::Instant;

use cira_obs::trace::{SpanEvent, Stage};
use cira_trace::codec::PackedTrace;

use crate::report::{Ops, Report};

/// Flight-recorder events kept per thread in the traced mode: large
/// enough that a traced run drops none (drops are reported regardless).
pub const TRACE_CAPACITY: usize = 1 << 18;

/// Server stages reported as `serve.stage.<name>_s`.
pub const SERVE_STAGES: [Stage; 10] = [
    Stage::Parse,
    Stage::Inbox,
    Stage::Checkout,
    Stage::Score,
    Stage::Complete,
    Stage::WriteQueue,
    Stage::WriteFlush,
    Stage::Migrate,
    Stage::ParkSpill,
    Stage::ParkLoad,
];

/// Store stages reported as `store.stage.<name>_s`.
pub const STORE_STAGES: [Stage; 3] = [Stage::PageWrite, Stage::PageRead, Stage::Fsync];

#[derive(Debug, Default)]
pub struct Layers {
    // cira-trace
    pub generate_s: f64,
    pub cirp_encode_s: f64,
    pub cirp_decode_s: f64,
    // cira-analysis engine
    pub fill_s: f64,
    pub accumulate_s: f64,
    pub score_s: f64,
    pub pool_tasks: f64,
    pub pool_steals: f64,
    pub pool_injected: f64,
    // cira-predictor
    pub predict_train_s: f64,
    pub branches: f64,
    pub mispredicts: f64,
    // cira-core
    pub observe_s: f64,
    pub low_confidence: f64,
    // cira-serve, client side
    pub connect_s: f64,
    pub stream_s: f64,
    pub park_s: f64,
    pub resume_s: f64,
    pub goodbye_s: f64,
    pub client_slice_s: f64,
    pub client_share: f64,
    // cira-serve, parser and codec
    pub frame_parse_s: f64,
    pub proto_encode_s: f64,
    pub proto_decode_s: f64,
    // cira-serve, server stages (self time, or wait before an instant)
    pub stage_s: HashMap<&'static str, f64>,
    // cira-serve counters
    pub frames_in: f64,
    pub frames_out: f64,
    pub bytes_in: f64,
    pub bytes_out: f64,
    pub batches: f64,
    pub sessions_resumed: f64,
    pub sessions_shed: f64,
    pub protocol_errors: f64,
    // cira-store
    pub cird_encode_s: f64,
    pub cird_decode_s: f64,
    pub put_s: f64,
    pub get_s: f64,
    pub page_hits: f64,
    pub page_misses: f64,
    // whole run
    pub unattributed_share: f64,
    pub tracing_overhead_share: f64,
    pub dropped_events: f64,
}

impl Layers {
    /// Self time of one recorder stage; 0 when it never ran.
    fn stage(&self, name: &str) -> f64 {
        self.stage_s.get(name).copied().unwrap_or(0.0)
    }

    /// Pushes every per-layer metric, in the order `BENCHMARK.json`
    /// lists them.
    pub fn push_all(&self, r: &mut Report) {
        r.push("trace.generate_s", self.generate_s, "s");
        r.push("trace.cirp_encode_s", self.cirp_encode_s, "s");
        r.push("trace.cirp_decode_s", self.cirp_decode_s, "s");
        r.push("engine.fill_s", self.fill_s, "s");
        r.push("engine.accumulate_s", self.accumulate_s, "s");
        r.push("engine.score_s", self.score_s, "s");
        r.push("engine.stage.chunk_s", self.stage("chunk"), "s");
        r.push("engine.pool_tasks", self.pool_tasks, "count");
        r.push("engine.pool_steals", self.pool_steals, "count");
        r.push("engine.pool_injected", self.pool_injected, "count");
        r.push("predictor.predict_train_s", self.predict_train_s, "s");
        r.push("predictor.branches", self.branches, "count");
        r.push("predictor.mispredicts", self.mispredicts, "count");
        r.push("core.observe_s", self.observe_s, "s");
        r.push("core.low_confidence", self.low_confidence, "count");
        r.push("serve.connect_s", self.connect_s, "s");
        r.push("serve.stream_s", self.stream_s, "s");
        r.push("serve.park_s", self.park_s, "s");
        r.push("serve.resume_s", self.resume_s, "s");
        r.push("serve.goodbye_s", self.goodbye_s, "s");
        r.push("serve.client_slice_s", self.client_slice_s, "s");
        r.push("serve.client_share", self.client_share, "share");
        r.push("serve.frame_parse_s", self.frame_parse_s, "s");
        r.push("serve.proto_encode_s", self.proto_encode_s, "s");
        r.push("serve.proto_decode_s", self.proto_decode_s, "s");
        for stage in SERVE_STAGES {
            let name = stage.as_str();
            r.push(&format!("serve.stage.{name}_s"), self.stage(name), "s");
        }
        r.push("serve.frames_in", self.frames_in, "count");
        r.push("serve.frames_out", self.frames_out, "count");
        r.push("serve.bytes_in", self.bytes_in, "bytes");
        r.push("serve.bytes_out", self.bytes_out, "bytes");
        r.push("serve.batches", self.batches, "count");
        r.push("serve.sessions_resumed", self.sessions_resumed, "count");
        r.push("serve.sessions_shed", self.sessions_shed, "count");
        r.push("serve.protocol_errors", self.protocol_errors, "count");
        r.push("store.cird_encode_s", self.cird_encode_s, "s");
        r.push("store.cird_decode_s", self.cird_decode_s, "s");
        r.push("store.put_s", self.put_s, "s");
        r.push("store.get_s", self.get_s, "s");
        for stage in STORE_STAGES {
            let name = stage.as_str();
            r.push(&format!("store.stage.{name}_s"), self.stage(name), "s");
        }
        r.push("store.page_hits", self.page_hits, "count");
        r.push("store.page_misses", self.page_misses, "count");
        let lookups = self.page_hits + self.page_misses;
        let ratio = if lookups > 0.0 {
            self.page_hits / lookups
        } else {
            0.0
        };
        r.push("store.page_hit_ratio", ratio, "share");
        r.push("unattributed_share", self.unattributed_share, "share");
        r.push(
            "tracing_overhead_share",
            self.tracing_overhead_share,
            "share",
        );
        r.push("trace.dropped_events", self.dropped_events, "count");
    }
}

/// Times the `CIRP` codec (`PackedTrace::to_bytes`/`from_bytes`) on one
/// trace; the round trip must give the trace back.
pub fn time_cirp(m: &mut Layers, trace: &PackedTrace) -> Ops {
    let t0 = Instant::now();
    let bytes = std::hint::black_box(trace.to_bytes());
    m.cirp_encode_s += t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let back = PackedTrace::from_bytes(&bytes);
    m.cirp_decode_s += t0.elapsed().as_secs_f64();
    let mut ops = Ops::default();
    ops.record(back.as_ref() == Ok(trace));
    ops
}

/// Self time per stage: a span's duration less the part of it covered
/// by spans nested inside it on the same thread. Instant stages (the
/// recorder marks parse, inbox, checkout, complete, write-queue and
/// migrate as points) are charged the wait since the previous event of
/// the same connection — the time the work waited to reach them.
pub fn stage_self_times(events: &[SpanEvent]) -> HashMap<&'static str, f64> {
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    let mut by_tid: HashMap<u16, Vec<&SpanEvent>> = HashMap::new();
    for ev in events.iter().filter(|e| e.dur_ns > 0) {
        by_tid.entry(ev.tid).or_default().push(ev);
    }
    for spans in by_tid.values_mut() {
        // Parents first: earlier start, longer span on ties. The stack
        // holds the open spans enclosing the current one.
        spans.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
        let mut stack: Vec<(u64, Stage)> = Vec::new();
        for ev in spans.iter() {
            while stack
                .last()
                .is_some_and(|&(top_end, _)| top_end <= ev.start_ns)
            {
                stack.pop();
            }
            let end = ev.start_ns + ev.dur_ns;
            *out.entry(ev.stage.as_str()).or_default() += ev.dur_ns as f64 * 1e-9;
            if let Some(&(top_end, parent)) = stack.last() {
                *out.entry(parent.as_str()).or_default() -=
                    (end.min(top_end) - ev.start_ns) as f64 * 1e-9;
            }
            stack.push((end, ev.stage));
        }
    }
    // Instants: wait since the connection's previous event ended.
    let mut by_conn: HashMap<u64, Vec<&SpanEvent>> = HashMap::new();
    for ev in events.iter().filter(|e| e.trace_id != 0) {
        by_conn.entry(ev.trace_id).or_default().push(ev);
    }
    for evs in by_conn.values_mut() {
        evs.sort_by_key(|e| (e.start_ns, e.span_id));
        let mut last_end: Option<u64> = None;
        for ev in evs.iter() {
            if ev.dur_ns == 0 {
                if let Some(le) = last_end {
                    *out.entry(ev.stage.as_str()).or_default() +=
                        ev.start_ns.saturating_sub(le) as f64 * 1e-9;
                }
            }
            let end = ev.start_ns + ev.dur_ns;
            last_end = Some(last_end.map_or(end, |le| le.max(end)));
        }
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`, ns.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start: u64, dur: u64, stage: Stage, tid: u16, trace_id: u64) -> SpanEvent {
        SpanEvent {
            start_ns: start,
            dur_ns: dur,
            trace_id,
            token: 0,
            aux: 0,
            span_id: start as u32,
            stage,
            shard: 0,
            tid,
        }
    }

    #[test]
    fn self_time_subtracts_nested_spans() {
        let events = [
            ev(0, 100, Stage::Score, 1, 7),
            ev(10, 30, Stage::Chunk, 1, 7),
            ev(50, 20, Stage::Chunk, 1, 7),
            // Same window on another thread is not nested.
            ev(20, 10, Stage::Fsync, 2, 0),
        ];
        let s = stage_self_times(&events);
        assert!((s["score"] - 50e-9).abs() < 1e-15);
        assert!((s["chunk"] - 50e-9).abs() < 1e-15);
        assert!((s["fsync"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn instants_are_charged_their_wait() {
        let events = [
            ev(0, 0, Stage::Parse, 0, 9),
            ev(40, 0, Stage::Checkout, 0, 9),
            ev(50, 20, Stage::Score, 1, 9),
            ev(100, 0, Stage::Inbox, 0, 9),
        ];
        let s = stage_self_times(&events);
        assert!((s["checkout"] - 40e-9).abs() < 1e-15);
        assert!((s["inbox"] - 30e-9).abs() < 1e-15);
        assert!(!s.contains_key("parse"));
    }

    #[test]
    fn union_coverage() {
        let mut iv = vec![(0, 10), (5, 20), (30, 40), (35, 36)];
        assert_eq!(covered_ns(&mut iv, 0, 100), 30);
        assert_eq!(covered_ns(&mut iv, 8, 32), 14);
    }
}
