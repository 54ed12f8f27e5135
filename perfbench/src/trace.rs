//! The benchmark's own span recorder.
//!
//! Spans wrap the public calls the benchmark makes into each layer (named
//! `<crate>.<function>`), carry one key per design point or request, and
//! stay in memory until the run ends. They are then written in the
//! `emod-telemetry` JSONL span schema, so `emod-trace tree` and
//! `emod-trace flame` read them like any program trace.
//!
//! A disabled recorder runs the wrapped closure and nothing else, so the
//! untraced runs that produce end-to-end metrics pay one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Full path: the parent's path, `/`, then this span's name.
    pub path: String,
    pub name: String,
    /// Design-point or request identifier.
    pub key: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    epoch: Instant,
    trace_id: u64,
    next_id: u64,
    spans: Vec<Span>,
    /// Indices into `spans` of the spans currently open, innermost last.
    open: Vec<usize>,
}

impl Trace {
    pub fn new(on: bool, epoch: Instant, trace_id: u64) -> Trace {
        Trace {
            on,
            epoch,
            trace_id,
            next_id: trace_id.wrapping_mul(1 << 20) | 1,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name` (nested under any open span).
    pub fn span<T>(&mut self, name: &str, key: u64, f: impl FnOnce(&mut Trace) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let parent = self.open.last().map(|&i| &self.spans[i]);
        let (parent_id, path) = match parent {
            Some(p) => (Some(p.id), format!("{}/{}", p.path, name)),
            None => (None, name.to_string()),
        };
        let id = self.fresh_id();
        self.spans.push(Span {
            id,
            parent: parent_id,
            path,
            name: name.to_string(),
            key,
            start_us: self.us(Instant::now()),
            end_us: f64::NAN,
        });
        self.open.push(self.spans.len() - 1);
        let out = f(self);
        let idx = self.open.pop().expect("span stack");
        self.spans[idx].end_us = self.us(Instant::now());
        out
    }

    /// Records a span from timestamps taken elsewhere (the load generator's
    /// send and receive instants). Returns its id for parenting children.
    pub fn record(
        &mut self,
        name: &str,
        key: u64,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
    ) -> u64 {
        let id = self.fresh_id();
        if !self.on {
            return id;
        }
        let path = match parent.and_then(|p| self.spans.iter().rev().find(|s| s.id == p)) {
            Some(p) => format!("{}/{}", p.path, name),
            None => name.to_string(),
        };
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(Span {
            id,
            parent,
            path,
            name: name.to_string(),
            key,
            start_us,
            end_us,
        });
        id
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id = self.next_id.wrapping_add(1);
        self.next_id
    }

    /// Self time summed per span name: each span's duration minus the time
    /// its direct children cover, in microseconds.
    pub fn self_us(&self) -> BTreeMap<String, f64> {
        let mut child: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child.entry(p).or_insert(0.0) += s.dur_us();
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.dur_us() - child.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
            *out.entry(s.name.clone()).or_insert(0.0) += own;
        }
        out
    }

    /// Writes every span as one `emod-telemetry` span record per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 200);
        let mut order: Vec<&Span> = self.spans.iter().collect();
        order.sort_by(|a, b| a.end_us.total_cmp(&b.end_us));
        for s in order {
            let _ = write!(
                out,
                "{{\"ts_us\":{},\"kind\":\"span\",\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"trace_id\":\"{:016x}\",\"span_id\":\"{:016x}\"",
                s.end_us.round() as u64,
                s.path,
                s.start_us.round() as u64,
                s.dur_us(),
                self.trace_id,
                s.id
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent_id\":\"{:016x}\"", p);
            }
            let _ = writeln!(out, ",\"key\":{}}}", s.key);
        }
        std::fs::write(path, out)
    }
}
