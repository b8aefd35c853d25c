//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public function, timed from the
//! benchmark's side of the boundary: name, start, end, parent span and
//! the id of the request it belongs to. Spans stay in memory while the
//! workload runs and are written out once, at exit. A disabled tracer
//! records nothing and costs one branch per boundary.

use std::fmt::Write as _;
use std::time::Instant;

/// Sentinel id handed out by a disabled tracer.
pub const NONE: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    pub request: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    requests: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            requests: 0,
            spans: Vec::new(),
        }
    }

    /// A fresh request id for the spans of one request.
    pub fn new_request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    /// Request ids handed out so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id (or [`NONE`] when disabled).
    pub fn begin(&mut self, name: &'static str, parent: usize, request: u64) -> usize {
        if !self.enabled {
            return NONE;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        if id != NONE {
            self.spans[id].end_ns = self.now();
        }
    }

    /// Closes span `id` under a name only known once the call returned
    /// (a checkout is warm or cold).
    pub fn end_as(&mut self, id: usize, name: &'static str) {
        if id != NONE {
            self.spans[id].name = name;
            self.end(id);
        }
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect()
    }

    /// Self time check for every span called `root`: the absolute gap,
    /// in microseconds, between its duration and the summed durations
    /// of its direct children. Returns (mean gap, mean root duration).
    pub fn child_sum_gap_us(&self, root: &str) -> (f64, f64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NONE {
                child_ns[span.parent] += span.ns();
            }
        }
        let (mut gap, mut total, mut n) = (0.0, 0.0, 0usize);
        for (i, span) in self.spans.iter().enumerate() {
            if span.name == root {
                gap += span.ns().abs_diff(child_ns[i]) as f64 / 1e3;
                total += span.ns() as f64 / 1e3;
                n += 1;
            }
        }
        if n == 0 {
            (0.0, 0.0)
        } else {
            (gap / n as f64, total / n as f64)
        }
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        std::fs::write(path, out)
    }
}
