//! In-memory span recording and the order statistics the report uses.
//!
//! A span is one call into a layer, timed from outside the program: name,
//! start, end, parent span and request id. Spans stay in memory while the
//! workload runs and are written out once it ends; a layer's self time is
//! its span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread span recorder. A disabled tracer records nothing, so the
/// untraced run pays one branch per boundary.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// A recorder with the same origin and switch, for another thread.
    pub fn fork(&self) -> Self {
        Tracer::new(self.origin, self.enabled)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span whose children are recorded before it ends.
    pub fn open(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>, end: Instant) {
        if let Some(i) = id {
            let end_ns = self.ns(end);
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Record a finished span in one call.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        let id = self.open(name, req, parent, start);
        self.close(id, end);
        id
    }

    /// Move another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: duration minus the duration of its children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Per span name: (self times, total durations), both in microseconds.
    pub fn by_name(&self) -> BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> {
        let mut out: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.0.push(own as f64 / 1e3);
            e.1.push(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3);
        }
        out
    }

    /// For every span named `root`: its duration and the summed self times
    /// of its children named in `path`, both in microseconds.
    pub fn path_sums(&self, root: &str, path: &[&str]) -> Vec<(f64, f64)> {
        let own = self.self_ns();
        let mut sums = vec![0u64; self.spans.len()];
        for (s, t) in self.spans.iter().zip(&own) {
            if let Some(p) = s.parent.filter(|_| path.contains(&s.name)) {
                sums[p] += t;
            }
        }
        self.spans
            .iter()
            .zip(sums)
            .filter(|(s, _)| s.name == root)
            .map(|(s, sum)| {
                let total = s.end_ns.saturating_sub(s.start_ns);
                (total as f64 / 1e3, sum as f64 / 1e3)
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Milliseconds from `a` to `b` (0 if `b` is earlier).
pub fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}
