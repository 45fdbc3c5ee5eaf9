//! In-memory spans around the calls this benchmark makes into each crate.
//!
//! A span is named `<crate>.<function>`, carries the id of the span that
//! was open when it started, and a group id shared by every span of one
//! campaign (or one fabric round). Spans stay in memory and are
//! written out once, when the run ends. A disabled tracer runs the wrapped
//! code without taking timestamps, which is how the untraced run and the
//! untraced half of the trace-overhead A/B measure.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use xpipes_sim::Json;

struct Span {
    id: u64,
    parent: Option<u64>,
    group: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    /// Whether spans are recorded right now (the trace-overhead A/B
    /// switches this off for its untraced half).
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
    next_id: u64,
    next_group: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            recording: enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 0,
            next_group: 0,
        }
    }

    /// A tracer for another thread: same clock and recording state, its
    /// own spans until [`join`](Self::join) folds them back in.
    pub fn fork(&self) -> Tracer {
        let mut lane = Tracer::new(self.enabled);
        lane.origin = self.origin;
        lane.recording = self.recording;
        lane
    }

    /// Folds a forked tracer's spans in; its top-level spans become
    /// children of the span open here.
    pub fn join(&mut self, lane: Tracer) {
        let offset = self.next_id;
        let parent = self.open.last().copied();
        for mut s in lane.spans {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset).or(parent);
            self.spans.push(s);
        }
        self.next_id += lane.next_id;
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses or resumes recording within a traced run.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = self.enabled && on;
    }

    /// A fresh group id (one per campaign or repetition).
    pub fn group(&mut self) -> u64 {
        self.next_group += 1;
        self.next_group
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        group: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.recording {
            return f(self);
        }
        self.next_id += 1;
        let id = self.next_id;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            group,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Writes every span as one NDJSON line, then one summary line per
    /// span name (count, total and self time: duration minus the time its
    /// child spans cover), then the run's per-layer metrics.
    pub fn write(&self, path: &Path, metrics: &BTreeMap<&'static str, f64>) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let mut line = Json::object()
                .field("span", Json::UInt(s.id))
                .field("name", Json::str(s.name))
                .field("group", Json::UInt(s.group));
            if let Some(p) = s.parent {
                line = line.field("parent", Json::UInt(p));
            }
            let line = line
                .field("start_ns", Json::UInt(s.start_ns))
                .field("end_ns", Json::UInt(s.end_ns))
                .build();
            writeln!(out, "{}", line.render_compact())?;
            let dur = s.end_ns - s.start_ns;
            let entry = by_name.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += dur;
            entry.2 += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        for (name, (count, total, self_ns)) in by_name {
            let line = Json::object()
                .field("summary", Json::str(name))
                .field("count", Json::UInt(count))
                .field("total_ns", Json::UInt(total))
                .field("self_ns", Json::UInt(self_ns))
                .build();
            writeln!(out, "{}", line.render_compact())?;
        }
        let mut m = Json::object();
        for (name, value) in metrics {
            m = m.field(name, Json::Fixed(*value, 6));
        }
        writeln!(
            out,
            "{}",
            Json::object()
                .field("metrics", m.build())
                .build()
                .render_compact()
        )?;
        out.flush()
    }
}
