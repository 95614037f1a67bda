//! In-memory span recorder.
//!
//! A span is `{name, start, end, parent, job}` plus the process CPU time
//! spent while it was open and any counts recorded at its boundary. Spans
//! stay in memory until [`Tracer::write_jsonl`] writes them out at exit.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    job: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Process user + system CPU time while the span was open, in clock
    /// ticks (`/proc/self/stat`, all threads).
    cpu_ticks: u64,
    counts: Vec<(&'static str, u64)>,
}

/// Records the nested spans of one job.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: usize,
}

impl Tracer {
    pub fn new(job: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span, or a root span of the job when none is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let cpu_start = process_cpu_ticks();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            cpu_ticks: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.cpu_ticks = process_cpu_ticks().saturating_sub(cpu_start);
        out
    }

    /// Adds a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: u64) {
        let id = *self.open.last().expect("count recorded inside a span");
        self.spans[id].counts.push((key, value));
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"cpu_ticks\":{},\"counts\":{{{}}}}}",
                s.name,
                s.job,
                s.start_ns,
                s.end_ns,
                s.cpu_ticks,
                counts.join(",")
            )?;
        }
        out.flush()
    }
}

/// User + system CPU time of the whole process so far, in clock ticks
/// (fields 14 and 15 of `/proc/self/stat`); 0 where procfs is missing.
fn process_cpu_ticks() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name (field 2) may hold spaces; fields after it are
    // space-separated, starting with field 3 (state).
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3).and_then(|f| f.parse::<u64>().ok());
    field(14).unwrap_or(0) + field(15).unwrap_or(0)
}
