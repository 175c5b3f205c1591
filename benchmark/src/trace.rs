//! Span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer, into a vector allocated before the timed region — the
//! record path never allocates. They are written when the run ends, as
//! line-delimited JSON in the `{thread,id,name,start_ns,end_ns,parent,
//! op_id}` shape (`virt_start_ps`/`virt_end_ps` on simulator spans).
//! A layer's self time is its span minus the part its children cover.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write as _;
use std::time::Instant;

use crate::json::{self, Value};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<u32>,
    pub op_id: u64,
    /// Virtual picoseconds at start/end, on simulator threads.
    pub virt_ps: Option<(u64, u64)>,
}

/// One thread's recorder. A full recorder drops further spans and
/// counts them instead of growing.
pub struct Tracer {
    thread: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(thread: impl Into<String>, epoch: Instant, capacity: usize) -> Self {
        Self {
            thread: thread.into(),
            epoch,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. `None` when full.
    pub fn begin(&mut self, name: &'static str, op_id: u64, virt_ps: Option<u64>) -> Option<u32> {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
            virt_ps: virt_ps.map(|v| (v, v)),
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: Option<u32>, virt_ps: Option<u64>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost-first");
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        if let (Some(v), Some(end)) = (s.virt_ps.as_mut(), virt_ps) {
            v.1 = end;
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op_id, None);
        let r = f();
        self.end(id, None);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn thread(&self) -> &str {
        &self.thread
    }
}

/// Wrap a call in a span when a tracer is present; the untraced run
/// passes `None` and pays one predictable branch.
#[inline]
pub fn traced<R>(
    t: Option<&mut Tracer>,
    name: &'static str,
    op_id: u64,
    f: impl FnOnce() -> R,
) -> R {
    match t {
        Some(t) => t.span(name, op_id, f),
        None => f(),
    }
}

/// Self time per span name over one thread: span duration minus the
/// duration of its direct children. Returns `(count, total_self_ns)`.
pub fn self_times(t: &Tracer) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; t.spans.len()];
    for s in &t.spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, &c) in t.spans.iter().zip(&child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += (s.end_ns - s.start_ns).saturating_sub(c);
    }
    out
}

/// Spans written per thread. A traced second of 64 B round trips
/// records 1.3 M of them per thread, which as text is 180 MB; every
/// span counts for the self times and the overhead, the first ones are
/// enough to read.
pub const MAX_WRITTEN_PER_THREAD: usize = 50_000;

/// Write every thread's spans as line-delimited JSON, at most
/// [`MAX_WRITTEN_PER_THREAD`] each (a prefix, so parents precede their
/// children and the file stays a forest). Returns the spans written.
pub fn write_jsonl(path: &std::path::Path, tracers: &[Tracer]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0;
    for t in tracers {
        for (id, s) in t.spans.iter().take(MAX_WRITTEN_PER_THREAD).enumerate() {
            let mut line = Value::obj()
                .with("thread", t.thread.as_str())
                .with("id", id)
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with(
                    "parent",
                    s.parent.map_or(Value::Null, |p| (p as u64).into()),
                )
                .with("op_id", s.op_id);
            if let Some((a, b)) = s.virt_ps {
                line = line.with("virt_start_ps", a).with("virt_end_ps", b);
            }
            writeln!(w, "{line}")?;
            written += 1;
        }
    }
    w.flush()?;
    Ok(written)
}

/// Check a span file: ids unique per thread, every parent exists on the
/// same thread and encloses its child, children carry their parent's
/// `op_id`, and every root `bench.op` has an `op_id` of its own.
/// Returns the number of spans checked.
pub fn check_jsonl(text: &str) -> Result<usize, String> {
    struct Rec {
        start: u64,
        end: u64,
        parent: Option<u64>,
        op_id: u64,
        name: String,
    }
    let mut threads: HashMap<String, HashMap<u64, Rec>> = HashMap::new();
    let mut n = 0;
    for (lineno, line) in text.lines().enumerate() {
        let at = |msg: &str| format!("line {}: {msg}", lineno + 1);
        let v = json::parse(line).map_err(|e| at(&e))?;
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| at(&format!("missing {k}")))
        };
        let thread = v
            .get("thread")
            .and_then(Value::as_str)
            .ok_or_else(|| at("missing thread"))?;
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| at("missing name"))?;
        let rec = Rec {
            start: num("start_ns")?,
            end: num("end_ns")?,
            parent: match v.get("parent") {
                Some(Value::Null) => None,
                Some(p) => Some(p.as_u64().ok_or_else(|| at("bad parent"))?),
                None => return Err(at("missing parent")),
            },
            op_id: num("op_id")?,
            name: name.to_string(),
        };
        if rec.end < rec.start {
            return Err(at("span ends before it starts"));
        }
        if let (Some(a), Some(b)) = (v.get("virt_start_ps"), v.get("virt_end_ps")) {
            if a.as_u64() > b.as_u64() {
                return Err(at("virtual time runs backwards"));
            }
        }
        if threads
            .entry(thread.to_string())
            .or_default()
            .insert(num("id")?, rec)
            .is_some()
        {
            return Err(at("duplicate id on this thread"));
        }
        n += 1;
    }
    for (thread, spans) in &threads {
        let mut root_ops = HashSet::new();
        for (id, s) in spans {
            match s.parent {
                Some(p) => {
                    let parent = spans
                        .get(&p)
                        .ok_or_else(|| format!("{thread}#{id}: parent {p} not on this thread"))?;
                    if s.start < parent.start || s.end > parent.end {
                        return Err(format!("{thread}#{id}: not inside its parent {p}"));
                    }
                    if s.op_id != parent.op_id {
                        return Err(format!("{thread}#{id}: op_id differs from its parent's"));
                    }
                }
                None if s.name == "bench.op" && !root_ops.insert(s.op_id) => {
                    return Err(format!("{thread}: op_id {} names two ops", s.op_id));
                }
                None => {}
            }
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tracer {
        let mut t = Tracer::new("rank0", Instant::now(), 16);
        for op in 0..3 {
            let outer = t.begin("bench.op", op, None);
            t.span("rt.comm.send", op, || std::hint::black_box(1 + 1));
            t.span("rt.comm.recv", op, || std::hint::black_box(2 + 2));
            t.end(outer, None);
        }
        t
    }

    #[test]
    fn nesting_and_self_time() {
        let t = sample();
        assert_eq!(t.spans().len(), 9);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[3].parent, None);
        let st = self_times(&t);
        assert_eq!(st["bench.op"].0, 3);
        let total: u64 = t
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(st.values().map(|v| v.1).sum::<u64>(), total);
    }

    #[test]
    fn a_full_recorder_drops_and_counts() {
        let mut t = Tracer::new("t", Instant::now(), 2);
        for i in 0..5 {
            t.span("x", i, || ());
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped, 3);
    }

    #[test]
    fn written_file_is_well_formed() {
        let dir = std::env::temp_dir().join(format!("bench-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        write_jsonl(&path, &[sample()]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(check_jsonl(&text), Ok(9));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checker_rejects_broken_trees() {
        let ok = r#"{"thread":"a","id":0,"name":"bench.op","start_ns":0,"end_ns":10,"parent":null,"op_id":1}"#;
        let escapes =
            r#"{"thread":"a","id":1,"name":"x","start_ns":5,"end_ns":11,"parent":0,"op_id":1}"#;
        let orphan =
            r#"{"thread":"a","id":1,"name":"x","start_ns":5,"end_ns":6,"parent":7,"op_id":1}"#;
        let dup_op = r#"{"thread":"a","id":1,"name":"bench.op","start_ns":11,"end_ns":12,"parent":null,"op_id":1}"#;
        assert_eq!(check_jsonl(ok), Ok(1));
        assert!(check_jsonl(&format!("{ok}\n{ok}")).is_err());
        assert!(check_jsonl(&format!("{ok}\n{escapes}")).is_err());
        assert!(check_jsonl(&format!("{ok}\n{orphan}")).is_err());
        assert!(check_jsonl(&format!("{ok}\n{dup_op}")).is_err());
    }
}
