//! Span recording around the benchmark's calls into each layer, the
//! spans' JSONL form, and the two trace tools: per-layer self time and
//! a compare of two trace files.
//!
//! Spans are opened and closed only by the benchmark, on its own
//! thread, around calls into the layers' public functions; nothing
//! inside the program is instrumented. Sibling spans therefore never
//! overlap, and a span's self time is its duration minus the time its
//! children cover.

use serde::{map_get, Number, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub layer: String,
    /// Seconds since the tracer started.
    pub start_s: f64,
    pub end_s: f64,
    /// Work done, as the same seed repeats it exactly (counts, sizes,
    /// rates computed from outputs). The compare tool diffs these.
    pub counters: Vec<(String, f64)>,
    /// Wall-clock figures that vary run to run: times the program
    /// reports about itself (`tick_loop_s`) and process CPU time.
    pub timers: Vec<(String, f64)>,
    /// Per-job tick-loop seconds, for spans that ran simulations.
    pub job_s: Vec<f64>,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end_s - self.start_s
    }

    pub fn counter(&self, key: &str) -> f64 {
        self.counters.iter().find(|(k, _)| k == key).map_or(0.0, |(_, v)| *v)
    }

    pub fn timer(&self, key: &str) -> f64 {
        self.timers.iter().find(|(k, _)| k == key).map_or(0.0, |(_, v)| *v)
    }
}

/// In-memory span recorder. A disabled tracer runs the wrapped calls
/// and records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), last_closed: None }
    }

    /// Run `f` inside a span named `name` of layer `layer`; the span's
    /// parent is the innermost span still open.
    pub fn span<R>(&mut self, layer: &str, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            layer: layer.to_string(),
            start_s: self.epoch.elapsed().as_secs_f64(),
            ..Span::default()
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.epoch.elapsed().as_secs_f64();
        self.last_closed = Some(id);
        out
    }

    fn last(&mut self) -> Option<&mut Span> {
        if !self.on {
            return None;
        }
        self.last_closed.map(|id| &mut self.spans[id])
    }

    /// Attach a counter to the span that closed last.
    pub fn count(&mut self, key: &str, value: f64) {
        if let Some(s) = self.last() {
            s.counters.push((key.to_string(), value));
        }
    }

    /// Attach a wall-clock figure to the span that closed last.
    pub fn time(&mut self, key: &str, secs: f64) {
        if let Some(s) = self.last() {
            s.timers.push((key.to_string(), secs));
        }
    }

    /// Attach per-job tick-loop seconds to the span that closed last.
    pub fn jobs(&mut self, secs: impl IntoIterator<Item = f64>) {
        if let Some(s) = self.last() {
            s.job_s.extend(secs);
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

fn float(v: f64) -> Value {
    Value::Num(Number::F(v))
}

fn object(kv: &[(String, f64)]) -> Value {
    Value::Map(kv.iter().map(|(k, v)| (k.clone(), float(*v))).collect())
}

/// One JSON object per span, in the order the spans were opened.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let span = Value::Map(vec![
            ("id".into(), Value::Num(Number::U(s.id as u64))),
            ("parent".into(), s.parent.map_or(Value::Null, |p| Value::Num(Number::U(p as u64)))),
            ("name".into(), Value::Str(s.name.clone())),
            ("layer".into(), Value::Str(s.layer.clone())),
            ("start_s".into(), float(s.start_s)),
            ("end_s".into(), float(s.end_s)),
            ("counters".into(), object(&s.counters)),
            ("timers".into(), object(&s.timers)),
            ("job_s".into(), Value::Seq(s.job_s.iter().copied().map(float).collect())),
        ]);
        out.push_str(&serde_json::to_string(&span).expect("a span serializes"));
        out.push('\n');
    }
    out
}

fn as_f64(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Num(n) => Some(n.as_f64()),
        Value::Null => Some(f64::NAN),
        _ => None,
    }
}

fn as_pairs(v: Option<&Value>) -> Result<Vec<(String, f64)>, String> {
    let map = v.and_then(Value::as_map).ok_or("expected an object of numbers")?;
    map.iter()
        .map(|(k, v)| Ok((k.clone(), as_f64(Some(v)).ok_or(format!("`{k}` is not a number"))?)))
        .collect()
}

/// Parse a JSONL trace written by [`to_jsonl`].
pub fn parse_jsonl(text: &str) -> Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    for (lineno, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = |what: &str| format!("line {}: {what}", lineno + 1);
        let value = serde_json::parse_value(line).map_err(|e| bad(&e.to_string()))?;
        let m = value.as_map().ok_or_else(|| bad("not an object"))?;
        let get = |k: &str| map_get(m, k);
        let index = |k: &str| match get(k) {
            Some(Value::Num(n)) => n.as_u64().and_then(|x| usize::try_from(x).ok()),
            _ => None,
        };
        let text = |k: &str| get(k).and_then(Value::as_str).map(str::to_string);
        let job_s = match get("job_s") {
            Some(Value::Seq(xs)) => xs
                .iter()
                .map(|x| as_f64(Some(x)).ok_or_else(|| bad("job_s holds a non-number")))
                .collect::<Result<Vec<f64>, String>>()?,
            _ => return Err(bad("missing job_s")),
        };
        let span = Span {
            id: index("id").ok_or_else(|| bad("missing id"))?,
            parent: match get("parent") {
                Some(Value::Null) => None,
                _ => Some(index("parent").ok_or_else(|| bad("bad parent"))?),
            },
            name: text("name").ok_or_else(|| bad("missing name"))?,
            layer: text("layer").ok_or_else(|| bad("missing layer"))?,
            start_s: as_f64(get("start_s")).ok_or_else(|| bad("missing start_s"))?,
            end_s: as_f64(get("end_s")).ok_or_else(|| bad("missing end_s"))?,
            counters: as_pairs(get("counters")).map_err(|e| bad(&e))?,
            timers: as_pairs(get("timers")).map_err(|e| bad(&e))?,
            job_s,
        };
        if span.id != spans.len() {
            return Err(bad("span ids must run 0, 1, 2, … in file order"));
        }
        if span.parent.is_some_and(|p| p >= span.id) {
            return Err(bad("a parent must precede its child"));
        }
        spans.push(span);
    }
    Ok(spans)
}

/// Self time of every span: its duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_s, s.end_s));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, s.start_s);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_s));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.dur() - covered).max(0.0)
        })
        .collect()
}

/// The root span each span descends from.
pub fn roots(spans: &[Span]) -> Vec<usize> {
    let mut root = vec![0; spans.len()];
    for s in spans {
        root[s.id] = s.parent.map_or(s.id, |p| root[p]);
    }
    root
}

/// Per-layer self time, as the median over the root spans of the same
/// name (each traced night is one `bench.night` root, the set-up one
/// `bench.setup` root): `(root name, layer) → (median self s, roots)`.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<(String, String), (f64, usize)> {
    let own = self_times(spans);
    let root = roots(spans);
    // (root name, layer) → root id → self seconds.
    let mut per_root: BTreeMap<(String, String), BTreeMap<usize, f64>> = BTreeMap::new();
    for s in spans {
        let r = &spans[root[s.id]];
        *per_root.entry((r.name.clone(), s.layer.clone())).or_default().entry(r.id).or_default() +=
            own[s.id];
    }
    let mut n_roots: BTreeMap<&str, usize> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        *n_roots.entry(&s.name).or_default() += 1;
    }
    per_root
        .into_iter()
        .map(|(key, by_root)| {
            // Roots where the layer never ran count as zero.
            let n = n_roots[key.0.as_str()];
            let mut v: Vec<f64> = by_root.into_values().collect();
            v.resize(n, 0.0);
            (key, (crate::stats::median(&v), n))
        })
        .collect()
}

/// `selftime <trace.jsonl>`: the per-layer self-time table.
pub fn selftime_report(spans: &[Span]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<14} {:<22} {:>12} {:>6}", "root", "layer", "self_s", "roots");
    for ((root, layer), (secs, n)) in layer_self_times(spans) {
        let _ = writeln!(out, "{root:<14} {layer:<22} {secs:>12.6} {n:>6}");
    }
    out
}

/// `compare <a.jsonl> <b.jsonl>`: per-layer self-time deltas (b − a),
/// then the first span whose name or counters differ.
pub fn compare_report(a: &[Span], b: &[Span]) -> String {
    let mut out = String::new();
    let (ta, tb) = (layer_self_times(a), layer_self_times(b));
    let mut keys: Vec<&(String, String)> = ta.keys().chain(tb.keys()).collect();
    keys.sort();
    keys.dedup();
    let _ = writeln!(
        out,
        "{:<14} {:<22} {:>12} {:>12} {:>12} {:>9}",
        "root", "layer", "a_self_s", "b_self_s", "delta_s", "delta_%"
    );
    for key in keys {
        let sa = ta.get(key).map_or(0.0, |v| v.0);
        let sb = tb.get(key).map_or(0.0, |v| v.0);
        let pct = if sa > 0.0 { format!("{:+.1}", (sb - sa) / sa * 100.0) } else { "n/a".into() };
        let _ = writeln!(
            out,
            "{:<14} {:<22} {sa:>12.6} {sb:>12.6} {:>+12.6} {pct:>9}",
            key.0,
            key.1,
            sb - sa
        );
    }
    let same = |x: &Span, y: &Span| {
        x.name == y.name
            && x.counters.len() == y.counters.len()
            && x.counters
                .iter()
                .zip(&y.counters)
                .all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
    };
    match a.iter().zip(b).find(|(x, y)| !same(x, y)) {
        Some((x, y)) => {
            let _ = writeln!(out, "\nfirst divergent span: #{}", x.id);
            let _ = writeln!(out, "  a: {} {:?}", x.name, x.counters);
            let _ = writeln!(out, "  b: {} {:?}", y.name, y.counters);
        }
        None if a.len() != b.len() => {
            let _ = writeln!(
                out,
                "\nspans agree on the first {}; a has {}, b has {}",
                a.len().min(b.len()),
                a.len(),
                b.len()
            );
        }
        None => {
            let _ = writeln!(out, "\nall {} spans have the same names and counters", a.len());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced() -> Vec<Span> {
        let mut t = Tracer::new(true);
        t.span("bench", "bench.night", |t| {
            t.span("core.runner", "core.runner.run_design", |_| ());
            t.count("jobs", 3.0);
            t.jobs([0.5, 0.25]);
            t.span("analytics", "analytics.ensemble_band", |_| ());
        });
        t.time("cpu_s", 1.5);
        t.spans().to_vec()
    }

    #[test]
    fn jsonl_round_trips() {
        let spans = traced();
        assert_eq!(parse_jsonl(&to_jsonl(&spans)).unwrap(), spans);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].timer("cpu_s"), 1.5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mk = |id, parent, start_s, end_s| Span {
            id,
            parent,
            start_s,
            end_s,
            name: "x".into(),
            layer: "l".into(),
            ..Span::default()
        };
        let spans =
            vec![mk(0, None, 0.0, 10.0), mk(1, Some(0), 1.0, 4.0), mk(2, Some(0), 5.0, 6.0)];
        let own = self_times(&spans);
        assert!((own[0] - 6.0).abs() < 1e-12);
        assert!((own[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn compare_names_first_counter_divergence() {
        let a = traced();
        let mut b = a.clone();
        b[1].counters[0].1 = 4.0;
        let report = compare_report(&a, &b);
        assert!(report.contains("first divergent span: #1"), "{report}");
        assert!(compare_report(&a, &a).contains("same names and counters"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span("l", "n", |_| 7);
        t.count("k", 1.0);
        assert_eq!(x, 7);
        assert!(t.spans().is_empty());
    }
}
