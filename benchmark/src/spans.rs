//! In-memory span recorder for the traced run.
//!
//! A span is `{id, parent, name "<layer>.<call>", start_ns, end_ns}` around
//! one call from the benchmark into a layer of the program; the trace file
//! adds the workload and the rep. Spans
//! are kept in memory and written once, at exit, as a Chrome trace-event
//! file. While no recording is active (every end-to-end run) [`span`] is
//! a thread-local flag test and a direct call.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The `<layer>` of `<layer>.<call>`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording. Storage is reserved up front so that recording a
/// span does not allocate inside a timed region.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(16),
        })
    });
}

/// Stop recording and hand back the spans, in start order.
pub fn finish() -> Vec<Span> {
    REC.with(|r| r.borrow_mut().take())
        .map(|rec| rec.spans)
        .unwrap_or_default()
}

/// Run `f` as one span named `name`; a plain call when not recording.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let id = rec.spans.len() as u32;
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            id,
            parent: rec.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        rec.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id as usize].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent
/// and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // Span ids are positions in the recording.
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total duration of the spans called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// Self time summed per layer, largest first.
pub fn self_ns_by_layer(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut by_layer: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(s.layer()).or_default() += own;
    }
    let mut v: Vec<_> = by_layer.into_iter().collect();
    v.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    v
}

/// The spans as a Chrome trace-event document (`chrome://tracing`,
/// Perfetto): one complete (`"ph":"X"`) event per span, microseconds.
pub fn chrome_trace(spans: &[Span], workload: &str, rep: usize) -> String {
    let own = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 160 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, (s, own)) in spans.iter().zip(own).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"workload\":\"{}\",\"rep\":{}}}}}",
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            parent,
            s.start_ns,
            s.end_ns,
            own,
            workload,
            rep
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t.x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_subtract_only_from_their_parent() {
        // root [0,100] > a [10,60] > b [20,30]; root also > c [70,90].
        let spans = [
            sp(0, None, 0, 100),
            sp(1, Some(0), 10, 60),
            sp(2, Some(1), 20, 30),
            sp(3, Some(0), 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Children [10,50] and [30,70] overlap on [30,50]; a third sticks
        // out of the parent on both sides of its end.
        let spans = [
            sp(0, None, 0, 100),
            sp(1, Some(0), 10, 50),
            sp(2, Some(0), 30, 70),
            sp(3, Some(0), 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn a_child_inside_another_child_adds_nothing() {
        let spans = [
            sp(0, None, 0, 100),
            sp(1, Some(0), 10, 80),
            sp(2, Some(0), 20, 30),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_links_parents_and_is_inert_when_off() {
        assert_eq!(span("t.off", || 7), 7);
        assert!(finish().is_empty());
        start();
        span("t.outer", || {
            span("t.inner", || ());
            span("t.inner", || ());
        });
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let own = self_times(&spans);
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert!(chrome_trace(&spans, "w", 3).contains("\"name\":\"t.inner\""));
    }
}
