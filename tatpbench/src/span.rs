//! In-memory spans recorded around calls into each layer, and the
//! self-time computation over them.

use std::io::Write;

/// The layer boundaries the client records, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// One TATP operation, from drawing it to its final outcome.
    Op,
    /// `TatpMix::next_op` plus `flow_of` / `request_of`.
    Build,
    /// The engine's `submit` call.
    Submit,
    /// Waiting on the reply receiver.
    Reply,
}

impl Stage {
    /// Every stage, in declaration order.
    pub const ALL: [Stage; 4] = [Stage::Op, Stage::Build, Stage::Submit, Stage::Reply];

    /// The stage's name in span output and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Op => "op",
            Stage::Build => "build",
            Stage::Submit => "submit",
            Stage::Reply => "reply",
        }
    }
}

/// One timed interval. Times are nanoseconds from a shared origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the interval covers.
    pub stage: Stage,
    /// Start, ns.
    pub start: u64,
    /// End, ns (`>= start`).
    pub end: u64,
    /// The operation every span of one request shares.
    pub request: u64,
    /// Index of the parent span in the same recorder, if any.
    pub parent: Option<u32>,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// A span list, preallocated by its owner and appended without locks.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder with room for `n` spans.
    pub fn with_capacity(n: usize) -> Self {
        Recorder {
            spans: Vec::with_capacity(n),
        }
    }

    /// Appends a span and returns its index (for use as a parent).
    pub fn push(
        &mut self,
        stage: Stage,
        start: u64,
        end: u64,
        request: u64,
        parent: Option<u32>,
    ) -> u32 {
        debug_assert!(end >= start);
        self.spans.push(Span {
            stage,
            start,
            end,
            request,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    /// Moves `other`'s spans to the end of this list, keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Writes the spans as tab-separated lines:
    /// `index stage start_ns end_ns request parent` (`-` for no parent).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "index\tstage\tstart_ns\tend_ns\trequest\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}",
                s.stage.name(),
                s.start,
                s.end,
                s.request
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap one another; overlapped
/// time is subtracted once, and a child reaching outside its parent is
/// clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur() - covered(s.start, s.end, kids))
        .collect()
}

/// Length of the union of `intervals` within `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let a = a.max(cursor);
        let b = b.min(hi);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Summed self time per stage, in [`Stage::ALL`] order.
pub fn self_time_by_stage(spans: &[Span]) -> [u64; 4] {
    let mut out = [0u64; 4];
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out[s.stage as usize] += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: Stage, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            stage,
            start,
            end,
            request: 1,
            parent,
        }
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let spans = [
            span(Stage::Op, 0, 100, None),
            span(Stage::Build, 0, 10, Some(0)),
            span(Stage::Submit, 20, 30, Some(0)),
            span(Stage::Reply, 30, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 10, 60]);
        assert_eq!(self_time_by_stage(&spans), [20, 10, 10, 60]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span(Stage::Op, 0, 100, None),
            span(Stage::Reply, 10, 60, Some(0)),
            span(Stage::Reply, 40, 80, Some(0)),
            span(Stage::Reply, 45, 50, Some(0)),
        ];
        // Union of children is [10, 80): 70 ns.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(Stage::Op, 10, 50, None),
            span(Stage::Build, 0, 20, Some(0)),
            span(Stage::Reply, 40, 70, Some(0)),
        ];
        // Covered inside [10, 50): [10, 20) and [40, 50).
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn nested_grandchildren_only_reduce_their_parent() {
        let spans = [
            span(Stage::Op, 0, 100, None),
            span(Stage::Reply, 0, 50, Some(0)),
            span(Stage::Submit, 10, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut a = Recorder::default();
        a.push(Stage::Op, 0, 5, 1, None);
        let mut b = Recorder::default();
        let root = b.push(Stage::Op, 0, 5, 2, None);
        b.push(Stage::Reply, 1, 4, 2, Some(root));
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(self_times(&a.spans), vec![5, 2, 3]);
    }

    #[test]
    fn tsv_lists_every_span_with_its_parent() {
        let mut r = Recorder::with_capacity(2);
        let root = r.push(Stage::Op, 0, 9, 7, None);
        r.push(Stage::Reply, 1, 8, 7, Some(root));
        let mut out = Vec::new();
        r.write_tsv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "index\tstage\tstart_ns\tend_ns\trequest\tparent\n0\top\t0\t9\t7\t-\n1\treply\t1\t8\t7\t0\n"
        );
    }
}
