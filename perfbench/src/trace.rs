//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around the calls
//! it makes into each layer: every `SimClock::step`, every callback of a
//! wrapped application, every `ProcCtx::pf_read` of the benchmark's own
//! apps, every setup call. A span has a kind, a start and an end (ns
//! since the tracer started), the sequence number of the span that was
//! open when it began (its parent) and a per-packet or per-operation id.
//!
//! Nested spans give self time: a span's duration minus the durations of
//! its direct children. Spans are kept in memory (all of them feed the
//! aggregates; the first [`SPAN_KEEP`] are kept verbatim) and written
//! out when the run ends.
//!
//! When no tracer is installed every entry point is a thread-local flag
//! test, so untraced runs pay next to nothing for the wrappers.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

/// Spans kept verbatim for the written trace (aggregates cover all).
pub const SPAN_KEEP: usize = 200_000;

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `SimClock::step` of a `World` or `McPipeline`.
    Step,
    /// One `World::send_frame_at` / `World::inject_frame`.
    Inject,
    /// One `encode_ip` + `frame::build` (or sample-frame build).
    FrameBuild,
    /// One `World::update_route`.
    UpdateRoute,
    /// One `ProcCtx::pf_read` issued by the benchmark's own apps.
    PfRead,
    /// A callback into `BspSenderApp` / `BspReceiverApp`.
    Bsp,
    /// A callback into `VmtpUserClient` / `VmtpUserServer`.
    Vmtp,
    /// A callback into `CaptureApp`.
    Monitor,
    /// A callback into one of the benchmark's own apps (stream
    /// consumer, junk sink, idle listeners).
    BenchApp,
}

/// Every kind, in report order.
pub const KINDS: [Kind; 9] = [
    Kind::Step,
    Kind::Inject,
    Kind::FrameBuild,
    Kind::UpdateRoute,
    Kind::PfRead,
    Kind::Bsp,
    Kind::Vmtp,
    Kind::Monitor,
    Kind::BenchApp,
];

impl Kind {
    /// Name used in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Step => "clock.step",
            Kind::Inject => "world.inject",
            Kind::FrameBuild => "frame.build",
            Kind::UpdateRoute => "world.update_route",
            Kind::PfRead => "port.read",
            Kind::Bsp => "bsp.callback",
            Kind::Vmtp => "vmtp.callback",
            Kind::Monitor => "monitor.callback",
            Kind::BenchApp => "bench_app.callback",
        }
    }

    /// Position in [`KINDS`] (declaration order).
    fn index(self) -> usize {
        self as usize
    }
}

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Entry order (unique within a run).
    pub seq: u32,
    /// What was measured.
    pub kind: Kind,
    /// Start, ns since the tracer was installed.
    pub start_ns: u64,
    /// End, ns since the tracer was installed.
    pub end_ns: u64,
    /// `seq` of the enclosing span, `None` at top level.
    pub parent: Option<u32>,
    /// Per-packet or per-operation id.
    pub id: u64,
}

/// Aggregates for one span kind.
#[derive(Debug, Clone, Default)]
pub struct KindStats {
    /// Every span's duration, ns, in completion order.
    pub durations: Vec<u64>,
    /// Sum of durations minus direct children, ns.
    pub self_ns: u64,
}

impl KindStats {
    /// Spans recorded.
    pub fn calls(&self) -> u64 {
        self.durations.len() as u64
    }

    /// Sum of durations, ns.
    pub fn total_ns(&self) -> u64 {
        self.durations.iter().sum()
    }

    /// Duration quantile, ns (0 when no spans).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let mut d = self.durations.clone();
        d.sort_unstable();
        crate::stats::quantile_sorted(&d, q)
    }

    /// Mean duration, ns (0 when no spans).
    pub fn mean_ns(&self) -> f64 {
        if self.durations.is_empty() {
            0.0
        } else {
            self.total_ns() as f64 / self.durations.len() as f64
        }
    }
}

struct Open {
    seq: u32,
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
    id: u64,
}

/// The in-memory trace of one run.
pub struct Trace {
    epoch: Instant,
    next_seq: u32,
    stack: Vec<Open>,
    /// Spans kept verbatim (the first [`SPAN_KEEP`] to finish).
    pub spans: Vec<Span>,
    /// Spans finished beyond [`SPAN_KEEP`] (aggregated only).
    pub spans_dropped: u64,
    /// Aggregates, indexed like [`KINDS`].
    pub stats: Vec<KindStats>,
}

impl Trace {
    fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            next_seq: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            spans_dropped: 0,
            stats: vec![KindStats::default(); KINDS.len()],
        }
    }

    /// Aggregates of one kind.
    pub fn kind(&self, kind: Kind) -> &KindStats {
        &self.stats[kind.index()]
    }

    /// Writes the kept spans as tab-separated lines
    /// (`seq kind start_ns end_ns parent id`).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "seq\tkind\tstart_ns\tend_ns\tparent\tid")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.seq,
                s.kind.name(),
                s.start_ns,
                s.end_ns,
                parent,
                s.id
            )?;
        }
        if self.spans_dropped > 0 {
            writeln!(out, "# {} later spans aggregated only", self.spans_dropped)?;
        }
        out.flush()
    }
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACE: RefCell<Option<Trace>> = const { RefCell::new(None) };
}

/// Installs an empty trace on this thread; spans record from now on.
pub fn install() {
    TRACE.with(|t| *t.borrow_mut() = Some(Trace::new()));
    ON.with(|on| on.set(true));
}

/// Removes and returns this thread's trace; recording stops.
pub fn take() -> Option<Trace> {
    ON.with(|on| on.set(false));
    TRACE.with(|t| t.borrow_mut().take())
}

/// Whether a trace is recording on this thread.
pub fn enabled() -> bool {
    ON.with(|on| on.get())
}

/// Opens a span; pair with [`exit`]. A no-op when not tracing.
pub fn enter(kind: Kind, id: u64) {
    if !enabled() {
        return;
    }
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("trace installed while enabled");
        let seq = t.next_seq;
        t.next_seq = t.next_seq.wrapping_add(1);
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.stack.push(Open {
            seq,
            kind,
            start_ns,
            child_ns: 0,
            id,
        });
    });
}

/// Closes the innermost open span. A no-op when not tracing.
pub fn exit() {
    if !enabled() {
        return;
    }
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("trace installed while enabled");
        let end_ns = t.epoch.elapsed().as_nanos() as u64;
        let open = t.stack.pop().expect("exit matches an enter");
        let dur = end_ns - open.start_ns;
        let parent = t.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.seq
        });
        let stats = &mut t.stats[open.kind.index()];
        stats.durations.push(dur);
        stats.self_ns += dur - open.child_ns;
        if t.spans.len() < SPAN_KEEP {
            t.spans.push(Span {
                seq: open.seq,
                kind: open.kind,
                start_ns: open.start_ns,
                end_ns,
                parent,
                id: open.id,
            });
        } else {
            t.spans_dropped += 1;
        }
    });
}

/// Host time inside `clock.step` spans so far, s (0 when not tracing).
pub fn step_busy_s() -> f64 {
    TRACE.with(|t| {
        t.borrow()
            .as_ref()
            .map_or(0.0, |t| t.kind(Kind::Step).total_ns() as f64 / 1e9)
    })
}

/// Runs `f` inside a span of `kind`.
pub fn span<R>(kind: Kind, id: u64, f: impl FnOnce() -> R) -> R {
    enter(kind, id);
    let r = f();
    exit();
    r
}
