//! Wall-clock span tracing of the harness itself.
//!
//! The device-side observability layer ([`loadgen::trace`]) records
//! *simulated* time; this module records *host* time — what the runner
//! pool, the cache layers, and the report renderers actually spent, so
//! the harness can be profiled exactly the way MLPerf LoadGen separates
//! harness logging from benchmark measurement. Recording is hierarchical:
//! a [`Phase::Suite`] span per reproduce artifact, a [`Phase::Cell`] span
//! per benchmark run, and leaf spans for the compile / calibrate / plan /
//! tune / execute / search-probe / report phases inside it.
//!
//! Spans land in per-thread ring buffers (one uncontended mutex per
//! thread, registered once in a process-wide list), so recording never
//! serializes pool workers against each other. Every span carries a
//! *track* — the pool-worker lane set by the runner's `par_map` — so
//! spans from short-lived scoped threads aggregate onto one stable
//! timeline per worker, which is what the Perfetto export renders.
//!
//! Everything is gated behind one relaxed atomic: with recording off
//! (the default) a [`span`] call is a load and a branch, and no label is
//! ever formatted. Recording is host-side only and never feeds back into
//! the simulation, so self-profiled runs score bit-identically to
//! unprofiled ones (`tests/parallel_determinism.rs` locks this down).

use crate::profile::perfetto::Events;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The harness phases a span can cover, from coarse to leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phase {
    /// One reproduce artifact (table, figure, scenario matrix).
    Suite,
    /// One benchmark-matrix cell end to end (accuracy + scenarios).
    Cell,
    /// Backend compilation of a `(chip, backend, model)` triple.
    Compile,
    /// Accuracy-mode calibration (prediction synthesis + scoring).
    Calibrate,
    /// Query-plan lowering of a compiled deployment.
    Plan,
    /// Schedule auto-tuning of a compiled deployment (the search plus
    /// the re-plan of its winner).
    Tune,
    /// Performance execution (single-stream and offline legs).
    Execute,
    /// One scenario search (server QPS / multi-stream width bisection).
    SearchProbe,
    /// Report/table rendering.
    Report,
}

impl Phase {
    /// Stable lowercase name used in exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Suite => "suite",
            Phase::Cell => "cell",
            Phase::Compile => "compile",
            Phase::Calibrate => "calibrate",
            Phase::Plan => "plan",
            Phase::Tune => "tune",
            Phase::Execute => "execute",
            Phase::SearchProbe => "search-probe",
            Phase::Report => "report",
        }
    }
}

/// One recorded host-side span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostSpan {
    /// Which phase of the harness the span covers.
    pub phase: Phase,
    /// Free-form label (cell label, artifact name, triple).
    pub label: String,
    /// Pool-worker lane the span ran on ([`MAIN_TRACK`] for the driving
    /// thread, [`AUX_TRACK`] for helper threads outside the pool).
    pub track: u32,
    /// Start, in ns since the recorder epoch (first enable).
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// Track id of the main (driving) thread.
pub const MAIN_TRACK: u32 = 0;

/// Track id for threads outside the runner pool (accuracy-scoring scope
/// threads, the metrics HTTP server, ...).
pub const AUX_TRACK: u32 = u32::MAX;

/// Per-thread spans kept in a bounded ring: when full, the oldest span is
/// overwritten and the global dropped counter ticks, so a long-lived
/// process can leave recording on without unbounded growth.
const RING_CAPACITY: usize = 1 << 15;

#[derive(Debug, Default)]
struct ThreadBuf {
    /// Ring storage; `next` wraps once `spans` reaches capacity.
    spans: Mutex<(Vec<HostSpan>, usize)>,
}

impl ThreadBuf {
    fn push(&self, span: HostSpan) -> bool {
        let mut guard = self.spans.lock().unwrap();
        let (spans, next) = &mut *guard;
        if spans.len() < RING_CAPACITY {
            spans.push(span);
            false
        } else {
            let slot = *next;
            *next = (slot + 1) % RING_CAPACITY;
            spans[slot] = span;
            true
        }
    }

    fn take(&self) -> Vec<HostSpan> {
        let mut guard = self.spans.lock().unwrap();
        guard.1 = 0;
        std::mem::take(&mut guard.0)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static TLS_BUF: RefCell<Option<Arc<ThreadBuf>>> = const { RefCell::new(None) };
    static TLS_TRACK: Cell<u32> = const { Cell::new(AUX_TRACK) };
}

/// Turns span recording on or off process-wide. The first enable pins the
/// recorder epoch all timestamps are relative to.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is on.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Assigns the calling thread's track (pool-worker lane). The runner's
/// `par_map` tags worker `w` as track `w + 1`; the driving thread is
/// [`MAIN_TRACK`]; untagged threads default to [`AUX_TRACK`].
pub fn set_track(track: u32) {
    TLS_TRACK.with(|t| t.set(track));
}

/// The calling thread's current track.
#[must_use]
pub fn current_track() -> u32 {
    TLS_TRACK.with(Cell::get)
}

fn record(span: HostSpan) {
    let dropped = TLS_BUF.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf = Arc::new(ThreadBuf::default());
            registry().lock().unwrap().push(Arc::clone(&buf));
            buf
        });
        buf.push(span)
    });
    if dropped {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// An RAII span: construction stamps the start, drop stamps the duration
/// and deposits the span into the calling thread's ring buffer. A no-op
/// (and no label formatting) when recording is off.
#[must_use = "a span measures the scope it is bound to"]
pub struct SpanGuard {
    active: Option<(Phase, String, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((phase, label, started)) = self.active.take() else { return };
        let start_ns = started.duration_since(epoch()).as_nanos().min(u128::from(u64::MAX)) as u64;
        let dur_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        record(HostSpan { phase, label, track: current_track(), start_ns, dur_ns });
    }
}

/// Opens a span of `phase`; `label` is only evaluated when recording is
/// on. Bind the guard to a scope (`let _span = obs::span::span(...)`) —
/// dropping it closes the span.
pub fn span<F: FnOnce() -> String>(phase: Phase, label: F) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    SpanGuard { active: Some((phase, label(), Instant::now())) }
}

/// Everything recorded so far: the spans (deterministically ordered by
/// start, track, phase, label) and how many were dropped to ring-buffer
/// bounds.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SelfProfile {
    /// All collected spans, across every thread that recorded any.
    pub spans: Vec<HostSpan>,
    /// Spans overwritten because a thread's ring buffer filled.
    pub dropped: u64,
}

impl SelfProfile {
    /// Spans of one phase.
    pub fn phase_spans(&self, phase: Phase) -> impl Iterator<Item = &HostSpan> {
        self.spans.iter().filter(move |s| s.phase == phase)
    }

    /// Sum of durations in one phase (ns). Nested spans double-count by
    /// design — this is per-phase attributed time, not wall-clock.
    #[must_use]
    pub fn phase_total_ns(&self, phase: Phase) -> u64 {
        self.phase_spans(phase).map(|s| s.dur_ns).sum()
    }

    /// Fraction of `[0, wall_ns]` covered by the union of this track's
    /// spans — the self-profile coverage figure (the acceptance bar is
    /// ≥95% on [`MAIN_TRACK`] over a `reproduce all`).
    #[must_use]
    pub fn track_coverage(&self, track: u32, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            return 0.0;
        }
        let mut intervals: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.track == track)
            .map(|s| (s.start_ns, s.start_ns.saturating_add(s.dur_ns).min(wall_ns)))
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = 0u64;
        for (start, end) in intervals {
            let start = start.max(cursor);
            if end > start {
                covered += end - start;
                cursor = end;
            }
        }
        covered as f64 / wall_ns as f64
    }
}

/// Collects and clears every thread's spans. The result is ordered
/// deterministically; the host *timestamps* inside it are wall-clock and
/// naturally vary run to run.
#[must_use]
pub fn drain() -> SelfProfile {
    let bufs: Vec<Arc<ThreadBuf>> = registry().lock().unwrap().clone();
    let mut spans: Vec<HostSpan> = bufs.iter().flat_map(|b| b.take()).collect();
    spans.sort_by(|a, b| {
        (a.start_ns, a.track, a.phase, &a.label).cmp(&(b.start_ns, b.track, b.phase, &b.label))
    });
    SelfProfile { spans, dropped: DROPPED.swap(0, Ordering::Relaxed) }
}

/// Renders a self-profile as a Perfetto/Chrome trace-event timeline of
/// the *host* run: one process named `harness`, one thread track per pool
/// worker (`main`, `worker-0`, ..., `aux` — worker names match the pool
/// report), one complete slice per span named `phase: label`. Open the
/// output directly in `ui.perfetto.dev`.
#[must_use]
pub fn self_profile_perfetto_json(profile: &SelfProfile) -> String {
    const PID: u32 = 1;
    let mut tracks: Vec<u32> = profile.spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();

    let mut events = Events::new();
    events.meta(PID, 0, "process_name", "harness");
    for &track in &tracks {
        let name = match track {
            MAIN_TRACK => "main".to_owned(),
            AUX_TRACK => "aux".to_owned(),
            // Pool worker `w` records on track `w + 1`; name the track
            // after the worker so it cross-references the pool report.
            w => format!("worker-{}", w - 1),
        };
        events.meta(PID, track, "thread_name", &name);
    }
    // Emission sorted by start keeps `ts` non-decreasing per track.
    for span in &profile.spans {
        events.slice(
            PID,
            span.track,
            &format!("{}: {}", span.phase.name(), span.label),
            span.start_ns,
            span.dur_ns,
        );
    }
    events.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recording tests share process-global state with each other (and
    /// with any other test in the binary), so they serialize on one lock
    /// and drain before/after.
    fn recording_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _guard = recording_lock().lock().unwrap();
        set_enabled(false);
        let _ = drain();
        let mut evaluated = false;
        {
            let _span = span(Phase::Cell, || {
                evaluated = true;
                "never".into()
            });
        }
        assert!(!evaluated, "labels must not be formatted while disabled");
        assert!(drain().spans.is_empty());
    }

    #[test]
    fn spans_record_phase_label_track_and_nesting() {
        let _guard = recording_lock().lock().unwrap();
        set_enabled(true);
        let _ = drain();
        let previous_track = current_track();
        set_track(MAIN_TRACK);
        {
            let _outer = span(Phase::Suite, || "artifact".into());
            let _inner = span(Phase::Compile, || "chip/backend/model".into());
        }
        set_enabled(false);
        set_track(previous_track);
        let profile = drain();
        assert_eq!(profile.spans.len(), 2);
        // Outer span starts first but drops last: both orders visible.
        let suite = profile.phase_spans(Phase::Suite).next().unwrap();
        let compile = profile.phase_spans(Phase::Compile).next().unwrap();
        assert_eq!(suite.label, "artifact");
        assert_eq!(suite.track, MAIN_TRACK);
        assert!(suite.start_ns <= compile.start_ns);
        assert!(
            suite.start_ns + suite.dur_ns >= compile.start_ns + compile.dur_ns,
            "outer span must contain the inner one"
        );
    }

    #[test]
    fn a_tuned_miss_records_a_tune_span_and_no_plan_span() {
        use crate::runner::CompileCache;
        use mobile_backend::backend::BackendId;
        use mobile_backend::tune::TunerConfig;
        use nn_graph::models::ModelId;
        use soc_sim::catalog::ChipId;

        let _guard = recording_lock().lock().unwrap();
        // A triple no other test in this binary compiles or plans.
        let (chip, backend, model) =
            (ChipId::Exynos2100, BackendId::TfliteCpu, ModelId::MobileNetEdgeTpu);
        set_enabled(true);
        let _ = drain();
        CompileCache::new().tuned(chip, backend, model, &TunerConfig::latency()).unwrap();
        set_enabled(false);
        let profile = drain();
        // Other tests in this binary may record concurrently: look only
        // at spans of this triple.
        let triple = format!("{chip}/{backend}/{model:?}");
        let of_triple =
            |phase| profile.phase_spans(phase).filter(|s| s.label.contains(&triple)).count();
        assert_eq!(of_triple(Phase::Tune), 1, "one tune span per tuned miss");
        assert_eq!(of_triple(Phase::Plan), 0, "tuning must not file under plan");
        assert_eq!(Phase::Tune.name(), "tune");
    }

    #[test]
    fn threads_record_into_their_own_buffers() {
        let _guard = recording_lock().lock().unwrap();
        set_enabled(true);
        let _ = drain();
        std::thread::scope(|scope| {
            for w in 0..4u32 {
                scope.spawn(move || {
                    set_track(w + 1);
                    let _span = span(Phase::Cell, || format!("cell-{w}"));
                });
            }
        });
        set_enabled(false);
        let profile = drain();
        assert_eq!(profile.spans.len(), 4);
        let mut tracks: Vec<u32> = profile.spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        assert_eq!(tracks, vec![1, 2, 3, 4]);
    }

    #[test]
    fn perfetto_export_has_one_track_per_worker() {
        let profile = SelfProfile {
            spans: vec![
                HostSpan {
                    phase: Phase::Suite,
                    label: "table1".into(),
                    track: MAIN_TRACK,
                    start_ns: 0,
                    dur_ns: 5_000,
                },
                HostSpan {
                    phase: Phase::Cell,
                    label: "d1100/cls".into(),
                    track: 1,
                    start_ns: 100,
                    dur_ns: 2_000,
                },
                HostSpan {
                    phase: Phase::Cell,
                    label: "sd888/cls".into(),
                    track: 2,
                    start_ns: 150,
                    dur_ns: 2_500,
                },
            ],
            dropped: 0,
        };
        let json = self_profile_perfetto_json(&profile);
        let v: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(v.as_object().is_some());
        assert!(json.contains("\"harness\""));
        assert!(json.contains("\"main\""));
        // Tracks 1 and 2 carry pool workers 0 and 1.
        assert!(json.contains("\"worker-0\""));
        assert!(json.contains("\"worker-1\""));
        assert!(json.contains("cell: d1100/cls"));
        // Deterministic bytes for the same profile.
        assert_eq!(json, self_profile_perfetto_json(&profile));
    }

    #[test]
    fn coverage_unions_overlapping_spans() {
        let span_at = |start_ns: u64, dur_ns: u64| HostSpan {
            phase: Phase::Suite,
            label: String::new(),
            track: MAIN_TRACK,
            start_ns,
            dur_ns,
        };
        let profile = SelfProfile {
            // [0,60) and [40,100): union covers the full window despite
            // the overlap; a disjoint aux-track span must not count.
            spans: vec![
                span_at(0, 60),
                span_at(40, 60),
                HostSpan { track: AUX_TRACK, ..span_at(0, 100) },
            ],
            dropped: 0,
        };
        let cov = profile.track_coverage(MAIN_TRACK, 100);
        assert!((cov - 1.0).abs() < 1e-12, "{cov}");
        assert_eq!(profile.track_coverage(7, 100), 0.0);
        assert_eq!(profile.track_coverage(MAIN_TRACK, 0), 0.0);
        // Half-covered window.
        let half = SelfProfile { spans: vec![span_at(0, 50)], dropped: 0 };
        assert!((half.track_coverage(MAIN_TRACK, 100) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ring_buffer_bounds_memory_and_counts_drops() {
        let buf = ThreadBuf::default();
        let mk = |i: u64| HostSpan {
            phase: Phase::Report,
            label: String::new(),
            track: AUX_TRACK,
            start_ns: i,
            dur_ns: 1,
        };
        for i in 0..RING_CAPACITY as u64 {
            assert!(!buf.push(mk(i)), "no drop until the ring fills");
        }
        assert!(buf.push(mk(RING_CAPACITY as u64)), "overflow overwrites the oldest");
        let spans = buf.take();
        assert_eq!(spans.len(), RING_CAPACITY);
        // Slot 0 now holds the newest span.
        assert_eq!(spans[0].start_ns, RING_CAPACITY as u64);
    }
}
