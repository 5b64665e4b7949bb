//! The three workloads and the passes that run them.
//!
//! A pass runs every point of a workload once, each on a fresh
//! simulator whose modelled caches start empty, on one thread. Each
//! point is a closed loop with one client: the next trace operation
//! starts when the previous one retires.

use crate::replay::{LayerTimes, Replay, Stepper};
use crate::report::Outcome;
use crate::timed::{BackendCounts, BackendTally, TimedBackend};
use ccnvm::config::{DesignKind, SimConfig};
use ccnvm::crash::CrashImage;
use ccnvm::obs::audit::AuditMode;
use ccnvm::obs::flight::FlightConfig;
use ccnvm::obs::metrics::MetricsConfig;
use ccnvm::obs::RecorderConfig;
use ccnvm::recovery::{recover, RecoveryReport};
use ccnvm::secmem::SecureMemory;
use ccnvm::sim::Simulator;
use ccnvm::stats::RunStats;
use ccnvm_mem::file::{FileBackendConfig, FileIoCounters, FileIoStats, FsyncStrategy};
use ccnvm_mem::{DurableBackend, FileBackend, LineStore};
use ccnvm_trace::{profiles, TraceGenerator, TraceOp, WorkloadProfile};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Figure 5 matrix: 8 SPEC-like profiles × 5 designs.
    Fig5,
    /// Cache-resident, read-mostly profiles with a longer budget.
    Resident,
    /// The mixed profile over a file-backed store with every sink.
    Durable,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 3] = [Kind::Fig5, Kind::Resident, Kind::Durable];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Self::Fig5 => "fig5",
            Self::Resident => "resident",
            Self::Durable => "durable",
        }
    }
}

impl std::str::FromStr for Kind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                format!("unknown workload {s:?} (expected fig5, resident, durable or all)")
            })
    }
}

/// One simulation point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Trace profile.
    pub profile: WorkloadProfile,
    /// Secure-memory design.
    pub design: DesignKind,
    /// Instruction budget.
    pub instructions: u64,
}

/// A workload: its points and how they run.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Points of one pass, profile-major.
    pub points: Vec<Point>,
    /// Instructions between two crash-image recoveries of a point.
    pub crash_every: u64,
    /// The store directory of file-backed points (`durable` only).
    pub store: Option<PathBuf>,
    /// Profile of the sink-overhead probe (run on cc-NVM).
    pub probe: WorkloadProfile,
}

/// Instruction budget of the sink-overhead probe.
pub const PROBE_INSTRUCTIONS: u64 = 300_000;

/// The file-store settings of `durable`: fsync every 4096 records (and
/// at the final flush), flight sidecar on.
///
/// The store must live inside the directory the benchmark runs from,
/// which is usually on disk, not tmpfs. There `fsync=always` spent nearly
/// all of a pass in the disk's fsync and varied run to run by 2x with
/// it; batched fsync keeps the measurement on the program's commit path
/// (framing, CRC, buffered appends, compaction).
pub fn store_config() -> FileBackendConfig {
    FileBackendConfig {
        fsync: FsyncStrategy::Batch(4096),
        flight: true,
        ..FileBackendConfig::default()
    }
}

impl Workload {
    /// The workload `kind`; file stores of `durable` go under `root`.
    pub fn new(kind: Kind, root: &Path) -> Self {
        let matrix = |profiles: Vec<WorkloadProfile>, instructions| -> Vec<Point> {
            profiles
                .into_iter()
                .flat_map(|profile| {
                    DesignKind::ALL.into_iter().map(move |design| Point {
                        profile: profile.clone(),
                        design,
                        instructions,
                    })
                })
                .collect()
        };
        let by_name = |n| profiles::by_name(n).expect("built-in profile");
        match kind {
            Kind::Fig5 => Self {
                points: matrix(profiles::spec2006(), ccnvm_bench::DEFAULT_INSTRUCTIONS),
                crash_every: 250_000,
                store: None,
                probe: by_name("lbm"),
            },
            Kind::Resident => Self {
                points: matrix(vec![by_name("hmmer"), by_name("namd")], 3_000_000),
                crash_every: 250_000,
                store: None,
                probe: by_name("hmmer"),
            },
            Kind::Durable => Self {
                points: matrix(vec![profiles::mixed()], 400_000),
                crash_every: 20_000,
                store: Some(root.join("stores")),
                probe: profiles::mixed(),
            },
        }
    }
}

/// How a pass runs its points.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// `Simulator::step` in the loop `Simulator::run` uses, no spans.
    Untraced,
    /// The replay with spans; the trace is generated into a `Vec`
    /// first. Carries the calibrated cost of one span in ns.
    Traced(f64),
}

/// What one point of one pass measured.
#[derive(Debug, Clone, Default)]
pub struct PointRun {
    /// Final statistics.
    pub stats: RunStats,
    /// Host ns to build the simulator, open its store, attach sinks.
    pub setup_ns: u64,
    /// Host ns of the simulated operations (the timed phase).
    pub host_ns: u64,
    /// `host_ns` split into segments: each stretch between two crash
    /// checks, then the final flush of a file store.
    pub segment_ns: Vec<u64>,
    /// Host ns generating the trace (traced runs only).
    pub trace_ns: u64,
    /// Trace operations run.
    pub ops: u64,
    /// Per-call spans (traced runs only).
    pub times: Option<LayerTimes>,
    /// Every timed backend call of the point (traced runs only).
    pub backend: BackendCounts,
    /// Host I/O of a file store.
    pub io: Option<FileIoStats>,
    /// Host ms per `crash_image()`.
    pub image_ms: Vec<f64>,
    /// Host ms per `recover()` of a crash image.
    pub recover_ms: Vec<f64>,
    /// Counter lines, data lines and retries the recoveries reported.
    pub recovered: [u64; 3],
    /// The reopen after the power cut (`durable` only).
    pub reopen_ms: Option<f64>,
    /// Log records that reopen replayed.
    pub replayed_records: u64,
    /// Exports of every attached sink (`durable` only).
    pub export: Option<Export>,
}

/// The sinks' export after a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Export {
    /// Host ns writing the Chrome trace, profile, metrics, wear and
    /// forensics documents.
    pub ns: u64,
    /// Events the recorder holds.
    pub events: u64,
    /// Events the recorder dropped at capacity.
    pub dropped: u64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The output check of a recovered crash image: recovery must come
/// back clean and rebuild the root over the live counters. w/o CC
/// guarantees neither (counters may drift past the retry budget, the
/// paper's motivating flaw), so its recoveries are timed, not judged.
fn check_recovery(
    design: DesignKind,
    report: &RecoveryReport,
    live: &ccnvm_crypto::Mac128,
    out: &mut Outcome,
    what: impl FnOnce() -> String,
) {
    if design == DesignKind::WithoutCc {
        return;
    }
    out.check(report.is_clean() && report.rebuilt_root == *live, || {
        format!(
            "{} {}: recovery clean={} rebuilt root {:?} stored {:?}",
            design.slug(),
            what(),
            report.is_clean(),
            report.rebuilt_root_match,
            report.stored_root_match
        )
    });
}

/// Takes a crash image of the live state, recovers it and checks it.
fn crash_check(mem: &SecureMemory, run: &mut PointRun, out: &mut Outcome, at: u64) {
    let t = Instant::now();
    let image = mem.crash_image();
    run.image_ms.push(ms_since(t));
    let live = mem.ground_truth().current_root;
    let t = Instant::now();
    let report = recover(&image);
    run.recover_ms.push(ms_since(t));
    run.recovered[0] += report.recovered_counter_lines;
    run.recovered[1] += report.recovered_data_lines;
    run.recovered[2] += report.total_retries;
    check_recovery(mem.design(), &report, &live, out, || {
        format!("crash image at {at} instructions")
    });
}

/// Attaches every observability sink, as `ccnvm-sim run` does with
/// every output flag.
pub fn attach_all_sinks(mem: &mut SecureMemory) {
    mem.attach_recorder(RecorderConfig::default());
    mem.attach_profiler();
    mem.attach_metrics(MetricsConfig::default());
    mem.attach_flight(FlightConfig::default());
    mem.attach_wear();
    mem.attach_lag();
    mem.attach_auditor(AuditMode::Record);
}

/// The simulator or replay of one point, plus its backend tally.
struct Built<D> {
    stepper: D,
    tally: Arc<BackendTally>,
    dir: Option<PathBuf>,
    io: Option<Arc<FileIoCounters>>,
}

fn store_dir(w: &Workload, p: &Point, tag: &str) -> Option<PathBuf> {
    w.store
        .as_ref()
        .map(|root| root.join(format!("{tag}-{}", p.design.slug())))
}

fn open_store(dir: &Path) -> FileBackend {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("clear the previous store directory");
    }
    FileBackend::open(dir, store_config()).expect("open a fresh file store")
}

fn build_untraced(w: &Workload, p: &Point, tag: &str) -> Built<Simulator> {
    let config = SimConfig::paper(p.design);
    let dir = store_dir(w, p, tag);
    let (stepper, io) = match &dir {
        Some(d) => {
            let store = open_store(d);
            let io = store.io_counters();
            (Simulator::with_backend(config, Box::new(store)), Some(io))
        }
        None => (Simulator::new(config), None),
    };
    let mut stepper = stepper.expect("paper config is valid");
    if dir.is_some() {
        attach_all_sinks(stepper.memory_mut());
    }
    Built {
        stepper,
        tally: Arc::new(BackendTally::default()),
        dir,
        io,
    }
}

fn build_traced(w: &Workload, p: &Point, tag: &str, span_ns: f64) -> Built<Replay> {
    let dir = store_dir(w, p, tag);
    let (backend, tally, io): (Box<dyn DurableBackend>, _, _) = match &dir {
        Some(d) => {
            let store = open_store(d);
            let io = store.io_counters();
            let (b, t) = TimedBackend::new(store);
            (Box::new(b), t, Some(io))
        }
        None => {
            let (b, t) = TimedBackend::new(LineStore::new());
            (Box::new(b), t, None)
        }
    };
    let mut stepper = Replay::new(
        SimConfig::paper(p.design),
        backend,
        Arc::clone(&tally),
        span_ns,
    )
    .expect("paper config is valid");
    if dir.is_some() {
        attach_all_sinks(stepper.memory_mut());
    }
    Built {
        stepper,
        tally,
        dir,
        io,
    }
}

/// Builds (and drops) every point's simulator: one set-up sample.
pub fn setup_only(w: &Workload, tag: &str) -> u64 {
    let t = Instant::now();
    let built: Vec<_> = w.points.iter().map(|p| build_untraced(w, p, tag)).collect();
    let ns = t.elapsed().as_nanos() as u64;
    for b in built {
        let dir = b.dir.clone();
        drop(b);
        if let Some(d) = dir {
            std::fs::remove_dir_all(d).ok();
        }
    }
    ns
}

/// Runs `next_op` on `stepper` up to `p.instructions`, stopping every
/// `crash_every` instructions and at the end for an untimed crash check,
/// and adds the timed ns and operations run to `run`.
///
/// Each design's checks start `crash_every / 5` instructions later than
/// the previous design's. Checked at the same counts, the five designs
/// leave images of nearly one size, so the images of a workload fell in
/// clusters with gaps between them, and `recover_ms_p50` jumped from
/// one cluster to the next from run to run. Staggered, the image sizes
/// spread evenly; every point still makes the same number of checks.
fn drive<D: Stepper>(
    stepper: &mut D,
    p: &Point,
    crash_every: u64,
    mut next_op: impl FnMut() -> TraceOp,
    run: &mut PointRun,
    out: &mut Outcome,
) -> Result<(), ccnvm::error::IntegrityError> {
    let designs = DesignKind::ALL.len();
    let index = DesignKind::ALL
        .iter()
        .position(|&d| d == p.design)
        .expect("a design");
    let mut target = crash_every / designs as u64 * index as u64;
    while target < p.instructions {
        target = (target + crash_every).min(p.instructions);
        let t = Instant::now();
        while stepper.instructions() < target {
            stepper.step(&next_op())?;
            run.ops += 1;
        }
        let ns = t.elapsed().as_nanos() as u64;
        run.host_ns += ns;
        run.segment_ns.push(ns);
        crash_check(stepper.memory(), run, out, target);
    }
    Ok(())
}

/// Ends a file-backed point: takes the sinks, cuts power (drops the
/// simulator), analyses the flight sidecar, reopens and recovers the
/// store, and exports every sink.
fn power_cut<D: Stepper>(
    mut stepper: D,
    p: &Point,
    dir: &Path,
    run: &mut PointRun,
    out: &mut Outcome,
) {
    let mem = stepper.memory_mut();
    let name = p.design.slug();
    let tcb = mem.tcb().clone();
    let live = mem.ground_truth().current_root;
    let instructions = run.stats.instructions;
    let wear = mem.wear_report(&p.profile.name, instructions);
    let audit_clean = mem.auditor().is_some_and(|a| a.violations().is_empty());
    out.check(audit_clean, || {
        format!("{name}: auditor reported violations")
    });
    let recorder = mem.take_recorder();
    let mut profiler = mem.take_profiler();
    let metrics = mem.take_metrics();
    let lag = mem.take_lag();
    drop(stepper);

    let (entries, discarded) =
        ccnvm_mem::read_flight_log(dir).expect("flight sidecar of a just-closed store");
    let analysis = ccnvm::obs::flight::analyze(&entries);
    out.check(analysis.is_ok(), || {
        format!("{name}: flight analyze failed")
    });

    let t = Instant::now();
    let reopened = FileBackend::open(dir, store_config()).expect("reopen the store");
    run.reopen_ms = Some(ms_since(t));
    run.replayed_records = reopened.io_counters().stats().replayed_records;
    let config = SimConfig::paper(p.design);
    let image = CrashImage {
        design: p.design,
        capacity_bytes: config.capacity_bytes,
        update_limit: config.update_limit,
        tcb,
        nvm: reopened.snapshot(),
        staged_lines_lost: 0,
    };
    drop(reopened);
    let report = recover(&image);
    check_recovery(p.design, &report, &live, out, || {
        "reopened store".to_owned()
    });

    let t = Instant::now();
    let mut docs: Vec<(&str, Vec<u8>)> = Vec::new();
    let mut chrome = Vec::new();
    let input = ccnvm::obs::chrome::ChromeTraceInput {
        recorder: recorder.as_deref(),
        metrics: metrics.as_deref(),
        profile: profiler.as_deref(),
        recovery: Some(report.timeline.as_slice()),
        lag: lag.as_deref(),
    };
    let chrome_ok = ccnvm::obs::chrome::write_chrome_trace(&mut chrome, &input).is_ok();
    docs.push(("chrome.json", chrome));
    if let Some(prof) = profiler.as_deref_mut() {
        prof.absorb_recovery(&report);
        docs.push((
            "profile.json",
            prof.to_json(name, &p.profile.name, instructions)
                .into_bytes(),
        ));
    }
    if let Some(m) = metrics.as_deref() {
        let mut buf = Vec::new();
        m.write_jsonl(&mut buf).expect("write to a Vec");
        docs.push(("metrics.jsonl", buf));
    }
    if let Some(w) = &wear {
        docs.push(("wear.json", w.to_json().into_bytes()));
    }
    if let Ok(a) = analysis {
        let fsync = store_config().fsync.to_string();
        let forensic = ccnvm::obs::flight::forensic_report(&image, &report, a, discarded, &fsync);
        docs.push(("forensics.json", forensic.to_json().into_bytes()));
    }
    let mut written = true;
    for (file, bytes) in &docs {
        written &= !bytes.is_empty() && std::fs::write(dir.join(file), bytes).is_ok();
    }
    let ns = t.elapsed().as_nanos() as u64;
    out.check(chrome_ok && written && docs.len() == 5, || {
        format!("{name}: sink exports incomplete")
    });
    let rec = recorder.as_deref();
    run.export = Some(Export {
        ns,
        events: rec.map_or(0, |r| r.trace().len() as u64),
        dropped: rec.map_or(0, |r| r.trace().dropped()),
    });
}

fn run_point<D: Stepper>(
    w: &Workload,
    p: &Point,
    seed: u64,
    built: Built<D>,
    ops: Option<&[TraceOp]>,
    run: &mut PointRun,
    out: &mut Outcome,
) {
    let Built {
        mut stepper,
        tally,
        dir,
        io,
    } = built;
    let name = format!("{}/{}", p.profile.name, p.design.slug());
    let mut generator = TraceGenerator::new(p.profile.clone(), seed);
    let result = match ops {
        Some(ops) => {
            let mut it = ops.iter().copied();
            drive(
                &mut stepper,
                p,
                w.crash_every,
                || it.next().expect("trace pre-generated to the budget"),
                run,
                out,
            )
        }
        None => drive(
            &mut stepper,
            p,
            w.crash_every,
            || generator.next().expect("trace generators are endless"),
            run,
            out,
        ),
    };
    out.check(result.is_ok(), || format!("{name}: {result:?}"));
    if dir.is_some() {
        // Flush the last batch: the image the power cut leaves is then
        // the one `fsync=always` would leave.
        let t = Instant::now();
        stepper.memory_mut().sync_durable();
        let ns = t.elapsed().as_nanos() as u64;
        run.host_ns += ns;
        run.segment_ns.push(ns);
    }
    run.stats = stepper.stats();
    run.backend = tally.counts();
    run.times = stepper.take_times();
    run.io = io.map(|c| c.stats());
    if let Some(dir) = dir {
        power_cut(stepper, p, &dir, run, out);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Generates `p`'s trace up to its budget: exactly the operations the
/// untraced loop consumes.
fn generate(p: &Point, seed: u64) -> Vec<TraceOp> {
    let mut ops = Vec::new();
    let mut instrs = 0;
    for op in TraceGenerator::new(p.profile.clone(), seed) {
        if instrs >= p.instructions {
            break;
        }
        instrs += op.instrs();
        ops.push(op);
    }
    ops
}

/// Runs one point in `mode`, catching a panic as a failed operation.
pub fn run_one(
    w: &Workload,
    p: &Point,
    seed: u64,
    mode: Mode,
    tag: &str,
    out: &mut Outcome,
) -> Option<PointRun> {
    let name = format!("{}/{}", p.profile.name, p.design.slug());
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut run = PointRun::default();
        let mut local = Outcome::default();
        match mode {
            Mode::Untraced => {
                let t = Instant::now();
                let built = build_untraced(w, p, tag);
                run.setup_ns = t.elapsed().as_nanos() as u64;
                run_point(w, p, seed, built, None, &mut run, &mut local);
            }
            Mode::Traced(span_ns) => {
                let t = Instant::now();
                let ops = generate(p, seed);
                run.trace_ns = t.elapsed().as_nanos() as u64;
                let t = Instant::now();
                let built = build_traced(w, p, tag, span_ns);
                run.setup_ns = t.elapsed().as_nanos() as u64;
                run_point(w, p, seed, built, Some(&ops), &mut run, &mut local);
            }
        }
        (run, local)
    }));
    match result {
        Ok((run, local)) => {
            out.attempted += local.attempted;
            out.failed += local.failed;
            Some(run)
        }
        Err(_) => {
            out.check(false, || format!("{name}: panicked"));
            if let Some(dir) = store_dir(w, p, tag) {
                std::fs::remove_dir_all(dir).ok();
            }
            None
        }
    }
}
