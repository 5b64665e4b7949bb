//! `hostbench`: runs one workload (or all three) and prints its metrics
//! as JSON.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload fig5 --seed 42 --seconds 50 --trace 0
//! ```

use ccnvm::config::{DesignKind, SimConfig};
use ccnvm::sim::run_profile;
use ccnvm::stats::RunStats;
use ccnvm_hostbench::probe::{calibrate_crypto, sink_overheads, CryptoCost, SINKS};
use ccnvm_hostbench::report::{geomean, median, percentile, Outcome, END_TO_END, PER_LAYER};
use ccnvm_hostbench::timed::calibrate_span_ns;
use ccnvm_hostbench::workload::{run_one, setup_only, Kind, Mode, PointRun, Workload};
use ccnvm_hostbench::{host, replay::LayerTimes};
use std::path::Path;
use std::time::Instant;

/// Runtime files (file stores, exports) go here, under the directory
/// the benchmark runs from, and are removed on exit.
const RUN_DIR: &str = ".hostbench-run";

/// Set-up samples taken at least, so `setup_s` is a median.
const SETUP_SAMPLES: usize = 15;

/// The paper's cc-NVM IPC gain over Osiris Plus, in percent.
const PAPER_IPC_GAIN: f64 = 20.4;
/// The paper's cc-NVM extra NVM writes over w/o CC, in percent.
const PAPER_EXTRA_WRITES: f64 = 39.0;

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workloads: Kind::ALL.to_vec(),
        seed: ccnvm_bench::SEED,
        seconds: 50.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Kind::ALL.to_vec(),
            "--workload" => args.workloads = vec![value.parse::<Kind>()?],
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad(&"must be in (0, 60]"));
                }
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(args)
}

type Pass = Vec<Option<PointRun>>;

/// Runs passes until `seconds` elapse (at least one).
fn passes(
    w: &Workload,
    seed: u64,
    mode: Mode,
    seconds: f64,
    tag: &str,
    out: &mut Outcome,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut all = Vec::new();
    while all.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let pass_tag = format!("{tag}{}", all.len());
        let pass: Pass = w
            .points
            .iter()
            .map(|p| run_one(w, p, seed, mode, &pass_tag, out))
            .collect();
        eprintln!(
            "pass {pass_tag}: {:.4} s timed",
            secs(runs(&pass).map(|r| r.host_ns + r.trace_ns).sum())
        );
        all.push(pass);
    }
    all
}

fn runs(pass: &Pass) -> impl Iterator<Item = &PointRun> {
    pass.iter().flatten()
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Each point's best (lowest) host ns over the passes that ran it.
///
/// This host shares its last-level cache and memory bandwidth with
/// other tenants: for seconds at a time the simulator runs 1.5-2x
/// slower while a compute-bound loop slows by 10%. Whole passes fall
/// into such stretches, so a median over a handful of passes tracks
/// the neighbours; each point's best pass tracks the program.
fn point_best(passes: &[Pass], f: impl Fn(&PointRun) -> u64) -> Vec<Option<f64>> {
    (0..passes[0].len())
        .map(|i| {
            passes
                .iter()
                .filter_map(|p| p[i].as_ref().map(|r| f(r) as f64))
                .reduce(f64::min)
        })
        .collect()
}

/// Each point's best host ns of the simulated operations, taken
/// segment by segment: the sum over its segments (see
/// [`PointRun::segment_ns`]) of each segment's best time over the
/// passes. A point's best pass still carries the noise of its slowest
/// segments; the best of each segment leaves less of it.
fn segment_best(passes: &[Pass]) -> Vec<Option<f64>> {
    (0..passes[0].len())
        .map(|i| {
            let runs: Vec<&PointRun> = passes.iter().filter_map(|p| p[i].as_ref()).collect();
            let segments = runs.iter().map(|r| r.segment_ns.len()).min()?;
            Some(
                (0..segments)
                    .map(|k| {
                        runs.iter()
                            .map(|r| r.segment_ns[k] as f64)
                            .fold(f64::MAX, f64::min)
                    })
                    .sum(),
            )
        })
        .collect()
}

/// Percentile of pooled samples; too few samples fail the run and
/// report the largest sample.
fn pooled_percentile(samples: &[f64], p: f64, what: &str, out: &mut Outcome) -> f64 {
    let result = percentile(samples, p);
    out.check(result.is_ok(), || format!("{what} p{p}: {result:?}"));
    result.unwrap_or_else(|_| samples.iter().copied().fold(0.0, f64::max))
}

/// The model's distance from the paper's headline numbers over the
/// workload's points, given their statistics in point order.
fn paper_errors(stats: &[Option<RunStats>]) -> (f64, f64) {
    let designs = DesignKind::ALL.len();
    let idx = |d: DesignKind| {
        DesignKind::ALL
            .iter()
            .position(|&x| x == d)
            .expect("a design")
    };
    let mut ipc = vec![Vec::new(); designs];
    let mut writes = vec![Vec::new(); designs];
    for chunk in stats.chunks(designs) {
        let Some(chunk) = chunk.iter().copied().collect::<Option<Vec<RunStats>>>() else {
            continue;
        };
        let base = chunk[idx(DesignKind::WithoutCc)];
        for (d, s) in chunk.iter().enumerate() {
            ipc[d].push(s.ipc() / base.ipc());
            writes[d].push(s.total_writes() as f64 / base.total_writes().max(1) as f64);
        }
    }
    if ipc[0].is_empty() {
        return (0.0, 0.0);
    }
    let (cc, osiris) = (idx(DesignKind::CcNvm), idx(DesignKind::OsirisPlus));
    let gain = (geomean(&ipc[cc]) / geomean(&ipc[osiris]) - 1.0) * 100.0;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let extra = (mean(&writes[cc]) - 1.0) * 100.0;
    (
        (gain - PAPER_IPC_GAIN).abs(),
        (extra - PAPER_EXTRA_WRITES).abs(),
    )
}

/// Statistics of every point at the paper harness's seed: those of
/// the first pass when the run used that seed, else a fresh in-memory
/// run (the store and sinks never change statistics).
fn reference_stats(
    w: &Workload,
    seed: u64,
    first: &Pass,
    out: &mut Outcome,
) -> Vec<Option<RunStats>> {
    if seed == ccnvm_bench::SEED {
        return first.iter().map(|r| r.as_ref().map(|r| r.stats)).collect();
    }
    w.points
        .iter()
        .map(|p| {
            let result = run_profile(
                SimConfig::paper(p.design),
                &p.profile,
                p.instructions,
                ccnvm_bench::SEED,
            );
            out.check(result.is_ok(), || {
                format!(
                    "reference {}/{}: {result:?}",
                    p.profile.name,
                    p.design.slug()
                )
            });
            result.ok()
        })
        .collect()
}

fn end_to_end(w: &Workload, seed: u64, untraced: &[Pass], setup: &[f64], out: &mut Outcome) {
    let ns = segment_best(untraced);
    out.set("wall_s", ns.iter().flatten().sum::<f64>() / 1e9);
    // Simulated instructions per host second over the points that ran.
    let mips = |design: Option<DesignKind>| {
        let (instr, ns) = w
            .points
            .iter()
            .zip(&untraced[0])
            .zip(&ns)
            .filter(|((pt, _), _)| design.is_none_or(|d| pt.design == d))
            .filter_map(|((_, r), ns)| Some((r.as_ref()?.stats.instructions as f64, (*ns)?)))
            .fold((0.0, 0.0), |(i, n), (ri, rn)| (i + ri, n + rn));
        ratio(instr * 1e3, ns)
    };
    out.set("sim_mips", mips(None));
    out.set("setup_s", median(setup));
    out.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    for d in DesignKind::ALL {
        let name = END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_prefix("sim_mips.") == Some(d.slug()))
            .expect("a sim_mips metric per design");
        out.set(name, mips(Some(d)));
    }
    let (ipc_err, writes_err) = paper_errors(&reference_stats(w, seed, &untraced[0], out));
    out.set("ipc_gain_err_pp", ipc_err);
    out.set("write_overhead_err_pp", writes_err);
    // Every pass recovers the same crash images: take each image's
    // best time over the passes, then the percentiles over images.
    let mut recover = Vec::new();
    for i in 0..untraced[0].len() {
        let per_pass: Vec<&Vec<f64>> = untraced
            .iter()
            .filter_map(|p| p[i].as_ref().map(|r| &r.recover_ms))
            .collect();
        let images = per_pass.iter().map(|v| v.len()).min().unwrap_or(0);
        recover.extend((0..images).map(|k| per_pass.iter().map(|v| v[k]).fold(f64::MAX, f64::min)));
    }
    for (name, p) in [("recover_ms_p50", 50.0), ("recover_ms_p90", 90.0)] {
        let value = pooled_percentile(&recover, p, "recover_ms", out);
        out.set(name, value);
    }
}

/// Per-layer metrics of one traced pass, as `(name, value)`.
fn layer_metrics(
    pass: &Pass,
    span_ns: f64,
    crypto: &CryptoCost,
    out: &mut Outcome,
) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&PointRun) -> u64| runs(pass).map(f).sum::<u64>();
    let stat = |f: &dyn Fn(&ccnvm::stats::RunStats) -> u64| sum(&|r| f(&r.stats)) as f64;
    let times: Vec<&LayerTimes> = runs(pass).filter_map(|r| r.times.as_ref()).collect();
    let pooled = |f: &dyn Fn(&LayerTimes) -> &Vec<f64>| -> Vec<f64> {
        times.iter().flat_map(|t| f(t).iter().copied()).collect()
    };
    let verify = pooled(&|t| &t.verify_ns);
    let writepath = pooled(&|t| &t.writepath_ns);
    let ops = sum(&|r| r.ops) as f64;
    let loop_ns = sum(&|r| r.host_ns) as f64;
    let spans_raw: u64 = times.iter().map(|t| t.spans_raw_ns).sum();
    let spans: u64 = times.iter().map(|t| t.spans).sum();
    let sim_self_ns = (loop_ns - spans_raw as f64 - spans as f64 * span_ns).max(0.0);
    let epoch_ns: f64 = times.iter().map(|t| t.epoch_ns).sum();
    let epoch_drains: u64 = times.iter().map(|t| t.epoch_drains).sum();
    let backend = runs(pass).fold(
        Default::default(),
        |mut acc: ccnvm_hostbench::timed::BackendCounts, r| {
            acc.add(r.backend);
            acc
        },
    );
    let io = |f: &dyn Fn(&ccnvm_mem::file::FileIoStats) -> u64| {
        sum(&|r| r.io.as_ref().map_or(0, f)) as f64
    };
    let instructions = stat(&|s| s.instructions);
    let hmacs = stat(&|s| s.hmacs);
    let aes = stat(&|s| s.aes_ops);
    let reopen: Vec<f64> = runs(pass).filter_map(|r| r.reopen_ms).collect();
    let images: Vec<f64> = runs(pass)
        .flat_map(|r| r.image_ms.iter().copied())
        .collect();
    let p = |v: &[f64], q: f64, what: &str, out: &mut Outcome| -> f64 {
        if v.is_empty() {
            0.0
        } else {
            pooled_percentile(v, q, what, out)
        }
    };
    vec![
        ("trace.host_s", secs(sum(&|r| r.trace_ns))),
        ("trace.ns_per_op", ratio(sum(&|r| r.trace_ns) as f64, ops)),
        ("trace.ops", ops),
        ("sim.self_s", sim_self_ns / 1e9),
        ("sim.ns_per_op", ratio(sim_self_ns, ops)),
        ("cache.l1_hits", stat(&|s| s.l1_hits)),
        ("cache.l1_misses", stat(&|s| s.l1_misses)),
        ("cache.l2_hits", stat(&|s| s.l2_hits)),
        ("cache.l2_misses", stat(&|s| s.l2_misses)),
        ("verify.calls", verify.len() as f64),
        ("verify.self_s", verify.iter().sum::<f64>() / 1e9),
        ("verify.ns_p50", p(&verify, 50.0, "verify.ns", out)),
        ("verify.ns_p99", p(&verify, 99.0, "verify.ns", out)),
        ("writepath.calls", writepath.len() as f64),
        ("writepath.self_s", writepath.iter().sum::<f64>() / 1e9),
        ("writepath.ns_p50", p(&writepath, 50.0, "writepath.ns", out)),
        ("writepath.ns_p99", p(&writepath, 99.0, "writepath.ns", out)),
        ("epoch.drains", stat(&|s| s.drains)),
        ("epoch.drains_queue_full", stat(&|s| s.drains_queue_full)),
        ("epoch.drains_evict", stat(&|s| s.drains_evict)),
        (
            "epoch.drains_update_limit",
            stat(&|s| s.drains_update_limit),
        ),
        ("epoch.self_s", epoch_ns / 1e9),
        ("epoch.ns_per_drain", ratio(epoch_ns, epoch_drains as f64)),
        ("metacache.hits", stat(&|s| s.meta_hits)),
        ("metacache.misses", stat(&|s| s.meta_misses)),
        (
            "metacache.hit_rate",
            ratio(
                stat(&|s| s.meta_hits),
                stat(&|s| s.meta_hits + s.meta_misses),
            ),
        ),
        ("crypto.hmacs", hmacs),
        ("crypto.aes_ops", aes),
        (
            "crypto.hmacs_per_wb",
            ratio(hmacs, stat(&|s| s.write_backs)),
        ),
        ("crypto.ns_per_hmac", crypto.ns_per_hmac),
        ("crypto.ns_per_aes", crypto.ns_per_aes),
        (
            "crypto.est_s",
            (hmacs * crypto.ns_per_hmac + aes * crypto.ns_per_aes) / 1e9,
        ),
        ("controller.nvm_reads", stat(&|s| s.nvm_reads)),
        ("controller.data_writes", stat(&|s| s.data_writes)),
        ("controller.dh_writes", stat(&|s| s.dh_writes)),
        ("controller.meta_writes", stat(&|s| s.meta_writes)),
        ("controller.reenc_writes", stat(&|s| s.reenc_writes)),
        (
            "controller.writes_pki",
            ratio(stat(&|s| s.total_writes()) * 1e3, instructions),
        ),
        (
            "core.cpi_read_stall",
            ratio(stat(&|s| s.read_stall_cycles), instructions),
        ),
        (
            "core.cpi_wb_stall",
            ratio(stat(&|s| s.wb_stall_cycles), instructions),
        ),
        ("backend.store_calls", backend.stores as f64),
        ("backend.commit_calls", backend.commits as f64),
        ("backend.sync_calls", backend.syncs as f64),
        ("backend.flight_appends", backend.flight_appends as f64),
        ("backend.self_s", secs(backend.total_ns)),
        (
            "backend.ns_per_store",
            ratio(backend.store_ns as f64, backend.stores as f64),
        ),
        (
            "backend.ns_per_commit",
            ratio(backend.commit_ns as f64, backend.commits as f64),
        ),
        ("backend.fsyncs", io(&|s| s.fsyncs)),
        ("backend.appends", io(&|s| s.appends)),
        ("backend.bytes_written", io(&|s| s.bytes_written)),
        ("backend.compactions", io(&|s| s.compactions)),
        (
            "backend.reopen_ms",
            if reopen.is_empty() {
                0.0
            } else {
                median(&reopen)
            },
        ),
        (
            "backend.replayed_records",
            sum(&|r| r.replayed_records) as f64,
        ),
        (
            "crash.image_ms",
            if images.is_empty() {
                0.0
            } else {
                median(&images)
            },
        ),
        (
            "recovery.self_s",
            runs(pass).flat_map(|r| r.recover_ms.iter()).sum::<f64>() / 1e3,
        ),
        ("recovery.counter_lines", sum(&|r| r.recovered[0]) as f64),
        ("recovery.data_lines", sum(&|r| r.recovered[1]) as f64),
        ("recovery.total_retries", sum(&|r| r.recovered[2]) as f64),
        ("obs.export_s", secs(sum(&|r| r.export.map_or(0, |e| e.ns)))),
        (
            "obs.recorder.events",
            sum(&|r| r.export.map_or(0, |e| e.events)) as f64,
        ),
        (
            "obs.recorder.dropped",
            sum(&|r| r.export.map_or(0, |e| e.dropped)) as f64,
        ),
    ]
}

fn per_layer(
    w: &Workload,
    seed: u64,
    untraced: &[Pass],
    traced: &[Pass],
    span_ns: f64,
    out: &mut Outcome,
) {
    // Replay equality: the traced split describes the program only if
    // the replay retired exactly what the simulator did.
    for pass in traced {
        for ((t, u), p) in pass.iter().zip(&untraced[0]).zip(&w.points) {
            let equal = matches!((t, u), (Some(t), Some(u)) if t.stats == u.stats);
            out.check(equal, || {
                format!(
                    "{}/{}: replay differs from Simulator: {:?} vs {:?}",
                    p.profile.name,
                    p.design.slug(),
                    t.as_ref().map(|r| r.stats),
                    u.as_ref().map(|r| r.stats)
                )
            });
        }
    }
    let crypto = {
        let probe =
            ccnvm::secmem::SecureMemory::new(ccnvm::config::SimConfig::paper(DesignKind::CcNvm))
                .expect("paper config is valid");
        calibrate_crypto(&probe)
    };
    eprintln!(
        "crypto unit costs at tier {} ({:?}): {:.1} ns/hmac, {:.1} ns/aes",
        crypto.tier, crypto.mode, crypto.ns_per_hmac, crypto.ns_per_aes
    );
    let per_pass: Vec<_> = traced
        .iter()
        .map(|p| layer_metrics(p, span_ns, &crypto, out))
        .collect();
    for (i, (name, _)) in per_pass[0].iter().enumerate() {
        out.set(
            name,
            median(&per_pass.iter().map(|m| m[i].1).collect::<Vec<_>>()),
        );
    }
    let overheads = sink_overheads(&w.probe, seed, out);
    for (sink, x) in SINKS.iter().zip(overheads) {
        let name = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| *n == format!("obs.{sink}.overhead_x"))
            .expect("an overhead metric per sink");
        out.set(name, x);
    }
    let wall = |passes: &[Pass]| -> f64 {
        point_best(passes, |r| r.host_ns + r.trace_ns)
            .iter()
            .flatten()
            .sum()
    };
    out.set("tracing.overhead_x", wall(traced) / wall(untraced));
    out.set("tracing.ns_per_span", span_ns);
}

/// Runs workload `kind` and renders its result line.
fn run(kind: Kind, args: &Args, root: &Path) -> Result<String, String> {
    let w = Workload::new(kind, root);
    let mut out = Outcome::default();
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = passes(&w, args.seed, Mode::Untraced, seconds, "u", &mut out);
    // Every pass runs the same inputs: its statistics must repeat.
    for pass in &untraced[1..] {
        for (a, b) in pass.iter().zip(&untraced[0]) {
            let same = matches!((a, b), (Some(a), Some(b)) if a.stats == b.stats);
            out.check(same, || "statistics differ between passes".to_owned());
        }
    }
    if args.trace {
        let span_ns = calibrate_span_ns();
        let traced = passes(&w, args.seed, Mode::Traced(span_ns), seconds, "t", &mut out);
        per_layer(&w, args.seed, &untraced, &traced, span_ns, &mut out);
        return out.to_json(PER_LAYER);
    }
    let mut setup: Vec<f64> = untraced
        .iter()
        .map(|p| secs(runs(p).map(|r| r.setup_ns).sum()))
        .collect();
    while setup.len() < SETUP_SAMPLES {
        setup.push(secs(setup_only(&w, &format!("s{}", setup.len()))));
    }
    end_to_end(&w, args.seed, &untraced, &setup, &mut out);
    out.to_json(END_TO_END)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(2);
        }
    };
    let root = Path::new(RUN_DIR);
    std::fs::remove_dir_all(root).ok();
    std::fs::create_dir_all(root).expect("create the run directory");
    eprintln!("host: {}", host::descriptor(root));
    let mut lines = Vec::new();
    for &kind in &args.workloads {
        eprintln!("workload {}", kind.name());
        match run(kind, &args, root) {
            // With several workloads, each line names its own.
            Ok(line) if args.workloads.len() > 1 => lines.push(format!(
                "{{\"workload\": \"{}\", {}",
                kind.name(),
                &line[1..]
            )),
            Ok(line) => lines.push(line),
            Err(e) => {
                std::fs::remove_dir_all(root).ok();
                eprintln!("hostbench: {e}");
                std::process::exit(3);
            }
        }
    }
    std::fs::remove_dir_all(root).ok();
    for line in lines {
        println!("{line}");
    }
}
