use ccnvm::config::{DesignKind, SimConfig};
use ccnvm::crash::CrashImage;
use ccnvm::recovery::recover;
use ccnvm::secmem::SecureMemory;
use ccnvm::sim::Simulator;
use ccnvm::stats::RunStats;
use ccnvm_crypto::CryptoSelect;
use ccnvm_hostbench::probe::{calibrate_crypto, SINKS};
use ccnvm_hostbench::replay::{Replay, Stepper};
use ccnvm_hostbench::report::{percentile, valid_name, Outcome, END_TO_END, PER_LAYER};
use ccnvm_hostbench::timed::TimedBackend;
use ccnvm_hostbench::workload::{attach_all_sinks, store_config};
use ccnvm_mem::file::FileIoStats;
use ccnvm_mem::{DurableBackend, FileBackend, LineStore};
use ccnvm_trace::{profiles, TraceGenerator, TraceOp};
use std::path::PathBuf;

fn ops(bench: &str, instructions: u64) -> Vec<TraceOp> {
    let mut total = 0;
    TraceGenerator::new(profiles::by_name(bench).expect("profile"), 42)
        .take_while(|op| {
            let go = total < instructions;
            total += op.instrs();
            go
        })
        .collect()
}

fn run<D: Stepper>(stepper: &mut D, ops: &[TraceOp]) -> RunStats {
    for op in ops {
        stepper.step(op).expect("attack-free run");
    }
    stepper.stats()
}

#[test]
fn replay_equals_simulator_for_every_design() {
    for bench in ["lbm", "mixed"] {
        let ops = ops(bench, 150_000);
        for design in DesignKind::ALL {
            let config = SimConfig::small(design);
            let mut sim = Simulator::new(config.clone()).expect("small config");
            let (backend, tally) = TimedBackend::new(LineStore::new());
            let mut replay =
                Replay::new(config, Box::new(backend), tally, 0.0).expect("small config");
            let expected = run(&mut sim, &ops);
            assert!(expected.write_backs > 0, "{design}/{bench} writes back");
            assert_eq!(run(&mut replay, &ops), expected, "{design}/{bench}");
            let times = replay.take_times().expect("the replay takes spans");
            assert_eq!(
                times.spans,
                times.verify_ns.len() as u64 + expected.write_backs,
                "one span per read_data and per write_back"
            );
        }
    }
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert!(percentile(&samples[..99], 90.0).is_err());
    assert_eq!(percentile(&samples, 90.0), Ok(90.0));
    assert!(percentile(&samples[..19], 50.0).is_err());
    assert_eq!(percentile(&samples[..20], 50.0), Ok(10.0));
    assert!(percentile(&samples, 99.0).is_err());
}

#[test]
fn every_emitted_name_is_valid_and_unique() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(name, _)| *name)
        .collect();
    for name in &names {
        assert!(valid_name(name), "{name}");
        assert_eq!(names.iter().filter(|n| *n == name).count(), 1, "{name}");
    }
    for design in DesignKind::ALL {
        assert!(names.contains(&format!("sim_mips.{}", design.slug()).as_str()));
    }
    for sink in SINKS {
        assert!(names.contains(&format!("obs.{sink}.overhead_x").as_str()));
    }
    assert!(!valid_name("bad name"));
    assert!(!valid_name(".leading-dot"));
    assert!(!valid_name(""));
}

#[test]
fn result_line_refuses_a_missing_or_foreign_metric() {
    let mut out = Outcome::default();
    for (name, _) in END_TO_END {
        out.set(name, 1.5);
    }
    out.check(true, String::new);
    let line = out.to_json(END_TO_END).expect("complete set");
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    assert!(out.to_json(PER_LAYER).is_err());
    out.metrics.pop();
    assert!(out.to_json(END_TO_END).is_err());
}

#[test]
fn crypto_costs_are_calibrated_at_the_runs_tier() {
    let mut selects = vec![CryptoSelect::Portable];
    if CryptoSelect::Simd.resolve().is_ok() {
        selects.push(CryptoSelect::Simd);
    }
    for select in selects {
        let mut config = SimConfig::small(DesignKind::CcNvm);
        config.crypto = select;
        let mem = SecureMemory::new(config).expect("small config");
        let cost = calibrate_crypto(&mem);
        assert_eq!(cost.tier, select.resolve().expect("resolvable"));
        assert_eq!(cost.tier, mem.bmt().engine().tier());
        assert!(cost.ns_per_hmac > 0.0 && cost.ns_per_aes > 0.0);
    }
}

/// What a file-backed run leaves: statistics, host I/O, the flight
/// sidecar and the recovered root of the reopened store.
fn file_run(dir: PathBuf, decorate: bool) -> (RunStats, FileIoStats, Vec<String>, [u8; 16]) {
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = store_config();
    cfg.compact_threshold = 64;
    let store = FileBackend::open(&dir, cfg).expect("open");
    let io = store.io_counters();
    let backend: Box<dyn DurableBackend> = if decorate {
        Box::new(TimedBackend::new(store).0)
    } else {
        Box::new(store)
    };
    let config = SimConfig::small(DesignKind::CcNvm);
    let mut sim = Simulator::with_backend(config.clone(), backend).expect("small config");
    attach_all_sinks(sim.memory_mut());
    let stats = run(&mut sim, &ops("mixed", 60_000));
    sim.memory_mut().sync_durable();
    let tcb = sim.memory().tcb().clone();
    drop(sim);
    let flight = ccnvm_mem::read_flight_log(&dir).expect("flight log").0;
    let reopened = FileBackend::open(&dir, cfg).expect("reopen");
    let report = recover(&CrashImage {
        design: config.design,
        capacity_bytes: config.capacity_bytes,
        update_limit: config.update_limit,
        tcb,
        nvm: reopened.snapshot(),
        staged_lines_lost: 0,
    });
    assert!(report.is_clean());
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
    (stats, io.stats(), flight, report.rebuilt_root)
}

#[test]
fn timing_decorator_changes_nothing_durable() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let plain = file_run(tmp.join("decorator-plain"), false);
    let timed = file_run(tmp.join("decorator-timed"), true);
    assert!(plain.1.fsyncs > 0 && plain.1.compactions > 0 && !plain.2.is_empty());
    assert_eq!(timed, plain);
}
