//! Calibrations beside the traced run: crypto unit costs at the run's
//! tier and the host cost of each observability sink.

use crate::report::{median, Outcome};
use crate::workload::PROBE_INSTRUCTIONS;
use ccnvm::config::{DesignKind, SimConfig};
use ccnvm::engine::{CryptoEngine, HmacMode};
use ccnvm::obs::audit::AuditMode;
use ccnvm::obs::flight::FlightConfig;
use ccnvm::obs::metrics::MetricsConfig;
use ccnvm::obs::RecorderConfig;
use ccnvm::secmem::SecureMemory;
use ccnvm::sim::Simulator;
use ccnvm::tcb::Keys;
use ccnvm_crypto::CryptoTier;
use ccnvm_mem::LineAddr;
use ccnvm_trace::{TraceGenerator, WorkloadProfile};
use std::hint::black_box;
use std::time::Instant;

/// Host cost of the two crypto operations `RunStats` counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CryptoCost {
    /// Tier the costs were measured at.
    pub tier: CryptoTier,
    /// HMAC mode the costs were measured in.
    pub mode: HmacMode,
    /// ns per data HMAC.
    pub ns_per_hmac: f64,
    /// ns per one-line pad generation (one counted AES op).
    pub ns_per_aes: f64,
}

/// Times the public crypto API at the tier and HMAC mode `mem`'s engine
/// runs, so the unit costs match the run they are multiplied into.
pub fn calibrate_crypto(mem: &SecureMemory) -> CryptoCost {
    const N: u64 = 20_000;
    let run = mem.bmt().engine();
    let (tier, mode) = (run.tier(), run.hmac_mode());
    let engine = CryptoEngine::with_options(&Keys::from_seed(1), mode, tier);
    let plain = [0x5au8; 64];
    let mut hmac = Vec::new();
    let mut aes = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        for i in 0..N {
            black_box(engine.data_hmac(black_box(&plain), LineAddr(i), i, 3));
        }
        hmac.push(t.elapsed().as_nanos() as f64 / N as f64);
        let t = Instant::now();
        for i in 0..N {
            black_box(engine.encrypt_line(black_box(&plain), LineAddr(i), i, 3));
        }
        aes.push(t.elapsed().as_nanos() as f64 / N as f64);
    }
    CryptoCost {
        tier,
        mode,
        ns_per_hmac: median(&hmac),
        ns_per_aes: median(&aes),
    }
}

/// The sinks whose overhead is measured one at a time, by metric name.
pub const SINKS: [&str; 7] = [
    "recorder", "profiler", "metrics", "auditor", "flight", "wear", "lag",
];

fn attach(mem: &mut SecureMemory, sink: &str) {
    match sink {
        "recorder" => mem.attach_recorder(RecorderConfig::default()),
        "profiler" => mem.attach_profiler(),
        "metrics" => mem.attach_metrics(MetricsConfig::default()),
        "auditor" => mem.attach_auditor(AuditMode::Record),
        "flight" => mem.attach_flight(FlightConfig::default()),
        "wear" => mem.attach_wear(),
        "lag" => mem.attach_lag(),
        _ => unreachable!("unknown sink {sink}"),
    }
}

/// Wall time of `profile` on cc-NVM with each sink of [`SINKS`]
/// attached alone, divided by the same point detached, in memory.
/// Rounds interleave the configurations; each ratio is of the best
/// round of each, for the reason `point_best` in `main.rs` gives.
pub fn sink_overheads(profile: &WorkloadProfile, seed: u64, out: &mut Outcome) -> Vec<f64> {
    let mut samples = vec![Vec::new(); SINKS.len() + 1];
    for _ in 0..5 {
        for (i, s) in samples.iter_mut().enumerate() {
            let mut sim =
                Simulator::new(SimConfig::paper(DesignKind::CcNvm)).expect("paper config is valid");
            if i > 0 {
                attach(sim.memory_mut(), SINKS[i - 1]);
            }
            let trace = TraceGenerator::new(profile.clone(), seed);
            let t = Instant::now();
            let result = sim.run(trace, PROBE_INSTRUCTIONS);
            s.push(t.elapsed().as_secs_f64());
            out.check(result.is_ok(), || {
                format!("sink probe {}: {result:?}", profile.name)
            });
        }
    }
    let best = |s: &Vec<f64>| s.iter().copied().fold(f64::MAX, f64::min);
    let detached = best(&samples[0]);
    samples[1..].iter().map(|s| best(s) / detached).collect()
}
