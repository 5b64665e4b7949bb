//! Metric names, sample statistics and the one-line JSON result.

use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, reported with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_mips.wo-cc", "Minstr/s"),
    ("sim_mips.sc", "Minstr/s"),
    ("sim_mips.osiris-plus", "Minstr/s"),
    ("sim_mips.ccnvm-no-ds", "Minstr/s"),
    ("sim_mips.ccnvm", "Minstr/s"),
    ("ipc_gain_err_pp", "pp"),
    ("write_overhead_err_pp", "pp"),
    ("recover_ms_p50", "ms"),
    ("recover_ms_p90", "ms"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.host_s", "s"),
    ("trace.ns_per_op", "ns"),
    ("trace.ops", "count"),
    ("sim.self_s", "s"),
    ("sim.ns_per_op", "ns"),
    ("cache.l1_hits", "count"),
    ("cache.l1_misses", "count"),
    ("cache.l2_hits", "count"),
    ("cache.l2_misses", "count"),
    ("verify.calls", "count"),
    ("verify.self_s", "s"),
    ("verify.ns_p50", "ns"),
    ("verify.ns_p99", "ns"),
    ("writepath.calls", "count"),
    ("writepath.self_s", "s"),
    ("writepath.ns_p50", "ns"),
    ("writepath.ns_p99", "ns"),
    ("epoch.drains", "count"),
    ("epoch.drains_queue_full", "count"),
    ("epoch.drains_evict", "count"),
    ("epoch.drains_update_limit", "count"),
    ("epoch.self_s", "s"),
    ("epoch.ns_per_drain", "ns"),
    ("metacache.hits", "count"),
    ("metacache.misses", "count"),
    ("metacache.hit_rate", "ratio"),
    ("crypto.hmacs", "count"),
    ("crypto.aes_ops", "count"),
    ("crypto.hmacs_per_wb", "ratio"),
    ("crypto.ns_per_hmac", "ns"),
    ("crypto.ns_per_aes", "ns"),
    ("crypto.est_s", "s"),
    ("controller.nvm_reads", "count"),
    ("controller.data_writes", "count"),
    ("controller.dh_writes", "count"),
    ("controller.meta_writes", "count"),
    ("controller.reenc_writes", "count"),
    ("controller.writes_pki", "1/kinstr"),
    ("core.cpi_read_stall", "cycles/instr"),
    ("core.cpi_wb_stall", "cycles/instr"),
    ("backend.store_calls", "count"),
    ("backend.commit_calls", "count"),
    ("backend.sync_calls", "count"),
    ("backend.flight_appends", "count"),
    ("backend.self_s", "s"),
    ("backend.ns_per_store", "ns"),
    ("backend.ns_per_commit", "ns"),
    ("backend.fsyncs", "count"),
    ("backend.appends", "count"),
    ("backend.bytes_written", "bytes"),
    ("backend.compactions", "count"),
    ("backend.reopen_ms", "ms"),
    ("backend.replayed_records", "count"),
    ("crash.image_ms", "ms"),
    ("recovery.self_s", "s"),
    ("recovery.counter_lines", "count"),
    ("recovery.data_lines", "count"),
    ("recovery.total_retries", "count"),
    ("obs.recorder.overhead_x", "x"),
    ("obs.profiler.overhead_x", "x"),
    ("obs.metrics.overhead_x", "x"),
    ("obs.auditor.overhead_x", "x"),
    ("obs.flight.overhead_x", "x"),
    ("obs.wear.overhead_x", "x"),
    ("obs.lag.overhead_x", "x"),
    ("obs.export_s", "s"),
    ("obs.recorder.events", "count"),
    ("obs.recorder.dropped", "count"),
    ("tracing.overhead_x", "x"),
    ("tracing.ns_per_span", "ns"),
];

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A percentile that was asked of too few samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples available.
    pub have: usize,
    /// Samples the percentile needs.
    pub need: usize,
}

/// Samples needed before the `p`-th percentile has at least ten
/// samples beyond it (p50 → 20, p90 → 100, p99 → 1000).
pub fn samples_needed(p: f64) -> usize {
    (10.0 / (1.0 - p / 100.0)).round() as usize
}

/// Nearest-rank `p`-th percentile of `samples`, refused unless at
/// least ten samples lie beyond it.
///
/// # Errors
///
/// [`TooFewSamples`] when `samples` holds fewer than
/// [`samples_needed`]`(p)` values.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    let need = samples_needed(p);
    if samples.len() < need {
        return Err(TooFewSamples {
            have: samples.len(),
            need,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
    Ok(sorted[rank - 1])
}

/// Median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every median in this benchmark is taken
/// over at least one measured pass.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Geometric mean (the paper's Figure 5(a) average).
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The benchmark's result: every metric of one set, plus operation
/// counts.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations run (simulated points, recoveries, checks).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// `(name, value)` in emission order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`; a failure is also
    /// described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Renders the result line against the metric set `expected`.
    ///
    /// # Errors
    ///
    /// Names a metric that is missing, unexpected, repeated or not a
    /// finite number: a benchmark bug, never a program result.
    pub fn to_json(&self, expected: &[(&str, &str)]) -> Result<String, String> {
        for (name, value) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            if !expected.iter().any(|(n, _)| n == name) {
                return Err(format!("metric {name} is not in the reported set"));
            }
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in expected.iter().enumerate() {
            let mut found = self.metrics.iter().filter(|(n, _)| n == name);
            let value = match (found.next(), found.next()) {
                (Some((_, v)), None) => *v,
                (None, _) => return Err(format!("metric {name} was not measured")),
                (Some(_), Some(_)) => return Err(format!("metric {name} measured twice")),
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        ))
    }
}
