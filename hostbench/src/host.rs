//! What the host is: CPU, cores, crypto tier, store filesystem, memory.

use std::path::Path;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The CPU model name, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Whether `dir` lies on a tmpfs mount (the longest mount point that
/// prefixes its canonical path decides).
pub fn on_tmpfs(dir: &Path) -> bool {
    let Ok(path) = dir.canonicalize() else {
        return false;
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return false;
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fstype == "tmpfs"))
        })
        .max_by_key(|&(len, _)| len)
        .is_some_and(|(_, tmpfs)| tmpfs)
}

/// One line describing the host, for the benchmark's stderr log.
pub fn descriptor(store: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"cpu\": \"{}\", \"nproc\": {nproc}, \"crypto_tier\": \"{}\", \"store_tmpfs\": {}}}",
        cpu_model().replace('"', "'"),
        ccnvm_crypto::CryptoTier::detect(),
        on_tmpfs(store)
    )
}
