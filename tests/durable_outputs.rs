//! Byte-identity pin for the durable observability path: every design
//! runs 200k instructions of `mixed` on the small configuration over a
//! file store (fsync every 4096 records, flight sidecar) with all seven
//! sinks attached. How the sinks build their entries may change; the
//! bytes the run leaves, on disk and in the sinks, may not.

use ccnvm::obs::audit::AuditMode;
use ccnvm::obs::flight::FlightConfig;
use ccnvm::obs::metrics::MetricsConfig;
use ccnvm::obs::RecorderConfig;
use ccnvm::prelude::*;
use ccnvm_mem::file::{FileBackendConfig, FsyncStrategy};
use ccnvm_mem::FileBackend;
use std::path::{Path, PathBuf};

/// Per design: the checksums with the default compaction threshold,
/// then without compaction.
const PINNED: [(DesignKind, [u64; 6], [u64; 6]); 5] = [
    (
        DesignKind::WithoutCc,
        [
            0xcbf2_9ce4_8422_2325,
            0x5cf2_b053_e331_5196,
            0x975c_f653_7660_ed51,
            0xdc69_6c42_6fc9_7e61,
            0xaef1_4b58_8a8f_de25,
            0xa1e2_c80b_1558_ce85,
        ],
        [
            0xfe26_148b_4df3_19f3,
            0xcbf2_9ce4_8422_2325,
            0x161c_1a14_4a7a_ca1f,
            0xdc69_6c42_6fc9_7e61,
            0xaef1_4b58_8a8f_de25,
            0xa1e2_c80b_1558_ce85,
        ],
    ),
    (
        DesignKind::StrictConsistency,
        [
            0xcbf2_9ce4_8422_2325,
            0xea61_0940_02e1_5687,
            0x975c_f653_7660_ed51,
            0xf424_7c4c_a8d5_e192,
            0x7288_5adb_91c8_e00e,
            0x60f0_c050_6939_06f0,
        ],
        [
            0xd408_7306_cba7_d63c,
            0xcbf2_9ce4_8422_2325,
            0x7ff8_5357_b55e_3422,
            0xf424_7c4c_a8d5_e192,
            0x7288_5adb_91c8_e00e,
            0x60f0_c050_6939_06f0,
        ],
    ),
    (
        DesignKind::OsirisPlus,
        [
            0xcbf2_9ce4_8422_2325,
            0xecf9_49f0_eab9_ccbc,
            0x975c_f653_7660_ed51,
            0x29ba_010e_e2c9_90a5,
            0xc27f_30e3_74e1_96c3,
            0x6d79_a035_1d45_c2a2,
        ],
        [
            0x5077_4ca9_fbef_5476,
            0xcbf2_9ce4_8422_2325,
            0x2e08_d127_b087_7c8c,
            0x29ba_010e_e2c9_90a5,
            0xc27f_30e3_74e1_96c3,
            0x6d79_a035_1d45_c2a2,
        ],
    ),
    (
        DesignKind::CcNvmNoDs,
        [
            0xcbf2_9ce4_8422_2325,
            0xad66_e621_3ceb_f09d,
            0x975c_f653_7660_ed51,
            0x0d59_e7a9_f5d3_572a,
            0x896a_90f2_e758_6608,
            0x1932_329e_dc15_23c4,
        ],
        [
            0x87c4_522d_ff5e_7020,
            0xcbf2_9ce4_8422_2325,
            0xf1c7_a345_98be_8da6,
            0x0d59_e7a9_f5d3_572a,
            0x896a_90f2_e758_6608,
            0x1932_329e_dc15_23c4,
        ],
    ),
    (
        DesignKind::CcNvm,
        [
            0xcbf2_9ce4_8422_2325,
            0xe0bb_7f84_497d_78a2,
            0x975c_f653_7660_ed51,
            0xb519_9f12_da2e_bf4c,
            0x24ee_c436_0c72_2dfe,
            0xdd63_6a09_5803_ff98,
        ],
        [
            0x78ad_fc84_91c9_a59b,
            0xcbf2_9ce4_8422_2325,
            0xd9ce_66d0_61d2_4b07,
            0xb519_9f12_da2e_bf4c,
            0x24ee_c436_0c72_2dfe,
            0xdd63_6a09_5803_ff98,
        ],
    ),
];

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ccnvm-it-durable-{tag}-{}", std::process::id()))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Checksum of a store file; a file the run never created reads as
/// empty.
fn file_sum(dir: &Path, name: &str) -> u64 {
    fnv1a(&std::fs::read(dir.join(name)).unwrap_or_default())
}

/// Checksums of one design's durable run, in the order commit.log,
/// manifest, flight.log, flight ring, metrics JSONL, metrics CSV.
///
/// With the default compaction threshold (what the host-time benchmark
/// runs) every 4096-record flush is followed by a compaction, so the
/// run leaves a manifest and a rotated, nearly empty log and sidecar.
/// Without compaction the log and the sidecar keep every flushed
/// record and flight frame.
fn durable_sums(design: DesignKind, compact: bool) -> [u64; 6] {
    let dir = temp_dir(&format!("{}-{compact}", design.slug()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let store = FileBackend::open(
        &dir,
        FileBackendConfig {
            fsync: FsyncStrategy::Batch(4096),
            flight: true,
            compact_threshold: if compact {
                FileBackendConfig::default().compact_threshold
            } else {
                u64::MAX
            },
        },
    )
    .unwrap();
    let mut sim = Simulator::with_backend(SimConfig::small(design), Box::new(store)).unwrap();
    let mem = sim.memory_mut();
    mem.attach_recorder(RecorderConfig::default());
    mem.attach_profiler();
    mem.attach_metrics(MetricsConfig::default());
    mem.attach_flight(FlightConfig::default());
    mem.attach_wear();
    mem.attach_lag();
    mem.attach_auditor(AuditMode::Record);
    let trace = TraceGenerator::new(profiles::mixed(), 42);
    sim.run(trace, 200_000).unwrap();
    sim.flush_caches().unwrap();

    let mem = sim.memory_mut();
    assert!(
        mem.auditor().unwrap().violations().is_empty(),
        "{design:?}: auditor reported violations"
    );
    let metrics = mem.take_metrics().unwrap();
    let flight = mem.take_flight().unwrap();
    drop(sim);

    let ring: String = flight.entries().flat_map(|e| [e, "\n"]).collect();
    let mut jsonl = Vec::new();
    metrics.write_jsonl(&mut jsonl).unwrap();
    let mut csv = Vec::new();
    metrics.write_csv(&mut csv).unwrap();
    let sums = [
        file_sum(&dir, "commit.log"),
        file_sum(&dir, "manifest"),
        file_sum(&dir, "flight.log"),
        fnv1a(ring.as_bytes()),
        fnv1a(&jsonl),
        fnv1a(&csv),
    ];
    std::fs::remove_dir_all(&dir).unwrap();
    sums
}

#[test]
fn durable_outputs_match_pinned_checksums() {
    for (design, compacted, uncompacted) in PINNED {
        for (compact, want) in [(true, compacted), (false, uncompacted)] {
            let got = durable_sums(design, compact);
            assert_eq!(
                got, want,
                "{design:?} (compaction {compact}) diverged: {got:#018x?}"
            );
        }
    }
}
