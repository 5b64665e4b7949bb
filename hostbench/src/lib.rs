//! Host-time benchmark of the cc-NVM simulator.
//!
//! `hostbench --workload <fig5|resident|durable> --seed N --seconds S
//! --trace <0|1>` runs one workload for `S` seconds and prints, as its
//! last line, one JSON object with the operations attempted and failed
//! and either the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a separate traced run (`--trace 1`). See `README.md`.

pub mod host;
pub mod probe;
pub mod replay;
pub mod report;
pub mod timed;
pub mod workload;
