//! The traced run's core loop: `Simulator::step` replayed through the
//! public `SetAssocCache` and `SecureMemory` API, so the calls into the
//! secure-memory layers can be timed one by one.
//!
//! The replay must stay equal to `ccnvm::sim::Simulator` — cycles,
//! instructions, both stall totals and every `RunStats` counter — or
//! the per-layer split would describe a different program. The
//! benchmark compares the two on every point and counts a mismatch as
//! a failed operation.

use crate::timed::{BackendCounts, BackendTally};
use ccnvm::config::SimConfig;
use ccnvm::error::{ConfigError, IntegrityError};
use ccnvm::secmem::SecureMemory;
use ccnvm::sim::Simulator;
use ccnvm::stats::RunStats;
use ccnvm_mem::cache::SetAssocCache;
use ccnvm_mem::{Cycle, DurableBackend, LineAddr};
use ccnvm_trace::{OpKind, TraceOp};
use std::sync::Arc;
use std::time::Instant;

/// What both the untraced simulator and the traced replay offer the
/// workload loop.
pub trait Stepper {
    /// Executes one trace operation.
    ///
    /// # Errors
    ///
    /// The [`IntegrityError`] the secure paths raise.
    fn step(&mut self, op: &TraceOp) -> Result<(), IntegrityError>;
    /// Instructions retired so far.
    fn instructions(&self) -> u64;
    /// The secure memory below the caches.
    fn memory(&self) -> &SecureMemory;
    /// Mutable access to the secure memory (sink attach and take).
    fn memory_mut(&mut self) -> &mut SecureMemory;
    /// Core- and memory-side statistics so far.
    fn stats(&self) -> RunStats;
    /// The spans taken so far, if this stepper takes any.
    fn take_times(&mut self) -> Option<LayerTimes> {
        None
    }
}

impl Stepper for Simulator {
    fn step(&mut self, op: &TraceOp) -> Result<(), IntegrityError> {
        Simulator::step(self, op)
    }
    fn instructions(&self) -> u64 {
        Simulator::instructions(self)
    }
    fn memory(&self) -> &SecureMemory {
        Simulator::memory(self)
    }
    fn memory_mut(&mut self) -> &mut SecureMemory {
        Simulator::memory_mut(self)
    }
    fn stats(&self) -> RunStats {
        Simulator::stats(self)
    }
}

/// Host time of the secure-memory calls of one traced point, already
/// net of the backend calls nested inside them and of those nested
/// spans' timer cost.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Self ns of each `read_data` call.
    pub verify_ns: Vec<f64>,
    /// Self ns of each `write_back` call that ran no drain.
    pub writepath_ns: Vec<f64>,
    /// Self ns of the `write_back` calls during which a drain ran.
    pub epoch_ns: f64,
    /// Drains those calls ran.
    pub epoch_drains: u64,
    /// Top-level spans taken (every `read_data` and `write_back`).
    pub spans: u64,
    /// Raw ns inside top-level spans, children included.
    pub spans_raw_ns: u64,
    /// Backend calls timed inside the top-level spans.
    pub backend: BackendCounts,
}

/// `Simulator::step`, rebuilt from the public cache and secure-memory
/// API with a span around each `read_data` and `write_back`.
#[derive(Debug)]
pub struct Replay {
    l1: SetAssocCache<()>,
    l2: SetAssocCache<()>,
    mem: SecureMemory,
    config: SimConfig,
    data_lines: u64,
    cycles: Cycle,
    instructions: u64,
    carry: u64,
    read_stall: u64,
    wb_stall: u64,
    tally: Arc<BackendTally>,
    span_ns: f64,
    times: LayerTimes,
}

impl Replay {
    /// A replay of `config` over `backend`, whose calls `tally` times;
    /// `span_ns` is the calibrated cost of one span.
    ///
    /// # Errors
    ///
    /// The configuration error `SecureMemory::with_backend` reports.
    pub fn new(
        config: SimConfig,
        backend: Box<dyn DurableBackend>,
        tally: Arc<BackendTally>,
        span_ns: f64,
    ) -> Result<Self, ConfigError> {
        let mem = SecureMemory::with_backend(config.clone(), backend)?;
        Ok(Self {
            l1: SetAssocCache::new(config.l1),
            l2: SetAssocCache::new(config.l2),
            data_lines: mem.layout().data_lines(),
            mem,
            config,
            cycles: 0,
            instructions: 0,
            carry: 0,
            read_stall: 0,
            wb_stall: 0,
            tally,
            span_ns,
            times: LayerTimes::default(),
        })
    }

    /// Starts a span: the backend tally and the clock.
    fn open(&self) -> (BackendCounts, Instant) {
        (self.tally.counts(), Instant::now())
    }

    /// Ends a span: returns its self ns (raw, minus nested backend time
    /// and the timer cost of the nested backend spans).
    fn close(&mut self, (before, start): (BackendCounts, Instant)) -> f64 {
        let raw = start.elapsed().as_nanos() as u64;
        let nested = self.tally.counts().since(before);
        self.times.spans += 1;
        self.times.spans_raw_ns += raw;
        self.times.backend.add(nested);
        (raw as f64 - nested.total_ns as f64 - nested.spans as f64 * self.span_ns).max(0.0)
    }

    fn l2_fill(&mut self, line: LineAddr) -> Result<(), IntegrityError> {
        let l2 = self.l2.access(line, false);
        if l2.is_hit() {
            self.cycles += self.config.l2_hit_cycles;
            return Ok(());
        }
        if let Some(victim) = l2.evicted {
            if victim.dirty {
                self.write_back(victim.addr)?;
            }
        }
        let now = self.cycles;
        let span = self.open();
        let done = self.mem.read_data(line, now);
        let ns = self.close(span);
        self.times.verify_ns.push(ns);
        let penalty = done?.saturating_sub(now + self.config.hide_cycles);
        self.cycles += penalty;
        self.read_stall += penalty;
        Ok(())
    }

    fn write_back(&mut self, line: LineAddr) -> Result<(), IntegrityError> {
        let now = self.cycles;
        let drains = self.mem.stats().drains;
        let span = self.open();
        let release = self.mem.write_back(line, now);
        let ns = self.close(span);
        let drained = self.mem.stats().drains - drains;
        if drained > 0 {
            self.times.epoch_ns += ns;
            self.times.epoch_drains += drained;
        } else {
            self.times.writepath_ns.push(ns);
        }
        let stall = release?.saturating_sub(now);
        self.cycles += stall;
        self.wb_stall += stall;
        Ok(())
    }
}

impl Stepper for Replay {
    fn step(&mut self, op: &TraceOp) -> Result<(), IntegrityError> {
        self.instructions += op.instrs();
        let total = op.instrs() + self.carry;
        self.cycles += total / self.config.issue_width;
        self.carry = total % self.config.issue_width;
        let line = LineAddr(op.addr.line().0 % self.data_lines);
        let l1 = self.l1.access(line, op.kind == OpKind::Write);
        if l1.is_hit() {
            self.cycles += self.config.l1_hit_cycles;
            return Ok(());
        }
        self.l2_fill(line)?;
        if let Some(victim) = l1.evicted {
            if victim.dirty {
                // The L1 victim lands in L2 as a full-line install.
                let r = self.l2.access(victim.addr, true);
                if let Some(l2_victim) = r.evicted {
                    if l2_victim.dirty {
                        self.write_back(l2_victim.addr)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn instructions(&self) -> u64 {
        self.instructions
    }

    fn memory(&self) -> &SecureMemory {
        &self.mem
    }

    fn memory_mut(&mut self) -> &mut SecureMemory {
        &mut self.mem
    }

    fn stats(&self) -> RunStats {
        let mut s = self.mem.stats();
        s.instructions = self.instructions;
        s.cycles = self.cycles;
        s.read_stall_cycles = self.read_stall;
        s.wb_stall_cycles = self.wb_stall;
        (s.l1_hits, s.l1_misses) = self.l1.hit_miss();
        (s.l2_hits, s.l2_misses) = self.l2.hit_miss();
        s
    }

    fn take_times(&mut self) -> Option<LayerTimes> {
        Some(std::mem::take(&mut self.times))
    }
}
