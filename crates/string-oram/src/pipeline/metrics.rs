//! Stage 5 — **Attribute** — plus measurement windows and report assembly.
//!
//! [`Metrics`] owns the per-cycle attribution counters; [`CounterSnapshot`]
//! freezes *every* counter in the system (pipeline, backend, protocol) into
//! one value, so a measurement window is simply `now.delta(&start)` — the
//! single subtraction path both `begin_measurement` and whole-run reports
//! share. [`build_report`] turns one (possibly windowed) snapshot into a
//! [`SimReport`].

use std::collections::BTreeMap;

use dram_sim::power::{EnergyBreakdown, PowerParams};
use mem_sched::{BackendSnapshot, RowClass};
use ring_oram::{OpKind, ProtocolStats};

use crate::config::SystemConfig;
use crate::report::{KindCycles, LatencyPercentiles, ResilienceSummary, RowClassCounts, SimReport};

/// Every [`OpKind`], in the order of the per-kind counter array.
const OP_KINDS: [OpKind; 5] = [
    OpKind::ReadPath,
    OpKind::DummyReadPath,
    OpKind::Eviction,
    OpKind::EarlyReshuffle,
    OpKind::RetryRead,
];

/// Index of `kind` in [`OP_KINDS`].
fn kind_idx(kind: OpKind) -> usize {
    match kind {
        OpKind::ReadPath => 0,
        OpKind::DummyReadPath => 1,
        OpKind::Eviction => 2,
        OpKind::EarlyReshuffle => 3,
        OpKind::RetryRead => 4,
    }
}

/// The attribution counters the pipeline updates every cycle.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Cycle attribution by the oldest unfinished transaction's kind.
    pub cycles_by_kind: KindCycles,
    /// Row-buffer outcomes per operation kind, indexed by [`kind_idx`].
    /// Array-backed because one count folds in per completed request — a
    /// keyed map here costs a lookup on the hottest per-request path;
    /// [`Metrics::row_class_map`] materializes the report view on demand.
    row_class: [RowClassCounts; OP_KINDS.len()],
    /// Cycles during which the oldest in-flight transaction was a fault
    /// retry (the latency cost of recovery, reported separately).
    pub retry_cycles: u64,
    /// Completion latency of every program read path, in cycles from plan
    /// to data availability (for the latency percentiles in the report).
    pub read_latencies: Vec<u64>,
}

impl Metrics {
    /// Empty counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one cycle to `oldest` (the oldest unfinished transaction's
    /// kind; `None` = nothing in flight).
    pub fn attribute(&mut self, oldest: Option<OpKind>) {
        self.cycles_by_kind.add(oldest);
        if oldest == Some(OpKind::RetryRead) {
            self.retry_cycles += 1;
        }
    }

    /// Folds one completed request's row-buffer outcome into its kind's
    /// counts.
    pub fn record_class(&mut self, kind: OpKind, class: RowClass) {
        self.row_class[kind_idx(kind)].add(class);
    }

    /// The row-buffer outcomes per kind label, for snapshots and reports.
    /// Kinds that never completed a request are omitted (matching the
    /// lazily-populated map this view replaces).
    #[must_use]
    pub fn row_class_map(&self) -> BTreeMap<&'static str, RowClassCounts> {
        OP_KINDS
            .iter()
            .map(|&k| (k.label(), self.row_class[kind_idx(k)]))
            .filter(|(_, v)| v.total() > 0)
            .collect()
    }
}

/// A frozen copy of every counter in the system at one cycle: pipeline
/// attribution, transaction counts, protocol statistics and the full
/// [`BackendSnapshot`]. Both the measurement-window start and report
/// assembly use this one type; the window is [`CounterSnapshot::delta`].
#[derive(Debug, Clone)]
pub struct CounterSnapshot {
    /// Memory-bus cycles elapsed (after `delta`: window length).
    pub cycle: u64,
    /// Instructions retired across cores.
    pub instructions: u64,
    /// Program accesses planned.
    pub oram_accesses: u64,
    /// Cycle attribution by kind.
    pub cycles_by_kind: KindCycles,
    /// Transactions admitted, by kind label.
    pub transactions_by_kind: BTreeMap<&'static str, u64>,
    /// Row-buffer outcomes per kind.
    pub row_class_by_kind: BTreeMap<&'static str, RowClassCounts>,
    /// Retry-attributed cycles.
    pub retry_cycles: u64,
    /// Number of read-latency samples recorded so far (after `delta`: the
    /// window's first sample index — the samples themselves stay in
    /// [`Metrics::read_latencies`]).
    pub read_latency_idx: usize,
    /// Every backend counter (scheduler + optional DRAM).
    pub backend: BackendSnapshot,
    /// Protocol statistics of the data ORAM.
    pub protocol: ProtocolStats,
}

impl CounterSnapshot {
    /// Counter-wise difference `self - start`: the measurement window from
    /// `start` to `self`. `start` must be an earlier snapshot of the same
    /// simulation. `read_latency_idx` keeps `start`'s value (the window's
    /// slice origin).
    #[must_use]
    pub fn delta(&self, start: &Self) -> Self {
        let mut transactions_by_kind = self.transactions_by_kind.clone();
        for (k, v) in &start.transactions_by_kind {
            *transactions_by_kind.entry(k).or_default() -= v;
        }
        let mut row_class_by_kind = self.row_class_by_kind.clone();
        for (k, v) in &start.row_class_by_kind {
            let e = row_class_by_kind.entry(k).or_default();
            *e = e.delta(v);
        }
        Self {
            cycle: self.cycle - start.cycle,
            instructions: self.instructions - start.instructions,
            oram_accesses: self.oram_accesses - start.oram_accesses,
            cycles_by_kind: self.cycles_by_kind.delta(&start.cycles_by_kind),
            transactions_by_kind,
            row_class_by_kind,
            retry_cycles: self.retry_cycles - start.retry_cycles,
            read_latency_idx: start.read_latency_idx,
            backend: self.backend.delta(&start.backend),
            protocol: self.protocol.delta(&start.protocol),
        }
    }
}

/// Assembles the [`SimReport`] for one (possibly windowed) snapshot.
/// `latencies` is the window's slice of read-latency samples; `violations`
/// the rendered conformance findings. DRAM-level metrics (bank idleness,
/// energy, refresh counters) are zero when the backend has no DRAM model.
#[must_use]
pub fn build_report(
    cfg: &SystemConfig,
    label: String,
    window: &CounterSnapshot,
    latencies: &[u64],
    violations: Vec<String>,
) -> SimReport {
    let bank_idle = bank_idle_proportion(window);
    report_with_bank_idle(cfg, label, window, latencies, violations, bank_idle)
}

/// Mean share of `snap`'s own elapsed cycles its banks sat idle (zero
/// without a DRAM model).
fn bank_idle_proportion(snap: &CounterSnapshot) -> f64 {
    let dram = snap.backend.dram.as_ref();
    dram.map_or(0.0, |d| d.average_bank_idle_proportion(snap.cycle))
}

/// [`build_report`] with the bank idleness supplied: the one figure a
/// merged window cannot derive from its summed counters.
fn report_with_bank_idle(
    cfg: &SystemConfig,
    label: String,
    window: &CounterSnapshot,
    latencies: &[u64],
    violations: Vec<String>,
    bank_idle: f64,
) -> SimReport {
    let sched = &window.backend.sched;
    let elapsed = window.cycle;
    let (energy, refresh_storms, weak_row_stalls) = match &window.backend.dram {
        Some(d) => (
            dram_sim::power::energy(
                &PowerParams::ddr3_1600(),
                &d.timing,
                &d.stats,
                cfg.geometry.channels * cfg.geometry.ranks_per_channel,
                elapsed,
                sched.open_bank_fraction(),
                d.refreshes,
            ),
            d.refresh_storms,
            d.weak_row_stalls,
        ),
        None => (
            EnergyBreakdown {
                activate_uj: 0.0,
                read_uj: 0.0,
                write_uj: 0.0,
                background_uj: 0.0,
                refresh_uj: 0.0,
            },
            0,
            0,
        ),
    };
    let protocol = window.protocol.clone();
    let resilience = ResilienceSummary {
        faults_injected: protocol.faults_injected,
        faults_detected: protocol.faults_detected,
        fault_retries: protocol.fault_retries,
        faults_recovered: protocol.faults_recovered,
        faults_unrecovered: protocol.faults_unrecovered,
        degraded_entries: protocol.degraded_entries,
        degraded_exits: protocol.degraded_exits,
        background_escalations: protocol.background_escalations,
        retry_cycles: window.retry_cycles,
        responses_delayed: sched.responses_delayed,
        responses_dropped: sched.responses_dropped,
        queue_saturation_windows: sched.queue_saturation_windows,
        refresh_storms,
        weak_row_stalls,
    };
    SimReport {
        label,
        policy_name: cfg.sched_policy.name().to_string(),
        shards: 1,
        total_cycles: elapsed,
        makespan_cycles: elapsed,
        cycles_by_kind: window.cycles_by_kind,
        instructions: window.instructions,
        oram_accesses: window.oram_accesses,
        transactions_by_kind: window.transactions_by_kind.clone(),
        row_class_by_kind: window.row_class_by_kind.clone(),
        mean_read_queue_wait: sched.mean_read_queue_wait(),
        mean_write_queue_wait: sched.mean_write_queue_wait(),
        mean_queue_occupancy: sched.mean_queue_occupancy(),
        bank_idle_proportion: bank_idle,
        pending_bank_idle_proportion: sched.pending_bank_idle_proportion(),
        early_precharge_fraction: sched.early_precharge_fraction(),
        early_activate_fraction: sched.early_activate_fraction(),
        deferred_writes: sched.deferred_writes,
        withheld_issue_slots: sched.withheld_issue_slots,
        protocol,
        resilience,
        requests_completed: sched.reads_completed + sched.writes_completed,
        channel_imbalance: sched.channel_imbalance(),
        read_latency: LatencyPercentiles::from_samples(latencies),
        violations,
        energy,
        service: None,
    }
}

/// Folds per-shard whole-run snapshots (shard-id order) into one merged
/// snapshot: every counter sums; the backend and protocol layers merge via
/// their own disjoint-instance folds (the counter half of
/// [`build_merged_report`]).
///
/// # Panics
///
/// Panics on an empty slice (a sharded engine always has ≥ 1 shard).
#[must_use]
pub fn merge_snapshots(snaps: &[CounterSnapshot]) -> CounterSnapshot {
    let mut acc = snaps[0].clone();
    acc.read_latency_idx = 0;
    for s in &snaps[1..] {
        acc.cycle += s.cycle;
        acc.instructions += s.instructions;
        acc.oram_accesses += s.oram_accesses;
        acc.cycles_by_kind.read += s.cycles_by_kind.read;
        acc.cycles_by_kind.evict += s.cycles_by_kind.evict;
        acc.cycles_by_kind.reshuffle += s.cycles_by_kind.reshuffle;
        acc.cycles_by_kind.other += s.cycles_by_kind.other;
        for (k, v) in &s.transactions_by_kind {
            *acc.transactions_by_kind.entry(k).or_default() += v;
        }
        for (k, v) in &s.row_class_by_kind {
            let e = acc.row_class_by_kind.entry(k).or_default();
            e.hits += v.hits;
            e.misses += v.misses;
            e.conflicts += v.conflicts;
        }
        acc.retry_cycles += s.retry_cycles;
        acc.backend.merge_from(&s.backend);
        acc.protocol.merge_from(&s.protocol);
    }
    acc
}

/// Assembles the merged [`SimReport`] of a sharded engine from its
/// per-shard parts `(whole-run snapshot, read-latency samples, conformance
/// findings)`, given in shard-id order — never arrival order, so thread
/// interleaving cannot change the result. Extensive counters sum over
/// shards ([`merge_snapshots`]), means are recomputed from the summed raw
/// counters, latency percentiles from the pooled samples, findings are
/// prefixed `shard {s}:`, and `makespan_cycles` is the slowest shard's
/// clock. Callers append their own engine-level findings and summaries.
///
/// # Panics
///
/// Panics when `shards` is empty (a sharded engine always has ≥ 1 shard).
#[must_use]
pub fn build_merged_report<'a>(
    cfg: &SystemConfig,
    label: String,
    shards: impl IntoIterator<Item = (CounterSnapshot, &'a [u64], &'a [sim_verify::Violation])>,
) -> SimReport {
    let mut snapshots = Vec::new();
    let mut pooled = Vec::new();
    let mut violations = Vec::new();
    for (s, (snapshot, latencies, findings)) in shards.into_iter().enumerate() {
        snapshots.push(snapshot);
        pooled.extend_from_slice(latencies);
        violations.extend(findings.iter().map(|v| format!("shard {s}: {v}")));
    }
    let merged = merge_snapshots(&snapshots);
    // Bank idleness is a per-shard proportion over that shard's own
    // elapsed time; the merged value is the cycle-weighted mean, never a
    // recomputation against the summed clock (which would overstate
    // idleness by ~N by holding each bank to every shard's cycles). One
    // shard's mean is its own value, bit for bit.
    let bank_idle = match snapshots.as_slice() {
        [only] => bank_idle_proportion(only),
        _ if merged.cycle == 0 => 0.0,
        all => {
            let weighted = all
                .iter()
                .map(|snap| bank_idle_proportion(snap) * snap.cycle as f64);
            weighted.sum::<f64>() / merged.cycle as f64
        }
    };
    let mut report = report_with_bank_idle(cfg, label, &merged, &pooled, violations, bank_idle);
    report.shards = snapshots.len();
    report.makespan_cycles = snapshots.iter().map(|s| s.cycle).max().unwrap_or(0);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_buckets_and_retry_cycles() {
        let mut m = Metrics::new();
        m.attribute(Some(OpKind::ReadPath));
        m.attribute(Some(OpKind::RetryRead));
        m.attribute(None);
        assert_eq!(m.cycles_by_kind.read, 1);
        assert_eq!(m.cycles_by_kind.other, 2);
        assert_eq!(m.retry_cycles, 1);
    }

    #[test]
    fn record_class_folds_by_kind_label() {
        let mut m = Metrics::new();
        m.record_class(OpKind::ReadPath, RowClass::Conflict);
        m.record_class(OpKind::ReadPath, RowClass::Hit);
        m.record_class(OpKind::Eviction, RowClass::Miss);
        let map = m.row_class_map();
        assert_eq!(map["read"].total(), 2);
        assert_eq!(map["read"].conflicts, 1);
        assert_eq!(map["evict"].misses, 1);
        assert!(!map.contains_key("dummy-read"), "unseen kinds omitted");
    }
}
