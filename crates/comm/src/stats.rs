//! Per-rank communication counters.
//!
//! Every [`crate::Ctx`] accumulates a [`CommStats`] — sent message and
//! byte counts, collective entries, injected faults and the overlap
//! clocks — surfaced per rank by
//! [`crate::RunReport::stats`]. Their readers: chaos tests asserting
//! that injected faults actually happened (drops, delays),
//! `kernel_bench`'s overlap gate (`overlap_hidden_ns` against
//! `overlap_wait_ns`), the `lra-serve` scrape (`comm.bytes.*`,
//! `comm.overlap.*` through [`CommStats::export_metrics`]) and the
//! repository benchmark's `comm.*` rows.

/// Approximate wire size of a message, in bytes.
///
/// The blanket implementation reports the shallow `size_of_val`, which
/// is exact for plain-old-data messages and a documented *lower bound*
/// for heap-owning payloads (`Vec`, matrices): stable Rust has no
/// specialization, so a deep-size override per type cannot coexist
/// with a blanket default. Counters built on this are therefore
/// reliable for message *counts* and comparative traffic shape, not
/// exact byte volumes.
pub trait MessageSize {
    /// Approximate size in bytes (default: shallow `size_of_val`).
    fn message_size(&self) -> usize {
        std::mem::size_of_val(self)
    }
}

impl<T> MessageSize for T {}

/// Logical collective families whose wire traffic is attributed
/// separately in [`CommStats::bytes_on_wire`]. Nonblocking posts
/// (`alltoallv.post` etc.) attribute to their base family, so one
/// re-shard counts as `alltoallv` whether posted or not.
pub(crate) const COLLECTIVE_FAMILIES: [&str; 6] = [
    "barrier",
    "broadcast",
    "allgather",
    "allreduce",
    "gatherv",
    "alltoallv",
];

/// Index of a collective span name in [`COLLECTIVE_FAMILIES`], keyed
/// by the base family (`"alltoallv.post"` → `"alltoallv"`).
pub(crate) fn family_index(name: &str) -> Option<usize> {
    let base = name.split('.').next().unwrap_or(name);
    COLLECTIVE_FAMILIES.iter().position(|f| *f == base)
}

/// Communication counters for one rank over one [`crate::run_with`]
/// execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Point-to-point and collective messages enqueued by this rank
    /// (messages dropped by a [`crate::FaultPlan`] are *not* counted
    /// here — see [`CommStats::fault_dropped`]).
    pub msgs_sent: u64,
    /// Bytes enqueued, per [`MessageSize`].
    pub bytes_sent: u64,
    /// Collective operations entered (barrier, broadcast, allgather,
    /// allreduce, gatherv, alltoallv and its post).
    pub collectives: u64,
    /// Total communication operations (sends + receives + collective
    /// entries) — the op counter chaos kills index into.
    pub ops: u64,
    /// Last algorithm iteration announced via
    /// [`crate::Ctx::begin_iteration`] (0 when the program never calls
    /// it) — the counter [`crate::FaultPlan::kill_rank_at_iteration`]
    /// indexes into.
    pub iterations: u64,
    /// Messages silently dropped by the fault plan.
    pub fault_dropped: u64,
    /// Deliveries delayed by the fault plan.
    pub fault_delayed: u64,
    /// Iteration announcements stalled by the fault plan (the
    /// timeout-injection hook [`crate::FaultPlan::stall_rank_once_at_iteration`]).
    pub fault_stalled: u64,
    /// Bytes enqueued from inside each collective family, in the order
    /// barrier, broadcast, allgather, allreduce, gatherv, alltoallv.
    /// Point-to-point sends outside any collective are counted in
    /// [`CommStats::bytes_sent`] only.
    pub bytes_on_wire: [u64; 6],
    /// Nonblocking exchanges posted via [`crate::Ctx::post_alltoallv`].
    pub overlap_posted: u64,
    /// Nanoseconds of compute run between posting a nonblocking
    /// exchange and entering its completion barrier — the window the
    /// wire had to drain behind useful work.
    pub overlap_hidden_ns: u64,
    /// Nanoseconds spent *blocked* draining receives inside
    /// [`crate::PendingExchange::complete`] (or `complete_with`),
    /// i.e. wire time the overlap failed to hide.
    pub overlap_wait_ns: u64,
}

impl CommStats {
    /// Feed this rank's counters into a [`lra_obs::MetricsRegistry`]
    /// under `comm.rank{rank}.*`, plus the cross-rank `comm.bytes.*` /
    /// `comm.overlap.hidden_ns` series the `lra-serve` scrape renders
    /// (call once per rank of a [`crate::RunReport`]).
    pub fn export_metrics(&self, reg: &lra_obs::MetricsRegistry, rank: usize) {
        let counters: [(&str, u64); 11] = [
            ("iterations", self.iterations),
            ("msgs_sent", self.msgs_sent),
            ("bytes_sent", self.bytes_sent),
            ("collectives", self.collectives),
            ("ops", self.ops),
            ("fault_dropped", self.fault_dropped),
            ("fault_delayed", self.fault_delayed),
            ("fault_stalled", self.fault_stalled),
            ("overlap_posted", self.overlap_posted),
            ("overlap_hidden_ns", self.overlap_hidden_ns),
            ("overlap_wait_ns", self.overlap_wait_ns),
        ];
        for (name, value) in counters {
            reg.inc_counter(&format!("comm.rank{rank}.{name}"), value);
        }
        // Per-collective wire traffic: `comm.bytes.<family>` accumulates
        // across ranks (counters add), matching the scrape contract.
        for (i, family) in COLLECTIVE_FAMILIES.iter().enumerate() {
            if self.bytes_on_wire[i] > 0 {
                reg.inc_counter(&format!("comm.bytes.{family}"), self.bytes_on_wire[i]);
            }
        }
        // Aggregate hidden-window gauge: accumulate across the ranks of
        // one report (gauges overwrite, so fold in the previous value).
        let prev = match reg.get("comm.overlap.hidden_ns") {
            Some(lra_obs::MetricValue::Gauge(g)) => g,
            _ => 0.0,
        };
        reg.set_gauge(
            "comm.overlap.hidden_ns",
            prev + self.overlap_hidden_ns as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shallow_sizes() {
        assert_eq!(7u64.message_size(), 8);
        assert_eq!((1u32, 2u32).message_size(), 8);
        // Shallow: a Vec reports its header, not its heap (documented
        // lower bound).
        let v = vec![0f64; 100];
        assert_eq!(v.message_size(), std::mem::size_of::<Vec<f64>>());
    }

    #[test]
    fn default_is_zeroed() {
        let s = CommStats::default();
        assert_eq!(s.msgs_sent, 0);
    }

    #[test]
    fn export_metrics_writes_per_rank() {
        let reg = lra_obs::MetricsRegistry::new();
        let a = CommStats {
            msgs_sent: 3,
            bytes_sent: 24,
            ..CommStats::default()
        };
        let b = CommStats {
            msgs_sent: 1,
            bytes_sent: 8,
            ..CommStats::default()
        };
        a.export_metrics(&reg, 0);
        b.export_metrics(&reg, 1);
        use lra_obs::MetricValue;
        assert_eq!(
            reg.get("comm.rank0.msgs_sent"),
            Some(MetricValue::Counter(3))
        );
        assert_eq!(
            reg.get("comm.rank1.msgs_sent"),
            Some(MetricValue::Counter(1))
        );
        assert_eq!(
            reg.get("comm.rank0.bytes_sent"),
            Some(MetricValue::Counter(24))
        );
    }

    #[test]
    fn family_index_strips_subspan_suffix() {
        assert_eq!(family_index("alltoallv"), Some(5));
        assert_eq!(family_index("alltoallv.post"), Some(5));
        assert_eq!(family_index("gatherv"), Some(4));
        assert_eq!(family_index("not_a_collective"), None);
    }

    #[test]
    fn export_metrics_writes_bytes_and_overlap_series() {
        let reg = lra_obs::MetricsRegistry::new();
        let mut a = CommStats::default();
        a.bytes_on_wire[family_index("alltoallv").unwrap()] = 100;
        a.overlap_posted = 2;
        a.overlap_hidden_ns = 5_000;
        let mut b = CommStats::default();
        b.bytes_on_wire[family_index("alltoallv").unwrap()] = 50;
        b.bytes_on_wire[family_index("gatherv").unwrap()] = 7;
        b.overlap_hidden_ns = 1_000;
        a.export_metrics(&reg, 0);
        b.export_metrics(&reg, 1);
        use lra_obs::MetricValue;
        assert_eq!(
            reg.get("comm.bytes.alltoallv"),
            Some(MetricValue::Counter(150))
        );
        assert_eq!(reg.get("comm.bytes.gatherv"), Some(MetricValue::Counter(7)));
        assert_eq!(reg.get("comm.bytes.barrier"), None, "zero families elided");
        assert_eq!(
            reg.get("comm.rank0.overlap_posted"),
            Some(MetricValue::Counter(2))
        );
        assert_eq!(
            reg.get("comm.overlap.hidden_ns"),
            Some(MetricValue::Gauge(6_000.0))
        );
    }
}
