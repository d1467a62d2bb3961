//! Per-rank activity counters.

/// Counters a rank accumulates over its lifetime. Returned alongside the
/// closure result by [`crate::Universe::run`] so harnesses can report
/// message counts, volumes and the compute/communication time split.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Point-to-point messages sent (collective-internal traffic included).
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Point-to-point messages received.
    pub msgs_recv: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Allreduce operations completed.
    pub allreduces: u64,
    /// Broadcast operations completed.
    pub bcasts: u64,
    /// Barriers completed.
    pub barriers: u64,
    /// Simulated seconds charged as computation.
    pub compute_time: f64,
    /// Simulated seconds the clock advanced covering sender CPU overhead
    /// and the wire transfer — latency + bytes·G + injected in-flight
    /// penalties — of matched messages. The bandwidth/latency share of
    /// communication.
    pub transfer_time: f64,
    /// Simulated seconds the clock advanced while the matching message had
    /// not even departed yet — waiting on a slower peer. The
    /// load-imbalance share of waiting.
    pub idle_time: f64,
    /// Retransmissions this rank's transport performed after an injected
    /// drop or corruption.
    pub retries: u64,
    /// Injected message drops this rank observed (as the receiver).
    pub drops_seen: u64,
    /// Injected payload corruptions this rank detected via checksum.
    pub corruptions_seen: u64,
    /// Injected message delays this rank absorbed.
    pub delays_seen: u64,
    /// Simulated seconds spent on retransmission backoff.
    pub retry_time: f64,
    /// Extra simulated compute seconds charged by injected slowdowns.
    pub slowdown_time: f64,
}

impl CommStats {
    /// Merge another rank's counters into this one (for fleet summaries).
    pub fn merge(&mut self, other: &CommStats) {
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_recv += other.msgs_recv;
        self.bytes_recv += other.bytes_recv;
        self.allreduces += other.allreduces;
        self.bcasts += other.bcasts;
        self.barriers += other.barriers;
        self.compute_time += other.compute_time;
        self.transfer_time += other.transfer_time;
        self.idle_time += other.idle_time;
        self.retries += other.retries;
        self.drops_seen += other.drops_seen;
        self.corruptions_seen += other.corruptions_seen;
        self.delays_seen += other.delays_seen;
        self.retry_time += other.retry_time;
        self.slowdown_time += other.slowdown_time;
    }

    /// Total injected transport faults this rank survived (drops detected,
    /// corruptions caught, delays absorbed).
    pub fn transport_faults(&self) -> u64 {
        self.drops_seen + self.corruptions_seen + self.delays_seen
    }

    /// Total simulated seconds this rank's clock advanced while waiting on
    /// messages: wire transfer plus peer-imbalance idle time.
    pub fn comm_time(&self) -> f64 {
        self.transfer_time + self.idle_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = CommStats {
            msgs_sent: 1,
            bytes_sent: 10,
            msgs_recv: 2,
            bytes_recv: 20,
            allreduces: 3,
            bcasts: 4,
            barriers: 5,
            compute_time: 0.5,
            transfer_time: 0.1875,
            idle_time: 0.0625,
            retries: 6,
            drops_seen: 2,
            corruptions_seen: 1,
            delays_seen: 3,
            retry_time: 0.125,
            slowdown_time: 0.0625,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.msgs_sent, 2);
        assert_eq!(a.bytes_recv, 40);
        assert_eq!(a.barriers, 10);
        assert!((a.compute_time - 1.0).abs() < 1e-15);
        assert!((a.transfer_time - 0.375).abs() < 1e-15);
        assert!((a.idle_time - 0.125).abs() < 1e-15);
        assert!((a.comm_time() - 0.5).abs() < 1e-15);
        assert_eq!(a.retries, 12);
        assert_eq!(a.transport_faults(), 12);
        assert!((a.retry_time - 0.25).abs() < 1e-15);
        assert!((a.slowdown_time - 0.125).abs() < 1e-15);
    }
}
