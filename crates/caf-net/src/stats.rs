//! Lock-free fabric traffic counters, used by benches and ablations.

use std::sync::atomic::{AtomicU64, Ordering};

/// Aggregate counters for one fabric instance. All methods are safe to
/// call concurrently; counts are monotone.
#[derive(Debug, Default)]
pub struct FabricStats {
    messages: AtomicU64,
    bytes: AtomicU64,
    backpressure_stalls: AtomicU64,
    delivered: AtomicU64,
    wire_drops: AtomicU64,
    wire_dups: AtomicU64,
    retries: AtomicU64,
    retries_exhausted: AtomicU64,
    dups_discarded: AtomicU64,
    acks: AtomicU64,
    heartbeats: AtomicU64,
    crash_drops: AtomicU64,
    posthumous_drops: AtomicU64,
}

impl FabricStats {
    pub(crate) fn note_send(&self, payload_bytes: usize) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(payload_bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn note_backpressure_stall(&self) {
        self.backpressure_stalls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_delivered(&self) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_wire_drop(&self) {
        self.wire_drops.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_wire_dup(&self) {
        self.wire_dups.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_retry_exhausted(&self) {
        self.retries_exhausted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_dup_discarded(&self) {
        self.dups_discarded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_ack(&self) {
        self.acks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_heartbeat(&self) {
        self.heartbeats.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_crash_drop(&self) {
        self.crash_drops.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_posthumous_drop(&self) {
        self.posthumous_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Total logical messages sent through the fabric (excludes protocol
    /// acks, heartbeats and retransmissions).
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total payload bytes sent through the fabric.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Total sender stalls caused by inbox backpressure.
    pub fn backpressure_stalls(&self) -> u64 {
        self.backpressure_stalls.load(Ordering::Relaxed)
    }

    /// Logical messages surfaced to receivers (each exactly once). The
    /// no-progress watchdog folds this into its progress fingerprint.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Wire transmissions destroyed by fault injection.
    pub fn wire_drops(&self) -> u64 {
        self.wire_drops.load(Ordering::Relaxed)
    }

    /// Wire transmissions duplicated by fault injection.
    pub fn wire_dups(&self) -> u64 {
        self.wire_dups.load(Ordering::Relaxed)
    }

    /// Retransmissions performed by the reliable-delivery layer.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Messages abandoned after the retry budget was exhausted.
    pub fn retries_exhausted(&self) -> u64 {
        self.retries_exhausted.load(Ordering::Relaxed)
    }

    /// Duplicate deliveries filtered out by receiver-side dedup.
    pub fn dups_discarded(&self) -> u64 {
        self.dups_discarded.load(Ordering::Relaxed)
    }

    /// Acknowledgements sent by receivers: one per reliable data copy
    /// (original, retransmit or injected duplicate) that lands in a live
    /// receiver's inbox, sent at that arrival whether or not the wire
    /// then delivers it. Acks never occupy an inbox.
    pub fn acks(&self) -> u64 {
        self.acks.load(Ordering::Relaxed)
    }

    /// Heartbeat frames emitted by the failure-detection layer.
    pub fn heartbeats(&self) -> u64 {
        self.heartbeats.load(Ordering::Relaxed)
    }

    /// Wire transmissions destroyed because an endpoint had fail-stopped
    /// (a dead image neither injects nor receives).
    pub fn crash_drops(&self) -> u64 {
        self.crash_drops.load(Ordering::Relaxed)
    }

    /// Frames discarded by the incarnation filter: traffic from a peer
    /// already confirmed dead at that incarnation.
    pub fn posthumous_drops(&self) -> u64 {
        self.posthumous_drops.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = FabricStats::default();
        s.note_send(10);
        s.note_send(5);
        s.note_backpressure_stall();
        assert_eq!(s.messages(), 2);
        assert_eq!(s.bytes(), 15);
        assert_eq!(s.backpressure_stalls(), 1);
    }
}
