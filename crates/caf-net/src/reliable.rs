//! Reliable ack/retry delivery: the machinery [`Fabric`](crate::Fabric)
//! switches on when a fault plan is active.
//!
//! Design constraints:
//!
//! * Payloads are **not `Clone`** (active messages carry `Box<dyn FnOnce>`
//!   closures), so a retransmission cannot copy the message. Instead every
//!   reliable send allocates one shared *payload slot*
//!   (`Arc<Mutex<Option<M>>>`); the original, duplicates, and retransmits
//!   all point at it, and the first copy to arrive fresh takes the value.
//!   Later copies are filtered by sequence-number dedup before they would
//!   touch the (now empty) slot.
//! * **Acknowledgement happens on arrival**, not when the receiver pops
//!   the frame. When a `Data` copy survives the wire into the receiver's
//!   inbox, the fabric rolls the ack's own fault decision on the reverse
//!   link (with its own wire sequence number) and, if the ack survives,
//!   records on the sender's [`Outstanding`] entry when it becomes
//!   visible there: the data's arrival plus the ack's wire time. Acks
//!   never occupy an inbox, so the round trip the retry timer measures is
//!   wire time, not the time the ack would spend queued behind data in
//!   two inboxes. Every surviving copy is acked (the earliest due time
//!   wins); dedup still happens when the receiver pops.
//! * The fabric has **no progress thread**. Retransmission timers are
//!   pumped lazily from the sending image's own fabric calls (`send`,
//!   `try_recv`, `recv_until`, `wait_activity`) — the same polling
//!   discipline GASNet imposes. A pump first applies every ack that has
//!   fallen due, then retransmits what is still overdue, and park
//!   deadlines are clamped to the next ack or retry due-time so a blocked
//!   sender both retransmits promptly and sees its backlog drain.
//! * Delivery remains **unordered**: the runtime already tolerates
//!   non-FIFO channels, so the layer restores *exactly-once* but not
//!   ordering (no reorder buffer; the dedup tracker just remembers which
//!   sequence numbers it has seen).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use caf_core::ids::ImageId;
use parking_lot::Mutex;

/// Simulated size of a protocol acknowledgement, in bytes.
pub(crate) const ACK_BYTES: usize = 16;

/// Simulated size of a heartbeat frame, in bytes.
pub(crate) const HEARTBEAT_BYTES: usize = 8;

/// The on-the-wire envelope carried by inboxes.
pub(crate) enum Wire<M> {
    /// Fast path (fault layer off, or self-send): the bare message.
    Raw(M),
    /// Reliable payload transmission. Retransmits and injected duplicates
    /// share `payload`; whoever arrives fresh takes it.
    Data {
        /// Sending image (the ack's destination).
        from: ImageId,
        /// Per-(sender, receiver) sequence number.
        link_seq: u64,
        /// Shared single-use payload slot.
        payload: Arc<Mutex<Option<M>>>,
    },
    /// Unacknowledged keep-alive pumped on idle links when failure
    /// detection is engaged. Best-effort: heartbeats roll the same fault
    /// dice as data (a dropped heartbeat is how false suspects happen).
    Heartbeat {
        /// The image proving it is alive.
        from: ImageId,
        /// The sender's incarnation number; receivers use it for the
        /// posthumous filter.
        incarnation: u64,
    },
}

impl<M> Wire<M> {
    /// Clones protocol envelopes (for injected duplicates). `Raw` is not
    /// cloneable — raw messages never traverse the fault layer.
    pub(crate) fn clone_protocol(&self) -> Option<Wire<M>> {
        match self {
            Wire::Raw(_) => None,
            Wire::Data { from, link_seq, payload } => {
                Some(Wire::Data { from: *from, link_seq: *link_seq, payload: Arc::clone(payload) })
            }
            Wire::Heartbeat { from, incarnation } => {
                Some(Wire::Heartbeat { from: *from, incarnation: *incarnation })
            }
        }
    }
}

/// One unacknowledged reliable transmission, owned by its sender.
pub(crate) struct Outstanding<M> {
    pub link_seq: u64,
    pub payload: Arc<Mutex<Option<M>>>,
    pub bytes: usize,
    /// Transmissions so far (1 = the original send).
    pub attempts: u32,
    pub next_retry: Instant,
    /// When the earliest surviving acknowledgement of any copy reaches
    /// the sender; `None` while every copy or ack is lost or unrolled.
    pub ack_due: Option<Instant>,
}

impl<M> Outstanding<M> {
    /// Whether the acknowledgement has reached the sender by `now`.
    /// `acker_crash` is when the receiver fail-stopped, if it has: an ack
    /// that would fall due at or after that instant was never sent.
    pub(crate) fn acked_by(&self, now: Instant, acker_crash: Option<Instant>) -> bool {
        self.ack_due
            .is_some_and(|due| due <= now && acker_crash.is_none_or(|at| at > due))
    }

    /// The next instant this entry needs its sender's attention: its ack
    /// falling due or its retransmission timer, whichever comes first.
    fn next_event(&self) -> Instant {
        self.ack_due.map_or(self.next_retry, |due| due.min(self.next_retry))
    }
}

/// Per-sending-image retry state: sequence allocators and outstanding
/// queues, one slot per destination. Each queue is sorted by `link_seq`
/// (pushed in allocation order, removed from anywhere).
pub(crate) struct SenderState<M> {
    pub next_seq: Vec<u64>,
    pub outstanding: Vec<VecDeque<Outstanding<M>>>,
}

impl<M> SenderState<M> {
    pub(crate) fn new(n: usize) -> Self {
        SenderState { next_seq: vec![0; n], outstanding: (0..n).map(|_| VecDeque::new()).collect() }
    }

    /// Unacknowledged messages across all destinations at `now`. An entry
    /// whose ack has fallen due no longer counts, even before the next
    /// pump removes it; `acker_crash(dest)` is as in
    /// [`Outstanding::acked_by`].
    pub(crate) fn backlog(
        &self,
        now: Instant,
        acker_crash: impl Fn(usize) -> Option<Instant>,
    ) -> usize {
        let unacked = |(dest, q): (usize, &VecDeque<Outstanding<M>>)| {
            let crash = acker_crash(dest);
            q.iter().filter(|o| !o.acked_by(now, crash)).count()
        };
        self.outstanding.iter().enumerate().map(unacked).sum()
    }

    /// Earliest pending ack or retransmission deadline, if any.
    pub(crate) fn next_event_at(&self) -> Option<Instant> {
        self.outstanding
            .iter()
            .flat_map(|q| q.iter().map(Outstanding::next_event))
            .min()
    }

    /// Records an acknowledgement of `link_seq` from `dest` that reaches
    /// this sender at `due`. Acks for entries already retired (acked by
    /// an earlier copy, or abandoned) are ignored.
    pub(crate) fn note_ack(&mut self, dest: usize, link_seq: u64, due: Instant) {
        let queue = &mut self.outstanding[dest];
        if let Ok(pos) = queue.binary_search_by_key(&link_seq, |o| o.link_seq) {
            let o = &mut queue[pos];
            o.ack_due = Some(o.ack_due.map_or(due, |d| d.min(due)));
        }
    }
}

pub(crate) use caf_core::fault::SeqTracker;

/// Per-receiving-image dedup state: one tracker per sender.
pub(crate) struct RecvState {
    pub trackers: Vec<SeqTracker>,
}

impl RecvState {
    pub(crate) fn new(n: usize) -> Self {
        RecvState { trackers: (0..n).map(|_| SeqTracker::default()).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn entry(link_seq: u64, next_retry: Instant) -> Outstanding<()> {
        Outstanding {
            link_seq,
            payload: Arc::new(Mutex::new(Some(()))),
            bytes: 0,
            attempts: 1,
            next_retry,
            ack_due: None,
        }
    }

    #[test]
    fn earliest_ack_wins_and_counts_once_due() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let mut st: SenderState<()> = SenderState::new(2);
        st.outstanding[1].extend([entry(0, ms(10)), entry(1, ms(10)), entry(3, ms(10))]);
        st.note_ack(1, 1, ms(4));
        st.note_ack(1, 1, ms(2)); // a duplicate's ack that lands sooner
        st.note_ack(1, 1, ms(6));
        st.note_ack(1, 2, ms(1)); // no such entry: ignored
        assert_eq!(st.outstanding[1][1].ack_due, Some(ms(2)));
        assert_eq!(st.next_event_at(), Some(ms(2)));
        assert_eq!(st.backlog(ms(1), |_| None), 3, "not due yet");
        assert_eq!(st.backlog(ms(2), |_| None), 2);
        assert_eq!(st.backlog(ms(2), |_| Some(ms(2))), 3, "acker crashed before it fell due");
        assert_eq!(st.backlog(ms(2), |_| Some(ms(3))), 2, "acker crashed after");
    }

    #[test]
    fn tracker_accepts_each_seq_once() {
        let mut t = SeqTracker::default();
        assert!(t.note(0));
        assert!(!t.note(0));
        assert!(t.note(1));
        assert!(!t.note(1));
        assert!(!t.note(0));
    }

    #[test]
    fn tracker_handles_out_of_order_and_gaps() {
        let mut t = SeqTracker::default();
        assert!(t.note(3));
        assert!(t.note(1));
        assert!(!t.note(3), "re-delivery ahead of watermark");
        assert!(t.note(0));
        assert!(!t.note(1), "absorbed into watermark by now");
        assert!(t.note(2));
        assert!(!t.note(3), "watermark passed it");
        assert!(t.note(4));
    }
}
