//! The simulated interconnect: a set of timed inboxes plus the cost model.
//!
//! The fabric is a dumb, *not necessarily FIFO* transport — the same
//! contract GASNet gives the CAF 2.0 runtime. Latency and bandwidth come
//! from [`NetworkModel`]: a message of `b` payload bytes sent at `t`
//! becomes visible to the target at
//! `t + injection_overhead + latency + b·byte_cost` (plus deterministic
//! pseudo-jitter when `non_fifo` reordering is enabled). Delivery
//! acknowledgements, event notifications, collective stages — everything
//! above this layer is just a message.
//!
//! Backpressure: when a target inbox holds more than
//! `inbox_capacity` undelivered messages, the sender parks on the inbox's
//! space condvar (woken by drains) — modelling GASNet flow control, which
//! the paper suspects behind the Fig. 14 large-bunch anomaly.
//!
//! Reliability: by default the wire is lossless and the fabric adds zero
//! protocol overhead. With an active [`FaultPlan`] the wire drops,
//! duplicates, delays, and stalls traffic per the plan's seeded schedule,
//! and every remote message is routed through the ack/retry sublayer
//! ([`crate::reliable`]): per-link sequence numbers, receiver-side dedup,
//! acknowledgement on arrival (an ack is rolled on the reverse link the
//! moment its data copy lands in the receiver's inbox, and never waits
//! in an inbox itself), ack timers with exponential backoff, and a capped
//! retry budget whose exhaustion is surfaced to the runtime's no-progress
//! watchdog.
//!
//! Fail-stop crashes: a [`CrashFault`](caf_core::fault::CrashFault) in the
//! plan (or a runtime call to [`Fabric::mark_crashed`], e.g. from a panic
//! boundary) silences an image mid-run — every wire transmission touching
//! it is destroyed from that point on. When failure detection is engaged
//! ([`Fabric::with_chaos`] with [`FailureParams`]), each image pumps
//! heartbeats on idle links and drives a per-image
//! [`FailureDetectorState`] from heartbeat deadlines *and* retry-budget
//! exhaustion; confirmed deaths surface through
//! [`Fabric::poll_failures`], and traffic from a confirmed-dead
//! incarnation is discarded by the posthumous filter.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use caf_core::config::NetworkModel;
use caf_core::failure::{FailureDetectorState, FailureEvent, FailureParams, PeerHealth};
use caf_core::fault::{FaultPlan, RetryPolicy};
use caf_core::ids::ImageId;
use caf_core::rng::splitmix64_hash;
use parking_lot::Mutex;

use crate::inbox::Inbox;
use crate::reliable::{Outstanding, RecvState, SenderState, Wire, ACK_BYTES, HEARTBEAT_BYTES};
use crate::stats::FabricStats;

/// Incarnation stamped on every image's traffic. Restarts (which would
/// bump it) are not implemented; the constant still flows through the
/// protocol so the posthumous filter exercises the real comparison.
const FIRST_INCARNATION: u64 = 1;

/// A death confirmed by (or reported to) an image's failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfirmedDown {
    /// The dead image.
    pub peer: usize,
    /// Its last known incarnation; traffic stamped `<=` this is posthumous.
    pub incarnation: u64,
    /// Wall-clock from the crash firing on the wire to this observer's
    /// confirmation. `None` when the crash origin is unknown to the
    /// fabric (e.g. the death was learned from a broadcast).
    pub latency: Option<Duration>,
}

/// Per-observing-image failure-detection state.
struct Observer {
    detector: FailureDetectorState,
    /// Last heartbeat emission per peer link.
    last_hb: Vec<Instant>,
    /// Confirmed deaths not yet drained by [`Fabric::poll_failures`].
    confirmed: VecDeque<ConfirmedDown>,
}

/// Heartbeat + failure-detection state, engaged by
/// [`Fabric::with_chaos`] when failure params are supplied.
struct FailureLayer {
    params: FailureParams,
    observers: Vec<Mutex<Observer>>,
}

/// Fault-injection schedule plus the reliable-delivery state answering it.
struct Chaos<M> {
    plan: FaultPlan,
    retry: RetryPolicy,
    /// Fabric creation time — stall windows are relative to this.
    epoch: Instant,
    /// Per-sending-image retry state (indexed by sender).
    senders: Vec<Mutex<SenderState<M>>>,
    /// Per-receiving-image dedup state (indexed by receiver).
    receivers: Vec<Mutex<RecvState>>,
    /// Heartbeats + failure detectors, when engaged.
    failure: Option<FailureLayer>,
}

/// Retransmission batch drained under the sender lock: destination,
/// sequence, shared payload slot, payload bytes.
type Resend<M> = Vec<(ImageId, u64, Arc<Mutex<Option<M>>>, usize)>;

/// What the wire did to one transmission it did not destroy.
struct Fate {
    /// When the frame lands in the target inbox.
    arrival: Instant,
    /// When the injected duplicate lands, if the plan duplicated it.
    dup_arrival: Option<Instant>,
}

/// The interconnect between `n` images, carrying messages of type `M`.
pub struct Fabric<M> {
    inboxes: Vec<Inbox<Wire<M>>>,
    model: NetworkModel,
    non_fifo: bool,
    seq: AtomicU64,
    stats: FabricStats,
    chaos: Option<Chaos<M>>,
    /// Fail-stop flags, one per image. Set by a
    /// [`CrashFault`](caf_core::fault::CrashFault) firing on the wire or
    /// by [`Fabric::mark_crashed`]; once set, every
    /// transmission touching the image is destroyed. Allocated in every
    /// mode (panic boundaries crash images even without a fault plan).
    crashed: Vec<AtomicBool>,
    /// When each crash fired — the base for detection-latency reporting.
    crashed_at: Vec<Mutex<Option<Instant>>>,
    /// Set when the runtime aborts (e.g. the no-progress watchdog fired):
    /// releases senders parked under backpressure so their threads can be
    /// joined instead of sleeping on a drain that will never come.
    halted: AtomicBool,
}

impl<M: Send> Fabric<M> {
    /// A fabric over `n` images with the given cost model. `non_fifo`
    /// enables deterministic pseudo-random reordering of same-pair
    /// messages (delivery deadlines get up to `latency/2` extra skew).
    pub fn new(n: usize, model: NetworkModel, non_fifo: bool) -> Arc<Self> {
        Fabric::build(n, model, non_fifo, None, None)
    }

    /// A fabric whose wire misbehaves per `plan` and whose delivery layer
    /// answers with `retry`. All remote traffic is routed through the
    /// ack/retry sublayer — even when the plan is currently inactive, so
    /// protocol overhead can be measured in isolation.
    pub fn with_faults(
        n: usize,
        model: NetworkModel,
        non_fifo: bool,
        plan: FaultPlan,
        retry: RetryPolicy,
    ) -> Arc<Self> {
        Fabric::build(n, model, non_fifo, Some((plan, retry)), None)
    }

    /// [`Fabric::with_faults`] plus optional fail-stop failure detection:
    /// with `failure` set, every image pumps heartbeats on idle links,
    /// runs a [`FailureDetectorState`] over its peers, and surfaces
    /// confirmed deaths through [`Fabric::poll_failures`].
    pub fn with_chaos(
        n: usize,
        model: NetworkModel,
        non_fifo: bool,
        plan: FaultPlan,
        retry: RetryPolicy,
        failure: Option<FailureParams>,
    ) -> Arc<Self> {
        Fabric::build(n, model, non_fifo, Some((plan, retry)), failure)
    }

    fn build(
        n: usize,
        model: NetworkModel,
        non_fifo: bool,
        faults: Option<(FaultPlan, RetryPolicy)>,
        failure: Option<FailureParams>,
    ) -> Arc<Self> {
        let epoch = Instant::now();
        Arc::new(Fabric {
            inboxes: (0..n).map(|_| Inbox::new()).collect(),
            model,
            non_fifo,
            seq: AtomicU64::new(0),
            stats: FabricStats::default(),
            chaos: faults.map(|(plan, retry)| Chaos {
                plan,
                retry,
                epoch,
                senders: (0..n).map(|_| Mutex::new(SenderState::new(n))).collect(),
                receivers: (0..n).map(|_| Mutex::new(RecvState::new(n))).collect(),
                failure: failure.map(|params| FailureLayer {
                    observers: (0..n)
                        .map(|me| {
                            let mut detector = FailureDetectorState::new(params.clone());
                            for peer in (0..n).filter(|&p| p != me) {
                                detector.monitor(peer, Duration::ZERO);
                            }
                            Mutex::new(Observer {
                                detector,
                                last_hb: vec![epoch; n],
                                confirmed: VecDeque::new(),
                            })
                        })
                        .collect(),
                    params,
                }),
            }),
            crashed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            crashed_at: (0..n).map(|_| Mutex::new(None)).collect(),
            halted: AtomicBool::new(false),
        })
    }

    /// Number of images attached to the fabric.
    pub fn size(&self) -> usize {
        self.inboxes.len()
    }

    /// The cost model in force.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    /// Aggregate traffic statistics.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Whether the reliable-delivery (chaos) layer is engaged.
    pub fn faults_active(&self) -> bool {
        self.chaos.is_some()
    }

    /// Whether heartbeat-based failure detection is engaged.
    pub fn failure_active(&self) -> bool {
        self.chaos.as_ref().is_some_and(|c| c.failure.is_some())
    }

    /// The failure-detection windows in force, if engaged.
    pub fn failure_params(&self) -> Option<&FailureParams> {
        self.chaos.as_ref().and_then(|c| c.failure.as_ref()).map(|fl| &fl.params)
    }

    /// Whether `image` has fail-stopped (crash fault fired, or the
    /// runtime reported it via [`Fabric::mark_crashed`]). An image thread
    /// observing its own flag must unwind instead of continuing to run.
    pub fn is_crashed(&self, image: ImageId) -> bool {
        self.crashed[image.index()].load(Ordering::Acquire)
    }

    /// Every image whose fail-stop flag is set.
    pub fn crashed_images(&self) -> Vec<usize> {
        (0..self.size()).filter(|&i| self.is_crashed(ImageId(i))).collect()
    }

    /// Reports `image` as fail-stopped from outside the fault plan — the
    /// runtime's panic boundary calls this when an image closure panics.
    /// Idempotent; wakes every parked image so senders re-check flags.
    pub fn mark_crashed(&self, image: ImageId) {
        self.crashed_at[image.index()].lock().get_or_insert_with(Instant::now);
        self.crashed[image.index()].store(true, Ordering::Release);
        for inbox in &self.inboxes {
            inbox.poke();
        }
    }

    /// Records at `observer`'s detector a death learned externally (an
    /// `ImageDown` broadcast): engages the posthumous filter there
    /// without waiting out the observer's own suspect window.
    pub fn mark_peer_dead(&self, observer: ImageId, peer: usize, incarnation: u64) {
        if let Some(chaos) = &self.chaos {
            if let Some(fl) = &chaos.failure {
                let elapsed = chaos.epoch.elapsed();
                fl.observers[observer.index()].lock().detector.mark_dead(
                    peer,
                    incarnation,
                    elapsed,
                );
            }
        }
    }

    /// Drains the deaths `image`'s detector has confirmed since the last
    /// poll (pumping the detector first, so an image that only polls
    /// still advances its deadlines).
    pub fn poll_failures(&self, image: ImageId) -> Vec<ConfirmedDown> {
        self.pump_retries(image);
        let Some(fl) = self.chaos.as_ref().and_then(|c| c.failure.as_ref()) else {
            return Vec::new();
        };
        fl.observers[image.index()].lock().confirmed.drain(..).collect()
    }

    /// `image`'s detector counters: `(suspects_raised, false_suspects)`.
    /// Zero when failure detection is off.
    pub fn failure_metrics(&self, image: ImageId) -> (u64, u64) {
        match self.chaos.as_ref().and_then(|c| c.failure.as_ref()) {
            Some(fl) => {
                let obs = fl.observers[image.index()].lock();
                (obs.detector.suspects_raised(), obs.detector.false_suspects())
            }
            None => (0, 0),
        }
    }

    /// Announces `image`'s clean exit to every surviving detector, so the
    /// silence of a normal staggered shutdown is never read as a crash.
    pub fn retire(&self, image: ImageId) {
        if let Some(chaos) = &self.chaos {
            if let Some(fl) = &chaos.failure {
                let elapsed = chaos.epoch.elapsed();
                for (me, obs) in fl.observers.iter().enumerate() {
                    if me != image.index() {
                        obs.lock().detector.retire(image.index(), elapsed);
                    }
                }
            }
        }
    }

    /// Discards every queued message in every inbox (graceful team-wide
    /// drain after a failure verdict), returning the number dropped.
    pub fn drain_inboxes(&self) -> usize {
        self.inboxes.iter().map(|inbox| inbox.drain()).sum()
    }

    /// Unacknowledged reliable messages currently owned by `image` as a
    /// sender (its retry queue depth). Entries whose ack has reached the
    /// sender do not count, pumped or not. Zero without a fault layer.
    pub fn retry_backlog(&self, image: ImageId) -> usize {
        self.chaos.as_ref().map_or(0, |c| {
            c.senders[image.index()]
                .lock()
                .backlog(Instant::now(), |dest| self.crash_time(dest))
        })
    }

    /// When `image` fail-stopped, if it has. Crash sites record the time
    /// before they raise the flag, so a raised flag always has one.
    fn crash_time(&self, image: usize) -> Option<Instant> {
        if self.crashed[image].load(Ordering::Acquire) {
            *self.crashed_at[image].lock()
        } else {
            None
        }
    }

    /// Aborts the fabric: flow control stops parking senders (over-capacity
    /// sends are admitted immediately) and every image is poked awake.
    /// Used by the runtime when tearing down after a detected stall —
    /// communication threads blocked in [`Fabric::send`] must be joinable.
    /// Irreversible.
    pub fn halt(&self) {
        self.halted.store(true, Ordering::Release);
        for inbox in &self.inboxes {
            inbox.poke();
        }
    }

    /// Whether [`Fabric::halt`] has been called.
    pub fn halted(&self) -> bool {
        self.halted.load(Ordering::Acquire)
    }

    /// Sends `msg` with a simulated payload of `payload_bytes` from `from`
    /// to `to`. Blocks the caller under backpressure. Local (self) sends
    /// still traverse the model's loopback (zero latency, injection cost
    /// only) so semantics don't change between local and remote targets.
    pub fn send(&self, from: ImageId, to: ImageId, payload_bytes: usize, msg: M) {
        // Backpressure: park while the target inbox is over capacity.
        // Self-sends are exempt: the sender is the only drainer of its
        // own inbox, so throttling it can never make progress.
        if let Some(cap) = self.model.inbox_capacity.filter(|_| from != to) {
            let inbox = &self.inboxes[to.index()];
            // Re-probe interval: a drain notification wakes us instantly;
            // the timeout only bounds missed-wakeup / abort latency and
            // lets a parked sender keep pumping its retransmit timers.
            let quantum = if self.model.backpressure_stall > Duration::ZERO {
                self.model.backpressure_stall
            } else {
                Duration::from_micros(100)
            };
            // A crashed endpoint ends the park: a dead receiver never
            // drains its inbox, and a dead sender has nothing to deliver —
            // either way the message is destined for the wire-level
            // crash drop, so admit it immediately.
            while inbox.len() >= cap
                && !self.halted()
                && !self.is_crashed(to)
                && !self.is_crashed(from)
            {
                self.stats.note_backpressure_stall();
                self.pump_retries(from);
                inbox.wait_space_until(cap, Instant::now() + quantum);
            }
        }
        self.inject(from, to, payload_bytes, msg);
    }

    /// Attempts to send under flow control without blocking: returns the
    /// message back if the target inbox is over capacity. Callers that
    /// can make progress while refused (an image thread draining its own
    /// inbox — GASNet's poll-while-blocked rule for requests) should loop
    /// on this instead of [`Fabric::send`], whose parked stall can
    /// deadlock if every potential drainer blocks simultaneously.
    pub fn try_send(
        &self,
        from: ImageId,
        to: ImageId,
        payload_bytes: usize,
        msg: M,
    ) -> Result<(), M> {
        if let Some(cap) = self.model.inbox_capacity.filter(|_| from != to) {
            // A crashed target's inbox never drains; don't refuse forever —
            // admit the message and let the wire-level crash drop eat it.
            if self.inboxes[to.index()].len() >= cap && !self.is_crashed(to) {
                self.stats.note_backpressure_stall();
                return Err(msg);
            }
        }
        self.inject(from, to, payload_bytes, msg);
        Ok(())
    }

    /// Sends without flow control. For *reply-class* traffic only —
    /// delivery acknowledgements, event notifications, completion
    /// advances, collective control hops. GASNet gives AM replies the
    /// same exemption: a handler must be able to reply without blocking,
    /// otherwise two images whose inboxes are both full of requests
    /// deadlock exchanging acknowledgements.
    pub fn send_unthrottled(&self, from: ImageId, to: ImageId, payload_bytes: usize, msg: M) {
        self.inject(from, to, payload_bytes, msg);
    }

    /// Logical send: counts the message once and routes it either raw
    /// (lossless wire, or loopback) or through the reliable envelope.
    fn inject(&self, from: ImageId, to: ImageId, payload_bytes: usize, msg: M) {
        self.stats.note_send(payload_bytes);
        match &self.chaos {
            // Self-sends bypass the wire — and therefore the fault layer —
            // in both modes.
            Some(chaos) if from != to => {
                let payload = Arc::new(Mutex::new(Some(msg)));
                let link_seq = {
                    let mut st = chaos.senders[from.index()].lock();
                    let seq = st.next_seq[to.index()];
                    st.next_seq[to.index()] = seq + 1;
                    st.outstanding[to.index()].push_back(Outstanding {
                        link_seq: seq,
                        payload: Arc::clone(&payload),
                        bytes: payload_bytes,
                        attempts: 1,
                        next_retry: Instant::now() + chaos.retry.timeout_after(1),
                        ack_due: None,
                    });
                    seq
                };
                self.transmit(from, to, payload_bytes, Wire::Data { from, link_seq, payload });
            }
            _ => self.transmit(from, to, payload_bytes, Wire::Raw(msg)),
        }
    }

    /// Wire-level transmission: applies the cost model, non-FIFO jitter,
    /// and — under a fault plan — drops, duplicates, delay spikes, and
    /// straggler deferral. Every call is one die roll; retransmissions of
    /// the same logical message roll independently. Each `Data` copy that
    /// lands is acknowledged on arrival (see [`Fabric::ack_on_arrival`]).
    fn transmit(&self, from: ImageId, to: ImageId, payload_bytes: usize, wire: Wire<M>) {
        let Some(fate) = self.roll(from, to, payload_bytes, Instant::now()) else { return };
        let inbox = &self.inboxes[to.index()];
        if let Wire::Data { link_seq, .. } = &wire {
            for arrival in std::iter::once(fate.arrival).chain(fate.dup_arrival) {
                self.ack_on_arrival(from, to, *link_seq, arrival);
            }
        }
        if let Some(at) = fate.dup_arrival {
            if let Some(copy) = wire.clone_protocol() {
                inbox.push(at, copy);
            }
        }
        inbox.push(fate.arrival, wire);
    }

    /// Rolls the wire's fate for one transmission of `payload_bytes`
    /// injected at `sent` (now, or a future instant for an ack sent on
    /// arrival). Takes the next wire sequence number, fires scheduled
    /// crashes, and counts drops and duplicates; `None` means the wire
    /// destroyed the frame.
    fn roll(
        &self,
        from: ImageId,
        to: ImageId,
        payload_bytes: usize,
        sent: Instant,
    ) -> Option<Fate> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        // Scheduled crashes fire on the first transmission at or past
        // their trigger sequence — the same wire-seq keying both
        // substrates use, so a crash point reproduces across runs.
        if let Some(chaos) = &self.chaos {
            for c in &chaos.plan.crashes {
                if seq >= c.at_seq && !self.crashed[c.image].load(Ordering::Acquire) {
                    self.crashed_at[c.image].lock().get_or_insert_with(Instant::now);
                    self.crashed[c.image].store(true, Ordering::Release);
                }
            }
        }
        // Fail-stop: a dead image neither injects nor receives. The
        // arming transmission itself is already subject to the drop.
        if self.is_crashed(from) || self.is_crashed(to) {
            self.stats.note_crash_drop();
            return None;
        }
        let mut delay = self.model.injection_overhead;
        if from != to {
            delay += self.model.wire_time(payload_bytes);
            if self.non_fifo && !self.model.latency.is_zero() {
                let span = (self.model.latency / 2).as_nanos() as u64;
                if span > 0 {
                    delay += Duration::from_nanos(splitmix64_hash(seq) % span);
                }
            }
        }
        let mut dup_arrival = None;
        if let Some(chaos) = self.chaos.as_ref().filter(|_| from != to) {
            let elapsed = sent.saturating_duration_since(chaos.epoch);
            // A stalled endpoint defers traffic until its window closes:
            // a descheduled sender cannot inject, a descheduled receiver
            // cannot run handlers.
            delay += chaos.plan.stall_extra(from.index(), elapsed);
            delay += chaos.plan.stall_extra(to.index(), elapsed);
            let decision = chaos.plan.decide(from.index(), to.index(), seq);
            if decision.delay_spike {
                delay += chaos.plan.spike_delay;
            }
            if decision.drop {
                self.stats.note_wire_drop();
                return None; // vanishes; the retry timer will answer
            }
            if decision.duplicate {
                self.stats.note_wire_dup();
                let extra = self.model.latency / 2 + Duration::from_micros(5);
                dup_arrival = Some(sent + delay + extra);
            }
        }
        Some(Fate { arrival: sent + delay, dup_arrival })
    }

    /// The receiver's acknowledgement of one `Data` copy of `link_seq`
    /// landing in `receiver`'s inbox at `arrival`: the ack is injected at
    /// that instant on the reverse link, rolls its own fault decision, and
    /// if it survives is recorded on the sender's outstanding entry as
    /// due at its own arrival. It never occupies an inbox.
    fn ack_on_arrival(&self, sender: ImageId, receiver: ImageId, link_seq: u64, arrival: Instant) {
        let Some(chaos) = &self.chaos else { return };
        // Posthumous filter: a receiver that has confirmed the sender
        // dead discards its frames un-acked (see `open`).
        if let Some(fl) = &chaos.failure {
            let accepts = fl.observers[receiver.index()]
                .lock()
                .detector
                .accepts(sender.index(), FIRST_INCARNATION);
            if !accepts {
                return;
            }
        }
        self.stats.note_ack();
        if let Some(ack) = self.roll(receiver, sender, ACK_BYTES, arrival) {
            chaos.senders[sender.index()]
                .lock()
                .note_ack(receiver.index(), link_seq, ack.arrival);
        }
    }

    /// Applies every acknowledgement that has reached `image`, then
    /// retransmits every overdue outstanding message it still owns,
    /// advancing ack timers with exponential backoff and abandoning
    /// messages whose retry budget is exhausted. Called from the sending
    /// image's own fabric entry points (lazy pumping — the fabric has no
    /// thread of its own).
    fn pump_retries(&self, image: ImageId) {
        let Some(chaos) = &self.chaos else { return };
        if self.is_crashed(image) {
            return; // the dead retransmit nothing and heartbeat no one
        }
        let now = Instant::now();
        // Peers this image's detector has confirmed dead: their pending
        // retransmissions are dead letters — abandon them instead of
        // burning the retry budget against a black hole.
        let dead: Vec<usize> = match &chaos.failure {
            Some(fl) => fl.observers[image.index()]
                .lock()
                .detector
                .dead_peers()
                .into_iter()
                .map(|(peer, _)| peer)
                .collect(),
            None => Vec::new(),
        };
        let mut resend: Resend<M> = Vec::new();
        let mut exhausted: Vec<usize> = Vec::new();
        // Peers whose acks were applied: each is a life sign.
        let mut ackers: Vec<usize> = Vec::new();
        {
            let mut st = chaos.senders[image.index()].lock();
            for (dest, queue) in st.outstanding.iter_mut().enumerate() {
                if dead.contains(&dest) {
                    for _ in 0..queue.len() {
                        self.stats.note_crash_drop();
                    }
                    queue.clear();
                    continue;
                }
                let acker_crash = self.crash_time(dest);
                let mut acked = false;
                queue.retain_mut(|o| {
                    // Acks first: an entry whose ack has landed is done,
                    // however overdue its retransmission timer is.
                    if o.acked_by(now, acker_crash) {
                        acked = true;
                        return false;
                    }
                    if o.ack_due.is_some_and(|due| due <= now) {
                        o.ack_due = None; // the acker died before sending it
                    }
                    if o.next_retry > now {
                        return true;
                    }
                    if o.attempts > chaos.retry.max_retries {
                        // Budget spent (original + max_retries resends):
                        // abandon. The message may still be in flight —
                        // if it truly never arrives, the runtime's
                        // watchdog turns the quiet into a diagnostic.
                        self.stats.note_retry_exhausted();
                        exhausted.push(dest);
                        return false;
                    }
                    o.attempts += 1;
                    o.next_retry = now + chaos.retry.timeout_after(o.attempts);
                    resend.push((ImageId(dest), o.link_seq, Arc::clone(&o.payload), o.bytes));
                    true
                });
                if acked && chaos.failure.is_some() {
                    ackers.push(dest);
                }
            }
        }
        for dest in ackers {
            if !self.note_life_sign(chaos, image, ImageId(dest), FIRST_INCARNATION) {
                self.stats.note_posthumous_drop();
            }
        }
        if let Some(fl) = &chaos.failure {
            if !exhausted.is_empty() {
                // A spent retry budget is a strong death hint: skip the
                // silence deadline and go straight to the suspect window.
                let elapsed = chaos.epoch.elapsed();
                let mut obs = fl.observers[image.index()].lock();
                for dest in exhausted {
                    obs.detector.on_retry_exhausted(dest, elapsed);
                }
            }
        }
        for (dest, link_seq, payload, bytes) in resend {
            self.stats.note_retry();
            self.transmit(image, dest, bytes, Wire::Data { from: image, link_seq, payload });
        }
        self.pump_failure(image, chaos, now);
    }

    /// Failure-detection duty cycle for `image`, run from its own fabric
    /// calls (the same lazy-pumping discipline as retransmission):
    /// heartbeat every peer whose link has been idle past the period,
    /// then advance the detector's deadlines and queue any confirmed
    /// deaths for [`Fabric::poll_failures`].
    fn pump_failure(&self, image: ImageId, chaos: &Chaos<M>, now: Instant) {
        let Some(fl) = &chaos.failure else { return };
        let elapsed = now.saturating_duration_since(chaos.epoch);
        let mut beats: Vec<usize> = Vec::new();
        {
            let mut obs = fl.observers[image.index()].lock();
            for peer in (0..self.size()).filter(|&p| p != image.index()) {
                // No point heartbeating the confirmed dead or retired.
                if matches!(
                    obs.detector.health(peer),
                    Some(PeerHealth::Dead) | Some(PeerHealth::Retired)
                ) {
                    continue;
                }
                if now.saturating_duration_since(obs.last_hb[peer]) >= fl.params.heartbeat_period {
                    obs.last_hb[peer] = now;
                    beats.push(peer);
                }
            }
            for ev in obs.detector.tick(elapsed) {
                if let FailureEvent::Confirmed { peer, incarnation, .. } = ev {
                    let latency =
                        (*self.crashed_at[peer].lock()).map(|at| now.saturating_duration_since(at));
                    obs.confirmed.push_back(ConfirmedDown { peer, incarnation, latency });
                }
            }
        }
        for peer in beats {
            self.stats.note_heartbeat();
            self.transmit(
                image,
                ImageId(peer),
                HEARTBEAT_BYTES,
                Wire::Heartbeat { from: image, incarnation: FIRST_INCARNATION },
            );
        }
    }

    /// Earliest ack or retransmission deadline owed by `image`, for park
    /// clamping: a blocked sender must wake in time to retransmit, and a
    /// sender waiting for its backlog to drain must see its acks land.
    fn next_event_at(&self, image: ImageId) -> Option<Instant> {
        self.chaos
            .as_ref()
            .and_then(|c| c.senders[image.index()].lock().next_event_at())
    }

    /// Protocol processing of one popped wire envelope at `image`.
    /// Returns the payload if this envelope surfaces a fresh message.
    fn open(&self, image: ImageId, wire: Wire<M>) -> Option<M> {
        match wire {
            Wire::Raw(msg) => {
                self.stats.note_delivered();
                Some(msg)
            }
            Wire::Data { from, link_seq, payload } => {
                let chaos = self.chaos.as_ref().expect("Data frames only exist under chaos");
                // Posthumous filter: data from a confirmed-dead
                // incarnation (a retransmit buffered in flight when the
                // sender died) must not be delivered or allowed to
                // resurrect work under a poisoned finish epoch. (The ack
                // went out on arrival, in `transmit`.)
                if !self.note_life_sign(chaos, image, from, FIRST_INCARNATION) {
                    self.stats.note_posthumous_drop();
                    return None;
                }
                let fresh =
                    chaos.receivers[image.index()].lock().trackers[from.index()].note(link_seq);
                if fresh {
                    let msg = payload.lock().take();
                    debug_assert!(msg.is_some(), "fresh sequence with an empty payload slot");
                    if msg.is_some() {
                        self.stats.note_delivered();
                    }
                    msg
                } else {
                    self.stats.note_dup_discarded();
                    None
                }
            }
            Wire::Heartbeat { from, incarnation } => {
                if let Some(chaos) = &self.chaos {
                    if !self.note_life_sign(chaos, image, from, incarnation) {
                        self.stats.note_posthumous_drop();
                    }
                }
                None
            }
        }
    }

    /// Feeds one received frame into `image`'s failure detector as a life
    /// sign from `from`. Returns whether the frame should be accepted
    /// (`false` = posthumous). Always `true` without a failure layer.
    fn note_life_sign(
        &self,
        chaos: &Chaos<M>,
        image: ImageId,
        from: ImageId,
        incarnation: u64,
    ) -> bool {
        match &chaos.failure {
            Some(fl) => {
                let elapsed = chaos.epoch.elapsed();
                fl.observers[image.index()].lock().detector.on_life_sign(
                    from.index(),
                    incarnation,
                    elapsed,
                )
            }
            None => true,
        }
    }

    /// Non-blocking receive for `image`: the earliest due message, if any.
    /// Also pumps `image`'s retransmission timers.
    pub fn try_recv(&self, image: ImageId) -> Option<M> {
        self.pump_retries(image);
        while let Some(wire) = self.inboxes[image.index()].try_pop_due() {
            if let Some(msg) = self.open(image, wire) {
                return Some(msg);
            }
        }
        None
    }

    /// Blocking receive for `image` with a deadline. Protocol frames
    /// (heartbeats, filtered duplicates) are consumed without surfacing;
    /// parks are clamped to the next ack or retransmission deadline.
    pub fn recv_until(&self, image: ImageId, deadline: Instant) -> Option<M> {
        loop {
            self.pump_retries(image);
            let park = self.next_event_at(image).map_or(deadline, |r| r.min(deadline));
            match self.inboxes[image.index()].pop_due_until(park) {
                Some(wire) => {
                    if let Some(msg) = self.open(image, wire) {
                        return Some(msg);
                    }
                }
                None => {
                    if Instant::now() >= deadline {
                        return None;
                    }
                    // Woke early to pump retries; loop.
                }
            }
        }
    }

    /// Queue depth at `image`'s inbox (due and undue messages).
    pub fn inbox_depth(&self, image: ImageId) -> usize {
        self.inboxes[image.index()].len()
    }

    /// Wakes `image` if it is parked waiting for activity (no message is
    /// enqueued). See [`Inbox::poke`].
    pub fn poke(&self, image: ImageId) {
        self.inboxes[image.index()].poke();
    }

    /// Parks `image` until a message arrives / becomes due, a poke lands,
    /// an ack or retransmission falls due, or `deadline` passes. See
    /// [`Inbox::wait_activity`].
    pub fn wait_activity(&self, image: ImageId, deadline: Instant) {
        self.pump_retries(image);
        let park = self.next_event_at(image).map_or(deadline, |r| r.min(deadline));
        self.inboxes[image.index()].wait_activity(park);
        self.pump_retries(image);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(i: usize) -> ImageId {
        ImageId(i)
    }

    #[test]
    fn instant_network_delivers_immediately() {
        let f: Arc<Fabric<u32>> = Fabric::new(2, NetworkModel::instant(), false);
        f.send(img(0), img(1), 8, 99);
        assert_eq!(f.try_recv(img(1)), Some(99));
        assert_eq!(f.try_recv(img(0)), None);
    }

    #[test]
    fn latency_withholds_delivery() {
        let model = NetworkModel { latency: Duration::from_millis(30), ..NetworkModel::instant() };
        let f: Arc<Fabric<&str>> = Fabric::new(2, model, false);
        f.send(img(0), img(1), 0, "hi");
        assert_eq!(f.try_recv(img(1)), None, "message must not be visible early");
        let got = f.recv_until(img(1), Instant::now() + Duration::from_secs(2));
        assert_eq!(got, Some("hi"));
    }

    #[test]
    fn self_sends_skip_wire_latency() {
        let model = NetworkModel { latency: Duration::from_secs(3600), ..NetworkModel::instant() };
        let f: Arc<Fabric<u8>> = Fabric::new(2, model, false);
        f.send(img(1), img(1), 0, 5);
        assert_eq!(f.try_recv(img(1)), Some(5));
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let f: Arc<Fabric<u8>> = Fabric::new(2, NetworkModel::instant(), false);
        f.send(img(0), img(1), 100, 1);
        f.send(img(0), img(1), 20, 2);
        assert_eq!(f.stats().messages(), 2);
        assert_eq!(f.stats().bytes(), 120);
    }

    #[test]
    fn backpressure_blocks_sender_until_receiver_drains() {
        let model = NetworkModel {
            inbox_capacity: Some(2),
            backpressure_stall: Duration::from_micros(100),
            ..NetworkModel::instant()
        };
        let f = Fabric::new(2, model, false);
        f.send(img(0), img(1), 0, 0u8);
        f.send(img(0), img(1), 0, 1u8);
        assert_eq!(f.inbox_depth(img(1)), 2);
        // A third send stalls until the receiver pops one message.
        let f2 = Arc::clone(&f);
        let sender = std::thread::spawn(move || {
            f2.send(img(0), img(1), 0, 2u8);
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!sender.is_finished(), "sender should be stalled");
        assert_eq!(f.try_recv(img(1)), Some(0));
        sender.join().unwrap();
        assert!(f.stats().backpressure_stalls() > 0);
        assert_eq!(f.try_recv(img(1)), Some(1));
        assert_eq!(f.try_recv(img(1)), Some(2));
    }

    #[test]
    fn non_fifo_can_reorder_same_pair_messages() {
        // With reordering enabled and a measurable latency, *some* pair of
        // consecutive sends ends up with inverted deadlines. We test
        // deterministically: jitter is a pure function of the global
        // sequence number, so two specific messages reorder reproducibly.
        let model = NetworkModel { latency: Duration::from_millis(4), ..NetworkModel::instant() };
        let f: Arc<Fabric<u32>> = Fabric::new(2, model, true);
        for i in 0..32 {
            f.send(img(0), img(1), 0, i);
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut order = Vec::new();
        while order.len() < 32 {
            if let Some(m) = f.recv_until(img(1), deadline) {
                order.push(m);
            } else {
                panic!("timed out draining");
            }
        }
        let sorted: Vec<u32> = (0..32).collect();
        assert_ne!(order, sorted, "expected at least one reordering");
        let mut check = order.clone();
        check.sort_unstable();
        assert_eq!(check, sorted, "no loss, no duplication");
    }

    // ------------------------------------------------------------------
    // Chaos layer
    // ------------------------------------------------------------------

    fn drain_reliable(
        f: &Arc<Fabric<u32>>,
        at: ImageId,
        expect: usize,
        patience: Duration,
    ) -> Vec<u32> {
        let deadline = Instant::now() + patience;
        let mut got = Vec::new();
        while got.len() < expect && Instant::now() < deadline {
            if let Some(m) = f.recv_until(at, Instant::now() + Duration::from_millis(5)) {
                got.push(m);
            }
        }
        got
    }

    /// The sender must keep polling (its fabric calls apply due acks and
    /// pump retransmissions) for the protocol to converge.
    fn pump_sender(f: &Arc<Fabric<u32>>, sender: ImageId) {
        while f.try_recv(sender).is_some() {}
    }

    #[test]
    fn heavy_drop_rate_still_delivers_every_message_once() {
        let plan = FaultPlan::uniform_drop(0xC0FFEE, 0.4).with_dup(0.2);
        let f: Arc<Fabric<u32>> =
            Fabric::with_faults(2, NetworkModel::instant(), false, plan, RetryPolicy::aggressive());
        let total = 200u32;
        for i in 0..total {
            f.send(img(0), img(1), 4, i);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut got = Vec::new();
        while got.len() < total as usize {
            assert!(Instant::now() < deadline, "lost messages: got {}", got.len());
            if let Some(m) = f.recv_until(img(1), Instant::now() + Duration::from_millis(2)) {
                got.push(m);
            }
            pump_sender(&f, img(0)); // sender consumes acks, pumps retries
        }
        got.sort_unstable();
        assert_eq!(got, (0..total).collect::<Vec<_>>(), "exactly-once violated");
        assert!(f.stats().wire_drops() > 0, "plan should have dropped something");
        assert!(f.stats().retries() > 0, "drops must have forced retries");
        assert_eq!(f.stats().delivered(), total as u64);
        // The last acks may still be in flight; pump both sides until the
        // sender's outstanding queue converges to empty.
        while f.retry_backlog(img(0)) > 0 {
            assert!(Instant::now() < deadline, "acks never converged");
            pump_sender(&f, img(0));
            while f.try_recv(img(1)).is_some() {}
            std::thread::yield_now();
        }
    }

    #[test]
    fn duplicates_are_filtered_not_double_counted() {
        let plan = FaultPlan::none(9).with_dup(1.0); // duplicate everything
        let f: Arc<Fabric<u32>> =
            Fabric::with_faults(2, NetworkModel::instant(), false, plan, RetryPolicy::aggressive());
        for i in 0..50 {
            f.send(img(0), img(1), 0, i);
        }
        let got = drain_reliable(&f, img(1), 50, Duration::from_secs(10));
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // Nothing further surfaces even though the wire carried ~2x.
        assert_eq!(f.try_recv(img(1)), None);
        assert!(f.stats().dups_discarded() > 0);
        assert_eq!(f.stats().delivered(), 50);
    }

    #[test]
    fn total_drop_link_exhausts_retry_budget() {
        let plan = FaultPlan::none(1).with_link(0, 1, 1.0); // black hole
        let retry = RetryPolicy {
            ack_timeout: Duration::from_micros(200),
            backoff: 2,
            max_timeout: Duration::from_millis(1),
            max_retries: 3,
        };
        let horizon = retry.exhaustion_horizon();
        let f: Arc<Fabric<u32>> =
            Fabric::with_faults(2, NetworkModel::instant(), false, plan, retry);
        f.send(img(0), img(1), 0, 7);
        assert_eq!(f.retry_backlog(img(0)), 1);
        let deadline = Instant::now() + horizon * 4 + Duration::from_millis(50);
        while f.stats().retries_exhausted() == 0 {
            assert!(Instant::now() < deadline, "budget never exhausted");
            f.wait_activity(img(0), Instant::now() + Duration::from_micros(100));
        }
        assert_eq!(f.retry_backlog(img(0)), 0, "abandoned message must leave the queue");
        assert_eq!(f.stats().retries(), 3, "exactly max_retries retransmissions");
        assert_eq!(f.try_recv(img(1)), None, "nothing ever crossed the link");
    }

    #[test]
    fn ack_loss_causes_retries_but_no_duplicate_delivery() {
        // Reverse link (acks) is a black hole; data link is clean.
        let plan = FaultPlan::none(4).with_link(1, 0, 1.0);
        let retry = RetryPolicy {
            ack_timeout: Duration::from_micros(200),
            backoff: 2,
            max_timeout: Duration::from_millis(1),
            max_retries: 4,
        };
        let f: Arc<Fabric<u32>> =
            Fabric::with_faults(2, NetworkModel::instant(), false, plan, retry);
        f.send(img(0), img(1), 0, 11);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut surfaced = Vec::new();
        while f.stats().retries_exhausted() == 0 {
            assert!(Instant::now() < deadline, "sender never gave up");
            if let Some(m) = f.try_recv(img(1)) {
                surfaced.push(m);
            }
            f.wait_activity(img(0), Instant::now() + Duration::from_micros(100));
        }
        // Give any in-flight retransmits time to land, then re-drain.
        std::thread::sleep(Duration::from_millis(5));
        while let Some(m) = f.try_recv(img(1)) {
            surfaced.push(m);
        }
        assert_eq!(surfaced, vec![11], "dedup must absorb every retransmission");
        assert!(f.stats().dups_discarded() > 0, "retransmits should have arrived");
        assert_eq!(f.stats().delivered(), 1);
    }

    #[test]
    fn acks_land_while_the_receiver_is_busy() {
        // A lossless plan, a full 512-deep inbox, and a receiver that pops
        // nothing for five ack timeouts: acks are sent on arrival, so the
        // sender must see all 512 acknowledged without a single
        // retransmission, however long the frames wait to be popped.
        const FRAMES: u32 = 512;
        let model = NetworkModel {
            latency: Duration::from_micros(20),
            inbox_capacity: Some(FRAMES as usize),
            ..NetworkModel::instant()
        };
        let retry = RetryPolicy::default();
        let quiet = retry.ack_timeout * 5;
        let f: Arc<Fabric<u32>> = Fabric::with_faults(2, model, false, FaultPlan::none(17), retry);
        for i in 0..FRAMES {
            f.send(img(0), img(1), 8, i);
        }
        let end = Instant::now() + quiet;
        while Instant::now() < end {
            f.wait_activity(img(0), end);
        }
        assert_eq!(f.stats().retries(), 0, "retransmitted frames that had arrived");
        assert_eq!(f.retry_backlog(img(0)), 0, "acks of arrived frames never landed");
        assert_eq!(f.stats().acks(), FRAMES as u64);
        assert_eq!(f.inbox_depth(img(1)), FRAMES as usize, "only the originals are queued");
        let mut got: Vec<u32> = std::iter::from_fn(|| f.try_recv(img(1))).collect();
        got.sort_unstable();
        assert_eq!(got, (0..FRAMES).collect::<Vec<_>>());
        assert_eq!(f.stats().dups_discarded(), 0);
    }

    #[test]
    fn ack_from_an_image_that_crashed_first_is_discarded() {
        // The data lands half a second after it is sent and its ack half a
        // second later; the receiver fail-stops before either, so the ack
        // never counts and the message stays outstanding.
        let model = NetworkModel { latency: Duration::from_millis(500), ..NetworkModel::instant() };
        let retry = RetryPolicy { ack_timeout: Duration::from_secs(60), ..RetryPolicy::default() };
        let f: Arc<Fabric<u32>> = Fabric::with_faults(2, model, false, FaultPlan::none(3), retry);
        f.send(img(0), img(1), 0, 5);
        assert_eq!(f.stats().acks(), 1, "the ack is rolled when the data is sent");
        f.mark_crashed(img(1));
        assert_eq!(f.retry_backlog(img(0)), 1);
        let st = f.chaos.as_ref().unwrap().senders[0].lock();
        let o = &st.outstanding[1][0];
        let due = o.ack_due.expect("a lossless wire delivers the ack");
        assert!(!o.acked_by(due, f.crash_time(1)), "crashed before its ack fell due");
        assert!(o.acked_by(due, None), "a live receiver's ack counts once due");
    }

    #[test]
    fn stall_window_defers_delivery_until_it_closes() {
        let stall = Duration::from_millis(40);
        let plan = FaultPlan::none(2).with_stall(1, Duration::ZERO, stall);
        let f: Arc<Fabric<u32>> = Fabric::with_faults(
            2,
            NetworkModel::instant(),
            false,
            plan,
            RetryPolicy { ack_timeout: Duration::from_secs(1), ..RetryPolicy::default() },
        );
        let t0 = Instant::now();
        f.send(img(0), img(1), 0, 3);
        assert_eq!(f.try_recv(img(1)), None, "stalled image must not see the message yet");
        let got = f.recv_until(img(1), t0 + Duration::from_secs(5));
        assert_eq!(got, Some(3));
        assert!(
            t0.elapsed() >= stall - Duration::from_millis(1),
            "delivery {}µs after send, before the {}ms window closed",
            t0.elapsed().as_micros(),
            stall.as_millis()
        );
    }

    // ------------------------------------------------------------------
    // Fail-stop crashes + failure detection
    // ------------------------------------------------------------------

    use caf_core::failure::FailureParams;

    fn chaos_pair(plan: FaultPlan) -> Arc<Fabric<u32>> {
        Fabric::with_chaos(
            2,
            NetworkModel::instant(),
            false,
            plan,
            RetryPolicy::aggressive(),
            Some(FailureParams::aggressive()),
        )
    }

    #[test]
    fn idle_links_heartbeat_and_stay_alive() {
        let f = chaos_pair(FaultPlan::none(7));
        let deadline = Instant::now() + FailureParams::aggressive().detection_horizon() * 3;
        while Instant::now() < deadline {
            for i in 0..2 {
                while f.try_recv(img(i)).is_some() {}
                f.wait_activity(img(i), Instant::now() + Duration::from_micros(200));
            }
        }
        assert!(f.stats().heartbeats() > 0, "idle links must heartbeat");
        assert!(f.poll_failures(img(0)).is_empty(), "image 1 is alive");
        assert!(f.poll_failures(img(1)).is_empty(), "image 0 is alive");
    }

    #[test]
    fn injected_crash_is_confirmed_by_the_survivor() {
        // Image 1 crashes on the very first wire transmission.
        let f = chaos_pair(FaultPlan::none(3).with_crash(1, 0));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut downs = Vec::new();
        while downs.is_empty() {
            assert!(Instant::now() < deadline, "crash never confirmed");
            downs = f.poll_failures(img(0));
            std::thread::sleep(Duration::from_micros(200));
        }
        assert_eq!(downs[0].peer, 1);
        assert_eq!(downs[0].incarnation, 1);
        assert!(downs[0].latency.is_some(), "fabric knows when the crash fired");
        assert!(f.is_crashed(img(1)));
        assert_eq!(f.crashed_images(), vec![1]);
        assert!(f.stats().crash_drops() > 0, "traffic to the dead image is destroyed");
    }

    #[test]
    fn posthumous_data_is_filtered_not_delivered() {
        let model = NetworkModel { latency: Duration::from_millis(30), ..NetworkModel::instant() };
        let f: Arc<Fabric<u32>> = Fabric::with_chaos(
            2,
            model,
            false,
            FaultPlan::none(11),
            RetryPolicy { ack_timeout: Duration::from_secs(60), ..RetryPolicy::default() },
            Some(FailureParams::default()),
        );
        // Image 1's message is in flight when image 0 learns of its death
        // (e.g. from an ImageDown broadcast).
        f.send(img(1), img(0), 4, 77);
        f.mark_peer_dead(img(0), 1, 1);
        let got = f.recv_until(img(0), Instant::now() + Duration::from_millis(200));
        assert_eq!(got, None, "posthumous payload must not surface");
        assert!(f.stats().posthumous_drops() > 0);
        assert_eq!(f.stats().delivered(), 0);
    }

    #[test]
    fn crashed_destination_never_parks_a_sender() {
        let model = NetworkModel { inbox_capacity: Some(1), ..NetworkModel::instant() };
        let f: Arc<Fabric<u32>> = Fabric::with_chaos(
            2,
            model,
            false,
            FaultPlan::none(5),
            RetryPolicy::default(),
            Some(FailureParams::default()),
        );
        f.send(img(0), img(1), 0, 1); // fills the capacity-1 inbox
        f.mark_crashed(img(1));
        let t0 = Instant::now();
        f.send(img(0), img(1), 0, 2); // must admit-and-drop, not park
        assert!(t0.elapsed() < Duration::from_secs(1), "sender parked on a dead drainer");
        assert!(f.stats().crash_drops() > 0);
        assert!(f.try_send(img(0), img(1), 0, 3).is_ok(), "try_send must admit-and-drop too");
    }

    #[test]
    fn retired_images_are_never_suspected() {
        let f = chaos_pair(FaultPlan::none(9));
        f.retire(img(1)); // image 1 exits cleanly and goes silent
        let deadline = Instant::now() + FailureParams::aggressive().detection_horizon() * 3;
        while Instant::now() < deadline {
            assert!(f.poll_failures(img(0)).is_empty(), "clean exit misread as a crash");
            std::thread::sleep(Duration::from_micros(500));
        }
        let (suspects, _) = f.failure_metrics(img(0));
        assert_eq!(suspects, 0, "retired peers must never enter the suspect window");
    }

    #[test]
    fn retry_exhaustion_fast_paths_to_death_confirmation() {
        // Both directions are black holes, and the silence deadline is an
        // hour: only the retry-exhaustion hint can raise the suspicion.
        let plan = FaultPlan::none(2).with_link(0, 1, 1.0).with_link(1, 0, 1.0);
        let retry = RetryPolicy {
            ack_timeout: Duration::from_micros(200),
            backoff: 2,
            max_timeout: Duration::from_millis(1),
            max_retries: 3,
        };
        let params = FailureParams {
            heartbeat_period: Duration::from_millis(1),
            suspect_after: Duration::from_secs(3600),
            confirm_after: Duration::from_millis(5),
        };
        let f: Arc<Fabric<u32>> =
            Fabric::with_chaos(2, NetworkModel::instant(), false, plan, retry, Some(params));
        f.send(img(0), img(1), 0, 9);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut downs = Vec::new();
        while downs.is_empty() {
            assert!(Instant::now() < deadline, "exhaustion never confirmed the death");
            f.wait_activity(img(0), Instant::now() + Duration::from_micros(200));
            downs = f.poll_failures(img(0));
        }
        assert!(f.stats().retries_exhausted() > 0);
        assert_eq!(downs[0].peer, 1);
        assert_eq!(downs[0].latency, None, "no crash fault fired; origin unknown");
    }

    #[test]
    fn chaos_decisions_are_reproducible_across_fabrics() {
        // Same plan + same send order → identical drop/dup counters.
        let run = |seed: u64| {
            let plan = FaultPlan::uniform_drop(seed, 0.3).with_dup(0.3);
            let f: Arc<Fabric<u32>> = Fabric::with_faults(
                2,
                NetworkModel::instant(),
                false,
                plan,
                // Ack timeout far beyond the test body: no retransmission
                // ever fires, so wire traffic is exactly the sends.
                RetryPolicy { ack_timeout: Duration::from_secs(60), ..RetryPolicy::default() },
            );
            for i in 0..100 {
                f.send(img(0), img(1), 0, i);
            }
            (f.stats().wire_drops(), f.stats().wire_dups())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should differ somewhere");
    }
}
