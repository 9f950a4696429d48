//! The SNOW process runtime: send (Fig 2), connect (Fig 3), recv (Fig 4)
//! and the disconnection handler (Fig 6).
//!
//! A [`SnowProcess`] wraps a virtual-machine [`ProcessCell`] with the
//! paper's protocol state: the PL-table cache `pl[]`, the `Connected`
//! set with its channels `cc[]`, the received-message-list, and the
//! `Closed_conn` coordination counter. All algorithm line references in
//! comments are to the paper's figures.

use crate::error::ProtoError;
use crate::rml::Rml;
use bytes::Bytes;
use snow_net::FrameClass;
use snow_state::{PipelineConfig, StateCostModel};
use snow_trace::EventKind;
use snow_vm::process::EnvError;
use snow_vm::wire::{ConnReqMsg, Ctrl, ExeStatus, SchedReply, SchedRequest};
use snow_vm::{
    Envelope, HostId, Incoming, Payload, PostSender, ProcessCell, Rank, Signal, Tag, Vmid,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Tag used by protocol marker envelopes (`peer_migrating`,
/// `end_of_messages`); never surfaced to applications.
pub(crate) const TAG_CTRL: Tag = -1;

/// How long a blocking protocol step may stall before reporting a
/// watchdog error instead of hanging (peers dying uncoordinated are
/// outside the paper's failure model).
pub(crate) const WATCHDOG: Duration = Duration::from_secs(60);

/// Granularity at which blocked protocol loops wake to run liveness
/// checks.
pub(crate) const TICK: Duration = Duration::from_millis(25);

/// How long a connection attempt waits for a reply before re-sending
/// its lookup or `conn_req` (under the same request id). Both ride the
/// connectionless datagram service (§2.3), so either leg may be lost;
/// re-sending is the requester's recovery, and the daemon/target dedup
/// duplicate requests.
pub(crate) const CONN_RESEND: Duration = Duration::from_millis(110);

/// Pacing of the fresh `conn_req` after a *stale* nack — one whose
/// re-lookup named the nacked vmid again (the target is migrating and
/// the directory has not committed yet, or it died without telling the
/// scheduler).
const STALE_PACE: Duration = Duration::from_millis(2);

/// Consecutive stale nacks after which a connection attempt reports
/// [`ProtoError::Watchdog`] instead of retrying: a target that nacks
/// from the same location this long is dead, and peers dying
/// uncoordinated are outside the paper's failure model.
const MAX_STALE_NACKS: u32 = 400;

/// The watchdog window stretched for slowed modeled hosts: a
/// `time_scale` that makes modeled seconds real must also stretch the
/// deadline, or a legitimately slow drain/transfer trips the watchdog
/// spuriously.
pub(crate) fn scaled_watchdog(scale: snow_net::TimeScale) -> Duration {
    WATCHDOG.max(scale.real(WATCHDOG.as_secs_f64()))
}

/// Events surfaced by the shared inbox-processing loop. Everything not
/// listed here (data buffering, inbound connection grants) is fully
/// handled internally.
#[derive(Debug)]
pub(crate) enum Event {
    /// A data message was appended to the RML (re-check your match).
    Data,
    /// An inbound connection was granted to `peer`.
    InboundConn(Rank),
    /// Our outbound request `req_id` was granted by `peer`.
    Granted {
        /// The request id we sent.
        req_id: u64,
        /// The granting rank.
        peer: Rank,
    },
    /// Our outbound request `req_id` was rejected.
    Nacked {
        /// The rejected request id.
        req_id: u64,
    },
    /// A scheduler reply arrived.
    Sched(SchedReply),
    /// A `peer_migrating` marker from `rank` was processed: the channel
    /// is closed and `Closed_conn` incremented.
    PeerMigrated(Rank),
    /// An `end_of_messages` marker from `rank` (meaningful during a
    /// migration drain).
    EndOfMessages(Rank),
    /// The forwarded received-message-list (initialization only; on a
    /// migrating source a batch is a deposit return and goes straight
    /// to the RML).
    StateBatch(Vec<Envelope>),
    /// One chunk of the exe+mem state stream (initialization only).
    StateChunk {
        /// Position in the stream (0 = header chunk).
        seq: u32,
        /// FNV-1a of `bytes`.
        checksum: u64,
        /// The chunk's slice of the canonical state body.
        bytes: Bytes,
    },
    /// The digest frame closing the state stream (initialization only).
    StateDigest {
        /// Whole-body FNV-1a.
        digest: u64,
        /// Chunk count the source sent.
        chunks: u32,
        /// Total body bytes the source sent.
        total_bytes: u64,
    },
    /// The destination's verdict on a transferred state image
    /// (migration source only).
    StateAck {
        /// Whether the destination restored the state successfully.
        ok: bool,
        /// The destination's vmid — lets the source discard acks from an
        /// earlier, already-aborted attempt.
        from: Vmid,
        /// Failure detail when `ok` is false.
        detail: String,
    },
    /// A peer's migration was aborted; it resumed at its pre-migration
    /// vmid and re-announced itself (the peer rank is recorded in the
    /// trace as [`EventKind::MigrationAbortSeen`]).
    PeerMigrationAborted,
}

/// Progress of one Fig 3 connection establishment toward a destination
/// rank. [`SnowProcess::connect_step`] advances it by at most one
/// outbound message per call; grants, nacks and location replies land
/// through [`SnowProcess::note_event`].
#[derive(Debug)]
struct PendingConn {
    phase: Phase,
    /// When `phase`'s outbound message is (re-)sent: the re-send of a
    /// lookup or `conn_req` that may have been lost, or the paced retry
    /// after a stale nack.
    due: Instant,
    /// Consecutive nacks whose re-lookup named the nacked vmid again.
    stale: u32,
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// A scheduler lookup is in flight (Fig 3 lines 10–14); `refused`
    /// says why the previous `conn_req` failed, judged against the
    /// reply.
    Lookup { refused: Option<Refusal> },
    /// A `conn_req` is outstanding at `target` (Fig 3 lines 2–5).
    Req { req_id: u64, target: Vmid },
    /// A fresh `conn_req` goes to the cached location (or a lookup
    /// first, if none is cached) at `due`. A new attempt starts here,
    /// and a stale nack waits here for its pacing deadline.
    Retry,
}

#[derive(Debug, Clone, Copy)]
enum Refusal {
    /// The target's host has left the virtual machine: the requester's
    /// daemon rejected on its behalf (§3.1).
    HostGone(HostId),
    /// The target (or its daemon) nacked the request.
    Nacked(Vmid),
}

/// A SNOW application process: the paper's protocol endpoint.
pub struct SnowProcess {
    pub(crate) cell: ProcessCell,
    pub(crate) rank: Rank,
    /// PL-table cache: rank → vmid (§2.1).
    pub(crate) pl: HashMap<Rank, Vmid>,
    /// `Connected` + `cc[]`: open logical channels per peer rank.
    pub(crate) cc: HashMap<Rank, PostSender<Incoming>>,
    /// The received-message-list (§3.1).
    pub(crate) rml: Rml,
    /// The `Closed_conn` coordination counter (Fig 6).
    pub(crate) closed_conn: u32,
    /// In-flight connection attempts (Fig 3), one per destination.
    pending_conn: HashMap<Rank, PendingConn>,
    /// Set once a `migration_request` signal has been intercepted.
    pub(crate) migrate_pending: bool,
    /// True while running `migrate()`: inbound `conn_req`s are nacked.
    pub(crate) migrating: bool,
    /// State collect/restore cost model.
    pub(crate) cost: StateCostModel,
    /// Chunked state-transfer knobs used by `migrate()`.
    pub(crate) pipeline: PipelineConfig,
    /// Failure-injection hook: corrupt this chunk seq on the *next*
    /// migration attempt (one-shot; cleared when consumed).
    pub(crate) corrupt_chunk: Option<u32>,
}

impl SnowProcess {
    /// Wrap a freshly spawned process.
    pub fn fresh(cell: ProcessCell, rank: Rank, cost: StateCostModel) -> Self {
        let mut pl = HashMap::new();
        pl.insert(rank, cell.vmid());
        SnowProcess {
            cell,
            rank,
            pl,
            cc: HashMap::new(),
            rml: Rml::new(),
            closed_conn: 0,
            pending_conn: HashMap::new(),
            migrate_pending: false,
            migrating: false,
            cost,
            pipeline: PipelineConfig::default(),
            corrupt_chunk: None,
        }
    }

    /// Override the chunked state-transfer configuration this process
    /// will use when it migrates.
    pub fn set_pipeline(&mut self, cfg: PipelineConfig) {
        self.pipeline = cfg;
    }

    /// Failure injection for tests: flip one bit in chunk `seq` of the
    /// next migration's state stream, forcing the destination's checksum
    /// check to fail and the migration to abort (or retry, under a
    /// scheduler retry policy). One-shot: a retried attempt transmits
    /// clean.
    pub fn inject_chunk_corruption(&mut self, seq: u32) {
        self.corrupt_chunk = Some(seq);
    }

    /// Install PL-table rows (rank → vmid). §2.1: "the PL table is
    /// stored inside the memory spaces of every process" — launchers
    /// distribute the initial table so first connections route directly
    /// instead of consulting the scheduler (consultation is reserved for
    /// the on-demand update after a `conn_nack`, Fig 3).
    pub fn install_pl(&mut self, entries: &[(Rank, Vmid)]) {
        for (r, v) in entries {
            if *r != self.rank {
                self.pl.insert(*r, *v);
            }
        }
    }

    /// This process's application rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// This process's vmid.
    pub fn vmid(&self) -> Vmid {
        self.cell.vmid()
    }

    /// Ranks currently in the `Connected` set.
    pub fn connected(&self) -> Vec<Rank> {
        let mut v: Vec<Rank> = self.cc.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Messages buffered in the received-message-list.
    pub fn rml_len(&self) -> usize {
        self.rml.len()
    }

    /// The environment cell (host spec, tracer, ...).
    pub fn cell(&self) -> &ProcessCell {
        &self.cell
    }

    fn trace(&self, kind: EventKind) {
        self.cell.trace(kind);
    }

    // ------------------------------------------------------------------
    // Shared inbox processing
    // ------------------------------------------------------------------

    /// Receive and classify the next inbox message, fully handling
    /// everything that has a context-independent reaction:
    /// * data messages → RML (Fig 4 line 7),
    /// * `peer_migrating` → close channel + `Closed_conn += 1`
    ///   (Fig 4 lines 12–14),
    /// * inbound `conn_req` → grant, or nack while migrating
    ///   (Fig 4 lines 9–11 / Fig 5 line 4),
    /// * an RML batch while migrating → RML: on the source it can only
    ///   be the deposits a failed destination returned, held for the
    ///   retry or abort path.
    ///
    /// Returns `Ok(None)` on a tick timeout so callers can run liveness
    /// checks; errors with [`ProtoError::Watchdog`] via
    /// [`Self::wait_event`].
    pub(crate) fn next_event(&mut self, timeout: Duration) -> Result<Option<Event>, ProtoError> {
        let inc = match self.cell.recv_incoming_timeout(timeout) {
            Ok(Some(inc)) => inc,
            Ok(None) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Ok(Some(self.classify(inc)))
    }

    fn classify(&mut self, inc: Incoming) -> Event {
        match inc {
            Incoming::Data(env) => match env.payload {
                Payload::Data(_) => {
                    self.trace(EventKind::RmlAppend {
                        from: env.src,
                        tag: env.tag,
                        msg: env.msg,
                    });
                    self.rml.append(env);
                    Event::Data
                }
                Payload::PeerMigrating => {
                    let src = env.src;
                    self.trace(EventKind::PeerMigratingSeen { peer: src });
                    self.close_channel_to(src);
                    self.closed_conn += 1;
                    Event::PeerMigrated(src)
                }
                Payload::EndOfMessages => {
                    self.trace(EventKind::EndOfMessages { peer: env.src });
                    Event::EndOfMessages(env.src)
                }
                Payload::RmlBatch(batch) if self.migrating => {
                    for env in batch {
                        self.rml.append(env);
                    }
                    Event::Data
                }
                Payload::RmlBatch(batch) => Event::StateBatch(batch),
                Payload::ExeMemStateChunk {
                    seq,
                    checksum,
                    bytes,
                } => Event::StateChunk {
                    seq,
                    checksum,
                    bytes,
                },
                Payload::ExeMemStateDigest {
                    digest,
                    chunks,
                    total_bytes,
                } => Event::StateDigest {
                    digest,
                    chunks,
                    total_bytes,
                },
                Payload::StateAck { ok, from, detail } => Event::StateAck { ok, from, detail },
                Payload::MigrationAborted => {
                    self.trace(EventKind::MigrationAbortSeen { peer: env.src });
                    Event::PeerMigrationAborted
                }
            },
            Incoming::Ctrl(ctrl) => match ctrl {
                Ctrl::ConnReq(req) => {
                    if self.migrating {
                        // Fig 5 line 4: a migrating process rejects
                        // connection requests itself.
                        let req_id = req.req_id;
                        let target = req.target;
                        self.trace(EventKind::ConnNack { to: req.from_rank });
                        self.cell
                            .answer_conn_req(req_id, Ctrl::ConnNack { req_id, target });
                        Event::Data
                    } else {
                        let peer = req.from_rank;
                        self.grant(req);
                        Event::InboundConn(peer)
                    }
                }
                Ctrl::ConnGrant {
                    req_id,
                    peer_rank,
                    peer_vmid,
                    data_to_granter,
                } => {
                    self.pl.insert(peer_rank, peer_vmid);
                    // Crossing-request dedup: the first established
                    // channel wins so each direction stays on one wire.
                    if let std::collections::hash_map::Entry::Vacant(e) = self.cc.entry(peer_rank) {
                        e.insert(data_to_granter);
                        self.trace(EventKind::ChannelOpen { peer: peer_rank });
                    }
                    Event::Granted {
                        req_id,
                        peer: peer_rank,
                    }
                }
                Ctrl::ConnNack { req_id, .. } => Event::Nacked { req_id },
                Ctrl::Sched(reply) => Event::Sched(reply),
                // Normal processes never receive scheduler *requests*.
                Ctrl::SchedRequest(_) => Event::Data,
            },
        }
    }

    /// Block for the next event, up to the watchdog limit.
    pub(crate) fn wait_event(&mut self, what: &'static str) -> Result<Event, ProtoError> {
        let deadline = Instant::now() + WATCHDOG;
        loop {
            if let Some(ev) = self.next_event(TICK)? {
                return Ok(ev);
            }
            if Instant::now() >= deadline {
                return Err(ProtoError::Watchdog(what));
            }
        }
    }

    /// Grant an inbound connection request (`grant_connection_to`,
    /// Fig 3 line 7 / Fig 4 line 10).
    pub(crate) fn grant(&mut self, req: ConnReqMsg) {
        let peer = req.from_rank;
        self.pl.insert(peer, req.from_vmid);
        let grant = Ctrl::ConnGrant {
            req_id: req.req_id,
            peer_rank: self.rank,
            peer_vmid: self.cell.vmid(),
            data_to_granter: self.cell.data_sender_to_me(req.from_vmid.host),
        };
        self.trace(EventKind::ConnAck { from: peer });
        self.cell.answer_conn_req(req.req_id, grant);
        if let std::collections::hash_map::Entry::Vacant(e) = self.cc.entry(peer) {
            e.insert(req.data_to_requester);
            self.trace(EventKind::ChannelOpen { peer });
        }
    }

    /// Build a protocol control frame (marker, RML batch, state chunk,
    /// ack): a [`TAG_CTRL`] envelope from this rank with a fresh msg id,
    /// ready to post, and its modeled wire size.
    pub(crate) fn ctrl_frame(&self, payload: Payload) -> (Incoming, usize) {
        let env = Envelope {
            src: self.rank,
            tag: TAG_CTRL,
            msg: self.cell.tracer().next_msg_id(),
            payload,
        };
        let bytes = env.wire_bytes();
        (Incoming::Data(env), bytes)
    }

    /// Close the channel toward `peer`, sending `end_of_messages` as the
    /// last message on it (§3.2.2).
    pub(crate) fn close_channel_to(&mut self, peer: Rank) {
        if let Some(tx) = self.cc.remove(&peer) {
            let (frame, bytes) = self.ctrl_frame(Payload::EndOfMessages);
            let _ = tx.send(frame, bytes);
            self.trace(EventKind::ChannelClose { peer });
        }
    }

    // ------------------------------------------------------------------
    // connect (Fig 3): one step machine, two drivers
    // ------------------------------------------------------------------
    //
    // `connect_step` is the only implementation of Fig 3. It sends at
    // most one message per call and never waits; `note_event` feeds it
    // the replies. The cooperative API (`pump` + `connect_step`, used by
    // `try_send`) lets a bounded worker pool multiplex thousands of
    // ranks, where a thread parked in a connect would wait for a grant
    // from a rank no worker is left to step. The blocking `connect`
    // (used by `send`) drives the same steps, parking on the inbox
    // between them and adding the watchdog. The nack policy lives in
    // the step machine, so both drivers get the same bound:
    // * a gone host whose fresh lookup still names that host is an
    //   error (`EnvError::HostGone`);
    // * a nack whose fresh lookup names the nacked vmid again is
    //   *stale*: the retry is paced by `STALE_PACE` and the attempt
    //   fails after `MAX_STALE_NACKS` of them in a row;
    // * a lookup or `conn_req` left unanswered is re-sent after
    //   `CONN_RESEND`.

    /// Drain every deliverable inbox message without blocking, running
    /// the shared classifier on each (data → RML, inbound `conn_req` →
    /// grant, markers → channel close + `Closed_conn`) and feeding
    /// grants, nacks and scheduler replies into any in-flight
    /// [`Self::connect_step`] state.
    pub fn pump(&mut self) -> Result<(), ProtoError> {
        while let Some(ev) = self.next_event(Duration::ZERO)? {
            self.note_event(ev)?;
        }
        Ok(())
    }

    /// Resolve one classified event against the in-flight connection
    /// attempts: the reply half of Fig 3.
    fn note_event(&mut self, ev: Event) -> Result<(), ProtoError> {
        match ev {
            // `classify` already installed pl + cc; the pending attempt
            // (crossing or our own, Fig 3 lines 6–8) is satisfied.
            Event::Granted { peer, .. } | Event::InboundConn(peer)
                if self.cc.contains_key(&peer) =>
            {
                self.pending_conn.remove(&peer);
            }
            // Fig 3 lines 9–10: a nack invalidates the cached location
            // and fires a scheduler lookup.
            Event::Nacked { req_id } => {
                let nacked = self.pending_conn.iter().find_map(|(d, pc)| match pc.phase {
                    Phase::Req { req_id: r, target } if r == req_id => Some((*d, target, pc.stale)),
                    _ => None,
                });
                if let Some((dest, target, stale)) = nacked {
                    self.trace(EventKind::ConnNack { to: dest });
                    self.pl.remove(&dest);
                    self.begin_lookup(dest, Some(Refusal::Nacked(target)), stale)?;
                }
            }
            // Fig 3 lines 11–14: report termination, or judge the fresh
            // location against the refusal that prompted the lookup.
            Event::Sched(SchedReply::Location {
                about,
                status,
                vmid,
            }) => {
                let Some(&PendingConn {
                    phase: Phase::Lookup { refused },
                    stale,
                    ..
                }) = self.pending_conn.get(&about)
                else {
                    return Ok(());
                };
                self.pending_conn.remove(&about);
                let v = match (status, vmid) {
                    (ExeStatus::Terminated, _) | (_, None) => {
                        return Err(ProtoError::DestinationTerminated(about))
                    }
                    (_, Some(v)) => v,
                };
                self.pl.insert(about, v);
                match refused {
                    Some(Refusal::HostGone(h)) if v.host == h => {
                        return Err(ProtoError::Env(EnvError::HostGone(h)))
                    }
                    Some(Refusal::Nacked(t)) if v == t => {
                        if stale + 1 >= MAX_STALE_NACKS {
                            return Err(ProtoError::Watchdog("connect retries"));
                        }
                        self.pending_conn.insert(
                            about,
                            PendingConn {
                                phase: Phase::Retry,
                                due: Instant::now() + STALE_PACE,
                                stale: stale + 1,
                            },
                        );
                    }
                    // A fresh location: the next step sends the
                    // `conn_req` there.
                    _ => {}
                }
            }
            Event::Sched(SchedReply::Error { reason })
                if self
                    .pending_conn
                    .values()
                    .any(|pc| matches!(pc.phase, Phase::Lookup { .. })) =>
            {
                return Err(ProtoError::Scheduler(reason))
            }
            _ => {}
        }
        Ok(())
    }

    /// Fire (not await) a scheduler lookup for `dest` and record it as
    /// the pending connect state.
    fn begin_lookup(
        &mut self,
        dest: Rank,
        refused: Option<Refusal>,
        stale: u32,
    ) -> Result<(), ProtoError> {
        self.trace(EventKind::SchedulerConsult { about: dest });
        self.cell.sched_send(SchedRequest::Lookup {
            about: dest,
            reply: self.cell.reply_sender(),
        })?;
        self.pending_conn.insert(
            dest,
            PendingConn {
                phase: Phase::Lookup { refused },
                due: Instant::now() + CONN_RESEND,
                stale,
            },
        );
        Ok(())
    }

    /// Fig 3 line 2: send `conn_req` `req_id` to `target`, recording it
    /// as pending; a gone host invalidates the location and falls back
    /// to a lookup (§3.1 requester-side daemon rejection).
    fn send_conn_req(
        &mut self,
        dest: Rank,
        req_id: u64,
        target: Vmid,
        stale: u32,
    ) -> Result<(), ProtoError> {
        self.trace(EventKind::ConnReq { to: dest });
        if let Err(EnvError::HostGone(h)) = self.route_conn_req(req_id, target) {
            self.trace(EventKind::ConnNack { to: dest });
            self.pl.remove(&dest);
            return self.begin_lookup(dest, Some(Refusal::HostGone(h)), stale);
        }
        self.pending_conn.insert(
            dest,
            PendingConn {
                phase: Phase::Req { req_id, target },
                due: Instant::now() + CONN_RESEND,
                stale,
            },
        );
        Ok(())
    }

    /// Address one `conn_req` to `target` and route it through the
    /// daemons (§3.1). Shared by [`Self::connect_step`] and the
    /// migration's state-transfer connect.
    pub(crate) fn route_conn_req(&self, req_id: u64, target: Vmid) -> Result<(), EnvError> {
        self.cell.route_conn_req(ConnReqMsg {
            req_id,
            from_rank: self.rank,
            from_vmid: self.cell.vmid(),
            target,
            reply: self.cell.reply_sender(),
            data_to_requester: self.cell.data_sender_to_me(target.host),
        })
    }

    /// One non-blocking step of `connect` (Fig 3): returns `true` once
    /// `dest` is in the `Connected` set. Each call sends at most one
    /// message — the `conn_req` (or the lookup that must precede it),
    /// or the re-send of a stalled one once its deadline has passed.
    /// Replies arrive through [`Self::pump`]. Fails when the
    /// destination terminated, when its host left, or when it kept
    /// nacking from the same location: 400 stale nacks in a row, each
    /// retry paced 2 ms apart.
    pub fn connect_step(&mut self, dest: Rank) -> Result<bool, ProtoError> {
        if self.cc.contains_key(&dest) {
            self.pending_conn.remove(&dest);
            return Ok(true);
        }
        let (phase, stale) = match self.pending_conn.get(&dest) {
            Some(pc) if Instant::now() < pc.due => return Ok(false),
            Some(pc) => (pc.phase, pc.stale),
            None => (Phase::Retry, 0),
        };
        match phase {
            Phase::Lookup { refused } => self.begin_lookup(dest, refused, stale)?,
            Phase::Req { req_id, target } => self.send_conn_req(dest, req_id, target, stale)?,
            Phase::Retry => match self.pl.get(&dest) {
                Some(&target) => {
                    let req_id = self.cell.next_req_id();
                    self.send_conn_req(dest, req_id, target, stale)?;
                }
                None => self.begin_lookup(dest, None, stale)?,
            },
        }
        Ok(false)
    }

    /// Establish a connection with `dest` (sender-initiated, §3.1): the
    /// blocking driver of [`Self::connect_step`]. Between steps it parks
    /// on the inbox until the attempt's next deadline (at most
    /// [`TICK`]), feeding every event through [`Self::note_event`], and
    /// reports [`ProtoError::Watchdog`] after [`WATCHDOG`].
    pub(crate) fn connect(&mut self, dest: Rank) -> Result<(), ProtoError> {
        let deadline = Instant::now() + WATCHDOG;
        while !self.connect_step(dest)? {
            let now = Instant::now();
            if now >= deadline {
                self.pending_conn.remove(&dest);
                return Err(ProtoError::Watchdog("connect"));
            }
            let due = self.pending_conn.get(&dest).map_or(now, |pc| pc.due);
            if let Some(ev) = self.next_event(due.saturating_duration_since(now).min(TICK))? {
                self.note_event(ev)?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // send (Fig 2)
    // ------------------------------------------------------------------

    /// Send `payload` to rank `dest` under `tag`. Establishes the
    /// connection first when necessary; never blocks on the receiver
    /// (buffered mode, §2.3). If the channel died because the peer
    /// migrated away, re-locates and retries transparently.
    pub fn send(&mut self, dest: Rank, tag: Tag, payload: Bytes) -> Result<(), ProtoError> {
        loop {
            // Fig 2 lines 1–3.
            self.connect(dest)?;
            if self.post(dest, tag, &payload) {
                return Ok(());
            }
        }
    }

    /// Non-blocking send (Fig 2): `Ok(true)` when the message was
    /// posted to the channel, `Ok(false)` when the connection is still
    /// being established (nothing was sent — call again later). A
    /// channel that died because the peer migrated away or terminated
    /// is dropped and re-resolved on the next call.
    pub fn try_send(&mut self, dest: Rank, tag: Tag, payload: &Bytes) -> Result<bool, ProtoError> {
        self.pump()?;
        Ok(self.connect_step(dest)? && self.post(dest, tag, payload))
    }

    /// Fig 2 line 4: post one data envelope on the open channel to
    /// `dest`. Returns `false` when the peer's inbox died (it
    /// terminated, or its migration completed and the old process
    /// exited): the stale channel and location are dropped so the next
    /// connect re-resolves them, and the scheduler reports `Terminated`
    /// if the peer is truly gone.
    fn post(&mut self, dest: Rank, tag: Tag, payload: &Bytes) -> bool {
        let env = Envelope {
            src: self.rank,
            tag,
            msg: self.cell.tracer().next_msg_id(),
            payload: Payload::Data(payload.clone()),
        };
        let bytes = env.wire_bytes();
        // The timestamp is captured before the post: the receiver can
        // consume (and trace) the message the instant it lands, and its
        // RecvDone must sort after our Send for the log to stay causal.
        // Recording still happens only on success, so a dead-inbox retry
        // leaves no event. With tracing off the hot path pays neither
        // the clock read nor the event construction.
        let msg = env.msg;
        let t_send = self
            .cell
            .tracer()
            .is_enabled()
            .then(|| self.cell.tracer().now_ns());
        let tx = self.cc.get(&dest).expect("post on a connected channel");
        if tx
            .send_classed(Incoming::Data(env), bytes, FrameClass::Data)
            .is_err()
        {
            self.cc.remove(&dest);
            self.pl.remove(&dest);
            return false;
        }
        if let Some(t_send) = t_send {
            self.cell.trace_at(
                t_send,
                EventKind::Send {
                    to: dest,
                    tag,
                    bytes: payload.len(),
                    msg,
                },
            );
        }
        true
    }

    // ------------------------------------------------------------------
    // recv (Fig 4)
    // ------------------------------------------------------------------

    /// Receive a message matching `src`/`tag` (either may be `None` for
    /// a wildcard). Searches the received-message-list first; new
    /// unwanted messages are appended to it.
    pub fn recv(
        &mut self,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Result<(Rank, Tag, Bytes), ProtoError> {
        self.trace(EventKind::RecvStart { from: src, tag });
        let mut from_rml = true;
        loop {
            // Fig 4 lines 2–4.
            if let Some(m) = self.take_match(src, tag, from_rml) {
                return Ok(m);
            }
            from_rml = false;
            // Fig 4 lines 5–15: get a new data or control message; the
            // shared classifier implements lines 6–14.
            let ev = self.wait_event("recv")?;
            self.note_event(ev)?;
        }
    }

    /// Non-blocking receive (Fig 4): drain deliverable traffic, then
    /// take a buffered match from the received-message-list if one
    /// exists.
    pub fn try_recv(
        &mut self,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Result<Option<(Rank, Tag, Bytes)>, ProtoError> {
        self.pump()?;
        Ok(self.take_match(src, tag, true))
    }

    /// Non-blocking probe: is a matching message already buffered or
    /// deliverable? Drains deliverable inbox traffic into the RML first.
    pub fn probe(&mut self, src: Option<Rank>, tag: Option<Tag>) -> Result<bool, ProtoError> {
        self.pump()?;
        Ok(self
            .rml
            .take_match(src, tag)
            .map(|env| {
                // Put it back in front: probe must not consume.
                self.rml.prepend_batch(vec![env]);
            })
            .is_some())
    }

    /// Take the first RML match and trace its delivery; `from_rml`
    /// records whether it was already buffered when the receive began.
    fn take_match(
        &mut self,
        src: Option<Rank>,
        tag: Option<Tag>,
        from_rml: bool,
    ) -> Option<(Rank, Tag, Bytes)> {
        let env = self.rml.take_match(src, tag)?;
        let Payload::Data(body) = env.payload else {
            unreachable!("only data envelopes enter the RML")
        };
        self.trace(EventKind::RecvDone {
            from: env.src,
            tag: env.tag,
            bytes: body.len(),
            msg: env.msg,
            from_rml,
        });
        Some((env.src, env.tag, body))
    }

    // ------------------------------------------------------------------
    // poll points & signals (Fig 6, §5.2)
    // ------------------------------------------------------------------

    /// A poll point: process queued signals, exactly as the prototype's
    /// migration macros do at compiler-selected locations. Returns
    /// `true` when a `migration_request` has been intercepted and the
    /// application should call [`SnowProcess::migrate`].
    ///
    /// Signals are *only* handled here (and in [`Self::compute`]) —
    /// never inside send/recv — which realises the `sighold`/`sigrelse`
    /// discipline of §5.2.
    pub fn poll_point(&mut self) -> Result<bool, ProtoError> {
        while let Some(sig) = self.cell.poll_signal() {
            self.handle_signal(sig)?;
        }
        Ok(self.migrate_pending)
    }

    /// React to one delivered signal (shared by [`Self::poll_point`] and
    /// [`Self::await_migration_request`]).
    fn handle_signal(&mut self, sig: Signal) -> Result<(), ProtoError> {
        match sig {
            Signal::Migrate => {
                self.cell.trace(EventKind::SignalDelivered {
                    signal: "SIGMIGRATE",
                });
                self.migrate_pending = true;
            }
            Signal::Disconnect { from } => {
                self.cell.trace(EventKind::SignalDelivered {
                    signal: "SIGDISCONNECT",
                });
                self.disconnection_handler(from)?;
            }
        }
        Ok(())
    }

    /// Block until a `migration_request` signal is intercepted or
    /// `timeout` elapses, servicing other signals meanwhile. Returns
    /// whether migration is now pending. This is the event-driven
    /// equivalent of spinning on [`Self::poll_point`] with sleeps: it
    /// parks on the signal queue, so tests and drivers that wait for a
    /// scheduler-initiated migration wake the instant the signal lands.
    pub fn await_migration_request(&mut self, timeout: Duration) -> Result<bool, ProtoError> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.migrate_pending {
                return Ok(true);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(false);
            }
            match self.cell.wait_signal(deadline - now) {
                Some(sig) => self.handle_signal(sig)?,
                None => return Ok(self.migrate_pending),
            }
        }
    }

    /// Has a migration request been intercepted (without polling again)?
    pub fn migration_pending(&self) -> bool {
        self.migrate_pending
    }

    /// The disconnection handler (Fig 6): if the coordination for some
    /// migrating peer has not already been performed by `recv`
    /// (`Closed_conn == 0`), drain messages into the RML until a
    /// `peer_migrating` marker arrives, then close that channel;
    /// otherwise consume one unit of completed coordination.
    fn disconnection_handler(&mut self, _from: Rank) -> Result<(), ProtoError> {
        if self.closed_conn == 0 {
            loop {
                match self.wait_event("disconnection_handler")? {
                    Event::PeerMigrated(_) => break,
                    _ => continue,
                }
            }
            // `classify` incremented Closed_conn for the marker we just
            // consumed; this handler invocation pairs with it.
            self.closed_conn -= 1;
        } else {
            self.closed_conn -= 1;
        }
        Ok(())
    }

    /// A computation event of `modeled_seconds` of work: sleeps the
    /// scaled real time, then hits a poll point. Returns `true` when
    /// migration was requested.
    pub fn compute(&mut self, modeled_seconds: f64) -> Result<bool, ProtoError> {
        self.trace(EventKind::Compute {
            work: (modeled_seconds * 1e6) as u64,
        });
        let real = self.cell.time_scale().real(modeled_seconds);
        if !real.is_zero() {
            std::thread::sleep(real);
        }
        self.poll_point()
    }

    /// Graceful termination: tells the scheduler this rank is done
    /// (peers that later try to reach it get "destination terminated").
    pub fn finish(self) {
        let _ = self
            .cell
            .sched_send(SchedRequest::Terminated { rank: self.rank });
    }
}
