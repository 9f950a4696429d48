//! Deterministic link-level fault injection.
//!
//! A [`FaultPlan`] describes, per link and direction, which faults the
//! network substrate should inject: extra delay/jitter, transient
//! partition windows, connection resets (connection-oriented service)
//! and datagram drop/duplication (connectionless service). The split
//! mirrors §2.3 of the paper: connection-oriented channels stay FIFO
//! and lossless — faults there only *delay* frames or *kill* the
//! connection, both of which the protocol must survive — while the
//! connectionless service is best-effort, so its datagrams may vanish
//! or arrive twice.
//!
//! Every decision is a pure function of `(plan seed, link identity,
//! incarnation, frame index)` — no wall clock, no shared RNG stream —
//! so a run is reproducible regardless of thread interleaving: two
//! wires never contend for randomness, and the n-th frame on a wire
//! always draws the same verdict. Delay is injected by extending the
//! sender's wire-busy time *monotonically* (like extra serialization),
//! which preserves the non-decreasing per-sender delivery times the
//! FIFO guarantee rests on.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;

/// What kind of frame is crossing a connection-oriented link. Protocol
/// markers (`peer_migrating`, `end_of_messages`, state acks …) ride the
/// control plane of §2.3 and are never reset away — losing one would
/// wedge a drain, which the paper's service model rules out. Data and
/// state-transfer frames may hit a reset; the send surfaces an error
/// and the sender's recovery machinery (reconnect / abort-retry) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameClass {
    /// Application payload or state-transfer frame: reset-eligible.
    Data,
    /// Protocol marker/control frame: delayed at most, never failed.
    Control,
}

/// A transient partition window on one link direction: the first frame
/// at or after `at_frame` finds the link down and waits out `hold_s`
/// modeled seconds (frames behind it queue on the wire, so the whole
/// window heals in order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partition {
    /// Frame index at which the partition begins.
    pub at_frame: u64,
    /// Modeled seconds the link stays down.
    pub hold_s: f64,
}

/// Fault classes to inject on links matched by a rule. All-zero means
/// "no faults"; combine freely via the builder methods.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Probability a frame is charged extra delay.
    pub delay_prob: f64,
    /// Upper bound of the extra modeled delay (uniform in `0..delay_s`).
    pub delay_s: f64,
    /// Transient partition windows, in frame indices.
    pub partitions: Vec<Partition>,
    /// Per-data-frame probability the connection is reset underneath
    /// the sender.
    pub reset_prob: f64,
    /// No reset fires before this frame index (lets handshakes and
    /// short scripts get off the ground).
    pub reset_min_frame: u64,
    /// Per-datagram drop probability (connectionless service only).
    pub drop_prob: f64,
    /// Per-datagram duplication probability (connectionless service
    /// only).
    pub dup_prob: f64,
}

impl FaultSpec {
    /// A spec injecting nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Add jitter: with probability `prob`, a frame is charged up to
    /// `max_extra_s` extra modeled seconds.
    pub fn jitter(mut self, prob: f64, max_extra_s: f64) -> Self {
        self.delay_prob = prob;
        self.delay_s = max_extra_s;
        self
    }

    /// Add a transient partition window.
    pub fn partition(mut self, at_frame: u64, hold_s: f64) -> Self {
        self.partitions.push(Partition { at_frame, hold_s });
        self
    }

    /// Add connection resets with per-data-frame probability `prob`,
    /// never before `min_frame`.
    pub fn resets(mut self, prob: f64, min_frame: u64) -> Self {
        self.reset_prob = prob;
        self.reset_min_frame = min_frame;
        self
    }

    /// Add datagram drops.
    pub fn drops(mut self, prob: f64) -> Self {
        self.drop_prob = prob;
        self
    }

    /// Add datagram duplication.
    pub fn duplicates(mut self, prob: f64) -> Self {
        self.dup_prob = prob;
        self
    }

    /// Does this spec affect connection-oriented (stream) traffic?
    pub fn affects_stream(&self) -> bool {
        self.delay_prob > 0.0 || !self.partitions.is_empty() || self.reset_prob > 0.0
    }

    /// Does this spec affect connectionless (datagram) traffic?
    pub fn affects_datagrams(&self) -> bool {
        self.drop_prob > 0.0 || self.dup_prob > 0.0
    }
}

/// Which links a rule applies to. Hosts are named by their raw ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSel {
    /// Every link.
    Any,
    /// Links whose sending side is this host.
    FromHost(u32),
    /// Links whose receiving side is this host.
    ToHost(u32),
    /// Both directions between two hosts.
    Between(u32, u32),
    /// One direction: src → dst.
    Directed(u32, u32),
}

impl LinkSel {
    /// Does this selector cover the directed link `src → dst`?
    pub fn matches(&self, src: u32, dst: u32) -> bool {
        match *self {
            LinkSel::Any => true,
            LinkSel::FromHost(h) => src == h,
            LinkSel::ToHost(h) => dst == h,
            LinkSel::Between(a, b) => (src, dst) == (a, b) || (src, dst) == (b, a),
            LinkSel::Directed(a, b) => (src, dst) == (a, b),
        }
    }

    /// Does this selector cover datagrams routed through `host`'s
    /// daemon?
    pub fn matches_host(&self, host: u32) -> bool {
        match *self {
            LinkSel::Any => true,
            LinkSel::FromHost(h) | LinkSel::ToHost(h) => host == h,
            LinkSel::Between(a, b) | LinkSel::Directed(a, b) => host == a || host == b,
        }
    }
}

/// A seeded set of fault rules. The first rule matching a link wins.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<(LinkSel, FaultSpec)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Append a rule; earlier rules take precedence.
    pub fn rule(mut self, sel: LinkSel, spec: FaultSpec) -> Self {
        self.rules.push((sel, spec));
        self
    }

    /// The stream-fault spec for the directed link `src → dst`, if any
    /// rule covers it.
    pub fn stream_spec(&self, src: u32, dst: u32) -> Option<&FaultSpec> {
        self.rules
            .iter()
            .find(|(sel, spec)| sel.matches(src, dst) && spec.affects_stream())
            .map(|(_, spec)| spec)
    }

    /// The datagram-fault spec for `host`'s daemon, if any rule covers
    /// it.
    pub fn datagram_spec(&self, host: u32) -> Option<&FaultSpec> {
        self.rules
            .iter()
            .find(|(sel, spec)| sel.matches_host(host) && spec.affects_datagrams())
            .map(|(_, spec)| spec)
    }

    /// Injector for the `incarnation`-th logical connection over the
    /// directed link `src → dst`. Each reconnection gets a fresh
    /// incarnation (and therefore an independent fault sequence), so a
    /// reset does not deterministically re-fire on the retry.
    pub fn stream_injector(&self, src: u32, dst: u32, incarnation: u64) -> Option<FaultInjector> {
        self.stream_spec(src, dst).map(|spec| {
            FaultInjector::new(
                mix(
                    self.seed,
                    u64::from(src),
                    u64::from(dst) ^ (incarnation << 32),
                ),
                spec.clone(),
            )
        })
    }

    /// Injector for datagrams routed through `host`'s daemon.
    pub fn datagram_injector(&self, host: u32) -> Option<FaultInjector> {
        self.datagram_spec(host)
            .map(|spec| FaultInjector::new(mix(self.seed, u64::from(host), u64::MAX), spec.clone()))
    }
}

/// Verdict for one connection-oriented frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamVerdict {
    /// Extra modeled seconds to charge to the wire before this frame.
    pub extra_delay_s: f64,
    /// The connection is reset: the frame is not delivered and the
    /// sender observes a dead channel.
    pub reset: bool,
}

impl StreamVerdict {
    /// No fault on this frame.
    pub const CLEAN: StreamVerdict = StreamVerdict {
        extra_delay_s: 0.0,
        reset: false,
    };
}

/// Verdict for one routed datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatagramVerdict {
    /// Forward normally.
    Deliver,
    /// Silently discard (best-effort service).
    Drop,
    /// Forward twice.
    Duplicate,
}

struct InjectorState {
    /// Frames seen so far on this wire (all classes).
    frame: u64,
    /// A reset has fired: every further data frame fails.
    dead: bool,
    /// Partition windows already charged (index-parallel with
    /// `spec.partitions`).
    fired: Vec<bool>,
    /// Per-lane datagram counters (lane = requester rank), so verdicts
    /// do not depend on how concurrent requesters interleave at the
    /// daemon.
    lanes: HashMap<u64, u64>,
}

/// Per-wire fault decision state. One injector per logical connection
/// (stream) or per daemon (datagrams).
pub struct FaultInjector {
    seed: u64,
    spec: FaultSpec,
    state: Mutex<InjectorState>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("seed", &self.seed)
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

impl FaultInjector {
    /// Injector with a fully mixed seed (see [`FaultPlan`] helpers).
    pub fn new(seed: u64, spec: FaultSpec) -> Self {
        let fired = vec![false; spec.partitions.len()];
        FaultInjector {
            seed,
            spec,
            state: Mutex::new(InjectorState {
                frame: 0,
                dead: false,
                fired,
                lanes: HashMap::new(),
            }),
        }
    }

    /// The spec this injector applies.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Has a reset already fired on this wire?
    pub fn is_dead(&self) -> bool {
        self.state.lock().dead
    }

    /// Verdict for the next frame on a connection-oriented wire.
    pub fn on_frame(&self, class: FrameClass) -> StreamVerdict {
        let mut st = self.state.lock();
        let i = st.frame;
        st.frame += 1;
        if st.dead && class == FrameClass::Data {
            return StreamVerdict {
                extra_delay_s: 0.0,
                reset: true,
            };
        }
        let mut extra = 0.0;
        for (idx, p) in self.spec.partitions.iter().enumerate() {
            if i >= p.at_frame && !st.fired[idx] {
                st.fired[idx] = true;
                extra += p.hold_s;
            }
        }
        if self.spec.delay_prob > 0.0 && unit(self.seed, i, SALT_DELAY) < self.spec.delay_prob {
            extra += unit(self.seed, i, SALT_DELAY_AMOUNT) * self.spec.delay_s;
        }
        let reset = class == FrameClass::Data
            && self.spec.reset_prob > 0.0
            && i >= self.spec.reset_min_frame
            && unit(self.seed, i, SALT_RESET) < self.spec.reset_prob;
        if reset {
            st.dead = true;
        }
        StreamVerdict {
            extra_delay_s: extra,
            reset,
        }
    }

    /// Verdict for the next datagram on `lane` (one lane per requester,
    /// so interleaving at the daemon does not perturb the sequence).
    pub fn on_datagram(&self, lane: u64) -> DatagramVerdict {
        let mut st = self.state.lock();
        let n = st.lanes.entry(lane).or_insert(0);
        let i = *n;
        *n += 1;
        drop(st);
        let u = unit(
            self.seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            i,
            SALT_DATAGRAM,
        );
        if u < self.spec.drop_prob {
            DatagramVerdict::Drop
        } else if u < self.spec.drop_prob + self.spec.dup_prob {
            DatagramVerdict::Duplicate
        } else {
            DatagramVerdict::Deliver
        }
    }
}

const SALT_DELAY: u64 = 0x01;
const SALT_DELAY_AMOUNT: u64 = 0x02;
const SALT_RESET: u64 = 0x03;
const SALT_DATAGRAM: u64 = 0x04;

/// Mix three words into one seed (splitmix-style avalanche via the
/// vendored `StdRng`, which is itself splitmix64-based).
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut r = StdRng::seed_from_u64(
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9),
    );
    r.next_u64()
}

/// Deterministic uniform draw in `[0, 1)` for decision `salt` on frame
/// `i` of the wire seeded `seed`.
fn unit(seed: u64, i: u64, salt: u64) -> f64 {
    let mut r = StdRng::seed_from_u64(mix(seed, i, salt));
    r.gen_range(0.0..1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy_spec() -> FaultSpec {
        FaultSpec::none()
            .jitter(0.5, 1.0)
            .resets(0.1, 2)
            .drops(0.2)
            .duplicates(0.2)
    }

    #[test]
    fn verdicts_are_reproducible_per_frame() {
        let plan = FaultPlan::new(42).rule(LinkSel::Any, lossy_spec());
        let a = plan.stream_injector(0, 1, 0).unwrap();
        let b = plan.stream_injector(0, 1, 0).unwrap();
        for _ in 0..64 {
            assert_eq!(a.on_frame(FrameClass::Data), b.on_frame(FrameClass::Data));
        }
        let da = plan.datagram_injector(0).unwrap();
        let db = plan.datagram_injector(0).unwrap();
        for lane in 0..4 {
            for _ in 0..32 {
                assert_eq!(da.on_datagram(lane), db.on_datagram(lane));
            }
        }
    }

    #[test]
    fn fault_verdicts_follow_lanes_not_interleaving() {
        // Two injectors with the same seed must eat the same per-lane
        // datagram indices regardless of the global send order.
        let mk = || FaultInjector::new(77, FaultSpec::none().drops(0.5));
        let (lane_major, round_robin) = (mk(), mk());
        let mut a = Vec::new();
        for lane in 0..4u64 {
            for i in 0..16u32 {
                a.push(((lane, i), lane_major.on_datagram(lane)));
            }
        }
        let mut b = Vec::new();
        for i in 0..16u32 {
            for lane in 0..4u64 {
                b.push(((lane, i), round_robin.on_datagram(lane)));
            }
        }
        b.sort_unstable_by_key(|(k, _)| *k);
        assert_eq!(a, b);
        assert!(a.iter().any(|(_, v)| *v == DatagramVerdict::Drop));
    }

    #[test]
    fn different_links_and_incarnations_draw_independent_sequences() {
        let plan = FaultPlan::new(7).rule(LinkSel::Any, FaultSpec::none().jitter(0.5, 1.0));
        let mk = |src, dst, inc| {
            let inj = plan.stream_injector(src, dst, inc).unwrap();
            (0..32)
                .map(|_| inj.on_frame(FrameClass::Data).extra_delay_s)
                .collect::<Vec<_>>()
        };
        assert_ne!(mk(0, 1, 0), mk(1, 0, 0), "directions differ");
        assert_ne!(mk(0, 1, 0), mk(0, 1, 1), "incarnations differ");
        assert_eq!(mk(0, 1, 0), mk(0, 1, 0), "same wire repeats");
    }

    #[test]
    fn partitions_fire_once_at_or_after_their_frame() {
        let spec = FaultSpec::none().partition(3, 2.5);
        let inj = FaultInjector::new(1, spec);
        for _ in 0..3 {
            assert_eq!(inj.on_frame(FrameClass::Data).extra_delay_s, 0.0);
        }
        assert_eq!(inj.on_frame(FrameClass::Data).extra_delay_s, 2.5);
        for _ in 0..8 {
            assert_eq!(inj.on_frame(FrameClass::Data).extra_delay_s, 0.0);
        }
        // A window whose exact frame is never reached still fires at the
        // first later frame.
        let late = FaultInjector::new(1, FaultSpec::none().partition(0, 1.0));
        assert_eq!(late.on_frame(FrameClass::Control).extra_delay_s, 1.0);
    }

    #[test]
    fn reset_kills_data_but_not_control() {
        let spec = FaultSpec::none().resets(1.0, 0);
        let inj = FaultInjector::new(9, spec);
        assert!(inj.on_frame(FrameClass::Data).reset);
        assert!(inj.is_dead());
        // Control markers keep flowing on the dead wire (§2.3 keeps the
        // signaling plane reliable).
        assert!(!inj.on_frame(FrameClass::Control).reset);
        // Further data frames keep failing.
        assert!(inj.on_frame(FrameClass::Data).reset);
    }

    #[test]
    fn reset_respects_min_frame() {
        let spec = FaultSpec::none().resets(1.0, 3);
        let inj = FaultInjector::new(9, spec);
        for _ in 0..3 {
            assert!(!inj.on_frame(FrameClass::Data).reset);
        }
        assert!(inj.on_frame(FrameClass::Data).reset);
    }

    #[test]
    fn datagram_rates_roughly_match_probabilities() {
        let spec = FaultSpec::none().drops(0.3).duplicates(0.2);
        let inj = FaultInjector::new(1234, spec);
        let mut drop = 0;
        let mut dup = 0;
        let n = 2000;
        for i in 0..n {
            match inj.on_datagram(i % 7) {
                DatagramVerdict::Drop => drop += 1,
                DatagramVerdict::Duplicate => dup += 1,
                DatagramVerdict::Deliver => {}
            }
        }
        let (dr, du) = (f64::from(drop) / n as f64, f64::from(dup) / n as f64);
        assert!((0.2..0.4).contains(&dr), "drop rate {dr}");
        assert!((0.1..0.3).contains(&du), "dup rate {du}");
    }

    #[test]
    fn rule_precedence_and_selectors() {
        let plan = FaultPlan::new(1)
            .rule(LinkSel::Directed(0, 1), FaultSpec::none().jitter(1.0, 5.0))
            .rule(LinkSel::Any, FaultSpec::none().jitter(1.0, 1.0));
        assert_eq!(plan.stream_spec(0, 1).unwrap().delay_s, 5.0);
        assert_eq!(plan.stream_spec(1, 0).unwrap().delay_s, 1.0);
        assert!(LinkSel::Between(2, 3).matches(3, 2));
        assert!(!LinkSel::Directed(2, 3).matches(3, 2));
        assert!(LinkSel::FromHost(2).matches_host(2));
        // A stream-only rule does not capture datagram routing.
        assert!(plan.datagram_spec(0).is_none());
        let dplan = FaultPlan::new(1).rule(LinkSel::ToHost(4), FaultSpec::none().drops(0.5));
        assert!(dplan.datagram_spec(4).is_some());
        assert!(dplan.datagram_spec(5).is_none());
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new(99);
        assert!(plan.stream_injector(0, 1, 0).is_none());
        assert!(plan.datagram_injector(0).is_none());
        assert!(!FaultSpec::none().affects_stream());
        assert!(!FaultSpec::none().affects_datagrams());
    }
}
