//! Property-based protocol tests: random traffic matrices with a
//! migration injected at a random point must always deliver every
//! message exactly once with per-pair FIFO order (Theorems 2 + 3 under
//! randomized schedules).

use bytes::Bytes;
use proptest::prelude::*;
use snow::prelude::*;
use std::time::Duration;

mod support;
use support::await_migration;

/// One randomized scenario: `n` ranks, `msgs[s][d]` messages from s to
/// d; rank `migrant` migrates after consuming `consume_before` of its
/// inbound messages.
#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    msgs: Vec<Vec<u8>>,
    migrant: usize,
    consume_frac: u8, // 0..=100
    payload: u8,      // payload length seed
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (2usize..5)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(proptest::collection::vec(0u8..8, n..=n), n..=n),
                0..n,
                0u8..=100,
                1u8..64,
            )
        })
        .prop_map(|(n, msgs, migrant, consume_frac, payload)| Scenario {
            n,
            msgs,
            migrant,
            consume_frac,
            payload,
        })
}

fn run_scenario(sc: &Scenario) -> Result<(), TestCaseError> {
    let tracer = Tracer::new();
    let comp = Computation::builder()
        .hosts(HostSpec::ideal(), sc.n + 1)
        .tracer(tracer.clone())
        .build();
    let spare = comp.hosts()[sc.n];
    let sc2 = sc.clone();

    let handles = comp.launch(sc.n, move |mut p, start| {
        let me = p.rank();
        let sc = &sc2;
        let inbound: u64 = (0..sc.n).map(|s| sc.msgs[s][me] as u64).sum();
        let send_all = |p: &mut SnowProcess| {
            for d in 0..sc.n {
                if d == me {
                    continue;
                }
                for i in 0..sc.msgs[me][d] {
                    let mut body = vec![0u8; 1 + (sc.payload as usize)];
                    body[0] = i;
                    p.send(d, me as i32, Bytes::from(body)).unwrap();
                }
            }
        };
        // Per-source next-expected counters; panics on gaps/reorders.
        let recv_n = |p: &mut SnowProcess, next: &mut Vec<u8>, k: u64| {
            for _ in 0..k {
                let (s, _t, b) = p.recv(None, None).unwrap();
                assert_eq!(b[0], next[s], "rank {me}: reorder from {s}");
                next[s] += 1;
            }
        };
        match start {
            Start::Fresh => {
                send_all(&mut p);
                let mut next = vec![0u8; sc.n];
                // Self-messages never occur; expected inbound excludes me.
                let inbound = inbound - sc.msgs[me][me] as u64;
                if me == sc.migrant {
                    let before = inbound * sc.consume_frac as u64 / 100;
                    recv_n(&mut p, &mut next, before);
                    await_migration(&mut p);
                    let mut exec = ExecState::at_entry();
                    for (s, nx) in next.iter().enumerate() {
                        exec =
                            exec.with_local(&format!("n{s}"), snow::codec::Value::U64(*nx as u64));
                    }
                    p.migrate(&ProcessState::new(exec, MemoryGraph::new()))
                        .unwrap()
                        .expect_completed();
                } else {
                    recv_n(&mut p, &mut next, inbound);
                    p.finish();
                }
            }
            Start::Resumed(state) => {
                let mut next = vec![0u8; sc.n];
                let mut done = 0u64;
                for (s, nx) in next.iter_mut().enumerate() {
                    let v = state
                        .exec
                        .local(&format!("n{s}"))
                        .and_then(snow::codec::Value::as_u64)
                        .unwrap();
                    *nx = v as u8;
                    done += v;
                }
                let inbound = inbound - sc.msgs[me][me] as u64;
                recv_n(&mut p, &mut next, inbound - done);
                p.finish();
            }
        }
    });

    comp.migrate(sc.migrant, spare)
        .map_err(|e| TestCaseError::fail(format!("migration failed: {e}")))?;
    for h in handles {
        h.join()
            .map_err(|_| TestCaseError::fail("rank panicked (loss/reorder)"))?;
    }
    // The migrated rank finishes on a scheduler-owned thread; its
    // post-restore receives must land before the trace is read.
    comp.join_init_processes();

    let st = SpaceTime::build(tracer.snapshot());
    prop_assert!(
        st.undelivered().is_empty(),
        "lost: {:?}",
        st.undelivered().len()
    );
    prop_assert!(st.duplicate_receives().is_empty());
    prop_assert!(st.fifo_violations().is_empty());
    Ok(())
}

/// Dual-migrant variant of the scenario runner: `migrant` and a second
/// rank both migrate concurrently (Theorem 4 under random traffic).
fn run_scenario_dual(sc: &Scenario) -> Result<(), TestCaseError> {
    let second = (sc.migrant + 1) % sc.n;
    let tracer = Tracer::new();
    let comp = Computation::builder()
        .hosts(HostSpec::ideal(), sc.n + 2)
        .tracer(tracer.clone())
        .build();
    let spare_a = comp.hosts()[sc.n];
    let spare_b = comp.hosts()[sc.n + 1];
    let sc2 = sc.clone();

    let handles = comp.launch(sc.n, move |mut p, start| {
        let me = p.rank();
        let sc = &sc2;
        let migrates = me == sc.migrant || me == (sc.migrant + 1) % sc.n;
        let inbound: u64 = (0..sc.n)
            .filter(|s| *s != me)
            .map(|s| sc.msgs[s][me] as u64)
            .sum();
        match start {
            Start::Fresh => {
                for d in 0..sc.n {
                    if d == me {
                        continue;
                    }
                    for i in 0..sc.msgs[me][d] {
                        p.send(d, me as i32, Bytes::from(vec![i, sc.payload]))
                            .unwrap();
                    }
                }
                let mut next = vec![0u8; sc.n];
                if migrates {
                    await_migration(&mut p);
                    let mut exec = ExecState::at_entry();
                    for (s, nx) in next.iter().enumerate() {
                        exec =
                            exec.with_local(&format!("n{s}"), snow::codec::Value::U64(*nx as u64));
                    }
                    p.migrate(&ProcessState::new(exec, MemoryGraph::new()))
                        .unwrap()
                        .expect_completed();
                } else {
                    for _ in 0..inbound {
                        let (s, _t, b) = p.recv(None, None).unwrap();
                        assert_eq!(b[0], next[s], "rank {me}: reorder from {s}");
                        next[s] += 1;
                    }
                    p.finish();
                }
            }
            Start::Resumed(_) => {
                let mut next = vec![0u8; sc.n];
                for _ in 0..inbound {
                    let (s, _t, b) = p.recv(None, None).unwrap();
                    assert_eq!(b[0], next[s], "resumed {me}: reorder from {s}");
                    next[s] += 1;
                }
                p.finish();
            }
        }
    });

    comp.migrate_async(sc.migrant, spare_a)
        .map_err(TestCaseError::fail)?;
    comp.migrate_async(second, spare_b)
        .map_err(TestCaseError::fail)?;
    comp.wait_migration_done(sc.migrant)
        .map_err(TestCaseError::fail)?;
    comp.wait_migration_done(second)
        .map_err(TestCaseError::fail)?;
    for h in handles {
        h.join()
            .map_err(|_| TestCaseError::fail("rank panicked (loss/reorder)"))?;
    }
    comp.join_init_processes();

    let st = SpaceTime::build(tracer.snapshot());
    prop_assert!(st.undelivered().is_empty());
    prop_assert!(st.duplicate_receives().is_empty());
    prop_assert!(st.fifo_violations().is_empty());
    Ok(())
}

/// A random fault spec drawn from the recoverable fault classes: delay,
/// datagram drop/duplication, transient partition. Connection resets
/// are excluded here — on an application data link a reset is not
/// transparently recoverable by `send()` (that mode gets its own
/// pinned coverage in `tests/chaos.rs`, where the retry policy absorbs
/// it on the transfer link).
fn arb_fault_spec() -> impl Strategy<Value = FaultSpec> {
    // Drawn as integer per-mille / milliseconds (the vendored proptest
    // has no float-range strategies). Values below the armed threshold
    // mean "this class is off", so the strategy also explores plans
    // with only a subset of classes armed.
    (
        (0u32..500, 100u32..1500),
        0u32..300,
        0u32..300,
        (2u64..16, 0u32..2000),
    )
        .prop_map(|((jp, jmax), drops, dups, (pat, phold))| {
            let permille = |v: u32| f64::from(v) / 1000.0;
            let mut s = FaultSpec::none();
            if jp >= 50 {
                s = s.jitter(permille(jp), permille(jmax));
            }
            if drops >= 50 {
                s = s.drops(permille(drops));
            }
            if dups >= 50 {
                s = s.duplicates(permille(dups));
            }
            if phold >= 200 {
                s = s.partition(pat, permille(phold));
            }
            s
        })
}

fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), arb_fault_spec())
        .prop_map(|(seed, spec)| FaultPlan::new(seed).rule(LinkSel::Any, spec))
}

/// Scenario runner with an armed fault plan: the migration may commit
/// *or* abort (a partitioned transfer burning the retry budget is
/// legal), but either way every message still arrives exactly once in
/// order and the audit log stays clean — and the watchdogs bound the
/// run, so an injected fault can never hang it.
fn run_scenario_faulted(sc: &Scenario, plan: &FaultPlan) -> Result<(), TestCaseError> {
    let tracer = Tracer::new();
    let comp = Computation::builder()
        .hosts(HostSpec::ideal(), sc.n + 1)
        .tracer(tracer.clone())
        .time_scale(TimeScale::MILLI)
        .migration_retry(RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(10),
            ..RetryPolicy::default()
        })
        .fault_plan(plan.clone())
        .build();
    let spare = comp.hosts()[sc.n];
    let sc2 = sc.clone();

    let handles = comp.launch(sc.n, move |mut p, start| {
        let me = p.rank();
        let sc = &sc2;
        let inbound: u64 = (0..sc.n)
            .filter(|s| *s != me)
            .map(|s| sc.msgs[s][me] as u64)
            .sum();
        let send_all = |p: &mut SnowProcess| {
            for d in 0..sc.n {
                if d == me {
                    continue;
                }
                for i in 0..sc.msgs[me][d] {
                    let mut body = vec![0u8; 1 + (sc.payload as usize)];
                    body[0] = i;
                    p.send(d, me as i32, Bytes::from(body)).unwrap();
                }
            }
        };
        let recv_n = |p: &mut SnowProcess, next: &mut Vec<u8>, k: u64| {
            for _ in 0..k {
                let (s, _t, b) = p.recv(None, None).unwrap();
                assert_eq!(b[0], next[s], "rank {me}: reorder from {s}");
                next[s] += 1;
            }
        };
        match start {
            Start::Fresh => {
                send_all(&mut p);
                let mut next = vec![0u8; sc.n];
                if me == sc.migrant {
                    let before = inbound * sc.consume_frac as u64 / 100;
                    recv_n(&mut p, &mut next, before);
                    await_migration(&mut p);
                    let mut exec = ExecState::at_entry();
                    for (s, nx) in next.iter().enumerate() {
                        exec =
                            exec.with_local(&format!("n{s}"), snow::codec::Value::U64(*nx as u64));
                    }
                    match p
                        .migrate(&ProcessState::new(exec, MemoryGraph::new()))
                        .unwrap()
                    {
                        MigrationOutcome::Completed(_) => {}
                        MigrationOutcome::Aborted(a) => {
                            // Rolled back in place: the tail is ours.
                            let mut p = a.process;
                            recv_n(&mut p, &mut next, inbound - before);
                            p.finish();
                        }
                    }
                } else {
                    recv_n(&mut p, &mut next, inbound);
                    p.finish();
                }
            }
            Start::Resumed(state) => {
                let mut next = vec![0u8; sc.n];
                let mut done = 0u64;
                for (s, nx) in next.iter_mut().enumerate() {
                    let v = state
                        .exec
                        .local(&format!("n{s}"))
                        .and_then(snow::codec::Value::as_u64)
                        .unwrap();
                    *nx = v as u8;
                    done += v;
                }
                recv_n(&mut p, &mut next, inbound - done);
                p.finish();
            }
        }
    });

    // Completed or aborted are both legal endings under injected
    // faults; hangs and dirty logs are not.
    let _ = comp.migrate(sc.migrant, spare);
    for h in handles {
        h.join()
            .map_err(|_| TestCaseError::fail("rank panicked (loss/reorder under faults)"))?;
    }
    comp.join_init_processes();

    let events = tracer.snapshot();
    let report = snow::trace::audit::audit(&events);
    if !report.is_clean() {
        // Dump the log + generating inputs next to the suite exports so
        // a CI failure ships the exact replay (CI uploads FAILED-*).
        let dir = support::export_dir();
        let _ = std::fs::write(
            dir.join("FAILED-prop-faulted.events.jsonl"),
            snow::trace::serial::events_to_jsonl(&events),
        );
        let _ = std::fs::write(
            dir.join("FAILED-prop-faulted.scenario.txt"),
            format!("{sc:?}\n{plan:?}\n"),
        );
    }
    prop_assert!(
        report.is_clean(),
        "dirty audit under faults:\n{}",
        report.render()
    );
    let st = SpaceTime::build(events);
    prop_assert!(st.undelivered().is_empty(), "lost under faults");
    prop_assert!(st.duplicate_receives().is_empty());
    prop_assert!(st.fifo_violations().is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 20,
    })]

    #[test]
    fn random_traffic_with_migration(sc in arb_scenario()) {
        run_scenario(&sc)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        max_shrink_iters: 20,
    })]

    #[test]
    fn random_traffic_under_random_faults(
        sc in arb_scenario(),
        plan in arb_fault_plan(),
    ) {
        run_scenario_faulted(&sc, &plan)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        max_shrink_iters: 20,
    })]

    #[test]
    fn random_traffic_with_two_simultaneous_migrations(sc in arb_scenario()) {
        run_scenario_dual(&sc)?;
    }
}

/// Substrate-level FIFO property for the sharded post office: many
/// concurrent senders race the receiver's registry binding being
/// swapped mid-stream (the post-office view of a migration — the
/// rank's vmid moves to a new host and inbox while traffic flows).
/// Each sender's stream must land as a clean prefix in the old inbox
/// and the remaining suffix in the new one, in sequence order — the
/// §2.3 per-sender FIFO guarantee the N-way shard split must not
/// break.
fn run_sharded_handover(senders: usize, msgs: u32, swap_at_frac: u8) -> Result<(), TestCaseError> {
    use snow::net::{FrameClass, LinkModel, TimeScale};
    use snow::sched::{IndexedDirectory, PlEntry};
    use snow::vm::vm::{ProcAddr, Registry};
    use snow::vm::wire::{Envelope, ExeStatus, Incoming, Payload};
    use snow::vm::{HostId, Post, Vmid};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, RwLock};

    let registry = Registry::new();
    let tracer = Tracer::disabled();
    let mk_addr = |host: u32, inbox| ProcAddr {
        inbox,
        signals: crossbeam::channel::unbounded().0,
        host: HostId(host),
        label: "p0".into(),
    };
    let vmid_a = Vmid {
        host: HostId(0),
        pid: 0,
    };
    let vmid_b = Vmid {
        host: HostId(1),
        pid: 0,
    };
    let (tx_a, post_a) = Post::channel(LinkModel::INSTANT, TimeScale::ZERO);
    let (tx_b, post_b) = Post::channel(LinkModel::INSTANT, TimeScale::ZERO);
    registry.register(vmid_a, mk_addr(0, tx_a));
    let dir = Arc::new(RwLock::new(IndexedDirectory::with_capacity(1)));
    dir.write().unwrap().insert(
        0,
        PlEntry {
            vmid: vmid_a,
            status: ExeStatus::Running,
        },
    );

    let sent = Arc::new(AtomicU64::new(0));
    let total = senders as u64 * msgs as u64;
    let swap_at = total * swap_at_frac as u64 / 100;
    let handles: Vec<_> = (0..senders)
        .map(|s| {
            let registry = registry.clone();
            let dir = Arc::clone(&dir);
            let tracer = Arc::clone(&tracer);
            let sent = Arc::clone(&sent);
            std::thread::spawn(move || {
                for seq in 0..msgs {
                    let env = Envelope {
                        src: s,
                        tag: 1,
                        msg: tracer.next_msg_id(),
                        payload: Payload::Data(Bytes::copy_from_slice(&seq.to_le_bytes())),
                    };
                    let bytes = env.wire_bytes();
                    // Lookup → borrow → post, retrying the window where
                    // the binding moves between directory and registry
                    // updates (the protocol layer's nack-and-retry).
                    let mut env = Some(env);
                    loop {
                        let vmid = dir.read().unwrap().lookup(0).unwrap().vmid;
                        let taken = env.take().unwrap();
                        match registry.with_addr(vmid, |addr| {
                            addr.inbox
                                .send_classed(Incoming::Data(taken), bytes, FrameClass::Data)
                        }) {
                            Some(Ok(())) => break,
                            Some(Err(_)) | None => {
                                env = Some(Envelope {
                                    src: s,
                                    tag: 1,
                                    msg: tracer.next_msg_id(),
                                    payload: Payload::Data(Bytes::copy_from_slice(
                                        &seq.to_le_bytes(),
                                    )),
                                });
                                std::thread::yield_now();
                            }
                        }
                    }
                    sent.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Mid-stream handover, ordered so no message is ever unroutable:
    // new binding registered, directory repointed, old binding retired.
    while sent.load(Ordering::Relaxed) < swap_at {
        std::thread::yield_now();
    }
    registry.register(vmid_b, mk_addr(1, tx_b));
    dir.write().unwrap().insert(
        0,
        PlEntry {
            vmid: vmid_b,
            status: ExeStatus::Running,
        },
    );
    registry.unregister(vmid_a);
    for h in handles {
        h.join().unwrap();
    }

    // Per sender: old-inbox messages then new-inbox messages must read
    // as exactly 0..msgs in order.
    let mut streams: Vec<Vec<u32>> = vec![Vec::new(); senders];
    for post in [&post_a, &post_b] {
        while let Ok(Some(Incoming::Data(env))) = post.try_recv() {
            if let Payload::Data(b) = &env.payload {
                streams[env.src].push(u32::from_le_bytes(b[..4].try_into().unwrap()));
            }
        }
    }
    for (s, stream) in streams.iter().enumerate() {
        prop_assert_eq!(stream.len() as u32, msgs, "sender {} lost messages", s);
        for (expect, got) in stream.iter().enumerate() {
            prop_assert_eq!(
                *got,
                expect as u32,
                "sender {} reordered across the handover",
                s
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        max_shrink_iters: 20,
    })]

    #[test]
    fn sharded_post_office_keeps_per_sender_fifo_across_handover(
        senders in 2usize..12,
        msgs in 20u32..120,
        swap_at_frac in 10u8..90,
    ) {
        run_sharded_handover(senders, msgs, swap_at_frac)?;
    }
}

/// A pinned regression scenario (dense traffic, migrant consumes
/// nothing before migrating) that once stressed the drain path.
#[test]
fn pinned_dense_scenario() {
    let sc = Scenario {
        n: 4,
        msgs: vec![
            vec![0, 7, 7, 7],
            vec![7, 0, 7, 7],
            vec![7, 7, 0, 7],
            vec![7, 7, 7, 0],
        ],
        migrant: 2,
        consume_frac: 0,
        payload: 32,
    };
    run_scenario(&sc).unwrap();
}
