//! Dynamic membership (§2): hosts join and leave the virtual machine;
//! the protocols leave *no residual dependency* on departed hosts —
//! "data communication between the migrating process and others can be
//! done without existence of old hosts".
//!
//! Choreography is event-driven: processes park on
//! [`support::await_migration`] for the scheduler's signal and on
//! shared [`Barrier`]s for harness-side membership changes, instead of
//! the fixed settle-sleeps this suite used to carry (which went flaky
//! the moment a loaded CI runner stretched past the guessed budget).

mod support;

use bytes::Bytes;
use snow::prelude::*;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// After rank 0 migrates away, its source host leaves entirely; a peer
/// that has never spoken to rank 0 can still reach it (via scheduler
/// redirect, not via the old host).
#[test]
fn source_host_can_leave_after_migration() {
    let comp = Computation::builder().hosts(HostSpec::ideal(), 4).build();
    let old_host = comp.hosts()[1];
    let spare = comp.hosts()[3];

    // Rank 1 holds its send until the harness has migrated rank 0 *and*
    // removed the source host, so the message provably cannot ride any
    // route through the departed workstation.
    let host_gone = Arc::new(Barrier::new(2));
    let host_gone_app = Arc::clone(&host_gone);

    // Explicit placement: scheduler shares hosts[0]; rank 0 on
    // hosts[1], rank 1 on hosts[2].
    let placement = vec![comp.hosts()[1], comp.hosts()[2]];
    let handles = comp.launch_placed(&placement, move |mut p, start| match (p.rank(), start) {
        (0, Start::Fresh) => {
            support::await_migration(&mut p);
            p.migrate(&ProcessState::empty())
                .unwrap()
                .expect_completed();
        }
        (0, Start::Resumed(_)) => {
            let (_s, _t, b) = p.recv(Some(1), None).unwrap();
            assert_eq!(&b[..], b"post-leave");
            p.finish();
        }
        (1, Start::Fresh) => {
            host_gone_app.wait();
            p.send(0, 1, Bytes::from_static(b"post-leave")).unwrap();
            p.finish();
        }
        _ => unreachable!(),
    });

    comp.migrate(0, spare).expect("migration commits");
    // The source workstation resigns from the virtual machine.
    comp.vm().remove_host(old_host);
    assert!(!comp.vm().has_host(old_host));
    host_gone.wait();

    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
}

/// A host that joins *after* launch can be a migration destination.
#[test]
fn late_joining_host_receives_migrant() {
    let comp = Computation::builder().hosts(HostSpec::ideal(), 2).build();

    // Rank 1 holds its greeting until the migrant has landed on the
    // newcomer, so delivery must route to the late-joined host.
    let landed = Arc::new(Barrier::new(2));
    let landed_app = Arc::clone(&landed);

    let handles = comp.launch(2, move |mut p, start| match (p.rank(), start) {
        (0, Start::Fresh) => {
            support::await_migration(&mut p);
            p.migrate(&ProcessState::empty())
                .unwrap()
                .expect_completed();
        }
        (0, Start::Resumed(_)) => {
            let (_s, _t, b) = p.recv(Some(1), None).unwrap();
            assert_eq!(&b[..], b"hello newcomer");
            p.finish();
        }
        (1, Start::Fresh) => {
            landed_app.wait();
            p.send(0, 1, Bytes::from_static(b"hello newcomer")).unwrap();
            p.finish();
        }
        _ => unreachable!(),
    });

    // The newcomer joins mid-run and immediately hosts the migrant.
    let newcomer = comp.vm().add_host(HostSpec::ultra5());
    let new_vmid = comp.migrate(0, newcomer).expect("migration commits");
    assert_eq!(new_vmid.host, newcomer);
    landed.wait();

    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
}

/// How the target of [`vanished_host_yields_nack_not_hang`] dies
/// without telling the scheduler.
#[derive(Debug, Clone, Copy)]
enum Death {
    /// Its host leaves the virtual machine (no migration): the
    /// requester's daemon rejects on behalf of the missing target
    /// daemon.
    HostRemoved,
    /// It exits without `finish` while its host stays: the target
    /// daemon nacks a vmid it no longer knows, and the lookup keeps
    /// naming that vmid.
    ExitedUnannounced,
}

/// Sending toward a dead target surfaces a clean error — never a hang,
/// a silent drop, or (cooperatively) an endless `Ok(false)` — on both
/// drivers of the Fig 3 connect: rank 1 uses the blocking `send`,
/// rank 2 loops on `try_send`.
#[test]
fn vanished_host_yields_nack_not_hang() {
    const BOUND: Duration = Duration::from_secs(15);
    for death in [Death::HostRemoved, Death::ExitedUnannounced] {
        let comp = Computation::builder().hosts(HostSpec::ideal(), 3).build();
        let victim_host = comp.hosts()[1];
        let placement = [victim_host, comp.hosts()[2], comp.hosts()[2]];
        let mut procs = comp.launch_cooperative(&placement, |_p, _s| {});
        let mut coop = procs.pop().unwrap();
        let mut blocking = procs.pop().unwrap();
        let victim = procs.pop().unwrap();
        let victim_vmid = victim.vmid();
        drop(victim);
        match death {
            Death::HostRemoved => comp.vm().remove_host(victim_host),
            Death::ExitedUnannounced => comp.vm().retire(victim_vmid),
        }

        let msg = Bytes::from_static(b"?");
        let t = Instant::now();
        let r = blocking.send(0, 1, msg.clone());
        assert!(
            r.is_err(),
            "{death:?}: blocking send into a dead target must fail"
        );
        assert!(
            t.elapsed() < BOUND,
            "{death:?}: blocking send took {:?}",
            t.elapsed()
        );

        let t = Instant::now();
        loop {
            match coop.try_send(0, 1, &msg) {
                Err(_) => break,
                Ok(sent) => assert!(!sent, "{death:?}: try_send delivered to a dead target"),
            }
            assert!(
                t.elapsed() < BOUND,
                "{death:?}: try_send still Ok(false) after {BOUND:?}"
            );
            std::thread::yield_now();
        }

        for p in [blocking, coop] {
            let v = p.vmid();
            p.finish();
            comp.vm().retire(v);
        }
        comp.shutdown();
    }
}
