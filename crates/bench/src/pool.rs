//! The pooled rank runtime shared by the `scale` ring and the
//! `workload` soak.
//!
//! Ranks are launched cooperatively ([`Computation::launch_cooperative`])
//! and multiplexed onto a bounded set of worker threads that advance
//! each rank one non-blocking step at a time (`try_send`/`try_recv`/
//! `pump`), so 10k ranks run on a handful of threads instead of 10k OS
//! threads. [`run_pool`] owns the worker loop and the partition rule;
//! the scenario supplies only its per-rank step. The helpers below are
//! the epilogues every scenario shares: taking a migration request on
//! a worker ([`migrate_on_worker`]), finishing a rank
//! ([`finish_and_retire`]), and firing a migration from the main thread
//! ([`migrate_retrying_once`]).

use snow_core::{Computation, MigrationOutcome, SnowProcess};
use snow_state::ProcessState;
use snow_vm::{HostId, VirtualMachine};

/// Worker threads a pooled run uses by default: half the machine,
/// between 2 and 8.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get() / 2)
        .unwrap_or(4)
        .clamp(2, 8)
}

/// One rank the pool advances.
pub struct Drive<S> {
    /// The rank's number.
    pub rank: usize,
    /// The rank's process while the pool holds it. `None` once the rank
    /// finished or migrated away; the pool then stops visiting it.
    pub p: Option<SnowProcess>,
    /// The scenario's per-rank state.
    pub app: S,
}

/// Drive `procs` (rank `r` at index `r`) on `workers` pool threads
/// until every rank has finished or migrated away, running `main` on
/// the calling thread meanwhile (it fires the migrations) and returning
/// its result.
///
/// Each worker loops over its ranks calling `step` on every live one,
/// and yields when none progressed. Partition rule: every rank named in
/// `victims` gets a worker of its own — the blocking `migrate` call
/// parks its worker for the whole handshake, and the migrant's peers
/// must keep pumping on other threads for the drain to terminate.
/// Every other rank `r` goes to worker `r % workers`.
pub fn run_pool<S: Send, R>(
    procs: Vec<SnowProcess>,
    app: impl Fn(usize) -> S,
    victims: &[usize],
    workers: usize,
    step: impl Fn(&mut Drive<S>) -> bool + Sync,
    main: impl FnOnce() -> R,
) -> R {
    let workers = workers.clamp(2, procs.len());
    let mut partitions: Vec<Vec<Drive<S>>> =
        (0..workers + victims.len()).map(|_| Vec::new()).collect();
    for (rank, p) in procs.into_iter().enumerate().rev() {
        let w = victims
            .iter()
            .position(|&v| v == rank)
            .map_or(rank % workers, |k| workers + k);
        partitions[w].push(Drive {
            rank,
            p: Some(p),
            app: app(rank),
        });
    }
    let step = &step;
    std::thread::scope(|s| {
        for mut mine in partitions {
            s.spawn(move || loop {
                let mut progressed = false;
                let mut live = 0usize;
                for d in mine.iter_mut().filter(|d| d.p.is_some()) {
                    live += 1;
                    progressed |= step(d);
                }
                if live == 0 {
                    break;
                }
                if !progressed {
                    std::thread::yield_now();
                }
            });
        }
        main()
    })
}

/// Run the blocking `migrate` on a pool worker once the rank's
/// `poll_point` reported a pending request. On `Completed` the old
/// vmid is retired — the old incarnation is gone, so peers' conn_reqs
/// are nacked into re-lookup instead of routed to a dead inbox — and
/// `None` is returned: the resumed process carries on on a
/// scheduler-owned thread. On `Aborted` the rank was rolled back in
/// place (same vmid, RML restored) and its process is handed back.
pub fn migrate_on_worker(
    p: SnowProcess,
    state: &ProcessState,
    vm: &VirtualMachine,
) -> Option<SnowProcess> {
    let rank = p.rank();
    let old_vmid = p.vmid();
    match p
        .migrate(state)
        .unwrap_or_else(|e| panic!("rank {rank}: migrate failed: {e}"))
    {
        MigrationOutcome::Completed(_) => {
            vm.retire(old_vmid);
            None
        }
        MigrationOutcome::Aborted(a) => Some(a.process),
    }
}

/// Finish a pooled rank and retire its vmid: the caller-owned epilogue
/// of a cooperative rank (`launch_placed`'s threads run it on body
/// return).
pub fn finish_and_retire(p: SnowProcess, vm: &VirtualMachine) {
    let vmid = p.vmid();
    p.finish();
    vm.retire(vmid);
}

/// Migrate `rank` to `host` from the main thread; returns whether it
/// finally aborted. A scheduler-side abort (destination init failure,
/// deadline sweep) is a legitimate outcome under load: retry once
/// against the same host, and report a second abort instead of
/// panicking the bench run.
pub fn migrate_retrying_once(comp: &Computation, rank: usize, host: HostId) -> bool {
    comp.migrate(rank, host).is_err() && comp.migrate(rank, host).is_err()
}
