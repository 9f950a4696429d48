//! The virtual machine: membership, registries, spawning, signals.

use crate::daemon::{spawn_daemon, DaemonHandle, DaemonMsg};
use crate::faults::FaultLayer;
use crate::host::HostSpec;
use crate::ids::{HostId, Vmid};
use crate::post::{Post, PostSender};
use crate::process::ProcessCell;
use crate::shard::ShardedMap;
use crate::transport::{InProcTransport, Transport};
use crate::wire::{Incoming, Signal};
use crossbeam::channel::{self, Sender};
use parking_lot::{Mutex, RwLock};
use snow_net::{LinkModel, TimeScale};
use snow_trace::Tracer;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Address record of one live process.
#[derive(Debug, Clone)]
pub struct ProcAddr {
    /// Control-grade sender into the process inbox.
    pub inbox: PostSender<Incoming>,
    /// Ordered signal queue.
    pub signals: Sender<Signal>,
    /// Where the process lives.
    pub host: HostId,
    /// Trace label.
    pub label: String,
}

/// Shared vmid → address table (process registry), sharded N ways so
/// concurrent routing lookups on distinct vmids never contend for one
/// global lock (see [`crate::shard`]).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    procs: Arc<ShardedMap<Vmid, ProcAddr>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a process address.
    pub fn register(&self, vmid: Vmid, addr: ProcAddr) {
        self.procs.insert(vmid, addr);
    }

    /// Remove a process (termination / migration completion).
    pub fn unregister(&self, vmid: Vmid) {
        self.procs.remove(&vmid);
    }

    /// Look up an address. Clones the record (including its label
    /// string); hot paths that only need one field should use
    /// [`Registry::with_addr`] instead.
    pub fn addr_of(&self, vmid: Vmid) -> Option<ProcAddr> {
        self.procs.get_cloned(&vmid)
    }

    /// Run `f` over the borrowed address record without cloning it —
    /// the zero-copy lookup for the send/route/signal hot paths. Holds
    /// one shard's read lock for the duration of `f`; do not block
    /// inside `f`.
    pub fn with_addr<R>(&self, vmid: Vmid, f: impl FnOnce(&ProcAddr) -> R) -> Option<R> {
        self.procs.with(&vmid, f)
    }

    /// Remove every process living on `host`; returns the removed vmids.
    pub fn remove_host(&self, host: HostId) -> Vec<Vmid> {
        self.procs.remove_if(|v, _| v.host == host)
    }

    /// Number of live processes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// True when no process is registered.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }
}

struct HostEntry {
    spec: HostSpec,
    daemon: DaemonHandle,
    next_pid: AtomicU32,
    /// Set while the host is being evacuated: no new vmids may be
    /// allocated on it (admission control for the drain engine).
    draining: AtomicBool,
}

/// Environment state shared by every process, daemon and the scheduler.
pub struct VmShared {
    hosts: RwLock<HashMap<HostId, Arc<HostEntry>>>,
    registry: Registry,
    scheduler: RwLock<Option<Vmid>>,
    tracer: Arc<Tracer>,
    scale: TimeScale,
    next_host: AtomicU32,
    /// Serialises host membership changes.
    membership: Mutex<()>,
    /// Deterministic fault injection (disarmed unless a plan is
    /// installed via [`VirtualMachine::set_fault_plan`]).
    faults: Arc<FaultLayer>,
    /// The backend carrying every cross-host service of §2.3.
    transport: Arc<dyn Transport>,
}

impl VmShared {
    /// The process registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The trace collector.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The configured modeled-time scale.
    pub fn time_scale(&self) -> TimeScale {
        self.scale
    }

    /// The environment's fault layer.
    pub fn faults(&self) -> &Arc<FaultLayer> {
        &self.faults
    }

    /// The transport backend routing cross-host traffic.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Spec of a live host.
    pub fn host_spec(&self, host: HostId) -> Option<HostSpec> {
        self.hosts.read().get(&host).map(|e| e.spec)
    }

    /// Daemon handle of a live host.
    pub fn daemon(&self, host: HostId) -> Option<DaemonHandle> {
        self.hosts.read().get(&host).map(|e| e.daemon.clone())
    }

    /// Network path model between two hosts (bottleneck of uplinks);
    /// `INSTANT` when either host is unknown.
    pub fn path(&self, a: HostId, b: HostId) -> LinkModel {
        let hosts = self.hosts.read();
        match (hosts.get(&a), hosts.get(&b)) {
            (Some(x), Some(y)) => x.spec.path_to(&y.spec),
            _ => LinkModel::INSTANT,
        }
    }

    /// The scheduler's vmid, once one has been installed.
    pub fn scheduler_vmid(&self) -> Option<Vmid> {
        *self.scheduler.read()
    }

    /// Deliver a signal to a process's ordered signal queue through the
    /// transport's signaling service. Returns `false` when the process
    /// is unknown or has terminated.
    pub fn signal(&self, vmid: Vmid, sig: Signal) -> bool {
        self.transport.signal(vmid, sig)
    }

    /// Mark `host` as draining (or clear the mark). While draining no
    /// new vmid can be allocated on the host — placements and inbound
    /// migrations are refused — and the host's daemon nacks connection
    /// requests addressed to processes placed after the mark was set
    /// (there should be none; the daemon flag is the backstop). Returns
    /// `false` when the host is not a member.
    pub fn set_host_draining(&self, host: HostId, on: bool) -> bool {
        let entry = match self.hosts.read().get(&host) {
            Some(e) => Arc::clone(e),
            None => return false,
        };
        entry.draining.store(on, Ordering::SeqCst);
        entry.daemon.send(DaemonMsg::SetDraining {
            from_pid: on.then(|| entry.next_pid.load(Ordering::SeqCst)),
        });
        true
    }

    /// Is `host` currently being evacuated?
    pub fn host_is_draining(&self, host: HostId) -> bool {
        self.hosts
            .read()
            .get(&host)
            .is_some_and(|e| e.draining.load(Ordering::SeqCst))
    }
}

/// A running virtual machine environment.
#[derive(Clone)]
pub struct VirtualMachine {
    shared: Arc<VmShared>,
}

impl VirtualMachine {
    /// Create an empty environment on the default in-process transport.
    pub fn new(tracer: Arc<Tracer>, scale: TimeScale) -> Self {
        Self::with_transport(tracer, scale, Arc::new(InProcTransport::new()))
    }

    /// Create an empty environment on an explicit transport backend.
    /// Socket-backed transports carry real wire delays and must run at
    /// [`TimeScale::ZERO`] so modeled link delays do not stack on them.
    pub fn with_transport(
        tracer: Arc<Tracer>,
        scale: TimeScale,
        transport: Arc<dyn Transport>,
    ) -> Self {
        let registry = Registry::new();
        transport.attach(registry.clone());
        VirtualMachine {
            shared: Arc::new(VmShared {
                hosts: RwLock::new(HashMap::new()),
                registry,
                scheduler: RwLock::new(None),
                tracer,
                scale,
                next_host: AtomicU32::new(0),
                membership: Mutex::new(()),
                faults: Arc::new(FaultLayer::new()),
                transport,
            }),
        }
    }

    /// Convenience: an environment with no tracing, no modeled delays.
    pub fn ideal() -> Self {
        Self::new(Tracer::disabled(), TimeScale::ZERO)
    }

    /// The shared environment state.
    pub fn shared(&self) -> &Arc<VmShared> {
        &self.shared
    }

    /// A host joins the virtual machine; its daemon starts (§2: "the
    /// virtual machine daemon is executed on a host when it joins").
    pub fn add_host(&self, spec: HostSpec) -> HostId {
        let _guard = self.shared.membership.lock();
        let id = HostId(self.shared.next_host.fetch_add(1, Ordering::Relaxed));
        let daemon = spawn_daemon(
            id,
            self.shared.registry.clone(),
            Arc::clone(&self.shared.tracer),
            Arc::clone(&self.shared.faults),
        );
        self.shared.hosts.write().insert(
            id,
            Arc::new(HostEntry {
                spec,
                daemon: daemon.clone(),
                next_pid: AtomicU32::new(0),
                draining: AtomicBool::new(false),
            }),
        );
        self.shared.transport.host_joined(id.into(), Some(daemon));
        id
    }

    /// Add `n` identical hosts.
    pub fn add_hosts(&self, spec: HostSpec, n: usize) -> Vec<HostId> {
        (0..n).map(|_| self.add_host(spec)).collect()
    }

    /// A host leaves: its daemon nacks outstanding requests and stops,
    /// and its processes disappear from the registry. (The paper's
    /// protocols guarantee no residual dependency on departed hosts.)
    pub fn remove_host(&self, host: HostId) {
        let _guard = self.shared.membership.lock();
        let entry = self.shared.hosts.write().remove(&host);
        self.shared.transport.host_left(host.into());
        if let Some(entry) = entry {
            entry.daemon.send(DaemonMsg::Shutdown);
        }
        self.shared.registry.remove_host(host);
    }

    /// Is `host` currently a member?
    pub fn has_host(&self, host: HostId) -> bool {
        self.shared.hosts.read().contains_key(&host)
    }

    /// The current member hosts, sorted by id (deterministic order for
    /// retry-policy re-targeting).
    pub fn host_ids(&self) -> Vec<HostId> {
        let mut ids: Vec<HostId> = self.shared.hosts.read().keys().copied().collect();
        ids.sort_unstable_by_key(|h| h.0);
        ids
    }

    /// Install the scheduler's address so processes can consult it.
    pub fn set_scheduler(&self, vmid: Vmid) {
        *self.shared.scheduler.write() = Some(vmid);
    }

    /// Arm deterministic fault injection with `plan`. Governs every
    /// logical connection created afterwards and every daemon-routed
    /// control datagram (install before traffic flows for full
    /// coverage). Replacing a plan restarts its counters.
    pub fn set_fault_plan(&self, plan: snow_net::fault::FaultPlan) {
        self.shared.faults.install(plan);
    }

    /// Disarm fault injection.
    pub fn clear_fault_plan(&self) {
        self.shared.faults.clear();
    }

    /// Mark `host` as draining (or clear the mark); see
    /// [`VmShared::set_host_draining`].
    pub fn set_host_draining(&self, host: HostId, on: bool) -> bool {
        self.shared.set_host_draining(host, on)
    }

    /// Is `host` currently being evacuated?
    pub fn host_is_draining(&self, host: HostId) -> bool {
        self.shared.host_is_draining(host)
    }

    /// Allocate a vmid on a host without spawning (used by tests).
    /// Refused (like [`VirtualMachine::spawn`]) while the host drains.
    pub fn allocate_vmid(&self, host: HostId) -> Option<Vmid> {
        let hosts = self.shared.hosts.read();
        let entry = hosts.get(&host)?;
        if entry.draining.load(Ordering::SeqCst) {
            return None;
        }
        Some(Vmid {
            host,
            pid: entry.next_pid.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Spawn a process on `host`. The body runs on its own OS thread
    /// with a [`ProcessCell`] giving access to the environment. On
    /// return the process is unregistered and its daemon is notified so
    /// pending connection requests are rejected.
    pub fn spawn<F>(&self, host: HostId, label: &str, body: F) -> Option<(Vmid, JoinHandle<()>)>
    where
        F: FnOnce(ProcessCell) + Send + 'static,
    {
        let (vmid, cell) = self.spawn_cell(host, label)?;
        Some((vmid, self.run_on_thread(vmid, label, move || body(cell))))
    }

    /// Run the body of the process `vmid` (assembled by
    /// [`VirtualMachine::spawn_cell`]) on its own OS thread named
    /// `snow-{label}`, then [`VirtualMachine::retire`] the vmid.
    pub fn run_on_thread<F>(&self, vmid: Vmid, label: &str, body: F) -> JoinHandle<()>
    where
        F: FnOnce() + Send + 'static,
    {
        let vm = self.clone();
        std::thread::Builder::new()
            .name(format!("snow-{label}"))
            .spawn(move || {
                body();
                vm.retire(vmid);
            })
            .expect("spawn process thread")
    }

    /// Assemble a process on `host` without dedicating an OS thread to
    /// it: the caller receives the [`ProcessCell`] and drives it
    /// cooperatively. Large-scale harnesses multiplex thousands of such
    /// cells onto a bounded worker pool — a thread per rank stops
    /// scaling long before the protocol does. The caller owns the
    /// termination epilogue: when the process is done (or its vmid is
    /// retired by a completed migration), pass the vmid to
    /// [`VirtualMachine::retire`], which is exactly what
    /// [`VirtualMachine::run_on_thread`] does when its body returns.
    pub fn spawn_cell(&self, host: HostId, label: &str) -> Option<(Vmid, ProcessCell)> {
        let vmid = self.allocate_vmid(host)?;
        let (inbox_tx, inbox) = Post::<Incoming>::channel(LinkModel::INSTANT, self.shared.scale);
        let (sig_tx, sig_rx) = channel::unbounded();
        self.shared.registry.register(
            vmid,
            ProcAddr {
                inbox: inbox_tx.clone(),
                signals: sig_tx,
                host,
                label: label.to_string(),
            },
        );
        let cell = ProcessCell::new(
            vmid,
            label.to_string(),
            inbox,
            inbox_tx,
            sig_rx,
            Arc::clone(&self.shared),
        );
        Some((vmid, cell))
    }

    /// Termination epilogue of a process: unregister, then tell the
    /// local daemon so pending conn_reqs are nacked.
    pub fn retire(&self, vmid: Vmid) {
        self.shared.registry.unregister(vmid);
        if let Some(d) = self.shared.daemon(vmid.host) {
            d.send(DaemonMsg::ProcessExited(vmid));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn hosts_join_and_leave() {
        let vm = VirtualMachine::ideal();
        let h0 = vm.add_host(HostSpec::ideal());
        let h1 = vm.add_host(HostSpec::ultra5());
        assert_ne!(h0, h1);
        assert!(vm.has_host(h0));
        vm.remove_host(h0);
        assert!(!vm.has_host(h0));
        assert!(vm.has_host(h1));
    }

    #[test]
    fn vmids_sequential_per_host() {
        let vm = VirtualMachine::ideal();
        let h = vm.add_host(HostSpec::ideal());
        let a = vm.allocate_vmid(h).unwrap();
        let b = vm.allocate_vmid(h).unwrap();
        assert_eq!(a.host, h);
        assert_eq!(b.pid, a.pid + 1);
        assert_eq!(vm.allocate_vmid(HostId(99)), None);
    }

    #[test]
    fn spawn_runs_and_unregisters() {
        let vm = VirtualMachine::ideal();
        let h = vm.add_host(HostSpec::ideal());
        let (vmid, handle) = vm
            .spawn(h, "worker", move |cell| {
                assert_eq!(cell.label(), "worker");
            })
            .unwrap();
        handle.join().unwrap();
        assert!(vm.shared().registry().addr_of(vmid).is_none());
    }

    #[test]
    fn signals_reach_running_process() {
        let vm = VirtualMachine::ideal();
        let h = vm.add_host(HostSpec::ideal());
        let (vmid, handle) = vm
            .spawn(h, "sig", move |cell| {
                // Wait for the signal to arrive.
                let sig = cell.wait_signal(Duration::from_secs(5));
                assert_eq!(sig, Some(Signal::Migrate));
            })
            .unwrap();
        // Deliver after spawn.
        while !vm.shared().signal(vmid, Signal::Migrate) {
            std::thread::yield_now();
        }
        handle.join().unwrap();
        // After termination, signalling fails.
        assert!(!vm.shared().signal(vmid, Signal::Migrate));
    }

    #[test]
    fn path_between_hosts_is_bottleneck() {
        let vm = VirtualMachine::ideal();
        let fast = vm.add_host(HostSpec::ultra5());
        let slow = vm.add_host(HostSpec::dec5000());
        let p = vm.shared().path(fast, slow);
        assert_eq!(p.bandwidth_bps, HostSpec::dec5000().uplink.bandwidth_bps);
        // Unknown host → INSTANT fallback.
        assert_eq!(vm.shared().path(fast, HostId(77)), LinkModel::INSTANT);
    }

    #[test]
    fn removing_host_clears_registry() {
        let vm = VirtualMachine::ideal();
        let h = vm.add_host(HostSpec::ideal());
        let (vmid, handle) = vm
            .spawn(h, "stay", move |cell| {
                // Block until inbox closes or a signal arrives.
                let _ = cell.wait_signal(Duration::from_millis(300));
            })
            .unwrap();
        assert!(vm.shared().registry().addr_of(vmid).is_some());
        vm.remove_host(h);
        assert!(vm.shared().registry().addr_of(vmid).is_none());
        handle.join().unwrap();
    }

    #[test]
    fn scheduler_installation() {
        let vm = VirtualMachine::ideal();
        assert_eq!(vm.shared().scheduler_vmid(), None);
        let h = vm.add_host(HostSpec::ideal());
        let v = vm.allocate_vmid(h).unwrap();
        vm.set_scheduler(v);
        assert_eq!(vm.shared().scheduler_vmid(), Some(v));
    }
}
