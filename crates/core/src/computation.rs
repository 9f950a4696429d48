//! Launching distributed computations (the harness around the library).
//!
//! `Computation` assembles the full SNOW environment: a virtual machine
//! with hosts, the scheduler carrying the *migration-enabled executable
//! image* (§2.2), rank registration, and round-robin (or explicit)
//! process placement. Applications are a single function of
//! `(SnowProcess, Start)` — the `Start::Resumed` arm is the poll-point
//! re-entry after a migration, mirroring how the SNOW compiler's
//! annotated code jumps back to the interrupted location.

use crate::migrate::initialize;
use crate::process::SnowProcess;
use snow_net::TimeScale;
use snow_sched::{
    spawn_scheduler_with_config, IndexedDirectory, MigrationRecord, RetryPolicy, SchedClient,
    SchedulerConfig, SchedulerHandle,
};
use snow_state::{PipelineConfig, ProcessState, StateCostModel};
use snow_trace::Tracer;
use snow_vm::{HostId, HostSpec, Rank, VirtualMachine, Vmid};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;

/// How an application invocation begins.
pub enum Start {
    /// A fresh process at program entry.
    Fresh,
    /// Resumed on a destination host after migration, with the restored
    /// execution + memory state.
    Resumed(ProcessState),
}

/// Builder for a [`Computation`] environment.
pub struct ComputationBuilder {
    tracer: Arc<Tracer>,
    scale: TimeScale,
    cost: StateCostModel,
    pipeline: PipelineConfig,
    host_specs: Vec<HostSpec>,
    sched_config: SchedulerConfig,
    fault_plan: Option<snow_net::FaultPlan>,
    transport: Option<Arc<dyn snow_vm::Transport>>,
}

impl Default for ComputationBuilder {
    fn default() -> Self {
        ComputationBuilder {
            tracer: Tracer::disabled(),
            scale: TimeScale::ZERO,
            cost: StateCostModel::PAPER,
            pipeline: PipelineConfig::default(),
            host_specs: Vec::new(),
            sched_config: SchedulerConfig::default(),
            fault_plan: None,
            transport: None,
        }
    }
}

impl ComputationBuilder {
    /// Install a trace collector.
    pub fn tracer(mut self, t: Arc<Tracer>) -> Self {
        self.tracer = t;
        self
    }

    /// Set the modeled-time scale (0 disables modeled delays).
    pub fn time_scale(mut self, s: TimeScale) -> Self {
        self.scale = s;
        self
    }

    /// Override the state cost model.
    pub fn cost_model(mut self, c: StateCostModel) -> Self {
        self.cost = c;
        self
    }

    /// Override the chunked state-transfer configuration every process
    /// uses when migrating ([`PipelineConfig::monolithic`] restores the
    /// single-frame transfer the paper measures).
    pub fn pipeline(mut self, cfg: PipelineConfig) -> Self {
        self.pipeline = cfg;
        self
    }

    /// Add `n` identical hosts.
    pub fn hosts(mut self, spec: HostSpec, n: usize) -> Self {
        self.host_specs.extend(std::iter::repeat_n(spec, n));
        self
    }

    /// Add one host.
    pub fn host(mut self, spec: HostSpec) -> Self {
        self.host_specs.push(spec);
        self
    }

    /// Install a migration retry policy: a failed transfer is re-targeted
    /// at alternate live hosts up to `policy.max_attempts` total
    /// attempts before the migration finally aborts.
    pub fn migration_retry(mut self, policy: RetryPolicy) -> Self {
        self.sched_config.retry = Some(policy);
        self
    }

    /// Override the scheduler's in-flight migration deadline (`None`
    /// disables the sweep). Migrations that neither commit nor report
    /// failure within the window are aborted server-side.
    pub fn migration_deadline(mut self, deadline: Option<std::time::Duration>) -> Self {
        self.sched_config.deadline = deadline;
        self
    }

    /// Arm deterministic fault injection: every logical connection and
    /// daemon-routed control datagram of the built environment is
    /// subject to `plan` (seeded, reproducible — see
    /// [`snow_net::fault`]).
    pub fn fault_plan(mut self, plan: snow_net::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Install a transport backend for the §2.3 services (point-to-point
    /// channels, daemon datagrams, signals). Defaults to the in-process
    /// substrate; [`snow_vm::TcpTransport`] routes the same traffic over
    /// framed localhost sockets.
    pub fn transport(mut self, t: Arc<dyn snow_vm::Transport>) -> Self {
        self.transport = Some(t);
        self
    }

    /// Build the environment. At least one host is required (it carries
    /// the scheduler).
    pub fn build(self) -> Computation {
        assert!(
            !self.host_specs.is_empty(),
            "a computation needs at least one host"
        );
        let vm = match self.transport {
            Some(t) => VirtualMachine::with_transport(Arc::clone(&self.tracer), self.scale, t),
            None => VirtualMachine::new(Arc::clone(&self.tracer), self.scale),
        };
        // Arm faults before the first daemon spawns so the plan covers
        // every host's datagram service from the start.
        if let Some(plan) = self.fault_plan {
            vm.set_fault_plan(plan);
        }
        let hosts: Vec<HostId> = self
            .host_specs
            .iter()
            .map(|spec| vm.add_host(*spec))
            .collect();
        Computation {
            vm,
            hosts,
            tracer: self.tracer,
            cost: self.cost,
            pipeline: self.pipeline,
            sched_config: self.sched_config,
            sched: Mutex::new(None),
            client: Mutex::new(None),
        }
    }
}

/// A running SNOW environment plus its launch/migration controls.
pub struct Computation {
    vm: VirtualMachine,
    hosts: Vec<HostId>,
    tracer: Arc<Tracer>,
    cost: StateCostModel,
    pipeline: PipelineConfig,
    sched_config: SchedulerConfig,
    sched: Mutex<Option<SchedulerHandle>>,
    client: Mutex<Option<SchedClient>>,
}

impl Computation {
    /// Start building an environment.
    pub fn builder() -> ComputationBuilder {
        ComputationBuilder::default()
    }

    /// The member hosts, in the order they were added.
    pub fn hosts(&self) -> &[HostId] {
        &self.hosts
    }

    /// The underlying virtual machine.
    pub fn vm(&self) -> &VirtualMachine {
        &self.vm
    }

    /// The trace collector.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Launch `n` ranks placed round-robin over the member hosts.
    ///
    /// The same `app` function is also installed as the migration-
    /// enabled executable image: after a migration it is re-entered with
    /// [`Start::Resumed`]. May be called once per `Computation`.
    pub fn launch<F>(&self, n: usize, app: F) -> Vec<JoinHandle<()>>
    where
        F: Fn(SnowProcess, Start) + Send + Sync + 'static,
    {
        let placement: Vec<HostId> = (0..n).map(|r| self.hosts[r % self.hosts.len()]).collect();
        self.launch_placed(&placement, app)
    }

    /// Launch one rank per entry of `placement` (rank i on
    /// `placement[i]`).
    pub fn launch_placed<F>(&self, placement: &[HostId], app: F) -> Vec<JoinHandle<()>>
    where
        F: Fn(SnowProcess, Start) + Send + Sync + 'static,
    {
        let app: Arc<dyn Fn(SnowProcess, Start) + Send + Sync> = Arc::new(app);
        let cost = self.cost;
        let pipeline = self.pipeline.clone();

        // The migration-enabled executable image (§2.2): initialize,
        // then resume the application at its poll point.
        let image_app = Arc::clone(&app);
        let image_pipeline = pipeline.clone();
        let image: snow_sched::ProcessImage = Arc::new(move |cell, rank| {
            // Every initialization failure is part of the abort
            // protocol: the reap order, a rejected transfer
            // (checksum/digest/protocol violation — the negative ack
            // already went to the source), or the environment vanishing
            // underneath (destination host removed). The source and the
            // scheduler carry the outcome; a half-initialized process
            // just stands down.
            if let Ok((proc_, state, _restore_s)) =
                initialize(cell, rank, cost, image_pipeline.clone())
            {
                image_app(proc_, Start::Resumed(state));
            }
        });
        {
            let mut slot = self.sched.lock().unwrap();
            assert!(slot.is_none(), "launch may only be called once");
            *slot = Some(spawn_scheduler_with_config(
                &self.vm,
                self.hosts[0],
                image,
                IndexedDirectory::with_capacity(placement.len()),
                self.sched_config.clone(),
            ));
        }
        let client = SchedClient::new(&self.vm);

        // Gate processes until every rank is registered and the initial
        // PL table (§2.1: stored in every process's memory) has been
        // distributed, so first connections route directly; scheduler
        // consultation is reserved for post-nack on-demand updates.
        let gate = Arc::new(Barrier::new(placement.len() + 1));
        let pl_table: Arc<Mutex<Vec<(Rank, Vmid)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::with_capacity(placement.len());
        for (rank, host) in placement.iter().enumerate() {
            let app = Arc::clone(&app);
            let gate = Arc::clone(&gate);
            let pl_for_proc = Arc::clone(&pl_table);
            let proc_pipeline = pipeline.clone();
            let (vmid, handle) = self
                .vm
                .spawn(*host, &format!("p{rank}"), move |cell| {
                    gate.wait();
                    let mut proc_ = SnowProcess::fresh(cell, rank, cost);
                    proc_.set_pipeline(proc_pipeline);
                    proc_.install_pl(&pl_for_proc.lock().unwrap());
                    app(proc_, Start::Fresh);
                })
                .expect("placement host is a member");
            client.register(rank, vmid).expect("scheduler is running");
            pl_table.lock().unwrap().push((rank, vmid));
            handles.push(handle);
        }
        gate.wait();
        *self.client.lock().unwrap() = Some(client);
        handles
    }

    /// Launch one rank per entry of `placement` *without* an OS thread
    /// per rank: returns the driveable [`SnowProcess`] values so a
    /// harness can multiplex them onto a bounded worker pool through
    /// the cooperative API ([`SnowProcess::try_send`],
    /// [`SnowProcess::try_recv`], [`SnowProcess::poll_point`]).
    ///
    /// `app` is installed as the migration-enabled executable image
    /// (§2.2) only: it runs when a migrated rank resumes, on a
    /// scheduler-owned thread (join via
    /// [`Computation::join_init_processes`]). Cooperatively driven
    /// ranks own their termination epilogue — end each with
    /// [`SnowProcess::finish`] followed by
    /// [`snow_vm::VirtualMachine::retire`] of its vmid, the pair the
    /// per-rank threads of [`Computation::launch_placed`] run
    /// automatically.
    pub fn launch_cooperative<F>(&self, placement: &[HostId], app: F) -> Vec<SnowProcess>
    where
        F: Fn(SnowProcess, Start) + Send + Sync + 'static,
    {
        let cost = self.cost;
        let pipeline = self.pipeline.clone();
        let image_pipeline = pipeline.clone();
        let image: snow_sched::ProcessImage = Arc::new(move |cell, rank| {
            // Same stand-down contract as `launch_placed`: any
            // initialization failure is already carried by the abort
            // protocol.
            if let Ok((proc_, state, _restore_s)) =
                initialize(cell, rank, cost, image_pipeline.clone())
            {
                app(proc_, Start::Resumed(state));
            }
        });
        {
            let mut slot = self.sched.lock().unwrap();
            assert!(slot.is_none(), "launch may only be called once");
            *slot = Some(spawn_scheduler_with_config(
                &self.vm,
                self.hosts[0],
                image,
                IndexedDirectory::with_capacity(placement.len()),
                self.sched_config.clone(),
            ));
        }
        let client = SchedClient::new(&self.vm);

        // No barrier gate: nothing runs until the caller starts
        // stepping, so registration and PL distribution complete
        // before the first connect can fire.
        let mut procs = Vec::with_capacity(placement.len());
        let mut pl_table: Vec<(Rank, Vmid)> = Vec::with_capacity(placement.len());
        for (rank, host) in placement.iter().enumerate() {
            let (vmid, cell) = self
                .vm
                .spawn_cell(*host, &format!("p{rank}"))
                .expect("placement host is a member");
            let mut proc_ = SnowProcess::fresh(cell, rank, cost);
            proc_.set_pipeline(pipeline.clone());
            client.register(rank, vmid).expect("scheduler is running");
            pl_table.push((rank, vmid));
            procs.push(proc_);
        }
        for p in &mut procs {
            p.install_pl(&pl_table);
        }
        *self.client.lock().unwrap() = Some(client);
        procs
    }

    fn with_client<T>(&self, f: impl FnOnce(&SchedClient) -> T) -> T {
        let guard = self.client.lock().unwrap();
        let client = guard
            .as_ref()
            .expect("launch() must be called before migration controls");
        f(client)
    }

    /// Ask the scheduler to migrate `rank` to `host`, blocking until the
    /// migration commits; returns the new vmid.
    pub fn migrate(&self, rank: Rank, host: HostId) -> Result<Vmid, String> {
        self.with_client(|c| c.migrate(rank, host))
    }

    /// Fire a migration request without waiting.
    pub fn migrate_async(&self, rank: Rank, host: HostId) -> Result<(), String> {
        self.with_client(|c| c.migrate_async(rank, host))
    }

    /// Wait for a previously requested migration to commit.
    pub fn wait_migration_done(&self, rank: Rank) -> Result<Vmid, String> {
        self.with_client(|c| c.wait_migration_done(rank))
    }

    /// Look up a rank's status and location.
    pub fn lookup(&self, rank: Rank) -> Result<(snow_vm::wire::ExeStatus, Option<Vmid>), String> {
        self.with_client(|c| c.lookup(rank))
    }

    /// Evacuate every running rank off `host` through the scheduler's
    /// bounded worker pool, blocking until each migrant reaches a
    /// terminal disposition.
    pub fn drain_host(
        &self,
        host: HostId,
        pool: snow_vm::wire::DrainPoolConfig,
    ) -> Result<snow_sched::DrainReport, snow_vm::wire::FailCause> {
        self.with_client(|c| c.drain_host(host, pool))
    }

    /// Fire a host-drain request without waiting for its verdict.
    pub fn drain_host_async(
        &self,
        host: HostId,
        pool: snow_vm::wire::DrainPoolConfig,
    ) -> Result<(), String> {
        self.with_client(|c| c.drain_host_async(host, pool))
    }

    /// Wait for a previously requested drain of `host` to terminate.
    pub fn wait_drain_done(
        &self,
        host: HostId,
    ) -> Result<snow_sched::DrainReport, snow_vm::wire::FailCause> {
        self.with_client(|c| c.wait_drain_done(host))
    }

    /// Wait for every *initialized* (post-migration) process spawned so
    /// far to finish. Migrated ranks continue on threads owned by the
    /// scheduler; harnesses must join them — after joining the original
    /// rank threads — before reading results or traces.
    pub fn join_init_processes(&self) {
        loop {
            let joins = {
                let guard = self.sched.lock().unwrap();
                match guard.as_ref() {
                    Some(s) => s.take_init_joins(),
                    None => return,
                }
            };
            if joins.is_empty() {
                return;
            }
            for j in joins {
                let _ = j.join();
            }
            // A resumed process may itself have migrated meanwhile;
            // loop until no new initialized processes appear.
        }
    }

    /// The scheduler's migration bookkeeping records.
    pub fn migration_records(&self) -> Vec<MigrationRecord> {
        self.sched
            .lock()
            .unwrap()
            .as_ref()
            .map(|s| s.records())
            .unwrap_or_default()
    }

    /// Gracefully stop the scheduler (after all application processes
    /// have been joined). Further migration requests fail; the
    /// environment can still route data between surviving processes.
    pub fn shutdown(&self) {
        let sched = self.sched.lock().unwrap().take();
        if let Some(sched) = sched {
            if let Some(client) = self.client.lock().unwrap().as_ref() {
                let _ = client.shutdown();
            }
            sched.join();
        }
        // Release any backend resources (listener/reader threads for the
        // socket transport; a no-op for the in-process substrate).
        self.vm.shared().transport().shutdown();
    }
}

impl Drop for Computation {
    fn drop(&mut self) {
        // Unblock the scheduler thread so test binaries do not leak it.
        if let (Some(_), Some(client)) = (
            self.sched.lock().unwrap().as_ref(),
            self.client.lock().unwrap().as_ref(),
        ) {
            let _ = client.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn two_rank_ping_pong() {
        let comp = Computation::builder().hosts(HostSpec::ideal(), 2).build();
        let handles = comp.launch(2, |mut p, _start| {
            match p.rank() {
                0 => {
                    p.send(1, 1, Bytes::from_static(b"ping")).unwrap();
                    let (src, tag, body) = p.recv(Some(1), Some(2)).unwrap();
                    assert_eq!((src, tag, &body[..]), (1, 2, &b"pong"[..]));
                }
                1 => {
                    let (src, tag, body) = p.recv(Some(0), Some(1)).unwrap();
                    assert_eq!((src, tag, &body[..]), (0, 1, &b"ping"[..]));
                    p.send(0, 2, Bytes::from_static(b"pong")).unwrap();
                }
                _ => unreachable!(),
            }
            p.finish();
        });
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn wildcard_receive_across_ranks() {
        let comp = Computation::builder().hosts(HostSpec::ideal(), 3).build();
        let handles = comp.launch(3, |mut p, _start| {
            match p.rank() {
                0 => {
                    let mut seen = Vec::new();
                    for _ in 0..2 {
                        let (src, _tag, _b) = p.recv(None, None).unwrap();
                        seen.push(src);
                    }
                    seen.sort_unstable();
                    assert_eq!(seen, vec![1, 2]);
                }
                r => {
                    p.send(0, 9, Bytes::from(vec![r as u8; 8])).unwrap();
                }
            }
            p.finish();
        });
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn empty_builder_rejected() {
        let _ = Computation::builder().build();
    }

    /// Two cooperatively driven ranks complete a ping-pong from a
    /// single driving thread: connection establishment, send and
    /// receive all advance through the non-blocking API.
    #[test]
    fn cooperative_ping_pong_single_thread() {
        let comp = Computation::builder().hosts(HostSpec::ideal(), 2).build();
        let placement = [comp.hosts()[0], comp.hosts()[1]];
        let mut procs = comp.launch_cooperative(&placement, |_p, _s| {});
        let mut p1 = procs.pop().unwrap();
        let mut p0 = procs.pop().unwrap();
        assert_eq!((p0.rank(), p1.rank()), (0, 1));

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let step = |pending: &mut dyn FnMut() -> bool| {
            while !pending() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "cooperative ping-pong stalled"
                );
                std::thread::yield_now();
            }
        };

        // 0 → 1: try_send fires the conn_req; pumping rank 1 grants it.
        let ping = Bytes::from_static(b"ping");
        {
            let (p0, p1) = (&mut p0, &mut p1);
            step(&mut || {
                let sent = p0.try_send(1, 1, &ping).unwrap();
                p1.pump().unwrap();
                sent
            });
            step(&mut || match p1.try_recv(Some(0), Some(1)).unwrap() {
                Some((src, tag, body)) => {
                    assert_eq!((src, tag, &body[..]), (0, 1, &b"ping"[..]));
                    true
                }
                None => false,
            });
            // 1 → 0 rides the crossing channel already established.
            let pong = Bytes::from_static(b"pong");
            step(&mut || {
                let sent = p1.try_send(0, 2, &pong).unwrap();
                p0.pump().unwrap();
                sent
            });
            step(&mut || match p0.try_recv(Some(1), Some(2)).unwrap() {
                Some((src, tag, body)) => {
                    assert_eq!((src, tag, &body[..]), (1, 2, &b"pong"[..]));
                    true
                }
                None => false,
            });
        }

        // The caller-owned epilogue of cooperative ranks.
        let (v0, v1) = (p0.vmid(), p1.vmid());
        p0.finish();
        p1.finish();
        comp.vm().retire(v0);
        comp.vm().retire(v1);
        comp.shutdown();
    }
}
