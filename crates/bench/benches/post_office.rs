//! Post-office path microbenches — the ablation behind the substrate
//! sharding PR. Each group pins one hot-path claim at 1k ranks:
//!
//! * `registry_lookup_1k` — the sharded vmid→address registry under
//!   concurrent routing threads vs an inline reconstruction of the old
//!   shape (one global `RwLock<HashMap>`, address cloned out per hit).
//! * `directory_lookup_1k` — the dense rank-indexed PL table vs a
//!   bench-local `BTreeMap` (the centralized table it replaced as the
//!   scheduler's PL store).
//! * `routed_send_1k` — the full send path (directory lookup → registry
//!   borrow → classed post) with zero-copy `Bytes` payloads vs the
//!   global-lock + cloned-address + copied-payload baseline.
//! * `post_delivery` — immediate-frame fast path (`TimeScale::ZERO`,
//!   never stages) vs the modeled staging heap.
//!
//! Numbers land in EXPERIMENTS.md §Scale.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use snow_net::{FrameClass, LinkModel, TimeScale};
use snow_sched::{IndexedDirectory, PlEntry};
use snow_trace::Tracer;
use snow_vm::vm::{ProcAddr, Registry};
use snow_vm::wire::{Envelope, ExeStatus, Incoming, Payload};
use snow_vm::{HostId, Post, Vmid};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

const RANKS: usize = 1000;
const LOOKUP_THREADS: usize = 4;
const PAYLOAD: usize = 64;
/// Operations per thread per measured iteration — large enough that the
/// scoped-thread spawn cost disappears into the noise.
const OPS_PER_ITER: u64 = 10_000;

fn vmid(rank: usize) -> Vmid {
    Vmid {
        host: HostId(rank as u32 % 64),
        pid: rank as u32 / 64,
    }
}

/// A rank's worth of inboxes plus both address tables.
struct World {
    registry: Registry,
    global: Arc<RwLock<HashMap<Vmid, ProcAddr>>>,
    dir: IndexedDirectory,
    posts: Vec<Post<Incoming>>,
}

fn build_world() -> World {
    let registry = Registry::new();
    let global = Arc::new(RwLock::new(HashMap::new()));
    let mut dir = IndexedDirectory::with_capacity(RANKS);
    let mut posts = Vec::with_capacity(RANKS);
    for rank in 0..RANKS {
        let (tx, post) = Post::channel(LinkModel::INSTANT, TimeScale::ZERO);
        let (sig_tx, _sig_rx) = crossbeam::channel::unbounded();
        let addr = ProcAddr {
            inbox: tx,
            signals: sig_tx,
            host: vmid(rank).host,
            label: format!("p{rank}"),
        };
        registry.register(vmid(rank), addr.clone());
        global.write().unwrap().insert(vmid(rank), addr);
        dir.insert(
            rank,
            PlEntry {
                vmid: vmid(rank),
                status: ExeStatus::Running,
            },
        );
        posts.push(post);
    }
    World {
        registry,
        global,
        dir,
        posts,
    }
}

/// Run `iters * OPS_PER_ITER` operations on each of [`LOOKUP_THREADS`]
/// threads, strided so every thread sweeps the whole rank space;
/// returns the wall time of the contended phase.
fn contended(iters: u64, f: impl Fn(usize) + Send + Sync) -> Duration {
    let f = &f;
    let per_thread = iters * OPS_PER_ITER;
    std::thread::scope(|s| {
        let t0 = Instant::now();
        let handles: Vec<_> = (0..LOOKUP_THREADS)
            .map(|t| {
                s.spawn(move || {
                    for i in 0..per_thread {
                        f((t * 17 + i as usize * 13) % RANKS);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        t0.elapsed()
    })
}

fn registry_lookup(c: &mut Criterion) {
    let w = build_world();
    let mut g = c.benchmark_group("registry_lookup_1k");
    g.throughput(Throughput::Elements(LOOKUP_THREADS as u64 * OPS_PER_ITER));

    g.bench_function("sharded_borrow", |b| {
        b.iter_custom(|iters| {
            contended(iters, |rank| {
                let hit = w.registry.with_addr(vmid(rank), |addr| addr.host);
                black_box(hit);
            })
        })
    });
    g.bench_function("global_rwlock_clone", |b| {
        b.iter_custom(|iters| {
            contended(iters, |rank| {
                // The pre-sharding shape: one lock, address cloned out.
                let hit = w.global.read().unwrap().get(&vmid(rank)).cloned();
                black_box(hit);
            })
        })
    });
    g.finish();
}

fn directory_lookup(c: &mut Criterion) {
    let w = build_world();
    let mut central: BTreeMap<usize, PlEntry> = BTreeMap::new();
    for rank in 0..RANKS {
        central.insert(
            rank,
            PlEntry {
                vmid: vmid(rank),
                status: ExeStatus::Running,
            },
        );
    }
    let mut g = c.benchmark_group("directory_lookup_1k");
    g.throughput(Throughput::Elements(1));

    let mut i = 0usize;
    g.bench_function("indexed", |b| {
        b.iter(|| {
            i = (i + 13) % RANKS;
            black_box(w.dir.lookup(black_box(i)))
        })
    });
    g.bench_function("central_btree", |b| {
        b.iter(|| {
            i = (i + 13) % RANKS;
            black_box(central.get(&black_box(i)).copied())
        })
    });
    g.finish();
}

fn routed_send(c: &mut Criterion) {
    let w = build_world();
    let tracer = Tracer::disabled();
    let payload = Bytes::from(vec![7u8; PAYLOAD]);
    let drain = |w: &World| {
        for p in &w.posts {
            while let Ok(Some(_)) = p.try_recv() {}
        }
    };

    let mut g = c.benchmark_group("routed_send_1k");
    g.throughput(Throughput::Elements(LOOKUP_THREADS as u64 * OPS_PER_ITER));

    g.bench_function("sharded_zero_copy", |b| {
        b.iter_custom(|iters| {
            let d = contended(iters, |rank| {
                // The post-PR hot path: O(1) directory hit, in-place
                // registry borrow, payload shared by refcount.
                let entry = w.dir.lookup(rank).unwrap();
                let env = Envelope {
                    src: 0,
                    tag: 1,
                    msg: tracer.next_msg_id(),
                    payload: Payload::Data(payload.clone()),
                };
                let bytes = env.wire_bytes();
                w.registry
                    .with_addr(entry.vmid, |addr| {
                        addr.inbox
                            .send_classed(Incoming::Data(env), bytes, FrameClass::Data)
                    })
                    .unwrap()
                    .unwrap();
            });
            drain(&w);
            d
        })
    });
    g.bench_function("global_lock_clone", |b| {
        b.iter_custom(|iters| {
            let d = contended(iters, |rank| {
                // The pre-PR shape: global table, cloned address, copied
                // payload bytes.
                let entry = w.dir.lookup(rank).unwrap();
                let addr = w.global.read().unwrap().get(&entry.vmid).cloned().unwrap();
                let env = Envelope {
                    src: 0,
                    tag: 1,
                    msg: tracer.next_msg_id(),
                    payload: Payload::Data(Bytes::from(payload.to_vec())),
                };
                let bytes = env.wire_bytes();
                addr.inbox
                    .send_classed(Incoming::Data(env), bytes, FrameClass::Data)
                    .unwrap();
            });
            drain(&w);
            d
        })
    });
    g.finish();
}

fn post_delivery(c: &mut Criterion) {
    let mut g = c.benchmark_group("post_delivery");
    g.throughput(Throughput::Elements(1));

    g.bench_function("immediate_fast_path", |b| {
        let (tx, post) = Post::channel(LinkModel::INSTANT, TimeScale::ZERO);
        b.iter(|| {
            tx.send_classed(black_box(1u64), 64, FrameClass::Data)
                .unwrap();
            black_box(post.try_recv().unwrap())
        })
    });
    g.bench_function("modeled_staged", |b| {
        // A fast modeled link: frames carry a delivery time and take the
        // staging heap, but the wait itself stays sub-microsecond.
        let link = LinkModel {
            latency_s: 1e-7,
            bandwidth_bps: f64::INFINITY,
        };
        let (tx, post) = Post::channel(link, TimeScale::MILLI);
        b.iter(|| {
            tx.send_classed(black_box(1u64), 64, FrameClass::Data)
                .unwrap();
            black_box(post.recv().unwrap())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    registry_lookup,
    directory_lookup,
    routed_send,
    post_delivery
);
criterion_main!(benches);
