//! A4 — throughput of the heterogeneous state machinery that feeds the
//! Table 2 Collect/Restore rows: canonical encoding of values, memory
//! graphs and full process-state snapshots from 64 KB to 8 MB, plus the
//! monolithic-vs-pipelined chunk-stream comparison.
//!
//! The modeled pipelined-beats-serial property is asserted by
//! `tests/state_transfer_modeled.rs` under `cargo test`.

mod common;

use common::padded_state;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use snow_codec::Value;
use snow_state::{collect_chunks, MemoryGraph, PipelineConfig, ProcessState};

const SIZES: [usize; 4] = [64 << 10, 512 << 10, 2 << 20, 8 << 20];

fn bench_collect_restore(c: &mut Criterion) {
    let mut g = c.benchmark_group("state");
    g.sample_size(10);
    for &bytes in &SIZES {
        let state = padded_state(bytes);
        let collected = state.collect();
        g.throughput(Throughput::Bytes(collected.len() as u64));
        g.bench_with_input(BenchmarkId::new("collect", bytes), &state, |b, s| {
            b.iter(|| s.collect());
        });
        g.bench_with_input(
            BenchmarkId::new("restore", bytes),
            &collected,
            |b, bytes| {
                b.iter(|| ProcessState::restore(bytes).unwrap());
            },
        );
    }
    g.finish();
}

fn bench_memory_graph(c: &mut Criterion) {
    let mut g = c.benchmark_group("memory_graph");
    g.sample_size(20);
    for nodes in [16usize, 256, 2048] {
        let mut graph = MemoryGraph::new();
        let ids: Vec<_> = (0..nodes)
            .map(|i| graph.add_node(Value::F64Array(vec![i as f64; 32])))
            .collect();
        for w in ids.windows(2) {
            graph.add_edge(w[0], 0, w[1]);
        }
        // Cross links + a cycle for realism.
        graph.add_edge(ids[nodes - 1], 0, ids[0]);
        let encoded = graph.encode();
        g.throughput(Throughput::Bytes(encoded.len() as u64));
        g.bench_with_input(BenchmarkId::new("encode", nodes), &graph, |b, gr| {
            b.iter(|| gr.encode());
        });
        g.bench_with_input(BenchmarkId::new("decode", nodes), &encoded, |b, e| {
            b.iter(|| MemoryGraph::decode(e).unwrap());
        });
    }
    g.finish();
}

fn bench_value_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("value");
    let v = Value::Record(vec![
        ("grid".into(), Value::F64Array(vec![0.5; 8192])),
        ("name".into(), Value::Str("kernelMG".into())),
        ("iter".into(), Value::U64(2)),
    ]);
    let bytes = v.encode();
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode", |b| b.iter(|| v.encode()));
    g.bench_function("decode", |b| b.iter(|| Value::decode(&bytes).unwrap()));
    g.finish();
}

/// Monolithic single-buffer encode vs the chunked pipeline at 1 and 4
/// workers: same canonical bytes, different wall-clock shape.
fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    for &bytes in &[512 << 10, 8 << 20] {
        let state = padded_state(bytes);
        let total = state.collect().len();
        g.throughput(Throughput::Bytes(total as u64));
        g.bench_with_input(BenchmarkId::new("monolithic", bytes), &state, |b, s| {
            b.iter(|| s.collect());
        });
        for workers in [1usize, 4] {
            let cfg = PipelineConfig {
                chunk_bytes: 256 * 1024,
                workers,
                queue_depth: 8,
            };
            g.bench_with_input(
                BenchmarkId::new(format!("chunked_w{workers}"), bytes),
                &state,
                |b, s| {
                    b.iter(|| collect_chunks(s, &cfg));
                },
            );
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_collect_restore,
    bench_memory_graph,
    bench_value_roundtrip,
    bench_pipeline
);
criterion_main!(benches);
