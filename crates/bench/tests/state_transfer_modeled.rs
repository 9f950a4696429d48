//! Modeled-cost properties of the chunked state transfer that the
//! `state_transfer` bench (A4) measures: the pipelined makespan beats
//! the serial Collect + Tx + Restore sum, and the chunked encoders do
//! the same work as the monolithic one.

#[path = "../benches/common/mod.rs"]
mod common;

use common::padded_state;
use snow_net::LinkModel;
use snow_state::{collect_chunks, pipelined_makespan, PipelineConfig, StateCostModel};
use snow_vm::HostSpec;

/// With >= 4 workers on a bandwidth-limited 10 Mbit link, the
/// pipelined modeled total is strictly below the serial
/// Collect + Tx + Restore sum for a realistically chunked
/// paper-scale state.
#[test]
fn pipelined_modeled_total_beats_serial_sum() {
    let state = padded_state(2 << 20);
    let cfg = PipelineConfig {
        chunk_bytes: 256 * 1024,
        workers: 4,
        queue_depth: 8,
    };
    let (chunks, _) = collect_chunks(&state, &cfg);
    assert!(chunks.len() >= 8, "want many chunks, got {}", chunks.len());

    let cost = StateCostModel::PAPER;
    let src = HostSpec::dec5000().speed;
    let dst = HostSpec::ultra5().speed;
    let link = LinkModel::ETHERNET_10M;
    let collect: Vec<f64> = chunks
        .iter()
        .map(|c| cost.collect_seconds(c.bytes.len(), src))
        .collect();
    let tx: Vec<f64> = chunks
        .iter()
        .map(|c| link.transfer_seconds(c.bytes.len()))
        .collect();
    let restore: Vec<f64> = chunks
        .iter()
        .map(|c| cost.restore_seconds(c.bytes.len(), dst))
        .collect();

    let serial: f64 =
        collect.iter().sum::<f64>() + tx.iter().sum::<f64>() + restore.iter().sum::<f64>();
    let pipelined = pipelined_makespan(&collect, &tx, &restore, 4);
    assert!(
        pipelined < serial,
        "pipelined {pipelined} must beat serial {serial}"
    );
    // The overlap is substantial: the pipeline hides at least a
    // fifth of the serial stage sum on this link, and never beats
    // the wire itself (tx is the FIFO bottleneck).
    let wire: f64 = tx.iter().sum();
    assert!(
        pipelined >= wire,
        "cannot beat the wire: {pipelined} vs {wire}"
    );
    assert!(
        pipelined < 0.8 * serial,
        "overlap too small: {pipelined} vs serial {serial}"
    );
}

/// The chunked encoders produce exactly the monolithic bytes — the
/// bench compares equal work.
#[test]
fn bench_inputs_agree() {
    let state = padded_state(512 << 10);
    let mono = state.collect();
    for workers in [1usize, 4] {
        let cfg = PipelineConfig {
            chunk_bytes: 256 * 1024,
            workers,
            queue_depth: 8,
        };
        let (chunks, summary) = collect_chunks(&state, &cfg);
        let concat: Vec<u8> = chunks
            .iter()
            .flat_map(|c| c.bytes.iter().copied())
            .collect();
        assert_eq!(&concat[..], &mono[8..]);
        assert_eq!(
            summary.digest,
            u64::from_be_bytes(mono[..8].try_into().unwrap())
        );
    }
}
