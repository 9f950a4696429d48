//! Inputs shared by the state-transfer bench and its modeled-cost
//! tests (`tests/state_transfer_modeled.rs`).

use snow_codec::Value;
use snow_state::{ExecState, MemoryGraph, ProcessState};

/// A small linked heap padded to `bytes` of canonical state.
pub fn padded_state(bytes: usize) -> ProcessState {
    let exec = ExecState::at_entry()
        .enter("kernelMG")
        .with_local("iteration", Value::U64(2));
    let mut mem = MemoryGraph::new();
    // A linked structure plus a dense payload, like a real heap.
    let arr = mem.add_node(Value::F64Array(vec![1.5; 4096]));
    let hdr = mem.add_node(Value::Str("grid".into()));
    mem.add_edge(hdr, 0, arr);
    let mut s = ProcessState::new(exec, mem);
    s.pad_to(bytes);
    s
}
