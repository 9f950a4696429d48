//! Shadow calls of the traced run: the benchmark re-runs a layer's
//! public functions on real inputs (a sent payload, a migrated state)
//! to time that layer on its own.

use crate::report::StateShadow;
use snow_net::{encode_frame, read_frame, FrameKind};
use snow_state::{stream_chunks, ChunkedRestorer, PipelineConfig, ProcessState, StateChunk};
use std::io::Cursor;
use std::time::Instant;

/// Encode `body` as one frame and read it back; returns the time taken
/// (ns), or `None` if the frame did not round-trip.
pub fn frame_roundtrip_ns(body: &[u8]) -> Option<u64> {
    let t = Instant::now();
    let frame = encode_frame(FrameKind::Inbox, body).ok()?;
    let (kind, back) = read_frame(&mut Cursor::new(frame)).ok()??;
    let ns = t.elapsed().as_nanos() as u64;
    (kind == FrameKind::Inbox && back == body).then_some(ns)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Collect, stream through a [`ChunkedRestorer`], and restore `state`
/// `reps` times. Returns the timings, or an error if any path failed to
/// reproduce the state.
pub fn state_roundtrip(state: &ProcessState, reps: usize) -> Result<StateShadow, String> {
    let cfg = PipelineConfig::default();
    let mut out = StateShadow::default();
    for _ in 0..reps {
        let t = Instant::now();
        let body = std::hint::black_box(state.collect_body());
        out.collect_ms.push(ms(t));

        let t = Instant::now();
        let mut restorer = ChunkedRestorer::new();
        let summary = stream_chunks(state, &cfg, |c: &StateChunk| {
            restorer.push(c.seq, c.checksum, &c.bytes)
        })
        .map_err(|e| format!("chunk stream rejected: {e}"))?;
        let streamed = restorer
            .finish(summary.digest, summary.chunks, summary.total_bytes as u64)
            .map_err(|e| format!("chunk stream did not finish: {e}"))?;
        out.stream_ms.push(ms(t));

        let t = Instant::now();
        let restored = ProcessState::restore_body(&body).map_err(|e| e.to_string())?;
        out.restore_ms.push(ms(t));

        if restored != *state || streamed != *state {
            return Err("restored state differs from the collected one".into());
        }
        out.bytes = body.len() as f64;
        out.chunks = f64::from(summary.chunks);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_state::{ExecState, MemoryGraph};

    #[test]
    fn shadows_roundtrip() {
        assert!(frame_roundtrip_ns(&[7u8; 300]).is_some());
        let mut st = ProcessState::new(ExecState::at_entry(), MemoryGraph::new());
        st.pad_to(600 * 1024);
        let s = state_roundtrip(&st, 2).unwrap();
        assert_eq!(s.collect_ms.len(), 2);
        assert!(s.bytes >= 600.0 * 1024.0 - 16.0);
        assert!(s.chunks >= 3.0);
    }
}
