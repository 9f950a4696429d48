//! Table 2 (§6.3): performance of a migration in a *heterogeneous*
//! environment — the migrating MG process runs on a DEC 5000/120
//! (little-endian, ~0.14× speed, 10 Mbit Ethernet) and moves to a Sun
//! Ultra 5 (big-endian, 1×, 100 Mbit). Rows: Coordinate / Collect / Tx /
//! Restore / Migrate, averaged over 10 runs, >7.5 MB of state.
//!
//! Exits 1 unless the mean pipelined migration lies strictly between
//! the Tx row (the wire bounds it from below) and the serial migrate
//! row (overlap must beat the stage sum): `tx < pipelined < migrate`.

use snow_core::Computation;
use snow_mg::{mg_app_instrumented, MgConfig};
use snow_net::TimeScale;
use snow_state::StateCostModel;
use snow_trace::{Breakdown, Tracer};
use snow_vm::HostSpec;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

fn one_run(cfg: MgConfig) -> (snow_core::MigrationTimings, f64) {
    let results = Arc::new(Mutex::new(HashMap::new()));
    let timings = Arc::new(Mutex::new(Vec::new()));
    // Build the paper's heterogeneous testbed: rank 0 on the DEC, the
    // other 7 ranks + scheduler + destination on Ultra 5s.
    let mut builder = Computation::builder().time_scale(TimeScale::MILLI);
    builder = builder.host(HostSpec::ultra5()); // scheduler host
    builder = builder.host(HostSpec::dec5000()); // rank 0
    for _ in 0..cfg.nprocs {
        builder = builder.host(HostSpec::ultra5()); // ranks 1.. + spare
    }
    let comp = builder.build();
    let dec = comp.hosts()[1];
    let spare = *comp.hosts().last().unwrap();
    let mut placement = vec![dec];
    for i in 0..cfg.nprocs - 1 {
        placement.push(comp.hosts()[2 + i]);
    }
    let handles = comp.launch_placed(
        &placement,
        mg_app_instrumented(cfg, Arc::clone(&results), Arc::clone(&timings)),
    );
    comp.migrate(0, spare).expect("migration commits");
    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
    let t = timings.lock().unwrap().pop().expect("one migration");
    // Restore happens on the Ultra 5 destination; its modeled cost is
    // what the initialized process slept.
    let restore = StateCostModel::PAPER.restore_seconds(t.state_bytes, HostSpec::ultra5().speed);
    (t, restore)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 3 } else { 10 };
    let cfg = MgConfig {
        min_migrate_iter: 2,
        state_pad: 7_500_000,
        ..MgConfig::default()
    };
    println!(
        "heterogeneous testbed: rank 0 on {} ({}x, 10 Mbit), target {} (1x, 100 Mbit); {} reps\n",
        HostSpec::dec5000().arch.label,
        HostSpec::dec5000().speed,
        HostSpec::ultra5().arch.label,
        reps
    );

    let mut b = Breakdown::new();
    let mut forwarded_total = 0usize;
    for _ in 0..reps {
        let (t, restore) = one_run(cfg);
        b.add("1 coordinate", t.coordinate_real_s);
        b.add("2 collect", t.collect_modeled_s);
        b.add("3 tx", t.tx_modeled_s);
        b.add("4 restore", restore);
        b.add(
            "5 migrate",
            t.coordinate_real_s + t.collect_modeled_s + t.tx_modeled_s + restore,
        );
        // The chunked pipeline overlaps rows 2-4; its makespan replaces
        // their serial sum (chunks/workers as configured at launch).
        b.add("6 migrate (pipelined)", t.pipelined_total_s());
        forwarded_total += t.rml_forwarded;
    }

    println!(
        "{}",
        b.to_table("Table 2 — modeled seconds (coordinate: measured)")
    );
    println!("paper Table 2 (seconds):");
    println!("  Coordinate   0.125");
    println!("  Collect      5.209");
    println!("  Tx           8.591");
    println!("  Restore      0.696");
    println!("  Migrate     14.621");
    println!(
        "\nmessages captured & forwarded across all reps: {forwarded_total} \
         (§6.3 observed 2 per run on the slow host)"
    );
    let j = b.to_json().to_string();
    std::fs::write("table2.json", &j).ok();
    println!("wrote table2.json");
    let _ = Tracer::disabled();

    let mean = |row: &str| b.mean(row).expect("every row recorded");
    let (tx, pipelined, serial) = (
        mean("3 tx"),
        mean("6 migrate (pipelined)"),
        mean("5 migrate"),
    );
    if !(tx < pipelined && pipelined < serial) {
        eprintln!(
            "FAIL: expected tx < pipelined < migrate, got {tx:.3} / {pipelined:.3} / {serial:.3} s"
        );
        std::process::exit(1);
    }
    println!("check: tx {tx:.3} < pipelined {pipelined:.3} < migrate {serial:.3} s");
}
