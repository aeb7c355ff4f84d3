//! Golden-file tests for the telemetry exporters: the Chrome trace of an
//! instrumented SGEMM run must be syntactically valid JSON (checked by the
//! workspace's own strict validator — no serde anywhere) with exactly the
//! track and event population the store predicts, and the NDJSON dump must
//! be one valid object per line.

use hammerblade::core::{CellDim, HbOps, Machine, MachineConfig};
use hammerblade::kernels::{by_name, run_on, BenchStats, SizeClass};
use hammerblade::obs::{chrome, json, ndjson, Keep, Sampler, SharedTelemetry};

/// A `dim` Cell with a `window`-cycle sampler attached, and its store.
fn sampled(dim: CellDim, window: u64) -> (Machine, SharedTelemetry) {
    let cfg = MachineConfig {
        cell_dim: dim,
        ..MachineConfig::baseline_16x8()
    };
    let store = SharedTelemetry::default();
    let mut machine = Machine::new(cfg.clone());
    machine.attach_observer(Box::new(Sampler::new(
        &cfg,
        window,
        Keep::All,
        store.clone(),
    )));
    (machine, store)
}

/// The suite's SGEMM on a sampled `dim` Cell; the machine is dropped, so
/// the store holds the final partial window too.
fn sampled_sgemm(dim: CellDim, window: u64) -> (BenchStats, SharedTelemetry) {
    let sgemm = by_name("SGEMM").expect("the registry has SGEMM");
    let (mut machine, store) = sampled(dim, window);
    let stats = run_on(&mut machine, sgemm.as_ref(), SizeClass::Tiny).expect("sgemm runs");
    (stats, store)
}

#[test]
fn chrome_trace_of_a_2x2_sgemm_matches_the_golden_structure() {
    let (stats, store) = sampled_sgemm(CellDim { x: 2, y: 2 }, 64);
    let t = store.lock().unwrap();

    let doc = chrome::to_string(&t);
    json::validate(&doc).unwrap_or_else(|e| panic!("invalid Chrome trace: {e}"));

    // Track population: 1 process + 4 tile threads.
    assert_eq!(t.tiles_per_cell(), 4);
    assert_eq!(chrome::metadata_event_count(&t), 5);
    assert_eq!(doc.matches("\"ph\":\"M\"").count(), 5);
    // Counter tracks: every window carries 4 tile-utilization points plus
    // the hbm and noc Cell tracks.
    let expected_counters = t.samples.len() * (4 + 2);
    assert_eq!(chrome::counter_event_count(&t), expected_counters);
    assert_eq!(doc.matches("\"ph\":\"C\"").count(), expected_counters);
    // Instants: SGEMM fences its result stores before `ecall`, so every
    // tile contributes at least one fence-retire event.
    let instants = chrome::instant_event_count(&t);
    assert_eq!(doc.matches("\"ph\":\"i\"").count(), instants);
    assert!(
        doc.matches("\"name\":\"fence retire\"").count() >= 4,
        "expected a fence retire per tile"
    );
    // Windows tile the run: the nominal window plus one possible tail.
    let full = stats.cycles / 64;
    let tail = u64::from(stats.cycles % 64 != 0);
    assert_eq!(t.samples.len() as u64, full + tail);
    assert!(doc.contains("\"name\":\"tile (1,1)\""), "all tiles tracked");
    assert!(doc.contains("\"displayTimeUnit\":\"ms\""));

    // The NDJSON dump: meta + (tiles + hbm + noc) per window + events.
    let nd = ndjson::to_string(&t);
    let lines: Vec<&str> = nd.lines().collect();
    assert_eq!(lines.len(), 1 + t.samples.len() * (4 + 2) + instants);
    for line in &lines {
        json::validate(line).unwrap_or_else(|e| panic!("bad NDJSON line: {e}\n{line}"));
    }
}

#[test]
fn full_cell_sgemm_trace_stays_valid() {
    // The acceptance-criteria shape: SGEMM on the paper's 16x8 Cell.
    let (_, store) = sampled_sgemm(CellDim { x: 16, y: 8 }, 1000);
    let t = store.lock().unwrap();
    let doc = chrome::to_string(&t);
    json::validate(&doc).unwrap_or_else(|e| panic!("invalid Chrome trace: {e}"));
    assert_eq!(t.tiles_per_cell(), 128);
    assert_eq!(
        doc.matches("\"ph\":\"M\"").count(),
        chrome::metadata_event_count(&t)
    );
    assert_eq!(
        doc.matches("\"ph\":\"C\"").count(),
        chrome::counter_event_count(&t)
    );
}

#[test]
fn mark_csr_stores_become_instant_events() {
    // A hand-assembled kernel that brackets its (empty) phases with MARK
    // stores; the trace must carry them as named instants in order.
    let (mut machine, store) = sampled(CellDim { x: 2, y: 1 }, 32);
    let program = {
        use hammerblade::asm::Assembler;
        use hammerblade::isa::Gpr;
        let mut a = Assembler::new();
        a.mark(1, Gpr::T0, Gpr::T1);
        a.mark(2, Gpr::T0, Gpr::T1);
        a.ecall();
        std::sync::Arc::new(a.assemble(0).expect("marks assemble"))
    };
    machine.launch(0, &program, &[]);
    machine.run(10_000).expect("marks retire");
    drop(machine);
    let t = store.lock().unwrap();
    let marks: Vec<u32> = t
        .events
        .iter()
        .filter_map(|e| match e.kind {
            hammerblade::core::ObsKind::Mark(v) => Some(v),
            _ => None,
        })
        .collect();
    // Both tiles run the program: each retires mark 1 then mark 2.
    assert_eq!(marks.iter().filter(|&&v| v == 1).count(), 2);
    assert_eq!(marks.iter().filter(|&&v| v == 2).count(), 2);
    let doc = chrome::to_string(&t);
    assert!(doc.contains("\"name\":\"mark 1\""), "{doc}");
    assert!(doc.contains("\"name\":\"mark 2\""), "{doc}");
}
