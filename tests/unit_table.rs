//! The unit table, seen from outside: for every shipped preset the names
//! the units answer with are the names the wiring registered, no two rows
//! share one, and tracing reaches every data wire and no credit wire.

use std::collections::BTreeSet;

use attila::core::config::{GpuConfig, ShaderScheduling};
use attila::core::gpu::Gpu;
use attila::sim::SignalTrace;

fn presets() -> Vec<(&'static str, GpuConfig)> {
    vec![
        ("baseline", GpuConfig::baseline()),
        ("non_unified_baseline", GpuConfig::non_unified_baseline()),
        ("case_study_window", GpuConfig::case_study(3, ShaderScheduling::ThreadWindow)),
        ("case_study_queue", GpuConfig::case_study(2, ShaderScheduling::InOrderQueue)),
        ("case_study_single_tu", GpuConfig::case_study(1, ShaderScheduling::ThreadWindow)),
        ("embedded", GpuConfig::embedded()),
        ("high_end", GpuConfig::high_end()),
    ]
}

/// A unit is wired exactly when the binder holds a wake line under the
/// name it answers with: every port registers a credit wire back to its
/// writer. The DAC is the table's one wire-less row, and the memory
/// controller, clocked after the table, is the report's last row. A unit
/// whose wires were registered under another name turns wire-less here,
/// and a wire naming no unit fails the endpoint check.
#[test]
fn every_wired_unit_answers_with_the_name_its_wires_were_registered_under() {
    for (preset, config) in presets() {
        let gpu = Gpu::new(config);
        let rows = gpu.failure_report(None).boxes;
        let wireless: Vec<&str> = rows
            .iter()
            .map(|b| b.name.as_str())
            .filter(|name| gpu.binder().wake_line(name).is_none())
            .collect();
        assert_eq!(wireless, ["DAC", "MemoryController"], "{preset}");
        // Every endpoint a wire names is a unit of the table.
        let names: BTreeSet<&str> = rows.iter().map(|b| b.name.as_str()).collect();
        for signal in gpu.binder().iter() {
            assert!(names.contains(signal.from_box.as_str()), "{preset}: {}", signal.from_box);
            assert!(names.contains(signal.to_box.as_str()), "{preset}: {}", signal.to_box);
        }
    }
}

#[test]
fn failure_report_rows_are_unique_and_follow_the_table() {
    for (preset, config) in presets() {
        let gpu = Gpu::new(config);
        let rows: Vec<String> =
            gpu.failure_report(None).boxes.into_iter().map(|b| b.name).collect();
        let unique: BTreeSet<&String> = rows.iter().collect();
        assert_eq!(unique.len(), rows.len(), "{preset}: {rows:?}");
        assert_eq!(rows[0], "CommandProcessor", "{preset}");
        assert_eq!(rows[rows.len() - 2..], ["DAC", "MemoryController"], "{preset}");
    }
}

#[test]
fn tracing_reaches_every_data_wire_and_no_credit_wire() {
    for (preset, config) in presets() {
        let gpu = Gpu::new(config);
        let binder = gpu.binder();
        let data = binder.iter().filter(|s| !s.name.ends_with(".credits")).count();
        // Every `port()` registers one data and one credit wire.
        assert_eq!(data * 2, binder.len(), "{preset}");
        assert_eq!(binder.attach_trace(&SignalTrace::new_sink(0)), data, "{preset}");
    }
}

/// What `enable_signal_trace` records is what the binder-side attach
/// reaches: a traced run never names a credit wire, and names only
/// registered data wires or the controller's bank lanes.
#[test]
fn a_traced_run_records_data_wires_and_bank_lanes_only() {
    let trace = attila::gl::workloads::quickstart_trace(48, 48);
    let commands = attila::gl::compile(trace.width, trace.height, &trace.calls).expect("compiles");
    let mut config = GpuConfig::case_study(2, ShaderScheduling::ThreadWindow);
    config.display.width = trace.width;
    config.display.height = trace.height;
    let mut gpu = Gpu::new(config);
    let sink = gpu.enable_signal_trace(0);
    gpu.run_trace(&commands).expect("drains");
    let events = sink.borrow();
    assert!(!events.events().is_empty());
    for event in events.events() {
        let name = event.signal.as_str();
        assert!(!name.ends_with(".credits"), "{name}");
        assert!(name.starts_with("mem.ch") || gpu.binder().info(name).is_ok(), "{name}");
    }
}
