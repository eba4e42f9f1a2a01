//! Chaos tests: injected faults must surface as the matching
//! [`SimError`] variant and name the offending signal and cycle in the
//! failure report.

use attila::core::config::GpuConfig;
use attila::core::gpu::{Gpu, GpuError};
use attila::gl::{compile, workloads};
use attila::sim::{FaultInjector, FaultPlan, FaultWrite, SimError};

const W: u32 = 64;
const H: u32 = 64;

/// The single-triangle quickstart scene: every front-end wire carries a
/// handful of objects, every back-end wire carries thousands of quads.
fn commands() -> Vec<attila::core::commands::GpuCommand> {
    let trace = workloads::quickstart_trace(W, H);
    compile(trace.width, trace.height, &trace.calls).expect("compiles")
}

fn gpu(injector: &mut FaultInjector) -> Gpu {
    let mut config = GpuConfig::baseline();
    config.display.width = W;
    config.display.height = H;
    let mut gpu = Gpu::new(config);
    gpu.max_cycles = 2_000_000;
    gpu.arm_faults(injector).expect("plans name real signals");
    gpu
}

/// The wire every quickstart vertex crosses; bandwidth 1, so a
/// double-latched write always over-subscribes it.
const VERTEX_WIRE: &str = "Streamer->PA.vertices";

#[test]
fn duplicate_write_surfaces_as_bandwidth_exceeded() {
    let mut inj = FaultInjector::new(1).with(FaultPlan::Duplicate {
        signal: VERTEX_WIRE.into(),
        write: FaultWrite::Nth(1),
    });
    let mut gpu = gpu(&mut inj);
    let err = gpu.run_trace(&commands()).expect_err("fault must abort the run");
    let GpuError::Sim { error, report } = err else {
        panic!("expected a Sim error, got {err:?}");
    };
    assert!(
        matches!(&error, SimError::BandwidthExceeded { signal, .. } if signal == VERTEX_WIRE),
        "wrong variant: {error:?}"
    );
    assert_eq!(error.signal(), Some(VERTEX_WIRE));
    assert!(error.cycle().is_some(), "bandwidth faults carry the offending cycle");
    // The post-mortem names the wire and carries the same error.
    assert_eq!(report.error.as_ref(), Some(&error));
    assert!(report.to_string().contains(VERTEX_WIRE), "{report}");
    assert_eq!(inj.faults_delivered(), 1);
}

#[test]
fn positive_delay_surfaces_as_data_lost() {
    // Vertex 0 arrives 500 cycles late; vertices 1 and 2 queue up behind
    // it on the wire and fall off unread when it finally clears.
    let mut inj = FaultInjector::new(2).with(FaultPlan::Delay {
        signal: VERTEX_WIRE.into(),
        write: FaultWrite::Nth(0),
        delay: 500,
    });
    let mut gpu = gpu(&mut inj);
    let err = gpu.run_trace(&commands()).expect_err("fault must abort the run");
    let GpuError::Sim { error, .. } = err else {
        panic!("expected a Sim error, got {err:?}");
    };
    assert!(
        matches!(&error, SimError::DataLost { signal, .. } if signal == VERTEX_WIRE),
        "wrong variant: {error:?}"
    );
    assert!(error.cycle().expect("cycle known") >= 500, "loss detected after the delay");
}

#[test]
fn negative_delay_surfaces_as_time_travel() {
    let mut inj = FaultInjector::new(3).with(FaultPlan::Delay {
        signal: VERTEX_WIRE.into(),
        write: FaultWrite::Nth(2),
        delay: -1_000_000,
    });
    let mut gpu = gpu(&mut inj);
    let err = gpu.run_trace(&commands()).expect_err("fault must abort the run");
    let GpuError::Sim { error, report } = err else {
        panic!("expected a Sim error, got {err:?}");
    };
    assert!(
        matches!(&error, SimError::TimeTravel { signal, .. } if signal == VERTEX_WIRE),
        "wrong variant: {error:?}"
    );
    assert_eq!(error.signal(), Some(VERTEX_WIRE));
    assert!(report.to_string().contains("written at cycle"), "{report}");
}

#[test]
fn memory_stall_hangs_the_pipeline_into_the_watchdog() {
    // Freeze the memory controller forever (in practice: past the
    // watchdog). Nothing crashes — the pipeline simply stops draining,
    // and the watchdog report must say who is stuck.
    let mut inj = FaultInjector::new(4)
        .with(FaultPlan::StallMemory { at: 1_000, cycles: 100_000_000 });
    let mut gpu = gpu(&mut inj);
    gpu.max_cycles = 100_000;
    let err = gpu.run_trace(&commands()).expect_err("a frozen controller must hang");
    let GpuError::Watchdog { limit, report } = err else {
        panic!("expected a watchdog expiry, got {err:?}");
    };
    assert_eq!(limit, 100_000);
    assert!(report.error.is_none(), "a hang is not a detected fault");
    assert!(report.busy_boxes().count() > 0, "someone must be holding work:\n{report}");
    assert!(report.to_string().contains("watchdog"), "{report}");
}

#[test]
fn bit_flip_corrupts_the_frame_but_completes() {
    let clean = {
        let mut config = GpuConfig::baseline();
        config.display.width = W;
        config.display.height = H;
        let mut gpu = Gpu::new(config);
        gpu.max_cycles = 2_000_000;
        gpu.run_trace(&commands()).expect("clean run drains")
    };

    // Reply 12 is one of the texture-cache fills (replies 0-8 are vertex
    // fetches, consumed functionally before the reply returns): the flip
    // lands in texture memory the sampler reads for later quads.
    let mut inj = FaultInjector::new(5).with(FaultPlan::FlipBits { reply: 12, bit: 7 });
    let mut gpu = gpu(&mut inj);
    let result = gpu.run_trace(&commands()).expect("a silent DRAM error is not a SimError");
    assert_eq!(inj.faults_delivered(), 1, "the flip must have hit a reply");
    assert_eq!(result.framebuffers.len(), clean.framebuffers.len());
    assert_ne!(
        result.framebuffers[0].rgba, clean.framebuffers[0].rgba,
        "a flipped texture bit must show up in the rendered frame"
    );
}
