//! Architecture-verifier fixtures: miswire a miniature GPU and assert
//! that each rule of the elaboration-time lint catches its bug class,
//! then prove every shipped preset elaborates clean.

use attila::core::config::{GpuConfig, ShaderScheduling};
use attila::core::gpu::Gpu;
use attila::sim::{BoxNode, Horizon, PortDecl, Severity, SignalEdge, Topology};

/// A wire of the miniature GPU.
fn edge(
    name: &str,
    from: &str,
    to: &str,
    latency: u64,
    in_flight: usize,
    next_arrival: Option<u64>,
) -> SignalEdge {
    SignalEdge {
        info: attila::sim::SignalInfo {
            name: name.into(),
            from_box: from.into(),
            to_box: to.into(),
            bandwidth: 1,
            latency,
            slot_bytes: 16,
            ring_slots: 2,
        },
        in_flight,
        next_arrival,
    }
}

/// A correctly-wired two-box pipeline: `Front --x--> Back`.
fn clean_pair() -> Topology {
    Topology {
        boxes: vec![
            BoxNode::new("Front", Horizon::Busy, vec![PortDecl::output("x")]),
            BoxNode::new("Back", Horizon::Busy, vec![PortDecl::input("x")]),
        ],
        signals: vec![edge("x", "Front", "Back", 1, 0, None)],
        stat_registrations: Vec::new(),
    }
}

#[test]
fn clean_miniature_gpu_lints_clean() {
    let report = clean_pair().verify();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn dangling_declared_port_is_denied() {
    // Back declares an input `ghost` that was never wired.
    let mut t = clean_pair();
    t.boxes[1].ports.push(PortDecl::input("ghost"));
    let report = t.verify();
    assert!(!report.by_rule("dangling-signal").is_empty(), "{report}");
    assert!(report.deny_count() > 0, "{report}");
}

#[test]
fn undeclared_wired_signal_is_denied() {
    // A wire lands on Back but Back's interface says nothing about it:
    // data would arrive that no port ever reads.
    let mut t = clean_pair();
    t.boxes[0].ports.push(PortDecl::output("extra"));
    t.signals.push(edge("extra", "Front", "Back", 1, 0, None));
    let report = t.verify();
    let hits = report.by_rule("dangling-signal");
    assert!(!hits.is_empty(), "{report}");
    assert!(
        hits.iter().any(|f| f.message.contains("written-but-never-read")),
        "{report}"
    );
}

#[test]
fn signal_to_nonexistent_box_is_denied() {
    let mut t = clean_pair();
    t.signals.push(edge("void", "Front", "Nowhere", 1, 0, None));
    t.boxes[0].ports.push(PortDecl::output("void"));
    let report = t.verify();
    assert!(!report.by_rule("dangling-signal").is_empty(), "{report}");
}

#[test]
fn wrong_port_direction_is_denied() {
    // Back claims it *writes* x, but the binder wired it as the reader.
    let mut t = clean_pair();
    t.boxes[1].ports[0] = PortDecl::output("x");
    let report = t.verify();
    assert!(!report.by_rule("port-direction").is_empty(), "{report}");
}

#[test]
fn zero_latency_loop_is_denied() {
    // Front -> Back -> Front entirely over latency-0 wires: the result
    // would depend on which box clocks first.
    let t = Topology {
        boxes: vec![
            BoxNode::new(
                "Front",
                Horizon::Busy,
                vec![PortDecl::output("fwd"), PortDecl::input("bwd")],
            ),
            BoxNode::new(
                "Back",
                Horizon::Busy,
                vec![PortDecl::input("fwd"), PortDecl::output("bwd")],
            ),
        ],
        signals: vec![
            edge("fwd", "Front", "Back", 0, 0, None),
            edge("bwd", "Back", "Front", 0, 0, None),
        ],
        stat_registrations: Vec::new(),
    };
    let report = t.verify();
    let hits = report.by_rule("zero-latency-cycle");
    assert!(!hits.is_empty(), "{report}");
    assert_eq!(hits[0].severity, Severity::Deny);
    // The finding names the cycle path so it can actually be fixed.
    assert!(hits[0].message.contains("Front"), "{report}");

    // The same loop with one registered (latency >= 1) wire is legal.
    let mut ok = t;
    ok.signals[1].info.latency = 1;
    assert!(ok.verify().by_rule("zero-latency-cycle").is_empty());
}

#[test]
fn lying_idle_horizon_is_denied() {
    // Back says Idle while two objects are in flight on its input wire:
    // the idle-skip scheduler would sleep through their arrival.
    let mut t = clean_pair();
    t.boxes[1].horizon = Some(Horizon::Idle);
    t.signals[0].in_flight = 2;
    t.signals[0].next_arrival = Some(7);
    let report = t.verify();
    let hits = report.by_rule("horizon-contract");
    assert!(!hits.is_empty(), "{report}");
    assert_eq!(hits[0].severity, Severity::Deny);
}

#[test]
fn late_wakeup_horizon_is_denied() {
    // Back promises to sleep until cycle 100 but data lands at cycle 7.
    let mut t = clean_pair();
    t.boxes[1].horizon = Some(Horizon::IdleUntil(100));
    t.signals[0].in_flight = 1;
    t.signals[0].next_arrival = Some(7);
    let report = t.verify();
    assert!(!report.by_rule("horizon-contract").is_empty(), "{report}");

    // Waking *at or before* the arrival is fine.
    let mut ok = clean_pair();
    ok.boxes[1].horizon = Some(Horizon::IdleUntil(7));
    ok.signals[0].in_flight = 1;
    ok.signals[0].next_arrival = Some(7);
    assert!(ok.verify().by_rule("horizon-contract").is_empty());
}

#[test]
fn duplicate_stat_registration_warns() {
    let mut t = clean_pair();
    t.stat_registrations.push(("Front.quads".into(), 2));
    let report = t.verify();
    let hits = report.by_rule("duplicate-stat");
    assert!(!hits.is_empty(), "{report}");
    assert_eq!(hits[0].severity, Severity::Warn);
}

#[test]
fn bandwidth_expectation_mismatch_warns() {
    let mut t = clean_pair();
    t.boxes[0].ports[0] = PortDecl::output("x").with_bandwidth(4); // wire has 1
    let report = t.verify();
    assert!(!report.by_rule("bandwidth-mismatch").is_empty(), "{report}");
}

#[test]
fn every_preset_elaborates_clean() {
    let presets: Vec<(&str, GpuConfig)> = vec![
        ("baseline", GpuConfig::baseline()),
        ("non_unified_baseline", GpuConfig::non_unified_baseline()),
        ("case_study_window", GpuConfig::case_study(3, ShaderScheduling::ThreadWindow)),
        ("case_study_queue", GpuConfig::case_study(2, ShaderScheduling::InOrderQueue)),
        ("case_study_single_tu", GpuConfig::case_study(1, ShaderScheduling::ThreadWindow)),
        ("embedded", GpuConfig::embedded()),
        ("high_end", GpuConfig::high_end()),
    ];
    for (name, config) in presets {
        // `lint_on_start` defaults on, so construction itself already
        // asserts no deny findings; check warns too.
        let gpu = Gpu::new(config);
        let report = gpu.lint();
        assert!(report.is_clean(), "{name}: {report}");

        let summary = gpu.topology().summary();
        assert!(summary.box_count >= 10, "{name}: {summary}");
        assert_eq!(summary.signal_count, summary.signal_names.len(), "{name}");
    }
}
