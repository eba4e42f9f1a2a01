//! Elaboration-time architecture verifier.
//!
//! ATTILA's boxes-and-signals model makes the whole microarchitecture a
//! *declared* graph of latency/bandwidth-checked wires. That graph is
//! checkable: after the simulator wires itself up but before cycle 0 the
//! full topology can be extracted from the [`SignalBinder`](crate::SignalBinder)
//! and diffed against what each box *says* its interface is. Miswirings
//! that would otherwise surface as silent cycle drift, data-loss aborts
//! deep into a trace, or watchdog hangs become structured findings at
//! elaboration time.
//!
//! The pieces:
//!
//! * [`PortDecl`] — one port a box declares as part of its interface
//!   contract (name, direction, expected bandwidth, whether it is
//!   flow-controlled and therefore owns a companion `.credits` wire).
//! * [`BoxNode`] — a box in the topology: its name, its declared ports and
//!   its current event [`Horizon`].
//! * [`SignalEdge`] — a registered wire plus its live occupancy.
//! * [`Topology`] — the assembled graph; [`Topology::verify`] runs the
//!   rule catalog and returns a [`LintReport`];
//!   [`Topology::summary`] condenses the graph for hang forensics.
//!
//! # Rule catalog
//!
//! | Rule | Severity | Fires when |
//! |---|---|---|
//! | `dangling-signal` | deny | a wire's endpoint box does not exist, a declared port was never wired, or a wired signal is not declared by its endpoint box |
//! | `port-direction` | deny | a box declares a port as input/output but the binder registered the opposite endpoint |
//! | `zero-latency-cycle` | deny | boxes form a cycle entirely over latency-0 wires (results would depend on box clocking order) |
//! | `bandwidth-mismatch` | deny/warn | two boxes declare themselves writer (or reader) of one wire (deny), or a declared bandwidth differs from the registered one (warn) |
//! | `duplicate-stat` | warn | one statistic name was registered from more than one call site |
//! | `horizon-contract` | deny | a box reports [`Horizon::Idle`] while an input wire has data in flight, or a wake-up cycle later than an input's next arrival |
//!
//! Deny findings are architecture bugs — the simulation would be wrong or
//! would abort mid-run; warn findings are suspicious but may be
//! intentional.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::binder::{SignalDirection, SignalInfo};
use crate::horizon::Horizon;
use crate::Cycle;

/// One port a box declares as part of its interface contract.
///
/// A box's declared ports are diffed against the binder's registered
/// signals by [`Topology::verify`]: every declared port must be wired with
/// the declared direction, and every wire touching the box must be
/// declared. Flow-controlled ports implicitly declare the companion
/// `<signal>.credits` return wire in the opposite direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortDecl {
    /// Name of the signal this port attaches to.
    pub signal: String,
    /// Direction relative to the declaring box.
    pub direction: SignalDirection,
    /// Expected bandwidth in objects/cycle, when the box cares.
    pub bandwidth: Option<usize>,
    /// Whether the port is credit flow-controlled: a `<signal>.credits`
    /// wire runs in the opposite direction and belongs to this port.
    pub flow_controlled: bool,
}

impl PortDecl {
    /// Declares an input port (the box reads from `signal`).
    pub fn input(signal: impl Into<String>) -> Self {
        PortDecl {
            signal: signal.into(),
            direction: SignalDirection::Input,
            bandwidth: None,
            flow_controlled: false,
        }
    }

    /// Declares an output port (the box writes into `signal`).
    pub fn output(signal: impl Into<String>) -> Self {
        PortDecl {
            signal: signal.into(),
            direction: SignalDirection::Output,
            bandwidth: None,
            flow_controlled: false,
        }
    }

    /// Records the bandwidth the box expects the wire to have.
    #[must_use]
    pub fn with_bandwidth(mut self, bandwidth: usize) -> Self {
        self.bandwidth = Some(bandwidth);
        self
    }

    /// Marks the port as credit flow-controlled (owning a `.credits`
    /// companion wire in the opposite direction).
    #[must_use]
    pub fn with_flow_control(mut self) -> Self {
        self.flow_controlled = true;
        self
    }
}

/// A box in the extracted topology.
#[derive(Debug, Clone)]
pub struct BoxNode {
    /// The box's name as used in signal endpoint registrations.
    pub name: String,
    /// The box's current event horizon, when it reports one. `None` for
    /// passive nodes (e.g. a DAC modelled inside the top level).
    pub horizon: Option<Horizon>,
    /// The ports the box declares. A box declaring *no* ports opts out of
    /// interface diffing (its wires are only endpoint-checked).
    pub ports: Vec<PortDecl>,
}

impl BoxNode {
    /// A node that declares its interface and reports a horizon.
    pub fn new(name: impl Into<String>, horizon: Horizon, ports: Vec<PortDecl>) -> Self {
        BoxNode { name: name.into(), horizon: Some(horizon), ports }
    }

    /// A passive node: it exists as a signal endpoint but declares no
    /// ports and reports no horizon.
    pub fn passive(name: impl Into<String>) -> Self {
        BoxNode { name: name.into(), horizon: None, ports: Vec::new() }
    }
}

/// A registered wire plus its live occupancy — one edge of the topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalEdge {
    /// The binder's registered metadata.
    pub info: SignalInfo,
    /// Objects currently travelling through the wire.
    pub in_flight: usize,
    /// Earliest delivery cycle among in-flight objects, if any.
    pub next_arrival: Option<Cycle>,
}

/// Severity of a lint finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// An architecture bug: the simulation would be wrong or abort.
    Deny,
    /// Suspicious but possibly intentional.
    Warn,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Deny => write!(f, "deny"),
            Severity::Warn => write!(f, "warn"),
        }
    }
}

/// One finding produced by the architecture verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Rule identifier (e.g. `dangling-signal`).
    pub rule: &'static str,
    /// Whether the finding denies elaboration or merely warns.
    pub severity: Severity,
    /// The box, signal or statistic the finding is about.
    pub subject: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}: {}", self.severity, self.rule, self.subject, self.message)
    }
}

/// The structured result of [`Topology::verify`].
///
/// Findings are sorted deterministically (severity, rule, subject) so the
/// report is stable run to run and diffable in CI logs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// All findings, denies first.
    pub findings: Vec<LintFinding>,
}

impl LintReport {
    /// Whether the report has no findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of deny-severity findings.
    pub fn deny_count(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Deny).count()
    }

    /// Number of warn-severity findings.
    pub fn warn_count(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Warn).count()
    }

    /// The findings produced by one rule, in report order.
    pub fn by_rule(&self, rule: &str) -> Vec<&LintFinding> {
        self.findings.iter().filter(|f| f.rule == rule).collect()
    }

    fn push(&mut self, rule: &'static str, severity: Severity, subject: String, message: String) {
        self.findings.push(LintFinding { rule, severity, subject, message });
    }

    fn finish(mut self) -> Self {
        self.findings.sort_by(|a, b| {
            (a.severity, a.rule, &a.subject, &a.message)
                .cmp(&(b.severity, b.rule, &b.subject, &b.message))
        });
        self
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return writeln!(f, "architecture lint: clean");
        }
        writeln!(
            f,
            "architecture lint: {} deny, {} warn",
            self.deny_count(),
            self.warn_count()
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// Condensed topology statistics, embedded in hang forensics so a
/// watchdog dump shows what was *wired*, not just what was busy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologySummary {
    /// Number of boxes in the design.
    pub box_count: usize,
    /// Number of registered signals.
    pub signal_count: usize,
    /// Every signal name, sorted.
    pub signal_names: Vec<String>,
}

impl fmt::Display for TopologySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "topology: {} boxes, {} signals", self.box_count, self.signal_count)?;
        for chunk in self.signal_names.chunks(4) {
            write!(f, "   ")?;
            for name in chunk {
                write!(f, " {name}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The extracted design graph: boxes, wires and statistic registrations.
///
/// Built by the top level after wiring (in the GPU model,
/// `Gpu::topology()`) and verified before cycle 0.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Every box, with its declared interface and current horizon.
    pub boxes: Vec<BoxNode>,
    /// Every registered signal, with live occupancy.
    pub signals: Vec<SignalEdge>,
    /// `(name, times_registered)` for every statistic handed out by name.
    pub stat_registrations: Vec<(String, usize)>,
}

/// One fully-expanded port declaration: flow-controlled ports contribute
/// their implicit `.credits` companion here.
struct ExpandedDecl {
    box_name: String,
    signal: String,
    direction: SignalDirection,
    bandwidth: Option<usize>,
}

impl Topology {
    /// Condenses the graph for inclusion in failure reports.
    pub fn summary(&self) -> TopologySummary {
        let mut names: Vec<String> = self.signals.iter().map(|e| e.info.name.clone()).collect();
        names.sort();
        TopologySummary {
            box_count: self.boxes.len(),
            signal_count: self.signals.len(),
            signal_names: names,
        }
    }

    /// Runs the full rule catalog (see the module docs) over the graph.
    pub fn verify(&self) -> LintReport {
        let mut report = LintReport::default();
        self.check_endpoints(&mut report);
        self.check_declarations(&mut report);
        self.check_zero_latency_cycles(&mut report);
        self.check_duplicate_stats(&mut report);
        self.check_horizon_contract(&mut report);
        report.finish()
    }

    /// Every declared port, with flow-controlled ports expanded into their
    /// data wire plus the reversed `.credits` companion.
    fn expanded_decls(&self) -> Vec<ExpandedDecl> {
        let mut out = Vec::new();
        for node in &self.boxes {
            for port in &node.ports {
                out.push(ExpandedDecl {
                    box_name: node.name.clone(),
                    signal: port.signal.clone(),
                    direction: port.direction,
                    bandwidth: port.bandwidth,
                });
                if port.flow_controlled {
                    let reversed = match port.direction {
                        SignalDirection::Input => SignalDirection::Output,
                        SignalDirection::Output => SignalDirection::Input,
                    };
                    out.push(ExpandedDecl {
                        box_name: node.name.clone(),
                        signal: format!("{}.credits", port.signal),
                        direction: reversed,
                        bandwidth: None,
                    });
                }
            }
        }
        out
    }

    /// `dangling-signal` (endpoint half): every wire must start and end at
    /// a box that exists in the design.
    fn check_endpoints(&self, report: &mut LintReport) {
        let box_names: BTreeSet<&str> = self.boxes.iter().map(|b| b.name.as_str()).collect();
        for edge in &self.signals {
            for (endpoint, role) in
                [(&edge.info.from_box, "driven"), (&edge.info.to_box, "read")]
            {
                if !box_names.contains(endpoint.as_str()) {
                    report.push(
                        "dangling-signal",
                        Severity::Deny,
                        edge.info.name.clone(),
                        format!("{role} by `{endpoint}`, which is not a box in the design"),
                    );
                }
            }
        }
    }

    /// `dangling-signal` (declaration half), `port-direction` and
    /// `bandwidth-mismatch`: diff declared interfaces against the wiring.
    fn check_declarations(&self, report: &mut LintReport) {
        let decls = self.expanded_decls();
        let edges: BTreeMap<&str, &SignalEdge> =
            self.signals.iter().map(|e| (e.info.name.as_str(), e)).collect();
        // Boxes that declare at least one port opt into full interface
        // diffing; passive nodes are only endpoint-checked above.
        let declaring: BTreeSet<&str> = self
            .boxes
            .iter()
            .filter(|b| !b.ports.is_empty())
            .map(|b| b.name.as_str())
            .collect();

        // Declared but not wired, or wired with the wrong endpoints.
        for decl in &decls {
            let Some(edge) = edges.get(decl.signal.as_str()) else {
                report.push(
                    "dangling-signal",
                    Severity::Deny,
                    decl.signal.clone(),
                    format!(
                        "declared as {} port of `{}` but never registered in the binder",
                        decl.direction, decl.box_name
                    ),
                );
                continue;
            };
            let actual_endpoint = match decl.direction {
                SignalDirection::Output => &edge.info.from_box,
                SignalDirection::Input => &edge.info.to_box,
            };
            if *actual_endpoint != decl.box_name {
                report.push(
                    "port-direction",
                    Severity::Deny,
                    decl.signal.clone(),
                    format!(
                        "`{}` declares it as {} but the binder registered `{}` at that end",
                        decl.box_name, decl.direction, actual_endpoint
                    ),
                );
            }
            if let Some(expected) = decl.bandwidth {
                if expected != edge.info.bandwidth {
                    report.push(
                        "bandwidth-mismatch",
                        Severity::Warn,
                        decl.signal.clone(),
                        format!(
                            "`{}` expects bandwidth {} but the wire carries {}",
                            decl.box_name, expected, edge.info.bandwidth
                        ),
                    );
                }
            }
        }

        // Two writers (or two readers) claiming one wire.
        let mut writers: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut readers: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for decl in &decls {
            let side = match decl.direction {
                SignalDirection::Output => &mut writers,
                SignalDirection::Input => &mut readers,
            };
            side.entry(decl.signal.as_str()).or_default().push(decl.box_name.as_str());
        }
        for (map, role) in [(&writers, "writer"), (&readers, "reader")] {
            for (signal, boxes) in map {
                let unique: BTreeSet<&&str> = boxes.iter().collect();
                if unique.len() > 1 {
                    let list: Vec<&str> = unique.iter().map(|s| **s).collect();
                    report.push(
                        "bandwidth-mismatch",
                        Severity::Deny,
                        (*signal).to_string(),
                        format!("{} boxes declare themselves {role}: {}", list.len(), list.join(", ")),
                    );
                }
            }
        }

        // Wired but not declared: a declaring box must acknowledge every
        // wire that touches it. A missing reader declaration is the
        // written-but-never-read case; a missing writer declaration is
        // read-but-never-driven.
        for edge in &self.signals {
            let name = edge.info.name.as_str();
            if declaring.contains(edge.info.from_box.as_str())
                && !writers.get(name).is_some_and(|w| w.iter().any(|b| *b == edge.info.from_box))
            {
                report.push(
                    "dangling-signal",
                    Severity::Deny,
                    edge.info.name.clone(),
                    format!(
                        "registered with writer `{}` but that box does not declare driving it \
                         (read-but-never-driven)",
                        edge.info.from_box
                    ),
                );
            }
            if declaring.contains(edge.info.to_box.as_str())
                && !readers.get(name).is_some_and(|r| r.iter().any(|b| *b == edge.info.to_box))
            {
                report.push(
                    "dangling-signal",
                    Severity::Deny,
                    edge.info.name.clone(),
                    format!(
                        "registered with reader `{}` but that box does not declare reading it \
                         (written-but-never-read)",
                        edge.info.to_box
                    ),
                );
            }
        }
    }

    /// `zero-latency-cycle`: a cycle of boxes connected entirely by
    /// latency-0 wires means results depend on box clocking order — the
    /// one thing the signal model exists to prevent.
    fn check_zero_latency_cycles(&self, report: &mut LintReport) {
        let mut adjacency: BTreeMap<&str, Vec<(&str, &str)>> = BTreeMap::new();
        for edge in &self.signals {
            if edge.info.latency == 0 {
                adjacency
                    .entry(edge.info.from_box.as_str())
                    .or_default()
                    .push((edge.info.to_box.as_str(), edge.info.name.as_str()));
            }
        }
        // Iterative DFS with tri-colouring; the first back edge found in
        // each component is reported with the full cycle path.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour: BTreeMap<&str, Colour> =
            adjacency.keys().map(|b| (*b, Colour::White)).collect();
        for targets in adjacency.values() {
            for (to, _) in targets {
                colour.entry(to).or_insert(Colour::White);
            }
        }
        let roots: Vec<&str> = colour.keys().copied().collect();
        for root in roots {
            if colour[root] != Colour::White {
                continue;
            }
            // Path of (box, signal-into-next) pairs currently on the stack.
            let mut path: Vec<(&str, usize)> = vec![(root, 0)];
            colour.insert(root, Colour::Grey);
            while let Some(&mut (node, ref mut next)) = path.last_mut() {
                let targets = adjacency.get(node).map(Vec::as_slice).unwrap_or(&[]);
                if *next >= targets.len() {
                    colour.insert(node, Colour::Black);
                    path.pop();
                    continue;
                }
                let (to, via) = targets[*next];
                *next += 1;
                match colour[to] {
                    Colour::White => {
                        colour.insert(to, Colour::Grey);
                        path.push((to, 0));
                    }
                    Colour::Grey => {
                        let start = path.iter().position(|(b, _)| *b == to).unwrap_or(0);
                        let mut cycle: Vec<&str> =
                            path[start..].iter().map(|(b, _)| *b).collect();
                        cycle.push(to);
                        report.push(
                            "zero-latency-cycle",
                            Severity::Deny,
                            to.to_string(),
                            format!(
                                "combinational loop over latency-0 wires: {} (closing via `{via}`)",
                                cycle.join(" -> ")
                            ),
                        );
                    }
                    Colour::Black => {}
                }
            }
        }
    }

    /// `duplicate-stat`: a statistic registered from two call sites
    /// silently merges two units' numbers.
    fn check_duplicate_stats(&self, report: &mut LintReport) {
        for (name, count) in &self.stat_registrations {
            if *count > 1 {
                report.push(
                    "duplicate-stat",
                    Severity::Warn,
                    name.clone(),
                    format!("registered {count} times; two call sites share one counter"),
                );
            }
        }
    }

    /// `horizon-contract`: a box may not report an event horizon that
    /// would let an idle-aware scheduler jump past data already heading
    /// for one of its inputs.
    fn check_horizon_contract(&self, report: &mut LintReport) {
        for node in &self.boxes {
            let Some(horizon) = node.horizon else { continue };
            for edge in self.signals.iter().filter(|e| e.info.to_box == node.name) {
                match horizon {
                    Horizon::Idle if edge.in_flight > 0 => {
                        report.push(
                            "horizon-contract",
                            Severity::Deny,
                            node.name.clone(),
                            format!(
                                "reports Idle while `{}` has {} object(s) in flight",
                                edge.info.name, edge.in_flight
                            ),
                        );
                    }
                    Horizon::IdleUntil(wake) => {
                        if let Some(arrival) = edge.next_arrival {
                            if arrival < wake {
                                report.push(
                                    "horizon-contract",
                                    Severity::Deny,
                                    node.name.clone(),
                                    format!(
                                        "reports IdleUntil({wake}) but `{}` delivers at cycle \
                                         {arrival}",
                                        edge.info.name
                                    ),
                                );
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(name: &str, from: &str, to: &str, bandwidth: usize, latency: Cycle) -> SignalEdge {
        SignalEdge {
            info: SignalInfo {
                name: name.into(),
                from_box: from.into(),
                to_box: to.into(),
                bandwidth,
                latency,
                slot_bytes: 16,
                ring_slots: 2,
            },
            in_flight: 0,
            next_arrival: None,
        }
    }

    fn clean_pair() -> Topology {
        Topology {
            boxes: vec![
                BoxNode::new("A", Horizon::Idle, vec![PortDecl::output("a->b")]),
                BoxNode::new("B", Horizon::Idle, vec![PortDecl::input("a->b")]),
            ],
            signals: vec![edge("a->b", "A", "B", 1, 3)],
            stat_registrations: vec![],
        }
    }

    #[test]
    fn clean_topology_produces_no_findings() {
        let report = clean_pair().verify();
        assert!(report.is_clean(), "unexpected findings: {report}");
    }

    #[test]
    fn unknown_endpoint_is_dangling() {
        let mut t = clean_pair();
        t.signals.push(edge("b->ghost", "B", "Ghost", 1, 1));
        t.boxes[1].ports.push(PortDecl::output("b->ghost"));
        let report = t.verify();
        let hits = report.by_rule("dangling-signal");
        assert_eq!(hits.len(), 1, "{report}");
        assert_eq!(hits[0].subject, "b->ghost");
        assert!(hits[0].message.contains("Ghost"));
    }

    #[test]
    fn declared_but_unwired_port_is_dangling() {
        let mut t = clean_pair();
        t.boxes[0].ports.push(PortDecl::output("a->nowhere"));
        let report = t.verify();
        let hits = report.by_rule("dangling-signal");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].subject, "a->nowhere");
        assert!(hits[0].message.contains("never registered"));
    }

    #[test]
    fn wired_but_undeclared_reader_is_written_but_never_read() {
        let mut t = clean_pair();
        t.signals.push(edge("a->b.extra", "A", "B", 1, 1));
        t.boxes[0].ports.push(PortDecl::output("a->b.extra"));
        // B declares ports but not this one.
        let report = t.verify();
        let hits = report.by_rule("dangling-signal");
        assert_eq!(hits.len(), 1, "{report}");
        assert!(hits[0].message.contains("written-but-never-read"));
    }

    #[test]
    fn direction_flip_is_detected() {
        let mut t = clean_pair();
        // B claims to *drive* the wire it actually reads.
        t.boxes[1].ports[0] = PortDecl::output("a->b");
        let report = t.verify();
        assert_eq!(report.by_rule("port-direction").len(), 1, "{report}");
        // ...and the wire now lacks a declared reader.
        assert_eq!(report.by_rule("dangling-signal").len(), 1);
        // ...and two boxes claim the writer end.
        assert_eq!(report.by_rule("bandwidth-mismatch").len(), 1);
    }

    #[test]
    fn bandwidth_expectation_mismatch_warns() {
        let mut t = clean_pair();
        t.boxes[1].ports[0] = PortDecl::input("a->b").with_bandwidth(4);
        let report = t.verify();
        let hits = report.by_rule("bandwidth-mismatch");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Warn);
        assert!(hits[0].message.contains('4') && hits[0].message.contains('1'));
    }

    #[test]
    fn flow_controlled_ports_expand_credit_companions() {
        let mut t = clean_pair();
        t.boxes[0].ports[0] = PortDecl::output("a->b").with_flow_control();
        t.boxes[1].ports[0] = PortDecl::input("a->b").with_flow_control();
        // Without the credit wire registered, both expansions dangle.
        let report = t.verify();
        assert_eq!(report.by_rule("dangling-signal").len(), 2, "{report}");
        // Register the reversed credit wire and the design is clean.
        t.signals.push(edge("a->b.credits", "B", "A", 1, 1));
        assert!(t.verify().is_clean());
    }

    #[test]
    fn zero_latency_cycle_is_detected_with_path() {
        let t = Topology {
            boxes: vec![
                BoxNode::new(
                    "A",
                    Horizon::Idle,
                    vec![PortDecl::output("a->b"), PortDecl::input("b->a")],
                ),
                BoxNode::new(
                    "B",
                    Horizon::Idle,
                    vec![PortDecl::input("a->b"), PortDecl::output("b->a")],
                ),
            ],
            signals: vec![edge("a->b", "A", "B", 1, 0), edge("b->a", "B", "A", 1, 0)],
            stat_registrations: vec![],
        };
        let report = t.verify();
        let hits = report.by_rule("zero-latency-cycle");
        assert_eq!(hits.len(), 1, "{report}");
        assert!(hits[0].message.contains("A") && hits[0].message.contains("B"));
    }

    #[test]
    fn nonzero_latency_feedback_loop_is_fine() {
        let t = Topology {
            boxes: vec![
                BoxNode::new(
                    "A",
                    Horizon::Idle,
                    vec![PortDecl::output("a->b"), PortDecl::input("b->a")],
                ),
                BoxNode::new(
                    "B",
                    Horizon::Idle,
                    vec![PortDecl::input("a->b"), PortDecl::output("b->a")],
                ),
            ],
            signals: vec![edge("a->b", "A", "B", 1, 0), edge("b->a", "B", "A", 1, 1)],
            stat_registrations: vec![],
        };
        assert!(t.verify().is_clean());
    }

    #[test]
    fn duplicate_stat_warns() {
        let mut t = clean_pair();
        t.stat_registrations = vec![("fragments".into(), 1), ("triangles".into(), 3)];
        let report = t.verify();
        let hits = report.by_rule("duplicate-stat");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].subject, "triangles");
        assert_eq!(hits[0].severity, Severity::Warn);
    }

    #[test]
    fn idle_with_in_flight_input_violates_horizon_contract() {
        let mut t = clean_pair();
        t.signals[0].in_flight = 2;
        t.signals[0].next_arrival = Some(7);
        let report = t.verify();
        let hits = report.by_rule("horizon-contract");
        assert_eq!(hits.len(), 1, "{report}");
        assert_eq!(hits[0].subject, "B");
        assert!(hits[0].message.contains("in flight"));
    }

    #[test]
    fn idle_until_past_an_arrival_violates_horizon_contract() {
        let mut t = clean_pair();
        t.boxes[1].horizon = Some(Horizon::IdleUntil(10));
        t.signals[0].in_flight = 1;
        t.signals[0].next_arrival = Some(7);
        let report = t.verify();
        let hits = report.by_rule("horizon-contract");
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("IdleUntil(10)"));
        assert!(hits[0].message.contains('7'));
    }

    #[test]
    fn busy_box_never_violates_horizon_contract() {
        let mut t = clean_pair();
        t.boxes[1].horizon = Some(Horizon::Busy);
        t.signals[0].in_flight = 5;
        t.signals[0].next_arrival = Some(1);
        assert!(t.verify().is_clean());
    }

    #[test]
    fn report_sorts_denies_before_warnings_and_renders() {
        let mut t = clean_pair();
        t.stat_registrations = vec![("dup".into(), 2)];
        t.boxes[0].ports.push(PortDecl::output("a->nowhere"));
        let report = t.verify();
        assert_eq!(report.findings[0].severity, Severity::Deny);
        assert_eq!(report.findings.last().unwrap().severity, Severity::Warn);
        let rendered = report.to_string();
        assert!(rendered.contains("1 deny, 1 warn"));
        assert!(rendered.contains("dangling-signal"));
        assert!(rendered.contains("duplicate-stat"));
    }

    #[test]
    fn summary_counts_and_sorts() {
        let mut t = clean_pair();
        t.signals.push(edge("0first", "A", "B", 1, 1));
        t.boxes[0].ports.push(PortDecl::output("0first"));
        t.boxes[1].ports.push(PortDecl::input("0first"));
        let s = t.summary();
        assert_eq!(s.box_count, 2);
        assert_eq!(s.signal_count, 2);
        assert_eq!(s.signal_names, vec!["0first".to_string(), "a->b".to_string()]);
        assert!(s.to_string().contains("2 boxes, 2 signals"));
    }

    #[test]
    fn passive_nodes_skip_interface_diffing() {
        let t = Topology {
            boxes: vec![
                BoxNode::new("A", Horizon::Idle, vec![PortDecl::output("a->dac")]),
                BoxNode::passive("DAC"),
            ],
            signals: vec![edge("a->dac", "A", "DAC", 1, 2)],
            stat_registrations: vec![],
        };
        assert!(t.verify().is_clean());
    }
}
