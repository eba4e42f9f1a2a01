//! Signal Trace Visualizer demo: attach a trace sink to hand-built
//! signals, run a little producer/consumer pipeline, and render the
//! signals × cycles activity grid the STV tool shows.
//!
//! ```sh
//! cargo run --release --example signal_trace
//! ```

use attila::sim::{Signal, SignalTrace};

fn main() {
    // A three-stage pipeline: A -> B -> C with different latencies.
    let sink = SignalTrace::new_sink(0);
    let (mut ab_tx, mut ab_rx) = Signal::<u32>::with_name("A->B", 2, 3);
    let (mut bc_tx, mut bc_rx) = Signal::<u32>::with_name("B->C", 1, 5);
    ab_tx.attach_trace(sink.clone());
    bc_tx.attach_trace(sink.clone());

    // A produces bursts; B forwards one per cycle; C consumes.
    let mut b_queue = std::collections::VecDeque::new();
    for cycle in 0..40u64 {
        if cycle % 8 < 3 {
            ab_tx.send(cycle, cycle as u32);
            if ab_tx.can_write(cycle) {
                ab_tx.send(cycle, cycle as u32 + 100);
            }
        }
        while let Some(v) = ab_rx.read(cycle) {
            b_queue.push_back(v);
        }
        if let Some(v) = b_queue.pop_front() {
            if bc_tx.can_write(cycle) {
                bc_tx.send(cycle, v);
            } else {
                b_queue.push_front(v);
            }
        }
        while bc_rx.read(cycle).is_some() {}
    }

    let trace = sink.borrow();
    println!("captured {} signal events", trace.len());
    println!();
    println!("== Signal Trace Visualizer ==");
    println!("(each cell: objects arriving that cycle; '.' = idle)");
    println!();
    print!("{}", trace.render(0, 40));
    println!();
    println!("dump format (first 5 lines):");
    for line in trace.dump().lines().take(5) {
        println!("  {line}");
    }
}
