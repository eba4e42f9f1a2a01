//! Flow-controlled ports between pipeline boxes.
//!
//! A [`port()`] pairs a forward **data signal** (with the latency and
//! bandwidth of the physical wire, verified by `attila-sim`) with a
//! backward **credit signal** implementing hardware-style flow control:
//! the producer holds one credit per slot of the consumer's input queue
//! (the queue sizes of Table 1), spends a credit per object sent, and the
//! consumer returns credits as it drains its queue. No data is ever
//! dropped and no queue can overflow — queue-full conditions propagate
//! upstream as back-pressure, exactly like the real pipeline.

use std::collections::VecDeque;

use attila_sim::{Cycle, Signal, SignalBinder, SignalReader, SignalWriter, SimError};

/// The sending endpoint of a flow-controlled connection.
#[derive(Debug)]
pub struct PortSender<T> {
    data: SignalWriter<T>,
    credits_back: SignalReader<u32>,
    credits: usize,
}

impl<T: std::fmt::Debug> PortSender<T> {
    /// Collects returned credits; call once per cycle before sending.
    ///
    /// Panicking wrapper over [`try_update`](Self::try_update) for callers
    /// that treat signal errors as modelling bugs.
    pub fn update(&mut self, cycle: Cycle) {
        self.try_update(cycle).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Collects returned credits, surfacing credit-wire errors.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised by the credit signal (e.g. a
    /// fault injected on it).
    pub fn try_update(&mut self, cycle: Cycle) -> Result<(), SimError> {
        while let Some(n) = self.credits_back.try_read(cycle)? {
            self.credits += n as usize;
        }
        Ok(())
    }

    /// Whether an object can be sent this cycle (a credit is available and
    /// the wire has bandwidth left).
    pub fn can_send(&self, cycle: Cycle) -> bool {
        self.credits > 0 && self.data.can_write(cycle)
    }

    /// Number of objects sendable this cycle.
    pub fn sendable(&self, cycle: Cycle) -> usize {
        self.credits.min(self.data.slots_left(cycle))
    }

    /// Sends an object, consuming a credit.
    ///
    /// # Panics
    ///
    /// Panics if [`can_send`](Self::can_send) is false — the producing box
    /// must check first (hardware cannot send without a credit either).
    pub fn send(&mut self, cycle: Cycle, obj: T) {
        self.try_send(cycle, obj).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Sends an object, consuming a credit, surfacing wire errors.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the data signal — in particular
    /// [`SimError::BandwidthExceeded`] when an injected fault duplicates
    /// the write on a saturated wire.
    ///
    /// # Panics
    ///
    /// Panics if no credit is available: that is a producer logic bug,
    /// not a wire fault (hardware cannot send without a credit either).
    pub fn try_send(&mut self, cycle: Cycle, obj: T) -> Result<(), SimError> {
        assert!(self.credits > 0, "send without a credit on `{}`", self.data.name());
        self.credits -= 1;
        self.data.write(cycle, obj)
    }

    /// Outstanding credits (free slots the producer knows about).
    pub fn credits(&self) -> usize {
        self.credits
    }

    /// The latest delivery cycle among objects still on the forward wire,
    /// if any — when everything this sender has sent will have arrived.
    pub fn drain_cycle(&self) -> Option<attila_sim::Cycle> {
        self.data.drain_cycle()
    }

    /// Total objects ever sent.
    pub fn total_sent(&self) -> u64 {
        self.data.total_written()
    }

    /// The data wire's registered name (interned: no allocation).
    pub fn name(&self) -> attila_sim::SignalName {
        self.data.name()
    }

    /// The data wire's bandwidth in objects/cycle.
    pub fn bandwidth(&self) -> usize {
        self.data.bandwidth()
    }

    /// This endpoint's port declaration for the architecture verifier: a
    /// flow-controlled output with the wire's actual name and bandwidth.
    pub fn decl(&self) -> attila_sim::PortDecl {
        attila_sim::PortDecl::output(self.name())
            .with_bandwidth(self.bandwidth())
            .with_flow_control()
    }
}

/// The receiving endpoint: wire + input queue.
#[derive(Debug)]
pub struct PortReceiver<T> {
    data: SignalReader<T>,
    credits_out: SignalWriter<u32>,
    queue: VecDeque<T>,
    capacity: usize,
}

impl<T: std::fmt::Debug> PortReceiver<T> {
    /// Moves arrived objects from the wire into the input queue; call once
    /// per cycle before consuming.
    ///
    /// Panicking wrapper over [`try_update`](Self::try_update).
    pub fn update(&mut self, cycle: Cycle) {
        self.try_update(cycle).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Moves arrived objects into the input queue, surfacing wire errors.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised by the data signal — e.g.
    /// [`SimError::DataLost`] when an injected delay made an object
    /// arrive out of order and fall off the wire unread.
    pub fn try_update(&mut self, cycle: Cycle) -> Result<(), SimError> {
        while let Some(obj) = self.data.try_read(cycle)? {
            debug_assert!(
                self.queue.len() < self.capacity,
                "flow control violated on `{}`",
                self.data.name()
            );
            self.queue.push_back(obj);
        }
        Ok(())
    }

    /// Takes the next object from the input queue, returning a credit to
    /// the producer.
    pub fn pop(&mut self, cycle: Cycle) -> Option<T> {
        self.try_pop(cycle).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Takes the next object, surfacing credit-wire errors.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised by the credit signal.
    pub fn try_pop(&mut self, cycle: Cycle) -> Result<Option<T>, SimError> {
        let Some(obj) = self.queue.pop_front() else { return Ok(None) };
        self.credits_out.write(cycle, 1)?;
        Ok(Some(obj))
    }

    /// Peeks at the head of the input queue without consuming it.
    pub fn peek(&self) -> Option<&T> {
        self.queue.front()
    }

    /// Objects waiting in the input queue.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the input queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether data is still travelling on the wire.
    pub fn in_flight(&self) -> usize {
        self.data.in_flight()
    }

    /// Whether the receiver holds no data at all (queue and wire empty).
    pub fn idle(&self) -> bool {
        self.queue.is_empty() && self.data.in_flight() == 0
    }

    /// The earliest arrival cycle of an object still on the wire, if any —
    /// when this receiver next has input to absorb.
    pub fn next_arrival(&self) -> Option<attila_sim::Cycle> {
        self.data.next_arrival()
    }

    /// The receiver's event horizon: [`Horizon::Busy`] while the input
    /// queue holds consumable work, the wire's next arrival while objects
    /// are in flight, [`Horizon::Idle`] when fully empty.
    ///
    /// [`Horizon::Busy`]: attila_sim::Horizon::Busy
    /// [`Horizon::Idle`]: attila_sim::Horizon::Idle
    pub fn work_horizon(&self) -> attila_sim::Horizon {
        if !self.queue.is_empty() {
            attila_sim::Horizon::Busy
        } else {
            attila_sim::Horizon::from_event(self.data.next_arrival())
        }
    }

    /// The configured queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The data wire's registered name (interned: no allocation).
    pub fn name(&self) -> attila_sim::SignalName {
        self.data.name()
    }

    /// The data wire's bandwidth in objects/cycle.
    pub fn bandwidth(&self) -> usize {
        self.data.bandwidth()
    }

    /// This endpoint's port declaration for the architecture verifier: a
    /// flow-controlled input with the wire's actual name and bandwidth.
    pub fn decl(&self) -> attila_sim::PortDecl {
        attila_sim::PortDecl::input(self.name())
            .with_bandwidth(self.bandwidth())
            .with_flow_control()
    }
}

/// Creates a flow-controlled port and registers both of its signals.
///
/// `queue_capacity` is the consumer-side input queue size (Table 1);
/// `bandwidth`/`latency` describe the forward wire. The credit wire has
/// latency 1.
///
/// # Errors
///
/// Returns [`SimError::NameCollision`] if `name` (or `name.credits`) is
/// already registered.
///
/// # Examples
///
/// ```
/// use attila_core::port::port;
/// use attila_sim::SignalBinder;
///
/// let mut binder = SignalBinder::new();
/// let (mut tx, mut rx) =
///     port::<u32>(&mut binder, "setup->fraggen", "Setup", "FragGen", 1, 10, 4).unwrap();
/// for cycle in 0..20u64 {
///     tx.update(cycle);
///     rx.update(cycle);
///     if tx.can_send(cycle) {
///         tx.send(cycle, cycle as u32);
///     }
///     rx.pop(cycle);
/// }
/// ```
pub fn port<T: std::fmt::Debug + 'static>(
    binder: &mut SignalBinder,
    name: &str,
    from_box: &str,
    to_box: &str,
    bandwidth: usize,
    latency: Cycle,
    queue_capacity: usize,
) -> Result<(PortSender<T>, PortReceiver<T>), SimError> {
    assert!(queue_capacity > 0, "port `{name}` needs a non-empty queue");
    let (data_tx, data_rx) = binder.register::<T>(name, from_box, to_box, bandwidth, latency)?;
    let credit_name = format!("{name}.credits");
    let (credit_tx, credit_rx) =
        binder.register::<u32>(&credit_name, to_box, from_box, queue_capacity.max(bandwidth), 1)?;
    Ok((
        PortSender { data: data_tx, credits_back: credit_rx, credits: queue_capacity },
        PortReceiver { data: data_rx, credits_out: credit_tx, queue: VecDeque::new(), capacity: queue_capacity },
    ))
}

/// Creates a port without a binder (tests, tools).
pub fn unbound_port<T: std::fmt::Debug>(
    name: &str,
    bandwidth: usize,
    latency: Cycle,
    queue_capacity: usize,
) -> (PortSender<T>, PortReceiver<T>) {
    let (data_tx, data_rx) = Signal::<T>::with_name(name, bandwidth, latency);
    let (credit_tx, credit_rx) = Signal::<u32>::with_name(
        format!("{name}.credits"),
        queue_capacity.max(bandwidth),
        1,
    );
    (
        PortSender { data: data_tx, credits_back: credit_rx, credits: queue_capacity },
        PortReceiver { data: data_rx, credits_out: credit_tx, queue: VecDeque::new(), capacity: queue_capacity },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_flows_with_latency() {
        let (mut tx, mut rx) = unbound_port::<u32>("t", 1, 3, 8);
        tx.update(0);
        tx.send(0, 42);
        for cycle in 0..3 {
            rx.update(cycle);
            assert!(rx.is_empty(), "cycle {cycle}");
        }
        rx.update(3);
        assert_eq!(rx.pop(3), Some(42));
    }

    #[test]
    fn credits_limit_in_flight_objects() {
        let (mut tx, mut rx) = unbound_port::<u32>("t", 4, 1, 2);
        tx.update(0);
        assert_eq!(tx.sendable(0), 2);
        tx.send(0, 1);
        tx.send(0, 2);
        assert!(!tx.can_send(0), "queue capacity exhausted");
        // Consumer drains one at cycle 1; credit returns at cycle 2.
        rx.update(1);
        assert_eq!(rx.pop(1), Some(1));
        tx.update(1);
        assert!(!tx.can_send(1), "credit still in flight");
        tx.update(2);
        assert!(tx.can_send(2), "credit arrived");
    }

    #[test]
    fn bandwidth_limits_per_cycle_sends() {
        let (mut tx, mut _rx) = unbound_port::<u32>("t", 2, 1, 100);
        tx.update(0);
        tx.send(0, 1);
        tx.send(0, 2);
        assert!(!tx.can_send(0), "wire bandwidth used up");
        tx.update(1);
        assert!(tx.can_send(1));
    }

    #[test]
    #[should_panic(expected = "send without a credit")]
    fn sending_without_credit_panics() {
        let (mut tx, _rx) = unbound_port::<u32>("t", 4, 1, 1);
        tx.update(0);
        tx.send(0, 1);
        tx.send(0, 2);
    }

    #[test]
    fn steady_state_throughput_matches_bandwidth() {
        // With ample queue and credits returned promptly, a bandwidth-2
        // port sustains 2 objects/cycle.
        let (mut tx, mut rx) = unbound_port::<u32>("t", 2, 4, 32);
        let mut sent = 0u64;
        let mut received = 0u64;
        for cycle in 0..100 {
            tx.update(cycle);
            while tx.can_send(cycle) {
                tx.send(cycle, 7);
                sent += 1;
            }
            rx.update(cycle);
            while rx.pop(cycle).is_some() {
                received += 1;
            }
        }
        assert!(received >= 2 * 90, "sustained {received} in 100 cycles");
        assert_eq!(sent - received, tx.total_sent() - received);
    }

    #[test]
    fn registered_port_appears_in_binder() {
        let mut binder = SignalBinder::new();
        let _p = port::<u8>(&mut binder, "a->b", "A", "B", 1, 2, 4).unwrap();
        assert!(binder.info("a->b").is_ok());
        assert!(binder.info("a->b.credits").is_ok());
        assert_eq!(binder.info("a->b").unwrap().latency, 2);
    }

    #[test]
    fn peek_does_not_return_credit() {
        let (mut tx, mut rx) = unbound_port::<u32>("t", 1, 1, 1);
        tx.update(0);
        tx.send(0, 5);
        rx.update(1);
        assert_eq!(rx.peek(), Some(&5));
        assert_eq!(rx.len(), 1);
        tx.update(2);
        assert!(!tx.can_send(2), "peek must not release the slot");
    }

    #[test]
    fn idle_tracks_wire_and_queue() {
        let (mut tx, mut rx) = unbound_port::<u32>("t", 1, 5, 4);
        assert!(rx.idle());
        tx.update(0);
        tx.send(0, 1);
        rx.update(0);
        assert!(!rx.idle(), "object on the wire");
        for cycle in 1..=5 {
            rx.update(cycle);
        }
        assert!(!rx.idle(), "object in the queue");
        rx.pop(5);
        assert!(rx.idle());
    }
}
