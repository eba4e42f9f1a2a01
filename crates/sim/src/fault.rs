//! Deterministic fault injection for chaos-testing the timing model.
//!
//! The ATTILA paper leans on signal verification checks (bandwidth
//! exceeded, data lost, time travel) as the simulator's correctness
//! defense — but nothing in a healthy model ever exercises them. This
//! module injects *controlled* hardware-style faults so the failure paths,
//! the [`SimError`](crate::SimError) propagation and the post-mortem
//! reporting can be tested end to end:
//!
//! * **Drop** the Nth object written to a named signal (a latch losing a
//!   value — downstream units starve or hang);
//! * **Delay** a write by ±k cycles (clock jitter; a positive delay makes
//!   the object arrive late and surface as `DataLost` when it falls off
//!   the wire unread, a negative delay rewinds the write and surfaces as
//!   `TimeTravel`);
//! * **Duplicate** a write (a glitch double-latching the wire — consumes
//!   an extra bandwidth slot and surfaces as `BandwidthExceeded` on a
//!   saturated signal);
//! * **Flip a bit** in the Nth memory reply (a DRAM single-bit error);
//! * **Stall the memory controller** for K cycles (a refresh storm).
//!
//! A [`FaultInjector`] owns a list of [`FaultPlan`]s plus a seeded
//! [`TinyRng`]; plans may select their target write pseudo-randomly, and
//! the seed makes every such choice reproducible. The injector compiles
//! plans into per-signal hooks ([`SignalFaultHandle`]) installed with
//! [`SignalWriter::attach_faults`](crate::SignalWriter::attach_faults) and
//! a memory hook ([`MemFaultHandle`]) consumed by the memory controller.

use std::cell::RefCell;
use std::rc::Rc;

use attila_json::{
    array, field, field_with, impl_json_state, HexJson, Json, JsonError, JsonState, ToJson,
};

use crate::rng::TinyRng;
use crate::Cycle;

/// Selects which write on a signal a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultWrite {
    /// The Nth write (0-based) since the hook was installed.
    Nth(u64),
    /// A pseudo-random write index in `[lo, hi)`, resolved once from the
    /// injector's seeded RNG when the hook is compiled.
    Random {
        /// Lowest candidate write index.
        lo: u64,
        /// One past the highest candidate write index.
        hi: u64,
    },
}

/// One planned fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlan {
    /// Drop the selected write on `signal`: the object never enters the
    /// wire (its bandwidth slot is still consumed, as the latch clocked).
    Drop {
        /// Target signal name.
        signal: String,
        /// Which write to drop.
        write: FaultWrite,
    },
    /// Shift the selected write on `signal` by `delay` cycles. Positive
    /// delays make the object arrive late (surfacing as `DataLost` once
    /// it falls off a strict wire unread); negative delays rewind the
    /// write into the past (surfacing as `TimeTravel`).
    Delay {
        /// Target signal name.
        signal: String,
        /// Which write to delay.
        write: FaultWrite,
        /// Signed cycle shift.
        delay: i64,
    },
    /// Latch the selected write on `signal` twice, consuming an extra
    /// bandwidth slot (surfacing as `BandwidthExceeded` on a saturated
    /// wire).
    Duplicate {
        /// Target signal name.
        signal: String,
        /// Which write to duplicate.
        write: FaultWrite,
    },
    /// Flip `bit` (0-7) of the first byte addressed by the `reply`-th
    /// memory *read* reply, written through to the backing memory image —
    /// a hard single-bit DRAM error, silently corrupting rendering for
    /// every later read of that address.
    FlipBits {
        /// Which read reply (0-based) to corrupt.
        reply: u64,
        /// Bit index within the first data byte.
        bit: u32,
    },
    /// Freeze the memory controller for `cycles` cycles starting at `at`:
    /// it accepts no requests and serves no replies while stalled.
    StallMemory {
        /// First stalled cycle.
        at: Cycle,
        /// Stall duration in cycles.
        cycles: Cycle,
    },
}

impl FaultPlan {
    /// The signal this plan targets, if it is a signal-level fault.
    pub fn signal(&self) -> Option<&str> {
        match self {
            FaultPlan::Drop { signal, .. }
            | FaultPlan::Delay { signal, .. }
            | FaultPlan::Duplicate { signal, .. } => Some(signal),
            FaultPlan::FlipBits { .. } | FaultPlan::StallMemory { .. } => None,
        }
    }
}

/// The action a signal hook performs on one specific write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalFaultKind {
    /// Discard the object.
    Drop,
    /// Shift the write by the given signed cycle count.
    Delay(i64),
    /// Consume an extra bandwidth slot.
    Duplicate,
}

/// Compiled per-signal fault schedule, shared between the injector (which
/// reads the hit counters for reporting) and the signal (which consults it
/// on every write).
#[derive(Debug, Default)]
pub struct SignalFaults {
    /// Writes observed so far (the index the schedule is keyed on).
    write_index: u64,
    /// `(write index, action)` pairs, unordered.
    actions: Vec<(u64, SignalFaultKind)>,
    /// Number of faults actually delivered.
    hits: u64,
}

/// Shared handle to a [`SignalFaults`] schedule.
pub type SignalFaultHandle = Rc<RefCell<SignalFaults>>;

impl SignalFaults {
    /// Called by the signal on every write: advances the write index and
    /// returns the action scheduled for this write, if any.
    pub fn next_write(&mut self) -> Option<SignalFaultKind> {
        let idx = self.write_index;
        self.write_index += 1;
        let hit = self.actions.iter().find(|(at, _)| *at == idx).map(|(_, k)| *k);
        if hit.is_some() {
            self.hits += 1;
        }
        hit
    }

    /// Number of faults delivered so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

/// Compiled memory-controller fault schedule.
#[derive(Debug, Default)]
pub struct MemFaults {
    /// `(start, len)` stall windows.
    stalls: Vec<(Cycle, Cycle)>,
    /// `(reply index, bit)` single-bit flips.
    flips: Vec<(u64, u32)>,
    replies_seen: u64,
    stall_cycles_served: u64,
    bits_flipped: u64,
}

/// Shared handle to a [`MemFaults`] schedule.
pub type MemFaultHandle = Rc<RefCell<MemFaults>>;

impl MemFaults {
    /// Whether the controller is frozen at `cycle` (counts served stall
    /// cycles as a side effect).
    pub fn stalled(&mut self, cycle: Cycle) -> bool {
        let hit = self.stalls.iter().any(|(at, len)| cycle >= *at && cycle < at + len);
        if hit {
            self.stall_cycles_served += 1;
        }
        hit
    }

    /// Called by the controller for every *read* reply it produces;
    /// returns the bit index (0-7) to flip in the reply's first byte when
    /// this reply is targeted. The controller applies the flip both to the
    /// reply data and to the backing memory image — a hard DRAM cell
    /// error, visible to every later functional read of that address.
    ///
    /// Only read replies count towards the index, so `reply`
    /// deterministically targets the Nth read regardless of how many
    /// write acknowledgements are interleaved.
    pub fn next_read_flip(&mut self) -> Option<u32> {
        let idx = self.replies_seen;
        self.replies_seen += 1;
        let (_, bit) = self.flips.iter().find(|(at, _)| *at == idx)?;
        self.bits_flipped += 1;
        Some(bit % 8)
    }

    /// Stall cycles actually imposed so far.
    pub fn stall_cycles_served(&self) -> u64 {
        self.stall_cycles_served
    }

    /// Bits actually flipped so far.
    pub fn bits_flipped(&self) -> u64 {
        self.bits_flipped
    }

    /// Whether any fault is scheduled.
    pub fn is_armed(&self) -> bool {
        !self.stalls.is_empty() || !self.flips.is_empty()
    }
}

/// A deterministic, seeded fault injector.
///
/// # Examples
///
/// ```
/// use attila_sim::{FaultInjector, FaultPlan, Signal};
/// use attila_sim::fault::FaultWrite;
///
/// let mut inj = FaultInjector::new(0xC0FFEE);
/// inj.add(FaultPlan::Drop { signal: "a->b".into(), write: FaultWrite::Nth(1) });
/// let (mut tx, mut rx) = Signal::<u32>::with_name("a->b", 1, 1);
/// tx.attach_faults(inj.signal_hook("a->b").unwrap());
/// tx.write(0, 10).unwrap();
/// assert_eq!(rx.read(1), Some(10));
/// tx.write(1, 11).unwrap(); // dropped by the fault
/// assert_eq!(rx.read(2), None); // the dropped write never arrives
/// tx.write(2, 12).unwrap();
/// assert_eq!(rx.read(3), Some(12));
/// ```
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    rng: TinyRng,
    plans: Vec<FaultPlan>,
    hooks: Vec<(String, SignalFaultHandle)>,
    mem: Option<MemFaultHandle>,
}

impl FaultInjector {
    /// Creates an injector with no plans; `seed` drives every
    /// [`FaultWrite::Random`] resolution.
    pub fn new(seed: u64) -> Self {
        FaultInjector { seed, rng: TinyRng::new(seed), plans: Vec::new(), hooks: Vec::new(), mem: None }
    }

    /// Schedules a fault.
    pub fn add(&mut self, plan: FaultPlan) {
        self.plans.push(plan);
    }

    /// Builder form of [`add`](Self::add).
    #[must_use]
    pub fn with(mut self, plan: FaultPlan) -> Self {
        self.add(plan);
        self
    }

    /// The seed this injector was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled plans.
    pub fn plans(&self) -> &[FaultPlan] {
        &self.plans
    }

    fn resolve(&mut self, write: FaultWrite) -> u64 {
        match write {
            FaultWrite::Nth(n) => n,
            FaultWrite::Random { lo, hi } => self.rng.range_u64(lo, hi),
        }
    }

    /// Compiles the plans targeting `signal` into a hook, or `None` when no
    /// plan mentions it. Hooks are cached: asking twice for the same signal
    /// returns the same schedule (random targets resolve only once).
    pub fn signal_hook(&mut self, signal: &str) -> Option<SignalFaultHandle> {
        if let Some((_, h)) = self.hooks.iter().find(|(name, _)| name == signal) {
            return Some(Rc::clone(h));
        }
        let mut actions = Vec::new();
        let plans = self.plans.clone();
        for plan in &plans {
            if plan.signal() != Some(signal) {
                continue;
            }
            match plan {
                FaultPlan::Drop { write, .. } => {
                    let at = self.resolve(*write);
                    actions.push((at, SignalFaultKind::Drop));
                }
                FaultPlan::Delay { write, delay, .. } => {
                    let at = self.resolve(*write);
                    actions.push((at, SignalFaultKind::Delay(*delay)));
                }
                FaultPlan::Duplicate { write, .. } => {
                    let at = self.resolve(*write);
                    actions.push((at, SignalFaultKind::Duplicate));
                }
                FaultPlan::FlipBits { .. } | FaultPlan::StallMemory { .. } => {}
            }
        }
        if actions.is_empty() {
            return None;
        }
        let handle = Rc::new(RefCell::new(SignalFaults { write_index: 0, actions, hits: 0 }));
        self.hooks.push((signal.to_string(), Rc::clone(&handle)));
        Some(handle)
    }

    /// Compiles the memory-level plans into a hook, or `None` when no plan
    /// targets the memory controller. Cached like [`signal_hook`].
    ///
    /// [`signal_hook`]: Self::signal_hook
    pub fn mem_hook(&mut self) -> Option<MemFaultHandle> {
        if let Some(h) = &self.mem {
            return Some(Rc::clone(h));
        }
        let mut faults = MemFaults::default();
        for plan in &self.plans {
            match plan {
                FaultPlan::StallMemory { at, cycles } => faults.stalls.push((*at, *cycles)),
                FaultPlan::FlipBits { reply, bit } => faults.flips.push((*reply, *bit)),
                _ => {}
            }
        }
        if !faults.is_armed() {
            return None;
        }
        let handle = Rc::new(RefCell::new(faults));
        self.mem = Some(Rc::clone(&handle));
        Some(handle)
    }

    /// Total faults delivered across every compiled hook (signal hits,
    /// stall cycles and bit flips), for reporting.
    pub fn faults_delivered(&self) -> u64 {
        let signal_hits: u64 = self.hooks.iter().map(|(_, h)| h.borrow().hits()).sum();
        let mem: u64 = self
            .mem
            .as_ref()
            .map(|m| {
                let m = m.borrow();
                m.stall_cycles_served() + m.bits_flipped()
            })
            .unwrap_or(0);
        signal_hits + mem
    }
}

impl_json_state!(MemFaults { replies_seen: hex, stall_cycles_served: hex, bits_flipped: hex });

/// The injector's progress — RNG position, per-hook write indices and
/// delivery counters. The plans are not part of it: they belong to the
/// run's configuration, so the state loads into an injector rebuilt from
/// the same seed and plans with its hooks already compiled (compilation
/// order is deterministic, so random targets resolve identically), and a
/// hook the file names but this injector never compiled is refused.
impl JsonState for FaultInjector {
    fn save_state(&self) -> Json {
        let hooks = self.hooks.iter().map(|(name, h)| {
            let f = h.borrow();
            Json::obj([
                ("signal", name.to_json()),
                ("write_index", f.write_index.to_hex()),
                ("hits", f.hits.to_hex()),
            ])
        });
        Json::obj([
            ("rng_state", self.rng.state().to_hex()),
            ("hooks", Json::Arr(hooks.collect())),
            ("mem", self.mem.as_ref().map_or(Json::Null, |m| m.borrow().save_state())),
        ])
    }

    fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        self.rng.set_state(field_with(v, "rng_state", u64::from_hex)?);
        field_with(v, "hooks", |hooks| {
            for h in array(hooks)? {
                let signal: String = field(h, "signal")?;
                let Some((_, hook)) = self.hooks.iter().find(|(name, _)| *name == signal) else {
                    return Err(JsonError::msg(format!(
                        "no compiled fault hook for signal `{signal}`"
                    )));
                };
                let mut f = hook.borrow_mut();
                f.write_index = field_with(h, "write_index", u64::from_hex)?;
                f.hits = field_with(h, "hits", u64::from_hex)?;
            }
            Ok(())
        })?;
        field_with(v, "mem", |mem| match (mem, &self.mem) {
            (Json::Null, _) => Ok(()),
            (mem, Some(m)) => m.borrow_mut().load_state(mem),
            (_, None) => Err(JsonError::msg("memory-fault state, but none is compiled")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::signal::Signal;

    #[test]
    fn duplicate_write_exceeds_bandwidth() {
        let mut inj = FaultInjector::new(1)
            .with(FaultPlan::Duplicate { signal: "s".into(), write: FaultWrite::Nth(0) });
        let (mut tx, _rx) = Signal::<u32>::with_name("s", 1, 1);
        tx.attach_faults(inj.signal_hook("s").unwrap());
        let err = tx.write(0, 7).unwrap_err();
        assert!(matches!(err, SimError::BandwidthExceeded { cycle: 0, .. }), "{err}");
    }

    #[test]
    fn positive_delay_surfaces_as_data_lost() {
        let mut inj = FaultInjector::new(1)
            .with(FaultPlan::Delay { signal: "s".into(), write: FaultWrite::Nth(0), delay: 3 });
        let (mut tx, mut rx) = Signal::<u32>::with_name("s", 1, 1);
        tx.attach_faults(inj.signal_hook("s").unwrap());
        tx.write(0, 7).unwrap(); // arrives at 4 instead of 1
        assert_eq!(rx.try_read(1).unwrap(), None);
        assert_eq!(rx.try_read(4).unwrap(), Some(7));
    }

    #[test]
    fn negative_delay_surfaces_as_time_travel() {
        let mut inj = FaultInjector::new(1)
            .with(FaultPlan::Delay { signal: "s".into(), write: FaultWrite::Nth(1), delay: -5 });
        let (mut tx, _rx) = Signal::<u32>::with_name("s", 4, 1);
        tx.attach_faults(inj.signal_hook("s").unwrap());
        tx.write(10, 1).unwrap();
        let err = tx.write(10, 2).unwrap_err();
        assert!(matches!(err, SimError::TimeTravel { latest: 10, .. }), "{err}");
    }

    #[test]
    fn random_targets_are_seed_deterministic() {
        let build = |seed| {
            let mut inj = FaultInjector::new(seed).with(FaultPlan::Drop {
                signal: "s".into(),
                write: FaultWrite::Random { lo: 0, hi: 1000 },
            });
            let hook = inj.signal_hook("s").unwrap();
            let h = hook.borrow();
            h.actions.clone()
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8));
    }

    #[test]
    fn mem_hook_compiles_stalls_and_flips() {
        let mut inj = FaultInjector::new(1)
            .with(FaultPlan::StallMemory { at: 10, cycles: 5 })
            .with(FaultPlan::FlipBits { reply: 0, bit: 3 });
        let hook = inj.mem_hook().unwrap();
        let mut m = hook.borrow_mut();
        assert!(!m.stalled(9));
        assert!(m.stalled(10));
        assert!(m.stalled(14));
        assert!(!m.stalled(15));
        assert_eq!(m.next_read_flip(), Some(3));
        assert_eq!(m.next_read_flip(), None);
        assert_eq!(m.stall_cycles_served(), 2);
        assert_eq!(m.bits_flipped(), 1);
    }

    #[test]
    fn unarmed_hooks_are_none() {
        let mut inj = FaultInjector::new(1);
        assert!(inj.signal_hook("s").is_none());
        assert!(inj.mem_hook().is_none());
    }

    #[test]
    fn hooks_are_cached() {
        let mut inj = FaultInjector::new(1)
            .with(FaultPlan::Drop { signal: "s".into(), write: FaultWrite::Nth(0) });
        let a = inj.signal_hook("s").unwrap();
        let b = inj.signal_hook("s").unwrap();
        assert!(Rc::ptr_eq(&a, &b));
    }
}
