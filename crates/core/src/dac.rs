//! The DAC: screen refresh traffic.
//!
//! At every swap the top level dumps the colour buffer (the original's
//! framebuffer output file); the DAC models the refresh bandwidth that
//! scanning the frame out costs, as timing reads of the whole buffer.

use std::collections::VecDeque;

use attila_json::impl_json_state;
use attila_mem::{Client, MemOp, MemRequest, MemoryController};
use attila_sim::{Counter, Horizon, StatsRegistry};

use crate::address::{surface_bytes, FB_TILE_BYTES};
use crate::unit::Unit;

/// Bytes per refresh read.
const READ_BYTES: u32 = 64;

/// The DAC box.
#[derive(Debug)]
pub struct Dac {
    pending_reads: VecDeque<u64>,
    next_id: u64,
    stat_bytes: Counter,
}

impl Dac {
    /// The name the box's statistics are registered under.
    pub const NAME: &'static str = "DAC";

    /// Builds the DAC.
    pub fn new(stats: &mut StatsRegistry) -> Self {
        Dac {
            pending_reads: VecDeque::new(),
            next_id: 0,
            stat_bytes: stats.counter("DAC.bytes_read"),
        }
    }

    /// Queues the refresh reads of one `width`×`height` frame held at
    /// `color_buffer`.
    pub fn refresh(&mut self, color_buffer: u64, width: u32, height: u32) {
        // Whole tiles only, read front to back.
        let tile = u64::from(FB_TILE_BYTES);
        let bytes = surface_bytes(width, height) / tile * tile;
        let reads = (0..bytes).step_by(READ_BYTES as usize);
        self.pending_reads
            .extend(reads.map(|offset| color_buffer + offset));
    }

    /// Advances the DAC one cycle: collects replies, then submits queued
    /// reads while the controller takes them.
    pub fn clock(&mut self, mem: &mut MemoryController) {
        while mem.pop_reply(Client::Dac).is_some() {}
        while let Some(&addr) = self.pending_reads.front() {
            if !mem.can_accept(Client::Dac, addr) {
                break;
            }
            self.pending_reads.pop_front();
            let id = self.next_id;
            self.next_id += 1;
            let _ = mem.submit(MemRequest {
                id,
                client: Client::Dac,
                addr,
                op: MemOp::TimingRead { size: READ_BYTES },
            });
            self.stat_bytes.add(u64::from(READ_BYTES));
        }
    }
}

/// The DAC talks to the memory controller through its request/reply API,
/// not signals: it declares no ports. It is a memory client, so a reply
/// wakes it.
impl Unit for Dac {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn client(&self) -> Option<Client> {
        Some(Client::Dac)
    }

    fn busy(&self) -> bool {
        !self.pending_reads.is_empty()
    }

    /// Busy while refresh reads wait to be submitted, idle otherwise: a
    /// clock with none only collects replies, whose delivery wakes it.
    fn work_horizon(&self) -> Horizon {
        if self.pending_reads.is_empty() {
            Horizon::Idle
        } else {
            Horizon::Busy
        }
    }

    fn queued(&self) -> usize {
        self.pending_reads.len()
    }
}

impl_json_state!(Dac = next_id: hex skip {
    "wiring: rebuilt at elaboration": stat_bytes;
    "transient: `Gpu::quiescent` requires it empty": pending_reads;
});
