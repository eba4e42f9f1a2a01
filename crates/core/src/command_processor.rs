//! The Command Processor.
//!
//! "The Command Processor is the unit that controls the whole pipeline,
//! receiving and processing the commands sent by the system CPU. The
//! Command Processor's tasks are to control the rendering of batches and
//! handle buffer writes (textures, vertex and index buffers) from system
//! memory to GPU memory. Our current implementation allows to pipeline
//! render state changes and buffer writes concurrently with rendering a
//! batch." (§2.2)
//!
//! Fast clears and `Swap` synchronize with the pipeline (they touch
//! buffers in use); draws pipeline freely — the Streamer's input queue
//! lets one batch run its fragment phase while the next starts its
//! geometry phase, the two-batch overlap the paper describes.

use std::collections::VecDeque;
use std::sync::Arc;

use attila_json::impl_json_state;
use attila_mem::MemoryController;
use attila_sim::{Counter, Cycle, Horizon, SimError};

use crate::commands::{DrawCall, GpuCommand};
use crate::port::PortSender;
use crate::state::RenderState;
use crate::types::Batch;
use crate::unit::Unit;

/// Side effects the Command Processor asks the top-level GPU to apply
/// (they touch units the CP has no wires to: ROP caches, HZ, DAC).
#[derive(Debug, Clone, PartialEq)]
pub enum CpAction {
    /// Fast clear of the colour buffer.
    ClearColor {
        /// Buffer base address.
        base: u64,
        /// Buffer length in bytes.
        len: u64,
        /// RGBA8 clear word.
        word: u32,
    },
    /// Fast clear of the Z/stencil buffer.
    ClearZStencil {
        /// Buffer base address.
        base: u64,
        /// Buffer length in bytes.
        len: u64,
        /// S8Z24 clear word.
        word: u32,
    },
    /// End of frame: flush ROP caches and dump the framebuffer.
    Swap,
}

/// The Command Processor box.
#[derive(Debug)]
pub struct CommandProcessor {
    commands: VecDeque<GpuCommand>,
    /// Draw batches to the Streamer.
    pub out_draws: PortSender<Arc<Batch>>,
    state: Arc<RenderState>,
    /// Cycles the current command still needs before completing.
    stall_cycles: Cycle,
    outstanding_uploads: usize,
    next_upload_id: u64,
    next_batch_id: u64,
    /// Side effects for the top level to apply this cycle.
    pub actions: VecDeque<CpAction>,
    /// Whether the last issued draw used the early-Z datapath; flipping
    /// datapaths inserts a pipeline barrier (two batches on different
    /// datapaths could otherwise test/write the same pixel out of order).
    last_draw_early: Option<bool>,
    stat_commands: Counter,
    stat_draws: Counter,
    stat_state_changes: Counter,
    stat_upload_bytes: Counter,
}

impl CommandProcessor {
    /// The name the box's signals are registered under.
    pub const NAME: &'static str = "CommandProcessor";

    /// Cycles charged for a register-state update.
    const STATE_CHANGE_COST: Cycle = 8;
    /// Cycles charged for preloading shader instruction memory.
    const PROGRAM_LOAD_COST: Cycle = 32;
    /// Cycles charged for a fast clear (performed "in a few cycles").
    const FAST_CLEAR_COST: Cycle = 4;

    /// Builds the Command Processor.
    pub fn new(out_draws: PortSender<Arc<Batch>>, stats: &mut attila_sim::StatsRegistry) -> Self {
        CommandProcessor {
            commands: VecDeque::new(),
            out_draws,
            state: Arc::new(RenderState::default()),
            stall_cycles: 0,
            outstanding_uploads: 0,
            next_upload_id: 0,
            next_batch_id: 0,
            actions: VecDeque::new(),
            last_draw_early: None,
            stat_commands: stats.counter("CommandProcessor.commands"),
            stat_draws: stats.counter("CommandProcessor.draws"),
            stat_state_changes: stats.counter("CommandProcessor.state_changes"),
            stat_upload_bytes: stats.counter("CommandProcessor.upload_bytes"),
        }
    }

    /// Appends commands to the stream.
    pub fn enqueue(&mut self, commands: impl IntoIterator<Item = GpuCommand>) {
        self.commands.extend(commands);
    }

    /// The current render state (tests and the golden model share it).
    pub fn state(&self) -> &Arc<RenderState> {
        &self.state
    }

    /// Advances the Command Processor one cycle. `pipeline_idle` reports
    /// whether every downstream box has drained (needed by clears/swap).
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised by the box's signals.
    pub fn clock(
        &mut self,
        cycle: Cycle,
        mem: &mut MemoryController,
        pipeline_idle: bool,
    ) -> Result<(), SimError> {
        self.out_draws.try_update(cycle)?;
        while mem.pop_finished_upload().is_some() {
            self.outstanding_uploads -= 1;
        }
        if self.stall_cycles > 0 {
            self.stall_cycles -= 1;
            return Ok(());
        }
        let Some(cmd) = self.commands.front() else { return Ok(()) };
        match cmd {
            GpuCommand::SetState(_) => {
                let Some(GpuCommand::SetState(s)) = self.commands.pop_front() else {
                    unreachable!() // variant excluded by the surrounding match
                };
                self.state = Arc::new(*s);
                self.stall_cycles = Self::STATE_CHANGE_COST;
                self.stat_state_changes.inc();
                self.stat_commands.inc();
            }
            GpuCommand::LoadPrograms => {
                self.commands.pop_front();
                self.stall_cycles = Self::PROGRAM_LOAD_COST;
                self.stat_commands.inc();
            }
            GpuCommand::WriteBuffer { .. } => {
                let Some(GpuCommand::WriteBuffer { address, data }) = self.commands.pop_front()
                else {
                    unreachable!() // variant excluded by the surrounding match
                };
                let id = self.next_upload_id;
                self.next_upload_id += 1;
                self.stat_upload_bytes.add(data.len() as u64);
                mem.submit_system_upload(cycle, id, address, data);
                self.outstanding_uploads += 1;
                self.stat_commands.inc();
            }
            GpuCommand::Draw(_) => {
                // Draws wait for uploads they may depend on, and for a
                // free slot in the Streamer's batch queue. A draw that
                // switches between the early- and late-Z datapaths also
                // waits for the pipeline to drain: the Fragment FIFO's
                // two datapaths do not preserve ordering across batches.
                let early = self.state.early_z();
                if self.outstanding_uploads > 0 || !self.out_draws.can_send(cycle) {
                    return Ok(());
                }
                if self.last_draw_early.is_some_and(|prev| prev != early) && !pipeline_idle {
                    return Ok(());
                }
                self.last_draw_early = Some(early);
                let Some(GpuCommand::Draw(draw)) = self.commands.pop_front() else {
                    unreachable!() // variant excluded by the surrounding match
                };
                let batch = Arc::new(Batch {
                    id: self.next_batch_id,
                    state: Arc::clone(&self.state),
                    draw: DrawCall { ..draw },
                });
                self.next_batch_id += 1;
                self.out_draws.try_send(cycle, batch)?;
                self.stat_draws.inc();
                self.stat_commands.inc();
            }
            GpuCommand::FastClearColor(word) => {
                if !pipeline_idle || self.outstanding_uploads > 0 {
                    return Ok(());
                }
                let word = *word;
                self.commands.pop_front();
                let len = crate::address::surface_bytes(
                    self.state.target_width,
                    self.state.target_height,
                );
                self.actions.push_back(CpAction::ClearColor {
                    base: self.state.color_buffer,
                    len,
                    word,
                });
                self.stall_cycles = Self::FAST_CLEAR_COST;
                self.stat_commands.inc();
            }
            GpuCommand::FastClearZStencil(word) => {
                if !pipeline_idle || self.outstanding_uploads > 0 {
                    return Ok(());
                }
                let word = *word;
                self.commands.pop_front();
                let len = crate::address::surface_bytes(
                    self.state.target_width,
                    self.state.target_height,
                );
                self.actions.push_back(CpAction::ClearZStencil {
                    base: self.state.z_buffer,
                    len,
                    word,
                });
                self.stall_cycles = Self::FAST_CLEAR_COST;
                self.stat_commands.inc();
            }
            GpuCommand::Swap => {
                if !pipeline_idle || self.outstanding_uploads > 0 {
                    return Ok(());
                }
                self.commands.pop_front();
                self.actions.push_back(CpAction::Swap);
                self.last_draw_early = None;
                self.stat_commands.inc();
            }
        }
        Ok(())
    }

    /// Whether this cycle's [`clock`](Self::clock) call will consult its
    /// `pipeline_idle` argument: only fast clears, `Swap`, and draws that
    /// switch between the early- and late-Z datapaths wait for the
    /// pipeline to drain. Letting the top level skip the whole-pipeline
    /// busy walk on every other cycle keeps the probe off the hot path.
    pub fn needs_idle_probe(&self) -> bool {
        if self.stall_cycles > 0 {
            return false;
        }
        match self.commands.front() {
            Some(
                GpuCommand::FastClearColor(_) | GpuCommand::FastClearZStencil(_) | GpuCommand::Swap,
            ) => true,
            Some(GpuCommand::Draw(_)) => {
                self.last_draw_early.is_some_and(|prev| prev != self.state.early_z())
            }
            _ => false,
        }
    }

    /// Whether every command has been processed and all uploads landed.
    pub fn done(&self) -> bool {
        self.commands.is_empty() && self.outstanding_uploads == 0 && self.stall_cycles == 0
    }

    /// Whether the CP sits at a command boundary: no command mid-execution,
    /// no uploads in flight, no side effects pending. Weaker than
    /// [`done`](Self::done) — commands may still be queued — and exactly the
    /// condition under which a checkpoint can cut the command stream at
    /// [`commands_processed`](Self::commands_processed).
    pub fn at_command_boundary(&self) -> bool {
        self.stall_cycles == 0 && self.outstanding_uploads == 0 && self.actions.is_empty()
    }

    /// Resumes a trace `consumed` commands in. The render state is not
    /// serialized (it holds compiled shader programs): the last `SetState`
    /// among the consumed commands reconstructs it exactly. The rest of
    /// the trace is queued.
    pub fn resume(&mut self, commands: &[GpuCommand], consumed: usize) {
        let set_state = |c: &GpuCommand| match c {
            GpuCommand::SetState(s) => Some(Arc::new((**s).clone())),
            _ => None,
        };
        if let Some(state) = commands[..consumed].iter().rev().find_map(set_state) {
            self.state = state;
        }
        self.enqueue(commands[consumed..].iter().cloned());
    }

    /// Commands processed so far.
    pub fn commands_processed(&self) -> u64 {
        self.stat_commands.value()
    }

    /// Draw batches issued so far.
    pub fn draws_issued(&self) -> u64 {
        self.stat_draws.value()
    }
}

impl Unit for CommandProcessor {
    fn name(&self) -> &str {
        Self::NAME
    }

    /// The box's event horizon (see [`Horizon`]).
    ///
    /// The CP is busy while it is stalled on a command cost, has pending
    /// side effects for the top level, or could make progress on the
    /// command stream this cycle. Only draws, fast clears and `Swap` wait
    /// behind outstanding uploads — with one of those at the head of the
    /// stream the CP is *idle*: the memory controller owns the wake-up
    /// (its system-bus copy horizon), and while finished uploads wait to
    /// be acknowledged the controller reports busy, which keeps the CP
    /// clocked until `outstanding_uploads` drains.
    fn work_horizon(&self) -> Horizon {
        if self.stall_cycles > 0 || !self.actions.is_empty() {
            return Horizon::Busy;
        }
        match self.commands.front() {
            None => Horizon::Idle,
            Some(
                GpuCommand::Draw(_)
                | GpuCommand::FastClearColor(_)
                | GpuCommand::FastClearZStencil(_)
                | GpuCommand::Swap,
            ) if self.outstanding_uploads > 0 => Horizon::Idle,
            Some(_) => Horizon::Busy,
        }
    }

    /// Busy until every command has been processed ([`done`](Self::done)).
    fn busy(&self) -> bool {
        !self.done()
    }

    /// Commands still waiting in the stream.
    fn queued(&self) -> usize {
        self.commands.len()
    }
}

// Valid at a command boundary (`at_command_boundary`), where the queue of
// unprocessed commands plus these three fields fully determine the box's
// future behaviour; the transient queues are empty by construction.
impl_json_state!(CommandProcessor {
    next_upload_id: hex,
    next_batch_id: hex,
    last_draw_early,
} skip {
    "wiring: rebuilt at elaboration": out_draws, stat_commands, stat_draws, stat_state_changes,
        stat_upload_bytes;
    "external: the frame driver requeues unconsumed commands on restore": commands;
    "derived: rebuilt by replaying the last SetState (see resume)": state;
    "transient: zero or empty at the command-boundary checkpoint": stall_cycles,
        outstanding_uploads, actions;
});
