//! The metric tables — names, units, directions and bounds — and the
//! report one run fills in. `BENCHMARK.json` repeats these tables;
//! `ledger --check` fails when the two disagree.

use attila_json::Json;

use crate::summary::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// All timings are calibrated seconds (see `calib.rs`).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "cycles/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "ckpt_roundtrip_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A single layer's metric. `exact` ones are counts (or ratios of counts)
/// made by the simulator: they repeat exactly, and a performance or
/// simplicity change must leave every one identical.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[Layer] = &[
    // host.* — context for reading the rest, not gated.
    exact("host.cores", "count", Higher),
    timed("host.calib_ms.median", "ms", Lower),
    timed("host.calib_ms.spread", "%", Lower),
    timed("host.raw_wall_s", "s", Lower),
    timed("host.trace_overhead_pct", "%", Lower),
    // gl.* -> setup_s.
    timed("gl.trace_gen_s", "s", Lower),
    timed("gl.compile_s", "s", Lower),
    exact("gl.commands", "count", Lower),
    exact("gl.trace_payload_mb", "MiB", Lower),
    // core.gpu.* — clock loop and horizon.
    timed("core.gpu.elaborate_s", "s", Lower),
    exact("core.gpu.sim_cycles", "cycles", Lower),
    exact("core.gpu.cycles_skipped", "cycles", Higher),
    exact("core.gpu.skip_ratio", "ratio", Higher),
    timed("core.gpu.host_ns_per_stepped_cycle", "ns", Lower),
    timed("core.gpu.work_horizon_ns", "ns", Lower),
    timed("core.gpu.host_ns_per_fragment", "ns", Lower),
    exact("core.gpu.allocs_per_kcycle", "count", Lower),
    exact("core.gpu.alloc_kb_per_kcycle", "KiB", Lower),
    timed("core.gpu.frame_ms.median", "ms", Lower),
    timed("core.gpu.frame_ms.max", "ms", Lower),
    timed("core.gpu.stats_csv_ms", "ms", Lower),
    // core.<box>.* — simulated work and occupancy, from the stats registry.
    exact("core.command_processor.draws", "count", Lower),
    exact("core.command_processor.upload_bytes", "bytes", Lower),
    exact("core.streamer.vertices", "count", Lower),
    exact("core.streamer.vertex_cache_hit_ratio", "ratio", Higher),
    exact("core.primitive_assembly.triangles", "count", Lower),
    exact("core.clipper.rejected_ratio", "ratio", Higher),
    exact("core.setup.culled_ratio", "ratio", Higher),
    exact("core.fraggen.fragments", "count", Lower),
    exact("core.hz.culled_ratio", "ratio", Higher),
    exact("core.zstencil.fragments_tested", "count", Lower),
    exact("core.zstencil.pass_ratio", "ratio", Higher),
    exact("core.zstencil.busy_share", "ratio", Lower),
    exact("core.ffifo.fragments_shaded", "count", Lower),
    exact("core.ffifo.shader_instructions", "count", Lower),
    exact("core.ffifo.shader_busy_share", "ratio", Lower),
    exact("core.texunit.requests", "count", Lower),
    exact("core.texunit.cache_hit_ratio", "ratio", Higher),
    exact("core.texunit.busy_share", "ratio", Lower),
    exact("core.texunit.bytes_read", "bytes", Lower),
    exact("core.colorwrite.fragments_written", "count", Lower),
    exact("core.colorwrite.busy_share", "ratio", Lower),
    // mem.* — counts from Gpu::memory(), then the isolated kernel.
    exact("mem.controller.bytes_read", "bytes", Lower),
    exact("mem.controller.bytes_written", "bytes", Lower),
    exact("mem.controller.channel_busy_share", "ratio", Lower),
    exact("mem.gddr.row_hit_ratio", "ratio", Higher),
    exact("mem.gddr.row_conflicts", "count", Lower),
    exact("mem.gddr.turnarounds", "count", Lower),
    timed("mem.controller.kernel_ns_per_req.read_stream", "ns", Lower),
    timed("mem.controller.kernel_ns_per_req.write_stream", "ns", Lower),
    timed("mem.controller.kernel_ns_per_req.mixed_rw", "ns", Lower),
    // emu.* kernels.
    timed("emu.shader.kernel_minstr_per_s", "M/s", Higher),
    timed("emu.texture.kernel_mtexel_per_s.bilinear", "M/s", Higher),
    timed("emu.texture.kernel_mtexel_per_s.trilinear", "M/s", Higher),
    timed("emu.raster.kernel_mfrag_per_s", "M/s", Higher),
    // sim.* kernels.
    timed("sim.signal.kernel_ns_per_op.lat1_bw4", "ns", Lower),
    timed("sim.signal.kernel_ns_per_op.lat8_bw1", "ns", Lower),
    // core.checkpoint.* / json.* -> ckpt_roundtrip_s.
    timed("core.checkpoint.capture_ms", "ms", Lower),
    timed("core.checkpoint.write_ms", "ms", Lower),
    timed("core.checkpoint.read_ms", "ms", Lower),
    timed("core.checkpoint.restore_ms", "ms", Lower),
    exact("core.checkpoint.file_mb", "MiB", Lower),
    timed("json.parse_mb_per_s", "MiB/s", Higher),
    // core.sweep.* kernel -> sweep_grid8.
    timed("core.sweep.kernel_scaling", "ratio", Higher),
    timed("core.sweep.kernel_configs_per_s", "1/s", Higher),
    // core.golden.*
    timed("core.golden.render_s", "s", Lower),
    timed("core.golden.speedup_vs_timing", "ratio", Higher),
];

/// One measured metric: the reported value is the summary's median.
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// What one run of one workload produced.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Operations attempted: simulation passes, golden comparisons,
    /// checkpoint round trips, determinism checks.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    pub noisy: bool,
    pub metrics: Vec<Measured>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, traced: bool) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            traced,
            attempted: 0,
            failures: Vec::new(),
            noisy: false,
            metrics: Vec::new(),
        }
    }

    /// Counts one operation; records `why` when it failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    /// Records a metric of the tables; its unit comes from there.
    pub fn put(&mut self, name: &str, summary: Summary) {
        let (name, unit) = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the tables"));
        self.metrics.push(Measured {
            name,
            unit,
            summary,
        });
    }

    pub fn put_value(&mut self, name: &str, value: f64) {
        self.put(name, Summary::exact(value));
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// `{name: {value, unit}}`, plus the sample statistics when `full`.
    fn metrics_json(&self, full: bool) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("value".to_string(), Json::Num(m.summary.median)),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
            ];
            if full {
                fields.extend(m.summary.to_json_fields());
            }
            (m.name.to_string(), Json::Obj(fields))
        });
        Json::Obj(metrics.collect())
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failures.len() as f64)),
            ("metrics".into(), self.metrics_json(false)),
        ])
        .render()
    }

    /// The full record kept beside the result line: quartiles, sample
    /// counts, the noise flag and the failure messages.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("trace".into(), Json::Num(f64::from(u8::from(self.traced)))),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failures.len() as f64)),
            (
                "failures".into(),
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("noisy".into(), Json::Bool(self.noisy)),
            ("metrics".into(), self.metrics_json(true)),
        ])
    }

    /// Every metric by name with its unit, one per line.
    pub fn print(&self) {
        for m in &self.metrics {
            let s = &m.summary;
            if s.n > 1 {
                println!(
                    "{:<16} {:<48} {:>16.6} {:<8} n={} p25={:.6} p75={:.6} min={:.6} max={:.6}",
                    self.workload, m.name, s.median, m.unit, s.n, s.p25, s.p75, s.min, s.max
                );
            } else {
                println!(
                    "{:<16} {:<48} {:>16.6} {:<8}",
                    self.workload, m.name, s.median, m.unit
                );
            }
        }
        println!(
            "{:<16} ops {} failed_ops {}{}",
            self.workload,
            self.attempted,
            self.failures.len(),
            if self.noisy { "  (noisy host)" } else { "" }
        );
        for f in &self.failures {
            println!("{:<16} FAILED: {f}", self.workload);
        }
    }
}
