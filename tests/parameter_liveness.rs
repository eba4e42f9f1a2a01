//! Every parameter moves a number, or says why not. Each leaf of
//! `GpuConfig::baseline().to_json()` is perturbed both ways — ×2 and ÷2
//! (at least 1) for a number, a flip for a boolean, the other variant for
//! an enum — and each perturbation runs over a small scene matrix until one
//! scene's cycle count, frames or `stats_totals` change. A direction that
//! `validate()` refuses takes the nearest value it accepts instead. A leaf
//! no scene moves must be listed in [`NOT_LIVE`] with its reason, and a
//! listed leaf that does move fails too, so the list cannot go stale: a
//! new key fails here until a scene reads it or it is listed.
//!
//! Each listed leaf runs every scene twice, about 20 s in a release build
//! and several times that in the test profile's debug build, so the test
//! runs only in release: `cargo test --release --test parameter_liveness`.

use attila::core::config::{GpuConfig, ShaderScheduling};
use attila::core::gpu::Gpu;
use attila::gl::workloads::{self, WorkloadParams};
use attila::gl::{GlPlayer, GlTrace};
use attila_json::{FromJson, Json, ToJson};

const NO_TIMING: &str = "does not affect timing";
const OVERRIDDEN: &str = "overridden: HZ sizes its buffer by the render target from the first tile";
const TWICE: &str = "one ROP count in two keys: validate() refuses either one changed alone";
const NO_SCENE: &str = "binds on no scene yet: waits for ROADMAP item 9(a)'s scaled workloads";

/// The leaves no scene moves, each with its reason.
const NOT_LIVE: [(&str, &str); 34] = [
    ("display.width", OVERRIDDEN),
    ("display.height", OVERRIDDEN),
    ("display.clock_mhz", NO_TIMING),
    ("primitive_assembly.input_queue", NO_SCENE),
    ("clipper.input_queue", NO_SCENE),
    ("setup.input_queue", NO_SCENE),
    ("fraggen.input_queue", NO_SCENE),
    ("hz.input_queue", NO_SCENE),
    ("zstencil.units", TWICE),
    ("zstencil.cache.ports", NO_SCENE),
    ("colorwrite.units", TWICE),
    ("colorwrite.cache.ports", NO_SCENE),
    ("shader.vertex_threads", NO_SCENE),
    ("shader.vertex_registers", NO_SCENE),
    ("shader.instruction_latencies.ABS", NO_SCENE),
    ("shader.instruction_latencies.ADD", NO_SCENE),
    ("shader.instruction_latencies.CMP", NO_SCENE),
    ("shader.instruction_latencies.COS", NO_SCENE),
    ("shader.instruction_latencies.DP4", NO_SCENE),
    ("shader.instruction_latencies.DPH", NO_SCENE),
    ("shader.instruction_latencies.EX2", NO_SCENE),
    ("shader.instruction_latencies.FLR", NO_SCENE),
    ("shader.instruction_latencies.FRC", NO_SCENE),
    ("shader.instruction_latencies.LG2", NO_SCENE),
    ("shader.instruction_latencies.LRP", NO_SCENE),
    ("shader.instruction_latencies.MAX", NO_SCENE),
    ("shader.instruction_latencies.MIN", NO_SCENE),
    ("shader.instruction_latencies.RCP", NO_SCENE),
    ("shader.instruction_latencies.SGE", NO_SCENE),
    ("shader.instruction_latencies.SIN", NO_SCENE),
    ("shader.instruction_latencies.SLT", NO_SCENE),
    ("shader.instruction_latencies.XPD", NO_SCENE),
    ("memory.gpu_memory_mb", NO_TIMING),
    ("stats.window_cycles", NO_TIMING),
];

/// A scene: its name, its trace and the preset it runs under, at the
/// trace's resolution as the CLI runs it.
type Scene = (&'static str, GlTrace, GpuConfig);

/// Cheapest first: most leaves stop at the first few. The non-unified and
/// in-order presets read the vertex-pool and scheduler keys; the larger
/// targets evict from the ROP caches and the 128² textures from the
/// texture cache.
fn scenes() -> Vec<Scene> {
    let params = |width, height, texture_size, detail| WorkloadParams {
        width,
        height,
        frames: 1,
        texture_size,
        detail,
        ..Default::default()
    };
    let ut2004 = workloads::ut2004_like(params(48, 32, 32, 1));
    let in_order = GpuConfig::case_study(1, ShaderScheduling::InOrderQueue);
    let geometry = workloads::ut2004_like(params(48, 32, 32, 4));
    let scenes = [
        ("texture_stream", GpuConfig::baseline(), workloads::texture_stream(params(48, 32, 32, 1))),
        ("quickstart", GpuConfig::baseline(), workloads::quickstart_trace(48, 32)),
        ("ut2004", GpuConfig::baseline(), ut2004.clone()),
        ("ut2004/non-unified", GpuConfig::non_unified_baseline(), ut2004.clone()),
        ("ut2004/in-order", in_order, ut2004),
        ("fillrate", GpuConfig::baseline(), workloads::fillrate(64, 64, 2, true)),
        ("fillrate/128x64", GpuConfig::baseline(), workloads::fillrate(128, 64, 2, false)),
        ("ut2004/geometry", GpuConfig::non_unified_baseline(), geometry),
        ("doom3", GpuConfig::baseline(), workloads::doom3_like(params(48, 32, 32, 1))),
        ("ut2004/96x72", GpuConfig::baseline(), workloads::ut2004_like(params(96, 72, 64, 1))),
        ("doom3/96x72", GpuConfig::baseline(), workloads::doom3_like(params(96, 72, 128, 1))),
    ];
    let at_resolution = |(name, mut config, trace): (_, GpuConfig, GlTrace)| {
        config.display.width = trace.width;
        config.display.height = trace.height;
        (name, trace, config)
    };
    scenes.into_iter().map(at_resolution).collect()
}

/// What a run shows: cycles, each frame's bytes and the statistics totals.
type Outcome = (u64, Vec<Vec<u8>>, String);

fn run(config: &GpuConfig, trace: &GlTrace) -> Outcome {
    let commands = GlPlayer::new().replay(trace).expect("trace replays");
    let mut gpu = Gpu::new(config.clone());
    let result = gpu.run_trace(&commands).expect("scene drains");
    let frames = result.framebuffers.into_iter().map(|f| f.rgba).collect();
    (result.cycles, frames, gpu.stats().totals_csv())
}

/// The dotted path of every scalar leaf under `json`.
fn leaves(json: &Json, path: &str, out: &mut Vec<String>) {
    match json {
        Json::Obj(fields) => {
            for (key, value) in fields {
                let path = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                leaves(value, &path, out);
            }
        }
        Json::Arr(_) => panic!("`{path}`: arrays have no perturbation"),
        _ => out.push(path.to_string()),
    }
}

fn leaf_mut<'a>(json: &'a mut Json, path: &str) -> &'a mut Json {
    path.split('.').fold(json, |json, key| match json {
        Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect("a leaf").1,
        _ => panic!("`{path}` goes through a scalar"),
    })
}

/// `config` with `path` set to `value`, if `validate()` accepts it.
fn with(config: &GpuConfig, path: &str, value: Json) -> Option<GpuConfig> {
    let mut json = ToJson::to_json(config);
    *leaf_mut(&mut json, path) = value;
    let config = <GpuConfig as FromJson>::from_json(&json).expect("a perturbed config parses");
    config.validate().ok().map(|()| config)
}

/// The perturbations of `path` in `config`, both directions, without the
/// ones that leave it as it is.
fn perturbations(config: &GpuConfig, path: &str) -> Vec<GpuConfig> {
    let value = leaf_mut(&mut ToJson::to_json(config), path).clone();
    let mut out = Vec::new();
    match value {
        Json::Bool(b) => out.extend(with(config, path, Json::Bool(!b))),
        Json::Str(variant) => {
            let other = match variant.as_str() {
                "ThreadWindow" => "InOrderQueue",
                "InOrderQueue" => "ThreadWindow",
                "Recursive" => "TileScan",
                "TileScan" => "Recursive",
                _ => panic!("`{path}`: name the other variant of `{variant}` here"),
            };
            out.extend(with(config, path, Json::Str(other.into())));
        }
        Json::Num(n) => {
            let n = n as u64;
            for target in [n * 2, (n / 2).max(1)] {
                // The valid value nearest the target, between it and `n`.
                let mut v = target;
                while v != n {
                    if let Some(c) = with(config, path, Json::Num(v as f64)) {
                        out.push(c);
                        break;
                    }
                    v = if v > n { v - 1 } else { v + 1 };
                }
            }
        }
        other => panic!("`{path}`: no perturbation for {other:?}"),
    }
    out
}

#[test]
#[cfg_attr(debug_assertions, ignore = "minutes in a debug build: run it with --release")]
fn every_parameter_moves_a_number_or_is_listed() {
    let scenes = scenes();
    let base: Vec<Outcome> = scenes.iter().map(|(_, trace, config)| run(config, trace)).collect();
    let mut paths = Vec::new();
    leaves(&ToJson::to_json(&GpuConfig::baseline()), "", &mut paths);
    let mut wrong = Vec::new();
    for path in &paths {
        let moved_on = scenes.iter().zip(&base).find_map(|((name, trace, config), base)| {
            perturbations(config, path).iter().any(|c| run(c, trace) != *base).then_some(*name)
        });
        let listed = NOT_LIVE.iter().find(|(p, _)| p == path);
        match (moved_on, listed) {
            (None, None) => wrong.push(format!("`{path}` moves no scene and is not listed")),
            (Some(scene), Some((_, why))) => {
                wrong.push(format!("`{path}` is listed ({why}) but moves `{scene}`"))
            }
            _ => {}
        }
    }
    for (path, _) in NOT_LIVE {
        if !paths.iter().any(|p| p == path) {
            wrong.push(format!("`{path}` is listed but is no leaf of the config"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
