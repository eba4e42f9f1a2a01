//! `ledger` — the repo benchmark: host speed of the ATTILA simulator end
//! to end and layer by layer, in calibrated seconds. See README.md.
//!
//! ```text
//! ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one workload (the driver's form)
//! ledger [--seed N] [--seconds S]                                 all six, both modes -> result.json
//! ledger --compare A.json B.json                                  B against A; exit 1 on a regression
//! ledger --check                                                  every metric is emitted; numbers discarded
//! ```

mod alloc;
mod calib;
mod compare;
mod end_to_end;
mod kernels;
mod layers;
mod metrics;
mod sim;
mod span;
mod summary;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use attila_json::Json;

use metrics::{Report, END_TO_END, PER_LAYER};
use workloads::{Scale, Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const DEFAULT_SEED: u64 = 0x00A7_711A;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// Where result, span and scratch checkpoint files go, under the
/// current directory.
const OUT_DIR: &str = "target/ledger";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    compare: Option<(String, String)>,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        compare: None,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--compare" => args.compare = Some((value()?, value()?)),
            "--check" => args.check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    Ok(dir)
}

fn record_path(dir: &Path, workload: &str, traced: bool) -> PathBuf {
    dir.join(format!("{workload}.trace{}.json", u8::from(traced)))
}

fn run_one(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    dir: &Path,
) -> Report {
    if traced {
        layers::run(w, seed, seconds, scale, dir)
    } else {
        end_to_end::run(w, seed, seconds, scale, dir)
    }
}

/// One workload, one mode: prints every metric, keeps the full record
/// beside it, and ends with the driver's result line.
fn one_workload(args: &Args, name: &str) -> Result<bool, String> {
    let w = workloads::find(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; one of {}", names.join(", "))
    })?;
    let dir = out_dir()?;
    let report = run_one(w, args.seed, args.seconds, args.traced, Scale::Full, &dir);
    report.print();
    if report.noisy {
        eprintln!(
            "warning: calibration kernel IQR/median above {:.0} % — the host was noisy; no sample was dropped",
            calib::NOISY_SPREAD * 100.0
        );
    }
    let path = record_path(&dir, w.name, args.traced);
    std::fs::write(&path, report.to_json().pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// All six workloads, each in a child process of its own (so peak RSS
/// and allocator state are that workload's), end-to-end then traced.
fn all_workloads(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let dir = out_dir()?;
    let mut ok = true;
    let mut rows = Vec::new();
    let mut noisy = false;
    for w in WORKLOADS {
        let mut row = vec![("name".to_string(), Json::Str(w.name.into()))];
        for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .status()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            ok &= status.success();
            let path = record_path(&dir, w.name, traced);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let record =
                attila_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            noisy |= record.get("noisy") == Some(&Json::Bool(true));
            row.push((key.to_string(), record));
        }
        rows.push(Json::Obj(row));
    }
    let result = Json::Obj(vec![
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("calib_nominal_s".into(), Json::Num(calib::CALIB_NOMINAL_S)),
        (
            "timing_model".into(),
            Json::Str("unvalidated: the repo holds no timing reference".into()),
        ),
        ("noisy".into(), Json::Bool(noisy)),
        ("workloads".into(), Json::Arr(rows)),
    ]);
    let path = dir.join("result.json");
    std::fs::write(&path, result.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "result -> {}; spans -> {}/trace-<workload>.json",
        path.display(),
        dir.display()
    );
    Ok(ok)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    attila_json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `--check`: tiny inputs, one pass, numbers discarded. Every metric of
/// the tables is emitted exactly once per workload with a finite value,
/// and `BENCHMARK.json` says what the tables say.
fn check() -> Result<bool, String> {
    let manifest = load("BENCHMARK.json").map_err(|e| format!("{e} (run from the repo root)"))?;
    let dir = out_dir()?;
    let mut problems = check_manifest(&manifest);
    for w in WORKLOADS {
        for traced in [false, true] {
            let report = run_one(w, DEFAULT_SEED, 0.0, traced, Scale::Check, &dir);
            let expected: Vec<&str> = if traced {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            for name in &expected {
                let hits: Vec<_> = report.metrics.iter().filter(|m| m.name == *name).collect();
                match hits.as_slice() {
                    [m] if m.summary.median.is_finite() => {}
                    [m] => problems.push(format!(
                        "{}: {name} = {} is not finite",
                        w.name, m.summary.median
                    )),
                    _ => problems.push(format!("{}: {name} emitted {} times", w.name, hits.len())),
                }
            }
            for m in &report.metrics {
                if !expected.contains(&m.name) || !valid_name(m.name) {
                    problems.push(format!("{}: unexpected metric `{}`", w.name, m.name));
                }
            }
            problems.extend(report.failures.iter().map(|f| format!("{}: {f}", w.name)));
        }
    }
    for p in &problems {
        println!("check: {p}");
    }
    println!(
        "check: {} workloads x ({} end-to-end + {} per-layer metrics): {}",
        WORKLOADS.len(),
        END_TO_END.len(),
        PER_LAYER.len(),
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    Ok(problems.is_empty())
}

/// Differences between `BENCHMARK.json` and the tables in this program.
fn check_manifest(manifest: &Json) -> Vec<String> {
    fn rows(manifest: &Json, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        let Some(Json::Arr(items)) = manifest.get(key) else {
            return Vec::new();
        };
        items
            .iter()
            .map(|item| {
                fields
                    .iter()
                    .map(|f| match item.get(f) {
                        Some(Json::Str(s)) => s.clone(),
                        Some(Json::Num(x)) => x.to_string(),
                        _ => String::new(),
                    })
                    .collect()
            })
            .collect()
    }
    let mut problems = Vec::new();
    let mut same = |key: &str, fields: &[&str], ours: Vec<Vec<String>>| {
        if rows(manifest, key, fields) != ours {
            problems.push(format!(
                "BENCHMARK.json `{key}` differs from the ledger's table"
            ));
        }
    };
    same(
        "workloads",
        &["name", "why"],
        WORKLOADS
            .iter()
            .map(|w| vec![w.name.to_string(), w.why.to_string()])
            .collect(),
    );
    same(
        "end_to_end",
        &["name", "unit", "better", "bound"],
        END_TO_END
            .iter()
            .map(|m| {
                vec![
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound.to_string(),
                ]
            })
            .collect(),
    );
    same(
        "per_layer",
        &["name", "unit", "better"],
        PER_LAYER
            .iter()
            .map(|m| vec![m.name.into(), m.unit.into(), m.better.as_str().into()])
            .collect(),
    );
    if manifest.get("run_seconds").and_then(Json::as_f64) != Some(DEFAULT_SECONDS) {
        problems.push(format!(
            "BENCHMARK.json `run_seconds` is not {DEFAULT_SECONDS}"
        ));
    }
    problems
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if let Some((a, b)) = &args.compare {
            Ok(compare::compare(&load(a)?, &load(b)?))
        } else if args.check {
            check()
        } else if let Some(name) = &args.workload {
            one_workload(&args, name)
        } else {
            all_workloads(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
