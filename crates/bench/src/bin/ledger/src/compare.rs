//! `ledger --compare A.json B.json`: B against A, metric by metric.

use attila_json::Json;

use crate::metrics::{Better, END_TO_END, PER_LAYER};

/// A metric as `result.json` records it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub p25: f64,
    pub p75: f64,
}

impl Stat {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.value.abs()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Either side's quartile range is wider than the bound: the runs
    /// cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a` metric `b` is worse (negative: better), and what
/// that means against `bound`.
pub fn verdict(better: Better, bound: f64, a: Stat, b: Stat) -> (f64, Verdict) {
    let change = (b.value - a.value) / a.value.abs();
    let worse = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let v = if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, v)
}

fn metric(report: Option<&Json>, name: &str) -> Option<Stat> {
    let m = report?.get("metrics")?.get(name)?;
    let value = m.get("value")?.as_f64()?;
    let quartile = |key| m.get(key).and_then(Json::as_f64).unwrap_or(value);
    Some(Stat {
        value,
        p25: quartile("p25"),
        p75: quartile("p75"),
    })
}

fn workloads(result: &Json) -> Vec<&Json> {
    match result.get("workloads") {
        Some(Json::Arr(rows)) => rows.iter().collect(),
        _ => Vec::new(),
    }
}

/// Prints the comparison; returns whether B passes: no end-to-end
/// regression, every exact count equal, nothing missing.
pub fn compare(a: &Json, b: &Json) -> bool {
    let mut pass = true;
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for wa in workloads(a) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads(b)
            .into_iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<16} missing from B");
            pass = false;
            continue;
        };
        for def in END_TO_END {
            let (sa, sb) = (
                metric(wa.get("end_to_end"), def.name),
                metric(wb.get("end_to_end"), def.name),
            );
            let (Some(sa), Some(sb)) = (sa, sb) else {
                println!("{name:<16} {:<20} missing", def.name);
                pass = false;
                continue;
            };
            let (worse, v) = verdict(def.better, def.bound, sa, sb);
            println!(
                "{name:<16} {:<20} {:>14.6} {:>14.6} {:>+7.1}% {:>5.0}%  {}",
                def.name,
                sa.value,
                sb.value,
                worse * 100.0,
                def.bound * 100.0,
                v.as_str()
            );
            pass &= v != Verdict::Regressed;
        }
        for def in PER_LAYER
            .iter()
            .filter(|d| d.exact && d.name != "host.cores")
        {
            let (sa, sb) = (
                metric(wa.get("per_layer"), def.name),
                metric(wb.get("per_layer"), def.name),
            );
            if sa.map(|s| s.value) != sb.map(|s| s.value) || sa.is_none() {
                println!(
                    "{name:<16} {:<44} exact count differs: {:?} vs {:?}",
                    def.name,
                    sa.map(|s| s.value),
                    sb.map(|s| s.value)
                );
                pass = false;
            }
        }
    }
    println!(
        "{}",
        if pass {
            "PASS: no regression, exact counts equal"
        } else {
            "FAIL"
        }
    );
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Stat {
        Stat {
            value,
            p25: value * 0.99,
            p75: value * 1.01,
        }
    }

    #[test]
    fn verdict_follows_direction_and_bound() {
        // Lower is better: +12 % is past a 10 % bound, +8 % is not.
        assert_eq!(
            verdict(Better::Lower, 0.10, tight(1.0), tight(1.12)).1,
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, tight(1.0), tight(1.08)).1,
            Verdict::Ok
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, tight(1.0), tight(0.5)).1,
            Verdict::Ok
        );
        // Higher is better: the sign flips.
        let (worse, v) = verdict(Better::Higher, 0.10, tight(100.0), tight(85.0));
        assert!((worse - 0.15).abs() < 1e-12);
        assert_eq!(v, Verdict::Regressed);
        assert_eq!(
            verdict(Better::Higher, 0.10, tight(100.0), tight(130.0)).1,
            Verdict::Ok
        );
    }

    #[test]
    fn wide_quartiles_are_unresolved_not_unchanged() {
        let noisy = Stat {
            value: 1.0,
            p25: 0.9,
            p75: 1.1,
        }; // 20 % spread
        assert_eq!(
            verdict(Better::Lower, 0.10, tight(1.0), noisy).1,
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, noisy, tight(1.5)).1,
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(Better::Lower, 0.25, noisy, tight(1.0)).1,
            Verdict::Ok
        );
    }

    #[test]
    fn compare_requires_exact_counts_equal() {
        let result = |cycles: f64, wall: f64| {
            let e2e: Vec<(String, Json)> = END_TO_END
                .iter()
                .map(|d| (d.name.to_string(), Json::obj1("value", Json::Num(wall))))
                .collect();
            let layers: Vec<(String, Json)> = PER_LAYER
                .iter()
                .map(|d| {
                    let v = if d.name == "core.gpu.sim_cycles" {
                        cycles
                    } else {
                        1.0
                    };
                    (d.name.to_string(), Json::obj1("value", Json::Num(v)))
                })
                .collect();
            Json::obj1(
                "workloads",
                Json::Arr(vec![Json::Obj(vec![
                    ("name".into(), Json::Str("w".into())),
                    ("end_to_end".into(), Json::obj1("metrics", Json::Obj(e2e))),
                    ("per_layer".into(), Json::obj1("metrics", Json::Obj(layers))),
                ])]),
            )
        };
        assert!(compare(&result(100.0, 1.0), &result(100.0, 1.0)));
        assert!(
            !compare(&result(100.0, 1.0), &result(101.0, 1.0)),
            "a cycle count moved"
        );
        assert!(
            !compare(
                &result(100.0, 1.0),
                &Json::obj1("workloads", Json::Arr(vec![]))
            ),
            "workload missing"
        );
    }
}
