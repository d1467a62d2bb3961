//! `shrinkbench` command line.
//!
//! ```text
//! shrinkbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! shrinkbench suite [--seed <n>] [--seconds <s>] [--traced] [--out <dir>]
//! shrinkbench stability [--seed <n>] [--seconds <s>]
//! shrinkbench spec
//! ```
//!
//! The first form measures one workload and ends its output with one JSON
//! line (`correct`, `attempted`, `failed`, `metrics`): the end-to-end
//! metrics untraced (`--trace 0`), the per-layer ones traced (`--trace 1`).
//! `suite` runs every workload, each in a child process of its own so that
//! peak memory and CPU time belong to one workload. `stability` runs the
//! suite twice and checks that the two sets of medians agree within each
//! metric's bound (deterministic metrics: bit for bit). `spec` prints
//! `BENCHMARK.json`. Every form exits non-zero when a check fails.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use shrinkbench::outcome::Outcome;
use shrinkbench::run::{self, RunOpts};
use shrinkbench::spans::Spans;
use shrinkbench::spec::{self, Metric, END_TO_END, PER_LAYER};
use shrinkbench::traced;
use shrinkbench::workload::Workload;
use shrinksvm_obs::json::{self, Value};

const USAGE: &str = "usage:
  shrinkbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  shrinkbench suite [--seed <n>] [--seconds <s>] [--traced] [--out <dir>]
  shrinkbench stability [--seed <n>] [--seconds <s>]
  shrinkbench spec";

/// Parsed command line.
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 0,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--traced" => args.trace = true,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "suite" | "stability" | "spec" if args.command.is_none() => args.command = Some(arg),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("shrinkbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.command.as_deref(), &args.workload) {
        (None, Some(name)) => match Workload::by_name(name) {
            Some(w) => measure_one(&w, &args),
            None => {
                let names: Vec<_> = Workload::all().iter().map(|w| w.name).collect();
                eprintln!("shrinkbench: unknown workload '{name}' (one of {names:?})");
                return ExitCode::from(2);
            }
        },
        (Some("suite"), None) => suite(&args, args.trace).is_some(),
        (Some("stability"), None) => stability(&args),
        (Some("spec"), None) => {
            print!("{}", spec::benchmark_json());
            true
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Measure one workload in this process; print the metrics and the JSON
/// result line. Returns whether every check passed.
fn measure_one(w: &Workload, args: &Args) -> bool {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        out: args.out.clone(),
    };
    let mut spans = Spans::default();
    let (outcome, table): (Outcome, &[Metric]) = if args.trace {
        (traced::measure(w, &opts, &mut spans), &PER_LAYER)
    } else {
        (run::measure(w, &opts, &mut spans), &END_TO_END)
    };
    println!(
        "workload {} (seed {}, {})",
        w.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    print!("{}", outcome.render_text(table));
    println!("{}", outcome.to_json_line(table));
    outcome.correct()
}

/// One workload's result line, raw and parsed.
struct RunResult {
    key: String,
    line: String,
    value: Value,
}

/// Run every workload in a child process, traced too when `traced`; return
/// each one's result (`None` if any child failed or reported a failed
/// check). Writes `RESULTS.json` to the output directory.
fn suite(args: &Args, traced: bool) -> Option<Vec<RunResult>> {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut results = Vec::new();
    let mut all_ok = true;
    let passes: &[bool] = if traced { &[false, true] } else { &[false] };
    for w in Workload::all() {
        for &trace in passes {
            let output = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out)
                .stderr(Stdio::inherit())
                .output();
            let output = match output {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("shrinkbench: cannot start {}: {e}", exe.display());
                    return None;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let line = stdout.lines().last().unwrap_or_default().to_string();
            match json::parse(&line) {
                Ok(value) if output.status.success() => results.push(RunResult {
                    key: format!("{}{}", w.name, if trace { ".traced" } else { "" }),
                    line,
                    value,
                }),
                _ => {
                    eprintln!("shrinkbench: {} failed ({})", w.name, output.status);
                    all_ok = false;
                }
            }
        }
    }
    let members: Vec<String> = results
        .iter()
        .map(|r| format!("\n  \"{}\": {}", r.key, r.line))
        .collect();
    let doc = format!(
        "{{\"seed\": {}, \"results\": {{{}\n}}}}\n",
        args.seed,
        members.join(",")
    );
    let path = args.out.join("RESULTS.json");
    if let Err(e) = std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, doc)) {
        eprintln!("shrinkbench: writing {}: {e}", path.display());
        return None;
    }
    all_ok.then_some(results)
}

/// Run the untraced suite twice and compare each end-to-end median.
fn stability(args: &Args) -> bool {
    let (Some(first), Some(second)) = (suite(args, false), suite(args, false)) else {
        return false;
    };
    println!(
        "\n{:<22} {:<20} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "change", "bound"
    );
    let mut ok = true;
    for (a, b) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let value = |r: &RunResult| {
                r.value
                    .get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Value::as_f64)
            };
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                println!("{:<22} {:<20} missing", a.key, m.name);
                ok = false;
                continue;
            };
            let (agree, verdict) = agreement(m, x, y);
            ok &= agree;
            println!(
                "{:<22} {:<20} {x:>14.6} {y:>14.6} {:>7.2}% {:>6.1}%  {verdict}",
                a.key,
                m.name,
                100.0 * (y - x) / x,
                100.0 * m.bound.unwrap_or(0.0),
            );
        }
    }
    println!(
        "stability: {}",
        if ok {
            "all pairs agree"
        } else {
            "DISAGREEMENT"
        }
    );
    ok
}

/// Whether two medians of metric `m` agree: bit for bit when the metric is
/// deterministic, else within the metric's bound of each other (relative
/// to the first).
fn agreement(m: &Metric, first: f64, second: f64) -> (bool, &'static str) {
    if m.deterministic {
        let same = first.to_bits() == second.to_bits();
        return (same, if same { "identical" } else { "NOT IDENTICAL" });
    }
    let bound = m.bound.expect("end-to-end metrics carry a bound");
    if ((second - first) / first).abs() <= bound {
        (true, "within bound")
    } else {
        (false, "OUTSIDE BOUND")
    }
}
