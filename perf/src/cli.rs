//! The command line: `run`, `all`, `compare`, `validate`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::catalog::{self, Bound};
use crate::harness::{self, Options};
use crate::json::{self, Value};
use crate::record::{self, Record};
use crate::stats;
use crate::workloads;

const USAGE: &str = "\
usage:
  perf run --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--quick] [--out <dir>]
      one workload in this process: checks its outputs, prints every metric
      by name with its unit, writes <dir>/<name>.json (or .traced.json and
      .trace.json), and prints one JSON result as the last line
  perf all [--seed <u64>] [--seconds <s>] [--trace 0|1] [--quick] [--out <dir>]
      the six workloads, each as a child process; writes <dir>/results.json
  perf compare <baseline.json> <candidate.json>
      applies each end-to-end metric's bound; exits 1 on a regression
  perf validate <BENCHMARK.json> [record.json ...]
      checks the manifest and records against the benchmark's catalogue

  --trace 1 (or --traced) is the per-layer run; build with
  `--features telemetry` so the program's own counters are read too.
  --quick measures a tenth as long; its record is refused by compare.
workloads: boot_inproc prog_rot prog_mul serve_program serve_mix_pipelined serve_light_open";

/// Seconds one run measures when `--seconds` is not given; the same as
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

pub fn main(args: Vec<String>) -> ExitCode {
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_options(&args[1..]).and_then(|o| run(&o)),
        Some("all") => parse_options(&args[1..]).and_then(|o| all(&o)),
        Some("compare") => compare(&args[1..]),
        Some("validate") => validate(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        out_dir: PathBuf::from("perf/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value("a name")?.clone(),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => opts.traced = true,
            "--quick" => opts.quick = true,
            "--out" => opts.out_dir = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn record_path(opts: &Options, workload: &str) -> PathBuf {
    let suffix = if opts.traced { "traced.json" } else { "json" };
    opts.out_dir.join(format!("{workload}.{suffix}"))
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_record(r: &Record) {
    println!(
        "workload {}  seed {}  {} s{}{}  cores {}  par threads {}  shards {}  client threads {}",
        r.workload,
        r.seed,
        r.seconds,
        if r.quick { "  quick" } else { "" },
        if r.traced { "  traced" } else { "" },
        r.host.cores,
        r.host.par_threads,
        r.host.service_shards,
        r.host.client_threads,
    );
    let tail = stats::highest_supported_percentile(r.samples as usize)
        .map_or("none".to_string(), |p| format!("p{p}"));
    println!(
        "operations: {} attempted, {} failed, {} timed (highest percentile with ten samples beyond it: {tail})",
        r.attempted, r.failed, r.samples
    );
    for m in &r.metrics {
        let value = m.value.map_or("null".to_string(), |v| format!("{v}"));
        let bound = match catalog::end_to_end(&m.name).map(|e| e.bound) {
            Some(Bound::Relative(share)) => format!("  (bound {} %)", share * 100.0),
            Some(Bound::Absolute(by)) => format!("  (bound {by} absolute)"),
            None => String::new(),
        };
        println!("{:<40} {:>24} {}{}", m.name, value, m.unit, bound);
    }
    for note in &r.notes {
        println!("check failed: {note}");
    }
}

/// `perf run`: `Ok(false)` when an operation or an output check failed.
fn run(opts: &Options) -> Result<bool, String> {
    if catalog::workload(&opts.workload).is_none() {
        return Err(format!("unknown workload {:?}\n{USAGE}", opts.workload));
    }
    harness::condition_host(opts);
    let outcome = workloads::run(opts)?;
    let record = harness::finish(opts, outcome)?;
    print_record(&record);
    write_file(
        &record_path(opts, &opts.workload),
        &(record.to_json().render() + "\n"),
    )?;
    let names: Vec<&str> = if opts.traced {
        catalog::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        catalog::END_TO_END
            .iter()
            .filter(|m| m.gated)
            .map(|m| m.name)
            .collect()
    };
    println!("{}", record.driver_line(&names).render());
    Ok(record.correct)
}

/// `perf all`: every workload in a fresh process of this same executable.
fn all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut records = Vec::new();
    let mut ok = true;
    for w in &catalog::WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .arg("run")
            .args(["--workload", w.name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&opts.out_dir);
        if opts.quick {
            child.arg("--quick");
        }
        // `status` waits for the child to end.
        let status = child
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        ok &= status.success();
        let path = record_path(opts, w.name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        records.extend(record::set_from_text(&text)?);
        println!();
    }
    let name = if opts.traced {
        "results.traced.json"
    } else {
        "results.json"
    };
    let path = opts.out_dir.join(name);
    write_file(&path, &(record::set_to_json(&records).render() + "\n"))?;
    let summary = Value::obj([
        ("wrote", Value::Str(path.display().to_string())),
        (
            "workloads",
            Value::Arr(
                records
                    .iter()
                    .map(|r| {
                        Value::obj([
                            ("name", Value::Str(r.workload.clone())),
                            ("correct", Value::Bool(r.correct)),
                            ("attempted", Value::Num(r.attempted as f64)),
                            ("failed", Value::Num(r.failed as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("claim", Value::Null),
    ]);
    println!("{}", summary.render());
    Ok(ok)
}

fn read_set(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    record::set_from_text(&text).map_err(|e| format!("{path}: {e}"))
}

/// `perf compare`: `Ok(false)` when the candidate regressed.
fn compare(args: &[String]) -> Result<bool, String> {
    let [baseline, candidate] = args else {
        return Err(USAGE.to_string());
    };
    let (a, b) = (read_set(baseline)?, read_set(candidate)?);
    let found = record::compare(&a, &b)?;
    for base in &a {
        let Some(cand) = b.iter().find(|c| c.workload == base.workload) else {
            continue;
        };
        for m in &catalog::END_TO_END {
            if let (Some(x), Some(y)) = (base.metric(m.name), cand.metric(m.name)) {
                let verdict = if found
                    .iter()
                    .any(|d| d.workload == base.workload && d.metric == m.name)
                {
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "{:<20} {:<20} {:>16} -> {:>16} {:<6} {verdict}",
                    base.workload, m.name, x, y, m.unit
                );
            }
        }
    }
    for d in &found {
        println!(
            "{} {}: {} against a baseline of {} is worse by more than {}",
            d.workload, d.metric, d.candidate, d.baseline, d.allowed
        );
    }
    Ok(found.is_empty())
}

/// The driver's limits on names, units and one-line reasons.
fn name_ok(s: &str) -> bool {
    let first = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    first
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn check_manifest(manifest: &Value, problems: &mut Vec<String>) {
    let keys: Vec<&str> = manifest
        .as_obj()
        .map(|pairs| pairs.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    if sorted
        != [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads",
        ]
    {
        problems.push(format!("manifest keys are {keys:?}"));
    }
    let list = |key: &str| manifest.get(key).and_then(Value::as_arr).unwrap_or(&[]);
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_string();

    if manifest.get("run_seconds").and_then(Value::as_f64) != Some(DEFAULT_SECONDS) {
        problems.push(format!("run_seconds is not {DEFAULT_SECONDS}"));
    }
    let workloads = list("workloads");
    if workloads.len() != catalog::WORKLOADS.len() {
        problems.push(format!("{} workloads listed", workloads.len()));
    }
    for (listed, known) in workloads.iter().zip(&catalog::WORKLOADS) {
        if text(listed, "name") != known.name || text(listed, "why") != known.why {
            problems.push(format!(
                "workload {} differs from the catalogue",
                known.name
            ));
        }
        if known.why.len() > 200 || known.why.contains('\n') || !name_ok(known.name) {
            problems.push(format!(
                "workload {} breaks the manifest limits",
                known.name
            ));
        }
    }
    let gated: Vec<_> = catalog::END_TO_END.iter().filter(|m| m.gated).collect();
    let end_to_end = list("end_to_end");
    if end_to_end.len() != gated.len() {
        problems.push(format!("{} end-to-end metrics listed", end_to_end.len()));
    }
    for (listed, known) in end_to_end.iter().zip(&gated) {
        let bound = match known.bound {
            Bound::Relative(share) => share,
            Bound::Absolute(_) => f64::NAN,
        };
        if text(listed, "name") != known.name
            || text(listed, "unit") != known.unit
            || text(listed, "better") != known.better.as_str()
            || listed.get("bound").and_then(Value::as_f64) != Some(bound)
        {
            problems.push(format!("metric {} differs from the catalogue", known.name));
        }
        let within_limits =
            bound > 0.0 && bound <= 0.25 && name_ok(known.name) && unit_ok(known.unit);
        if !within_limits {
            problems.push(format!("metric {} breaks the manifest limits", known.name));
        }
    }
    let per_layer = list("per_layer");
    if per_layer.len() != catalog::PER_LAYER.len() || per_layer.len() > 128 {
        problems.push(format!("{} per-layer metrics listed", per_layer.len()));
    }
    for (listed, known) in per_layer.iter().zip(&catalog::PER_LAYER) {
        if text(listed, "name") != known.name
            || text(listed, "unit") != known.unit
            || text(listed, "better") != known.better.as_str()
        {
            problems.push(format!("metric {} differs from the catalogue", known.name));
        }
        if !name_ok(known.name) || !unit_ok(known.unit) {
            problems.push(format!("metric {} breaks the manifest limits", known.name));
        }
    }
    let mut names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(catalog::END_TO_END.iter().map(|m| m.name));
    names.extend(catalog::PER_LAYER.iter().map(|m| m.name));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    if names.len() != total {
        problems.push("a name is used twice".into());
    }
}

fn check_record(r: &Record, problems: &mut Vec<String>) {
    let wanted: Vec<(&str, &str)> = if r.traced {
        catalog::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        catalog::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    };
    let got: Vec<(&str, &str)> = r
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    if got != wanted {
        problems.push(format!(
            "{}: metric names or units differ from the catalogue",
            r.workload
        ));
    }
    if catalog::workload(&r.workload).is_none() {
        problems.push(format!("{}: not a workload", r.workload));
    }
    if !r.correct || r.failed > 0 {
        problems.push(format!("{}: {} operations failed", r.workload, r.failed));
    }
    if r.attempted == 0 {
        problems.push(format!("{}: nothing attempted", r.workload));
    }
}

/// `perf validate`: `Ok(false)` when something does not match.
fn validate(args: &[String]) -> Result<bool, String> {
    let Some((manifest_path, record_paths)) = args.split_first() else {
        return Err(USAGE.to_string());
    };
    let text =
        std::fs::read_to_string(manifest_path).map_err(|e| format!("{manifest_path}: {e}"))?;
    if text.len() > 64 << 10 {
        return Err(format!("{manifest_path}: larger than 64 KiB"));
    }
    let manifest = json::parse(&text).map_err(|e| format!("{manifest_path}: {e}"))?;
    let mut problems = Vec::new();
    check_manifest(&manifest, &mut problems);
    for path in record_paths {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        if !raw.trim_end().ends_with("\"claim\": null}") {
            problems.push(format!("{path}: does not end with \"claim\": null"));
        }
        for r in record::set_from_text(&raw).map_err(|e| format!("{path}: {e}"))? {
            check_record(&r, &mut problems);
        }
    }
    for p in &problems {
        println!("invalid: {p}");
    }
    if problems.is_empty() {
        println!(
            "valid: {manifest_path} and {} record file(s) agree with the catalogue",
            record_paths.len()
        );
    }
    Ok(problems.is_empty())
}
