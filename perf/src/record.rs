//! The record one run leaves behind, the set `all` collects, and the
//! comparison `perf compare` makes between two sets.

use crate::catalog::{self, Better, Bound};
use crate::json::{self, Value};

pub const RECORD_SCHEMA: &str = "poseidon.perf.v1";
pub const SET_SCHEMA: &str = "poseidon.perf.set.v1";

/// What the numbers were measured on and with.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// What `poseidon_par` resolved to, left at its shipping default.
    pub par_threads: usize,
    /// Dispatcher shards of the service (0 for in-process workloads).
    pub service_shards: usize,
    /// Load-generator threads, one connection each (1 in process).
    pub client_threads: usize,
}

/// One metric of a record: `None` where it does not apply to the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: String,
}

/// One run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// A tenth of the run length: a smoke test, refused by `compare`.
    pub quick: bool,
    /// Per-layer run; its end-to-end numbers are never used.
    pub traced: bool,
    pub host: Host,
    /// Operations behind the latency percentiles.
    pub samples: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    /// What failed, when something did.
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Record {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
    }

    /// The whole record. The last key is the claim this benchmark makes
    /// about performance: none.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("schema", Value::Str(RECORD_SCHEMA.into())),
            ("workload", Value::Str(self.workload.clone())),
            ("seed", Value::Num(self.seed as f64)),
            ("seconds", Value::Num(self.seconds)),
            ("quick", Value::Bool(self.quick)),
            ("traced", Value::Bool(self.traced)),
            (
                "host",
                Value::obj([
                    ("cores", Value::Num(self.host.cores as f64)),
                    ("par_threads", Value::Num(self.host.par_threads as f64)),
                    (
                        "service_shards",
                        Value::Num(self.host.service_shards as f64),
                    ),
                    (
                        "client_threads",
                        Value::Num(self.host.client_threads as f64),
                    ),
                ]),
            ),
            ("samples", Value::Num(self.samples as f64)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("correct", Value::Bool(self.correct)),
            (
                "notes",
                Value::Arr(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics", metrics_json(&self.metrics, false)),
            ("claim", Value::Null),
        ])
    }

    /// The last line of a run, in the driver's shape: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, every value a number. A metric
    /// that does not apply to the workload reads `null` in the record and
    /// the printed table; here, where only numbers are allowed, it reads 0.
    pub fn driver_line(&self, names: &[&str]) -> Value {
        let listed: Vec<Metric> = self
            .metrics
            .iter()
            .filter(|m| names.contains(&m.name.as_str()))
            .cloned()
            .collect();
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", metrics_json(&listed, true)),
        ])
    }

    /// Reads a record back.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped member.
    pub fn from_json(v: &Value) -> Result<Record, String> {
        let str_of = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("record: no string {key:?}"))
        };
        let num_of = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("record: no number {key:?}"))
        };
        let bool_of = |key: &str| {
            v.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| format!("record: no boolean {key:?}"))
        };
        if str_of("schema")? != RECORD_SCHEMA {
            return Err(format!("record: schema is not {RECORD_SCHEMA}"));
        }
        let host = v.get("host").ok_or("record: no host")?;
        let metrics = v
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("record: no metrics")?
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: m.get("value").and_then(Value::as_f64),
                    unit: m
                        .get("unit")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("record: metric {name:?} has no unit"))?
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Record {
            workload: str_of("workload")?,
            seed: num_of(v, "seed")? as u64,
            seconds: num_of(v, "seconds")?,
            quick: bool_of("quick")?,
            traced: bool_of("traced")?,
            host: Host {
                cores: num_of(host, "cores")? as usize,
                par_threads: num_of(host, "par_threads")? as usize,
                service_shards: num_of(host, "service_shards")? as usize,
                client_threads: num_of(host, "client_threads")? as usize,
            },
            samples: num_of(v, "samples")? as u64,
            attempted: num_of(v, "attempted")? as u64,
            failed: num_of(v, "failed")? as u64,
            correct: bool_of("correct")?,
            notes: v
                .get("notes")
                .and_then(Value::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
            metrics,
        })
    }
}

fn metrics_json(metrics: &[Metric], numbers_only: bool) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = match m.value {
                    Some(x) if x.is_finite() => Value::Num(x),
                    _ if numbers_only => Value::Num(0.0),
                    _ => Value::Null,
                };
                (
                    m.name.clone(),
                    Value::obj([("value", value), ("unit", Value::Str(m.unit.clone()))]),
                )
            })
            .collect(),
    )
}

/// The records of one `all`, as one document.
pub fn set_to_json(records: &[Record]) -> Value {
    Value::obj([
        ("schema", Value::Str(SET_SCHEMA.into())),
        (
            "records",
            Value::Arr(records.iter().map(Record::to_json).collect()),
        ),
        ("claim", Value::Null),
    ])
}

/// Reads a result set, or a single record as a set of one.
///
/// # Errors
///
/// The text is not JSON, or not a record or set of this benchmark.
pub fn set_from_text(text: &str) -> Result<Vec<Record>, String> {
    let v = json::parse(text)?;
    match v.get("schema").and_then(Value::as_str) {
        Some(RECORD_SCHEMA) => Ok(vec![Record::from_json(&v)?]),
        Some(SET_SCHEMA) => v
            .get("records")
            .and_then(Value::as_arr)
            .ok_or("set: no records")?
            .iter()
            .map(Record::from_json)
            .collect(),
        _ => Err(format!(
            "neither a {RECORD_SCHEMA} record nor a {SET_SCHEMA} set"
        )),
    }
}

/// One metric of one workload on which two sets disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Disagreement {
    pub workload: String,
    pub metric: String,
    pub baseline: f64,
    pub candidate: f64,
    /// How much worse the candidate may read, in the metric's unit.
    pub allowed: f64,
}

/// How much worse than `baseline` a value of `metric` may read.
pub fn allowed_worsening(bound: Bound, baseline: f64) -> f64 {
    match bound {
        Bound::Relative(share) => share * baseline.abs(),
        Bound::Absolute(by) => by,
    }
}

/// Applies every end-to-end metric's bound: the candidate may not read
/// worse than the baseline by more than the bound, on any workload both
/// sets hold. A metric one side lacks is skipped.
///
/// # Errors
///
/// A quick or traced record on either side: neither measures end to end.
pub fn compare(baseline: &[Record], candidate: &[Record]) -> Result<Vec<Disagreement>, String> {
    for r in baseline.iter().chain(candidate) {
        if r.quick {
            return Err(format!("{}: a quick record is a smoke test", r.workload));
        }
        if r.traced {
            return Err(format!(
                "{}: end-to-end metrics are never taken from a traced run",
                r.workload
            ));
        }
    }
    let mut out = Vec::new();
    for base in baseline {
        let Some(cand) = candidate.iter().find(|c| c.workload == base.workload) else {
            continue;
        };
        for m in &catalog::END_TO_END {
            let (Some(b), Some(c)) = (base.metric(m.name), cand.metric(m.name)) else {
                continue;
            };
            let worse_by = match m.better {
                Better::Lower => c - b,
                Better::Higher => b - c,
            };
            let allowed = allowed_worsening(m.bound, b);
            if worse_by > allowed {
                out.push(Disagreement {
                    workload: base.workload.clone(),
                    metric: m.name.to_string(),
                    baseline: b,
                    candidate: c,
                    allowed,
                });
            }
        }
    }
    Ok(out)
}
