//! Records: JSON round trip, the driver's line, `compare`, and the parsers
//! of `/proc`.

use perf::json::{self, Value};
use perf::procfs;
use perf::record::{self, Host, Metric, Record};

fn record(workload: &str, metrics: &[(&str, Option<f64>, &str)]) -> Record {
    Record {
        workload: workload.to_string(),
        seed: 18_446_744_073_709,
        seconds: 10.0,
        quick: false,
        traced: false,
        host: Host {
            cores: 2,
            par_threads: 2,
            service_shards: 2,
            client_threads: 2,
        },
        samples: 1500,
        attempted: 1500,
        failed: 0,
        correct: true,
        notes: vec!["a \"quoted\" note\nwith a newline".to_string()],
        metrics: metrics
            .iter()
            .map(|(name, value, unit)| Metric {
                name: name.to_string(),
                value: *value,
                unit: unit.to_string(),
            })
            .collect(),
    }
}

fn baseline() -> Record {
    record(
        "serve_light_open",
        &[
            ("setup_s", Some(0.151_234_567_891), "s"),
            ("latency_p50_ms", Some(4.6), "ms"),
            ("latency_p90_ms", Some(7.5), "ms"),
            ("throughput_ops_s", Some(99.5), "1/s"),
            ("cpu_s_per_op", Some(0.0047), "s"),
            ("peak_rss_mb", Some(120.0), "MB"),
            ("within_limit_share", Some(0.999), "share"),
            ("failed_share", Some(0.0), "share"),
        ],
    )
}

fn with(mut r: Record, name: &str, value: f64) -> Record {
    r.metrics
        .iter_mut()
        .find(|m| m.name == name)
        .expect("metric exists")
        .value = Some(value);
    r
}

#[test]
fn a_record_survives_a_round_trip_through_json() {
    let r = record(
        "prog_rot",
        &[
            ("latency_p50_ms", Some(548.678_579), "ms"),
            ("within_limit_share", None, "share"),
            ("serve.tcp.overhead_ns", Some(-350.0), "ns"),
        ],
    );
    let text = r.to_json().render();
    assert!(text.ends_with("\"claim\": null}"), "{text}");
    assert!(text.contains("\"within_limit_share\": {\"value\": null"));
    let back = Record::from_json(&json::parse(&text).expect("valid json")).expect("a record");
    assert_eq!(back, r);

    let set = record::set_to_json(&[r.clone(), baseline()]).render();
    assert!(set.ends_with("\"claim\": null}"));
    assert_eq!(
        record::set_from_text(&set).expect("a set"),
        [r.clone(), baseline()]
    );
    assert_eq!(record::set_from_text(&text).expect("a set of one"), [r]);
    assert!(record::set_from_text("{\"schema\": \"other\"}").is_err());
}

#[test]
fn the_driver_line_has_four_keys_and_only_numbers() {
    let r = record(
        "prog_rot",
        &[
            ("ntt.forward.count", Some(1234.0), "count"),
            ("serve.onion.tcp_ns", None, "ns"),
            ("not.listed", Some(1.0), "ns"),
        ],
    );
    let line = r.driver_line(&["ntt.forward.count", "serve.onion.tcp_ns"]);
    let keys: Vec<&str> = line
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = line
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics");
    assert_eq!(metrics.len(), 2);
    assert_eq!(
        line.render(),
        "{\"correct\": true, \"attempted\": 1500, \"failed\": 0, \"metrics\": \
         {\"ntt.forward.count\": {\"value\": 1234, \"unit\": \"count\"}, \
         \"serve.onion.tcp_ns\": {\"value\": 0, \"unit\": \"ns\"}}}"
    );
}

#[test]
fn numbers_keep_their_digits_and_text_keeps_its_escapes() {
    let v = Value::obj([
        ("t", Value::Num(1.203_456_789_012_3)),
        ("whole", Value::Num(2160.0)),
        ("neg", Value::Num(-0.5)),
        ("nan", Value::Num(f64::NAN)),
        ("s", Value::Str("tab\there \\ \"q\" \u{1}".into())),
        ("list", Value::Arr(vec![Value::Bool(false), Value::Null])),
    ]);
    let text = v.render();
    assert!(text.contains("1.2034567890123"));
    assert!(text.contains("\"whole\": 2160,"));
    let back = json::parse(&text).expect("valid json");
    assert_eq!(back.get("t"), Some(&Value::Num(1.203_456_789_012_3)));
    assert_eq!(back.get("nan"), Some(&Value::Null));
    assert_eq!(back.get("s"), v.get("s"));
    assert_eq!(back.get("list"), v.get("list"));
    assert_eq!(
        json::parse("  [1e3, -2.5E-1, \"\\u00e9\"] ").expect("valid"),
        {
            Value::Arr(vec![
                Value::Num(1000.0),
                Value::Num(-0.25),
                Value::Str("é".into()),
            ])
        }
    );
    for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "1 2", "\"open"] {
        assert!(json::parse(bad).is_err(), "{bad:?} parsed");
    }
}

#[test]
fn compare_applies_each_metric_its_own_bound() {
    let base = [baseline()];
    // Inside every bound, better or worse: agreement.
    let close = with(
        with(baseline(), "latency_p50_ms", 5.7),
        "throughput_ops_s",
        120.0,
    );
    assert_eq!(record::compare(&base, &[close]), Ok(vec![]));

    // 25 % on the median: 4.6 -> 5.8 is worse by more than 1.15.
    let slow =
        record::compare(&base, &[with(baseline(), "latency_p50_ms", 5.8)]).expect("compared");
    assert_eq!(slow.len(), 1);
    assert_eq!(
        (slow[0].metric.as_str(), slow[0].workload.as_str()),
        ("latency_p50_ms", "serve_light_open")
    );
    // Higher is better for throughput: a drop regresses, a rise never does.
    assert_eq!(
        record::compare(&base, &[with(baseline(), "throughput_ops_s", 70.0)])
            .expect("compared")
            .len(),
        1
    );
    assert_eq!(
        record::compare(&base, &[with(baseline(), "throughput_ops_s", 500.0)]),
        Ok(vec![])
    );
    // The shares are absolute: two points on the limit, nothing on failures.
    assert_eq!(
        record::compare(&base, &[with(baseline(), "within_limit_share", 0.98)]),
        Ok(vec![])
    );
    assert_eq!(
        record::compare(&base, &[with(baseline(), "within_limit_share", 0.97)])
            .expect("compared")
            .len(),
        1
    );
    assert_eq!(
        record::compare(&base, &[with(baseline(), "failed_share", 0.001)])
            .expect("compared")
            .len(),
        1
    );
    // A workload or a metric only one side has is skipped.
    let mut other = baseline();
    other.workload = "prog_mul".into();
    assert_eq!(record::compare(&base, &[other]), Ok(vec![]));
}

#[test]
fn compare_refuses_quick_and_traced_records() {
    let mut quick = baseline();
    quick.quick = true;
    assert!(record::compare(&[baseline()], &[quick]).is_err());
    let mut traced = baseline();
    traced.traced = true;
    assert!(record::compare(&[traced], &[baseline()]).is_err());
}

#[test]
fn proc_stat_is_read_past_a_command_name_with_spaces_and_parentheses() {
    let stat = "4242 (perf (run) x) S 1 4242 4242 0 -1 4194304 2345 0 0 0 \
                1234 567 0 0 20 0 3 0 8912345 123456789 2500 18446744073709551615";
    let cpu = procfs::parse_stat(stat).expect("parses");
    assert_eq!((cpu.user_s, cpu.sys_s), (12.34, 5.67));
    assert!((cpu.total_s() - 18.01).abs() < 1e-9);
    let later = procfs::CpuTimes {
        user_s: 13.0,
        sys_s: 6.0,
    };
    let spent = later.since(&cpu);
    assert!((spent.user_s - 0.66).abs() < 1e-9 && (spent.sys_s - 0.33).abs() < 1e-9);
    assert_eq!(procfs::parse_stat("no parenthesis"), None);

    let status = "Name:\tperf\nVmPeak:\t  999 kB\nVmHWM:\t  241372 kB\nVmRSS:\t 1000 kB\n";
    assert_eq!(procfs::parse_vm_hwm_kb(status), Some(241_372));
    assert_eq!(procfs::parse_vm_hwm_kb("Name:\tperf\n"), None);
    assert_eq!(procfs::parse_vm_rss_kb(status), Some(1000));
    // And the live files parse on this host.
    assert!(procfs::cpu_times().is_ok());
    let peak = procfs::peak_rss_mb().expect("VmHWM");
    assert!(peak > 1.0 && procfs::rss_mb().expect("VmRSS") > 1.0);
}
