//! Self-tests of the benchmark at small scale: the result line names every
//! metric `BENCHMARK.json` lists, with its unit; the per-layer counts
//! repeat exactly across two runs with one seed; the layer accounting
//! holds; and a tampering server trips the correctness gate.

use std::collections::BTreeMap;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");
const WORKLOADS: [&str; 3] = ["scan", "lookup", "mixed"];

/// Every end-to-end metric an untraced run prints, gated or reported.
const PRINTED: [&str; 12] = [
    "setup_s",
    "verified_ms_p50",
    "verified_ms_p99",
    "answer_ms_p50",
    "answer_ms_p99",
    "served_qps",
    "update_ms_p50",
    "update_ms_p99",
    "wire_bytes_per_answer",
    "client_state_bytes",
    "rss_mb",
    "failed_frac",
];

/// Per-layer metrics that are counts of work, not times.
const COUNTS: [&str; 12] = [
    "da.sigs_per_update",
    "qs.agg_ops_per_answer",
    "qs.summaries_per_answer",
    "index.node_hit_rate",
    "index.node_evictions_per_query",
    "storage.pool_hit_rate",
    "storage.page_reads_per_query",
    "wire.checkpoint_bytes_per_answer",
    "wire.model_drift",
    "wire.vo_size_error_bytes",
    "verify.records_per_answer",
    "filters.summary_bitmap_bytes",
];

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

/// A minimal JSON reader, enough for the result line and BENCHMARK.json.
fn parse(text: &str) -> Json {
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> Json {
        ws(b, i);
        match b[*i] {
            b'{' => {
                *i += 1;
                let mut m = BTreeMap::new();
                ws(b, i);
                if b[*i] == b'}' {
                    *i += 1;
                    return Json::Obj(m);
                }
                loop {
                    ws(b, i);
                    let Json::Str(k) = value(b, i) else {
                        panic!("object key")
                    };
                    ws(b, i);
                    assert_eq!(b[*i], b':');
                    *i += 1;
                    let v = value(b, i);
                    assert!(m.insert(k, v).is_none(), "duplicate key");
                    ws(b, i);
                    *i += 1;
                    if b[*i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut v = Vec::new();
                ws(b, i);
                if b[*i] == b']' {
                    *i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(value(b, i));
                    ws(b, i);
                    *i += 1;
                    if b[*i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                *i += 1;
                let mut s = String::new();
                while b[*i] != b'"' {
                    if b[*i] == b'\\' {
                        *i += 1;
                    }
                    s.push(b[*i] as char);
                    *i += 1;
                }
                *i += 1;
                Json::Str(s)
            }
            b't' => {
                *i += 4;
                Json::Bool(true)
            }
            b'f' => {
                *i += 5;
                Json::Bool(false)
            }
            b'n' => {
                *i += 4;
                Json::Null
            }
            _ => {
                let start = *i;
                while *i < b.len() && b"+-.eE0123456789".contains(&b[*i]) {
                    *i += 1;
                }
                Json::Num(std::str::from_utf8(&b[start..*i]).unwrap().parse().unwrap())
            }
        }
    }
    let b = text.as_bytes();
    let mut i = 0;
    let v = value(b, &mut i);
    ws(b, &mut i);
    assert_eq!(i, b.len(), "trailing input");
    v
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Output {
    Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1.5",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--small"])
        .args(extra)
        .output()
        .expect("run the benchmark")
}

fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse(stdout.lines().last().expect("a result line"))
}

fn listed(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let Json::Arr(entries) = parse(&text).get(section).clone() else {
        panic!("{section} is a list")
    };
    entries
        .iter()
        .map(|e| {
            (
                e.get("name").str().to_string(),
                e.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn metrics(line: &Json) -> BTreeMap<String, (f64, String)> {
    let Json::Obj(m) = line.get("metrics") else {
        panic!("metrics object")
    };
    m.iter()
        .map(|(k, v)| {
            (
                k.clone(),
                (v.get("value").num(), v.get("unit").str().to_string()),
            )
        })
        .collect()
}

#[test]
fn every_listed_metric_is_printed_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = listed(section);
        for w in WORKLOADS {
            let out = run(w, 7, trace, &[]);
            assert!(
                out.status.success(),
                "{w}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let line = result_line(&out);
            assert_eq!(line.get("correct"), &Json::Bool(true), "{w}");
            assert!(line.get("attempted").num() >= 1.0);
            assert_eq!(line.get("failed").num(), 0.0, "{w}");
            let got = metrics(&line);
            let got_names: Vec<_> = got.keys().cloned().collect();
            let mut want_names: Vec<_> = want.iter().map(|w| w.0.clone()).collect();
            want_names.sort();
            assert_eq!(got_names, want_names, "{w} trace {trace}");
            for (name, unit) in &want {
                let (value, got_unit) = &got[name];
                assert_eq!(got_unit, unit, "{w} {name}");
                assert!(value.is_finite(), "{w} {name}");
                if !trace {
                    assert!(*value > 0.0, "{w} {name} reads 0");
                }
            }
            if !trace {
                let stdout = String::from_utf8_lossy(&out.stdout);
                for name in PRINTED {
                    assert!(
                        stdout
                            .lines()
                            .any(|l| l.starts_with(&format!("metric {name} = "))),
                        "{w} prints no {name}"
                    );
                }
            }
        }
    }
}

#[test]
fn per_layer_counts_repeat_across_seeded_runs() {
    for w in WORKLOADS {
        let a = metrics(&result_line(&run(w, 11, true, &[])));
        let b = metrics(&result_line(&run(w, 11, true, &[])));
        for name in COUNTS {
            assert_eq!(a[name].0, b[name].0, "{w} {name}");
        }
    }
}

#[test]
fn layer_self_times_account_for_the_verified_latency() {
    for w in ["scan", "mixed"] {
        let m = metrics(&result_line(&run(w, 3, true, &[])));
        let residual = m["trace.accounting_residual"].0;
        assert!(residual.abs() <= 0.10, "{w}: residual {residual}");
    }
}

#[test]
fn a_tampering_server_trips_the_gate() {
    for w in WORKLOADS {
        let out = run(w, 5, false, &["--tamper"]);
        assert!(!out.status.success(), "{w}: tampered run passed");
        let line = result_line(&out);
        assert_eq!(line.get("correct"), &Json::Bool(false), "{w}");
        assert!(line.get("failed").num() >= 1.0, "{w}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("FAILED"), "{w}: no typed failure printed");
    }
}
