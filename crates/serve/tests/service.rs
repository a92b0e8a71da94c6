//! Service-level acceptance tests.
//!
//! Two contracts from the issue that motivated the serve crate:
//!
//! * **identity** — a job submitted over HTTP returns the byte-identical
//!   solution of a single-shot local run, at any engine thread count;
//! * **scale** — 100 concurrent jobs all terminate in typed outcomes
//!   with zero hangs, and repeat-library jobs ride the cross-job caches.

use std::time::{Duration, Instant};

use svtox_cells::{Library, LibraryOptions};
use svtox_core::{DelayPenalty, ExecConfig, Mode, Problem, RunOutcome};
use svtox_netlist::generators::{random_dag, RandomDagSpec};
use svtox_netlist::{map_to_primitives, parse_bench, EditScript, MappingOptions};
use svtox_obs::json;
use svtox_serve::http::call;
use svtox_serve::loadgen::{self, LoadgenConfig};
use svtox_serve::{start, ServerConfig};
use svtox_sta::TimingConfig;
use svtox_tech::Technology;

/// A generated circuit small enough that the exact search exhausts in
/// well under a second — identity needs runs that truly complete.
fn identity_bench_text() -> String {
    let netlist =
        random_dag(&RandomDagSpec::new("serve-identity", 7, 4, 32, 5)).expect("spec is valid");
    netlist.to_bench()
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    let response = call(addr, "POST", path, body, Duration::from_secs(30)).expect("POST succeeds");
    (response.status, response.body)
}

fn get_json(addr: &str, path: &str) -> json::Value {
    let response = call(addr, "GET", path, "", Duration::from_secs(30)).expect("GET succeeds");
    json::parse(&response.body).expect("response is JSON")
}

fn wait_done(addr: &str, id: u64) -> json::Value {
    let give_up = Instant::now() + Duration::from_secs(120);
    loop {
        let doc = get_json(addr, &format!("/jobs/{id}"));
        if doc.get("state").and_then(|v| v.as_str()) == Some("done") {
            return doc;
        }
        assert!(Instant::now() < give_up, "job {id} hung");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn field<'a>(doc: &'a json::Value, name: &str) -> &'a str {
    doc.get(name)
        .and_then(|v| v.as_str())
        .unwrap_or_else(|| panic!("missing `{name}` in {doc}"))
}

/// An HTTP-submitted job must reproduce a local single-shot run bit for
/// bit — same standby vector, same per-gate choices, same leakage and
/// delay down to the f64 bit patterns — swept across pool thread counts.
#[test]
fn http_job_is_byte_identical_to_a_local_run_across_thread_counts() {
    let bench = identity_bench_text();

    // The local reference: the same text through the same pipeline.
    let raw = parse_bench(&bench).expect("bench text parses");
    let netlist = map_to_primitives(&raw, MappingOptions::default()).expect("maps");
    let library = Library::new(Technology::predictive_65nm(), LibraryOptions::default())
        .expect("library characterizes");
    let problem = Problem::new(&netlist, &library, TimingConfig::default()).expect("problem");
    let RunOutcome::Complete {
        solution: reference,
        ..
    } = problem
        .optimizer(DelayPenalty::five_percent(), Mode::Proposed)
        .run(&ExecConfig::serial(), None)
    else {
        panic!("the local reference run did not complete");
    };
    let reference_vector: String = reference
        .vector
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect();
    let reference_choices: String = reference
        .choices
        .iter()
        .map(|c| char::from_digit(u32::from(*c), 10).unwrap())
        .collect();
    let reference_leakage = format!("{:016x}", reference.leakage.value().to_bits());
    let reference_delay = format!("{:016x}", reference.delay.value().to_bits());

    let handle = start(ServerConfig::default()).expect("server starts");
    let addr = handle.addr().to_string();
    for threads in [1usize, 2, 4] {
        let body = json::Value::Obj(
            [
                ("bench".to_string(), json::Value::Str(bench.clone())),
                ("threads".to_string(), json::Value::Num(threads as f64)),
                ("deadline_ms".to_string(), json::Value::Num(60_000.0)),
            ]
            .into_iter()
            .collect(),
        )
        .to_string();
        let (status, response) = post(&addr, "/jobs", &body);
        assert_eq!(status, 202, "{response}");
        let id = json::parse(&response)
            .unwrap()
            .get("id")
            .and_then(json::Value::as_f64)
            .unwrap() as u64;
        let doc = wait_done(&addr, id);
        assert_eq!(field(&doc, "outcome"), "complete", "threads={threads}");
        assert_eq!(field(&doc, "vector"), reference_vector, "threads={threads}");
        assert_eq!(
            field(&doc, "choices"),
            reference_choices,
            "threads={threads}"
        );
        assert_eq!(
            field(&doc, "leakage_bits"),
            reference_leakage,
            "threads={threads}"
        );
        assert_eq!(
            field(&doc, "delay_bits"),
            reference_delay,
            "threads={threads}"
        );
    }
    handle.shutdown();
}

/// An ECO job — a spec carrying an `edits` script — must return the
/// bit-identical solution of a cold job submitted with the already-edited
/// netlist text, and resubmitting the same edit script must hit the
/// edited-netlist cache (keyed by post-edit content hash).
#[test]
fn eco_jobs_match_cold_jobs_and_hit_the_edited_netlist_cache() {
    let pre_text = identity_bench_text();
    let raw = parse_bench(&pre_text).expect("bench text parses");
    let pre = map_to_primitives(&raw, MappingOptions::default()).expect("maps");
    let pi0 = pre.net(pre.inputs()[0]).name().to_string();
    let pi1 = pre.net(pre.inputs()[1]).name().to_string();
    let po0 = pre.net(pre.outputs()[0]).name().to_string();
    let script_text =
        format!("add eco_a = NAND({pi0}, {pi1})\nadd eco_b = NOT(eco_a)\nrewire {po0} 0 eco_b\n");

    // The cold reference circuit: the same edit applied locally, shipped
    // as plain bench text.
    let script = EditScript::parse(&script_text).expect("script parses");
    let mut edited = pre.clone();
    script.apply(&mut edited).expect("script applies");
    let post_text = edited.to_bench();

    // Local cold reference on the identical in-memory post-edit netlist:
    // the ECO job must reproduce it bit for bit, including the per-gate
    // choices (same gate numbering).
    let library = Library::new(Technology::predictive_65nm(), LibraryOptions::default())
        .expect("library characterizes");
    let problem = Problem::new(&edited, &library, TimingConfig::default()).expect("problem");
    let RunOutcome::Complete {
        solution: reference,
        ..
    } = problem
        .optimizer(DelayPenalty::five_percent(), Mode::Proposed)
        .run(&ExecConfig::serial(), None)
    else {
        panic!("the local reference run did not complete");
    };
    let reference_vector: String = reference
        .vector
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect();
    let reference_choices: String = reference
        .choices
        .iter()
        .map(|c| char::from_digit(u32::from(*c), 10).unwrap())
        .collect();

    let handle = start(ServerConfig::default()).expect("server starts");
    let addr = handle.addr().to_string();
    let submit = |fields: Vec<(String, json::Value)>| {
        let body = json::Value::Obj(fields.into_iter().collect()).to_string();
        let (status, response) = post(&addr, "/jobs", &body);
        assert_eq!(status, 202, "{response}");
        json::parse(&response)
            .unwrap()
            .get("id")
            .and_then(json::Value::as_f64)
            .unwrap() as u64
    };
    let eco_fields = || {
        vec![
            ("bench".to_string(), json::Value::Str(pre_text.clone())),
            ("edits".to_string(), json::Value::Str(script_text.clone())),
            ("deadline_ms".to_string(), json::Value::Num(60_000.0)),
        ]
    };
    let eco_doc = wait_done(&addr, submit(eco_fields()));
    let cold_doc = wait_done(
        &addr,
        submit(vec![
            ("bench".to_string(), json::Value::Str(post_text.clone())),
            ("deadline_ms".to_string(), json::Value::Num(60_000.0)),
        ]),
    );
    assert_eq!(field(&eco_doc, "outcome"), "complete");
    assert_eq!(field(&cold_doc, "outcome"), "complete");
    assert_eq!(field(&eco_doc, "vector"), reference_vector);
    assert_eq!(field(&eco_doc, "choices"), reference_choices);
    assert_eq!(
        field(&eco_doc, "leakage_bits"),
        format!("{:016x}", reference.leakage.value().to_bits())
    );
    assert_eq!(
        field(&eco_doc, "delay_bits"),
        format!("{:016x}", reference.delay.value().to_bits())
    );
    // The cold HTTP job went through a bench-text round trip, which may
    // renumber gates — permuting the choices string and the float
    // summation order (a few ulps of leakage) — but cannot change the
    // chosen standby vector or the solution's value beyond that noise.
    assert_eq!(field(&eco_doc, "vector"), field(&cold_doc, "vector"));
    let leakage_ua = |doc: &json::Value| {
        doc.get("leakage_ua")
            .and_then(json::Value::as_f64)
            .expect("leakage_ua present")
    };
    let (eco_ua, cold_ua) = (leakage_ua(&eco_doc), leakage_ua(&cold_doc));
    assert!(
        (eco_ua - cold_ua).abs() <= 1e-9 * cold_ua.abs(),
        "eco {eco_ua} vs cold {cold_ua}"
    );

    // Same edit script again: the edited netlist comes out of the cache.
    let rerun_doc = wait_done(&addr, submit(eco_fields()));
    assert_eq!(field(&rerun_doc, "outcome"), "complete");
    assert_eq!(field(&rerun_doc, "vector"), field(&eco_doc, "vector"));
    let metrics = call(&addr, "GET", "/metrics", "", Duration::from_secs(30))
        .expect("GET /metrics succeeds")
        .body;
    let counter = |name: &str| {
        metrics
            .lines()
            .find_map(|l| l.trim().strip_prefix(name))
            .unwrap_or_else(|| panic!("no `{name}` in metrics:\n{metrics}"))
            .trim()
            .parse::<u64>()
            .expect("counter is an integer")
    };
    assert_eq!(counter("serve.cache.eco_misses"), 1);
    assert_eq!(counter("serve.cache.eco_hits"), 1);
    handle.shutdown();
}

/// Two textual spellings of the same circuit — renamed interior wires, a
/// redundant duplicate gate, comments — must land on one netlist cache
/// entry (the cache keys by the post-strash structural hash), must bump
/// the cross-spelling dedupe counter, and must return byte-identical
/// solutions because both jobs optimize the very same cached netlist.
#[test]
fn two_spellings_of_one_circuit_share_a_netlist_cache_entry() {
    let spelling_a = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
                      t1 = NAND(a, b)\nt2 = NOR(t1, c)\ny = NOT(t2)\nz = NAND(t1, c)\n";
    // Same circuit: interior wires renamed, a structurally duplicate
    // (unused) gate added, comments sprinkled in. Strash collapses the
    // duplicate and ignores names, so the structural hash matches.
    let spelling_b = "# same circuit, spelled differently\n\
                      INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n\
                      w9 = NAND(a, b)\nextra = NAND(a, b)\n\
                      # the line above is redundant\n\
                      w8 = NOR(w9, c)\ny = NOT(w8)\nz = NAND(w9, c)\n";

    let handle = start(ServerConfig::default()).expect("server starts");
    let addr = handle.addr().to_string();
    let submit = |bench: &str| {
        let body = json::Value::Obj(
            [
                ("bench".to_string(), json::Value::Str(bench.to_string())),
                ("deadline_ms".to_string(), json::Value::Num(60_000.0)),
            ]
            .into_iter()
            .collect(),
        )
        .to_string();
        let (status, response) = post(&addr, "/jobs", &body);
        assert_eq!(status, 202, "{response}");
        json::parse(&response)
            .unwrap()
            .get("id")
            .and_then(json::Value::as_f64)
            .unwrap() as u64
    };
    let doc_a = wait_done(&addr, submit(spelling_a));
    let doc_b = wait_done(&addr, submit(spelling_b));
    assert_eq!(field(&doc_a, "outcome"), "complete");
    assert_eq!(field(&doc_b, "outcome"), "complete");
    // Both jobs ran the same Arc<Netlist> (spelling A's mapped form), so
    // the solutions agree down to the f64 bit patterns.
    assert_eq!(field(&doc_a, "vector"), field(&doc_b, "vector"));
    assert_eq!(field(&doc_a, "choices"), field(&doc_b, "choices"));
    assert_eq!(field(&doc_a, "leakage_bits"), field(&doc_b, "leakage_bits"));
    assert_eq!(field(&doc_a, "delay_bits"), field(&doc_b, "delay_bits"));

    let metrics = call(&addr, "GET", "/metrics", "", Duration::from_secs(30))
        .expect("GET /metrics succeeds")
        .body;
    let counter = |name: &str| {
        metrics
            .lines()
            .find_map(|l| l.trim().strip_prefix(name))
            .unwrap_or_else(|| panic!("no `{name}` in metrics:\n{metrics}"))
            .trim()
            .parse::<u64>()
            .expect("counter is an integer")
    };
    assert_eq!(counter("serve.cache.netlist_misses"), 1, "{metrics}");
    assert_eq!(counter("serve.cache.netlist_hits"), 1, "{metrics}");
    assert_eq!(counter("serve.cache.netlist_dedup_hits"), 1, "{metrics}");
    // Each job builds its own problem, timed under `core.problem`.
    assert_eq!(counter("span.core.problem.count"), 2, "{metrics}");
    handle.shutdown();
}

/// The acceptance bar from the issue: 100 concurrent jobs, zero hangs,
/// every job in a typed outcome, and the shared caches carrying all the
/// repeat traffic (one characterization, 99 hits).
#[test]
fn one_hundred_concurrent_jobs_terminate_typed_with_zero_hangs() {
    let config = LoadgenConfig {
        jobs: 100,
        concurrency: 16,
        circuit: None,
        bench: Some(identity_bench_text()),
        deadline: Duration::from_secs(30),
        hang_timeout: Duration::from_secs(120),
        server: ServerConfig {
            runners: 4,
            queue_depth: 32,
            ..ServerConfig::default()
        },
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&config).expect("loadgen runs");
    assert_eq!(report.jobs, 100, "{}", report.render_text());
    assert_eq!(report.hangs, 0, "{}", report.render_text());
    assert_eq!(
        report.completed + report.degraded + report.failed,
        100,
        "every job typed: {}",
        report.render_text()
    );
    assert_eq!(report.failed, 0, "{}", report.render_text());
    assert!(report.metrics_ok);
    assert!(report.clean_shutdown);
    // Cross-job caches: one cold build each, everything else hits.
    assert_eq!(report.library_misses, 1, "{}", report.render_text());
    assert_eq!(report.library_hits, 99, "{}", report.render_text());
    assert_eq!(report.netlist_misses, 1, "{}", report.render_text());
    assert_eq!(report.netlist_hits, 99, "{}", report.render_text());
}
