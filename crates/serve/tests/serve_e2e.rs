//! End-to-end daemon tests, anchored by the differential oracle: a
//! seismogram served over HTTP must be **bit-identical** to the batch
//! `Simulation::run_serial` answer — cold (solved on demand), warm
//! (memory tier), and after a restart (disk tier, no re-solve).

use std::path::PathBuf;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde_json::Value;
use specfem_serve::{client, serve, ServeConfig, ServerHandle};

const REQ: &str = r#"{"resolution": 4, "steps": 10, "event": "argentina_deep", "stations": 2}"#;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specfem_serve_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(data_dir: PathBuf) -> ServerHandle {
    serve(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        result_cache_bytes: 32 << 20,
        request_deadline: Some(Duration::from_secs(300)),
        workers: 2,
        data_dir,
        ledger_dir: None,
        ledger_batch: 4,
        batch_max_lanes: 1,
        batch_window_ms: 0,
    })
    .expect("daemon starts")
}

/// One worker fusing up to `lanes` requests, with a generous fuse window.
fn start_fusing(tag: &str, lanes: usize, request_deadline: Option<Duration>) -> ServerHandle {
    serve(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        result_cache_bytes: 32 << 20,
        request_deadline,
        workers: 1,
        data_dir: tmp_dir(tag),
        ledger_dir: None,
        ledger_batch: 4,
        batch_max_lanes: lanes,
        batch_window_ms: 2_000,
    })
    .expect("daemon starts")
}

/// Per-station `[x, y, z]` sample bits from a `/simulate` response body.
fn response_bits(body: &str) -> (String, Vec<Vec<[u32; 3]>>) {
    let v: Value = serde_json::from_str(body).expect("response is JSON");
    let cache = v.get("cache").unwrap().as_str().unwrap().to_string();
    let seis = v.get("seismograms").unwrap().as_array().unwrap();
    let bits = seis
        .iter()
        .map(|s| {
            s.get("data")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|row| {
                    let r = row.as_array().unwrap();
                    [
                        (r[0].as_f64().unwrap() as f32).to_bits(),
                        (r[1].as_f64().unwrap() as f32).to_bits(),
                        (r[2].as_f64().unwrap() as f32).to_bits(),
                    ]
                })
                .collect()
        })
        .collect();
    (cache, bits)
}

fn batch_bits() -> Vec<Vec<[u32; 3]>> {
    let sim = specfem_core::Simulation::builder()
        .resolution(4)
        .steps(10)
        .catalogue_event("argentina_deep")
        .stations(2)
        .build()
        .unwrap();
    sim.run_serial()
        .seismograms
        .iter()
        .map(|s| {
            s.data
                .iter()
                .map(|v| [v[0].to_bits(), v[1].to_bits(), v[2].to_bits()])
                .collect()
        })
        .collect()
}

fn health_solves(addr: std::net::SocketAddr) -> u64 {
    let (status, body) = client::get(addr, "/health").unwrap();
    assert_eq!(status, 200, "{body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    v.get("solves").unwrap().as_u64().unwrap()
}

#[test]
fn served_seismograms_match_batch_cold_warm_and_across_restart() {
    let dir = tmp_dir("oracle");
    let oracle = batch_bits();
    assert!(!oracle.is_empty() && !oracle[0].is_empty());

    let daemon = start(dir.clone());
    let addr = daemon.addr();

    // Cold: solved on demand, reported as a miss, bit-identical.
    let (status, body) = client::post(addr, "/simulate", REQ).unwrap();
    assert_eq!(status, 200, "{body}");
    let (cache, bits) = response_bits(&body);
    assert_eq!(cache, "miss");
    assert_eq!(bits, oracle, "cold daemon result diverges from batch");
    assert_eq!(health_solves(addr), 1);

    // Warm: memory tier, same bits, no extra solve.
    let (status, body) = client::post(addr, "/simulate", REQ).unwrap();
    assert_eq!(status, 200, "{body}");
    let (cache, bits) = response_bits(&body);
    assert_eq!(cache, "mem_hit");
    assert_eq!(bits, oracle, "warm daemon result diverges from batch");
    assert_eq!(health_solves(addr), 1);

    daemon.shutdown();

    // Restart on the same data dir: the disk tier answers, still bit
    // for bit, and the solver never runs.
    let daemon = start(dir);
    let addr = daemon.addr();
    let (status, body) = client::post(addr, "/simulate", REQ).unwrap();
    assert_eq!(status, 200, "{body}");
    let (cache, bits) = response_bits(&body);
    assert_eq!(cache, "disk_hit");
    assert_eq!(bits, oracle, "restarted daemon result diverges from batch");
    assert_eq!(health_solves(addr), 0, "disk hit must not re-solve");
    daemon.shutdown();
}

#[test]
fn concurrent_identical_requests_single_flight_into_one_solve() {
    let daemon = start(tmp_dir("single_flight"));
    let addr = daemon.addr();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let (status, body) = client::post(addr, "/simulate", REQ).unwrap();
                assert_eq!(status, 200, "{body}");
                response_bits(&body).1
            })
        })
        .collect();
    let mut answers: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    answers.dedup();
    assert_eq!(answers.len(), 1, "all waiters must see the same result");
    assert_eq!(
        health_solves(addr),
        1,
        "identical requests must share one solve"
    );
    daemon.shutdown();
}

/// Serial-oracle bits for one catalogue event (the per-lane expectation
/// for the batched daemon test).
fn event_bits(event: &str) -> Vec<Vec<[u32; 3]>> {
    let sim = specfem_core::Simulation::builder()
        .resolution(4)
        .steps(10)
        .catalogue_event(event)
        .stations(2)
        .build()
        .unwrap();
    sim.run_serial()
        .seismograms
        .iter()
        .map(|s| {
            s.data
                .iter()
                .map(|v| [v[0].to_bits(), v[1].to_bits(), v[2].to_bits()])
                .collect()
        })
        .collect()
}

#[test]
fn batched_daemon_answers_each_event_bit_identical_to_serial() {
    // One worker, lanes wide open, a generous fuse window. Three
    // concurrent requests for different catalogue events share the mesh
    // and timeloop shape, so they fuse into one 3-lane solve — and every
    // lane must still be bit-identical to its own single-event serial
    // answer.
    let daemon = start_fusing("batched", 4, None);
    let addr = daemon.addr();

    let events = ["argentina_deep", "sumatra_thrust", "denali_strike_slip"];
    let threads: Vec<_> = events
        .map(|event| {
            std::thread::spawn(move || {
                let body = format!(
                    r#"{{"resolution": 4, "steps": 10, "event": "{event}", "stations": 2}}"#
                );
                let (status, reply) = client::post(addr, "/simulate", &body).unwrap();
                assert_eq!(status, 200, "{reply}");
                let (cache, bits) = response_bits(&reply);
                assert_eq!(cache, "miss");
                let v: Value = serde_json::from_str(&reply).unwrap();
                let trace_id = v.get("trace_id").unwrap().as_str().unwrap().to_string();
                (bits, trace_id)
            })
        })
        .into_iter()
        .collect();
    let answers: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    for (event, (got, _)) in events.iter().zip(&answers) {
        assert_eq!(
            got,
            &event_bits(event),
            "batched daemon answer for {event} diverges from serial"
        );
    }
    assert_eq!(health_solves(addr), 3, "every lane counts as one solve");

    // A fused lane keeps its own request's identity: its row in `/jobs`
    // and its stitched timeline are found under the id its reply carried.
    let (status, jobs) = client::get(addr, "/jobs").unwrap();
    assert_eq!(status, 200, "{jobs}");
    let v: Value = serde_json::from_str(&jobs).unwrap();
    let rows = v.get("jobs").unwrap().as_array().unwrap();
    for (event, (_, trace_id)) in events.iter().zip(&answers) {
        assert!(
            rows.iter()
                .any(|r| r.get("trace_id").and_then(|t| t.as_str()) == Some(trace_id.as_str())),
            "{event}: no /jobs row under trace id {trace_id}: {jobs}"
        );
        let (status, timeline) = client::get(addr, &format!("/trace/{trace_id}")).unwrap();
        assert_eq!(status, 200, "{event}: {timeline}");
        let v: Value = serde_json::from_str(&timeline).expect("timeline is valid JSON");
        assert!(!v.get("traceEvents").unwrap().as_array().unwrap().is_empty());
        assert!(timeline.contains(trace_id.as_str()), "{timeline}");
    }

    // Warm repeats hit the cache under the lane's own result key.
    for event in events {
        let body =
            format!(r#"{{"resolution": 4, "steps": 10, "event": "{event}", "stations": 2}}"#);
        let (status, reply) = client::post(addr, "/simulate", &body).unwrap();
        assert_eq!(status, 200, "{reply}");
        let (cache, bits) = response_bits(&reply);
        assert_eq!(cache, "mem_hit");
        assert_eq!(bits, event_bits(event), "cached lane result diverges");
    }
    daemon.shutdown();
}

#[test]
fn deadline_bearing_requests_fuse_and_still_time_out() {
    // A request's deadline is the connection timing its own wait, not a
    // property of the solve: two deadline-bearing requests for different
    // events ride one 2-lane solve, each bit-identical to its serial
    // answer — and a deadline too short for any solve is still a 504.
    let daemon = start_fusing("deadline_fused", 2, Some(Duration::from_secs(300)));
    let addr = daemon.addr();

    let events = ["argentina_deep", "sumatra_thrust"];
    let threads: Vec<_> = events
        .map(|event| {
            std::thread::spawn(move || {
                let body = format!(
                    r#"{{"resolution": 4, "steps": 10, "event": "{event}", "stations": 2,
                        "deadline_ms": 250000}}"#
                );
                let (status, reply) = client::post(addr, "/simulate", &body).unwrap();
                assert_eq!(status, 200, "{reply}");
                response_bits(&reply).1
            })
        })
        .into_iter()
        .collect();
    for (event, thread) in events.iter().zip(threads) {
        assert_eq!(
            thread.join().unwrap(),
            event_bits(event),
            "fused answer for {event} diverges from serial"
        );
    }
    assert_eq!(health_solves(addr), 2, "every lane counts as one solve");
    // Members of one fused solve share its wall time to the digit; two
    // solves on the one worker could not.
    let (status, jobs) = client::get(addr, "/jobs").unwrap();
    assert_eq!(status, 200, "{jobs}");
    let v: Value = serde_json::from_str(&jobs).unwrap();
    let rows = v.get("jobs").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), 2, "{jobs}");
    assert_eq!(rows[0].get("run_s"), rows[1].get("run_s"), "{jobs}");

    let body = r#"{"resolution": 4, "steps": 10, "event": "denali_strike_slip",
                   "stations": 2, "deadline_ms": 1}"#;
    let (status, reply) = client::post(addr, "/simulate", body).unwrap();
    assert_eq!(status, 504, "{reply}");
    let v: Value = serde_json::from_str(&reply).unwrap();
    let code = v.get("error").unwrap().get("code").unwrap();
    assert_eq!(code.as_str().unwrap(), "deadline");
    daemon.shutdown();
}

#[test]
fn deadline_returns_a_typed_timeout() {
    let daemon = start(tmp_dir("deadline"));
    let addr = daemon.addr();
    let body = r#"{"resolution": 4, "steps": 200, "stations": 2, "deadline_ms": 1}"#;
    let (status, reply) = client::post(addr, "/simulate", body).unwrap();
    assert_eq!(status, 504, "{reply}");
    let v: Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(
        v.get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str()
            .unwrap(),
        "deadline"
    );
    daemon.shutdown();
}

#[test]
fn validation_and_routing_over_the_wire() {
    let daemon = start(tmp_dir("validation"));
    let addr = daemon.addr();

    let (status, body) = client::post(addr, "/simulate", "not json").unwrap();
    assert_eq!(status, 400);
    let v: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(
        v.get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str()
            .unwrap(),
        "bad_json"
    );

    let (status, _) = client::post(addr, "/simulate", r#"{"resolution": 8}"#).unwrap();
    assert_eq!(status, 400);
    let (status, _) = client::get(addr, "/nope").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::get(addr, "/simulate").unwrap();
    assert_eq!(status, 405);

    let (status, body) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let v: Value = serde_json::from_str(&body).unwrap();
    assert!(v.get("counters").is_some());
    daemon.shutdown();
}

#[test]
fn requests_carry_trace_ids_end_to_end() {
    let daemon = start(tmp_dir("tracing"));
    let addr = daemon.addr();

    // A cold request mints a correlation id and echoes it.
    let (status, body) = client::post(addr, "/simulate", REQ).unwrap();
    assert_eq!(status, 200, "{body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    let trace_id = v.get("trace_id").unwrap().as_str().unwrap().to_string();
    assert_eq!(trace_id.len(), 16, "trace id is 16 hex digits: {trace_id}");
    assert!(trace_id.chars().all(|c| c.is_ascii_hexdigit()));

    // The job ledger remembers the solve under the same id.
    let (status, jobs) = client::get(addr, "/jobs").unwrap();
    assert_eq!(status, 200, "{jobs}");
    let v: Value = serde_json::from_str(&jobs).unwrap();
    let rows = v.get("jobs").unwrap().as_array().unwrap();
    assert!(!rows.is_empty());
    let row = rows
        .iter()
        .find(|r| r.get("trace_id").and_then(|t| t.as_str()) == Some(trace_id.as_str()))
        .expect("the solve appears in /jobs under its trace id");
    assert!(row.get("ok").unwrap().as_bool().unwrap());

    // The stitched timeline: one request track plus the solver rank's
    // spans, on one shared clock axis.
    let (status, timeline) = client::get(addr, &format!("/trace/{trace_id}")).unwrap();
    assert_eq!(status, 200, "{timeline}");
    let v: Value = serde_json::from_str(&timeline).expect("timeline is valid JSON");
    assert!(!v.get("traceEvents").unwrap().as_array().unwrap().is_empty());
    assert!(timeline.contains("\"request\""), "{timeline}");
    assert!(timeline.contains("rank 0"), "{timeline}");
    assert!(timeline.contains(&trace_id));

    // Unknown ids are a typed 404, not a hang or a panic.
    let (status, missing) = client::get(addr, "/trace/0000000000000000").unwrap();
    assert_eq!(status, 404, "{missing}");
    let v: Value = serde_json::from_str(&missing).unwrap();
    assert_eq!(
        v.get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str()
            .unwrap(),
        "unknown_trace"
    );

    // Error responses carry a trace id too.
    let (status, err) = client::post(addr, "/simulate", "not json").unwrap();
    assert_eq!(status, 400);
    let v: Value = serde_json::from_str(&err).unwrap();
    assert_eq!(v.get("trace_id").unwrap().as_str().unwrap().len(), 16);

    // Per-route × per-outcome latency histograms in /metrics.
    let (status, metrics) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let v: Value = serde_json::from_str(&metrics).expect("metrics stay valid JSON");
    let hists = v.get("histograms").unwrap();
    let ok_row = hists.get("serve.latency_ms{route=\"/simulate\",outcome=\"200\"}");
    assert!(
        ok_row.is_some_and(|r| r.get("count").unwrap().as_u64().unwrap() >= 1),
        "{metrics}"
    );
    let err_row = hists.get("serve.latency_ms{route=\"/simulate\",outcome=\"400\"}");
    assert!(err_row.is_some(), "{metrics}");

    daemon.shutdown();
}

#[test]
fn shutdown_endpoint_stops_the_daemon_cleanly() {
    let daemon = start(tmp_dir("shutdown"));
    let addr = daemon.addr();
    let (status, body) = client::post(addr, "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, "{\"status\":\"shutting_down\"}");
    // join() returns once the accept loop notices the flag and the
    // campaign runs down — a hang here is the failure being tested.
    daemon.join();
}

#[test]
fn shutdown_answers_the_request_still_in_flight() {
    // Shutdown joins the accept loop (and with it every connection)
    // before it runs the worker pool down, so a request that is mid-solve
    // when the daemon is told to stop still gets its answer.
    let daemon = start(tmp_dir("shutdown_in_flight"));
    let addr = daemon.addr();
    let body = r#"{"resolution": 4, "steps": 20, "event": "argentina_deep", "stations": 2}"#;
    let waiter = std::thread::spawn(move || client::post(addr, "/simulate", body).unwrap());
    loop {
        let (_, body) = client::get(addr, "/health").unwrap();
        let v: Value = serde_json::from_str(&body).unwrap();
        if v.get("in_flight").unwrap().as_u64().unwrap() == 1 {
            break;
        }
        assert!(
            !waiter.is_finished(),
            "answered before it was seen in flight"
        );
        std::thread::yield_now();
    }
    daemon.shutdown();
    let (status, body) = waiter.join().unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(response_bits(&body).0, "miss");
}

/// Run `stop` on a helper thread; the receiver yields once it returned,
/// so a hang fails the caller's `recv_timeout` instead of the whole suite.
fn spawn_stop(stop: impl FnOnce() + Send + 'static) -> (JoinHandle<()>, mpsc::Receiver<()>) {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        stop();
        let _ = tx.send(());
    });
    (thread, rx)
}

#[test]
fn an_idle_connection_does_not_hold_shutdown() {
    let daemon = start(tmp_dir("idle_client"));
    let addr = daemon.addr();
    // Connected, silent. Connections are accepted in order, so once the
    // health check made after it is answered, this one has its thread.
    let idle = std::net::TcpStream::connect(addr).unwrap();
    health_solves(addr);
    let (stopper, stopped) = spawn_stop(move || daemon.shutdown());
    let stopped = stopped.recv_timeout(Duration::from_secs(2));
    drop(idle);
    // A failing run ends here, without waiting on a shutdown that may
    // never return; a passing one has already returned.
    assert!(
        stopped.is_ok(),
        "shutdown waited for a client that never sent a request"
    );
    stopper.join().unwrap();
}

#[test]
fn sequential_requests_to_an_idle_daemon_are_not_paced_by_a_poll() {
    let daemon = start(tmp_dir("health_burst"));
    let addr = daemon.addr();
    // Best of three rounds, so that other tests solving on every core
    // cannot fail it. An accept loop that sleeps 5 ms whenever no
    // connection is waiting spends 250 ms on every round.
    let best = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..50 {
                health_solves(addr);
            }
            t0.elapsed()
        })
        .min()
        .unwrap();
    assert!(
        best < Duration::from_millis(100),
        "50 sequential /health requests took {best:?}"
    );
    daemon.shutdown();
}

#[test]
fn shutdown_endpoint_releases_join_within_a_second() {
    let daemon = start(tmp_dir("shutdown_prompt"));
    let (status, body) = client::post(daemon.addr(), "/shutdown", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let (joiner, joined) = spawn_stop(move || daemon.join());
    assert!(
        joined.recv_timeout(Duration::from_secs(1)).is_ok(),
        "join() still blocked 1 s after POST /shutdown"
    );
    joiner.join().unwrap();
}

#[test]
fn a_daemon_bound_to_every_interface_wakes_itself_to_shut_down() {
    let daemon = serve(ServeConfig {
        addr: "0.0.0.0:0".to_string(),
        workers: 1,
        ..ServeConfig::from_parfile("", tmp_dir("any_addr")).unwrap()
    })
    .expect("daemon starts");
    assert!(daemon.addr().ip().is_unspecified());
    let (stopper, stopped) = spawn_stop(move || daemon.shutdown());
    assert!(
        stopped.recv_timeout(Duration::from_secs(1)).is_ok(),
        "shutdown of a 0.0.0.0 daemon still blocked after 1 s"
    );
    stopper.join().unwrap();
}
