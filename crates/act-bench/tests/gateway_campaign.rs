//! Fleet-level acceptance tests: an act-fleet campaign driven through an
//! act-gate gateway over real in-process act-serve backends.
//!
//! - Killing one of three backends mid-campaign loses zero requests, and
//!   the campaign report is byte-identical to the same campaign against a
//!   single-backend fleet (cache-state scrubbing + failover at work).
//! - Consistent-hash sharding keeps the fleet's cache hit rate within
//!   five points of a single backend's on a repeated campaign.

use act_bench::campaign::executor_for;
use act_fleet::{run_campaign, CampaignReport, CampaignSpec};
use act_gate::{GateConfig, Gateway};
use act_serve::{ServeConfig, Server};
use std::time::Duration;

fn boot_backend() -> Server {
    let cfg = ServeConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        workers: 2,
        queue_depth: 32,
        ..ServeConfig::default()
    };
    Server::start(cfg).expect("backend boots")
}

fn boot_gateway(backends: &[Server]) -> Gateway {
    let cfg = GateConfig {
        backends: backends.iter().map(|b| b.tcp_addr().expect("tcp").to_string()).collect(),
        connect_timeout: Duration::from_millis(500),
        probe_interval: Duration::from_millis(100),
        probe_timeout: Duration::from_millis(500),
        ..GateConfig::default()
    };
    Gateway::start(cfg).expect("gateway boots")
}

/// The small diagnose campaign both fleet shapes run.
fn diagnose_spec(gateway_addr: &str) -> CampaignSpec {
    let mut spec = CampaignSpec::new("gate-diagnose", "diagnose", &["seq"]);
    spec.seeds = vec![0, 1, 2, 3];
    spec.params.insert("gateway".into(), gateway_addr.to_string());
    spec.params.insert("traces".into(), "2".into());
    spec.params.insert("hidden".into(), "4".into());
    spec.params.insert("max_epochs".into(), "30".into());
    spec
}

fn run_diagnose_campaign(gateway_addr: &str, pipeline_depth: usize) -> CampaignReport {
    let mut spec = diagnose_spec(gateway_addr);
    if pipeline_depth > 1 {
        spec.params.insert("pipeline_depth".into(), pipeline_depth.to_string());
    }
    let exec = executor_for(&spec).expect("remote executor");
    run_campaign(&spec, 2, exec)
}

#[test]
fn killing_a_backend_mid_campaign_loses_nothing_and_changes_nothing() {
    // Three-backend fleet, one backend killed while the campaign runs.
    let mut backends: Vec<Server> = (0..3).map(|_| boot_backend()).collect();
    let gate = boot_gateway(&backends);
    let victim = backends.pop().expect("three backends");
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        victim.shutdown();
        victim.join();
    });
    let fleet_report = run_diagnose_campaign(&gate.tcp_addr().to_string(), 1);
    killer.join().expect("killer thread");
    assert_eq!(
        fleet_report.aggregate.crashed,
        0,
        "zero failed requests despite the mid-campaign kill:\n{}",
        fleet_report.lines().collect::<Vec<_>>().join("\n")
    );
    gate.shutdown();
    gate.join();
    for b in backends {
        b.shutdown();
        b.join();
    }

    // The same campaign against a single-backend fleet.
    let single = vec![boot_backend()];
    let gate1 = boot_gateway(&single);
    let single_report = run_diagnose_campaign(&gate1.tcp_addr().to_string(), 1);
    assert_eq!(single_report.aggregate.crashed, 0);
    gate1.shutdown();
    gate1.join();
    for b in single {
        b.shutdown();
        b.join();
    }

    assert_eq!(
        fleet_report.deterministic_json(),
        single_report.deterministic_json(),
        "campaign results must not depend on fleet size or failover"
    );
}

/// Requests through one shared depth-8 session must produce the same
/// campaign report as one-connection-per-job — out-of-order completion
/// never leaks into results.
#[test]
fn pipeline_depth_changes_nothing_in_the_campaign_report() {
    let run_at = |depth: usize| {
        let backends = vec![boot_backend()];
        let gate = boot_gateway(&backends);
        let report = run_diagnose_campaign(&gate.tcp_addr().to_string(), depth);
        assert_eq!(report.aggregate.crashed, 0, "depth {depth}: crashed jobs");
        gate.shutdown();
        gate.join();
        for b in backends {
            b.shutdown();
            b.join();
        }
        report
    };
    let sequential = run_at(1);
    let pipelined = run_at(8);
    assert_eq!(
        sequential.deterministic_json(),
        pipelined.deterministic_json(),
        "campaign results must not depend on pipeline depth"
    );
}

/// Fleet-wide cache hit rate, read off the gateway's fleet rollup lines.
fn fleet_hit_rate(gate: &Gateway) -> f64 {
    let client = act_client::Client::builder()
        .addr(gate.tcp_addr().to_string())
        .build()
        .expect("endpoint is set");
    let status = client.status().expect("gateway status");
    let line = |key: &str| -> f64 {
        let value = status.text.lines().find_map(|l| l.strip_prefix(key));
        value.and_then(|v| v.trim().parse().ok()).unwrap_or_else(|| panic!("no {key}"))
    };
    let (hits, misses) = (line("fleet_cache_hits "), line("fleet_cache_misses "));
    assert!(hits + misses > 0.0, "no cache traffic reached the fleet");
    100.0 * hits / (hits + misses)
}

#[test]
fn sharding_keeps_the_fleet_cache_hit_rate_close_to_single_backend() {
    let train_spec = |gateway_addr: &str| {
        let mut spec = CampaignSpec::new("gate-train", "train", &["seq", "fft", "lu"]);
        spec.seeds = vec![0, 1, 2, 3];
        spec.params.insert("gateway".into(), gateway_addr.to_string());
        spec.params.insert("traces".into(), "2".into());
        spec.params.insert("hidden".into(), "4".into());
        spec.params.insert("max_epochs".into(), "30".into());
        spec
    };
    // Run the identical campaign twice per fleet shape: the first run
    // trains every model cold, the repeat should be all cache hits —
    // *if* sharding sends each repeated key back to the backend that
    // trained it.
    let rate_for = |n: usize| {
        let backends: Vec<Server> = (0..n).map(|_| boot_backend()).collect();
        let gate = boot_gateway(&backends);
        let spec = train_spec(&gate.tcp_addr().to_string());
        for round in 0..2 {
            let exec = executor_for(&spec).expect("remote executor");
            let report = run_campaign(&spec, 2, exec);
            assert_eq!(report.aggregate.crashed, 0, "round {round} crashed jobs");
        }
        let rate = fleet_hit_rate(&gate);
        gate.shutdown();
        gate.join();
        for b in backends {
            b.shutdown();
            b.join();
        }
        rate
    };
    let single = rate_for(1);
    let sharded = rate_for(2);
    assert!(
        (single - sharded).abs() <= 5.0,
        "sharded hit rate {sharded:.1}% strays from single-backend {single:.1}%"
    );
}
