//! Batch-packer contract tests: fusion legality (only identical
//! `BatchKey`s fuse), lane→job fan-out bijection, bit-identity and trace
//! identity of batched campaign results, poisoned-lane isolation, and the
//! fused tier's fault rows (one dossier per incident, the fault fires
//! once, every member still finishes).

use std::path::{Path, PathBuf};
use std::time::Duration;

use proptest::prelude::*;
use specfem_campaign::{claim_batch_mates, BatchKey, Campaign, CampaignConfig, Job, RetryPolicy};
use specfem_core::comm::FaultPlan;
use specfem_core::io::read_crash_dossier;
use specfem_core::model::builtin_events;
use specfem_core::obs::TraceId;
use specfem_core::{Simulation, SourceSpec, SourceTimeFunction, StfKind};

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specfem_batch_packer_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every crash dossier anywhere under `root`.
fn dossiers_under(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                dirs.push(path);
            } else if name.starts_with("dossier_") && name.ends_with(".sfcn") {
                found.push(path);
            }
        }
    }
    found
}

fn event_sim(steps: usize, event_idx: usize) -> Simulation {
    let events = builtin_events();
    let event = events[event_idx % events.len()].clone();
    Simulation::builder()
        .resolution(4)
        .steps(steps)
        .stations(3)
        .source(SourceSpec::Cmt {
            event,
            stf: SourceTimeFunction::new(StfKind::Ricker, 200.0),
        })
        .build()
        .unwrap()
}

/// Drain a queue of keys the way `worker_loop` does: dequeue the head,
/// then let it claim its batch-mates through the function the worker
/// calls. Returns each dispatched group as input positions.
fn dispatch_all(keys: &[Option<BatchKey>], max_lanes: usize) -> Vec<Vec<usize>> {
    let mut queue: Vec<(usize, Option<BatchKey>)> = keys.iter().copied().enumerate().collect();
    let mut batches = Vec::new();
    while !queue.is_empty() {
        let mut group = vec![queue.remove(0)];
        if let Some(key) = group[0].1 {
            group.extend(claim_batch_mates(&mut queue, |q| q.1, key, max_lanes - 1));
        }
        batches.push(group.into_iter().map(|(i, _)| i).collect());
    }
    batches
}

fn keys_from(raw: Vec<(bool, u64, u64)>) -> Vec<Option<BatchKey>> {
    raw.into_iter()
        .map(|(batchable, mesh, compat)| batchable.then_some(BatchKey { mesh, compat }))
        .collect()
}

proptest! {
    /// Every dispatched batch holds jobs of exactly one key, never more
    /// than `max_lanes` of them, and unbatchable (`None`) jobs ride
    /// alone.
    #[test]
    fn plan_fuses_only_identical_keys(
        raw in prop::collection::vec((any::<bool>(), 0u64..3, 0u64..3), 0..40),
        max_lanes in 1usize..6,
    ) {
        let keys = keys_from(raw);
        for b in dispatch_all(&keys, max_lanes) {
            prop_assert!(!b.is_empty());
            prop_assert!(b.len() <= max_lanes);
            let first = keys[b[0]];
            for &i in &b {
                prop_assert_eq!(keys[i], first, "a batch mixed keys");
            }
            if first.is_none() {
                prop_assert_eq!(b.len(), 1, "unbatchable jobs must ride alone");
            }
        }
    }

    /// Dispatch is an exact cover of the input: each job lands in exactly
    /// one batch, in queue order within its batch (lane→job fan-out is
    /// a bijection).
    #[test]
    fn plan_is_a_bijection(
        raw in prop::collection::vec((any::<bool>(), 0u64..4, 0u64..2), 0..60),
        max_lanes in 1usize..8,
    ) {
        let keys = keys_from(raw);
        let mut seen = vec![0usize; keys.len()];
        for b in dispatch_all(&keys, max_lanes) {
            prop_assert!(b.windows(2).all(|w| w[0] < w[1]), "lanes out of queue order");
            for &i in &b {
                prop_assert!(i < keys.len());
                seen[i] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "not a bijection: {seen:?}");
    }
}

#[test]
fn batched_campaign_is_bit_identical_to_serial_runs() {
    const K: usize = 4;
    let sims: Vec<Simulation> = (0..K).map(|i| event_sim(6, i)).collect();
    let mut campaign = Campaign::new(
        CampaignConfig {
            workers: 1,
            ..CampaignConfig::default()
        }
        .batching(K, Duration::from_secs(10)),
    );
    let trace = |i: usize| TraceId(0xfeed_0000 + i as u64);
    for (i, sim) in sims.iter().enumerate() {
        campaign.submit(Job::new(format!("ev{i}"), sim.clone()).trace(trace(i)));
    }
    let result = campaign.finish();
    assert!(result.all_ok(), "{}", result.report.render_text());
    assert_eq!(result.report.batched_jobs, K, "all jobs must have fused");
    assert_eq!(result.cache.misses, 1, "one mesh build for the whole batch");
    let json = result.report.to_json();
    assert!(json.contains(&format!("\"batched_jobs\": {K}")));
    assert!(json.contains("\"batch_lanes\": 4"));
    for (i, (sim, outcome)) in sims.iter().zip(&result.outcomes).enumerate() {
        assert_eq!(outcome.telemetry.batch_lanes, K);
        assert_eq!(outcome.attempts, 1);
        let got = outcome.result.as_ref().unwrap();
        // Every lane keeps its own job's correlation id.
        assert_eq!(outcome.telemetry.trace_id, Some(trace(i).hex()));
        assert!(!got.ranks.is_empty());
        for r in &got.ranks {
            assert_eq!(r.trace_id, Some(trace(i)), "job {}", outcome.name);
        }
        let expected = sim.run_serial();
        assert_eq!(got.seismograms.len(), expected.seismograms.len());
        assert_eq!(got.dt.to_bits(), expected.dt.to_bits());
        for (g, e) in got.seismograms.iter().zip(&expected.seismograms) {
            assert_eq!(g.station, e.station);
            assert_eq!(g.data, e.data, "job {} diverged from serial", outcome.name);
        }
    }
}

#[test]
fn poisoned_lane_fails_alone_while_siblings_complete() {
    poisoned_lane_scenario(None);
}

/// Fault row (b): the same scenario with the flight recorder armed
/// leaves exactly one dossier — the poisoned lane's.
#[test]
fn poisoned_lane_writes_the_only_dossier_under_its_own_trace_id() {
    poisoned_lane_scenario(Some(tmp_root("poisoned")));
}

/// Three jobs fuse; the middle one injects a NaN through its source and
/// has the health monitor armed. Its lane must fail with a health trip
/// while both siblings finish bit-identical to their serial runs. (All
/// three share the compat key, so health_every must match across the
/// batch.) With a `checkpoint_root` the flight recorder is armed too, and
/// the one incident must leave one dossier that only the poisoned job
/// points at.
fn poisoned_lane_scenario(checkpoint_root: Option<PathBuf>) {
    const STEPS: usize = 8;
    let armed = checkpoint_root.is_some();
    let with_health = |mut sim: Simulation| {
        sim.config.health_every = 2;
        sim.config.flight_recorder = armed;
        sim
    };
    let good_a = with_health(event_sim(STEPS, 0));
    let good_b = with_health(event_sim(STEPS, 1));
    let mut poisoned = with_health(event_sim(STEPS, 2));
    poisoned.config.source = SourceSpec::PointForce {
        position: [0.0, 0.0, 6.0e6],
        force: [f64::NAN, 0.0, 1.0e18],
        stf: SourceTimeFunction::new(StfKind::Ricker, 60.0),
    };

    let mut campaign = Campaign::new(
        CampaignConfig {
            workers: 1,
            retry: RetryPolicy {
                max_retries: 0,
                backoff: Duration::from_millis(1),
            },
            checkpoint_root: checkpoint_root.clone(),
            ..CampaignConfig::default()
        }
        .batching(3, Duration::from_secs(10)),
    );
    let poisoned_trace = TraceId(0xbad_1a4e);
    campaign.submit(Job::new("good_a", good_a.clone()));
    campaign.submit(Job::new("poisoned", poisoned).trace(poisoned_trace));
    campaign.submit(Job::new("good_b", good_b.clone()));
    let result = campaign.finish();
    assert_eq!(
        result.report.batched_jobs,
        3,
        "{}",
        result.report.render_text()
    );
    assert_eq!(result.report.failed_jobs, 1);
    assert_eq!(result.report.health_trips, 1);

    let bad = result
        .outcomes
        .iter()
        .find(|o| o.name == "poisoned")
        .unwrap();
    assert!(bad.result.is_err());
    assert!(bad.telemetry.health_trip.is_some(), "trip must roll up");
    assert_eq!(bad.element_steps, 0);
    assert_eq!(bad.attempts, 1);

    for (name, sim) in [("good_a", &good_a), ("good_b", &good_b)] {
        let outcome = result.outcomes.iter().find(|o| o.name == name).unwrap();
        assert_eq!(outcome.telemetry.dossier, None, "{name} had no incident");
        let got = outcome.result.as_ref().unwrap();
        let expected = sim.run_serial();
        for (g, e) in got.seismograms.iter().zip(&expected.seismograms) {
            assert_eq!(g.station, e.station);
            assert_eq!(g.data, e.data, "sibling {name} was contaminated");
        }
    }

    let Some(root) = checkpoint_root else {
        assert_eq!(bad.telemetry.dossier, None);
        return;
    };
    let dossiers = dossiers_under(&root);
    assert_eq!(dossiers.len(), 1, "one incident, one dossier: {dossiers:?}");
    assert_eq!(
        bad.telemetry.dossier,
        Some(dossiers[0].display().to_string())
    );
    let incident = read_crash_dossier(&dossiers[0]).unwrap().incident;
    assert_eq!(incident.class, "health");
    assert_eq!(incident.trace_id, Some(poisoned_trace.0));
    let _ = std::fs::remove_dir_all(&root);
}

/// Fault row (a): a rank kill in the shared fault plan takes the fused
/// solve down as a whole. That is one incident — one dossier, which every
/// member points at — and attempt 1 of every member; each then finishes
/// alone, clean, on attempt 2. (Were the members restarted from attempt 1
/// with the plan still armed, the fault would fire once more per job and
/// leave a dossier each.)
#[test]
fn fused_rank_kill_is_one_incident_and_every_member_finishes_alone() {
    const K: usize = 3;
    let root = tmp_root("fused_kill");
    let clean: Vec<Simulation> = (0..K).map(|i| event_sim(12, i)).collect();
    let mut campaign = Campaign::new(
        CampaignConfig {
            workers: 1,
            checkpoint_root: Some(root.clone()),
            ..CampaignConfig::default()
        }
        .batching(K, Duration::from_secs(10)),
    );
    for (i, sim) in clean.iter().enumerate() {
        let mut faulty = sim.clone();
        faulty.config.flight_recorder = true;
        faulty.config.fault_plan = Some(FaultPlan::new(7).kill(0, 6));
        campaign.submit(Job::new(format!("ev{i}"), faulty));
    }
    let result = campaign.finish();
    assert!(result.all_ok(), "{}", result.report.render_text());

    let dossiers = dossiers_under(&root);
    assert_eq!(dossiers.len(), 1, "the fault fires once: {dossiers:?}");
    let incident = read_crash_dossier(&dossiers[0]).unwrap().incident;
    assert_eq!(incident.class, "rank_dead");
    assert_eq!(incident.rank, Some(0));
    for (sim, outcome) in clean.iter().zip(&result.outcomes) {
        assert_eq!(outcome.attempts, 2, "fused attempt + one alone");
        assert_eq!(outcome.telemetry.batch_lanes, 0, "finished alone");
        assert_eq!(
            outcome.telemetry.dossier,
            Some(dossiers[0].display().to_string()),
            "job {} must point at the incident's dossier",
            outcome.name
        );
        let got = outcome.result.as_ref().unwrap();
        let expected = sim.run_serial();
        assert_eq!(got.seismograms.len(), expected.seismograms.len());
        for (g, e) in got.seismograms.iter().zip(&expected.seismograms) {
            assert_eq!(g.station, e.station);
            assert_eq!(g.data, e.data, "job {} diverged from serial", outcome.name);
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn incompatible_jobs_never_fuse() {
    // Same mesh, different nsteps: they must run as two single-lane
    // jobs even with batching wide open.
    let mut campaign = Campaign::new(
        CampaignConfig {
            workers: 1,
            ..CampaignConfig::default()
        }
        .batching(8, Duration::from_millis(50)),
    );
    campaign.submit(Job::new("a", event_sim(5, 0)));
    campaign.submit(Job::new("b", event_sim(6, 1)));
    let result = campaign.finish();
    assert!(result.all_ok());
    assert_eq!(result.report.batched_jobs, 0);
    for o in &result.outcomes {
        assert_eq!(o.telemetry.batch_lanes, 0, "job {} fused wrongly", o.name);
    }
}
