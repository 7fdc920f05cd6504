//! Defense deployment end-to-end: the paper's use case of implementing and
//! evaluating defense strategies *inside* the simulation (§I, §V-A).

use analysis::{synthetic_dataset, LogisticRegression, ModelFilter, TrainConfig};
use ddosim::{AttackSpec, Ddosim, SimulationBuilder, TelemetryConfig};
use netsim::{FilterRule, SimTime, DEFAULT_RATE_LIMIT_BPS, DEFAULT_RATE_LIMIT_BURST_BYTES};
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn builder() -> SimulationBuilder {
    SimulationBuilder::new()
        .devs(15)
        .attack(AttackSpec::udp_plain(Duration::from_secs(30)))
        .attack_at(Duration::from_secs(30))
        .sim_time(Duration::from_secs(80))
        .attack_ramp(Duration::from_secs(3))
        .seed(21)
}

fn scenario() -> Ddosim {
    builder().build().expect("valid configuration")
}

#[test]
fn rate_limiter_at_the_upstream_router_mitigates_the_flood() {
    // Baseline: no defense.
    let undefended = scenario().run_to_completion();

    // Defended: per-source 64 kbps token bucket at the fabric router,
    // deployed reactively just before the attack window (deploying from
    // t=0 would throttle the attacker's file server too — it turns out a
    // per-source limiter blocks the infection chain's 121 kB downloads,
    // itself a defense result this framework can surface).
    let mut defended = scenario();
    let fabric = defended.fabric_node();
    defended.sim_mut().schedule_forkable_call(
        netsim::SimTime::from_secs(29),
        "defense.rate_limit",
        fabric,
        |sim, fabric| {
            sim.push_node_filter(
                fabric,
                FilterRule::rate_limit(DEFAULT_RATE_LIMIT_BPS, DEFAULT_RATE_LIMIT_BURST_BYTES),
            )
        },
    );
    let defended = defended.run_to_completion();

    assert_eq!(defended.infected, undefended.infected, "recruitment unaffected");
    assert!(
        defended.avg_received_data_rate_kbps < undefended.avg_received_data_rate_kbps * 0.5,
        "defense at least halves the attack: {:.0} vs {:.0} kbps",
        defended.avg_received_data_rate_kbps,
        undefended.avg_received_data_rate_kbps
    );
    // Aggregate allowance: 15 sources × 64 kbps plus burst headroom.
    assert!(
        defended.avg_received_data_rate_kbps < 15.0 * 64.0 * 1.5,
        "defended magnitude respects the per-source budget: {:.0} kbps",
        defended.avg_received_data_rate_kbps
    );
}

#[test]
fn filter_drops_are_accounted() {
    let mut defended = scenario();
    let fabric = defended.fabric_node();
    defended.sim_mut().schedule_forkable_call(
        netsim::SimTime::from_secs(29),
        "defense.rate_limit",
        fabric,
        |sim, fabric| sim.push_node_filter(fabric, FilterRule::rate_limit(32_000, 8 * 1024)),
    );
    defended.run_until(Duration::from_secs(62));
    let filtered = defended.sim_mut().stats().dropped_filtered;
    assert!(filtered > 1000, "flood packets must be filtered, got {filtered}");
}

#[test]
fn clearing_the_filter_restores_traffic() {
    let mut instance = scenario();
    let fabric = instance.fabric_node();
    // A bucket that never fills drops every packet.
    instance.sim_mut().push_node_filter(fabric, FilterRule::rate_limit(0, 0));
    instance.run_until(Duration::from_secs(5));
    // Under drop-all even the exploit exchange is blocked.
    assert_eq!(instance.infected_count(), 0);
    instance.sim_mut().clear_node_filters(fabric);
    instance.run_until(Duration::from_secs(25));
    assert_eq!(instance.infected_count(), 15, "infection resumes once the filter lifts");
}

/// The `netsim.filters` state digest of a world.
fn filters_digest(world: &Ddosim) -> u64 {
    let digests = world.state_digests();
    digests
        .iter()
        .find(|(layer, _)| layer == "netsim.filters")
        .map(|&(_, d)| d)
        .expect("netsim.filters layer")
}

#[test]
fn ml_defended_world_forks_and_checkpoints() {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
    let model =
        LogisticRegression::train(&synthetic_dataset(200, &mut rng), TrainConfig::default());
    let mut parent = builder()
        .telemetry(TelemetryConfig { record: true, ..TelemetryConfig::default() })
        .build()
        .expect("valid configuration");
    let fabric = parent.fabric_node();
    // Deployed just before the attack, scoring every 2 s (windows roll
    // over at 30, 32, 34, ... s).
    parent.sim_mut().schedule_forkable_call(
        SimTime::from_secs(29),
        "defense.model_filter",
        (fabric, Arc::new(model)),
        |sim, (fabric, model)| {
            let filter = ModelFilter::new((*model).clone(), Duration::from_secs(2), 0.5);
            sim.push_node_filter(fabric, FilterRule::Custom(Box::new(filter)));
        },
    );
    parent.run_until(Duration::from_millis(33_900));
    let before_roll = filters_digest(&parent);
    parent.run_until(Duration::from_millis(34_100));
    assert_ne!(before_roll, filters_digest(&parent), "the 34 s window roll-over is digested");
    parent.run_until(Duration::from_secs(35));
    let filtered = parent.sim_mut().stats().dropped_filtered;
    assert!(filtered > 0, "scored windows have blocked flood sources by the fork");

    let mut fork = parent.fork().expect("an ML-defended world forks");
    assert_eq!(fork.state_digests(), parent.state_digests());
    let checkpoint_at = Duration::from_secs(50);
    parent.set_checkpoint_at(checkpoint_at);
    fork.set_checkpoint_at(checkpoint_at);
    let parent_trace = parent.telemetry().clone();
    let fork_trace = fork.telemetry().clone();
    let (parent_result, parent_cp) = parent.try_run_to_completion().expect("parent runs");
    let (fork_result, fork_cp) = fork.try_run_to_completion().expect("fork runs");

    assert_eq!(
        parent_result.to_deterministic_json().to_string_compact(),
        fork_result.to_deterministic_json().to_string_compact(),
    );
    assert_eq!(
        parent_trace.recorder_json().expect("recording").to_string_compact(),
        fork_trace.recorder_json().expect("recording").to_string_compact(),
    );
    assert_eq!(
        parent_cp.expect("checkpoint armed").to_string_pretty(),
        fork_cp.expect("checkpoint armed").to_string_pretty(),
        "the filter state folds into identical checkpoints"
    );
}
