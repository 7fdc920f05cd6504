//! The paper's experiment series: parameter sweeps that regenerate every
//! table and figure of §IV.
//!
//! Each function returns typed rows; the `ddosim-bench` binaries render
//! them with [`crate::report::Table`] and record them for EXPERIMENTS.md.
//! Sweeps run their configurations on the worker pool ([`crate::pool`]:
//! one single-threaded simulator per worker).
//!
//! Two sweep modes layer on top of the pool:
//!
//! * **Streaming** — [`try_run_configs_streamed`] / [`run_suffixes_streamed`]
//!   fire a per-row callback the moment a worker finishes, then still return
//!   the full result set in input order. The batch form is the same call
//!   with a no-op callback (as [`run_configs`] makes it), so per-row
//!   outcomes are byte-identical by construction.
//! * **Common random numbers (CRN)** — [`crn_compare`] pairs a baseline
//!   against treatments with a shared [`RngPlan::pinned`] noise plan per
//!   replicate, so the A−B difference subtracts out world/event/fault noise;
//!   the paired experiment variants (`fig2_paired` …) report the measured
//!   variance reduction against independent seeding.

use crate::config::{Recruitment, RngPlan, SimulationBuilder, SimulationConfig};
use crate::instance::Ddosim;
use crate::pool;
use crate::result::RunResult;
use crate::suffix::SuffixSpec;
use churn::ChurnMode;
use firmware::CommandSet;
use std::time::Duration;
use tinyvm::{ProtectionMix, Protections};

/// Runs each configuration on the worker pool ([`pool::run`]) and returns
/// per-run outcomes in input order: `Ok(result)` for runs that completed,
/// `Err(message)` for configurations that were invalid or panicked mid-run
/// — one bad point in a sweep costs that row, not the hours of completed
/// rows around it. `on_row(i, outcome)` fires on the calling thread the
/// moment row `i` finishes (completion order); pass `|_, _| {}` for the
/// batch form, whose rows are byte-identical to the streamed ones.
pub fn try_run_configs_streamed(
    configs: Vec<SimulationConfig>,
    on_row: impl FnMut(usize, &Result<RunResult, String>),
) -> Vec<Result<RunResult, String>> {
    pool::run(
        configs,
        |i, config| match pool::isolate(|| Ddosim::new(config).map(Ddosim::run_to_completion)) {
            Ok(Ok(result)) => Ok(result),
            Ok(Err(msg)) => Err(format!("configuration {i} invalid: {msg}")),
            Err(panic) => Err(format!("run {i} {panic}")),
        },
        on_row,
    )
}

/// A forked [`Ddosim`] crossing a thread boundary.
///
/// SAFETY: `Ddosim::fork` deep-clones the whole world — every `Rc` in the
/// fork's object graph (containers, TCP state, telemetry collectors) is
/// freshly allocated and reachable only through this fork, so moving the
/// world to another thread moves *all* owners of each `Rc` together.
/// `Arc`-shared content (firmware images, served files, propagation
/// target lists) is plain immutable data.
struct SendWorld(Ddosim);
unsafe impl Send for SendWorld {}

/// One completed scenario-tree branch: the run's result plus — when the
/// world records — the fork's full flight-recorder trace. The trace
/// includes the shared prefix (a fork inherits the parent's recorder
/// contents and sequence counter), so diffing it against a
/// straight-through run's trace proves fork equivalence byte for byte.
#[derive(Debug)]
pub struct SuffixOutcome {
    /// The branch's run result.
    pub result: RunResult,
    /// The branch's flight-recorder document, if recording was enabled.
    pub trace: Option<djson::Json>,
}

/// Fans a scenario tree's suffixes out across the worker pool: forks
/// `parent` once per suffix (decorrelated by each suffix's fork seed),
/// applies the suffix's divergence, and runs every fork to completion.
/// Outcomes come back in input order, one per suffix — `Err` rows carry
/// the fork/apply/run failure without costing the rows around them.
/// `on_row(i, outcome)` fires on the calling thread as each branch
/// finishes (completion order); pass `|_, _| {}` for the batch form.
///
/// The parent must already stand at the fork point (run it there with
/// [`Ddosim::run_prefix`]); it is only read, never advanced, so the
/// caller can fork it again for another round. Forking is lazy: the
/// calling thread is the pool's producer and forks one world per item,
/// so at most `2 × threads + 1` forked worlds are alive at once — peak
/// memory is O(threads × world size), not O(suffixes × world size).
pub fn run_suffixes_streamed(
    parent: &Ddosim,
    suffixes: &[SuffixSpec],
    on_row: impl FnMut(usize, &Result<SuffixOutcome, String>),
) -> Vec<Result<SuffixOutcome, String>> {
    let forks = suffixes.iter().map(|spec| -> Result<SendWorld, String> {
        let mut world = parent.fork_with_seed(spec.fork_seed)?;
        world.apply_suffix(spec)?;
        Ok(SendWorld(world))
    });
    pool::run(
        forks,
        |i, world| {
            let SendWorld(world) = world.map_err(|msg| format!("suffix {i} invalid: {msg}"))?;
            // The handle shares the fork's collectors, so it stays readable
            // after the run consumes the world.
            let tele = world.telemetry().clone();
            match pool::isolate(|| world.try_run_to_completion()) {
                Ok(Ok((result, _))) => Ok(SuffixOutcome { result, trace: tele.recorder_json() }),
                Ok(Err(msg)) => Err(format!("suffix {i} failed: {msg}")),
                Err(panic) => Err(format!("suffix {i} {panic}")),
            }
        },
        on_row,
    )
}

/// Runs each configuration (in parallel across available threads) and
/// returns results in input order.
///
/// # Panics
///
/// Panics if any configuration is invalid or any run panicked — sweep code
/// constructs its own configurations, so this indicates a programming
/// error. Unlike a raw worker panic, the message aggregates *all* failed
/// rows after every other row has finished. Use
/// [`try_run_configs_streamed`] to keep partial results instead.
pub fn run_configs(configs: Vec<SimulationConfig>) -> Vec<RunResult> {
    let outcomes = try_run_configs_streamed(configs, |_, _| {});
    let failures: Vec<String> = outcomes
        .iter()
        .filter_map(|r| r.as_ref().err().cloned())
        .collect();
    assert!(
        failures.is_empty(),
        "sweep failed on {} of {} runs: {}",
        failures.len(),
        outcomes.len(),
        failures.join("; ")
    );
    outcomes
        .into_iter()
        .map(|r| r.expect("failures are empty"))
        .collect()
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Unbiased sample variance (n − 1 denominator); 0 for fewer than two
/// samples.
fn sample_variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values.iter().copied());
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64
}

/// One treatment of a common-random-numbers comparison: the paired
/// (shared-noise) A−B statistics next to the same comparison run with
/// independent seeds, so the variance reduction CRN buys is measured, not
/// assumed.
#[derive(Debug, Clone)]
pub struct CrnComparison {
    /// Human-readable treatment label.
    pub label: String,
    /// Mean metric of the baseline arm (paired replicates).
    pub baseline_mean: f64,
    /// Mean metric of the treatment arm (paired replicates).
    pub treatment_mean: f64,
    /// Mean paired difference (treatment − baseline).
    pub diff_mean: f64,
    /// Sample variance of the per-replicate difference under shared noise.
    pub paired_diff_var: f64,
    /// Sample variance of the per-replicate difference under independent
    /// seeds.
    pub independent_diff_var: f64,
    /// `independent_diff_var / paired_diff_var` — how many times fewer
    /// replicates the paired design needs for the same standard error
    /// (`f64::INFINITY` when pairing removes the noise entirely).
    pub variance_ratio: f64,
    /// Replicates per arm.
    pub replicates: u64,
}

/// Runs a paired common-random-numbers comparison of `baseline` against
/// each labelled treatment, next to the identical comparison with
/// independent seeds.
///
/// Per replicate `r`, the paired arms both carry
/// [`RngPlan::pinned`]`(base_seed + r)` — identical world, event, and
/// fault streams, so the treatment is the *only* thing that differs — and
/// the independent arms draw disjoint seeds with the default plan. All
/// runs go through one [`run_configs`] pool batch.
///
/// # Panics
///
/// Panics if `replicates < 2` (a variance needs two samples) or if any
/// constructed configuration fails to run (as [`run_configs`]).
pub fn crn_compare(
    baseline: &SimulationConfig,
    treatments: &[(String, SimulationConfig)],
    replicates: u64,
    base_seed: u64,
    metric: impl Fn(&RunResult) -> f64,
) -> Vec<CrnComparison> {
    assert!(replicates >= 2, "CRN comparison needs at least two replicates");
    // Disjoint seed blocks keep the independent arms genuinely
    // independent — of the paired arms and of each other.
    const INDEP_BASELINE_BLOCK: u64 = 10_000;
    const INDEP_TREATMENT_BLOCK: u64 = 20_000;
    let with_pinned = |c: &SimulationConfig, rep: u64| {
        let mut c = c.clone();
        c.seed = base_seed + rep;
        c.rng = RngPlan::pinned(base_seed + rep);
        c
    };
    let with_seed = |c: &SimulationConfig, block: u64, rep: u64| {
        let mut c = c.clone();
        c.seed = base_seed + block + rep;
        c.rng = RngPlan::default();
        c
    };
    let reps = replicates as usize;
    let mut configs = Vec::with_capacity(reps * 2 * (treatments.len() + 1));
    for rep in 0..replicates {
        configs.push(with_pinned(baseline, rep));
    }
    for rep in 0..replicates {
        configs.push(with_seed(baseline, INDEP_BASELINE_BLOCK, rep));
    }
    for (k, (_, treatment)) in treatments.iter().enumerate() {
        for rep in 0..replicates {
            configs.push(with_pinned(treatment, rep));
        }
        for rep in 0..replicates {
            configs.push(with_seed(
                treatment,
                INDEP_TREATMENT_BLOCK + k as u64 * replicates,
                rep,
            ));
        }
    }
    let results = run_configs(configs);
    let vals = |block: usize| -> Vec<f64> {
        results[block * reps..(block + 1) * reps]
            .iter()
            .map(&metric)
            .collect()
    };
    let paired_base = vals(0);
    let indep_base = vals(1);
    treatments
        .iter()
        .enumerate()
        .map(|(k, (label, _))| {
            let paired_treat = vals(2 + 2 * k);
            let indep_treat = vals(3 + 2 * k);
            let paired_diffs: Vec<f64> = paired_treat
                .iter()
                .zip(&paired_base)
                .map(|(t, b)| t - b)
                .collect();
            let indep_diffs: Vec<f64> = indep_treat
                .iter()
                .zip(&indep_base)
                .map(|(t, b)| t - b)
                .collect();
            let paired_diff_var = sample_variance(&paired_diffs);
            let independent_diff_var = sample_variance(&indep_diffs);
            let variance_ratio = if paired_diff_var > 0.0 {
                independent_diff_var / paired_diff_var
            } else if independent_diff_var > 0.0 {
                f64::INFINITY
            } else {
                1.0
            };
            CrnComparison {
                label: label.clone(),
                baseline_mean: mean(paired_base.iter().copied()),
                treatment_mean: mean(paired_treat.iter().copied()),
                diff_mean: mean(paired_diffs.iter().copied()),
                paired_diff_var,
                independent_diff_var,
                variance_ratio,
                replicates,
            }
        })
        .collect()
}

/// One point of Figure 2.
#[derive(Debug, Clone)]
pub struct Fig2Point {
    /// Number of Devs.
    pub devs: usize,
    /// Churn variant.
    pub churn: ChurnMode,
    /// Mean average received data rate over replicates (kbps).
    pub avg_kbps: f64,
    /// Mean infected count over replicates.
    pub infected: f64,
    /// Per-replicate results.
    pub runs: Vec<RunResult>,
}

/// Figure 2: average received data rate vs number of Devs, for each churn
/// level; 100-second attack (§IV-B).
pub fn fig2(dev_counts: &[usize], replicates: u64, base_seed: u64) -> Vec<Fig2Point> {
    let modes = [ChurnMode::None, ChurnMode::Static, ChurnMode::Dynamic];
    let mut configs = Vec::new();
    for &devs in dev_counts {
        for &mode in &modes {
            for rep in 0..replicates {
                configs.push(
                    SimulationBuilder::new()
                        .devs(devs)
                        .churn(mode)
                        .seed(base_seed + rep)
                        .config()
                        .clone(),
                );
            }
        }
    }
    let results = run_configs(configs);
    let mut points = Vec::new();
    let mut it = results.into_iter();
    for &devs in dev_counts {
        for &mode in &modes {
            let runs: Vec<RunResult> = (&mut it).take(replicates as usize).collect();
            points.push(Fig2Point {
                devs,
                churn: mode,
                avg_kbps: mean(runs.iter().map(|r| r.avg_received_data_rate_kbps)),
                infected: mean(runs.iter().map(|r| r.infected as f64)),
                runs,
            });
        }
    }
    points
}

/// One point of Figure 3.
#[derive(Debug, Clone)]
pub struct Fig3Point {
    /// Number of Devs in the round.
    pub devs: usize,
    /// Commanded attack duration (seconds).
    pub duration_secs: u64,
    /// Mean average received data rate (kbps).
    pub avg_kbps: f64,
    /// Per-replicate results.
    pub runs: Vec<RunResult>,
}

/// Figure 3: average received data rate vs attack duration (150/200/300 s),
/// across rounds of 50/100/150/200 Devs (§IV-B); no churn.
pub fn fig3(
    dev_counts: &[usize],
    durations_secs: &[u64],
    replicates: u64,
    base_seed: u64,
) -> Vec<Fig3Point> {
    let mut configs = Vec::new();
    for &devs in dev_counts {
        for &dur in durations_secs {
            for rep in 0..replicates {
                configs.push(
                    SimulationBuilder::new()
                        .devs(devs)
                        .attack(crate::AttackSpec::udp_plain(Duration::from_secs(dur)))
                        .seed(base_seed + rep)
                        .config()
                        .clone(),
                );
            }
        }
    }
    let results = run_configs(configs);
    let mut points = Vec::new();
    let mut it = results.into_iter();
    for &devs in dev_counts {
        for &dur in durations_secs {
            let runs: Vec<RunResult> = (&mut it).take(replicates as usize).collect();
            points.push(Fig3Point {
                devs,
                duration_secs: dur,
                avg_kbps: mean(runs.iter().map(|r| r.avg_received_data_rate_kbps)),
                runs,
            });
        }
    }
    points
}

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Number of Devs.
    pub devs: usize,
    /// Pre-attack memory (GB).
    pub pre_attack_mem_gb: f64,
    /// Attack-phase memory (GB).
    pub attack_mem_gb: f64,
    /// Attack wall-clock, `m:ss`.
    pub attack_time: String,
    /// Raw attack wall-clock seconds.
    pub attack_wall_clock_secs: f64,
}

/// Table I: hardware resources consumed vs number of Devs (20–130),
/// 100-second attack, no churn (§IV-B).
pub fn table1(dev_counts: &[usize], base_seed: u64) -> Vec<Table1Row> {
    let configs: Vec<SimulationConfig> = dev_counts
        .iter()
        .map(|&devs| SimulationBuilder::new().devs(devs).seed(base_seed).config().clone())
        .collect();
    // Wall-clock is the measurement here: run sequentially so runs do not
    // contend for cores.
    let results: Vec<RunResult> = configs
        .into_iter()
        .map(|c| {
            Ddosim::new(c)
                .expect("table1 configurations are valid")
                .run_to_completion()
        })
        .collect();
    dev_counts
        .iter()
        .zip(results)
        .map(|(&devs, r)| Table1Row {
            devs,
            pre_attack_mem_gb: r.pre_attack_mem_gb,
            attack_mem_gb: r.attack_mem_gb,
            attack_time: r.attack_time_m_ss(),
            attack_wall_clock_secs: r.attack_wall_clock_secs,
        })
        .collect()
}

/// One cell of the infection-rate matrix (R1/R2).
#[derive(Debug, Clone)]
pub struct InfectionPoint {
    /// Protection configuration of all Devs in the run.
    pub protections: Protections,
    /// Exploit strategy used by the Attacker.
    pub strategy: crate::ExploitStrategy,
    /// Fraction of Devs recruited.
    pub infection_rate: f64,
    /// Mean seconds from start to infection (recruited Devs only).
    pub mean_time_to_infection_secs: f64,
}

/// R1/R2: infection rate by (protections × exploit strategy). The paper's
/// headline cell is leak+rebase against random protection subsets → 100%.
pub fn infection_matrix(devs: usize, base_seed: u64) -> Vec<InfectionPoint> {
    let strategies = [
        crate::ExploitStrategy::LeakRebase,
        crate::ExploitStrategy::StaticChain,
        crate::ExploitStrategy::CodeInjection,
    ];
    let mut configs = Vec::new();
    for &p in &Protections::ALL_SUBSETS {
        for &s in &strategies {
            configs.push(
                SimulationBuilder::new()
                    .devs(devs)
                    .protections(ProtectionMix::Uniform(p))
                    .strategy(s)
                    .seed(base_seed)
                    .config()
                    .clone(),
            );
        }
    }
    let results = run_configs(configs);
    let mut points = Vec::new();
    let mut it = results.into_iter();
    for &p in &Protections::ALL_SUBSETS {
        for &s in &strategies {
            let r = it.next().expect("one result per cell");
            let mean_t = mean(r.infection_times_secs.iter().copied());
            points.push(InfectionPoint {
                protections: p,
                strategy: s,
                infection_rate: r.infection_rate,
                mean_time_to_infection_secs: mean_t,
            });
        }
    }
    points
}

/// One row of the hardening/insight ablations (§IV-C).
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Human-readable ablation label.
    pub label: String,
    /// Infection rate achieved.
    pub infection_rate: f64,
    /// Average received data rate (kbps).
    pub avg_kbps: f64,
}

/// §IV-C insight ablations: removing `curl` blocks infection; capping the
/// device data rate caps attack magnitude.
pub fn ablations(devs: usize, base_seed: u64) -> Vec<AblationRow> {
    let cases: Vec<(String, SimulationConfig)> = vec![
        (
            "baseline (curl present, 100-500 kbps)".to_owned(),
            SimulationBuilder::new().devs(devs).seed(base_seed).config().clone(),
        ),
        (
            "vendor removes curl".to_owned(),
            SimulationBuilder::new()
                .devs(devs)
                .commands(CommandSet::without(&["curl"]))
                .seed(base_seed)
                .config()
                .clone(),
        ),
        (
            "vendor removes wget (stage-2 blocked)".to_owned(),
            SimulationBuilder::new()
                .devs(devs)
                .commands(CommandSet::without(&["wget"]))
                .seed(base_seed)
                .config()
                .clone(),
        ),
        (
            "device data rate capped at 100-150 kbps".to_owned(),
            SimulationBuilder::new()
                .devs(devs)
                .access_rate_kbps(100..=150)
                .seed(base_seed)
                .config()
                .clone(),
        ),
        (
            "device data rate 400-500 kbps".to_owned(),
            SimulationBuilder::new()
                .devs(devs)
                .access_rate_kbps(400..=500)
                .seed(base_seed)
                .config()
                .clone(),
        ),
        (
            "firmware rebuilt with stack canaries".to_owned(),
            SimulationBuilder::new()
                .devs(devs)
                .protections(ProtectionMix::Uniform(Protections::HARDENED))
                .seed(base_seed)
                .config()
                .clone(),
        ),
        (
            "tiered Internet (5 regions x 5 Mbps uplinks)".to_owned(),
            SimulationBuilder::new()
                .devs(devs)
                .topology(crate::TopologyKind::Tiered {
                    regions: 5,
                    region_uplink_bps: 5_000_000,
                })
                .seed(base_seed)
                .config()
                .clone(),
        ),
    ];
    let (labels, configs): (Vec<String>, Vec<SimulationConfig>) = cases.into_iter().unzip();
    let results = run_configs(configs);
    labels
        .into_iter()
        .zip(results)
        .map(|(label, r)| AblationRow {
            label,
            infection_rate: r.infection_rate,
            avg_kbps: r.avg_received_data_rate_kbps,
        })
        .collect()
}

/// Comparison of recruitment mechanisms: the paper's memory-error entry
/// point vs the Mirai-classic credential dictionary.
#[derive(Debug, Clone)]
pub struct RecruitmentRow {
    /// Mechanism label.
    pub label: String,
    /// Fraction of Devs recruited.
    pub infection_rate: f64,
    /// Average received data rate achieved by the resulting botnet (kbps).
    pub avg_kbps: f64,
}

/// Memory-error recruitment vs credential-scanner baseline at several
/// default-credential prevalence levels.
pub fn recruitment_comparison(devs: usize, base_seed: u64) -> Vec<RecruitmentRow> {
    let mut cases: Vec<(String, SimulationConfig)> = vec![(
        "memory-error exploitation (paper)".to_owned(),
        SimulationBuilder::new().devs(devs).seed(base_seed).config().clone(),
    )];
    for frac in [0.2, 0.5, 0.8] {
        cases.push((
            format!("credential scanner, {:.0}% default creds", frac * 100.0),
            SimulationBuilder::new()
                .devs(devs)
                .recruitment(Recruitment::CredentialScanner {
                    default_credential_fraction: frac,
                })
                .seed(base_seed)
                .config()
                .clone(),
        ));
    }
    let (labels, configs): (Vec<String>, Vec<SimulationConfig>) = cases.into_iter().unzip();
    let results = run_configs(configs);
    labels
        .into_iter()
        .zip(results)
        .map(|(label, r)| RecruitmentRow {
            label,
            infection_rate: r.infection_rate,
            avg_kbps: r.avg_received_data_rate_kbps,
        })
        .collect()
}

/// Figure 2's churn comparison as a paired-CRN experiment: static and
/// dynamic churn against the churn-free baseline at `devs` devices, metric
/// = average received data rate (kbps).
pub fn fig2_paired(devs: usize, replicates: u64, base_seed: u64) -> Vec<CrnComparison> {
    let base = SimulationBuilder::new().devs(devs).config().clone();
    let treatments = vec![
        (
            "static churn".to_owned(),
            SimulationBuilder::new().devs(devs).churn(ChurnMode::Static).config().clone(),
        ),
        (
            "dynamic churn".to_owned(),
            SimulationBuilder::new().devs(devs).churn(ChurnMode::Dynamic).config().clone(),
        ),
    ];
    crn_compare(&base, &treatments, replicates, base_seed, |r| {
        r.avg_received_data_rate_kbps
    })
}

/// Figure 3's duration comparison as a paired-CRN experiment: every longer
/// attack duration against the shortest, metric = average received data
/// rate (kbps).
///
/// # Panics
///
/// Panics if fewer than two durations are given.
pub fn fig3_paired(
    devs: usize,
    durations_secs: &[u64],
    replicates: u64,
    base_seed: u64,
) -> Vec<CrnComparison> {
    assert!(durations_secs.len() >= 2, "fig3_paired needs a baseline and a treatment");
    let with_duration = |secs: u64| {
        SimulationBuilder::new()
            .devs(devs)
            .attack(crate::AttackSpec::udp_plain(Duration::from_secs(secs)))
            .config()
            .clone()
    };
    let base = with_duration(durations_secs[0]);
    let treatments: Vec<(String, SimulationConfig)> = durations_secs[1..]
        .iter()
        .map(|&secs| {
            (
                format!("{secs}s attack vs {}s", durations_secs[0]),
                with_duration(secs),
            )
        })
        .collect();
    crn_compare(&base, &treatments, replicates, base_seed, |r| {
        r.avg_received_data_rate_kbps
    })
}

/// The R1/R2 strategy comparison as a paired-CRN experiment: static-chain
/// and code-injection exploits against leak+rebase on random protection
/// subsets, metric = infection rate.
pub fn infection_matrix_paired(devs: usize, replicates: u64, base_seed: u64) -> Vec<CrnComparison> {
    let with_strategy = |s: crate::ExploitStrategy| {
        SimulationBuilder::new().devs(devs).strategy(s).config().clone()
    };
    let base = with_strategy(crate::ExploitStrategy::LeakRebase);
    let treatments = vec![
        (
            "static chain vs leak+rebase".to_owned(),
            with_strategy(crate::ExploitStrategy::StaticChain),
        ),
        (
            "code injection vs leak+rebase".to_owned(),
            with_strategy(crate::ExploitStrategy::CodeInjection),
        ),
    ];
    crn_compare(&base, &treatments, replicates, base_seed, |r| r.infection_rate)
}

/// The §IV-C hardening ablations as a paired-CRN experiment: each ablation
/// against the unhardened baseline, metric = average received data rate
/// (kbps).
pub fn ablations_paired(devs: usize, replicates: u64, base_seed: u64) -> Vec<CrnComparison> {
    let base = SimulationBuilder::new().devs(devs).config().clone();
    let treatments = vec![
        (
            "vendor removes curl".to_owned(),
            SimulationBuilder::new()
                .devs(devs)
                .commands(CommandSet::without(&["curl"]))
                .config()
                .clone(),
        ),
        (
            "device data rate capped at 100-150 kbps".to_owned(),
            SimulationBuilder::new().devs(devs).access_rate_kbps(100..=150).config().clone(),
        ),
        (
            "firmware rebuilt with stack canaries".to_owned(),
            SimulationBuilder::new()
                .devs(devs)
                .protections(ProtectionMix::Uniform(Protections::HARDENED))
                .config()
                .clone(),
        ),
    ];
    crn_compare(&base, &treatments, replicates, base_seed, |r| {
        r.avg_received_data_rate_kbps
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(devs: usize, seed: u64) -> SimulationConfig {
        SimulationBuilder::new()
            .devs(devs)
            .attack(crate::AttackSpec::udp_plain(Duration::from_secs(15)))
            .attack_at(Duration::from_secs(25))
            .sim_time(Duration::from_secs(45))
            .attack_ramp(Duration::from_secs(2))
            .seed(seed)
            .config()
            .clone()
    }

    #[test]
    fn run_configs_preserves_order_and_parallelizes() {
        let configs = vec![small(2, 1), small(4, 2), small(6, 3)];
        let results = run_configs(configs);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].devs, 2);
        assert_eq!(results[1].devs, 4);
        assert_eq!(results[2].devs, 6);
    }

    #[test]
    fn identical_configs_give_identical_results() {
        let results = run_configs(vec![small(3, 9), small(3, 9)]);
        assert_eq!(
            results[0].avg_received_data_rate_kbps,
            results[1].avg_received_data_rate_kbps
        );
        assert_eq!(results[0].packets_sent, results[1].packets_sent);
    }

    #[test]
    fn one_failing_config_does_not_poison_the_sweep() {
        // devs = 0 fails validation inside the worker thread; it must
        // cost only its own row, never the rows around it.
        let invalid = SimulationConfig { devs: 0, ..small(2, 1) };
        let outcomes =
            try_run_configs_streamed(vec![small(2, 1), invalid, small(3, 2)], |_, _| {});
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].as_ref().map(|r| r.devs), Ok(2));
        assert_eq!(outcomes[2].as_ref().map(|r| r.devs), Ok(3));
        let err = outcomes[1].as_ref().expect_err("devs = 0 must fail");
        assert!(err.contains("configuration 1 invalid"), "got: {err}");
    }

    #[test]
    fn run_configs_panics_with_aggregate_message_on_failure() {
        let invalid = SimulationConfig { devs: 0, ..small(2, 1) };
        let msg = pool::isolate(|| run_configs(vec![small(2, 1), invalid]))
            .expect_err("run_configs must propagate the failure");
        assert!(msg.contains("1 of 2 runs"), "got: {msg}");
    }

    #[test]
    fn poisoned_row_panic_reports_location_and_other_rows_complete() {
        // tserver_link_bps = 0 passes validation but panics mid-run (the
        // zero-rate tx_delay) once attack traffic reaches the TServer
        // link — a worker *panic*, not an Err. It must cost only its own
        // row, rows on both sides still complete in input order, and the
        // failure string must carry the panic's file:line.
        let poisoned = SimulationConfig {
            tserver_link_bps: 0,
            ..small(2, 1)
        };
        let outcomes =
            try_run_configs_streamed(vec![small(2, 1), poisoned, small(3, 2)], |_, _| {});
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].as_ref().map(|r| r.devs), Ok(2));
        assert_eq!(outcomes[2].as_ref().map(|r| r.devs), Ok(3));
        let err = outcomes[1].as_ref().expect_err("zero-rate link must panic");
        assert!(err.starts_with("run 1 panicked at "), "got: {err}");
        assert!(err.contains(".rs:"), "panic location missing from: {err}");
    }

    #[test]
    fn crn_pairing_reduces_difference_variance() {
        // Treatment: a longer attack duration. Both arms' received rate
        // scales with the same world draws (the bots' access-link rates),
        // so under a shared noise plan the A−B difference cancels that
        // noise, while independent seeds redraw it in both arms. (A
        // treatment whose arm stops responding to the shared noise — e.g.
        // capping the flood below the access range — would defeat the
        // pairing; CRN pays off when both arms co-vary with the noise.)
        let base = small(2, 0);
        let mut longer = base.clone();
        longer.attack.duration = Duration::from_secs(18);
        let rows = crn_compare(
            &base,
            &[("18s attack vs 15s".to_owned(), longer)],
            20,
            1000,
            |r| r.avg_received_data_rate_kbps,
        );
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.replicates, 20);
        assert!(
            row.independent_diff_var > 0.0,
            "independent seeds must produce varying differences"
        );
        assert!(
            row.paired_diff_var < row.independent_diff_var,
            "paired variance {} must be strictly below independent variance {}",
            row.paired_diff_var,
            row.independent_diff_var
        );
        assert!(row.variance_ratio > 1.0, "ratio: {}", row.variance_ratio);
    }

    #[test]
    fn crn_paired_arms_share_noise_streams() {
        // Two paired configs that do not differ at all must produce the
        // same deterministic result even though their run seeds differ:
        // every noise stream is pinned.
        let mut a = small(3, 1);
        let mut b = small(3, 2);
        a.rng = RngPlan::pinned(55);
        b.rng = RngPlan::pinned(55);
        let results = run_configs(vec![a, b]);
        assert_eq!(results[0].packets_sent, results[1].packets_sent);
        assert_eq!(
            results[0].avg_received_data_rate_kbps,
            results[1].avg_received_data_rate_kbps
        );
        assert_eq!(results[0].infected, results[1].infected);
    }

    #[test]
    fn pinned_plan_reproduces_the_plain_run_of_its_noise_seed() {
        // pinned(s) on any run seed is the same world as a plain run with
        // seed = s — the pinning is an override, not a new derivation.
        let plain = Ddosim::new(small(3, 7)).expect("valid").run_to_completion();
        let mut pinned = small(3, 1234);
        pinned.rng = RngPlan::pinned(7);
        let r = Ddosim::new(pinned).expect("valid").run_to_completion();
        assert_eq!(r.packets_sent, plain.packets_sent);
        assert_eq!(
            r.avg_received_data_rate_kbps,
            plain.avg_received_data_rate_kbps
        );
    }

    fn parent_at_20s() -> Ddosim {
        let mut parent = Ddosim::new(small(3, 11)).expect("valid");
        parent.run_prefix(Duration::from_secs(20)).expect("prefix runs");
        parent
    }

    fn results(rows: &[Result<SuffixOutcome, String>]) -> Vec<Result<&RunResult, &String>> {
        rows.iter().map(|row| row.as_ref().map(|o| &o.result)).collect()
    }

    #[test]
    fn run_suffixes_empty_and_identity() {
        let parent = parent_at_20s();
        assert!(run_suffixes_streamed(&parent, &[], |_, _| {}).is_empty());
        let straight = Ddosim::new(small(3, 11)).expect("valid").run_to_completion();
        let rows = run_suffixes_streamed(
            &parent,
            &[SuffixSpec::identity("a"), SuffixSpec::identity("b")],
            |_, _| {},
        );
        assert_eq!(rows.len(), 2);
        for row in results(&rows) {
            let r = row.expect("identity suffix completes");
            assert_eq!(r.packets_sent, straight.packets_sent);
            assert_eq!(r.flood_packets_received, straight.flood_packets_received);
        }
    }

    #[test]
    fn run_suffixes_bad_horizon_costs_only_its_row() {
        let bad = SuffixSpec {
            horizon: Some(Duration::from_secs(1)),
            ..SuffixSpec::identity("bad")
        };
        let rows =
            run_suffixes_streamed(&parent_at_20s(), &[SuffixSpec::identity("ok"), bad], |_, _| {});
        let rows = results(&rows);
        assert!(rows[0].is_ok());
        let err = rows[1].expect_err("horizon before attack end");
        assert!(err.starts_with("suffix 1 invalid: "), "got: {err}");
        assert!(err.contains("horizon"), "got: {err}");
    }

    #[test]
    fn run_suffixes_failed_run_costs_only_its_row() {
        // A checkpoint armed past a suffix's shortened horizon is never
        // reached: that branch's run fails, its sibling saves it and
        // completes.
        let mut parent = parent_at_20s();
        parent.set_checkpoint_at(Duration::from_secs(44));
        let short = SuffixSpec {
            horizon: Some(Duration::from_secs(40)),
            ..SuffixSpec::identity("short")
        };
        let rows =
            run_suffixes_streamed(&parent, &[SuffixSpec::identity("ok"), short], |_, _| {});
        let rows = results(&rows);
        assert!(rows[0].is_ok());
        let err = rows[1].expect_err("checkpoint beyond the horizon");
        assert!(err.starts_with("suffix 1 failed: checkpoint time 44.000s"), "got: {err}");
    }

    /// Peak resident set (VmHWM) of this process, in kB.
    fn peak_rss_kb() -> u64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                    l.split_whitespace().nth(1).and_then(|v| v.parse().ok())
                })
            })
            .unwrap_or(0)
    }

    #[test]
    fn wide_suffix_sweep_forks_lazily() {
        let threads = pool::tests::pool_threads();
        let mut parent = Ddosim::new(small(4, 11)).expect("valid");
        parent.run_prefix(Duration::from_secs(20)).expect("prefix runs");
        let n = threads * 4 + 2;
        let suffixes: Vec<SuffixSpec> = (0..n)
            .map(|i| SuffixSpec::identity(format!("s{i}")))
            .collect();
        let rss_before = peak_rss_kb();
        let mut delivered = 0usize;
        let rows = run_suffixes_streamed(&parent, &suffixes, |_, outcome| {
            assert!(outcome.is_ok());
            delivered += 1;
        });
        assert_eq!(rows.len(), n);
        assert_eq!(delivered, n);
        assert!(rows.iter().all(Result::is_ok));
        // The precise lazy-forking invariant: live worlds never exceed the
        // pool (running) + the hand-off queue (threads) + the one in the
        // producer's hand. The pool's items are the forks, made by its
        // producer one at a time; eager forking holds all n alive at once.
        let peak = pool::tests::last_peak_in_flight();
        assert!(peak >= 1, "at least one fork must have been live");
        assert!(
            peak <= 2 * threads + 2,
            "peak of {peak} live forks exceeds the lazy bound for {threads} threads \
             ({n} suffixes would all be live under eager forking)"
        );
        // Coarse end-to-end check on the same property: a wide sweep of
        // small worlds must not balloon the process high-water mark the
        // way n simultaneous deep clones would.
        let rss_grown_kb = peak_rss_kb().saturating_sub(rss_before);
        assert!(
            rss_grown_kb < 512 * 1024,
            "wide suffix sweep grew peak RSS by {rss_grown_kb} kB"
        );
    }
}
