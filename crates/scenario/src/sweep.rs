//! Grid sweeps over a scenario plan's defense parameters under common
//! random numbers.
//!
//! ROADMAP item 3 meets item 1 here: a base plan is expanded into a grid
//! of cells that differ only in one defense's parameters (rate-limit
//! budget × deploy time, patch waves × interval, takedown time × backup
//! count), and every cell of a replicate runs under the same pinned
//! [`RngPlan`] — identical world, event, and fault streams — so
//! cell-to-cell differences are the defense's effect, not reseeded noise.
//! Cells run on the workspace worker pool ([`ddosim_core::pool`]) and
//! rows stream back as workers finish, like
//! [`ddosim_core::try_run_configs_streamed`].

use crate::plan::{DefenseSpec, ScenarioPlan};
use ddosim_core::{pool, Ddosim, RngPlan, RunResult};
use djson::Json;
use std::time::Duration;

/// One cell of a defense-parameter grid: a label naming the parameters
/// and the plan variant carrying them.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Human-readable cell label (row label in frontier tables).
    pub label: String,
    /// The plan variant this cell runs.
    pub plan: ScenarioPlan,
}

/// Replaces the single `rate_limit` defense across a (rate × deploy-time)
/// grid.
///
/// # Errors
///
/// Returns a message if the base plan has no `rate_limit` defense or has
/// more than one.
pub fn rate_limit_grid(
    base: &ScenarioPlan,
    rates_bps: &[u64],
    deploy_at_secs: &[u64],
) -> Result<Vec<GridCell>, String> {
    expand(base, "rate_limit", rates_bps, deploy_at_secs, |d, &rate, &at| {
        let DefenseSpec::RateLimit { burst_bytes, .. } = *d else {
            unreachable!("expand matched the kind");
        };
        (
            format!("rate_limit {rate} bps at {at}s"),
            DefenseSpec::RateLimit {
                at: Duration::from_secs(at),
                rate_bps: rate,
                burst_bytes,
            },
        )
    })
}

/// Replaces the single `patch_rollout` defense across a (wave count ×
/// wave interval) grid.
///
/// # Errors
///
/// Returns a message if the base plan has no `patch_rollout` defense or
/// has more than one.
pub fn patch_rollout_grid(
    base: &ScenarioPlan,
    waves: &[u32],
    wave_interval_secs: &[u64],
) -> Result<Vec<GridCell>, String> {
    expand(base, "patch_rollout", waves, wave_interval_secs, |d, &w, &secs| {
        let DefenseSpec::PatchRollout { start, ref remove, .. } = *d else {
            unreachable!("expand matched the kind");
        };
        (
            format!("patch_rollout {w} waves every {secs}s"),
            DefenseSpec::PatchRollout {
                start,
                wave_interval: Duration::from_secs(secs),
                waves: w,
                remove: remove.clone(),
            },
        )
    })
}

/// Replaces the single `cnc_takedown` defense across a (takedown time ×
/// backup count) grid. The backup count is build-time world shape, so the
/// cell's configuration is re-synced with the defense.
///
/// # Errors
///
/// Returns a message if the base plan has no `cnc_takedown` defense or
/// has more than one.
pub fn takedown_grid(
    base: &ScenarioPlan,
    at_secs: &[u64],
    backups: &[u16],
) -> Result<Vec<GridCell>, String> {
    let mut cells = expand(base, "cnc_takedown", at_secs, backups, |_, &at, &n| {
        (
            format!("cnc_takedown at {at}s, {n} backups"),
            DefenseSpec::CncTakedown {
                at: Duration::from_secs(at),
                backups: n,
            },
        )
    })?;
    for cell in &mut cells {
        let backups = cell
            .plan
            .defenses
            .iter()
            .find_map(|d| match *d {
                DefenseSpec::CncTakedown { backups, .. } => Some(backups),
                _ => None,
            })
            .expect("expand produced a takedown cell");
        cell.plan.config_mut().backup_cncs = backups;
    }
    Ok(cells)
}

/// Shared grid expansion: clones the base plan per (a × b) point and
/// swaps the single defense of `kind` for the variant `make` builds.
fn expand<A, B>(
    base: &ScenarioPlan,
    kind: &str,
    axis_a: &[A],
    axis_b: &[B],
    make: impl Fn(&DefenseSpec, &A, &B) -> (String, DefenseSpec),
) -> Result<Vec<GridCell>, String> {
    let positions: Vec<usize> = base
        .defenses
        .iter()
        .enumerate()
        .filter(|(_, d)| d.kind() == kind)
        .map(|(i, _)| i)
        .collect();
    let [pos] = positions[..] else {
        return Err(format!(
            "grid sweep needs exactly one '{kind}' defense in plan '{}', found {}",
            base.name,
            positions.len()
        ));
    };
    let mut cells = Vec::with_capacity(axis_a.len() * axis_b.len());
    for a in axis_a {
        for b in axis_b {
            let mut plan = base.clone();
            let (label, defense) = make(&base.defenses[pos], a, b);
            plan.defenses[pos] = defense;
            cells.push(GridCell { label, plan });
        }
    }
    Ok(cells)
}

/// One grid cell's swept outcomes: per-replicate rows plus the headline
/// means a frontier table wants.
#[derive(Debug)]
pub struct CellOutcome {
    /// The cell's label.
    pub label: String,
    /// Per-replicate outcomes, in replicate order.
    pub rows: Vec<Result<RunResult, String>>,
    /// Mean received data rate (kbps) over completed replicates.
    pub mean_kbps: f64,
    /// Mean bots at the attack command over completed replicates.
    pub mean_bots_at_command: f64,
    /// Mean flood packets received over completed replicates.
    pub mean_flood_packets: f64,
}

/// Runs every grid cell `replicates` times under shared noise and streams
/// rows as they land.
///
/// Replicate `r` of *every* cell carries run seed `base_seed + r` and
/// [`RngPlan::pinned`]`(base_seed + r)`: within a replicate the cells are
/// a CRN-paired family (identical worlds, identical event and fault
/// streams — and an identical scenario stream, which derives from the
/// shared run seed), so the defense parameters are the only thing that
/// varies. `on_row(cell, replicate, outcome)` fires on the calling thread
/// the moment a worker finishes that cell-replicate; the full outcome set
/// still comes back in grid order. Cells run in parallel across available
/// threads, one single-threaded world each.
pub fn run_grid_streamed(
    cells: &[GridCell],
    replicates: u64,
    base_seed: u64,
    mut on_row: impl FnMut(usize, u64, &Result<RunResult, String>),
) -> Vec<CellOutcome> {
    let reps = replicates.max(1) as usize;
    let rows = pool::run(
        0..cells.len() * reps,
        |_, j| {
            let (c, r) = (j / reps, (j % reps) as u64);
            let mut plan = cells[c].plan.clone();
            plan.pin_noise(base_seed + r, RngPlan::pinned(base_seed + r));
            match pool::isolate(|| plan.build().map(Ddosim::run_to_completion)) {
                Ok(Ok(result)) => Ok(result),
                Ok(Err(msg)) => Err(format!("cell {c} replicate {r} invalid: {msg}")),
                Err(panic) => Err(format!("cell {c} replicate {r} {panic}")),
            }
        },
        |j, row| on_row(j / reps, (j % reps) as u64, row),
    );
    let mut rows = rows.into_iter();
    cells
        .iter()
        .map(|cell| {
            let cell_rows: Vec<Result<RunResult, String>> =
                (&mut rows).take(reps).collect();
            let mean = |f: fn(&RunResult) -> f64| {
                let ok: Vec<f64> = cell_rows.iter().flatten().map(f).collect();
                if ok.is_empty() {
                    0.0
                } else {
                    ok.iter().sum::<f64>() / ok.len() as f64
                }
            };
            let mean_kbps = mean(|r| r.avg_received_data_rate_kbps);
            let mean_bots_at_command = mean(|r| r.bots_at_command as f64);
            let mean_flood_packets = mean(|r| r.flood_packets_received as f64);
            CellOutcome {
                label: cell.label.clone(),
                rows: cell_rows,
                mean_kbps,
                mean_bots_at_command,
                mean_flood_packets,
            }
        })
        .collect()
}

/// Schema tag for checked-in grid-sweep plans (`plans/*.sweep.json`).
pub const SWEEPGRID_SCHEMA: &str = "ddosim.sweepgrid/1";

/// A parsed, validated grid-sweep plan: a base `ddosim.scenario/1` plan
/// expanded along one defense's two parameter axes, plus the replicate
/// count and base seed the CRN pairing runs under.
#[derive(Debug)]
pub struct SweepGridPlan {
    /// Human-readable sweep name (table caption).
    pub name: String,
    /// The base plan every cell derives from.
    pub base: ScenarioPlan,
    /// The expanded grid cells, in axis-major order.
    pub cells: Vec<GridCell>,
    /// CRN replicates per cell.
    pub replicates: u64,
    /// Replicate `r` runs every cell under seed `base_seed + r`.
    pub base_seed: u64,
}

impl SweepGridPlan {
    /// Parses and strictly validates a `ddosim.sweepgrid/1` document:
    /// schema pinned, unknown top-level fields rejected, the embedded
    /// base plan validated by [`ScenarioPlan::parse`], and the grid
    /// expanded eagerly so axis errors surface at parse time.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("sweep grid plan: {e}"))?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != SWEEPGRID_SCHEMA {
            return Err(format!(
                "sweep grid plan: schema must be '{SWEEPGRID_SCHEMA}', got '{schema}'"
            ));
        }
        let axis = doc
            .get("axis")
            .and_then(Json::as_str)
            .ok_or("sweep grid plan: missing 'axis'")?
            .to_owned();
        let (axis_a, axis_b) = match axis.as_str() {
            "rate_limit" => ("rates_bps", "deploy_at_secs"),
            "patch_rollout" => ("waves", "wave_interval_secs"),
            "cnc_takedown" => ("at_secs", "backups"),
            other => {
                return Err(format!(
                    "sweep grid plan: unknown axis '{other}' \
                     (rate_limit | patch_rollout | cnc_takedown)"
                ))
            }
        };
        let known =
            ["schema", "name", "axis", "replicates", "base_seed", "base", axis_a, axis_b];
        if let Json::Obj(members) = &doc {
            for (key, _) in members {
                if !known.contains(&key.as_str()) {
                    return Err(format!("sweep grid plan: unknown field '{key}'"));
                }
            }
        }
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or("sweep grid plan: missing 'name'")?
            .to_owned();
        let u64s = |field: &str| -> Result<Vec<u64>, String> {
            let arr = doc
                .get(field)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("sweep grid plan: '{field}' must be an array"))?;
            if arr.is_empty() {
                return Err(format!("sweep grid plan: '{field}' must not be empty"));
            }
            arr.iter()
                .map(|v| {
                    v.as_u64().ok_or_else(|| {
                        format!("sweep grid plan: '{field}' entries must be unsigned integers")
                    })
                })
                .collect()
        };
        let base_json = doc.get("base").ok_or("sweep grid plan: missing 'base'")?;
        let base = ScenarioPlan::parse(&base_json.to_string_compact())
            .map_err(|e| format!("sweep grid plan: base: {}", String::from(e)))?;
        let a = u64s(axis_a)?;
        let b = u64s(axis_b)?;
        let cells = match axis.as_str() {
            "rate_limit" => rate_limit_grid(&base, &a, &b)?,
            "patch_rollout" => {
                let waves: Vec<u32> = a.iter().map(|&w| w as u32).collect();
                patch_rollout_grid(&base, &waves, &b)?
            }
            "cnc_takedown" => {
                let backups: Vec<u16> = b.iter().map(|&n| n as u16).collect();
                takedown_grid(&base, &a, &backups)?
            }
            _ => unreachable!("axis validated above"),
        };
        let replicates = doc.get("replicates").and_then(Json::as_u64).unwrap_or(1).max(1);
        let base_seed = doc.get("base_seed").and_then(Json::as_u64).unwrap_or(42);
        Ok(SweepGridPlan { name, base, cells, replicates, base_seed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_plan(defense: &str) -> ScenarioPlan {
        ScenarioPlan::parse(&format!(
            r#"{{
  "schema": "ddosim.scenario/1",
  "name": "sweep-test",
  "world": {{ "devs": 3, "sim_time_secs": 45, "attack_at_secs": 25 }},
  "attack": {{ "vector": "udpplain", "duration_secs": 15 }},
  "defenses": [{defense}]
}}"#
        ))
        .expect("test plan parses")
    }

    fn rate_limit_plan() -> ScenarioPlan {
        small_plan(
            r#"{ "kind": "rate_limit", "at_secs": 26, "rate_bps": 64000, "burst_bytes": 16000 }"#,
        )
    }

    #[test]
    fn rate_limit_grid_expands_both_axes() {
        let cells = rate_limit_grid(&rate_limit_plan(), &[1000, 2000], &[26, 30, 34])
            .expect("grid expands");
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].label, "rate_limit 1000 bps at 26s");
        let DefenseSpec::RateLimit { at, rate_bps, burst_bytes } = cells[5].plan.defenses[0]
        else {
            panic!("cell keeps its rate_limit defense");
        };
        assert_eq!(at, Duration::from_secs(34));
        assert_eq!(rate_bps, 2000);
        assert_eq!(burst_bytes, 16000, "untouched fields survive the swap");
    }

    #[test]
    fn grid_requires_exactly_one_matching_defense() {
        let none = small_plan(
            r#"{ "kind": "egress_filter", "at_secs": 26 }"#,
        );
        let err = rate_limit_grid(&none, &[1000], &[26]).expect_err("no rate_limit");
        assert!(err.contains("found 0"), "got: {err}");
        let err = patch_rollout_grid(&none, &[2], &[5]).expect_err("no patch_rollout");
        assert!(err.contains("patch_rollout"), "got: {err}");
    }

    #[test]
    fn takedown_grid_resyncs_world_shape() {
        let base = small_plan(r#"{ "kind": "cnc_takedown", "at_secs": 30, "backups": 0 }"#);
        let cells = takedown_grid(&base, &[28, 32], &[0, 2]).expect("grid expands");
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            let DefenseSpec::CncTakedown { backups, .. } = cell.plan.defenses[0] else {
                panic!("takedown cell");
            };
            assert_eq!(
                cell.plan.config().backup_cncs,
                backups,
                "config must track the swept backup count"
            );
        }
    }

    fn grid_doc(extra: &str) -> String {
        format!(
            r#"{{
  "schema": "ddosim.sweepgrid/1",
  "name": "test grid",
  "axis": "rate_limit",
  "rates_bps": [16000, 64000],
  "deploy_at_secs": [26, 30],
  "replicates": 2,
  "base_seed": 7{extra},
  "base": {{
    "schema": "ddosim.scenario/1",
    "name": "sweep-test",
    "world": {{ "devs": 3, "sim_time_secs": 45, "attack_at_secs": 25 }},
    "attack": {{ "vector": "udpplain", "duration_secs": 15 }},
    "defenses": [{{ "kind": "rate_limit", "at_secs": 26, "rate_bps": 64000, "burst_bytes": 16000 }}]
  }}
}}"#
        )
    }

    #[test]
    fn sweepgrid_plan_parses_and_expands() {
        let plan = SweepGridPlan::parse(&grid_doc("")).expect("valid grid plan");
        assert_eq!(plan.name, "test grid");
        assert_eq!(plan.cells.len(), 4);
        assert_eq!(plan.replicates, 2);
        assert_eq!(plan.base_seed, 7);
        assert_eq!(plan.cells[0].label, "rate_limit 16000 bps at 26s");
        assert_eq!(plan.base.name, "sweep-test");
    }

    #[test]
    fn sweepgrid_plan_rejects_bad_documents() {
        for (doc, fragment) in [
            ("{}".to_owned(), "schema"),
            (grid_doc("").replace("ddosim.sweepgrid/1", "ddosim.sweepgrid/2"), "schema"),
            (grid_doc(",\n  \"surprise\": 1"), "unknown field 'surprise'"),
            (grid_doc("").replace("rate_limit\"", "firewall\""), "unknown axis"),
            (grid_doc("").replace("[16000, 64000]", "[]"), "must not be empty"),
            (grid_doc("").replace("[16000, 64000]", "[\"fast\"]"), "unsigned"),
            (grid_doc("").replace("ddosim.scenario/1", "nope/1"), "base"),
        ] {
            let err = SweepGridPlan::parse(&doc).expect_err("must reject");
            assert!(err.contains(fragment), "error {err:?} does not mention {fragment:?}");
        }
    }

    #[test]
    fn poisoned_cell_costs_only_its_rows() {
        // A zero-rate TServer link passes validation but panics mid-run
        // once traffic reaches it: that cell's row carries the panic and
        // its location, the other cell still completes.
        let mut cells =
            rate_limit_grid(&rate_limit_plan(), &[64000], &[26, 30]).expect("grid expands");
        cells[1].plan.config_mut().tserver_link_bps = 0;
        let out = run_grid_streamed(&cells, 1, 7, |_, _, _| {});
        assert!(out[0].rows[0].is_ok());
        let err = out[1].rows[0].as_ref().expect_err("zero-rate link panics");
        assert!(err.starts_with("cell 1 replicate 0 panicked at "), "got: {err}");
        assert!(err.contains(".rs:"), "panic location missing from: {err}");
    }

    #[test]
    fn grid_runs_are_deterministic_and_paired() {
        // Two cells with identical defense parameters must produce
        // identical rows under the pinned noise plan — the CRN guarantee
        // a frontier table rests on — and a second sweep must reproduce
        // the first byte for byte.
        let cells = rate_limit_grid(&rate_limit_plan(), &[64000, 64000], &[26])
            .expect("grid expands");
        let mut streamed: Vec<Option<String>> = vec![None; 4];
        let a = run_grid_streamed(&cells, 2, 7, |c, r, outcome| {
            let slot = &mut streamed[c * 2 + r as usize];
            assert!(slot.is_none(), "cell {c} rep {r} delivered twice");
            *slot = Some(match outcome {
                Ok(res) => res.to_deterministic_json().to_string_compact(),
                Err(e) => e.clone(),
            });
        });
        let b = run_grid_streamed(&cells, 2, 7, |_, _, _| {});
        assert_eq!(a.len(), 2);
        let repr = |row: &Result<RunResult, String>| match row {
            Ok(res) => res.to_deterministic_json().to_string_compact(),
            Err(e) => e.clone(),
        };
        for (cell_a, cell_b) in a.iter().zip(&b) {
            for (ra, rb) in cell_a.rows.iter().zip(&cell_b.rows) {
                assert_eq!(repr(ra), repr(rb), "re-run must reproduce the sweep");
            }
        }
        // Identical parameters + pinned noise ⇒ identical outcomes.
        for (ra, rb) in a[0].rows.iter().zip(&a[1].rows) {
            assert_eq!(repr(ra), repr(rb), "paired cells share their noise");
        }
        // Streamed rows are the returned rows.
        for (c, cell) in a.iter().enumerate() {
            for (r, row) in cell.rows.iter().enumerate() {
                assert_eq!(
                    streamed[c * 2 + r].as_deref(),
                    Some(repr(row).as_str()),
                    "cell {c} rep {r}"
                );
            }
        }
    }
}
