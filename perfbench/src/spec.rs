//! The run spec: the generated inputs of one run.

use djson::Json;

/// Which workload the spec describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Memory-error recruitment, then a long UDP-PLAIN flood (Fig. 2).
    Flood,
    /// Recruitment with reboots and re-infection, a short attack (Fig. 3).
    Recruit,
    /// A scenario tree: fork before the attack, run the branches.
    Tree,
}

impl Workload {
    /// The workload's benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Flood => "flood",
            Workload::Recruit => "recruit",
            Workload::Tree => "tree",
        }
    }
}

/// One run's inputs.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    /// Record spans and run the per-layer probes.
    pub trace: bool,
    /// The world, as a `ddosim.scenario/1` document.
    pub plan: String,
    /// `tree` only: one branch per fork seed.
    pub fork_seeds: Option<Vec<u64>>,
}

fn field<'a>(json: &'a Json, name: &str) -> Result<&'a Json, String> {
    json.get(name)
        .ok_or_else(|| format!("missing field '{name}'"))
}

impl Spec {
    /// Parses a spec document.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let json = Json::parse(text).map_err(|e| format!("{e:?}"))?;
        let workload = match field(&json, "workload")?.as_str() {
            Some("flood") => Workload::Flood,
            Some("recruit") => Workload::Recruit,
            Some("tree") => Workload::Tree,
            other => return Err(format!("unknown workload {other:?}")),
        };
        let trace = field(&json, "trace")?
            .as_bool()
            .ok_or("field 'trace' is not a boolean")?;
        let plan = field(&json, "plan")?
            .as_str()
            .ok_or("field 'plan' is not a string")?
            .to_owned();
        let fork_seeds = match json.get("fork_seeds") {
            None | Some(Json::Null) => None,
            Some(seeds) => Some(
                seeds
                    .as_array()
                    .ok_or("field 'fork_seeds' is not an array")?
                    .iter()
                    .map(|s| s.as_u64().ok_or("a fork seed is not an unsigned integer"))
                    .collect::<Result<_, _>>()?,
            ),
        };
        if (workload == Workload::Tree) != fork_seeds.is_some() {
            return Err("exactly the 'tree' workload has fork seeds".into());
        }
        Ok(Spec {
            workload,
            trace,
            plan,
            fork_seeds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLOOD: &str = r#"{"workload":"flood","trace":false,"plan":"{}"}"#;

    #[test]
    fn flood_and_tree_specs_parse() {
        let spec = Spec::parse(FLOOD).expect("valid");
        assert_eq!(spec.workload, Workload::Flood);
        assert_eq!(spec.plan, "{}");
        assert!(spec.fork_seeds.is_none());
        let tree = r#"{"workload":"tree","trace":true,"plan":"{}","fork_seeds":[4,7]}"#;
        let spec = Spec::parse(tree).expect("valid");
        assert_eq!(spec.fork_seeds, Some(vec![4, 7]));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let tree = FLOOD.replace("flood", "tree");
        let err = Spec::parse(&tree).expect_err("no fork seeds");
        assert!(err.contains("fork seeds"), "{err}");
        assert!(Spec::parse(&FLOOD.replace("flood", "nope")).is_err());
        assert!(Spec::parse(&FLOOD.replace(",\"plan\":\"{}\"", "")).is_err());
    }
}
