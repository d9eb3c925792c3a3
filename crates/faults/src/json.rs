//! JSON serialization for fault plans.
//!
//! A [`FaultPlan`] is pure description, which makes it the natural unit of
//! exchange between runs: an experiment samples a plan, pins it to disk,
//! and a later CLI invocation replays the *same* failures against a
//! different protocol family. The wire format is a single object with a
//! `faults` array; each element carries a `kind` discriminant plus the
//! spec's named fields:
//!
//! ```json
//! {"faults":[
//!   {"kind":"crash","worker":1,"at":250.0},
//!   {"kind":"slowdown","worker":0,"factor":3.0,"from":0.0,"until":600.0},
//!   {"kind":"jitter","factor":2.0,"from":10.0,"until":20.0},
//!   {"kind":"result-loss","worker":2,"count":3}
//! ]}
//! ```
//!
//! Deserialization is strict and typed: syntax errors, schema violations
//! (missing/mistyped fields, unknown kinds), and semantically invalid
//! specs each surface as a distinct [`PlanJsonError`] variant, and every
//! decoded plan re-runs [`FaultPlan::new`]'s validation — a plan that
//! round-trips is exactly as trustworthy as one built in code.

use std::error::Error;
use std::fmt;

use hetero_obs::json::{self, Value};

use crate::plan::FaultPlan;
use crate::spec::{FaultError, FaultSpec};

/// Why a JSON document failed to decode into a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanJsonError {
    /// The text is not well-formed JSON.
    Syntax(String),
    /// The JSON is well-formed but does not match the plan schema
    /// (missing `faults` array, unknown `kind`, missing or mistyped
    /// field). The payload names the offending element.
    Schema(String),
    /// The document decoded into specs, but a spec failed the same
    /// validation [`FaultPlan::new`] applies to in-code construction.
    Invalid(FaultError),
}

impl fmt::Display for PlanJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanJsonError::Syntax(msg) => write!(f, "fault plan is not valid JSON: {msg}"),
            PlanJsonError::Schema(msg) => write!(f, "fault plan schema violation: {msg}"),
            PlanJsonError::Invalid(err) => write!(f, "fault plan contains an invalid spec: {err}"),
        }
    }
}

impl Error for PlanJsonError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlanJsonError::Invalid(err) => Some(err),
            _ => None,
        }
    }
}

impl From<FaultError> for PlanJsonError {
    fn from(err: FaultError) -> Self {
        PlanJsonError::Invalid(err)
    }
}

impl FaultPlan {
    /// Renders the plan as a compact JSON document.
    pub fn to_json(&self) -> String {
        let faults: Vec<Value> = self.specs().iter().map(spec_to_value).collect();
        Value::Obj(vec![("faults".to_string(), Value::Arr(faults))]).render()
    }

    /// Decodes a plan from the [`to_json`](FaultPlan::to_json) format,
    /// re-validating every spec.
    pub fn from_json(src: &str) -> Result<FaultPlan, PlanJsonError> {
        let doc = json::parse(src).map_err(PlanJsonError::Syntax)?;
        let faults = doc
            .get("faults")
            .ok_or_else(|| PlanJsonError::Schema("missing top-level `faults` array".to_string()))?;
        let items = match faults {
            Value::Arr(items) => items,
            _ => {
                return Err(PlanJsonError::Schema(
                    "`faults` must be an array".to_string(),
                ))
            }
        };
        let mut specs = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            specs.push(value_to_spec(item, i)?);
        }
        FaultPlan::new(specs).map_err(PlanJsonError::from)
    }
}

fn spec_to_value(spec: &FaultSpec) -> Value {
    let obj = match *spec {
        FaultSpec::Crash { worker, at } => {
            vec![kind("crash"), num("worker", worker as f64), num("at", at)]
        }
        FaultSpec::Slowdown {
            worker,
            factor,
            from,
            until,
        } => vec![
            kind("slowdown"),
            num("worker", worker as f64),
            num("factor", factor),
            num("from", from),
            num("until", until),
        ],
        FaultSpec::ChannelJitter {
            factor,
            from,
            until,
        } => vec![
            kind("jitter"),
            num("factor", factor),
            num("from", from),
            num("until", until),
        ],
        FaultSpec::ResultLoss { worker, count } => vec![
            kind("result-loss"),
            num("worker", worker as f64),
            num("count", f64::from(count)),
        ],
    };
    Value::Obj(obj)
}

fn kind(name: &str) -> (String, Value) {
    ("kind".to_string(), Value::Str(name.to_string()))
}

fn num(key: &str, x: f64) -> (String, Value) {
    (key.to_string(), Value::Num(x))
}

fn value_to_spec(item: &Value, index: usize) -> Result<FaultSpec, PlanJsonError> {
    let kind = item
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| PlanJsonError::Schema(format!("faults[{index}] has no string `kind`")))?;
    match kind {
        "crash" => Ok(FaultSpec::Crash {
            worker: field_u32(item, index, "worker")? as usize,
            at: field_f64(item, index, "at")?,
        }),
        "slowdown" => Ok(FaultSpec::Slowdown {
            worker: field_u32(item, index, "worker")? as usize,
            factor: field_f64(item, index, "factor")?,
            from: field_f64(item, index, "from")?,
            until: field_f64(item, index, "until")?,
        }),
        "jitter" => Ok(FaultSpec::ChannelJitter {
            factor: field_f64(item, index, "factor")?,
            from: field_f64(item, index, "from")?,
            until: field_f64(item, index, "until")?,
        }),
        "result-loss" => {
            let count = field_u32(item, index, "count")?;
            Ok(FaultSpec::ResultLoss {
                worker: field_u32(item, index, "worker")? as usize,
                count,
            })
        }
        other => Err(PlanJsonError::Schema(format!(
            "faults[{index}] has unknown kind `{other}`"
        ))),
    }
}

fn field_f64(item: &Value, index: usize, key: &str) -> Result<f64, PlanJsonError> {
    item.get(key).and_then(Value::as_f64).ok_or_else(|| {
        PlanJsonError::Schema(format!("faults[{index}].{key} missing or not a number"))
    })
}

fn field_u32(item: &Value, index: usize, key: &str) -> Result<u32, PlanJsonError> {
    field_f64(item, index, key)?;
    item.get(key).and_then(Value::as_u32).ok_or_else(|| {
        PlanJsonError::Schema(format!(
            "faults[{index}].{key} must be a non-negative integer"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan::new(vec![
            FaultSpec::Crash {
                worker: 1,
                at: 250.0,
            },
            FaultSpec::Slowdown {
                worker: 0,
                factor: 3.5,
                from: 0.0,
                until: 600.0,
            },
            FaultSpec::ChannelJitter {
                factor: 0.75,
                from: 10.0,
                until: 20.0,
            },
            FaultSpec::ResultLoss {
                worker: 2,
                count: 3,
            },
        ])
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_specs_and_fingerprint() {
        let plan = sample_plan();
        let text = plan.to_json();
        let back = FaultPlan::from_json(&text).unwrap();
        assert_eq!(back.specs(), plan.specs());
        assert_eq!(back.fingerprint(), plan.fingerprint());
        // The round-trip is a fixed point: re-rendering yields the same
        // bytes, so a pinned plan file never churns.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn empty_plan_round_trips() {
        let plan = FaultPlan::empty();
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.fingerprint(), plan.fingerprint());
    }

    #[test]
    fn syntax_errors_are_typed() {
        let err = FaultPlan::from_json("{\"faults\": [").unwrap_err();
        assert!(matches!(err, PlanJsonError::Syntax(_)), "{err}");
    }

    #[test]
    fn schema_errors_name_the_offending_element() {
        let cases = [
            ("{}", "missing top-level"),
            ("{\"faults\": 3}", "must be an array"),
            (
                "{\"faults\":[{\"worker\":0}]}",
                "faults[0] has no string `kind`",
            ),
            (
                "{\"faults\":[{\"kind\":\"meteor\"}]}",
                "unknown kind `meteor`",
            ),
            (
                "{\"faults\":[{\"kind\":\"crash\",\"worker\":0}]}",
                "faults[0].at missing",
            ),
            (
                "{\"faults\":[{\"kind\":\"crash\",\"worker\":0.5,\"at\":1.0}]}",
                "faults[0].worker must be a non-negative integer",
            ),
        ];
        for (src, needle) in cases {
            let err = FaultPlan::from_json(src).unwrap_err();
            match &err {
                PlanJsonError::Schema(msg) => {
                    assert!(msg.contains(needle), "{src}: {msg}");
                }
                other => panic!("{src}: expected schema error, got {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_specs_surface_the_fault_error() {
        // Well-formed, schema-conformant, semantically invalid: a crash
        // in the past. `from_json` must apply the same validation as
        // `FaultPlan::new`.
        let err =
            FaultPlan::from_json("{\"faults\":[{\"kind\":\"crash\",\"worker\":0,\"at\":-1.0}]}")
                .unwrap_err();
        assert_eq!(
            err,
            PlanJsonError::Invalid(FaultError::InvalidTime { value: -1.0 })
        );
        // The error chain exposes the source for callers that downcast.
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn errors_display_context() {
        assert!(PlanJsonError::Syntax("x".into())
            .to_string()
            .contains("not valid JSON"));
        assert!(PlanJsonError::Schema("y".into())
            .to_string()
            .contains("schema"));
        assert!(PlanJsonError::Invalid(FaultError::ZeroLossCount)
            .to_string()
            .contains("invalid spec"));
    }
}
