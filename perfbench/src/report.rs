//! The result line and the small statistics it is computed with.

use std::fmt::Write;

/// A JSON value, rendered by hand (the workspace has no serializer).
pub enum Json {
    Num(f64),
    Bool(bool),
    Str(String),
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(v) if v.is_finite() => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    let _ = write!(out, "{}", *v as i64);
                } else {
                    let _ = write!(out, "{v}");
                }
            }
            Json::Num(_) => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(key.clone()).write(out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Metrics in the order they are added, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn json(&self) -> Json {
        Json::Object(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::Object(vec![
                            ("value".into(), Json::Num(*value)),
                            ("unit".into(), Json::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The nearest-rank `q`-quantile of `values` (sorted in place); 0 when
/// empty, as for a layer the workload does not exercise.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The mean of the middle half of `values` (sorted in place): it moves in
/// proportion to a shift of most values, like a mean, and ignores a few
/// outliers at either end, like a median.
pub fn middle_mean(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    let quarter = values.len() / 4;
    mean(&values[quarter..values.len() - quarter])
}
