//! Named metrics and the JSON lines the benchmark prints.

use std::fmt::Write as _;

/// `exact` repeats bit-for-bit at a fixed seed: a difference between a
/// parent commit and a change is a behaviour change. `timed` is host time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Exact,
    Timed,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub kind: Kind,
    pub value: f64,
}

/// A metric list in the making.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn exact(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.push(name.into(), unit, Kind::Exact, value);
    }

    pub fn timed(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.push(name.into(), unit, Kind::Timed, value);
    }

    fn push(&mut self, name: String, unit: &'static str, kind: Kind, value: f64) {
        // JSON has no NaN or infinity; a metric with nothing to measure is 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name,
            unit,
            kind,
            value,
        });
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn json_numbers(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// `{"name": {"value": v, "unit": "u"}, ...}`, with the metric's kind
/// when `with_kind`. Values are printed with all their digits.
pub fn json_metrics(metrics: &[Metric], with_kind: bool) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            let kind = match (with_kind, m.kind) {
                (false, _) => "",
                (true, Kind::Exact) => ",\"kind\":\"exact\"",
                (true, Kind::Timed) => ",\"kind\":\"timed\"",
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{}{}}}",
                json_string(&m.name),
                m.value,
                json_string(m.unit),
                kind
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

/// The result line: the last line of standard output, exactly these keys.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        failed == 0,
        attempted,
        failed,
        json_metrics(metrics, false)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut m = Metrics::default();
        m.timed("latency_ms", "ms", 1.2034);
        m.exact("nothing", "ratio", f64::NAN);
        assert_eq!(
            result_line(10, 0, &m.0),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"latency_ms\":{\"value\":1.2034,\"unit\":\"ms\"},\
             \"nothing\":{\"value\":0,\"unit\":\"ratio\"}}}"
        );
        assert!(result_line(10, 1, &m.0).starts_with("{\"correct\":false"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(ratio(1, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
