//! Named metrics and the one-line JSON result.

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `s`, `ms`, `processes/s`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The result line of one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations (submitted processes) attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Reported metrics, in order.
    pub metrics: Vec<Metric>,
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl RunReport {
    /// The JSON object printed as the last line of standard output.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// A fixed-width table of the metrics, one per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("{:<34} {:>18.6} {}\n", m.name, m.value, m.unit));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let r = RunReport {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("a", "s", 0.5), Metric::new("b", "ms", 2.0)],
        };
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 0.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"ms\"}}}"
        );
    }
}
