//! Collects one run's metrics, facts, picks and ratios; prints them as
//! labelled lines, writes the full record to a JSON file, and renders
//! the final one-line result.

use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// `(key, JSON value)` pairs: machine and input facts.
    pub facts: Vec<(String, String)>,
    /// Tuner picks, one JSON object per matrix or operator.
    pub picks: Vec<String>,
    /// Ungated paper ratios: `(name, value, base)`.
    pub ratios: Vec<(String, f64, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that disagreed with the reference.
    pub wrong: u64,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
}

impl Report {
    /// Records (or replaces) a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.metrics.push(Metric { name, value, unit }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn fact(&mut self, key: impl Into<String>, json_value: impl Into<String>) {
        self.facts.push((key.into(), json_value.into()));
    }

    pub fn fact_str(&mut self, key: impl Into<String>, value: &str) {
        self.fact(key, json_str(value));
    }

    pub fn ratio(&mut self, name: &str, value: f64, base: &str) {
        self.ratios
            .push((name.to_string(), value, base.to_string()));
    }

    /// Counts one attempted operation; `ok == false` counts it failed.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Counts one attempted operation whose output was wrong.
    pub fn wrong_output(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Folds another report's counts into this one.
    pub fn absorb_counts(&mut self, other: &Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.failures.extend(other.failures.iter().take(4).cloned());
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// Human-readable lines; the last stdout line is the JSON result,
    /// printed separately.
    pub fn print_lines(&self) {
        for (k, v) in &self.facts {
            println!("fact {k} = {v}");
        }
        for p in &self.picks {
            println!("pick {p}");
        }
        for m in &self.metrics {
            println!("metric {} = {} {}", m.name, m.value, m.unit);
        }
        for (name, value, base) in &self.ratios {
            println!("ratio {name} = {value:.4} (base: {base}; not gated)");
        }
        for f in &self.failures {
            println!("failure {f}");
        }
        println!(
            "ops attempted = {} failed = {} wrong = {} fail_ratio = {}",
            self.attempted,
            self.failed,
            self.wrong,
            self.fail_ratio()
        );
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The full record: every metric, fact, pick and ratio.
    pub fn record_json(&self) -> String {
        let mut out = String::from("{\n\"facts\": {");
        for (i, (k, v)) in self.facts.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n  {}: {v}", json_str(k));
        }
        out.push_str("\n},\n\"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  {}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            );
        }
        out.push_str("\n},\n\"ratios\": [");
        for (i, (name, value, base)) in self.ratios.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  {{\"name\": {}, \"value\": {}, \"base\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(base)
            );
        }
        out.push_str("\n],\n\"picks\": [");
        for (i, p) in self.picks.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n  {p}");
        }
        let _ = write!(
            out,
            "\n],\n\"attempted\": {}, \"failed\": {}, \"wrong\": {}, \"fail_ratio\": {}\n}}\n",
            self.attempted,
            self.failed,
            self.wrong,
            self.fail_ratio()
        );
        out
    }

    /// The one-line result: exactly the named metrics, in order.
    pub fn result_line(&self, names: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_named_metrics() {
        let mut r = Report::default();
        r.metric("a_ms", 1.5, "ms");
        r.metric("b", 2.0, "count");
        r.attempt(true, String::new);
        let line = r.result_line(&[("a_ms", "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
