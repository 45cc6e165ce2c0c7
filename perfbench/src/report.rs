//! What a run prints: named metrics with units, the one-line JSON result,
//! and the parser for the `#1` suspect line of a `DIAGNOSIS` reply.

use act_sim::events::RawDep;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit (`ms`, `1/s`, `count`, ...).
    pub unit: String,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric { name: name.to_string(), value, unit: unit.to_string() }
    }
}

/// The run's result: the last line of standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every reply passed its check and every set-up cross-check held.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (error, busy, transport, wrong reply).
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// One JSON object on one line. Values keep every digit Rust prints
    /// for them (shortest round-trip form).
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value: JSON cannot carry it, and every metric
    /// here is a finite measurement.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite: {}", m.name, m.value);
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
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

    /// Parse the line [`Outcome::to_json`] prints.
    #[cfg(test)]
    pub fn from_json(text: &str) -> Result<Outcome, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let Json::Object(top) = p.value()? else { return Err("result is not an object".into()) };
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        let field = |k: &str| top.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let count = |k: &str| match field(k) {
            Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(format!("`{k}` is not a whole number")),
        };
        let Some(Json::Bool(correct)) = field("correct") else {
            return Err("`correct` is not a boolean".into());
        };
        let Some(Json::Object(ms)) = field("metrics") else {
            return Err("`metrics` is not an object".into());
        };
        let mut metrics = Vec::new();
        for (name, m) in ms {
            let Json::Object(m) = m else { return Err(format!("metric {name} is not an object")) };
            let get = |k: &str| m.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            match (get("value"), get("unit")) {
                (Some(Json::Num(v)), Some(Json::Str(u))) => metrics.push(Metric::new(name, *v, u)),
                _ => return Err(format!("metric {name} needs a number value and a unit")),
            }
        }
        Ok(Outcome {
            correct: *correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Object(Vec<(String, Json)>),
}

/// Just enough JSON for the result line: objects, strings without escapes,
/// numbers and booleans.
#[cfg(test)]
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

#[cfg(test)]
impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        while self.s.get(self.i).is_some_and(|&c| c != b'"' && c != b'\\') {
            self.i += 1;
        }
        let text = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
        self.eat(b'"')?;
        Ok(text)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    let name = self.string()?;
                    self.eat(b':')?;
                    fields.push((name, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Object(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            _ => {
                let start = self.i;
                while self.s.get(self.i).is_some_and(|c| b"+-.eE0123456789".contains(c)) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }
}

/// The dependences on the `#1` line of a `DIAGNOSIS` reply (`deps=7->9*,3->5`,
/// `*` marking an inter-thread dependence), or `None` when the reply ranks
/// no suspect.
pub fn rank1_deps(reply: &str) -> Option<Vec<RawDep>> {
    let line = reply.lines().find(|l| l.starts_with("#1 "))?;
    let deps = line.split_whitespace().find_map(|tok| tok.strip_prefix("deps="))?;
    deps.split(',')
        .map(|d| {
            let (inter_thread, d) = match d.strip_suffix('*') {
                Some(rest) => (true, rest),
                None => (false, d),
            };
            let (store, load) = d.split_once("->")?;
            Some(RawDep {
                store_pc: store.parse().ok()?,
                load_pc: load.parse().ok()?,
                inter_thread,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let out = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric::new("diagnose_p50_ms", 1.2034567891234, "ms"),
                Metric::new("setup_s", 0.8127, "s"),
                Metric::new("act-serve.pool.batch_mean", 3.0, "count"),
                Metric::new("tiny", 1.5e-9, "ratio"),
            ],
        };
        let line = out.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(Outcome::from_json(&line).unwrap(), out);
    }

    #[test]
    fn result_parser_rejects_malformed_lines() {
        assert!(Outcome::from_json("{\"correct\": true}").is_err());
        assert!(Outcome::from_json(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(Outcome::from_json(
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} x"
        )
        .is_err());
    }

    #[test]
    fn rank1_line_parses() {
        let reply = "diagnosis workload=apache model=cache-hit ranked=2 logged=9 distinct=3 \
                     pruned=1 filter_pct=66.7\n\
                     #1 nn=0.123 matched=1 occurrences=4 tid=2 deps=7->9*,3->5\n\
                     #2 nn=0.200 matched=0 occurrences=1 tid=1 deps=1->2\n";
        assert_eq!(
            rank1_deps(reply),
            Some(vec![
                RawDep { store_pc: 7, load_pc: 9, inter_thread: true },
                RawDep { store_pc: 3, load_pc: 5, inter_thread: false },
            ])
        );
    }

    #[test]
    fn rank1_absent_or_garbled_is_none() {
        let empty = "diagnosis workload=ptx model=cache-hit ranked=0 logged=0 distinct=0 \
                     pruned=0 filter_pct=0.0\n";
        assert_eq!(rank1_deps(empty), None);
        assert_eq!(rank1_deps("#1 nn=0.1 deps=7-9"), None);
        assert_eq!(rank1_deps("#10 nn=0.1 deps=7->9"), None);
    }
}
