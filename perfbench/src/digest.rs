//! Output digests: a stable hash of a report's JSON with its
//! timing-dependent fields removed, so two runs of the same computation
//! digest equal.

use serde::{Serialize, Value};

/// Fields of every `EngineStats` that differ from run to run: the search's
/// wall-clock timings, and the hit/miss split of the fit cache, which
/// depends on which of two engine threads reaches a shared key first
/// (their sum, `evaluations`, does not).
const TIMING_FIELDS: [&str; 4] = [
    "total_wall_ms",
    "mean_generation_wall_ms",
    "cache_hits",
    "cache_misses",
];

/// 64-bit FNV-1a, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds one line, terminated so that line boundaries count.
    pub fn line(&mut self, line: &str) {
        self.write(line.as_bytes());
        self.write(b"\n");
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Removes every timing-dependent field, at any depth.
pub fn strip_timing_fields(value: Value) -> Value {
    match value {
        Value::Object(fields) => Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| !TIMING_FIELDS.contains(&k.as_str()))
                .map(|(k, v)| (k, strip_timing_fields(v)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.into_iter().map(strip_timing_fields).collect()),
        other => other,
    }
}

/// Digest of `report`'s JSON without its timing-dependent fields.
pub fn digest<T: Serialize>(report: &T) -> u64 {
    let json = serde_json::to_string(&strip_timing_fields(report.serialize()))
        .expect("serializing a Value cannot fail");
    let mut h = Fnv::default();
    h.write(json.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropus_placement::consolidate::PlacementReport;

    fn report(wall_ms: f64, score: f64) -> PlacementReport {
        let hits = wall_ms as u64;
        let mut r: PlacementReport = serde_json::from_str(
            r#"{"assignment":[0,0,1],"servers_used":2,"required_capacity_total":9.5,
                "peak_allocation_total":14.0,"score":1.0,"servers":[]}"#,
        )
        .expect("valid report JSON");
        r.stats.generations = 7;
        r.stats.total_wall_ms = wall_ms;
        r.stats.evaluations = 100;
        r.stats.cache_hits = hits;
        r.stats.cache_misses = 100 - hits;
        r.stats.mean_generation_wall_ms = wall_ms / 7.0;
        r.score = score;
        r
    }

    #[test]
    fn timing_fields_do_not_change_the_digest() {
        assert_eq!(digest(&report(12.5, 1.0)), digest(&report(99.0, 1.0)));
    }

    #[test]
    fn other_fields_do_change_the_digest() {
        assert_ne!(digest(&report(12.5, 1.0)), digest(&report(12.5, 1.5)));
        let mut more_generations = report(12.5, 1.0);
        more_generations.stats.generations = 8;
        assert_ne!(digest(&report(12.5, 1.0)), digest(&more_generations));
        let mut more_evaluations = report(12.5, 1.0);
        more_evaluations.stats.evaluations = 101;
        assert_ne!(digest(&report(12.5, 1.0)), digest(&more_evaluations));
    }

    #[test]
    fn stripping_reaches_nested_objects_and_arrays() {
        let nested = Value::Object(vec![(
            "cases".to_string(),
            Value::Array(vec![Value::Object(vec![
                ("total_wall_ms".to_string(), Value::Number(3.0)),
                ("servers".to_string(), Value::Int(2)),
            ])]),
        )]);
        let stripped = serde_json::to_string(&strip_timing_fields(nested)).expect("json");
        assert_eq!(stripped, r#"{"cases":[{"servers":2}]}"#);
    }
}
