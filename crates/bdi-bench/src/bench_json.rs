//! Machine-readable bench output.
//!
//! The wall-clock benches print human tables *and* persist their numbers
//! into `BENCH_serve.json` at the repository root, one top-level section
//! per bench, so perf changes show up as reviewable diffs against the
//! committed baseline. Sections are read-modify-written: running one
//! bench updates its section and leaves the others untouched.

use serde_json::{Map, Number, Value};
use std::path::PathBuf;

/// Path of the shared benchmark results file (repository root).
pub fn bench_json_path() -> PathBuf {
    // benches run with the package directory as CWD; anchor on the
    // manifest dir so the path is stable no matter how cargo is invoked
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json")
}

/// Replace one top-level section of `BENCH_serve.json`, preserving every
/// other section. Creates the file if missing; an unreadable or
/// non-object file is replaced rather than crashing the bench.
pub fn update_section(section: &str, data: Value) {
    let path = bench_json_path();
    let mut root: Map = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| serde_json::parse_value(&s).ok())
        .and_then(|v| match v {
            Value::Object(m) => Some(m),
            _ => None,
        })
        .unwrap_or_default();
    root.insert(section.to_string(), data);
    let body = serde_json::to_string_pretty(&Value::Object(root)).expect("bench json serializes");
    if let Err(e) = std::fs::write(&path, body + "\n") {
        eprintln!("bench_json: could not write {}: {e}", path.display());
    }
}

/// Object from key/value pairs (insertion order is irrelevant — the
/// underlying map is ordered by key for deterministic diffs).
pub fn obj(pairs: &[(&str, Value)]) -> Value {
    Value::Object(
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

/// Float value, rounded to 1 decimal so diffs aren't noise.
pub fn num_f(x: f64) -> Value {
    Value::Number(Number::F((x * 10.0).round() / 10.0))
}

/// Unsigned integer value.
pub fn num_u(x: u64) -> Value {
    Value::Number(Number::U(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obj_builds_sorted_object() {
        let v = obj(&[("b", num_u(2)), ("a", num_f(1.25))]);
        let Value::Object(m) = &v else {
            panic!("not an object")
        };
        assert_eq!(m.keys().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(m["a"].as_f64(), Some(1.3), "rounded to one decimal");
        assert_eq!(m["b"].as_u64(), Some(2));
    }

    #[test]
    fn path_is_repo_root() {
        assert!(bench_json_path().ends_with("../../BENCH_serve.json"));
    }
}
