//! Reading a committed or freshly written JSON document in a test:
//! `ecg_obs::json` (the workspace's one parser) plus accessors that
//! panic with the key they missed.

use ecg_obs::json::{parse, JsonValue};
use std::collections::BTreeSet;
use std::path::Path;

/// The document at `path`, parsed.
pub fn read(path: &Path) -> JsonValue {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

pub fn field<'a>(value: &'a JsonValue, key: &str) -> &'a JsonValue {
    value
        .get(key)
        .unwrap_or_else(|| panic!("no {key:?} in {value:?}"))
}

pub fn num(value: &JsonValue, key: &str) -> f64 {
    let field = field(value, key);
    field
        .as_f64()
        .unwrap_or_else(|| panic!("{key:?} is not a number: {field:?}"))
}

pub fn text<'a>(value: &'a JsonValue, key: &str) -> &'a str {
    let field = field(value, key);
    field
        .as_str()
        .unwrap_or_else(|| panic!("{key:?} is not a string: {field:?}"))
}

pub fn arr<'a>(value: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    let field = field(value, key);
    field
        .as_arr()
        .unwrap_or_else(|| panic!("{key:?} is not an array: {field:?}"))
}

/// An object's keys.
pub fn keys(value: &JsonValue) -> BTreeSet<&str> {
    match value {
        JsonValue::Obj(fields) => fields.iter().map(|(key, _)| key.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

/// The host context every bench document records.
pub fn assert_context(doc: &JsonValue) {
    let context = field(doc, "context");
    assert!(num(context, "logical_cpus") >= 0.0);
    assert!(!text(context, "os").is_empty() && !text(context, "arch").is_empty());
}
