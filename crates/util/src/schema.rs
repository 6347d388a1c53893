//! Declared shapes for the versioned JSON documents, one checker for all
//! of them, and the file reader and writer every document goes through.
//!
//! Each writer module declares its document's [`Schema`] next to the code
//! that emits it: a [`Shape`] tree plus an optional function for rules
//! that relate fields. [`validate`] picks the schema by the document's
//! `schema` and `kind` tags and checks the document against it. Unknown
//! keys pass (`spt-stats-v1` grows by adding fields). Every error names
//! the JSON path of the offending value, e.g. `configs[2].workloads[0].cycles`.
//!
//! ```
//! use spt_util::schema::{req, validate, Schema, Shape};
//! use spt_util::Json;
//!
//! static POINT: Schema = Schema {
//!     tag: "point-v1",
//!     kind: None,
//!     shape: Shape::Obj(&[req("x y", &Shape::Int), req("label", &Shape::NonEmptyStr)]),
//!     rules: None,
//! };
//! let doc = Json::obj([("schema", Json::str("point-v1")), ("x", Json::U64(3))]);
//! assert_eq!(validate(&doc, &[&POINT]).unwrap_err().to_string(), "y: missing required key");
//! ```

use crate::Json;
use std::path::Path;
use std::{fmt, io};

/// The shape a JSON value must have.
pub enum Shape {
    /// An integer.
    Int,
    /// Any number.
    Num,
    /// A finite number greater than zero.
    Positive,
    /// A string.
    Str,
    /// A non-empty string.
    NonEmptyStr,
    /// Sixteen hex digits: a 64-bit digest.
    Hex16,
    /// `true` or `false`.
    Bool,
    /// An array whose items all have the shape.
    Arr(&'static Shape),
    /// A non-empty array whose items all have the shape.
    NonEmptyArr(&'static Shape),
    /// An object with these fields; other keys are allowed.
    Obj(&'static [Field]),
    /// An object whose values all have the shape, under any keys.
    Map(&'static Shape),
}

/// Declared keys of a [`Shape::Obj`] that share one shape.
pub struct Field {
    /// One key, or several separated by spaces.
    pub keys: &'static str,
    /// Whether a document without one of the keys is rejected.
    pub required: bool,
    /// The shape of each key's value.
    pub shape: &'static Shape,
}

/// Required keys (one, or several separated by spaces).
pub const fn req(keys: &'static str, shape: &'static Shape) -> Field {
    Field { keys, required: true, shape }
}

/// Optional keys, checked when present.
pub const fn opt(keys: &'static str, shape: &'static Shape) -> Field {
    Field { keys, required: false, shape }
}

/// Rules between fields: gets a document that matched its shape and
/// returns the first broken rule, at the path of the value at fault.
pub type Rules = fn(&Json) -> Result<(), SchemaError>;

/// One document kind: its tags, its shape and its cross-field rules.
pub struct Schema {
    /// The value of the document's `schema` key.
    pub tag: &'static str,
    /// The value of its `kind` key, when several kinds share the tag.
    pub kind: Option<&'static str>,
    /// The shape of the whole document (the tags need not be declared).
    pub shape: Shape,
    /// Rules between fields, run once the shape matched.
    pub rules: Option<Rules>,
}

impl Schema {
    /// `tag` or `tag (kind)`, for reports.
    pub fn name(&self) -> String {
        self.kind.map_or_else(|| self.tag.to_string(), |kind| format!("{} ({kind})", self.tag))
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// A document that does not match its schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaError {
    /// JSON path of the offending value (empty for the document itself).
    pub path: String,
    /// What is wrong with it.
    pub message: String,
}

impl SchemaError {
    /// An error at `path`.
    pub fn at(path: impl Into<String>, message: impl Into<String>) -> SchemaError {
        SchemaError { path: path.into(), message: message.into() }
    }
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let path = if self.path.is_empty() { "(document)" } else { &self.path };
        write!(f, "{path}: {}", self.message)
    }
}

impl std::error::Error for SchemaError {}

const SCHEMA_TAG: Shape = Shape::Obj(&[req("schema", &Shape::Str)]);
const KIND_TAG: Shape = Shape::Obj(&[req("kind", &Shape::Str)]);

/// Checks `doc` against the schema among `schemas` that its `schema` and
/// `kind` tags name, and returns that schema.
///
/// # Errors
///
/// Returns the first mismatch in document order: an unknown tag, a
/// missing key, a value of the wrong type or range, or a broken rule.
pub fn validate<'a>(doc: &Json, schemas: &[&'a Schema]) -> Result<&'a Schema, SchemaError> {
    check(&SCHEMA_TAG, doc, "")?;
    let tag = doc.get("schema").and_then(Json::as_str).unwrap_or_default();
    let same_tag: Vec<&Schema> = schemas.iter().copied().filter(|s| s.tag == tag).collect();
    let unknown = |key: &str, value: &str, known: Vec<&str>| {
        SchemaError::at(key, format!("unknown {key} `{value}` (want one of {})", known.join(", ")))
    };
    let schema = match same_tag.as_slice() {
        [] => return Err(unknown("schema", tag, schemas.iter().map(|s| s.tag).collect())),
        [only] if only.kind.is_none() => *only,
        _ => {
            check(&KIND_TAG, doc, "")?;
            let kind = doc.get("kind").and_then(Json::as_str).unwrap_or_default();
            let Some(schema) = same_tag.iter().find(|s| s.kind == Some(kind)) else {
                return Err(unknown(
                    "kind",
                    kind,
                    same_tag.iter().filter_map(|s| s.kind).collect(),
                ));
            };
            *schema
        }
    };
    check(&schema.shape, doc, "")?;
    schema.rules.map_or(Ok(()), |rules| rules(doc))?;
    Ok(schema)
}

fn mismatch(path: &str, want: &str, found: &Json) -> SchemaError {
    let found = match found {
        Json::Null => "null",
        Json::Bool(_) => "a bool",
        Json::U64(_) | Json::I64(_) => "an integer",
        Json::F64(_) => "a number",
        Json::Str(_) => "a string",
        Json::Arr(_) => "an array",
        Json::Obj(_) => "an object",
    };
    SchemaError::at(path, format!("expected {want}, found {found}"))
}

fn check(shape: &Shape, v: &Json, path: &str) -> Result<(), SchemaError> {
    let fits = |ok: bool, want: &str| if ok { Ok(()) } else { Err(mismatch(path, want, v)) };
    let at = |key: &str| if path.is_empty() { key.to_string() } else { format!("{path}.{key}") };
    match shape {
        Shape::Int => fits(matches!(v, Json::U64(_) | Json::I64(_)), "an integer"),
        Shape::Num => fits(v.as_f64().is_some(), "a number"),
        Shape::Positive => match v.as_f64() {
            Some(x) if !(x.is_finite() && x > 0.0) => {
                Err(SchemaError::at(path, format!("must be finite and positive, got {x}")))
            }
            x => fits(x.is_some(), "a number"),
        },
        Shape::Str => fits(v.as_str().is_some(), "a string"),
        Shape::NonEmptyStr => match v.as_str() {
            Some("") => Err(SchemaError::at(path, "must not be empty")),
            s => fits(s.is_some(), "a string"),
        },
        Shape::Hex16 => {
            let hex = |s: &str| s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit());
            fits(v.as_str().is_some_and(hex), "16 hex digits")
        }
        Shape::Bool => fits(v.as_bool().is_some(), "a bool"),
        Shape::Arr(item) | Shape::NonEmptyArr(item) => {
            let items = v.as_arr().ok_or_else(|| mismatch(path, "an array", v))?;
            if items.is_empty() && matches!(shape, Shape::NonEmptyArr(_)) {
                return Err(SchemaError::at(path, "must not be empty"));
            }
            items.iter().enumerate().try_for_each(|(i, x)| check(item, x, &format!("{path}[{i}]")))
        }
        Shape::Obj(fields) => {
            fits(matches!(v, Json::Obj(_)), "an object")?;
            for f in *fields {
                for key in f.keys.split_whitespace() {
                    match v.get(key) {
                        Some(x) => check(f.shape, x, &at(key))?,
                        None if f.required => {
                            return Err(SchemaError::at(at(key), "missing required key"))
                        }
                        None => {}
                    }
                }
            }
            Ok(())
        }
        Shape::Map(value) => {
            let Json::Obj(pairs) = v else { return fits(false, "an object") };
            pairs.iter().try_for_each(|(key, x)| check(value, x, &at(key)))
        }
    }
}

/// Reads and parses a JSON document.
///
/// # Errors
///
/// Returns the I/O error, or an [`io::ErrorKind::InvalidData`] error
/// carrying the parse error.
pub fn read_document(path: &Path) -> io::Result<Json> {
    let text = std::fs::read_to_string(path)?;
    Json::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Writes a document as pretty-printed JSON, creating parent directories.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or the file.
pub fn write_document(doc: &Json, path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.to_string_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    static ONE: Schema = Schema {
        tag: "one-v1",
        kind: None,
        shape: Shape::Obj(&[
            req("n", &Shape::Int),
            req("items", &Shape::NonEmptyArr(&Shape::Obj(&[req("rate", &Shape::Positive)]))),
            opt("digest", &Shape::Hex16),
            opt("counts", &Shape::Map(&Shape::Int)),
        ]),
        rules: None,
    };
    static TWO_A: Schema =
        Schema { tag: "two-v1", kind: Some("a"), shape: Shape::Obj(&[]), rules: Some(never) };
    static TWO_B: Schema =
        Schema { tag: "two-v1", kind: Some("b"), shape: Shape::Obj(&[]), rules: None };
    static ALL: [&Schema; 3] = [&ONE, &TWO_A, &TWO_B];

    fn never(_: &Json) -> Result<(), SchemaError> {
        Err(SchemaError::at("", "rule ran"))
    }

    fn one(items: Json) -> Json {
        Json::obj([("schema", Json::str("one-v1")), ("n", Json::U64(1)), ("items", items)])
    }

    fn err(doc: &Json) -> SchemaError {
        match validate(doc, &ALL) {
            Ok(s) => panic!("accepted as {}", s.name()),
            Err(e) => e,
        }
    }

    #[test]
    fn dispatches_on_schema_and_kind() {
        let good = one(Json::arr([Json::obj([("rate", Json::F64(0.5))])]));
        assert_eq!(validate(&good, &ALL).unwrap().name(), "one-v1");
        let b = Json::obj([("schema", Json::str("two-v1")), ("kind", Json::str("b"))]);
        assert_eq!(validate(&b, &ALL).unwrap().name(), "two-v1 (b)");
        let a = Json::obj([("schema", Json::str("two-v1")), ("kind", Json::str("a"))]);
        assert_eq!(err(&a).message, "rule ran");
        let c = Json::obj([("schema", Json::str("two-v1")), ("kind", Json::str("c"))]);
        assert_eq!(err(&c).path, "kind");
        assert_eq!(err(&Json::obj([("schema", Json::str("two-v1"))])).path, "kind");
        assert_eq!(err(&Json::obj([("schema", Json::str("three"))])).path, "schema");
        assert_eq!(err(&Json::obj([("schema", Json::U64(1))])).path, "schema");
        assert_eq!(err(&Json::arr([])).path, "");
    }

    #[test]
    fn errors_name_the_path() {
        let item = |rate| Json::obj([("rate", rate)]);
        let cases = [
            (one(Json::arr([])), "items", "must not be empty"),
            (one(Json::obj::<&str>([])), "items", "expected an array, found an object"),
            (
                one(Json::arr([item(Json::F64(1.0)), item(Json::F64(0.0))])),
                "items[1].rate",
                "positive",
            ),
            (one(Json::arr([item(Json::F64(f64::NAN))])), "items[0].rate", "positive"),
            (one(Json::arr([item(Json::str("1"))])), "items[0].rate", "expected a number"),
            (one(Json::arr([Json::obj::<&str>([])])), "items[0].rate", "missing required key"),
        ];
        for (doc, path, message) in cases {
            let e = err(&doc);
            assert_eq!(e.path, path, "{e}");
            assert!(e.message.contains(message), "{e}");
        }
        let mut doc = one(Json::arr([item(Json::U64(2))]));
        doc.push("digest", Json::str("0123456789abcdeX"));
        assert_eq!(err(&doc).path, "digest");
        let mut doc = one(Json::arr([item(Json::U64(2))]));
        doc.push("counts", Json::obj([("x", Json::U64(1)), ("y", Json::Bool(true))]));
        assert_eq!(err(&doc).path, "counts.y");
    }

    #[test]
    fn unknown_keys_and_absent_optional_keys_pass() {
        let mut doc = one(Json::arr([Json::obj([("rate", Json::U64(3)), ("extra", Json::Null)])]));
        doc.push("digest", Json::str("0123456789abcdef"));
        doc.push("added_later", Json::str("anything"));
        assert!(validate(&doc, &ALL).is_ok());
    }

    #[test]
    fn documents_round_trip_through_files() {
        let dir = std::env::temp_dir().join(format!("spt_schema_{}", std::process::id()));
        let path = dir.join("nested").join("doc.json");
        let doc = one(Json::arr([Json::obj([("rate", Json::F64(1.5))])]));
        write_document(&doc, &path).expect("written");
        assert_eq!(read_document(&path).expect("read back"), doc);
        std::fs::write(&path, "{").unwrap();
        assert_eq!(read_document(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
