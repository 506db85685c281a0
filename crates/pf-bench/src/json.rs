//! The one JSON writer behind every `BENCH_<campaign>.json` artifact
//! (hand-rolled: the build is hermetic, no serde).
//!
//! An artifact is a top-level object printed one field per line. A field
//! holds a value, a row array printed one object per line, or a keyed
//! summary object printed one `"key": {...}` entry per line:
//!
//! ```text
//! {
//!   "experiment": "mc",
//!   "rows": [
//!     {"engine": "sharded", "cores": 1, "goodput_pps": 4971.000},
//!     {"engine": "sharded", "cores": 4, "goodput_pps": 19884.000}
//!   ],
//!   "signature": {
//!     "sharded": {"speedup_4c_over_1c_at_batch_32": 4.000}
//!   }
//! }
//! ```
//!
//! Floats carry their own precision ([`Value::Fixed`]) and print as
//! `null` when not finite. Keys and strings are the campaigns' own
//! literals, printed without escaping.

/// One JSON value, printed on a single line.
#[derive(Debug)]
pub enum Value {
    /// A string.
    Str(String),
    /// Printed as is: an integer, a bool, or a rendered array or object.
    Raw(String),
    /// A float with a fixed number of decimals; `null` when not finite.
    Fixed(f64, usize),
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<&[&str]> for Value {
    fn from(v: &[&str]) -> Self {
        let items: Vec<String> = v.iter().map(|s| format!("\"{s}\"")).collect();
        Value::Raw(format!("[{}]", items.join(", ")))
    }
}

impl From<Obj> for Value {
    fn from(o: Obj) -> Self {
        Value::Raw(o.to_string())
    }
}

macro_rules! raw_values {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Self {
                Value::Raw(x.to_string())
            }
        }
    )*};
}
raw_values!(bool, u16, u64, u128, usize);

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Raw(s) => f.write_str(s),
            Value::Fixed(x, decimals) if x.is_finite() => write!(f, "{x:.decimals$}"),
            Value::Fixed(..) => f.write_str("null"),
        }
    }
}

/// An object printed on one line, fields in insertion order.
#[derive(Debug, Default)]
pub struct Obj(Vec<(String, Value)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends field `key`.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.0.push((key.into(), value.into()));
        self
    }
}

impl std::fmt::Display for Obj {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        write!(f, "{{{}}}", fields.join(", "))
    }
}

/// A campaign artifact: the top-level object, one field per line.
#[derive(Debug, Default)]
pub struct Artifact(Vec<String>);

impl Artifact {
    /// An empty artifact.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `"key": value` on one line.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.0.push(format!("  \"{key}\": {}", value.into()));
        self
    }

    /// Appends a row array, one object per line.
    pub fn rows(self, key: &str, rows: impl IntoIterator<Item = Obj>) -> Self {
        let lines = rows.into_iter().map(|r| format!("    {r}"));
        self.block(key, '[', lines, ']')
    }

    /// Appends a keyed summary object, one `"name": {...}` per line.
    pub fn keyed<K: AsRef<str>>(
        self,
        key: &str,
        items: impl IntoIterator<Item = (K, Obj)>,
    ) -> Self {
        let lines = items
            .into_iter()
            .map(|(k, o)| format!("    \"{}\": {o}", k.as_ref()));
        self.block(key, '{', lines, '}')
    }

    fn block(
        mut self,
        key: &str,
        open: char,
        lines: impl Iterator<Item = String>,
        close: char,
    ) -> Self {
        let body = lines.collect::<Vec<_>>().join(",\n");
        self.0
            .push(format!("  \"{key}\": {open}\n{body}\n  {close}"));
        self
    }

    /// The artifact text, newline-terminated.
    pub fn render(&self) -> String {
        format!("{{\n{}\n}}\n", self.0.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_artifact_layout() {
        let json = Artifact::new()
            .field("experiment", "mc")
            .field("seed", 7u64)
            .field("smoke", true)
            .field("asserts", &["a", "b"][..])
            .field("summary", Obj::new().field("n", 2usize))
            .rows(
                "rows",
                [1.0, 2.5].map(|x| Obj::new().field("x", Value::Fixed(x, 3))),
            )
            .keyed(
                "signature",
                [("sharded", Obj::new().field("r", Value::Fixed(0.5, 2)))],
            )
            .render();
        assert_eq!(
            json,
            "{\n  \"experiment\": \"mc\",\n  \"seed\": 7,\n  \"smoke\": true,\n  \
             \"asserts\": [\"a\", \"b\"],\n  \"summary\": {\"n\": 2},\n  \"rows\": [\n    \
             {\"x\": 1.000},\n    {\"x\": 2.500}\n  ],\n  \"signature\": {\n    \
             \"sharded\": {\"r\": 0.50}\n  }\n}\n"
        );
    }

    #[test]
    fn floats_carry_their_own_precision_and_non_finite_is_null() {
        assert_eq!(Value::Fixed(1.0 / 3.0, 2).to_string(), "0.33");
        assert_eq!(Value::Fixed(1.0 / 3.0, 3).to_string(), "0.333");
        assert_eq!(Value::Fixed(f64::NAN, 3).to_string(), "null");
        assert_eq!(Value::Fixed(f64::INFINITY, 2).to_string(), "null");
    }
}
