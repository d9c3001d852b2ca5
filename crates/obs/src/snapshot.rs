//! Deterministic snapshot export with a strict, typed parser.
//!
//! A [`Snapshot`] renders to one canonical JSON spelling: object keys in
//! sorted order (metric ids are already canonical, top-level sections
//! alphabetical), no whitespace, and every numeric value encoded as a
//! decimal *string* so the full `u64` range round-trips exactly (JSON
//! numbers are doubles; counters saturate at `u64::MAX`, far past 2^53).
//! Rendering the same registry state twice yields byte-identical output —
//! the property the reproduction pipeline pins with an end-to-end test.
//!
//! Parsing is the trust boundary for snapshots read back from disk, so
//! it is strict: unknown schema strings, malformed JSON, duplicate keys,
//! non-decimal values, out-of-range bucket indices, and histograms whose
//! bucket counts do not sum to their `count` are all rejected with a
//! typed [`SnapshotError`] — never a panic, never a silently patched
//! value.

use crate::histogram::BUCKETS;
use std::collections::BTreeMap;
use std::fmt;

/// Schema identifier pinned into every rendered snapshot.
pub const SCHEMA: &str = "sepe-metrics/v1";

/// Deepest object nesting [`Snapshot::parse`] accepts. A rendered
/// snapshot nests four levels; the cap keeps hostile input from
/// overflowing the parser's stack.
const MAX_DEPTH: usize = 64;

/// A histogram reduced to its occupied buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Saturating sum of observed values.
    pub sum: u64,
    /// Occupied bucket index → observation count.
    pub buckets: BTreeMap<u8, u64>,
}

/// A point-in-time reading of a [`Registry`](crate::Registry).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter id → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge id → value.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram id → bucketed summary.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Typed failure of [`Snapshot::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input is not the expected JSON shape.
    Malformed {
        /// Byte offset of the failure.
        at: usize,
        /// What went wrong.
        message: String,
    },
    /// The schema field does not match [`SCHEMA`].
    SchemaMismatch {
        /// The schema string found in the input.
        found: String,
    },
    /// A required top-level section is missing.
    MissingField {
        /// Name of the missing field.
        field: String,
    },
    /// A metric value is not a decimal `u64` string.
    BadValue {
        /// Metric id (or `id.field` path) the value belongs to.
        id: String,
        /// What went wrong.
        message: String,
    },
    /// A histogram's bucket counts do not sum to its `count`.
    BucketSumMismatch {
        /// Histogram id.
        id: String,
        /// Sum of the bucket counts.
        buckets: u64,
        /// The claimed total count.
        count: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Malformed { at, message } => {
                write!(f, "malformed snapshot at byte {at}: {message}")
            }
            SnapshotError::SchemaMismatch { found } => {
                write!(f, "snapshot schema {found:?} is not {SCHEMA:?}")
            }
            SnapshotError::MissingField { field } => {
                write!(f, "snapshot is missing the {field:?} section")
            }
            SnapshotError::BadValue { id, message } => {
                write!(f, "snapshot value for {id}: {message}")
            }
            SnapshotError::BucketSumMismatch { id, buckets, count } => write!(
                f,
                "histogram {id}: bucket counts sum to {buckets} but count claims {count}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_u64_map(out: &mut String, map: &BTreeMap<String, u64>) {
    out.push('{');
    for (i, (id, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, id);
        out.push(':');
        push_json_string(out, &v.to_string());
    }
    out.push('}');
}

impl Snapshot {
    /// Renders the canonical JSON spelling of this snapshot.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64 + 48 * self.counters.len());
        out.push_str("{\"counters\":");
        push_u64_map(&mut out, &self.counters);
        out.push_str(",\"gauges\":");
        push_u64_map(&mut out, &self.gauges);
        out.push_str(",\"histograms\":{");
        for (i, (id, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, id);
            out.push_str(":{\"buckets\":{");
            for (j, (bucket, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_json_string(&mut out, &bucket.to_string());
                out.push(':');
                push_json_string(&mut out, &c.to_string());
            }
            out.push_str("},\"count\":");
            push_json_string(&mut out, &h.count.to_string());
            out.push_str(",\"sum\":");
            push_json_string(&mut out, &h.sum.to_string());
            out.push('}');
        }
        out.push_str("},\"schema\":");
        push_json_string(&mut out, SCHEMA);
        out.push('}');
        out
    }

    /// Parses and validates a rendered snapshot.
    ///
    /// # Errors
    ///
    /// Every corruption mode maps to a typed [`SnapshotError`]; see the
    /// module docs.
    pub fn parse(input: &str) -> Result<Self, SnapshotError> {
        let value = Parser::new(input).document()?;
        let mut top = match value {
            Node::Obj(map) => map,
            Node::Str(_) => {
                return Err(SnapshotError::Malformed {
                    at: 0,
                    message: "top level is not an object".to_owned(),
                })
            }
        };
        let schema = match top.remove("schema") {
            Some(Node::Str(s)) => s,
            Some(Node::Obj(_)) => {
                return Err(SnapshotError::BadValue {
                    id: "schema".to_owned(),
                    message: "expected a string".to_owned(),
                })
            }
            None => {
                return Err(SnapshotError::MissingField {
                    field: "schema".to_owned(),
                })
            }
        };
        if schema != SCHEMA {
            return Err(SnapshotError::SchemaMismatch { found: schema });
        }
        let counters = take_u64_map(&mut top, "counters")?;
        let gauges = take_u64_map(&mut top, "gauges")?;
        let histograms = take_histograms(&mut top)?;
        if let Some(extra) = top.keys().next() {
            return Err(SnapshotError::Malformed {
                at: 0,
                message: format!("unexpected top-level key {extra:?}"),
            });
        }
        Ok(Snapshot {
            counters,
            gauges,
            histograms,
        })
    }

    /// Convenience lookup of a counter by canonical id.
    #[must_use]
    pub fn counter(&self, id: &str) -> Option<u64> {
        self.counters.get(id).copied()
    }

    /// Convenience lookup of a gauge by canonical id.
    #[must_use]
    pub fn gauge(&self, id: &str) -> Option<u64> {
        self.gauges.get(id).copied()
    }

    /// Sum of every counter whose id starts with `name` followed by `{`
    /// or an exact match — i.e. all label combinations of one family.
    #[must_use]
    pub fn counter_family_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(id, _)| {
                id.as_str() == name
                    || (id.starts_with(name) && id.as_bytes().get(name.len()) == Some(&b'{'))
            })
            .fold(0u64, |a, (_, v)| a.saturating_add(*v))
    }
}

fn parse_u64(id: &str, s: &str) -> Result<u64, SnapshotError> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(SnapshotError::BadValue {
            id: id.to_owned(),
            message: format!("{s:?} is not a decimal u64"),
        });
    }
    // Reject redundant leading zeros so every value has one spelling.
    if s.len() > 1 && s.starts_with('0') {
        return Err(SnapshotError::BadValue {
            id: id.to_owned(),
            message: format!("{s:?} has leading zeros"),
        });
    }
    s.parse::<u64>().map_err(|_| SnapshotError::BadValue {
        id: id.to_owned(),
        message: format!("{s:?} overflows u64"),
    })
}

fn take_u64_map(
    top: &mut BTreeMap<String, Node>,
    field: &str,
) -> Result<BTreeMap<String, u64>, SnapshotError> {
    let node = top
        .remove(field)
        .ok_or_else(|| SnapshotError::MissingField {
            field: field.to_owned(),
        })?;
    let map = match node {
        Node::Obj(map) => map,
        Node::Str(_) => {
            return Err(SnapshotError::BadValue {
                id: field.to_owned(),
                message: "expected an object".to_owned(),
            })
        }
    };
    let mut out = BTreeMap::new();
    for (id, v) in map {
        let raw = match v {
            Node::Str(s) => s,
            Node::Obj(_) => {
                return Err(SnapshotError::BadValue {
                    id,
                    message: "expected a string value".to_owned(),
                })
            }
        };
        let value = parse_u64(&id, &raw)?;
        out.insert(id, value);
    }
    Ok(out)
}

fn take_histograms(
    top: &mut BTreeMap<String, Node>,
) -> Result<BTreeMap<String, HistogramSnapshot>, SnapshotError> {
    let node = top
        .remove("histograms")
        .ok_or_else(|| SnapshotError::MissingField {
            field: "histograms".to_owned(),
        })?;
    let map = match node {
        Node::Obj(map) => map,
        Node::Str(_) => {
            return Err(SnapshotError::BadValue {
                id: "histograms".to_owned(),
                message: "expected an object".to_owned(),
            })
        }
    };
    let mut out = BTreeMap::new();
    for (id, v) in map {
        let mut fields = match v {
            Node::Obj(fields) => fields,
            Node::Str(_) => {
                return Err(SnapshotError::BadValue {
                    id,
                    message: "expected a histogram object".to_owned(),
                })
            }
        };
        let count = match fields.remove("count") {
            Some(Node::Str(s)) => parse_u64(&format!("{id}.count"), &s)?,
            _ => {
                return Err(SnapshotError::BadValue {
                    id,
                    message: "missing or non-string count".to_owned(),
                })
            }
        };
        let sum = match fields.remove("sum") {
            Some(Node::Str(s)) => parse_u64(&format!("{id}.sum"), &s)?,
            _ => {
                return Err(SnapshotError::BadValue {
                    id,
                    message: "missing or non-string sum".to_owned(),
                })
            }
        };
        let bucket_map = match fields.remove("buckets") {
            Some(Node::Obj(b)) => b,
            _ => {
                return Err(SnapshotError::BadValue {
                    id,
                    message: "missing buckets object".to_owned(),
                })
            }
        };
        if let Some(extra) = fields.keys().next() {
            return Err(SnapshotError::BadValue {
                id,
                message: format!("unexpected histogram field {extra:?}"),
            });
        }
        let mut buckets = BTreeMap::new();
        let mut bucket_total = 0u64;
        for (bucket, c) in bucket_map {
            let index = parse_u64(&format!("{id}.buckets"), &bucket)?;
            if index as usize >= BUCKETS {
                return Err(SnapshotError::BadValue {
                    id,
                    message: format!("bucket index {index} out of range"),
                });
            }
            let raw = match c {
                Node::Str(s) => s,
                Node::Obj(_) => {
                    return Err(SnapshotError::BadValue {
                        id,
                        message: "bucket count is not a string".to_owned(),
                    })
                }
            };
            let value = parse_u64(&format!("{id}.buckets[{index}]"), &raw)?;
            if value == 0 {
                return Err(SnapshotError::BadValue {
                    id,
                    message: format!("bucket {index} records an empty count"),
                });
            }
            bucket_total = bucket_total.saturating_add(value);
            buckets.insert(index as u8, value);
        }
        if bucket_total != count {
            return Err(SnapshotError::BucketSumMismatch {
                id,
                buckets: bucket_total,
                count,
            });
        }
        out.insert(
            id,
            HistogramSnapshot {
                count,
                sum,
                buckets,
            },
        );
    }
    Ok(out)
}

/// The only JSON shapes a snapshot contains: strings and string-keyed
/// objects. Anything else is malformed by construction.
enum Node {
    Str(String),
    Obj(BTreeMap<String, Node>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> SnapshotError {
        SnapshotError::Malformed {
            at: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), SnapshotError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn document(&mut self) -> Result<Node, SnapshotError> {
        let value = self.value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing content after the snapshot"));
        }
        Ok(value)
    }

    fn value(&mut self, depth: usize) -> Result<Node, SnapshotError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') if depth == MAX_DEPTH => Err(self.err("objects nested too deep")),
            Some(b'{') => self.object(depth + 1),
            Some(b'"') => Ok(Node::Str(self.string()?)),
            Some(_) => Err(self.err("expected a string or an object")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Node, SnapshotError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Node::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value(depth)?;
            if map.insert(key.clone(), value).is_some() {
                return Err(self.err(format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Node::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign.
                            let code = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("\\u escape needs four hex digits"))?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    // The input is a &str, so the slice is valid UTF-8.
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("guard_off_format".to_owned(), 3);
        snap.counters
            .insert("hits{shard=\"0\"}".to_owned(), u64::MAX);
        snap.gauges.insert("win_base".to_owned(), 17);
        snap.histograms.insert(
            "probe_len".to_owned(),
            HistogramSnapshot {
                count: 4,
                sum: 10,
                buckets: [(1u8, 3u64), (2, 1)].into_iter().collect(),
            },
        );
        snap
    }

    #[test]
    fn render_parse_round_trips_byte_identically() {
        let snap = sample();
        let rendered = snap.render();
        let parsed = Snapshot::parse(&rendered).expect("parses");
        assert_eq!(parsed, snap);
        assert_eq!(parsed.render(), rendered);
        assert!(rendered.contains("\"schema\":\"sepe-metrics/v1\""));
        assert_eq!(parsed.counter("guard_off_format"), Some(3));
        assert_eq!(parsed.counter("hits{shard=\"0\"}"), Some(u64::MAX));
    }

    #[test]
    fn family_totals_sum_label_combinations() {
        let mut snap = Snapshot::default();
        snap.counters.insert("hits{shard=\"0\"}".to_owned(), 2);
        snap.counters.insert("hits{shard=\"1\"}".to_owned(), 5);
        snap.counters.insert("hits_total".to_owned(), 100);
        assert_eq!(snap.counter_family_total("hits"), 7);
        assert_eq!(snap.counter_family_total("hits_total"), 100);
        assert_eq!(snap.counter_family_total("missing"), 0);
    }

    #[test]
    fn schema_mismatch_is_typed() {
        let doc = sample()
            .render()
            .replace("sepe-metrics/v1", "sepe-metrics/v0");
        match Snapshot::parse(&doc) {
            Err(SnapshotError::SchemaMismatch { found }) => {
                assert_eq!(found, "sepe-metrics/v0");
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
    }

    #[test]
    fn bucket_sum_mismatch_is_typed() {
        let doc = sample()
            .render()
            .replace("\"count\":\"4\"", "\"count\":\"5\"");
        match Snapshot::parse(&doc) {
            Err(SnapshotError::BucketSumMismatch { buckets, count, .. }) => {
                assert_eq!((buckets, count), (4, 5));
            }
            other => panic!("expected BucketSumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn corruption_modes_map_to_typed_errors() {
        assert!(matches!(
            Snapshot::parse("not json"),
            Err(SnapshotError::Malformed { .. })
        ));
        let truncated = &sample().render()[..40];
        assert!(matches!(
            Snapshot::parse(truncated),
            Err(SnapshotError::Malformed { .. })
        ));
        assert!(matches!(
            Snapshot::parse(r#"{"counters":{},"gauges":{},"histograms":{}}"#),
            Err(SnapshotError::MissingField { .. })
        ));
        let bad_value = sample().render().replace("\"17\"", "\"-17\"");
        assert!(matches!(
            Snapshot::parse(&bad_value),
            Err(SnapshotError::BadValue { .. })
        ));
        let overflow = sample()
            .render()
            .replace("\"17\"", "\"99999999999999999999999\"");
        assert!(matches!(
            Snapshot::parse(&overflow),
            Err(SnapshotError::BadValue { .. })
        ));
        let dup = r#"{"counters":{"a":"1","a":"2"},"gauges":{},"histograms":{},"schema":"sepe-metrics/v1"}"#;
        assert!(matches!(
            Snapshot::parse(dup),
            Err(SnapshotError::Malformed { .. })
        ));
        let extra = sample()
            .render()
            .replacen("{\"counters\"", "{\"zextra\":{},\"counters\"", 1);
        assert!(matches!(
            Snapshot::parse(&extra),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        let deep = "{\"a\":".repeat(100_000) + &"}".repeat(100_000);
        assert!(matches!(
            Snapshot::parse(&deep),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        let doc = |id: &str| {
            format!(
                r#"{{"counters":{{"{id}":"1"}},"gauges":{{}},"histograms":{{}},"schema":"sepe-metrics/v1"}}"#
            )
        };
        let parsed = Snapshot::parse(&doc(r"a\u0041")).expect("parses");
        assert_eq!(parsed.counter("aA"), Some(1));
        for bad in [r"a\u+041", r"a\u-041", r"a\u 041", r"a\u04"] {
            assert!(
                matches!(
                    Snapshot::parse(&doc(bad)),
                    Err(SnapshotError::Malformed { .. })
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn escaped_ids_round_trip() {
        let mut snap = Snapshot::default();
        snap.counters.insert("weird\n\"id\"\\x".to_owned(), 1);
        let rendered = snap.render();
        let parsed = Snapshot::parse(&rendered).expect("parses");
        assert_eq!(parsed, snap);
    }
}
