//! Deterministic snapshot export over the workspace's one JSON codec.
//!
//! A [`Snapshot`] converts to a [`Json`] value ([`Snapshot::to_json`]) and
//! renders as that value's canonical spelling: object keys in sorted
//! string order (metric ids are already canonical, top-level sections
//! alphabetical, histogram bucket indices `"1","10","2"`), no whitespace,
//! and every numeric value encoded as a decimal *string* so the full
//! `u64` range round-trips exactly (JSON numbers are doubles; counters
//! saturate at `u64::MAX`, far past 2^53). Rendering the same registry
//! state twice yields byte-identical output — the property the
//! reproduction pipeline pins with an end-to-end test.
//!
//! Parsing is the trust boundary for snapshots read back from disk, so
//! it is strict: [`Json::parse`] rejects malformed JSON and duplicate
//! keys, then [`Snapshot::from_json`] rejects unknown schema strings,
//! values that are not canonical decimal strings
//! ([`decimal_u64`]), out-of-range bucket indices, and histograms
//! whose bucket counts do not sum to their `count` — each with a typed
//! [`SnapshotError`], never a panic, never a silently patched value.

use crate::histogram::BUCKETS;
use crate::json::{decimal_u64, Json};
use std::collections::BTreeMap;
use std::fmt;

/// Schema identifier pinned into every rendered snapshot.
pub const SCHEMA: &str = "sepe-metrics/v1";

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

impl Snapshot {
    /// The snapshot as a JSON value: sections and metric ids as object
    /// keys, every number a decimal string.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let decimal = |v: &u64| Json::Str(v.to_string());
        let u64_map = |map: &BTreeMap<String, u64>| {
            Json::Obj(map.iter().map(|(id, v)| (id.clone(), decimal(v))).collect())
        };
        let histograms = self
            .histograms
            .iter()
            .map(|(id, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|(bucket, c)| (bucket.to_string(), decimal(c)))
                    .collect();
                let fields = BTreeMap::from([
                    ("buckets".to_owned(), Json::Obj(buckets)),
                    ("count".to_owned(), decimal(&h.count)),
                    ("sum".to_owned(), decimal(&h.sum)),
                ]);
                (id.clone(), Json::Obj(fields))
            })
            .collect();
        Json::Obj(BTreeMap::from([
            ("counters".to_owned(), u64_map(&self.counters)),
            ("gauges".to_owned(), u64_map(&self.gauges)),
            ("histograms".to_owned(), Json::Obj(histograms)),
            ("schema".to_owned(), Json::Str(SCHEMA.to_owned())),
        ]))
    }

    /// Renders the canonical JSON spelling of this snapshot.
    #[must_use]
    pub fn render(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses and validates a rendered snapshot: [`Json::parse`], then
    /// the shape checks of [`Snapshot::from_json`].
    ///
    /// # Errors
    ///
    /// Every corruption mode maps to a typed [`SnapshotError`]; see the
    /// module docs.
    pub fn parse(input: &str) -> Result<Self, SnapshotError> {
        let json = Json::parse(input).map_err(|e| SnapshotError::Malformed {
            at: e.at,
            message: e.message,
        })?;
        Self::from_json(&json)
    }

    /// Reads a snapshot back from its JSON value, checking its shape: the
    /// schema, the three sections and nothing else, decimal-string
    /// values, in-range bucket indices and bucket counts that sum to each
    /// histogram's `count`.
    ///
    /// # Errors
    ///
    /// A typed [`SnapshotError`] for every shape violation.
    pub fn from_json(json: &Json) -> Result<Self, SnapshotError> {
        let Json::Obj(top) = json else {
            return Err(SnapshotError::Malformed {
                at: 0,
                message: "top level is not an object".to_owned(),
            });
        };
        match top.get("schema") {
            None => {
                return Err(SnapshotError::MissingField {
                    field: "schema".to_owned(),
                })
            }
            Some(Json::Str(found)) if found != SCHEMA => {
                return Err(SnapshotError::SchemaMismatch {
                    found: found.clone(),
                })
            }
            Some(Json::Str(_)) => {}
            Some(_) => return Err(bad_value("schema", "expected a string")),
        }
        let counters = u64_map(section(top, "counters")?)?;
        let gauges = u64_map(section(top, "gauges")?)?;
        let histograms = section(top, "histograms")?
            .iter()
            .map(|(id, h)| Ok((id.clone(), histogram(id, h)?)))
            .collect::<Result<_, SnapshotError>>()?;
        let known = ["counters", "gauges", "histograms", "schema"];
        if let Some(extra) = top.keys().find(|k| !known.contains(&k.as_str())) {
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

fn bad_value(id: &str, message: impl Into<String>) -> SnapshotError {
    SnapshotError::BadValue {
        id: id.to_owned(),
        message: message.into(),
    }
}

/// The object under the top-level key `field`.
fn section<'a>(
    top: &'a BTreeMap<String, Json>,
    field: &str,
) -> Result<&'a BTreeMap<String, Json>, SnapshotError> {
    match top.get(field) {
        None => Err(SnapshotError::MissingField {
            field: field.to_owned(),
        }),
        Some(Json::Obj(map)) => Ok(map),
        Some(_) => Err(bad_value(field, "expected an object")),
    }
}

/// A metric value: a string the codec's [`decimal_u64`] accepts.
fn decimal(id: &str, value: &Json) -> Result<u64, SnapshotError> {
    let Json::Str(s) = value else {
        return Err(bad_value(id, "expected a string value"));
    };
    decimal_u64(s).ok_or_else(|| bad_value(id, format!("{s:?} is not a canonical decimal u64")))
}

fn u64_map(map: &BTreeMap<String, Json>) -> Result<BTreeMap<String, u64>, SnapshotError> {
    map.iter()
        .map(|(id, v)| Ok((id.clone(), decimal(id, v)?)))
        .collect()
}

fn histogram(id: &str, value: &Json) -> Result<HistogramSnapshot, SnapshotError> {
    let Json::Obj(fields) = value else {
        return Err(bad_value(id, "expected a histogram object"));
    };
    let field = |name: &str| {
        fields
            .get(name)
            .ok_or_else(|| bad_value(id, format!("missing {name}")))
    };
    let count = decimal(&format!("{id}.count"), field("count")?)?;
    let sum = decimal(&format!("{id}.sum"), field("sum")?)?;
    let Json::Obj(bucket_map) = field("buckets")? else {
        return Err(bad_value(id, "buckets is not an object"));
    };
    if let Some(extra) = fields
        .keys()
        .find(|k| !matches!(k.as_str(), "buckets" | "count" | "sum"))
    {
        return Err(bad_value(
            id,
            format!("unexpected histogram field {extra:?}"),
        ));
    }
    let mut buckets = BTreeMap::new();
    for (bucket, c) in bucket_map {
        let index = decimal_u64(bucket)
            .filter(|&i| i < BUCKETS as u64)
            .ok_or_else(|| bad_value(id, format!("bucket index {bucket:?} out of range")))?;
        let value = decimal(&format!("{id}.buckets[{index}]"), c)?;
        if value == 0 {
            return Err(bad_value(
                id,
                format!("bucket {index} records an empty count"),
            ));
        }
        buckets.insert(index as u8, value);
    }
    let total = buckets.values().fold(0u64, |a, v| a.saturating_add(*v));
    if total != count {
        return Err(SnapshotError::BucketSumMismatch {
            id: id.to_owned(),
            buckets: total,
            count,
        });
    }
    Ok(HistogramSnapshot {
        count,
        sum,
        buckets,
    })
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
    fn escaped_ids_round_trip() {
        let mut snap = Snapshot::default();
        snap.counters.insert("weird\n\"id\"\\x".to_owned(), 1);
        let rendered = snap.render();
        let parsed = Snapshot::parse(&rendered).expect("parses");
        assert_eq!(parsed, snap);
    }
}
