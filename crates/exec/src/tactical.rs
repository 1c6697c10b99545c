//! The tactical (run-time) optimizer (paper §2.3.1, §4.1.2).
//!
//! Strategic optimization fixes the plan shape before execution; tactical
//! decisions are delayed until run time, when the actual data — and the
//! metadata FlowTable extracted from its encodings — is in hand. The
//! choosers here implement the paper's three decision points:
//!
//! * grouping/join hash algorithm by key width (§2.3.4),
//! * fetch join vs hash join from dense/unique key metadata (§2.3.5),
//! * ordered vs hash aggregation from sortedness (§4.2.2).

use crate::block::{Field, Repr};
use crate::hash::{HashStrategy, KeyPacking};
use tde_encodings::metadata::Knowledge;

/// The range a key column's stored `i64`s are known to span. An
/// array-compressed column's metadata describes the values its indexes
/// stand for, so its range is the indexes' own, `[0, dictionary)` — and
/// only where the metadata rules NULL out, for a left join puts the NULL
/// sentinel among the indexes. Every other key's comes from its
/// metadata ([codes](Field::codes) claim theirs).
fn known_range(f: &Field) -> Option<(i64, i64)> {
    match &f.repr {
        Repr::DictIndex(dict, None) => {
            (f.metadata.has_nulls == Knowledge::False).then(|| (0, dict.len().max(1) as i64 - 1))
        }
        _ => Some((f.metadata.min?, f.metadata.max?)),
    }
}

/// Choose the hash strategy (and packing) for a set of key columns.
pub fn choose_hash_strategy(keys: &[&Field]) -> (HashStrategy, Option<KeyPacking>) {
    let ranges: Vec<Option<(i64, i64)>> = keys.iter().map(|f| known_range(f)).collect();
    let chosen = match KeyPacking::plan(&ranges) {
        Some(p) if p.total_bits <= 16 => (HashStrategy::Direct64K, Some(p)),
        Some(p) => (HashStrategy::Perfect, Some(p)),
        None => (HashStrategy::Collision, None),
    };
    tde_obs::emit(|| {
        let names: Vec<&str> = keys.iter().map(|f| f.name.as_str()).collect();
        let reason = match &chosen.1 {
            Some(p) if p.total_bits <= 16 => format!(
                "keys [{}] pack into {} bits <= 16: the packed key indexes a 64K table directly",
                names.join(", "),
                p.total_bits
            ),
            Some(p) => format!(
                "keys [{}] pack into {} bits: open addressing on the packed key, \
                 a probe compares one word",
                names.join(", "),
                p.total_bits
            ),
            None => format!(
                "keys [{}] have unknown or >64-bit combined range: \
                 hash map on the key tuple, a probe compares every column",
                names.join(", ")
            ),
        };
        tde_obs::Event::Decision {
            point: "hash-strategy",
            choice: format!("{:?}", chosen.0),
            reason,
            encoding: None,
        }
    });
    chosen
}

/// How a many-to-one join should be executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinChoice {
    /// The inner row id is an affine transformation of the key value —
    /// no lookup table at all (paper §2.3.5).
    Fetch {
        /// Key value of inner row 0.
        base: i64,
    },
    /// Hash the inner keys.
    Hash,
}

/// Choose the join implementation from the inner key column's metadata:
/// dense + unique + sorted means row id = key − min.
pub fn choose_join(inner_key: &Field) -> JoinChoice {
    let md = &inner_key.metadata;
    let choice = if md.dense.is_true() && md.unique.is_true() && md.sorted_asc.is_true() {
        md.min.map(|min| JoinChoice::Fetch { base: min })
    } else {
        None
    }
    .unwrap_or(JoinChoice::Hash);
    tde_obs::emit(|| {
        let (choice_str, reason) = match choice {
            JoinChoice::Fetch { base } => (
                format!("Fetch {{ base: {base} }}"),
                format!(
                    "inner key '{}' is dense+unique+sorted: row id = key - {base}, no lookup table",
                    inner_key.name
                ),
            ),
            JoinChoice::Hash => (
                "Hash".to_string(),
                format!(
                    "inner key '{}' lacks dense/unique/sorted metadata \
                     (dense={:?} unique={:?} sorted={:?}): hash the inner keys",
                    inner_key.name, md.dense, md.unique, md.sorted_asc
                ),
            ),
        };
        tde_obs::Event::Decision {
            point: "join",
            choice: choice_str,
            reason,
            encoding: None,
        }
    });
    choice
}

/// Whether ordered (sandwiched) aggregation applies: every group key must
/// be known sorted.
pub fn can_aggregate_ordered(keys: &[&Field]) -> bool {
    let ordered = !keys.is_empty() && keys.iter().all(|f| f.metadata.sorted_asc.is_true());
    tde_obs::emit(|| {
        let names: Vec<&str> = keys.iter().map(|f| f.name.as_str()).collect();
        tde_obs::Event::Decision {
            point: "aggregation",
            choice: if ordered {
                "Ordered".into()
            } else {
                "Hash".into()
            },
            reason: if ordered {
                format!(
                    "group keys [{}] are all known sorted: sandwiched aggregation",
                    names.join(", ")
                )
            } else {
                format!(
                    "group keys [{}] are not all known sorted: hash aggregation",
                    names.join(", ")
                )
            },
            encoding: None,
        }
    });
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use tde_encodings::metadata::Knowledge;
    use tde_types::DataType;

    fn field_with(min: i64, max: i64) -> Field {
        let mut f = Field::scalar("k", DataType::Integer);
        f.metadata.min = Some(min);
        f.metadata.max = Some(max);
        f
    }

    #[test]
    fn strategy_ladder() {
        // 1-byte key: direct.
        let f = field_with(0, 200);
        let (s, _) = choose_hash_strategy(&[&f]);
        assert_eq!(s, HashStrategy::Direct64K);
        // Two 1-byte keys: still 16 bits — direct.
        let (s, _) = choose_hash_strategy(&[&f, &f]);
        assert_eq!(s, HashStrategy::Direct64K);
        // 4-byte key: perfect.
        let g = field_with(0, 1 << 30);
        let (s, _) = choose_hash_strategy(&[&g]);
        assert_eq!(s, HashStrategy::Perfect);
        // Unknown range: collision.
        let u = Field::scalar("u", DataType::Integer);
        let (s, p) = choose_hash_strategy(&[&u]);
        assert_eq!(s, HashStrategy::Collision);
        assert!(p.is_none());
        // Two wide keys exceed 64 bits: collision.
        let w = field_with(i64::MIN / 2 + 1, i64::MAX / 2);
        let (s, _) = choose_hash_strategy(&[&w, &w]);
        assert_eq!(s, HashStrategy::Collision);
    }

    #[test]
    fn fetch_join_requires_dense_unique_sorted() {
        let mut f = field_with(100, 199);
        assert_eq!(choose_join(&f), JoinChoice::Hash);
        f.metadata.dense = Knowledge::True;
        f.metadata.unique = Knowledge::True;
        f.metadata.sorted_asc = Knowledge::True;
        assert_eq!(choose_join(&f), JoinChoice::Fetch { base: 100 });
    }

    #[test]
    fn ordered_aggregation_gate() {
        let mut f = field_with(0, 10);
        assert!(!can_aggregate_ordered(&[&f]));
        f.metadata.sorted_asc = Knowledge::True;
        assert!(can_aggregate_ordered(&[&f]));
        assert!(!can_aggregate_ordered(&[]));
    }

    // Decision-event tests. Each runs its calls in a query scope of its
    // own, so concurrent tests in this binary cannot add to its events.

    /// The decisions recorded while `f` runs, as (point, choice, reason).
    fn decisions_during(f: impl FnOnce()) -> Vec<(&'static str, String, String)> {
        let token = tde_obs::timeline::query_begin(0);
        f();
        let trace = tde_obs::timeline::query_end(token, "", 0, 0, None, &[]);
        trace
            .own_events()
            .filter_map(|e| match e {
                tde_obs::Event::Decision {
                    point,
                    choice,
                    reason,
                    ..
                } => Some((*point, choice.clone(), reason.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn hash_strategy_ladder_is_traced() {
        let mut narrow = field_with(0, 200);
        narrow.name = "tt_narrow".into();
        let mut wide = field_with(0, 1 << 30);
        wide.name = "tt_wide".into();
        let mut unknown = Field::scalar("tt_unknown", DataType::Integer);
        unknown.metadata.min = None;

        let events = decisions_during(|| {
            choose_hash_strategy(&[&narrow]);
            choose_hash_strategy(&[&wide]);
            choose_hash_strategy(&[&unknown]);
        });
        let find = |name: &str| {
            events
                .iter()
                .find(|(p, _, r)| *p == "hash-strategy" && r.contains(name))
                .unwrap_or_else(|| panic!("no hash-strategy event for {name} in {events:?}"))
        };
        assert_eq!(find("tt_narrow").1, "Direct64K");
        assert!(find("tt_narrow").2.contains("<= 16"));
        assert_eq!(find("tt_wide").1, "Perfect");
        assert_eq!(find("tt_unknown").1, "Collision");
        assert!(find("tt_unknown").2.contains("unknown"));
    }

    #[test]
    fn join_choice_is_traced_with_metadata_reason() {
        let mut pk = field_with(100, 199);
        pk.name = "tt_pk".into();
        pk.metadata.dense = Knowledge::True;
        pk.metadata.unique = Knowledge::True;
        pk.metadata.sorted_asc = Knowledge::True;
        let messy = Field::scalar("tt_messy", DataType::Integer);

        let events = decisions_during(|| {
            choose_join(&pk);
            choose_join(&messy);
        });
        let fetch = events
            .iter()
            .find(|(p, _, r)| *p == "join" && r.contains("tt_pk"))
            .expect("fetch decision");
        assert_eq!(fetch.1, "Fetch { base: 100 }");
        assert!(fetch.2.contains("dense+unique+sorted"));
        let hash = events
            .iter()
            .find(|(p, _, r)| *p == "join" && r.contains("tt_messy"))
            .expect("hash decision");
        assert_eq!(hash.1, "Hash");
        assert!(hash.2.contains("lacks"));
    }

    #[test]
    fn aggregation_flavor_is_traced() {
        let mut sorted = field_with(0, 10);
        sorted.name = "tt_sorted".into();
        sorted.metadata.sorted_asc = Knowledge::True;
        let mut unsorted = field_with(0, 10);
        unsorted.name = "tt_unsorted".into();

        let events = decisions_during(|| {
            can_aggregate_ordered(&[&sorted]);
            can_aggregate_ordered(&[&unsorted]);
        });
        assert!(events
            .iter()
            .any(|(p, c, r)| *p == "aggregation" && c == "Ordered" && r.contains("tt_sorted")));
        assert!(events
            .iter()
            .any(|(p, c, r)| *p == "aggregation" && c == "Hash" && r.contains("tt_unsorted")));
    }
}
