//! Property tests: what `ecg_obs::json`'s writer writes, its parser
//! reads back unchanged.

use ecg_obs::json::{parse, JsonValue, JsonWriter, MAX_DEPTH};
use proptest::prelude::*;
use proptest::strategy::OneOf;

/// Characters from every class the escaper distinguishes: all of
/// U+0000–U+001F, the quote and the backslash, plain ASCII, the rest
/// of the BMP either side of the surrogate gap, and non-BMP.
fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        0u32..0x20,
        Just(u32::from('"')),
        Just(u32::from('\\')),
        0x20u32..0x7f,
        0x7fu32..0xd800,
        0xe000u32..0x1_0000,
        0x1_0000u32..0x11_0000,
    ]
    .prop_map(|c| char::from_u32(c).expect("the ranges skip the surrogates"))
}

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_char(), 0..12).prop_map(String::from_iter)
}

/// Every bit-pattern class: uniformly drawn bits (normals of every
/// exponent, subnormals, NaN payloads), the named edge values, and
/// everyday magnitudes.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (0u64..1 << 52).prop_map(f64::from_bits), // subnormals
        -1e6f64..1e6,
        Just(0.0),
        Just(-0.0),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        Just(5e-324),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

fn arb_leaf() -> OneOf<JsonValue> {
    prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        arb_f64().prop_map(JsonValue::Num),
        arb_string().prop_map(JsonValue::Str),
    ]
}

/// Values nesting up to `depth` containers, empty ones included. Keys
/// come from a two-name pool half the time, so objects repeat keys.
fn arb_value(depth: usize) -> OneOf<JsonValue> {
    let mut value = arb_leaf();
    for _ in 0..depth {
        let key = prop_oneof![Just("a".to_owned()), Just("b".to_owned()), arb_string()];
        let members = proptest::collection::vec((key, value), 0..4);
        value = prop_oneof![
            arb_leaf(),
            (any::<bool>(), members).prop_map(|(object, members)| if object {
                JsonValue::Obj(members)
            } else {
                JsonValue::Arr(members.into_iter().map(|(_, v)| v).collect())
            }),
        ];
    }
    value
}

fn write_value(w: &mut JsonWriter, value: &JsonValue) {
    match value {
        JsonValue::Null => w.null(),
        JsonValue::Bool(b) => w.bool(*b),
        JsonValue::Num(v) => w.f64(*v),
        JsonValue::Str(s) => w.str(s),
        JsonValue::Arr(items) => w.array(|w| {
            for item in items {
                write_value(w, item);
            }
        }),
        JsonValue::Obj(members) => w.object(|w| {
            for (key, member) in members {
                write_value(w.key(key), member);
            }
        }),
    };
}

fn to_text(value: &JsonValue) -> String {
    let mut w = JsonWriter::new();
    write_value(&mut w, value);
    w.finish()
}

/// What `value` reads back as: itself, except that the non-finite
/// numbers were written as `null`.
fn read_back(value: &JsonValue) -> JsonValue {
    match value {
        JsonValue::Num(v) if !v.is_finite() => JsonValue::Null,
        JsonValue::Arr(items) => JsonValue::Arr(items.iter().map(read_back).collect()),
        JsonValue::Obj(members) => JsonValue::Obj(
            members
                .iter()
                .map(|(k, v)| (k.clone(), read_back(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_round_trip(s in arb_string()) {
        let parsed = parse(&to_text(&JsonValue::Str(s.clone()))).expect("parses");
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
    }

    #[test]
    fn floats_round_trip_to_the_bit(v in arb_f64()) {
        let parsed = parse(&to_text(&JsonValue::Num(v))).expect("parses");
        if v.is_finite() {
            prop_assert_eq!(parsed.as_f64().map(f64::to_bits), Some(v.to_bits()), "{}", v);
        } else {
            prop_assert!(parsed.is_null(), "{}", v);
        }
    }

    #[test]
    fn values_round_trip_at_any_depth_up_to_the_bound(
        value in arb_value(6),
        spine in proptest::collection::vec(any::<bool>(), 0..=MAX_DEPTH - 6),
    ) {
        // `spine` wraps the value in single-member containers, so the
        // deepest documents sit exactly at the bound.
        let value = spine.iter().fold(value, |inner, &object| if object {
            JsonValue::Obj(vec![("k".to_owned(), inner)])
        } else {
            JsonValue::Arr(vec![inner])
        });
        let parsed = parse(&to_text(&value)).expect("parses");
        prop_assert_eq!(&parsed, &read_back(&value));
        if let JsonValue::Obj(members) = &parsed {
            for (key, _) in members {
                let first = members.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                prop_assert_eq!(parsed.get(key), first, "the first {:?} wins", key);
            }
        }
    }
}
