//! Property tests: `FaultPlan` JSON round-trips exactly, and damaged
//! JSON is refused without a panic.
//!
//! For any plan the builder DSL can produce, `to_json` → `from_json` →
//! `to_json` must be the identity on both the value and the bytes —
//! this is what lets plan files be re-emitted without drifting the
//! determinism goldens that diff them. And `from_json` reads bytes from
//! outside the program: whatever they are, it answers `Ok` or a typed
//! error.

use ecg_faults::FaultPlan;
use ecg_topology::CacheId;
use proptest::prelude::*;

#[path = "../../../tests/support/mutation.rs"]
mod mutation;
use mutation::{arb_mutation, mutate};

/// One builder call, sampled independently.
#[derive(Debug, Clone)]
enum PlanOp {
    Crash { cache: usize, at: f64, down: f64 },
    Retire { cache: usize, at: f64 },
    Brownout { at: f64, dur: f64, factor: f64 },
}

fn arb_op() -> impl Strategy<Value = PlanOp> {
    prop_oneof![
        (0usize..16, 0.0f64..1e6, 1.0f64..1e5).prop_map(|(cache, at, down)| PlanOp::Crash {
            cache,
            at,
            down
        }),
        (0usize..16, 0.0f64..1e6).prop_map(|(cache, at)| PlanOp::Retire { cache, at }),
        (0.0f64..1e6, 1.0f64..1e5, 1.0f64..8.0).prop_map(|(at, dur, factor)| PlanOp::Brownout {
            at,
            dur,
            factor
        }),
    ]
}

fn build(ops: &[PlanOp], knobs: (f64, f64, Option<(f64, f64)>)) -> FaultPlan {
    let (penalty, bucket, probe) = knobs;
    let mut plan = FaultPlan::new()
        .failover_penalty_ms(penalty)
        .timeline_bucket_ms(bucket);
    if let Some((loss, timeout)) = probe {
        plan = plan.probe_loss(loss, timeout);
    }
    for op in ops {
        plan = match *op {
            PlanOp::Crash { cache, at, down } => plan.crash(CacheId(cache), at, down),
            PlanOp::Retire { cache, at } => plan.retire(CacheId(cache), at),
            PlanOp::Brownout { at, dur, factor } => plan.brownout(at, dur, factor),
        };
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn serialize_parse_serialize_is_identity(
        ops in proptest::collection::vec(arb_op(), 0..24),
        penalty in 0.0f64..100.0,
        bucket in 100.0f64..1e5,
        probe_set in any::<bool>(),
        loss in 0.0f64..0.95,
        timeout in 10.0f64..1e4,
    ) {
        let probe = if probe_set { Some((loss, timeout)) } else { None };
        let plan = build(&ops, (penalty, bucket, probe));

        let json = plan.to_json();
        let parsed = FaultPlan::from_json(&json).expect("emitted JSON parses");
        // Value identity: every event (in build order) and every knob.
        prop_assert_eq!(&parsed, &plan);
        // Byte identity: re-serialization reproduces the exact document.
        prop_assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn parsed_plans_compile_to_the_same_schedule(
        ops in proptest::collection::vec(arb_op(), 1..12),
    ) {
        let plan = build(&ops, (3.0, 10_000.0, None));
        let parsed = FaultPlan::from_json(&plan.to_json()).expect("parses");
        prop_assert_eq!(parsed.schedule(), plan.schedule());
        prop_assert_eq!(
            parsed.probe_config(Default::default()),
            plan.probe_config(Default::default())
        );
    }

    #[test]
    fn damaged_documents_are_refused_not_panicked_on(
        ops in proptest::collection::vec(arb_op(), 0..8),
        edit_lists in proptest::collection::vec(
            proptest::collection::vec(arb_mutation(), 1..4),
            32usize,
        ),
    ) {
        let json = build(&ops, (3.0, 10_000.0, Some((0.25, 500.0)))).to_json();
        for edits in &edit_lists {
            let damaged = mutate(json.as_bytes(), edits);
            // `Ok` (the edit kept the plan legal) or `Err`: returning
            // at all is the property.
            let _ = FaultPlan::from_json(&String::from_utf8_lossy(&damaged));
        }
    }
}
