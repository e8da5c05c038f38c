//! Byte-level damage for the readers of outside bytes: a document is
//! edited in place by a few [`Mutation`]s, each placed by a fraction of
//! its length so the same edit applies to documents of any size.
//! Nothing here knows the format being damaged: any reader can be
//! driven by [`mutate`]. Test targets include this file with
//! `#[path = …] mod mutation;`.

use proptest::prelude::*;

/// One byte-level edit.
#[derive(Debug, Clone)]
pub enum Mutation {
    Flip { at: f64, bit: u8 },
    Insert { at: f64, byte: u8 },
    Delete { at: f64 },
    Truncate { at: f64 },
}

pub fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0.0f64..1.0, 0u8..8).prop_map(|(at, bit)| Mutation::Flip { at, bit }),
        (0.0f64..1.0, any::<u8>()).prop_map(|(at, byte)| Mutation::Insert { at, byte }),
        (0.0f64..1.0).prop_map(|at| Mutation::Delete { at }),
        (0.0f64..1.0).prop_map(|at| Mutation::Truncate { at }),
    ]
}

/// `document` with `edits` applied in order.
pub fn mutate(document: &[u8], edits: &[Mutation]) -> Vec<u8> {
    let mut bytes = document.to_vec();
    for edit in edits {
        let len = bytes.len();
        let offset = |at: f64| (at * len as f64) as usize;
        match *edit {
            Mutation::Insert { at, byte } => bytes.insert(offset(at), byte),
            _ if len == 0 => {}
            Mutation::Flip { at, bit } => bytes[offset(at)] ^= 1 << bit,
            Mutation::Delete { at } => {
                bytes.remove(offset(at));
            }
            Mutation::Truncate { at } => bytes.truncate(offset(at)),
        }
    }
    bytes
}
