//! Differential tests over the two snapshot encodings: the versioned
//! binary spill format must decode to the SAME value it was written from —
//! equal as a snapshot, identical in the canonical text rendering the
//! equivalence suites diff, and re-encoding byte-identically. Plus a
//! malformed-binary corpus: truncation at every byte boundary, corrupted
//! magic/version, out-of-range name indices, and duplicated shard frames
//! must all come back as typed [`SpillError`]s, never a panic.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use remnant::core::snapshot::{DnsSnapshot, SiteRecords};
use remnant::core::spill::SpillError;
use remnant::sim::SimTime;

/// Strategy for syntactically valid domain-name labels.
fn label() -> impl Strategy<Value = String> {
    "[a-z0-9]([a-z0-9-]{0,8}[a-z0-9])?"
}

/// Strategy for 2–4 label domain names.
fn domain_name() -> impl Strategy<Value = String> {
    prop::collection::vec(label(), 2..=4).prop_map(|labels| labels.join("."))
}

type SiteSpec = (Vec<u32>, Vec<String>, Vec<String>);

/// Builds a snapshot from generated site specs, with a small block size so
/// multi-block (and thus multi-frame) layouts are exercised.
fn build(taken_at: u64, day: u32, sites: &[SiteSpec]) -> DnsSnapshot {
    let mut builder = DnsSnapshot::builder(SimTime::from_secs(taken_at), day, 3);
    for (a, cnames, ns) in sites {
        builder.push(SiteRecords {
            a: a.iter().copied().map(Ipv4Addr::from).collect(),
            cnames: cnames.iter().map(|n| n.parse().unwrap()).collect(),
            ns: ns.iter().map(|n| n.parse().unwrap()).collect(),
        });
    }
    builder.finish()
}

proptest! {
    #[test]
    fn text_and_binary_codecs_agree(
        taken_at in 0u64..10_000_000,
        day in 0u32..365,
        sites in prop::collection::vec(
            (
                prop::collection::vec(any::<u32>(), 0..4),
                prop::collection::vec(domain_name(), 0..3),
                prop::collection::vec(domain_name(), 0..3),
            ),
            0..10,
        ),
    ) {
        let snapshot = build(taken_at, day, &sites);
        let text = snapshot.encode();
        let binary = snapshot.encode_binary();

        // The binary decode recovers the same value...
        let from_binary = DnsSnapshot::decode_binary(&binary).expect("own binary parses");
        prop_assert_eq!(&from_binary, &snapshot);
        // ...which renders to the same canonical text, block layout
        // included, and re-encodes to byte-identical binary.
        prop_assert_eq!(from_binary.encode(), text);
        prop_assert_eq!(from_binary.encode_binary(), binary);
    }

    #[test]
    fn truncated_binary_is_a_typed_error_at_every_boundary(
        sites in prop::collection::vec(
            (
                prop::collection::vec(any::<u32>(), 0..3),
                prop::collection::vec(domain_name(), 0..2),
                prop::collection::vec(domain_name(), 0..2),
            ),
            1..6,
        ),
    ) {
        let binary = build(7, 2, &sites).encode_binary();
        for len in 0..binary.len() {
            // Every prefix decodes to Err — typed, no panic — because the
            // trailer can never be intact on a strict prefix.
            prop_assert!(DnsSnapshot::decode_binary(&binary[..len]).is_err());
        }
    }

    #[test]
    fn bitflipped_binary_never_panics(
        sites in prop::collection::vec(
            (
                prop::collection::vec(any::<u32>(), 0..3),
                prop::collection::vec(domain_name(), 0..2),
                prop::collection::vec(domain_name(), 0..2),
            ),
            1..5,
        ),
        offset in any::<u32>(),
        bit in 0u8..8,
    ) {
        let mut binary = build(3, 9, &sites).encode_binary();
        let at = offset as usize % binary.len();
        binary[at] ^= 1 << bit;
        // Either the flip landed somewhere immaterial and the snapshot
        // still decodes, or it is rejected with a typed error.
        let _ = DnsSnapshot::decode_binary(&binary);
    }
}

/// One site, no A records, one CNAME, no NS — the smallest frame whose
/// name-table index section has a known offset.
fn one_cname_snapshot() -> DnsSnapshot {
    build(
        1,
        1,
        &[(vec![], vec!["edge.example.com".to_owned()], vec![])],
    )
}

#[test]
fn bad_magic_and_version_are_named() {
    let good = one_cname_snapshot().encode_binary();

    let mut bad = good.clone();
    bad[0] = b'X';
    assert!(matches!(
        DnsSnapshot::decode_binary(&bad),
        Err(SpillError::BadMagic)
    ));

    let mut bad = good;
    bad[4] = 0xFF; // version word
    assert!(matches!(
        DnsSnapshot::decode_binary(&bad),
        Err(SpillError::UnsupportedVersion(_))
    ));
}

#[test]
fn out_of_range_name_index_is_named() {
    let snapshot = one_cname_snapshot();
    let mut binary = snapshot.encode_binary();
    // Frame layout after the 36-byte header: u32 frame_len, u32 shard,
    // u32 n_sites, u32 table_count, (u16 len + name bytes), u32 a_count,
    // u32 cname_count, then the first CNAME's table index.
    let name_len = "edge.example.com".len();
    let index_at = 36 + 4 + 4 + 4 + 4 + 2 + name_len + 4 + 4;
    binary[index_at..index_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    match DnsSnapshot::decode_binary(&binary) {
        Err(SpillError::BadNameIndex { index, table }) => {
            assert_eq!(index, u32::MAX);
            assert_eq!(table, 1);
        }
        other => panic!("expected BadNameIndex, got {other:?}"),
    }
}

#[test]
fn duplicated_shard_frame_is_a_typed_error() {
    // Two shards (block size 3, four sites), then the first frame spliced
    // in twice. The duplicate displaces frame order, so decode rejects it
    // as a typed error (shard/index mismatch or duplicate frame).
    let snapshot = build(
        5,
        4,
        &[
            (vec![1], vec![], vec![]),
            (vec![2], vec![], vec![]),
            (vec![3], vec![], vec![]),
            (vec![4], vec![], vec![]),
        ],
    );
    let binary = snapshot.encode_binary();
    let frame_len = u32::from_le_bytes(binary[36..40].try_into().unwrap()) as usize;
    let frame_end = 36 + 4 + frame_len;
    let mut doubled = binary[..frame_end].to_vec();
    doubled.extend_from_slice(&binary[36..frame_end]); // first frame again
    doubled.extend_from_slice(&binary[frame_end..]);
    let err = DnsSnapshot::decode_binary(&doubled)
        .expect_err("a displaced duplicate frame must not decode");
    // The error is typed and displayable, never a panic.
    assert!(!err.to_string().is_empty());
}
