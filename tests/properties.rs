//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use remnant::core::adoption::{Adoption, DpsStatus};
use remnant::core::fsm::{self, DpsState};
use remnant::core::matchers::ProviderMatcher;
use remnant::core::snapshot::{DnsSnapshot, SiteRecords};
use remnant::dns::{DomainName, RecordData, ResolverCache, ResourceRecord, Ttl};
use remnant::net::{Asn, IpRangeDb, Ipv4Cidr};
use remnant::provider::ProviderId;
use remnant::sim::stats::Ecdf;
use remnant::sim::{SeedSeq, SimTime};
use remnant::world::BehaviorKind;
use std::net::Ipv4Addr;

/// Strategy for syntactically valid domain-name labels.
fn label() -> impl Strategy<Value = String> {
    "[a-z0-9]([a-z0-9-]{0,10}[a-z0-9])?"
}

/// Strategy for 2–4 label domain names.
fn domain_name() -> impl Strategy<Value = String> {
    prop::collection::vec(label(), 2..=4).prop_map(|labels| labels.join("."))
}

proptest! {
    #[test]
    fn domain_names_round_trip(raw in domain_name()) {
        let parsed: DomainName = raw.parse().expect("strategy yields valid names");
        prop_assert_eq!(parsed.to_string(), raw.to_lowercase());
        // Reparsing the display form is the identity.
        let reparsed: DomainName = parsed.to_string().parse().unwrap();
        prop_assert_eq!(&parsed, &reparsed);
        // Every name is a subdomain of itself and of its apex.
        prop_assert!(parsed.is_subdomain_of(&parsed));
        prop_assert!(parsed.is_subdomain_of(&parsed.apex()));
    }

    #[test]
    fn domain_suffix_count_is_label_count(raw in domain_name()) {
        let parsed: DomainName = raw.parse().unwrap();
        prop_assert_eq!(parsed.suffixes().count(), parsed.label_count());
        // Suffixes are strictly shrinking and each is a suffix of the name.
        let mut last = parsed.label_count() + 1;
        for suffix in parsed.suffixes() {
            prop_assert!(suffix.label_count() < last);
            last = suffix.label_count();
            prop_assert!(parsed.is_subdomain_of(&suffix));
        }
    }

    #[test]
    fn cidr_contains_its_bounds(ip: u32, len in 0u8..=32) {
        let block = Ipv4Cidr::new(Ipv4Addr::from(ip), len).unwrap();
        prop_assert!(block.contains(block.network()));
        prop_assert!(block.contains(block.last()));
        prop_assert!(block.contains_block(&block));
        // Display round-trips.
        let reparsed: Ipv4Cidr = block.to_string().parse().unwrap();
        prop_assert_eq!(block, reparsed);
    }

    #[test]
    fn cidr_split_partitions_exactly(ip: u32, len in 0u8..=31) {
        let block = Ipv4Cidr::new(Ipv4Addr::from(ip), len).unwrap();
        let (lo, hi) = block.split().unwrap();
        prop_assert_eq!(lo.size() + hi.size(), block.size());
        prop_assert!(block.contains_block(&lo) && block.contains_block(&hi));
        // The halves are disjoint: hi's network is not in lo.
        prop_assert!(!lo.contains(hi.network()));
        // Membership in the parent equals membership in exactly one half.
        let probe = Ipv4Addr::from(ip ^ 0x5a5a_5a5a);
        if block.contains(probe) {
            prop_assert!(lo.contains(probe) ^ hi.contains(probe));
        }
    }

    #[test]
    fn range_db_longest_prefix_beats_shorter(ip: u32, long in 9u8..=32) {
        let short = long - 8;
        let addr = Ipv4Addr::from(ip);
        let mut db = IpRangeDb::new();
        db.insert(Ipv4Cidr::new(addr, short).unwrap(), Asn::new(1));
        db.insert(Ipv4Cidr::new(addr, long).unwrap(), Asn::new(2));
        prop_assert_eq!(db.lookup(addr), Some(&Asn::new(2)));
    }

    #[test]
    fn cache_never_serves_expired_records(ttl in 1u32..100_000, elapsed in 0u64..200_000) {
        let name: DomainName = "www.example.com".parse().unwrap();
        let mut cache = ResolverCache::new();
        cache.insert(
            SimTime::EPOCH,
            vec![ResourceRecord::new(
                name.clone(),
                Ttl::secs(ttl),
                RecordData::A(Ipv4Addr::new(1, 2, 3, 4)),
            )],
        );
        let hit = cache
            .get(SimTime::from_secs(elapsed), &name, remnant::dns::RecordType::A)
            .is_some();
        prop_assert_eq!(hit, elapsed < u64::from(ttl));
    }

    #[test]
    fn seed_derivation_is_stable_and_label_sensitive(root: u64, a in "[a-z]{1,12}", b in "[a-z]{1,12}") {
        let seq = SeedSeq::new(root);
        prop_assert_eq!(seq.derive(&a), SeedSeq::new(root).derive(&a));
        if a != b {
            prop_assert_ne!(seq.derive(&a), seq.derive(&b));
        }
    }

    #[test]
    fn ecdf_is_monotone_and_bounded(samples in prop::collection::vec(0.0f64..1000.0, 1..60)) {
        let cdf: Ecdf = samples.into_iter().collect();
        let mut prev = 0.0;
        for x in 0..100 {
            let f = cdf.fraction_le(f64::from(x) * 10.0);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev);
            prev = f;
        }
        prop_assert!((cdf.fraction_le(f64::MAX) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fsm_legal_paths_compose(kinds in prop::collection::vec(0usize..5, 0..40)) {
        // Drive the FSM with arbitrary behavior sequences, applying only
        // those legal in the current state: the walk must never panic and
        // the state must stay self-consistent.
        let mut state = DpsState::None;
        for k in kinds {
            let kind = BehaviorKind::ALL[k];
            let to = match kind {
                BehaviorKind::Join => Some(ProviderId::Cloudflare),
                BehaviorKind::Switch => match state.provider() {
                    Some(ProviderId::Cloudflare) => Some(ProviderId::Incapsula),
                    _ => Some(ProviderId::Cloudflare),
                },
                _ => None,
            };
            if let Ok(next) = fsm::apply(state, kind, to) {
                match kind {
                    BehaviorKind::Leave => prop_assert_eq!(next, DpsState::None),
                    BehaviorKind::Join | BehaviorKind::Switch | BehaviorKind::Resume => {
                        prop_assert!(matches!(next, DpsState::On(_)));
                    }
                    BehaviorKind::Pause => prop_assert!(matches!(next, DpsState::Off(_))),
                }
                state = next;
            }
        }
    }

    #[test]
    fn classification_is_total_and_consistent(
        a_bytes in prop::collection::vec(any::<u32>(), 0..3),
        use_cf_ns: bool,
        use_incap_cname: bool,
    ) {
        // Any record combination classifies without panicking, and the
        // invariants of Table III hold.
        let matcher = ProviderMatcher::new();
        let records = SiteRecords {
            a: a_bytes.into_iter().map(Ipv4Addr::from).collect(),
            cnames: if use_incap_cname {
                vec!["x1.incapdns.net".parse().unwrap()]
            } else {
                vec![]
            },
            ns: if use_cf_ns {
                vec!["kate.ns.cloudflare.com".parse().unwrap()]
            } else {
                vec!["ns1.webhost1.net".parse().unwrap()]
            },
        };
        let adoption = Adoption::classify(&matcher, &records);
        match adoption.status {
            DpsStatus::None => prop_assert!(adoption.provider.is_none()),
            DpsStatus::On => {
                prop_assert!(adoption.provider.is_some());
                // ON requires an A-matched address.
                prop_assert!(records.a.iter().any(|ip| matcher.a_match(*ip).is_some()));
            }
            DpsStatus::Off => {
                prop_assert!(adoption.provider.is_some());
                // OFF requires the A records to be outside the provider.
                let p = adoption.provider.unwrap();
                prop_assert!(records.a.iter().all(|ip| matcher.a_match(*ip) != Some(p)));
            }
        }
    }

    #[test]
    fn snapshot_encoding_round_trips(
        taken_at in 0u64..10_000_000,
        day in 0u32..365,
        sites in prop::collection::vec(
            (
                prop::collection::vec(any::<u32>(), 0..4),
                prop::collection::vec(domain_name(), 0..3),
                prop::collection::vec(domain_name(), 0..3),
            ),
            0..12,
        ),
    ) {
        // The canonical text encoding is a function of the snapshot's
        // content and layout: equal builds encode byte-identically (the
        // stability the full-vs-delta differential test leans on), the
        // encoding survives a round trip through the persisted binary
        // codec, and it distinguishes the header fields.
        let mut builder = DnsSnapshot::builder(SimTime::from_secs(taken_at), day, 4);
        let mut same = DnsSnapshot::builder(SimTime::from_secs(taken_at), day, 4);
        let mut other = DnsSnapshot::builder(SimTime::from_secs(taken_at), day + 1, 4);
        for (a, cnames, ns) in sites {
            let records = SiteRecords {
                a: a.into_iter().map(Ipv4Addr::from).collect(),
                cnames: cnames.iter().map(|n| n.parse().unwrap()).collect(),
                ns: ns.iter().map(|n| n.parse().unwrap()).collect(),
            };
            builder.push(records.clone());
            same.push(records.clone());
            other.push(records);
        }
        let snapshot = builder.finish();
        let text = snapshot.encode();
        prop_assert_eq!(same.finish().encode(), text.clone());
        let decoded = DnsSnapshot::decode_binary(&snapshot.encode_binary())
            .expect("own binary parses");
        prop_assert_eq!(decoded.encode(), text.clone());
        prop_assert_ne!(other.finish().encode(), text);
    }

    #[test]
    fn hidden_set_algebra(stored in prop::collection::vec(any::<u32>(), 0..6),
                          public in prop::collection::vec(any::<u32>(), 0..6)) {
        // A_diff = A_IP - A_nor, the A-matching filter's core set algebra.
        let stored: Vec<Ipv4Addr> = stored.into_iter().map(Ipv4Addr::from).collect();
        let public: Vec<Ipv4Addr> = public.into_iter().map(Ipv4Addr::from).collect();
        let diff: Vec<Ipv4Addr> = stored
            .iter()
            .copied()
            .filter(|a| !public.contains(a))
            .collect();
        for a in &diff {
            prop_assert!(stored.contains(a));
            prop_assert!(!public.contains(a));
        }
        // Everything excluded really is public.
        for a in &stored {
            if !diff.contains(a) {
                prop_assert!(public.contains(a));
            }
        }
    }
}
