//! Domain names, interned process-wide.
//!
//! Every simulated query the collector and the residual scanners issue
//! flows through [`DomainName`]; zone lookups, cache keys, CNAME chases
//! and snapshot rows all copy names around. Parsing interns the normalized
//! form in a process-wide sharded intern table, which leaks one immutable
//! payload per distinct name and never evicts — the simulation's name
//! universe is bounded by the generated world. A [`DomainName`] is a
//! `&'static` pointer to that payload, so `Clone` and `Drop` are pointer
//! copies with no atomics, equality is pointer identity, and hashing writes
//! a precomputed content hash. Each payload also links its parent name,
//! interned before it, so `suffix`/`apex`/`parent` walk pointers and never
//! touch the table.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::{LazyLock, RwLock};

use crate::error::DnsError;

/// Maximum total length of a domain name in presentation format.
const MAX_NAME_LEN: usize = 253;
/// Maximum length of a single label.
const MAX_LABEL_LEN: usize = 63;

/// The immutable payload of an interned name, leaked once at intern time.
struct NameInner {
    /// Normalized presentation form, e.g. "www.example.com".
    name: Box<str>,
    /// The name with its leftmost label removed (`None` at a TLD).
    parent: Option<DomainName>,
    /// Number of labels.
    labels: u8,
    /// FNV-1a hash of `name`, precomputed so `Hash` is O(1).
    hash: u64,
}

/// FNV-1a over the normalized name bytes. Any stable content hash works;
/// FNV keeps shard selection and `Hash` independent of std's per-process
/// `RandomState`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Checks every `.`-separated label of `s` (see [`DomainName`] for the
/// syntax); `Some(true)` if any letter needs lowering.
fn check_labels(s: &str) -> Option<bool> {
    let mut needs_lowering = false;
    for label in s.split('.') {
        let edge_hyphen = label.starts_with('-') || label.ends_with('-');
        if label.is_empty() || label.len() > MAX_LABEL_LEN || edge_hyphen {
            return None;
        }
        for b in label.bytes() {
            if b.is_ascii_uppercase() {
                needs_lowering = true;
            } else if !(b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_') {
                return None;
            }
        }
    }
    Some(needs_lowering)
}

/// Shard count for the intern table. Power of two; 16 shards keep write
/// contention negligible even with the scan engine's worker threads all
/// parsing at once.
const INTERN_SHARDS: usize = 16;

/// Intern-table shards, keyed by the payload's own (leaked) string so
/// lookups by `&str` never allocate.
struct Interner {
    shards: [RwLock<HashMap<&'static str, DomainName>>; INTERN_SHARDS],
}

static INTERNER: LazyLock<Interner> = LazyLock::new(|| Interner {
    shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
});

impl Interner {
    /// Returns the unique handle for an already validated, normalized
    /// name, creating it (and its parent chain) on first sight.
    /// Read-locks on the hit path; write-locks only on miss.
    fn intern(&self, normalized: &str) -> DomainName {
        let hash = fnv1a(normalized.as_bytes());
        let shard = &self.shards[(hash as usize) & (INTERN_SHARDS - 1)];
        if let Some(name) = shard.read().expect("interner lock").get(normalized) {
            return name.clone();
        }
        // The parent goes first: shard locks are not reentrant and the
        // parent may live in this very shard.
        let parent = normalized
            .split_once('.')
            .map(|(_, rest)| self.intern(rest));
        let mut guard = shard.write().expect("interner lock");
        // Another thread may have won the race since the read; keep its
        // payload so every name has exactly one address.
        if let Some(name) = guard.get(normalized) {
            return name.clone();
        }
        let inner: &'static NameInner = Box::leak(Box::new(NameInner {
            name: normalized.into(),
            labels: parent.as_ref().map_or(1, |p| p.0.labels + 1),
            parent,
            hash,
        }));
        guard.insert(&inner.name, DomainName(inner));
        DomainName(inner)
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("interner lock").len())
            .sum()
    }
}

/// A fully qualified domain name in normalized (lowercase, no trailing dot)
/// presentation form.
///
/// Names are validated on construction: 1–63 character labels of letters,
/// digits, hyphens and underscores (underscores occur in real DNS, e.g.
/// `_dmarc`), no leading/trailing hyphen in a label, total length ≤ 253.
/// Comparison is case-insensitive by construction because parsing lowercases.
///
/// Parsing interns the normalized form process-wide, so a handle is one
/// pointer: `Clone` copies it, equality compares it, and hashing is O(1).
///
/// # Example
///
/// ```
/// use remnant_dns::DomainName;
///
/// let www: DomainName = "WWW.Example.COM".parse()?;
/// assert_eq!(www.to_string(), "www.example.com");
/// assert_eq!(www.apex().to_string(), "example.com");
/// assert!(www.is_subdomain_of(&"example.com".parse()?));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct DomainName(&'static NameInner);

impl DomainName {
    /// Parses and validates a name (see type docs for the accepted syntax).
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::ParseName`] on empty names, empty labels, label
    /// or name length violations, or invalid characters.
    pub fn parse(s: &str) -> Result<Self, DnsError> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() || trimmed.len() > MAX_NAME_LEN {
            return Err(DnsError::ParseName(s.to_owned()));
        }
        let needs_lowering =
            check_labels(trimmed).ok_or_else(|| DnsError::ParseName(s.to_owned()))?;
        // Already-normalized input (the overwhelmingly common case once a
        // world exists) interns without allocating a lowercase copy.
        Ok(if needs_lowering {
            INTERNER.intern(&trimmed.to_ascii_lowercase())
        } else {
            INTERNER.intern(trimmed)
        })
    }

    /// Number of distinct names interned process-wide (diagnostics; the
    /// table never evicts).
    pub fn interned_count() -> usize {
        INTERNER.len()
    }

    /// The normalized presentation form.
    pub fn as_str(&self) -> &str {
        &self.0.name
    }

    /// Number of labels, e.g. 3 for `www.example.com`.
    pub fn label_count(&self) -> usize {
        usize::from(self.0.labels)
    }

    /// Iterates labels left to right.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.0.name.split('.')
    }

    /// The `n` rightmost labels as a name, or `None` if `n` is 0 or exceeds
    /// the label count.
    pub fn suffix(&self, n: usize) -> Option<DomainName> {
        let mut name = self.clone();
        for _ in n..self.label_count() {
            name = name.parent()?;
        }
        (n <= self.label_count()).then_some(name)
    }

    /// The top-level domain (rightmost label).
    pub fn tld(&self) -> &str {
        self.labels().last().expect("names have >= 1 label")
    }

    /// The registrable apex: the two rightmost labels (this simulation uses
    /// single-label TLDs only), or the whole name if it has fewer than two
    /// labels.
    pub fn apex(&self) -> DomainName {
        self.suffix(2.min(self.label_count()))
            .expect("suffix of own label count is always valid")
    }

    /// The name with its leftmost label removed, or `None` at a TLD.
    pub fn parent(&self) -> Option<DomainName> {
        self.0.parent.clone()
    }

    /// True if `self` is equal to or underneath `other`
    /// (`www.example.com` is a subdomain of `example.com` and of itself).
    pub fn is_subdomain_of(&self, other: &DomainName) -> bool {
        self.suffix(other.label_count()).as_ref() == Some(other)
    }

    /// Prefixes a label, e.g. `"example.com".prepend("www")`.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::ParseName`] if the resulting name is invalid.
    pub fn prepend(&self, label: &str) -> Result<DomainName, DnsError> {
        let mut name = String::with_capacity(label.len() + 1 + self.0.name.len());
        name.push_str(label);
        name.push('.');
        name.push_str(&self.0.name);
        // `self` is already valid and normalized; only `label` is checked.
        match check_labels(label) {
            Some(needs_lowering) if name.len() <= MAX_NAME_LEN => {
                if needs_lowering {
                    name[..label.len()].make_ascii_lowercase();
                }
                Ok(INTERNER.intern(&name))
            }
            _ => Err(DnsError::ParseName(name)),
        }
    }

    /// All suffixes from the whole name down to the TLD, longest first.
    ///
    /// ```
    /// use remnant_dns::DomainName;
    /// let n: DomainName = "a.b.example.com".parse()?;
    /// let sufs: Vec<String> = n.suffixes().map(|s| s.to_string()).collect();
    /// assert_eq!(sufs, vec!["a.b.example.com", "b.example.com", "example.com", "com"]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn suffixes(&self) -> impl Iterator<Item = DomainName> + '_ {
        std::iter::successors(Some(self.clone()), DomainName::parent)
    }

    /// True if any label contains `needle` as a substring. This is the
    /// paper's CNAME/NS-matching primitive (Table II "substring").
    ///
    /// ```
    /// use remnant_dns::DomainName;
    /// let ns: DomainName = "kate.ns.cloudflare.com".parse()?;
    /// assert!(ns.contains_label_substring("cloudflare"));
    /// assert!(!ns.contains_label_substring("incapdns"));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn contains_label_substring(&self, needle: &str) -> bool {
        let lowered;
        let needle = if needle.bytes().any(|b| b.is_ascii_uppercase()) {
            lowered = needle.to_ascii_lowercase();
            lowered.as_str()
        } else {
            needle
        };
        self.labels().any(|l| l.contains(needle))
    }
}

impl PartialEq for DomainName {
    fn eq(&self, other: &Self) -> bool {
        // Every handle comes from the intern table, which holds one
        // payload per name.
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for DomainName {}

impl Hash for DomainName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DomainName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self == other {
            return std::cmp::Ordering::Equal;
        }
        self.0.name.cmp(&other.0.name)
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DomainName({})", self.as_str())
    }
}

impl FromStr for DomainName {
    type Err = DnsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

impl AsRef<str> for DomainName {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().expect("test name")
    }

    #[test]
    fn parse_normalizes_case_and_trailing_dot() {
        assert_eq!(name("WWW.EXAMPLE.COM."), name("www.example.com"));
        assert_eq!(name("Example.Com").to_string(), "example.com");
    }

    #[test]
    fn parse_rejects_invalid() {
        for bad in [
            "",
            ".",
            "..",
            "a..b",
            ".example.com",
            "-bad.com",
            "bad-.com",
            "exa mple.com",
            "Ῥόδος.com",
            &("x".repeat(64) + ".com"),
            &"a.".repeat(130),
        ] {
            assert!(bad.parse::<DomainName>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_accepts_underscore_and_digits() {
        assert_eq!(name("_dmarc.example.com").label_count(), 3);
        assert_eq!(name("123.example.com").label_count(), 3);
        assert_eq!(name("a-b-c.example.com").label_count(), 3);
    }

    #[test]
    fn label_accessors() {
        let n = name("a.b.example.com");
        assert_eq!(n.label_count(), 4);
        assert_eq!(
            n.labels().collect::<Vec<_>>(),
            vec!["a", "b", "example", "com"]
        );
        assert_eq!(n.tld(), "com");
        assert_eq!(n.apex(), name("example.com"));
    }

    #[test]
    fn suffix_edges() {
        let n = name("www.example.com");
        assert_eq!(n.suffix(0), None);
        assert_eq!(n.suffix(1), Some(name("com")));
        assert_eq!(n.suffix(3), Some(n.clone()));
        assert_eq!(n.suffix(4), None);
    }

    #[test]
    fn apex_of_short_names() {
        assert_eq!(name("com").apex(), name("com"));
        assert_eq!(name("example.com").apex(), name("example.com"));
    }

    #[test]
    fn parent_walks_up() {
        let n = name("www.example.com");
        assert_eq!(n.parent(), Some(name("example.com")));
        assert_eq!(name("com").parent(), None);
    }

    #[test]
    fn subdomain_relation() {
        let apex = name("example.com");
        assert!(name("www.example.com").is_subdomain_of(&apex));
        assert!(apex.is_subdomain_of(&apex));
        assert!(!name("www.example.org").is_subdomain_of(&apex));
        // Label boundaries must be respected.
        assert!(!name("badexample.com").is_subdomain_of(&apex));
    }

    #[test]
    fn prepend_builds_subdomains() {
        assert_eq!(
            name("example.com").prepend("www").unwrap(),
            name("www.example.com")
        );
        assert_eq!(name("b.com").prepend("A.Dev").unwrap(), name("a.dev.b.com"));
        assert!(name("example.com").prepend("").is_err());
        assert!(name("example.com").prepend("a.").is_err());
        assert!(name("example.com").prepend("bad label").is_err());
    }

    #[test]
    fn substring_matching_is_per_label_and_case_insensitive() {
        let n = name("foo.edgekey.net");
        assert!(n.contains_label_substring("edgekey"));
        assert!(n.contains_label_substring("EDGEKEY"));
        assert!(n.contains_label_substring("dge"));
        assert!(!n.contains_label_substring("edgekeynet")); // spans a dot
    }

    #[test]
    fn ordering_is_stable() {
        let mut v = [name("b.com"), name("a.com"), name("a.b.com")];
        v.sort();
        assert_eq!(v[0], name("a.b.com"));
    }

    #[test]
    fn interning_unifies_handles() {
        let a = name("intern-unify.example.com");
        let b = name("Intern-Unify.EXAMPLE.com.");
        assert!(std::ptr::eq(a.0, b.0), "same name interns to one payload");
        let c = a.clone();
        assert!(std::ptr::eq(a.0, c.0), "clone copies the pointer");
    }

    #[test]
    fn suffix_handles_are_interned_too() {
        let full = name("www.intern-suffix.example.com");
        let labels: Vec<&str> = full.labels().collect();
        let same = |handle: DomainName, from: usize| {
            let parsed = name(&labels[from..].join("."));
            assert!(std::ptr::eq(handle.0, parsed.0), "{handle} vs {parsed}");
        };
        for n in 1..=labels.len() {
            let depth = labels.len() - n;
            let suffix = full.suffix(n).unwrap();
            same(suffix.clone(), depth);
            same(suffix.apex(), labels.len() - n.min(2));
            match suffix.parent() {
                Some(parent) => same(parent, depth + 1),
                None => assert_eq!(n, 1, "only the TLD has no parent"),
            }
        }
    }

    #[test]
    fn racing_parses_share_one_parent_chain() {
        const THREADS: usize = 8;
        let barrier = std::sync::Barrier::new(THREADS);
        let handles: Vec<DomainName> = std::thread::scope(|scope| {
            let parsers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        name("w.intern-race.probe.racetld")
                    })
                })
                .collect();
            parsers.into_iter().map(|p| p.join().unwrap()).collect()
        });
        for handle in &handles {
            assert_eq!(handle.suffixes().count(), 4);
            for (ours, first) in handle.suffixes().zip(handles[0].suffixes()) {
                assert!(std::ptr::eq(ours.0, first.0), "{ours} has one payload");
            }
        }
    }

    #[test]
    fn hash_is_content_based() {
        use std::collections::hash_map::DefaultHasher;
        let h = |n: &DomainName| {
            let mut hasher = DefaultHasher::new();
            n.hash(&mut hasher);
            hasher.finish()
        };
        let a = name("hash.example.com");
        let b = name("HASH.example.com");
        assert_eq!(h(&a), h(&b));
        assert_ne!(h(&a), h(&name("other.example.com")));
    }

    #[test]
    fn interned_count_grows_monotonically() {
        let before = DomainName::interned_count();
        let _ = name("interned-count-probe.example.com");
        assert!(DomainName::interned_count() > 0);
        assert!(DomainName::interned_count() >= before);
    }
}
