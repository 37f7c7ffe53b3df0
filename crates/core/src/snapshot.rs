//! Daily DNS snapshots: what the record collector stores per site.
//!
//! # Storage model (paper-scale campaigns)
//!
//! A snapshot no longer owns one heap allocation per site. Sites are packed
//! into [`RecordBlock`]s — columnar arenas holding one contiguous run of
//! sites (one engine shard) as three shared columns (`a`, `cnames`, `ns`)
//! plus cumulative per-site end offsets. A `SiteRecords` worth of data is
//! therefore three slices into its block's arenas ([`SiteView`]), and the
//! per-site cost drops from three `Vec` headers plus an `Arc` box to three
//! `u32` offsets.
//!
//! Each block is either resident in memory or *spilled*: a
//! [`crate::spill::SpillRef`] pointing at a length-prefixed frame
//! in an on-disk snapshot file (see [`crate::spill`]). Spilled blocks are
//! loaded transiently on access and dropped afterwards, which is what lets
//! a million-site, multi-week campaign run memory-bounded: the working set
//! is one block, not one round.

use std::net::Ipv4Addr;
use std::sync::Arc;

use remnant_dns::DomainName;
use remnant_sim::SimTime;

use crate::spill::SpillRef;

/// Default sites per block when no engine shard plan dictates the layout
/// (matches the engine's default shard size, so sequentially collected
/// snapshots and engine-collected ones agree by default).
pub const DEFAULT_BLOCK_SIZE: usize = 512;

/// The records collected for one site on one day: the full A/CNAME chain
/// of its `www` host plus the apex NS set (Sec IV-B.1).
///
/// This is the *owned* per-site currency — what the resolver task produces
/// and what tests construct. Inside a snapshot the same data lives
/// columnar in a [`RecordBlock`]; borrow it back as a [`SiteView`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteRecords {
    /// Terminal A addresses of the www host (empty if resolution failed).
    pub a: Vec<Ipv4Addr>,
    /// CNAME chain targets observed while resolving the www host.
    pub cnames: Vec<DomainName>,
    /// NS hostnames of the apex.
    pub ns: Vec<DomainName>,
}

impl SiteRecords {
    /// True if nothing resolved for the site.
    pub fn is_empty(&self) -> bool {
        self.a.is_empty() && self.cnames.is_empty() && self.ns.is_empty()
    }

    /// The records as borrowed slices (the form the matchers consume).
    pub fn view(&self) -> SiteView<'_> {
        SiteView {
            a: &self.a,
            cnames: &self.cnames,
            ns: &self.ns,
        }
    }
}

/// One site's records borrowed out of a [`RecordBlock`]'s columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteView<'a> {
    /// Terminal A addresses of the www host.
    pub a: &'a [Ipv4Addr],
    /// CNAME chain targets of the www host.
    pub cnames: &'a [DomainName],
    /// NS hostnames of the apex.
    pub ns: &'a [DomainName],
}

impl SiteView<'_> {
    /// True if nothing resolved for the site.
    pub fn is_empty(&self) -> bool {
        self.a.is_empty() && self.cnames.is_empty() && self.ns.is_empty()
    }

    /// An owned copy (name clones copy interned pointers).
    pub fn to_records(&self) -> SiteRecords {
        SiteRecords {
            a: self.a.to_vec(),
            cnames: self.cnames.to_vec(),
            ns: self.ns.to_vec(),
        }
    }
}

/// A columnar arena holding one contiguous run of sites' records.
///
/// Three shared columns plus a cumulative-offset table: site `i`'s A
/// records are `a[ends[i-1].0 .. ends[i].0]`, and likewise for CNAMEs and
/// NS hosts. Blocks are immutable once built and shared via `Arc`, which
/// is the delta collector's structural-sharing unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordBlock {
    /// Per-site cumulative column ends: `(a_end, cname_end, ns_end)`.
    ends: Vec<[u32; 3]>,
    a: Vec<Ipv4Addr>,
    cnames: Vec<DomainName>,
    ns: Vec<DomainName>,
}

impl RecordBlock {
    /// Packs owned per-site records into one columnar block.
    pub fn from_sites<I: IntoIterator<Item = SiteRecords>>(sites: I) -> Self {
        let mut block = RecordBlock {
            ends: Vec::new(),
            a: Vec::new(),
            cnames: Vec::new(),
            ns: Vec::new(),
        };
        for site in sites {
            block.a.extend_from_slice(&site.a);
            block.cnames.extend(site.cnames);
            block.ns.extend(site.ns);
            block.push_ends();
        }
        block
    }

    /// Builds a block from pre-assembled columns; `ends` must be
    /// monotonically non-decreasing with each final end matching its
    /// column's length (the spill decoder validates before calling).
    pub(crate) fn from_columns(
        ends: Vec<[u32; 3]>,
        a: Vec<Ipv4Addr>,
        cnames: Vec<DomainName>,
        ns: Vec<DomainName>,
    ) -> Self {
        RecordBlock {
            ends,
            a,
            cnames,
            ns,
        }
    }

    fn push_ends(&mut self) {
        self.ends.push([
            self.a.len() as u32,
            self.cnames.len() as u32,
            self.ns.len() as u32,
        ]);
    }

    /// Number of sites in the block.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if the block holds no sites.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The raw column ends (for the binary codec).
    pub(crate) fn ends(&self) -> &[[u32; 3]] {
        &self.ends
    }

    /// The raw columns (for the binary codec).
    pub(crate) fn columns(&self) -> (&[Ipv4Addr], &[DomainName], &[DomainName]) {
        (&self.a, &self.cnames, &self.ns)
    }

    /// The records of the `i`-th site in the block.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn site(&self, i: usize) -> SiteView<'_> {
        let start = if i == 0 { [0, 0, 0] } else { self.ends[i - 1] };
        let end = self.ends[i];
        SiteView {
            a: &self.a[start[0] as usize..end[0] as usize],
            cnames: &self.cnames[start[1] as usize..end[1] as usize],
            ns: &self.ns[start[2] as usize..end[2] as usize],
        }
    }

    /// Iterates the block's sites in order.
    pub fn sites(&self) -> impl Iterator<Item = SiteView<'_>> {
        (0..self.len()).map(|i| self.site(i))
    }
}

/// One block position in a snapshot: resident, or a frame on disk.
#[derive(Clone, Debug)]
pub(crate) enum BlockSlot {
    /// The block is in memory (shared).
    Resident(Arc<RecordBlock>),
    /// The block lives in a spill file; loaded transiently on access.
    Spilled(SpillRef),
}

impl BlockSlot {
    /// Number of sites the slot covers (no I/O).
    pub(crate) fn sites(&self) -> usize {
        match self {
            BlockSlot::Resident(block) => block.len(),
            BlockSlot::Spilled(r) => r.sites(),
        }
    }

    /// Loads the block, reading the spill frame if needed.
    ///
    /// # Panics
    ///
    /// Panics if a spilled frame can no longer be read (the spill file was
    /// deleted or corrupted mid-campaign) — snapshot consumers have no
    /// error channel, and a vanished spill file is not a recoverable state.
    pub(crate) fn load(&self) -> Arc<RecordBlock> {
        match self {
            BlockSlot::Resident(block) => Arc::clone(block),
            BlockSlot::Spilled(r) => Arc::new(
                r.load()
                    .unwrap_or_else(|e| panic!("spilled snapshot block unreadable: {e}")),
            ),
        }
    }
}

/// One loaded block plus the global rank of its first site.
#[derive(Clone, Debug)]
pub struct LoadedBlock {
    /// Global rank of the block's first site.
    pub base_rank: usize,
    /// The block (resident, or transiently loaded from its spill frame).
    pub block: Arc<RecordBlock>,
}

/// Process-local identity of a block's backing storage.
///
/// Two equal keys alias the same bytes: a resident block is keyed by the
/// address of its shared `Arc<RecordBlock>`, a spilled block by its
/// [`SpillRef::frame_key`]. Delta rounds chain clean shards by cloning
/// the previous round's `Arc`/ref, so an unchanged shard carries the
/// same key from round to round — which is what makes classification
/// results memoizable per block. The key is conservative: a reloaded or
/// rebuilt block gets a fresh allocation and therefore a fresh key,
/// never a false match.
///
/// An address is only unique while its allocation lives; hold the
/// originating [`BlockSource`] alongside any cache entry keyed on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockKey {
    ptr: usize,
    offset: u64,
}

/// One block's backing, with its process-local identity exposed: the
/// owning handle for cache keying (see [`BlockKey`]). Cloning is an
/// `Arc` clone — no record data is copied or read.
#[derive(Clone, Debug)]
pub enum BlockSource {
    /// The block is resident in memory (shared).
    Resident(Arc<RecordBlock>),
    /// The block lives in a spill file frame.
    Spilled(SpillRef),
}

impl BlockSource {
    /// The block's cache key. Stable for as long as this source (or any
    /// clone of its backing) is alive.
    pub fn key(&self) -> BlockKey {
        match self {
            BlockSource::Resident(block) => BlockKey {
                ptr: Arc::as_ptr(block) as usize,
                // Resident blocks have no frame offset; u64::MAX keeps
                // them disjoint from any real spill offset under an
                // (admittedly impossible) address collision.
                offset: u64::MAX,
            },
            BlockSource::Spilled(r) => {
                let (ptr, offset) = r.frame_key();
                BlockKey { ptr, offset }
            }
        }
    }

    /// Number of sites the block covers (no I/O).
    pub fn sites(&self) -> usize {
        match self {
            BlockSource::Resident(block) => block.len(),
            BlockSource::Spilled(r) => r.sites(),
        }
    }

    /// Loads the block, reading the spill frame if needed.
    ///
    /// # Panics
    ///
    /// Panics if a spilled frame can no longer be read — same contract as
    /// [`DnsSnapshot::blocks`].
    pub fn load(&self) -> Arc<RecordBlock> {
        match self {
            BlockSource::Resident(block) => Arc::clone(block),
            BlockSource::Spilled(r) => Arc::new(
                r.load()
                    .unwrap_or_else(|e| panic!("spilled snapshot block unreadable: {e}")),
            ),
        }
    }
}

/// One collection round over the whole target list.
///
/// Records are indexed by site rank, parallel to the target list that
/// produced the snapshot, and stored in per-shard [`RecordBlock`]s (see
/// the module docs). Construct one with [`SnapshotBuilder`].
///
/// Equality is *logical* — per-site record equality in rank order —
/// independent of block layout or spill state, so an in-memory snapshot
/// equals its spilled twin.
#[derive(Clone, Debug)]
pub struct DnsSnapshot {
    /// When the collection ran.
    pub taken_at: SimTime,
    /// Day index within the study (0-based).
    pub day: u32,
    len: usize,
    block_size: usize,
    blocks: Vec<BlockSlot>,
}

impl DnsSnapshot {
    /// Starts building a snapshot whose resident blocks pack `block_size`
    /// sites each (use the engine's shard size so blocks align with
    /// shards).
    pub fn builder(taken_at: SimTime, day: u32, block_size: usize) -> SnapshotBuilder {
        SnapshotBuilder {
            taken_at,
            day,
            block_size: block_size.max(1),
            len: 0,
            blocks: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Number of sites covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the snapshot covers no sites.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The block size the snapshot was built with.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Iterates the snapshot's blocks in rank order, loading spilled
    /// frames transiently. This is the bulk-consumption path: iterate
    /// blocks, then [`RecordBlock::sites`] within each.
    pub fn blocks(&self) -> impl Iterator<Item = LoadedBlock> + '_ {
        let mut base = 0usize;
        self.blocks.iter().map(move |slot| {
            let loaded = LoadedBlock {
                base_rank: base,
                block: slot.load(),
            };
            base += loaded.block.len();
            loaded
        })
    }

    /// The snapshot's block slots, in rank order (the delta collector's
    /// replay source).
    pub(crate) fn slots(&self) -> &[BlockSlot] {
        &self.blocks
    }

    /// The snapshot's blocks as identity-bearing sources, in rank order,
    /// with the global rank of each block's first site. Unlike
    /// [`blocks`](DnsSnapshot::blocks) this performs no I/O: it hands out
    /// the backing handles themselves, so callers can consult a cache by
    /// [`BlockSource::key`] before deciding to [`BlockSource::load`].
    pub fn block_sources(&self) -> impl Iterator<Item = (usize, BlockSource)> + '_ {
        let mut base = 0usize;
        self.blocks.iter().map(move |slot| {
            let source = match slot {
                BlockSlot::Resident(block) => BlockSource::Resident(Arc::clone(block)),
                BlockSlot::Spilled(r) => BlockSource::Spilled(r.clone()),
            };
            let entry = (base, source);
            base += slot.sites();
            entry
        })
    }

    /// The records for site `rank`, if collected. Loads the containing
    /// block if it is spilled; for bulk access prefer
    /// [`DnsSnapshot::blocks`].
    pub fn site(&self, rank: usize) -> Option<SiteRecords> {
        if rank >= self.len {
            return None;
        }
        let mut base = 0usize;
        for slot in &self.blocks {
            let n = slot.sites();
            if rank < base + n {
                return Some(slot.load().site(rank - base).to_records());
            }
            base += n;
        }
        None
    }

    /// Number of sites with at least one record.
    pub fn resolved_count(&self) -> usize {
        self.blocks()
            .map(|b| b.block.sites().filter(|s| !s.is_empty()).count())
            .sum()
    }

    /// All sites as owned records, in rank order (test/diagnostic helper —
    /// materializes everything).
    pub fn to_site_records(&self) -> Vec<SiteRecords> {
        let mut out = Vec::with_capacity(self.len);
        for loaded in self.blocks() {
            out.extend(loaded.block.sites().map(|s| s.to_records()));
        }
        out
    }

    /// Serializes the snapshot to its canonical text form (format v2).
    ///
    /// The encoding is line-based and versioned; equal snapshots *with the
    /// same block layout* produce byte-identical text, which is what the
    /// full-vs-delta and in-memory-vs-spill equivalence tests compare.
    /// It is a diffable rendering only; snapshots are persisted and read
    /// back through the binary codec ([`DnsSnapshot::encode_binary`]).
    ///
    /// ```text
    /// remnant-snapshot v2
    /// taken_at=<secs>
    /// day=<n>
    /// sites=<n>
    /// shard_size=<n>
    /// shard <idx> len=<n>
    /// <rank> a=<ips> cname=<names> ns=<names>
    /// ...
    /// ```
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str("remnant-snapshot v2\n");
        out.push_str(&format!("taken_at={}\n", self.taken_at.as_secs()));
        out.push_str(&format!("day={}\n", self.day));
        out.push_str(&format!("sites={}\n", self.len));
        out.push_str(&format!("shard_size={}\n", self.block_size));
        let mut rank = 0usize;
        for (idx, loaded) in self.blocks().enumerate() {
            out.push_str(&format!("shard {idx} len={}\n", loaded.block.len()));
            for site in loaded.block.sites() {
                encode_site_line(&mut out, rank, site);
                rank += 1;
            }
        }
        out
    }
}

impl PartialEq for DnsSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.taken_at == other.taken_at
            && self.day == other.day
            && self.len == other.len
            && self.to_site_records() == other.to_site_records()
    }
}

impl Eq for DnsSnapshot {}

fn encode_site_line(out: &mut String, rank: usize, site: SiteView<'_>) {
    let a = site
        .a
        .iter()
        .map(Ipv4Addr::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let cnames = site
        .cnames
        .iter()
        .map(DomainName::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let ns = site
        .ns
        .iter()
        .map(DomainName::to_string)
        .collect::<Vec<_>>()
        .join(",");
    out.push_str(&format!("{rank} a={a} cname={cnames} ns={ns}\n"));
}

/// Incrementally assembles a [`DnsSnapshot`].
///
/// Push owned records site by site ([`SnapshotBuilder::push`], packed into
/// `block_size` blocks), whole shared blocks
/// ([`SnapshotBuilder::push_block`]), or on-disk frames
/// ([`SnapshotBuilder::push_spilled`]). Mixing is allowed as long as each
/// block push happens on a block boundary.
#[derive(Debug)]
pub struct SnapshotBuilder {
    taken_at: SimTime,
    day: u32,
    block_size: usize,
    len: usize,
    blocks: Vec<BlockSlot>,
    pending: Vec<SiteRecords>,
}

impl SnapshotBuilder {
    /// Appends one site's records (packed into the current block).
    pub fn push(&mut self, records: SiteRecords) {
        self.pending.push(records);
        self.len += 1;
        if self.pending.len() == self.block_size {
            self.flush();
        }
    }

    /// Appends a whole block (structural sharing: no copy).
    ///
    /// # Panics
    ///
    /// Panics if called mid-block (sites pushed but not yet flushed).
    pub fn push_block(&mut self, block: Arc<RecordBlock>) {
        assert!(
            self.pending.is_empty(),
            "push_block on a partially filled block"
        );
        self.len += block.len();
        self.blocks.push(BlockSlot::Resident(block));
    }

    /// Appends a spilled block by reference (no load).
    ///
    /// This is how a snapshot is rebuilt from persisted spill files: one
    /// [`SpillRef`] per shard, in shard order, reproduces the collector's
    /// block layout exactly (and therefore the byte-identical encodings).
    ///
    /// # Panics
    ///
    /// Panics if called mid-block, like [`SnapshotBuilder::push_block`].
    pub fn push_spilled(&mut self, spill: SpillRef) {
        assert!(
            self.pending.is_empty(),
            "push_spilled on a partially filled block"
        );
        self.len += spill.sites();
        self.blocks.push(BlockSlot::Spilled(spill));
    }

    /// Appends an existing slot as-is (the delta collector's splice path).
    ///
    /// # Panics
    ///
    /// Panics if called mid-block, like [`SnapshotBuilder::push_block`].
    pub(crate) fn push_slot(&mut self, slot: BlockSlot) {
        assert!(
            self.pending.is_empty(),
            "push_slot on a partially filled block"
        );
        self.len += slot.sites();
        self.blocks.push(slot);
    }

    fn flush(&mut self) {
        if !self.pending.is_empty() {
            let rows = std::mem::take(&mut self.pending);
            self.blocks
                .push(BlockSlot::Resident(Arc::new(RecordBlock::from_sites(rows))));
        }
    }

    /// Finishes the snapshot (flushing any partial final block).
    pub fn finish(mut self) -> DnsSnapshot {
        self.flush();
        DnsSnapshot {
            taken_at: self.taken_at,
            day: self.day,
            len: self.len,
            block_size: self.block_size,
            blocks: self.blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_from(records: Vec<SiteRecords>, block_size: usize) -> DnsSnapshot {
        let mut b = DnsSnapshot::builder(SimTime::EPOCH, 0, block_size);
        for r in records {
            b.push(r);
        }
        b.finish()
    }

    #[test]
    fn empty_detection() {
        let mut r = SiteRecords::default();
        assert!(r.is_empty());
        assert!(r.view().is_empty());
        r.ns.push("ns1.webhost1.net".parse().unwrap());
        assert!(!r.is_empty());
        assert!(!r.view().is_empty());
    }

    #[test]
    fn block_views_match_sources() {
        let sites = vec![
            SiteRecords::default(),
            SiteRecords {
                a: vec![Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8)],
                cnames: vec!["cdn.example.net".parse().unwrap()],
                ns: vec!["ns1.example.net".parse().unwrap()],
            },
            SiteRecords {
                ns: vec!["ns2.example.net".parse().unwrap()],
                ..SiteRecords::default()
            },
        ];
        let block = RecordBlock::from_sites(sites.clone());
        assert_eq!(block.len(), 3);
        for (i, site) in sites.iter().enumerate() {
            assert_eq!(block.site(i).to_records(), *site);
        }
        assert_eq!(block.sites().count(), 3);
    }

    #[test]
    fn snapshot_indexing() {
        let snap = snapshot_from(
            vec![
                SiteRecords::default(),
                SiteRecords {
                    a: vec![Ipv4Addr::new(1, 2, 3, 4)],
                    ..SiteRecords::default()
                },
            ],
            DEFAULT_BLOCK_SIZE,
        );
        assert!(snap.site(0).unwrap().is_empty());
        assert!(!snap.site(1).unwrap().is_empty());
        assert!(snap.site(2).is_none());
        assert_eq!(snap.resolved_count(), 1);
        assert_eq!(snap.len(), 2);
    }

    #[test]
    fn equality_ignores_block_layout() {
        let sites: Vec<SiteRecords> = (0..10)
            .map(|i| SiteRecords {
                a: vec![Ipv4Addr::new(10, 0, 0, i)],
                ..SiteRecords::default()
            })
            .collect();
        let wide = snapshot_from(sites.clone(), 512);
        let narrow = snapshot_from(sites, 3);
        assert_eq!(wide, narrow);
        assert_ne!(wide.encode(), narrow.encode(), "layout shows in the text");
        assert!(wide.encode().contains("shard_size=512\nshard 0 len=10\n"));
        assert!(narrow
            .encode()
            .ends_with("shard 3 len=1\n9 a=10.0.0.9 cname= ns=\n"));
    }
}
