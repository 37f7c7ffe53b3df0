//! The versioned binary snapshot codec and the on-disk spill files that
//! let collection rounds run memory-bounded.
//!
//! # Format (`v1`)
//!
//! One spill file holds one collection round, framed per shard so a single
//! block can be reloaded without touching the rest:
//!
//! ```text
//! header   "RSNP" u16=version u16=0  u64=taken_at_secs u32=day
//!          u32=block_size u64=sites u32=shard_count
//! frame*   u32=frame_len  (bytes after this field)
//!          u32=shard  u32=n_sites
//!          u32=name_count  (u16=len bytes)*            interned-name table
//!          u32=a_count     (4 bytes)*                  A column
//!          u32=cname_count (u32=name_id)*              CNAME column
//!          u32=ns_count    (u32=name_id)*              NS column
//!          (u32=a_end u32=cname_end u32=ns_end)*       per-site ends
//! footer   "RSNX" u32=entry_count (u32=shard u64=offset u32=len)*
//!          u64=footer_offset "RSNZ"
//! ```
//!
//! Each frame carries its own name table (names deduplicated within the
//! frame; process-wide deduplication happens anyway when decoded names
//! re-enter the interner), so frames are self-contained: streaming writers
//! append them one at a time, and readers load any frame from its footer
//! index entry alone. Delta rounds write only their dirty shards — clean
//! shards stay as [`SpillRef`]s into *previous* rounds' files, which is
//! the PR 4 structural-sharing idea moved onto disk.
//!
//! All decode paths return typed [`SpillError`]s; malformed input never
//! panics.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use remnant_dns::DomainName;
use remnant_sim::SimTime;

use crate::snapshot::{DnsSnapshot, RecordBlock};

const FILE_MAGIC: &[u8; 4] = b"RSNP";
const FOOTER_MAGIC: &[u8; 4] = b"RSNX";
const TRAILER_MAGIC: &[u8; 4] = b"RSNZ";
const VERSION: u16 = 1;
/// Fixed header length in bytes.
const HEADER_LEN: u64 = 4 + 2 + 2 + 8 + 4 + 4 + 8 + 4;

/// Where spilled rounds go and how much stays resident while collecting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpillConfig {
    /// Directory the per-round spill files are written to.
    pub dir: PathBuf,
    /// Upper bound on shards held in memory at once during a streaming
    /// collect (clamped to at least the engine's worker count).
    pub resident_shards: usize,
}

impl SpillConfig {
    /// Default resident-shard budget: large enough to keep 8 workers busy,
    /// small enough that the working set stays a sliver of the round.
    pub const DEFAULT_RESIDENT_SHARDS: usize = 32;

    /// A config spilling to `dir` with the default resident budget.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpillConfig {
            dir: dir.into(),
            resident_shards: Self::DEFAULT_RESIDENT_SHARDS,
        }
    }
}

/// The fixed metadata at the head of every spill file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpillMeta {
    /// When the round ran.
    pub taken_at: SimTime,
    /// Day index of the round.
    pub day: u32,
    /// Sites the round covers (across *all* shards of the plan, present
    /// in this file or not).
    pub sites: u64,
    /// The shard/block size of the plan.
    pub block_size: u32,
    /// Shards in the plan.
    pub shard_count: u32,
}

/// Why a binary snapshot or spill operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpillError {
    /// An underlying I/O operation failed.
    Io {
        /// What was being done.
        context: &'static str,
        /// The OS error text.
        error: String,
    },
    /// The file/header magic was wrong — not a spill file.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The input ended inside the named section.
    Truncated {
        /// Which section the input ended in.
        section: &'static str,
    },
    /// A name id pointed past the frame's name table.
    BadNameIndex {
        /// The offending id.
        index: u32,
        /// The table's length.
        table: u32,
    },
    /// A name-table entry was not a valid domain name.
    BadName(String),
    /// The same shard appeared twice (in a file's index or an append).
    DuplicateShardFrame {
        /// The repeated shard index.
        shard: u32,
    },
    /// A referenced shard is not present in the file.
    MissingShardFrame {
        /// The absent shard index.
        shard: u32,
    },
    /// A shard index is outside the plan recorded in the header.
    ShardOutOfRange {
        /// The offending shard index.
        shard: u32,
        /// The header's shard count.
        count: u32,
    },
    /// A frame's internal counts are inconsistent (ends not monotone, a
    /// final end disagreeing with its column, or a declared count not
    /// matching the bytes present).
    CorruptFrame {
        /// Which check failed.
        reason: &'static str,
    },
    /// The decoded site total disagrees with the header.
    CountMismatch {
        /// Sites the header declared.
        expected: u64,
        /// Sites the frames actually held.
        found: u64,
    },
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { context, error } => write!(f, "spill I/O error while {context}: {error}"),
            Self::BadMagic => write!(f, "not a remnant snapshot spill file (bad magic)"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported spill format version {v}"),
            Self::Truncated { section } => write!(f, "input truncated in {section}"),
            Self::BadNameIndex { index, table } => {
                write!(f, "name id {index} out of range for table of {table}")
            }
            Self::BadName(name) => write!(f, "invalid domain name in name table: {name:?}"),
            Self::DuplicateShardFrame { shard } => {
                write!(f, "duplicate frame for shard {shard}")
            }
            Self::MissingShardFrame { shard } => write!(f, "no frame for shard {shard}"),
            Self::ShardOutOfRange { shard, count } => {
                write!(f, "shard {shard} out of range for plan of {count}")
            }
            Self::CorruptFrame { reason } => write!(f, "corrupt frame: {reason}"),
            Self::CountMismatch { expected, found } => {
                write!(f, "header says {expected} sites but frames hold {found}")
            }
        }
    }
}

impl std::error::Error for SpillError {}

fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> SpillError {
    move |e| SpillError::Io {
        context,
        error: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Byte-level primitives
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, section: &'static str) -> Result<&'a [u8], SpillError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SpillError::Truncated { section })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u16(&mut self, section: &'static str) -> Result<u16, SpillError> {
        Ok(u16::from_le_bytes(
            self.take(2, section)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self, section: &'static str) -> Result<u32, SpillError> {
        Ok(u32::from_le_bytes(
            self.take(4, section)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, section: &'static str) -> Result<u64, SpillError> {
        Ok(u64::from_le_bytes(
            self.take(8, section)?.try_into().expect("8 bytes"),
        ))
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// Encodes one shard's block as a self-contained frame (including the
/// leading `frame_len` word).
fn encode_frame(shard: u32, block: &RecordBlock) -> Vec<u8> {
    let (a, cnames, ns) = block.columns();

    // Per-frame interned-name table: each distinct name once, in first
    // occurrence order (deterministic — no hashing in the layout).
    fn intern_ids<'b>(
        names: &'b [DomainName],
        table: &mut Vec<&'b DomainName>,
        ids: &mut HashMap<&'b DomainName, u32>,
    ) -> Vec<u32> {
        names
            .iter()
            .map(|n| {
                *ids.entry(n).or_insert_with(|| {
                    table.push(n);
                    (table.len() - 1) as u32
                })
            })
            .collect()
    }
    let mut table: Vec<&DomainName> = Vec::new();
    let mut ids: HashMap<&DomainName, u32> = HashMap::new();
    let cname_ids = intern_ids(cnames, &mut table, &mut ids);
    let ns_ids = intern_ids(ns, &mut table, &mut ids);

    let mut body = Vec::new();
    put_u32(&mut body, shard);
    put_u32(&mut body, block.len() as u32);
    put_u32(&mut body, table.len() as u32);
    for name in &table {
        let s = name.as_str().as_bytes();
        put_u16(&mut body, s.len() as u16);
        body.extend_from_slice(s);
    }
    put_u32(&mut body, a.len() as u32);
    for addr in a {
        body.extend_from_slice(&addr.octets());
    }
    put_u32(&mut body, cname_ids.len() as u32);
    for id in &cname_ids {
        put_u32(&mut body, *id);
    }
    put_u32(&mut body, ns_ids.len() as u32);
    for id in &ns_ids {
        put_u32(&mut body, *id);
    }
    for ends in block.ends() {
        put_u32(&mut body, ends[0]);
        put_u32(&mut body, ends[1]);
        put_u32(&mut body, ends[2]);
    }

    let mut frame = Vec::with_capacity(4 + body.len());
    put_u32(&mut frame, body.len() as u32);
    frame.extend_from_slice(&body);
    frame
}

/// Decodes one frame (including its leading `frame_len` word) back into
/// `(shard, block)`.
fn decode_frame(bytes: &[u8]) -> Result<(u32, RecordBlock), SpillError> {
    let mut r = Reader::new(bytes);
    let frame_len = r.u32("frame length")? as usize;
    let body = r.take(frame_len, "frame body")?;
    let mut r = Reader::new(body);

    let shard = r.u32("frame shard index")?;
    let n_sites = r.u32("frame site count")? as usize;

    let name_count = r.u32("name table count")?;
    let mut table: Vec<DomainName> = Vec::new();
    for _ in 0..name_count {
        let len = r.u16("name table entry length")? as usize;
        let raw = r.take(len, "name table entry")?;
        let s = std::str::from_utf8(raw)
            .map_err(|_| SpillError::BadName(format!("{raw:?} (not UTF-8)")))?;
        let name: DomainName = s.parse().map_err(|_| SpillError::BadName(s.to_string()))?;
        table.push(name);
    }

    let a_count = r.u32("A column count")? as usize;
    let a_bytes = r.take(
        a_count.checked_mul(4).ok_or(SpillError::CorruptFrame {
            reason: "A count overflow",
        })?,
        "A column",
    )?;
    let a: Vec<Ipv4Addr> = a_bytes
        .chunks_exact(4)
        .map(|c| Ipv4Addr::new(c[0], c[1], c[2], c[3]))
        .collect();

    let mut name_column = |label: &'static str| -> Result<Vec<DomainName>, SpillError> {
        let count = r.u32(label)? as usize;
        let ids = r.take(
            count.checked_mul(4).ok_or(SpillError::CorruptFrame {
                reason: "name column count overflow",
            })?,
            label,
        )?;
        ids.chunks_exact(4)
            .map(|c| {
                let id = u32::from_le_bytes(c.try_into().expect("4 bytes"));
                table
                    .get(id as usize)
                    .cloned()
                    .ok_or(SpillError::BadNameIndex {
                        index: id,
                        table: table.len() as u32,
                    })
            })
            .collect()
    };
    let cnames = name_column("CNAME column")?;
    let ns = name_column("NS column")?;

    let mut ends = Vec::with_capacity(n_sites.min(body.len() / 12 + 1));
    let mut prev = [0u32; 3];
    for _ in 0..n_sites {
        let e = [
            r.u32("ends table")?,
            r.u32("ends table")?,
            r.u32("ends table")?,
        ];
        if e[0] < prev[0] || e[1] < prev[1] || e[2] < prev[2] {
            return Err(SpillError::CorruptFrame {
                reason: "ends not monotone",
            });
        }
        prev = e;
        ends.push(e);
    }
    let last = ends.last().copied().unwrap_or([0, 0, 0]);
    if last[0] as usize != a.len()
        || last[1] as usize != cnames.len()
        || last[2] as usize != ns.len()
    {
        return Err(SpillError::CorruptFrame {
            reason: "final ends disagree with columns",
        });
    }
    Ok((shard, RecordBlock::from_columns(ends, a, cnames, ns)))
}

// ---------------------------------------------------------------------------
// Whole-document binary codec
// ---------------------------------------------------------------------------

fn encode_header(out: &mut Vec<u8>, meta: &SpillMeta) {
    out.extend_from_slice(FILE_MAGIC);
    put_u16(out, VERSION);
    put_u16(out, 0);
    put_u64(out, meta.taken_at.as_secs());
    put_u32(out, meta.day);
    put_u32(out, meta.block_size);
    put_u64(out, meta.sites);
    put_u32(out, meta.shard_count);
}

fn decode_header(bytes: &[u8]) -> Result<SpillMeta, SpillError> {
    let mut r = Reader::new(bytes);
    if r.take(4, "file magic")? != FILE_MAGIC {
        return Err(SpillError::BadMagic);
    }
    let version = r.u16("version")?;
    if version != VERSION {
        return Err(SpillError::UnsupportedVersion(version));
    }
    let _reserved = r.u16("header")?;
    let taken_at = SimTime::from_secs(r.u64("header taken_at")?);
    let day = r.u32("header day")?;
    let block_size = r.u32("header block_size")?;
    let sites = r.u64("header sites")?;
    let shard_count = r.u32("header shard_count")?;
    Ok(SpillMeta {
        taken_at,
        day,
        sites,
        block_size,
        shard_count,
    })
}

fn encode_footer(out: &mut Vec<u8>, index: &[(u32, u64, u32)]) {
    let footer_offset = out.len() as u64;
    out.extend_from_slice(FOOTER_MAGIC);
    put_u32(out, index.len() as u32);
    for (shard, offset, len) in index {
        put_u32(out, *shard);
        put_u64(out, *offset);
        put_u32(out, *len);
    }
    put_u64(out, footer_offset);
    out.extend_from_slice(TRAILER_MAGIC);
}

/// Parses the footer of a complete document; returns `shard -> (offset,
/// frame_len)`.
fn decode_footer(bytes: &[u8]) -> Result<BTreeMap<u32, (u64, u32)>, SpillError> {
    if bytes.len() < HEADER_LEN as usize + 12 {
        return Err(SpillError::Truncated { section: "trailer" });
    }
    let trailer = &bytes[bytes.len() - 12..];
    if &trailer[8..] != TRAILER_MAGIC {
        return Err(SpillError::BadMagic);
    }
    let footer_offset = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes")) as usize;
    if footer_offset >= bytes.len() {
        return Err(SpillError::Truncated { section: "footer" });
    }
    let mut r = Reader::new(&bytes[footer_offset..bytes.len() - 12]);
    if r.take(4, "footer magic")? != FOOTER_MAGIC {
        return Err(SpillError::BadMagic);
    }
    let count = r.u32("footer entry count")?;
    let mut index = BTreeMap::new();
    for _ in 0..count {
        let shard = r.u32("footer entry")?;
        let offset = r.u64("footer entry")?;
        let len = r.u32("footer entry")?;
        if index.insert(shard, (offset, len)).is_some() {
            return Err(SpillError::DuplicateShardFrame { shard });
        }
    }
    Ok(index)
}

impl DnsSnapshot {
    /// Serializes the snapshot to the versioned binary format (header,
    /// one frame per block, footer index). Spilled blocks are loaded
    /// transiently; the result is self-contained.
    pub fn encode_binary(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let blocks: Vec<_> = self.blocks().collect();
        encode_header(
            &mut out,
            &SpillMeta {
                taken_at: self.taken_at,
                day: self.day,
                sites: self.len() as u64,
                block_size: self.block_size() as u32,
                shard_count: blocks.len() as u32,
            },
        );
        let mut index = Vec::with_capacity(blocks.len());
        for (shard, loaded) in blocks.iter().enumerate() {
            let frame = encode_frame(shard as u32, &loaded.block);
            index.push((shard as u32, out.len() as u64, frame.len() as u32));
            out.extend_from_slice(&frame);
        }
        encode_footer(&mut out, &index);
        out
    }

    /// Parses a complete binary snapshot document (every shard present).
    ///
    /// # Errors
    ///
    /// Returns a typed [`SpillError`] on truncation at any section
    /// boundary, bad magic or version, bad name-table indices, duplicate
    /// or missing shard frames, or count mismatches. Never panics on
    /// malformed input.
    pub fn decode_binary(bytes: &[u8]) -> Result<Self, SpillError> {
        let meta = decode_header(bytes)?;
        let index = decode_footer(bytes)?;
        let mut builder =
            DnsSnapshot::builder(meta.taken_at, meta.day, meta.block_size.max(1) as usize);
        let mut found = 0u64;
        for shard in 0..meta.shard_count {
            let (offset, len) = *index
                .get(&shard)
                .ok_or(SpillError::MissingShardFrame { shard })?;
            let end = (offset as usize)
                .checked_add(len as usize)
                .filter(|&e| e <= bytes.len())
                .ok_or(SpillError::Truncated { section: "frame" })?;
            let (frame_shard, block) = decode_frame(&bytes[offset as usize..end])?;
            if frame_shard != shard {
                return Err(SpillError::CorruptFrame {
                    reason: "frame shard disagrees with index",
                });
            }
            found += block.len() as u64;
            builder.push_block(Arc::new(block));
        }
        if found != meta.sites {
            return Err(SpillError::CountMismatch {
                expected: meta.sites,
                found,
            });
        }
        if index.keys().any(|&s| s >= meta.shard_count) {
            let shard = *index.keys().find(|&&s| s >= meta.shard_count).expect("any");
            return Err(SpillError::ShardOutOfRange {
                shard,
                count: meta.shard_count,
            });
        }
        Ok(builder.finish())
    }
}

// ---------------------------------------------------------------------------
// Spill files
// ---------------------------------------------------------------------------

/// An open spill file: the read-only side, shared by every [`SpillRef`]
/// into it.
pub struct SpillFile {
    path: PathBuf,
    file: Mutex<File>,
    meta: SpillMeta,
}

impl fmt::Debug for SpillFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpillFile")
            .field("path", &self.path)
            .field("meta", &self.meta)
            .finish()
    }
}

impl SpillFile {
    /// Opens a finished spill file and validates its header and trailer.
    pub fn open(path: impl AsRef<Path>) -> Result<Arc<SpillFile>, SpillError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path).map_err(io_err("opening spill file"))?;
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)
            .map_err(io_err("reading spill header"))?;
        let meta = decode_header(&header)?;
        Ok(Arc::new(SpillFile {
            path,
            file: Mutex::new(file),
            meta,
        }))
    }

    /// The file's fixed metadata.
    pub fn meta(&self) -> SpillMeta {
        self.meta
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The shards present in the file, from its footer index.
    pub fn index(&self) -> Result<BTreeMap<u32, (u64, u32)>, SpillError> {
        let mut file = self.file.lock().expect("spill file lock");
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))
            .and_then(|_| file.read_to_end(&mut bytes))
            .map_err(io_err("reading spill footer"))?;
        decode_footer(&bytes)
    }

    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, SpillError> {
        let mut buf = vec![0u8; len];
        let mut file = self.file.lock().expect("spill file lock");
        file.seek(SeekFrom::Start(offset))
            .and_then(|_| file.read_exact(&mut buf))
            .map_err(io_err("reading spill frame"))?;
        Ok(buf)
    }

    /// One [`SpillRef`] per frame in the file, in ascending shard order.
    ///
    /// Only each frame's preamble (shard index and site count) is read;
    /// the record columns stay on disk until [`SpillRef::load`]. This is
    /// how a reader (e.g. a snapshot store) re-chains a directory of
    /// rounds without pulling whole files into memory.
    pub fn refs(self: &Arc<Self>) -> Result<Vec<SpillRef>, SpillError> {
        let index = self.index()?;
        let mut refs = Vec::with_capacity(index.len());
        for (shard, (offset, len)) in index {
            if shard >= self.meta.shard_count {
                return Err(SpillError::ShardOutOfRange {
                    shard,
                    count: self.meta.shard_count,
                });
            }
            if len < 12 {
                return Err(SpillError::Truncated {
                    section: "frame preamble",
                });
            }
            let preamble = self.read_at(offset, 12)?;
            let mut reader = Reader::new(&preamble);
            let _frame_len = reader.u32("frame length")?;
            let frame_shard = reader.u32("frame shard index")?;
            let sites = reader.u32("frame site count")?;
            if frame_shard != shard {
                return Err(SpillError::CorruptFrame {
                    reason: "frame shard disagrees with index",
                });
            }
            refs.push(SpillRef {
                file: Arc::clone(self),
                shard,
                offset,
                len,
                sites,
            });
        }
        Ok(refs)
    }
}

/// A reference to one shard's frame inside a [`SpillFile`]: everything a
/// snapshot needs to reload the block on demand, and nothing more.
#[derive(Clone)]
pub struct SpillRef {
    file: Arc<SpillFile>,
    shard: u32,
    offset: u64,
    len: u32,
    sites: u32,
}

impl fmt::Debug for SpillRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SpillRef({} shard {} @{}+{})",
            self.file.path.display(),
            self.shard,
            self.offset,
            self.len
        )
    }
}

impl SpillRef {
    /// Sites the referenced frame covers (no I/O).
    pub fn sites(&self) -> usize {
        self.sites as usize
    }

    /// The shard index the frame was written as.
    pub fn shard(&self) -> usize {
        self.shard as usize
    }

    /// Path of the spill file holding the frame — with delta spills,
    /// refs in one round's chain can point at several earlier files.
    pub fn file_path(&self) -> &Path {
        &self.file.path
    }

    /// Process-local identity of the referenced frame: `(file identity,
    /// frame offset)`, where the file identity is the address of the
    /// shared [`SpillFile`] handle. Two refs with equal keys alias the
    /// same bytes of the same open file, so any pure function of the
    /// decoded block may be memoized under this key — delta rounds chain
    /// clean shards as clones of earlier refs, which is what makes the
    /// key hit. The key is only conservative: reopening a file yields a
    /// new handle and therefore a fresh key, never a false match.
    ///
    /// The address is only unique while the handle is alive; callers
    /// keying a cache on it must keep a clone of the ref (or another
    /// owner of the handle) alive alongside the entry.
    pub fn frame_key(&self) -> (usize, u64) {
        (Arc::as_ptr(&self.file) as usize, self.offset)
    }

    /// Reads and decodes the referenced frame.
    pub fn load(&self) -> Result<RecordBlock, SpillError> {
        let bytes = self.file.read_at(self.offset, self.len as usize)?;
        let (shard, block) = decode_frame(&bytes)?;
        if shard != self.shard {
            return Err(SpillError::CorruptFrame {
                reason: "frame shard disagrees with reference",
            });
        }
        if block.len() != self.sites as usize {
            return Err(SpillError::CorruptFrame {
                reason: "frame site count disagrees with reference",
            });
        }
        Ok(block)
    }
}

/// Streams one round's frames to disk, then finalizes the footer and
/// reopens the file for reads.
#[derive(Debug)]
pub struct SpillWriter {
    path: PathBuf,
    file: File,
    offset: u64,
    index: Vec<(u32, u64, u32)>,
    pending_refs: Vec<(u32, u64, u32, u32)>,
    meta: SpillMeta,
}

impl SpillWriter {
    /// Creates (truncating) a spill file and writes its header.
    pub fn create(path: impl AsRef<Path>, meta: SpillMeta) -> Result<Self, SpillError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::create(&path).map_err(io_err("creating spill file"))?;
        let mut header = Vec::new();
        encode_header(&mut header, &meta);
        file.write_all(&header)
            .map_err(io_err("writing spill header"))?;
        Ok(SpillWriter {
            path,
            file,
            offset: header.len() as u64,
            index: Vec::new(),
            pending_refs: Vec::new(),
            meta,
        })
    }

    /// Appends one shard's frame. Returns nothing; the matching
    /// [`SpillRef`]s come out of [`SpillWriter::finish`].
    ///
    /// # Errors
    ///
    /// [`SpillError::DuplicateShardFrame`] if the shard was already
    /// appended, [`SpillError::ShardOutOfRange`] if it exceeds the plan.
    pub fn append_block(&mut self, shard: u32, block: &RecordBlock) -> Result<(), SpillError> {
        if shard >= self.meta.shard_count {
            return Err(SpillError::ShardOutOfRange {
                shard,
                count: self.meta.shard_count,
            });
        }
        if self.index.iter().any(|(s, ..)| *s == shard) {
            return Err(SpillError::DuplicateShardFrame { shard });
        }
        let frame = encode_frame(shard, block);
        self.file
            .write_all(&frame)
            .map_err(io_err("writing spill frame"))?;
        self.index.push((shard, self.offset, frame.len() as u32));
        self.pending_refs
            .push((shard, self.offset, frame.len() as u32, block.len() as u32));
        self.offset += frame.len() as u64;
        Ok(())
    }

    /// Writes the footer, flushes, and reopens the file read-only.
    /// Returns the shared read handle plus one [`SpillRef`] per appended
    /// frame, in append order.
    pub fn finish(mut self) -> Result<(Arc<SpillFile>, Vec<SpillRef>), SpillError> {
        let mut footer = Vec::new();
        let footer_at = self.offset;
        encode_footer(&mut footer, &self.index);
        // encode_footer computed footer_offset relative to an empty buffer;
        // patch in the real file offset.
        let patch_at = footer.len() - 12;
        footer[patch_at..patch_at + 8].copy_from_slice(&footer_at.to_le_bytes());
        self.file
            .write_all(&footer)
            .map_err(io_err("writing spill footer"))?;
        self.file.flush().map_err(io_err("flushing spill file"))?;
        drop(self.file);
        let file = SpillFile::open(&self.path)?;
        let refs = self
            .pending_refs
            .iter()
            .map(|&(shard, offset, len, sites)| SpillRef {
                file: Arc::clone(&file),
                shard,
                offset,
                len,
                sites,
            })
            .collect();
        Ok((file, refs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SiteRecords;

    fn sample_snapshot(block_size: usize) -> DnsSnapshot {
        let mut b = DnsSnapshot::builder(SimTime::from_secs(1234), 7, block_size);
        for i in 0..10u8 {
            b.push(SiteRecords {
                a: vec![Ipv4Addr::new(10, 0, 0, i)],
                cnames: if i % 2 == 0 {
                    vec!["edge.cdn.example.net".parse().unwrap()]
                } else {
                    vec![]
                },
                ns: vec![
                    "ns1.webhost1.net".parse().unwrap(),
                    "ns2.webhost1.net".parse().unwrap(),
                ],
            });
        }
        b.finish()
    }

    #[test]
    fn binary_round_trips() {
        let snap = sample_snapshot(4);
        let bytes = snap.encode_binary();
        let back = DnsSnapshot::decode_binary(&bytes).expect("own bytes decode");
        assert_eq!(back, snap);
        // Canonical: re-encoding is byte-identical.
        assert_eq!(back.encode_binary(), bytes);
        // And the canonical text rendering agrees on content.
        assert_eq!(back.encode(), snap.encode());
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = sample_snapshot(4).encode_binary();
        for cut in 0..bytes.len() {
            let err = DnsSnapshot::decode_binary(&bytes[..cut]).unwrap_err();
            // Typed error, not a panic; exact kind depends on the cut.
            let _ = err.to_string();
        }
    }

    #[test]
    fn bad_magic_and_version_are_named() {
        let mut bytes = sample_snapshot(4).encode_binary();
        let orig = bytes[0];
        bytes[0] = b'X';
        assert_eq!(
            DnsSnapshot::decode_binary(&bytes).unwrap_err(),
            SpillError::BadMagic
        );
        bytes[0] = orig;
        bytes[4] = 0xFF;
        assert!(matches!(
            DnsSnapshot::decode_binary(&bytes).unwrap_err(),
            SpillError::UnsupportedVersion(_)
        ));
    }

    #[test]
    fn spill_file_round_trips_per_shard() {
        let snap = sample_snapshot(3);
        let dir = std::env::temp_dir().join(format!("remnant-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round.rsnb");
        let blocks: Vec<_> = snap.blocks().collect();
        let mut writer = SpillWriter::create(
            &path,
            SpillMeta {
                taken_at: snap.taken_at,
                day: snap.day,
                sites: snap.len() as u64,
                block_size: snap.block_size() as u32,
                shard_count: blocks.len() as u32,
            },
        )
        .unwrap();
        for (i, loaded) in blocks.iter().enumerate() {
            writer.append_block(i as u32, &loaded.block).unwrap();
        }
        let (file, refs) = writer.finish().unwrap();
        assert_eq!(file.meta().sites, snap.len() as u64);
        assert_eq!(refs.len(), blocks.len());
        for (r, loaded) in refs.iter().zip(&blocks) {
            let block = r.load().unwrap();
            assert_eq!(&block, loaded.block.as_ref());
        }
        // A snapshot assembled purely from spill refs equals the original.
        let mut b = DnsSnapshot::builder(snap.taken_at, snap.day, snap.block_size());
        for r in refs {
            b.push_spilled(r);
        }
        assert_eq!(b.finish(), snap);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_rejects_duplicate_and_out_of_range_shards() {
        let snap = sample_snapshot(5);
        let dir = std::env::temp_dir().join(format!("remnant-spill-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dup.rsnb");
        let block = snap.blocks().next().unwrap().block;
        let mut writer = SpillWriter::create(
            &path,
            SpillMeta {
                taken_at: snap.taken_at,
                day: snap.day,
                sites: snap.len() as u64,
                block_size: 5,
                shard_count: 2,
            },
        )
        .unwrap();
        writer.append_block(0, &block).unwrap();
        assert_eq!(
            writer.append_block(0, &block).unwrap_err(),
            SpillError::DuplicateShardFrame { shard: 0 }
        );
        assert_eq!(
            writer.append_block(9, &block).unwrap_err(),
            SpillError::ShardOutOfRange { shard: 9, count: 2 }
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
