//! `SAMALSH1` — the in-memory MinHash/LSH candidate-retrieval tier.
//!
//! Cluster filling is the `I` in the paper's `O(h·I²)` complexity: an
//! exact sink/constant-label scan retrieves every candidate path and
//! *aligns all of them*. This module builds the approximate tier that
//! breaks that wall: a MinHash signature per indexed path, computed
//! over the path's **label n-grams** (unigrams and adjacent bigrams of
//! the interleaved node/edge label sequence), stored in **banded
//! buckets** à la classic LSH. At query time the cluster builder
//! probes one bucket per band with the query path's signature,
//! collects the union of collisions, ranks them by estimated Jaccard
//! similarity (matching signature rows), and hands only the `top_m`
//! best to the alignment loop.
//!
//! The structure lives in memory only. The library builds it from an
//! index ([`build_lsh_bytes`]), parses it ([`LshSidecar::from_bytes`])
//! and attaches it to a [`MappedIndex`](crate::MappedIndex) with
//! `attach_lsh`; the performance ledger's `deep_topk` workload does so
//! to measure the tier. No file is written or mapped, and the `sama`
//! binary has no flag that reaches it: the CLI fills every cluster by
//! exact retrieval. The bytes are a little-endian, 8-aligned sectioned
//! buffer, read in place:
//!
//! ```text
//! header   magic b"SAMALSH1", u32 version, u32 section count,
//!          u64 buffer length                                (24 bytes)
//! table    5 × { u64 offset, u64 length }                   (80 bytes)
//! sections each 8-byte aligned, in table order:
//!   0 params      u64 × 4   (bands, rows, path count, reserved 0)
//!   1 signatures  u32 × paths·bands·rows   row-major per path
//!   2 band-caps   u32 × bands              per-band table capacity
//!   3 band-tables u32 × 3·Σcaps            open addressing, stored:
//!                                          slot {key, start, len}
//!   4 postings    u32 × total              colliding path ids
//! ```
//!
//! The bucket tables reuse the `SAMAIDX2` idiom: power-of-two
//! open-addressing with linear probing on Fibonacci-hashed keys,
//! empty slot key `u32::MAX`, postings stored as contiguous runs —
//! probes need no rebuild and no allocation beyond
//! the result vector. Parsing validates every slot and posting up
//! front (typed [`StorageError`]s, never panics), so lookups can
//! index without bounds anxiety.

use crate::index_like::IndexLike;
use crate::path::{LabelsRef, PathId};
use crate::storage::{try_u32, StorageError};
use rdf_model::LabelId;

/// The `SAMALSH1` buffer magic.
pub const LSH_MAGIC: &[u8; 8] = b"SAMALSH1";
const VERSION: u32 = 1;
const SECTION_COUNT: usize = 5;
const HEADER_LEN: usize = 24;
const TABLE_LEN: usize = SECTION_COUNT * 16;
/// Empty bucket-table slot marker. Band keys are clamped below it.
const EMPTY: u32 = u32::MAX;

const S_PARAMS: usize = 0;
const S_SIGS: usize = 1;
const S_CAPS: usize = 2;
const S_TABLES: usize = 3;
const S_POSTS: usize = 4;

/// Hard sanity bounds on the banding shape: enough for any useful
/// recall/selectivity trade-off, small enough that a corrupt params
/// section cannot demand a gigabyte signature.
const MAX_BANDS: u64 = 64;
const MAX_ROWS: u64 = 16;

/// The banding shape of an LSH structure: `bands × rows` MinHash
/// values per signature. More rows per band make each bucket more
/// selective (collision probability `s^rows` for Jaccard similarity
/// `s`); more bands raise recall (`1 − (1 − s^rows)^bands`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LshParams {
    /// Number of bucket arrays probed per lookup.
    pub bands: u32,
    /// MinHash rows hashed together into each band's bucket key.
    pub rows: u32,
}

impl Default for LshParams {
    /// 32 bands × 2 rows: per-band collision probability `s²`, overall
    /// recall `1 − (1 − s²)^32` — ≈ 0.9999 at `s = 0.5`, still ≈ 0.91
    /// at `s = 0.25`. The band *count* doubles as ranking resolution:
    /// candidates are ordered by how many bands they collide in, and
    /// with the short, noisy label sequences of source→sink paths a
    /// narrow signature (e.g. 8 bands) cannot separate a true match
    /// from a crowd of same-sink near-misses. 64 MinHash rows cost
    /// 256 bytes per path — negligible next to the index itself.
    fn default() -> Self {
        LshParams { bands: 32, rows: 2 }
    }
}

impl LshParams {
    /// Signature length in MinHash rows (`bands × rows`).
    #[inline]
    pub fn signature_len(self) -> usize {
        (self.bands as usize) * (self.rows as usize)
    }

    fn validate(self) -> Result<(), StorageError> {
        if self.bands == 0 || self.rows == 0 {
            return Err(StorageError::Corrupt("LSH banding shape is zero"));
        }
        if u64::from(self.bands) > MAX_BANDS || u64::from(self.rows) > MAX_ROWS {
            return Err(StorageError::Corrupt("LSH banding shape out of range"));
        }
        Ok(())
    }
}

/// One bucket-collision candidate returned by [`LshSidecar::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LshCandidate {
    /// The colliding indexed path.
    pub path: PathId,
    /// Matching signature rows out of `bands × rows` — the numerator
    /// of the Jaccard estimate, usable directly as a ranking key.
    pub matches: u32,
}

// ---------------------------------------------------------------------------
// Hashing: shingles, MinHash rows, band keys.

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shingle of a single label occurrence (a 1-gram).
#[inline]
pub fn unigram_shingle(label: LabelId) -> u64 {
    splitmix64(u64::from(label.0) | (1 << 40))
}

/// The shingle of two adjacent labels in the interleaved
/// node/edge-label sequence (a 2-gram, order-sensitive).
#[inline]
pub fn bigram_shingle(a: LabelId, b: LabelId) -> u64 {
    splitmix64(((u64::from(a.0) << 21) ^ u64::from(b.0)) | (1 << 41))
}

/// The shingle set of an indexed path: unigrams of every label plus
/// bigrams of adjacent positions in the interleaved sequence
/// `n₀ e₀ n₁ e₁ … nₖ`. Deduplicated (shingles are a *set*).
pub fn path_shingles(labels: LabelsRef<'_>) -> Vec<u64> {
    let mut seq: Vec<LabelId> = Vec::with_capacity(labels.len() * 2);
    for (i, n) in labels.node_labels().enumerate() {
        seq.push(n);
        if let Some(&e) = labels.edge_labels.get(i) {
            seq.push(e);
        }
    }
    let mut shingles: Vec<u64> = seq.iter().map(|&l| unigram_shingle(l)).collect();
    shingles.extend(seq.windows(2).map(|w| bigram_shingle(w[0], w[1])));
    shingles.sort_unstable();
    shingles.dedup();
    shingles
}

/// MinHash signature of a shingle set: row `j` holds the minimum of
/// the `j`-th hash family over every shingle. An empty set signs as
/// all-`u32::MAX` (it can collide with nothing useful).
pub fn signature_of_shingles(shingles: &[u64], params: LshParams) -> Vec<u32> {
    let mut sig = vec![u32::MAX; params.signature_len()];
    for (row, slot) in sig.iter_mut().enumerate() {
        let seed = splitmix64(row as u64 ^ 0x51A5_C0DE_D15C_0FEE);
        let mut min = u32::MAX;
        for &s in shingles {
            let h = (splitmix64(s ^ seed) >> 32) as u32;
            min = min.min(h);
        }
        *slot = min;
    }
    sig
}

/// MinHash signature of one indexed path's labels.
pub fn path_signature(labels: LabelsRef<'_>, params: LshParams) -> Vec<u32> {
    signature_of_shingles(&path_shingles(labels), params)
}

/// The bucket key of one band: the band's `rows` signature values
/// folded through splitmix64. Clamped below [`EMPTY`].
fn band_key(signature: &[u32], band: usize, rows: usize) -> u32 {
    let mut h = 0xC0FF_EE00_0000_0000u64 ^ band as u64;
    for &v in &signature[band * rows..(band + 1) * rows] {
        h = splitmix64(h ^ u64::from(v));
    }
    ((h >> 32) as u32).min(EMPTY - 1)
}

#[inline]
fn slot_of(key: u32, cap: usize) -> usize {
    debug_assert!(cap.is_power_of_two() && cap >= 2);
    let h = u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> (64 - cap.trailing_zeros())) as usize
}

// ---------------------------------------------------------------------------
// Building.

/// Build the serialized `SAMALSH1` buffer for `index`: one MinHash
/// signature per path, bucketed per band. Deterministic — the same
/// index and params always produce the same bytes.
///
/// # Errors
/// [`StorageError::TooLarge`] if a section exceeds the format's `u32`
/// count range, [`StorageError::Corrupt`] on an out-of-range banding
/// shape.
pub fn build_lsh_bytes<I: IndexLike + ?Sized>(
    index: &I,
    params: LshParams,
) -> Result<Vec<u8>, StorageError> {
    params.validate()?;
    let _span = sama_obs::span!(sama_obs::metrics::LSH_BUILD_NS);
    let paths = index.total_paths();
    try_u32(paths, "LSH path count")?;
    let sig_len = params.signature_len();
    let rows = params.rows as usize;

    let mut sigs: Vec<u32> = Vec::with_capacity(paths * sig_len);
    // One BTreeMap per band: key → colliding paths, ascending — the
    // deterministic insertion order the stored tables are built in.
    let mut buckets: Vec<std::collections::BTreeMap<u32, Vec<u32>>> =
        (0..params.bands).map(|_| Default::default()).collect();
    for i in 0..paths {
        let id = PathId(i as u32);
        let sig = path_signature(index.labels(id), params);
        for (band, bucket) in buckets.iter_mut().enumerate() {
            bucket
                .entry(band_key(&sig, band, rows))
                .or_default()
                .push(id.0);
        }
        sigs.extend_from_slice(&sig);
    }

    let mut caps: Vec<u32> = Vec::with_capacity(params.bands as usize);
    let mut tables: Vec<u32> = Vec::new();
    let mut posts: Vec<u32> = Vec::new();
    for bucket in &buckets {
        let cap = (bucket.len() * 2).next_power_of_two().max(4);
        caps.push(try_u32(cap, "LSH table capacity")?);
        let base = tables.len();
        tables.resize(base + cap * 3, EMPTY);
        for (&key, ids) in bucket {
            let start = try_u32(posts.len(), "LSH postings pool")?;
            let len = try_u32(ids.len(), "LSH postings run")?;
            posts.extend_from_slice(ids);
            let mut slot = slot_of(key, cap);
            while tables[base + slot * 3] != EMPTY {
                slot = (slot + 1) & (cap - 1);
            }
            tables[base + slot * 3] = key;
            tables[base + slot * 3 + 1] = start;
            tables[base + slot * 3 + 2] = len;
        }
    }

    // Assemble: header + table, then 8-aligned sections.
    let params_words: [u64; 4] = [
        u64::from(params.bands),
        u64::from(params.rows),
        paths as u64,
        0,
    ];
    let sections: [&[u8]; SECTION_COUNT] = [
        bytemuck_u64s(&params_words),
        bytemuck_u32s(&sigs),
        bytemuck_u32s(&caps),
        bytemuck_u32s(&tables),
        bytemuck_u32s(&posts),
    ];
    let mut buf = vec![0u8; HEADER_LEN + TABLE_LEN];
    buf[..8].copy_from_slice(LSH_MAGIC);
    buf[8..12].copy_from_slice(&VERSION.to_le_bytes());
    buf[12..16].copy_from_slice(&(SECTION_COUNT as u32).to_le_bytes());
    let mut table = [(0u64, 0u64); SECTION_COUNT];
    for (i, section) in sections.iter().enumerate() {
        while !buf.len().is_multiple_of(8) {
            buf.push(0);
        }
        table[i] = (buf.len() as u64, section.len() as u64);
        buf.extend_from_slice(section);
    }
    for (i, (off, len)) in table.iter().enumerate() {
        let at = HEADER_LEN + i * 16;
        buf[at..at + 8].copy_from_slice(&off.to_le_bytes());
        buf[at + 8..at + 16].copy_from_slice(&len.to_le_bytes());
    }
    let total = buf.len() as u64;
    buf[16..24].copy_from_slice(&total.to_le_bytes());
    Ok(buf)
}

#[inline]
fn bytemuck_u32s(words: &[u32]) -> &[u8] {
    // SAFETY: alignment: `u8` needs 1, which every pointer meets.
    // Length: `words.len() * 4` bytes are exactly the bytes of the
    // `words` slice, which is one live allocation no larger than
    // `isize::MAX`, so the product neither overflows nor reaches past
    // it; every byte of an initialised `u32` is initialised. Lifetime:
    // the result borrows `words` immutably (elided lifetimes), so the
    // words can neither move, change nor be freed while it lives.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), words.len() * 4) }
}

#[inline]
fn bytemuck_u64s(words: &[u64]) -> &[u8] {
    // SAFETY: alignment: `u8` needs 1, which every pointer meets.
    // Length: `words.len() * 8` bytes are exactly the bytes of the
    // `words` slice, which is one live allocation no larger than
    // `isize::MAX`, so the product neither overflows nor reaches past
    // it; every byte of an initialised `u64` is initialised. Lifetime:
    // the result borrows `words` immutably (elided lifetimes), so the
    // words can neither move, change nor be freed while it lives.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), words.len() * 8) }
}

/// `bytes` as native-endian `u32`s. Callers pass a section of a parsed
/// buffer: the buffer starts 8-aligned (checked first thing in
/// `LshLayout::parse`, and guaranteed by the `AlignedBytes` that
/// `LshSidecar` owns) and every section offset is a multiple of 8
/// (checked per table entry), so every section starts 4-aligned.
#[inline]
fn cast_u32s(bytes: &[u8]) -> &[u32] {
    debug_assert_eq!(bytes.as_ptr() as usize % 4, 0);
    debug_assert_eq!(bytes.len() % 4, 0);
    // SAFETY: alignment: `bytes` starts 4-aligned, by the caller
    // contract above (asserted in debug builds). Length: `len / 4`
    // whole `u32`s cover at most `bytes.len()` bytes, all inside the
    // borrowed slice and all initialised; a trailing partial word, which
    // the parse's size checks rule out, would be left out rather than
    // read. Every bit pattern is a valid `u32`. Lifetime: the result
    // borrows `bytes` immutably (elided lifetimes), so the buffer cannot
    // be freed or written while the words are read.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast(), bytes.len() / 4) }
}

// ---------------------------------------------------------------------------
// Parsing + the zero-copy handle.

fn read_u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Parsed structural layout of a `SAMALSH1` buffer.
#[derive(Debug, Clone)]
struct LshLayout {
    sec: [(usize, usize); SECTION_COUNT],
    params: LshParams,
    path_count: usize,
    /// Per-band `(table u32-offset, capacity, postings-validated)` —
    /// table offsets into the concatenated band-tables section.
    band_caps: Vec<(usize, usize)>,
}

impl LshLayout {
    fn parse(bytes: &[u8]) -> Result<LshLayout, StorageError> {
        if cfg!(target_endian = "big") {
            return Err(StorageError::Corrupt(
                "SAMALSH1 is little-endian and cannot be mapped on this host",
            ));
        }
        if !(bytes.as_ptr() as usize).is_multiple_of(8) {
            return Err(StorageError::Corrupt("LSH buffer is not 8-byte aligned"));
        }
        if bytes.len() < HEADER_LEN + TABLE_LEN {
            if bytes.len() < LSH_MAGIC.len() || &bytes[..LSH_MAGIC.len()] != LSH_MAGIC {
                return Err(StorageError::BadMagic);
            }
            return Err(StorageError::Truncated);
        }
        if &bytes[..LSH_MAGIC.len()] != LSH_MAGIC {
            return Err(StorageError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(StorageError::Corrupt("unsupported SAMALSH1 version"));
        }
        let sections = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        if sections as usize != SECTION_COUNT {
            return Err(StorageError::Corrupt("unexpected LSH section count"));
        }
        if read_u64_at(bytes, 16) != bytes.len() as u64 {
            return Err(StorageError::Truncated);
        }

        let mut sec = [(0usize, 0usize); SECTION_COUNT];
        let mut prev_end = HEADER_LEN + TABLE_LEN;
        for (i, entry) in sec.iter_mut().enumerate() {
            let at = HEADER_LEN + i * 16;
            let off = usize::try_from(read_u64_at(bytes, at))
                .map_err(|_| StorageError::Corrupt("LSH section offset overflow"))?;
            let len = usize::try_from(read_u64_at(bytes, at + 8))
                .map_err(|_| StorageError::Corrupt("LSH section length overflow"))?;
            if !off.is_multiple_of(8) {
                return Err(StorageError::Corrupt("LSH section offset misaligned"));
            }
            if off < prev_end {
                return Err(StorageError::Corrupt(
                    "LSH sections overlap or out of order",
                ));
            }
            let end = off
                .checked_add(len)
                .ok_or(StorageError::Corrupt("LSH section extent overflow"))?;
            if end > bytes.len() {
                return Err(StorageError::Truncated);
            }
            prev_end = end;
            *entry = (off, len);
        }

        if sec[S_PARAMS].1 != 32 {
            return Err(StorageError::Corrupt("LSH params section size"));
        }
        let p = sec[S_PARAMS].0;
        let bands = read_u64_at(bytes, p);
        let rows = read_u64_at(bytes, p + 8);
        let paths = read_u64_at(bytes, p + 16);
        if bands == 0 || rows == 0 || bands > MAX_BANDS || rows > MAX_ROWS {
            return Err(StorageError::Corrupt("LSH banding shape out of range"));
        }
        if paths > u64::from(u32::MAX) {
            return Err(StorageError::Corrupt("LSH path count out of range"));
        }
        let params = LshParams {
            bands: bands as u32,
            rows: rows as u32,
        };
        let path_count = paths as usize;

        if sec[S_SIGS].1 != path_count * params.signature_len() * 4 {
            return Err(StorageError::Corrupt("LSH signature section size"));
        }
        if sec[S_CAPS].1 != params.bands as usize * 4 {
            return Err(StorageError::Corrupt("LSH band-caps section size"));
        }
        let caps = cast_u32s(&bytes[sec[S_CAPS].0..sec[S_CAPS].0 + sec[S_CAPS].1]);
        let mut band_caps = Vec::with_capacity(caps.len());
        let mut table_words = 0usize;
        for &cap in caps {
            let cap = cap as usize;
            if !cap.is_power_of_two() || cap < 4 {
                return Err(StorageError::Corrupt("LSH table capacity"));
            }
            band_caps.push((table_words, cap));
            table_words += cap * 3;
        }
        if sec[S_TABLES].1 != table_words * 4 {
            return Err(StorageError::Corrupt("LSH band-tables section size"));
        }
        if !sec[S_POSTS].1.is_multiple_of(4) {
            return Err(StorageError::Corrupt("LSH postings section size"));
        }
        let posts_len = sec[S_POSTS].1 / 4;

        // Deep pass: every occupied slot's postings run must lie inside
        // the postings section and reference real paths, so probes can
        // slice without checks.
        let tables = cast_u32s(&bytes[sec[S_TABLES].0..sec[S_TABLES].0 + sec[S_TABLES].1]);
        let posts = cast_u32s(&bytes[sec[S_POSTS].0..sec[S_POSTS].0 + sec[S_POSTS].1]);
        for &(base, cap) in &band_caps {
            for slot in 0..cap {
                let key = tables[base + slot * 3];
                if key == EMPTY {
                    continue;
                }
                let start = tables[base + slot * 3 + 1] as usize;
                let len = tables[base + slot * 3 + 2] as usize;
                let end = start
                    .checked_add(len)
                    .ok_or(StorageError::Corrupt("LSH postings run overflow"))?;
                if end > posts_len {
                    return Err(StorageError::Corrupt("LSH postings run out of bounds"));
                }
                if posts[start..end].iter().any(|&p| p as usize >= path_count) {
                    return Err(StorageError::Corrupt("LSH posting path id out of range"));
                }
            }
        }

        Ok(LshLayout {
            sec,
            params,
            path_count,
            band_caps,
        })
    }
}

/// A validated, zero-copy handle over a `SAMALSH1` buffer held in
/// memory. Probes read the stored bucket tables and signatures in
/// place.
#[derive(Debug)]
pub struct LshSidecar {
    bytes: crate::v2::AlignedBytes,
    layout: LshLayout,
}

impl LshSidecar {
    /// Parse `bytes`, copied once into an 8-aligned buffer, so any
    /// slice parses wherever it starts.
    ///
    /// # Errors
    /// Typed corruption errors on malformed content.
    pub fn from_bytes(bytes: &[u8]) -> Result<LshSidecar, StorageError> {
        let bytes = crate::v2::AlignedBytes::copy_from(bytes);
        let layout = LshLayout::parse(bytes.as_slice())?;
        Ok(LshSidecar { bytes, layout })
    }

    /// The banding shape this structure was built with.
    #[inline]
    pub fn params(&self) -> LshParams {
        self.layout.params
    }

    /// Paths covered (must equal the index's path count to attach).
    #[inline]
    pub fn path_count(&self) -> usize {
        self.layout.path_count
    }

    #[inline]
    fn u32s(&self, s: usize) -> &[u32] {
        let (off, len) = self.layout.sec[s];
        cast_u32s(&self.bytes.as_slice()[off..off + len])
    }

    /// The stored signature of one path.
    #[inline]
    pub fn signature(&self, path: PathId) -> &[u32] {
        let sig_len = self.layout.params.signature_len();
        &self.u32s(S_SIGS)[path.index() * sig_len..(path.index() + 1) * sig_len]
    }

    /// Union of bucket collisions for `signature` across every band,
    /// deduplicated, each scored by its number of matching signature
    /// rows. Unsorted — callers rank by `(matches, path)` as needed.
    /// Returns nothing when `signature` has the wrong length.
    pub fn probe(&self, signature: &[u32]) -> Vec<LshCandidate> {
        if signature.len() != self.layout.params.signature_len() {
            return Vec::new();
        }
        let rows = self.layout.params.rows as usize;
        let tables = self.u32s(S_TABLES);
        let posts = self.u32s(S_POSTS);
        let mut ids: Vec<u32> = Vec::new();
        for (band, &(base, cap)) in self.layout.band_caps.iter().enumerate() {
            let key = band_key(signature, band, rows);
            let mut slot = slot_of(key, cap);
            // Bounded probe: a full table without the key must terminate.
            for _ in 0..cap {
                let stored = tables[base + slot * 3];
                if stored == key {
                    let start = tables[base + slot * 3 + 1] as usize;
                    let len = tables[base + slot * 3 + 2] as usize;
                    ids.extend_from_slice(&posts[start..start + len]);
                    break;
                }
                if stored == EMPTY {
                    break;
                }
                slot = (slot + 1) & (cap - 1);
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .map(|id| {
                let stored = self.signature(PathId(id));
                let matches = stored.iter().zip(signature).filter(|(a, b)| a == b).count() as u32;
                LshCandidate {
                    path: PathId(id),
                    matches,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::v2::MappedIndex;
    use rdf_model::DataGraph;

    fn sample_index() -> MappedIndex {
        let mut b = DataGraph::builder();
        for i in 0..12 {
            b.triple_str(&format!("s{i}"), "sponsor", &format!("a{i}"))
                .unwrap();
            b.triple_str(&format!("a{i}"), "aTo", &format!("b{}", i % 3))
                .unwrap();
            b.triple_str(&format!("b{}", i % 3), "subject", "\"HC\"")
                .unwrap();
        }
        MappedIndex::build(b.build()).unwrap()
    }

    #[test]
    fn build_is_deterministic() {
        let index = sample_index();
        let a = build_lsh_bytes(&index, LshParams::default()).unwrap();
        let b = build_lsh_bytes(&index, LshParams::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(&a[..8], LSH_MAGIC);
    }

    #[test]
    fn roundtrip_preserves_params_and_signatures() {
        let index = sample_index();
        let params = LshParams { bands: 4, rows: 3 };
        let bytes = build_lsh_bytes(&index, params).unwrap();
        let sidecar = LshSidecar::from_bytes(&bytes).unwrap();
        assert_eq!(sidecar.params(), params);
        assert_eq!(sidecar.path_count(), index.total_paths());
        for i in 0..index.total_paths() {
            let id = PathId(i as u32);
            assert_eq!(
                sidecar.signature(id),
                path_signature(index.labels(id), params).as_slice()
            );
        }
    }

    #[test]
    fn every_path_collides_with_its_own_signature() {
        // Probing with a stored signature must return its own path with
        // a full match count — each band's bucket contains it.
        let index = sample_index();
        let params = LshParams::default();
        let bytes = build_lsh_bytes(&index, params).unwrap();
        let sidecar = LshSidecar::from_bytes(&bytes).unwrap();
        for i in 0..index.total_paths() {
            let id = PathId(i as u32);
            let sig = sidecar.signature(id).to_vec();
            let hits = sidecar.probe(&sig);
            let own = hits.iter().find(|c| c.path == id).expect("self-collision");
            assert_eq!(own.matches as usize, params.signature_len());
        }
    }

    #[test]
    fn similar_paths_outrank_dissimilar() {
        // Twelve sponsor chains: identical edge labels, sinks differ by
        // bucket (b0/b1/b2). A chain's signature must match its own
        // sink-mates' signatures at least as well as nothing.
        let index = sample_index();
        let bytes = build_lsh_bytes(&index, LshParams { bands: 8, rows: 2 }).unwrap();
        let sidecar = LshSidecar::from_bytes(&bytes).unwrap();
        let sig = sidecar.signature(PathId(0)).to_vec();
        let hits = sidecar.probe(&sig);
        assert!(!hits.is_empty());
        let own = hits.iter().find(|c| c.path == PathId(0)).unwrap().matches;
        assert!(hits.iter().all(|c| c.matches <= own));
    }

    #[test]
    fn empty_shingles_sign_as_max() {
        let params = LshParams::default();
        let sig = signature_of_shingles(&[], params);
        assert!(sig.iter().all(|&v| v == u32::MAX));
    }

    #[test]
    fn wrong_signature_length_probes_empty() {
        let index = sample_index();
        let bytes = build_lsh_bytes(&index, LshParams::default()).unwrap();
        let sidecar = LshSidecar::from_bytes(&bytes).unwrap();
        assert!(sidecar.probe(&[1, 2, 3]).is_empty());
    }

    #[test]
    fn bad_params_rejected() {
        let index = sample_index();
        assert!(build_lsh_bytes(&index, LshParams { bands: 0, rows: 2 }).is_err());
        assert!(build_lsh_bytes(&index, LshParams { bands: 8, rows: 99 }).is_err());
    }

    #[test]
    fn a_buffer_at_an_odd_address_parses_and_probes_alike() {
        // `cast_u32s` reads words in place and is sound only over an
        // aligned buffer; `from_bytes` must supply one whatever slice it
        // is handed.
        let index = sample_index();
        let bytes = build_lsh_bytes(&index, LshParams::default()).unwrap();
        let aligned = LshSidecar::from_bytes(&bytes).unwrap();
        let mut shifted = vec![0u8; bytes.len() + 1];
        shifted[1..].copy_from_slice(&bytes);
        let odd = &shifted[1..];
        assert_eq!(odd.as_ptr() as usize % 2, 1);
        let sidecar = LshSidecar::from_bytes(odd).unwrap();
        assert_eq!(sidecar.params(), aligned.params());
        assert_eq!(sidecar.path_count(), aligned.path_count());
        for i in 0..index.total_paths() {
            let sig = aligned.signature(PathId(i as u32));
            assert_eq!(sidecar.signature(PathId(i as u32)), sig);
            assert_eq!(sidecar.probe(sig), aligned.probe(sig));
        }
    }
}
