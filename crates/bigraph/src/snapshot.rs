//! Versioned on-disk engine snapshots: persistence and fast restart.
//!
//! A warm engine over a multi-million-edge CSR takes seconds to rebuild
//! from a text edge list; a serving restart should not pay that. This
//! module defines a hand-rolled, little-endian, epoch-stamped binary
//! snapshot of a [`BipartiteGraph`] plus the bit-packed adjacencies of its
//! *dense* vertices — the exact bitmaps a warm
//! `AdjacencyStore` would hold — so loading is **read → validate →
//! adopt**: the CSR vectors and packed `u64` words are adopted
//! layout-identical to their in-memory form, with no re-sort, no re-pack,
//! and no serde.
//!
//! # On-disk layout (all integers little-endian)
//!
//! | Offset | Size | Field |
//! |---|---|---|
//! | 0  | 4 | magic `0x53454E43` (`"CNES"`) |
//! | 4  | 2 | format version (currently [`VERSION`]) |
//! | 6  | 2 | section count |
//! | 8  | 8 | graph epoch ([`BipartiteGraph::epoch`] at capture) |
//! | 16 | 8 | pinned update-log sequence number ([`GraphSnapshot::log_seq`]) |
//! | 24 | 32 × count | section table |
//! | …  | … | section payloads, each 8-byte aligned |
//!
//! Each section-table entry is 32 bytes:
//!
//! | Offset | Size | Field |
//! |---|---|---|
//! | +0  | 4 | section id |
//! | +4  | 4 | reserved (zero) |
//! | +8  | 8 | payload byte offset from file start |
//! | +16 | 8 | payload byte length |
//! | +24 | 8 | checksum: FNV-1a folded over the payload as little-endian u64 words (zero-padded tail) |
//!
//! Sections (ids are stable; unknown ids are rejected as malformed):
//!
//! | Id | Name | Payload |
//! |---|---|---|
//! | 1 | `UPPER_OFFSETS` | `(n_upper + 1)` × u64 CSR offsets |
//! | 2 | `UPPER_ADJ` | `m` × u32 sorted lower-neighbor ids |
//! | 3 | `LOWER_OFFSETS` | `(n_lower + 1)` × u64 CSR offsets |
//! | 4 | `LOWER_ADJ` | `m` × u32 sorted upper-neighbor ids |
//! | 5 | `PACKED_UPPER` | packed dense-vertex bitmaps, upper layer |
//! | 6 | `PACKED_LOWER` | packed dense-vertex bitmaps, lower layer |
//!
//! A packed section is `[count: u64][count × u32 vertex ids][zero padding
//! to 8-byte alignment][count × ⌈universe/64⌉ × u64 bitmap words]`, where
//! `universe` is the opposite layer's size. The word arrays are
//! byte-identical to [`PackedSet::as_words`], so adoption is
//! [`PackedSet::from_words`] on a copied slice.
//!
//! # Which vertices get packed
//!
//! The packing policy is **deterministic**, not a dump of incidental
//! cache state: a vertex is packed iff `degree > 2 · ⌈universe/64⌉` — the
//! same break-even at which the engine's degree-aware intersection
//! dispatch switches from per-id probing to word-parallel popcount, and
//! the same rule `AdjacencyStore::warm` uses. Snapshots of the same graph
//! are therefore byte-identical regardless of which queries ran before
//! capture.
//!
//! # Kernel-tier independence
//!
//! Packing ([`PackedSet::from_sorted`]) is portable scalar code — the
//! SIMD dispatch in [`crate::bitset`] accelerates *counting*, never
//! *construction* — so the packed words a snapshot stores are bit-identical
//! whether the writer ran on an AVX2, popcnt, or forced-portable host, and
//! load bit-identically under any tier. CI's `snapshot-compat` job
//! re-runs the round-trip suite under `CNE_FORCE_PORTABLE_KERNELS=1` to
//! pin exactly that.
//!
//! # Version & epoch semantics
//!
//! The version field gates the *format*: a reader rejects any version it
//! does not implement ([`SnapshotError::UnsupportedVersion`]) before
//! touching the section table. The epoch stamp restores
//! [`BipartiteGraph::epoch`] on load, and the pinned log sequence records
//! how much of an update stream the snapshot covers — a restarting
//! consumer replays its retained log tail strictly *after* that sequence
//! ([`crate::UpdateLog::replay_from`]) instead of from zero.
//!
//! # Failure atomicity
//!
//! Loading is all-or-nothing: the file is read fully, every section is
//! length- and checksum-validated, and the reconstructed graph passes
//! [`BipartiteGraph::validate`] *before* a [`GraphSnapshot`] is returned —
//! a corrupt file yields a typed [`SnapshotError`] and no partially
//! adopted state. Writing goes through a temporary file in the target
//! directory followed by an atomic rename, so a crashed writer never
//! leaves a half-written snapshot under the published name.

use crate::bitset::PackedSet;
use crate::graph::BipartiteGraph;
use crate::vertex::{Layer, VertexId};
use std::io::Write;
use std::path::Path;

/// Snapshot file magic: `"CNES"` read as a little-endian u32.
pub const MAGIC: u32 = 0x53454E43;
/// Current snapshot format version.
pub const VERSION: u16 = 1;

/// Byte length of the fixed header (before the section table).
const HEADER_LEN: usize = 24;
/// Byte length of one section-table entry.
const SECTION_ENTRY_LEN: usize = 32;

/// Section ids (see the module-level layout table).
mod section {
    pub const UPPER_OFFSETS: u32 = 1;
    pub const UPPER_ADJ: u32 = 2;
    pub const LOWER_OFFSETS: u32 = 3;
    pub const LOWER_ADJ: u32 = 4;
    pub const PACKED_UPPER: u32 = 5;
    pub const PACKED_LOWER: u32 = 6;
}

/// FNV-1a offset basis (same constants as the pinned batch fingerprints).
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a folded over little-endian u64 words (zero-padded tail) — the
/// per-section checksum. Folding whole words instead of single bytes cuts
/// the serial multiply chain 8×, which matters when validating multi-MB
/// adjacency sections on the restart path; any flipped bit still changes
/// the word it lands in and therefore the hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_BASIS;
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        hash ^= u64::from_le_bytes(c.try_into().expect("len 8"));
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        hash ^= u64::from_le_bytes(tail);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A typed snapshot failure. Every corrupt, truncated, or incompatible
/// file is rejected with one of these — never a panic, never partial
/// adoption.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the file failed at the OS level.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic {
        /// The four bytes actually found.
        found: u32,
    },
    /// The file's format version is newer than this reader implements.
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u16,
        /// Highest version this build reads.
        supported: u16,
    },
    /// The file ended before a declared structure was complete.
    Truncated {
        /// Bytes the structure needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// A section's payload bytes do not hash to the checksum in its
    /// table entry.
    ChecksumMismatch {
        /// Section id whose checksum failed.
        section: u32,
    },
    /// The file is structurally inconsistent (missing section, impossible
    /// lengths, CSR invariants violated, out-of-range packed entries, …).
    Malformed {
        /// Human-readable description of the first violated invariant.
        reason: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "snapshot io error: {e}"),
            Self::BadMagic { found } => {
                write!(
                    f,
                    "bad snapshot magic {found:#010x} (expected {MAGIC:#010x})"
                )
            }
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this reader supports up to {supported})"
            ),
            Self::Truncated { needed, available } => write!(
                f,
                "truncated snapshot: needed {needed} bytes, only {available} available"
            ),
            Self::ChecksumMismatch { section } => {
                write!(f, "snapshot section {section} failed its checksum")
            }
            Self::Malformed { reason } => write!(f, "malformed snapshot: {reason}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Result alias for snapshot operations.
pub type SnapshotResult<T> = std::result::Result<T, SnapshotError>;

fn malformed(reason: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed {
        reason: reason.into(),
    }
}

/// Is `v` dense enough that the engine's degree-aware dispatch would read
/// its packed bitmap? Matches `AdjacencyStore::warm` and
/// [`crate::bitset::intersection_size_degree_aware_into`] exactly.
fn is_dense(g: &BipartiteGraph, layer: Layer, v: VertexId) -> bool {
    let words = g.layer_size(layer.opposite()).div_ceil(64);
    g.degree(layer, v) > 2 * words
}

/// Packs every dense vertex of `layer`, in vertex-id order.
fn pack_dense(g: &BipartiteGraph, layer: Layer) -> Vec<(VertexId, PackedSet)> {
    let universe = g.layer_size(layer.opposite());
    (0..g.layer_size(layer) as VertexId)
        .filter(|&v| is_dense(g, layer, v))
        .map(|v| (v, PackedSet::from_sorted(g.neighbors(layer, v), universe)))
        .collect()
}

/// An in-memory engine snapshot: the graph (epoch included) plus the
/// packed adjacencies of every dense vertex, and the update-log sequence
/// number the graph state covers.
///
/// Capture one from a live graph with [`GraphSnapshot::capture`], persist
/// it with [`GraphSnapshot::write_to`], and load it back with
/// [`read_snapshot`]. Consumers adopt it wholesale:
/// `EstimationEngine::from_snapshot` pre-populates its adjacency cache
/// from the packed entries, and a shard worker first narrows it with
/// [`GraphSnapshot::restrict_to_shard`].
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    graph: BipartiteGraph,
    log_seq: u64,
    packed_upper: Vec<(VertexId, PackedSet)>,
    packed_lower: Vec<(VertexId, PackedSet)>,
}

impl GraphSnapshot {
    /// Captures `graph` together with freshly packed bitmaps of all its
    /// dense vertices (deterministic policy — see the module docs).
    ///
    /// `log_seq` stamps how much of an update stream this state covers:
    /// pass the log's [`drained`](crate::UpdateLog::drained) count when the
    /// graph was built by applying drained batches, or 0 for a graph that
    /// precedes any stream.
    #[must_use]
    pub fn capture(graph: &BipartiteGraph, log_seq: u64) -> Self {
        Self {
            packed_upper: pack_dense(graph, Layer::Upper),
            packed_lower: pack_dense(graph, Layer::Lower),
            graph: graph.clone(),
            log_seq,
        }
    }

    /// The snapshotted graph, epoch intact.
    #[must_use]
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// The graph's mutation epoch at capture time.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.graph.epoch()
    }

    /// The pinned update-log sequence number: every log delta with
    /// sequence `<= log_seq` is reflected in [`GraphSnapshot::graph`].
    /// Tail replay after a load starts strictly after this
    /// ([`crate::UpdateLog::replay_from`]).
    #[must_use]
    pub fn log_seq(&self) -> u64 {
        self.log_seq
    }

    /// The packed dense-vertex bitmaps of `layer`, in vertex-id order.
    #[must_use]
    pub fn packed(&self, layer: Layer) -> &[(VertexId, PackedSet)] {
        match layer {
            Layer::Upper => &self.packed_upper,
            Layer::Lower => &self.packed_lower,
        }
    }

    /// Narrows the snapshot to one contiguous shard of `shard_layer`:
    /// the returned graph keeps **both global layer sizes** but only the
    /// edges whose `shard_layer` endpoint lies in `lo..hi` — structurally
    /// identical to rebuilding from the filtered edge list, but produced
    /// by one linear CSR filter pass with no re-sort.
    ///
    /// Packed entries of *owned* `shard_layer` vertices are retained
    /// (an owner holds its vertices' complete adjacency, so their bitmaps
    /// are unchanged); opposite-layer entries are dropped (their
    /// adjacencies lose edges to unowned vertices). The epoch and pinned
    /// log sequence carry over.
    #[must_use]
    pub fn restrict_to_shard(&self, shard_layer: Layer, lo: VertexId, hi: VertexId) -> Self {
        let g = &self.graph;
        let owned = |v: VertexId| v >= lo && v < hi;
        // The shard layer keeps owned vertices' full slices, empties the
        // rest; the opposite layer filters each slice to owned endpoints.
        let filter_side = |layer: Layer, keep: &dyn Fn(VertexId, VertexId) -> bool| {
            let n = g.layer_size(layer);
            let mut offsets = Vec::with_capacity(n + 1);
            let mut adj = Vec::new();
            offsets.push(0usize);
            for v in 0..n as VertexId {
                for &w in g.neighbors(layer, v) {
                    if keep(v, w) {
                        adj.push(w);
                    }
                }
                offsets.push(adj.len());
            }
            (offsets, adj)
        };
        let (upper_offsets, upper_adj, lower_offsets, lower_adj) = match shard_layer {
            Layer::Upper => {
                let (uo, ua) = filter_side(Layer::Upper, &|v, _| owned(v));
                let (lo_, la) = filter_side(Layer::Lower, &|_, w| owned(w));
                (uo, ua, lo_, la)
            }
            Layer::Lower => {
                let (uo, ua) = filter_side(Layer::Upper, &|_, w| owned(w));
                let (lo_, la) = filter_side(Layer::Lower, &|v, _| owned(v));
                (uo, ua, lo_, la)
            }
        };
        let graph = BipartiteGraph::from_csr_at_epoch(
            upper_offsets,
            upper_adj,
            lower_offsets,
            lower_adj,
            g.epoch(),
        );
        let keep_packed = |entries: &[(VertexId, PackedSet)]| {
            entries.iter().filter(|(v, _)| owned(*v)).cloned().collect()
        };
        let (packed_upper, packed_lower) = match shard_layer {
            Layer::Upper => (keep_packed(&self.packed_upper), Vec::new()),
            Layer::Lower => (Vec::new(), keep_packed(&self.packed_lower)),
        };
        Self {
            graph,
            log_seq: self.log_seq,
            packed_upper,
            packed_lower,
        }
    }

    /// Serializes this snapshot to `path` in the versioned binary format,
    /// via a temporary file and atomic rename (see the module docs).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on any filesystem failure.
    pub fn write_to(&self, path: &Path) -> SnapshotResult<()> {
        let bytes = self.to_bytes();
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        let tmp = match dir {
            Some(dir) => dir.join(format!(
                ".{}.tmp-{}",
                path.file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "snapshot".into()),
                std::process::id()
            )),
            None => Path::new(&format!(".snapshot.tmp-{}", std::process::id())).to_path_buf(),
        };
        let result = (|| {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)?;
            // The rename is only durable once the *directory entry* is on
            // disk: without an fsync of the parent, a crash after this
            // call can resurrect the old file (or no file) even though
            // the data blocks themselves were synced above.
            std::fs::File::open(dir.unwrap_or_else(|| Path::new(".")))?.sync_all()
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result.map_err(SnapshotError::from)
    }

    /// The full file image (header, section table, payloads).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        // Encode each section payload first, then lay the file out.
        let g = &self.graph;
        let (upper_offsets, upper_adj, lower_offsets, lower_adj) = g.csr_parts();
        // Fixed-stride sections are encoded into exact-size buffers with
        // per-element `copy_from_slice` — a shape LLVM lowers to a bulk
        // byte copy on little-endian hosts.
        let encode_offsets = |offsets: &[usize]| {
            let mut out = vec![0u8; offsets.len() * 8];
            for (c, &o) in out.chunks_exact_mut(8).zip(offsets) {
                c.copy_from_slice(&(o as u64).to_le_bytes());
            }
            out
        };
        let encode_adj = |adj: &[VertexId]| {
            let mut out = vec![0u8; adj.len() * 4];
            for (c, &v) in out.chunks_exact_mut(4).zip(adj) {
                c.copy_from_slice(&v.to_le_bytes());
            }
            out
        };
        let encode_packed = |entries: &[(VertexId, PackedSet)]| {
            let ids_len = entries.len() * 4;
            let ids_pad = (8 - (8 + ids_len) % 8) % 8;
            let words_per = entries.first().map_or(0, |(_, set)| set.as_words().len());
            let mut out = vec![0u8; 8 + ids_len + ids_pad + entries.len() * words_per * 8];
            out[..8].copy_from_slice(&(entries.len() as u64).to_le_bytes());
            for (c, (v, _)) in out[8..8 + ids_len].chunks_exact_mut(4).zip(entries) {
                c.copy_from_slice(&v.to_le_bytes());
            }
            if words_per > 0 {
                let words = &mut out[8 + ids_len + ids_pad..];
                for (chunk, (_, set)) in words.chunks_exact_mut(words_per * 8).zip(entries) {
                    for (c, &w) in chunk.chunks_exact_mut(8).zip(set.as_words()) {
                        c.copy_from_slice(&w.to_le_bytes());
                    }
                }
            }
            out
        };
        let sections: [(u32, Vec<u8>); 6] = [
            (section::UPPER_OFFSETS, encode_offsets(upper_offsets)),
            (section::UPPER_ADJ, encode_adj(upper_adj)),
            (section::LOWER_OFFSETS, encode_offsets(lower_offsets)),
            (section::LOWER_ADJ, encode_adj(lower_adj)),
            (section::PACKED_UPPER, encode_packed(&self.packed_upper)),
            (section::PACKED_LOWER, encode_packed(&self.packed_lower)),
        ];

        let table_len = sections.len() * SECTION_ENTRY_LEN;
        let total: usize = HEADER_LEN
            + table_len
            + sections
                .iter()
                .map(|(_, p)| p.len().next_multiple_of(8))
                .sum::<usize>()
            + 8;
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u16).to_le_bytes());
        out.extend_from_slice(&g.epoch().to_le_bytes());
        out.extend_from_slice(&self.log_seq.to_le_bytes());
        // Assign 8-byte-aligned payload offsets, then emit the table.
        let mut offset = HEADER_LEN + table_len;
        offset += (8 - offset % 8) % 8;
        let mut placed = Vec::with_capacity(sections.len());
        for (id, payload) in &sections {
            placed.push((*id, offset, payload.len(), fnv1a(payload)));
            offset += payload.len();
            offset += (8 - offset % 8) % 8;
        }
        for &(id, at, len, checksum) in &placed {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes());
            out.extend_from_slice(&(at as u64).to_le_bytes());
            out.extend_from_slice(&(len as u64).to_le_bytes());
            out.extend_from_slice(&checksum.to_le_bytes());
        }
        for ((_, payload), &(_, at, _, _)) in sections.iter().zip(&placed) {
            out.resize(at, 0);
            out.extend_from_slice(payload);
        }
        out
    }

    /// Parses a snapshot from a full file image. See [`read_snapshot`].
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] variant except `Io`.
    pub fn from_bytes(bytes: &[u8]) -> SnapshotResult<Self> {
        let need = |at: usize, len: usize| -> SnapshotResult<&[u8]> {
            let end = at
                .checked_add(len)
                .ok_or_else(|| malformed("offset overflow"))?;
            bytes.get(at..end).ok_or(SnapshotError::Truncated {
                needed: end as u64,
                available: bytes.len() as u64,
            })
        };
        let get_u16 = |at: usize| -> SnapshotResult<u16> {
            Ok(u16::from_le_bytes(need(at, 2)?.try_into().expect("len 2")))
        };
        let get_u32 = |at: usize| -> SnapshotResult<u32> {
            Ok(u32::from_le_bytes(need(at, 4)?.try_into().expect("len 4")))
        };
        let get_u64 = |at: usize| -> SnapshotResult<u64> {
            Ok(u64::from_le_bytes(need(at, 8)?.try_into().expect("len 8")))
        };

        let magic = get_u32(0)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic { found: magic });
        }
        let version = get_u16(4)?;
        if version > VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let n_sections = get_u16(6)? as usize;
        let epoch = get_u64(8)?;
        let log_seq = get_u64(16)?;

        // Locate and checksum every section before decoding anything.
        let mut found: std::collections::HashMap<u32, &[u8]> = std::collections::HashMap::new();
        for i in 0..n_sections {
            let entry = HEADER_LEN + i * SECTION_ENTRY_LEN;
            let id = get_u32(entry)?;
            let at = get_u64(entry + 8)?;
            let len = get_u64(entry + 16)?;
            let checksum = get_u64(entry + 24)?;
            let at = usize::try_from(at).map_err(|_| malformed("section offset overflow"))?;
            let len = usize::try_from(len).map_err(|_| malformed("section length overflow"))?;
            let payload = need(at, len)?;
            if fnv1a(payload) != checksum {
                return Err(SnapshotError::ChecksumMismatch { section: id });
            }
            if found.insert(id, payload).is_some() {
                return Err(malformed(format!("duplicate section id {id}")));
            }
        }
        let take = |id: u32| -> SnapshotResult<&[u8]> {
            found
                .get(&id)
                .copied()
                .ok_or_else(|| malformed(format!("missing section id {id}")))
        };

        let decode_offsets = |payload: &[u8], what: &str| -> SnapshotResult<Vec<usize>> {
            if !payload.len().is_multiple_of(8) || payload.is_empty() {
                return Err(malformed(format!("{what} section has invalid length")));
            }
            payload
                .chunks_exact(8)
                .map(|c| {
                    let raw = u64::from_le_bytes(c.try_into().expect("len 8"));
                    usize::try_from(raw).map_err(|_| malformed(format!("{what} offset overflow")))
                })
                .collect()
        };
        let decode_adj = |payload: &[u8], what: &str| -> SnapshotResult<Vec<VertexId>> {
            if !payload.len().is_multiple_of(4) {
                return Err(malformed(format!("{what} section has invalid length")));
            }
            Ok(payload
                .chunks_exact(4)
                .map(|c| VertexId::from_le_bytes(c.try_into().expect("len 4")))
                .collect())
        };

        let upper_offsets = decode_offsets(take(section::UPPER_OFFSETS)?, "upper offsets")?;
        let upper_adj = decode_adj(take(section::UPPER_ADJ)?, "upper adjacency")?;
        let lower_offsets = decode_offsets(take(section::LOWER_OFFSETS)?, "lower offsets")?;
        let lower_adj = decode_adj(take(section::LOWER_ADJ)?, "lower adjacency")?;
        if *upper_offsets.last().unwrap_or(&usize::MAX) != upper_adj.len()
            || *lower_offsets.last().unwrap_or(&usize::MAX) != lower_adj.len()
        {
            return Err(malformed("CSR offsets do not span their adjacency"));
        }
        let graph = BipartiteGraph::from_csr_at_epoch(
            upper_offsets,
            upper_adj,
            lower_offsets,
            lower_adj,
            epoch,
        );
        graph
            .validate()
            .map_err(|e| malformed(format!("graph invariants violated: {e}")))?;

        let decode_packed = |payload: &[u8],
                             layer: Layer,
                             what: &str|
         -> SnapshotResult<Vec<(VertexId, PackedSet)>> {
            let n_layer = graph.layer_size(layer);
            let universe = graph.layer_size(layer.opposite());
            let words_per = universe.div_ceil(64);
            if payload.len() < 8 {
                return Err(malformed(format!("{what} section too short for its count")));
            }
            let count = u64::from_le_bytes(payload[..8].try_into().expect("len 8"));
            let count = usize::try_from(count)
                .ok()
                .filter(|&c| c <= n_layer)
                .ok_or_else(|| malformed(format!("{what} count out of range")))?;
            let ids_len = count * 4;
            let ids_pad = (8 - (8 + ids_len) % 8) % 8;
            let expect = 8 + ids_len + ids_pad + count * words_per * 8;
            if payload.len() != expect {
                return Err(malformed(format!(
                    "{what} section length {} does not match its count (expected {expect})",
                    payload.len()
                )));
            }
            let ids = &payload[8..8 + ids_len];
            let words_base = 8 + ids_len + ids_pad;
            let mut entries = Vec::with_capacity(count);
            let mut prev: Option<VertexId> = None;
            for (i, c) in ids.chunks_exact(4).enumerate() {
                let v = VertexId::from_le_bytes(c.try_into().expect("len 4"));
                if (v as usize) >= n_layer {
                    return Err(malformed(format!("{what} vertex {v} out of range")));
                }
                if prev.is_some_and(|p| p >= v) {
                    return Err(malformed(format!("{what} vertex ids not strictly sorted")));
                }
                prev = Some(v);
                let start = words_base + i * words_per * 8;
                let words: Vec<u64> = payload[start..start + words_per * 8]
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("len 8")))
                    .collect();
                // `PackedSet::from_words` panics on bits beyond the
                // universe; reject them as data corruption instead.
                if !universe.is_multiple_of(64) {
                    let tail = words.last().copied().unwrap_or(0);
                    if tail >> (universe % 64) != 0 {
                        return Err(malformed(format!(
                            "{what} bitmap for vertex {v} has bits beyond its universe"
                        )));
                    }
                }
                entries.push((v, PackedSet::from_words(words, universe)));
            }
            Ok(entries)
        };
        let packed_upper =
            decode_packed(take(section::PACKED_UPPER)?, Layer::Upper, "packed upper")?;
        let packed_lower =
            decode_packed(take(section::PACKED_LOWER)?, Layer::Lower, "packed lower")?;

        Ok(Self {
            graph,
            log_seq,
            packed_upper,
            packed_lower,
        })
    }
}

/// Captures `graph` (stamped with `log_seq`) and writes it to `path` —
/// the one-call writer. See [`GraphSnapshot::capture`] /
/// [`GraphSnapshot::write_to`].
///
/// # Errors
///
/// [`SnapshotError::Io`] on filesystem failure.
pub fn write_snapshot(path: &Path, graph: &BipartiteGraph, log_seq: u64) -> SnapshotResult<()> {
    GraphSnapshot::capture(graph, log_seq).write_to(path)
}

/// Reads, validates, and adopts a snapshot file — all-or-nothing (see the
/// module docs on failure atomicity).
///
/// # Errors
///
/// Any [`SnapshotError`]: `Io` when the file cannot be read, `BadMagic` /
/// `UnsupportedVersion` for foreign or future files, `Truncated` /
/// `ChecksumMismatch` / `Malformed` for corrupt ones.
pub fn read_snapshot(path: &Path) -> SnapshotResult<GraphSnapshot> {
    let bytes = std::fs::read(path)?;
    GraphSnapshot::from_bytes(&bytes)
}
