//! # path-index
//!
//! The off-line indexing substrate of the Sama workspace — the
//! replacement for the paper's HyperGraphDB + Lucene stack (Section
//! 6.1).
//!
//! Responsibilities:
//!
//! * enumerate every source→sink path of a data graph
//!   ([`extract::extract_paths`]), with hub promotion for source-less
//!   graphs and cycle-safe simple-path walks, one traversal per source
//!   as the paper describes;
//! * keep those paths with materialized label sequences, behind
//!   inverted *label → paths* and *sink label → paths* postings
//!   ([`PathIndex`], the builder's side, held in the image's flat
//!   pools), so query answering can "skip the expensive graph traversal
//!   at runtime";
//! * account for the hypergraph representation (`|HV|`, `|HE|`) used by
//!   Table 1, counted by the build without spelling the hyperedges out;
//! * serialize the whole index to the one on-disk image, `SAMAIDX2`
//!   ([`v2`]) — the paper's disk boundary and the Table 1 *Space*
//!   column — and serve it in place from a memory map
//!   ([`MappedIndex`], the one [`IndexLike`]: every query reads the
//!   image, never the builder's structs);
//! * widen label matching through pluggable synonym providers
//!   ([`synonyms`]), standing in for the paper's WordNet integration.
//!
//! ```
//! use path_index::PathIndex;
//! use rdf_model::DataGraph;
//!
//! let mut b = DataGraph::builder();
//! b.triple_str("CarlaBunes", "sponsor", "A0056").unwrap();
//! b.triple_str("A0056", "aTo", "B1432").unwrap();
//! b.triple_str("B1432", "subject", "\"Health Care\"").unwrap();
//! let index = PathIndex::build(b.build());
//! assert_eq!(index.path_count(), 1);
//! ```

#![warn(missing_docs)]

pub mod extract;
pub mod ic;
pub mod index;
pub mod index_like;
pub mod lsh;
pub mod path;
pub mod stats;
pub mod storage;
pub mod synonyms;
pub mod update;
pub mod v2;

pub use extract::{extract_into, extract_paths, Extraction, ExtractionConfig, ExtractionCounts};
pub use ic::{IcCounts, IcTable};
pub use index::{IndexedPath, PathIndex};
pub use index_like::{display_path, ConstantLookup, IndexLike};
pub use lsh::{build_lsh_bytes, LshCandidate, LshParams, LshSidecar, LSH_MAGIC};
pub use path::{display_parts, LabelsRef, Path, PathDisplay, PathId, PathLabels, PathNodes};
pub use stats::{format_bytes, IndexStats};
pub use storage::StorageError;
pub use synonyms::{NoSynonyms, SynonymProvider, Thesaurus, ThesaurusError};
pub use update::UpdateStats;
pub use v2::{
    decode_any, decode_v2, encode_v2, serialize_index_v2, AlignedBytes, IndexView, MappedIndex,
    MAGIC2,
};
