//! Corpus-derived information-content (IC) weights for labels.
//!
//! The paper's system weighted label mismatches instead of pricing every
//! substitution uniformly. We reproduce that with the classic corpus
//! estimate `ic(l) = -log Pr(l)`: label occurrence counts are gathered
//! over the *indexed paths* at build time (every node and edge label
//! occurrence counts once per position, so the estimate reflects what
//! alignment actually compares), smoothed, and normalized so the mean
//! weight over the vocabulary is exactly `1.0` — a corpus where every
//! label occurs equally often yields the uniform table, and the weighted
//! cost model degenerates bit-for-bit to the paper's.
//!
//! The counts — not the weights — are what gets persisted (the
//! `ic-counts` section of the SAMAIDX2 format, see [`crate::v2`]):
//! counts are exact integers, while floats would accumulate
//! representation drift. Weights are recomputed from counts on load, so
//! an owned and a mapped index derive the identical table from the
//! identical integers.

use crate::storage::StorageError;
use rdf_model::LabelId;
use std::sync::Arc;

/// Per-label occurrence counts over the indexed paths of one corpus.
///
/// `counts[l]` is the number of node/edge positions carrying label `l`
/// across every indexed path; `total` is the sum of all counts. The
/// vector is indexed by `LabelId` and covers the whole vocabulary
/// (labels that never occur on a path — e.g. interned but unused terms
/// — hold zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcCounts {
    /// Occurrences per label, indexed by `LabelId`.
    pub counts: Vec<u64>,
    /// Sum of `counts` (stored redundantly as a corruption check).
    pub total: u64,
}

impl IcCounts {
    /// Tally label occurrences from an iterator of per-path label
    /// sequences (nodes and edges alike), over a vocabulary of
    /// `vocab_len` labels.
    pub fn tally<I, L>(vocab_len: usize, paths: I) -> Self
    where
        I: IntoIterator<Item = L>,
        L: IntoIterator<Item = LabelId>,
    {
        let mut counts = vec![0u64; vocab_len];
        let mut total = 0u64;
        for labels in paths {
            for label in labels {
                if let Some(slot) = counts.get_mut(label.index()) {
                    *slot += 1;
                    total += 1;
                }
            }
        }
        IcCounts { counts, total }
    }

    /// Serialize as the `ic-counts` section payload: `total` followed by
    /// one `u64` per label, all little-endian.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * (1 + self.counts.len()));
        out.extend_from_slice(&self.total.to_le_bytes());
        for &c in &self.counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// Decode a section payload produced by [`IcCounts::to_bytes`] for a
    /// vocabulary of `vocab_len` labels.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] when the payload length does not match
    /// the vocabulary, or the stored total disagrees with the summed
    /// counts (a flipped bit anywhere in the section trips this).
    pub fn from_bytes(bytes: &[u8], vocab_len: usize) -> Result<Self, StorageError> {
        let expected = 8usize
            .checked_mul(vocab_len + 1)
            .ok_or(StorageError::Corrupt("ic counts section size overflows"))?;
        if bytes.len() != expected {
            return Err(StorageError::Corrupt("ic counts section size mismatch"));
        }
        let word = |i: usize| {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            u64::from_le_bytes(buf)
        };
        let total = word(0);
        let mut counts = Vec::with_capacity(vocab_len);
        let mut sum = 0u64;
        for i in 0..vocab_len {
            let c = word(i + 1);
            sum = sum
                .checked_add(c)
                .ok_or(StorageError::Corrupt("ic counts overflow"))?;
            counts.push(c);
        }
        if sum != total {
            return Err(StorageError::Corrupt("ic counts checksum mismatch"));
        }
        Ok(IcCounts { counts, total })
    }
}

/// The per-label mismatch weights derived from [`IcCounts`].
///
/// `weight(l) = ic(l) / mean_ic` with the smoothed estimate
/// `ic(l) = -log2((count(l) + 1) / (total + |V|))` — add-one smoothing
/// keeps absent labels finite, and mean-normalization keeps the
/// weighted cost model on the same scale as the uniform one (the mean
/// weight over the vocabulary is exactly `1.0`). Cheap to clone (the
/// weight array is shared).
#[derive(Debug, Clone)]
pub struct IcTable {
    weights: Arc<[f64]>,
    /// Weight charged for a query constant absent from the data
    /// vocabulary: the zero-count (maximum) information content.
    absent: f64,
}

impl IcTable {
    /// Derive the weight table from occurrence counts.
    pub fn from_counts(counts: &IcCounts) -> Self {
        let len = counts.counts.len();
        if len == 0 {
            return IcTable {
                weights: Arc::from([]),
                absent: 1.0,
            };
        }
        let denom = (counts.total + len as u64) as f64;
        let ic = |count: u64| -(((count + 1) as f64) / denom).log2();
        let raw: Vec<f64> = counts.counts.iter().map(|&c| ic(c)).collect();
        let mean = raw.iter().sum::<f64>() / len as f64;
        let normalize = |v: f64| if mean > 0.0 { v / mean } else { 1.0 };
        IcTable {
            weights: raw.into_iter().map(normalize).collect(),
            absent: normalize(ic(0)),
        }
    }

    /// The uniform table over `len` labels: every weight exactly `1.0`.
    /// Under this table the weighted cost model is bit-identical to the
    /// unweighted one — the differential baseline of the testkit's
    /// `synonyms_converge_to_exact` invariant.
    pub fn uniform(len: usize) -> Self {
        IcTable {
            weights: vec![1.0; len].into(),
            absent: 1.0,
        }
    }

    /// Number of labels covered.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` when the table covers no labels.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The mismatch weight of `label`; out-of-range ids price as
    /// [`IcTable::absent_weight`].
    #[inline]
    pub fn weight(&self, label: LabelId) -> f64 {
        self.weights
            .get(label.index())
            .copied()
            .unwrap_or(self.absent)
    }

    /// The weight charged for labels absent from the corpus entirely.
    #[inline]
    pub fn absent_weight(&self) -> f64 {
        self.absent
    }

    /// `true` when every weight (and the absent weight) is finite and
    /// non-negative — the precondition Theorem 1 places on the cost
    /// model.
    pub fn is_valid(&self) -> bool {
        self.absent.is_finite()
            && self.absent >= 0.0
            && self.weights.iter().all(|w| w.is_finite() && *w >= 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(v: &[u64]) -> IcCounts {
        IcCounts {
            counts: v.to_vec(),
            total: v.iter().sum(),
        }
    }

    #[test]
    fn equal_frequencies_yield_exactly_uniform_weights() {
        let table = IcTable::from_counts(&counts(&[5, 5, 5, 5]));
        for i in 0..4u32 {
            assert_eq!(table.weight(LabelId(i)), 1.0, "label {i}");
        }
    }

    #[test]
    fn rare_labels_weigh_more_than_common_ones() {
        let table = IcTable::from_counts(&counts(&[100, 1, 10]));
        let common = table.weight(LabelId(0));
        let rare = table.weight(LabelId(1));
        let mid = table.weight(LabelId(2));
        assert!(rare > mid && mid > common, "{rare} > {mid} > {common}");
        assert!(table.absent_weight() >= rare);
    }

    #[test]
    fn weights_are_finite_and_non_negative() {
        for case in [&[0u64, 0, 0][..], &[1], &[u32::MAX as u64, 0, 7]] {
            let table = IcTable::from_counts(&counts(case));
            assert!(table.is_valid(), "{case:?}");
        }
        assert!(IcTable::from_counts(&counts(&[])).is_valid());
        assert!(IcTable::uniform(0).is_valid());
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let c = counts(&[3, 0, 17, 1]);
        let bytes = c.to_bytes();
        let decoded = IcCounts::from_bytes(&bytes, 4).unwrap();
        assert_eq!(decoded, c);
        assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn checksum_detects_flipped_counts() {
        let mut bytes = counts(&[3, 0, 17, 1]).to_bytes();
        bytes[8] ^= 1; // first count
        assert!(matches!(
            IcCounts::from_bytes(&bytes, 4),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn size_mismatch_is_typed() {
        let bytes = counts(&[1, 2]).to_bytes();
        assert!(IcCounts::from_bytes(&bytes, 3).is_err());
        assert!(IcCounts::from_bytes(&bytes[..bytes.len() - 1], 2).is_err());
    }

    #[test]
    fn out_of_range_labels_price_as_absent() {
        let table = IcTable::from_counts(&counts(&[2, 2]));
        assert_eq!(table.weight(LabelId(99)), table.absent_weight());
    }
}
