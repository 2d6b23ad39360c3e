//! The validation pass against the one it replaced. [`IndexView::validate`]
//! folds over each section and rescans only to name a fault; the
//! reference below is the earlier early-exit pass, kept verbatim. On
//! every mutated image of the sweeps — each truncation, each flipped
//! bit, each 32-bit word overwritten with an edge value, and random
//! multi-word faults — the two must return the identical `Result`,
//! variant and message.

use super::*;
use proptest::prelude::*;

impl IndexView<'_> {
    /// The validation pass as it was before the reductions: one
    /// early-exit scan per check, in the same order.
    fn validate_reference(&self) -> Result<(), StorageError> {
        let l = &self.layout;
        let corrupt = |what: &'static str| StorageError::Corrupt(what);

        // Vocabulary: monotone offsets, utf-8 entries, known kinds.
        let vocab = &self.vocab;
        if vocab.offs[0] != 0 || *vocab.offs.last().expect("len >= 1") as usize != vocab.blob.len()
        {
            return Err(corrupt("vocab offsets do not span blob"));
        }
        for w in vocab.offs.windows(2) {
            if w[0] > w[1] {
                return Err(corrupt("vocab offsets not monotone"));
            }
        }
        for id in 0..l.vocab_len as u32 {
            if std::str::from_utf8(vocab.lexical_bytes(id)).is_err() {
                return Err(StorageError::BadUtf8);
            }
        }
        if vocab.kinds.iter().any(|&k| k > 3) {
            return Err(corrupt("unknown term kind"));
        }

        // Constant table: every used slot a label id, and an empty slot.
        if vocab
            .constants
            .iter()
            .any(|&id| id != EMPTY && id as usize >= l.vocab_len)
        {
            return Err(corrupt("constant table slot out of range"));
        }
        if !vocab.constants.contains(&EMPTY) {
            return Err(corrupt("constant table has no empty slot"));
        }

        // Graph arrays: ids in range, no variable labels in data.
        let label_ok =
            |l_: LabelId| (l_.0 as usize) < l.vocab_len && vocab.kinds[l_.0 as usize] != 3;
        if !self.node_labels.iter().copied().all(label_ok) {
            return Err(corrupt("node label out of range"));
        }
        if !self.edge_label.iter().copied().all(label_ok) {
            return Err(corrupt("edge label out of range"));
        }
        if self
            .edge_from
            .iter()
            .chain(self.edge_to.iter())
            .any(|n| n.0 as usize >= l.node_count)
        {
            return Err(corrupt("edge endpoint out of range"));
        }

        // Path CSR: strictly increasing offsets spanning the pools.
        if self.path_offs[0] != 0
            || *self.path_offs.last().expect("len >= 1") as usize != l.node_pool
        {
            return Err(corrupt("path offsets do not span pool"));
        }
        if self.path_offs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt("empty path"));
        }
        if self.path_nodes.iter().any(|n| n.0 as usize >= l.node_count) {
            return Err(corrupt("path node out of range"));
        }
        if self.path_edges.iter().any(|e| e.0 as usize >= l.edge_count) {
            return Err(corrupt("path edge out of range"));
        }

        // Shapes: CSR offsets spanning the pool (a single-node path has
        // the empty shape), labels in range, and every path naming a
        // shape exactly as long as its edge sequence.
        if self.shape_offs[0] != 0
            || *self.shape_offs.last().expect("len >= 1") as usize != self.shape_labels.len()
        {
            return Err(corrupt("shape offsets do not span pool"));
        }
        if self.shape_offs.windows(2).any(|w| w[0] > w[1]) {
            return Err(corrupt("shape offsets not monotone"));
        }
        if !self.shape_labels.iter().copied().all(label_ok) {
            return Err(corrupt("shape label out of range"));
        }
        for (nodes, &shape) in self.path_offs.windows(2).zip(self.path_shapes) {
            let shape = shape as usize;
            if shape >= l.shape_count {
                return Err(corrupt("path shape out of range"));
            }
            if self.shape_offs[shape + 1] - self.shape_offs[shape] != nodes[1] - nodes[0] - 1 {
                return Err(corrupt("shape length does not match path"));
            }
        }

        // Inverted maps: CSR offsets spanning their postings.
        for (offs, posts, span, monotone) in [
            (
                self.label_offs,
                self.label_posts,
                "label offsets do not span postings",
                "label offsets not monotone",
            ),
            (
                self.sink_offs,
                self.sink_posts,
                "sink offsets do not span postings",
                "sink offsets not monotone",
            ),
        ] {
            if offs[0] != 0 || *offs.last().expect("len >= 1") as usize != posts.len() {
                return Err(corrupt(span));
            }
            if offs.windows(2).any(|w| w[0] > w[1]) {
                return Err(corrupt(monotone));
            }
            if posts.iter().any(|p| p.index() >= l.path_count) {
                return Err(corrupt("posting out of range"));
            }
        }
        if self.path_order.iter().any(|p| p.index() >= l.path_count) {
            return Err(corrupt("path order entry out of range"));
        }

        // IC counts: the stored total must equal the summed counts — a
        // flipped bit anywhere in the section trips this.
        let mut sum = 0u64;
        for &c in &self.ic_counts[1..] {
            sum = sum.checked_add(c).ok_or(corrupt("ic counts overflow"))?;
        }
        if sum != self.ic_counts[0] {
            return Err(corrupt("ic counts checksum mismatch"));
        }
        Ok(())
    }
}

/// Two images: chains with shapes of two lengths, a multibyte literal,
/// and — in the second only — a variable-kind vocabulary entry that no
/// data label uses. Built once: the sweeps mutate copies.
fn fixtures() -> &'static [Vec<u8>; 2] {
    static FIXTURES: std::sync::OnceLock<[Vec<u8>; 2]> = std::sync::OnceLock::new();
    FIXTURES.get_or_init(build_fixtures)
}

fn build_fixtures() -> [Vec<u8>; 2] {
    let mut b = DataGraph::builder();
    for i in 0..12 {
        b.triple_str(
            &format!("s{i}"),
            &format!("p{}", i % 4),
            &format!("m{}", i % 9),
        )
        .unwrap();
        b.triple_str(&format!("m{}", i % 9), "q", &format!("\"leaf {}\"", i % 5))
            .unwrap();
    }
    b.triple_str("lone", "p0", "\"Zürich\"").unwrap();
    let data = b.build();
    let plain = encode_v2(&PathIndex::build(data.clone())).unwrap();
    let mut graph = data.as_graph().clone();
    graph.vocab_mut().push_raw(TermKind::Variable, "unused");
    let with_variable =
        encode_v2(&PathIndex::build(DataGraph::try_from_graph(graph).unwrap())).unwrap();
    [plain, with_variable]
}

/// What the new pass and the reference make of `bytes`, once its
/// header and section table parse.
fn both_passes(bytes: &[u8]) -> [Result<(), StorageError>; 2] {
    let owned = AlignedBytes::copy_from(bytes);
    let bytes = owned.as_slice();
    let view = Layout::parse(bytes).map(|layout| layout.view(bytes));
    [
        view.clone().and_then(|view| view.validate()),
        view.and_then(|view| view.validate_reference()),
    ]
}

fn assert_passes_agree(bytes: &[u8], what: &str) -> Result<(), StorageError> {
    let [new, reference] = both_passes(bytes);
    assert_eq!(new, reference, "{what}");
    new
}

fn word_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn with_word(bytes: &[u8], at: usize, value: u32) -> Vec<u8> {
    let mut mutated = bytes.to_vec();
    mutated[at..at + 4].copy_from_slice(&value.to_le_bytes());
    mutated
}

#[test]
fn both_passes_accept_the_fixtures() {
    for bytes in fixtures() {
        assert_eq!(both_passes(bytes), [Ok(()), Ok(())]);
    }
}

#[test]
fn every_truncation_gets_the_same_result() {
    for bytes in fixtures() {
        for cut in 0..bytes.len() {
            assert_passes_agree(&bytes[..cut], &format!("cut at {cut}")).unwrap_err();
        }
    }
}

#[test]
fn every_bit_flip_gets_the_same_result() {
    for bytes in fixtures() {
        let mut rejected = 0;
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[at] ^= 1 << bit;
                let outcome = assert_passes_agree(&mutated, &format!("bit {bit} of byte {at}"));
                rejected += usize::from(outcome.is_err());
            }
        }
        // Past the header, most flips land in sections the pass checks.
        assert!(rejected > bytes.len() * 2, "{rejected} rejected");
    }
}

#[test]
fn every_word_set_to_an_edge_value_gets_the_same_result() {
    for bytes in fixtures() {
        let mut seen = std::collections::BTreeSet::new();
        for at in (HEADER_LEN + TABLE_LEN..bytes.len() - 3).step_by(4) {
            let word = word_at(bytes, at);
            for value in [
                0,
                1,
                u32::MAX,
                word.wrapping_add(1),
                word.wrapping_sub(1),
                word ^ 0x80,
            ] {
                let mutated = with_word(bytes, at, value);
                if let Err(err) = assert_passes_agree(&mutated, &format!("word {at} = {value}")) {
                    seen.insert(err.to_string());
                }
            }
        }
        // The sweep reaches the checks whose kernels changed.
        for message in [
            "invalid UTF-8 in label table",
            "corrupt index: vocab offsets not monotone",
            "corrupt index: node label out of range",
            "corrupt index: empty path",
            "corrupt index: path shape out of range",
            "corrupt index: shape length does not match path",
            "corrupt index: constant table slot out of range",
            "corrupt index: label offsets do not span postings",
            "corrupt index: label offsets not monotone",
            "corrupt index: sink offsets not monotone",
            "corrupt index: path order entry out of range",
            "corrupt index: ic counts checksum mismatch",
        ] {
            assert!(seen.contains(message), "no mutation reached {message:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Several words overwritten at once: the passes must name the same
    /// fault, whichever of them the check order meets first.
    #[test]
    fn random_multi_word_faults_get_the_same_result(
        faults in proptest::collection::vec((0usize..1 << 16, 0u32..=u32::MAX), 1..5),
        image in 0usize..2,
    ) {
        let bytes = &fixtures()[image];
        let mut mutated = bytes.clone();
        let words = (bytes.len() - HEADER_LEN - TABLE_LEN) / 4;
        for (word, value) in faults {
            let at = HEADER_LEN + TABLE_LEN + 4 * (word % words);
            // Small values and near-misses reach deeper checks than
            // uniform ones, which mostly trip the first range test.
            let value = match value % 4 {
                0 => value,
                1 => value % 64,
                _ => word_at(bytes, at).wrapping_add(value % 3).wrapping_sub(1),
            };
            mutated = with_word(&mutated, at, value);
        }
        let [new, reference] = both_passes(&mutated);
        prop_assert_eq!(new, reference);
    }

    /// Arbitrary single-byte corruption anywhere in the file.
    #[test]
    fn random_byte_corruption_gets_the_same_result(at in 0usize..1 << 16, value in 0u8..=255) {
        for bytes in fixtures() {
            let mut mutated = bytes.clone();
            let at = at % mutated.len();
            mutated[at] = value;
            let [new, reference] = both_passes(&mutated);
            prop_assert_eq!(new, reference);
        }
    }
}
