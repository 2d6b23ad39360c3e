//! The library's index image against the reference builder's on a
//! LUBM graph of the ledger fixture's size (scale 100 000, seed 42:
//! 91 542 triples, 210 820 paths). The testkit sweep
//! (`image_round_trip_identity`) does the same on every generated case.

use datasets::lubm::{generate, LubmConfig};
use path_index::{encode_v2, PathIndex};
use sama_testkit::reference_image::{reference_image, without_build_time};

#[test]
fn lubm_image_equals_the_reference_builders() {
    let data = generate(&LubmConfig::sized_for(100_000, 42)).graph;
    assert!(data.edge_count() >= 90_000, "{} triples", data.edge_count());
    let want = without_build_time(&reference_image(&data));
    let got = without_build_time(&encode_v2(&PathIndex::build(data)).unwrap());
    assert_eq!(got.len(), want.len());
    let first = got.iter().zip(&want).position(|(a, b)| a != b);
    assert_eq!(first, None, "first differing byte");
}
