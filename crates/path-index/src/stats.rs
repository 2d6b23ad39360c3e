//! Indexing statistics — the raw material for the paper's Table 1.

use std::time::Duration;

/// Statistics collected while building (and optionally serializing) a
/// [`crate::PathIndex`].
///
/// Table 1 of the paper reports, per dataset: number of triples, number
/// of hypergraph vertices `|HV|`, number of hyperedges `|HE|`, index
/// build time, and on-disk space. Each column maps to a field here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of triples (= edges) in the data graph.
    pub triples: usize,
    /// `|HV|`: vertices of the hypergraph view.
    pub hyper_vertices: usize,
    /// `|HE|`: hyperedges (stars + paths) of the hypergraph view.
    pub hyper_edges: usize,
    /// Number of indexed source→sink paths.
    pub path_count: usize,
    /// Wall-clock time spent extracting paths and building the inverted
    /// maps.
    pub build_time: Duration,
    /// Serialized size in bytes, populated by
    /// [`crate::serialize_index_v2`] (Table 1's "Space" column).
    pub serialized_bytes: Option<usize>,
    /// Walks cut short by the extraction depth limit.
    pub depth_truncated: u64,
    /// Paths dropped by extraction budgets.
    pub dropped: u64,
}

impl IndexStats {
    /// `true` if extraction limits altered the indexed path set — Table 1
    /// runs must report this (the paper's numbers assume full coverage).
    pub fn is_truncated(&self) -> bool {
        self.depth_truncated > 0 || self.dropped > 0
    }

    /// Render as a Table 1 row: `triples |HV| |HE| time space`.
    pub fn table1_row(&self, dataset: &str) -> String {
        let space = match self.serialized_bytes {
            Some(b) => format_bytes(b),
            None => "-".to_string(),
        };
        format!(
            "{dataset}\t{}\t{}\t{}\t{:.2?}\t{space}",
            self.triples, self.hyper_vertices, self.hyper_edges, self.build_time
        )
    }
}

/// Human-readable byte count (KB/MB/GB, powers of 1024).
pub fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KB", "MB", "GB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_flag() {
        let mut s = IndexStats::default();
        assert!(!s.is_truncated());
        s.depth_truncated = 1;
        assert!(s.is_truncated());
        s.depth_truncated = 0;
        s.dropped = 2;
        assert!(s.is_truncated());
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.0 KB");
        assert_eq!(format_bytes(5 * 1024 * 1024), "5.0 MB");
        assert_eq!(format_bytes(3 * 1024 * 1024 * 1024), "3.0 GB");
    }

    #[test]
    fn table1_row_shape() {
        let s = IndexStats {
            triples: 100,
            hyper_vertices: 40,
            hyper_edges: 120,
            serialized_bytes: Some(2048),
            ..Default::default()
        };
        let row = s.table1_row("toy");
        assert!(row.starts_with("toy\t100\t40\t120\t"));
        assert!(row.ends_with("2.0 KB"));
    }
}
