//! The file database the dataflows read.
//!
//! The paper uses the input files of the three applications as "a
//! database of files": 125 files totalling 76.69 GB, split into ≤128 MB
//! partitions (713 partitions in total), with **four potential indexes
//! per file** — sized using the Table 5 column percentages of TPC-H
//! `lineitem` (`comment`, `shipinstruct`, `commitdate`, `orderkey`).

use flowtune_common::{FileId, IndexId, PartitionId, SimRng};

use crate::apps::App;

/// Maximum partition size (128 MB), as in the paper.
pub const MAX_PARTITION_BYTES: u64 = 128 * 1024 * 1024;

/// Average row size of the file contents: lineitem-like rows (~117 B),
/// used to convert partition bytes to row counts for the index models.
pub const ROW_BYTES: f64 = 117.0;

/// The four indexable columns with their average key sizes in bytes
/// (from the TPC-H `lineitem` statistics behind Table 5).
pub const INDEX_COLUMNS: [(&str, f64); 4] = [
    ("comment", 27.0),
    ("shipinstruct", 12.0),
    ("commitdate", 10.0),
    ("orderkey", 4.0),
];

/// One partition of a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionInfo {
    /// Identity.
    pub id: PartitionId,
    /// Size in bytes (≤ [`MAX_PARTITION_BYTES`]).
    pub bytes: u64,
    /// Approximate row count (`bytes / ROW_BYTES`).
    pub rows: u64,
}

/// One file in the database.
#[derive(Debug, Clone)]
pub struct FileEntry {
    /// Identity.
    pub id: FileId,
    /// The application whose dataflows read this file.
    pub app: App,
    /// Total size in bytes.
    pub bytes: u64,
    /// Partitions (≤ 128 MB each).
    pub partitions: Vec<PartitionInfo>,
}

/// A potential (advisor-suggested) index over one column of one file.
///
/// The id is stable: the `flowtune-core` service registers potential
/// indexes into the `flowtune-index` catalog in this exact order, so the
/// ordinal here *is* the catalog [`IndexId`].
#[derive(Debug, Clone)]
pub struct PotentialIndex {
    /// Stable identity (position in [`FileDatabase::potential_indexes`]).
    pub id: IndexId,
    /// Indexed file.
    pub file: FileId,
    /// Indexed column name.
    pub column: &'static str,
    /// Average key size in bytes (index record = key + 8-byte row
    /// pointer).
    pub key_bytes: f64,
}

impl PotentialIndex {
    /// Average index record size: key plus an 8-byte row pointer.
    pub fn rec_bytes(&self) -> f64 {
        self.key_bytes + 8.0
    }
}

/// The full file database.
#[derive(Debug, Clone)]
pub struct FileDatabase {
    files: Vec<FileEntry>,
    indexes: Vec<PotentialIndex>,
}

impl FileDatabase {
    /// Generate the database: for each application, its Table 4 file
    /// count with sizes sampled from its input-size distribution, split
    /// into partitions, plus four potential indexes per file.
    pub fn generate(rng: &mut SimRng) -> Self {
        let mut files = Vec::new();
        for app in App::ALL {
            for _ in 0..app.stats().input_files {
                let id = FileId::from_index(files.len());
                let bytes = app.sample_file_bytes(rng);
                files.push(FileEntry {
                    id,
                    app,
                    bytes,
                    partitions: partition(id, bytes),
                });
            }
        }
        let mut indexes = Vec::new();
        for f in &files {
            for (column, key_bytes) in INDEX_COLUMNS {
                indexes.push(PotentialIndex {
                    id: IndexId::from_index(indexes.len()),
                    file: f.id,
                    column,
                    key_bytes,
                });
            }
        }
        FileDatabase { files, indexes }
    }

    /// All files.
    pub fn files(&self) -> &[FileEntry] {
        &self.files
    }

    /// File by id.
    pub fn file(&self, id: FileId) -> &FileEntry {
        &self.files[id.index()]
    }

    /// Files read by one application's dataflows.
    pub fn files_of(&self, app: App) -> impl Iterator<Item = &FileEntry> {
        self.files.iter().filter(move |f| f.app == app)
    }

    /// All partitions of one application's files, in id order.
    pub fn partitions_of(&self, app: App) -> Vec<PartitionId> {
        self.files_of(app)
            .flat_map(|f| f.partitions.iter().map(|p| p.id))
            .collect()
    }

    /// Partition info by id.
    pub fn partition(&self, id: PartitionId) -> &PartitionInfo {
        &self.files[id.file.index()].partitions[id.part as usize]
    }

    /// All potential indexes (four per file), id-ordered.
    pub fn potential_indexes(&self) -> &[PotentialIndex] {
        &self.indexes
    }

    /// Potential indexes over one file.
    pub fn indexes_of(&self, file: FileId) -> impl Iterator<Item = &PotentialIndex> {
        self.indexes.iter().filter(move |i| i.file == file)
    }

    /// The file's *primary* candidate index — the one an index advisor
    /// would suggest most often for this file's dominant access pattern.
    /// Deterministic per file, spread across the four columns.
    pub fn primary_index_of(&self, file: FileId) -> &PotentialIndex {
        let pick = (file.0 as usize).wrapping_mul(2654435761) % INDEX_COLUMNS.len();
        #[expect(
            clippy::expect_used,
            reason = "indexes_of yields one entry per INDEX_COLUMNS and pick < its length"
        )]
        self.indexes_of(file)
            .nth(pick)
            .expect("every file has four indexes")
    }

    /// Total bytes across all files.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.bytes).sum()
    }

    /// Total number of partitions.
    pub fn total_partitions(&self) -> usize {
        self.files.iter().map(|f| f.partitions.len()).sum()
    }
}

fn partition(file: FileId, bytes: u64) -> Vec<PartitionInfo> {
    let mut parts = Vec::new();
    let mut remaining = bytes.max(1);
    let mut ordinal = 0u32;
    while remaining > 0 {
        let sz = remaining.min(MAX_PARTITION_BYTES);
        parts.push(PartitionInfo {
            id: PartitionId::new(file, ordinal),
            bytes: sz,
            rows: (sz as f64 / ROW_BYTES).round() as u64,
        });
        remaining -= sz;
        ordinal += 1;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> FileDatabase {
        FileDatabase::generate(&mut SimRng::seed_from_u64(42))
    }

    #[test]
    fn file_counts_match_table4() {
        let db = db();
        assert_eq!(db.files().len(), 125);
        assert_eq!(db.files_of(App::Montage).count(), 20);
        assert_eq!(db.files_of(App::Ligo).count(), 53);
        assert_eq!(db.files_of(App::Cybershake).count(), 52);
    }

    #[test]
    fn totals_are_in_the_papers_ballpark() {
        let db = db();
        let gb = db.total_bytes() as f64 / (1024.0 * 1024.0 * 1024.0);
        // Paper: 76.69 GB and 713 partitions. Sampling noise allowed.
        assert!((40.0..120.0).contains(&gb), "total {gb:.1} GB");
        let parts = db.total_partitions();
        assert!((400..1100).contains(&parts), "{parts} partitions");
    }

    #[test]
    fn partitions_respect_max_size_and_cover_file() {
        let db = db();
        for f in db.files() {
            let sum: u64 = f.partitions.iter().map(|p| p.bytes).sum();
            assert_eq!(sum, f.bytes.max(1), "file {}", f.id);
            for p in &f.partitions {
                assert!(p.bytes <= MAX_PARTITION_BYTES);
                assert_eq!(p.id.file, f.id);
            }
        }
    }

    #[test]
    fn four_potential_indexes_per_file_with_stable_ids() {
        let db = db();
        assert_eq!(db.potential_indexes().len(), 125 * 4);
        for (i, idx) in db.potential_indexes().iter().enumerate() {
            assert_eq!(idx.id.index(), i);
        }
        let on_f3: Vec<_> = db.indexes_of(FileId(3)).collect();
        assert_eq!(on_f3.len(), 4);
        let cols: Vec<&str> = on_f3.iter().map(|i| i.column).collect();
        assert_eq!(cols, ["comment", "shipinstruct", "commitdate", "orderkey"]);
    }

    #[test]
    fn index_record_sizes_reproduce_table5_ordering() {
        let db = db();
        let recs: Vec<f64> = db.indexes_of(FileId(0)).map(|i| i.rec_bytes()).collect();
        // comment > shipinstruct > commitdate > orderkey, as in Table 5.
        assert!(recs.windows(2).all(|w| w[0] > w[1]), "{recs:?}");
        // Percent of table size: comment ≈ 30 %, orderkey ≈ 10 %.
        let pct: Vec<f64> = recs.iter().map(|r| r / ROW_BYTES * 100.0).collect();
        assert!((25.0..35.0).contains(&pct[0]), "comment {:.1} %", pct[0]);
        assert!((8.0..13.0).contains(&pct[3]), "orderkey {:.1} %", pct[3]);
    }

    #[test]
    fn partition_lookup_round_trips() {
        let db = db();
        let app_parts = db.partitions_of(App::Montage);
        assert!(!app_parts.is_empty());
        for pid in app_parts {
            let info = db.partition(pid);
            assert_eq!(info.id, pid);
            assert!(info.rows > 0);
        }
    }

    #[test]
    fn primary_index_is_stable_and_covers_columns() {
        let db = db();
        let a = db.primary_index_of(FileId(3)).id;
        assert_eq!(db.primary_index_of(FileId(3)).id, a);
        // The primaries are spread over different columns.
        let distinct: std::collections::HashSet<&str> = (0..20)
            .map(|i| db.primary_index_of(FileId(i)).column)
            .collect();
        assert!(distinct.len() >= 2, "primaries all collapsed to one column");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = FileDatabase::generate(&mut SimRng::seed_from_u64(7));
        let b = FileDatabase::generate(&mut SimRng::seed_from_u64(7));
        assert_eq!(a.total_bytes(), b.total_bytes());
        assert_eq!(a.total_partitions(), b.total_partitions());
    }
}
