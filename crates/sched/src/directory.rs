//! The process-location (PL) table.
//!
//! §2 of the paper: the lookup service "could have a centralized or
//! distributed structure depending on the applications' needs". This
//! reproduction ships one: a centralized, dense rank-indexed table
//! ([`IndexedDirectory`]) owned by the scheduler.

use snow_vm::wire::ExeStatus;
use snow_vm::{Rank, Vmid};

/// One PL-table row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlEntry {
    /// Current (or new, when migrating) location.
    pub vmid: Vmid,
    /// Execution status reported to lookups.
    pub status: ExeStatus,
}

/// Dense rank-indexed PL table: O(1) lookup and insert.
///
/// SNOW ranks are dense small integers assigned at launch (0..n), so a
/// flat `Vec<Option<PlEntry>>` indexed by rank beats any tree or hash
/// structure: a lookup is one bounds check and one array load. At
/// thousands of ranks a `BTreeMap`'s O(log n) pointer chase on *every*
/// consult (each nacked sender consults the scheduler, Fig 8 line 4)
/// shows up in the scale bench; `benches/post_office.rs` keeps that
/// comparison.
///
/// Degrades gracefully on sparse rank spaces: the vector grows to the
/// largest rank seen, so pathological rank values waste memory, not
/// time. The launch paths in this repo always use dense ranks.
#[derive(Debug, Clone, Default)]
pub struct IndexedDirectory {
    rows: Vec<Option<PlEntry>>,
    live: usize,
}

impl IndexedDirectory {
    /// Empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty directory pre-sized for `n` ranks (avoids regrowth during
    /// the launch registration burst).
    pub fn with_capacity(n: usize) -> Self {
        IndexedDirectory {
            rows: vec![None; n],
            live: 0,
        }
    }

    /// Insert or overwrite a rank's entry.
    pub fn insert(&mut self, rank: Rank, entry: PlEntry) {
        if rank >= self.rows.len() {
            self.rows.resize(rank + 1, None);
        }
        if self.rows[rank].replace(entry).is_none() {
            self.live += 1;
        }
    }

    /// Look up a rank.
    pub fn lookup(&self, rank: Rank) -> Option<PlEntry> {
        self.rows.get(rank).copied().flatten()
    }

    /// All entries, ordered by rank (the PL table shipped to an
    /// initialized process, Fig 7 line 6).
    pub fn entries(&self) -> Vec<(Rank, PlEntry)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(r, e)| e.map(|e| (r, e)))
            .collect()
    }

    /// Number of known ranks.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no rank is registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_vm::HostId;
    use std::collections::BTreeMap;

    fn vmid(h: u32, p: u32) -> Vmid {
        Vmid {
            host: HostId(h),
            pid: p,
        }
    }

    #[test]
    fn insert_lookup_overwrite() {
        let mut t = IndexedDirectory::new();
        assert!(t.is_empty());
        t.insert(
            0,
            PlEntry {
                vmid: vmid(0, 0),
                status: ExeStatus::Running,
            },
        );
        assert_eq!(t.lookup(0).unwrap().vmid, vmid(0, 0));
        t.insert(
            0,
            PlEntry {
                vmid: vmid(1, 0),
                status: ExeStatus::Migrated,
            },
        );
        let e = t.lookup(0).unwrap();
        assert_eq!(e.vmid, vmid(1, 0));
        assert_eq!(e.status, ExeStatus::Migrated);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn entries_ordered_by_rank() {
        let mut t = IndexedDirectory::new();
        for r in [3usize, 1, 2, 0] {
            t.insert(
                r,
                PlEntry {
                    vmid: vmid(0, r as u32),
                    status: ExeStatus::Running,
                },
            );
        }
        let ranks: Vec<Rank> = t.entries().iter().map(|(r, _)| *r).collect();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn missing_rank_is_none() {
        let t = IndexedDirectory::new();
        assert_eq!(t.lookup(9), None);
    }

    #[test]
    fn indexed_roundtrip_matches_central_table() {
        // Reference: the paper's centralized table as a plain ordered map.
        let mut idx = IndexedDirectory::with_capacity(8);
        let mut reference: BTreeMap<Rank, PlEntry> = BTreeMap::new();
        assert!(idx.is_empty());
        for r in [5usize, 0, 3, 7, 3, 12] {
            let e = PlEntry {
                vmid: vmid(0, r as u32),
                status: ExeStatus::Running,
            };
            idx.insert(r, e);
            reference.insert(r, e);
        }
        assert_eq!(idx.len(), reference.len());
        let want: Vec<(Rank, PlEntry)> = reference.iter().map(|(r, e)| (*r, *e)).collect();
        assert_eq!(idx.entries(), want, "same ordered snapshot");
        for r in 0..16 {
            assert_eq!(idx.lookup(r), reference.get(&r).copied(), "rank {r}");
        }
    }

    #[test]
    fn indexed_overwrite_keeps_count() {
        let mut idx = IndexedDirectory::new();
        let running = PlEntry {
            vmid: vmid(0, 0),
            status: ExeStatus::Running,
        };
        let migrated = PlEntry {
            vmid: vmid(1, 0),
            status: ExeStatus::Migrated,
        };
        idx.insert(4, running);
        idx.insert(4, migrated);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.lookup(4), Some(migrated));
        assert_eq!(idx.lookup(3), None, "holes stay empty");
        assert_eq!(idx.lookup(99), None, "out of range is None, not panic");
    }
}
