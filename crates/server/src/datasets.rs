//! Resident dataset store: content-addressed, versioned corpora.
//!
//! A dataset is uploaded once (`upload_dataset`) and then referenced by id or
//! name from kNN / pairwise / subsequence queries, so the wire carries queries
//! instead of corpora. Identity is content-addressed: the dataset id is a
//! 128-bit FNV-1a hash over the dataset *name* and the bitwise contents of
//! every series, which makes re-uploading identical content idempotent (same
//! id, same version) and guarantees that a pinned id can never silently refer
//! to different data.
//!
//! Versioning keeps exactly one *current* version per name. Re-uploading a
//! name with different content bumps the version and retires the previous id;
//! queries pinning a retired id (or an explicit `version` that is no longer
//! current) receive a typed [`ErrorCode::StaleVersion`] reply naming both the
//! pinned and the current version, while ids/names that never existed receive
//! [`ErrorCode::NotFound`]. Series are stored as `Arc<[f64]>`, so resolving a
//! dataset for a query clones reference counts, not samples — the resolved
//! series are bitwise the uploaded ones, which is what keeps the served
//! results on the resident path identical to direct `BatchEngine` calls.
//!
//! Each stored series carries its [`BlockSummary`] (per 64-sample block its
//! min and max, plus an all-finite flag), built once when new content is
//! stored — an idempotent re-upload builds none — so every subsequence
//! search over a resident series skips the summary pass and prunes LB_Kim
//! 64 windows at a time. A summary holds two `f64` per 64 samples, about
//! 3 % on top of the samples; the upload reply's `bytes` and the store's
//! byte budget count samples only.

use crate::protocol::{DatasetRef, DatasetSummary, ErrorCode};
use mda_distance::mining::BlockSummary;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Typed failure when resolving or mutating datasets. Carried to the wire as
/// an in-band error reply (`not_found`, `stale_version`, `overloaded`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolveError {
    pub code: ErrorCode,
    pub message: String,
}

impl ResolveError {
    fn not_found(message: impl Into<String>) -> Self {
        ResolveError {
            code: ErrorCode::NotFound,
            message: message.into(),
        }
    }

    fn stale(message: impl Into<String>) -> Self {
        ResolveError {
            code: ErrorCode::StaleVersion,
            message: message.into(),
        }
    }
}

/// A resolved (current-version) dataset, cheap to clone per query.
#[derive(Debug, Clone)]
pub struct ResolvedDataset {
    pub name: String,
    pub dataset_id: String,
    pub version: u64,
    pub labels: Arc<[usize]>,
    pub series: Arc<[Arc<[f64]>]>,
    /// Block summaries, index-aligned with `series`.
    pub summaries: Arc<[Arc<BlockSummary>]>,
    pub bytes: u64,
}

/// Outcome of an upload: the (possibly pre-existing) identity of the content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UploadOutcome {
    pub dataset_id: String,
    pub version: u64,
    pub count: usize,
    pub bytes: u64,
}

struct Stored {
    dataset_id: String,
    version: u64,
    labels: Arc<[usize]>,
    series: Arc<[Arc<[f64]>]>,
    summaries: Arc<[Arc<BlockSummary>]>,
    bytes: u64,
}

#[derive(Default)]
struct Inner {
    /// Current version per name.
    by_name: HashMap<String, Stored>,
    /// Current dataset id -> name.
    id_index: HashMap<String, String>,
    /// Retired dataset id -> (name, version it identified). Lets a pinned old
    /// id produce a precise `stale_version` instead of a generic `not_found`.
    retired: HashMap<String, (String, u64)>,
    total_bytes: u64,
}

/// Thread-safe resident dataset store with a global byte budget.
pub struct DatasetStore {
    inner: Mutex<Inner>,
    max_bytes: u64,
}

/// 128-bit content address: two independent FNV-1a-64 passes (distinct offset
/// bases) over the same byte stream, rendered as 32 hex chars.
fn content_id(name: &str, labels: &[usize], series: &[Vec<f64>]) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h2: u64 = 0x6c62_272e_07bb_0142; // FNV-1a-128 offset basis, low half
    let mut eat = |byte: u8| {
        h1 = (h1 ^ u64::from(byte)).wrapping_mul(PRIME);
        h2 = (h2 ^ u64::from(byte ^ 0x5a)).wrapping_mul(PRIME);
    };
    for b in name.as_bytes() {
        eat(*b);
    }
    eat(0xff); // name/content separator: "ab" + [] never collides with "a" + [b-ish]
    for (label, s) in labels.iter().zip(series) {
        for b in (*label as u64).to_le_bytes() {
            eat(b);
        }
        for b in (s.len() as u64).to_le_bytes() {
            eat(b);
        }
        for x in s {
            for b in x.to_bits().to_le_bytes() {
                eat(b);
            }
        }
    }
    format!("{h1:016x}{h2:016x}")
}

impl DatasetStore {
    pub fn new(max_bytes: u64) -> Self {
        DatasetStore {
            inner: Mutex::new(Inner::default()),
            max_bytes,
        }
    }

    /// Upload (or re-upload) a dataset. Identical content under the same name
    /// is idempotent; changed content bumps the version and retires the old id.
    pub fn upload(
        &self,
        name: &str,
        labels: Vec<usize>,
        series: Vec<Vec<f64>>,
    ) -> Result<UploadOutcome, ResolveError> {
        debug_assert_eq!(labels.len(), series.len());
        let dataset_id = content_id(name, &labels, &series);
        let bytes: u64 = series.iter().map(|s| s.len() as u64 * 8).sum();
        let count = series.len();
        let mut inner = self.inner.lock().unwrap();
        if let Some(existing) = inner.by_name.get(name) {
            if existing.dataset_id == dataset_id {
                return Ok(UploadOutcome {
                    dataset_id,
                    version: existing.version,
                    count,
                    bytes,
                });
            }
        }
        let replaced_bytes = inner.by_name.get(name).map_or(0, |s| s.bytes);
        let projected = inner.total_bytes - replaced_bytes + bytes;
        if projected > self.max_bytes {
            return Err(ResolveError {
                code: ErrorCode::Overloaded,
                message: format!(
                    "dataset store full: {projected} bytes would exceed budget {}",
                    self.max_bytes
                ),
            });
        }
        let version = inner.by_name.get(name).map_or(1, |s| s.version + 1);
        if let Some(old) = inner.by_name.remove(name) {
            inner.id_index.remove(&old.dataset_id);
            inner
                .retired
                .insert(old.dataset_id, (name.to_string(), old.version));
        }
        inner.total_bytes = projected;
        inner.id_index.insert(dataset_id.clone(), name.to_string());
        let summaries = series
            .iter()
            .map(|s| Arc::new(BlockSummary::new(s)))
            .collect::<Vec<_>>()
            .into();
        inner.by_name.insert(
            name.to_string(),
            Stored {
                dataset_id: dataset_id.clone(),
                version,
                labels: labels.into(),
                series: series
                    .into_iter()
                    .map(Arc::<[f64]>::from)
                    .collect::<Vec<_>>()
                    .into(),
                summaries,
                bytes,
            },
        );
        Ok(UploadOutcome {
            dataset_id,
            version,
            count,
            bytes,
        })
    }

    /// Resolve a reference to the current version, with typed stale/missing
    /// discrimination.
    pub fn resolve(&self, dref: &DatasetRef) -> Result<ResolvedDataset, ResolveError> {
        let inner = self.inner.lock().unwrap();
        let (name, pinned_version) = if let Some(id) = &dref.id {
            match inner.id_index.get(id) {
                Some(name) => (name.clone(), None),
                None => {
                    if let Some((name, old_version)) = inner.retired.get(id) {
                        if let Some(current) = inner.by_name.get(name) {
                            return Err(ResolveError::stale(format!(
                                "dataset id {id} pinned version {old_version} of \"{name}\", superseded by version {}",
                                current.version
                            )));
                        }
                        return Err(ResolveError::not_found(format!(
                            "dataset id {id} (\"{name}\" version {old_version}) was dropped"
                        )));
                    }
                    return Err(ResolveError::not_found(format!("no dataset with id {id}")));
                }
            }
        } else if let Some(name) = &dref.name {
            (name.clone(), dref.version)
        } else {
            return Err(ResolveError::not_found(
                "dataset reference names neither id nor name",
            ));
        };
        let stored = inner
            .by_name
            .get(&name)
            .ok_or_else(|| ResolveError::not_found(format!("no dataset named \"{name}\"")))?;
        if let Some(v) = pinned_version {
            if v != stored.version {
                return Err(ResolveError::stale(format!(
                    "dataset \"{name}\" version {v} is not current (current version {})",
                    stored.version
                )));
            }
        }
        Ok(ResolvedDataset {
            name,
            dataset_id: stored.dataset_id.clone(),
            version: stored.version,
            labels: Arc::clone(&stored.labels),
            series: Arc::clone(&stored.series),
            summaries: Arc::clone(&stored.summaries),
            bytes: stored.bytes,
        })
    }

    /// All current datasets, sorted by name (deterministic listing).
    pub fn list(&self) -> Vec<DatasetSummary> {
        let inner = self.inner.lock().unwrap();
        let mut items: Vec<DatasetSummary> = inner
            .by_name
            .iter()
            .map(|(name, s)| DatasetSummary {
                name: name.clone(),
                dataset_id: s.dataset_id.clone(),
                version: s.version,
                count: s.series.len(),
                bytes: s.bytes,
            })
            .collect();
        items.sort_by(|a, b| a.name.cmp(&b.name));
        items
    }

    /// Drop the dataset a reference points at. Returns the number of datasets
    /// removed (always 1 on success); a missing target is a typed `not_found`.
    pub fn drop_ref(&self, dref: &DatasetRef) -> Result<usize, ResolveError> {
        let mut inner = self.inner.lock().unwrap();
        let name = if let Some(id) = &dref.id {
            inner
                .id_index
                .get(id)
                .cloned()
                .ok_or_else(|| ResolveError::not_found(format!("no dataset with id {id}")))?
        } else if let Some(name) = &dref.name {
            if !inner.by_name.contains_key(name) {
                return Err(ResolveError::not_found(format!(
                    "no dataset named \"{name}\""
                )));
            }
            name.clone()
        } else {
            return Err(ResolveError::not_found(
                "dataset reference names neither id nor name",
            ));
        };
        let old = inner.by_name.remove(&name).expect("checked above");
        inner.id_index.remove(&old.dataset_id);
        inner.retired.insert(old.dataset_id, (name, old.version));
        inner.total_bytes -= old.bytes;
        Ok(1)
    }

    /// (resident dataset count, resident bytes) — for the metrics gauges.
    pub fn stats(&self) -> (usize, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.by_name.len(), inner.total_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_series() -> (Vec<usize>, Vec<Vec<f64>>) {
        (vec![0, 7], vec![vec![1.0, 2.0, 3.0], vec![-0.5]])
    }

    #[test]
    fn upload_is_content_addressed_and_idempotent() {
        let store = DatasetStore::new(u64::MAX);
        let (labels, series) = two_series();
        let a = store.upload("s", labels.clone(), series.clone()).unwrap();
        let b = store.upload("s", labels, series).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.version, 1);
        assert_eq!(a.count, 2);
        assert_eq!(a.bytes, 4 * 8);
        assert_eq!(store.stats(), (1, 32));
    }

    #[test]
    fn summaries_are_built_once_per_stored_content() {
        let store = DatasetStore::new(u64::MAX);
        let (labels, series) = two_series();
        store.upload("s", labels.clone(), series.clone()).unwrap();
        let first = store.resolve(&DatasetRef::by_name("s")).unwrap();
        assert_eq!(first.summaries.len(), series.len());
        for (summary, s) in first.summaries.iter().zip(&series) {
            assert_eq!(**summary, BlockSummary::new(s));
        }
        // An idempotent re-upload keeps the stored summaries.
        store.upload("s", labels, series).unwrap();
        let again = store.resolve(&DatasetRef::by_name("s")).unwrap();
        assert!(Arc::ptr_eq(&first.summaries, &again.summaries));
    }

    #[test]
    fn same_content_different_name_gets_different_id() {
        let store = DatasetStore::new(u64::MAX);
        let (labels, series) = two_series();
        let a = store.upload("a", labels.clone(), series.clone()).unwrap();
        let b = store.upload("b", labels, series).unwrap();
        assert_ne!(a.dataset_id, b.dataset_id);
    }

    #[test]
    fn reupload_bumps_version_and_retires_old_id() {
        let store = DatasetStore::new(u64::MAX);
        let (labels, series) = two_series();
        let v1 = store.upload("s", labels, series).unwrap();
        let v2 = store.upload("s", vec![1], vec![vec![9.0]]).unwrap();
        assert_eq!(v2.version, 2);
        assert_ne!(v1.dataset_id, v2.dataset_id);
        // Pinned old id → stale_version naming both versions.
        let err = store
            .resolve(&DatasetRef::by_id(&v1.dataset_id))
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::StaleVersion);
        assert!(err.message.contains("version 1"), "{}", err.message);
        assert!(err.message.contains("version 2"), "{}", err.message);
        // Pinned old version by name → stale_version.
        let err = store
            .resolve(&DatasetRef::by_name_version("s", 1))
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::StaleVersion);
        // Current resolves fine by name, pinned-current version, and new id.
        assert_eq!(store.resolve(&DatasetRef::by_name("s")).unwrap().version, 2);
        assert!(store.resolve(&DatasetRef::by_name_version("s", 2)).is_ok());
        assert!(store.resolve(&DatasetRef::by_id(&v2.dataset_id)).is_ok());
        // Store accounts only the current version.
        assert_eq!(store.stats(), (1, 8));
    }

    #[test]
    fn unknown_targets_are_not_found() {
        let store = DatasetStore::new(u64::MAX);
        for dref in [DatasetRef::by_id("nope"), DatasetRef::by_name("nope")] {
            let err = store.resolve(&dref).unwrap_err();
            assert_eq!(err.code, ErrorCode::NotFound);
            assert_eq!(store.drop_ref(&dref).unwrap_err().code, ErrorCode::NotFound);
        }
    }

    #[test]
    fn resolved_series_are_bitwise_the_uploaded_ones() {
        let store = DatasetStore::new(u64::MAX);
        let series = vec![vec![0.1 + 0.2, -0.0, f64::MIN_POSITIVE], vec![1.0 / 3.0]];
        store.upload("bits", vec![0, 1], series.clone()).unwrap();
        let resolved = store.resolve(&DatasetRef::by_name("bits")).unwrap();
        for (orig, got) in series.iter().zip(resolved.series.iter()) {
            assert_eq!(orig.len(), got.len());
            for (a, b) in orig.iter().zip(got.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(&resolved.labels[..], &[0, 1]);
    }

    #[test]
    fn byte_budget_is_enforced_with_replace_accounting() {
        let store = DatasetStore::new(64); // room for 8 samples total
        store.upload("a", vec![0], vec![vec![0.0; 6]]).unwrap(); // 48 bytes
        let err = store
            .upload("b", vec![0], vec![vec![0.0; 3]]) // +24 → 72 > 64
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Overloaded);
        // Replacing "a" with different content of size 8 samples is fine:
        // accounting removes the old 48 bytes first.
        store.upload("a", vec![0], vec![vec![1.0; 8]]).unwrap(); // 64 bytes exactly
        assert_eq!(store.stats(), (1, 64));
    }

    #[test]
    fn drop_frees_budget_and_listing_is_sorted() {
        let store = DatasetStore::new(u64::MAX);
        store.upload("zeta", vec![0], vec![vec![1.0]]).unwrap();
        let alpha = store.upload("alpha", vec![0], vec![vec![2.0]]).unwrap();
        let names: Vec<String> = store.list().into_iter().map(|d| d.name).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(
            store
                .drop_ref(&DatasetRef::by_id(&alpha.dataset_id))
                .unwrap(),
            1
        );
        assert_eq!(store.drop_ref(&DatasetRef::by_name("zeta")).unwrap(), 1);
        assert_eq!(store.stats(), (0, 0));
        // Dropped id reports not_found, naming the dropped dataset.
        let err = store
            .resolve(&DatasetRef::by_id(&alpha.dataset_id))
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::NotFound);
        assert!(err.message.contains("dropped"), "{}", err.message);
    }
}
