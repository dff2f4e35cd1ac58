//! The LF trait and the life-cycle registry.

use crate::prepared::{PerPair, PreparedLf};
use crate::Label;
use panda_table::{CandidatePair, PairRef, TablePair};
use std::collections::HashMap;
use std::sync::Arc;

/// A labeling function: a user-provided (or auto-generated) program that
/// votes on one candidate tuple pair.
///
/// Implementations must be `Send + Sync` because the label matrix applies
/// LFs from worker threads. An LF is allowed to panic — the matrix
/// quarantines the failure instead of crashing the session (see
/// [`crate::matrix::ApplyReport::failed`]).
pub trait LabelingFunction: Send + Sync {
    /// Unique name within a registry (e.g. `"name_overlap"`).
    fn name(&self) -> &str;

    /// Vote on one pair.
    fn label(&self, pair: &PairRef<'_>) -> Label;

    /// Prepare to vote on `pairs` of `tables` — how the label matrix runs
    /// an LF: once per LF per apply, then one [`PreparedLf::vote`] per
    /// pair. The default prepares nothing and calls [`label`] per pair.
    /// Override it (see [`crate::prepared::RecordKernel`]) when most of
    /// `label`'s work depends on one record at a time; the contract is in
    /// DESIGN.md §12: pure per-record state, work bounded by the records
    /// `pairs` reference, votes identical to `label`. A panic here
    /// quarantines the LF like a panic in `label`.
    ///
    /// [`label`]: LabelingFunction::label
    fn prepare<'a>(
        &'a self,
        tables: &'a TablePair,
        _pairs: &[CandidatePair],
    ) -> Box<dyn PreparedLf + 'a> {
        Box::new(PerPair { lf: self, tables })
    }

    /// One-line human description shown in the LF Stats Panel.
    fn description(&self) -> String {
        self.name().to_string()
    }

    /// Where the LF came from (shown in the IDE; auto-generated LFs are
    /// tagged so users can tell them apart).
    fn provenance(&self) -> LfProvenance {
        LfProvenance::Manual
    }
}

/// LF origin tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LfProvenance {
    /// Written by the user.
    Manual,
    /// Generated by Auto-FuzzyJoin.
    Auto,
    /// Shipped with the built-in library.
    Builtin,
}

/// Shared-ownership LF handle.
pub type BoxedLf = Arc<dyn LabelingFunction>;

/// The set of LFs in play, with per-LF versions.
///
/// Versions drive incremental application: replacing an LF under the same
/// name bumps its version, so the next `apply` recomputes exactly that
/// column (paper §2.2: "LFs are applied incrementally, i.e. only the new
/// and modified LFs are executed").
#[derive(Clone, Default)]
pub struct LfRegistry {
    lfs: Vec<BoxedLf>,
    versions: HashMap<String, u64>,
    next_version: u64,
}

impl LfRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a new LF or replace the one with the same name. Returns the
    /// version assigned.
    pub fn upsert(&mut self, lf: BoxedLf) -> u64 {
        self.next_version += 1;
        let v = self.next_version;
        let name = lf.name().to_string();
        match self.lfs.iter_mut().find(|e| e.name() == name) {
            Some(slot) => *slot = lf,
            None => self.lfs.push(lf),
        }
        self.versions.insert(name, v);
        v
    }

    /// Remove an LF by name. Returns whether it existed.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.lfs.len();
        self.lfs.retain(|lf| lf.name() != name);
        self.versions.remove(name);
        self.lfs.len() != before
    }

    /// Current version of an LF (None when absent).
    pub fn version(&self, name: &str) -> Option<u64> {
        self.versions.get(name).copied()
    }

    /// All LFs in insertion order.
    pub fn lfs(&self) -> &[BoxedLf] {
        &self.lfs
    }

    /// Look up an LF by name.
    pub fn get(&self, name: &str) -> Option<&BoxedLf> {
        self.lfs.iter().find(|lf| lf.name() == name)
    }

    /// Number of registered LFs.
    pub fn len(&self) -> usize {
        self.lfs.len()
    }

    /// True when no LFs are registered.
    pub fn is_empty(&self) -> bool {
        self.lfs.is_empty()
    }

    /// Names in insertion order.
    pub fn names(&self) -> Vec<String> {
        self.lfs.iter().map(|lf| lf.name().to_string()).collect()
    }

    /// Re-insert an LF with an **explicit** version — the rehydration
    /// path of a durable session store. Versions feed the label-matrix
    /// digest, so recovery must reproduce the exact versions a session
    /// had when it was persisted rather than assigning fresh ones. Keeps
    /// `next_version` at least as large as `version`; call entries in
    /// their original insertion order to preserve column order.
    pub fn restore_entry(&mut self, lf: BoxedLf, version: u64) {
        let name = lf.name().to_string();
        match self.lfs.iter_mut().find(|e| e.name() == name) {
            Some(slot) => *slot = lf,
            None => self.lfs.push(lf),
        }
        self.versions.insert(name, version);
        self.next_version = self.next_version.max(version);
    }

    /// The version counter state: the next [`LfRegistry::upsert`] assigns
    /// `next_version() + 1`.
    pub fn next_version(&self) -> u64 {
        self.next_version
    }

    /// Restore the version counter. Persisted separately from the live
    /// versions because the maximum live version *undercounts* when the
    /// highest-versioned LF was removed — restoring from the max alone
    /// would let a later upsert reuse a version number, corrupting
    /// incremental-apply bookkeeping. Never moves the counter backwards.
    pub fn set_next_version(&mut self, v: u64) {
        self.next_version = self.next_version.max(v);
    }
}

impl std::fmt::Debug for LfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LfRegistry")
            .field("lfs", &self.names())
            .field("versions", &self.versions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::ClosureLf;

    fn dummy(name: &str, vote: Label) -> BoxedLf {
        Arc::new(ClosureLf::new(name, move |_| vote))
    }

    #[test]
    fn upsert_assigns_increasing_versions() {
        let mut reg = LfRegistry::new();
        let v1 = reg.upsert(dummy("a", Label::Match));
        let v2 = reg.upsert(dummy("b", Label::Match));
        assert!(v2 > v1);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.version("a"), Some(v1));
    }

    #[test]
    fn replace_bumps_version_keeps_position() {
        let mut reg = LfRegistry::new();
        reg.upsert(dummy("a", Label::Match));
        reg.upsert(dummy("b", Label::Match));
        let v_old = reg.version("a").unwrap();
        let v_new = reg.upsert(dummy("a", Label::NonMatch));
        assert!(v_new > v_old);
        assert_eq!(reg.names(), vec!["a", "b"], "replacement keeps order");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn remove_works() {
        let mut reg = LfRegistry::new();
        reg.upsert(dummy("a", Label::Match));
        assert!(reg.remove("a"));
        assert!(!reg.remove("a"));
        assert!(reg.is_empty());
        assert_eq!(reg.version("a"), None);
    }

    #[test]
    fn restore_entry_reproduces_versions_and_counter() {
        // Live history: a=1, b=2, b replaced (3), b removed. Max live
        // version is 1 but the counter must resume at 3.
        let mut live = LfRegistry::new();
        live.upsert(dummy("a", Label::Match));
        live.upsert(dummy("b", Label::Match));
        live.upsert(dummy("b", Label::NonMatch));
        live.remove("b");

        let mut restored = LfRegistry::new();
        restored.restore_entry(dummy("a", Label::Match), live.version("a").unwrap());
        restored.set_next_version(live.next_version());
        assert_eq!(restored.version("a"), Some(1));
        assert_eq!(restored.next_version(), 3);
        assert_eq!(restored.upsert(dummy("c", Label::Match)), 4);
        // set_next_version never rolls the counter back.
        restored.set_next_version(2);
        assert_eq!(restored.next_version(), 4);
    }
}
