//! The session object: state machine of the development & deployment
//! phases.

use crate::debug::{disagreement_counts, run_query, DebugQuery};
use crate::events::{EventLog, SessionEvent};
use crate::panels::{DataViewerRow, EmStats, SessionSnapshot};
use crate::persist::{self, SessionState};
use crate::sampling;
use panda_autolf::{generate_auto_lfs, AutoLfConfig};
use panda_embed::{Blocker, EmbeddingLshBlocker};
use panda_eval::metrics::{metrics_at_half, Metrics};
use panda_lf::lf::LfProvenance;
use panda_lf::{lf_stats, ApplyReport, BoxedLf, LabelMatrix, LfRegistry, LfStatsRow};
use panda_model::{LabelModel, MajorityVote, PandaModel, SnorkelModel, TransitivityMode};
use panda_table::{CandidateSet, MatchSet, TablePair};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Which labeling model the session runs after each apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelChoice {
    /// Majority vote.
    Majority,
    /// The Snorkel-style generic generative model.
    Snorkel,
    /// Panda's class-conditional model.
    Panda,
    /// Panda's model + ZeroER transitivity.
    PandaTransitive(TransitivityMode),
}

impl ModelChoice {
    fn build(&self) -> Box<dyn LabelModel> {
        match self {
            ModelChoice::Majority => Box::new(MajorityVote::default()),
            ModelChoice::Snorkel => Box::new(SnorkelModel::new()),
            ModelChoice::Panda => Box::new(PandaModel::new()),
            ModelChoice::PandaTransitive(mode) => {
                Box::new(PandaModel::new().with_transitivity(*mode))
            }
        }
    }
}

/// Session configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Master seed (blocking LSH, sampling).
    pub seed: u64,
    /// Run auto-LF discovery at load (Step 1).
    pub auto_lfs: bool,
    /// Auto-LF generator knobs.
    pub auto_lf_config: AutoLfConfig,
    /// Labeling model.
    pub model: ModelChoice,
    /// Cosine floor for blocking.
    pub blocking_min_cosine: f32,
    /// Per-record candidate cap for blocking.
    pub blocking_max_per_record: Option<usize>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            seed: 0,
            auto_lfs: true,
            auto_lf_config: AutoLfConfig::default(),
            model: ModelChoice::Panda,
            blocking_min_cosine: 0.25,
            blocking_max_per_record: Some(32),
        }
    }
}

/// The outcome of the deployment phase.
#[derive(Debug, Clone)]
pub struct DeploymentResult {
    /// Candidate pairs on the deployment tables.
    pub candidates: CandidateSet,
    /// Final posteriors aligned with `candidates`.
    pub posteriors: Vec<f64>,
    /// Pairs predicted as matches (γ ≥ 0.5).
    pub predicted: MatchSet,
    /// Quality against gold, when the deployment tables carry it.
    pub metrics: Option<Metrics>,
    /// Table sizes (left, right) — needed to turn pairs into clusters.
    pub table_sizes: (usize, usize),
}

impl DeploymentResult {
    /// Resolve the predicted matches into entity clusters (connected
    /// components of the match graph) — the catalog view of the result.
    pub fn entity_clusters(&self) -> Vec<panda_eval::clustering::Cluster> {
        panda_eval::clustering::clusters_from_pairs(
            &self.predicted,
            self.table_sizes.0,
            self.table_sizes.1,
        )
    }
}

/// One Panda development session over one EM task.
pub struct PandaSession {
    config: SessionConfig,
    tables: TablePair,
    candidates: CandidateSet,
    /// Embedding cosine per candidate — the sampler's "likelihood".
    likelihood: Vec<f64>,
    /// Gold truth per candidate, when the tables carry it. Tables and
    /// candidates never change after `load`/`rehydrate`, so it is
    /// computed once, on first use (load itself shows no panel), rather
    /// than per panel refresh.
    gold: OnceLock<Option<Vec<bool>>>,
    registry: LfRegistry,
    matrix: LabelMatrix,
    posteriors: Vec<f64>,
    shown: Vec<bool>,
    user_labels: HashMap<usize, bool>,
    log: EventLog,
    sample_counter: u64,
    /// The model of the last refit, kept so ad-hoc pairs can be scored
    /// against its fitted parameters without refitting (`None` until the
    /// first fit).
    fitted: Option<Box<dyn LabelModel>>,
}

impl PandaSession {
    /// Deterministic blocking + sampler likelihood under a config —
    /// shared by [`PandaSession::load`] and [`PandaSession::rehydrate`]
    /// so recovery re-derives the exact candidate set the session was
    /// originally built over.
    fn block_candidates(tables: &TablePair, config: &SessionConfig) -> (CandidateSet, Vec<f64>) {
        let mut blocker = EmbeddingLshBlocker::new(config.seed);
        blocker.min_cosine = config.blocking_min_cosine;
        blocker.max_per_record = config.blocking_max_per_record;
        // Likelihood = the embedding cosine blocking kept each pair by.
        let (candidates, cosines) = blocker.candidates_with_cosines(tables);
        (candidates, cosines.into_iter().map(f64::from).collect())
    }

    /// Gold truth per candidate, when the tables carry gold.
    fn gold(&self) -> Option<&[bool]> {
        self.gold
            .get_or_init(|| {
                self.tables.gold.as_ref().map(|gold| {
                    self.candidates
                        .pairs()
                        .iter()
                        .map(|p| gold.contains(p))
                        .collect()
                })
            })
            .as_deref()
    }

    /// Step 1: load a dataset — block, discover auto LFs, apply, fit.
    pub fn load(tables: TablePair, config: SessionConfig) -> Self {
        let _span = panda_obs::span("session.load");
        let (candidates, likelihood) = Self::block_candidates(&tables, &config);

        let mut session = PandaSession {
            shown: vec![false; candidates.len()],
            posteriors: vec![0.0; candidates.len()],
            likelihood,
            gold: OnceLock::new(),
            registry: LfRegistry::new(),
            matrix: LabelMatrix::new(),
            user_labels: HashMap::new(),
            log: EventLog::default(),
            sample_counter: 0,
            fitted: None,
            config,
            candidates,
            tables,
        };
        session.log.push(SessionEvent::Loaded {
            left: session.tables.left.len(),
            right: session.tables.right.len(),
            candidates: session.candidates.len(),
        });
        panda_obs::event("session.loaded")
            .field("left_rows", session.tables.left.len())
            .field("right_rows", session.tables.right.len())
            .field("candidates", session.candidates.len())
            .emit();

        if session.config.auto_lfs {
            let generated = generate_auto_lfs(
                &session.tables,
                &session.candidates,
                &session.config.auto_lf_config,
            );
            session.log.push(SessionEvent::AutoLfsDiscovered {
                count: generated.len(),
            });
            for g in generated {
                session.registry.upsert(Arc::new(g.lf));
            }
        }
        // Always apply + fit, even with an empty registry: the matrix must
        // know its row count before a snapshot, and the initial fit is part
        // of load's contract (panels render immediately).
        session.apply();
        session
    }

    /// Register (or replace) an LF — Step 3. Call [`PandaSession::apply`]
    /// afterwards, exactly like running `labeler.apply()` in the notebook.
    pub fn upsert_lf(&mut self, lf: BoxedLf) {
        self.log.push(SessionEvent::LfUpserted {
            name: lf.name().to_string(),
        });
        self.registry.upsert(lf);
    }

    /// Remove an LF by name.
    pub fn remove_lf(&mut self, name: &str) -> bool {
        let removed = self.registry.remove(name);
        if removed {
            self.log.push(SessionEvent::LfRemoved {
                name: name.to_string(),
            });
        }
        removed
    }

    /// `labeler.apply()`: incrementally apply new/modified LFs and refit
    /// the labeling model.
    pub fn apply(&mut self) -> ApplyReport {
        let _span = panda_obs::span("session.apply");
        let report = self
            .matrix
            .apply(&self.registry, &self.tables, &self.candidates);
        self.log.push(SessionEvent::Applied {
            applied: report.applied.len(),
            reused: report.reused.len(),
            failed: report.failed.len(),
        });
        self.refit();
        report
    }

    fn refit(&mut self) {
        let _span = panda_obs::span("session.refit");
        let mut model = self.config.model.build();
        // Warm-start from the previous posterior once one exists: EM
        // converges from where the last fit ended instead of from
        // scratch. The multi-start selection still applies, so a stale
        // warm start cannot degrade the fit.
        if self.fitted.is_some() && self.posteriors.len() == self.candidates.len() {
            model.set_warm_start(&self.posteriors);
        }
        self.posteriors = model.fit_predict(&self.matrix, Some(&self.candidates));
        self.log.push(SessionEvent::ModelFit {
            model: model.name().to_string(),
            matches_found: self.matches_found(),
        });
        self.fitted = Some(model);
        self.journal_lf_stats();
    }

    /// Refit the labeling model on the current matrix without re-running
    /// any LF — the serving path of `POST /sessions/{id}/fit`, and the
    /// companion of [`PandaSession::upsert_lf_incremental`] /
    /// [`PandaSession::remove_lf_incremental`] (which deliberately leave
    /// the posteriors stale so several LF edits can share one refit).
    pub fn fit(&mut self) {
        self.refit();
    }

    /// Register an LF and compute **only its column** — never a
    /// full-matrix apply, so the cost is O(new LF × pairs) no matter how
    /// many LFs exist. Does *not* refit; call [`PandaSession::fit`] when
    /// the edit batch is done. On a panicking LF the session (registry
    /// and matrix) is left unchanged and the panic message is returned.
    pub fn upsert_lf_incremental(&mut self, lf: BoxedLf) -> Result<(), String> {
        let _span = panda_obs::span("session.lf_upsert");
        let name = lf.name().to_string();
        let previous = self.registry.get(&name).cloned();
        let version = self.registry.upsert(lf);
        let added = {
            let lf_ref = self.registry.get(&name).expect("just upserted");
            self.matrix
                .add_column(lf_ref, version, &self.tables, &self.candidates)
        };
        match added {
            Ok(()) => {
                self.log.push(SessionEvent::LfUpserted { name });
                Ok(())
            }
            Err(msg) => {
                // Quarantine without corrupting state: the failed LF
                // leaves the registry; a replaced predecessor returns
                // (its still-valid column survived the failed add).
                match previous {
                    Some(prev) => {
                        self.registry.upsert(prev);
                    }
                    None => {
                        self.registry.remove(&name);
                    }
                }
                Err(msg)
            }
        }
    }

    /// Remove an LF and drop its matrix column in O(columns) — the
    /// serving path of `DELETE /sessions/{id}/lfs/{name}`. Does *not*
    /// refit. Returns whether the LF existed.
    pub fn remove_lf_incremental(&mut self, name: &str) -> bool {
        let _span = panda_obs::span("session.lf_remove");
        let removed = self.registry.remove(name);
        self.matrix.remove_column(name);
        if removed {
            self.log.push(SessionEvent::LfRemoved {
                name: name.to_string(),
            });
        }
        removed
    }

    /// Score an **ad-hoc** record pair against the fitted model without
    /// touching the candidate set or refitting — the serving path of
    /// `POST /match`. Runs every registered LF on the pair and asks the
    /// retained model to score the vote row.
    pub fn score_pair(&self, pair: panda_table::CandidatePair) -> Result<f64, String> {
        let model = self
            .fitted
            .as_ref()
            .ok_or("session has no fitted model yet (call fit first)")?;
        let p = self
            .tables
            .pair_ref(pair)
            .map_err(|e| format!("pair ({}, {}): {e}", pair.left.0, pair.right.0))?;
        let votes: Vec<i8> = self
            .registry
            .lfs()
            .iter()
            .map(|lf| lf.label(&p).as_i8())
            .collect();
        model.posterior_for_votes(&votes).ok_or_else(|| {
            format!(
                "model {:?} cannot score ad-hoc votes (arity {} vs fitted matrix {})",
                model.name(),
                votes.len(),
                self.matrix.n_lfs()
            )
        })
    }

    /// Has a model fit run yet?
    pub fn has_fit(&self) -> bool {
        self.fitted.is_some()
    }

    /// Journal provenance after each refit: one `lf.stats` event per LF
    /// — coverage/overlap/conflict plus the LF-vs-model disagreement
    /// counts the IDE's debugging panel is built on (popcounts over the
    /// packed matrix; see [`disagreement_counts`]). Nothing runs when no
    /// journal is recording.
    fn journal_lf_stats(&self) {
        if !panda_obs::journal_enabled() {
            return;
        }
        let counts = disagreement_counts(&self.matrix, &self.posteriors);
        for (row, [fps, fns, conflicts]) in self.lf_stats().into_iter().zip(counts) {
            let mut ev = panda_obs::event("lf.stats")
                .field("lf", row.name.as_str())
                .field("n_match", row.n_match)
                .field("n_nonmatch", row.n_nonmatch)
                .field("n_abstain", row.n_abstain)
                .field("coverage", row.coverage)
                .field("overlap", row.overlap)
                .field("conflict", row.conflict)
                .field("model_disagree_fp", fps)
                .field("model_disagree_fn", fns)
                .field("conflict_pairs", conflicts);
            if let Some(x) = row.est_fpr {
                ev = ev.field("est_fpr", x);
            }
            if let Some(x) = row.est_fnr {
                ev = ev.field("est_fnr", x);
            }
            ev.emit();
        }
    }

    fn matches_found(&self) -> usize {
        self.posteriors.iter().filter(|&&g| g >= 0.5).count()
    }

    /// The EM Stats Panel.
    pub fn em_stats(&self) -> EmStats {
        // Estimated precision from user spot labels on predicted matches.
        let mut labeled = 0usize;
        let mut correct = 0usize;
        for (&idx, &is_match) in &self.user_labels {
            if self.posteriors[idx] >= 0.5 {
                labeled += 1;
                if is_match {
                    correct += 1;
                }
            }
        }
        EmStats {
            left_rows: self.tables.left.len(),
            right_rows: self.tables.right.len(),
            candidate_pairs: self.candidates.len(),
            n_lfs: self.registry.len(),
            matches_found: self.matches_found(),
            estimated_precision: (labeled > 0).then(|| correct as f64 / labeled as f64),
            n_user_labels: self.user_labels.len(),
        }
    }

    /// The LF Stats Panel (model-estimated FPR/FNR; true rates included
    /// when the task carries gold).
    pub fn lf_stats(&self) -> Vec<LfStatsRow> {
        lf_stats(&self.matrix, Some(&self.posteriors), self.gold())
    }

    /// Step 2: the "Show" button — smart-sample up to `k` likely matches
    /// the current model misses.
    pub fn smart_sample(&mut self, k: usize) -> Vec<DataViewerRow> {
        let picked = sampling::smart_sample(&self.likelihood, &self.posteriors, &self.shown, k);
        for &i in &picked {
            self.shown[i] = true;
        }
        self.log.push(SessionEvent::Sampled {
            count: picked.len(),
        });
        picked.into_iter().map(|i| self.viewer_row(i)).collect()
    }

    /// Uncertainty sampling: up to `k` unseen pairs the model is least
    /// sure about (γ nearest 0.5) — boundary cases worth a spot label.
    pub fn uncertainty_sample(&mut self, k: usize) -> Vec<DataViewerRow> {
        let picked = sampling::uncertainty_sample(&self.posteriors, &self.shown, k);
        for &i in &picked {
            self.shown[i] = true;
        }
        self.log.push(SessionEvent::Sampled {
            count: picked.len(),
        });
        picked.into_iter().map(|i| self.viewer_row(i)).collect()
    }

    /// Disagreement sampling: up to `k` unseen pairs where LFs conflict —
    /// the Step-4 debugging material.
    pub fn disagreement_sample(&mut self, k: usize) -> Vec<DataViewerRow> {
        let picked = sampling::disagreement_sample(&self.matrix, &self.shown, k);
        for &i in &picked {
            self.shown[i] = true;
        }
        self.log.push(SessionEvent::Sampled {
            count: picked.len(),
        });
        picked.into_iter().map(|i| self.viewer_row(i)).collect()
    }

    /// Baseline sampler for experiment E5 (random pairs, no smartness).
    pub fn random_sample(&mut self, k: usize) -> Vec<DataViewerRow> {
        self.sample_counter += 1;
        let picked = sampling::random_sample(
            self.candidates.len(),
            &self.shown,
            k,
            self.config.seed ^ self.sample_counter,
        );
        for &i in &picked {
            self.shown[i] = true;
        }
        self.log.push(SessionEvent::Sampled {
            count: picked.len(),
        });
        picked.into_iter().map(|i| self.viewer_row(i)).collect()
    }

    /// Step 4: click a stats cell — show the pairs behind it.
    pub fn debug_pairs(
        &self,
        lf_name: &str,
        query: DebugQuery,
        limit: usize,
    ) -> Vec<DataViewerRow> {
        run_query(query, &self.matrix, lf_name, &self.posteriors, limit)
            .into_iter()
            .map(|i| self.viewer_row(i))
            .collect()
    }

    /// Step 5: a random sample of predicted matches for the user to
    /// spot-label (clicking "Estimated Precision").
    pub fn sample_predicted_matches(&mut self, k: usize) -> Vec<DataViewerRow> {
        self.sample_counter += 1;
        let predicted: Vec<usize> = (0..self.candidates.len())
            .filter(|&i| self.posteriors[i] >= 0.5 && !self.user_labels.contains_key(&i))
            .collect();
        let mask = vec![false; predicted.len()];
        let picked = sampling::random_sample(
            predicted.len(),
            &mask,
            k,
            self.config.seed ^ (0xabcd << 16) ^ self.sample_counter,
        );
        picked
            .into_iter()
            .map(|j| self.viewer_row(predicted[j]))
            .collect()
    }

    /// The user left/right-clicks the "M/U" cell of a viewer row.
    pub fn label_pair(&mut self, candidate_index: usize, is_match: bool) {
        assert!(candidate_index < self.candidates.len(), "index in range");
        self.user_labels.insert(candidate_index, is_match);
        self.log.push(SessionEvent::PairLabeled {
            candidate_index,
            is_match,
        });
    }

    /// Deployment phase: run the final LF set + model over (possibly
    /// larger) tables and return the predicted match set.
    pub fn deploy(&self, full_tables: &TablePair) -> DeploymentResult {
        let _span = panda_obs::span("session.deploy");
        let mut blocker = EmbeddingLshBlocker::new(self.config.seed);
        blocker.min_cosine = self.config.blocking_min_cosine;
        blocker.max_per_record = self.config.blocking_max_per_record;
        let candidates = blocker.candidates(full_tables);
        let mut matrix = LabelMatrix::new();
        matrix.apply(&self.registry, full_tables, &candidates);
        let mut model = self.config.model.build();
        let posteriors = model.fit_predict(&matrix, Some(&candidates));
        let mut predicted = MatchSet::new();
        for (i, pair) in candidates.iter() {
            if posteriors[i] >= 0.5 {
                predicted.insert(pair.left, pair.right);
            }
        }
        let metrics = full_tables.gold.as_ref().map(|gold| {
            let gv: Vec<bool> = candidates
                .pairs()
                .iter()
                .map(|p| gold.contains(p))
                .collect();
            metrics_at_half(&posteriors, &gv)
        });
        DeploymentResult {
            candidates,
            posteriors,
            predicted,
            metrics,
            table_sizes: (full_tables.left.len(), full_tables.right.len()),
        }
    }

    /// A serializable snapshot of the visible state.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            em: self.em_stats(),
            lfs: self.lf_stats(),
            n_events: self.log.len(),
        }
    }

    /// Quality of the current posteriors against gold (benchmarks only).
    pub fn current_metrics(&self) -> Option<Metrics> {
        self.gold().map(|gv| metrics_at_half(&self.posteriors, gv))
    }

    /// Build one Data Viewer row.
    pub fn viewer_row(&self, candidate_index: usize) -> DataViewerRow {
        let pair = self
            .candidates
            .get(candidate_index)
            .expect("candidate index in range");
        let p = self.tables.pair_ref(pair).expect("pair resolvable");
        // Columns: left schema order, then right-only columns.
        let mut columns: Vec<String> = self
            .tables
            .left
            .schema()
            .names()
            .map(str::to_string)
            .collect();
        for name in self.tables.right.schema().names() {
            if !self.tables.left.schema().contains(name) {
                columns.push(name.to_string());
            }
        }
        let left_values = columns.iter().map(|c| p.left.text(c)).collect();
        let right_values = columns.iter().map(|c| p.right.text(c)).collect();
        DataViewerRow {
            candidate_index,
            pair,
            columns,
            left_values,
            right_values,
            model_gamma: Some(self.posteriors[candidate_index]),
            likelihood: Some(self.likelihood[candidate_index]),
            user_label: self.user_labels.get(&candidate_index).copied(),
            gold: self.tables.is_gold_match(pair),
        }
    }

    /// The gold vector aligned with the candidate set, when present.
    pub fn gold_vector(&self) -> Option<Vec<bool>> {
        self.gold().map(<[bool]>::to_vec)
    }

    // --- accessors used by experiments and front-ends ---

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The candidate set.
    pub fn candidates(&self) -> &CandidateSet {
        &self.candidates
    }

    /// Current posteriors.
    pub fn posteriors(&self) -> &[f64] {
        &self.posteriors
    }

    /// The LF registry.
    pub fn registry(&self) -> &LfRegistry {
        &self.registry
    }

    /// The underlying tables.
    pub fn tables(&self) -> &TablePair {
        &self.tables
    }

    /// The event log.
    pub fn events(&self) -> &[SessionEvent] {
        self.log.events()
    }

    /// The label matrix (read-only).
    pub fn matrix(&self) -> &LabelMatrix {
        &self.matrix
    }

    // --- durability (see [`crate::persist`]) ---

    /// Export the complete mutable state for persistence. `spec_for`
    /// maps an LF name to its rebuild recipe (the serve layer stores the
    /// wire `LfSpec` JSON); auto-generated LFs may return `None` — they
    /// are regenerated deterministically at rehydration. Errors when an
    /// LF is neither auto-generated nor spec-buildable (e.g. a closure
    /// LF registered programmatically), or when the fitted model cannot
    /// capture its parameters.
    pub fn dehydrate(
        &self,
        spec_for: &dyn Fn(&str) -> Option<String>,
    ) -> Result<SessionState, String> {
        let mut lfs = Vec::with_capacity(self.registry.len());
        for lf in self.registry.lfs() {
            let spec = spec_for(lf.name());
            if spec.is_none() && lf.provenance() != LfProvenance::Auto {
                return Err(format!(
                    "LF {:?} has no rebuild spec and is not auto-generated; it cannot be persisted",
                    lf.name()
                ));
            }
            lfs.push(persist::LfState {
                name: lf.name().to_string(),
                version: self.registry.version(lf.name()).unwrap_or(0),
                spec,
            });
        }
        let fitted_model = match &self.fitted {
            None => None,
            Some(model) => Some(persist::f64_bits(&model.capture_fitted().ok_or_else(
                || format!("model {:?} cannot capture its fitted state", model.name()),
            )?)),
        };
        let mut user_labels: Vec<persist::UserLabel> = self
            .user_labels
            .iter()
            .map(|(&i, &is_match)| persist::UserLabel {
                candidate: i as u64,
                is_match,
            })
            .collect();
        user_labels.sort_by_key(|l| l.candidate);
        Ok(SessionState {
            lfs,
            next_lf_version: self.registry.next_version(),
            matrix_digest: self.matrix.digest(),
            columns: self
                .matrix
                .snapshot_columns()
                .into_iter()
                .map(|c| persist::ColumnState {
                    name: c.name,
                    version: c.version,
                    labels: persist::encode_labels(&c.labels),
                })
                .collect(),
            posteriors: persist::f64_bits(&self.posteriors),
            fitted_model,
            user_labels,
            shown: self
                .shown
                .iter()
                .enumerate()
                .filter(|(_, &s)| s)
                .map(|(i, _)| i as u64)
                .collect(),
            sample_counter: self.sample_counter,
            events: self.log.events().to_vec(),
        })
    }

    /// Rebuild a session from persisted state, **bit-exactly**: same
    /// matrix digest, same posterior bits, same ad-hoc scores, and the
    /// same deterministic sampling stream as the session that was
    /// dehydrated. No refit runs and no new events are logged.
    ///
    /// Blocking re-runs from `tables` + `config` (deterministic under
    /// the seed); spec-less LFs regenerate through auto-LF discovery;
    /// `build_spec(name, spec)` rebuilds the rest. The persisted matrix
    /// digest is then verified against the rebuilt matrix — since the
    /// candidate fingerprint is recomputed from the re-derived candidate
    /// set, a digest match also proves tables/config/blocking came out
    /// identical to the original session.
    pub fn rehydrate(
        tables: TablePair,
        config: SessionConfig,
        state: &SessionState,
        build_spec: &dyn Fn(&str, &str) -> Result<BoxedLf, String>,
    ) -> Result<PandaSession, String> {
        let _span = panda_obs::span("session.rehydrate");
        let (candidates, likelihood) = Self::block_candidates(&tables, &config);

        // Regenerate auto LFs only when some entry needs one.
        let mut auto: HashMap<String, BoxedLf> = HashMap::new();
        if state.lfs.iter().any(|l| l.spec.is_none()) {
            for g in generate_auto_lfs(&tables, &candidates, &config.auto_lf_config) {
                let lf: BoxedLf = Arc::new(g.lf);
                auto.insert(lf.name().to_string(), lf);
            }
        }
        let mut registry = LfRegistry::new();
        for entry in &state.lfs {
            let lf = match &entry.spec {
                Some(spec) => {
                    let lf = build_spec(&entry.name, spec)?;
                    if lf.name() != entry.name {
                        return Err(format!(
                            "spec for LF {:?} rebuilt an LF named {:?}",
                            entry.name,
                            lf.name()
                        ));
                    }
                    lf
                }
                None => auto.get(&entry.name).cloned().ok_or_else(|| {
                    format!(
                        "auto LF {:?} was not regenerated — tables or auto-LF config differ \
                         from the persisted session",
                        entry.name
                    )
                })?,
            };
            registry.restore_entry(lf, entry.version);
        }
        registry.set_next_version(state.next_lf_version);

        let columns = state
            .columns
            .iter()
            .map(|c| {
                Ok(panda_lf::ColumnSnapshot {
                    name: c.name.clone(),
                    version: c.version,
                    labels: persist::decode_labels(&c.labels)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let matrix = LabelMatrix::restore(&candidates, columns)?;
        let rebuilt = matrix.digest();
        if rebuilt != state.matrix_digest {
            return Err(format!(
                "matrix digest mismatch after rehydration: persisted {:#018x}, rebuilt \
                 {rebuilt:#018x} — the stored state does not belong to these tables/config",
                state.matrix_digest
            ));
        }

        let posteriors = persist::bits_f64(&state.posteriors);
        if posteriors.len() != candidates.len() {
            return Err(format!(
                "persisted posteriors cover {} pairs but blocking produced {}",
                posteriors.len(),
                candidates.len()
            ));
        }
        let fitted = match &state.fitted_model {
            None => None,
            Some(bits) => {
                let mut model = config.model.build();
                if !model.restore_fitted(&persist::bits_f64(bits)) {
                    return Err(format!(
                        "model {:?} rejected the persisted parameter blob (model choice changed?)",
                        model.name()
                    ));
                }
                Some(model)
            }
        };

        let mut shown = vec![false; candidates.len()];
        for &i in &state.shown {
            let i = i as usize;
            if i >= shown.len() {
                return Err(format!("persisted shown index {i} out of range"));
            }
            shown[i] = true;
        }
        let mut user_labels = HashMap::new();
        for l in &state.user_labels {
            let i = l.candidate as usize;
            if i >= candidates.len() {
                return Err(format!("persisted user label index {i} out of range"));
            }
            user_labels.insert(i, l.is_match);
        }
        let mut log = EventLog::default();
        for e in &state.events {
            log.push(e.clone());
        }

        Ok(PandaSession {
            gold: OnceLock::new(),
            config,
            tables,
            candidates,
            likelihood,
            registry,
            matrix,
            posteriors,
            shown,
            user_labels,
            log,
            sample_counter: state.sample_counter,
            fitted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_datasets::{generate, DatasetFamily, GeneratorConfig};
    use panda_lf::SimilarityLf;
    use panda_text::SimilarityConfig;

    fn small_task() -> TablePair {
        generate(
            DatasetFamily::FodorsZagats,
            &GeneratorConfig::new(5).with_entities(80),
        )
    }

    fn no_auto() -> SessionConfig {
        SessionConfig {
            auto_lfs: false,
            ..SessionConfig::default()
        }
    }

    #[test]
    fn load_without_auto_lfs_has_empty_registry() {
        let s = PandaSession::load(small_task(), no_auto());
        assert_eq!(s.registry().len(), 0);
        assert!(matches!(s.events()[0], SessionEvent::Loaded { .. }));
        let em = s.em_stats();
        assert!(em.candidate_pairs > 0);
        assert_eq!(em.n_lfs, 0);
        assert_eq!(em.estimated_precision, None);
    }

    #[test]
    fn load_with_auto_lfs_discovers_and_fits() {
        let s = PandaSession::load(small_task(), SessionConfig::default());
        assert!(!s.registry().is_empty(), "auto LFs discovered");
        let em = s.em_stats();
        assert!(em.matches_found > 0, "model finds matches from auto LFs");
        let m = s.current_metrics().unwrap();
        assert!(m.f1 > 0.4, "auto LFs give a sane starting point: {m:?}");
    }

    #[test]
    fn manual_lf_and_incremental_apply() {
        let mut s = PandaSession::load(small_task(), no_auto());
        s.upsert_lf(Arc::new(SimilarityLf::new(
            "name_overlap",
            "name",
            SimilarityConfig::default_jaccard(),
            0.6,
            0.1,
        )));
        let r1 = s.apply();
        assert_eq!(r1.applied, vec!["name_overlap"]);
        s.upsert_lf(Arc::new(SimilarityLf::new(
            "addr_overlap",
            "addr",
            SimilarityConfig::default_jaccard(),
            0.7,
            0.05,
        )));
        let r2 = s.apply();
        assert_eq!(r2.applied, vec!["addr_overlap"]);
        assert_eq!(r2.reused, vec!["name_overlap"]);
        assert_eq!(s.lf_stats().len(), 2);
    }

    #[test]
    fn smart_sampling_marks_shown_and_excludes_found() {
        let mut s = PandaSession::load(small_task(), SessionConfig::default());
        let batch1 = s.smart_sample(10);
        assert!(!batch1.is_empty());
        for row in &batch1 {
            assert!(
                row.model_gamma.unwrap() < 0.5,
                "sampler excludes found matches"
            );
            assert!(row.likelihood.is_some());
        }
        let idx1: Vec<usize> = batch1.iter().map(|r| r.candidate_index).collect();
        let batch2 = s.smart_sample(10);
        for row in &batch2 {
            assert!(
                !idx1.contains(&row.candidate_index),
                "no repeats across clicks"
            );
        }
    }

    #[test]
    fn debug_pairs_matches_panel_semantics() {
        // Start from the auto-LF set (it anchors the labeling model),
        // then add an intentionally sloppy LF voting +1 on everything. A
        // constant LF as one of only two columns would poison the
        // majority-vote EM init — with real LFs present the model simply
        // learns it is uninformative.
        let mut s = PandaSession::load(small_task(), SessionConfig::default());
        s.upsert_lf(Arc::new(panda_lf::ClosureLf::new("always_match", |_| {
            panda_lf::Label::Match
        })));
        s.upsert_lf(Arc::new(SimilarityLf::new(
            "name_overlap",
            "name",
            SimilarityConfig::default_jaccard(),
            0.6,
            0.1,
        )));
        s.apply();
        // Sanity: the model does NOT follow the sloppy LF everywhere.
        assert!(s.em_stats().matches_found < s.candidates().len());
        let fps = s.debug_pairs("always_match", DebugQuery::LikelyFalsePositives, 20);
        // always_match votes +1 on non-matching pairs too; the model
        // (driven by name_overlap) disagrees there.
        assert!(!fps.is_empty(), "sloppy LF has likely false positives");
        let col = s.matrix().column("always_match").unwrap();
        for row in &fps {
            assert_eq!(col[row.candidate_index], 1);
            assert!(row.model_gamma.unwrap() < 0.5);
        }
    }

    #[test]
    fn uncertainty_and_disagreement_samplers() {
        let mut s = PandaSession::load(small_task(), SessionConfig::default());
        s.upsert_lf(Arc::new(SimilarityLf::new(
            "name_overlap",
            "name",
            SimilarityConfig::default_jaccard(),
            0.6,
            0.1,
        )));
        s.apply();
        let unc = s.uncertainty_sample(5);
        for w in unc.windows(2) {
            let a = (w[0].model_gamma.unwrap() - 0.5).abs();
            let b = (w[1].model_gamma.unwrap() - 0.5).abs();
            assert!(a <= b + 1e-12, "sorted by uncertainty");
        }
        let dis = s.disagreement_sample(5);
        let cols: Vec<Vec<i8>> = s.matrix().columns().map(|(_, c)| c).collect();
        for row in &dis {
            let i = row.candidate_index;
            assert!(cols.iter().any(|c| c[i] > 0) && cols.iter().any(|c| c[i] < 0));
        }
    }

    #[test]
    fn precision_estimation_from_spot_labels() {
        let mut s = PandaSession::load(small_task(), SessionConfig::default());
        let sample = s.sample_predicted_matches(10);
        assert!(!sample.is_empty());
        // The user labels each sampled pair with its gold truth.
        for row in &sample {
            s.label_pair(row.candidate_index, row.gold.unwrap());
        }
        let em = s.em_stats();
        assert_eq!(em.n_user_labels, sample.len());
        let est = em.estimated_precision.unwrap();
        assert!((0.0..=1.0).contains(&est));
        // With gold-truth labels the estimate equals the sample precision.
        let true_frac =
            sample.iter().filter(|r| r.gold.unwrap()).count() as f64 / sample.len() as f64;
        assert!((est - true_frac).abs() < 1e-12);
    }

    #[test]
    fn deployment_runs_final_lfs_on_bigger_tables() {
        let s = PandaSession::load(small_task(), SessionConfig::default());
        let bigger = generate(
            DatasetFamily::FodorsZagats,
            &GeneratorConfig::new(6).with_entities(150),
        );
        let result = s.deploy(&bigger);
        assert!(!result.candidates.is_empty());
        assert_eq!(result.posteriors.len(), result.candidates.len());
        let m = result.metrics.unwrap();
        assert!(m.f1 > 0.3, "deployed LFs transfer: {m:?}");
        assert_eq!(
            result.predicted.len(),
            result.posteriors.iter().filter(|&&g| g >= 0.5).count()
        );
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let s = PandaSession::load(small_task(), SessionConfig::default());
        let snap = s.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: crate::panels::SessionSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.em, snap.em);
        assert_eq!(back.lfs.len(), snap.lfs.len());
    }

    #[test]
    fn incremental_lf_loop_matches_batch_apply() {
        let mk = |name: &str, upper: f64| {
            Arc::new(SimilarityLf::new(
                name,
                "name",
                SimilarityConfig::default_jaccard(),
                upper,
                0.1,
            ))
        };
        // Batch path: upsert + full apply.
        let mut batch = PandaSession::load(small_task(), no_auto());
        batch.upsert_lf(mk("name_tight", 0.7));
        batch.upsert_lf(mk("name_loose", 0.4));
        batch.apply();
        // Incremental path: per-column add + explicit fit.
        let mut inc = PandaSession::load(small_task(), no_auto());
        inc.upsert_lf_incremental(mk("name_tight", 0.7)).unwrap();
        inc.upsert_lf_incremental(mk("name_loose", 0.4)).unwrap();
        inc.fit();
        assert_eq!(
            inc.matrix().digest(),
            batch.matrix().digest(),
            "incremental adds build the same matrix bytes"
        );
        assert_eq!(inc.posteriors(), batch.posteriors());
    }

    #[test]
    fn incremental_remove_restores_matrix() {
        let mut s = PandaSession::load(small_task(), no_auto());
        s.upsert_lf_incremental(Arc::new(SimilarityLf::new(
            "keep",
            "name",
            SimilarityConfig::default_jaccard(),
            0.6,
            0.1,
        )))
        .unwrap();
        let before = s.matrix().digest();
        s.upsert_lf_incremental(Arc::new(panda_lf::ClosureLf::new("extra", |_| {
            panda_lf::Label::Match
        })))
        .unwrap();
        assert_ne!(s.matrix().digest(), before);
        assert!(s.remove_lf_incremental("extra"));
        assert_eq!(s.matrix().digest(), before, "add+remove is a no-op");
        assert!(!s.remove_lf_incremental("extra"));
    }

    #[test]
    fn incremental_upsert_of_panicking_lf_rolls_back() {
        let mut s = PandaSession::load(small_task(), no_auto());
        s.upsert_lf_incremental(Arc::new(panda_lf::ClosureLf::new("ok", |_| {
            panda_lf::Label::Abstain
        })))
        .unwrap();
        let digest = s.matrix().digest();
        let err = s
            .upsert_lf_incremental(Arc::new(panda_lf::ClosureLf::new("bad", |_| {
                panic!("user bug")
            })))
            .unwrap_err();
        assert!(err.contains("user bug"));
        assert!(
            s.registry().get("bad").is_none(),
            "failed LF not registered"
        );
        assert_eq!(s.matrix().digest(), digest, "matrix unchanged");

        // Replacing an existing LF with a panicking one restores it.
        let err2 = s
            .upsert_lf_incremental(Arc::new(panda_lf::ClosureLf::new("ok", |_| {
                panic!("edited into a bug")
            })))
            .unwrap_err();
        assert!(err2.contains("edited into a bug"));
        assert!(s.registry().get("ok").is_some(), "previous LF restored");
        assert_eq!(s.matrix().column("ok").unwrap().len(), s.candidates().len());
    }

    #[test]
    fn score_pair_matches_candidate_posteriors() {
        let mut s = PandaSession::load(small_task(), no_auto());
        s.upsert_lf_incremental(Arc::new(SimilarityLf::new(
            "name_overlap",
            "name",
            SimilarityConfig::default_jaccard(),
            0.6,
            0.1,
        )))
        .unwrap();
        s.fit();
        assert!(s.has_fit());
        // Scoring a pair that IS a candidate reproduces its posterior.
        for i in [0usize, 1, 2] {
            let pair = s.candidates().get(i).unwrap();
            let scored = s.score_pair(pair).unwrap();
            assert_eq!(scored, s.posteriors()[i], "candidate {i}");
        }
        // Out-of-range rows give a clean error, not a panic.
        let bad = panda_table::CandidatePair::new(u32::MAX, 0);
        assert!(s.score_pair(bad).is_err());
    }

    #[test]
    fn score_pair_without_lfs_is_a_clean_error() {
        // Load always fits (even over an empty matrix), but a model with
        // no per-LF parameters cannot score ad-hoc rows.
        let s = PandaSession::load(small_task(), no_auto());
        assert!(s.has_fit());
        let err = s
            .score_pair(panda_table::CandidatePair::new(0, 0))
            .unwrap_err();
        assert!(err.contains("cannot score"), "{err}");
    }

    /// A toy spec codec for the round-trip tests: `attr:upper:lower` →
    /// Jaccard `SimilarityLf` (the serve layer uses its wire `LfSpec`
    /// JSON in this role).
    fn build_sim_spec(name: &str, spec: &str) -> Result<BoxedLf, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        let [attr, upper, lower] = parts.as_slice() else {
            return Err(format!("bad spec {spec:?}"));
        };
        Ok(Arc::new(SimilarityLf::new(
            name,
            *attr,
            SimilarityConfig::default_jaccard(),
            upper.parse().map_err(|e| format!("{e}"))?,
            lower.parse().map_err(|e| format!("{e}"))?,
        )))
    }

    #[test]
    fn dehydrate_rehydrate_is_bit_exact() {
        // Auto LFs (spec-less, regenerated at rehydration) plus a manual
        // spec-backed LF, a fit, and a spot label.
        let mut live = PandaSession::load(small_task(), SessionConfig::default());
        live.upsert_lf_incremental(Arc::new(SimilarityLf::new(
            "name_overlap",
            "name",
            SimilarityConfig::default_jaccard(),
            0.6,
            0.1,
        )))
        .unwrap();
        live.fit();
        live.label_pair(0, true);

        let spec_for = |name: &str| (name == "name_overlap").then(|| "name:0.6:0.1".to_string());
        let state = live.dehydrate(&spec_for).unwrap();
        let mut back = PandaSession::rehydrate(
            small_task(),
            SessionConfig::default(),
            &state,
            &build_sim_spec,
        )
        .unwrap();

        assert_eq!(back.matrix().digest(), live.matrix().digest());
        assert_eq!(
            persist::f64_bits(back.posteriors()),
            persist::f64_bits(live.posteriors()),
            "posterior bits survive"
        );
        assert_eq!(back.events().len(), live.events().len());
        assert_eq!(back.em_stats(), live.em_stats());
        // Ad-hoc scoring works with NO refit, bit-exactly.
        let pair = live.candidates().get(0).unwrap();
        assert_eq!(
            back.score_pair(pair).unwrap().to_bits(),
            live.score_pair(pair).unwrap().to_bits()
        );
        // A further warm-started refit continues identically on both.
        live.fit();
        back.fit();
        assert_eq!(
            persist::f64_bits(back.posteriors()),
            persist::f64_bits(live.posteriors()),
            "post-recovery refit stays on the live trajectory"
        );
    }

    #[test]
    fn rehydrate_rejects_tampered_or_foreign_state() {
        let mut live = PandaSession::load(small_task(), no_auto());
        live.upsert_lf_incremental(Arc::new(SimilarityLf::new(
            "name_overlap",
            "name",
            SimilarityConfig::default_jaccard(),
            0.6,
            0.1,
        )))
        .unwrap();
        live.fit();
        let spec_for = |_: &str| Some("name:0.6:0.1".to_string());
        let state = live.dehydrate(&spec_for).unwrap();

        // Tampered column bytes → digest mismatch.
        let mut bad = state.clone();
        let flipped: String = bad.columns[0]
            .labels
            .chars()
            .map(|c| if c == '+' { '-' } else { c })
            .collect();
        bad.columns[0].labels = flipped;
        let err = match PandaSession::rehydrate(small_task(), no_auto(), &bad, &build_sim_spec) {
            Err(e) => e,
            Ok(_) => panic!("tampered state must not rehydrate"),
        };
        assert!(err.contains("digest mismatch"), "{err}");

        // Different tables → different candidates → digest mismatch too.
        let other = generate(
            DatasetFamily::FodorsZagats,
            &GeneratorConfig::new(9).with_entities(80),
        );
        assert!(PandaSession::rehydrate(other, no_auto(), &state, &build_sim_spec).is_err());

        // A closure LF with no spec cannot be persisted.
        let mut closured = PandaSession::load(small_task(), no_auto());
        closured.upsert_lf(Arc::new(panda_lf::ClosureLf::new("cl", |_| {
            panda_lf::Label::Abstain
        })));
        closured.apply();
        assert!(closured.dehydrate(&|_| None).is_err());
    }

    #[test]
    fn failing_lf_is_quarantined_not_fatal() {
        let mut s = PandaSession::load(small_task(), no_auto());
        s.upsert_lf(Arc::new(panda_lf::ClosureLf::new("buggy", |_| {
            panic!("user bug")
        })));
        let report = s.apply();
        assert_eq!(report.failed.len(), 1);
        // The session is still usable.
        let _ = s.em_stats();
        let _ = s.smart_sample(3);
    }
}
