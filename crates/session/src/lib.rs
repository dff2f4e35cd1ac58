//! The Panda IDE session engine.
//!
//! The original demo is a browser IDE (Vue + JupyterLab + Flask). Every
//! user interaction in the paper's §2.2/§3 maps onto one method of
//! [`PandaSession`]; the GUI panels map onto serializable panel structs.
//! A terminal front-end (`examples/interactive_session.rs`) renders them,
//! but any front-end could — the session is the system, the GUI is
//! presentation (see DESIGN.md §2).
//!
//! | Paper interaction | API |
//! |---|---|
//! | "Load data" button (Step 1) | [`PandaSession::load`] — blocking, auto-LF discovery, initial model fit |
//! | EM Stats Panel | [`PandaSession::em_stats`] |
//! | LF Stats Panel (sortable, click FPR…) | [`PandaSession::lf_stats`] + [`PandaSession::debug_pairs`] |
//! | "Show" button / smart sampling (Step 2) | [`PandaSession::smart_sample`] |
//! | Writing/editing LFs in the notebook (Step 3) | [`PandaSession::upsert_lf`] / [`PandaSession::remove_lf`] |
//! | `labeler.apply()` (incremental) | [`PandaSession::apply`] |
//! | Clicking a stats cell to see offending pairs (Step 4) | [`PandaSession::debug_pairs`] with a [`DebugQuery`] |
//! | Left/right-click labeling + estimated precision (Step 5) | [`PandaSession::sample_predicted_matches`], [`PandaSession::label_pair`], [`EmStats::estimated_precision`] |
//! | Deployment phase | [`PandaSession::deploy`] |

pub mod debug;
pub mod events;
pub mod panels;
pub mod persist;
pub mod sampling;
pub mod scale;
pub mod session;

pub use debug::DebugQuery;
pub use events::SessionEvent;
pub use panels::{DataViewerRow, EmStats, SessionSnapshot};
pub use persist::SessionState;
pub use scale::downsample_task;
pub use session::{DeploymentResult, ModelChoice, PandaSession, SessionConfig};
