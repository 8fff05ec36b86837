//! The CopyCat *structure learner* (§3.1 of the CIDR 2009 paper).
//!
//! Given a source document and one or more user-pasted example rows, this
//! crate induces *wrappers*: executable extraction rules that generalize
//! the user's copy operation to "all the additional rows … with
//! similarly-typed information".
//!
//! The organization follows the paper:
//!
//! * a set of software **experts** analyze the source and score structural
//!   hypotheses (repeated-template discovery, data-type coherence, URL
//!   patterns, layout regularity) — see [`experts`];
//! * a **most-general projection** search finds wrappers consistent with
//!   the user's examples, ranked by the experts — see [`learn`];
//! * a **sequential-covering fallback** based on landmark (STALKER-style)
//!   rules handles sources where no structural hypothesis fits — see
//!   [`stalker`];
//! * **feedback refinement** turns row accepts/rejects into wrapper filter
//!   updates — see [`refine`].
//!
//! Wrappers themselves ([`wrapper`]) are plain data: they can be stored in
//! a catalog and re-executed as the runtime side of a source description.

pub mod experts;
pub mod learn;
pub mod locate;
pub mod refine;
pub mod sheet;
pub mod stalker;
pub mod wrapper;

pub use learn::{ExpertToggles, ScoredWrapper, StructureLearner};
pub use refine::refine;
pub use wrapper::{execute, FieldRule, PageScope, RecordFilter, Wrapper};
