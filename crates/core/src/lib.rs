//! # uts-core — uncertain time-series similarity measures
//!
//! The primary contribution surface of the `uncertts` workspace: complete
//! implementations of every similarity technique evaluated in
//! *"Uncertain Time-Series Similarity: Return to the Basics"*
//! (Dallachiesa et al., PVLDB 5(11), 2012), plus the paper's
//! similarity-matching methodology.
//!
//! ## Techniques
//!
//! | Module | Technique | Model | Answers |
//! |---|---|---|---|
//! | [`euclidean`] | Euclidean baseline | point estimates | distance |
//! | [`munich`] | MUNICH (Aßfalg et al., SSDBM 2009) | repeated observations | `Pr(dist ≤ ε)` |
//! | [`proud`] | PROUD (Yeh et al., EDBT 2009) | value + constant σ | `Pr(dist ≤ ε)` |
//! | [`dust`] | DUST (Sarangi & Murthy, KDD 2010) | value + error pdf | distance |
//! | [`uma`] | UMA / UEMA (this paper, §5) | value + per-point σ | distance |
//!
//! MUNICH and PROUD answer *probabilistic range queries*
//! `PRQ(Q, C, ε, τ) = {T : Pr(distance(Q, T) ≤ ε) ≥ τ}` (paper Eq. 2);
//! DUST, Euclidean and UMA/UEMA produce plain distances and answer range,
//! top-k and top-k motif queries ([`engine`]); [`classify`] runs
//! leave-one-out k-NN classification on those top-k queries, and
//! [`proud_stream`] is PROUD's O(1)-per-point sliding-window form.
//!
//! ## Methodology
//!
//! [`matching`] implements the paper's §4.1.2 comparison protocol — the
//! piece that puts probabilistic and distance-based techniques on the same
//! task: ground truth from the clean series' 10 nearest neighbours,
//! per-technique equivalent thresholds calibrated through the 10th NN, τ
//! grid optimisation, and precision/recall/F1 scoring.
//!
//! [`engine`] is the batched query layer those protocols run on:
//! per-collection preparation (filter caches, DUST table warm-up, MBI
//! envelopes) split from per-query evaluation with early
//! abandonment and lower-bound pruning, bit-identical to the naive
//! `*_naive` reference paths. It serves a [`Collection`], which holds no
//! ground truth: bare, or a [`MatchingTask`]'s.
//!
//! [`serving`] stacks a concurrent serving layer on top: the collection
//! partitioned across shard engines, queries fanned over a persistent
//! worker pool, answers merged deterministically (still bit-identical to
//! the unsharded engine), and a cross-query result cache for skewed
//! workloads.
//!
//! [`index`] is the candidate-generation stage under both: a lower-bound
//! PAA/SAX grid built at prepare time for the value-based techniques and
//! DUST, so large-collection range and top-k queries prune most
//! candidates before the exact kernels run — with no false dismissals
//! (admissible bounds only).

#![warn(missing_docs)]
#![warn(clippy::all)]

mod cancel;
pub mod classify;
mod collection;
pub mod dust;
pub mod engine;
mod error;
pub mod euclidean;
pub mod index;
pub mod matching;
pub mod munich;
pub mod parallel;
pub mod proud;
pub mod proud_stream;
pub mod serving;
pub mod uma;

pub use classify::{knn_loocv, ClassificationOutcome};
pub use collection::Collection;
pub use dust::{Dust, DustConfig};
pub use engine::{QueryEngine, QueryRef};
pub use error::InputError;
pub use euclidean::euclidean_distance;
pub use index::{CandidateIndex, IndexConfig, IndexStats};
pub use matching::{MatchingTask, QualityScores, TechniqueKind};
pub use munich::{MbiEnvelope, Munich, MunichConfig, MunichStrategy};
pub use parallel::{parallel_map, try_parallel_map, WorkerPanic};
pub use proud::{MomentModel, Proud, ProudConfig};
pub use proud_stream::ProudStream;
pub use serving::{
    AdmissionConfig, CacheStats, Coverage, FaultKind, FaultPlan, GateStats, QueryOptions,
    ResultCache, ScoredAnswer, ServeError, ServingResponse, ShardAssignment, ShardFault, ShardPlan,
    ShardedEngine, Strictness,
};
pub use uma::{Uema, Uma};
