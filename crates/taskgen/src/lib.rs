//! # taskgen — synthetic real-time workload generation
//!
//! The Figure 2 and Figure 3 experiments of the HYDRA paper sweep total
//! system utilisation over synthetic task sets generated with the
//! Randfixedsum algorithm (Emberson, Stafford & Davis, WATERS 2010). This
//! crate provides:
//!
//! * [`randfixedsum`](mod@randfixedsum) — an implementation of Stafford's Randfixedsum
//!   algorithm (uniform sampling of utilisation vectors with a fixed sum),
//!   plus UUniFast-Discard for cross-validation,
//! * [`periods`] — uniform and log-uniform period generation,
//! * [`synthetic`] — the paper's experimental setup: number of cores,
//!   real-time / security task counts, period ranges and the ≤ 30 % security
//!   utilisation share, producing ready-to-allocate
//!   [`hydra_core::AllocationProblem`]s.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use taskgen::synthetic::{SyntheticConfig, generate_problem};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let config = SyntheticConfig::paper_default(4);
//! let problem = generate_problem(&config, 2.0, &mut rng);
//! assert_eq!(problem.cores, 4);
//! assert!((problem.total_utilization() - 2.0).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod periods;
pub mod randfixedsum;
pub mod seeded;
pub mod synthetic;

pub use randfixedsum::{randfixedsum, uunifast_discard};
pub use seeded::{derive_seed, generate_problem_seeded, stream_rng};
pub use synthetic::{generate_problem, DrawError, SyntheticConfig};
