//! # fleet-core
//!
//! The primary contribution of the FLeet paper: **AdaSGD**, an asynchronous,
//! staleness-aware stochastic-gradient-descent algorithm for Online Federated
//! Learning (§2.3), together with the baselines it is evaluated against:
//!
//! * [`DynSgd`] — staleness-aware SGD with the *inverse*
//!   dampening function `Λ(τ) = 1/(τ+1)` (Jiang et al., SIGMOD'17),
//! * [`FedAvg`] — staleness-*unaware* gradient averaging
//!   (the Standard-FL algorithm),
//! * [`Ssgd`] — fully synchronous SGD, the staleness-free ideal.
//!
//! AdaSGD weights every incoming gradient with
//! `min(1, Λ(τ) · 1/sim(x))` (Eq. 3 of the paper) where
//!
//! * `Λ(τ) = e^{−βτ}` is an **exponential staleness dampening** whose rate β
//!   is calibrated from the expected percentage of non-stragglers
//!   (`τ_thres` = s-th percentile of past staleness values, with the inverse
//!   and exponential curves crossing at `τ_thres/2`, i.e.
//!   `β = ln(τ_thres/2 + 1) / (τ_thres/2)`),
//! * `sim(x)` is the **similarity boost**: the Bhattacharyya coefficient
//!   between the worker's local label distribution and the global label
//!   distribution of all previously used samples, so that gradients carrying
//!   novel information are not nullified even when very stale.
//!
//! The [`ParameterServer`] applies these weighted gradients to a flat
//! parameter vector with a configurable aggregation parameter `K`
//! (the number of gradients per model update). The vector is
//! range-partitioned into shards (see [`ParameterServer::with_shards`]),
//! each with its own pending buffer and clock. Each shard applies on its
//! own trigger (pending reaching K, or an explicit flush), the shard clocks
//! form a vector clock, and staleness — hence the Λ(τ) weight — is
//! evaluated per shard slice. Without flushes every shard applies on the
//! same K-th submission and results are bit-for-bit identical at every
//! shard count. The `server` module docs spell out the layout and the
//! determinism contract.
//!
//! # Example
//!
//! ```
//! use fleet_core::{AdaSgd, Aggregator, WorkerUpdate};
//! use fleet_data::LabelDistribution;
//! use fleet_ml::Gradient;
//!
//! let mut adasgd = AdaSgd::new(10, 99.7);
//! let update = WorkerUpdate::new(
//!     Gradient::from_vec(vec![0.1, -0.2]),
//!     3,
//!     LabelDistribution::uniform(10),
//!     32,
//!     0,
//! );
//! let weight = adasgd.scaling_factor(&update);
//! assert!(weight > 0.0 && weight <= 1.0);
//! ```

#![forbid(unsafe_code)]

mod aggregator;
mod config;
mod dampening;
mod server;
mod staleness;
mod update;

pub use aggregator::{AdaSgd, Aggregator, AggregatorState, DynSgd, FedAvg, Ssgd};
pub use config::{ConfigError, CoreConfig};
pub use server::{ApplyMode, ParameterServer, ParameterServerState};
pub use update::WorkerUpdate;
