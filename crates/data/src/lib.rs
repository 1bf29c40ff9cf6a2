//! # fleet-data
//!
//! Data substrate for the FLeet reproduction: synthetic datasets standing in
//! for MNIST / E-MNIST / CIFAR-100, the paper's IID and non-IID federated
//! partitioning schemes, label distributions with the Bhattacharyya
//! coefficient (used by AdaSGD's similarity boosting, §2.3 of the paper), and
//! the synthetic temporal hashtag stream standing in for the Twitter crawl of
//! §3.1.
//!
//! # Example
//!
//! ```
//! use fleet_data::partition::non_iid_shards;
//! use fleet_data::synthetic::{generate, SyntheticSpec};
//!
//! let dataset = generate(&SyntheticSpec::vector(10, 64, 200), 1);
//! let users = non_iid_shards(&dataset, 10, 2, 7);
//! assert_eq!(users.len(), 10);
//! ```

#![forbid(unsafe_code)]

mod dataset;
mod label_distribution;
pub mod partition;
pub mod sampling;
pub mod synthetic;
mod twitter;

pub use dataset::Dataset;
pub use label_distribution::{GlobalLabelDistribution, LabelDistribution};
pub use twitter::{HashtagStream, Post, StreamSpec};
