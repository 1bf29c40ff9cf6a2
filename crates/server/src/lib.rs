//! # fleet-server
//!
//! The FLeet middleware itself (Fig. 2 of the paper): the server that owns the
//! global model, the controller that accepts or rejects learning tasks, the
//! worker runtime that executes them on (simulated) mobile devices, and the
//! wire protocol connecting the two sides. The controlled-staleness
//! simulation that produces the paper's figures is the experiment harness's
//! (`fleet-bench`), not part of the middleware.
//!
//! The protocol follows the five steps of the paper:
//!
//! 1. the worker sends a [`protocol::TaskRequest`] with its device features
//!    and local label information,
//! 2. I-Prof bounds the workload (mini-batch size) from the device features,
//! 3. AdaSGD computes the similarity of the request with past learning tasks,
//! 4. the controller accepts or rejects the task; accepted
//!    tasks receive a [`protocol::TaskAssignment`] with the current model and
//!    the mini-batch size,
//! 5. the worker computes the gradient and returns a [`protocol::TaskResult`],
//!    which the server folds into the model with AdaSGD's weight.

#![forbid(unsafe_code)]

mod checkpoint;
mod controller;
pub mod protocol;
mod server;
mod tasks;
pub mod wire;
mod worker;

pub use checkpoint::{decode_checkpoint, encode_checkpoint};
pub use fleet_core::ApplyMode;
pub use protocol::ResultDisposition;
pub use server::{FleetServer, FleetServerConfig, FleetServerState};
pub use tasks::TaskTable;
pub use worker::{RetryPolicy, Worker};
