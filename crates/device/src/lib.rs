//! # fleet-device
//!
//! A parametric simulator of the mobile devices the FLeet paper evaluates on
//! (40 commercial Android phones plus a Raspberry Pi). The phones are not
//! available, and a simulator suffices: the paper's own measurements
//! (Fig. 4) show that a learning task's computation time and energy grow
//! *linearly* with the mini-batch size, with a slope that differs per device
//! and drifts with temperature — exactly the structure this simulator
//! reproduces.
//!
//! The crate provides:
//!
//! * [`DeviceProfile`] and a [`profile::catalogue`] of named device models
//!   spanning the heterogeneity reported in the paper,
//! * [`DeviceFeatures`] — the stock-Android observable state that I-Prof
//!   receives with every worker request,
//! * [`Device`] — a stateful simulated handset executing learning tasks and
//!   reporting latency and energy, with temperature rise under load and
//!   cool-down, and FLeet's big-core-only allocation policy (§2.4),
//! * [`Caloree`] — the CALOREE baseline resource manager (§3.4, Table 2,
//!   Fig. 14),
//! * [`NetworkKind`] / [`RoundTripModel`] — 3G/4G network latency models
//!   used for the staleness study (§3.1).

#![forbid(unsafe_code)]

mod allocation;
mod caloree;
mod device;
mod features;
mod network;
pub mod profile;
mod thermal;

pub use caloree::{train_on_profile, Caloree};
pub use device::Device;
pub use features::DeviceFeatures;
pub use network::{NetworkKind, RoundTripModel};
pub use profile::DeviceProfile;
