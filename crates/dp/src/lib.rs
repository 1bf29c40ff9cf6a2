//! # fleet-dp
//!
//! Differential-privacy substrate for the FLeet reproduction.
//!
//! §3.2 of the paper compares AdaSGD and DynSGD in a differentially private
//! setup: per-gradient clipping followed by Gaussian noise, with the privacy
//! loss ε computed by the moments accountant of Abadi et al. for a fixed
//! δ = 1/N². This crate provides the [`GaussianMechanism`] that perturbs
//! worker gradients and a [`MomentsAccountant`] with the standard closed-form
//! approximation of the accountant's ε bound (sufficient here because the
//! experiments only need the qualitative "smaller ε ⇒ more noise ⇒ slower
//! convergence" relationship; `accountant.rs` states the bound and its
//! constant).

#![forbid(unsafe_code)]

mod accountant;
mod mechanism;

pub use accountant::MomentsAccountant;
pub use mechanism::GaussianMechanism;
