//! # fleet-bench
//!
//! The experiment harness of the FLeet reproduction: one module per table or
//! figure of the paper's evaluation (§3), each regenerating the corresponding
//! rows/series from the simulated substrate. The binaries under `src/bin/`
//! are thin wrappers around these modules; `all_experiments` runs everything
//! and writes CSV output under the workspace `results/` directory.
//!
//! The harness also owns the drivers those modules run on, none of which is
//! part of the middleware (`fleet-server`):
//!
//! * [`AsyncSimulation`] — the controlled-staleness simulation of §3.2
//!   (Figs. 8–11): staleness drawn from a [`StalenessDistribution`], any
//!   `Aggregator`, optionally under a deterministic [`FaultPlan`]; results
//!   cross the middleware's wire codec and lease table;
//! * [`run_online_vs_standard`] — Online FL versus Standard FL on the
//!   hashtag stream (Fig. 6);
//! * [`staleness_from_timestamps`] and [`bursty_start_times`] — the staleness
//!   distribution derived from task timestamps (Fig. 7).
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`experiments::fig03_weak_workers`] | Fig. 3 — weak workers cancel strong workers |
//! | [`experiments::fig04_device_linearity`] | Fig. 4 — latency/energy linear in batch size |
//! | [`experiments::fig06_online_vs_standard`] | Fig. 6 — Online FL vs Standard FL |
//! | [`experiments::fig07_staleness_distribution`] | Fig. 7 — staleness distribution |
//! | [`experiments::table01_models`] | Table 1 — CNN topologies |
//! | [`experiments::fig08_staleness_impact`] | Fig. 8 — AdaSGD vs DynSGD vs FedAvg vs SSGD |
//! | [`experiments::fig09_similarity_boosting`] | Fig. 9 — long-tail stragglers & similarity boost |
//! | [`experiments::fig10_iid_data`] | Fig. 10 — IID datasets |
//! | [`experiments::fig11_differential_privacy`] | Fig. 11 — differentially-private training |
//! | [`experiments::fig12_iprof_latency`] | Fig. 12 — I-Prof vs MAUI, computation-time SLO |
//! | [`experiments::fig13_iprof_energy`] | Fig. 13 — I-Prof vs MAUI, energy SLO |
//! | [`experiments::table02_caloree_transfer`] | Table 2 — CALOREE on unseen devices |
//! | [`experiments::fig14_resource_allocation`] | Fig. 14 — FLeet allocation vs CALOREE |
//! | [`experiments::fig15_controller_thresholds`] | Fig. 15 — controller threshold pruning |
//! | [`experiments::energy_budget`] | §3.1 — daily energy budget of Online FL |

#![forbid(unsafe_code)]

pub mod experiments;
mod faults;
mod online;
pub mod output;
mod simulation;
mod staleness_model;

pub use faults::FaultPlan;
pub use online::{run_online_vs_standard, OnlineFlConfig};
pub use output::ExperimentWriter;
pub use simulation::{AsyncSimulation, SimulationConfig, StalenessDistribution, TrainingHistory};
pub use staleness_model::{bursty_start_times, histogram, staleness_from_timestamps};

/// How much compute an experiment run should spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// A fast configuration used by tests and smoke runs.
    Quick,
    /// The full laptop-scale configuration used by the reported results.
    #[default]
    Full,
}

impl Scale {
    /// Parses `--quick` from command-line arguments (anything else is Full).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Picks between two values depending on the scale.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
