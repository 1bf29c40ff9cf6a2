//! Table 2: CALOREE's deadline error when its performance hash table is
//! collected on a Galaxy S7 and then used on other device models.

use crate::{ExperimentWriter, Scale};
use fleet_device::profile::by_name;
use fleet_device::{train_on_profile, Device};

/// Runs the PHT-transfer experiment.
pub fn run(scale: Scale) {
    let mut out = ExperimentWriter::new("table02_caloree_transfer");
    out.comment("Table 2: CALOREE deadline error (%) when the PHT transfers to new devices");
    let calibration_batch = 500;
    let workload_batch = scale.pick(500, 1000);
    let repeats = scale.pick(3, 10);

    // Train on a Galaxy S7 and derive the deadline from the batch I-Prof
    // would hand that device (time the S7 actually needs for the workload).
    let (mut s7, caloree) = train_on_profile(
        by_name("Galaxy S7").expect("catalogue"),
        calibration_batch,
        31,
    );
    s7.idle(1e5);
    let deadline = s7.true_latency_slope() * workload_batch as f32;
    out.comment(format!(
        "workload batch = {workload_batch}, deadline = {deadline:.2} s"
    ));

    out.row("running_device,deadline_error_pct,paper_reported_pct");
    let paper = [
        ("Galaxy S7", 1.4f32),
        ("Galaxy S8", 9.0),
        ("Honor 9", 46.0),
        ("Honor 10", 255.0),
    ];
    for (name, paper_error) in paper {
        let mut device = if name == "Galaxy S7" {
            s7.clone()
        } else {
            Device::new(by_name(name).expect("catalogue"), 77)
        };
        let error = caloree.transfer_deadline_error(&mut device, workload_batch, deadline, repeats);
        out.row(format!("{name},{error:.1},{paper_error}"));
    }
    out.finish();
}
