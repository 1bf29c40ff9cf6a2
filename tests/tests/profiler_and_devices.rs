//! Integration tests spanning the device simulator and the profilers:
//! calibration, SLO tracking, and the CALOREE comparison.

use fleet_device::profile::{by_name, catalogue};
use fleet_device::{train_on_profile, Device};
use fleet_profiler::{
    collect_calibration, pretrained_iprof, pretrained_maui, DeviationStats, Slo, WorkloadProfiler,
};

#[test]
fn iprof_tracks_the_latency_slo_better_than_maui_across_the_fleet() {
    let slo = Slo::latency(3.0);
    let training: Vec<_> = catalogue().into_iter().take(12).collect();
    let calibration = collect_calibration(&training, slo, 8, 40, 77);
    let mut iprof = pretrained_iprof(slo, &calibration);
    let mut maui = pretrained_maui(slo, &calibration);

    let mut iprof_latencies = Vec::new();
    let mut maui_latencies = Vec::new();
    for (i, profile) in catalogue().into_iter().enumerate().skip(12).take(10) {
        let mut device_i = Device::new(profile.clone(), 300 + i as u64);
        let mut device_m = Device::new(profile.clone(), 300 + i as u64);
        for _ in 0..6 {
            let f = device_i.features();
            let n = iprof.predict(&profile.name, &f);
            let e = device_i.execute_task(n);
            iprof.observe(&profile.name, &f, n, e.computation_seconds, e.energy_pct);
            iprof_latencies.push(e.computation_seconds);
            device_i.idle(60.0);

            let fm = device_m.features();
            let nm = maui.predict(&profile.name, &fm);
            let em = device_m.execute_task(nm);
            maui.observe(
                &profile.name,
                &fm,
                nm,
                em.computation_seconds,
                em.energy_pct,
            );
            maui_latencies.push(em.computation_seconds);
            device_m.idle(60.0);
        }
    }
    let iprof_p90 = DeviationStats::from_measurements(&iprof_latencies, 3.0).p90;
    let maui_p90 = DeviationStats::from_measurements(&maui_latencies, 3.0).p90;
    assert!(
        iprof_p90 < maui_p90,
        "I-Prof p90 deviation {iprof_p90} should beat MAUI {maui_p90}"
    );
}

#[test]
fn energy_slo_keeps_tasks_cheap() {
    let slo = Slo::energy(0.075);
    let training: Vec<_> = catalogue().into_iter().take(12).collect();
    let calibration = collect_calibration(&training, Slo::latency(3.0), 8, 40, 88);
    let mut iprof = pretrained_iprof(slo, &calibration);

    let profile = by_name("Galaxy S8").unwrap();
    let mut device = Device::new(profile.clone(), 9);
    let mut worst = 0.0f32;
    for _ in 0..8 {
        let f = device.features();
        let n = iprof.predict(&profile.name, &f);
        let e = device.execute_task(n);
        iprof.observe(&profile.name, &f, n, e.computation_seconds, e.energy_pct);
        worst = worst.max(e.energy_pct);
        device.idle(120.0);
    }
    assert!(
        worst < 0.075 * 4.0,
        "energy per task should stay near the SLO, worst was {worst}%"
    );
}

#[test]
fn caloree_pht_transfer_error_grows_with_device_dissimilarity() {
    let (mut s7, caloree) = train_on_profile(by_name("Galaxy S7").unwrap(), 400, 3);
    s7.idle(1e5);
    let batch = 800;
    let deadline = s7.true_latency_slope() * batch as f32;

    let err_same = caloree.transfer_deadline_error(&mut s7, batch, deadline, 5);
    let mut honor10 = Device::new(by_name("Honor 10").unwrap(), 4);
    let err_far = caloree.transfer_deadline_error(&mut honor10, batch, deadline, 5);
    assert!(
        err_same < err_far,
        "same-device {err_same}% vs transfer {err_far}%"
    );
}
