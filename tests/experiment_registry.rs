//! Integration test: every experiment in the registry runs end-to-end and
//! produces console output plus CSV data.

use mojo_hpc::report::{run_experiment, ExperimentId};
use science_kernels::workload::paper_platform_pairs;

#[test]
fn every_registered_experiment_produces_output() {
    for id in ExperimentId::ALL {
        let report = run_experiment(id);
        assert_eq!(report.id, id.as_str());
        assert!(!report.text.trim().is_empty(), "{id} produced no text");
        assert!(!report.tables.is_empty(), "{id} produced no CSV tables");
        for table in &report.tables {
            assert!(!table.rows.is_empty(), "{id} CSV has no rows");
        }
    }
    // The report is analytic: no experiment runs a functional kernel body,
    // so no paper device ever holds a buffer. Only experiments run in this
    // test binary, so the device state is theirs alone.
    for platform in paper_platform_pairs() {
        let device = science_kernels::cache::device(platform);
        assert_eq!(device.high_water_bytes(), 0, "{}", platform.spec.name);
    }
}

#[test]
fn experiment_csv_files_land_in_the_experiments_directory() {
    let report = run_experiment(ExperimentId::Table1);
    let paths = report.write_csv_files().expect("write CSVs");
    assert!(!paths.is_empty());
    for path in paths {
        assert!(path.exists());
        assert!(path.to_string_lossy().contains("experiments"));
    }
}
