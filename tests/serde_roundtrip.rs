//! JSON round-trip tests for the configuration and report surface.
//!
//! Everything a user can put in a config file or read out of a run must
//! survive serialize -> deserialize unchanged, and invalid hand-edited
//! files must be rejected at parse time.

use odrl::core::OdRlConfig;
use odrl::manycore::{SensorModel, SyncModel, SystemConfig, VariationModel};
use odrl::metrics::{RunRecorder, RunSummary};
use odrl::power::{Seconds, VfTable, Watts};
use odrl::workload::{by_name, MixPolicy, Trace, WorkloadStream};

#[test]
fn system_config_roundtrip() {
    let config = SystemConfig::builder()
        .cores(48)
        .mix(MixPolicy::Homogeneous("canneal".into()))
        .sensors(SensorModel::new(0.02, 0.125).unwrap())
        .sync(SyncModel::barrier(4))
        .variation(VariationModel::typical())
        .transition_penalty(Seconds::new(10e-6))
        .seed(77)
        .build()
        .unwrap();
    let json = serde_json::to_string_pretty(&config).unwrap();
    let back: SystemConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(config, back);
    back.validate().unwrap();
}

#[test]
fn system_config_with_noc_roundtrip() {
    use odrl::thermal::Floorplan;
    let config = SystemConfig::builder()
        .cores(16)
        .noc(odrl_noc::NocConfig::for_floorplan(
            Floorplan::new(4, 4).unwrap(),
        ))
        .build()
        .unwrap();
    let json = serde_json::to_string(&config).unwrap();
    let back: SystemConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(config, back);
}

#[test]
fn odrl_config_roundtrip() {
    let config = OdRlConfig {
        thermal_limit: Some(82.5),
        include_level: true,
        algorithm: odrl::rl::Algorithm::DoubleQLearning,
        ..OdRlConfig::default()
    };
    let json = serde_json::to_string(&config).unwrap();
    let back: OdRlConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(config, back);

    // A config saved while OD-RL still carried the retired slack-market
    // knob loads unchanged: the old `market` object is ignored.
    let mut value: serde_json::Value = serde_json::to_value(&config).unwrap();
    let old_market = serde_json::from_str(
        r#"{"enabled":true,"ema":0.25,"history":8,"safety_margin":0.1,
            "headroom":1.3,"min_grant":0.05,"min_keep":0.25,"period":1}"#,
    )
    .unwrap();
    value
        .as_object_mut()
        .unwrap()
        .insert("market".to_string(), old_market);
    let old: OdRlConfig = serde_json::from_value(value).unwrap();
    assert_eq!(config, old);
}

#[test]
fn trace_roundtrip_preserves_replay() {
    let mut stream = WorkloadStream::new(by_name("bodytrack").unwrap(), 3);
    let trace = Trace::record(&mut stream, 1e8, 1e6);
    let json = serde_json::to_string(&trace).unwrap();
    let back: Trace = serde_json::from_str(&json).unwrap();
    assert_eq!(trace, back);
    assert_eq!(
        trace.to_benchmark("t").unwrap(),
        back.to_benchmark("t").unwrap()
    );
}

#[test]
fn run_summary_roundtrip() {
    let mut rec = RunRecorder::new("roundtrip");
    for i in 0..20 {
        rec.record(
            Watts::new(10.0 + i as f64),
            Watts::new(15.0),
            1e6,
            Seconds::new(1e-3),
        );
    }
    let summary = rec.finish();
    let json = serde_json::to_string(&summary).unwrap();
    let back: RunSummary = serde_json::from_str(&json).unwrap();
    assert_eq!(summary, back);
}

#[test]
fn hand_edited_vf_table_is_validated() {
    // A config file with a non-monotone table must fail to parse, not
    // silently produce a broken simulator.
    let bad = r#"{"levels":[{"voltage":1.2,"frequency":3.0},{"voltage":0.7,"frequency":1.0}]}"#;
    assert!(serde_json::from_str::<VfTable>(bad).is_err());
}

#[test]
fn defaulted_fields_allow_old_configs() {
    // A config written before sync/variation/noc existed still parses
    // (serde defaults), enabling forward-compatible config files.
    let config = SystemConfig::builder().cores(4).build().unwrap();
    let mut value: serde_json::Value = serde_json::to_value(&config).unwrap();
    let obj = value.as_object_mut().unwrap();
    obj.remove("sync");
    obj.remove("variation");
    obj.remove("noc");
    let back: SystemConfig = serde_json::from_value(value).unwrap();
    assert_eq!(back.sync, SyncModel::Independent);
    assert_eq!(back.variation, VariationModel::none());
    assert!(back.noc.is_none());
}
