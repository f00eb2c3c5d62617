//! Checked-in output digests: the simulated result of a fixed set of
//! points must never drift. The other golden tests compare one run with
//! another run, so a change that moves every run the same way passes
//! them; this one compares against digests recorded once and checked in.
//!
//! Each report contributes one FNV-1a digest per simulated section
//! (`counters`, `engine`, `timers`, `transfers`, `total_time`,
//! `driver_time`), taken over that section's JSON serialization. The
//! points are the Table I sweep (every workload at ratio 0.6, prefetch
//! off and on) plus the oversubscribed random point of
//! `determinism_golden.rs`, all at `Scale::QUICK`.
//!
//! A deliberate change to simulated output updates `GOLDEN` in the same
//! change: the failure message prints the full replacement table.

use bench::experiments::Scale;
use serde::Serialize;
use uvm_sim::{PrefetchPolicy, SimConfig, SimReport, Workload, WorkloadKind};

/// Per-point digests of `[counters, engine, timers, transfers,
/// total_time, driver_time]`.
#[rustfmt::skip]
const GOLDEN: &[(&str, [u64; 6])] = &[
    ("table1/regular/off", [0xb2f9df6cf9384434, 0xab903e19b2aca3e8, 0x618147f67e9d84c6, 0xc8fa666b1924f3d4, 0xf84900167504792e, 0x48b4bbac8c69b716]),
    ("table1/regular/on", [0x7789955af6176906, 0x349e86ac818f0c43, 0xc2939b87db47ae10, 0x19851401e422062a, 0x05a9bb21968db751, 0xc9568796f750de17]),
    ("table1/random/off", [0xc2f8eb6cfcb14b29, 0xcd6e298fbc89a2c1, 0xa73a416a6b60eeb8, 0x173c17f86ea7eae8, 0xdf58ca7f037cf5c0, 0xd4aaade5b6fa69f5]),
    ("table1/random/on", [0x753a4d43e204e3f4, 0xb71d7957c99f43a6, 0x2c9e99f486a692a6, 0xd8c3aae9e2431279, 0xd203c2d4c19c24d6, 0x198a25826b21930f]),
    ("table1/sgemm/off", [0x67c2b218cde1d73a, 0xa17ada8c86175a01, 0x164cba82d655a107, 0x6f7c07dd03738e7a, 0xb7abf38a70b26429, 0x4812b7cf6787c382]),
    ("table1/sgemm/on", [0xc8efa869b2ff5127, 0xfb3e765a0dd83360, 0x15c62a7db596d9de, 0xd77c78fa28fb5adc, 0x75c719a0dbaa0d7d, 0xe9d832f35152ad06]),
    ("table1/stream/off", [0x43f816ec94bcb48d, 0x2a50afa26f990bc8, 0x781b6810467af3e2, 0x66ec4c00e4ca5411, 0xb41e9d1c3f598572, 0xdb4408aa89b66828]),
    ("table1/stream/on", [0xbd5dd31ff674bab4, 0x83b7b6175f4f1135, 0x27bc6ada696957c4, 0xf5fcd877c7361b36, 0x43bc6a0b3f7392b4, 0x3c5beb90b6a90bf4]),
    ("table1/cufft/off", [0xd41380a2877ee4e4, 0x73148cf428495273, 0x9aa43fee5047278b, 0x2b2c94be35ee61b4, 0x39b93847f393e45b, 0xe739808c224dd3da]),
    ("table1/cufft/on", [0x3fe9437d9e78f1b7, 0xe4db54bbe222fa0c, 0x4340b13c0c3b16e9, 0xa18b06e78fbedd4d, 0xdfe8e5d0f42f22cf, 0xe0b34bd142bc587d]),
    ("table1/tealeaf/off", [0xa1e3262be84b7cb4, 0x8f1a0c71cd5f19ee, 0xc7f7a14622e6bed2, 0xeb12ec724e8452d1, 0xc16c9c66f71c2507, 0xe6d369280e5cd327]),
    ("table1/tealeaf/on", [0x310c88ddc993294b, 0xf72ccabc2417a77b, 0x8119623fc02859d3, 0x7844b0fbc542eab9, 0x90684b785914122e, 0xd2430dfab6bcf602]),
    ("table1/hpgmg/off", [0xeeede2db26b364f1, 0x4a2fd321c5442fd1, 0x834fdcbbda610ada, 0xd452e39e7e2cca93, 0x2e412ffec63f6696, 0x3aab49edd068c7ee]),
    ("table1/hpgmg/on", [0xb5f4805c6d62e3ac, 0xa2dee2f97acd88c7, 0x05613177a8c514e7, 0xcb47ec562a4739fc, 0x9d6a2f2b9e2157c7, 0x150dc4972c327c11]),
    ("table1/cusparse/off", [0x482a104d663ab6f7, 0xeb19be65efa8386b, 0xa30d376d18a25a9c, 0xe3184f9bb535e4c8, 0x6830d4998aa524cd, 0x44132d6516d8dbad]),
    ("table1/cusparse/on", [0xcc35bd4471789eb8, 0x6c26f6f3167c70fd, 0x0762335bbba99bd8, 0xc14a13928d376724, 0xd73dd49a7c30a7a8, 0xd95a699f545b76ab]),
    ("random@1.3/off", [0x0ffbd898a1a2811e, 0xc43146fd60e5b752, 0xfe1f4f26fdb1ce7e, 0xc2eff2413e76c27a, 0xffa5c14768fa2815, 0x25183806edfbf749]),
];

const SECTIONS: [&str; 6] = [
    "counters",
    "engine",
    "timers",
    "transfers",
    "total_time",
    "driver_time",
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest<T: Serialize>(v: &T) -> u64 {
    fnv1a(
        serde_json::to_string(v)
            .expect("serialize section")
            .as_bytes(),
    )
}

fn sections(r: &SimReport) -> [u64; 6] {
    [
        digest(&r.counters),
        digest(&r.engine),
        digest(&r.timers),
        digest(&r.transfers),
        digest(&r.total_time),
        digest(&r.driver_time),
    ]
}

fn points() -> Vec<(String, SimConfig, Workload)> {
    let scale = Scale::QUICK;
    let no_prefetch = || {
        let mut c = scale.config();
        c.driver.prefetch = PrefetchPolicy::Disabled;
        c
    };
    let mut points = Vec::new();
    for k in WorkloadKind::ALL {
        let w = scale.workload(k, 0.6);
        points.push((
            format!("table1/{}/off", k.label()),
            no_prefetch(),
            w.clone(),
        ));
        points.push((format!("table1/{}/on", k.label()), scale.config(), w));
    }
    points.push((
        "random@1.3/off".into(),
        no_prefetch(),
        scale.workload(WorkloadKind::Random, 1.3),
    ));
    points
}

#[test]
fn simulated_output_matches_checked_in_digests() {
    let points = points();
    let reports = uvm_sim::run_sweep(
        points
            .iter()
            .map(|(_, c, w)| (c.clone(), w.clone()))
            .collect(),
    );
    let actual: Vec<(String, [u64; 6])> = points
        .iter()
        .zip(&reports)
        .map(|((name, ..), r)| (name.clone(), sections(r)))
        .collect();

    let mut drift = Vec::new();
    for (i, (name, got)) in actual.iter().enumerate() {
        match GOLDEN.get(i) {
            Some((golden_name, want)) if golden_name == name => {
                for (s, section) in SECTIONS.iter().enumerate() {
                    if got[s] != want[s] {
                        drift.push(format!("{name}: {section}"));
                    }
                }
            }
            _ => drift.push(format!("{name}: no checked-in digest at index {i}")),
        }
    }
    if GOLDEN.len() != actual.len() {
        drift.push(format!(
            "{} checked-in points, {} run",
            GOLDEN.len(),
            actual.len()
        ));
    }
    if !drift.is_empty() {
        let mut table = String::new();
        for (name, d) in &actual {
            let hex: Vec<String> = d.iter().map(|x| format!("0x{x:016x}")).collect();
            table.push_str(&format!("    (\"{name}\", [{}]),\n", hex.join(", ")));
        }
        panic!(
            "simulated output drifted from the checked-in digests:\n  {}\n\
             current table:\n{table}",
            drift.join("\n  ")
        );
    }
}
