//! Correctness checks: per-point digests of the simulated output, the
//! checked-in reference digests, and the artefact validators.
//!
//! A point run *fails* when its digest differs from what it must equal
//! (the reference at the reference seed, else the run's first repetition;
//! for the traced mirror, the plain `run_prepared` report), or when a
//! validator rejects one of its rendered artefacts.

use bench::metricsio::{render_exposition, MetricsPoint};
use uvm_sim::metrics::{chrome, exposition, timeseries, LineageLog};
use uvm_sim::{ChromePoint, SimReport};

/// The digested report fields, in digest order.
pub const FIELDS: [&str; 6] = [
    "counters",
    "engine",
    "timers",
    "transfers",
    "total_time",
    "driver_time",
];

/// One FNV-1a hash per field of [`FIELDS`].
pub type Digest = [u64; 6];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of every simulated statistic the benchmark pins. Host-time
/// fields are not in any of these structs, so equal inputs digest equal.
pub fn digest(r: &SimReport) -> Digest {
    [
        fnv1a(&format!("{:?}", r.counters)),
        fnv1a(&format!("{:?}", r.engine)),
        fnv1a(&format!("{:?}", r.timers)),
        fnv1a(&format!("{:?}", r.transfers)),
        fnv1a(&format!("{:?}", r.total_time)),
        fnv1a(&format!("{:?}", r.driver_time)),
    ]
}

/// The first field on which `got` differs from `want`.
pub fn mismatch(want: &Digest, got: &Digest) -> Option<&'static str> {
    (0..FIELDS.len())
        .find(|&k| want[k] != got[k])
        .map(|k| FIELDS[k])
}

/// Header comment of the reference file.
const REFERENCE_HEAD: &str = "# workload\tpoint";

/// Render reference rows `(workload, point label, digest)` as the
/// tab-separated reference file.
pub fn render_reference(seed: u64, rows: &[(String, String, Digest)]) -> String {
    let mut out = format!(
        "# Per-point digests of the simulated output at seed {seed}.\n\
         # Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- --bless\n\
         {REFERENCE_HEAD}\t{}\n",
        FIELDS.join("\t")
    );
    for (workload, label, d) in rows {
        let hex: Vec<String> = d.iter().map(|h| format!("{h:016x}")).collect();
        out.push_str(&format!("{workload}\t{label}\t{}\n", hex.join("\t")));
    }
    out
}

/// The reference digests of `workload`'s points, in `labels` order.
pub fn reference_for(text: &str, workload: &str, labels: &[String]) -> Result<Vec<Digest>, String> {
    let mut rows: Vec<(&str, Digest)> = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let cells: Vec<&str> = line.split('\t').collect();
        if cells.len() != 2 + FIELDS.len() {
            return Err(format!("reference row has {} cells: {line}", cells.len()));
        }
        if cells[0] != workload {
            continue;
        }
        let mut d = [0u64; 6];
        for (slot, cell) in d.iter_mut().zip(&cells[2..]) {
            *slot = u64::from_str_radix(cell, 16)
                .map_err(|e| format!("bad digest {cell:?} in reference: {e}"))?;
        }
        rows.push((cells[1], d));
    }
    labels
        .iter()
        .map(|label| {
            rows.iter()
                .find(|(l, _)| l == label)
                .map(|(_, d)| *d)
                .ok_or_else(|| format!("no reference digest for {workload} point {label}"))
        })
        .collect()
}

/// Rendered artefacts of one observed point, as `repro --trace-out
/// --metrics-out` would write them.
pub struct Artefacts {
    chrome: String,
    csv: String,
    prom: String,
    lineage: String,
}

impl Artefacts {
    /// Render every artefact of `report` in memory.
    pub fn render(label: &str, policy: &'static str, report: &SimReport) -> Artefacts {
        let point = ChromePoint {
            label: label.to_string(),
            spans: report.span_trace.clone(),
            faults: report.trace.clone(),
            fault_drops: report.trace_dropped,
            timers: report.timers,
        };
        let metrics_point = MetricsPoint {
            workload: report.workload.clone(),
            ratio: report.subscription_ratio,
            policy,
            counters: report.counters,
            h2d_bytes: report.transfers.h2d_bytes,
            d2h_bytes: report.transfers.d2h_bytes,
            trace_dropped: report.trace_dropped,
            span_dropped: report.span_trace.dropped,
            total_time_ns: report.total_time.as_nanos(),
            timeseries: report.timeseries.clone(),
            attribution: report.attribution,
            top_offenders: report.top_offenders.clone(),
            lineage: report.lineage.clone(),
        };
        Artefacts {
            chrome: chrome::render(&[point]),
            csv: report.timeseries.to_csv(),
            prom: render_exposition(&[metrics_point], None),
            lineage: report.lineage.to_artefact(),
        }
    }

    /// Total rendered bytes.
    pub fn bytes(&self) -> u64 {
        (self.chrome.len() + self.csv.len() + self.prom.len() + self.lineage.len()) as u64
    }

    /// Every validator's objection to these artefacts of `report`.
    pub fn problems(&self, report: &SimReport) -> Vec<String> {
        let mut out = Vec::new();
        if let Err(e) = chrome::validate(&self.chrome) {
            out.push(format!("chrome trace rejected: {e}"));
        }
        if let Err(e) = timeseries::validate_csv(&self.csv) {
            out.push(format!("sample CSV rejected: {e}"));
        }
        if let Err(e) = exposition::validate(&self.prom) {
            out.push(format!("exposition rejected: {e}"));
        }
        match LineageLog::from_artefact(&self.lineage) {
            Err(e) => out.push(format!("lineage artefact rejected: {e}")),
            Ok(log) => {
                if let Err((what, lhs, rhs)) = log.reconcile(&report.counters, &report.attribution)
                {
                    out.push(format!(
                        "lineage does not reconcile: {what}: {lhs} != {rhs}"
                    ));
                }
            }
        }
        out
    }
}

/// Attempted and failed point runs, with the reason for each failure
/// printed as it happens.
pub struct Verifier {
    /// Reference digest per point, when the run's seed is the reference seed.
    reference: Option<Vec<Digest>>,
    /// First plain digest per point.
    plain: Vec<Option<Digest>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Verifier {
    pub fn new(points: usize, reference: Option<Vec<Digest>>) -> Verifier {
        Verifier {
            reference,
            plain: vec![None; points],
            attempted: 0,
            failed: 0,
        }
    }

    /// Count one point run, failed when `problems` is not empty.
    pub fn record(&mut self, label: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                println!("FAIL {label}: {p}");
            }
        }
    }

    /// Check a plain `run_prepared` report of point `i`: against the
    /// reference when there is one, else against the first repetition.
    pub fn plain(&mut self, i: usize, label: &str, r: &SimReport, art: Option<&Artefacts>) {
        let d = digest(r);
        let mut problems = Vec::new();
        let (want, source) = match &self.reference {
            Some(refs) => (Some(refs[i]), "the reference digest"),
            None => (self.plain[i], "the first repetition"),
        };
        if let Some(field) = want.and_then(|w| mismatch(&w, &d)) {
            problems.push(format!("{field} differs from {source}"));
        }
        self.plain[i].get_or_insert(d);
        problems.extend(art.map(|a| a.problems(r)).unwrap_or_default());
        self.record(label, problems);
    }

    /// Check the traced mirror's report of point `i` against the plain
    /// report of the same point.
    pub fn mirrored(&mut self, i: usize, label: &str, r: &SimReport, art: Option<&Artefacts>) {
        let mut problems = Vec::new();
        match self.plain[i] {
            None => problems.push("no plain report to compare the mirror with".to_string()),
            Some(want) => {
                if let Some(field) = mismatch(&want, &digest(r)) {
                    problems.push(format!("traced mirror's {field} differs from run_prepared"));
                }
            }
        }
        problems.extend(art.map(|a| a.problems(r)).unwrap_or_default());
        self.record(label, problems);
    }

    /// Add another verifier's counts to this one.
    pub fn absorb(&mut self, other: &Verifier) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// The first plain digest of every point.
    pub fn first_digests(&self) -> Vec<Digest> {
        self.plain
            .iter()
            .map(|d| d.expect("every point ran a plain pass"))
            .collect()
    }

    /// Failed share of attempted point runs.
    pub fn fail_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels() -> Vec<String> {
        vec!["a/r0.60/disabled".into(), "a/r0.60/density".into()]
    }

    fn rows() -> Vec<(String, String, Digest)> {
        labels()
            .into_iter()
            .enumerate()
            .map(|(i, l)| ("w".to_string(), l, [i as u64 + 1; 6]))
            .collect()
    }

    #[test]
    fn reference_round_trips_and_filters_by_workload() {
        let mut all = rows();
        all.push(("other".into(), "a/r0.60/disabled".into(), [9; 6]));
        let text = render_reference(7, &all);
        let got = reference_for(&text, "w", &labels()).unwrap();
        assert_eq!(got, vec![[1; 6], [2; 6]]);
        assert!(reference_for(&text, "w", &["missing".into()]).is_err());
        assert!(reference_for("w\tx\t1\n", "w", &labels()).is_err());
    }

    #[test]
    fn mismatch_names_the_first_differing_field() {
        let a = [1, 2, 3, 4, 5, 6];
        assert_eq!(mismatch(&a, &a), None);
        let mut b = a;
        b[2] = 0;
        b[5] = 0;
        assert_eq!(mismatch(&a, &b), Some("timers"));
    }

    #[test]
    fn fnv1a_known_values() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fail_frac_counts_a_doctored_digest() {
        let report = uvm_sim::run(
            &uvm_sim::SimConfig::scaled(1.0 / 128.0),
            &uvm_sim::Workload::with_footprint(uvm_sim::WorkloadKind::Regular, 8 << 20),
        );
        let honest = digest(&report);
        let mut doctored = honest;
        doctored[1] ^= 1; // the engine counters' digest

        let mut v = Verifier::new(2, Some(vec![honest, doctored]));
        v.plain(0, "honest", &report, None);
        assert_eq!((v.attempted, v.failed), (1, 0));
        v.plain(1, "doctored", &report, None);
        assert_eq!((v.attempted, v.failed), (2, 1));
        assert_eq!(v.fail_frac(), 0.5);

        // Without a reference, a repetition is held to the first one.
        let mut v = Verifier::new(1, None);
        v.plain(0, "first", &report, None);
        v.mirrored(0, "mirror", &report, None);
        assert_eq!((v.attempted, v.failed), (2, 0));
        let mut other = report.clone();
        other.driver_time += uvm_sim::SimDuration::from_nanos(1);
        v.plain(0, "second", &other, None);
        v.mirrored(0, "mirror", &other, None);
        assert_eq!((v.attempted, v.failed), (4, 2));
        assert_eq!(mismatch(&honest, &digest(&other)), Some("driver_time"));
    }
}
