//! The bench regression gate.
//!
//! Each bench binary's telemetry trace is distilled into a schema'd
//! `BENCH_<name>.json` report: a flat metric → value map covering the
//! run's headline numbers (attack counters, gauges, derived cache hit
//! rates, simulated time). Committed baselines live under
//! `bench/baselines/`; [`BenchReport::compare`] flags every metric whose
//! relative deviation from the baseline exceeds a configurable tolerance,
//! and [`check_or_bootstrap`] turns a missing baseline into a write
//! instead of a failure so new benches self-install.
//!
//! High-cardinality diagnostic counters (`*.line_hits.*`, `*.joint.*`)
//! and raw event histograms are deliberately excluded: they carry the
//! per-run noise the heatmap and leakage profilers want, not the stable
//! figures a regression gate should pin.

use std::path::Path;

use grinch_telemetry::json::{parse, JsonValue, Layout, ObjWriter};
use grinch_telemetry::Snapshot;

/// Schema identifier stamped into every report.
pub const SCHEMA: &str = "grinch-bench-report/v1";

/// Counter name fragments excluded from reports (diagnostic cardinality).
const EXCLUDED_FRAGMENTS: [&str; 3] = [".line_hits.", ".joint.", ".elimination_"];

/// A distilled, comparable summary of one bench run.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Bench name (`quickstart`, `fig3`, ...).
    pub name: String,
    /// Metric name → value, name-sorted.
    pub metrics: Vec<(String, f64)>,
    /// Wall-clock sections — additive perf trajectory. Machine-dependent,
    /// so [`BenchReport::compare`] never gates on them and baseline
    /// refreshes strip them; they exist so committed `BENCH_*.json`
    /// artifacts carry throughput history alongside the gated metrics.
    pub wall: Vec<WallSection>,
}

/// One wall-clock measurement: how long a section of the bench took and
/// what rate of work that implies.
#[derive(Clone, Debug, PartialEq)]
pub struct WallSection {
    /// Section name (`run`, `matrix`, ...), unique within a report.
    pub name: String,
    /// Elapsed wall-clock time in nanoseconds.
    pub wall_ns: f64,
    /// Work units per second of wall time (units are section-specific:
    /// cells/s for the arena, cache accesses/s for the microbenches, ...).
    pub throughput: f64,
    /// Human-readable unit of `throughput` (`"cells/sec"`,
    /// `"recoveries/sec"`, ...). `None` for legacy sections — the JSON form
    /// omits the field, so old reports parse unchanged.
    pub rate: Option<String>,
    /// Work items processed per inner iteration when the section ran a
    /// batched pipeline (e.g. plaintexts per oracle batch). Wall times of
    /// runs with different widths are not like-for-like; regression tooling
    /// uses this to label (and refuse to cross-compare) wall series.
    pub batch_width: Option<f64>,
}

impl WallSection {
    /// Builds a section from an elapsed time and a unit count, deriving
    /// the throughput (0 when no time elapsed).
    pub fn new(name: &str, wall_ns: u64, units: f64) -> Self {
        let throughput = if wall_ns == 0 {
            0.0
        } else {
            units / (wall_ns as f64 / 1e9)
        };
        Self {
            name: name.to_string(),
            wall_ns: wall_ns as f64,
            throughput,
            rate: None,
            batch_width: None,
        }
    }

    /// Labels the throughput with its unit (`"cells/sec"`, ...).
    pub fn with_rate(mut self, rate: &str) -> Self {
        self.rate = Some(rate.to_string());
        self
    }

    /// Records the batch width the section ran at.
    pub fn with_batch_width(mut self, width: f64) -> Self {
        self.batch_width = Some(width);
        self
    }

    /// The wall-series key regression tooling compares under: the section
    /// name, qualified by the batch width when one was recorded, so batched
    /// and unbatched runs never land in the same series.
    pub fn series_key(&self) -> String {
        match self.batch_width {
            Some(w) => format!("{}@b{}", self.name, w),
            None => self.name.clone(),
        }
    }

    /// Writes the section's fields into an open object — the form both the
    /// bench report and the ledger record carry, keyed by section name.
    pub(crate) fn write(&self, w: &mut ObjWriter) {
        w.f64("wall_ns", self.wall_ns)
            .f64("throughput", self.throughput);
        if let Some(rate) = &self.rate {
            w.str("rate", rate);
        }
        if let Some(width) = self.batch_width {
            w.f64("batch_width", width);
        }
    }
}

/// One metric that failed the gate.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDeviation {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value; `None` when the metric vanished from the run.
    pub current: Option<f64>,
    /// Relative deviation from the baseline (infinite for a zero baseline
    /// with a nonzero current value, or a vanished metric).
    pub deviation: f64,
}

impl MetricDeviation {
    /// Human-readable one-liner for gate output.
    pub fn describe(&self) -> String {
        match self.current {
            Some(current) => format!(
                "{}: baseline {} -> current {} ({:+.2}% vs tolerance)",
                self.name,
                self.baseline,
                current,
                self.deviation * 100.0
            ),
            None => format!(
                "{}: baseline {} -> missing from run",
                self.name, self.baseline
            ),
        }
    }
}

/// Result of gating one bench against its baseline.
#[derive(Clone, Debug, PartialEq)]
pub enum GateOutcome {
    /// Every baseline metric was within tolerance.
    Pass {
        /// Number of metrics compared.
        compared: usize,
    },
    /// No baseline existed; the current report was written as one.
    Bootstrapped,
    /// At least one metric regressed.
    Regressed(Vec<MetricDeviation>),
}

fn excluded(name: &str) -> bool {
    EXCLUDED_FRAGMENTS.iter().any(|f| name.contains(f))
}

impl BenchReport {
    /// Distills a snapshot into a report.
    ///
    /// Included: simulated time, every counter and gauge not matching an
    /// excluded fragment, each histogram's sample count and mean, and a
    /// derived `<label>.hit_rate` for every `<label>.hits` /
    /// `<label>.misses` counter pair.
    pub fn from_snapshot(name: &str, snapshot: &Snapshot) -> Self {
        let mut metrics: Vec<(String, f64)> = Vec::new();
        metrics.push(("sim_time_ns".into(), snapshot.sim_time_ns as f64));
        for (counter, value) in &snapshot.counters {
            if excluded(counter) {
                continue;
            }
            metrics.push((counter.clone(), *value as f64));
            if let Some(label) = counter.strip_suffix(".hits") {
                let hits = *value as f64;
                let misses = snapshot.counter(&format!("{label}.misses")) as f64;
                if hits + misses > 0.0 {
                    metrics.push((format!("{label}.hit_rate"), hits / (hits + misses)));
                }
            }
        }
        for (gauge, value) in &snapshot.gauges {
            if !excluded(gauge) && value.is_finite() {
                metrics.push((gauge.clone(), *value));
            }
        }
        for (hist_name, hist) in &snapshot.histograms {
            if excluded(hist_name) || hist.count() == 0 {
                continue;
            }
            metrics.push((format!("{hist_name}.count"), hist.count() as f64));
            if let Some(mean) = hist.mean() {
                metrics.push((format!("{hist_name}.mean"), mean));
            }
        }
        metrics.sort_by(|a, b| a.0.cmp(&b.0));
        Self {
            name: name.to_string(),
            metrics,
            wall: Vec::new(),
        }
    }

    /// Appends a wall-clock section (see [`WallSection::new`]).
    pub fn record_wall(&mut self, section: &str, wall_ns: u64, units: f64) {
        self.wall.push(WallSection::new(section, wall_ns, units));
    }

    /// Appends a fully-built wall-clock section (rate label, batch width).
    pub fn push_wall(&mut self, section: WallSection) {
        self.wall.push(section);
    }

    /// A copy with the machine-dependent wall sections removed — what a
    /// committed baseline should contain.
    pub fn without_wall(&self) -> Self {
        Self {
            wall: Vec::new(),
            ..self.clone()
        }
    }

    /// Looks up one metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Serializes the report as pretty-stable JSON (one metric per line,
    /// name-sorted — diffs in version control stay readable).
    pub fn to_json(&self) -> String {
        let mut w = ObjWriter::with_layout(Layout::Stacked);
        w.str("schema", SCHEMA)
            .str("name", &self.name)
            .obj("metrics", Layout::Lines, |o| {
                for (name, value) in &self.metrics {
                    o.f64(name, *value);
                }
            });
        if !self.wall.is_empty() {
            // Additive block: reports without wall timings serialize
            // exactly as before, so existing baselines stay byte-stable.
            w.obj("wall", Layout::Lines, |o| {
                for section in &self.wall {
                    o.obj(&section.name, Layout::Spaced, |o| section.write(o));
                }
            });
        }
        w.finish() + "\n"
    }

    /// Parses a report previously produced by [`BenchReport::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = parse(text).ok_or("invalid JSON")?;
        let schema = value
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing schema field")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
        }
        let name = value
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("missing name field")?
            .to_string();
        let metrics_obj = match value.get("metrics") {
            Some(JsonValue::Obj(entries)) => entries,
            _ => return Err("missing metrics object".into()),
        };
        let mut metrics = Vec::with_capacity(metrics_obj.len());
        for (metric, v) in metrics_obj {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("metric {metric:?} is not a number"))?;
            metrics.push((metric.clone(), v));
        }
        metrics.sort_by(|a, b| a.0.cmp(&b.0));
        let mut wall = Vec::new();
        if let Some(JsonValue::Obj(sections)) = value.get("wall") {
            for (section, timing) in sections {
                let wall_ns = timing
                    .get("wall_ns")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("wall section {section:?} lacks wall_ns"))?;
                let throughput = timing
                    .get("throughput")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("wall section {section:?} lacks throughput"))?;
                wall.push(WallSection {
                    name: section.clone(),
                    wall_ns,
                    throughput,
                    rate: timing
                        .get("rate")
                        .and_then(JsonValue::as_str)
                        .map(str::to_string),
                    batch_width: timing.get("batch_width").and_then(JsonValue::as_f64),
                });
            }
        }
        Ok(Self {
            name,
            metrics,
            wall,
        })
    }

    /// Compares `current` against this baseline. A metric fails when it is
    /// missing from `current` or its relative deviation from the baseline
    /// exceeds `rel_tol` (e.g. `0.05` = ±5%). Metrics present only in
    /// `current` (newly added instrumentation) do not fail the gate — they
    /// become part of the baseline on the next refresh. Wall-clock sections
    /// are never compared: they vary with the machine, not the simulation.
    pub fn compare(&self, current: &Self, rel_tol: f64) -> Vec<MetricDeviation> {
        let mut failures = Vec::new();
        for (name, baseline) in &self.metrics {
            let Some(now) = current.metric(name) else {
                failures.push(MetricDeviation {
                    name: name.clone(),
                    baseline: *baseline,
                    current: None,
                    deviation: f64::INFINITY,
                });
                continue;
            };
            let deviation = if *baseline == 0.0 {
                if now == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                ((now - baseline) / baseline).abs()
            };
            if deviation > rel_tol {
                failures.push(MetricDeviation {
                    name: name.clone(),
                    baseline: *baseline,
                    current: Some(now),
                    deviation,
                });
            }
        }
        failures
    }
}

/// Gates `current` against the baseline at `baseline_path`.
///
/// * baseline missing → the current report is written there and the
///   outcome is [`GateOutcome::Bootstrapped`];
/// * baseline present → compared with `rel_tol`, yielding `Pass` or
///   `Regressed`.
pub fn check_or_bootstrap(
    current: &BenchReport,
    baseline_path: &Path,
    rel_tol: f64,
) -> std::io::Result<GateOutcome> {
    if !baseline_path.exists() {
        if let Some(parent) = baseline_path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(baseline_path, current.without_wall().to_json())?;
        return Ok(GateOutcome::Bootstrapped);
    }
    let text = std::fs::read_to_string(baseline_path)?;
    let baseline = BenchReport::from_json(&text).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: {e}", baseline_path.display()),
        )
    })?;
    let failures = baseline.compare(current, rel_tol);
    if failures.is_empty() {
        Ok(GateOutcome::Pass {
            compared: baseline.metrics.len(),
        })
    } else {
        Ok(GateOutcome::Regressed(failures))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grinch_telemetry::Telemetry;

    fn sample_report() -> BenchReport {
        let tel = Telemetry::new();
        tel.set_time_ns(1_000_000);
        tel.counter_add("attack.probes", 4_000);
        tel.counter_add("attack.stage1.probes", 1_000);
        tel.counter_add("attack.stage1.line_hits.l00.s000", 77); // excluded
        tel.counter_add("attack.stage1.joint.p0.l00", 88); // excluded
        tel.counter_add("cache.l1.hits", 300);
        tel.counter_add("cache.l1.misses", 100);
        tel.gauge_set("attack.entropy_bits.stage1", 2.5);
        tel.record_value("hierarchy.read_cycles", 4);
        tel.record_value("hierarchy.read_cycles", 8);
        BenchReport::from_snapshot("unit", &tel.snapshot())
    }

    #[test]
    fn snapshot_distils_to_curated_metrics() {
        let report = sample_report();
        assert_eq!(report.metric("attack.probes"), Some(4_000.0));
        assert_eq!(report.metric("sim_time_ns"), Some(1_000_000.0));
        assert_eq!(report.metric("cache.l1.hit_rate"), Some(0.75));
        assert_eq!(report.metric("attack.entropy_bits.stage1"), Some(2.5));
        assert_eq!(report.metric("hierarchy.read_cycles.count"), Some(2.0));
        assert_eq!(report.metric("hierarchy.read_cycles.mean"), Some(6.0));
        assert_eq!(
            report.metric("attack.stage1.line_hits.l00.s000"),
            None,
            "diagnostic counters stay out of the gate"
        );
        assert_eq!(report.metric("attack.stage1.joint.p0.l00"), None);
        let names: Vec<_> = report.metrics.iter().map(|(n, _)| n.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "metrics are name-sorted");
    }

    #[test]
    fn json_round_trips() {
        let report = sample_report();
        let json = report.to_json();
        assert!(json.contains(SCHEMA));
        let back = BenchReport::from_json(&json).expect("parses");
        assert_eq!(back, report);
        assert!(BenchReport::from_json("{}").is_err());
        assert!(BenchReport::from_json("{\"schema\":\"other/v9\"}").is_err());
    }

    #[test]
    fn wall_sections_round_trip_and_never_gate() {
        let mut report = sample_report();
        report.record_wall("run", 2_000_000_000, 500.0);
        let json = report.to_json();
        assert!(json.contains("\"wall\""));
        let back = BenchReport::from_json(&json).expect("parses");
        assert_eq!(back, report);
        assert_eq!(back.wall[0].wall_ns, 2e9);
        assert_eq!(back.wall[0].throughput, 250.0, "500 units over 2 s");

        // A wildly different wall time never fails the gate...
        let mut slower = report.clone();
        slower.wall[0].wall_ns *= 100.0;
        slower.wall[0].throughput /= 100.0;
        assert!(report.compare(&slower, 0.0).is_empty());
        // ...and baselines are written without the machine-dependent block.
        let stripped = report.without_wall();
        assert!(stripped.wall.is_empty());
        assert_eq!(stripped.metrics, report.metrics);
        assert!(!stripped.to_json().contains("wall_ns"));
        // Reports without a wall block (every pre-existing baseline) still
        // serialize and parse exactly as before.
        let plain = sample_report();
        assert!(!plain.to_json().contains("\"wall\""));
        assert!(BenchReport::from_json(&plain.to_json())
            .expect("parses")
            .wall
            .is_empty());
        // Zero elapsed time degrades to zero throughput, not a NaN.
        assert_eq!(WallSection::new("empty", 0, 10.0).throughput, 0.0);
    }

    #[test]
    fn rated_wall_sections_round_trip_and_key_by_batch_width() {
        let mut report = sample_report();
        report.push_wall(
            WallSection::new("cells", 1_000_000_000, 128.0)
                .with_rate("cells/sec")
                .with_batch_width(16.0),
        );
        let json = report.to_json();
        assert!(json.contains("\"rate\": \"cells/sec\""));
        assert!(json.contains("\"batch_width\": 16"));
        assert_eq!(
            json,
            concat!(
                "{\n",
                "  \"schema\":\"grinch-bench-report/v1\",\n",
                "  \"name\":\"unit\",\n",
                "  \"metrics\":{\n",
                "    \"attack.entropy_bits.stage1\": 2.5,\n",
                "    \"attack.probes\": 4000.0,\n",
                "    \"attack.stage1.probes\": 1000.0,\n",
                "    \"cache.l1.hit_rate\": 0.75,\n",
                "    \"cache.l1.hits\": 300.0,\n",
                "    \"cache.l1.misses\": 100.0,\n",
                "    \"hierarchy.read_cycles.count\": 2.0,\n",
                "    \"hierarchy.read_cycles.mean\": 6.0,\n",
                "    \"sim_time_ns\": 1000000.0\n",
                "  },\n",
                "  \"wall\":{\n",
                "    \"cells\": {\"wall_ns\": 1000000000.0, \"throughput\": 128.0, \"rate\": \"cells/sec\", \"batch_width\": 16.0}\n",
                "  }}\n",
            )
        );
        let back = BenchReport::from_json(&json).expect("parses");
        assert_eq!(back, report);
        assert_eq!(back.wall[0].rate.as_deref(), Some("cells/sec"));
        assert_eq!(back.wall[0].batch_width, Some(16.0));
        assert_eq!(back.wall[0].series_key(), "cells@b16");
        // An unlabelled section keys by name alone, so a batched run never
        // shares a series with an unbatched one.
        let plain = WallSection::new("cells", 1_000_000_000, 128.0);
        assert_eq!(plain.series_key(), "cells");
        assert_ne!(plain.series_key(), back.wall[0].series_key());
        // Legacy reports (no rate/batch_width) still parse to None fields.
        let mut legacy = sample_report();
        legacy.record_wall("run", 2_000_000_000, 500.0);
        let back = BenchReport::from_json(&legacy.to_json()).expect("parses");
        assert_eq!(back.wall[0].rate, None);
        assert_eq!(back.wall[0].batch_width, None);
    }

    #[test]
    fn compare_passes_within_tolerance_and_fails_outside() {
        let baseline = sample_report();
        let mut current = baseline.clone();
        // +4% on one metric: inside a 5% gate, outside a 1% gate.
        for (name, v) in &mut current.metrics {
            if name == "attack.probes" {
                *v *= 1.04;
            }
        }
        assert!(baseline.compare(&current, 0.05).is_empty());
        let failures = baseline.compare(&current, 0.01);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].name, "attack.probes");
        assert!((failures[0].deviation - 0.04).abs() < 1e-9);
        assert!(failures[0].describe().contains("attack.probes"));
    }

    #[test]
    fn vanished_and_zero_baseline_metrics_fail() {
        let mut baseline = sample_report();
        baseline.metrics.push(("ghost.metric".into(), 10.0));
        baseline.metrics.push(("zero.metric".into(), 0.0));
        baseline.metrics.sort_by(|a, b| a.0.cmp(&b.0));
        let mut current = sample_report();
        current.metrics.push(("zero.metric".into(), 3.0));
        let failures = baseline.compare(&current, 0.5);
        let names: Vec<_> = failures.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"ghost.metric"), "{names:?}");
        assert!(names.contains(&"zero.metric"), "{names:?}");
        assert!(failures.iter().all(|f| f.deviation.is_infinite()));
        // Extra metrics only in current never fail.
        let extra_only = baseline.compare(&baseline.clone(), 0.0);
        assert!(extra_only
            .iter()
            .all(|f| f.name != "zero.metric" || f.current.is_none()));
    }

    #[test]
    fn gate_bootstraps_then_passes_then_regresses() {
        let dir = std::env::temp_dir().join(format!("grinch-obs-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_unit.json");
        let _ = std::fs::remove_file(&path);

        let report = sample_report();
        // 1. no baseline: bootstrap writes it.
        let outcome = check_or_bootstrap(&report, &path, 0.05).unwrap();
        assert_eq!(outcome, GateOutcome::Bootstrapped);
        assert!(path.is_file(), "baseline written");

        // 2. identical run: pass.
        let outcome = check_or_bootstrap(&report, &path, 0.0).unwrap();
        assert!(matches!(outcome, GateOutcome::Pass { compared } if compared > 0));

        // 3. perturbed run: regression.
        let mut worse = report.clone();
        for (name, v) in &mut worse.metrics {
            if name == "attack.probes" {
                *v *= 2.0;
            }
        }
        match check_or_bootstrap(&worse, &path, 0.05).unwrap() {
            GateOutcome::Regressed(failures) => {
                assert_eq!(failures.len(), 1);
                assert_eq!(failures[0].name, "attack.probes");
            }
            other => panic!("expected regression, got {other:?}"),
        }

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
