//! The append-only run ledger: one `grinch-run/v1` JSONL record per run.
//!
//! `BENCH_*.json` artifacts are *snapshots* — each run overwrites the
//! last, so the performance trajectory across commits is invisible. The
//! ledger is the longitudinal complement: every quickstart, bench-bin and
//! arena invocation appends one line to `results/ledger/LEDGER.jsonl`
//! (never rewriting earlier lines), and the regression sentinel / trend
//! renderer read the series back out.
//!
//! Records are schema-stable by contract: serialize → parse →
//! re-serialize is byte-identical (pinned by test), fields are
//! unit-suffixed (`wall_ns`, throughputs in units/s), and unknown fields
//! in future schema revisions must be additive. Appending is opt-out via
//! `GRINCH_LEDGER=0` (same convention as `GRINCH_TELEMETRY`), so artifact
//! regeneration scripts can run without polluting the committed history.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use grinch_telemetry::json::{parse, JsonValue, Layout, ObjWriter};

use crate::bench::{BenchReport, WallSection};
use crate::paths;
use crate::profile::SpanProfile;

/// Schema tag stamped into every ledger record.
pub const RUN_SCHEMA: &str = "grinch-run/v1";

/// Environment variable that disables ledger appends: `0` / `off`
/// (case-insensitive) means off, anything else — including unset — means
/// on. Mirrors the `GRINCH_TELEMETRY` convention.
pub const LEDGER_ENV: &str = "GRINCH_LEDGER";

/// Whether `GRINCH_LEDGER` asks for ledger appends to happen.
pub fn ledger_enabled_from_env() -> bool {
    match std::env::var(LEDGER_ENV) {
        Ok(v) => !(v == "0" || v.eq_ignore_ascii_case("off")),
        Err(_) => true,
    }
}

/// Digest of a run's span profile: enough to tell "the shape of the time
/// changed" without storing the whole folded document per run.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileDigest {
    /// Number of distinct aggregated stacks.
    pub stacks: u64,
    /// FNV-1a hash (16 hex chars) of the collapsed-stack document.
    pub digest: String,
}

impl ProfileDigest {
    /// Digests a profile: stack count plus a hash of the folded output.
    pub fn of(profile: &SpanProfile) -> Self {
        Self {
            stacks: profile.lines.len() as u64,
            digest: fingerprint(&[&profile.folded()]),
        }
    }
}

/// One ledger line: everything the sentinel and trend renderer need to
/// compare this run against its history.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Unique id (wall-clock ms + pid + per-process counter, hex).
    pub run_id: String,
    /// Producer name (`quickstart`, `fig3`, `arena`, ...): series key.
    pub name: String,
    /// FNV-1a hash of the producer's configuration (argv today); series
    /// with different fingerprints are different experiments.
    pub config_fingerprint: String,
    /// The campaign seed, for arena runs (replayability pointer).
    pub campaign_seed: Option<u64>,
    /// Environment snapshot, key-sorted (`arch`, `build`, `os`, ...).
    pub env: Vec<(String, String)>,
    /// Selected metrics (simulated, machine-independent), name-sorted.
    pub metrics: Vec<(String, f64)>,
    /// Wall-clock sections (machine-dependent; `wall_ns` + units/s).
    pub wall: Vec<WallSection>,
    /// Span-profile digest, when the run was traced.
    pub profile: Option<ProfileDigest>,
}

impl RunRecord {
    /// Builds a record from a bench report (the metrics/wall distillation
    /// every producer already computes), stamping a fresh run id, the
    /// argv config fingerprint and the process environment snapshot.
    pub fn from_report(
        report: &BenchReport,
        profile: Option<&SpanProfile>,
        campaign_seed: Option<u64>,
    ) -> Self {
        let argv: Vec<String> = std::env::args().collect();
        let parts: Vec<&str> = std::iter::once(report.name.as_str())
            .chain(argv.iter().skip(1).map(String::as_str))
            .collect();
        Self {
            run_id: new_run_id(),
            name: report.name.clone(),
            config_fingerprint: fingerprint(&parts),
            campaign_seed,
            env: capture_env(),
            metrics: report.metrics.clone(),
            wall: report.wall.clone(),
            profile: profile.map(ProfileDigest::of),
        }
    }

    /// Serializes to one single-line JSON record (no trailing newline).
    /// Field order is fixed; parse → re-serialize is byte-identical.
    pub fn to_json(&self) -> String {
        let mut w = ObjWriter::new();
        w.str("schema", RUN_SCHEMA)
            .str("run_id", &self.run_id)
            .str("name", &self.name)
            .str("config_fingerprint", &self.config_fingerprint);
        match self.campaign_seed {
            Some(seed) => w.u64("campaign_seed", seed),
            None => w.null("campaign_seed"),
        };
        w.obj("env", Layout::Compact, |o| {
            for (k, v) in &self.env {
                o.str(k, v);
            }
        })
        .obj("metrics", Layout::Compact, |o| {
            for (k, v) in &self.metrics {
                o.f64(k, *v);
            }
        })
        .obj("wall", Layout::Compact, |o| {
            for section in &self.wall {
                o.obj(&section.name, Layout::Compact, |o| section.write(o));
            }
        });
        match &self.profile {
            Some(digest) => w.obj("profile", Layout::Compact, |p| {
                p.u64("stacks", digest.stacks).str("digest", &digest.digest);
            }),
            None => w.null("profile"),
        };
        w.finish()
    }

    /// Parses one ledger line. Rejects wrong/missing schema tags and any
    /// structurally malformed field with a description of what broke.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = parse(text).ok_or("invalid JSON")?;
        let schema = value
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing schema")?;
        if schema != RUN_SCHEMA {
            return Err(format!("unsupported schema {schema:?} (want {RUN_SCHEMA})"));
        }
        let field_str = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string {key:?}"))
        };
        let campaign_seed = match value.get("campaign_seed") {
            Some(JsonValue::Null) | None => None,
            Some(v) => Some(v.as_u64().ok_or("campaign_seed is not a u64")?),
        };
        let env = match value.get("env") {
            Some(JsonValue::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("env value for {k:?} is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing env object".into()),
        };
        let metrics = match value.get("metrics") {
            Some(JsonValue::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("metric {k:?} is not a number"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing metrics object".into()),
        };
        let wall = match value.get("wall") {
            Some(JsonValue::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    let wall_ns = v
                        .get("wall_ns")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("wall section {k:?} missing wall_ns"))?;
                    let throughput = v
                        .get("throughput")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("wall section {k:?} missing throughput"))?;
                    Ok::<_, String>(WallSection {
                        name: k.clone(),
                        wall_ns,
                        throughput,
                        rate: v
                            .get("rate")
                            .and_then(JsonValue::as_str)
                            .map(str::to_string),
                        batch_width: v.get("batch_width").and_then(JsonValue::as_f64),
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing wall object".into()),
        };
        let profile = match value.get("profile") {
            Some(JsonValue::Null) | None => None,
            Some(v) => Some(ProfileDigest {
                stacks: v
                    .get("stacks")
                    .and_then(JsonValue::as_u64)
                    .ok_or("profile missing stacks")?,
                digest: v
                    .get("digest")
                    .and_then(JsonValue::as_str)
                    .ok_or("profile missing digest")?
                    .to_string(),
            }),
        };
        Ok(Self {
            run_id: field_str("run_id")?,
            name: field_str("name")?,
            config_fingerprint: field_str("config_fingerprint")?,
            campaign_seed,
            env,
            metrics,
            wall,
            profile,
        })
    }
}

/// FNV-1a (64-bit) over a part list, folding a separator between parts so
/// `["ab","c"]` and `["a","bc"]` hash differently. Rendered as 16 lowercase
/// hex chars.
pub fn fingerprint(parts: &[&str]) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for part in parts {
        for byte in part.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(PRIME);
        }
        hash ^= 0x1f; // unit separator between parts
        hash = hash.wrapping_mul(PRIME);
    }
    format!("{hash:016x}")
}

/// The environment snapshot every record carries: key-sorted, small, and
/// build-relevant (a debug-build run should never gate a release series).
pub fn capture_env() -> Vec<(String, String)> {
    let build = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let telemetry = if grinch_telemetry::enabled_from_env() {
        "on"
    } else {
        "off"
    };
    vec![
        ("arch".to_string(), std::env::consts::ARCH.to_string()),
        ("build".to_string(), build.to_string()),
        ("family".to_string(), std::env::consts::FAMILY.to_string()),
        ("os".to_string(), std::env::consts::OS.to_string()),
        ("telemetry".to_string(), telemetry.to_string()),
    ]
}

/// A fresh, process-unique run id: wall-clock milliseconds, pid and a
/// per-process counter, all hex, dash-separated.
pub fn new_run_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("{ms:x}-{:x}-{n:x}", std::process::id())
}

/// The append-only ledger file.
#[derive(Clone, Debug)]
pub struct Ledger {
    path: PathBuf,
}

impl Ledger {
    /// The canonical ledger: `results/ledger/LEDGER.jsonl` (see
    /// [`paths::ledger_path`] for the override order).
    pub fn open_default() -> Self {
        Self::at(paths::ledger_path())
    }

    /// A ledger at an explicit path (tests, alternate histories).
    pub fn at(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record (creating parent directories and the file on
    /// first use). Strictly additive — existing lines are never touched.
    pub fn append(&self, record: &RunRecord) -> io::Result<()> {
        use std::io::Write as _;
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        writeln!(file, "{}", record.to_json())
    }

    /// Loads every record. A missing file is an empty history, not an
    /// error; a malformed line is `InvalidData` naming the line number.
    pub fn load(&self) -> io::Result<Vec<RunRecord>> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record = RunRecord::from_json(line).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: {e}", self.path.display(), i + 1),
                )
            })?;
            records.push(record);
        }
        Ok(records)
    }
}

/// The one-call producer hook: builds a record from the report the
/// producer already has and appends it to the default ledger. Honours
/// [`LEDGER_ENV`]; IO failures are reported to stderr but never take a
/// run down. Returns the ledger path on a successful append.
pub fn append_run(
    report: &BenchReport,
    profile: Option<&SpanProfile>,
    campaign_seed: Option<u64>,
) -> Option<PathBuf> {
    if !ledger_enabled_from_env() {
        return None;
    }
    let ledger = Ledger::open_default();
    let record = RunRecord::from_report(report, profile, campaign_seed);
    match ledger.append(&record) {
        Ok(()) => Some(ledger.path().to_path_buf()),
        Err(e) => {
            eprintln!(
                "run ledger: failed to append to {}: {e}",
                ledger.path().display()
            );
            None
        }
    }
}

/// Distinct producer names present in a record set, sorted.
pub fn run_names(records: &[RunRecord]) -> Vec<String> {
    let mut names: Vec<String> = records.iter().map(|r| r.name.clone()).collect();
    names.sort();
    names.dedup();
    names
}

/// Per-metric series for one producer, in ledger (chronological) order.
/// Wall sections contribute `wall.<section>.wall_ns` and
/// `wall.<section>.throughput` keys next to the plain metric names. A
/// section that recorded a batch width keys as `wall.<section>@b<width>.*`
/// ([`WallSection::series_key`]), so runs at different widths form separate
/// series instead of being compared like-for-like.
pub fn metric_series(records: &[RunRecord], name: &str) -> BTreeMap<String, Vec<f64>> {
    let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for record in records.iter().filter(|r| r.name == name) {
        for (metric, value) in &record.metrics {
            series.entry(metric.clone()).or_default().push(*value);
        }
        for section in &record.wall {
            let key = section.series_key();
            series
                .entry(format!("wall.{key}.wall_ns"))
                .or_default()
                .push(section.wall_ns);
            series
                .entry(format!("wall.{key}.throughput"))
                .or_default()
                .push(section.throughput);
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> RunRecord {
        RunRecord {
            run_id: "198f0a2b3c4-539-0".to_string(),
            name: "quickstart".to_string(),
            config_fingerprint: "deadbeef00c0ffee".to_string(),
            campaign_seed: Some(42),
            env: vec![
                ("arch".to_string(), "x86_64".to_string()),
                ("build".to_string(), "release".to_string()),
            ],
            metrics: vec![
                ("attack.encryptions".to_string(), 49152.0),
                ("attack.entropy_bits".to_string(), 0.5),
            ],
            wall: vec![WallSection {
                name: "recovery".to_string(),
                wall_ns: 1.25e9,
                throughput: 39321.6,
                rate: None,
                batch_width: None,
            }],
            profile: Some(ProfileDigest {
                stacks: 7,
                digest: "00ff00ff00ff00ff".to_string(),
            }),
        }
    }

    #[test]
    fn records_round_trip_byte_identically() {
        let record = sample_record();
        let json = record.to_json();
        let parsed = RunRecord::from_json(&json).expect("parses");
        assert_eq!(parsed, record);
        assert_eq!(parsed.to_json(), json, "parse → re-serialize is exact");

        // The None/null variants round-trip too.
        let mut bare = record;
        bare.campaign_seed = None;
        bare.profile = None;
        let json = bare.to_json();
        let parsed = RunRecord::from_json(&json).expect("parses");
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn record_serialization_is_schema_pinned() {
        // The golden string: any change to field order, naming or number
        // formatting is a schema break and must bump grinch-run/v1.
        let json = sample_record().to_json();
        assert_eq!(
            json,
            concat!(
                "{\"schema\":\"grinch-run/v1\",",
                "\"run_id\":\"198f0a2b3c4-539-0\",",
                "\"name\":\"quickstart\",",
                "\"config_fingerprint\":\"deadbeef00c0ffee\",",
                "\"campaign_seed\":42,",
                "\"env\":{\"arch\":\"x86_64\",\"build\":\"release\"},",
                "\"metrics\":{\"attack.encryptions\":49152.0,",
                "\"attack.entropy_bits\":0.5},",
                "\"wall\":{\"recovery\":{\"wall_ns\":1250000000.0,",
                "\"throughput\":39321.6}},",
                "\"profile\":{\"stacks\":7,\"digest\":\"00ff00ff00ff00ff\"}}"
            )
        );
        // The null variants, an empty env and a rated, batched section.
        let mut bare = sample_record();
        bare.campaign_seed = None;
        bare.profile = None;
        bare.env.clear();
        bare.wall[0] = WallSection::new("cells", 2_000_000_000, 64.0)
            .with_rate("cells/sec")
            .with_batch_width(16.0);
        let json = bare.to_json();
        assert_eq!(
            json,
            concat!(
                "{\"schema\":\"grinch-run/v1\",\"run_id\":\"198f0a2b3c4-539-0\",\"name\":\"quickstart\",",
                "\"config_fingerprint\":\"deadbeef00c0ffee\",\"campaign_seed\":null,",
                "\"env\":{},\"metrics\":{\"attack.encryptions\":49152.0,\"attack.entropy_bits\":0.5},",
                "\"wall\":{\"cells\":{\"wall_ns\":2000000000.0,\"throughput\":32.0,\"rate\":\"cells/sec\",",
                "\"batch_width\":16.0}},\"profile\":null}",
            )
        );
    }

    #[test]
    fn parser_rejects_malformed_records() {
        assert!(RunRecord::from_json("not json").is_err());
        assert!(RunRecord::from_json("{}").unwrap_err().contains("schema"));
        let wrong = "{\"schema\":\"grinch-run/v0\"}";
        assert!(RunRecord::from_json(wrong).unwrap_err().contains("v0"));
        let no_metrics = sample_record().to_json().replace("\"metrics\"", "\"met\"");
        assert!(RunRecord::from_json(&no_metrics)
            .unwrap_err()
            .contains("metrics"));
    }

    #[test]
    fn ledger_appends_and_loads_in_order() {
        let dir = std::env::temp_dir().join(format!("grinch-ledger-{}", std::process::id()));
        let path = dir.join("sub").join("LEDGER.jsonl");
        let _ = std::fs::remove_file(&path);
        let ledger = Ledger::at(&path);
        assert!(ledger.load().unwrap().is_empty(), "missing file is empty");

        let mut first = sample_record();
        first.run_id = "a-1-0".to_string();
        let mut second = sample_record();
        second.run_id = "a-1-1".to_string();
        second.name = "fig3".to_string();
        ledger.append(&first).unwrap();
        ledger.append(&second).unwrap();

        let records = ledger.load().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].run_id, "a-1-0");
        assert_eq!(records[1].name, "fig3");
        assert_eq!(run_names(&records), vec!["fig3", "quickstart"]);

        // A malformed line surfaces with its line number.
        std::fs::write(&path, "{\"schema\":\"nope\"}\n").unwrap();
        let err = ledger.load().unwrap_err();
        assert!(err.to_string().contains(":1:"), "line number in {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metric_series_include_wall_sections() {
        let mut a = sample_record();
        a.metrics = vec![("m".to_string(), 1.0)];
        let mut b = a.clone();
        b.metrics = vec![("m".to_string(), 2.0)];
        b.wall[0].wall_ns = 2.5e9;
        let series = metric_series(&[a, b], "quickstart");
        assert_eq!(series["m"], vec![1.0, 2.0]);
        assert_eq!(series["wall.recovery.wall_ns"], vec![1.25e9, 2.5e9]);
        assert_eq!(series["wall.recovery.throughput"].len(), 2);
    }

    #[test]
    fn rated_wall_sections_round_trip_and_split_series_by_width() {
        // rate + batch_width survive the ledger round trip exactly.
        let mut record = sample_record();
        record.wall[0].rate = Some("recoveries/sec".to_string());
        record.wall[0].batch_width = Some(64.0);
        let json = record.to_json();
        assert!(json.contains("\"rate\":\"recoveries/sec\""));
        assert!(json.contains("\"batch_width\":64.0"));
        let parsed = RunRecord::from_json(&json).expect("parses");
        assert_eq!(parsed, record);
        assert_eq!(parsed.to_json(), json);

        // A batched and an unbatched run of the same section never share a
        // wall series: the batched one keys as `recovery@b64`.
        let unbatched = sample_record();
        let series = metric_series(&[record, unbatched], "quickstart");
        assert_eq!(series["wall.recovery@b64.wall_ns"].len(), 1);
        assert_eq!(series["wall.recovery.wall_ns"].len(), 1);
    }

    #[test]
    fn fingerprints_are_stable_and_separator_folded() {
        assert_eq!(fingerprint(&["quickstart"]), fingerprint(&["quickstart"]));
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
        assert_eq!(fingerprint(&["quickstart"]).len(), 16);
    }

    #[test]
    fn run_ids_are_process_unique() {
        let a = new_run_id();
        let b = new_run_id();
        assert_ne!(a, b);
    }

    #[test]
    fn env_snapshot_is_key_sorted() {
        let env = capture_env();
        let keys: Vec<&str> = env.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        let build = env.iter().find(|(k, _)| k == "build").map(|(_, v)| v);
        assert!(matches!(
            build.map(String::as_str),
            Some("release" | "debug")
        ));
    }

    /// `sample_record`'s JSON cut after every `,`, `:`, bracket and
    /// brace: pieces that recombine into half-valid records.
    fn record_fragments() -> Vec<String> {
        let json = sample_record().to_json();
        json.split_inclusive([',', ':', '{', '}', '[', ']'])
            .map(str::to_string)
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn from_json_never_panics_on_arbitrary_bytes(
            bytes in proptest::prelude::prop::collection::vec(proptest::prelude::any::<u8>(), 0..400),
        ) {
            let _ = RunRecord::from_json(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn from_json_never_panics_on_record_token_soup(
            picks in proptest::prelude::prop::collection::vec(0usize..4096, 0..120),
        ) {
            let pieces = record_fragments();
            let soup: String = picks.iter().map(|&i| pieces[i % pieces.len()].as_str()).collect();
            let _ = RunRecord::from_json(&soup);
        }
    }
}
