//! The append-only `grinch-campaign/v1` cell journal: streaming per-cell
//! results to disk so an interrupted sweep resumes instead of restarting.
//!
//! A journal is a JSONL file — one self-describing record per line,
//! extending the `grinch-run/v1` ledger record shape (schema tag, run id,
//! config fingerprint, environment snapshot) with campaign-specific
//! payloads:
//!
//! * a **header** line naming the campaign (the config-identity
//!   fingerprint from [`CampaignConfig::fingerprint`]), embedding the full
//!   canonical config so the journal is self-contained, and recording
//!   which shard of the grid this journal covers;
//! * one **cell** line per finished cell, carrying the cell index, its
//!   deterministic seed and the result in the same single-line form the
//!   matrix document uses ([`crate::report::write_cell`]) — a journaled
//!   cell re-emits byte-identically into the final matrix;
//! * a **final** line marking orderly completion, with the matrix
//!   fingerprint for full-grid journals.
//!
//! Crash safety is by construction, not by signal handling: every record
//! is appended as **one** `write_all` of the full line including its
//! newline, followed by a flush, so a `kill -9` can lose at most the line
//! being written — and the loader tolerates exactly that (a malformed
//! *trailing* line is discarded; a malformed interior line is corruption
//! and reported as an error). Re-running the campaign skips every cell
//! the journal already holds; cells are pure functions of
//! `(config, cell_index)`, so the resumed matrix is byte-identical to an
//! uninterrupted run.

use crate::cell::CellResult;
use crate::engine::{assemble_matrix, run_cells};
use crate::progress::WorkerEvent;
use crate::report::{parse_cell, write_cell, ArenaMatrix};
use crate::spec::CampaignConfig;
use grinch_obs::history::{capture_env, fingerprint, new_run_id};
use grinch_telemetry::json::{parse, JsonValue, Layout, ObjWriter};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc::Sender;
use std::sync::Mutex;

/// Schema tag stamped into every journal record.
pub const CAMPAIGN_SCHEMA: &str = "grinch-campaign/v1";

/// An open journal being appended to by a running sweep.
///
/// Appends are serialized behind an internal lock and each record is
/// written as a single flushed line, so concurrent worker threads can
/// journal through one handle and a crash never interleaves or tears
/// interior lines.
pub struct Journal {
    path: PathBuf,
    file: Mutex<std::fs::File>,
    // Wall-clock origin for the per-cell `wall_ms` diagnostic field —
    // reviewed and allowlisted for the determinism lint: it annotates
    // records but never feeds results.
    started: std::time::Instant,
    campaign_id: String,
    run_id: String,
}

impl Journal {
    /// Creates a fresh journal at `path` (truncating any previous file)
    /// and writes the header record. `shard` is `Some((index, of))` when
    /// this journal covers one shard of the grid, `None` for the full
    /// grid.
    pub fn create(
        path: impl Into<PathBuf>,
        config: &CampaignConfig,
        shard: Option<(usize, usize)>,
    ) -> io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(&path)?;
        let journal = Self {
            path,
            file: Mutex::new(file),
            started: std::time::Instant::now(),
            campaign_id: config.fingerprint(),
            run_id: new_run_id(),
        };
        journal.append_line(&header_json(
            config,
            &journal.campaign_id,
            &journal.run_id,
            shard,
        ))?;
        Ok(journal)
    }

    /// Reopens an existing journal for appending — the resume path. The
    /// caller has already loaded (and validated) `state` from the same
    /// path; appended cell records keep the original campaign id but
    /// carry a fresh run id, so the journal records *which process*
    /// produced each line across restarts.
    pub fn resume(path: impl Into<PathBuf>, state: &JournalState) -> io::Result<Self> {
        let path = path.into();
        let file = std::fs::OpenOptions::new().append(true).open(&path)?;
        Ok(Self {
            path,
            file: Mutex::new(file),
            started: std::time::Instant::now(),
            campaign_id: state.campaign_id.clone(),
            run_id: new_run_id(),
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The campaign identity this journal belongs to.
    pub fn campaign_id(&self) -> &str {
        &self.campaign_id
    }

    /// The run id stamped into records appended by this handle.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// Appends one finished cell.
    pub fn append_cell(&self, cell: usize, seed: u64, result: &CellResult) -> io::Result<()> {
        let wall_ms = self.started.elapsed().as_millis() as u64;
        let mut w = ObjWriter::new();
        w.str("schema", CAMPAIGN_SCHEMA)
            .str("record", "cell")
            .str("campaign_id", &self.campaign_id)
            .str("run_id", &self.run_id)
            .u64("cell", cell as u64)
            .u64("seed", seed)
            .u64("wall_ms", wall_ms)
            .obj("result", Layout::Compact, |o| write_cell(o, result));
        self.append_line(&w.finish())
    }

    /// Appends the final record marking orderly completion. For a
    /// full-grid journal pass the assembled matrix so its fingerprint is
    /// recorded; shard journals pass `None` (they have no full matrix).
    pub fn finalize(&self, cells_recorded: usize, matrix: Option<&ArenaMatrix>) -> io::Result<()> {
        let mut w = ObjWriter::new();
        w.str("schema", CAMPAIGN_SCHEMA)
            .str("record", "final")
            .str("campaign_id", &self.campaign_id)
            .str("run_id", &self.run_id)
            .u64("cells", cells_recorded as u64);
        match matrix {
            Some(m) => w.str("matrix_fingerprint", &fingerprint(&[&m.to_json()])),
            None => w.null("matrix_fingerprint"),
        };
        self.append_line(&w.finish())
    }

    /// The atomic append: one `write_all` of the full line including the
    /// newline, then a flush — a crash loses at most this line.
    fn append_line(&self, record: &str) -> io::Result<()> {
        let mut line = String::with_capacity(record.len() + 1);
        line.push_str(record);
        line.push('\n');
        let mut file = self.file.lock().expect("poisoned");
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

fn header_json(
    config: &CampaignConfig,
    campaign_id: &str,
    run_id: &str,
    shard: Option<(usize, usize)>,
) -> String {
    let mut w = ObjWriter::new();
    w.str("schema", CAMPAIGN_SCHEMA)
        .str("record", "header")
        .str("campaign_id", campaign_id)
        .str("run_id", run_id)
        .u64("campaign_seed", config.seed)
        .u64("num_cells", config.num_cells() as u64);
    match shard {
        Some((index, of)) => w.obj("shard", Layout::Compact, |s| {
            s.u64("index", index as u64).u64("of", of as u64);
        }),
        None => w.null("shard"),
    };
    w.obj("env", Layout::Compact, |e| {
        for (k, v) in capture_env() {
            e.str(&k, &v);
        }
    })
    .raw("config", &config.config_json());
    w.finish()
}

/// Everything a journal file says, parsed back out — the resume and
/// aggregation entry point.
#[derive(Clone, Debug)]
pub struct JournalState {
    /// Campaign identity fingerprint from the header.
    pub campaign_id: String,
    /// Run id of the process that *created* the journal.
    pub run_id: String,
    /// The campaign reconstructed from the embedded config (`jobs = 1`;
    /// an execution knob, callers pick their own).
    pub config: CampaignConfig,
    /// Shard cover declared in the header: `Some((index, of))` or `None`
    /// for the full grid.
    pub shard: Option<(usize, usize)>,
    /// Journaled results, in append order, deduplicated (byte-identical
    /// duplicates collapse; conflicting duplicates fail the load).
    pub cells: Vec<(usize, CellResult)>,
    /// Whether a final record closed the journal.
    pub finalized: bool,
    /// Whether a malformed trailing line was discarded (the mid-write
    /// crash signature).
    pub truncated_tail: bool,
}

impl JournalState {
    /// Loads a journal. `Ok(None)` if the file doesn't exist. A malformed
    /// *last* line is tolerated (a crash mid-append) and surfaced via
    /// [`JournalState::truncated_tail`]; malformed interior lines, schema
    /// mismatches, seed mismatches and conflicting duplicate cells are
    /// errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Option<Self>, String> {
        let path = path.as_ref();
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("journal {}: {e}", path.display())),
        };
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut state: Option<JournalState> = None;
        for (i, line) in lines.iter().enumerate() {
            let is_last = i + 1 == lines.len();
            match parse_record(line, &mut state) {
                Ok(()) => {}
                // Only the line a crash can tear is forgiven.
                Err(_) if is_last => {
                    if let Some(state) = &mut state {
                        state.truncated_tail = true;
                    }
                    break;
                }
                Err(e) => return Err(format!("journal {}:{}: {e}", path.display(), i + 1)),
            }
        }
        match state {
            Some(state) => Ok(Some(state)),
            None if lines.is_empty() => Ok(None),
            None => Err(format!(
                "journal {}: no parseable header record",
                path.display()
            )),
        }
    }

    /// The cell indices this journal is responsible for, in index order:
    /// its shard's cells, or the whole grid for an unsharded journal.
    pub fn target_cells(&self) -> Vec<usize> {
        let all = 0..self.config.num_cells();
        match self.shard {
            Some((index, of)) => all
                .filter(|&i| self.config.shard_of(i, of) == index)
                .collect(),
            None => all.collect(),
        }
    }

    /// Target cells not yet journaled, in index order — what a resume
    /// still has to run.
    pub fn missing_cells(&self) -> Vec<usize> {
        let done: std::collections::HashSet<usize> =
            self.cells.iter().map(|(idx, _)| *idx).collect();
        self.target_cells()
            .into_iter()
            .filter(|idx| !done.contains(idx))
            .collect()
    }

    /// Whether every target cell is journaled.
    pub fn is_complete(&self) -> bool {
        self.missing_cells().is_empty()
    }
}

fn parse_record(line: &str, state: &mut Option<JournalState>) -> Result<(), String> {
    let value = parse(line).ok_or("invalid JSON")?;
    let schema = value
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema")?;
    if schema != CAMPAIGN_SCHEMA {
        return Err(format!(
            "unsupported schema {schema:?} (want {CAMPAIGN_SCHEMA})"
        ));
    }
    let record = value
        .get("record")
        .and_then(JsonValue::as_str)
        .ok_or("missing record type")?;
    let str_field = |k: &str| {
        value
            .get(k)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field {k:?}"))
    };
    match record {
        "header" => {
            if state.is_some() {
                return Err("second header record".to_string());
            }
            let config_value = value.get("config").ok_or("header missing config")?;
            let config = CampaignConfig::from_config_json(&config_value.to_json())?;
            let campaign_id = str_field("campaign_id")?;
            if campaign_id != config.fingerprint() {
                return Err(format!(
                    "header campaign_id {campaign_id:?} does not match its embedded config \
                     (fingerprint {})",
                    config.fingerprint()
                ));
            }
            let shard = match value.get("shard") {
                Some(JsonValue::Null) | None => None,
                Some(v) => {
                    let index = v
                        .get("index")
                        .and_then(JsonValue::as_u64)
                        .ok_or("shard missing index")? as usize;
                    let of = v
                        .get("of")
                        .and_then(JsonValue::as_u64)
                        .ok_or("shard missing of")? as usize;
                    if of == 0 || index >= of {
                        return Err(format!("shard {index}/{of} out of range"));
                    }
                    Some((index, of))
                }
            };
            *state = Some(JournalState {
                campaign_id,
                run_id: str_field("run_id")?,
                config,
                shard,
                cells: Vec::new(),
                finalized: false,
                truncated_tail: false,
            });
            Ok(())
        }
        "cell" => {
            let state = state.as_mut().ok_or("cell record before header")?;
            if str_field("campaign_id")? != state.campaign_id {
                return Err("cell record from a different campaign".to_string());
            }
            let idx = value
                .get("cell")
                .and_then(JsonValue::as_u64)
                .ok_or("cell record missing cell index")? as usize;
            if idx >= state.config.num_cells() {
                return Err(format!("cell index {idx} out of range"));
            }
            let seed = value
                .get("seed")
                .and_then(JsonValue::as_u64)
                .ok_or("cell record missing seed")?;
            if seed != state.config.cell_seed(idx) {
                return Err(format!(
                    "cell {idx} seed {seed:#x} does not match the config's derivation chain"
                ));
            }
            let result = parse_cell(value.get("result").ok_or("cell record missing result")?)?;
            match state.cells.iter().find(|(i, _)| *i == idx) {
                Some((_, existing)) if *existing == result => Ok(()), // idempotent replay
                Some(_) => Err(format!("conflicting duplicate record for cell {idx}")),
                None => {
                    state.cells.push((idx, result));
                    Ok(())
                }
            }
        }
        "final" => {
            let state = state.as_mut().ok_or("final record before header")?;
            if str_field("campaign_id")? != state.campaign_id {
                return Err("final record from a different campaign".to_string());
            }
            state.finalized = true;
            Ok(())
        }
        other => Err(format!("unknown record type {other:?}")),
    }
}

/// What [`run_journaled`] did and produced.
pub struct JournalOutcome {
    /// The assembled matrix — `Some` for full-grid journals, `None` for
    /// shard journals (their cells only cover part of the grid).
    pub matrix: Option<ArenaMatrix>,
    /// Whether an existing journal was resumed (vs created fresh).
    pub resumed: bool,
    /// Cells taken from the journal without re-running.
    pub reused_cells: usize,
    /// Cells run (and journaled) by this invocation.
    pub ran_cells: usize,
    /// Every target cell's result, in cell-index order.
    pub results: Vec<(usize, CellResult)>,
}

/// Runs a campaign (or one shard of it) with every finished cell streamed
/// to the journal at `path` — the engine behind `grinch-campaign run` and
/// the `grinch-campaign serve` shard workers.
///
/// If `path` already holds a journal for the **same campaign identity and
/// shard cover**, the run resumes: journaled cells are reused, only
/// missing cells execute — a finalized *complete* journal short-circuits
/// to pure reuse without running anything, which is what lets an
/// orchestrator re-invoke every shard idempotently and pay only for the
/// incomplete ones. A journal for a different campaign or shard, or a
/// corrupt file, starts fresh (the old file is truncated). Determinism
/// makes resumption exact: reused and re-run cells are the same pure
/// functions of `(config, cell_index)`, so the final matrix is
/// byte-identical to an uninterrupted run.
///
/// `throttle_ms` sleeps after journaling each cell — a test/CI hook to
/// widen the window for killing the process mid-campaign; `0` disables
/// it. The delay never feeds results.
pub fn run_journaled(
    config: &CampaignConfig,
    path: impl AsRef<Path>,
    shard: Option<(usize, usize)>,
    observer: Option<&Sender<WorkerEvent>>,
    throttle_ms: u64,
) -> Result<JournalOutcome, String> {
    config.validate()?;
    if let Some((index, of)) = shard {
        if of == 0 || index >= of {
            return Err(format!("shard {index}/{of} out of range"));
        }
    }
    let path = path.as_ref();
    let campaign_id = config.fingerprint();

    // A same-identity, same-cover journal resumes; anything else starts
    // fresh. A finalized *complete* journal is pure reuse: nothing runs,
    // nothing is appended — re-invoking a finished shard is a no-op.
    let previous = JournalState::load(path).unwrap_or_default();
    let matching =
        previous.filter(|state| state.campaign_id == campaign_id && state.shard == shard);
    if let Some(state) = &matching {
        if state.finalized && state.is_complete() {
            let mut results = state.cells.clone();
            results.sort_by_key(|(idx, _)| *idx);
            let matrix = if shard.is_none() {
                Some(assemble_matrix(config, results.clone())?)
            } else {
                None
            };
            return Ok(JournalOutcome {
                matrix,
                resumed: true,
                reused_cells: results.len(),
                ran_cells: 0,
                results,
            });
        }
    }
    let resumable = matching.filter(|state| !state.finalized);

    let (journal, reused, resumed) = match resumable {
        Some(state) => {
            let journal = Journal::resume(path, &state)
                .map_err(|e| format!("journal {}: {e}", path.display()))?;
            (journal, state.cells, true)
        }
        None => {
            let journal = Journal::create(path, config, shard)
                .map_err(|e| format!("journal {}: {e}", path.display()))?;
            (journal, Vec::new(), false)
        }
    };

    let target: Vec<usize> = {
        let all = 0..config.num_cells();
        match shard {
            Some((index, of)) => all.filter(|&i| config.shard_of(i, of) == index).collect(),
            None => all.collect(),
        }
    };
    let done: std::collections::HashSet<usize> = reused.iter().map(|(idx, _)| *idx).collect();
    let missing: Vec<usize> = target
        .iter()
        .copied()
        .filter(|idx| !done.contains(idx))
        .collect();

    let append_errors = Mutex::new(Vec::<String>::new());
    let on_cell = |idx: usize, result: &CellResult| {
        if let Err(e) = journal.append_cell(idx, config.cell_seed(idx), result) {
            append_errors
                .lock()
                .expect("poisoned")
                .push(format!("cell {idx}: {e}"));
        }
        if throttle_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(throttle_ms));
        }
    };
    let fresh = run_cells(config, &missing, observer, Some(&on_cell));
    let append_errors = append_errors.into_inner().expect("poisoned");
    if let Some(first) = append_errors.first() {
        return Err(format!(
            "journal {}: append failed: {first}",
            path.display()
        ));
    }

    let ran = fresh.len();
    let mut results: Vec<(usize, CellResult)> = reused.into_iter().chain(fresh).collect();
    results.sort_by_key(|(idx, _)| *idx);

    let matrix = if shard.is_none() {
        Some(assemble_matrix(config, results.clone())?)
    } else {
        None
    };
    journal
        .finalize(results.len(), matrix.as_ref())
        .map_err(|e| format!("journal {}: {e}", path.display()))?;

    Ok(JournalOutcome {
        matrix,
        resumed,
        reused_cells: results.len() - ran,
        ran_cells: ran,
        results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_campaign;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("grinch-journal-{}-{name}", std::process::id()))
    }

    fn smoke_j2() -> CampaignConfig {
        CampaignConfig {
            jobs: 2,
            ..CampaignConfig::smoke()
        }
    }

    #[test]
    fn journaled_run_reproduces_the_plain_matrix() {
        let cfg = smoke_j2();
        let path = tmp("fresh.jsonl");
        let _ = std::fs::remove_file(&path);
        let outcome = run_journaled(&cfg, &path, None, None, 0).expect("runs");
        assert!(!outcome.resumed);
        assert_eq!(outcome.ran_cells, cfg.num_cells());
        assert_eq!(outcome.reused_cells, 0);
        let matrix = outcome.matrix.expect("full grid");
        assert_eq!(matrix.to_json(), run_campaign(&cfg).to_json());

        // The journal round-trips: complete, finalized, cells match.
        let state = JournalState::load(&path).expect("loads").expect("exists");
        assert!(state.finalized);
        assert!(state.is_complete());
        assert!(!state.truncated_tail);
        assert_eq!(state.campaign_id, cfg.fingerprint());
        for (idx, cell) in &state.cells {
            assert_eq!(cell, &matrix.cells[*idx]);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_journal_resumes_to_an_identical_matrix() {
        let cfg = smoke_j2();
        let path = tmp("resume.jsonl");
        let _ = std::fs::remove_file(&path);
        let full = run_journaled(&cfg, &path, None, None, 0)
            .expect("runs")
            .matrix
            .expect("full grid")
            .to_json();

        // Simulate a kill after two cells: keep header + 2 cell lines and
        // tear the third mid-write.
        let text = std::fs::read_to_string(&path).expect("journal text");
        let lines: Vec<&str> = text.lines().collect();
        let torn = format!(
            "{}\n{}\n{}\n{}",
            lines[0],
            lines[1],
            lines[2],
            &lines[3][..lines[3].len() / 2]
        );
        std::fs::write(&path, torn).expect("rewrites");

        let state = JournalState::load(&path).expect("loads").expect("exists");
        assert!(state.truncated_tail, "torn tail must be detected");
        assert!(!state.finalized);
        assert_eq!(state.cells.len(), 2);
        assert_eq!(state.missing_cells().len(), cfg.num_cells() - 2);

        let outcome = run_journaled(&cfg, &path, None, None, 0).expect("resumes");
        assert!(outcome.resumed);
        assert_eq!(outcome.reused_cells, 2);
        assert_eq!(outcome.ran_cells, cfg.num_cells() - 2);
        assert_eq!(
            outcome.matrix.expect("full grid").to_json(),
            full,
            "resumed matrix must be byte-identical to the uninterrupted run"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_journals_start_fresh_and_complete_ones_reuse() {
        let cfg = smoke_j2();
        let path = tmp("fresh-over.jsonl");
        let _ = std::fs::remove_file(&path);

        // A finalized complete journal is pure reuse: re-invoking a
        // finished run is a no-op that hands back the same matrix.
        let first = run_journaled(&cfg, &path, None, None, 0).expect("first run");
        let outcome = run_journaled(&cfg, &path, None, None, 0).expect("second run");
        assert!(outcome.resumed, "complete journal reuses");
        assert_eq!(outcome.ran_cells, 0);
        assert_eq!(outcome.reused_cells, cfg.num_cells());
        assert_eq!(
            outcome.matrix.expect("full grid").to_json(),
            first.matrix.expect("full grid").to_json()
        );

        // A journal for a different campaign identity is replaced.
        let mut other = cfg.clone();
        other.seed ^= 1;
        let outcome = run_journaled(&other, &path, None, None, 0).expect("other identity");
        assert!(!outcome.resumed);
        let state = JournalState::load(&path).expect("loads").expect("exists");
        assert_eq!(state.campaign_id, other.fingerprint());

        // Garbage on disk is also replaced, not fatal.
        std::fs::write(&path, "complete garbage\n").expect("writes");
        let outcome = run_journaled(&cfg, &path, None, None, 0).expect("over garbage");
        assert!(!outcome.resumed);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shard_journals_cover_their_shard_and_union_to_the_grid() {
        let cfg = smoke_j2();
        let full = run_campaign(&cfg);
        let of = 2;
        let mut union = Vec::new();
        for index in 0..of {
            let path = tmp(&format!("shard-{index}.jsonl"));
            let _ = std::fs::remove_file(&path);
            let outcome =
                run_journaled(&cfg, &path, Some((index, of)), None, 0).expect("shard runs");
            assert!(outcome.matrix.is_none(), "shard runs assemble no matrix");
            let state = JournalState::load(&path).expect("loads").expect("exists");
            assert_eq!(state.shard, Some((index, of)));
            assert!(state.is_complete());
            for (idx, cell) in &outcome.results {
                assert_eq!(cfg.shard_of(*idx, of), index);
                assert_eq!(cell, &full.cells[*idx]);
            }
            union.extend(outcome.results);
            let _ = std::fs::remove_file(&path);
        }
        let matrix = assemble_matrix(&cfg, union).expect("shards cover the grid");
        assert_eq!(matrix.to_json(), full.to_json());
    }

    #[test]
    fn header_cell_and_final_records_are_pinned() {
        let cfg = CampaignConfig {
            defenses: vec![crate::spec::DefenseSpec::WayPartition],
            attacks: vec![crate::spec::AttackSpec::PrimeProbe],
            noise_levels: vec![0.0, 0.25],
            trials: 1,
            seed: 7,
            max_stage_encryptions: 500,
            jobs: 1,
        };
        let path = tmp("pinned.jsonl");
        let journal = Journal::create(&path, &cfg, Some((1, 2))).expect("creates");
        let cell = CellResult {
            defense: "partition".to_string(),
            attack: "prime-probe".to_string(),
            noise: 0.25,
            trials: 1,
            successes: 0,
            success_rate: 0.0,
            mean_encryptions_to_success: None,
            mean_residual_entropy_bits: 32.0,
        };
        journal.append_cell(1, 0xfeed, &cell).expect("appends");
        journal.finalize(1, None).expect("finalizes");
        let text = std::fs::read_to_string(&path).expect("text");
        let _ = std::fs::remove_file(&path);
        // The run id, the environment values and the wall time vary by
        // process and host; everything else is literal.
        let run_id = journal.run_id();
        let env: Vec<String> = capture_env()
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{v}\""))
            .collect();
        let env = env.join(",");
        let wall_ms = text
            .lines()
            .nth(1)
            .and_then(parse)
            .and_then(|v| v.get("wall_ms").and_then(JsonValue::as_u64))
            .expect("cell record has wall_ms");
        let expected = format!(
            concat!(
                "{{\"schema\":\"grinch-campaign/v1\",\"record\":\"header\",",
                "\"campaign_id\":\"fc568eb963a67d78\",\"run_id\":\"{run_id}\",",
                "\"campaign_seed\":7,\"num_cells\":2,\"shard\":{{\"index\":1,\"of\":2}},",
                "\"env\":{{{env}}},\"config\":{{\"schema\":\"grinch-campaign-config/v1\",",
                "\"defenses\":[\"partition\"],\"attacks\":[\"prime-probe\"],",
                "\"noise_levels\":[0.0,0.25],\"trials\":1,\"seed\":7,",
                "\"max_stage_encryptions\":500}}}}\n",
                "{{\"schema\":\"grinch-campaign/v1\",\"record\":\"cell\",",
                "\"campaign_id\":\"fc568eb963a67d78\",\"run_id\":\"{run_id}\",",
                "\"cell\":1,\"seed\":65261,\"wall_ms\":{wall_ms},\"result\":{{",
                "\"defense\":\"partition\",\"attack\":\"prime-probe\",\"noise\":0.25,",
                "\"trials\":1,\"successes\":0,\"success_rate\":0.0,",
                "\"mean_encryptions_to_success\":null,\"mean_residual_entropy_bits\":32.0}}}}\n",
                "{{\"schema\":\"grinch-campaign/v1\",\"record\":\"final\",",
                "\"campaign_id\":\"fc568eb963a67d78\",\"run_id\":\"{run_id}\",",
                "\"cells\":1,\"matrix_fingerprint\":null}}\n",
            ),
            run_id = run_id,
            env = env,
            wall_ms = wall_ms,
        );
        assert_eq!(text, expected);
    }

    #[test]
    fn loader_rejects_interior_corruption_and_conflicts() {
        let cfg = smoke_j2();
        let path = tmp("corrupt.jsonl");
        let _ = std::fs::remove_file(&path);
        run_journaled(&cfg, &path, None, None, 0).expect("runs");
        let text = std::fs::read_to_string(&path).expect("text");
        let lines: Vec<&str> = text.lines().collect();

        // A torn line in the *middle* is corruption, not a crash tail.
        let mut interior = lines.clone();
        let torn = &lines[1][..lines[1].len() / 2];
        interior[1] = torn;
        std::fs::write(&path, interior.join("\n")).expect("writes");
        let err = JournalState::load(&path).expect_err("interior corruption");
        assert!(err.contains(":2:"), "line number in {err}");

        // A conflicting duplicate cell record fails the load. Every cell
        // result carries "trials":2 in the smoke preset; drifting it makes
        // the replayed record conflict. The extra final line keeps the
        // conflict off the forgiven tail position.
        let conflicted = format!(
            "{}\n{}\n{}\n",
            lines.join("\n"),
            lines[1].replace("\"trials\":2", "\"trials\":3"),
            lines[lines.len() - 1]
        );
        std::fs::write(&path, conflicted).expect("writes");
        let err = JournalState::load(&path).expect_err("conflict");
        assert!(err.contains("conflicting duplicate"), "{err}");

        // A missing file is Ok(None).
        let _ = std::fs::remove_file(&path);
        assert!(JournalState::load(&path).expect("ok").is_none());
    }

    /// The lines of a finished smoke journal, whole and cut after every
    /// `,`, `:`, bracket and brace.
    fn journal_pieces() -> &'static (Vec<String>, Vec<String>) {
        static PIECES: std::sync::OnceLock<(Vec<String>, Vec<String>)> = std::sync::OnceLock::new();
        PIECES.get_or_init(|| {
            let path = tmp("pieces.jsonl");
            let _ = std::fs::remove_file(&path);
            run_journaled(&CampaignConfig::smoke(), &path, None, None, 0).expect("runs");
            let text = std::fs::read_to_string(&path).expect("journal text");
            let _ = std::fs::remove_file(&path);
            let lines: Vec<String> = text.lines().map(|l| format!("{l}\n")).collect();
            let fragments = lines
                .iter()
                .flat_map(|l| l.split_inclusive([',', ':', '{', '}', '[', ']', '\n']))
                .map(str::to_string)
                .collect();
            (lines, fragments)
        })
    }

    /// Loads `bytes` as a journal file; any outcome but a panic passes.
    fn load_bytes(name: &str, bytes: &[u8]) {
        let path = tmp(name);
        std::fs::write(&path, bytes).expect("writes");
        let _ = JournalState::load(&path);
        let _ = std::fs::remove_file(&path);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn load_never_panics_on_arbitrary_bytes(
            bytes in proptest::prelude::prop::collection::vec(proptest::prelude::any::<u8>(), 0..400),
        ) {
            load_bytes("bytes.jsonl", &bytes);
        }

        #[test]
        fn load_never_panics_on_record_token_soup(
            keep in 0usize..6,
            picks in proptest::prelude::prop::collection::vec(0usize..4096, 0..120),
        ) {
            // Up to `keep` valid records first, so the soup also lands
            // after a header and among cells.
            let (lines, fragments) = journal_pieces();
            let mut text: String = lines.iter().take(keep).map(String::as_str).collect();
            text.extend(picks.iter().map(|&i| fragments[i % fragments.len()].as_str()));
            load_bytes("soup.jsonl", text.as_bytes());
        }
    }
}
