//! The sweep engine: cells distributed over `std::thread` workers.
//!
//! Scheduling is a plain atomic work queue — workers pull the next cell
//! index until the grid is exhausted. Determinism does not depend on the
//! schedule: a cell's result is a pure function of `(config, cell_index)`
//! (see [`CampaignConfig::cell_seed`]), and results are stored by cell
//! index, so the assembled matrix is byte-identical for `jobs = 1` and
//! `jobs = N`.

use crate::cell::{run_cell, run_cell_hooked, CellResult, TrialProgress};
use crate::progress::WorkerEvent;
use crate::report::ArenaMatrix;
use crate::spec::CampaignConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Mutex;

/// Runs the full campaign and assembles the result matrix.
///
/// # Panics
///
/// Panics if `config` fails [`CampaignConfig::validate`] — the CLI and
/// tests validate up front; reaching the engine with a degenerate grid is
/// a programming error.
pub fn run_campaign(config: &CampaignConfig) -> ArenaMatrix {
    let all: Vec<usize> = (0..config.num_cells()).collect();
    let results = run_cells(config, &all, None, None);
    assemble_matrix(config, results).expect("full grid assembles")
}

/// The per-cell completion hook [`run_cells`] takes: called with
/// `(cell_index, result)` once per finished cell, possibly concurrently
/// from worker threads.
pub type CellHook<'a> = &'a (dyn Fn(usize, &CellResult) + Sync);

/// Runs an arbitrary subset of the campaign's cells — the primitive both
/// [`run_campaign`] (all cells) and the journaled shard workers
/// ([`run_journaled`](crate::journal::run_journaled)) are built on.
///
/// `cells` holds cell indices in any order, distributed over `config.jobs`
/// workers through the same atomic work queue as a full run. Each result
/// stays a pure function of `(config, cell_index)`, so the subset's
/// results are byte-identical to the same cells cut out of a one-shot full
/// run. `observer`, when given, receives every worker's [`WorkerEvent`]s
/// (heartbeats, cell started/done, per-trial progress) — the live plane's
/// collector sits on the other end. Send failures are ignored (a dead
/// observer must never stop the sweep), and the observer cannot perturb
/// results. `on_cell` fires once per finished cell **in completion order**
/// (concurrently from worker threads — the campaign journal serializes
/// appends behind its own lock); the returned pairs are in the order of
/// `cells`, not completion order.
///
/// # Panics
///
/// Panics if `config` fails [`CampaignConfig::validate`] or an index in
/// `cells` is out of range — callers validate up front.
pub fn run_cells(
    config: &CampaignConfig,
    cells: &[usize],
    observer: Option<&Sender<WorkerEvent>>,
    on_cell: Option<CellHook<'_>>,
) -> Vec<(usize, CellResult)> {
    config.validate().expect("invalid campaign");
    let num_cells = config.num_cells();
    assert!(
        cells.iter().all(|&idx| idx < num_cells),
        "cell index out of range"
    );
    let jobs = config.jobs.clamp(1, cells.len().max(1));

    let mut results: Vec<Option<CellResult>> = vec![None; cells.len()];
    if jobs == 1 && observer.is_none() {
        for (pos, slot) in results.iter_mut().enumerate() {
            let idx = cells[pos];
            let result = run_cell(config, idx);
            if let Some(on_cell) = on_cell {
                on_cell(idx, &result);
            }
            *slot = Some(result);
        }
    } else {
        let next = AtomicUsize::new(0);
        let slots = Mutex::new(&mut results);
        std::thread::scope(|scope| {
            for worker in 0..jobs {
                // Each worker thread owns its own sender clone.
                let tx = observer.cloned();
                let (next, slots) = (&next, &slots);
                scope.spawn(move || loop {
                    let pos = next.fetch_add(1, Ordering::Relaxed);
                    if pos >= cells.len() {
                        if let Some(tx) = &tx {
                            let _ = tx.send(WorkerEvent::WorkerDone { worker });
                        }
                        break;
                    }
                    let idx = cells[pos];
                    if let Some(tx) = &tx {
                        let (d, a, n) = config.cell_coords(idx);
                        let _ = tx.send(WorkerEvent::CellStarted {
                            worker,
                            cell: idx,
                            label: format!(
                                "{}/{}/{}",
                                config.defenses[d].name(),
                                config.attacks[a].name(),
                                config.noise_levels[n]
                            ),
                            seed: config.cell_seed(idx),
                        });
                    }
                    // The heavy work happens outside the lock; the lock
                    // only guards the per-position store.
                    let result = run_cell_hooked(config, idx, &mut |p| {
                        let Some(tx) = &tx else { return };
                        let _ = tx.send(match p {
                            TrialProgress::Started { .. } => WorkerEvent::Heartbeat { worker },
                            TrialProgress::Done {
                                trial,
                                encryptions,
                                success,
                            } => WorkerEvent::TrialDone {
                                worker,
                                cell: idx,
                                trial,
                                encryptions,
                                success,
                            },
                        });
                    });
                    if let Some(tx) = &tx {
                        let _ = tx.send(WorkerEvent::CellDone { worker, cell: idx });
                    }
                    if let Some(on_cell) = on_cell {
                        on_cell(idx, &result);
                    }
                    slots.lock().expect("poisoned")[pos] = Some(result);
                });
            }
        });
    }

    cells
        .iter()
        .copied()
        .zip(results.into_iter().map(|r| r.expect("every cell ran")))
        .collect()
}

/// Assembles indexed cell results — gathered in any order, e.g. merged
/// from several shard journals — into the campaign's [`ArenaMatrix`].
///
/// Fails if the results don't cover the grid exactly: a missing cell, an
/// out-of-range index or a duplicate each name the offending cell, so a
/// partial shard aggregation reports *what* is missing instead of
/// producing a silently wrong matrix.
pub fn assemble_matrix(
    config: &CampaignConfig,
    results: Vec<(usize, CellResult)>,
) -> Result<ArenaMatrix, String> {
    let num_cells = config.num_cells();
    let mut slots: Vec<Option<CellResult>> = vec![None; num_cells];
    for (idx, cell) in results {
        if idx >= num_cells {
            return Err(format!(
                "matrix assembly: cell index {idx} out of range (grid has {num_cells} cells)"
            ));
        }
        if slots[idx].is_some() {
            return Err(format!("matrix assembly: duplicate result for cell {idx}"));
        }
        slots[idx] = Some(cell);
    }
    let cells = slots
        .into_iter()
        .enumerate()
        .map(|(idx, slot)| slot.ok_or_else(|| format!("matrix assembly: cell {idx} missing")))
        .collect::<Result<Vec<CellResult>, String>>()?;
    Ok(ArenaMatrix {
        seed: config.seed,
        trials: config.trials as u64,
        max_stage_encryptions: config.max_stage_encryptions,
        defenses: config.defenses.iter().map(|d| d.name()).collect(),
        attacks: config
            .attacks
            .iter()
            .map(|a| a.name().to_string())
            .collect(),
        noise_levels: config.noise_levels.clone(),
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AttackSpec, DefenseSpec};

    /// The ISSUE's determinism acceptance criterion: the serialized matrix
    /// is byte-identical regardless of worker count.
    #[test]
    fn matrix_is_byte_identical_for_any_job_count() {
        let mut cfg = CampaignConfig {
            defenses: vec![DefenseSpec::Baseline, DefenseSpec::WayPartition],
            attacks: vec![AttackSpec::FlushReload, AttackSpec::PrimeProbe],
            noise_levels: vec![0.0],
            trials: 1,
            seed: 0xdead_bea7,
            max_stage_encryptions: 1_500,
            jobs: 1,
        };
        let serial = run_campaign(&cfg).to_json();
        cfg.jobs = 4;
        let parallel = run_campaign(&cfg).to_json();
        assert_eq!(serial, parallel);
    }

    /// The live plane's core guarantee: observing a campaign changes the
    /// event stream, never the matrix — and every progress event arrives.
    #[test]
    fn observer_sees_every_event_and_never_perturbs_the_matrix() {
        let cfg = CampaignConfig {
            defenses: vec![DefenseSpec::Baseline, DefenseSpec::WayPartition],
            attacks: vec![AttackSpec::FlushReload],
            noise_levels: vec![0.0],
            trials: 2,
            seed: 0x0b5e_12ed,
            max_stage_encryptions: 1_500,
            jobs: 2,
        };
        let plain = run_campaign(&cfg).to_json();
        let (tx, rx) = std::sync::mpsc::channel();
        let all: Vec<usize> = (0..cfg.num_cells()).collect();
        let observed = assemble_matrix(&cfg, run_cells(&cfg, &all, Some(&tx), None))
            .expect("full grid")
            .to_json();
        drop(tx);
        assert_eq!(plain, observed, "observer must not perturb the matrix");

        let events: Vec<WorkerEvent> = rx.iter().collect();
        let count = |pred: &dyn Fn(&WorkerEvent) -> bool| events.iter().filter(|e| pred(e)).count();
        let cells = cfg.num_cells();
        assert_eq!(
            count(&|e| matches!(e, WorkerEvent::CellStarted { .. })),
            cells
        );
        assert_eq!(count(&|e| matches!(e, WorkerEvent::CellDone { .. })), cells);
        assert_eq!(
            count(&|e| matches!(e, WorkerEvent::TrialDone { .. })),
            cells * cfg.trials
        );
        assert_eq!(
            count(&|e| matches!(e, WorkerEvent::Heartbeat { .. })),
            cells * cfg.trials,
            "one heartbeat per trial start"
        );
        assert_eq!(
            count(&|e| matches!(e, WorkerEvent::WorkerDone { .. })),
            cfg.jobs
        );
        // CellStarted carries the deterministic seed of its cell.
        for event in &events {
            if let WorkerEvent::CellStarted { cell, seed, .. } = event {
                assert_eq!(*seed, cfg.cell_seed(*cell));
            }
        }
    }

    /// The shard primitive's contract: running any subset in any order
    /// reproduces exactly the cells a one-shot full run produced, and the
    /// pieces reassemble to the identical matrix.
    #[test]
    fn subsets_reproduce_the_full_run_and_reassemble() {
        let cfg = CampaignConfig {
            jobs: 2,
            ..CampaignConfig::smoke()
        };
        let full = run_campaign(&cfg);
        // Reversed order, split into uneven halves.
        let front = run_cells(&cfg, &[3, 1], None, None);
        let back = run_cells(&cfg, &[0, 2], None, None);
        for (idx, cell) in front.iter().chain(back.iter()) {
            assert_eq!(cell, &full.cells[*idx], "cell {idx} must match full run");
        }
        let merged: Vec<(usize, CellResult)> = front.into_iter().chain(back).collect();
        let matrix = assemble_matrix(&cfg, merged).expect("complete cover");
        assert_eq!(matrix.to_json(), full.to_json());
    }

    /// `on_cell` fires exactly once per cell with that cell's final result.
    #[test]
    fn on_cell_hook_sees_every_result_once() {
        let cfg = CampaignConfig {
            jobs: 3,
            ..CampaignConfig::smoke()
        };
        let seen = Mutex::new(Vec::new());
        let results = run_cells(
            &cfg,
            &[0, 1, 2, 3],
            None,
            Some(&|idx, cell: &CellResult| {
                seen.lock().expect("poisoned").push((idx, cell.clone()));
            }),
        );
        let mut seen = seen.into_inner().expect("poisoned");
        seen.sort_by_key(|(idx, _)| *idx);
        assert_eq!(seen, results);
    }

    /// Incomplete, duplicate and out-of-range covers are rejected with a
    /// cell-specific error instead of assembling a wrong matrix.
    #[test]
    fn assemble_matrix_rejects_bad_covers() {
        let cfg = CampaignConfig::smoke();
        let results = run_cells(&cfg, &[0, 1, 2, 3], None, None);
        let missing: Vec<_> = results[..3].to_vec();
        let err = assemble_matrix(&cfg, missing).expect_err("incomplete");
        assert!(err.contains("cell 3 missing"), "{err}");
        let mut duplicated = results.clone();
        duplicated[1] = duplicated[0].clone();
        let err = assemble_matrix(&cfg, duplicated).expect_err("duplicate");
        assert!(err.contains("duplicate"), "{err}");
        let mut wild = results;
        wild[0].0 = 99;
        let err = assemble_matrix(&cfg, wild).expect_err("out of range");
        assert!(err.contains("out of range"), "{err}");
    }

    /// The ISSUE's efficacy acceptance criterion: the undefended baseline
    /// recovers the key while at least one defense drives success to zero.
    #[test]
    fn baseline_succeeds_and_a_defense_zeroes_the_attack() {
        let cfg = CampaignConfig {
            attacks: vec![AttackSpec::FlushReload],
            trials: 2,
            ..CampaignConfig::smoke()
        };
        let matrix = run_campaign(&cfg);
        let baseline = matrix
            .cell("baseline", "flush-reload", 0.0)
            .expect("baseline cell");
        assert_eq!(baseline.success_rate, 1.0, "undefended attack must work");
        let defended = matrix
            .cell("partition", "flush-reload", 0.0)
            .expect("partition cell");
        assert_eq!(defended.success_rate, 0.0, "partition must blind it");
        assert!(defended.mean_residual_entropy_bits > 30.0);
    }
}
