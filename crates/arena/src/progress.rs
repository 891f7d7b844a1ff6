//! The arena's live progress plane: worker events, a collector that turns
//! them into streamed telemetry, and the stalled-worker watchdog.
//!
//! Sweep workers are deliberately dumb about observability — they emit
//! plain [`WorkerEvent`]s (heartbeats, cell started/completed, per-trial
//! progress) into an `mpsc` channel and never touch shared state. One
//! **collector** thread owns the channel's receiving end plus a private
//! [`Telemetry`] registry: every event updates campaign counters and the
//! shared [`LiveState`] progress view, and a
//! [`StreamingSink`] tap periodically emits sequence-numbered delta
//! snapshots that a [`spawn_delta_applier`] thread folds into the
//! `/metrics` view. A **watchdog** thread scans worker heartbeat ages and
//! flags any worker past the missed-heartbeat threshold — `/healthz`
//! flips to 503 until the worker beats again.
//!
//! Nothing in this pipeline feeds back into the sweep: cell results are a
//! pure function of `(config, cell_index)`, so the matrix stays
//! byte-identical with the live plane on or off (pinned by
//! `tests/live_identity.rs`).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use grinch_obs::live::{spawn_delta_applier, LiveServer, LiveState, WorkerView};
use grinch_telemetry::{StreamingSink, Telemetry};

use crate::spec::CampaignConfig;

/// One progress event from a sweep worker. Every event doubles as a
/// heartbeat (the collector stamps the worker's `last_beat` on all of
/// them); [`WorkerEvent::Heartbeat`] exists for the moments *between*
/// results — it is sent at each trial start, so even a worker stuck in a
/// long defended trial beats once per trial boundary.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerEvent {
    /// Sign of life with no result attached.
    Heartbeat {
        /// Worker index.
        worker: usize,
    },
    /// The worker claimed a cell from the queue.
    CellStarted {
        /// Worker index.
        worker: usize,
        /// Cell index in the campaign grid.
        cell: usize,
        /// Human label (`defense/attack/noise`).
        label: String,
        /// The cell's deterministic seed.
        seed: u64,
    },
    /// One Monte-Carlo trial finished.
    TrialDone {
        /// Worker index.
        worker: usize,
        /// Cell index the trial belongs to.
        cell: usize,
        /// Trial index within the cell.
        trial: usize,
        /// Victim encryptions the recovery attempt consumed.
        encryptions: u64,
        /// Whether the full key was recovered and verified.
        success: bool,
    },
    /// All trials of a cell are done.
    CellDone {
        /// Worker index.
        worker: usize,
        /// Cell index.
        cell: usize,
    },
    /// The worker found the queue empty and exited.
    WorkerDone {
        /// Worker index.
        worker: usize,
    },
}

/// Configuration of [`LivePlane::start`].
#[derive(Clone, Debug)]
pub struct LiveOptions {
    /// Bind address for the HTTP server (`127.0.0.1:0` = ephemeral port).
    pub addr: String,
    /// Minimum gap between streamed delta snapshots.
    pub stream_interval: Duration,
    /// Missed-heartbeat threshold after which the watchdog flags a worker.
    pub watchdog_threshold: Duration,
    /// Campaign label shown in `/progress`.
    pub campaign_label: String,
}

impl LiveOptions {
    /// Defaults: 250 ms stream interval, 5 s watchdog threshold.
    pub fn new(addr: impl Into<String>, campaign_label: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            stream_interval: Duration::from_millis(250),
            watchdog_threshold: Duration::from_secs(5),
            campaign_label: campaign_label.into(),
        }
    }
}

/// The assembled live plane: event channel, collector, delta applier,
/// watchdog and HTTP server, all wired to one shared [`LiveState`].
///
/// Lifecycle: [`start`](LivePlane::start) before the sweep, hand
/// [`sender`](LivePlane::sender) clones to the engine, then
/// [`finish`](LivePlane::finish) once the matrix is assembled (drains and
/// joins the pipeline, marks progress done) and finally
/// [`shutdown`](LivePlane::shutdown) when the endpoints should go away.
pub struct LivePlane {
    tx: Option<Sender<WorkerEvent>>,
    state: Arc<Mutex<LiveState>>,
    server: LiveServer,
    collector: Option<std::thread::JoinHandle<()>>,
    applier: Option<std::thread::JoinHandle<()>>,
    watchdog: Option<std::thread::JoinHandle<()>>,
    watchdog_stop: Arc<AtomicBool>,
}

impl LivePlane {
    /// Binds the server, seeds the progress view from `config` and spawns
    /// the collector / applier / watchdog threads.
    pub fn start(config: &CampaignConfig, opts: LiveOptions) -> std::io::Result<Self> {
        let workers = config.jobs.clamp(1, config.num_cells());
        let mut state = LiveState::default();
        state.progress.campaign = opts.campaign_label.clone();
        state.progress.total_cells = config.num_cells() as u64;
        state.progress.trials_per_cell = config.trials as u64;
        state.progress.started = Some(Instant::now());
        state.progress.workers = (0..workers).map(WorkerView::new).collect();
        state.watchdog_threshold_ms = Some(opts.watchdog_threshold.as_millis() as u64);
        let state = Arc::new(Mutex::new(state));

        let server = LiveServer::bind(&opts.addr, Arc::clone(&state))?;

        let (event_tx, event_rx) = std::sync::mpsc::channel();
        let (sink, delta_rx) = StreamingSink::channel(opts.stream_interval);
        let applier = spawn_delta_applier(delta_rx, Arc::clone(&state));
        let collector_state = Arc::clone(&state);
        let collector = std::thread::Builder::new()
            .name("arena-collector".to_string())
            .spawn(move || collector_loop(event_rx, sink, collector_state))
            .expect("spawn collector thread");

        let watchdog_stop = Arc::new(AtomicBool::new(false));
        let watchdog = Some(spawn_watchdog(
            Arc::clone(&state),
            opts.watchdog_threshold,
            Arc::clone(&watchdog_stop),
        ));

        Ok(Self {
            tx: Some(event_tx),
            state,
            server,
            collector: Some(collector),
            applier: Some(applier),
            watchdog,
            watchdog_stop,
        })
    }

    /// The bound address of the HTTP server.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// A sender clone for the sweep engine's workers.
    pub fn sender(&self) -> Sender<WorkerEvent> {
        self.tx.as_ref().expect("plane not finished yet").clone()
    }

    /// The shared state the endpoints serve (tests poke it directly).
    pub fn state(&self) -> Arc<Mutex<LiveState>> {
        Arc::clone(&self.state)
    }

    /// Campaign over: drains the event pipeline (collector emits a final
    /// delta and marks progress done), joins the worker threads of the
    /// plane and stops the watchdog. The HTTP server keeps serving the
    /// final state until [`shutdown`](LivePlane::shutdown).
    pub fn finish(&mut self) {
        self.tx = None; // hang up: collector drains and exits
        if let Some(handle) = self.collector.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.applier.take() {
            let _ = handle.join();
        }
        self.watchdog_stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.watchdog.take() {
            let _ = handle.join();
        }
    }

    /// Stops the HTTP server. Calls [`finish`](LivePlane::finish) first if
    /// the campaign pipeline is still up; the server's accept loop stops
    /// and joins as the plane drops.
    pub fn shutdown(mut self) {
        self.finish();
    }
}

impl Drop for LivePlane {
    fn drop(&mut self) {
        self.finish();
    }
}

/// The collector: folds worker events into the shared progress view and a
/// private telemetry registry, and streams delta snapshots from it.
fn collector_loop(
    rx: Receiver<WorkerEvent>,
    mut sink: StreamingSink,
    state: Arc<Mutex<LiveState>>,
) {
    // The live plane's own data bus is always on — `GRINCH_TELEMETRY`
    // governs the *simulation* traces, not the campaign metrics the
    // operator explicitly asked for with --live.
    let tel = Telemetry::new();
    let heartbeats = tel.register_counter("arena.heartbeats.total");
    let cells_started = tel.register_counter("arena.cells.started");
    let cells_completed = tel.register_counter("arena.cells.completed");
    let trials_completed = tel.register_counter("arena.trials.completed");
    let trials_succeeded = tel.register_counter("arena.trials.succeeded");
    let encryptions_total = tel.register_counter("arena.encryptions.total");
    let workers_active = tel.register_gauge("arena.workers.active");
    let workers_stalled = tel.register_gauge("arena.workers.stalled");
    let trial_encryptions = tel.register_histogram("arena.trial.encryptions");

    // Touch the campaign-shape series once so the first delta already
    // carries a full picture.
    {
        let state = state.lock().expect("live state poisoned");
        tel.set(workers_active, state.progress.workers.len() as f64);
        tel.set(workers_stalled, 0.0);
        tel.add(cells_started, 0);
        tel.add(cells_completed, 0);
        tel.add(trials_completed, 0);
        tel.add(encryptions_total, 0);
    }
    sink.flush(&tel);

    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(event) => {
                let mut locked = state.lock().expect("live state poisoned");
                let progress = &mut locked.progress;
                let beat = |w: &mut WorkerView| {
                    w.last_beat = Some(Instant::now());
                    w.stalled = false;
                };
                match event {
                    WorkerEvent::Heartbeat { worker } => {
                        if let Some(w) = progress.workers.get_mut(worker) {
                            beat(w);
                        }
                        tel.inc(heartbeats);
                    }
                    WorkerEvent::CellStarted {
                        worker,
                        cell,
                        label,
                        seed,
                    } => {
                        progress.cells_started += 1;
                        if let Some(w) = progress.workers.get_mut(worker) {
                            beat(w);
                            w.current_cell = Some(cell as u64);
                            w.current_label = label;
                            w.current_seed = Some(seed);
                        }
                        tel.inc(heartbeats);
                        tel.inc(cells_started);
                    }
                    WorkerEvent::TrialDone {
                        worker,
                        encryptions,
                        success,
                        ..
                    } => {
                        progress.trials_completed += 1;
                        progress.encryptions_total += encryptions;
                        if let Some(w) = progress.workers.get_mut(worker) {
                            beat(w);
                            w.trials_completed += 1;
                            w.encryptions += encryptions;
                        }
                        if let Some(mut batch) = tel.batch() {
                            batch.inc(heartbeats);
                            batch.inc(trials_completed);
                            if success {
                                batch.inc(trials_succeeded);
                            }
                            batch.add(encryptions_total, encryptions);
                            batch.record(trial_encryptions, encryptions);
                        }
                    }
                    WorkerEvent::CellDone { worker, .. } => {
                        progress.cells_completed += 1;
                        if let Some(w) = progress.workers.get_mut(worker) {
                            beat(w);
                            w.cells_completed += 1;
                            w.current_cell = None;
                            w.current_seed = None;
                            w.current_label.clear();
                        }
                        tel.inc(heartbeats);
                        tel.inc(cells_completed);
                    }
                    WorkerEvent::WorkerDone { worker } => {
                        if let Some(w) = progress.workers.get_mut(worker) {
                            beat(w);
                            w.done = true;
                            w.current_cell = None;
                            w.current_seed = None;
                            w.current_label.clear();
                        }
                        let active = progress.workers.iter().filter(|w| !w.done).count();
                        tel.set(workers_active, active as f64);
                    }
                }
                let stalled = progress.workers.iter().filter(|w| w.stalled).count();
                drop(locked);
                tel.set(workers_stalled, stalled as f64);
                sink.tick(&tel);
            }
            Err(RecvTimeoutError::Timeout) => {
                let stalled = {
                    let state = state.lock().expect("live state poisoned");
                    state.progress.workers.iter().filter(|w| w.stalled).count()
                };
                tel.set(workers_stalled, stalled as f64);
                sink.tick(&tel);
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    // Final emission, then mark the campaign done for /progress readers.
    sink.flush(&tel);
    state.lock().expect("live state poisoned").progress.done = true;
}

/// Spawns the watchdog: every `threshold / 4` (min 10 ms) it flags live
/// workers whose last heartbeat is older than `threshold`. A flagged
/// worker recovers on its next event (the collector clears the flag); the
/// run-wide [`LiveState::stalls_flagged`] tally never decreases.
pub fn spawn_watchdog(
    state: Arc<Mutex<LiveState>>,
    threshold: Duration,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    let poll = (threshold / 4).max(Duration::from_millis(10));
    std::thread::Builder::new()
        .name("arena-watchdog".to_string())
        .spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(poll);
                let mut locked = state.lock().expect("live state poisoned");
                let started = locked.progress.started;
                let mut newly_stalled = Vec::new();
                for worker in &mut locked.progress.workers {
                    if worker.done || worker.stalled {
                        continue;
                    }
                    // A worker that never beat is measured from campaign
                    // start — a wedged very first cell must still be flagged.
                    let age = worker.last_beat.or(started).map(|at| at.elapsed());
                    if age.is_some_and(|age| age > threshold) {
                        worker.stalled = true;
                        newly_stalled.push((worker.id, age.unwrap_or_default()));
                    }
                }
                locked.stalls_flagged += newly_stalled.len() as u64;
                let campaign = locked.progress.campaign.clone();
                drop(locked);
                for (id, age) in newly_stalled {
                    // Library code: name the campaign (the `/progress`
                    // label), not the binary that hosts the live plane.
                    eprintln!(
                        "{campaign}: watchdog: worker {id} stalled \
                         (no heartbeat for {} ms, threshold {} ms)",
                        age.as_millis(),
                        threshold.as_millis()
                    );
                }
            }
        })
        .expect("spawn watchdog thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use grinch_obs::live::{http_get, validate_exposition};

    fn smoke_options(label: &str) -> LiveOptions {
        let mut opts = LiveOptions::new("127.0.0.1:0", label);
        opts.stream_interval = Duration::ZERO;
        opts
    }

    #[test]
    fn collector_folds_events_into_progress_and_metrics() {
        let config = CampaignConfig::smoke();
        let plane = LivePlane::start(&config, smoke_options("collector-test")).expect("start");
        let tx = plane.sender();
        tx.send(WorkerEvent::CellStarted {
            worker: 0,
            cell: 3,
            label: "baseline/flush-reload/0".to_string(),
            seed: 0xfeed,
        })
        .unwrap();
        tx.send(WorkerEvent::Heartbeat { worker: 1 }).unwrap();
        tx.send(WorkerEvent::TrialDone {
            worker: 0,
            cell: 3,
            trial: 0,
            encryptions: 321,
            success: true,
        })
        .unwrap();
        tx.send(WorkerEvent::CellDone { worker: 0, cell: 3 })
            .unwrap();
        tx.send(WorkerEvent::WorkerDone { worker: 1 }).unwrap();
        drop(tx);

        let mut plane = plane;
        plane.finish();

        let state = plane.state();
        let state = state.lock().unwrap();
        assert_eq!(state.progress.cells_started, 1);
        assert_eq!(state.progress.cells_completed, 1);
        assert_eq!(state.progress.trials_completed, 1);
        assert_eq!(state.progress.encryptions_total, 321);
        assert!(state.progress.done);
        let w0 = &state.progress.workers[0];
        assert_eq!(w0.cells_completed, 1);
        assert_eq!(w0.encryptions, 321);
        assert_eq!(w0.current_cell, None, "cell cleared after CellDone");
        assert!(state.progress.workers[1].done);
        // Metrics side: the applier folded the collector's deltas.
        assert_eq!(state.metrics.counters["arena.cells.completed"], 1);
        assert_eq!(state.metrics.counters["arena.encryptions.total"], 321);
        assert_eq!(state.metrics.counters["arena.trials.succeeded"], 1);
        assert_eq!(
            state.metrics.histograms["arena.trial.encryptions"],
            (1, 321)
        );
        validate_exposition(&state.metrics.exposition()).expect("valid exposition");
    }

    #[test]
    fn watchdog_flags_silent_workers_and_healthz_recovers() {
        let config = CampaignConfig::smoke();
        let mut opts = smoke_options("watchdog-test");
        opts.watchdog_threshold = Duration::from_millis(40);
        let mut plane = LivePlane::start(&config, opts).expect("start");
        let addr = plane.addr().to_string();
        let tx = plane.sender();

        // Nobody beats: every worker gets flagged from campaign start.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (code, _) = http_get(&addr, "/healthz").expect("healthz");
            if code == 503 {
                break;
            }
            assert!(Instant::now() < deadline, "watchdog never flagged a stall");
            std::thread::sleep(Duration::from_millis(10));
        }
        {
            let state = plane.state();
            let state = state.lock().unwrap();
            assert!(state.stalls_flagged >= 1);
            assert!(!state.healthy());
        }

        // A heartbeat clears the flag and healthz goes green again.
        for worker in 0..config.jobs.clamp(1, config.num_cells()) {
            tx.send(WorkerEvent::Heartbeat { worker }).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (code, _) = http_get(&addr, "/healthz").expect("healthz");
            if code == 200 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "heartbeat never cleared the stall"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        drop(tx);
        plane.finish();
        let state = plane.state();
        assert!(
            state.lock().unwrap().stalls_flagged >= 1,
            "tally never decreases"
        );
    }

    #[test]
    fn live_endpoints_serve_while_a_real_smoke_cell_runs() {
        let mut config = CampaignConfig::smoke();
        config.trials = 1;
        let plane = LivePlane::start(&config, smoke_options("arena smoke")).expect("start");
        let addr = plane.addr().to_string();
        let sender = plane.sender();
        let journal = std::env::temp_dir().join(format!(
            "grinch-progress-{}-live-smoke.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&journal);
        let outcome = crate::journal::run_journaled(&config, &journal, None, Some(&sender), 0)
            .expect("journaled run");
        drop(sender);
        let _ = std::fs::remove_file(&journal);

        let (code, body) = http_get(&addr, "/metrics").expect("metrics");
        assert_eq!(code, 200);
        validate_exposition(&body).expect("mid-run scrape is valid exposition");
        let (code, body) = http_get(&addr, "/progress").expect("progress");
        assert_eq!(code, 200);
        let doc = grinch_telemetry::json::parse(body.trim()).expect("progress json");
        assert_eq!(doc.get("campaign").unwrap().as_str(), Some("arena smoke"));

        let mut plane = plane;
        plane.finish();
        let (_, body) = http_get(&addr, "/progress").expect("final progress");
        let doc = grinch_telemetry::json::parse(body.trim()).expect("progress json");
        assert_eq!(
            doc.get("done"),
            Some(&grinch_telemetry::json::JsonValue::Bool(true))
        );
        assert_eq!(
            doc.get("cells_completed").unwrap().as_u64(),
            Some(config.num_cells() as u64)
        );
        assert_eq!(
            doc.get("trials_completed").unwrap().as_u64(),
            Some((config.num_cells() * config.trials) as u64)
        );
        plane.shutdown();
        assert_eq!(outcome.ran_cells, config.num_cells());
        assert_eq!(
            outcome.matrix.expect("full grid").to_json(),
            crate::engine::run_campaign(&config).to_json(),
            "the live plane must not change a matrix byte"
        );
    }
}
