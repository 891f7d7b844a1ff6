//! `grinch-campaign serve`: campaign submission and monitoring over HTTP.
//!
//! The service mounts campaign endpoints on the same zero-dependency
//! [`grinch_obs`] server the arena's live plane uses ([`Router`] over a
//! plain `TcpListener` — no async runtime, no HTTP crate):
//!
//! | method | path | purpose |
//! |---|---|---|
//! | `POST` | `/campaigns` | submit a `grinch-campaign-config/v1` document |
//! | `GET` | `/campaigns` | list known campaigns and the queue |
//! | `GET` | `/campaigns/<id>` | per-shard progress of one campaign |
//! | `GET` | `/campaigns/<id>/matrix` | aggregated matrix (409 while incomplete) |
//! | `GET` | `/campaigns/<id>/heatmap` | success-rate heatmap (SVG) |
//! | `GET` | `/metrics` | Prometheus text exposition |
//! | `GET` | `/healthz` | service liveness |
//!
//! Submissions land in a **bounded** queue drained by one worker thread;
//! a full queue answers `429 Too Many Requests` with an explicit
//! `Retry-After` header rather than buffering without limit — the client
//! owns the retry, the server owns the bound. Re-submitting a config the
//! registry already knows (same identity fingerprint) is idempotent: it
//! answers `200` with the current status instead of queueing a duplicate.
//!
//! The worker runs each campaign's shards sequentially through
//! [`run_journaled`], so everything the service executes is journaled,
//! resumable and byte-deterministic exactly like the CLI paths — killing
//! the server mid-campaign and restarting it over the same journal
//! directory resumes instead of recomputing. Progress reads come straight
//! from the journals on disk (atomic line appends make concurrent reads
//! safe), so status survives restarts too.

use crate::aggregate::{aggregate_plan, Aggregation};
use crate::shard::ShardPlan;
use grinch_arena::journal::{run_journaled, JournalState};
use grinch_arena::{CampaignConfig, Metric};
use grinch_obs::{HttpRequest, HttpResponse, LiveServer, Router};
use grinch_telemetry::json::{Layout, ObjWriter};
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration of the serve mode.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address (`127.0.0.1:0` binds an ephemeral port).
    pub addr: String,
    /// Directory holding shard journals and aggregated matrices.
    pub journal_dir: PathBuf,
    /// Maximum campaigns *waiting* in the submission queue; a submission
    /// beyond this answers 429.
    pub queue_capacity: usize,
    /// Shards each accepted campaign is split into.
    pub shards: usize,
    /// Worker threads per shard run (`0` keeps each config's own `jobs`).
    pub jobs: usize,
    /// Per-cell sleep inside shard runs — the CI hook for widening the
    /// kill window; `0` disables it. Never feeds results.
    pub throttle_ms: u64,
    /// `Retry-After` seconds advertised on a 429.
    pub retry_after_secs: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            journal_dir: PathBuf::from("results/campaign"),
            queue_capacity: 4,
            shards: 1,
            jobs: 0,
            throttle_ms: 0,
            retry_after_secs: 2,
        }
    }
}

/// Lifecycle of one submitted campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    Done,
    Failed(String),
}

impl Phase {
    fn name(&self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Failed(_) => "failed",
        }
    }
}

struct Entry {
    config: CampaignConfig,
    phase: Phase,
}

/// Monotonic service counters exported on `/metrics`.
#[derive(Default)]
struct Counters {
    submitted: u64,
    accepted: u64,
    deduplicated: u64,
    rejected_full: u64,
    rejected_invalid: u64,
    completed: u64,
    failed: u64,
    cells_run: u64,
    cells_reused: u64,
}

struct Registry {
    entries: BTreeMap<String, Entry>,
    queue: VecDeque<String>,
    counters: Counters,
}

/// A running serve instance: the HTTP server plus its worker thread.
///
/// Dropping the handle (or calling [`ServeHandle::shutdown`]) stops
/// accepting work and joins both threads; a campaign mid-shard finishes
/// its current shard first, everything else stays journaled for the next
/// start to resume.
pub struct ServeHandle {
    server: Option<LiveServer>,
    worker: Option<std::thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServeHandle {
    /// The actually-bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the worker and the HTTP server, joining both.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds the HTTP service and spawns the campaign worker.
pub fn serve(opts: ServeOptions) -> std::io::Result<ServeHandle> {
    std::fs::create_dir_all(&opts.journal_dir)?;
    let registry = Arc::new(Mutex::new(Registry {
        entries: BTreeMap::new(),
        queue: VecDeque::new(),
        counters: Counters::default(),
    }));
    let stop = Arc::new(AtomicBool::new(false));

    let server = LiveServer::bind_with_router(&opts.addr, router(&opts, Arc::clone(&registry)))?;
    let addr = server.addr();

    let worker_registry = Arc::clone(&registry);
    let worker_stop = Arc::clone(&stop);
    let worker_opts = opts.clone();
    let worker = std::thread::Builder::new()
        .name("grinch-campaign-worker".to_string())
        .spawn(move || worker_loop(worker_opts, worker_registry, worker_stop))
        .expect("spawn campaign worker thread");

    Ok(ServeHandle {
        server: Some(server),
        worker: Some(worker),
        stop,
        addr,
    })
}

/// The worker: pops one campaign at a time off the queue and runs its
/// shards sequentially through the journaled engine.
fn worker_loop(opts: ServeOptions, registry: Arc<Mutex<Registry>>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        let next = {
            let mut reg = registry.lock().expect("registry poisoned");
            match reg.queue.pop_front() {
                Some(id) => {
                    let entry = reg.entries.get_mut(&id).expect("queued id is registered");
                    entry.phase = Phase::Running;
                    Some((id, entry.config.clone()))
                }
                None => None,
            }
        };
        let Some((id, mut config)) = next else {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        if opts.jobs > 0 {
            config.jobs = opts.jobs;
        }

        let plan = ShardPlan::new(&config, opts.shards);
        let mut failure: Option<String> = None;
        for index in 0..plan.num_shards {
            let path = plan.journal_path(&opts.journal_dir, index);
            match run_journaled(
                &config,
                &path,
                Some((index, plan.num_shards)),
                None,
                opts.throttle_ms,
            ) {
                Ok(outcome) => {
                    let mut reg = registry.lock().expect("registry poisoned");
                    reg.counters.cells_run += outcome.ran_cells as u64;
                    reg.counters.cells_reused += outcome.reused_cells as u64;
                }
                Err(e) => {
                    failure = Some(format!("shard {index}: {e}"));
                    break;
                }
            }
        }

        // Persist the aggregated matrix next to the journals so the result
        // outlives the process (the /matrix endpoint also reads from the
        // journals directly).
        if failure.is_none() {
            failure = aggregate_plan(&plan, &opts.journal_dir)
                .and_then(|agg| agg.matrix())
                .and_then(|matrix| {
                    let out = opts.journal_dir.join(plan.matrix_name());
                    // to_json() is newline-terminated already.
                    std::fs::write(&out, matrix.to_json())
                        .map_err(|e| format!("write {}: {e}", out.display()))
                })
                .err();
        }

        let mut reg = registry.lock().expect("registry poisoned");
        let entry = reg.entries.get_mut(&id).expect("running id is registered");
        match failure {
            None => {
                entry.phase = Phase::Done;
                reg.counters.completed += 1;
            }
            Some(e) => {
                entry.phase = Phase::Failed(e);
                reg.counters.failed += 1;
            }
        }
    }
}

fn router(opts: &ServeOptions, registry: Arc<Mutex<Registry>>) -> Router {
    let submit_opts = opts.clone();
    let submit_reg = Arc::clone(&registry);
    let list_reg = Arc::clone(&registry);
    let detail_opts = opts.clone();
    let detail_reg = Arc::clone(&registry);
    let metrics_reg = Arc::clone(&registry);
    let health_reg = registry;

    Router::new()
        .post("/campaigns", move |req: &HttpRequest| {
            handle_submit(req, &submit_opts, &submit_reg)
        })
        .get("/campaigns", move |_| {
            let reg = list_reg.lock().expect("registry poisoned");
            let mut w = ObjWriter::new();
            w.arr("campaigns", Layout::Compact, |a| {
                for (id, entry) in &reg.entries {
                    a.obj(Layout::Compact, |w| {
                        w.str("campaign_id", id).str("state", entry.phase.name());
                    });
                }
            })
            .u64("queue_depth", reg.queue.len() as u64);
            HttpResponse::json(200, format!("{}\n", w.finish()))
        })
        .get_prefix("/campaigns/", move |req: &HttpRequest| {
            handle_campaign_get(req, &detail_opts, &detail_reg)
        })
        .get("/metrics", move |_| {
            let reg = metrics_reg.lock().expect("registry poisoned");
            let mut r = HttpResponse::text(200, exposition(&reg));
            r.content_type = "text/plain; version=0.0.4; charset=utf-8".to_string();
            r
        })
        .get("/healthz", move |_| {
            let reg = health_reg.lock().expect("registry poisoned");
            let running = reg
                .entries
                .iter()
                .find(|(_, e)| e.phase == Phase::Running)
                .map(|(id, _)| id.clone());
            let mut w = ObjWriter::new();
            w.str("status", "ok")
                .u64("campaigns", reg.entries.len() as u64)
                .u64("queue_depth", reg.queue.len() as u64);
            match running {
                Some(id) => w.str("running", &id),
                None => w.null("running"),
            };
            HttpResponse::json(200, format!("{}\n", w.finish()))
        })
        .get("/", |_| {
            HttpResponse::text(
                200,
                "grinch-campaign serve\n\n\
                 POST /campaigns                submit a grinch-campaign-config/v1 document\n\
                 GET  /campaigns                known campaigns + queue depth\n\
                 GET  /campaigns/<id>           per-shard progress\n\
                 GET  /campaigns/<id>/matrix    aggregated matrix (409 while incomplete)\n\
                 GET  /campaigns/<id>/heatmap   success-rate heatmap (SVG)\n\
                 GET  /metrics                  Prometheus text exposition\n\
                 GET  /healthz                  service liveness\n",
            )
        })
}

fn handle_submit(
    req: &HttpRequest,
    opts: &ServeOptions,
    registry: &Arc<Mutex<Registry>>,
) -> HttpResponse {
    let mut reg = registry.lock().expect("registry poisoned");
    reg.counters.submitted += 1;
    let config = match CampaignConfig::from_config_json(&req.body) {
        Ok(config) => config,
        Err(e) => {
            reg.counters.rejected_invalid += 1;
            return HttpResponse::json(400, error_json(&e));
        }
    };
    let id = config.fingerprint();

    // Idempotent re-submission: same identity answers with its status.
    if let Some(phase) = reg.entries.get(&id).map(|entry| entry.phase.clone()) {
        reg.counters.deduplicated += 1;
        let body = submit_json(&id, phase.name(), &config, opts);
        return HttpResponse::json(200, body);
    }
    // Backpressure: the queue is bounded, the client owns the retry.
    if reg.queue.len() >= opts.queue_capacity {
        reg.counters.rejected_full += 1;
        let mut w = ObjWriter::new();
        w.str("error", "submission queue full")
            .u64("queue_depth", reg.queue.len() as u64)
            .u64("retry_after_secs", opts.retry_after_secs);
        return HttpResponse::json(429, format!("{}\n", w.finish()))
            .with_header("Retry-After", opts.retry_after_secs.to_string());
    }

    reg.counters.accepted += 1;
    reg.entries.insert(
        id.clone(),
        Entry {
            config: config.clone(),
            phase: Phase::Queued,
        },
    );
    reg.queue.push_back(id.clone());
    HttpResponse::json(202, submit_json(&id, "queued", &config, opts))
}

fn submit_json(id: &str, state: &str, config: &CampaignConfig, opts: &ServeOptions) -> String {
    let mut w = ObjWriter::new();
    w.str("campaign_id", id)
        .str("state", state)
        .u64("cells", config.num_cells() as u64)
        .u64("shards", opts.shards.max(1) as u64);
    format!("{}\n", w.finish())
}

fn handle_campaign_get(
    req: &HttpRequest,
    opts: &ServeOptions,
    registry: &Arc<Mutex<Registry>>,
) -> HttpResponse {
    let rest = req.path.trim_start_matches("/campaigns/");
    let (id, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let (config, phase) = {
        let reg = registry.lock().expect("registry poisoned");
        match reg.entries.get(id) {
            Some(entry) => (entry.config.clone(), entry.phase.clone()),
            None => {
                return HttpResponse::json(404, error_json(&format!("unknown campaign {id:?}")))
            }
        }
    };
    let plan = ShardPlan::new(&config, opts.shards);
    match tail {
        None => HttpResponse::json(200, status_json(id, &phase, &config, &plan, opts)),
        Some("matrix") => match complete_aggregation(&plan, opts) {
            Ok(agg) => match agg.matrix() {
                Ok(matrix) => HttpResponse::json(200, matrix.to_json()),
                Err(e) => HttpResponse::json(500, error_json(&e)),
            },
            Err(resp) => resp,
        },
        Some("heatmap") => match complete_aggregation(&plan, opts) {
            Ok(agg) => match agg.matrix() {
                Ok(matrix) => {
                    let mut r = HttpResponse::text(200, matrix.heat(Metric::SuccessRate).svg());
                    r.content_type = "image/svg+xml".to_string();
                    r
                }
                Err(e) => HttpResponse::json(500, error_json(&e)),
            },
            Err(resp) => resp,
        },
        Some(other) => {
            HttpResponse::json(404, error_json(&format!("no such campaign view {other:?}")))
        }
    }
}

/// Aggregates a campaign's journals, mapping "not done yet" onto the 409
/// the matrix/heatmap endpoints answer while shards are still running.
fn complete_aggregation(
    plan: &ShardPlan,
    opts: &ServeOptions,
) -> Result<Aggregation, HttpResponse> {
    match aggregate_plan(plan, &opts.journal_dir) {
        Ok(agg) if agg.is_complete() => Ok(agg),
        Ok(agg) => {
            let mut w = ObjWriter::new();
            w.str("error", "campaign incomplete")
                .u64("cells_missing", agg.missing.len() as u64)
                .u64("cells_done", agg.results.len() as u64);
            Err(HttpResponse::json(409, format!("{}\n", w.finish())))
        }
        Err(e) if e.contains("no journals") => Err(HttpResponse::json(
            409,
            error_json("campaign has not started"),
        )),
        Err(e) => Err(HttpResponse::json(500, error_json(&e))),
    }
}

/// The per-campaign status document: registry phase plus per-shard journal
/// progress read from disk — atomic line appends make the concurrent read
/// safe, and the numbers survive server restarts.
fn status_json(
    id: &str,
    phase: &Phase,
    config: &CampaignConfig,
    plan: &ShardPlan,
    opts: &ServeOptions,
) -> String {
    let mut shards = Vec::new();
    let mut cells_done = 0usize;
    for index in 0..plan.num_shards {
        let target = plan.shards[index].len();
        let (done, finalized) =
            match JournalState::load(plan.journal_path(&opts.journal_dir, index)) {
                Ok(Some(state)) if state.campaign_id == *id => (state.cells.len(), state.finalized),
                _ => (0, false),
            };
        cells_done += done.min(target);
        let mut w = ObjWriter::new();
        w.u64("shard", index as u64)
            .u64("cells_target", target as u64)
            .u64("cells_done", done as u64)
            .bool("finalized", finalized);
        shards.push(w.finish());
    }
    let mut w = ObjWriter::new();
    w.str("campaign_id", id)
        .str("state", phase.name())
        .u64("cells_total", config.num_cells() as u64)
        .u64("cells_done", cells_done as u64);
    if let Phase::Failed(e) = phase {
        w.str("error", e);
    }
    w.arr("shards", Layout::Compact, |a| {
        shards.iter().for_each(|s| a.raw(s))
    });
    format!("{}\n", w.finish())
}

fn error_json(message: &str) -> String {
    let mut w = ObjWriter::new();
    w.str("error", message);
    format!("{}\n", w.finish())
}

/// Hand-rolled Prometheus exposition of the service counters; the shape
/// always passes [`grinch_obs::validate_exposition`].
fn exposition(reg: &Registry) -> String {
    let running = reg
        .entries
        .values()
        .filter(|e| e.phase == Phase::Running)
        .count();
    let mut out = String::new();
    let mut sample = |name: &str, kind: &str, help: &str, value: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
        ));
    };
    sample(
        "grinch_campaign_submissions_total",
        "counter",
        "Campaign submissions received (any outcome).",
        reg.counters.submitted,
    );
    sample(
        "grinch_campaign_accepted_total",
        "counter",
        "Submissions accepted into the queue.",
        reg.counters.accepted,
    );
    sample(
        "grinch_campaign_deduplicated_total",
        "counter",
        "Submissions answered idempotently (identity already known).",
        reg.counters.deduplicated,
    );
    sample(
        "grinch_campaign_rejected_full_total",
        "counter",
        "Submissions rejected with 429 because the queue was full.",
        reg.counters.rejected_full,
    );
    sample(
        "grinch_campaign_rejected_invalid_total",
        "counter",
        "Submissions rejected with 400 as unparseable configs.",
        reg.counters.rejected_invalid,
    );
    sample(
        "grinch_campaign_completed_total",
        "counter",
        "Campaigns run to a complete aggregated matrix.",
        reg.counters.completed,
    );
    sample(
        "grinch_campaign_failed_total",
        "counter",
        "Campaigns that failed mid-run.",
        reg.counters.failed,
    );
    sample(
        "grinch_campaign_cells_run_total",
        "counter",
        "Cells executed by this process.",
        reg.counters.cells_run,
    );
    sample(
        "grinch_campaign_cells_reused_total",
        "counter",
        "Cells reused from journals instead of re-running.",
        reg.counters.cells_reused,
    );
    sample(
        "grinch_campaign_queue_depth",
        "gauge",
        "Campaigns waiting in the submission queue.",
        reg.queue.len() as u64,
    );
    sample(
        "grinch_campaign_running",
        "gauge",
        "Campaigns currently executing (0 or 1).",
        running as u64,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use grinch_arena::run_campaign;
    use grinch_arena::{AttackSpec, DefenseSpec};
    use grinch_obs::live::{http_get, http_post, validate_exposition};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("grinch-serve-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmpdir");
        dir
    }

    /// A one-cell campaign — the smallest thing the engine will run — so
    /// serve tests stay fast even with a throttle.
    fn tiny(seed: u64) -> CampaignConfig {
        CampaignConfig {
            defenses: vec![DefenseSpec::WayPartition],
            attacks: vec![AttackSpec::PrimeProbe],
            noise_levels: vec![0.0],
            trials: 1,
            seed,
            max_stage_encryptions: 500,
            jobs: 1,
        }
    }

    fn wait_for_state(addr: &str, id: &str, state: &str) -> String {
        for _ in 0..500 {
            let (code, body) = http_get(addr, &format!("/campaigns/{id}")).expect("status");
            assert_eq!(code, 200, "{body}");
            if body.contains(&format!("\"state\":\"{state}\"")) {
                return body;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("campaign {id} never reached state {state:?}");
    }

    #[test]
    fn submission_runs_to_a_deterministic_matrix() {
        let dir = tmpdir("run");
        let handle = serve(ServeOptions {
            journal_dir: dir.clone(),
            shards: 2,
            ..ServeOptions::default()
        })
        .expect("binds");
        let addr = handle.addr().to_string();

        let cfg = tiny(7);
        let id = cfg.fingerprint();
        let (code, _, body) = http_post(&addr, "/campaigns", &cfg.config_json()).expect("POST");
        assert_eq!(code, 202, "{body}");
        assert!(body.contains(&id), "{body}");

        let status = wait_for_state(&addr, &id, "done");
        assert!(status.contains("\"cells_done\":1"), "{status}");

        // The served matrix is byte-identical to a direct in-process run.
        let (code, body) = http_get(&addr, &format!("/campaigns/{id}/matrix")).expect("matrix");
        assert_eq!(code, 200, "{body}");
        assert_eq!(body, run_campaign(&cfg).to_json());
        // ... and was also persisted next to the journals.
        let on_disk = std::fs::read_to_string(dir.join(ShardPlan::new(&cfg, 2).matrix_name()))
            .expect("matrix file");
        assert_eq!(on_disk, run_campaign(&cfg).to_json());

        // Heatmap renders from the aggregated matrix.
        let (code, svg) = http_get(&addr, &format!("/campaigns/{id}/heatmap")).expect("heatmap");
        assert_eq!(code, 200);
        assert!(svg.starts_with("<svg"), "{}", &svg[..svg.len().min(60)]);

        // Idempotent re-submission: 200 with status, not a second run.
        let (code, _, body) = http_post(&addr, "/campaigns", &cfg.config_json()).expect("POST");
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"state\":\"done\""), "{body}");

        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_queue_backpressure_answers_429_with_retry_after() {
        let dir = tmpdir("backpressure");
        // Capacity 1 and a fat throttle: the first campaign occupies the
        // worker long enough that the queue state below is deterministic.
        let handle = serve(ServeOptions {
            journal_dir: dir.clone(),
            queue_capacity: 1,
            throttle_ms: 400,
            ..ServeOptions::default()
        })
        .expect("binds");
        let addr = handle.addr().to_string();

        let first = tiny(1);
        let (code, _, _) = http_post(&addr, "/campaigns", &first.config_json()).expect("POST 1");
        assert_eq!(code, 202);
        // Wait until the worker has dequeued it — from here until its
        // throttled cell finishes (>= 400 ms away) the queue is empty.
        wait_for_state(&addr, &first.fingerprint(), "running");

        let (code, _, _) = http_post(&addr, "/campaigns", &tiny(2).config_json()).expect("POST 2");
        assert_eq!(code, 202, "one slot in the queue");
        let (code, headers, body) =
            http_post(&addr, "/campaigns", &tiny(3).config_json()).expect("POST 3");
        assert_eq!(code, 429, "queue full: {body}");
        let retry = headers.iter().find(|(name, _)| name == "Retry-After");
        assert_eq!(retry.map(|(_, v)| v.as_str()), Some("2"));
        assert!(body.contains("queue full"), "{body}");

        // Backpressure is advisory, not fatal: the drained queue accepts
        // the same config later.
        wait_for_state(&addr, &tiny(2).fingerprint(), "done");
        let (code, _, _) = http_post(&addr, "/campaigns", &tiny(3).config_json()).expect("retry");
        assert_eq!(code, 202);
        wait_for_state(&addr, &tiny(3).fingerprint(), "done");

        // Metrics carry the whole story and stay valid exposition.
        let (code, text) = http_get(&addr, "/metrics").expect("metrics");
        assert_eq!(code, 200);
        validate_exposition(&text).expect("valid exposition");
        assert!(
            text.contains("grinch_campaign_rejected_full_total 1"),
            "{text}"
        );
        assert!(text.contains("grinch_campaign_completed_total 3"), "{text}");

        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn endpoints_reject_the_invalid_and_unknown() {
        let dir = tmpdir("errors");
        let handle = serve(ServeOptions {
            journal_dir: dir.clone(),
            ..ServeOptions::default()
        })
        .expect("binds");
        let addr = handle.addr().to_string();

        let (code, _, body) = http_post(&addr, "/campaigns", "not json").expect("POST junk");
        assert_eq!(code, 400, "{body}");
        // Nesting far past the parser's depth bound, inside the body limit:
        // a 400, and the server is still up.
        let deep = "[".repeat(65_000);
        let (code, _, body) = http_post(&addr, "/campaigns", &deep).expect("POST deep");
        assert_eq!(code, 400, "{body}");
        let (code, body) = http_get(&addr, "/healthz").expect("GET healthz");
        assert_eq!(code, 200, "{body}");
        let (code, body) = http_get(&addr, "/campaigns/feedfacedeadbeef").expect("GET unknown");
        assert_eq!(code, 404, "{body}");
        let (code, _, _) = http_post(&addr, "/metrics", "").expect("POST /metrics");
        assert_eq!(code, 405);

        // Unknown *views* of a known campaign are 404 too.
        let cfg = tiny(9);
        let (code, _, _) = http_post(&addr, "/campaigns", &cfg.config_json()).expect("POST");
        assert_eq!(code, 202);
        let id = cfg.fingerprint();
        let (code, body) = http_get(&addr, &format!("/campaigns/{id}/nonsense")).expect("GET view");
        assert_eq!(code, 404, "{body}");

        // The list endpoint knows it either way.
        let (code, body) = http_get(&addr, "/campaigns").expect("GET list");
        assert_eq!(code, 200);
        assert!(body.contains(&id), "{body}");

        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
