//! The `serve-tcp` workload: open-loop traffic over one TCP connection
//! to an in-process `NetServer`.
//!
//! **Why.** It is the only workload where the serving layers do real
//! work: `registry` lookups and evictions, `persist` reloads of evicted
//! models, `daemon` queueing on `nproc` workers, `coalesce` admission and
//! `wire` encoding both ways. Generation itself (`attrs`, `diffusion`,
//! `refine`, `mcts`, `cone`) runs behind it as in `gen-large`, at
//! 16–144 nodes.
//!
//! **Traffic.** Eight tenants share a budget of four resident models.
//! Tenant popularity is skewed (Zipf, exponent 1, tenant `k` at rank
//! `k`), not round-robin: cyclic access over a smaller budget makes
//! every lookup miss and would hide any change to caching. The ranks do
//! not depend on the seed: the tenants' models differ in cost per
//! design, so a seed that chose the hottest tenant could move the
//! saturated throughput by up to a third. Every
//! request seed is distinct and there is no duplicate burst, so the
//! coalescer is expected never to hit. Tenants are all narrow (hidden
//! 16): at the commit that added this benchmark every wide-model
//! request panics, and a mix of panics and served requests would make
//! the latency meaningless.
//!
//! **Load.** One process, two client threads on one connection at a
//! time: the main thread paces and writes requests
//! (`wire::encode_request` and `write_frame`), a reader thread reads and
//! decodes responses (`read_frame` and `decode_response`). Arrivals are
//! Poisson at a fixed rate, an open loop, and each request is timed from
//! its due time, so a stall delays every request due during it. A second
//! phase keeps a fixed window of requests in flight for the saturated
//! throughput. The two phases alternate in cycles, each on a fresh
//! connection.
//!
//! The traced run adds a ladder of higher rates, whose highest rung
//! with a p99 inside the limit and no growing backlog is
//! `serve.slo_rps`, and replays the first cycle's requests in-process
//! through a standalone `ModelRegistry` with the same budget, the traced
//! phase decomposition and the response encoding, since the server
//! exposes no per-layer figures of its own.

use crate::fleet::{
    self, agrees, digest, guarded, load, nproc, par_map, Outcome, ScratchDir, IO, MODEL_ERROR,
    OVERLOADED, SERVE_ERROR, WORKER_PANICKED,
};
use crate::layers::{per_layer, Serving};
use crate::report::{peak_rss_mb, tail_note, Report};
use crate::stats::{median, paced, percentile, poisson_schedule, sorted, Stratified};
use crate::trace::Tracer;
use crate::Args;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use syncircuit_core::{GenRequest, Generated, SynCircuit};
use syncircuit_serve::wire::{
    decode_response, encode_request, encode_response, read_frame, write_frame, RequestFrame,
    ResponseBody, ResponseFrame, MAX_FRAME_BYTES,
};
use syncircuit_serve::{
    DaemonConfig, DaemonStats, ModelRegistry, NetServer, NetServerConfig, RegistryBudget,
    ServeError,
};

const TENANTS: usize = 8;
/// Resident-model budget of the daemon's registry (and of the replay's).
const BUDGET: usize = 4;
const NODES: (usize, usize) = (16, 144);
/// Strata per block of consecutive requests (see [`Stratified`]).
const STRATA: usize = 32;
const SETUP_REPS: usize = 9;
/// Rate of the first rung, which gives `lat_p50_ms` and the tail.
const BASE_RPS: f64 = 60.0;
/// Rates the traced run climbs above the first rung.
const LADDER_RPS: [f64; 4] = [80.0, 100.0, 120.0, 140.0];
/// The latency limit a rung's p99 must meet.
const LIMIT_MS: f64 = 150.0;
/// A rate above any the server sustains, to size the saturated phase's
/// share of the trace.
const MAX_RPS: f64 = 400.0;
/// Alternations of the saturated phase and the first rung within a run,
/// each on a fresh connection.
const CYCLES: usize = 5;
/// Shares of `--seconds`: the first rung, each higher rung, and the
/// saturated phase.
const BASE_SHARE: f64 = 0.7;
const RUNG_SHARE: f64 = 0.1;
const SATURATED_SHARE: f64 = 0.2;
/// Requests kept in flight in the saturated phase.
const WINDOW_PER_WORKER: usize = 4;
/// Completions per throughput block in the saturated phase.
const BLOCK: usize = 64;
/// How long to wait for an outstanding answer before counting the rest
/// of a phase as lost.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(20);

/// One request of the trace.
#[derive(Clone, Debug)]
struct Job {
    tenant: usize,
    request: GenRequest,
}

/// The request trace, a pure function of the seed. Sizes and tenants
/// are drawn stratified (see [`Stratified`]), so every stretch of
/// `STRATA` requests has close to the same mix.
fn jobs(seed: u64, n: usize) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = rng.gen::<u64>();
    let mut sizes = Stratified::new(rng.gen::<u64>(), STRATA);
    let mut tenants = Stratified::new(rng.gen::<u64>(), STRATA);
    let weights: Vec<f64> = (1..=TENANTS).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    // Log-uniform sizes: as many requests between 16 and 48 nodes as
    // between 48 and 144, so small designs dominate the count and large
    // ones the work.
    let span = (NODES.1 as f64 / NODES.0 as f64).ln();
    (0..n)
        .map(|k| {
            let mut u = tenants.draw() * total;
            let mut r = 0;
            while r + 1 < TENANTS && u >= weights[r] {
                u -= weights[r];
                r += 1;
            }
            let nodes = ((NODES.0 as f64) * (sizes.draw() * span).exp()).round() as usize;
            Job {
                tenant: r,
                request: GenRequest::nodes(nodes).seeded(base.wrapping_add(k as u64)),
            }
        })
        .collect()
}

/// One response as the reader saw it.
#[derive(Debug)]
struct Answer {
    id: u64,
    read_at: Instant,
    done: Instant,
    outcome: Outcome,
    bytes: usize,
}

enum Msg {
    Answer(Answer),
    Closed(String),
}

fn classify(e: ServeError) -> Outcome {
    let (class, detail) = match e {
        ServeError::WorkerPanicked { .. } => (WORKER_PANICKED, String::new()),
        ServeError::Model(e) => (MODEL_ERROR, e.to_string()),
        ServeError::Overloaded { .. } => (OVERLOADED, String::new()),
        other => (SERVE_ERROR, other.to_string()),
    };
    Outcome::Failed { class, detail }
}

/// The reader thread: every response frame, decoded, with its times.
fn read_loop(mut stream: TcpStream, tx: mpsc::Sender<Msg>) {
    loop {
        let msg = match read_frame(&mut stream, MAX_FRAME_BYTES) {
            Ok(Some(payload)) => {
                let read_at = Instant::now();
                let decoded = decode_response(&payload);
                let done = Instant::now();
                match decoded {
                    Ok(frame) => Msg::Answer(Answer {
                        id: frame.id,
                        read_at,
                        done,
                        outcome: match frame.body {
                            ResponseBody::Ok(_) => Outcome::Served(digest(&payload)),
                            ResponseBody::Err(e) => classify(e),
                            ResponseBody::Protocol(e) => Outcome::Failed {
                                class: IO,
                                detail: e.to_string(),
                            },
                        },
                        bytes: payload.len(),
                    }),
                    Err(e) => Msg::Closed(format!("undecodable response: {e}")),
                }
            }
            Ok(None) => Msg::Closed("the server closed the connection".to_string()),
            Err(e) => Msg::Closed(e.to_string()),
        };
        let last = matches!(msg, Msg::Closed(_));
        if tx.send(msg).is_err() || last {
            return;
        }
    }
}

/// One request sent, and what came of it.
#[derive(Debug)]
struct Record {
    job: usize,
    /// When the request was due (open-loop phases only).
    due: Option<Instant>,
    encode: (Instant, Instant),
    answer: Option<Answer>,
}

impl Record {
    fn outcome(&self) -> Outcome {
        match &self.answer {
            Some(a) => a.outcome.clone(),
            None => Outcome::Failed {
                class: IO,
                detail: String::new(),
            },
        }
    }

    /// Milliseconds from due time to decoded response, for a design or a
    /// typed error; infinite when the request failed.
    fn latency_ms(&self) -> f64 {
        match (&self.answer, self.due) {
            (Some(a), Some(due)) if a.outcome.failure().is_none() => {
                a.done.saturating_duration_since(due).as_secs_f64() * 1e3
            }
            _ => f64::INFINITY,
        }
    }
}

/// The client side of one connection: the write half, and the answers
/// its reader thread decodes.
struct Conn {
    write: TcpStream,
    rx: Receiver<Msg>,
    reader: JoinHandle<()>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let write = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name("perfbench-reader".to_string())
            .spawn(move || read_loop(stream, tx))
            .map_err(|e| format!("spawn reader: {e}"))?;
        Ok(Conn { write, rx, reader })
    }

    /// Closes the socket, which ends the reader, and joins the reader.
    fn close(self) {
        let _ = self.write.shutdown(Shutdown::Both);
        let _ = self.reader.join();
    }
}

/// The server, the client connection and every request sent on it.
struct Session {
    server: NetServer,
    conn: Conn,
    artifacts: Vec<String>,
    records: Vec<Record>,
    /// Why the connection stopped answering, once it has.
    closed: Option<String>,
}

impl Session {
    fn start(artifacts: Vec<String>) -> Result<Session, String> {
        let server = NetServer::bind(
            "127.0.0.1:0",
            NetServerConfig {
                daemon: DaemonConfig {
                    workers: nproc(),
                    budget: RegistryBudget::max_models(BUDGET),
                    ..DaemonConfig::default()
                },
                ..NetServerConfig::default()
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let conn = Conn::open(server.local_addr())?;
        Ok(Session {
            server,
            conn,
            artifacts,
            records: Vec::new(),
            closed: None,
        })
    }

    /// Replaces the connection with a fresh one to the same server.
    /// Every request sent so far must have been answered.
    fn reconnect(&mut self) -> Result<(), String> {
        let fresh = Conn::open(self.server.local_addr())?;
        std::mem::replace(&mut self.conn, fresh).close();
        Ok(())
    }

    /// Sends `job` as request id `records.len() + 1`.
    fn send(&mut self, jobs: &[Job], job: usize, due: Option<Instant>) {
        let id = self.records.len() as u64 + 1;
        let t0 = Instant::now();
        let payload = encode_request(&RequestFrame {
            id,
            tenant: format!("tenant-{}", jobs[job].tenant),
            artifact: self.artifacts[jobs[job].tenant].clone(),
            request: jobs[job].request.clone(),
        });
        let t1 = Instant::now();
        if self.closed.is_none() {
            if let Err(e) = write_frame(&mut self.conn.write, &payload, MAX_FRAME_BYTES) {
                self.closed = Some(format!("write: {e}"));
            }
        }
        self.records.push(Record {
            job,
            due,
            encode: (t0, t1),
            answer: None,
        });
    }

    /// Receives one answer; `false` once the connection has stopped
    /// answering.
    fn receive(&mut self) -> bool {
        if self.closed.is_some() {
            return false;
        }
        match self.conn.rx.recv_timeout(ANSWER_TIMEOUT) {
            Ok(Msg::Answer(a)) => {
                let slot = (a.id as usize)
                    .checked_sub(1)
                    .and_then(|i| self.records.get_mut(i));
                match slot {
                    Some(r) if r.answer.is_none() => r.answer = Some(a),
                    _ => self.closed = Some(format!("unexpected answer id {}", a.id)),
                }
            }
            Ok(Msg::Closed(why)) => self.closed = Some(why),
            Err(RecvTimeoutError::Timeout) => {
                self.closed = Some("no answer within the timeout".to_string())
            }
            Err(RecvTimeoutError::Disconnected) => {
                self.closed = Some("the reader stopped".to_string())
            }
        }
        self.closed.is_none()
    }

    /// Waits until every request sent so far is answered (or the
    /// connection stops answering).
    fn drain(&mut self) {
        while self.records.iter().any(|r| r.answer.is_none()) && self.receive() {}
    }

    /// Sends `jobs[first..first + due.len()]` on the open-loop schedule
    /// `due`, waits for every answer, and returns the records' range
    /// and each send's lag.
    fn open_loop(
        &mut self,
        jobs: &[Job],
        first: usize,
        due: &[Duration],
    ) -> (std::ops::Range<usize>, Vec<f64>) {
        let from = self.records.len();
        let start = Instant::now() + Duration::from_millis(2);
        let lags = paced(start, due, |k| {
            self.send(jobs, first + k, Some(start + due[k]))
        });
        self.drain();
        (
            from..self.records.len(),
            lags.iter().map(|d| d.as_secs_f64() * 1e3).collect(),
        )
    }

    /// Keeps `window` requests in flight until `length` has passed, then
    /// drains. Returns the records' range.
    fn saturate(
        &mut self,
        jobs: &[Job],
        first: usize,
        window: usize,
        length: Duration,
    ) -> std::ops::Range<usize> {
        let from = self.records.len();
        let end = Instant::now() + length;
        let mut next = first;
        while Instant::now() < end && next < jobs.len() && self.closed.is_none() {
            let in_flight = self.records[from..]
                .iter()
                .filter(|r| r.answer.is_none())
                .count();
            if in_flight < window {
                self.send(jobs, next, None);
                next += 1;
            } else {
                self.receive();
            }
        }
        self.drain();
        from..self.records.len()
    }

    /// Closes the connection, joins the reader and stops the server.
    fn finish(self) -> DaemonStats {
        self.conn.close();
        self.server.shutdown()
    }
}

fn diff(after: DaemonStats, before: DaemonStats) -> DaemonStats {
    DaemonStats {
        served: after.served - before.served,
        rejected: after.rejected - before.rejected,
        queued: after.queued,
        expired: after.expired - before.expired,
        panicked: after.panicked - before.panicked,
        coalesce_hits: after.coalesce_hits - before.coalesce_hits,
        coalesce_misses: after.coalesce_misses - before.coalesce_misses,
    }
}

/// Fits the fleet, writes the artifacts, binds the server, connects and
/// serves one warm-up request per tenant, `SETUP_REPS` times; keeps the
/// last session.
fn setup(dir: &ScratchDir) -> Result<(Session, Vec<f64>, DaemonStats), String> {
    let paths: Vec<PathBuf> = (0..TENANTS)
        .map(|t| dir.path().join(format!("tenant_{t}.json")))
        .collect();
    let artifacts: Vec<String> = paths.iter().map(|p| p.display().to_string()).collect();
    let warmup: Vec<Job> = (0..TENANTS)
        .map(|t| Job {
            tenant: t,
            request: GenRequest::nodes(NODES.0).seeded(u64::MAX - t as u64),
        })
        .collect();
    let mut seconds = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some((old, _)) = kept.take() {
            Session::finish(old);
        }
        let start = Instant::now();
        for (t, path) in paths.iter().enumerate() {
            fleet::tenant_model(t)
                .save(path)
                .map_err(|e| e.to_string())?;
        }
        let mut session = Session::start(artifacts.clone())?;
        for k in 0..warmup.len() {
            session.send(&warmup, k, None);
            session.drain();
        }
        seconds.push(start.elapsed().as_secs_f64());
        if let Some(why) = &session.closed {
            return Err(format!("warm-up failed: {why}"));
        }
        let stats = session.server.stats();
        kept = Some((session, stats));
    }
    let (mut session, stats) = kept.expect("at least one set-up ran");
    session.records.clear();
    Ok((session, seconds, stats))
}

/// Encoded response for a directly generated outcome, as the server
/// would send it for request `id`.
fn wire_outcome(id: u64, result: Result<Generated, Outcome>) -> Outcome {
    match result {
        Ok(design) => Outcome::Served(digest(&encode_response(&ResponseFrame {
            id,
            body: ResponseBody::Ok(Box::new(design)),
        }))),
        Err(failed) => failed,
    }
}

pub fn run(args: &Args) -> Result<(Report, Option<Tracer>), String> {
    let dir = ScratchDir::create("serve-tcp")?;
    let (mut session, setup_s, warm_stats) = setup(&dir)?;
    let window = Duration::from_secs_f64(args.seconds);
    let base_n = ((BASE_RPS * BASE_SHARE * args.seconds / CYCLES as f64).round() as usize).max(1);
    let rung_n: Vec<usize> = LADDER_RPS
        .iter()
        .map(|r| ((r * RUNG_SHARE * args.seconds).round() as usize).max(1))
        .collect();
    let saturated_max = (MAX_RPS * SATURATED_SHARE * args.seconds) as usize + 1;
    let all = jobs(
        args.seed,
        saturated_max + CYCLES * base_n + rung_n.iter().sum::<usize>(),
    );
    let mut tracer = args.trace.then(Tracer::new);
    let workers = nproc();
    // Arrival schedules draw from seeds of their own, apart from the
    // trace's.
    let schedule = |k: usize, rate: f64, n: usize| {
        poisson_schedule(args.seed.wrapping_add(1 + k as u64), rate, n)
    };

    // The saturated phase and the first rung alternate in short cycles,
    // each on a fresh connection, so that both sample the whole run and
    // several connections' TCP acknowledgement timing, rather than one
    // stretch of a shared machine and one connection's state.
    //
    // Saturated: a fixed window in flight. The first one also warms the
    // resident models before the first open-loop rung.
    //
    // First rung: latency at a rate the workers carry with room to spare.
    let mut saturated = Vec::new();
    let mut base = Vec::new();
    let mut lag_ms = Vec::new();
    let mut next_job = 0;
    for cycle in 0..CYCLES {
        if cycle > 0 {
            session.reconnect()?;
        }
        let range = session.saturate(
            &all,
            next_job,
            WINDOW_PER_WORKER * workers,
            window.mul_f64(SATURATED_SHARE / CYCLES as f64),
        );
        next_job += range.len();
        saturated.push(range);
        let (range, lags) = session.open_loop(&all, next_job, &schedule(cycle, BASE_RPS, base_n));
        next_job += base_n;
        base.extend(range);
        lag_ms.extend(lags);
    }
    // A rung passes when its p99 meets the limit and its backlog does
    // not grow: no more requests are outstanding when the last one is
    // sent than the rate turns over within the limit.
    let p99_of = |session: &Session, index: &[usize]| {
        let lat: Vec<f64> = index
            .iter()
            .map(|&i| session.records[i].latency_ms())
            .collect();
        percentile(&sorted(&lat), 0.99)
    };
    let backlog_of = |session: &Session, range: std::ops::Range<usize>| {
        let records = &session.records[range];
        let last_sent = records
            .iter()
            .map(|r| r.encode.0)
            .max()
            .expect("a rung sends requests");
        records
            .iter()
            .filter(|r| r.answer.as_ref().is_none_or(|a| a.done > last_sent))
            .count()
    };
    let allowed = |rate: f64| (rate * LIMIT_MS / 1e3).ceil() as usize;
    let base_p99 = p99_of(&session, &base);
    let base_backlog = base
        .chunks(base_n)
        .map(|c| backlog_of(&session, c[0]..c[0] + c.len()))
        .max()
        .unwrap_or(0);
    let mut ladder_notes = vec![format!(
        "{BASE_RPS}/s: p99 {base_p99:.2} ms, backlog {base_backlog}"
    )];
    let base_ok = base_p99 <= LIMIT_MS && base_backlog <= allowed(BASE_RPS);
    let mut slo_rps = if base_ok { BASE_RPS } else { 0.0 };
    let mut rungs_run = 1;
    if args.trace && base_ok {
        for (i, (&rate, &n)) in LADDER_RPS.iter().zip(&rung_n).enumerate() {
            session.reconnect()?;
            let (range, lags) = session.open_loop(&all, next_job, &schedule(CYCLES + i, rate, n));
            next_job += n;
            lag_ms.extend(lags);
            rungs_run += 1;
            let p99 = p99_of(&session, &range.clone().collect::<Vec<_>>());
            let backlog = backlog_of(&session, range);
            ladder_notes.push(format!("{rate}/s: p99 {p99:.2} ms, backlog {backlog}"));
            if p99 > LIMIT_MS || backlog > allowed(rate) {
                break;
            }
            slo_rps = rate;
        }
    }
    let peak = peak_rss_mb();
    let closed = session.closed.clone();
    let artifacts = session.artifacts.clone();
    let records = std::mem::take(&mut session.records);
    let daemon = diff(session.finish(), warm_stats);

    // Check every answered design against direct generation on freshly
    // loaded models.
    let mut fresh: Vec<SynCircuit> = Vec::new();
    for path in &artifacts {
        fresh.push(load(Path::new(path), tracer.as_mut())?);
    }
    let reference = par_map(records.len(), workers, |i| {
        let r = &records[i];
        let compared = matches!(&r.answer, Some(a) if reproducible(&a.outcome));
        compared.then(|| {
            let job = &all[r.job];
            wire_outcome(
                i as u64 + 1,
                guarded(|| fresh[job.tenant].generate_one(&job.request)),
            )
        })
    });
    let mut report = Report::default();
    let mut mismatches = 0usize;
    for (i, (r, want)) in records.iter().zip(&reference).enumerate() {
        let got = r.outcome();
        if let Some(class) = got.failed() {
            report.unserved(class);
        }
        if let Some(want) = want {
            if !agrees(&got, want) {
                mismatches += 1;
                if mismatches <= 3 {
                    eprintln!(
                        "serve-tcp: request {} differs from direct generation: {got:?} vs {want:?}",
                        i + 1
                    );
                }
            }
        }
    }
    report.correct = mismatches == 0;
    report.attempted = records.len() as u64;
    if let Some(Outcome::Failed { class, detail }) = records
        .iter()
        .map(Record::outcome)
        .find(|o| o.failed().is_some())
    {
        report
            .notes
            .push(format!("first request without a design: {class}: {detail}"));
    }
    if let Some(why) = closed {
        report
            .notes
            .push(format!("connection stopped answering: {why}"));
    }
    report.notes.push(format!(
        "fail_ratio {:.4}; typed_error_ratio {:.4}; first rung {} requests at {BASE_RPS}/s; saturated {} requests, window {}",
        report.failed() as f64 / report.attempted.max(1) as f64,
        report.typed_errors as f64 / report.attempted.max(1) as f64,
        base.len(),
        saturated.iter().map(|r| r.len()).sum::<usize>(),
        WINDOW_PER_WORKER * workers
    ));
    report.notes.push(format!(
        "ladder (limit p99 {LIMIT_MS} ms): {}",
        ladder_notes.join("; ")
    ));
    report.notes.push(format!(
        "slo_rps {slo_rps} over {rungs_run} rung(s); gen_lag_p99_ms {:.4} (n={})",
        percentile(&sorted(&lag_ms), 0.99),
        lag_ms.len()
    ));
    report.notes.push(format!(
        "daemon: served {}, rejected {}, panicked {}, coalesce hits {}",
        daemon.served, daemon.rejected, daemon.panicked, daemon.coalesce_hits
    ));

    if let Some(mut t) = tracer {
        // The first cycle's requests, in order: enough for medians, and
        // short enough to keep the traced run well inside its time.
        let replayed = &base[..base_n];
        let replay = replay(&records, replayed, &all, &artifacts, &mut t);
        let wait_ms = replayed
            .iter()
            .map(|&i| &records[i])
            .zip(&replay.wire_ms)
            .filter_map(|(r, replayed)| {
                let lat = r.latency_ms();
                let a = r.answer.as_ref()?;
                let client = (r.encode.1 - r.encode.0) + (a.done - a.read_at);
                lat.is_finite()
                    .then(|| lat - replayed - client.as_secs_f64() * 1e3)
            })
            .collect();
        for (i, r) in records.iter().enumerate() {
            let id = i as u64 + 1;
            t.record(id, None, "wire.encode_req", r.encode.0, r.encode.1);
            if let Some(a) = &r.answer {
                if let Some(due) = r.due {
                    t.record(id, None, "tcp.request", due, a.done);
                }
                t.record(id, None, "wire.decode_resp", a.read_at, a.done);
                t.count("wire.resp_bytes", a.bytes as f64);
                t.count("wire.responses", 1.0);
            }
        }
        if replay.mismatches > 0 {
            report.correct = false;
        }
        report.notes.push(replay.note.clone());
        let serving = Serving {
            registry: replay.registry,
            daemon,
            wait_ms,
            lag_ms,
            slo_rps,
            rungs_run,
        };
        report.metrics = per_layer(
            &t,
            replay.wire_ms.len(),
            replay.overhead_pct,
            Some(&serving),
        );
        return Ok((report, Some(t)));
    }

    report.metric("setup_s", median(&setup_s), "s", setup_s.len());
    let lat = sorted(
        &base
            .iter()
            .map(|&i| records[i].latency_ms())
            .collect::<Vec<_>>(),
    );
    report.metric("lat_p50_ms", percentile(&lat, 0.5), "ms", lat.len());
    report.notes.push(tail_note(&lat));
    // Blocks never span two cycles: the open-loop rung runs between.
    let rates: Vec<f64> = saturated
        .iter()
        .flat_map(|range| block_rates(&records[range.clone()]))
        .collect();
    if rates.is_empty() {
        report
            .notes
            .push("saturated phase completed too few designs for a rate".to_string());
    } else {
        report.metric("designs_per_s", median(&rates), "1/s", rates.len());
    }
    if let Some(mb) = peak {
        report.metric("peak_rss_mb", mb, "MiB", 1);
    }
    Ok((report, None))
}

/// Whether an answer carries something direct generation can reproduce.
fn reproducible(o: &Outcome) -> bool {
    matches!(o.failed(), None | Some(MODEL_ERROR) | Some(WORKER_PANICKED))
}

/// Completions per second over consecutive blocks of `BLOCK` served
/// designs.
fn block_rates(records: &[Record]) -> Vec<f64> {
    let mut done: Vec<Instant> = records
        .iter()
        .filter_map(|r| {
            r.answer
                .as_ref()
                .filter(|a| a.outcome.failed().is_none())
                .map(|a| a.done)
        })
        .collect();
    done.sort();
    (0..done.len().saturating_sub(1) / BLOCK)
        .map(|b| BLOCK as f64 / (done[(b + 1) * BLOCK] - done[b * BLOCK]).as_secs_f64())
        .collect()
}

struct Replay {
    /// Per replayed request: registry lookup, generation and response
    /// encoding, ms.
    wire_ms: Vec<f64>,
    registry: syncircuit_serve::RegistryStats,
    overhead_pct: f64,
    mismatches: usize,
    note: String,
}

/// Replays `records[range]` in order through a standalone registry with
/// the daemon's budget: untraced (`get_or_load` + `generate_one`) and
/// traced (spans around `get_or_load`, the phase decomposition and
/// `encode_response`), alternating which goes first. The traced output
/// must equal the bytes the server sent.
fn replay(
    records: &[Record],
    index: &[usize],
    jobs: &[Job],
    artifacts: &[String],
    t: &mut Tracer,
) -> Replay {
    let plain_registry = ModelRegistry::new(RegistryBudget::max_models(BUDGET));
    let traced_registry = ModelRegistry::new(RegistryBudget::max_models(BUDGET));
    let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut wire_ms = Vec::new();
    let mut mismatches = 0usize;
    for &i in index {
        let r = &records[i];
        let id = i as u64 + 1;
        let job = &jobs[r.job];
        let path = &artifacts[job.tenant];
        let mut run_plain = || {
            let t0 = Instant::now();
            let model = plain_registry.get_or_load(path);
            let _ = model.map(|m| guarded(|| m.generate_one(&job.request)));
            plain += t0.elapsed();
        };
        let mut run_traced = |t: &mut Tracer| {
            let t0 = Instant::now();
            let root = t.open(id, None, "request");
            let loads = traced_registry.stats().loads;
            let span = t.open(id, Some(root), "registry.get");
            let model = traced_registry.get_or_load(path);
            t.close(span);
            if traced_registry.stats().loads > loads {
                t.rename(span, "registry.load");
            }
            let result = match model {
                Ok(m) => guarded(|| fleet::generate_traced(&m, &job.request, t, id, root)),
                Err(e) => Err(Outcome::Failed {
                    class: SERVE_ERROR,
                    detail: e.to_string(),
                }),
            };
            t.close(root);
            traced += t0.elapsed();
            result
        };
        let t0 = Instant::now();
        let result = if i.is_multiple_of(2) {
            run_plain();
            run_traced(t)
        } else {
            let result = run_traced(t);
            run_plain();
            result
        };
        let outcome = match result {
            Ok(design) => {
                let frame = ResponseFrame {
                    id,
                    body: ResponseBody::Ok(Box::new(design)),
                };
                let payload = t.time(id, None, "wire.encode_resp", || encode_response(&frame));
                Outcome::Served(digest(&payload))
            }
            Err(failed) => failed,
        };
        wire_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(answer) = &r.answer {
            if reproducible(&answer.outcome) && !agrees(&answer.outcome, &outcome) {
                mismatches += 1;
            }
        }
    }
    let overhead_pct = (traced.as_secs_f64() / plain.as_secs_f64() - 1.0) * 100.0;
    Replay {
        note: format!(
            "replayed {} first-cycle requests: {:.1} ms traced vs {:.1} ms untraced (overhead {overhead_pct:.2}%), {mismatches} differ from the served bytes",
            wire_ms.len(),
            traced.as_secs_f64() * 1e3,
            plain.as_secs_f64() * 1e3
        ),
        wire_ms,
        registry: traced_registry.stats(),
        overhead_pct,
        mismatches,
    }
}
