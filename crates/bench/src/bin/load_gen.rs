//! Load generator for the serving daemon: replays a mixed-tenant
//! request trace at a configurable in-flight window and reports
//! latency percentiles and throughput.
//!
//! The harness trains one tiny model per tenant, saves the artifacts,
//! starts a [`Daemon`] whose registry budget is (by default) half the
//! tenant fleet — so sustained traffic continuously evicts and reloads
//! models — and then pushes requests through a sliding window of
//! outstanding tickets. It fails loudly on *any* serving error: under
//! correct admission sizing (window ≤ queue capacity) the daemon must
//! absorb the whole trace.
//!
//! ```text
//! load-gen [--requests N] [--tenants T] [--workers W] [--queue CAP]
//!          [--max-resident M] [--inflight K] [--nodes SIZE] [--json OUT]
//!          [--chaos SEED] [--net [ADDR]]
//! ```
//!
//! Defaults replay 1000 requests across 4 tenants with 1000 requests
//! in flight against a 2-model registry budget. `--json OUT` writes a
//! flat `{"bench": ns}` object compatible with the `bench-json`
//! trajectory merge (`just bench-json` feeds it into
//! `BENCH_phase3.json`). `just serve-smoke` runs a downsized trace as
//! a CI gate.
//!
//! `--chaos SEED` switches to the deterministic fault-injection
//! harness: the trace replays through a daemon wired to a seeded
//! [`FaultPlan`] (IO errors, slow loads, corrupt artifact bytes,
//! worker panics) plus deterministically expiring zero-deadline
//! requests, and every outcome is checked against the plan's pure
//! prediction — no hangs, no leaked tickets, typed errors exactly
//! where scheduled, and byte-identical designs everywhere else.
//! `just chaos-smoke` runs it as a CI gate.
//!
//! `--net [ADDR]` (default `127.0.0.1:0`) replays the trace over real
//! TCP: a [`NetServer`] is bound, the trace is pipelined over one
//! [`NetClient`] connection, every response is checked byte-for-byte
//! against direct in-process generation, and a burst of identical
//! seeded duplicates must coalesce onto one execution (`coalesce_hits
//! > 0`) while still answering byte-identically. With `--json OUT`
//! the wire latencies land as `serve_net_{p50,p99,mean}_ns`.
//! Combined `--chaos SEED --net` switches the plan to
//! [`FaultPlan::seeded_with_conn_faults`] and drives one connection
//! per request: seeds scheduled for a connection drop must see a
//! clean close (never a hang), slowed writes must still answer, and
//! every other outcome must match the plan exactly as in the
//! in-process chaos run. `just net-smoke` runs both as a CI gate.

use rand::{rngs::StdRng, SeedableRng};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use syncircuit_core::{GenRequest, Generated, PipelineConfig, RewardKind, SynCircuit};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_serve::{
    silence_injected_panics, ClientError, ConnFault, Daemon, DaemonConfig, FaultPlan, NetClient,
    NetServer, NetServerConfig, Predicted, QuarantinePolicy, RegistryBudget, RetryPolicy,
    ServeError, Ticket,
};

struct Args {
    requests: usize,
    tenants: usize,
    workers: usize,
    queue: usize,
    max_resident: usize,
    inflight: usize,
    nodes: usize,
    json: Option<String>,
    chaos: Option<u64>,
    /// Bind address for the TCP replay modes (`--net [ADDR]`).
    net: Option<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            requests: 1000,
            tenants: 4,
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            queue: 2048,
            max_resident: 2,
            inflight: 1000,
            nodes: 16,
            json: None,
            chaos: None,
            net: None,
        };
        let mut it = std::env::args().skip(1).peekable();
        while let Some(flag) = it.next() {
            if flag == "--net" {
                // The address operand is optional: `--net` alone binds
                // an ephemeral local port.
                args.net = Some(match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().expect("peeked value exists"),
                    _ => "127.0.0.1:0".to_string(),
                });
                continue;
            }
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match flag.as_str() {
                "--requests" => args.requests = parse(&flag, &value()?)?,
                "--tenants" => args.tenants = parse(&flag, &value()?)?,
                "--workers" => args.workers = parse(&flag, &value()?)?,
                "--queue" => args.queue = parse(&flag, &value()?)?,
                "--max-resident" => args.max_resident = parse(&flag, &value()?)?,
                "--inflight" => args.inflight = parse(&flag, &value()?)?,
                "--nodes" => args.nodes = parse(&flag, &value()?)?,
                "--json" => args.json = Some(value()?),
                "--chaos" => {
                    let text = value()?;
                    args.chaos = Some(
                        text.parse()
                            .map_err(|e| format!("--chaos: invalid seed {text:?}: {e}"))?,
                    );
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.tenants == 0 || args.requests == 0 {
            return Err("--tenants and --requests must be positive".to_string());
        }
        if args.inflight == 0 || args.inflight > args.queue {
            return Err("--inflight must be in 1..=queue capacity".to_string());
        }
        Ok(args)
    }
}

fn parse(flag: &str, text: &str) -> Result<usize, String> {
    text.parse()
        .map_err(|e| format!("{flag}: invalid value {text:?}: {e}"))
}

/// Trains and saves one tiny artifact per tenant under a temp dir.
fn train_fleet(dir: &std::path::Path, tenants: usize) -> Vec<String> {
    (0..tenants as u64)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(1000 + t);
            let corpus: Vec<_> = (0..2)
                .map(|_| random_circuit_with_size(&mut rng, 20))
                .collect();
            let cfg = PipelineConfig::builder()
                .seed(1000 + t)
                .reward(RewardKind::IncrementalCone)
                .cone_cache_capacity(64) // exercise the bounded cache too
                .build()
                .expect("valid configuration");
            let model = SynCircuit::fit(&corpus, cfg).expect("fit tenant model");
            let path = dir.join(format!("tenant_{t}.json"));
            model.save(&path).expect("save tenant artifact");
            path.display().to_string()
        })
        .collect()
}

/// Nearest-rank percentile: the smallest sample with at least `p` of
/// the distribution at or below it, i.e. rank `⌈n·p⌉` (1-based).
///
/// The previous `((n-1)·p).round()` interpolation-style index biases
/// low and reads the wrong sample on small `n` — e.g. the p50 of four
/// samples is the 2nd (rank ⌈4·0.5⌉ = 2), not the 3rd
/// (`round(3·0.5) = 2` zero-based), and the p50 of two samples is the
/// 1st, not the 2nd.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What the chaos harness expects one request's ticket to resolve to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expected {
    /// Completes; the design must be byte-identical to the fault-free
    /// reference.
    Ok,
    /// Shed with `DeadlineExceeded` (zero time budget).
    Deadline,
    /// Fails with `WorkerPanicked` (injected panic, isolated).
    Panicked,
    /// Fails with a typed `Model` persistence error (corrupt bytes or
    /// exhausted IO retries).
    ModelError,
}

/// Upper bound on any single ticket wait in the chaos run: a ticket
/// still unresolved after this long counts as a hang, which is exactly
/// the failure mode the harness exists to rule out.
const HANG_GUARD: Duration = Duration::from_secs(60);

/// Deterministic fault-injection run (`--chaos SEED`, see module docs).
fn run_chaos(args: &Args, chaos_seed: u64, dir: &std::path::Path) -> Result<(), String> {
    silence_injected_panics();
    let retry = RetryPolicy {
        max_attempts: 3,
        base_delay: Duration::from_micros(200),
        max_delay: Duration::from_millis(2),
    };
    let plan = std::sync::Arc::new(FaultPlan::seeded(chaos_seed));

    eprintln!(
        "load-gen: chaos seed {chaos_seed}: training {} tenant model(s)...",
        args.tenants
    );
    let fleet = train_fleet(dir, args.tenants);
    let models: Vec<SynCircuit> = fleet
        .iter()
        .map(|p| SynCircuit::load(p).expect("load tenant artifact"))
        .collect();

    // Plan the trace. Request seeds are 1..=N (0 is the unseeded
    // sentinel). Every 13th request carries a zero deadline and must
    // expire; must-fail read faults (corrupt bytes, exhausted IO) get a
    // private copy of their tenant's artifact, so registry residency
    // can never mask the scheduled fault — at any worker count.
    struct Planned {
        seed: u64,
        tenant: usize,
        path: String,
        request: GenRequest,
        expected: Expected,
    }
    let mut trace: Vec<Planned> = Vec::with_capacity(args.requests);
    for k in 0..args.requests as u64 {
        let seed = k + 1;
        let tenant = (k % args.tenants as u64) as usize;
        let mut request = GenRequest::nodes(args.nodes + (k % 5) as usize).seeded(seed);
        let predicted = plan.predict(seed, retry.max_attempts);
        let zero_deadline = k % 13 == 5;
        let (expected, path) = if zero_deadline {
            // Deadline expiry is checked before the job runs, so it
            // wins over any predicted fault.
            request = request.deadline(Duration::ZERO);
            (Expected::Deadline, fleet[tenant].clone())
        } else {
            match predicted {
                Predicted::Ok { .. } => (Expected::Ok, fleet[tenant].clone()),
                Predicted::Panic => (Expected::Panicked, fleet[tenant].clone()),
                Predicted::Corrupt | Predicted::IoExhausted => {
                    let private = dir.join(format!("chaos_{k}.json"));
                    std::fs::copy(&fleet[tenant], &private)
                        .map_err(|e| format!("{}: {e}", private.display()))?;
                    (Expected::ModelError, private.display().to_string())
                }
            }
        };
        trace.push(Planned {
            seed,
            tenant,
            path,
            request,
            expected,
        });
    }

    // Fault-free reference: generate each surviving request directly
    // from a freshly loaded model. Generation can fail legitimately
    // (e.g. a refinement dead-end for one (nodes, seed) combo) — that
    // failure is itself deterministic, so the chaos run must reproduce
    // it exactly, error for error, bytes for bytes.
    type Reference = Result<syncircuit_core::Generated, syncircuit_core::Error>;
    let reference: Vec<Option<Reference>> = trace
        .iter()
        .map(|p| (p.expected == Expected::Ok).then(|| models[p.tenant].generate_one(&p.request)))
        .collect();

    let daemon = Daemon::start_with_faults(
        DaemonConfig {
            workers: args.workers,
            queue_capacity: args.queue.max(args.requests),
            budget: RegistryBudget::max_models(args.max_resident),
            retry,
            quarantine: QuarantinePolicy::disabled(),
        },
        plan.clone(),
    );
    eprintln!(
        "load-gen: chaos: replaying {} requests, {} tenants, {} workers, {} private artifacts",
        args.requests,
        args.tenants,
        args.workers,
        trace.iter().filter(|p| p.expected == Expected::ModelError).count()
    );

    let started = Instant::now();
    let tickets: Vec<Ticket> = trace
        .iter()
        .map(|p| {
            daemon
                .submit(&format!("tenant-{}", p.tenant), &p.path, p.request.clone())
                .map_err(|e| format!("admission failed for seed {}: {e}", p.seed))
        })
        .collect::<Result<_, _>>()?;

    let mut mismatches = 0usize;
    for (k, (planned, ticket)) in trace.iter().zip(tickets).enumerate() {
        let outcome = ticket
            .wait_timeout(HANG_GUARD)
            .map_err(|_| format!("HANG: seed {} unresolved after {HANG_GUARD:?}", planned.seed))?;
        let verdict = match (planned.expected, &outcome) {
            (Expected::Ok, got) => {
                match (reference[k].as_ref().expect("reference exists for Ok"), got) {
                    (Ok(reference), Ok(gen)) if gen.graph == reference.graph => Ok(()),
                    (Ok(_), Ok(_)) => Err("design differs from fault-free reference".to_string()),
                    (Err(expected), Err(ServeError::Model(e))) if e == expected => Ok(()),
                    (expected, got) => {
                        let show = |r: &dyn std::fmt::Debug| format!("{r:?}");
                        Err(format!(
                            "fault-free outcome not reproduced: reference {}, served {}",
                            show(&expected.as_ref().map(|_| "Ok")),
                            show(&got.as_ref().map(|_| "Ok"))
                        ))
                    }
                }
            }
            (Expected::Deadline, Err(ServeError::DeadlineExceeded)) => Ok(()),
            (Expected::Panicked, Err(ServeError::WorkerPanicked { .. })) => Ok(()),
            (Expected::ModelError, Err(ServeError::Model(_))) => Ok(()),
            (expected, got) => {
                let got = match got {
                    Ok(_) => "Ok".to_string(),
                    Err(e) => format!("{e:?}"),
                };
                Err(format!("expected {expected:?}, got {got}"))
            }
        };
        if let Err(why) = verdict {
            eprintln!("load-gen: chaos: seed {} MISMATCH: {why}", planned.seed);
            mismatches += 1;
        }
    }
    let wall = started.elapsed();

    let registry = daemon.registry().stats();
    let stats = daemon.shutdown();
    let counts = plan.counts();

    let expected_expired = trace.iter().filter(|p| p.expected == Expected::Deadline).count() as u64;
    let expected_panics = trace.iter().filter(|p| p.expected == Expected::Panicked).count() as u64;

    println!(
        "load-gen: chaos seed {chaos_seed}: {} requests in {:.2}s, {} workers",
        args.requests,
        wall.as_secs_f64(),
        args.workers
    );
    println!(
        "  injected: {} io errors, {} slow reads, {} corrupt reads, {} panics",
        counts.io_errors, counts.slow_reads, counts.corrupt_reads, counts.panics
    );
    println!(
        "  daemon: {} served, {} expired, {} panicked, {} queued at shutdown",
        stats.served, stats.expired, stats.panicked, stats.queued
    );
    println!(
        "  registry: {} loads, {} load failures, {} hits, {} evictions",
        registry.loads, registry.load_failures, registry.hits, registry.evictions
    );

    if mismatches > 0 {
        return Err(format!("{mismatches} outcome(s) diverged from the fault plan"));
    }
    if counts.total() == 0 || counts.io_errors == 0 || counts.corrupt_reads == 0 || counts.panics == 0
    {
        return Err(format!(
            "fault plan injected too little to prove anything: {counts:?} \
             (raise --requests or change the seed)"
        ));
    }
    if stats.queued != 0 {
        return Err(format!("{} job(s) leaked past shutdown", stats.queued));
    }
    if stats.served != args.requests as u64 {
        return Err(format!(
            "daemon resolved {} of {} requests",
            stats.served, args.requests
        ));
    }
    if stats.expired != expected_expired || stats.panicked != expected_panics {
        return Err(format!(
            "counters diverged from the plan: expired {} (want {expected_expired}), \
             panicked {} (want {expected_panics})",
            stats.expired, stats.panicked
        ));
    }
    println!("  chaos: all outcomes matched the plan; surviving designs byte-identical");
    Ok(())
}

/// Bit-exact equality of two generated designs (graphs, Gini edge
/// count, seed, and MCTS reward bit patterns).
fn generated_identical(a: &Generated, b: &Generated) -> bool {
    a.graph == b.graph
        && a.gval == b.gval
        && a.gini_edges == b.gini_edges
        && a.seed == b.seed
        && a.mcts.len() == b.mcts.len()
        && a.mcts.iter().zip(&b.mcts).all(|(x, y)| {
            x.best_reward.to_bits() == y.best_reward.to_bits()
                && x.evaluations == y.evaluations
                && x.best == y.best
        })
}

/// TCP replay (`--net [ADDR]`, see module docs): the mixed-tenant
/// trace pipelined over one wire connection, byte-checked against
/// direct generation, followed by a coalesced-duplicate burst.
fn run_net(args: &Args, addr: &str, dir: &std::path::Path) -> Result<(), String> {
    eprintln!(
        "load-gen: net: training {} tenant model(s)...",
        args.tenants
    );
    let fleet = train_fleet(dir, args.tenants);
    let models: Vec<SynCircuit> = fleet
        .iter()
        .map(|p| SynCircuit::load(p).expect("load tenant artifact"))
        .collect();

    let srv = NetServer::bind(
        addr,
        NetServerConfig {
            daemon: DaemonConfig {
                workers: args.workers,
                queue_capacity: args.queue,
                budget: RegistryBudget::max_models(args.max_resident),
                ..DaemonConfig::default()
            },
            ..NetServerConfig::default()
        },
    )
    .map_err(|e| format!("bind {addr}: {e}"))?;
    let mut client =
        NetClient::connect(srv.local_addr()).map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(Some(HANG_GUARD))
        .map_err(|e| format!("set read timeout: {e}"))?;
    eprintln!(
        "load-gen: net: serving on {}, replaying {} requests, {} tenants, {} workers, window {}",
        srv.local_addr(),
        args.requests,
        args.tenants,
        args.workers,
        args.inflight
    );

    let request_for = |k: u64| GenRequest::nodes(args.nodes + (k % 5) as usize).seeded(k);

    // Sliding window over one pipelined connection, redeemed FIFO by
    // correlation id; every design is kept for the identity pass.
    let mut window: VecDeque<(Instant, u64, u64)> = VecDeque::with_capacity(args.inflight);
    let mut latencies: Vec<Duration> = Vec::with_capacity(args.requests);
    let mut results: Vec<Option<Generated>> = (0..args.requests).map(|_| None).collect();
    let started = Instant::now();
    for k in 0..args.requests as u64 {
        if window.len() == args.inflight {
            let (submitted, id, done) = window.pop_front().expect("window is non-empty");
            let design = client
                .wait(id)
                .map_err(|e| format!("request {done} failed over the wire: {e}"))?;
            latencies.push(submitted.elapsed());
            results[done as usize] = Some(design);
        }
        let tenant = (k % args.tenants as u64) as usize;
        let id = client
            .submit(&format!("tenant-{tenant}"), &fleet[tenant], request_for(k))
            .map_err(|e| format!("submission {k} failed: {e}"))?;
        window.push_back((Instant::now(), id, k));
    }
    for (submitted, id, done) in window {
        let design = client
            .wait(id)
            .map_err(|e| format!("request {done} failed over the wire: {e}"))?;
        latencies.push(submitted.elapsed());
        results[done as usize] = Some(design);
    }
    let wall = started.elapsed();

    // Byte-identity with the in-process path: each wire response must
    // equal direct generation from a freshly loaded model.
    let mut mismatches = 0usize;
    for k in 0..args.requests as u64 {
        let tenant = (k % args.tenants as u64) as usize;
        let reference = models[tenant]
            .generate_one(&request_for(k))
            .map_err(|e| format!("direct generation failed for request {k}: {e}"))?;
        let served = results[k as usize].as_ref().expect("every request redeemed");
        if !generated_identical(served, &reference) {
            eprintln!("load-gen: net: request {k} diverged from direct generation");
            mismatches += 1;
        }
    }

    // Coalesced-duplicate burst: fillers occupy every worker so the
    // duplicate leader queues; the identical submissions behind it
    // must attach to its queued or running execution, not run again.
    // The daemon coalesces only while the leader is in flight, so the
    // duplicates are sent once every filler has left the queue: until
    // then a waking worker may pick the leader (the lanes are drained
    // round-robin) and finish it before the followers arrive. Fillers
    // are 4x the trace's size so they stay busy for the whole burst.
    const DUPS: usize = 8;
    let dup_tenant = 1 % args.tenants;
    let dup_request = GenRequest::nodes(args.nodes).seeded(u64::MAX - 1);
    let mut burst_ids: Vec<u64> = Vec::new();
    for w in 0..args.workers.max(1) as u64 {
        let filler = GenRequest::nodes(args.nodes * 4).seeded(u64::MAX - 10 - w);
        burst_ids.push(
            client
                .submit("tenant-0", &fleet[0], filler)
                .map_err(|e| format!("filler submission failed: {e}"))?,
        );
    }
    let give_up = Instant::now() + Duration::from_secs(10);
    while srv.stats().queued > 0 {
        if Instant::now() >= give_up {
            return Err("duplicate burst: fillers never started (jobs still queued after 10 s)"
                .to_string());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    let dup_ids: Vec<u64> = (0..DUPS)
        .map(|_| {
            client.submit(
                &format!("tenant-{dup_tenant}"),
                &fleet[dup_tenant],
                dup_request.clone(),
            )
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("duplicate submission failed: {e}"))?;
    let burst_total = burst_ids.len() + dup_ids.len();
    for id in burst_ids {
        client
            .wait(id)
            .map_err(|e| format!("filler failed over the wire: {e}"))?;
    }
    let dup_reference = models[dup_tenant]
        .generate_one(&dup_request)
        .map_err(|e| format!("direct generation of the duplicate failed: {e}"))?;
    for id in dup_ids {
        let design = client
            .wait(id)
            .map_err(|e| format!("duplicate failed over the wire: {e}"))?;
        if !generated_identical(&design, &dup_reference) {
            eprintln!("load-gen: net: a coalesced duplicate diverged from direct generation");
            mismatches += 1;
        }
    }

    drop(client);
    let stats = srv.shutdown();

    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let mean_ns =
        latencies.iter().map(Duration::as_nanos).sum::<u128>() / latencies.len() as u128;
    let throughput = args.requests as f64 / wall.as_secs_f64();

    println!(
        "load-gen: net: {} requests in {:.2}s ({throughput:.0} req/s) over one connection",
        args.requests,
        wall.as_secs_f64()
    );
    println!(
        "  wire latency p50 {:.2}ms  p99 {:.2}ms  mean {:.2}ms",
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
        mean_ns as f64 / 1e6
    );
    println!(
        "  daemon: {} served, {} rejected, {} coalesce hits, {} misses, {} queued at shutdown",
        stats.served, stats.rejected, stats.coalesce_hits, stats.coalesce_misses, stats.queued
    );

    if mismatches > 0 {
        return Err(format!(
            "{mismatches} wire response(s) diverged from direct generation"
        ));
    }
    if stats.rejected != 0 {
        return Err(format!("{} submissions were rejected", stats.rejected));
    }
    if stats.coalesce_hits == 0 {
        return Err("the duplicate burst produced no coalesce hits".to_string());
    }
    let total = (args.requests + burst_total) as u64;
    if stats.served + stats.coalesce_hits != total {
        return Err(format!(
            "accounting is off: {} served + {} hits != {total} submissions",
            stats.served, stats.coalesce_hits
        ));
    }
    if stats.queued != 0 {
        return Err(format!("{} job(s) leaked past shutdown", stats.queued));
    }

    if let Some(path) = &args.json {
        let doc = serde_json::Value::Object(vec![
            (
                "serve_net_p50_ns".to_string(),
                serde_json::Value::UInt(p50.as_nanos() as u64),
            ),
            (
                "serve_net_p99_ns".to_string(),
                serde_json::Value::UInt(p99.as_nanos() as u64),
            ),
            (
                "serve_net_mean_ns".to_string(),
                serde_json::Value::UInt(mean_ns as u64),
            ),
        ]);
        let text = serde_json::to_string_pretty(&doc).map_err(|e| format!("{e}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("  wrote {path}");
    }
    println!("  net: every wire response byte-identical to direct generation; duplicates coalesced");
    Ok(())
}

/// What the wire chaos harness expects one request to resolve to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NetExpected {
    /// The connection is dropped before admission: a clean close (or
    /// reset), never a hang.
    Dropped,
    /// As [`Expected::Ok`]: byte-identical to the fault-free reference.
    Ok,
    /// As [`Expected::Deadline`].
    Deadline,
    /// As [`Expected::Panicked`].
    Panicked,
    /// As [`Expected::ModelError`].
    ModelError,
}

/// Deterministic fault injection over the wire (`--chaos SEED --net`):
/// one connection per request so a scheduled connection drop severs
/// exactly one exchange, every outcome checked against the plan.
fn run_chaos_net(args: &Args, chaos_seed: u64, addr: &str, dir: &std::path::Path) -> Result<(), String> {
    silence_injected_panics();
    let retry = RetryPolicy {
        max_attempts: 3,
        base_delay: Duration::from_micros(200),
        max_delay: Duration::from_millis(2),
    };
    let plan = std::sync::Arc::new(FaultPlan::seeded_with_conn_faults(chaos_seed));

    eprintln!(
        "load-gen: chaos+net seed {chaos_seed}: training {} tenant model(s)...",
        args.tenants
    );
    let fleet = train_fleet(dir, args.tenants);
    let models: Vec<SynCircuit> = fleet
        .iter()
        .map(|p| SynCircuit::load(p).expect("load tenant artifact"))
        .collect();

    // Plan the trace. The connection verdict is consulted first (the
    // server hangs up before admission on a drop), then the deadline,
    // then the artifact-read/worker prediction — mirroring the server's
    // own order of checks.
    struct Planned {
        seed: u64,
        tenant: usize,
        path: String,
        request: GenRequest,
        expected: NetExpected,
    }
    let mut trace: Vec<Planned> = Vec::with_capacity(args.requests);
    for k in 0..args.requests as u64 {
        let seed = k + 1;
        let tenant = (k % args.tenants as u64) as usize;
        let mut request = GenRequest::nodes(args.nodes + (k % 5) as usize).seeded(seed);
        let zero_deadline = k % 13 == 5;
        let (expected, path) = if matches!(plan.decide_conn(seed), Some(ConnFault::Drop)) {
            (NetExpected::Dropped, fleet[tenant].clone())
        } else if zero_deadline {
            request = request.deadline(Duration::ZERO);
            (NetExpected::Deadline, fleet[tenant].clone())
        } else {
            match plan.predict(seed, retry.max_attempts) {
                Predicted::Ok { .. } => (NetExpected::Ok, fleet[tenant].clone()),
                Predicted::Panic => (NetExpected::Panicked, fleet[tenant].clone()),
                Predicted::Corrupt | Predicted::IoExhausted => {
                    let private = dir.join(format!("chaos_net_{k}.json"));
                    std::fs::copy(&fleet[tenant], &private)
                        .map_err(|e| format!("{}: {e}", private.display()))?;
                    (NetExpected::ModelError, private.display().to_string())
                }
            }
        };
        trace.push(Planned {
            seed,
            tenant,
            path,
            request,
            expected,
        });
    }

    type Reference = Result<Generated, syncircuit_core::Error>;
    let reference: Vec<Option<Reference>> = trace
        .iter()
        .map(|p| {
            (p.expected == NetExpected::Ok).then(|| models[p.tenant].generate_one(&p.request))
        })
        .collect();

    let srv = NetServer::bind_with_faults(
        addr,
        NetServerConfig {
            daemon: DaemonConfig {
                workers: args.workers,
                queue_capacity: args.queue.max(args.requests),
                budget: RegistryBudget::max_models(args.max_resident),
                retry,
                quarantine: QuarantinePolicy::disabled(),
            },
            ..NetServerConfig::default()
        },
        plan.clone(),
    )
    .map_err(|e| format!("bind {addr}: {e}"))?;
    eprintln!(
        "load-gen: chaos+net: serving on {}, {} requests ({} scheduled drops), {} workers",
        srv.local_addr(),
        args.requests,
        trace.iter().filter(|p| p.expected == NetExpected::Dropped).count(),
        args.workers
    );

    let started = Instant::now();
    let mut mismatches = 0usize;
    for (k, planned) in trace.iter().enumerate() {
        let mut client =
            NetClient::connect(srv.local_addr()).map_err(|e| format!("connect: {e}"))?;
        client
            .set_read_timeout(Some(HANG_GUARD))
            .map_err(|e| format!("set read timeout: {e}"))?;
        let outcome = client.call(
            &format!("tenant-{}", planned.tenant),
            &planned.path,
            planned.request.clone(),
        );
        let verdict: Result<(), String> = match (planned.expected, &outcome) {
            // A dropped connection surfaces as a clean close — or as a
            // reset if the kernel tears the socket down first. Both are
            // immediate; a hang would trip the read timeout instead.
            (NetExpected::Dropped, Err(ClientError::Disconnected | ClientError::Io(_))) => Ok(()),
            (NetExpected::Deadline, Err(ClientError::Serve(ServeError::DeadlineExceeded))) => {
                Ok(())
            }
            (NetExpected::Panicked, Err(ClientError::Serve(ServeError::WorkerPanicked { .. }))) => {
                Ok(())
            }
            (NetExpected::ModelError, Err(ClientError::Serve(ServeError::Model(_)))) => Ok(()),
            (NetExpected::Ok, got) => {
                match (reference[k].as_ref().expect("reference exists for Ok"), got) {
                    (Ok(reference), Ok(gen)) if generated_identical(gen, reference) => Ok(()),
                    (Ok(_), Ok(_)) => Err("design differs from fault-free reference".to_string()),
                    (Err(expected), Err(ClientError::Serve(ServeError::Model(e))))
                        if e == expected =>
                    {
                        Ok(())
                    }
                    (_, got) => Err(format!(
                        "fault-free outcome not reproduced over the wire: {:?}",
                        got.as_ref().map(|_| "Ok")
                    )),
                }
            }
            (expected, got) => {
                let got = match got {
                    Ok(_) => "Ok".to_string(),
                    Err(e) => format!("{e:?}"),
                };
                Err(format!("expected {expected:?}, got {got}"))
            }
        };
        if let Err(why) = verdict {
            eprintln!("load-gen: chaos+net: seed {} MISMATCH: {why}", planned.seed);
            mismatches += 1;
        }
    }
    let wall = started.elapsed();

    let counts = plan.counts();
    let stats = srv.shutdown();

    println!(
        "load-gen: chaos+net seed {chaos_seed}: {} requests in {:.2}s, {} workers",
        args.requests,
        wall.as_secs_f64(),
        args.workers
    );
    println!(
        "  injected: {} conn drops, {} slowed writes, {} io errors, {} corrupt reads, {} panics",
        counts.conn_drops, counts.conn_slows, counts.io_errors, counts.corrupt_reads, counts.panics
    );
    println!(
        "  daemon: {} served, {} expired, {} panicked, {} coalesce misses, {} queued at shutdown",
        stats.served, stats.expired, stats.panicked, stats.coalesce_misses, stats.queued
    );

    if mismatches > 0 {
        return Err(format!("{mismatches} outcome(s) diverged from the fault plan"));
    }
    if counts.conn_drops == 0 || counts.conn_slows == 0 {
        return Err(format!(
            "the wire seam injected too little to prove anything: {counts:?} \
             (raise --requests or change the seed)"
        ));
    }
    if stats.queued != 0 {
        return Err(format!("{} job(s) leaked past shutdown", stats.queued));
    }
    println!("  chaos+net: every wire outcome matched the plan; nothing hung or stranded");
    Ok(())
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "syncircuit-load-gen-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let result = match (args.chaos, args.net.clone()) {
        (Some(chaos_seed), Some(addr)) => Some(run_chaos_net(&args, chaos_seed, &addr, &dir)),
        (Some(chaos_seed), None) => Some(run_chaos(&args, chaos_seed, &dir)),
        (None, Some(addr)) => Some(run_net(&args, &addr, &dir)),
        (None, None) => None,
    };
    if let Some(result) = result {
        let _ = std::fs::remove_dir_all(&dir);
        return result;
    }

    eprintln!(
        "load-gen: training {} tenant model(s) ({}-node corpus circuits)...",
        args.tenants, 20
    );
    let fleet = train_fleet(&dir, args.tenants);

    let daemon = Daemon::start(DaemonConfig {
        workers: args.workers,
        queue_capacity: args.queue,
        budget: RegistryBudget::max_models(args.max_resident),
        ..DaemonConfig::default()
    });
    eprintln!(
        "load-gen: replaying {} requests, {} tenants, {} workers, window {}, registry budget {} model(s)",
        args.requests, args.tenants, args.workers, args.inflight, args.max_resident
    );

    // Sliding window: keep `inflight` tickets outstanding, redeem FIFO.
    let mut window: VecDeque<(Instant, Ticket)> = VecDeque::with_capacity(args.inflight);
    let mut latencies: Vec<Duration> = Vec::with_capacity(args.requests);
    let mut peak_inflight = 0usize;
    let started = Instant::now();
    for k in 0..args.requests as u64 {
        if window.len() == args.inflight {
            let (submitted, ticket) = window.pop_front().expect("window is non-empty");
            ticket.wait().map_err(|e| format!("request failed: {e}"))?;
            latencies.push(submitted.elapsed());
        }
        let tenant = (k % args.tenants as u64) as usize;
        let request = GenRequest::nodes(args.nodes + (k % 5) as usize).seeded(k);
        let ticket = daemon
            .submit(&format!("tenant-{tenant}"), &fleet[tenant], request)
            .map_err(|e| format!("admission failed at request {k}: {e}"))?;
        window.push_back((Instant::now(), ticket));
        peak_inflight = peak_inflight.max(window.len());
    }
    for (submitted, ticket) in window {
        ticket.wait().map_err(|e| format!("request failed: {e}"))?;
        latencies.push(submitted.elapsed());
    }
    let wall = started.elapsed();

    let registry = daemon.registry().stats();
    let stats = daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    if stats.served != args.requests as u64 {
        return Err(format!(
            "daemon served {} of {} requests",
            stats.served, args.requests
        ));
    }
    if stats.rejected != 0 {
        return Err(format!("{} submissions were rejected", stats.rejected));
    }
    if args.max_resident < args.tenants && registry.evictions == 0 {
        return Err(format!(
            "registry budget ({} < {} tenants) forced no evictions: {registry:?}",
            args.max_resident, args.tenants
        ));
    }

    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let mean_ns = latencies.iter().map(Duration::as_nanos).sum::<u128>()
        / latencies.len() as u128;
    let throughput = args.requests as f64 / wall.as_secs_f64();

    println!(
        "load-gen: {} requests in {:.2}s ({throughput:.0} req/s), peak in-flight {peak_inflight}",
        args.requests,
        wall.as_secs_f64()
    );
    println!(
        "  latency p50 {:.2}ms  p99 {:.2}ms  mean {:.2}ms",
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
        mean_ns as f64 / 1e6
    );
    println!(
        "  registry: {} hits, {} loads, {} evictions, {} resident ({} bytes)",
        registry.hits, registry.loads, registry.evictions, registry.resident, registry.resident_bytes
    );
    println!(
        "  daemon: {} served, {} rejected, {} queued at shutdown",
        stats.served, stats.rejected, stats.queued
    );

    if let Some(path) = &args.json {
        let doc = serde_json::Value::Object(vec![
            (
                "serve_load_p50_ns".to_string(),
                serde_json::Value::UInt(p50.as_nanos() as u64),
            ),
            (
                "serve_load_p99_ns".to_string(),
                serde_json::Value::UInt(p99.as_nanos() as u64),
            ),
            (
                "serve_load_mean_ns".to_string(),
                serde_json::Value::UInt(mean_ns as u64),
            ),
        ]);
        let text = serde_json::to_string_pretty(&doc).map_err(|e| format!("{e}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("  wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("load-gen: error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(xs: &[u64]) -> Vec<Duration> {
        xs.iter().map(|&x| Duration::from_millis(x)).collect()
    }

    /// Nearest-rank answers for every n in 1..=5, pinned against the
    /// hand-computed ranks. The n=2 and n=4 medians are exactly the
    /// cases where the old `((n-1)·p).round()` index picked the sample
    /// one slot too high.
    #[test]
    fn percentile_uses_nearest_rank() {
        let p50 = |xs: &[u64]| percentile(&ms(xs), 0.50).as_millis() as u64;
        let p99 = |xs: &[u64]| percentile(&ms(xs), 0.99).as_millis() as u64;

        assert_eq!(p50(&[10]), 10);
        assert_eq!(p50(&[10, 20]), 10); // rank ⌈2·0.5⌉ = 1 — old formula said 20
        assert_eq!(p50(&[10, 20, 30]), 20);
        assert_eq!(p50(&[10, 20, 30, 40]), 20); // rank 2 — old formula said 30
        assert_eq!(p50(&[10, 20, 30, 40, 50]), 30);

        // p99 of small samples is the maximum, under both formulas.
        for n in 1..=5u64 {
            let xs: Vec<u64> = (1..=n).map(|i| i * 10).collect();
            assert_eq!(p99(&xs), n * 10);
        }
        // p0 clamps to the minimum instead of underflowing rank 0.
        assert_eq!(percentile(&ms(&[10, 20]), 0.0).as_millis(), 10);
    }
}
