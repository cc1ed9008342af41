//! TCP serving ≡ in-process daemon ≡ direct generation.
//!
//! The network front-end's headline guarantee: putting a socket (and
//! request coalescing) between the caller and the daemon changes
//! *nothing* in the bytes. Every test compares wire-served designs against a
//! reference computed by `SynCircuit::load(path)?.generate_one(req)` —
//! field by field, floats by bit pattern — across worker counts,
//! pipelined submission, coalesced duplicate bursts, and deadlines
//! carried over the wire.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;
use syncircuit_core::{GenRequest, Generated, PipelineConfig, RewardKind, SynCircuit};
use syncircuit_graph::testing::random_circuit_with_size;
use syncircuit_serve::{
    ClientError, Daemon, DaemonConfig, NetClient, NetServer, NetServerConfig, RegistryBudget,
    ServeError,
};

const TENANTS: usize = 3;

/// Tiny trained artifacts, one per tenant, shared process-wide.
fn fleet() -> &'static Vec<String> {
    static FLEET: OnceLock<Vec<String>> = OnceLock::new();
    FLEET.get_or_init(|| {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("syncircuit-net-equiv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        (0..TENANTS as u64)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(900 + t);
                let corpus: Vec<_> = (0..2)
                    .map(|_| random_circuit_with_size(&mut rng, 20))
                    .collect();
                let cfg = PipelineConfig::builder()
                    .seed(900 + t)
                    .reward(RewardKind::IncrementalCone)
                    .build()
                    .expect("valid configuration");
                let model = SynCircuit::fit(&corpus, cfg).expect("fit tiny model");
                let path = dir.join(format!("tenant_{t}.json"));
                model.save(&path).expect("save artifact");
                path.display().to_string()
            })
            .collect()
    })
}

fn assert_generated_identical(a: &Generated, b: &Generated) {
    assert_eq!(a.graph, b.graph, "final graphs must be identical");
    assert_eq!(a.gval, b.gval, "G_val must be identical");
    assert_eq!(a.gini_edges, b.gini_edges);
    assert_eq!(a.seed, b.seed);
    assert_eq!(a.mcts.len(), b.mcts.len());
    for (x, y) in a.mcts.iter().zip(&b.mcts) {
        assert_eq!(x.best_reward.to_bits(), y.best_reward.to_bits());
        assert_eq!(x.evaluations, y.evaluations);
        assert_eq!(x.best, y.best);
    }
}

/// The un-served reference: load the artifact fresh, generate once.
fn direct(path: &str, request: &GenRequest) -> Generated {
    SynCircuit::load(path)
        .expect("load artifact")
        .generate_one(request)
        .expect("direct generation")
}

fn server(workers: usize) -> NetServer {
    NetServer::bind(
        "127.0.0.1:0",
        NetServerConfig {
            daemon: DaemonConfig {
                workers,
                queue_capacity: 64,
                budget: RegistryBudget::unlimited(),
                ..DaemonConfig::default()
            },
            ..NetServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

/// A fixed mixed-tenant trace: `(tenant, request)` pairs.
fn trace(base: u64, n: u64) -> Vec<(usize, GenRequest)> {
    (0..n)
        .map(|k| {
            let tenant = (base.wrapping_add(k) % TENANTS as u64) as usize;
            let req = GenRequest::nodes(15 + (k % 5) as usize)
                .seeded(base.wrapping_mul(31).wrapping_add(k));
            (tenant, req)
        })
        .collect()
}

/// One trace, three serving paths, three worker counts — all the same
/// bytes. Pipelined: every request is submitted before any wait.
#[test]
fn tcp_equals_in_process_equals_direct_across_worker_counts() {
    let paths = fleet();
    let the_trace = trace(5, 9);
    let references: Vec<Generated> = the_trace
        .iter()
        .map(|(t, req)| direct(&paths[*t], req))
        .collect();
    for workers in [1usize, 4, 8] {
        // Path 1: over TCP.
        let srv = server(workers);
        let mut client = NetClient::connect(srv.local_addr()).expect("connect");
        let ids: Vec<u64> = the_trace
            .iter()
            .map(|(t, req)| {
                client
                    .submit(&format!("tenant-{t}"), &paths[*t], req.clone())
                    .expect("submit over wire")
            })
            .collect();
        for (id, reference) in ids.into_iter().zip(&references) {
            let served = client.wait(id).expect("wire-served design");
            assert_generated_identical(&served, reference);
        }
        let stats = srv.shutdown();
        assert_eq!(stats.served, the_trace.len() as u64, "workers={workers}");
        assert_eq!(stats.rejected, 0);

        // Path 2: the in-process daemon, same worker count.
        let daemon = Daemon::start(DaemonConfig {
            workers,
            queue_capacity: 64,
            ..DaemonConfig::default()
        });
        let tickets: Vec<_> = the_trace
            .iter()
            .map(|(t, req)| {
                daemon
                    .submit(&format!("tenant-{t}"), &paths[*t], req.clone())
                    .expect("submit in process")
            })
            .collect();
        for (ticket, reference) in tickets.into_iter().zip(&references) {
            assert_generated_identical(&ticket.wait().expect("served"), reference);
        }
        daemon.shutdown();
    }
}

/// Waits landing out of submission order still match up by id.
#[test]
fn out_of_order_waits_resolve_by_correlation_id() {
    let paths = fleet();
    let srv = server(2);
    let mut client = NetClient::connect(srv.local_addr()).expect("connect");
    let the_trace = trace(11, 6);
    let ids: Vec<u64> = the_trace
        .iter()
        .map(|(t, req)| {
            client
                .submit(&format!("tenant-{t}"), &paths[*t], req.clone())
                .unwrap()
        })
        .collect();
    // Wait newest-first: every response but the last arrives "early"
    // and must be stashed, not dropped.
    for (id, (t, req)) in ids.iter().zip(&the_trace).rev() {
        let served = client.wait(*id).expect("out-of-order wait");
        assert_generated_identical(&served, &direct(&paths[*t], req));
    }
    srv.shutdown();
}

/// A duplicate burst over TCP coalesces (hits > 0) and every client
/// receives byte-identical results.
#[test]
fn coalesced_duplicates_over_tcp_share_bytes() {
    let paths = fleet();
    // One worker and a deliberate head-of-line blocker: the duplicate
    // burst is all in flight together while the blocker runs, so the
    // followers reliably attach to the leader.
    let srv = server(1);
    let addr = srv.local_addr();
    let mut client = NetClient::connect(addr).expect("connect");
    let blocker = GenRequest::nodes(22).seeded(1_000);
    let dup = GenRequest::nodes(16).seeded(2_000);
    let blocker_id = client
        .submit("tenant-0", &paths[0], blocker)
        .expect("submit blocker");
    let dup_ids: Vec<u64> = (0..4)
        .map(|_| {
            client
                .submit("tenant-1", &paths[1], dup.clone())
                .expect("submit duplicate")
        })
        .collect();
    client.wait(blocker_id).expect("blocker serves");
    let reference = direct(&paths[1], &dup);
    for id in dup_ids {
        let served = client.wait(id).expect("coalesced duplicate serves");
        assert_generated_identical(&served, &reference);
    }
    let stats = srv.shutdown();
    assert!(
        stats.coalesce_hits > 0,
        "duplicate burst must coalesce: {stats:?}"
    );
    // 5 submissions total (blocker + 4 duplicates) and 5 responses;
    // hits replace executions, not responses.
    assert_eq!(
        stats.served + stats.coalesce_hits,
        5,
        "every response is an execution or a hit: {stats:?}"
    );
}

/// A deadline set by a remote client survives the wire: a zero budget
/// expires in the queue and comes back as the typed error.
#[test]
fn deadlines_carried_over_the_wire_expire_requests() {
    let paths = fleet();
    let srv = server(1);
    let mut client = NetClient::connect(srv.local_addr()).expect("connect");
    let doomed = client
        .submit(
            "tenant-0",
            &paths[0],
            GenRequest::nodes(16).seeded(7).deadline(Duration::ZERO),
        )
        .expect("submit expiring request");
    match client.wait(doomed) {
        Err(ClientError::Serve(ServeError::DeadlineExceeded)) => {}
        other => panic!("expected DeadlineExceeded over the wire, got {other:?}"),
    }
    // A generous budget on the same connection still serves fine.
    let healthy = GenRequest::nodes(16)
        .seeded(8)
        .deadline(Duration::from_secs(120));
    let served = client
        .call("tenant-0", &paths[0], healthy.clone())
        .expect("healthy deadline serves");
    assert_generated_identical(&served, &direct(&paths[0], &healthy));
    let stats = srv.shutdown();
    assert_eq!(stats.expired, 1, "the zero-budget request expired");
}

/// Typed backpressure over the wire: an over-capacity burst gets
/// Overloaded error frames while the connection stays usable.
#[test]
fn overload_is_a_typed_frame_not_a_hangup() {
    let paths = fleet();
    let srv = NetServer::bind(
        "127.0.0.1:0",
        NetServerConfig {
            daemon: DaemonConfig {
                workers: 0, // admission-only: nothing drains
                queue_capacity: 2,
                ..DaemonConfig::default()
            },
            ..NetServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = NetClient::connect(srv.local_addr()).expect("connect");
    // Distinct seeds so nothing coalesces: the third submission must
    // overflow the 2-deep queue.
    let ids: Vec<u64> = (0..3)
        .map(|k| {
            client
                .submit("tenant-0", &paths[0], GenRequest::nodes(16).seeded(50 + k))
                .expect("submit")
        })
        .collect();
    match client.wait(ids[2]) {
        Err(ClientError::Serve(ServeError::Overloaded { capacity: 2 })) => {}
        other => panic!("expected typed Overloaded, got {other:?}"),
    }
    let stats = srv.shutdown();
    assert_eq!(stats.rejected, 1);
    // The two queued requests resolve as ShuttingDown on drain; their
    // responses were already in flight when the server dropped, so the
    // client may or may not see them — but the server must not hang.
}

/// A client disconnecting mid-flight strands nothing: the daemon
/// resolves the jobs and the server accepts new connections.
#[test]
fn mid_flight_disconnect_leaks_nothing() {
    let paths = fleet();
    let srv = server(1);
    let addr = srv.local_addr();
    {
        let mut doomed = NetClient::connect(addr).expect("connect");
        for k in 0..4 {
            doomed
                .submit("tenant-0", &paths[0], GenRequest::nodes(18).seeded(300 + k))
                .expect("submit then vanish");
        }
        // Dropped here: the connection closes with 4 requests in flight.
    }
    // A fresh connection is served normally afterwards.
    let mut client = NetClient::connect(addr).expect("reconnect");
    let req = GenRequest::nodes(16).seeded(999);
    let served = client
        .call("tenant-1", &paths[1], req.clone())
        .expect("post-disconnect request serves");
    assert_generated_identical(&served, &direct(&paths[1], &req));
    // The abandoned jobs drain to completion even with no one to read
    // the answers (bounded poll: the daemon must not strand them).
    let gave_up = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let stats = srv.stats();
        if stats.served + stats.coalesce_hits >= 5 && stats.queued == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < gave_up,
            "abandoned jobs never resolved: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = srv.shutdown();
    assert_eq!(stats.queued, 0, "nothing stranded in the queue");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Coalesced execution ≡ uncoalesced execution: the same duplicate-
    /// heavy trace submitted all at once (duplicates attach to queued or
    /// running leaders) and one at a time (each waited before the next,
    /// so nothing can attach) yields byte-identical designs for every
    /// submission.
    #[test]
    fn coalesced_equals_uncoalesced(base in any::<u64>()) {
        let paths = fleet();
        // Few distinct requests, many submissions: heavy duplication.
        let distinct: Vec<(usize, GenRequest)> = trace(base, 3);
        let submissions: Vec<&(usize, GenRequest)> =
            (0..9).map(|k| &distinct[k % distinct.len()]).collect();

        let start = || Daemon::start(DaemonConfig {
            workers: 2,
            queue_capacity: 64,
            ..DaemonConfig::default()
        });
        let coalesced: Vec<Generated> = {
            let daemon = start();
            let tickets: Vec<_> = submissions
                .iter()
                .map(|(t, req)| {
                    daemon
                        .submit(&format!("tenant-{t}"), &paths[*t], req.clone())
                        .expect("concurrent submit")
                })
                .collect();
            let out = tickets.into_iter().map(|t| t.wait().expect("serves")).collect();
            daemon.shutdown();
            out
        };
        let uncoalesced: Vec<Generated> = {
            let daemon = start();
            let out = submissions
                .iter()
                .map(|(t, req)| {
                    daemon
                        .submit(&format!("tenant-{t}"), &paths[*t], req.clone())
                        .expect("sequential submit")
                        .wait()
                        .expect("serves")
                })
                .collect();
            let stats = daemon.shutdown();
            prop_assert_eq!(stats.coalesce_hits, 0, "one at a time, nothing attaches");
            out
        };
        for (a, b) in coalesced.iter().zip(&uncoalesced) {
            assert_generated_identical(a, b);
        }
    }
}
