//! The TCP front-end: frames off the wire, into the daemon, back out.
//!
//! [`NetServer`] binds a `std::net` listener and speaks the
//! [`crate::wire`] protocol. The acceptor thread owns the listener, and
//! each connection runs exactly two threads joined by an mpsc channel:
//!
//! - a **reader** decodes frames and admits them to the daemon, each
//!   with a completion that sends the finished frame into the channel;
//! - a **writer** encodes and writes frames as they arrive.
//!
//! The daemon worker that resolves a job calls those completions
//! itself, so no thread waits per request. A connection can pipeline
//! many requests, and slow generation never blocks frame decoding.
//!
//! Invariants the tests hold this module to:
//!
//! - **Backpressure is typed.** A submission past the daemon's
//!   high-water mark comes back as an `Overloaded` error *frame*; the
//!   connection stays usable.
//! - **Deadlines resolve at network admission.** The request frame
//!   carries a millisecond budget; the countdown starts when the
//!   reader admits the job, not when the client built the request.
//! - **Disconnects leak nothing.** A client hanging up mid-flight
//!   leaves its completions with the daemon, which still resolves every
//!   admitted job (the writer discards what it can no longer send), so
//!   no worker or in-flight entry strands.
//! - **Protocol garbage cannot take the server down.** A malformed
//!   frame gets a typed `protocol` response (when the id is known) and
//!   a connection close — never a panic, and never any effect on other
//!   connections.
//! - **Shutdown drains.** [`NetServer::shutdown`] stops accepting,
//!   unblocks the acceptor, closes live connections, joins every
//!   thread, then drains the daemon.
//!
//! Chaos runs exercise one more seam: the injector's
//! [`FaultInjector::connection`] verdict is consulted per request —
//! `Drop` hangs up without answering (client sees a clean close),
//! `Slow` makes the writer sleep before writing that response, the way
//! a congested link would (a completion never blocks its worker).

use crate::daemon::{Daemon, DaemonConfig, DaemonStats};
use crate::fault::{ConnFault, FaultInjector, NoFaults};
use crate::wire::{
    decode_request, encode_response, read_frame, write_frame, ResponseBody, ResponseFrame,
    WireError, MAX_FRAME_BYTES,
};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of a [`NetServer`].
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// Configuration of the daemon behind the socket.
    pub daemon: DaemonConfig,
    /// Per-frame payload bound (both directions).
    pub max_frame_bytes: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            daemon: DaemonConfig::default(),
            max_frame_bytes: MAX_FRAME_BYTES,
        }
    }
}

/// What the writer thread processes. Responses go out in *completion*
/// order, not submission order — that is what the correlation ids are
/// for, and it keeps an admission rejection (or a fast job) from
/// queueing behind a slow one.
enum WriterItem {
    /// A finished outcome: respond, after the injected `slow` delay.
    Ready {
        frame: ResponseFrame,
        slow: Option<Duration>,
    },
    /// A protocol failure: respond (typed), then close the connection.
    Fatal(ResponseFrame),
}

struct ServerShared {
    daemon: Daemon,
    injector: Arc<dyn FaultInjector>,
    stopping: AtomicBool,
    max_frame_bytes: usize,
    /// Live connection streams, for forced close on shutdown.
    conns: Mutex<Vec<TcpStream>>,
}

impl ServerShared {
    fn lock_conns(&self) -> std::sync::MutexGuard<'_, Vec<TcpStream>> {
        self.conns.lock().unwrap_or_else(|poisoned| {
            self.conns.clear_poison();
            poisoned.into_inner()
        })
    }
}

/// The TCP serving front-end (see the module docs).
pub struct NetServer {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving, with no fault injection.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn bind(addr: impl ToSocketAddrs, config: NetServerConfig) -> io::Result<Self> {
        Self::bind_with_faults(addr, config, Arc::new(NoFaults))
    }

    /// Like [`NetServer::bind`], with a fault injector wired into both
    /// the daemon's seams and the server's connection seam.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn bind_with_faults(
        addr: impl ToSocketAddrs,
        config: NetServerConfig,
        injector: Arc<dyn FaultInjector>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let daemon = Daemon::start_with_faults(config.daemon, injector.clone());
        let shared = Arc::new(ServerShared {
            daemon,
            injector,
            stopping: AtomicBool::new(false),
            max_frame_bytes: config.max_frame_bytes,
            conns: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("syncircuit-net-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor")
        };
        Ok(NetServer {
            shared,
            local_addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the real port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current serving counters of the daemon behind the socket.
    pub fn stats(&self) -> DaemonStats {
        self.shared.daemon.stats()
    }

    /// Stops accepting, closes live connections, joins the acceptor,
    /// and drains the daemon. Returns the final counters.
    pub fn shutdown(mut self) -> DaemonStats {
        self.stop_network();
        self.shared.daemon.drain()
    }

    /// Signals stop, unblocks `accept`, closes live connections, joins
    /// the acceptor (and through it every connection thread). Runs once.
    fn stop_network(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Fail queued jobs before joining anything: each writer (joined
        // via its connection thread, joined via the acceptor) runs until
        // every completion it is owed has been sent. Running jobs still
        // finish on the workers, which keep serving until drained.
        self.shared.daemon.begin_shutdown();
        self.shared.daemon.fail_stranded();
        // `accept()` has no native wakeup: a throwaway connection to
        // ourselves gets it to return, at which point it sees the flag.
        let _ = TcpStream::connect(self.local_addr);
        for conn in self.shared.lock_conns().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let _ = acceptor.join();
    }
}

impl Drop for NetServer {
    /// Safety net for servers dropped without [`NetServer::shutdown`]:
    /// closes the network side so no acceptor or connection thread
    /// outlives the handle. (The daemon's own `Drop` resolves any
    /// still-queued tickets.)
    fn drop(&mut self) {
        self.stop_network();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) if shared.stopping.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        if shared.stopping.load(Ordering::SeqCst) {
            break; // the wakeup connection itself lands here
        }
        if let Ok(registered) = stream.try_clone() {
            shared.lock_conns().push(registered);
        }
        let shared = shared.clone();
        if let Ok(handle) = std::thread::Builder::new()
            .name("syncircuit-net-conn".to_string())
            .spawn(move || serve_connection(stream, &shared))
        {
            workers.push(handle);
        }
        workers.retain(|h| !h.is_finished());
    }
    for handle in workers {
        let _ = handle.join();
    }
}

/// Runs one connection: this thread reads and admits, and one writer
/// thread serializes the response frames. The writer exits when every
/// sender — the reader's and each admitted job's completion — is gone,
/// so joining it drains the connection. Returning closes both halves.
fn serve_connection(stream: TcpStream, shared: &Arc<ServerShared>) {
    // `write_frame` writes the length prefix and the payload separately;
    // with Nagle on, each response stalls behind the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<WriterItem>();
    let writer = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("syncircuit-net-writer".to_string())
            .spawn(move || write_loop(write_half, &rx, &shared))
    };
    let Ok(writer) = writer else {
        return;
    };
    read_loop(stream, &tx, shared);
    drop(tx); // the writer drains completions still in flight, then exits
    let _ = writer.join();
}

/// Decodes frames and admits them until EOF, protocol failure, or an
/// injected connection drop.
fn read_loop(mut stream: TcpStream, tx: &mpsc::Sender<WriterItem>, shared: &Arc<ServerShared>) {
    loop {
        let payload = match read_frame(&mut stream, shared.max_frame_bytes) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean close
            Err(e) => {
                // Answer with a typed protocol error (correlation id
                // unknown: 0), then close. Io/truncation means the
                // socket is gone — nothing to answer on.
                if !matches!(e, WireError::Io(_) | WireError::Truncated { .. }) {
                    let _ = tx.send(WriterItem::Fatal(ResponseFrame {
                        id: 0,
                        body: ResponseBody::Protocol(e),
                    }));
                }
                return;
            }
        };
        let frame = match decode_request(&payload) {
            Ok(frame) => frame,
            Err(e) => {
                let _ = tx.send(WriterItem::Fatal(ResponseFrame {
                    id: 0,
                    body: ResponseBody::Protocol(e),
                }));
                return;
            }
        };
        // The chaos seam: drop hangs up before admission (so the
        // client sees a clean close, not a stuck request); slow tags
        // the response for the writer to delay.
        let slow = match shared.injector.connection(frame.request.seed().unwrap_or(0)) {
            Some(ConnFault::Drop) => return,
            Some(ConnFault::Slow(delay)) => Some(delay),
            None => None,
        };
        // Network admission: the deadline budget the frame carried
        // starts counting here, inside the daemon's admission. A failed
        // send in the completion means the connection died first;
        // dropping that outcome is correct.
        let id = frame.id;
        let done = tx.clone();
        let admitted = shared.daemon.submit_with(
            &frame.tenant,
            &frame.artifact,
            frame.request,
            Box::new(move |outcome| {
                let body = match outcome {
                    Ok(design) => ResponseBody::Ok(Box::new(design)),
                    Err(e) => ResponseBody::Err(e),
                };
                let _ = done.send(WriterItem::Ready {
                    frame: ResponseFrame { id, body },
                    slow,
                });
            }),
        );
        if let Err(e) = admitted {
            let rejected = WriterItem::Ready {
                frame: ResponseFrame {
                    id,
                    body: ResponseBody::Err(e),
                },
                slow: None,
            };
            if tx.send(rejected).is_err() {
                return; // writer gone (socket dead)
            }
        }
    }
}

/// Writes response frames in arrival (= completion) order. On a write
/// failure the loop keeps draining, writing nothing further, until the
/// daemon has resolved every job admitted on this connection.
fn write_loop(
    mut stream: TcpStream,
    rx: &mpsc::Receiver<WriterItem>,
    shared: &Arc<ServerShared>,
) {
    let mut dead = false;
    while let Ok(item) = rx.recv() {
        if dead {
            continue;
        }
        let (frame, fatal) = match item {
            WriterItem::Ready { frame, slow } => {
                if let Some(delay) = slow {
                    std::thread::sleep(delay);
                }
                (frame, false)
            }
            WriterItem::Fatal(frame) => (frame, true),
        };
        let payload = encode_response(&frame);
        if write_frame(&mut stream, &payload, shared.max_frame_bytes).is_err() || fatal {
            let _ = stream.shutdown(Shutdown::Both);
            dead = true;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}
