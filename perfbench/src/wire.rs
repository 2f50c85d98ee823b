//! The wire phase: a loopback `PqServer` over a prefilled,
//! instrumented MultiQueue, driven by one generator thread over one
//! connection with the public frame codec.
//!
//! The generator does not use `PqClient`: that client buffers writes until
//! it drains, which would turn an open loop into a batched one. Each
//! request is written when it is due and timed from that due time.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use power_of_choice::multiqueue::{DynSharedPq, MultiQueue, QueueObs};
use power_of_choice::obs::ObsHub;
use power_of_choice::prelude::{PqHandle, SharedPq};
use power_of_choice::service::protocol::{TraceContext, TraceEcho, WIRE_VERSION};
use power_of_choice::service::{PqServer, Request, Response, ServerConfig};
use power_of_choice::stats::rng::{RandomSource, Xoshiro256};

use crate::measure::{median, mix, Latencies, Multiset, Spans};
use crate::pairs::{self, next_key};

/// Keys in the served queue before the generator starts.
const PREFILL: usize = 4096;
/// The reference rate the round-trip latencies are reported at (requests
/// per second; one connection saturates near 150k).
const REFERENCE_RATE: f64 = 50_000.0;
/// Latency limit the max-rate measurement must meet at p99.
pub const LIMIT_P99_US: f64 = 10_000.0;
/// One request in this many carries a trace context when tracing.
const TRACE_EVERY: u64 = 16;
/// Requests the max-rate measurement keeps in flight: the server's
/// default credit window.
const CREDIT_WINDOW: usize = 64;
/// Slice length of the max-rate measurement.
const SLICE_NS: u64 = 50_000_000;

/// A served queue and one connected generator socket.
pub struct Rig {
    queue: Arc<MultiQueue<u64>>,
    server: PqServer,
    conn: Conn,
    inserted: Multiset,
}

/// Builds, prefills and serves the queue, and connects one socket.
pub fn setup(seed: u64) -> io::Result<Rig> {
    let hub = ObsHub::new();
    let mut queue = MultiQueue::<u64>::new(pairs::queue_config(seed));
    queue.attach_obs(QueueObs::new(&hub, "default"));
    let queue = Arc::new(queue);
    let mut inserted = Multiset::default();
    let mut rng = Xoshiro256::seeded(seed ^ 0x5749_5245_0000_0000);
    {
        let mut handle = queue.register();
        for _ in 0..PREFILL {
            let key = next_key(&mut rng);
            handle.insert(key, mix(key));
            inserted.add(key);
        }
    }
    let served: Arc<dyn DynSharedPq<u64>> = queue.clone();
    let server = PqServer::spawn(served, "127.0.0.1:0", ServerConfig::default())?;
    let stream = TcpStream::connect(server.local_addr())?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(Rig {
        queue,
        server,
        conn: Conn::new(stream),
        inserted,
    })
}

/// Waits for the first answer on the connection. The server's accept loop
/// polls, so a new connection may sit unserved for up to one poll interval;
/// waiting here keeps that wait out of the measured requests.
fn await_service(conn: &mut Conn) -> io::Result<()> {
    Request::ApproxLen.encode(&mut conn.out);
    let give_up = Instant::now() + Duration::from_secs(10);
    let mut answered = false;
    while !answered {
        if Instant::now() > give_up {
            return Err(io::Error::new(
                ErrorKind::TimedOut,
                "connection never served",
            ));
        }
        conn.push()?;
        conn.pull(|response, _| answered = matches!(response, Response::Len(_)))?;
    }
    Ok(())
}

/// Non-blocking framing over the generator's socket.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    inbuf: Vec<u8>,
    chunk: Vec<u8>,
    /// `read` calls that returned data, and response frames they carried.
    reads: u64,
    frames: u64,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            out: Vec::with_capacity(64 * 1024),
            sent: 0,
            inbuf: Vec::with_capacity(64 * 1024),
            chunk: vec![0; 64 * 1024],
            reads: 0,
            frames: 0,
        }
    }

    /// Writes as much of the pending output as the socket takes.
    fn push(&mut self) -> io::Result<()> {
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
        Ok(())
    }

    /// Reads what has arrived and hands every complete response frame to
    /// `on_frame`; returns the number of frames.
    fn pull(&mut self, mut on_frame: impl FnMut(Response, Option<TraceEcho>)) -> io::Result<usize> {
        let n = match self.stream.read(&mut self.chunk) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return Ok(0)
            }
            Err(e) => return Err(e),
        };
        self.reads += 1;
        self.inbuf.extend_from_slice(&self.chunk[..n]);
        let mut used = 0;
        let mut frames = 0;
        loop {
            match Response::decode_traced(&self.inbuf[used..]) {
                Ok((response, _, echo, len)) => {
                    used += len;
                    frames += 1;
                    on_frame(response, echo);
                }
                Err(e) if e.is_incomplete() => break,
                Err(e) => return Err(io::Error::new(ErrorKind::InvalidData, e)),
            }
        }
        self.inbuf.drain(..used);
        self.frames += frames as u64;
        Ok(frames)
    }
}

/// Round trips of one open-loop stretch, each timed from its due time.
struct Stretch {
    rtt: Latencies,
    lag: Latencies,
}

/// A request on the wire, awaiting its response.
struct Pending {
    due_ns: u64,
    sent_ns: u64,
    insert: bool,
    span: bool,
}

/// Generator-side tallies, checked against the responses and the server.
#[derive(Default)]
struct Tally {
    requests: u64,
    inserts: u64,
    entries: u64,
    /// Responses of the wrong kind, errors and empty removals.
    failed: u64,
    corrupt: u64,
    removed: Multiset,
    sent_inserts: Multiset,
}

/// Outcome of one or more runs of the wire phases.
pub struct WireRun {
    /// Round trips at the reference rate, timed from the due time.
    pub rtt: Latencies,
    /// How late the generator sent each request.
    pub lag: Latencies,
    /// Responses per second with a full credit window in flight, one per
    /// slice.
    pub rate_slices: Vec<f64>,
    /// Sampled round trips with a full credit window in flight.
    pub window_rtt: Latencies,
    /// Data-carrying client `read`s with a full credit window in flight,
    /// and the response frames they delivered.
    pub reads: u64,
    pub frames: u64,
    /// Traced requests: server time, and round trip minus server time.
    pub server_ns: Vec<f64>,
    pub socket_ns: Vec<f64>,
    pub requests: u64,
    /// Error, empty and corrupt responses.
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
}

impl WireRun {
    /// Responses per second with a full credit window in flight: the
    /// median over slices.
    pub fn max_rate_rps(&self) -> f64 {
        median(&self.rate_slices)
    }

    /// The p99 round trip at the max rate, held to [`LIMIT_P99_US`].
    pub fn max_rate_p99_us(&self) -> f64 {
        self.window_rtt.tail_us(0.99)
    }

    /// Response frames per data-carrying client `read` at the max rate.
    pub fn frames_per_read(&self) -> f64 {
        self.frames as f64 / self.reads.max(1) as f64
    }

    /// Folds another run of the wire phases into this one.
    pub fn merge(&mut self, other: WireRun) {
        self.rtt.extend(&other.rtt);
        self.lag.extend(&other.lag);
        self.rate_slices.extend(other.rate_slices);
        self.window_rtt.extend(&other.window_rtt);
        self.reads += other.reads;
        self.frames += other.frames;
        self.server_ns.extend(other.server_ns);
        self.socket_ns.extend(other.socket_ns);
        self.requests += other.requests;
        self.failed += other.failed;
        crate::measure::merge_checks(&mut self.checks, other.checks);
    }
}

struct Client<'a> {
    rig: &'a mut Rig,
    rng: Xoshiro256,
    epoch: Instant,
    pending: VecDeque<Pending>,
    tally: Tally,
    spans: Option<&'a mut Spans>,
    server_ns: Vec<f64>,
    socket_ns: Vec<f64>,
    mismatch: u64,
}

impl Client<'_> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Encodes the next request of the 1:1 insert/delete_min mix.
    fn send(&mut self, due_ns: u64, now_ns: u64) {
        let insert = self.tally.requests.is_multiple_of(2);
        let request = if insert {
            let key = next_key(&mut self.rng);
            self.tally.sent_inserts.add(key);
            self.tally.inserts += 1;
            Request::Insert {
                key,
                value: mix(key),
            }
        } else {
            Request::DeleteMin
        };
        let span = self.spans.is_some() && self.tally.requests.is_multiple_of(TRACE_EVERY);
        if span {
            let trace = TraceContext {
                trace_id: self.tally.requests,
            };
            request.encode_traced(&mut self.rig.conn.out, WIRE_VERSION, Some(trace));
        } else {
            request.encode(&mut self.rig.conn.out);
        }
        self.tally.requests += 1;
        self.pending.push_back(Pending {
            due_ns,
            sent_ns: now_ns,
            insert,
            span,
        });
    }

    /// Pushes output and consumes responses; `on_done` gets each request's
    /// (due, sent, done) times.
    fn pump(&mut self, mut on_done: impl FnMut(u64, u64, u64)) -> io::Result<usize> {
        self.rig.conn.push()?;
        let mut done = Vec::new();
        let n = self
            .rig
            .conn
            .pull(|response, echo| done.push((response, echo)))?;
        if n == 0 {
            return Ok(0);
        }
        let done_ns = self.now_ns();
        let done_at = Instant::now();
        for (response, echo) in done {
            let Some(p) = self.pending.pop_front() else {
                self.mismatch += 1;
                continue;
            };
            match (p.insert, response) {
                (true, Response::Inserted) => {}
                (false, Response::Entry { key, value }) => {
                    self.tally.entries += 1;
                    self.tally.corrupt += u64::from(value != mix(key));
                    self.tally.removed.add(key);
                }
                (_, Response::Empty) | (_, Response::Error { .. }) => self.tally.failed += 1,
                _ => self.mismatch += 1,
            }
            if let (true, Some(echo), Some(spans)) = (p.span, echo, self.spans.as_deref_mut()) {
                let rtt = done_ns - p.sent_ns;
                let start = done_at - Duration::from_nanos(rtt);
                let id = spans.record("wire.request", None, start, rtt);
                spans.record("server", Some(id), start, echo.server_ns);
                self.server_ns.push(echo.server_ns as f64);
                self.socket_ns
                    .push(rtt.saturating_sub(echo.server_ns) as f64);
            }
            on_done(p.due_ns, p.sent_ns, done_ns);
        }
        Ok(n)
    }

    /// Waits until every request sent has been answered, handing each to
    /// `on_done` as [`pump`](Client::pump) does.
    fn settle(&mut self, mut on_done: impl FnMut(u64, u64, u64)) -> io::Result<()> {
        let give_up = Instant::now() + Duration::from_secs(10);
        while !self.pending.is_empty() {
            if Instant::now() > give_up {
                return Err(io::Error::new(ErrorKind::TimedOut, "responses missing"));
            }
            if self.pump(&mut on_done)? == 0 {
                std::thread::yield_now();
            }
        }
        Ok(())
    }

    /// Sends Poisson arrivals at `rate` for `length`, then waits for every
    /// response; requests answered after the stretch count too.
    fn open_loop(
        &mut self,
        arrivals: &mut Xoshiro256,
        rate: f64,
        length: Duration,
    ) -> io::Result<Stretch> {
        let expected = (rate * length.as_secs_f64() * 1.1) as usize + 16;
        let mut rtt = Latencies::with_capacity(expected);
        let mut lag = Latencies::with_capacity(expected);
        let mean_gap_ns = 1e9 / rate;
        let start = self.now_ns() as f64;
        let end = start + length.as_nanos() as f64;
        let mut due = start + arrivals.next_exponential(mean_gap_ns);
        while due < end {
            let now = self.now_ns();
            while due <= now as f64 {
                lag.push(now - due as u64);
                self.send(due as u64, now);
                due += arrivals.next_exponential(mean_gap_ns);
            }
            if self.pump(|due_ns, _, done_ns| rtt.push(done_ns - due_ns))? == 0 {
                std::thread::yield_now();
            }
        }
        self.settle(|due_ns, _, done_ns| rtt.push(done_ns - due_ns))?;
        Ok(Stretch { rtt, lag })
    }

    /// Keeps [`CREDIT_WINDOW`] requests in flight for `length`; returns the
    /// responses per second of each slice and a sample of round trips.
    fn windowed(&mut self, length: Duration) -> io::Result<(Vec<f64>, Latencies)> {
        let start = self.now_ns();
        let end = start + length.as_nanos() as u64;
        let mut slices = vec![0u64; (length.as_nanos() as u64).div_ceil(SLICE_NS) as usize];
        let mut rtt = Latencies::with_capacity(1 << 16);
        let mut completed = 0u64;
        loop {
            let now = self.now_ns();
            if now >= end {
                break;
            }
            while self.pending.len() < CREDIT_WINDOW {
                self.send(now, now);
            }
            self.pump(|_, sent_ns, done_ns| {
                // One round trip in 16 is kept, so memory does not grow
                // with the rate measured.
                completed += 1;
                if completed.is_multiple_of(16) {
                    rtt.push(done_ns - sent_ns);
                }
                if let Some(n) = slices.get_mut(((done_ns - start) / SLICE_NS) as usize) {
                    *n += 1;
                }
            })?;
        }
        self.settle(|_, _, _| {})?;
        // The last slice is cut short by the end of the stretch.
        slices.truncate(slices.len().saturating_sub(1).max(1));
        let rates: Vec<f64> = slices
            .iter()
            .map(|&n| n as f64 * 1e9 / SLICE_NS as f64)
            .collect();
        Ok((rates, rtt))
    }
}

/// Runs the open loop at [`REFERENCE_RATE`] for `reference`, then measures
/// the highest sustained rate for `sustained`, then checks the server's
/// counters and conservation. The rig is consumed: the server is joined.
pub fn run(
    mut rig: Rig,
    seed: u64,
    reference: Duration,
    sustained: Duration,
    spans: Option<&mut Spans>,
) -> io::Result<WireRun> {
    await_service(&mut rig.conn)?;
    let mut arrivals = Xoshiro256::seeded(seed ^ 0x4152_5249_5645_0000);
    let mut client = Client {
        rig: &mut rig,
        rng: Xoshiro256::seeded(seed ^ 0x4B45_5953_0000_0000),
        epoch: Instant::now(),
        pending: VecDeque::new(),
        tally: Tally::default(),
        spans,
        server_ns: Vec::new(),
        socket_ns: Vec::new(),
        mismatch: 0,
    };
    let Stretch { rtt, lag } = client.open_loop(&mut arrivals, REFERENCE_RATE, reference)?;

    // The highest rate the connection sustains: a full credit window kept
    // in flight cannot build a backlog beyond the window. Spans describe
    // the reference rate only, so tracing stops here.
    client.spans = None;
    let (reads0, frames0) = (client.rig.conn.reads, client.rig.conn.frames);
    let (rate_slices, window_rtt) = client.windowed(sustained)?;
    let reads = client.rig.conn.reads - reads0;
    let frames = client.rig.conn.frames - frames0;

    // The server's view must match the generator's.
    let mut checks = Vec::new();
    let stats = blocking_stats(&mut client.rig.conn)?;
    let tally = std::mem::take(&mut client.tally);
    let (mismatch, server_ns, socket_ns) = (
        client.mismatch,
        std::mem::take(&mut client.server_ns),
        std::mem::take(&mut client.socket_ns),
    );
    checks.push((
        "wire: every response matches its request's opcode".to_string(),
        mismatch == 0,
    ));
    checks.push((
        "wire: server Stats totals equal the generator's counts".to_string(),
        stats.totals.inserts == tally.inserts
            && stats.totals.removals == tally.entries
            && stats.totals.failed_removals + tally.entries == tally.requests - tally.inserts,
    ));
    checks.push((
        "wire: every removed value matches its key".to_string(),
        tally.corrupt == 0,
    ));
    let Rig {
        queue,
        server,
        conn,
        mut inserted,
    } = rig;
    drop(conn);
    server.join();
    inserted.merge(&tally.sent_inserts);
    let mut removed = tally.removed;
    let mut drain = queue.register();
    while let Some((key, _)) = drain.delete_min() {
        removed.add(key);
    }
    checks.push((
        "wire: inserted keys equal removed keys plus the final drain".to_string(),
        inserted == removed,
    ));
    Ok(WireRun {
        rtt,
        lag,
        rate_slices,
        window_rtt,
        reads,
        frames,
        server_ns,
        socket_ns,
        requests: tally.requests,
        failed: tally.failed + tally.corrupt,
        checks,
    })
}

/// Sends a `Stats` request on the idle connection and waits for the reply.
fn blocking_stats(conn: &mut Conn) -> io::Result<power_of_choice::service::ServiceStats> {
    Request::Stats.encode(&mut conn.out);
    let give_up = Instant::now() + Duration::from_secs(10);
    let mut reply = None;
    while reply.is_none() {
        if Instant::now() > give_up {
            return Err(io::Error::new(ErrorKind::TimedOut, "no Stats reply"));
        }
        conn.push()?;
        conn.pull(|response, _| reply = Some(response))?;
    }
    match reply {
        Some(Response::Stats(stats)) => Ok(stats),
        other => Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("Stats answered with {other:?}"),
        )),
    }
}
