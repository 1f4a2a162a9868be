//! `warm`: a closed loop of `nproc` TCP connections against an in-process
//! `TcpServer` whose tiles were all built during set-up and fit the cache.
//! The march kernel, the wire codec and admission do the work; Delaunay
//! does none after set-up.

use crate::host;
use crate::inputs::{GalaxyBox, Rng};
use crate::report::Report;
use crate::serve::{
    self, classify, trace_id, Outcome, Prepared, Shape, Tracing, WireSample, WIRE_SAMPLE_EVERY,
};
use crate::stats::{self, median, Outcomes};
use crate::Args;
use dtfe_service::{Client, ResponseMeta, Service, TcpServer};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

const SHAPE: Shape = Shape {
    galaxy: GalaxyBox {
        side: 32.0,
        particles: 30_000,
        halos: 256,
        halo_fraction: 0.3,
    },
    tiles: 8,
    field_len: 8.0,
    resolution: 64,
    per_tile: 16,
    // Far above what the eight tiles need: nothing is ever evicted.
    cache_budget_bytes: 4 << 30,
};
const SETUP_REPEATS: usize = 5;
/// Closed-loop time before the measured window, checked but not timed.
const WARMUP_S: f64 = 2.0;

struct Server {
    svc: Arc<Service>,
    addr: SocketAddr,
    serve: JoinHandle<()>,
}

impl Server {
    /// Start the service and its listener, and build every tile.
    fn start(prep: &Prepared) -> Server {
        let svc =
            Arc::new(Service::start(prep.work.path(), SHAPE.config()).expect("start service"));
        let server = TcpServer::bind(svc.clone(), ("127.0.0.1", 0)).expect("bind server");
        let addr = server.local_addr().expect("server address");
        let serve = std::thread::spawn(move || server.serve());
        // One request per tile; the workers build the tiles concurrently.
        let pending: Vec<_> = (0..SHAPE.tiles)
            .map(|t| {
                let i = t * SHAPE.per_tile;
                (
                    i,
                    svc.submit(&prep.request(i, None))
                        .expect("prebuild admitted"),
                )
            })
            .collect();
        for (i, rx) in pending {
            let resp = rx.recv().expect("prebuild reply").expect("prebuild render");
            assert!(
                prep.matches(i, &resp),
                "prebuild field differs from reference"
            );
        }
        Server { svc, addr, serve }
    }

    fn stop(self) {
        Client::connect(self.addr)
            .and_then(|mut c| {
                c.shutdown()
                    .map_err(|e| std::io::Error::other(e.to_string()))
            })
            .expect("shut the server down");
        self.serve.join().expect("server thread");
    }
}

/// What one client thread saw in one phase.
#[derive(Default)]
struct Phase {
    latency_s: Vec<f64>,
    metas: Vec<ResponseMeta>,
    outcomes: Outcomes,
    wire: Vec<WireSample>,
    errors: Vec<String>,
    /// Completion times of served requests, seconds from the phase start.
    done_s: Vec<f64>,
    wall_s: f64,
}

impl Phase {
    /// Served requests in each whole one-second slice of the phase.
    fn per_second(&self) -> Vec<f64> {
        let mut counts = vec![0.0; self.wall_s.floor() as usize];
        for &t in &self.done_s {
            if let Some(c) = counts.get_mut(t as usize) {
                *c += 1.0;
            }
        }
        counts
    }

    /// Served requests per second: the median over the phase's whole
    /// one-second slices, so a short stall of the host moves one slice
    /// rather than the figure.
    fn throughput(&self) -> f64 {
        let counts = self.per_second();
        if counts.len() < 2 {
            return self.outcomes.ok as f64 / self.wall_s.max(1e-12);
        }
        median(&counts)
    }

    fn merge(&mut self, o: Phase) {
        self.latency_s.extend(o.latency_s);
        self.metas.extend(o.metas);
        self.outcomes.merge(&o.outcomes);
        self.wire.extend(o.wire);
        self.errors.extend(o.errors);
        self.done_s.extend(o.done_s);
        self.wall_s = self.wall_s.max(o.wall_s);
    }
}

/// Closed loop on one connection for `seconds`.
fn client_phase(
    prep: &Prepared,
    addr: SocketAddr,
    rng: &mut Rng,
    seconds: f64,
    traced: bool,
    seq: &mut u64,
) -> Phase {
    let mut client = Client::connect(addr).expect("connect");
    let mut out = Phase::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let i = rng.below(prep.requests.len());
        *seq += 1;
        let req = prep.request(i, Some(trace_id(*seq, traced)));
        let t = Instant::now();
        let result = client.render(&req);
        let latency = t.elapsed().as_secs_f64();
        let wire = result.as_ref().ok().cloned();
        match classify(prep, i, result) {
            Outcome::Ok(meta) => {
                out.outcomes.ok += 1;
                out.latency_s.push(latency);
                out.metas.push(meta);
                out.done_s.push(start.elapsed().as_secs_f64());
            }
            Outcome::Corrupt => out.outcomes.corrupt += 1,
            Outcome::Shed => out.outcomes.shed += 1,
            Outcome::Failed(e) => {
                out.outcomes.failed += 1;
                out.errors.push(e);
            }
        }
        if traced && seq.is_multiple_of(WIRE_SAMPLE_EVERY) {
            out.wire.extend(wire.map(serve::wire_sample));
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::new("warm", args.seed, args.seconds, args.trace);
    let conns = host::nproc();
    let prep = SHAPE.prepare("warm", args.seed, args.trace, conns);
    if args.trace {
        prep.replay.report(&mut rep);
    }

    // Set-up: service start, listener, and a build of every tile.
    let mut setups = Vec::new();
    // Peak memory of each set-up, from a mark restarted after a heap trim.
    let mut setup_peaks = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = server.take() {
            Server::stop(old);
        }
        host::reset_peak_rss();
        let t = Instant::now();
        server = Some(Server::start(&prep));
        setups.push(t.elapsed().as_secs_f64());
        setup_peaks.extend(host::peak_rss_mb());
    }
    let server = server.expect("at least one set-up");
    rep.set("setup_s", median(&setups), setups.len());

    // Measure: a warm-up, then untraced, then (traced runs) the same again
    // with telemetry and sampled trace ids. Every phase's replies are
    // checked; the warm-up's are not timed.
    let spans: Vec<f64> = std::iter::once(WARMUP_S)
        .chain(std::iter::repeat_n(
            args.seconds / if args.trace { 2.0 } else { 1.0 },
            if args.trace { 2 } else { 1 },
        ))
        .collect();
    const PLAIN_PHASE: usize = 1;
    const TRACED_PHASE: usize = 2;
    let mut load_peaks = Vec::new();
    let barrier = Barrier::new(conns + 1);
    let results: Vec<Mutex<Phase>> = spans.iter().map(|_| Mutex::new(Phase::default())).collect();
    let mut tracing = None;
    std::thread::scope(|s| {
        for c in 0..conns {
            let (prep, barrier, results, addr) = (&prep, &barrier, &results, server.addr);
            let spans = &spans;
            s.spawn(move || {
                let mut rng = Rng::new(args.seed, 100 + c as u64);
                let mut seq = (c as u64) << 40;
                for (p, slot) in results.iter().enumerate() {
                    barrier.wait();
                    let traced = p == TRACED_PHASE;
                    let out = client_phase(prep, addr, &mut rng, spans[p], traced, &mut seq);
                    slot.lock().expect("phase slot").merge(out);
                    barrier.wait();
                }
            });
        }
        for (p, &span) in spans.iter().enumerate() {
            if p == TRACED_PHASE {
                tracing = Some(Tracing::start(&server.svc));
            }
            barrier.wait();
            if p == PLAIN_PHASE {
                load_peaks = host::peak_rss_per_second(span);
            }
            barrier.wait();
        }
    });
    let mut results = results
        .into_iter()
        .map(|m| m.into_inner().expect("phase slot"));
    let warmup = results.next().expect("warm-up phase");
    let plain = results.next().expect("untraced phase");
    let traced = results.next();

    for ph in [&warmup, &plain].into_iter().chain(traced.as_ref()) {
        rep.outcomes.merge(&ph.outcomes);
        for e in &ph.errors {
            rep.record_error(e.clone());
        }
    }
    if rep.outcomes.corrupt > 0 {
        rep.problems.push(format!(
            "{} served fields differ from their references",
            rep.outcomes.corrupt
        ));
    }
    rep.set(
        "throughput_per_s",
        plain.throughput(),
        plain.outcomes.ok as usize,
    );
    let counts: Vec<String> = plain.per_second().iter().map(|c| c.to_string()).collect();
    rep.note("served_per_second", format!("[{}]", counts.join(",")));
    let ms: Vec<f64> = plain.latency_s.iter().map(|s| s * 1e3).collect();
    rep.set("latency_p50_ms", median(&ms), ms.len());
    match stats::tail(&ms) {
        Some(t) => rep.set_tail("latency_tail_ms", t),
        None => rep
            .problems
            .push("too few latencies for the tail rule".into()),
    }
    rep.set(
        "success_share",
        1.0 - rep.outcomes.error_rate(),
        rep.outcomes.attempted() as usize,
    );
    // Memory: the larger of a set-up's peak and a loaded second's peak,
    // each the median over set-ups or seconds, because how the threads
    // fragment the heap varies from one to the next.
    rep.set(
        "peak_rss_mb",
        median(&setup_peaks).max(median(&load_peaks)),
        setup_peaks.len() + load_peaks.len(),
    );

    if let (Some(traced), Some(tracing)) = (traced, tracing) {
        let svc = &server.svc;
        serve::service_layers(
            &mut rep,
            svc,
            &prep,
            &tracing,
            &traced.metas,
            traced.outcomes.attempted(),
            traced.outcomes.shed,
        );
        serve::wire_layers(&mut rep, &traced.wire);
        rep.set(
            "bench.trace_overhead_share",
            plain.throughput() / traced.throughput().max(1e-12) - 1.0,
            plain.latency_s.len() + traced.latency_s.len(),
        );
    }
    server.stop();
    rep
}
