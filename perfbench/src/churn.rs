//! `churn`: an open loop on a fixed arrival schedule, well below
//! capacity, with Zipf tile popularity and a cache budget that holds
//! about a third of the tiles. The tile cache is written (builds,
//! evictions) as well as read, so admission, queueing and memory per tile
//! show up in latency.
//!
//! One thread both issues the schedule through `Service::submit` and
//! collects the replies; latency runs from each request's due time.

use crate::host;
use crate::inputs::{GalaxyBox, Rng, Zipf};
use crate::report::Report;
use crate::serve::{self, classify, trace_id, Outcome, Shape, Tracing, WIRE_SAMPLE_EVERY};
use crate::stats::{self, lateness_grows, median, quantile, Timed};
use crate::Args;
use dtfe_service::{RenderResponse, ResponseMeta, Service, ServiceError};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant};

const SHAPE: Shape = Shape {
    galaxy: GalaxyBox {
        side: 32.0,
        particles: 24_000,
        halos: 256,
        halo_fraction: 0.3,
    },
    tiles: 8,
    field_len: 8.0,
    resolution: 64,
    per_tile: 16,
    // A fixed budget that holds about three of today's tiles. Smaller
    // tiles fit more of them, which is how a memory change shows here.
    cache_budget_bytes: 48 << 20,
};
/// Offered load, requests per second.
const RATE: f64 = 16.0;
const ZIPF_S: f64 = 1.6;
/// Schedule time before the measured window, so the cache is populated.
const WARMUP_S: f64 = 2.0;
const SETUP_REPEATS: usize = 25;
/// Reply polling interval: a reply's completion time is late by at most
/// this much.
const POLL_S: f64 = 2.5e-4;
/// Generator lateness may grow by this much over a run before the run is
/// reported as not sustaining its schedule.
const LATENESS_SLACK_S: f64 = 0.010;
/// Replies still missing this long after the last arrival count as failed.
const DRAIN_S: f64 = 30.0;

struct Arrival {
    due: f64,
    request: usize,
}

fn schedule(seed: u64, seconds: f64, requests_per_tile: usize, tiles: usize) -> Vec<Arrival> {
    let zipf = Zipf::new(tiles, ZIPF_S);
    let mut rng = Rng::new(seed, 4);
    let n = ((WARMUP_S + seconds) * RATE).ceil() as usize;
    (0..n)
        .map(|k| {
            let tile = zipf.sample(&mut rng);
            Arrival {
                due: k as f64 / RATE,
                request: tile * requests_per_tile + rng.below(requests_per_tile),
            }
        })
        .collect()
}

struct Done {
    timed: Timed,
    outcome: Outcome,
    traced: bool,
}

type Reply = Receiver<Result<RenderResponse, ServiceError>>;

pub fn run(args: &Args) -> Report {
    let mut rep = Report::new("churn", args.seed, args.seconds, args.trace);
    let prep = SHAPE.prepare("churn", args.seed, args.trace, host::nproc());
    if args.trace {
        prep.replay.report(&mut rep);
    }

    // Set-up: service start and snapshot load (the cache starts cold).
    let mut setups = Vec::new();
    let mut svc = None;
    for k in 0..SETUP_REPEATS {
        drop(svc.take());
        // Peak memory covers the serving instance's set-up and the load.
        if k + 1 == SETUP_REPEATS {
            host::reset_peak_rss();
        }
        let t = Instant::now();
        let s = Service::start(prep.work.path(), SHAPE.config()).expect("start service");
        s.tile_key(&prep.request(0, None)).expect("load snapshot");
        setups.push(t.elapsed().as_secs_f64());
        svc = Some(s);
    }
    let svc = svc.expect("at least one set-up");
    rep.set("setup_s", median(&setups), setups.len());

    let arrivals = schedule(args.seed, args.seconds, SHAPE.per_tile, SHAPE.tiles);
    let trace_from = WARMUP_S + args.seconds * 0.5;
    let mut tracing = None;
    let mut pending: Vec<(usize, f64, bool, Reply)> = Vec::new();
    let mut done: Vec<Option<Done>> = (0..arrivals.len()).map(|_| None).collect();
    let origin = Instant::now();
    let now = || origin.elapsed().as_secs_f64();
    let mut next = 0;
    // Served traced fields kept to time the wire codec after the run.
    let mut wire: Vec<RenderResponse> = Vec::new();
    let drain_until = arrivals.last().map_or(0.0, |a| a.due) + DRAIN_S;
    while next < arrivals.len() || !pending.is_empty() {
        if next == arrivals.len() && now() > drain_until {
            for (k, sent, traced, _) in pending.drain(..) {
                done[k] = Some(Done {
                    timed: Timed {
                        due: arrivals[k].due,
                        sent,
                        done: now(),
                    },
                    outcome: Outcome::Failed(format!("no reply within {DRAIN_S} s")),
                    traced,
                });
            }
            break;
        }
        while next < arrivals.len() && arrivals[next].due <= now() {
            let a = &arrivals[next];
            let traced = args.trace && a.due >= trace_from;
            if traced && tracing.is_none() {
                tracing = Some(Tracing::start(&svc));
            }
            let sent = now();
            let req = prep.request(a.request, Some(trace_id(next as u64, traced)));
            match svc.submit(&req) {
                Ok(rx) => pending.push((next, sent, traced, rx)),
                Err(e) => {
                    let t = now();
                    done[next] = Some(Done {
                        timed: Timed {
                            due: a.due,
                            sent,
                            done: t,
                        },
                        outcome: classify(&prep, a.request, Err(e)),
                        traced,
                    });
                }
            }
            next += 1;
        }
        pending.retain(|(k, sent, traced, rx)| {
            let result = match rx.try_recv() {
                Ok(r) => r,
                Err(TryRecvError::Empty) => return true,
                Err(TryRecvError::Disconnected) => {
                    Err(ServiceError::Internal("worker dropped reply".into()))
                }
            };
            if *traced && (*k as u64).is_multiple_of(WIRE_SAMPLE_EVERY) {
                wire.extend(result.as_ref().ok().cloned());
            }
            let a = &arrivals[*k];
            done[*k] = Some(Done {
                timed: Timed {
                    due: a.due,
                    sent: *sent,
                    done: now(),
                },
                outcome: classify(&prep, a.request, result),
                traced: *traced,
            });
            false
        });
        // Poll replies while any are pending; sleep to the next arrival
        // when idle.
        let wait = match (arrivals.get(next), pending.is_empty()) {
            (Some(a), true) => a.due - now(),
            (Some(a), false) => (a.due - now()).min(POLL_S),
            (None, _) => POLL_S,
        };
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }
    let done: Vec<Done> = done
        .into_iter()
        .map(|d| d.expect("every request ended"))
        .collect();

    // Every request is checked; the window after the warm-up is measured.
    for d in &done {
        match &d.outcome {
            Outcome::Ok(_) => rep.outcomes.ok += 1,
            Outcome::Corrupt => rep.outcomes.corrupt += 1,
            Outcome::Shed => rep.outcomes.shed += 1,
            Outcome::Failed(e) => {
                rep.outcomes.failed += 1;
                rep.record_error(e.clone());
            }
        }
    }
    if rep.outcomes.corrupt > 0 {
        rep.problems.push(format!(
            "{} served fields differ from their references",
            rep.outcomes.corrupt
        ));
    }
    let window: Vec<&Done> = done.iter().filter(|d| d.timed.due >= WARMUP_S).collect();
    let plain: Vec<&Done> = window.iter().copied().filter(|d| !d.traced).collect();
    let timed: Vec<Timed> = plain.iter().map(|d| d.timed).collect();
    if lateness_grows(&timed, LATENESS_SLACK_S) {
        rep.problems.push(format!(
            "the generator fell behind its {RATE} req/s schedule: lateness grew by more \
             than {} ms over the run",
            LATENESS_SLACK_S * 1e3
        ));
    }
    let ok_ms: Vec<f64> = plain
        .iter()
        .filter(|d| matches!(d.outcome, Outcome::Ok(_)))
        .map(|d| d.timed.latency() * 1e3)
        .collect();
    // Served requests per second, from the window's first due time to its
    // last reply.
    let span = plain.iter().map(|d| d.timed.done).fold(WARMUP_S, f64::max) - WARMUP_S;
    rep.set(
        "throughput_per_s",
        ok_ms.len() as f64 / span.max(1e-12),
        ok_ms.len(),
    );
    rep.set("latency_p50_ms", median(&ok_ms), ok_ms.len());
    match stats::tail(&ok_ms) {
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
    rep.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), 1);
    let late: Vec<f64> = timed.iter().map(|t| t.lateness() * 1e3).collect();
    rep.note_num("lateness_ms_p99", quantile(&late, 0.99));

    if let Some(tracing) = tracing {
        let traced: Vec<&Done> = window.iter().copied().filter(|d| d.traced).collect();
        let metas: Vec<ResponseMeta> = traced
            .iter()
            .filter_map(|d| match d.outcome {
                Outcome::Ok(m) => Some(m),
                _ => None,
            })
            .collect();
        let shed = traced
            .iter()
            .filter(|d| matches!(d.outcome, Outcome::Shed))
            .count();
        serve::service_layers(
            &mut rep,
            &svc,
            &prep,
            &tracing,
            &metas,
            traced.len() as u64,
            shed as u64,
        );
        let samples: Vec<_> = wire.into_iter().map(serve::wire_sample).collect();
        serve::wire_layers(&mut rep, &samples);
        let late: Vec<f64> = traced.iter().map(|d| d.timed.lateness() * 1e3).collect();
        rep.set("bench.lag_ms_p99", quantile(&late, 0.99), late.len());
        let traced_ms: Vec<f64> = traced
            .iter()
            .filter(|d| matches!(d.outcome, Outcome::Ok(_)))
            .map(|d| d.timed.latency() * 1e3)
            .collect();
        rep.set(
            "bench.trace_overhead_share",
            median(&traced_ms) / median(&ok_ms).max(1e-12) - 1.0,
            traced_ms.len() + ok_ms.len(),
        );
    }
    svc.drain();
    rep
}
