//! `batch`: the paper's workload. `run_distributed` cuts a fixed set of
//! surface-density fields out of a clustered galaxy box; every item is a
//! cold triangulation plus a march, spread over the ranks by the a-priori
//! cost model and work sharing.

use crate::host;
use crate::inputs::{digest, write_snapshot, GalaxyBox, Rng, WorkDir};
use crate::replay::{self, Item};
use crate::report::Report;
use crate::stats::{self, median, Outcomes};
use crate::Args;
use dtfe_core::{GridSpec2, MarchOptions};
use dtfe_framework::{run_distributed, FieldRequest, FrameworkConfig, RunReport};
use dtfe_geometry::{Aabb3, Vec3};
use std::collections::HashMap;
use std::time::Instant;

const BOX: GalaxyBox = GalaxyBox {
    side: 32.0,
    particles: 200_000,
    halos: 256,
    halo_fraction: 0.3,
};
/// Fields per lattice axis; the fields tile the box exactly, so every
/// particle lands in one field and the work per call is fixed. Each of the
/// 8 items triangulates about 25 000 particles.
const LATTICE: usize = 2;
const RESOLUTION: usize = 64;
const SETUP_REPEATS: usize = 25;
/// Ranks per call: `nproc`, but at least this many. The cost model is fit
/// to one timing sample per rank. Two samples determine its power law
/// exactly, so when the two timed items hold nearly the same number of
/// particles the exponent is unbounded, the predictions overflow, and
/// `run_distributed` rejects the schedule (`non-finite predicted time`);
/// whether that happens depends on timing noise. Four samples keep the fit
/// overdetermined.
const MIN_RANKS: usize = 4;

fn field_len() -> f64 {
    BOX.side / LATTICE as f64
}

fn requests() -> Vec<FieldRequest> {
    let step = field_len();
    let mut out = Vec::new();
    for i in 0..LATTICE {
        for j in 0..LATTICE {
            for k in 0..LATTICE {
                let c = |n: usize| (n as f64 + 0.5) * step;
                out.push(FieldRequest {
                    center: Vec3::new(c(i), c(j), c(k)),
                });
            }
        }
    }
    out
}

/// The view the framework renders for a field centred at `c`.
fn view(c: Vec3) -> (GridSpec2, MarchOptions) {
    let l = field_len();
    (
        GridSpec2::square(c.xy(), l, RESOLUTION),
        MarchOptions::new()
            .samples(1)
            .parallel(false)
            .z_range(c.z - l * 0.5, c.z + l * 0.5),
    )
}

struct Call {
    wall_s: f64,
    report: RunReport,
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::new("batch", args.seed, args.seconds, args.trace);
    let ranks = host::nproc().max(MIN_RANKS);
    let bounds: Aabb3 = BOX.bounds();
    let work = WorkDir::new("batch").expect("create work dir");
    let generated = BOX.generate(args.seed);
    let path = write_snapshot(work.path(), "batch", &generated, bounds);

    // References: each field through the public core API.
    let reqs = requests();
    let items: Vec<Item> = reqs
        .iter()
        .map(|r| {
            let cube = Aabb3::cube(r.center, field_len());
            Item {
                points: generated
                    .iter()
                    .copied()
                    .filter(|p| cube.contains_closed(*p))
                    .collect(),
                views: vec![view(r.center)],
            }
        })
        .collect();
    let (fields, replay) = replay::references(&items, args.trace, host::nproc());
    let expected: HashMap<[u64; 3], u64> = reqs
        .iter()
        .zip(&fields)
        .map(|(r, f)| (key(r.center), digest(&f[0].data)))
        .collect();
    if args.trace {
        replay.report(&mut rep);
    }
    drop(items);

    // Set-up: the snapshot load, timed several times.
    let mut setups = Vec::new();
    let mut particles = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (_, loaded) = dtfe_nbody::snapshot::read_all(&path).expect("read snapshot");
        setups.push(t.elapsed().as_secs_f64());
        particles = loaded;
    }
    assert_eq!(particles, generated, "snapshot round trip");
    drop(generated);
    rep.set("setup_s", median(&setups), setups.len());

    // Measure: whole calls until the window is spent, after one warm-up
    // call that is checked but not timed. A traced run spends the first
    // half untraced and the second half with framework telemetry on, which
    // gives the tracing overhead. The window stretches to twice its length
    // if a needed call has not yet succeeded, and no further.
    let mut cfg = FrameworkConfig::new(field_len(), RESOLUTION);
    cfg.keep_fields = true;
    cfg.seed = Rng::new(args.seed, 2).next_u64();
    let call = |cfg: &FrameworkConfig, rep: &mut Report| -> Option<Call> {
        let t = Instant::now();
        let result = run_distributed(ranks, &particles, bounds, &reqs, cfg);
        let wall_s = t.elapsed().as_secs_f64();
        match result {
            Ok(report) => {
                rep.outcomes.merge(&check(&report, &expected, reqs.len()));
                Some(Call { wall_s, report })
            }
            Err(e) => {
                rep.outcomes.failed += reqs.len() as u64;
                rep.record_error(format!("run_distributed: {e}"));
                None
            }
        }
    };
    call(&cfg, &mut rep);
    let mut plain: Vec<Call> = Vec::new();
    let mut traced: Vec<Call> = Vec::new();
    // Memory: the peak during each untraced call, from a fresh mark set
    // after a heap trim; the report takes the median over calls, because
    // how the ranks' threads fragment the heap varies from call to call.
    let mut call_peaks: Vec<f64> = Vec::new();
    let window = Instant::now();
    loop {
        let elapsed = window.elapsed().as_secs_f64();
        let wanting = plain.is_empty() || (args.trace && traced.is_empty());
        if elapsed >= args.seconds * if wanting { 2.0 } else { 1.0 } {
            break;
        }
        let tracing = args.trace && elapsed >= args.seconds * 0.5;
        cfg.telemetry = tracing;
        host::reset_peak_rss();
        let Some(c) = call(&cfg, &mut rep) else {
            continue;
        };
        if tracing {
            traced.push(c)
        } else {
            plain.push(c);
            call_peaks.extend(host::peak_rss_mb());
        }
    }
    if plain.is_empty() || (args.trace && traced.is_empty()) {
        rep.problems.push(format!(
            "no successful {} call in {:.0} s",
            if plain.is_empty() {
                "untraced"
            } else {
                "traced"
            },
            args.seconds * 2.0
        ));
    }

    // End-to-end figures always come from untraced calls. Throughput is
    // the median of the calls' rates, so a call slowed by a stall of the
    // host moves one rate rather than the figure.
    let measured = &plain;
    let rates: Vec<f64> = measured
        .iter()
        .map(|c| c.report.computed as f64 / c.wall_s.max(1e-12))
        .collect();
    rep.set("throughput_per_s", median(&rates), rates.len());
    let rates: Vec<String> = rates
        .iter()
        .map(|&r| dtfe_telemetry::json::number(r))
        .collect();
    rep.note("call_fields_per_s", format!("[{}]", rates.join(",")));
    // A field's latency: its item's triangulate + render time on its rank.
    let item_ms: Vec<f64> = measured
        .iter()
        .flat_map(|c| c.report.ranks.iter().flat_map(|r| &r.records))
        .map(|r| (r.actual_tri + r.actual_interp) * 1e3)
        .collect();
    rep.set("latency_p50_ms", median(&item_ms), item_ms.len());
    match stats::tail(&item_ms) {
        Some(t) => rep.set_tail("latency_tail_ms", t),
        None => rep.problems.push(format!(
            "only {} field latencies: too few for the tail rule",
            item_ms.len()
        )),
    }
    rep.set(
        "success_share",
        1.0 - rep.outcomes.error_rate(),
        rep.outcomes.attempted() as usize,
    );
    rep.set("peak_rss_mb", median(&call_peaks), call_peaks.len());
    rep.note(
        "calls",
        format!("{{\"plain\":{},\"traced\":{}}}", plain.len(), traced.len()),
    );

    if args.trace {
        framework_layers(&mut rep, &traced);
        let per_field = |calls: &[Call]| {
            let f: usize = calls.iter().map(|c| c.report.computed).sum();
            calls.iter().map(|c| c.wall_s).sum::<f64>() / f.max(1) as f64
        };
        if !plain.is_empty() && !traced.is_empty() {
            rep.set(
                "bench.trace_overhead_share",
                per_field(&traced) / per_field(&plain) - 1.0,
                plain.len() + traced.len(),
            );
        }
    }
    rep
}

fn key(c: Vec3) -> [u64; 3] {
    [c.x.to_bits(), c.y.to_bits(), c.z.to_bits()]
}

/// Compare every rendered field with its reference digest.
fn check(report: &RunReport, expected: &HashMap<[u64; 3], u64>, requested: usize) -> Outcomes {
    let mut o = Outcomes::default();
    for (center, field) in report.ranks.iter().flat_map(|r| &r.fields) {
        match expected.get(&key(*center)) {
            Some(&d) if d == digest(&field.data) => o.ok += 1,
            _ => o.corrupt += 1,
        }
    }
    // Requested fields the run did not return.
    o.failed += requested.saturating_sub((o.ok + o.corrupt) as usize) as u64;
    o
}

/// Framework phase times (max over ranks, median over calls), the
/// imbalance and the cost model's error.
fn framework_layers(rep: &mut Report, calls: &[Call]) {
    let phase = |f: fn(&dtfe_framework::PhaseTimings) -> f64| -> f64 {
        let per_call: Vec<f64> = calls
            .iter()
            .map(|c| {
                c.report
                    .ranks
                    .iter()
                    .map(|r| f(&r.timings))
                    .fold(0.0, f64::max)
            })
            .collect();
        median(&per_call)
    };
    let n = calls.len();
    rep.set("framework.partition_s", phase(|t| t.partition), n);
    rep.set("framework.model_s", phase(|t| t.model), n);
    rep.set("framework.triangulate_s", phase(|t| t.triangulate), n);
    rep.set("framework.render_s", phase(|t| t.render), n);
    rep.set("framework.sharing_wait_s", phase(|t| t.sharing_wait), n);
    let imbalance: Vec<f64> = calls.iter().map(|c| c.report.imbalance()).collect();
    rep.set("framework.imbalance", median(&imbalance), n);
    let errs: Vec<f64> = calls
        .iter()
        .flat_map(|c| c.report.ranks.iter().flat_map(|r| &r.records))
        .map(|r| {
            let actual = r.actual_tri + r.actual_interp;
            ((r.predicted_tri + r.predicted_interp) - actual).abs() / actual.max(1e-12)
        })
        .collect();
    rep.set("framework.model_rel_err_p50", median(&errs), errs.len());
}
