//! What the two serving workloads share: the snapshot and its tiles, the
//! request set with its reference fields, and the service-layer metrics
//! read from `ResponseMeta`, the stats document and telemetry counters.

use crate::inputs::{tile_centers, tile_points, write_snapshot, GalaxyBox, Rng, WorkDir};
use crate::replay::{self, Item, Replay};
use crate::report::Report;
use crate::stats::{median, quantile, ratio, HitShares};
use dtfe_core::{EstimatorKind, Field2, GridSpec2, MarchOptions};
use dtfe_framework::Decomposition;
use dtfe_geometry::Vec3;
use dtfe_service::{
    RenderRequest, RenderResponse, Response, ResponseMeta, Service, ServiceConfig, ServiceError,
    TileKey, TraceContext,
};
use dtfe_telemetry::Recorder;
use std::time::Instant;

pub const SNAPSHOT: &str = "serve";

/// The shape of a serving workload's data and service.
pub struct Shape {
    pub galaxy: GalaxyBox,
    pub tiles: usize,
    pub field_len: f64,
    pub resolution: usize,
    /// Distinct request centres per tile.
    pub per_tile: usize,
    pub cache_budget_bytes: usize,
}

/// The seeded snapshot on disk, its requests and their reference fields.
pub struct Prepared {
    pub work: WorkDir,
    pub decomp: Decomposition,
    /// `(tile, centre)` of every distinct request.
    pub requests: Vec<(usize, Vec3)>,
    /// Reference field of each request, as bit patterns.
    pub references: Vec<Vec<u64>>,
    pub replay: Replay,
}

impl Shape {
    pub fn config(&self) -> ServiceConfig {
        let mut cfg = ServiceConfig::new(self.field_len, self.resolution);
        cfg.tiles = self.tiles;
        cfg.cache_budget_bytes = self.cache_budget_bytes;
        cfg
    }

    /// The view the service renders for a request centred at `c`.
    fn view(&self, c: Vec3) -> (GridSpec2, MarchOptions) {
        let l = self.field_len;
        (
            GridSpec2::square(c.xy(), l, self.resolution),
            MarchOptions::new()
                .samples(1)
                .parallel(false)
                .estimator(EstimatorKind::Dtfe)
                .z_range(c.z - l * 0.5, c.z + l * 0.5),
        )
    }

    /// Write the snapshot, draw the requests and render their references.
    pub fn prepare(&self, workload: &str, seed: u64, traced: bool, threads: usize) -> Prepared {
        let work = WorkDir::new(workload).expect("create work dir");
        let bounds = self.galaxy.bounds();
        let points = self.galaxy.generate(seed);
        write_snapshot(work.path(), SNAPSHOT, &points, bounds);
        let decomp = Decomposition::new(bounds, self.tiles);
        let requests = tile_centers(&decomp, self.per_tile, &mut Rng::new(seed, 3));
        let ghost = self.config().ghost_margin;
        let items: Vec<Item> = (0..decomp.num_ranks())
            .map(|tile| Item {
                points: tile_points(&points, &decomp, tile, ghost),
                views: requests
                    .iter()
                    .filter(|(t, _)| *t == tile)
                    .map(|(_, c)| self.view(*c))
                    .collect(),
            })
            .collect();
        let (fields, replay) = replay::references(&items, traced, threads);
        // `tile_centers` emits requests tile by tile, matching the views.
        let references = fields
            .into_iter()
            .flatten()
            .map(|f: Field2| f.data.iter().map(|v| v.to_bits()).collect())
            .collect();
        Prepared {
            work,
            decomp,
            requests,
            references,
            replay,
        }
    }
}

impl Prepared {
    pub fn request(&self, i: usize, trace: Option<TraceContext>) -> RenderRequest {
        let mut r = RenderRequest::new(SNAPSHOT, self.requests[i].1);
        r.trace = trace;
        r
    }

    /// Does a served field equal its reference, bit for bit?
    pub fn matches(&self, i: usize, resp: &RenderResponse) -> bool {
        let expect = &self.references[i];
        resp.data.len() == expect.len()
            && resp
                .data
                .iter()
                .zip(expect)
                .all(|(v, &bits)| v.to_bits() == bits)
    }
}

/// A trace context whose id names the request; sampled in traced phases.
/// Every n-th traced served field is encoded and decoded again, outside
/// its request's latency, to time the wire codec.
pub const WIRE_SAMPLE_EVERY: u64 = 4;

/// One served field's trip through the wire codec.
pub struct WireSample {
    pub encode_us: f64,
    pub decode_us: f64,
    pub bytes: f64,
    pub round_trips: bool,
}

/// Time `Response::encode` and `Response::decode` of a served field.
pub fn wire_sample(resp: RenderResponse) -> WireSample {
    let msg = Response::Field(resp);
    let t = Instant::now();
    let bytes = msg.encode();
    let encode_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let back = Response::decode(&bytes);
    let decode_us = t.elapsed().as_secs_f64() * 1e6;
    WireSample {
        encode_us,
        decode_us,
        bytes: bytes.len() as f64,
        round_trips: back.ok().as_ref() == Some(&msg),
    }
}

/// The wire metrics; a field that does not survive the round trip is a
/// problem.
pub fn wire_layers(rep: &mut Report, samples: &[WireSample]) {
    let n = samples.len();
    let of = |f: fn(&WireSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    rep.set("service.wire_encode_us_p50", of(|w| w.encode_us), n);
    rep.set("service.wire_decode_us_p50", of(|w| w.decode_us), n);
    rep.set("service.response_bytes", of(|w| w.bytes), n);
    let broken = samples.iter().filter(|w| !w.round_trips).count();
    if broken > 0 {
        rep.problems.push(format!(
            "{broken} served fields did not round-trip the wire codec"
        ));
    }
}

pub fn trace_id(seq: u64, sampled: bool) -> TraceContext {
    let mut id = [0u8; 16];
    id[..8].copy_from_slice(&seq.to_be_bytes());
    TraceContext { id, sampled }
}

/// How one request ended.
pub enum Outcome {
    Ok(ResponseMeta),
    Corrupt,
    Shed,
    Failed(String),
}

pub fn classify(
    prep: &Prepared,
    i: usize,
    result: Result<RenderResponse, ServiceError>,
) -> Outcome {
    match result {
        Ok(resp) if prep.matches(i, &resp) => Outcome::Ok(resp.meta),
        Ok(_) => Outcome::Corrupt,
        Err(ServiceError::Overloaded { .. }) => Outcome::Shed,
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// Telemetry for the traced phase: installed process-wide so the service's
/// worker and connection threads record into it.
pub struct Tracing {
    recorder: Recorder,
    _guard: dtfe_telemetry::GlobalInstallGuard,
    evictions_at_start: u64,
}

impl Tracing {
    pub fn start(svc: &Service) -> Tracing {
        let recorder = Recorder::with_windows("perfbench-service", 0, std::time::Duration::ZERO);
        let guard = recorder.install_global();
        Tracing {
            recorder,
            _guard: guard,
            evictions_at_start: svc.stats_document().cache.evictions,
        }
    }
}

/// Service-layer metrics of the traced phase: `metas` are its served
/// responses; `attempted` and `shed` count its requests.
pub fn service_layers(
    rep: &mut Report,
    svc: &Service,
    prep: &Prepared,
    tracing: &Tracing,
    metas: &[ResponseMeta],
    attempted: u64,
    shed: u64,
) {
    let telemetry = tracing.recorder.snapshot().metrics;
    let evictions = svc.stats_document().cache.evictions - tracing.evictions_at_start;
    let ms = |f: fn(&ResponseMeta) -> u64| -> Vec<f64> {
        metas.iter().map(|m| f(m) as f64 * 1e-3).collect()
    };
    let n = metas.len();
    let hits = HitShares {
        request_hits: metas.iter().filter(|m| m.cache_hit).count() as u64,
        requests: n as u64,
        lookup_hits: telemetry.counter("service.cache_hits"),
        lookup_misses: telemetry.counter("service.cache_misses"),
    };
    rep.set("service.request_hit_share", hits.request_hit_share(), n);
    rep.set(
        "service.cache_lookup_hit_share",
        hits.lookup_hit_share(),
        (hits.lookup_hits + hits.lookup_misses) as usize,
    );
    rep.note(
        "hit_counts",
        format!(
            "{{\"request_hits\":{},\"requests\":{},\"lookup_hits\":{},\"lookup_misses\":{}}}",
            hits.request_hits, hits.requests, hits.lookup_hits, hits.lookup_misses
        ),
    );
    rep.set("service.evictions", evictions as f64, 1);
    rep.set(
        "service.admission_ms_p50",
        median(&ms(|m| m.admission_us)),
        n,
    );
    rep.set(
        "service.queue_ms_p99",
        quantile(&ms(|m| m.queue_us), 0.99),
        n,
    );
    rep.set(
        "service.build_ms_p99",
        quantile(&ms(|m| m.build_us), 0.99),
        n,
    );
    rep.set("service.render_ms_p50", median(&ms(|m| m.render_us)), n);
    rep.set(
        "service.shed_share",
        ratio(shed, attempted),
        attempted as usize,
    );

    // Bytes the cache holds per particle of the tiles it holds.
    let mut particles = 0usize;
    let mut resident = 0usize;
    for tile in 0..prep.decomp.num_ranks() {
        let key = TileKey::new(SNAPSHOT, tile, EstimatorKind::Dtfe);
        if svc.cache().is_resident(&key) {
            resident += 1;
            particles += svc.tile_particles(&key).unwrap_or(0);
        }
    }
    let bytes = svc.health().resident_bytes;
    rep.set(
        "service.resident_bytes_per_particle",
        bytes as f64 / particles.max(1) as f64,
        resident,
    );
}
