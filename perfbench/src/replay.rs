//! Reference outputs and the per-layer replay of cold builds, through the
//! public core API in the benchmark's own process.
//!
//! A *cold build* is what a tile miss or a batch item costs before its
//! first render: `DelaunayBuilder::build`, then
//! `DtfeField::from_delaunay_for_inputs` (density estimation plus the
//! `compact_reorder` slot renumbering), the lazily built `MarchCache`, and
//! the `HullIndex`. [`cold_build`] runs it whole, exactly as the serving
//! tier and the framework do, and its field renders the reference output
//! every served or batch field is compared with bit for bit.
//! [`cold_parts`] replays the same build split at each layer's public
//! entry point so each part can be timed on its own.

use crate::report::Report;
use crate::stats::{median, ratio};
use dtfe_core::marching::{MarchCache, MarchStats};
use dtfe_core::{
    surface_density_with_index, DtfeField, Field2, GridSpec2, HullIndex, MarchOptions, Mass,
};
use dtfe_delaunay::DelaunayBuilder;
use dtfe_geometry::Vec3;
use dtfe_telemetry::Recorder;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The traced replay's parts may exceed the replayed whole by at most
/// this share before the run is reported as inconsistent: the parts are
/// timed on a second build of the same input, so they carry its noise.
pub const PARTS_TOLERANCE: f64 = 0.20;

/// A whole cold build and its wall time.
pub struct Built {
    pub field: DtfeField,
    pub index: HullIndex,
    pub whole_s: f64,
}

/// Build exactly as `TileData::build` and the framework's items do.
/// `None` for affinely degenerate input, which both paths render as zeros.
pub fn cold_build(points: &[Vec3]) -> Option<Built> {
    let t = Instant::now();
    let del = DelaunayBuilder::new().threads(1).build(points).ok()?;
    let field = DtfeField::from_delaunay_for_inputs(del, points.len(), Mass::Uniform(1.0));
    black_box(field.march_cache());
    let index = HullIndex::build(&field);
    Some(Built {
        field,
        index,
        whole_s: t.elapsed().as_secs_f64(),
    })
}

/// One replayed cold build, split at the layers' public entry points.
#[derive(Clone, Copy, Debug, Default)]
pub struct Parts {
    pub points: usize,
    pub build_s: f64,
    pub reorder_s: f64,
    pub density_s: f64,
    pub march_cache_s: f64,
    pub hull_s: f64,
}

impl Parts {
    pub fn sum(&self) -> f64 {
        self.build_s + self.reorder_s + self.density_s + self.march_cache_s + self.hull_s
    }
}

/// Replay a cold build part by part, in the program's order. The density
/// pass runs on the freshly built, unordered mesh, as in
/// `from_delaunay_for_inputs`. `Delaunay` cannot be cloned, so the slot
/// renumbering is timed on a second build of the same input, and the march
/// cache and hull index are timed on the field of that renumbered mesh.
/// The second build and its density pass are not timed.
pub fn cold_parts(points: &[Vec3]) -> Option<Parts> {
    let mut p = Parts {
        points: points.len(),
        ..Parts::default()
    };
    let t = Instant::now();
    let del = DelaunayBuilder::new().threads(1).build(points).ok()?;
    p.build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let field = DtfeField::from_delaunay_unordered(del, points.len(), Mass::Uniform(1.0));
    p.density_s = t.elapsed().as_secs_f64();
    drop(black_box(field));

    let mut del = DelaunayBuilder::new().threads(1).build(points).ok()?;
    let t = Instant::now();
    black_box(del.compact_reorder());
    p.reorder_s = t.elapsed().as_secs_f64();
    let field = DtfeField::from_delaunay_unordered(del, points.len(), Mass::Uniform(1.0));
    let t = Instant::now();
    black_box(MarchCache::build(field.delaunay()));
    p.march_cache_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(HullIndex::build(&field));
    p.hull_s = t.elapsed().as_secs_f64();
    Some(p)
}

/// One reference render and what the march kernel reported about it.
pub struct Rendered {
    pub field: Field2,
    pub stats: MarchStats,
    pub secs: f64,
    pub los: u64,
}

pub fn render(built: Option<&Built>, grid: &GridSpec2, opts: &MarchOptions) -> Rendered {
    let los = (grid.nx * grid.ny * opts.render.samples) as u64;
    let Some(b) = built else {
        return Rendered {
            field: Field2::zeros(*grid),
            stats: MarchStats::default(),
            secs: 0.0,
            los: 0,
        };
    };
    let t = Instant::now();
    let (field, stats) = surface_density_with_index(&b.field, &b.index, grid, opts);
    Rendered {
        field,
        stats,
        secs: t.elapsed().as_secs_f64(),
        los,
    }
}

/// One cold-build input and the views rendered from it.
pub struct Item {
    pub points: Vec<Vec3>,
    pub views: Vec<(GridSpec2, MarchOptions)>,
}

/// Per-layer samples gathered while computing references.
#[derive(Default)]
pub struct Replay {
    parts: Vec<Parts>,
    whole_s: Vec<f64>,
    render_s: Vec<f64>,
    cells: u64,
    march: MarchStats,
    los: u64,
    exact: u64,
    filtered: u64,
}

/// Reference fields for every view of every item (`out[item][view]`).
///
/// Untraced, items are built on `threads` threads and nothing is timed
/// for the report. Traced, items run one at a time on this thread under a
/// telemetry recorder (for the predicate counters), each whole build is
/// followed by its part-by-part replay, and the samples land in the
/// returned [`Replay`].
pub fn references(items: &[Item], traced: bool, threads: usize) -> (Vec<Vec<Field2>>, Replay) {
    let mut replay = Replay::default();
    if !traced {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Vec<Field2>>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..threads.clamp(1, items.len().max(1)) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let fields = item_fields(item, None);
                    *slots[i]
                        .lock()
                        .expect("no reference thread panics holding a slot") = Some(fields);
                });
            }
        });
        let fields = slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("reference slot lock")
                    .expect("every item rendered")
            })
            .collect();
        return (fields, replay);
    }
    let rec = Recorder::new("perfbench-replay");
    let fields = {
        let _guard = rec.install();
        items
            .iter()
            .map(|item| item_fields(item, Some(&mut replay)))
            .collect()
    };
    let m = rec.snapshot().metrics;
    replay.exact = m.counter("geometry.orient3d_exact") + m.counter("geometry.insphere_exact");
    replay.filtered =
        m.counter("geometry.orient3d_filtered") + m.counter("geometry.insphere_filtered");
    (fields, replay)
}

fn item_fields(item: &Item, mut replay: Option<&mut Replay>) -> Vec<Field2> {
    let built = cold_build(&item.points);
    if let (Some(r), Some(b)) = (replay.as_deref_mut(), &built) {
        r.whole_s.push(b.whole_s);
    }
    let fields = item
        .views
        .iter()
        .map(|(grid, opts)| {
            let out = render(built.as_ref(), grid, opts);
            if let Some(r) = replay.as_deref_mut() {
                r.render_s.push(out.secs);
                r.cells += (grid.nx * grid.ny) as u64;
                r.los += out.los;
                r.march.merge(&out.stats);
            }
            out.field
        })
        .collect();
    drop(built);
    if let Some(r) = replay {
        if let Some(p) = cold_parts(&item.points) {
            r.parts.push(p);
        }
    }
    fields
}

impl Replay {
    /// Set the delaunay/geometry/core per-layer metrics and check that the
    /// parts add up to no more than the whole.
    pub fn report(&self, rep: &mut Report) {
        let ms =
            |f: fn(&Parts) -> f64| -> Vec<f64> { self.parts.iter().map(|p| f(p) * 1e3).collect() };
        let n = self.parts.len();
        rep.set("delaunay.build_ms_p50", median(&ms(|p| p.build_s)), n);
        let points: usize = self.parts.iter().map(|p| p.points).sum();
        let build_s: f64 = self.parts.iter().map(|p| p.build_s).sum();
        rep.set(
            "delaunay.points_per_s",
            points as f64 / build_s.max(1e-12),
            n,
        );
        rep.set("delaunay.reorder_ms_p50", median(&ms(|p| p.reorder_s)), n);
        rep.set("core.density_ms_p50", median(&ms(|p| p.density_s)), n);
        rep.set(
            "core.march_cache_ms_p50",
            median(&ms(|p| p.march_cache_s)),
            n,
        );
        rep.set("core.hull_index_ms_p50", median(&ms(|p| p.hull_s)), n);
        rep.set(
            "geometry.exact_share",
            ratio(self.exact, self.exact + self.filtered),
            (self.exact + self.filtered) as usize,
        );

        let renders: Vec<f64> = self.render_s.iter().map(|s| s * 1e3).collect();
        let r = renders.len();
        rep.set("core.render_ms_p50", median(&renders), r);
        let render_s: f64 = self.render_s.iter().sum();
        rep.set(
            "core.cells_per_s",
            self.cells as f64 / render_s.max(1e-12),
            r,
        );
        let los = self.los as usize;
        rep.set(
            "core.tets_per_los",
            ratio(self.march.crossings, self.los),
            los,
        );
        rep.set(
            "core.edge_evals_per_los",
            ratio(self.march.edge_evals, self.los),
            los,
        );
        let (h, m) = (self.march.entry_hint_hits, self.march.entry_hint_misses);
        rep.set(
            "core.entry_hint_hit_share",
            ratio(h, h + m),
            (h + m) as usize,
        );

        let parts: f64 = self.parts.iter().map(Parts::sum).sum();
        let whole: f64 = self.whole_s.iter().sum();
        let share = parts / whole.max(1e-12);
        rep.set("bench.replay_parts_share", share, n);
        rep.note_num("replay_whole_s", whole);
        rep.note_num("replay_parts_s", parts);
        rep.note_num("replay_parts_tolerance", PARTS_TOLERANCE);
        if share > 1.0 + PARTS_TOLERANCE {
            rep.problems.push(format!(
                "replayed cold-build parts sum to {parts:.3} s, more than the whole \
                 {whole:.3} s plus {:.0}%",
                PARTS_TOLERANCE * 100.0
            ));
        }
    }
}
