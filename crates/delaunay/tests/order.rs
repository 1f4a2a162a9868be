//! Insertion-order suite for [`DelaunayBuilder`].
//!
//! The default build inserts in Morton order; `spatial_sort(false)` inserts
//! in input order and is the reference. On inputs in general position the
//! Delaunay triangulation is unique, so both orders must give the same
//! finite complex. On degenerate inputs (exact grids, cospherical shells,
//! duplicates) the triangulation is not unique, so both orders must be
//! valid Delaunay meshes over the same vertices. Errors must not depend on
//! the order, and a build must be deterministic.

use dtfe_delaunay::{validate, BuildError, Delaunay, DelaunayBuilder};
use dtfe_geometry::Vec3;
use proptest::prelude::*;

fn morton(pts: &[Vec3]) -> Result<Delaunay, BuildError> {
    DelaunayBuilder::new().build(pts)
}

fn input_order(pts: &[Vec3]) -> Result<Delaunay, BuildError> {
    DelaunayBuilder::new().spatial_sort(false).build(pts)
}

/// Canonical form of the finite complex: sorted list of sorted vertex
/// quadruples. Vertex ids depend on the insertion order, so each vertex is
/// named by the first input index that maps to it.
fn finite_complex(d: &Delaunay, n_input: usize) -> Vec<[u32; 4]> {
    let mut name = vec![u32::MAX; d.num_vertices()];
    for i in (0..n_input).rev() {
        name[d.vertex_of_input(i) as usize] = i as u32;
    }
    let mut tets: Vec<[u32; 4]> = d
        .finite_tets()
        .map(|t| {
            let mut v = d.tet(t).verts.map(|v| name[v as usize]);
            v.sort_unstable();
            v
        })
        .collect();
    tets.sort_unstable();
    tets
}

/// General position: both orders give the same abstract complex.
fn assert_orders_agree(pts: &[Vec3]) {
    let a = morton(pts).expect("morton build");
    let b = input_order(pts).expect("input-order build");
    a.validate().expect("morton validation");
    b.validate().expect("input-order validation");
    assert_eq!(
        finite_complex(&a, pts.len()),
        finite_complex(&b, pts.len()),
        "finite complex depends on the insertion order"
    );
}

/// Degenerate input: both orders are valid Delaunay meshes (brute-force
/// global check) over the same vertices.
fn assert_orders_valid(pts: &[Vec3]) {
    let a = morton(pts).expect("morton build");
    let b = input_order(pts).expect("input-order build");
    validate::global_delaunay_check(&a).expect("morton validation");
    validate::global_delaunay_check(&b).expect("input-order validation");
    assert_eq!(a.num_vertices(), b.num_vertices());
}

/// Exact n×n×n lattice: every 2×2×2 sub-cube is cospherical, so nearly all
/// insertions hit the exact insphere==Zero path.
fn grid(n: usize) -> Vec<Vec3> {
    let mut pts = Vec::with_capacity(n * n * n);
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                pts.push(Vec3::new(i as f64, j as f64, k as f64));
            }
        }
    }
    pts
}

fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Points on a common sphere (plus center): one giant cospherical family.
fn cosphere(n: usize, jitter_seed: u64) -> Vec<Vec3> {
    let mut pts = vec![Vec3::new(0.0, 0.0, 0.0)];
    let mut next = xorshift(jitter_seed);
    for _ in 0..n {
        let z = 2.0 * next() - 1.0;
        let phi = std::f64::consts::TAU * next();
        let r = (1.0 - z * z).max(0.0).sqrt();
        pts.push(Vec3::new(r * phi.cos(), r * phi.sin(), z));
    }
    pts
}

/// A box of tight clumps over a sparse background, like the galaxy boxes
/// the pipeline triangulates.
fn clustered_box(n: usize, seed: u64) -> Vec<Vec3> {
    let mut next = xorshift(seed);
    let centers: Vec<Vec3> = (0..6)
        .map(|_| Vec3::new(next() * 10.0, next() * 10.0, next() * 10.0))
        .collect();
    (0..n)
        .map(|i| {
            if i % 5 == 0 {
                Vec3::new(next() * 10.0, next() * 10.0, next() * 10.0)
            } else {
                // Sum of uniforms: a bell-shaped clump of width ~0.3.
                let mut off = || (next() + next() + next() - 1.5) * 0.3;
                let c = centers[i % centers.len()];
                Vec3::new(c.x + off(), c.y + off(), c.z + off())
            }
        })
        .collect()
}

#[test]
fn clustered_box_orders_agree() {
    assert_orders_agree(&clustered_box(3000, 0xC1A5));
}

#[test]
fn grid_5x5x5_both_orders_valid() {
    assert_orders_valid(&grid(5));
}

#[test]
fn grid_7x7x7_both_orders_valid() {
    assert_orders_valid(&grid(7));
}

#[test]
fn cospherical_200_both_orders_valid() {
    assert_orders_valid(&cosphere(200, 0x5EED));
}

#[test]
fn cospherical_300_both_orders_valid() {
    assert_orders_valid(&cosphere(300, 0xBADC0DE));
}

#[test]
fn duplicates_and_near_duplicates_both_orders_valid() {
    // Stress the Located::Vertex dedup path.
    let mut pts = grid(4);
    let dups: Vec<Vec3> = pts.iter().step_by(3).copied().collect();
    pts.extend(dups);
    pts.push(Vec3::new(0.5, 0.5, 0.5));
    assert_orders_valid(&pts);
    let d = morton(&pts).unwrap();
    assert_eq!(d.num_vertices(), 65);
}

#[test]
fn default_builds_are_identical() {
    for pts in [clustered_box(2000, 7), grid(6), cosphere(150, 3)] {
        let a = morton(&pts).unwrap();
        let b = morton(&pts).unwrap();
        assert_eq!(a.vertices(), b.vertices());
        assert_eq!(a.num_slots(), b.num_slots());
        for t in 0..a.num_slots() as u32 {
            let (x, y) = (a.tet_slot(t), b.tet_slot(t));
            assert_eq!((x.verts, x.neighbors), (y.verts, y.neighbors), "slot {t}");
        }
        for i in 0..pts.len() {
            assert_eq!(a.vertex_of_input(i), b.vertex_of_input(i));
        }
    }
}

#[test]
fn non_finite_input_reports_first_index_in_both_orders() {
    let mut pts = grid(3);
    pts[11] = Vec3::new(0.0, f64::INFINITY, 0.0);
    pts[5] = Vec3::new(f64::NAN, 0.0, 0.0);
    for build in [morton, input_order] {
        assert_eq!(build(&pts).unwrap_err(), BuildError::NonFinite { index: 5 });
    }
}

#[test]
fn degenerate_input_is_degenerate_in_both_orders() {
    let collinear: Vec<Vec3> = (0..10).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
    let coplanar: Vec<Vec3> = (0..5)
        .flat_map(|i| (0..5).map(move |j| Vec3::new(i as f64, j as f64, 0.0)))
        .collect();
    for pts in [vec![], vec![Vec3::splat(1.0); 10], collinear, coplanar] {
        for build in [morton, input_order] {
            assert_eq!(build(&pts).unwrap_err(), BuildError::Degenerate);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_clouds_orders_agree(
        pts in prop::collection::vec(
            (0.0f64..16.0, 0.0f64..16.0, 0.0f64..16.0).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
            8..300,
        )
    ) {
        match input_order(&pts) {
            Ok(_) => assert_orders_agree(&pts),
            // A degenerate random cloud (possible only at tiny sizes) must
            // be degenerate in Morton order too.
            Err(e) => prop_assert_eq!(morton(&pts).unwrap_err(), e),
        }
    }

    #[test]
    fn quantized_clouds_both_orders_valid(
        pts in prop::collection::vec((0u8..5, 0u8..5, 0u8..5), 10..120)
    ) {
        // Integer-lattice clouds with duplicates: heavy exact-predicate and
        // vertex-merge traffic.
        let pts: Vec<Vec3> =
            pts.into_iter().map(|(x, y, z)| Vec3::new(x as f64, y as f64, z as f64)).collect();
        match input_order(&pts) {
            Ok(_) => assert_orders_valid(&pts),
            Err(e) => prop_assert_eq!(morton(&pts).unwrap_err(), e),
        }
    }
}
