//! Seeded inputs: particle boxes, snapshot files, request centres and
//! popularity draws. The same `--seed` gives the same inputs; the program
//! under test only ever sees what these functions generate.

use dtfe_framework::Decomposition;
use dtfe_geometry::{Aabb3, Vec3};
use dtfe_nbody::halos::{clustered_box, ClusteredBoxSpec};
use std::path::{Path, PathBuf};

/// splitmix64: a small seeded generator for the benchmark's own draws.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }
}

/// A clustered galaxy box (uniform background plus NFW halos, paper §V),
/// drawn from the seed. Halo occupations follow the generator's power law,
/// capped at [`GalaxyBox::MAX_OCCUPATION`] so that no single halo decides
/// how much work a seed carries.
pub struct GalaxyBox {
    pub side: f64,
    pub particles: usize,
    pub halos: usize,
    pub halo_fraction: f64,
}

impl GalaxyBox {
    /// Upper end of the raw occupation draw (the generator's default is
    /// 20 000, which lets one halo hold a large share of a box).
    pub const MAX_OCCUPATION: f64 = 400.0;

    pub fn bounds(&self) -> Aabb3 {
        Aabb3::new(Vec3::ZERO, Vec3::splat(self.side))
    }

    pub fn generate(&self, seed: u64) -> Vec<Vec3> {
        let mut spec = ClusteredBoxSpec::new(
            self.bounds(),
            self.particles,
            self.halos,
            Rng::new(seed, 1).next_u64(),
        );
        spec.halo_fraction = self.halo_fraction;
        spec.occupation_range = (spec.occupation_range.0, Self::MAX_OCCUPATION);
        clustered_box(&spec).0
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Write `points` as one-block snapshot `<id>.snap` (the format the
/// registry and `read_all` load).
pub fn write_snapshot(dir: &Path, id: &str, points: &[Vec3], bounds: Aabb3) -> PathBuf {
    let path = dir.join(format!("{id}.snap"));
    dtfe_nbody::snapshot::write_snapshot(&path, &[points.to_vec()], bounds)
        .expect("write benchmark snapshot");
    path
}

/// The particles of one tile as the serving tier selects them: the
/// decomposition cell inflated by the ghost margin, in snapshot order.
pub fn tile_points(points: &[Vec3], decomp: &Decomposition, tile: usize, ghost: f64) -> Vec<Vec3> {
    let bx = decomp.rank_box(tile).inflated(ghost);
    points
        .iter()
        .copied()
        .filter(|p| bx.contains_closed(*p))
        .collect()
}

/// `per_tile` request centres inside each tile, jittered around the tile
/// centre by up to a quarter of the tile's smallest side.
pub fn tile_centers(decomp: &Decomposition, per_tile: usize, rng: &mut Rng) -> Vec<(usize, Vec3)> {
    let mut out = Vec::new();
    for tile in 0..decomp.num_ranks() {
        let bx = decomp.rank_box(tile);
        let c = bx.center();
        let e = bx.hi - bx.lo;
        let jitter = 0.25 * e.x.min(e.y).min(e.z);
        for _ in 0..per_tile {
            out.push((
                tile,
                Vec3::new(
                    c.x + (rng.next_f64() - 0.5) * jitter,
                    c.y + (rng.next_f64() - 0.5) * jitter,
                    c.z + (rng.next_f64() - 0.5) * jitter,
                ),
            ));
        }
    }
    out
}

/// Zipf(`s`) over ranks `0..k` (rank 0 most popular).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(k: usize, s: f64) -> Zipf {
        let w: Vec<f64> = (1..=k).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = w.iter().sum();
        let mut acc = 0.0;
        let cdf = w
            .iter()
            .map(|x| {
                acc += x / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// FNV-1a over the bit patterns of a field — the batch check's digest.
pub fn digest(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let g = GalaxyBox {
            side: 8.0,
            particles: 2000,
            halos: 4,
            halo_fraction: 0.5,
        };
        assert_eq!(g.generate(7), g.generate(7));
        assert_ne!(g.generate(7), g.generate(8));
        let mut a = Rng::new(3, 1);
        let mut b = Rng::new(3, 2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zipf_ranks_follow_popularity() {
        let z = Zipf::new(8, 1.3);
        let mut rng = Rng::new(1, 0);
        let mut counts = [0usize; 8];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
    }
}
