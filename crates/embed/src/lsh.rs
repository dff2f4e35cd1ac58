//! Random-hyperplane LSH with banding.
//!
//! Sign-random-projection LSH: `P[h(a) = h(b)] = 1 − θ(a,b)/π` per
//! hyperplane. Bits are grouped into bands; two vectors become a candidate
//! pair when *all* bits of at least one band agree — the classic banding
//! construction that turns per-bit collision probability into an S-curve
//! over cosine similarity.

use crate::embedding::SparseVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random-hyperplane LSH parameters + sampled hyperplanes.
#[derive(Debug, Clone)]
pub struct HyperplaneLsh {
    dim: usize,
    bands: usize,
    bits_per_band: usize,
    /// The `bands × bits_per_band` hyperplane normals, plane-major: entry
    /// `d * planes + j` is component `d` of plane `j`, so one nonzero
    /// dimension of an input reads one contiguous row holding every plane.
    normals: Vec<f32>,
}

impl HyperplaneLsh {
    /// Sample hyperplanes for `dim`-dimensional inputs.
    ///
    /// `bands` × `bits_per_band` ≤ 64·bands total bits. More bands → higher
    /// recall; more bits per band → higher precision.
    pub fn new(dim: usize, bands: usize, bits_per_band: usize, seed: u64) -> Self {
        assert!(
            (1..=64).contains(&bits_per_band),
            "band width must be 1..=64 bits"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let planes = bands * bits_per_band;
        let mut normals = vec![0.0f32; dim * planes];
        // Drawn plane by plane, so a seed yields the same planes whatever
        // the storage layout.
        for j in 0..planes {
            for d in 0..dim {
                // Rademacher ±1 normals are as good as Gaussian for SRP and
                // cheaper to generate/apply.
                normals[d * planes + j] = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            }
        }
        HyperplaneLsh {
            dim,
            bands,
            bits_per_band,
            normals,
        }
    }

    /// Number of bands.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Band signatures of a vector: one `u64` key per band.
    pub fn signature(&self, v: &[f32]) -> Vec<u64> {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let mut keys = Vec::with_capacity(self.bands);
        self.sparse_signature(&SparseVec::from_dense(v), &mut keys);
        keys
    }

    /// The band keys of the vector whose nonzero entries `v` holds,
    /// appended to `keys`: one accumulator per plane, and one contiguous row
    /// of plane components per nonzero entry.
    ///
    /// Bit-identical to dense dot products over all dimensions: every
    /// skipped term is `±1 × ±0.0 = ±0.0`, which leaves a nonzero partial
    /// sum unchanged; the kept terms are added in the same ascending order;
    /// and a sum that stays zero can differ only in its sign, which
    /// `>= 0.0` ignores. NaN entries are kept, so they poison a plane's sum
    /// as they do densely.
    pub(crate) fn sparse_signature(&self, v: &SparseVec, keys: &mut Vec<u64>) {
        let planes = self.bands * self.bits_per_band;
        let mut dots = vec![0.0f32; planes];
        for (&d, &x) in v.dims().iter().zip(v.vals()) {
            let row = &self.normals[d as usize * planes..][..planes];
            for (dot, &p) in dots.iter_mut().zip(row) {
                *dot += p * x;
            }
        }
        keys.extend(dots.chunks_exact(self.bits_per_band).map(|band| {
            band.iter()
                .fold(0u64, |key, &dot| (key << 1) | u64::from(dot >= 0.0))
        }));
    }

    /// Do two vectors collide in at least one band?
    pub fn collides(&self, a: &[f32], b: &[f32]) -> bool {
        self.signature(a)
            .iter()
            .zip(self.signature(b).iter())
            .any(|(x, y)| x == y)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::embedding::TupleEmbedder;
    use proptest::prelude::*;

    /// The row-major planes and dense signature loop the sparse kernel
    /// replaced, kept as its oracle.
    pub(crate) struct DenseLsh {
        bands: usize,
        bits_per_band: usize,
        planes: Vec<Vec<f32>>,
    }

    impl DenseLsh {
        pub(crate) fn new(dim: usize, bands: usize, bits_per_band: usize, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let planes = (0..bands * bits_per_band)
                .map(|_| {
                    (0..dim)
                        .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                        .collect()
                })
                .collect();
            DenseLsh {
                bands,
                bits_per_band,
                planes,
            }
        }

        pub(crate) fn signature(&self, v: &[f32]) -> Vec<u64> {
            let mut sig = Vec::with_capacity(self.bands);
            for band in 0..self.bands {
                let mut key = 0u64;
                for bit in 0..self.bits_per_band {
                    let plane = &self.planes[band * self.bits_per_band + bit];
                    let dot: f32 = plane.iter().zip(v).map(|(p, x)| p * x).sum();
                    key = (key << 1) | u64::from(dot >= 0.0);
                }
                sig.push(key);
            }
            sig
        }
    }

    /// Vectors of `dim` entries weighted towards the cases the sparse
    /// kernels must keep exact: `0.0` and `-0.0` (about `zeros` in 10 of
    /// the entries), NaN, infinities (when asked for), subnormals and values
    /// whose squares overflow.
    pub(crate) fn vector(
        dim: usize,
        zeros: u8,
        with_infinity: bool,
    ) -> impl Strategy<Value = Vec<f32>> {
        let entry = (0u8..10, 0u8..10, -1.0f64..1.0).prop_map(move |(z, kind, x)| {
            if z < zeros {
                return if kind % 3 == 0 { -0.0 } else { 0.0 };
            }
            match kind {
                0 => f32::NAN,
                1 if with_infinity => f32::INFINITY.copysign(x as f32),
                2 => f32::MIN_POSITIVE * x as f32,
                3 => 1e30 * x as f32,
                _ => x as f32,
            }
        });
        proptest::collection::vec(entry, dim)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sparse_signature_matches_the_dense_loop(
            v in (1usize..40, 0u8..=10).prop_flat_map(|(dim, zeros)| vector(dim, zeros, true)),
            (bands, bits, seed) in (0usize..6, 1usize..=64, 0u64..1000),
        ) {
            let got = HyperplaneLsh::new(v.len(), bands, bits, seed).signature(&v);
            let want = DenseLsh::new(v.len(), bands, bits, seed).signature(&v);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn identical_vectors_always_collide() {
        let lsh = HyperplaneLsh::new(64, 8, 8, 42);
        let e = TupleEmbedder::new(64);
        let v = e.embed_text("sony bravia tv");
        assert_eq!(lsh.signature(&v), lsh.signature(&v));
        assert!(lsh.collides(&v, &v));
    }

    #[test]
    fn similar_collide_more_than_dissimilar() {
        let e = TupleEmbedder::new(128);
        let base = e.embed_text("sony bravia kdl-40v2500 lcd tv 40 inch");
        let near = e.embed_text("sony bravia kdl 40v2500 lcd tv");
        let far = e.embed_text("nikon coolpix digital camera 10mp");
        // Average collisions over several seeds (probabilistic statement).
        let mut near_hits = 0;
        let mut far_hits = 0;
        for seed in 0..20 {
            let lsh = HyperplaneLsh::new(128, 8, 6, seed);
            near_hits += usize::from(lsh.collides(&base, &near));
            far_hits += usize::from(lsh.collides(&base, &far));
        }
        assert!(
            near_hits > far_hits,
            "near collided {near_hits}/20, far {far_hits}/20"
        );
        assert!(
            near_hits >= 15,
            "high-cosine pairs should almost always collide"
        );
    }

    #[test]
    fn signature_is_deterministic_per_seed() {
        let e = TupleEmbedder::new(32);
        let v = e.embed_text("abc def");
        let a = HyperplaneLsh::new(32, 4, 8, 7).signature(&v);
        let b = HyperplaneLsh::new(32, 4, 8, 7).signature(&v);
        let c = HyperplaneLsh::new(32, 4, 8, 8).signature(&v);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seed should give different planes");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let lsh = HyperplaneLsh::new(16, 2, 4, 0);
        lsh.signature(&[0.0; 8]);
    }
}
