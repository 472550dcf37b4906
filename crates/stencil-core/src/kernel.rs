//! Stencil kernel descriptions: shape, radius, dimensionality and weights.

/// The two predefined stencil patterns (§II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Neighbors displaced along a single dimension only.
    Star,
    /// The full square (or cube) around the center.
    Box,
}

/// Square weight matrix of odd side `n = 2h + 1`, row-major.
///
/// Index `(i, j)` corresponds to the neighbor displaced by
/// `(i - h, j - h)` from the updated point.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightMatrix {
    n: usize,
    data: Vec<f64>,
}

impl WeightMatrix {
    /// Zero matrix of side `n` (must be odd and ≥ 1).
    pub fn zero(n: usize) -> Self {
        assert!(n >= 1 && n % 2 == 1, "weight matrices have odd side, got {n}");
        WeightMatrix { n, data: vec![0.0; n * n] }
    }

    /// Build from a row-major buffer.
    pub fn from_vec(n: usize, data: Vec<f64>) -> Self {
        assert!(n >= 1 && n % 2 == 1);
        assert_eq!(data.len(), n * n);
        WeightMatrix { n, data }
    }

    /// Build from a closure over `(i, j)`.
    pub fn from_fn(n: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        assert!(n >= 1 && n % 2 == 1);
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                data.push(f(i, j));
            }
        }
        WeightMatrix { n, data }
    }

    /// Matrix side `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Kernel radius `h = (n − 1) / 2`.
    pub fn radius(&self) -> usize {
        (self.n - 1) / 2
    }

    /// Element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.n);
        self.data[i * self.n + j]
    }

    /// Set element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.n && j < self.n);
        self.data[i * self.n + j] = v;
    }

    /// Row-major backing slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Number of non-zero weights (the "points" column of Table II).
    pub fn nonzero_points(&self) -> usize {
        self.data.iter().filter(|&&w| w != 0.0).count()
    }

    /// Sum of all weights.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Largest absolute element-wise difference against another matrix of
    /// the same side.
    pub fn max_abs_diff(&self, other: &WeightMatrix) -> f64 {
        assert_eq!(self.n, other.n);
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &WeightMatrix) -> WeightMatrix {
        assert_eq!(self.n, other.n);
        WeightMatrix {
            n: self.n,
            data: self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect(),
        }
    }

    /// Element-wise addition.
    pub fn add(&self, other: &WeightMatrix) -> WeightMatrix {
        assert_eq!(self.n, other.n);
        WeightMatrix {
            n: self.n,
            data: self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect(),
        }
    }

    /// The centered `m × m` submatrix (`m` odd, `m ≤ n`), used by the
    /// pyramidal recursion (§III-C).
    pub fn center_block(&self, m: usize) -> WeightMatrix {
        assert!(m % 2 == 1 && m <= self.n);
        let off = (self.n - m) / 2;
        WeightMatrix::from_fn(m, |i, j| self.get(i + off, j + off))
    }

    /// Embed this matrix centered inside a larger zero matrix of side `n`.
    pub fn embed_centered(&self, n: usize) -> WeightMatrix {
        assert!(n % 2 == 1 && n >= self.n);
        let off = (n - self.n) / 2;
        let mut out = WeightMatrix::zero(n);
        for i in 0..self.n {
            for j in 0..self.n {
                out.set(i + off, j + off, self.get(i, j));
            }
        }
        out
    }

    /// 2-D full convolution of two weight matrices: the weight matrix of
    /// the composed operator, used by temporal kernel fusion (§IV-A).
    pub fn convolve(&self, other: &WeightMatrix) -> WeightMatrix {
        let n = self.n + other.n - 1;
        let mut out = WeightMatrix::zero(n);
        for i1 in 0..self.n {
            for j1 in 0..self.n {
                let w1 = self.get(i1, j1);
                if w1 == 0.0 {
                    continue;
                }
                for i2 in 0..other.n {
                    for j2 in 0..other.n {
                        let v = out.get(i1 + i2, j1 + j2) + w1 * other.get(i2, j2);
                        out.set(i1 + i2, j1 + j2, v);
                    }
                }
            }
        }
        out
    }

    /// Numerical rank via Gaussian elimination with partial pivoting.
    pub fn rank(&self, tol: f64) -> usize {
        let n = self.n;
        let mut m: Vec<Vec<f64>> = (0..n).map(|i| self.data[i * n..(i + 1) * n].to_vec()).collect();
        let mut rank = 0;
        for col in 0..n {
            // find pivot
            let (mut best, mut best_abs) = (None, tol);
            for (r, row) in m.iter().enumerate().take(n).skip(rank) {
                if row[col].abs() > best_abs {
                    best = Some(r);
                    best_abs = row[col].abs();
                }
            }
            let Some(p) = best else { continue };
            m.swap(rank, p);
            let pivot = m[rank][col];
            for r in (rank + 1)..n {
                let f = m[r][col] / pivot;
                if f != 0.0 {
                    for c in col..n {
                        m[r][c] -= f * m[rank][c];
                    }
                }
            }
            rank += 1;
            if rank == n {
                break;
            }
        }
        rank
    }
}

/// Weights for a kernel of any dimensionality.
#[derive(Debug, Clone, PartialEq)]
pub enum Weights {
    /// 1-D weights, length `2h + 1`.
    D1(Vec<f64>),
    /// 2-D weight matrix of side `2h + 1`.
    D2(WeightMatrix),
    /// 3-D weights as `2h + 1` planes, each of side `2h + 1`, indexed by
    /// the z displacement (plane `dz + h`).
    D3(Vec<WeightMatrix>),
}

/// A complete stencil kernel description.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilKernel {
    /// Kernel name (e.g. `"Box-2D9P"`).
    pub name: String,
    /// Pattern shape.
    pub shape: Shape,
    /// Radius (a.k.a. order) `h`.
    pub radius: usize,
    /// Weights; dimensionality is implied.
    pub weights: Weights,
}

impl StencilKernel {
    /// Dimensionality (1, 2 or 3).
    pub fn dims(&self) -> usize {
        match &self.weights {
            Weights::D1(_) => 1,
            Weights::D2(_) => 2,
            Weights::D3(_) => 3,
        }
    }

    /// Side length `n = 2h + 1`.
    pub fn side(&self) -> usize {
        2 * self.radius + 1
    }

    /// Number of non-zero weights (Table II "Points").
    pub fn points(&self) -> usize {
        match &self.weights {
            Weights::D1(w) => w.iter().filter(|&&x| x != 0.0).count(),
            Weights::D2(w) => w.nonzero_points(),
            Weights::D3(ws) => ws.iter().map(|w| w.nonzero_points()).sum(),
        }
    }

    /// The 2-D weight matrix; panics if not 2-D.
    pub fn weights_2d(&self) -> &WeightMatrix {
        match &self.weights {
            Weights::D2(w) => w,
            _ => panic!("kernel {} is not 2-D", self.name),
        }
    }

    /// The 1-D weights; panics if not 1-D.
    pub fn weights_1d(&self) -> &[f64] {
        match &self.weights {
            Weights::D1(w) => w,
            _ => panic!("kernel {} is not 1-D", self.name),
        }
    }

    /// The 3-D weight planes; panics if not 3-D.
    pub fn weights_3d(&self) -> &[WeightMatrix] {
        match &self.weights {
            Weights::D3(w) => w,
            _ => panic!("kernel {} is not 3-D", self.name),
        }
    }

    /// Validate internal consistency (sides match the radius, 3-D plane
    /// count matches, star kernels are zero off the axes).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.side();
        match &self.weights {
            Weights::D1(w) => {
                if w.len() != n {
                    return Err(format!("1-D weights len {} != {n}", w.len()));
                }
            }
            Weights::D2(w) => {
                if w.n() != n {
                    return Err(format!("2-D weights side {} != {n}", w.n()));
                }
                if self.shape == Shape::Star {
                    let h = self.radius;
                    for i in 0..n {
                        for j in 0..n {
                            if i != h && j != h && w.get(i, j) != 0.0 {
                                return Err(format!(
                                    "star kernel has off-axis weight at ({i},{j})"
                                ));
                            }
                        }
                    }
                }
            }
            Weights::D3(ws) => {
                if ws.len() != n {
                    return Err(format!("3-D plane count {} != {n}", ws.len()));
                }
                for (z, w) in ws.iter().enumerate() {
                    if w.n() != n {
                        return Err(format!("3-D plane {z} side {} != {n}", w.n()));
                    }
                }
            }
        }
        Ok(())
    }
}

impl foundation::json::ToJson for Shape {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        Json::Str(match self {
            Shape::Star => "Star".to_string(),
            Shape::Box => "Box".to_string(),
        })
    }
}

impl foundation::json::ToJson for WeightMatrix {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        Json::obj([("n", Json::UInt(self.n as u64)), ("data", self.data.to_json())])
    }
}

impl foundation::json::ToJson for Weights {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        match self {
            Weights::D1(w) => Json::obj([("D1", w.to_json())]),
            Weights::D2(w) => Json::obj([("D2", w.to_json())]),
            Weights::D3(planes) => Json::obj([("D3", Json::arr(planes.iter()))]),
        }
    }
}

impl foundation::json::ToJson for StencilKernel {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("shape", self.shape.to_json()),
            ("radius", Json::UInt(self.radius as u64)),
            ("weights", self.weights.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_of_outer_product_is_one() {
        let u = [1.0, 2.0, 3.0];
        let w = WeightMatrix::from_fn(3, |i, j| u[i] * u[j]);
        assert_eq!(w.rank(1e-12), 1);
    }

    #[test]
    fn rank_of_identity_is_n() {
        let w = WeightMatrix::from_fn(5, |i, j| if i == j { 1.0 } else { 0.0 });
        assert_eq!(w.rank(1e-12), 5);
    }

    #[test]
    fn rank_of_zero_is_zero() {
        assert_eq!(WeightMatrix::zero(3).rank(1e-12), 0);
    }

    #[test]
    fn convolve_deltas() {
        // delta * delta = delta (all centered)
        let mut d = WeightMatrix::zero(1);
        d.set(0, 0, 2.0);
        let c = d.convolve(&d);
        assert_eq!(c.n(), 1);
        assert_eq!(c.get(0, 0), 4.0);
    }

    #[test]
    fn convolve_grows_support() {
        let w = WeightMatrix::from_fn(3, |_, _| 1.0);
        let c = w.convolve(&w);
        assert_eq!(c.n(), 5);
        // center element of 3x3-ones ⊛ 3x3-ones = 9
        assert_eq!(c.get(2, 2), 9.0);
        // corner = 1
        assert_eq!(c.get(0, 0), 1.0);
        // sum is preserved multiplicatively: 9 * 9 = 81
        assert!((c.sum() - 81.0).abs() < 1e-12);
    }

    #[test]
    fn center_block_and_embed_roundtrip() {
        let w = WeightMatrix::from_fn(5, |i, j| (i * 5 + j) as f64);
        let c = w.center_block(3);
        assert_eq!(c.get(0, 0), w.get(1, 1));
        let e = c.embed_centered(5);
        assert_eq!(e.get(1, 1), w.get(1, 1));
        assert_eq!(e.get(0, 0), 0.0);
    }

    #[test]
    fn star_validation_rejects_off_axis() {
        let mut w = WeightMatrix::zero(3);
        w.set(0, 0, 1.0); // off-axis corner
        let k = StencilKernel {
            name: "bad".into(),
            shape: Shape::Star,
            radius: 1,
            weights: Weights::D2(w),
        };
        assert!(k.validate().is_err());
    }

    #[test]
    fn points_counts_nonzeros() {
        let mut w = WeightMatrix::zero(3);
        w.set(1, 1, 0.5);
        w.set(0, 1, 0.25);
        let k = StencilKernel {
            name: "t".into(),
            shape: Shape::Box,
            radius: 1,
            weights: Weights::D2(w),
        };
        assert_eq!(k.points(), 2);
        assert_eq!(k.dims(), 2);
        assert_eq!(k.side(), 3);
    }
}
