//! Dense FP64 grids in one, two and three dimensions.
//!
//! All executors in this workspace use the same boundary convention as the
//! reference executor: **periodic** (torus) boundaries — reads outside the
//! grid wrap around. Periodic convolution composes exactly, which is what
//! makes temporal kernel fusion (§IV-A) bit-identical to iterated
//! application; the simulator's halo copies wrap the same way.

/// A 1-D grid of `n` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid1D {
    n: usize,
    data: Vec<f64>,
}

impl Grid1D {
    /// Zeroed grid of `n` points.
    pub fn new(n: usize) -> Self {
        Grid1D { n, data: vec![0.0; n] }
    }

    /// Grid from an existing buffer.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Grid1D { n: data.len(), data }
    }

    /// Grid filled by `f(i)`.
    pub fn from_fn(n: usize, f: impl Fn(usize) -> f64) -> Self {
        Grid1D { n, data: (0..n).map(f).collect() }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Value at `i`, wrapping periodically outside the grid.
    #[inline]
    pub fn get(&self, i: isize) -> f64 {
        self.data[i.rem_euclid(self.n as isize) as usize]
    }

    /// Mutable in-bounds access.
    #[inline]
    pub fn set(&mut self, i: usize, v: f64) {
        self.data[i] = v;
    }

    /// Backing slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// A 2-D grid of `rows × cols` points, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2D {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Grid2D {
    /// Zeroed `rows × cols` grid.
    pub fn new(rows: usize, cols: usize) -> Self {
        Grid2D { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Grid from an existing row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Grid2D { rows, cols, data }
    }

    /// Grid filled by `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Grid2D { rows, cols, data }
    }

    /// Grid height.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of points.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Value at `(r, c)`, wrapping periodically outside the grid.
    #[inline]
    pub fn get(&self, r: isize, c: isize) -> f64 {
        let r = r.rem_euclid(self.rows as isize) as usize;
        let c = c.rem_euclid(self.cols as isize) as usize;
        self.data[r * self.cols + c]
    }

    /// In-bounds read without the boundary check (row-major index math
    /// only; panics in debug if out of range).
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable in-bounds access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Backing row-major slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable backing row-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// A 3-D grid of `nz × ny × nx` points; `x` is the contiguous dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3D {
    nz: usize,
    ny: usize,
    nx: usize,
    data: Vec<f64>,
}

impl Grid3D {
    /// Zeroed `nz × ny × nx` grid.
    pub fn new(nz: usize, ny: usize, nx: usize) -> Self {
        Grid3D { nz, ny, nx, data: vec![0.0; nz * ny * nx] }
    }

    /// Grid from an existing `(z, y, x)`-ordered buffer.
    pub fn from_vec(nz: usize, ny: usize, nx: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nz * ny * nx);
        Grid3D { nz, ny, nx, data }
    }

    /// Grid filled by `f(z, y, x)`.
    pub fn from_fn(
        nz: usize,
        ny: usize,
        nx: usize,
        f: impl Fn(usize, usize, usize) -> f64,
    ) -> Self {
        let mut data = Vec::with_capacity(nz * ny * nx);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    data.push(f(z, y, x));
                }
            }
        }
        Grid3D { nz, ny, nx, data }
    }

    /// Depth (z extent).
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Height (y extent).
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Width (x extent).
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Total number of points.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Value at `(z, y, x)`, wrapping periodically outside the grid.
    #[inline]
    pub fn get(&self, z: isize, y: isize, x: isize) -> f64 {
        let z = z.rem_euclid(self.nz as isize) as usize;
        let y = y.rem_euclid(self.ny as isize) as usize;
        let x = x.rem_euclid(self.nx as isize) as usize;
        self.data[(z * self.ny + y) * self.nx + x]
    }

    /// Mutable in-bounds access.
    #[inline]
    pub fn set(&mut self, z: usize, y: usize, x: usize, v: f64) {
        debug_assert!(z < self.nz && y < self.ny && x < self.nx);
        self.data[(z * self.ny + y) * self.nx + x] = v;
    }

    /// Extract plane `z` as a 2-D grid (copy).
    pub fn plane(&self, z: usize) -> Grid2D {
        assert!(z < self.nz);
        let start = z * self.ny * self.nx;
        Grid2D::from_vec(self.ny, self.nx, self.data[start..start + self.ny * self.nx].to_vec())
    }

    /// Backing slice in `(z, y, x)` order.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// A grid of any dimensionality, for the executor-facing API.
#[derive(Debug, Clone, PartialEq)]
pub enum GridData {
    /// One-dimensional grid.
    D1(Grid1D),
    /// Two-dimensional grid.
    D2(Grid2D),
    /// Three-dimensional grid.
    D3(Grid3D),
}

impl GridData {
    /// Dimensionality (1, 2 or 3).
    pub fn dims(&self) -> usize {
        match self {
            GridData::D1(_) => 1,
            GridData::D2(_) => 2,
            GridData::D3(_) => 3,
        }
    }

    /// Total number of points.
    pub fn len(&self) -> usize {
        match self {
            GridData::D1(g) => g.len(),
            GridData::D2(g) => g.len(),
            GridData::D3(g) => g.len(),
        }
    }

    /// Whether the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Backing values in canonical order.
    pub fn as_slice(&self) -> &[f64] {
        match self {
            GridData::D1(g) => g.as_slice(),
            GridData::D2(g) => g.as_slice(),
            GridData::D3(g) => g.as_slice(),
        }
    }

    /// Largest absolute element-wise difference against another grid of
    /// the same shape. Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &GridData) -> f64 {
        let (a, b) = (self.as_slice(), other.as_slice());
        assert_eq!(a.len(), b.len(), "grid shapes differ");
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f64 {
        self.as_slice().iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Every element multiplied by `s` (same shape).
    pub fn scaled(&self, s: f64) -> GridData {
        let mut out = self.clone();
        for v in out.values_mut() {
            *v *= s;
        }
        out
    }

    /// Element-wise sum with another grid of the same shape.
    pub fn added(&self, other: &GridData) -> GridData {
        assert_eq!(self.len(), other.len(), "grid shapes differ");
        let mut out = self.clone();
        for (v, o) in out.values_mut().iter_mut().zip(other.as_slice()) {
            *v += o;
        }
        out
    }

    /// Periodic translation: element `idx` of the result is element
    /// `idx - shift` of `self` (the content moves *forward* by `shift`).
    /// `shift` must have one entry per dimension, ordered like the
    /// constructor axes (`[i]`, `[r, c]`, `[z, y, x]`).
    pub fn rolled(&self, shift: &[isize]) -> GridData {
        match self {
            GridData::D1(g) => {
                assert_eq!(shift.len(), 1, "1-D roll takes one shift");
                GridData::D1(Grid1D::from_fn(g.len(), |i| g.get(i as isize - shift[0])))
            }
            GridData::D2(g) => {
                assert_eq!(shift.len(), 2, "2-D roll takes two shifts");
                GridData::D2(Grid2D::from_fn(g.rows(), g.cols(), |r, c| {
                    g.get(r as isize - shift[0], c as isize - shift[1])
                }))
            }
            GridData::D3(g) => {
                assert_eq!(shift.len(), 3, "3-D roll takes three shifts");
                GridData::D3(Grid3D::from_fn(g.nz(), g.ny(), g.nx(), |z, y, x| {
                    g.get(z as isize - shift[0], y as isize - shift[1], x as isize - shift[2])
                }))
            }
        }
    }

    fn values_mut(&mut self) -> &mut [f64] {
        match self {
            GridData::D1(g) => g.as_mut_slice(),
            GridData::D2(g) => g.as_mut_slice(),
            GridData::D3(g) => g.as_mut_slice(),
        }
    }
}

impl From<Grid1D> for GridData {
    fn from(g: Grid1D) -> Self {
        GridData::D1(g)
    }
}

impl From<Grid2D> for GridData {
    fn from(g: Grid2D) -> Self {
        GridData::D2(g)
    }
}

impl From<Grid3D> for GridData {
    fn from(g: Grid3D) -> Self {
        GridData::D3(g)
    }
}

impl foundation::json::ToJson for Grid1D {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        Json::obj([("n", Json::UInt(self.n as u64)), ("data", self.data.to_json())])
    }
}

impl foundation::json::ToJson for Grid2D {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        Json::obj([
            ("rows", Json::UInt(self.rows as u64)),
            ("cols", Json::UInt(self.cols as u64)),
            ("data", self.data.to_json()),
        ])
    }
}

impl foundation::json::ToJson for Grid3D {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        Json::obj([
            ("nz", Json::UInt(self.nz as u64)),
            ("ny", Json::UInt(self.ny as u64)),
            ("nx", Json::UInt(self.nx as u64)),
            ("data", self.data.to_json()),
        ])
    }
}

impl foundation::json::ToJson for GridData {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        match self {
            GridData::D1(g) => Json::obj([("D1", g.to_json())]),
            GridData::D2(g) => Json::obj([("D2", g.to_json())]),
            GridData::D3(g) => Json::obj([("D3", g.to_json())]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid1d_wraps_periodically() {
        let g = Grid1D::from_fn(4, |i| i as f64 + 1.0);
        assert_eq!(g.get(-1), 4.0);
        assert_eq!(g.get(4), 1.0);
        assert_eq!(g.get(-5), 4.0);
        assert_eq!(g.get(2), 3.0);
    }

    #[test]
    fn grid2d_row_major_layout() {
        let g = Grid2D::from_fn(3, 4, |r, c| (r * 10 + c) as f64);
        assert_eq!(g.at(2, 3), 23.0);
        assert_eq!(g.as_slice()[2 * 4 + 3], 23.0);
        assert_eq!(g.get(-1, 0), 20.0); // wraps to last row
        assert_eq!(g.get(0, 4), 0.0); // wraps to first column
        assert_eq!(g.get(3, -1), 3.0); // wraps both ways
    }

    #[test]
    fn grid3d_plane_extraction() {
        let g = Grid3D::from_fn(2, 3, 4, |z, y, x| (z * 100 + y * 10 + x) as f64);
        let p = g.plane(1);
        assert_eq!(p.rows(), 3);
        assert_eq!(p.cols(), 4);
        assert_eq!(p.at(2, 3), 123.0);
    }

    #[test]
    fn griddata_diff() {
        let a: GridData = Grid1D::from_vec(vec![1.0, 2.0]).into();
        let b: GridData = Grid1D::from_vec(vec![1.5, 1.0]).into();
        assert_eq!(a.max_abs_diff(&b), 1.0);
        assert_eq!(a.dims(), 1);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn griddata_scale_add_max_abs() {
        let a: GridData = Grid1D::from_vec(vec![1.0, -3.0, 2.0]).into();
        let b: GridData = Grid1D::from_vec(vec![0.5, 1.0, -1.0]).into();
        assert_eq!(a.max_abs(), 3.0);
        assert_eq!(a.scaled(2.0).as_slice(), &[2.0, -6.0, 4.0]);
        assert_eq!(a.added(&b).as_slice(), &[1.5, -2.0, 1.0]);
    }

    #[test]
    fn griddata_roll_translates_periodically() {
        let a: GridData = Grid1D::from_vec(vec![1.0, 2.0, 3.0, 4.0]).into();
        assert_eq!(a.rolled(&[1]).as_slice(), &[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(a.rolled(&[-1]).as_slice(), &[2.0, 3.0, 4.0, 1.0]);
        let g: GridData = Grid2D::from_fn(2, 3, |r, c| (r * 3 + c) as f64).into();
        // shift rows by 1: bottom row wraps to the top
        assert_eq!(g.rolled(&[1, 0]).as_slice(), &[3.0, 4.0, 5.0, 0.0, 1.0, 2.0]);
        let v: GridData = Grid3D::from_fn(2, 2, 2, |z, y, x| (z * 4 + y * 2 + x) as f64).into();
        // rolling by the full extent in every axis is the identity
        assert_eq!(v.rolled(&[2, 2, 2]), v);
    }
}
