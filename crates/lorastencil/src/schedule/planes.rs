//! The one boundary between grids and the plane lists the interpreter
//! runs over: a 1-D grid is one `1 × n` plane, a 2-D grid one plane,
//! and a 3-D grid one plane per z-slice.

use stencil_core::{Grid1D, Grid2D, Grid3D, GridData};
use tcu_sim::GlobalArray;

/// A grid as the interpreter's plane list. Each plane is copied once
/// from the grid's contiguous storage.
pub fn grid_to_planes(grid: &GridData) -> Vec<GlobalArray> {
    match grid {
        GridData::D1(g) => vec![GlobalArray::from_vec(1, g.len(), g.as_slice().to_vec())],
        GridData::D2(g) => {
            vec![GlobalArray::from_vec(g.rows(), g.cols(), g.as_slice().to_vec())]
        }
        GridData::D3(g) => {
            let n = g.ny() * g.nx();
            (0..g.nz())
                .map(|z| GlobalArray::from_vec(g.ny(), g.nx(), g.as_slice()[z * n..][..n].to_vec()))
                .collect()
        }
    }
}

/// Interpreter planes back into a `dims`-dimensional grid.
pub fn planes_to_grid(planes: &[GlobalArray], dims: usize) -> GridData {
    let (rows, cols) = (planes[0].rows(), planes[0].cols());
    match dims {
        1 => GridData::D1(Grid1D::from_vec(planes[0].as_slice().to_vec())),
        2 => GridData::D2(Grid2D::from_vec(rows, cols, planes[0].as_slice().to_vec())),
        3 => {
            let mut data = Vec::with_capacity(planes.len() * rows * cols);
            for p in planes {
                data.extend_from_slice(p.as_slice());
            }
            GridData::D3(Grid3D::from_vec(planes.len(), rows, cols, data))
        }
        _ => panic!("grids are 1-, 2- or 3-dimensional"),
    }
}

/// The extents of `planes` seen as a `dims`-dimensional grid: `[n]`,
/// `[rows, cols]` or `[nz, ny, nx]`.
pub(crate) fn plane_extents(planes: &[GlobalArray], dims: usize) -> Vec<usize> {
    let (rows, cols) = (planes[0].rows(), planes[0].cols());
    match dims {
        1 => vec![cols],
        2 => vec![rows, cols],
        3 => vec![planes.len(), rows, cols],
        _ => panic!("grids are 1-, 2- or 3-dimensional"),
    }
}

/// The plane list of a grid of `extents` as `[planes, rows, cols]`: a
/// 1-D array is one `1 × n` plane, a 2-D grid one plane.
pub(crate) fn plane_shape(extents: &[usize]) -> [usize; 3] {
    match *extents {
        [n] => [1, 1, n],
        [rows, cols] => [1, rows, cols],
        [nz, ny, nx] => [nz, ny, nx],
        _ => panic!("grids are 1-, 2- or 3-dimensional"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_plane_conversion_roundtrips_all_dims() {
        let grids = [
            GridData::D1(Grid1D::from_fn(17, |i| (i as f64).sin())),
            GridData::D2(Grid2D::from_fn(6, 7, |r, c| (r * 10 + c) as f64)),
            GridData::D3(Grid3D::from_fn(3, 4, 5, |z, y, x| (z * 100 + y * 10 + x) as f64)),
        ];
        let extents: [&[usize]; 3] = [&[17], &[6, 7], &[3, 4, 5]];
        for (g, want) in grids.iter().zip(extents) {
            let planes = grid_to_planes(g);
            assert_eq!(plane_extents(&planes, g.dims()), want);
            assert_eq!(&planes_to_grid(&planes, g.dims()), g);
        }
        // a 3-D plane is its z-slice
        let GridData::D3(g3) = &grids[2] else { unreachable!() };
        assert_eq!(grid_to_planes(&grids[2])[1].as_slice(), g3.plane(1).as_slice());
    }
}
