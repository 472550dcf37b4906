//! Benchmarks (foundation's in-tree harness) of whole-grid executor passes: one stencil
//! application of every method (LoRAStencil and the six baselines) plus
//! the naive reference, on a 64×64 grid. Wall time here measures the
//! functional simulation's own throughput; the modeled A100 GStencil/s
//! comes from the `fig8` binary.

use foundation::bench::{black_box, Bench, BenchmarkId};
use lorastencil::plan::DeviceBackend;
use lorastencil::{ExecConfig, LoRaStencil};
use stencil_core::{kernels, reference, Grid2D, GridData, Problem, StencilExecutor};

fn bench_apply_2d(c: &mut Bench) {
    let grid = Grid2D::from_fn(64, 64, |r, cc| ((r * 13 + cc * 7) % 17) as f64 * 0.3);
    let kernel = kernels::box_2d49p();
    let problem = Problem::new(kernel.clone(), grid.clone(), 1);

    let mut group = c.benchmark_group("apply_box2d49p_64x64");
    group.bench_function("reference", |b| {
        b.points(64 * 64).iter(|| reference::run(black_box(&problem.input), &problem.kernel, 1))
    });
    group.bench_function("LoRAStencil", |b| {
        let exec = LoRaStencil::new();
        b.points(64 * 64).iter(|| exec.execute(black_box(&problem)).unwrap())
    });
    for exec in baselines::all_baselines() {
        group.bench_with_input(BenchmarkId::new("baseline", exec.name()), &problem, |b, p| {
            b.points(64 * 64).iter(|| exec.execute(black_box(p)).unwrap())
        });
    }
    group.finish();
}

fn bench_backends(c: &mut Bench) {
    // the four device backends on one star kernel (sparse-friendly U
    // factors) — the guard watches SparseTcu/SimdCore alongside the
    // defaults so a regression in either new path fails CI
    let grid = Grid2D::from_fn(64, 64, |r, cc| ((r * 11 + cc * 5) % 23) as f64 * 0.2);
    let problem = Problem::new(kernels::heat_2d(), grid, 1);
    let mut group = c.benchmark_group("backend_heat2d_64x64");
    let backends = [
        ("tcu", DeviceBackend::TcuF64),
        ("sparse", DeviceBackend::SparseTcu),
        ("simd", DeviceBackend::SimdCore),
        ("cuda", DeviceBackend::CudaCore),
    ];
    for (name, backend) in backends {
        group.bench_with_input(BenchmarkId::new("backend", name), &problem, |b, p| {
            let exec = LoRaStencil::with_config(ExecConfig { backend, ..ExecConfig::full() });
            b.points(64 * 64).iter(|| exec.execute(black_box(p)).unwrap())
        });
    }
    group.finish();
}

fn bench_iterated(c: &mut Bench) {
    // fused multi-iteration pass: the planner folds 6 steps into 2 fused
    // applications
    let grid = Grid2D::from_fn(64, 64, |r, cc| (r + cc) as f64 * 0.1);
    let problem = Problem::new(kernels::box_2d9p(), GridData::D2(grid), 6);
    c.bench_function("lora_box2d9p_6steps_fused", |b| {
        let exec = LoRaStencil::new();
        b.points(6 * 64 * 64).iter(|| exec.execute(black_box(&problem)).unwrap())
    });
}

fn bench_3d(c: &mut Bench) {
    let grid = stencil_core::Grid3D::from_fn(6, 24, 24, |z, y, x| (z + y * 2 + x) as f64 * 0.05);
    let problem = Problem::new(kernels::heat_3d(), GridData::D3(grid.clone()), 1);
    c.bench_function("lora_heat3d_6x24x24", |b| {
        let exec = LoRaStencil::new();
        b.points(6 * 24 * 24).iter(|| exec.execute(black_box(&problem)).unwrap())
    });
    // multi-iteration steady state: the session time loop reuses every
    // buffer, so per-step cost drops well below the single-apply bench
    let problem6 = Problem::new(kernels::heat_3d(), GridData::D3(grid), 6);
    c.bench_function("lora_heat3d_6x24x24_6steps", |b| {
        let exec = LoRaStencil::new();
        b.points(6 * 6 * 24 * 24).iter(|| exec.execute(black_box(&problem6)).unwrap())
    });
}

fn main() {
    let mut c = Bench::from_args();
    bench_apply_2d(&mut c);
    bench_backends(&mut c);
    bench_iterated(&mut c);
    bench_3d(&mut c);
    c.finish();
}
