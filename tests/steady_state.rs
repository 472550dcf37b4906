//! Zero-allocation steady-state executor loop: once an [`ExecSession`]
//! is warmed up, further time steps perform **no heap allocation** and
//! spawn **no threads** — the double-buffered grids, the tiling, the
//! weight fragments, the output-pointer table and the per-worker scratch
//! are all reused, and the worker pool persists (see DESIGN.md, "Host-side
//! performance model"). The serve daemon extends the guarantee to whole
//! requests: a warm plan-cache hit answers without allocating or
//! spawning either.
//!
//! This binary installs [`CountingAllocator`] as its global allocator,
//! so [`allocation_count`] observes every heap allocation the process
//! makes.

use foundation::alloc_counter::{allocation_count, CountingAllocator};
use foundation::par::threads_spawned;
use lorastencil::fusion::fuse_kernel;
use lorastencil::{DeviceBackend, ExecConfig, ExecSession, Plan, ScheduleParams, Workspace};
use stencil_core::{kernels, StencilKernel};
use tcu_sim::GlobalArray;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A session of `kernel` under `config` and `params` whose current grid
/// is `planes`.
fn session(
    kernel: &StencilKernel,
    config: ExecConfig,
    params: ScheduleParams,
    planes: &[GlobalArray],
) -> ExecSession {
    let extents = match planes {
        [p] if kernel.dims() == 2 => vec![p.rows(), p.cols()],
        _ => vec![planes.len(), planes[0].rows(), planes[0].cols()],
    };
    let mut s = ExecSession::with_params(kernel, config, &extents, params);
    let values: Vec<f64> = planes.iter().flat_map(|p| p.as_slice().iter().copied()).collect();
    s.fill_with(|i| values[i as usize]);
    s
}

/// Advance one (possibly fused) application.
fn step(s: &mut ExecSession) {
    s.run(s.fusion());
}

/// One test function (not two) so the `FOUNDATION_THREADS` mutations
/// cannot race another test in this binary.
#[test]
fn steady_state_steps_allocate_nothing_and_spawn_nothing() {
    // The executors' hot paths carry compiled-in `foundation::obs::span`
    // sites; with tracing disabled each costs one relaxed atomic load —
    // no clock read, no event, no allocation — so the assertions below
    // also prove the observability layer is free when off.
    assert!(!foundation::obs::enabled(), "span tracing must default to off");
    let mut input = GlobalArray::new(64, 64);
    for r in 0..64 {
        for c in 0..64 {
            input.poke(r, c, ((r * 13 + c * 7) % 19) as f64 * 0.25 - 1.0);
        }
    }
    let mut sess =
        session(&kernels::box_2d9p(), ExecConfig::full(), ScheduleParams::default(), &[input]);

    // Allocation assertion under sequential lanes: each pool worker
    // lazily allocates its tile scratch on the first tile it ever runs,
    // and the OS scheduler decides when a worker first wins a lane, so
    // only the single-lane loop has a deterministic allocation profile.
    std::env::set_var("FOUNDATION_THREADS", "1");
    step(&mut sess);
    step(&mut sess); // warm-up: main-thread scratch
    let allocs = allocation_count();
    for _ in 0..8 {
        step(&mut sess);
    }
    assert_eq!(
        allocation_count(),
        allocs,
        "steady-state steps must not allocate (FOUNDATION_THREADS=1)"
    );

    // Every device backend keeps the guarantee, the scalar ones included:
    // their window and T columns live in the per-worker scratch.
    for backend in DeviceBackend::all() {
        let config = ExecConfig { backend, ..ExecConfig::full() };
        let mut sess =
            session(&kernels::heat_2d(), config, ScheduleParams::default(), sess.planes());
        step(&mut sess);
        step(&mut sess);
        let allocs = allocation_count();
        for _ in 0..4 {
            step(&mut sess);
        }
        assert_eq!(
            allocation_count(),
            allocs,
            "{backend:?}: steady-state steps must not allocate (FOUNDATION_THREADS=1)"
        );
    }

    // Windows wider than the scratch's initial capacity: Heat-2D fused to
    // radius 20 (S = 48) and 36 (S = 80) on the scalar backends. The first
    // step grows the per-worker window once; later steps reuse it.
    let mut small = GlobalArray::new(16, 16);
    for r in 0..16 {
        for c in 0..16 {
            small.poke(r, c, ((r * 5 + c * 3) % 7) as f64 * 0.5);
        }
    }
    for backend in [DeviceBackend::CudaCore, DeviceBackend::SimdCore] {
        for fuse in [20, 36] {
            // Heat-2D fused ahead of planning: one application is `fuse` steps
            let config = ExecConfig { backend, allow_fusion: false, ..ExecConfig::full() };
            let fused = fuse_kernel(&kernels::heat_2d(), fuse);
            let mut wide =
                session(&fused, config, ScheduleParams::default(), std::slice::from_ref(&small));
            step(&mut wide);
            let (allocs, spawned) = (allocation_count(), threads_spawned());
            for _ in 0..2 {
                step(&mut wide);
            }
            assert_eq!(
                (allocation_count(), threads_spawned()),
                (allocs, spawned),
                "{backend:?} fused ×{fuse}: steady-state steps must not allocate or spawn"
            );
        }
    }

    // The band evaluator of the tensor-core chains keeps its plan-time
    // tables inline in the weight fragments and its transposed window in
    // the per-worker scratch: Box-2D49P on TcuF64, three pyramid terms
    // plus a pointwise tip, allocates nothing either.
    let mut box49 = session(
        &kernels::box_2d49p(),
        ExecConfig::full(),
        ScheduleParams::default(),
        sess.planes(),
    );
    step(&mut box49);
    step(&mut box49);
    let allocs = allocation_count();
    for _ in 0..4 {
        step(&mut box49);
    }
    assert_eq!(
        allocation_count(),
        allocs,
        "Box-2D49P on TcuF64: steady-state steps must not allocate (FOUNDATION_THREADS=1)"
    );

    // The strip evaluator's windows, step-1 rows and accumulators grow
    // once per worker to the widest plane it has run: both tensor-core
    // backends on a 512-wide Box-2D49P grid, and the 3-D plane ops under
    // 64×64 and 16×16 macro tiles.
    let wide_grid = GlobalArray::from_vec(
        16,
        512,
        (0..16 * 512).map(|i| ((i * 37) % 23) as f64 * 0.125 - 1.0).collect(),
    );
    let volume: Vec<GlobalArray> = (0..4)
        .map(|z| {
            GlobalArray::from_vec(
                20,
                36,
                (0..20 * 36).map(|i| ((i * 11 + z * 5) % 17) as f64 * 0.25 - 2.0).collect(),
            )
        })
        .collect();
    let tcu = [DeviceBackend::TcuF64, DeviceBackend::SparseTcu];
    let shapes = [
        ScheduleParams { tile_rows: 64, tile_cols: 64 },
        ScheduleParams { tile_rows: 16, tile_cols: 16 },
    ];
    let mut strip_runs: Vec<(String, ExecSession)> = tcu
        .iter()
        .map(|&backend| {
            let config = ExecConfig { backend, ..ExecConfig::full() };
            (
                format!("Box-2D49P 16x512 on {backend:?}"),
                session(
                    &kernels::box_2d49p(),
                    config,
                    ScheduleParams::default(),
                    std::slice::from_ref(&wide_grid),
                ),
            )
        })
        .collect();
    for kernel in [kernels::heat_3d(), kernels::box_3d27p()] {
        for params in shapes {
            let name = format!("{} {}", kernel.name, params.describe());
            strip_runs.push((name, session(&kernel, ExecConfig::full(), params, &volume)));
        }
    }
    for (name, strip_sess) in &mut strip_runs {
        step(strip_sess);
        step(strip_sess);
        let (allocs, spawned) = (allocation_count(), threads_spawned());
        for _ in 0..3 {
            step(strip_sess);
        }
        assert_eq!(
            (allocation_count(), threads_spawned()),
            (allocs, spawned),
            "{name}: steady-state steps on strips must not allocate or spawn"
        );
    }
    drop(strip_runs);

    // A workspace sizes its buffers and fixes its counters when it is
    // built, so even its first application allocates nothing once the
    // worker's strip scratch is warm (the runs above warmed it on these
    // plans and grids): one 2-D plane, and a volume's four planes.
    for (kernel, planes) in
        [(kernels::box_2d9p(), sess.planes().to_vec()), (kernels::heat_3d(), volume.clone())]
    {
        let plan = Plan::new(&kernel, ExecConfig::full());
        let (rows, cols) = (planes[0].rows(), planes[0].cols());
        let extents = match kernel.dims() {
            2 => vec![rows, cols],
            _ => vec![planes.len(), rows, cols],
        };
        let mut fresh = Workspace::new(&plan, &extents, &ScheduleParams::default());
        let mut out: Vec<GlobalArray> =
            planes.iter().map(|_| GlobalArray::new(rows, cols)).collect();
        let allocs = allocation_count();
        fresh.apply_planes(&planes, &mut out);
        assert_eq!(
            allocation_count(),
            allocs,
            "{}: the first application of a fresh workspace must not allocate",
            kernel.name
        );
    }

    // Checkpointing must not poison the hot loop: capturing and
    // persisting a snapshot allocates (it clones the live planes and
    // encodes them), but the steps *between* checkpoints must stay
    // allocation-free — the snapshot hook may not leave any per-step
    // allocation behind in the session.
    let store_dir = std::env::temp_dir().join("lorastencil-steady-ckpt");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = stencil_core::checkpoint::CheckpointStore::new(&store_dir, 2).unwrap();
    let kernel = kernels::box_2d9p();
    let fingerprint =
        lorastencil::checkpoint::plan_fingerprint(&kernel, ExecConfig::full(), &[64, 64]);
    for round in 0..3u64 {
        // a checkpoint boundary: capture + encode + fsync (may allocate)
        let planes = sess.planes().to_vec();
        let snap = stencil_core::checkpoint::Snapshot {
            flags: stencil_core::checkpoint::FLAG_SEEDED_INPUT,
            fingerprint,
            step: round,
            steps_total: 3,
            every: 1,
            seed: 0,
            rng: [0; 4],
            kernel: kernel.name.clone(),
            config: ExecConfig::full().tag(),
            method: "LoRAStencil".into(),
            extents: vec![64, 64],
            counters: tcu_sim::PerfCounters::new(),
            planes: planes
                .iter()
                .map(|p| stencil_core::checkpoint::Plane {
                    rows: p.rows(),
                    cols: p.cols(),
                    data: p.as_slice().to_vec(),
                })
                .collect(),
        };
        store.save(&snap).unwrap();
        // ... and the steps between checkpoints stay allocation-free
        let allocs = allocation_count();
        for _ in 0..4 {
            step(&mut sess);
        }
        assert_eq!(
            allocation_count(),
            allocs,
            "steps between checkpoints must not allocate (round {round})"
        );
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    // The serve stack inherits the guarantee: a warm cache-hit request
    // allocates nothing and spawns nothing. The first request plans
    // (and tunes) the shape; the second warms the pooled session plus
    // the connection's job-spec/response buffers; after that the whole
    // request path — zero-copy frame parse, pool checkout, fill, run,
    // digest, response write, tenant metrics — reuses what it has.
    let core = stencil_cli::serve::ServerCore::new(Default::default());
    let mut conn = stencil_cli::serve::ConnState::new();
    let frame = r#"{"kernel":"Box-2D9P","size":[16,16],"iters":1,"seed":3,"values":"none"}"#;
    for _ in 0..2 {
        let _ = core.handle_line(&mut conn, frame);
        assert!(conn.resp.contains("\"ok\":true"), "warm-up failed: {}", conn.resp);
    }
    let allocs = allocation_count();
    let spawned = threads_spawned();
    let misses = core.metrics.cache_misses.get();
    for _ in 0..8 {
        let _ = core.handle_line(&mut conn, frame);
        assert!(conn.resp.contains("\"cache\":\"hit\""), "not a hit: {}", conn.resp);
    }
    // a warm hit plans nothing: no request of the loop took the miss path
    assert_eq!(core.metrics.cache_misses.get(), misses, "a warm serve cache hit planned");
    assert_eq!(
        allocation_count(),
        allocs,
        "warm serve cache hits must not allocate (FOUNDATION_THREADS=1)"
    );
    assert_eq!(threads_spawned(), spawned, "warm serve cache hits must not spawn threads");

    // Spawn assertion under parallel lanes: the pool grows eagerly on
    // the first call that wants more lanes, so after one warm-up step
    // the worker count is deterministic and must stay flat — at every
    // pool width, including one wider than the job count divides evenly.
    for lanes in ["2", "7"] {
        std::env::set_var("FOUNDATION_THREADS", lanes);
        step(&mut sess); // warm-up: grows the pool to `lanes - 1` workers
        let spawned = threads_spawned();
        for _ in 0..8 {
            step(&mut sess);
        }
        assert_eq!(
            threads_spawned(),
            spawned,
            "steady-state steps must not spawn threads (FOUNDATION_THREADS={lanes})"
        );
    }
    std::env::remove_var("FOUNDATION_THREADS");
}
