//! # stencil-cli — the `lorastencil` command-line front end
//!
//! The downstream-user entry point: run any kernel (Table II or the
//! extended library) with any method on the simulated A100, verify
//! against the reference, inspect counters and modeled performance, or
//! emit the CUDA/WMMA listing a plan corresponds to.
//!
//! ```text
//! lorastencil list
//! lorastencil run --kernel Box-2D49P --size 256x256 --iters 4 --verify
//! lorastencil run --kernel Heat-3D --method ConvStencil --size 8x64x64
//! lorastencil run --kernel Box-2D9P --config no-bvs       # ablation
//! lorastencil emit --kernel Box-2D49P --target cuda
//! lorastencil analyze --radius 3
//! ```

pub mod args;
pub mod serve;
pub mod tune;

pub use tune::{install_tuning_db, tune_report};

use lorastencil::checkpoint::CkptPolicy;
use lorastencil::{codegen, ExecConfig, LoRaStencil, Plan};
use stencil_core::checkpoint::CheckpointStore;
use stencil_core::{
    kernels, kernels_ext, Grid1D, Grid2D, Grid3D, GridData, Problem, StencilExecutor, StencilKernel,
};
use tcu_sim::{BlockResources, CostModel, PerfCounters};

/// Every kernel the CLI can name (benchmarks + extended library).
pub fn all_kernels() -> Vec<StencilKernel> {
    let mut v = kernels::all_kernels();
    v.extend(kernels_ext::all_extended());
    v
}

/// Look a kernel up by name — case-insensitive, and tolerant of missing
/// `-`/`_` separators (`box2d9p` finds `Box-2D9P`).
pub fn find_kernel(name: &str) -> Option<StencilKernel> {
    let ks = all_kernels();
    if let Some(k) = ks.iter().find(|k| k.name.eq_ignore_ascii_case(name)) {
        return Some(k.clone());
    }
    let norm = |s: &str| -> String {
        s.chars().filter(|c| *c != '-' && *c != '_').map(|c| c.to_ascii_lowercase()).collect()
    };
    let want = norm(name);
    ks.into_iter().find(|k| norm(&k.name) == want)
}

/// Resolve a kernel from `--spec <file>` (the kernel-spec DSL,
/// [`stencil_core::spec`]) or `--kernel <name>`; `--spec` wins.
pub fn resolve_kernel(spec_path: &str, name: &str) -> Result<StencilKernel, String> {
    if !spec_path.is_empty() {
        let text = std::fs::read_to_string(spec_path)
            .map_err(|e| format!("cannot read {spec_path}: {e}"))?;
        return stencil_core::spec::parse_kernel(&text).map_err(|e| format!("{spec_path}: {e}"));
    }
    find_kernel(name).ok_or_else(|| format!("unknown kernel {name:?} (try `list`)"))
}

/// Build an executor by method name.
pub fn find_method(
    name: &str,
    config: ExecConfig,
) -> Option<Box<dyn StencilExecutor + Send + Sync>> {
    if name.eq_ignore_ascii_case("lorastencil") {
        return Some(Box::new(LoRaStencil::with_config(config)));
    }
    baselines::all_baselines().into_iter().find(|b| b.name().eq_ignore_ascii_case(name))
}

/// Parse a `--config` spec: comma-separated tokens out of the backend
/// selectors `sparse`, `simd`, `no-tcu` and the toggles `no-bvs`,
/// `no-async`, `no-fusion` (LoRAStencil only). Backend selectors are
/// mutually exclusive; the last one wins.
pub fn parse_config(spec: &str) -> Result<ExecConfig, String> {
    use lorastencil::plan::DeviceBackend;
    let mut cfg = ExecConfig::full();
    for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        match tok {
            "full" => cfg = ExecConfig::full(),
            "tcu" => cfg.backend = DeviceBackend::TcuF64,
            "sparse" => cfg.backend = DeviceBackend::SparseTcu,
            "simd" => cfg.backend = DeviceBackend::SimdCore,
            "no-tcu" => cfg.backend = DeviceBackend::CudaCore,
            "no-bvs" => cfg.use_bvs = false,
            "no-async" => cfg.use_async_copy = false,
            "no-fusion" => cfg.allow_fusion = false,
            other => return Err(format!("unknown config toggle {other}")),
        }
    }
    Ok(cfg)
}

/// Canonicalize a `--backend` token to its `--config` spelling. Empty
/// (flag not given) stays empty — "no override".
pub fn backend_token(token: &str) -> Result<&'static str, String> {
    match token.trim() {
        "" => Ok(""),
        "tcu" => Ok("tcu"),
        "sparse" => Ok("sparse"),
        "simd" => Ok("simd"),
        "cuda" | "no-tcu" => Ok("no-tcu"),
        other => Err(format!("unknown backend {other:?} (expected tcu, sparse, simd or cuda)")),
    }
}

/// Apply a `--backend` selector on top of a parsed `--config`. The
/// token names just the device backend; feature toggles stay with
/// `--config`. Empty leaves the config untouched.
pub fn apply_backend(mut cfg: ExecConfig, token: &str) -> Result<ExecConfig, String> {
    match backend_token(token)? {
        "" => {}
        t => cfg.backend = parse_config(t)?.backend,
    }
    Ok(cfg)
}

/// Parse `--checkpoint-every`: a positive temporal step count. Zero and
/// negative are hard errors with a suggestion (silently accepting 0
/// would mean "no checkpoints" on a flag whose whole point is having
/// them).
pub fn parse_checkpoint_every(spec: &str) -> Result<u64, String> {
    match spec.trim().parse::<i64>() {
        Ok(n) if n >= 1 => Ok(n as u64),
        Ok(n) => Err(format!(
            "--checkpoint-every must be a positive step count, got {n} \
             (try --checkpoint-every 1 to snapshot after every step)"
        )),
        Err(e) => Err(format!("bad --checkpoint-every {spec:?}: {e}")),
    }
}

/// Parse `--checkpoint-keep`: the retention-ring size, at least 1.
pub fn parse_checkpoint_keep(spec: &str) -> Result<usize, String> {
    match spec.trim().parse::<i64>() {
        Ok(n) if n >= 1 => Ok(n as usize),
        Ok(n) => Err(format!(
            "--checkpoint-keep must retain at least one snapshot, got {n} \
             (try --checkpoint-keep 3)"
        )),
        Err(e) => Err(format!("bad --checkpoint-keep {spec:?}: {e}")),
    }
}

/// The counters + modeled-performance report lines shared by `run`,
/// checkpointed `run` and `resume`.
fn counters_and_model(c: &PerfCounters, block: &BlockResources) -> String {
    let mut out = format!(
        "counters: {} MMAs, {} CUDA flops, {} shuffles, {}+{} shared req, {} B HBM, {} B L2\n",
        c.mma_ops,
        c.cuda_flops,
        c.shuffle_ops,
        c.shared_load_requests,
        c.shared_store_requests,
        c.global_bytes(),
        c.l2_bytes,
    );
    let model = CostModel::a100();
    let est = model.estimate(c, block);
    out.push_str(&format!(
        "modeled A100: {:.3} ms, {:.1} GStencil/s, occupancy {:.0}%\n",
        est.total * 1e3,
        est.gstencil_per_sec(c.points_updated),
        est.occupancy * 100.0
    ));
    out
}

/// The checkpointed `run` path (`--checkpoint-dir`): LoRAStencil with
/// periodic crash-consistent snapshots. Checkpointing is wired through
/// the LoRAStencil stepper, so other methods are a hard error rather
/// than silently running without snapshots.
#[allow(clippy::too_many_arguments)]
pub fn run_checkpointed_report(
    kernel: &StencilKernel,
    config: ExecConfig,
    method_name: &str,
    dims: &[usize],
    iters: usize,
    seed: u64,
    verify: bool,
    dir: &str,
    every: u64,
    keep: usize,
) -> Result<String, String> {
    if !method_name.eq_ignore_ascii_case("lorastencil") {
        return Err(format!(
            "--checkpoint-dir requires --method LoRAStencil \
             (checkpoint/resume is wired through the LoRAStencil stepper), got {method_name:?}"
        ));
    }
    let dims = &broadcast_dims(dims, kernel.dims())[..];
    if dims.len() != kernel.dims() {
        return Err(format!(
            "kernel {} is {}-D but --size has {} dims",
            kernel.name,
            kernel.dims(),
            dims.len()
        ));
    }
    let input = make_grid(dims, seed);
    let store = CheckpointStore::new(dir, keep).map_err(|e| format!("{dir}: {e}"))?;
    let policy = CkptPolicy { store: &store, every, seed, method: "LoRAStencil" };
    let out = lorastencil::checkpoint::run(kernel, config, &input, iters as u64, &policy)
        .map_err(|e| e.to_string())?;
    let mut report = format!(
        "LoRAStencil on {} {:?} for {} iterations (checkpoint every {} steps, keep {})\n\n",
        kernel.name, dims, iters, every, keep
    );
    if verify {
        let want = stencil_core::reference::run(&input, kernel, iters);
        let err = out.output.max_abs_diff(&want);
        report.push_str(&format!("verification vs naive reference: max |Δ| = {err:.3e}\n"));
        if err > 1e-9 {
            return Err(format!("verification FAILED: {err:.3e}"));
        }
    }
    report.push_str(&counters_and_model(&out.counters, &out.block));
    report.push_str(&format!("{} snapshots written to {dir}\n", out.snapshots_written));
    Ok(report)
}

/// The `resume` subcommand: recover the newest valid snapshot from
/// `--checkpoint-dir`, reject it if its plan fingerprint disagrees with
/// what the recorded kernel/config/extents plan to, and run the
/// remaining steps — continuing to snapshot at the recorded interval.
/// Needs no other flags: the snapshot records the kernel, config, seed
/// and step budget. `--verify` replays the reference from the recorded
/// seeded input over **all** `steps_total` steps, so it checks the
/// pre-crash prefix too.
pub fn resume_report(dir: &str, keep: usize, verify: bool) -> Result<String, String> {
    let store = CheckpointStore::new(dir, keep).map_err(|e| format!("{dir}: {e}"))?;
    let (snap, rejects) = store.load_latest_valid().map_err(|e| e.to_string())?;
    let mut report = String::new();
    for (path, err) in &rejects {
        report.push_str(&format!("skipping invalid snapshot {}: {err}\n", path.display()));
    }
    let kernel = find_kernel(&snap.kernel)
        .ok_or_else(|| format!("snapshot names unknown kernel {:?}", snap.kernel))?;
    let config = parse_config(&snap.config)
        .map_err(|e| format!("snapshot carries unparsable config {:?}: {e}", snap.config))?;
    report.push_str(&format!(
        "resuming {} on {} {:?} from step {} of {}\n\n",
        snap.method, snap.kernel, snap.extents, snap.step, snap.steps_total
    ));
    let policy =
        CkptPolicy { store: &store, every: snap.every, seed: snap.seed, method: "LoRAStencil" };
    let out = lorastencil::checkpoint::resume(&kernel, config, &snap, &policy)
        .map_err(|e| e.to_string())?;
    if verify {
        let input = make_grid(&snap.extents, snap.seed);
        let want = stencil_core::reference::run(&input, &kernel, snap.steps_total as usize);
        let err = out.output.max_abs_diff(&want);
        report.push_str(&format!(
            "verification vs naive reference over all {} steps: max |Δ| = {err:.3e}\n",
            snap.steps_total
        ));
        if err > 1e-9 {
            return Err(format!("verification FAILED: {err:.3e}"));
        }
    }
    report.push_str(&counters_and_model(&out.counters, &out.block));
    report.push_str(&format!("{} snapshots written to {dir}\n", out.snapshots_written));
    Ok(report)
}

/// Broadcast a single-dimension `--size N` to the kernel's
/// dimensionality (`--size 768` on a 2-D kernel means `768x768`).
pub fn broadcast_dims(dims: &[usize], kernel_dims: usize) -> Vec<usize> {
    if dims.len() == 1 && kernel_dims > 1 {
        vec![dims[0]; kernel_dims]
    } else {
        dims.to_vec()
    }
}

/// The deterministic per-point value of every generated grid: `idx` is
/// the plane-major linear index. One definition shared by `make_grid`
/// (the offline `run`/`profile`/`tune` paths) and the serve daemon's
/// session fill, so a service job and `run --seed N` agree bit for bit.
pub fn grid_value(seed: u64, idx: u64) -> f64 {
    let x = idx.wrapping_add(seed).wrapping_mul(0x9E3779B97F4A7C15);
    ((x >> 17) % 4096) as f64 / 256.0 - 8.0
}

/// Build a deterministic input grid of the given dimensions.
pub fn make_grid(dims: &[usize], seed: u64) -> GridData {
    let f = move |idx: u64| grid_value(seed, idx);
    match dims {
        [n] => GridData::D1(Grid1D::from_fn(*n, |i| f(i as u64))),
        [r, c] => GridData::D2(Grid2D::from_fn(*r, *c, |i, j| f((i * c + j) as u64))),
        [z, y, x] => {
            GridData::D3(Grid3D::from_fn(*z, *y, *x, |i, j, k| f(((i * y + j) * x + k) as u64)))
        }
        _ => unreachable!("parse_size enforces 1..=3 dims"),
    }
}

/// The `list` subcommand body.
pub fn list_text() -> String {
    let mut out = String::from("kernels:\n");
    for k in all_kernels() {
        out.push_str(&format!(
            "  {:<16} {}D {:?} radius {} ({} points)\n",
            k.name,
            k.dims(),
            k.shape,
            k.radius,
            k.points()
        ));
    }
    out.push_str("\nmethods:\n  LoRAStencil (default)\n");
    for b in baselines::all_baselines() {
        out.push_str(&format!("  {}\n", b.name()));
    }
    out.push_str("\nconfig toggles (LoRAStencil): no-tcu, no-bvs, no-async, no-fusion\n");
    out
}

/// The `run` subcommand: execute, optionally verify, report counters and
/// modeled performance. Returns the printable report. `load_path` reads
/// the input field from a checkpoint ([`stencil_core::io`]) instead of
/// generating one; `save_path` checkpoints the output. A non-empty
/// `trace_out` records host-side spans during execution and writes them
/// as a chrome-trace JSON file.
#[allow(clippy::too_many_arguments)]
pub fn run_report(
    kernel: &StencilKernel,
    method: &dyn StencilExecutor,
    dims: &[usize],
    iters: usize,
    seed: u64,
    verify: bool,
    load_path: &str,
    save_path: &str,
    trace_out: &str,
) -> Result<String, String> {
    let dims = &broadcast_dims(dims, kernel.dims())[..];
    let input = if load_path.is_empty() {
        if dims.len() != kernel.dims() {
            return Err(format!(
                "kernel {} is {}-D but --size has {} dims",
                kernel.name,
                kernel.dims(),
                dims.len()
            ));
        }
        make_grid(dims, seed)
    } else {
        let g = stencil_core::io::load(load_path).map_err(|e| format!("{load_path}: {e}"))?;
        if g.dims() != kernel.dims() {
            return Err(format!(
                "checkpoint {load_path} is {}-D but kernel {} is {}-D",
                g.dims(),
                kernel.name,
                kernel.dims()
            ));
        }
        g
    };
    let problem = Problem::new(kernel.clone(), input, iters);
    let tracing = !trace_out.is_empty();
    if tracing {
        foundation::obs::reset();
        foundation::obs::enable();
    }
    let result = method.execute(&problem).map_err(|e| e.to_string());
    let trace = if tracing {
        foundation::obs::disable();
        Some(foundation::obs::drain())
    } else {
        None
    };
    let outcome = result?;
    let mut out = String::new();
    out.push_str(&format!(
        "{} on {} {:?} for {} iterations\n\n",
        method.name(),
        kernel.name,
        dims,
        iters
    ));
    if verify {
        let want = stencil_core::reference::run(&problem.input, &problem.kernel, iters);
        let err = outcome.output.max_abs_diff(&want);
        out.push_str(&format!("verification vs naive reference: max |Δ| = {err:.3e}\n"));
        if err > 1e-9 {
            return Err(format!("verification FAILED: {err:.3e}"));
        }
    }
    out.push_str(&counters_and_model(&outcome.counters, &outcome.block));
    if !save_path.is_empty() {
        stencil_core::io::save(&outcome.output, save_path)
            .map_err(|e| format!("{save_path}: {e}"))?;
        out.push_str(&format!("output checkpointed to {save_path}\n"));
    }
    if let Some(trace) = trace {
        std::fs::write(trace_out, trace.to_chrome_json().dump() + "\n")
            .map_err(|e| format!("{trace_out}: {e}"))?;
        out.push_str(&format!("{} host span events written to {trace_out}\n", trace.len()));
    }
    Ok(out)
}

/// The `profile` subcommand: run a kernel with host-side span tracing
/// on, print the per-phase breakdown (the host-side analogue of the
/// paper's Fig. 9 stage attribution), and write a chrome-trace JSON file
/// loadable in `chrome://tracing` / Perfetto.
pub fn profile_report(
    kernel: &StencilKernel,
    method: &dyn StencilExecutor,
    dims: &[usize],
    iters: usize,
    seed: u64,
    trace_out: &str,
) -> Result<String, String> {
    let dims = broadcast_dims(dims, kernel.dims());
    if dims.len() != kernel.dims() {
        return Err(format!(
            "kernel {} is {}-D but --size has {} dims",
            kernel.name,
            kernel.dims(),
            dims.len()
        ));
    }
    let problem = Problem::new(kernel.clone(), make_grid(&dims, seed), iters);
    foundation::obs::reset();
    foundation::obs::enable();
    let start = std::time::Instant::now();
    let result = method.execute(&problem).map_err(|e| e.to_string());
    let wall_ns = start.elapsed().as_nanos() as u64;
    foundation::obs::disable();
    let trace = foundation::obs::drain();
    let outcome = result?;

    // host time depends on which compiled job loop ran and on how many
    // tensor-core terms left the band evaluator; name both
    let mut out = format!(
        "profiling {} on {} {:?} for {} iterations (host_isa: {}) (rdg_band_fallback: {})\n\n",
        method.name(),
        kernel.name,
        dims,
        iters,
        lorastencil::schedule::host_isa(),
        lorastencil::schedule::band_fallbacks().get()
    );
    let breakdown = foundation::obs::phase_breakdown();
    out.push_str(&foundation::obs::render_breakdown(&breakdown, wall_ns));
    out.push_str(&format!(
        "\nwall time {:.3} ms, {} span events ({} dropped), {} points updated\n",
        wall_ns as f64 / 1e6,
        trace.len(),
        trace.dropped,
        outcome.counters.points_updated,
    ));
    std::fs::write(trace_out, trace.to_chrome_json().dump() + "\n")
        .map_err(|e| format!("{trace_out}: {e}"))?;
    out.push_str(&format!("chrome trace written to {trace_out} (load in chrome://tracing)\n"));
    Ok(out)
}

/// The `validate-trace` subcommand: parse a chrome-trace file written by
/// `profile`/`run --trace-out` and check every event carries the fields
/// Perfetto's JSON importer requires.
pub fn validate_trace(path: &str) -> Result<String, String> {
    use foundation::json::Json;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let events = doc.as_arr().ok_or_else(|| format!("{path}: top level is not an array"))?;
    for (i, e) in events.iter().enumerate() {
        let field =
            |key: &str| e.get(key).ok_or_else(|| format!("{path}: event {i} is missing {key:?}"));
        let name = field("name")?;
        if name.as_str().is_none() {
            return Err(format!("{path}: event {i} has a non-string name"));
        }
        if field("ph")?.as_str() != Some("X") {
            return Err(format!("{path}: event {i} is not a complete event (ph != \"X\")"));
        }
        for key in ["ts", "dur", "pid", "tid"] {
            if field(key)?.as_f64().is_none() {
                return Err(format!("{path}: event {i} has a non-numeric {key:?}"));
            }
        }
    }
    Ok(format!("{path}: valid chrome trace, {} events\n", events.len()))
}

/// The `trace` subcommand body: the instruction timeline of one RDG tile
/// under the kernel's plan (what Nsight's instruction view would show for
/// one warp).
pub fn trace_text(kernel: &StencilKernel, config: ExecConfig) -> Result<String, String> {
    if kernel.dims() != 2 {
        return Err("trace currently targets 2-D plans".into());
    }
    use lorastencil::rdg::{apply_pointwise, rdg_apply_term, XFragments};
    let plan = Plan::new(kernel, config);
    let mut ctx = tcu_sim::SimContext::new();
    ctx.enable_trace();
    let mut tile = tcu_sim::SharedTile::new(plan.geo.s, plan.geo.s);
    for r in 0..plan.geo.s {
        for c in 0..plan.geo.s {
            tile.poke(r, c, ((r * 31 + c * 7) % 13) as f64 * 0.3);
        }
    }
    let x = XFragments::load(&mut ctx, &tile, plan.geo);
    let mut acc = tcu_sim::FragAcc::zero();
    for term in &plan.decomp().terms {
        acc = rdg_apply_term(&mut ctx, &x, term, plan.config.use_bvs, acc);
    }
    apply_pointwise(&mut ctx, &x, plan.decomp().pointwise, &mut acc);
    let trace = ctx.take_trace().expect("tracing was enabled");
    let mut out = format!(
        "one-warp instruction timeline: {} ({}x fused, {:?}, {} terms)\n\n",
        plan.exec_kernel.name,
        plan.fusion,
        plan.decomp().strategy,
        plan.decomp().num_terms()
    );
    out.push_str(&trace.render());
    out.push_str(&format!(
        "\n{} events; longest unbroken MMA burst: {} instructions\n",
        trace.len(),
        trace.longest_mma_burst()
    ));
    Ok(out)
}

/// Parse a `--target` value, with a "did you mean" hint for near-miss
/// spellings (`wsgl` → `wgsl`).
pub fn parse_target(token: &str) -> Result<codegen::Target, String> {
    codegen::Target::parse(token).ok_or_else(|| {
        let names = codegen::Target::ALL.map(|t| t.name());
        let mut msg = format!("unknown target {token:?} (expected {})", names.join(", "));
        if let Some(near) = args::suggest(token.trim(), names) {
            msg.push_str(&format!(" — did you mean {near}?"));
        }
        msg
    })
}

/// The `emit` subcommand body: render the kernel listing of any
/// registered kernel's plan for any [`codegen::Target`].
pub fn emit_text(
    kernel: &StencilKernel,
    config: ExecConfig,
    target: codegen::Target,
) -> Result<String, String> {
    Ok(codegen::emit(&Plan::new(kernel, config), target))
}

/// The `analyze` subcommand body: the paper's Eq. 12–16 for one radius.
pub fn analyze_text(h: u64) -> String {
    use lorastencil::analysis;
    format!(
        "radius h = {h}\n\
         Eq. 14  ConvStencil/RDG shared-load ratio: {:.3}x\n\
         \u{2514} redundancy RDG eliminates:          {:.2}%\n\
         Eq. 16  LoRA/ConvStencil MMA ratio:       {:.3}x\n\
         points updated per tile computation:     {}\n",
        analysis::memory_ratio(h),
        100.0 * analysis::redundancy_eliminated(h),
        analysis::mma_ratio(h),
        analysis::points_per_update(h),
    )
}

/// Top-level usage text.
pub fn usage() -> &'static str {
    "lorastencil — stencil computation on (simulated) tensor cores\n\n\
     USAGE:\n\
       lorastencil list\n\
       lorastencil run (--kernel <name> | --spec <file>) [--method <name>]\n\
                      [--size NxM] [--iters N] [--config no-bvs,...] [--backend tcu|sparse|simd|cuda]\n\
                      [--seed N] [--verify] [--trace-out <file>] [--tuning-db <file>]\n\
                      [--load <file>] [--save <file>]\n\
                      [--checkpoint-dir <dir> [--checkpoint-every N] [--checkpoint-keep K]]\n\
       lorastencil resume --checkpoint-dir <dir> [--checkpoint-keep K] [--verify]\n\
       lorastencil tune (--kernel <name> | --spec <file>) [--size NxM] [--iters N]\n\
                      [--config ...] [--backend ...] [--seed N] [--budget N] [--reps N] [--db <file>]\n\
       lorastencil profile (--kernel <name> | --spec <file>) [--method <name>]\n\
                      [--size NxM] [--iters N] [--trace-out <file>] [--tuning-db <file>]\n\
       lorastencil validate-trace --load <file>\n\
       lorastencil emit (--kernel <name> | --spec <file>) [--target cuda|hip|wgsl]\n\
                      [--config ...] [--backend ...]\n\
       lorastencil trace (--kernel <name> | --spec <file>) [--config ...]\n\
       lorastencil analyze [--radius h]\n\
       lorastencil serve (--socket <path> | --tcp <addr>) [--plan-cache N] [--max-conns N]\n\
                      [--tune-budget N] [--backend ...] [--tuning-db <file>]\n\
       lorastencil submit (--socket <path> | --tcp <addr>) [--frame '<json>']   # or frames on stdin\n\
       lorastencil help\n\n\
     SERVE PROTOCOL (one JSON object per line; see DESIGN.md \u{00a7}13):\n\
       {\"kernel\":\"Box-2D9P\",\"size\":[64,64],\"iters\":2,\"seed\":7}\n\
       {\"scenario\":\"small-2d\",\"tenant\":\"team-a\"}\n\
       {\"op\":\"stats\"} | {\"op\":\"ping\"} | {\"op\":\"shutdown\"}\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_kernel_reads_spec_files() {
        let dir = std::env::temp_dir().join("lorastencil-spec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("custom.stencil");
        std::fs::write(
            &path,
            "kernel: custom
weights1d:
0.25 0.5 0.25
",
        )
        .unwrap();
        let k = resolve_kernel(path.to_str().unwrap(), "").unwrap();
        assert_eq!(k.name, "custom");
        assert_eq!(k.radius, 1);
        // bad spec surfaces the parse error with the file name
        std::fs::write(
            &path, "nope
",
        )
        .unwrap();
        let e = resolve_kernel(path.to_str().unwrap(), "").unwrap_err();
        assert!(e.contains("custom.stencil"));
        // missing file
        assert!(resolve_kernel("/does/not/exist.stencil", "").is_err());
    }

    #[test]
    fn kernel_lookup_is_case_insensitive() {
        assert!(find_kernel("box-2d49p").is_some());
        assert!(find_kernel("LAPLACE-2D-O8").is_some());
        assert!(find_kernel("nope").is_none());
    }

    #[test]
    fn kernel_lookup_tolerates_missing_separators() {
        assert_eq!(find_kernel("box2d9p").unwrap().name, "Box-2D9P");
        assert_eq!(find_kernel("heat_3d").unwrap().name, "Heat-3D");
        assert!(find_kernel("box2d9").is_none());
    }

    #[test]
    fn single_dim_size_broadcasts_to_kernel_dims() {
        assert_eq!(broadcast_dims(&[768], 2), vec![768, 768]);
        assert_eq!(broadcast_dims(&[16], 3), vec![16, 16, 16]);
        assert_eq!(broadcast_dims(&[4096], 1), vec![4096]);
        assert_eq!(broadcast_dims(&[64, 32], 2), vec![64, 32]);
    }

    #[test]
    fn profile_report_writes_a_valid_chrome_trace() {
        let dir = std::env::temp_dir().join("lorastencil-cli-profile");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let p = path.to_str().unwrap();
        let k = find_kernel("Box-2D9P").unwrap();
        let m = find_method("LoRAStencil", ExecConfig::full()).unwrap();
        let r = profile_report(&k, m.as_ref(), &[48], 2, 7, p).unwrap();
        let isa = format!("(host_isa: {})", lorastencil::schedule::host_isa());
        let header = r.lines().next().unwrap();
        assert!(header.contains(&isa), "header must name the job loop:\n{r}");
        assert!(header.contains("(rdg_band_fallback: "), "header must count fallbacks:\n{r}");
        // the 2-D tensor-core strip kernel adds the pyramid tip as it
        // stores the strip, inside `mma_batch`: no separate `pointwise`
        for phase in ["plan", "decompose", "apply", "rdg_gather", "mma_batch"] {
            assert!(r.contains(phase), "breakdown is missing {phase}:\n{r}");
        }
        let v = validate_trace(p).unwrap();
        assert!(v.contains("valid chrome trace"), "{v}");
        // and the validator rejects non-trace JSON
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "[{\"name\":\"x\",\"ph\":\"B\"}]").unwrap();
        assert!(validate_trace(bad.to_str().unwrap()).is_err());
    }

    #[test]
    fn method_lookup_covers_all() {
        for name in
            ["LoRAStencil", "convstencil", "TCStencil", "amos", "cuDNN", "Brick", "drstencil"]
        {
            assert!(find_method(name, ExecConfig::full()).is_some(), "{name}");
        }
        assert!(find_method("unknown", ExecConfig::full()).is_none());
    }

    #[test]
    fn config_parsing() {
        use lorastencil::plan::DeviceBackend;
        let c = parse_config("no-bvs,no-async").unwrap();
        assert!(!c.use_bvs && !c.use_async_copy && c.use_tcu());
        assert!(parse_config("bogus").is_err());
        assert_eq!(parse_config("").unwrap(), ExecConfig::full());
        // backend selectors: last one wins, toggles compose
        assert_eq!(parse_config("sparse").unwrap().backend, DeviceBackend::SparseTcu);
        assert_eq!(parse_config("simd").unwrap().backend, DeviceBackend::SimdCore);
        assert_eq!(parse_config("no-tcu").unwrap().backend, DeviceBackend::CudaCore);
        assert_eq!(parse_config("sparse,tcu").unwrap().backend, DeviceBackend::TcuF64);
        let c = parse_config("sparse,no-fusion").unwrap();
        assert_eq!(c.backend, DeviceBackend::SparseTcu);
        assert!(!c.allow_fusion && c.use_tcu());
        // --backend composes over --config without touching toggles
        let c = apply_backend(parse_config("no-bvs").unwrap(), "simd").unwrap();
        assert_eq!(c.backend, DeviceBackend::SimdCore);
        assert!(!c.use_bvs);
        assert_eq!(apply_backend(ExecConfig::full(), "").unwrap(), ExecConfig::full());
        assert_eq!(
            apply_backend(ExecConfig::full(), "cuda").unwrap().backend,
            DeviceBackend::CudaCore
        );
        assert!(apply_backend(ExecConfig::full(), "sparce").is_err());
        assert_eq!(backend_token("cuda").unwrap(), "no-tcu");
    }

    #[test]
    fn target_parsing_and_emit() {
        use lorastencil::codegen::Target;
        assert_eq!(parse_target("cuda").unwrap(), Target::Cuda);
        assert_eq!(parse_target("HIP").unwrap(), Target::Hip);
        let e = parse_target("wsgl").unwrap_err();
        assert!(e.contains("did you mean wgsl?"), "{e}");
        let e = parse_target("metal").unwrap_err();
        assert!(e.contains("unknown target") && !e.contains("did you mean"), "{e}");
        let k = find_kernel("Box-2D9P").unwrap();
        for t in Target::ALL {
            assert!(!emit_text(&k, ExecConfig::full(), t).unwrap().is_empty());
        }
    }

    #[test]
    fn run_report_verifies() {
        let k = find_kernel("Box-2D9P").unwrap();
        let m = find_method("LoRAStencil", ExecConfig::full()).unwrap();
        let r = run_report(&k, m.as_ref(), &[32, 32], 3, 7, true, "", "", "").unwrap();
        assert!(r.contains("GStencil/s"));
        assert!(r.contains("verification"));
    }

    #[test]
    fn run_report_rejects_dim_mismatch() {
        let k = find_kernel("Heat-3D").unwrap();
        let m = find_method("LoRAStencil", ExecConfig::full()).unwrap();
        assert!(run_report(&k, m.as_ref(), &[32, 32], 1, 0, false, "", "", "").is_err());
    }

    #[test]
    fn run_report_checkpoints_roundtrip() {
        let dir = std::env::temp_dir().join("lorastencil-cli-io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("field.lsg");
        let k = find_kernel("Box-2D9P").unwrap();
        let m = find_method("LoRAStencil", ExecConfig::full()).unwrap();
        let p = path.to_str().unwrap();
        // save 3 steps, then resume from the checkpoint for 2 more
        run_report(&k, m.as_ref(), &[24, 24], 3, 9, true, "", p, "").unwrap();
        let r = run_report(&k, m.as_ref(), &[24, 24], 2, 9, true, p, "", "").unwrap();
        assert!(r.contains("GStencil/s"));
        // resuming from a 2-D checkpoint with a 3-D kernel fails cleanly
        let k3 = find_kernel("Heat-3D").unwrap();
        assert!(run_report(&k3, m.as_ref(), &[4, 8, 8], 1, 0, false, p, "", "").is_err());
    }

    #[test]
    fn checkpoint_every_and_keep_validation() {
        assert_eq!(parse_checkpoint_every("3").unwrap(), 3);
        let e = parse_checkpoint_every("0").unwrap_err();
        assert!(e.contains("positive step count"), "{e}");
        assert!(e.contains("--checkpoint-every 1"), "suggests a fix: {e}");
        let e = parse_checkpoint_every("-4").unwrap_err();
        assert!(e.contains("got -4"), "{e}");
        assert!(parse_checkpoint_every("abc").is_err());
        assert_eq!(parse_checkpoint_keep("5").unwrap(), 5);
        assert!(parse_checkpoint_keep("0").is_err());
        assert!(parse_checkpoint_keep("-1").is_err());
    }

    #[test]
    fn checkpointed_run_then_resume_round_trip() {
        let dir = std::env::temp_dir().join("lorastencil-cli-ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().unwrap();
        let k = find_kernel("Box-2D9P").unwrap();
        // plain run for the golden output
        let straight = {
            let m = find_method("LoRAStencil", ExecConfig::full()).unwrap();
            run_report(&k, m.as_ref(), &[24, 24], 6, 9, true, "", "", "").unwrap()
        };
        let r = run_checkpointed_report(
            &k,
            ExecConfig::full(),
            "LoRAStencil",
            &[24, 24],
            6,
            9,
            true,
            d,
            3,
            4,
        )
        .unwrap();
        assert!(r.contains("2 snapshots written"), "{r}");
        // the checkpointed run reports the same counters/model as plain
        let tail =
            |s: &str| s.lines().filter(|l| l.starts_with("counters")).last().unwrap().to_string();
        assert_eq!(tail(&r), tail(&straight));
        // delete the final snapshot to simulate a crash at step 3, then
        // resume runs the remaining steps and verifies end-to-end
        let newest = dir.join("ckpt-000000000006.lscp");
        std::fs::remove_file(&newest).unwrap();
        let r = resume_report(d, 4, true).unwrap();
        assert!(r.contains("from step 3 of 6"), "{r}");
        assert!(r.contains("max |Δ|"), "{r}");
        assert_eq!(tail(&r), tail(&straight), "resume counters match the straight run");
        // a second resume finds the re-written final snapshot: complete
        let e = resume_report(d, 4, false).unwrap_err();
        assert!(e.contains("nothing to resume"), "{e}");
    }

    #[test]
    fn checkpointing_rejects_non_lorastencil_methods() {
        let k = find_kernel("Box-2D9P").unwrap();
        let e = run_checkpointed_report(
            &k,
            ExecConfig::full(),
            "ConvStencil",
            &[24, 24],
            3,
            9,
            false,
            "/tmp/never-created",
            1,
            3,
        )
        .unwrap_err();
        assert!(e.contains("requires --method LoRAStencil"), "{e}");
    }

    #[test]
    fn resume_on_empty_or_corrupt_directory_fails_loudly() {
        let dir = std::env::temp_dir().join("lorastencil-cli-ckpt-empty");
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().unwrap();
        let e = resume_report(d, 3, false).unwrap_err();
        assert!(e.contains("no snapshots"), "{e}");
        // a directory holding only garbage: every snapshot is rejected
        // with its reason — never resumed from
        std::fs::write(dir.join("ckpt-000000000004.lscp"), b"garbage").unwrap();
        let e = resume_report(d, 3, false).unwrap_err();
        assert!(e.contains("every snapshot failed validation"), "{e}");
        assert!(e.contains("ckpt-000000000004.lscp"), "{e}");
    }

    #[test]
    fn emit_cuda_covers_every_dimension() {
        use lorastencil::codegen::Target;
        let cuda = |k, cfg| emit_text(k, cfg, Target::Cuda).unwrap();
        let k2 = find_kernel("Star-2D13P").unwrap();
        assert!(cuda(&k2, ExecConfig::full()).contains("wmma"));
        let k3 = find_kernel("Box-3D27P").unwrap();
        assert!(cuda(&k3, ExecConfig::full()).contains("plane dz="));
        let k1 = find_kernel("Heat-1D").unwrap();
        let one = cuda(&k1, ExecConfig::full());
        assert!(one.contains("V1D"), "1-D listing uses the banded gather matrix");
        // ablation toggles flow into the listing
        let cfg = ExecConfig { use_async_copy: false, ..ExecConfig::full() };
        assert!(!cuda(&k2, cfg).contains("cp.async"));
    }

    #[test]
    fn trace_shows_the_bvs_difference() {
        let k = find_kernel("Box-2D49P").unwrap();
        let bvs = trace_text(&k, ExecConfig::full()).unwrap();
        assert!(bvs.contains("(0 shuffles)"));
        assert!(!bvs.contains("(2 shuffles)"));
        let nat = trace_text(&k, ExecConfig { use_bvs: false, ..ExecConfig::full() }).unwrap();
        assert!(nat.contains("(2 shuffles)"));
        let burst = |s: &str| -> usize {
            s.lines()
                .find(|l| l.contains("longest unbroken MMA burst"))
                .and_then(|l| l.split(':').nth(1))
                .and_then(|t| t.trim().split(' ').next())
                .and_then(|n| n.parse().ok())
                .unwrap()
        };
        assert!(burst(&bvs) > burst(&nat));
    }

    #[test]
    fn analyze_quotes_the_paper_constants() {
        let t = analyze_text(3);
        assert!(t.contains("3.250x"));
        assert!(t.contains("69.23%"));
    }

    #[test]
    fn list_covers_both_libraries() {
        let t = list_text();
        assert!(t.contains("Box-2D49P"));
        assert!(t.contains("Acoustic-3D-o8"));
        assert!(t.contains("ConvStencil"));
    }
}
