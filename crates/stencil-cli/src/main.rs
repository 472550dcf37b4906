//! The `lorastencil` binary. See [`stencil_cli`] for the subcommand
//! implementations.

use stencil_cli::args::{parse, parse_size};
use stencil_cli::{
    analyze_text, apply_backend, backend_token, emit_text, find_method, list_text,
    parse_checkpoint_every, parse_checkpoint_keep, parse_config, parse_target, profile_report,
    resolve_kernel, resume_report, run_checkpointed_report, run_report, trace_text, tune_report,
    usage, validate_trace,
};

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n");
            eprint!("{}", usage());
            return Err(String::new()); // already reported
        }
    };

    match args.command.as_str() {
        "help" => print!("{}", usage()),
        "list" => print!("{}", list_text()),
        "analyze" => {
            let h: u64 =
                args.opt("radius", "3").parse().map_err(|e| format!("bad --radius: {e}"))?;
            print!("{}", analyze_text(h.clamp(1, 16)));
        }
        "emit" => {
            let kernel = resolve_kernel(args.opt("spec", ""), args.opt("kernel", ""))?;
            let config =
                apply_backend(parse_config(args.opt("config", "full"))?, args.opt("backend", ""))?;
            let target = parse_target(args.opt("target", "cuda"))?;
            print!("{}", emit_text(&kernel, config, target)?);
        }
        "trace" => {
            let kernel = resolve_kernel(args.opt("spec", ""), args.opt("kernel", ""))?;
            let config =
                apply_backend(parse_config(args.opt("config", "full"))?, args.opt("backend", ""))?;
            print!("{}", trace_text(&kernel, config)?);
        }
        "run" => {
            let kernel = resolve_kernel(args.opt("spec", ""), args.opt("kernel", ""))?;
            let config =
                apply_backend(parse_config(args.opt("config", "full"))?, args.opt("backend", ""))?;
            let method =
                find_method(args.opt("method", "LoRAStencil"), config).ok_or_else(|| {
                    format!("unknown method {:?} (try `list`)", args.opt("method", ""))
                })?;
            let default_size = match kernel.dims() {
                1 => "4096".to_string(),
                2 => "128x128".to_string(),
                _ => "8x32x32".to_string(),
            };
            let dims = parse_size(args.opt("size", &default_size))?;
            let iters: usize =
                args.opt("iters", "1").parse().map_err(|e| format!("bad --iters: {e}"))?;
            let seed: u64 =
                args.opt("seed", "42").parse().map_err(|e| format!("bad --seed: {e}"))?;
            let ckpt_dir = args.opt("checkpoint-dir", "");
            if ckpt_dir.is_empty() {
                if args.options.contains_key("checkpoint-every")
                    || args.options.contains_key("checkpoint-keep")
                {
                    return Err(
                        "--checkpoint-every/--checkpoint-keep need --checkpoint-dir <dir>".into()
                    );
                }
                print!(
                    "{}",
                    run_report(
                        &kernel,
                        method.as_ref(),
                        &dims,
                        iters,
                        seed,
                        args.flag("verify"),
                        args.opt("load", ""),
                        args.opt("save", ""),
                        args.opt("trace-out", ""),
                    )?
                );
            } else {
                if !args.opt("load", "").is_empty() || !args.opt("save", "").is_empty() {
                    return Err("--checkpoint-dir does not combine with --load/--save \
                                (resume restores state from the snapshot directory)"
                        .into());
                }
                let every = parse_checkpoint_every(args.opt("checkpoint-every", "1"))?;
                let keep = parse_checkpoint_keep(args.opt("checkpoint-keep", "3"))?;
                print!(
                    "{}",
                    run_checkpointed_report(
                        &kernel,
                        config,
                        args.opt("method", "LoRAStencil"),
                        &dims,
                        iters,
                        seed,
                        args.flag("verify"),
                        ckpt_dir,
                        every,
                        keep,
                    )?
                );
            }
        }
        "resume" => {
            let dir = args.opt("checkpoint-dir", "");
            if dir.is_empty() {
                return Err("resume needs --checkpoint-dir <dir>".into());
            }
            let keep = parse_checkpoint_keep(args.opt("checkpoint-keep", "3"))?;
            print!("{}", resume_report(dir, keep, args.flag("verify"))?);
        }
        "profile" => {
            let kernel = resolve_kernel(args.opt("spec", ""), args.opt("kernel", ""))?;
            let config = apply_backend(Default::default(), args.opt("backend", ""))?;
            let method =
                find_method(args.opt("method", "LoRAStencil"), config).ok_or_else(|| {
                    format!("unknown method {:?} (try `list`)", args.opt("method", ""))
                })?;
            let default_size = match kernel.dims() {
                1 => "4096".to_string(),
                2 => "128x128".to_string(),
                _ => "8x32x32".to_string(),
            };
            let dims = parse_size(args.opt("size", &default_size))?;
            let iters: usize =
                args.opt("iters", "1").parse().map_err(|e| format!("bad --iters: {e}"))?;
            let seed: u64 =
                args.opt("seed", "42").parse().map_err(|e| format!("bad --seed: {e}"))?;
            print!(
                "{}",
                profile_report(
                    &kernel,
                    method.as_ref(),
                    &dims,
                    iters,
                    seed,
                    args.opt("trace-out", "trace.json"),
                )?
            );
        }
        "tune" => {
            let kernel = resolve_kernel(args.opt("spec", ""), args.opt("kernel", ""))?;
            let config =
                apply_backend(parse_config(args.opt("config", "full"))?, args.opt("backend", ""))?;
            let default_size = match kernel.dims() {
                1 => "4096".to_string(),
                2 => "128x128".to_string(),
                _ => "8x32x32".to_string(),
            };
            let dims = parse_size(args.opt("size", &default_size))?;
            let iters: usize =
                args.opt("iters", "3").parse().map_err(|e| format!("bad --iters: {e}"))?;
            let seed: u64 =
                args.opt("seed", "42").parse().map_err(|e| format!("bad --seed: {e}"))?;
            print!("{}", tune_report(&kernel, config, &dims, iters, seed)?);
        }
        "validate-trace" => {
            let path = args.opt("load", "");
            if path.is_empty() {
                return Err("validate-trace needs --load <file>".into());
            }
            print!("{}", validate_trace(path)?);
        }
        "serve" => {
            let num = |key: &str, default: &str| -> Result<usize, String> {
                args.opt(key, default).parse().map_err(|e| format!("bad --{key}: {e}"))
            };
            let cfg = stencil_cli::serve::ServeConfig {
                cache_capacity: num("plan-cache", "32")?,
                max_conns: num("max-conns", "32")?.max(1),
                tune_budget: num("tune-budget", "4")?,
                backend: backend_token(args.opt("backend", ""))?,
            };
            let opts = stencil_cli::serve::ServeOptions {
                socket: args.opt("socket", "").to_string(),
                tcp: args.opt("tcp", "").to_string(),
                cfg,
            };
            print!("{}", stencil_cli::serve::serve(opts)?);
        }
        "submit" => {
            print!(
                "{}",
                stencil_cli::serve::submit(
                    args.opt("socket", ""),
                    args.opt("tcp", ""),
                    args.opt("frame", ""),
                )?
            );
        }
        other => {
            eprint!("unknown subcommand {other}\n\n{}", usage());
            return Err(String::new()); // already reported
        }
    }
    Ok(())
}

fn main() {
    if let Err(e) = real_main() {
        // parse failures print themselves (with usage) before returning;
        // subcommand failures surface here
        if !e.is_empty() {
            eprintln!("error: {e}");
        }
        std::process::exit(2);
    }
}
