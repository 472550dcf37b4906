//! Minimal dependency-free argument parsing for the `lorastencil` CLI.

use std::collections::HashMap;

/// A parsed command line: a subcommand plus `--key value` options and
/// bare `--flag`s.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// `--key value` pairs.
    pub options: HashMap<String, String>,
    /// Bare `--flag`s.
    pub flags: Vec<String>,
}

/// Keys that take a value.
const VALUED: &[&str] = &[
    "kernel",
    "method",
    "size",
    "iters",
    "config",
    "backend",
    "radius",
    "seed",
    "spec",
    "load",
    "save",
    "trace-out",
    "checkpoint-dir",
    "checkpoint-every",
    "checkpoint-keep",
    "socket",
    "tcp",
    "plan-cache",
    "max-conns",
    "tune-budget",
    "frame",
    "target",
];

/// Bare flags the CLI understands.
const FLAGS: &[&str] = &["verify"];

/// Parse an argument list (without the program name). Options given
/// twice and keys the CLI does not know are hard errors — a typo like
/// `--itres` must not be swallowed as an accepted flag.
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    match it.next() {
        Some(cmd) if !cmd.starts_with("--") => args.command = cmd.clone(),
        Some(other) => return Err(format!("expected a subcommand, got {other}")),
        None => return Err("no subcommand given (try `help`)".into()),
    }
    while let Some(tok) = it.next() {
        let Some(key) = tok.strip_prefix("--") else {
            return Err(format!("unexpected positional argument {tok}"));
        };
        if VALUED.contains(&key) {
            let Some(val) = it.next() else {
                return Err(format!("--{key} needs a value"));
            };
            if args.options.insert(key.to_string(), val.clone()).is_some() {
                return Err(format!("--{key} given more than once"));
            }
        } else if FLAGS.contains(&key) {
            if args.flags.iter().any(|f| f == key) {
                return Err(format!("--{key} given more than once"));
            }
            args.flags.push(key.to_string());
        } else {
            let mut msg = format!("unknown option --{key}");
            if let Some(near) = nearest_key(key) {
                msg.push_str(&format!(" (did you mean --{near}?)"));
            }
            return Err(msg);
        }
    }
    Ok(args)
}

/// Closest known key within edit distance 2, for typo suggestions.
fn nearest_key(key: &str) -> Option<&'static str> {
    suggest(key, VALUED.iter().chain(FLAGS).copied())
}

/// Closest candidate within edit distance 2 — the generic "did you
/// mean" helper behind both option-key and option-*value* typo hints
/// (`--target wsgl` → `wgsl`).
pub fn suggest<'a>(input: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    candidates
        .into_iter()
        .map(|k| (k, edit_distance(input, k)))
        .filter(|&(_, d)| d <= 2)
        .min_by_key(|&(_, d)| d)
        .map(|(k, _)| k)
}

/// Levenshtein distance between two short ASCII keys.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<u8>, Vec<u8>) = (a.bytes().collect(), b.bytes().collect());
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cur = row[j + 1];
            row[j + 1] = if ca == cb { prev } else { 1 + prev.min(row[j]).min(cur) };
            prev = cur;
        }
    }
    row[b.len()]
}

impl Args {
    /// Option lookup with default.
    pub fn opt<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(|s| s.as_str()).unwrap_or(default)
    }

    /// Whether a bare flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// Parse a size spec: `N`, `NxM` or `NxMxK`.
pub fn parse_size(spec: &str) -> Result<Vec<usize>, String> {
    let dims: Result<Vec<usize>, _> = spec.split('x').map(|p| p.trim().parse::<usize>()).collect();
    let dims = dims.map_err(|e| format!("bad size {spec}: {e}"))?;
    if dims.is_empty() || dims.len() > 3 || dims.contains(&0) {
        return Err(format!("size must be N, NxM or NxMxK with positive dims, got {spec}"));
    }
    Ok(dims)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&sv(&["run", "--kernel", "Box-2D9P", "--verify", "--iters", "4"])).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.opt("kernel", ""), "Box-2D9P");
        assert_eq!(a.opt("iters", "1"), "4");
        assert!(a.flag("verify"));
        assert!(!a.flag("json"));
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse(&sv(&["run", "--kernel"])).is_err());
    }

    #[test]
    fn rejects_positional_noise() {
        assert!(parse(&sv(&["run", "oops"])).is_err());
        assert!(parse(&sv(&["--kernel", "x"])).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn rejects_duplicate_options_and_flags() {
        let e = parse(&sv(&["run", "--iters", "4", "--iters", "8"])).unwrap_err();
        assert!(e.contains("--iters given more than once"), "{e}");
        let e = parse(&sv(&["run", "--verify", "--verify"])).unwrap_err();
        assert!(e.contains("--verify given more than once"), "{e}");
    }

    #[test]
    fn rejects_unknown_keys_with_suggestion() {
        let e = parse(&sv(&["run", "--itres", "10"])).unwrap_err();
        assert!(e.contains("unknown option --itres"), "{e}");
        assert!(e.contains("did you mean --iters?"), "{e}");
        let e = parse(&sv(&["run", "--verfy"])).unwrap_err();
        assert!(e.contains("did you mean --verify?"), "{e}");
        // far from every known key: no suggestion, still an error
        let e = parse(&sv(&["run", "--zzzzzzzz"])).unwrap_err();
        assert!(e.contains("unknown option --zzzzzzzz"), "{e}");
        assert!(!e.contains("did you mean"), "{e}");
    }

    /// Schedules are chosen from their key alone, so the flags that
    /// once named a schedule file are gone.
    #[test]
    fn schedule_file_flags_are_unknown_options() {
        let e = parse(&sv(&["run", "--tuning-db", "x"])).unwrap_err();
        assert!(e.starts_with("unknown option --tuning-db"), "{e}");
        let e = parse(&sv(&["tune", "--db", "x"])).unwrap_err();
        assert!(e.starts_with("unknown option --db"), "{e}");
    }

    /// `usage()` shows exactly the keys the parser accepts: every
    /// `--token` in the text parses, and every parsed key is shown.
    #[test]
    fn usage_lists_exactly_the_parsed_keys() {
        let shown: Vec<&str> = crate::usage()
            .split("--")
            .skip(1)
            .map(|s| s.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')).next().unwrap())
            .collect();
        for key in &shown {
            assert!(
                VALUED.contains(key) || FLAGS.contains(key),
                "usage() shows --{key}, which the parser rejects"
            );
        }
        for key in VALUED.iter().chain(FLAGS) {
            assert!(shown.contains(key), "the parser accepts --{key}, which usage() never shows");
        }
    }

    #[test]
    fn size_specs() {
        assert_eq!(parse_size("128").unwrap(), vec![128]);
        assert_eq!(parse_size("64x32").unwrap(), vec![64, 32]);
        assert_eq!(parse_size("8x16x32").unwrap(), vec![8, 16, 32]);
        assert!(parse_size("0x4").is_err());
        assert!(parse_size("1x2x3x4").is_err());
        assert!(parse_size("abc").is_err());
    }
}
