//! The EDGE workload benchmark. One run generates a workload's inputs
//! from `--seed`, runs it, checks every output and prints a report whose
//! last line is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the run also times every layer and reports the per-layer ones. Normally
//! started through `perfbench/run.py`, which builds this binary and
//! `edge-cli` first; see `perfbench/README.md`.

mod corpus;
mod layers;
mod report;
mod server;
mod serving;
mod stats;
mod stream;
mod train;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use edge_obs::trace::Profile;

use report::{result_line, row, Metric, Outcome, END_TO_END};

/// A residual below `-RESIDUAL_TOLERANCE` of its end-to-end figure means
/// the layer rows claim more time than the whole took: it is flagged.
const RESIDUAL_TOLERANCE: f64 = 0.05;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub edge_cli: PathBuf,
    /// Scratch directory for this run's artifacts and server logs.
    pub work: PathBuf,
    /// Where results are kept across runs (tracing overhead).
    pub results: PathBuf,
    pub serve_epochs: usize,
    pub nproc: usize,
    /// Provenance passed in by the launcher.
    pub rustc: String,
    pub source: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<String, String> = HashMap::new();
    for pair in argv.chunks(2) {
        let [key, value] = pair else { return Err(format!("flag without a value: {pair:?}")) };
        let key = key.strip_prefix("--").ok_or_else(|| format!("expected a --flag, got {key}"))?;
        flags.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| flags.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    fn num<T: std::str::FromStr>(k: &str, v: String) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad --{k} '{v}'"))
    }
    let base = PathBuf::from(get("work")?);
    let seed: u64 = num("seed", get("seed")?)?;
    let workload = get("workload")?;
    if !["serve-stream", "train"].contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Args {
        work: base.join(format!("run-{workload}-{seed}-{}", std::process::id())),
        results: base.join("results"),
        workload,
        seed,
        seconds: num("seconds", get("seconds")?)?,
        trace: num::<u8>("trace", get("trace")?)? == 1,
        edge_cli: PathBuf::from(get("edge-cli")?),
        serve_epochs: num("serve-epochs", get("serve-epochs")?)?,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: flags.get("rustc").cloned().unwrap_or_else(|| "unknown".to_string()),
        source: flags.get("source").cloned().unwrap_or_else(|| "unknown".to_string()),
    })
}

/// Provenance: everything needed to tell two results' conditions apart.
fn provenance(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|t| t.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string());
    let fields = [
        ("workload", stats::json_string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("seconds", stats::json_number(args.seconds)),
        ("nproc", args.nproc.to_string()),
        ("cpu", stats::json_string(&cpu)),
        ("rustc", stats::json_string(&args.rustc)),
        ("source", stats::json_string(&args.source)),
        ("loadavg_at_start", stats::json_string(&load)),
        ("serve_epochs", args.serve_epochs.to_string()),
    ];
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("provenance {{{}}}", body.join(", "))
}

/// Prints a serve workload's per-request layer rows against its
/// end-to-end p50 and records the residual (sockets, reactor, wake-ups,
/// response assembly: what no replayed layer covers).
pub fn reconcile(
    out: &mut Outcome,
    p50_us: f64,
    path: &[(&str, f64)],
    breakdown_mismatches: usize,
) {
    out.note("layer reconciliation (per request, us):");
    for (name, us) in path {
        out.note(row(name, *us, "us"));
    }
    let sum: f64 = path.iter().map(|(_, us)| us).sum();
    let residual = p50_us - sum;
    out.note(row("sum of layers", sum, "us"));
    out.note(row("end-to-end p50", p50_us, "us"));
    out.note(row("serve.residual_us", residual, "us"));
    if residual < -RESIDUAL_TOLERANCE * p50_us {
        out.note(format!(
            "FLAG: residual is negative beyond {:.0}% of the end-to-end p50",
            RESIDUAL_TOLERANCE * 100.0
        ));
    }
    if breakdown_mismatches > 0 {
        out.note(format!(
            "FLAG: attention + MDN head + mode reproduced locate's point differently on {breakdown_mismatches} texts"
        ));
    }
    out.layers.push(Metric::new("serve.residual_us", residual, "us"));
}

/// Prints the training rows' sum against `train_s`, flagging a negative
/// residual beyond tolerance.
pub fn reconcile_train(out: &mut Outcome, train_s: f64, profile: &Profile) {
    let residual =
        out.layers.iter().find(|m| m.name == "train.residual_s").map_or(0.0, |m| m.value);
    out.note(format!(
        "training reconciliation: train_s {train_s:.3} s = named self times {:.3} s + residual {residual:.3} s",
        train_s - residual
    ));
    if residual < -RESIDUAL_TOLERANCE * train_s {
        out.note(format!(
            "FLAG: training residual is negative beyond {:.0}% of train_s",
            RESIDUAL_TOLERANCE * 100.0
        ));
    }
    out.note("span self times (top 12):");
    for r in profile.rows.iter().take(12) {
        out.note(format!(
            "  {:<24} {:>8} calls {:>12.4} s",
            r.name,
            r.calls,
            r.self_us as f64 / 1e6
        ));
    }
}

/// The path where a run keeps its end-to-end figures, so a traced run of
/// the same workload and seed can report the tracing overhead. The first
/// line of the file names the sources the figures were measured on.
fn result_path(args: &Args, trace: bool) -> PathBuf {
    args.results.join(format!("{}-seed{}-trace{}.tsv", args.workload, args.seed, u8::from(trace)))
}

fn tracing_overhead(args: &Args, out: &Outcome) -> Vec<String> {
    let text = std::fs::read_to_string(result_path(args, false)).unwrap_or_default();
    let mut saved = text.lines();
    if saved.next() != Some(source_line(args).as_str()) {
        return vec![format!(
            "tracing overhead: no untraced result for {} seed {} of these sources \
             (run it with --trace 0)",
            args.workload, args.seed
        )];
    }
    let mut lines =
        vec!["tracing overhead (traced / untraced - 1, same workload, seed and sources):".into()];
    for line in saved {
        let Some((name, value)) = line.split_once('\t') else { continue };
        let Ok(untraced) = value.parse::<f64>() else { continue };
        if let Some(m) = out.end_to_end.iter().find(|m| m.name == name) {
            let delta = if untraced != 0.0 { m.value / untraced - 1.0 } else { 0.0 };
            lines.push(format!("  {name:<32} {:>+9.2}%", delta * 100.0));
        }
    }
    lines
}

fn source_line(args: &Args) -> String {
    format!("source\t{}", args.source)
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("creating {:?}: {e}", args.work))?;
    let mut out = Outcome::default();
    let result = match args.workload.as_str() {
        "serve-stream" => stream::run(args, &mut out),
        _ => train::run(args, &mut out),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    result?;
    let mut ordered = Vec::with_capacity(END_TO_END.len());
    for (name, _) in END_TO_END {
        match out.end_to_end.iter().find(|m| m.name == *name) {
            Some(m) => ordered.push(m.clone()),
            None => return Err(format!("workload {} did not measure {name}", args.workload)),
        }
    }
    out.end_to_end = ordered;
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &out.notes {
        println!("{line}");
    }
    println!("end-to-end ({}):", if args.trace { "traced run" } else { "tracing off" });
    for m in &out.end_to_end {
        println!("{}", row(&m.name, m.value, &m.unit));
    }
    println!("{}", row("failed_frac", out.failed as f64 / out.attempted.max(1) as f64, "ratio"));
    let metrics: Vec<Metric> = if args.trace {
        for line in tracing_overhead(&args, &out) {
            println!("{line}");
        }
        let rows = out.layer_rows();
        println!("per-layer:");
        for m in &rows {
            println!("{}", row(&m.name, m.value, &m.unit));
        }
        rows
    } else {
        out.end_to_end.clone()
    };
    let mut saved = source_line(&args) + "\n";
    for m in &out.end_to_end {
        saved.push_str(&format!("{}\t{}\n", m.name, m.value));
    }
    if std::fs::create_dir_all(&args.results).is_ok() {
        let _ = std::fs::write(result_path(&args, args.trace), saved);
    }
    let correct = out.mismatches == 0;
    println!("{}", result_line(correct, out.attempted.max(1), out.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: outputs differ from the expected ones");
        ExitCode::from(1)
    }
}
