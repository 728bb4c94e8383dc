//! `bench-e2e` — the repo's end-to-end benchmark driver.
//!
//! std-only and linked against no repo crate: the system under test
//! is the shipped `flowctl` binary run as a child process, spoken to
//! only over its wire surfaces. See `bench/README.md`.
//!
//! ```text
//! bench-e2e run --workload W --seed N --seconds S --trace 0|1
//!               --flowctl PATH --specs DIR [--layers PATH] [--out DIR]
//!               [--setups K] [--label smoke]
//! bench-e2e compare A.json B.json --benchmark BENCHMARK.json
//! bench-e2e host --seed N --commit C
//! bench-e2e workloads
//! ```

mod client;
mod compare;
mod fleet;
mod gen;
mod json;
mod reduce;
mod run;
mod sender;
mod shared;
mod stats;
mod workload;

use run::{Metric, RunConfig};
use std::process::{Command, ExitCode, Stdio};

/// One error type for the whole harness: a message for the operator.
#[derive(Debug)]
pub struct Error(String);

impl Error {
    pub fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// `--key value` pairs after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        let flag = format!("--{key}");
        let at = self.0.iter().rposition(|a| *a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn need(&self, key: &str) -> Result<&str, Error> {
        self.get(key)
            .ok_or_else(|| Error::new(format!("missing --{key} <value>")))
    }

    fn parse<T: std::str::FromStr>(&self, key: &str) -> Result<T, Error> {
        let v = self.need(key)?;
        v.parse()
            .map_err(|_| Error::new(format!("--{key}: cannot read `{v}`")))
    }

    fn positional(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut it = self.0.iter();
        while let Some(a) = it.next() {
            if a.starts_with("--") {
                it.next();
            } else {
                out.push(a.as_str());
            }
        }
        out
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let args = Args(argv);
    let result = match cmd.as_str() {
        "run" => cmd_run(&args),
        "compare" => compare::cmd_compare(&args.positional(), args.get("benchmark")),
        "host" => cmd_host(&args),
        "workloads" => {
            for w in &workload::WORKLOADS {
                println!("{}", w.name);
            }
            Ok(())
        }
        _ => Err(Error::new(
            "usage: bench-e2e run|compare|host|workloads … (see bench/README.md)",
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Formats a measured value with all its digits but no exponent.
fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn cmd_run(args: &Args) -> Result<(), Error> {
    let name = args.need("workload")?;
    let wl = workload::find(name).ok_or_else(|| Error::new(format!("unknown workload {name}")))?;
    let trace = match args.need("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(Error::new(format!("--trace takes 0 or 1, got {other}"))),
    };
    let cfg = RunConfig {
        workload: wl,
        seed: args.parse("seed")?,
        seconds: args.parse("seconds")?,
        trace,
        flowctl: args.need("flowctl")?.to_string(),
        spec_dir: args.need("specs")?.to_string(),
        setups: args.get("setups").map_or(Ok(3), |_| args.parse("setups"))?,
    };
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err(Error::new("--seconds must be positive"));
    }
    let label = args
        .get("label")
        .map(|l| format!(" {l}"))
        .unwrap_or_default();
    fleet::install_signal_handlers();
    let outcome = run::run(&cfg)?;
    println!(
        "# {}{label}: seed {} pool {:016x} recv_buffer_bytes {} ({} s measured, trace {})",
        wl.name, cfg.seed, outcome.pool_hash, outcome.recv_buffer_bytes, cfg.seconds, trace as u8
    );

    let metrics: Vec<Metric> = if trace {
        let mut all = outcome.per_layer.clone();
        let layers = args.need("layers")?;
        let out_dir = args.need("out")?;
        let trace_file = format!("{out_dir}/trace-{}.json", wl.name);
        all.extend(run_layers(
            layers,
            wl.name,
            cfg.seed,
            outcome.pool_hash,
            &cfg.spec_dir,
            &trace_file,
        )?);
        derive_socket_tax(&mut all, wl, outcome.ingest_rps);
        all
    } else {
        outcome.end_to_end.clone()
    };
    // A labelled (smoke) traced run also shows the end-to-end numbers
    // it computed on the way; the result object stays per-layer.
    let also = if trace && !label.is_empty() {
        outcome.end_to_end.as_slice()
    } else {
        &[]
    };
    for m in also.iter().chain(&metrics) {
        let n = if m.n > 0 {
            format!(" n={}", m.n)
        } else {
            String::new()
        };
        println!(
            "{}/{} {} {}{n}{label}",
            wl.name,
            m.name,
            num(m.value),
            m.unit
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        outcome.attempted,
        body.join(", ")
    );
    Ok(())
}

/// Runs `bench-layers` and parses its `name value unit n` lines.
fn run_layers(
    bin: &str,
    workload: &str,
    seed: u64,
    pool_hash: u64,
    specs: &str,
    trace_file: &str,
) -> Result<Vec<Metric>, Error> {
    let seed = seed.to_string();
    let out = Command::new(bin)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed,
            "--specs",
            specs,
            "--trace-out",
            trace_file,
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| Error::new(format!("cannot run {bin}: {e}")))?;
    if !out.status.success() {
        return Err(Error::new(format!("{bin} failed with {}", out.status)));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    // Its `#` lines (pool hash, the root == flat verdict) are part of
    // the run's printed record.
    for line in text.lines().filter(|l| l.starts_with('#')) {
        println!("{line}");
    }
    let want = format!("# pool {pool_hash:016x}");
    if !text.lines().any(|l| l == want) {
        return Err(Error::new(format!(
            "{bin} replayed a different datagram pool than was sent (expected `{want}`)"
        )));
    }
    let mut metrics = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let mut it = line.split_whitespace();
        let parsed = (|| {
            let name = it.next()?;
            let value: f64 = it.next()?.parse().ok()?;
            let unit = it.next()?;
            let n: usize = it.next()?.parse().ok()?;
            Some(Metric {
                name: name.to_string(),
                value,
                unit: unit.to_string(),
                n,
            })
        })();
        metrics.push(
            parsed.ok_or_else(|| Error::new(format!("unreadable bench-layers line: {line}")))?,
        );
    }
    Ok(metrics)
}

/// `lane.socket_tax_pct`: what the socketed site loses against its
/// own single-threaded pipeline fed the same datagrams in process.
fn derive_socket_tax(all: &mut Vec<Metric>, wl: &workload::Workload, ingest_rps: f64) {
    let push = match wl.pool.records_per_datagram {
        3 => "pipeline.push_small_ns_per_rec",
        _ => "pipeline.push_bulk_ns_per_rec",
    };
    let ns = all.iter().find(|m| m.name == push).map_or(0.0, |m| m.value);
    let tax = if ns > 0.0 {
        100.0 * (1.0 - ingest_rps / (1e9 / ns))
    } else {
        0.0
    };
    all.push(Metric {
        name: "lane.socket_tax_pct".to_string(),
        value: tax,
        unit: "%".to_string(),
        n: 0,
    });
}

/// The `host` block every result file carries.
fn cmd_host(args: &Args) -> Result<(), Error> {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"kernel\": {}, \"rmem_max\": {}, \
         \"recv_buffer_bytes_requested\": 4194304, \"git_commit\": {}, \"seed\": {}, \"loopback\": true}}",
        json::quote(&model),
        json::quote(read("/proc/sys/kernel/osrelease").trim()),
        read("/proc/sys/net/core/rmem_max").trim().parse::<u64>().unwrap_or(0),
        json::quote(args.get("commit").unwrap_or("unknown")),
        args.parse::<u64>("seed")?,
    );
    Ok(())
}
