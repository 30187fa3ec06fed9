//! `e2e` — the repo benchmark. One command per workload builds the inputs
//! from a seed, measures for a fixed window, checks outputs against an O0
//! oracle, and prints every metric by name; see the README beside this
//! crate's manifest.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use neocpu_e2e::json::{quote, Json};
use neocpu_e2e::metrics::{END_TO_END, PER_LAYER};
use neocpu_e2e::workloads::{self, Cfg, Workload};
use neocpu_e2e::{compare, host, Res};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_SEED: u64 = 1;
const DEFAULT_RESULTS: &str = "crates/e2e/results";

const USAGE: &str = "usage:
  e2e run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--results-dir DIR]
  e2e trace --workload <name> [...]          the traced run (run --trace 1)
  e2e all [--repeat N] [--seed N] [--seconds S] [--smoke] [--out DIR]
  e2e compare <A> <B>                        result files or directories of them
  e2e calibrate [--seed N] [--seconds S]     capacity and limit for wire_open_loop
workloads: resnet50_latency mobilenet_latency mobilenet_int8_latency serve_batch_throughput wire_open_loop";

/// `--flag value` pairs and bare switches after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Res<T> {
        match self.value(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {flag}: {v}").into()),
            None => Ok(default),
        }
    }

    fn switch(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn cfg(&self) -> Res<Cfg> {
        let smoke = self.switch("--smoke");
        let seconds: f64 = self.parsed("--seconds", if smoke { 1.0 } else { DEFAULT_SECONDS })?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}").into());
        }
        Ok(Cfg {
            seed: self.parsed("--seed", DEFAULT_SEED)?,
            seconds,
            smoke,
            results_dir: PathBuf::from(self.value("--results-dir").unwrap_or(DEFAULT_RESULTS)),
        })
    }
}

/// What the result line leaves out: which run this was, and on what.
fn context_line(workload: Workload, cfg: &Cfg, traced: bool) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"host\": {{\"cores\": {}, \"isa\": {}, \"threads\": {}}}, \"claim\": null}}",
        quote(workload.name()),
        cfg.seed,
        cfg.seconds,
        u8::from(traced),
        cfg.smoke,
        host::cores(),
        quote(&format!("{:?}", neocpu::CpuTarget::host().isa)),
        host::threads(),
    )
}

/// `run` / `trace`: prints the context line, then the result line (last).
fn run(args: &Args, traced: bool) -> Res<bool> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let traced = traced || args.parsed("--trace", 0u8)? != 0;
    let cfg = args.cfg()?;
    let outcome = workload.run(&cfg, traced)?;
    println!("{}", context_line(workload, &cfg, traced));
    println!(
        "{}",
        outcome.to_json(if traced { PER_LAYER } else { END_TO_END })
    );
    Ok(outcome.correct)
}

/// `all`: every workload, untraced then traced, each in a process of its
/// own (set-up time and peak memory are per process); one result file per
/// repeat, so two sets of files can be compared.
fn all(args: &Args) -> Res<bool> {
    let cfg = args.cfg()?;
    let repeat: u64 = args.parsed("--repeat", 1)?;
    let out = PathBuf::from(args.value("--out").unwrap_or(DEFAULT_RESULTS));
    std::fs::create_dir_all(&out)?;
    let exe = std::env::current_exe()?;
    let mut all_correct = true;
    for rep in 0..repeat {
        let seed = cfg.seed + rep;
        let mut runs = Vec::new();
        for workload in Workload::ALL {
            for traced in [false, true] {
                let mut cmd = Command::new(&exe);
                cmd.args(["run", "--workload", workload.name()])
                    .args([
                        "--seed",
                        &seed.to_string(),
                        "--seconds",
                        &cfg.seconds.to_string(),
                    ])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .args(["--results-dir".as_ref(), out.as_os_str()]);
                if cfg.smoke {
                    cmd.arg("--smoke");
                }
                eprintln!("[{rep}] {} trace={}", workload.name(), u8::from(traced));
                let done = cmd.output()?;
                let stdout = String::from_utf8_lossy(&done.stdout);
                let mut lines = stdout.lines().rev();
                let (result, context) = (lines.next().unwrap_or(""), lines.next().unwrap_or(""));
                if Json::parse(result).is_err() || Json::parse(context).is_err() {
                    return Err(format!(
                        "{} (trace {}) printed no result: {}",
                        workload.name(),
                        u8::from(traced),
                        String::from_utf8_lossy(&done.stderr)
                    )
                    .into());
                }
                all_correct &= done.status.success();
                runs.push(format!(
                    "{{\"workload\": {}, \"trace\": {}, \"seed\": {seed}, \"context\": {context}, \"result\": {result}}}",
                    quote(workload.name()),
                    u8::from(traced)
                ));
            }
        }
        let path = out.join(format!("run-{rep}.json"));
        std::fs::write(
            &path,
            format!(
                "{{\"runs\": [\n{}\n], \"claim\": null}}\n",
                runs.join(",\n")
            ),
        )?;
        println!("wrote {}", path.display());
    }
    Ok(all_correct)
}

fn dispatch(argv: &[String]) -> Res<bool> {
    let Some(command) = argv.first() else {
        return Err(USAGE.into());
    };
    let args = Args(argv[1..].to_vec());
    match command.as_str() {
        "run" => run(&args, false),
        "trace" => run(&args, true),
        "all" => all(&args),
        "compare" => match &args.0[..] {
            [a, b] => {
                print!("{}", compare::compare(Path::new(a), Path::new(b))?);
                Ok(true)
            }
            _ => Err(USAGE.into()),
        },
        "calibrate" => {
            println!("{}", workloads::wire::calibrate(&args.cfg()?)?);
            Ok(true)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}
