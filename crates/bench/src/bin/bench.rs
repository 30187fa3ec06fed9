//! Machine-readable bench orchestrator (ROADMAP item 5, seeded here):
//! spawns release `table2`, `memplan`, `serve`, and `netbench` runs,
//! collects the
//! single-line JSON summary each emits under `--json`, measures per-run
//! wall time and peak RSS (`VmHWM` polled from `/proc/<pid>/status`), and
//! writes the combined trajectory point to `BENCH_<date>.json` at the
//! current directory.
//!
//! The sibling binaries are located next to this executable (one
//! `cargo build --release -p neocpu-bench` builds all of them), so
//! `cargo run --release -p neocpu-bench --bin bench` just works.
//!
//! Flags: `--full` (paper-size workloads in every child), `--out PATH`
//! (override the output file).

use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// One spawned child: its report line plus the orchestrator's own
/// measurements of the process.
struct RunResult {
    name: &'static str,
    args: Vec<String>,
    wall_s: f64,
    peak_rss_kb: Option<u64>,
    exit_ok: bool,
    report: Option<String>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let full = argv.iter().any(|a| a == "--full");
    let out_path = argv
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| argv.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("BENCH_{}.json", today()));

    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .expect("orchestrator knows its own directory");

    // The trajectory point: the Table-2 latency sweep with the int8
    // microbenchmark (quantized zoo models only, to keep the sweep
    // bounded), the memory-planner report, and the serving engine in both
    // f32 and int8 trim.
    let mut runs: Vec<(&'static str, Vec<&'static str>)> = vec![
        ("table2", vec!["--json", "--models", "resnet-50,mobilenet", "--reps", "5"]),
        ("memplan", vec!["--json", "--models", "resnet-50,mobilenet", "--reps", "3"]),
        (
            "serve",
            vec!["--json", "--models", "mobilenet", "--clients", "1,2,4", "--requests", "16"],
        ),
        (
            "serve_int8",
            vec![
                "--json", "--int8", "--models", "mobilenet", "--clients", "1,2,4",
                "--requests", "16",
            ],
        ),
        // E11: the wire-level serving path — in-process TCP server, real
        // sockets, every registry route including int8.
        (
            "netbench",
            vec!["--json", "--smoke", "--int8", "--clients", "4", "--requests", "12"],
        ),
    ];
    if full {
        for (_, args) in &mut runs {
            args.push("--full");
        }
    }

    let mut results = Vec::new();
    for (name, args) in runs {
        let bin = name.split('_').next().expect("non-empty run name");
        eprintln!("bench: running {bin} {}", args.join(" "));
        results.push(spawn_and_watch(name, exe_dir.join(bin), args));
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let entries: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":\"{}\",\"args\":[{}],\"wall_s\":{:.3},\"peak_rss_kb\":{},\"exit_ok\":{},\"report\":{}}}",
                r.name,
                r.args.iter().map(|a| format!("\"{a}\"")).collect::<Vec<_>>().join(","),
                r.wall_s,
                r.peak_rss_kb.map_or("null".to_string(), |v| v.to_string()),
                r.exit_ok,
                r.report.as_deref().unwrap_or("null"),
            )
        })
        .collect();
    let doc = format!(
        "{{\"date\":\"{}\",\"scale\":\"{}\",\"host_cores\":{host_cores},\"runs\":[{}]}}\n",
        today(),
        if full { "full" } else { "reduced" },
        entries.join(","),
    );
    std::fs::write(&out_path, &doc).expect("write trajectory file");
    println!("bench: wrote {out_path}");

    if results.iter().any(|r| !r.exit_ok || r.report.is_none()) {
        for r in results.iter().filter(|r| !r.exit_ok || r.report.is_none()) {
            eprintln!(
                "bench: {} {}",
                r.name,
                if r.exit_ok { "produced no JSON report" } else { "exited non-zero" }
            );
        }
        std::process::exit(1);
    }
}

/// Spawns `bin args`, polls `/proc/<pid>/status` for the peak resident set
/// while it runs, and extracts the last stdout line that looks like a JSON
/// object as the child's report.
fn spawn_and_watch(name: &'static str, bin: PathBuf, args: Vec<&'static str>) -> RunResult {
    let t0 = Instant::now();
    let mut child = Command::new(&bin)
        .args(&args)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
    let pid = child.id();

    // Drain stdout on a thread so a chatty child never fills the pipe and
    // deadlocks against our polling loop.
    let mut stdout = child.stdout.take().expect("stdout piped");
    let reader = std::thread::spawn(move || {
        let mut buf = String::new();
        let _ = stdout.read_to_string(&mut buf);
        buf
    });

    // VmHWM is the kernel-maintained high-water mark, so the last
    // successful read before exit is the peak; polling only bounds how
    // close to exit that read lands.
    let mut peak_rss_kb = None;
    let status = loop {
        if let Some(kb) = read_vm_hwm_kb(pid) {
            peak_rss_kb = Some(peak_rss_kb.map_or(kb, |p: u64| p.max(kb)));
        }
        match child.try_wait().expect("wait on child") {
            Some(status) => break status,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let out = reader.join().expect("stdout reader thread");
    print!("{out}");

    let report = out
        .lines()
        .rev()
        .map(str::trim)
        .find(|l| l.starts_with('{') && l.ends_with('}'))
        .map(str::to_string);
    RunResult {
        name,
        args: args.into_iter().map(str::to_string).collect(),
        wall_s: t0.elapsed().as_secs_f64(),
        peak_rss_kb,
        exit_ok: status.success(),
        report,
    }
}

/// Reads `VmHWM` (peak resident set, kB) from `/proc/<pid>/status`.
fn read_vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Today's date as `YYYY-MM-DD` (UTC), computed from the system clock with
/// the standard civil-from-days algorithm — no calendar crate needed.
fn today() -> String {
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).expect("post-1970 clock").as_secs();
    let z = secs as i64 / 86_400 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}
