//! The `host` block stamped into every result file.

use crate::workloads::workers;
use std::process::Command;

fn first_line_after(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect()
}

/// `{"nproc": …, "cpu_model": …, "ram_kb": …, "rustc": …, "commit": …, "workers": …}`.
pub fn host_json() -> String {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = first_line_after("/proc/cpuinfo", "model name").unwrap_or_else(unknown);
    let ram_kb = first_line_after("/proc/meminfo", "MemTotal")
        .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        .unwrap_or(0);
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(unknown);
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown);
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"ram_kb\": {ram_kb}, \"rustc\": \"{}\", \
         \"commit\": \"{}\", \"workers\": {}}}",
        escape(&cpu),
        escape(&rustc),
        escape(&commit),
        workers()
    )
}
