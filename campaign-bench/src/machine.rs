//! What a result was measured on, and the process's own peak memory.

use std::path::Path;
use std::process::Command;

/// Parses the `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Peak resident set of this process in MiB. Each benchmark run is its own
/// process, so this is the running workload's peak alone.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

/// CPU model, `nproc`, rustc version and git commit, as JSON object
/// members. The commit is `unavailable` outside a git checkout.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only ask git inside a checkout's root, so it never searches parents.
    let commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    vec![
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        ("rustc", rustc),
        ("commit", commit.unwrap_or_else(|| "unavailable".into())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("VmRSS: 5 kB\n"), None);
    }

    #[test]
    fn peak_rss_is_this_process_and_grows_with_it() {
        let before = peak_rss_mb();
        assert!(before > 0.0, "VmHWM readable for this process");
        // Touch 64 MiB more than the process has ever held at once.
        let block = vec![1u8; (before as usize + 64) << 20];
        let during = peak_rss_mb();
        assert!(
            during >= before + 60.0,
            "peak {during} MiB should cover the {before}+64 MiB block"
        );
        drop(block);
    }

    #[test]
    fn fingerprint_names_every_field() {
        let f = fingerprint();
        let keys: Vec<&str> = f.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["cpu", "nproc", "rustc", "commit"]);
        assert!(f.iter().all(|(_, v)| !v.is_empty()));
    }
}
