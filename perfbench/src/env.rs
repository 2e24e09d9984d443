//! The environment fingerprint stamped on every result.

use std::process::Command;

/// Escape `s` as the body of a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str], ceiling: Option<&str>) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(dir) = ceiling {
        cmd.env("GIT_CEILING_DIRECTORIES", dir);
    }
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// CPU model from `/proc/cpuinfo`, or "unknown".
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Git revision of the working directory, looking no higher than it (the
/// benchmark may run from a plain export of the tree: then "unknown").
fn git_rev() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.display().to_string()));
    command_line("git", &["rev-parse", "HEAD"], ceiling.as_deref())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, CPU model, `rustc -V` and git revision as JSON members.
pub fn machine() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["-V"], None).unwrap_or_else(|| "unknown".to_string());
    format!(
        "\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"git_rev\": {}",
        json_str(&cpu_model()),
        json_str(&rustc),
        json_str(&git_rev())
    )
}

/// A `/proc/self/status` size field (`VmHWM`, `VmRSS`) in MiB, or 0
/// when the kernel does not report it.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`) since start
/// or the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Resident set size of this process now, in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Return freed heap pages to the kernel, then restart the peak RSS from
/// the current RSS (writing `5` to `/proc/self/clear_refs`), so a later
/// [`peak_rss_mb`] covers only what is resident from here on and not the
/// transient peaks of the repeated set-ups. Returns whether the kernel
/// accepted the reset; if not, the peak still counts from process start.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only releases free memory held by the
    // allocator; it takes no pointers.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_restarts_from_current() {
        if !reset_peak_rss() {
            return; // not Linux, or the kernel refuses the reset
        }
        let base = peak_rss_mb();
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(peak_rss_mb() >= base + 60.0);
        drop(block);
        assert!(reset_peak_rss());
        assert!(peak_rss_mb() < base + 60.0);
        assert!(rss_mb() > 0.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
