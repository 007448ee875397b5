//! What the operating system says about this process (Linux `/proc`).
//! Each reading is `None` where `/proc` is missing, and the metric built
//! on it is then reported as 0.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// used 100 on every architecture this runs on; reading it properly
/// needs `sysconf`, i.e. libc.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds consumed by all threads of this process.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name is in parentheses and may contain spaces; the
    // numbered fields resume after the last ')'. utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the command.
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

fn status_field(name: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    status_field("VmHWM:").map(|kb| kb / 1024.0)
}

/// Threads in this process right now.
pub fn threads() -> Option<f64> {
    status_field("Threads:")
}

/// The CPUs this process may run on, ascending (`Cpus_allowed_list`).
pub fn allowed_cpus() -> Option<Vec<usize>> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    parse_cpu_list(line.split_whitespace().nth(1)?)
}

/// A kernel CPU list such as `0-1,4` as the CPUs it names.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (first, last) = part.split_once('-').unwrap_or((part, part));
        cpus.extend(first.parse::<usize>().ok()?..=last.parse().ok()?);
    }
    Some(cpus)
}

/// Confines this process to the last CPU it may run on and returns that
/// CPU. Call it from the main thread before any other thread exists:
/// `taskset -p` moves one thread, and threads started later inherit the
/// mask of the thread that starts them. (Affinity needs a system call the
/// standard library does not wrap, and this repository allows no
/// `unsafe`, so util-linux makes the call.) The last CPU, because
/// interrupts tend to be served on the first.
pub fn confine_to_one_cpu() -> Result<usize, String> {
    let cpu = *allowed_cpus()
        .ok_or("no Cpus_allowed_list in /proc/self/status")?
        .last()
        .ok_or("an empty Cpus_allowed_list")?;
    let status = std::process::Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("taskset: {e}"))?;
    if status.success() && allowed_cpus() == Some(vec![cpu]) {
        Ok(cpu)
    } else {
        Err(format!("taskset -cp {cpu}: {status}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse_as_the_kernel_writes_them() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(
            parse_cpu_list("0-2,8,10-11"),
            Some(vec![0, 1, 2, 8, 10, 11])
        );
        assert_eq!(parse_cpu_list("0-x"), None);
    }

    #[test]
    fn proc_readings_are_sane_where_proc_exists() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        assert!(cpu_seconds().expect("stat parses") >= 0.0);
        assert!(peak_rss_mb().expect("VmHWM parses") > 0.0);
        assert!(threads().expect("Threads parses") >= 1.0);
        assert!(!allowed_cpus().expect("Cpus_allowed_list parses").is_empty());
    }
}
