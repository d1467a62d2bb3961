//! What the host reports about this process: peak memory and CPU time.

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`), or `None` where that file does not exist.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU seconds of this process so far, every thread
/// included, or `None` where `/proc/self/stat` does not exist.
pub fn cpu_seconds() -> Option<f64> {
    // /proc reports times in USER_HZ ticks, which the kernel fixes at 100
    // per second for user space whatever its internal tick rate.
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; the fields after its
    // closing parenthesis are space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}
