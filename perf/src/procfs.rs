//! Process CPU time and resident memory, read from `/proc/self`.

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// architecture the kernel supports; `std` has no `sysconf` to ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// User and system CPU seconds of this process, threads that have already
/// exited included.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Parses the contents of `/proc/<pid>/stat`. The command name (field 2)
/// may itself contain spaces and parentheses, so fields are counted from
/// the last `)`.
pub fn parse_stat(stat: &str) -> Option<CpuTimes> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime / TICKS_PER_SECOND,
        sys_s: stime / TICKS_PER_SECOND,
    })
}

/// Parses the kB value of one `key:` line of `/proc/<pid>/status`.
fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Parses `VmHWM` (peak resident set, kB) out of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    parse_status_kb(status, "VmHWM")
}

/// Parses `VmRSS` (resident set now, kB) out of `/proc/<pid>/status`.
pub fn parse_vm_rss_kb(status: &str) -> Option<u64> {
    parse_status_kb(status, "VmRSS")
}

/// CPU time used so far by this process.
pub fn cpu_times() -> Result<CpuTimes, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("procfs: {e}"))?;
    parse_stat(&stat).ok_or_else(|| "procfs: /proc/self/stat did not parse".to_string())
}

fn status_mb(parse: fn(&str) -> Option<u64>, what: &str) -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("procfs: {e}"))?;
    parse(&status)
        .map(|kb| kb as f64 * 1024.0 / 1e6)
        .ok_or_else(|| format!("procfs: no {what} in /proc/self/status"))
}

/// Peak resident set size of this process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb(parse_vm_hwm_kb, "VmHWM")
}

/// Resident set size of this process now, in MB (10^6 bytes).
pub fn rss_mb() -> Result<f64, String> {
    status_mb(parse_vm_rss_kb, "VmRSS")
}
