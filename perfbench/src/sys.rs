//! Per-process accounting from `/proc/self`, plus the quantile helper.

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// User + system CPU time of the whole process (all threads, live and
/// exited), in milliseconds. Linux reports it in `USER_HZ` ticks, which
/// is 100 per second on every mainstream architecture.
pub fn cpu_ms() -> Result<f64, String> {
    const TICK_MS: f64 = 10.0;
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 of this tail.
    let tail = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = tail.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) * TICK_MS)
}

/// The nearest-rank `q`-quantile of `values` (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
