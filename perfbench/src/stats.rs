//! Summary statistics over measured samples, and process facts the
//! results carry (peak RSS, parallelism, source revision).

use std::time::Duration;

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// the closest ranks. `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`, or `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The mean of `samples`, or `None` when there are none.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Chunks a closed loop's completions are cut into for [`chunked_rate`].
const RATE_CHUNKS: usize = 10;

/// Completions per second, robust to slow spells: the completion times
/// (seconds since the loop started, in any order) are cut into
/// [`RATE_CHUNKS`] runs of consecutive completions, each run's rate is
/// its size over the time since the previous run ended, and the median
/// rate is returned. A spell that slows part of the loop moves a few
/// chunks, not the result. Fewer completions than chunks make one chunk
/// each; `None` when there are none.
pub fn chunked_rate(completions_s: &[f64]) -> Option<f64> {
    let chunks = RATE_CHUNKS.min(completions_s.len());
    if chunks == 0 {
        return None;
    }
    let mut sorted = completions_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut rates = Vec::with_capacity(chunks);
    let mut prev_end = 0.0;
    for c in 0..chunks {
        let (lo, hi) = (c * n / chunks, (c + 1) * n / chunks);
        let end = sorted[hi - 1];
        rates.push((hi - lo) as f64 / (end - prev_end));
        prev_end = end;
    }
    median(&rates)
}

/// Milliseconds in `d`, with all their digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`) in MiB, read from
/// `/proc/self/status`. `None` where that file does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The source revision of the checkout the benchmark runs in, read from
/// `.git` without spawning `git`; `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn chunked_rate_ignores_a_slow_spell() {
        // 10 completions per second, except one stalled second.
        let mut times: Vec<f64> = (1..=100).map(|i| i as f64 / 10.0).collect();
        for t in &mut times[50..] {
            *t += 1.0;
        }
        assert_eq!(chunked_rate(&times), Some(10.0));
        let few = chunked_rate(&times[..5]).unwrap();
        assert!((few - 10.0).abs() < 1e-9, "{few}");
        assert_eq!(chunked_rate(&[]), None);
    }
}
