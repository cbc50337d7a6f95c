//! Sample summaries, process memory and on-disk sizes.

use std::fs;
use std::path::Path;

/// A tail percentile keeps at least this many samples beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A growable set of samples with nearest-rank percentiles.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile, `p` in (0, 100]; 0 for no samples.
    pub fn pct(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn p50(&self) -> f64 {
        self.pct(50.0)
    }

    /// The Harrell–Davis estimate of the `p`-th percentile: a mean of all
    /// samples, sorted, weighted by a Beta distribution centred on rank
    /// `p`. Near p99 of a few hundred samples it averages the top ten or
    /// so instead of reading one of them, so it moves much less from run
    /// to run than [`Samples::pct`]. 0 for no samples.
    pub fn hd(&self, p: f64) -> f64 {
        let v = self.sorted();
        let n = v.len() as f64;
        let (a, b) = (p / 100.0 * (n + 1.0), (1.0 - p / 100.0) * (n + 1.0));
        let mut below = 0.0;
        let mut sum = 0.0;
        for (i, x) in v.iter().enumerate() {
            let upto = beta_cdf(a, b, (i + 1) as f64 / n);
            sum += (upto - below) * x;
            below = upto;
        }
        sum
    }

    /// The value at the highest percentile that still has at least
    /// [`TAIL_BEYOND`] samples above it, with that percentile. With that
    /// many samples or fewer this is the smallest one.
    pub fn tail(&self) -> (f64, f64) {
        let v = self.sorted();
        if v.is_empty() {
            return (0.0, 0.0);
        }
        let i = v.len().saturating_sub(TAIL_BEYOND + 1);
        (v[i], 100.0 * (i + 1) as f64 / v.len() as f64)
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(values: I) -> Samples {
        Samples(values.into_iter().collect())
    }
}

/// The median of a few values (set-up times): the mean of the middle two
/// for an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The median over `sets` of a figure taken within each set.
pub fn median_of(sets: &[Samples], figure: impl Fn(&Samples) -> f64) -> f64 {
    let values: Vec<f64> = sets.iter().map(figure).collect();
    median(&values)
}

/// The regularised incomplete beta function `I_x(a, b)`, by its
/// continued fraction (Numerical Recipes, `betai`).
fn beta_cdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..=300 {
        let m = m as f64;
        let m2 = 2.0 * m;
        for aa in [
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ] {
            d = 1.0 + aa * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + aa / c;
            if c.abs() < TINY {
                c = TINY;
            }
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-12 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let sum: f64 = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + 1.0 + i as f64));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// `VmHWM` (peak resident set) of a process in MiB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Restarts this process's `VmHWM` from its current RSS, so that a
/// later [`peak_rss_mb`] covers only what ran in between. A kernel that
/// refuses leaves the lifetime peak in place.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A seeded SplitMix64 stream: the benchmark's inputs (arrival times,
/// query picks) come from `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6d61_6e74_7261_6265)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.tail(), (90.0, 90.0));
        let few = Samples(vec![3.0, 1.0, 2.0]);
        assert_eq!(few.tail().0, 1.0);
    }

    #[test]
    fn harrell_davis_matches_known_values() {
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
        // I_x(1, 1) = x and I_x(2, 1) = x².
        assert!((beta_cdf(1.0, 1.0, 0.3) - 0.3).abs() < 1e-12);
        assert!((beta_cdf(2.0, 1.0, 0.3) - 0.09).abs() < 1e-12);
        assert!((beta_cdf(297.0, 4.0, 0.99) - (1.0 - beta_cdf(4.0, 297.0, 0.01))).abs() < 1e-12);
        let mut s = Samples::default();
        for i in 1..=300 {
            s.push(i as f64);
        }
        // Symmetric weights put the median exactly in the middle.
        assert!((s.hd(50.0) - 150.5).abs() < 1e-9);
        // p99 lands between the 297th and 298th samples, and a constant
        // sample set gives the constant.
        assert!((s.hd(99.0) - 297.99).abs() < 0.5, "{}", s.hd(99.0));
        assert!((Samples(vec![4.0; 50]).hd(99.0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn median_of_even_count_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
