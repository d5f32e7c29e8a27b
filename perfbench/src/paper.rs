//! The paper's Figure 1 column and the benchmark's `paper_err`.

use cheri_isa::Abi;

const FIG1: &str = include_str!("../paper_fig1.tsv");

/// The paper's normalised execution time for `key` under `abi`
/// (benchmark or purecap), when the paper reports one.
pub fn paper_slowdown(key: &str, abi: Abi) -> Option<f64> {
    let col = match abi {
        Abi::Benchmark => 1,
        Abi::Purecap => 2,
        Abi::Hybrid => return None,
    };
    FIG1.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.split('\t').collect::<Vec<_>>())
        .find(|f| f[0] == key)
        .and_then(|f| f.get(col)?.parse().ok())
}

/// One simulated slowdown set beside the paper's.
#[derive(Clone, Debug)]
pub struct SlowdownRow {
    /// Workload key.
    pub key: String,
    /// Benchmark or purecap.
    pub abi: Abi,
    /// Simulated time normalised to hybrid.
    pub simulated: f64,
    /// The paper's value, when reported.
    pub paper: Option<f64>,
}

impl SlowdownRow {
    /// `|ln(simulated / paper)|`, when the paper reports a value.
    pub fn err(&self) -> Option<f64> {
        self.paper.map(|p| (self.simulated / p).ln().abs())
    }
}

/// Builds slowdown rows from `(key, abi, simulated cycles)` triples: each
/// non-hybrid cell is normalised to the same key's hybrid cell.
pub fn slowdowns(cells: &[(String, Abi, u64)]) -> Vec<SlowdownRow> {
    let mut rows = Vec::new();
    for (key, abi, cycles) in cells {
        if *abi == Abi::Hybrid {
            continue;
        }
        let hybrid = cells
            .iter()
            .find(|(k, a, _)| k == key && *a == Abi::Hybrid)
            .map(|c| c.2);
        if let Some(h) = hybrid.filter(|h| *h > 0) {
            rows.push(SlowdownRow {
                key: key.clone(),
                abi: *abi,
                simulated: *cycles as f64 / h as f64,
                paper: paper_slowdown(key, *abi),
            });
        }
    }
    rows
}

/// `paper_err`: mean `|ln(simulated / paper)|` over the rows the paper
/// reports.
pub fn paper_err(rows: &[SlowdownRow]) -> f64 {
    let errs: Vec<f64> = rows.iter().filter_map(SlowdownRow::err).collect();
    if errs.is_empty() {
        return 0.0;
    }
    errs.iter().sum::<f64>() / errs.len() as f64
}

/// Renders the rows, one per line, with the error beside each value.
pub fn render(rows: &[SlowdownRow]) -> String {
    let mut out = String::from("simulated slowdown vs hybrid (paper fig. 1, |ln err|):\n");
    for r in rows {
        let paper = r.paper.map_or("NA".to_owned(), |p| format!("{p:.3}"));
        let err = r.err().map_or("-".to_owned(), |e| format!("{e:.4}"));
        out.push_str(&format!(
            "  {:<16} {:<9} simulated {:.4}  paper {paper:>5}  err {err}\n",
            r.key,
            r.abi.to_string(),
            r.simulated
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_experiments_md() {
        assert_eq!(paper_slowdown("omnetpp_520", Abi::Purecap), Some(1.875));
        assert_eq!(paper_slowdown("quickjs", Abi::Benchmark), None);
        assert_eq!(paper_slowdown("x264_525", Abi::Purecap), None);
        assert_eq!(paper_slowdown("sqlite", Abi::Hybrid), None);
    }

    #[test]
    fn err_is_mean_abs_log_ratio() {
        let cells = vec![
            ("sqlite".to_owned(), Abi::Hybrid, 100),
            ("sqlite".to_owned(), Abi::Purecap, 200),
            ("x264_525".to_owned(), Abi::Hybrid, 100),
            ("x264_525".to_owned(), Abi::Purecap, 120),
        ];
        let rows = slowdowns(&cells);
        assert_eq!(rows.len(), 2);
        let want = (2.0f64 / 1.612).ln().abs();
        assert!((paper_err(&rows) - want).abs() < 1e-12);
    }
}
