//! # biot-bench
//!
//! Benchmark harness for the B-IoT reproduction. Each paper experiment
//! has one binary, its only front end (`cargo run -p biot-bench --release
//! --bin fig7` etc.): it runs the experiment's one definition (in
//! `biot_sim::experiments` for Figs 7–10 and A1–A2, in the binary for
//! the rest), prints its table and writes its CSV under `results/`.
//! Criterion benches cover the wall-clock-sensitive pieces.
//!
//! | Binary | Paper artifact | CSV |
//! |--------|----------------|-----|
//! | `fig7` | Fig 7 — PoW running time vs difficulty | `fig7.csv` |
//! | `fig8` | Fig 8 — credit traces under attacks | `fig8a.csv`, `fig8b.csv` |
//! | `fig9` | Fig 9 — four control experiments | `fig9.csv` |
//! | `fig10` | Fig 10 — AES time vs message length | `fig10.csv` |
//! | `keydist` | §VI-B key-distribution cost | — |
//! | `ablation_throughput` | A1 — tangle vs chain | `throughput.csv` |
//! | `ablation_policy` | A2 — difficulty-policy choice | — |
//! | `security_analysis` | A3 — §VI-C measured | — |
//! | `fleet` | A4 — fleet isolation | — |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scale;

/// Writes `results/{name}.csv` under the working directory (one header
/// line, then `rows`) and says so on stdout.
pub fn write_csv(
    name: &str,
    header: &str,
    rows: impl IntoIterator<Item = String>,
) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let path = format!("results/{name}.csv");
    let lines = std::iter::once(header.to_string()).chain(rows);
    std::fs::write(&path, lines.map(|l| l + "\n").collect::<String>())?;
    println!("wrote {path}");
    Ok(())
}

/// Prints a report header with a title and paper reference.
pub fn header(title: &str, paper_ref: &str) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!("reproduces: {paper_ref}");
    println!("{}", "=".repeat(72));
}

/// Prints an aligned row of labelled values.
pub fn row(cells: &[(&str, String)]) {
    let line: Vec<String> = cells
        .iter()
        .map(|(label, value)| format!("{label}={value}"))
        .collect();
    println!("  {}", line.join("  "));
}

/// Formats seconds with adaptive precision.
pub fn secs(v: f64) -> String {
    if v < 0.01 {
        format!("{:.5}s", v)
    } else if v < 10.0 {
        format!("{:.3}s", v)
    } else {
        format!("{:.1}s", v)
    }
}

/// Renders a crude ASCII sparkline of a series (for terminal-readable
/// figure shapes).
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| {
            let idx = (((v - min) / span) * (GLYPHS.len() - 1) as f64).round() as usize;
            GLYPHS[idx.min(GLYPHS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(0.0001), "0.00010s");
        assert_eq!(secs(1.5), "1.500s");
        assert_eq!(secs(245.3), "245.3s");
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }
}
