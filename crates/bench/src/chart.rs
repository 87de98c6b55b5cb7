//! Terminal rendering: the harness prints every figure as an ASCII
//! chart or table with the same rows/series the paper plots.

use perfvec::predict::EvalRow;

/// Render the Figure 3/4/5-style per-program error chart: one bar per
/// program (mean error across microarchitectures), with std and min/max
/// annotations — the dots and caps of the paper's figures.
pub fn error_chart(title: &str, rows: &[EvalRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let max_err = rows.iter().map(|r| r.max).fold(0.05f64, f64::max);
    for r in rows {
        let bar_len = ((r.mean / max_err) * 40.0).round() as usize;
        out.push_str(&format!(
            "{:<24} {:>6} |{}{}| {}\n",
            r.program,
            if r.seen { "seen" } else { "unseen" },
            "#".repeat(bar_len.min(40)),
            " ".repeat(40usize.saturating_sub(bar_len)),
            &format!(
                "mean {:5.1}%  std {:5.1}%  min {:5.1}%  max {:5.1}%",
                r.mean * 100.0,
                r.std * 100.0,
                r.min * 100.0,
                r.max * 100.0
            ),
        ));
    }
    out
}

/// Render a labelled bar chart of (label, value in `[0, 1]`) pairs — the
/// Figure 6 style.
pub fn bar_chart(title: &str, unit: &str, series: &[(String, f64)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let max = series.iter().map(|(_, v)| *v).fold(1e-12f64, f64::max);
    for (label, v) in series {
        let bar = ((v / max) * 40.0).round() as usize;
        out.push_str(&format!(
            "{:<20} |{}{}| {:6.2}{}\n",
            label,
            "#".repeat(bar.min(40)),
            " ".repeat(40usize.saturating_sub(bar)),
            v,
            unit
        ));
    }
    out
}

/// Render a 2-D surface (Figure 7 style) as a grid of numbers with row
/// and column labels.
pub fn surface(
    title: &str,
    row_labels: &[String],
    col_labels: &[String],
    values: &[f64],
) -> String {
    assert_eq!(values.len(), row_labels.len() * col_labels.len());
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!("{:>10}", ""));
    for c in col_labels {
        out.push_str(&format!("{c:>9}"));
    }
    out.push('\n');
    for (r, rl) in row_labels.iter().enumerate() {
        out.push_str(&format!("{rl:>10}"));
        for c in 0..col_labels.len() {
            out.push_str(&format!("{:>9.2}", values[r * col_labels.len() + c]));
        }
        out.push('\n');
    }
    out
}

/// Render two aligned series (Figure 8 style: simulated vs predicted).
pub fn dual_series(
    title: &str,
    labels: &[String],
    a_name: &str,
    a: &[f64],
    b_name: &str,
    b: &[f64],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let max = a.iter().chain(b).fold(1e-12f64, |m, &v| m.max(v));
    for i in 0..labels.len() {
        let abar = ((a[i] / max) * 30.0).round() as usize;
        let bbar = ((b[i] / max) * 30.0).round() as usize;
        out.push_str(&format!(
            "{:<8} {a_name:>9} |{}{}| {:8.3}\n",
            labels[i],
            "#".repeat(abar.min(30)),
            " ".repeat(30usize.saturating_sub(abar)),
            a[i]
        ));
        out.push_str(&format!(
            "{:<8} {b_name:>9} |{}{}| {:8.3}\n",
            "",
            "*".repeat(bbar.min(30)),
            " ".repeat(30usize.saturating_sub(bbar)),
            b[i]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_chart_contains_all_programs() {
        let rows = vec![
            EvalRow {
                program: "a".into(),
                seen: true,
                mean: 0.05,
                std: 0.01,
                min: 0.0,
                max: 0.2,
            },
            EvalRow {
                program: "b".into(),
                seen: false,
                mean: 0.12,
                std: 0.02,
                min: 0.01,
                max: 0.4,
            },
        ];
        let s = error_chart("t", &rows);
        assert!(s.contains("a") && s.contains("b"));
        assert!(s.contains("seen") && s.contains("unseen"));
        assert!(s.contains("12.0%"));
    }

    #[test]
    fn surface_is_rectangular() {
        let s = surface(
            "obj",
            &["r0".into(), "r1".into()],
            &["c0".into(), "c1".into(), "c2".into()],
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        );
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn dual_series_renders_both() {
        let s = dual_series(
            "t",
            &["1".into(), "2".into()],
            "gem5",
            &[1.0, 0.5],
            "perfvec",
            &[0.9, 0.6],
        );
        assert!(s.contains("gem5") && s.contains("perfvec"));
    }
}
