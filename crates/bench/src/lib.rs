//! Shared helpers for the benchmark harness: table rendering and run
//! orchestration used by the figure-regeneration binaries, and the one
//! report every `*_bench` binary writes ([`report`]).

#![deny(missing_docs)]

pub mod harness;
pub mod perf_grid;
pub mod report;

use std::path::Path;

use litmus::parse::{parse_litmus_dir, LoadError};
use litmus::{corpus, Program};

/// The DRF0 sweep `explore_bench` and `axiom_bench` both run: the in-tree
/// corpus suites (`corpus/…`), then every shipped `.litmus` file
/// (`file/…`, hand-written and generator-exported) under `corpus_dir`,
/// by default the repository's `litmus-tests/`.
///
/// # Errors
///
/// Returns the [`LoadError`] of a litmus directory or file that cannot be
/// read or parsed.
pub fn workload(corpus_dir: Option<&Path>) -> Result<Vec<(String, Program)>, LoadError> {
    let mut programs: Vec<(String, Program)> = corpus::drf0_suite()
        .into_iter()
        .chain(corpus::racy_suite())
        .map(|(name, p)| (format!("corpus/{name}"), p))
        .collect();
    let default_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../litmus-tests");
    for (path, program) in parse_litmus_dir(corpus_dir.unwrap_or(&default_dir))? {
        let stem = path.file_stem().expect("litmus files have names").to_string_lossy();
        programs.push((format!("file/{stem}"), program));
    }
    Ok(programs)
}

/// Renders an aligned text table: header row plus data rows.
///
/// # Examples
///
/// ```
/// let t = wo_bench::table(
///     &["policy", "cycles"],
///     &[vec!["SC".into(), "120".into()], vec!["WO-Def2".into(), "80".into()]],
/// );
/// assert!(t.contains("SC"));
/// assert!(t.lines().count() >= 4);
/// ```
#[must_use]
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:<width$}", width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = header.iter().map(|s| (*s).to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Writes `rows` (with `header`) as a CSV file under
/// `target/wo-results/<name>.csv`, creating the directory as needed, and
/// returns the path. Cells containing commas or quotes are quoted.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv(
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write as _;
    let dir = std::path::Path::new("target").join("wo-results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut file = std::fs::File::create(&path)?;
    let escape = |cell: &str| -> String {
        if cell.contains(',') || cell.contains('"') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    writeln!(file, "{}", header.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","))?;
    for row in rows {
        writeln!(
            file,
            "{}",
            row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
        )?;
    }
    Ok(path)
}

/// Geometric-mean helper for speedup summaries.
///
/// # Panics
///
/// Panics if `xs` is empty or contains a non-positive value.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    assert!(xs.iter().all(|&x| x > 0.0), "geomean needs positive values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["a", "bbbb"],
            &[vec!["xxxx".into(), "y".into()], vec!["z".into(), "w".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a     bbbb"));
        assert!(lines[2].starts_with("xxxx  y"));
    }

    #[test]
    fn write_csv_round_trips() {
        let path = write_csv(
            "unit_test_output",
            &["a", "b"],
            &[vec!["1".into(), "two, quoted \"x\"".into()]],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("a,b\n"));
        assert!(text.contains("\"two, quoted \"\"x\"\"\""));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn geomean_of_identity() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        let _ = geomean(&[1.0, 0.0]);
    }
}
