//! # grinch-bench
//!
//! Experiment harness for the GRINCH reproduction: eight binaries that
//! regenerate each table and figure of the paper and its extensions —
//! `fig3`, `table1`, `table2`, `countermeasures`, `analysis`, `hierarchy`,
//! `noise` and `present_compare` — plus shared formatting helpers, and
//! Criterion benches timing the attack primitives. Each binary records into
//! [`grinch_obs::bench_telemetry_for`] and writes its run artifacts with
//! [`grinch_obs::emit_telemetry_report`].

use grinch::experiments::CellResult;

/// Times one section of a bench binary for the report's wall block.
///
/// ```ignore
/// let timer = WallTimer::start("cells");
/// // ... run the experiment grid ...
/// let wall = [timer.stop(cells_done as f64)];
/// grinch_obs::emit_telemetry_report(&telemetry, "fig3", &wall);
/// ```
pub struct WallTimer {
    name: &'static str,
    started: std::time::Instant,
}

impl WallTimer {
    /// Starts timing a section.
    pub fn start(name: &'static str) -> Self {
        Self {
            name,
            started: std::time::Instant::now(),
        }
    }

    /// Stops the timer; `units` is the amount of work the section did
    /// (cells, recoveries, ...), from which the throughput is derived.
    pub fn stop(self, units: f64) -> grinch_obs::WallSection {
        grinch_obs::WallSection::new(self.name, self.started.elapsed().as_nanos() as u64, units)
    }
}

/// Formats an encryption-count cell the way the paper prints it: plain
/// numbers with thousands separators, `>cap` for drop-outs.
pub fn format_cell(result: &CellResult) -> String {
    match result {
        CellResult::Recovered(n) => group_thousands(*n),
        CellResult::DropOut(cap) => format!(">{}", group_thousands(*cap)),
    }
}

/// Inserts `,` thousands separators.
pub fn group_thousands(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Renders a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_grouping() {
        assert_eq!(group_thousands(0), "0");
        assert_eq!(group_thousands(999), "999");
        assert_eq!(group_thousands(1_000), "1,000");
        assert_eq!(group_thousands(188_536), "188,536");
        assert_eq!(group_thousands(1_000_000), "1,000,000");
    }

    #[test]
    fn cell_formatting_matches_paper_style() {
        assert_eq!(format_cell(&CellResult::Recovered(96)), "96");
        assert_eq!(format_cell(&CellResult::DropOut(1_000_000)), ">1,000,000");
    }

    #[test]
    fn rows_are_right_aligned() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
