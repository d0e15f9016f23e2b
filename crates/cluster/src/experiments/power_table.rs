//! Table VI: per-rail power for the five steady workloads plus the two
//! boot regions, measured from noisy traces exactly as the paper's DAQ
//! does (rather than read out of the calibrated model directly).

use cimone_soc::boot::BootSequence;
use cimone_soc::power::PowerModel;
use cimone_soc::rails::Rail;
use cimone_soc::units::{Celsius, Power, SimDuration};
use cimone_soc::workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::render_table;

/// One measured cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCell {
    /// Mean power over the trace.
    pub power: Power,
    /// Share of the column total, percent.
    pub percent: f64,
}

/// The measured table.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTableResult {
    /// Rows: one per rail, columns in `Workload::ALL` order.
    pub workload_cells: Vec<[PowerCell; 5]>,
    /// Boot R1/R2 cells per rail.
    pub boot_cells: Vec<[Power; 2]>,
    /// Column totals for the workloads.
    pub totals: [Power; 5],
    /// Boot column totals.
    pub boot_totals: [Power; 2],
}

/// Measures the table from `trace_secs` of 1 ms-window telemetry per
/// workload at 45 °C nominal silicon temperature.
///
/// # Panics
///
/// Panics if `trace_secs` is zero.
///
/// # Examples
///
/// ```
/// use cimone_cluster::experiments::power_table;
///
/// let table = power_table::run(2, 42);
/// // Idle total: 4.810 W.
/// assert!((table.totals[0].as_watts() - 4.810).abs() < 0.01);
/// ```
pub fn run(trace_secs: u64, seed: u64) -> PowerTableResult {
    assert!(trace_secs > 0, "need a non-empty trace");
    let model = PowerModel::u740();
    let boot = BootSequence::u740_default();
    let mut rng = StdRng::seed_from_u64(seed);
    let temp = Celsius::new(45.0);
    let window = SimDuration::from_millis(1);

    // Workload columns from noisy traces.
    let mut per_rail_means = vec![[Power::ZERO; 5]; Rail::ALL.len()];
    let mut totals = [Power::ZERO; 5];
    for (w_idx, workload) in Workload::ALL.into_iter().enumerate() {
        let trace = model.trace(
            workload,
            SimDuration::from_secs(trace_secs),
            window,
            temp,
            &mut rng,
        );
        for rail in Rail::ALL {
            let mean = trace.rail_mean(rail);
            per_rail_means[rail.index()][w_idx] = mean;
            totals[w_idx] += mean;
        }
    }
    let workload_cells: Vec<[PowerCell; 5]> = per_rail_means
        .iter()
        .map(|row| {
            let mut cells = [PowerCell {
                power: Power::ZERO,
                percent: 0.0,
            }; 5];
            for (w, mean) in row.iter().enumerate() {
                cells[w] = PowerCell {
                    power: *mean,
                    percent: mean.as_milliwatts() / totals[w].as_milliwatts() * 100.0,
                };
            }
            cells
        })
        .collect();

    // Boot columns from a boot trace: average inside R1 and R2 windows.
    let boot_trace = boot.trace(
        &model,
        SimDuration::from_secs(40),
        SimDuration::from_millis(10),
        &mut rng,
    );
    let window_us = 10_000u64;
    let region_mean = |rail: Rail, from_s: u64, to_s: u64| -> Power {
        let (from, to) = (
            (from_s * 1_000_000 / window_us) as usize,
            (to_s * 1_000_000 / window_us) as usize,
        );
        let series = boot_trace.rail_series(rail);
        let slice = &series[from..to.min(series.len())];
        let sum: f64 = slice.iter().map(|p| p.as_milliwatts()).sum();
        Power::from_milliwatts(sum / slice.len() as f64)
    };
    let mut boot_cells = Vec::new();
    let mut boot_totals = [Power::ZERO; 2];
    for rail in Rail::ALL {
        // R1 spans 4–10 s; R2's flat region spans 10–30 s (the ramp to the
        // OS level occupies 30–40 s).
        let r1 = region_mean(rail, 5, 9);
        let r2 = region_mean(rail, 11, 29);
        boot_totals[0] += r1;
        boot_totals[1] += r2;
        boot_cells.push([r1, r2]);
    }

    PowerTableResult {
        workload_cells,
        boot_cells,
        totals,
        boot_totals,
    }
}

impl PowerTableResult {
    /// Renders the table in the paper's layout (mW and %).
    pub fn render(&self) -> String {
        let mut out = String::from("Table VI — Power consumption (measured from traces)\n");
        let headers = [
            "Line", "Idle", "%", "HPL", "%", "S.L2", "%", "S.DDR", "%", "QE", "%", "R1", "R2",
        ];
        let mut rows = Vec::new();
        for (rail_idx, rail) in Rail::ALL.into_iter().enumerate() {
            let mut row = vec![rail.name().to_owned()];
            for cell in &self.workload_cells[rail_idx] {
                row.push(format!("{:.0}", cell.power.as_milliwatts()));
                row.push(format!("{:.0}", cell.percent));
            }
            row.push(format!(
                "{:.0}",
                self.boot_cells[rail_idx][0].as_milliwatts()
            ));
            row.push(format!(
                "{:.0}",
                self.boot_cells[rail_idx][1].as_milliwatts()
            ));
            rows.push(row);
        }
        let mut total_row = vec!["Total".to_owned()];
        for t in self.totals {
            total_row.push(format!("{:.0}", t.as_milliwatts()));
            total_row.push("100".to_owned());
        }
        total_row.push(format!("{:.0}", self.boot_totals[0].as_milliwatts()));
        total_row.push(format!("{:.0}", self.boot_totals[1].as_milliwatts()));
        rows.push(total_row);
        out.push_str(&render_table(&headers, &rows));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimone_soc::power::{table_vi_boot_mean, table_vi_mean, BootColumn};

    #[test]
    fn measured_cells_match_the_paper_within_noise() {
        let table = run(2, 2022);
        for (rail_idx, rail) in Rail::ALL.into_iter().enumerate() {
            for (w_idx, workload) in Workload::ALL.into_iter().enumerate() {
                let measured = table.workload_cells[rail_idx][w_idx].power.as_milliwatts();
                let paper = table_vi_mean(rail, workload).as_milliwatts();
                assert!(
                    (measured - paper).abs() < 2.0,
                    "{rail}/{workload}: {measured} vs {paper}"
                );
            }
            for (b_idx, col) in [BootColumn::R1, BootColumn::R2].into_iter().enumerate() {
                let measured = table.boot_cells[rail_idx][b_idx].as_milliwatts();
                let paper = table_vi_boot_mean(rail, col).as_milliwatts();
                assert!(
                    (measured - paper).abs() < 3.0,
                    "{rail}/{col:?}: {measured} vs {paper}"
                );
            }
        }
    }

    #[test]
    fn totals_match_the_paper_bottom_row() {
        let table = run(2, 11);
        let expected = [4810.0, 5935.0, 5486.0, 5336.0, 5670.0];
        for (t, e) in table.totals.iter().zip(expected) {
            assert!((t.as_milliwatts() - e).abs() < 6.0, "{t} vs {e}");
        }
        assert!((table.boot_totals[0].as_milliwatts() - 1385.0).abs() < 8.0);
        assert!((table.boot_totals[1].as_milliwatts() - 4024.0).abs() < 8.0);
    }

    #[test]
    fn headline_shares_hold() {
        // Idle: 64 % core, HPL: 69 % core.
        let table = run(2, 5);
        let core_idle = table.workload_cells[0][0].percent;
        let core_hpl = table.workload_cells[0][1].percent;
        assert!((core_idle - 64.0).abs() < 1.0, "idle core {core_idle}%");
        assert!((core_hpl - 69.0).abs() < 1.0, "hpl core {core_hpl}%");
    }

    #[test]
    fn render_has_one_row_per_rail_plus_total() {
        let text = run(1, 3).render();
        let data_lines = text.lines().count();
        // title + header + rule + 9 rails + total
        assert_eq!(data_lines, 13, "{text}");
        assert!(text.contains("ddr_vpp"));
        assert!(text.contains("Total"));
    }
}
