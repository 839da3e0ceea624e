//! Runners regenerating the paper's tables and figures.

use crate::fmt::{f2, print_table, secs};
use nomp::OmpConfig;
use now_apps::common::{Report, VersionKind};
use now_apps::{fft3d, qsort, sweep3d, tsp, water};
use nowmpi::MpiConfig;
use tmk::TmkConfig;

/// The five applications.
pub const APPS: [&str; 5] = ["Sweep3D", "3D-FFT", "Water", "TSP", "QSORT"];

/// One experiment campaign: workload sizes + platform model.
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    /// Sweep3D workload.
    pub sweep: sweep3d::SweepConfig,
    /// 3D-FFT workload.
    pub fft: fft3d::FftConfig,
    /// Water workload.
    pub water: water::WaterConfig,
    /// TSP workload.
    pub tsp: tsp::TspConfig,
    /// QSORT workload.
    pub qsort: qsort::QsortConfig,
    /// Workstations for the parallel runs.
    pub nodes: usize,
    /// Virtual CPU slowdown (Pentium Pro model).
    pub compute_scale: f64,
}

impl Campaign {
    /// Paper-scale workloads on the 8-node platform.
    pub fn paper() -> Self {
        Campaign {
            sweep: sweep3d::SweepConfig::paper(),
            fft: fft3d::FftConfig::paper(),
            water: water::WaterConfig::paper(),
            tsp: tsp::TspConfig::paper(),
            qsort: qsort::QsortConfig::paper(),
            nodes: 8,
            compute_scale: 240.0,
        }
    }

    /// Reduced workloads for quick runs / CI.
    pub fn quick() -> Self {
        Campaign {
            sweep: sweep3d::SweepConfig::test(),
            fft: fft3d::FftConfig::test(),
            water: water::WaterConfig::test(),
            tsp: tsp::TspConfig::test(),
            qsort: qsort::QsortConfig::test(),
            nodes: 4,
            compute_scale: 240.0,
        }
    }

    fn omp_cfg(&self) -> OmpConfig {
        let mut c = OmpConfig::paper(self.nodes);
        c.tmk.net.compute_scale = self.compute_scale;
        c
    }

    fn tmk_cfg(&self) -> TmkConfig {
        let mut c = TmkConfig::paper(self.nodes);
        c.net.compute_scale = self.compute_scale;
        c
    }

    fn mpi_cfg(&self) -> MpiConfig {
        let mut c = MpiConfig::paper(self.nodes);
        c.net.compute_scale = self.compute_scale;
        c
    }

    /// Run one app version; `app` is one of [`APPS`].
    pub fn run(&self, app: &str, version: VersionKind) -> Report {
        let s = self.compute_scale;
        match (app, version) {
            ("Sweep3D", VersionKind::Seq) => sweep3d::run_seq(&self.sweep, s),
            ("Sweep3D", VersionKind::Omp) => sweep3d::run_omp(&self.sweep, self.omp_cfg()),
            ("Sweep3D", VersionKind::Tmk) => sweep3d::run_tmk(&self.sweep, self.tmk_cfg()),
            ("Sweep3D", VersionKind::Mpi) => sweep3d::run_mpi(&self.sweep, self.mpi_cfg()),
            ("3D-FFT", VersionKind::Seq) => fft3d::run_seq(&self.fft, s),
            ("3D-FFT", VersionKind::Omp) => fft3d::run_omp(&self.fft, self.omp_cfg()),
            ("3D-FFT", VersionKind::Tmk) => fft3d::run_tmk(&self.fft, self.tmk_cfg()),
            ("3D-FFT", VersionKind::Mpi) => fft3d::run_mpi(&self.fft, self.mpi_cfg()),
            ("Water", VersionKind::Seq) => water::run_seq(&self.water, s),
            ("Water", VersionKind::Omp) => water::run_omp(&self.water, self.omp_cfg()),
            ("Water", VersionKind::Tmk) => water::run_tmk(&self.water, self.tmk_cfg()),
            ("Water", VersionKind::Mpi) => water::run_mpi(&self.water, self.mpi_cfg()),
            ("TSP", VersionKind::Seq) => tsp::run_seq(&self.tsp, s),
            ("TSP", VersionKind::Omp) => tsp::run_omp(&self.tsp, self.omp_cfg()),
            ("TSP", VersionKind::Tmk) => tsp::run_tmk(&self.tsp, self.tmk_cfg()),
            ("TSP", VersionKind::Mpi) => tsp::run_mpi(&self.tsp, self.mpi_cfg()),
            ("QSORT", VersionKind::Seq) => qsort::run_seq(&self.qsort, s),
            ("QSORT", VersionKind::Omp) => qsort::run_omp(&self.qsort, self.omp_cfg()),
            ("QSORT", VersionKind::Tmk) => qsort::run_tmk(&self.qsort, self.tmk_cfg()),
            ("QSORT", VersionKind::Mpi) => qsort::run_mpi(&self.qsort, self.mpi_cfg()),
            _ => panic!("unknown app {app}"),
        }
    }

    fn data_size(&self, app: &str) -> String {
        match app {
            "Sweep3D" => format!(
                "{}x{}x{} grid, {} angles",
                self.sweep.nx, self.sweep.ny, self.sweep.nz, self.sweep.n_ang
            ),
            "3D-FFT" => format!(
                "{}x{}x{}, {} iters",
                self.fft.nx, self.fft.ny, self.fft.nz, self.fft.iters
            ),
            "Water" => format!("{} molecules, {} steps", self.water.n_mol, self.water.steps),
            "TSP" => format!("{} cities", self.tsp.n_cities),
            "QSORT" => {
                format!(
                    "{}K integers, bubble {}",
                    self.qsort.n / 1024,
                    self.qsort.bubble_threshold
                )
            }
            _ => String::new(),
        }
    }

    fn directives(&self, app: &str) -> (&'static str, &'static str) {
        match app {
            "Sweep3D" => ("parallel region", "semaphore"),
            "3D-FFT" => ("parallel do", "none"),
            "Water" => ("parallel do/region", "barrier"),
            "TSP" => ("parallel region", "critical"),
            "QSORT" => ("parallel region", "critical, condition variable"),
            _ => ("", ""),
        }
    }
}

/// Table 1: data sizes, sequential times and directives.
pub fn table1(c: &Campaign) -> Vec<Report> {
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for app in APPS {
        let r = c.run(app, VersionKind::Seq);
        let (par, sync) = c.directives(app);
        rows.push(vec![
            app.to_string(),
            c.data_size(app),
            secs(r.vt_ns),
            par.to_string(),
            sync.to_string(),
        ]);
        reports.push(r);
    }
    print_table(
        "Table 1: applications, data sets, sequential time (model seconds), directives",
        &[
            "Application",
            "Data size",
            "Seq time",
            "Parallel",
            "Synchronization",
        ],
        &rows,
    );
    reports
}

/// Figure 5: speedups on `c.nodes` workstations for OpenMP/Tmk/MPI.
/// Returns (app, speedups[omp, tmk, mpi]) plus the raw reports.
pub fn figure5(c: &Campaign) -> Vec<(String, [Report; 3], Report)> {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for app in APPS {
        let seq = c.run(app, VersionKind::Seq);
        let omp = c.run(app, VersionKind::Omp);
        let tmkr = c.run(app, VersionKind::Tmk);
        let mpi = c.run(app, VersionKind::Mpi);
        rows.push(vec![
            app.to_string(),
            f2(omp.speedup_vs(&seq)),
            f2(tmkr.speedup_vs(&seq)),
            f2(mpi.speedup_vs(&seq)),
        ]);
        out.push((app.to_string(), [omp, tmkr, mpi], seq));
    }
    print_table(
        &format!("Figure 5: speedup on {} workstations", c.nodes),
        &["Application", "OpenMP", "Tmk", "MPI"],
        &rows,
    );
    out
}

/// Table 2: data (MBytes) and messages for the three parallel versions.
/// Reuses the reports from a Figure 5 run if provided.
pub fn table2(c: &Campaign, fig5: Option<&[(String, [Report; 3], Report)]>) {
    let owned;
    let data = match fig5 {
        Some(d) => d,
        None => {
            owned = figure5(c);
            &owned
        }
    };
    let rows: Vec<Vec<String>> = data
        .iter()
        .map(|(app, [omp, tmkr, mpi], _)| {
            vec![
                app.clone(),
                f2(omp.mbytes()),
                f2(tmkr.mbytes()),
                f2(mpi.mbytes()),
                omp.msgs.to_string(),
                tmkr.msgs.to_string(),
                mpi.msgs.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 2: data transmitted (MBytes) and messages",
        &[
            "Application",
            "MB OpenMP",
            "MB Tmk",
            "MB MPI",
            "Msg OpenMP",
            "Msg Tmk",
            "Msg MPI",
        ],
        &rows,
    );
}

/// Ablation: Figure 5 speedups across compute-scale factors, showing the
/// conclusions are robust to the virtual-CPU calibration.
pub fn scale_sweep(base: &Campaign, scales: &[f64]) {
    let mut rows = Vec::new();
    for &s in scales {
        let mut c = *base;
        c.compute_scale = s;
        for app in APPS {
            let seq = c.run(app, VersionKind::Seq);
            let omp = c.run(app, VersionKind::Omp);
            let mpi = c.run(app, VersionKind::Mpi);
            rows.push(vec![
                format!("{s:.0}x"),
                app.to_string(),
                f2(omp.speedup_vs(&seq)),
                f2(mpi.speedup_vs(&seq)),
            ]);
        }
    }
    print_table(
        "Ablation: speedup sensitivity to the CPU scale factor",
        &["Scale", "Application", "OpenMP", "MPI"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2's shape: message passing sends fewer messages and fewer
    /// bytes than either DSM version, on every application.
    #[test]
    fn mpi_sends_less_than_both_dsm_versions() {
        let c = Campaign::quick();
        assert_eq!(c.nodes, 4);
        for app in APPS {
            let [omp, tmkr, mpi] =
                [VersionKind::Omp, VersionKind::Tmk, VersionKind::Mpi].map(|v| c.run(app, v));
            for r in [&omp, &tmkr, &mpi] {
                assert!(
                    r.msgs > 0 && r.bytes > 0,
                    "{app} {:?}: no traffic",
                    r.version
                );
            }
            for dsm in [&omp, &tmkr] {
                assert!(
                    mpi.msgs < dsm.msgs && mpi.bytes < dsm.bytes,
                    "{app}: MPI {}/{} B vs {:?} {}/{} B",
                    mpi.msgs,
                    mpi.bytes,
                    dsm.version,
                    dsm.msgs,
                    dsm.bytes
                );
            }
        }
    }
}
