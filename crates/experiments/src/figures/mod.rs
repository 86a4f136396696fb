//! One module per table/figure of the paper's evaluation.
//!
//! A sweep module only declares its bundled scenario(s) as data; the
//! engine runs them, and `reproduce` reports them by registry name
//! (column 3). The other modules compute and render their report
//! themselves.
//!
//! | Module | Paper content | Bundled scenarios |
//! |---|---|---|
//! | [`tables`] | Table 1 (expected CC directions), Table 2 (experiment sets) | |
//! | [`fig01`] | Figure 1: the six two-request cases where IOPS/BW/ARPT mislead | |
//! | [`fig02`] | Figure 2: the overlapped-time example (T = Δt1 + Δt2) | |
//! | [`fig03`] | Figure 3: the time-calculating algorithm on a sample trace | |
//! | [`fig04`] | Figure 4: CC across storage devices | `fig4` |
//! | [`fig05`] / [`fig06`] | Figures 5/6: CC across I/O sizes (HDD / SSD) | `fig5`, `fig6` |
//! | [`fig07`] / [`fig08`] | Figures 7/8: detail series (IOPS / ARPT vs exec time) | `fig7`, `fig8` |
//! | [`fig09`] / [`fig10`] | Figures 9/10: "pure" concurrency CC + ARPT detail | `fig9`, `fig10` |
//! | [`fig11`] | Figure 11: IOR shared-file concurrency CC | `fig11` |
//! | [`fig12`] | Figure 12: data-sieving additional-data-movement CC | `fig12` |
//! | [`summary`] | §IV.C.5: the cross-experiment summary, rendered over the [`summary::FIGURES`] | |
//! | [`extensions`] | future-work extension: optimization combos ranked by BPS, rendered over [`extensions::scenario`] (not in the registry) | |
//! | [`faults`] | extension (Set 5): CC under fault injection / degraded mode, plus its verdict line | `faults-<variety>` ×4 |
//! | [`overhead`] | §III.C: measurement overhead (space + time) | |
//! | [`writes`] | extension: the Set 2 sweep with sequential writes | `writes-hdd`, `writes-ssd` |

pub mod common;
pub mod extensions;
pub mod faults;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod overhead;
pub mod summary;
pub mod tables;
pub mod writes;

pub use common::{CcFigure, DetailSeries};
