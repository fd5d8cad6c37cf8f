//! Experiment harness for the paper's evaluation section.
//!
//! One function per table/figure of the paper, each returning a
//! structured result that the `repro` binary renders as an aligned text
//! table mirroring the paper's rows and series:
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Figure 6 (analytic model, 4 panels) | [`fig6`] |
//! | Figure 7 (predictor accuracy, d=1) | [`fig7`] |
//! | Figure 8 (accuracy vs history depth) | [`fig8`] |
//! | Table 3 (messages predicted / correct) | [`table3`] |
//! | Table 4 (predictor storage) | [`table4`] |
//! | Figure 9 (speculative DSM execution time) | [`fig9`] |
//! | Table 5 (speculation frequencies) | [`table5`] |
//!
//! All simulation-backed experiments share per-app artifacts through
//! [`Lab`], which caches the Base-DSM directory trace and the three
//! system runs per application.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod experiments;
mod lab;
mod table;

pub use experiments::{
    fig6, fig7, fig8, fig9, table3, table4, table5, Fig7Row, Fig8Row, Fig9Row, Table3Row,
    Table4Row, Table5Row,
};
pub use lab::Lab;
pub use table::TextTable;

pub use specdsm_workloads::{AppId, Scale};
