//! Golden-stats regression test: predictor accuracy must not drift.
//!
//! The paper's headline numbers — Figure 7 (accuracy per predictor per
//! application) and Table 3 (coverage and correctly-predicted fraction)
//! — are regenerated by the `repro` binary, but nothing used to *fail*
//! when a refactor nudged them: drift only showed up if someone read
//! the BENCH json. This test renders the same `fig7`/`table3`
//! experiments the repro path uses (quick scale, so `cargo test` stays
//! fast) and diffs them against the checked-in fixture at
//! `tests/fixtures/golden_stats.txt`.
//!
//! The simulation and the trace replay are fully deterministic, so the
//! comparison is exact at 6 decimal places. If a change *intentionally*
//! alters predictor behavior, regenerate the fixture with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_stats
//! ```
//!
//! and justify the diff in the commit that carries it.

use std::fmt::Write as _;

use specdsm_bench::{fig7, table3, Lab, Scale};

const FIXTURE: &str = "tests/fixtures/golden_stats.txt";

fn render_golden() -> String {
    let mut lab = Lab::new(Scale::Quick);
    let mut out = String::new();
    out.push_str("# Golden predictor stats (quick scale, 16 nodes, depth 1).\n");
    out.push_str("# fig7: accuracy per predictor; table3: coverage/correct fraction.\n");
    out.push_str("# Regenerate with UPDATE_GOLDEN=1 cargo test --test golden_stats\n");
    for row in fig7(&mut lab) {
        let _ = writeln!(
            out,
            "fig7 {} cosmos={:.6} msp={:.6} vmsp={:.6}",
            row.app, row.accuracy[0], row.accuracy[1], row.accuracy[2]
        );
    }
    for row in table3(&mut lab) {
        let _ = write!(out, "table3 {}", row.app);
        for (name, (cov, correct)) in ["cosmos", "msp", "vmsp"].iter().zip(row.predicted) {
            let _ = write!(out, " {name}={cov:.6}/{correct:.6}");
        }
        out.push('\n');
    }
    out
}

#[test]
fn predictor_accuracy_matches_golden_fixture() {
    let got = render_golden();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
        eprintln!("regenerated {FIXTURE}");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .unwrap_or_else(|e| panic!("cannot read {FIXTURE}: {e}; regenerate with UPDATE_GOLDEN=1"));
    if got != want {
        // Line-by-line report so the drifted number is obvious.
        for (g, w) in got.lines().zip(want.lines()) {
            if g != w {
                eprintln!("golden mismatch:\n  expected: {w}\n  actual:   {g}");
            }
        }
        panic!(
            "predictor accuracy drifted from {FIXTURE}; if intentional, regenerate with \
             UPDATE_GOLDEN=1 cargo test --test golden_stats"
        );
    }
}
