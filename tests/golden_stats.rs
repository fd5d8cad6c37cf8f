//! Golden-stats regression test: model output must not drift.
//!
//! The paper's headline numbers — Figure 7 (accuracy per predictor per
//! application) and Table 3 (coverage and correctly-predicted fraction)
//! — are regenerated by the `repro` binary, but nothing used to *fail*
//! when a refactor nudged them. This test renders the same
//! `fig7`/`table3` experiments the repro path uses (quick scale, so
//! `cargo test` stays fast), plus the integer counters of every
//! `(app, policy)` run behind Figure 9 and Table 5, and diffs them
//! against the checked-in fixture at `tests/fixtures/golden_stats.txt`.
//!
//! The simulation and the trace replay are fully deterministic, so the
//! comparison is exact: at 6 decimal places for the ratios, to the
//! cycle and the message for the runs. If a change *intentionally*
//! alters predictor behavior, regenerate the fixture with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_stats
//! ```
//!
//! and justify the diff in the commit that carries it.

use std::fmt::Write as _;

use specdsm_bench::{fig7, table3, AppId, Lab, Scale};
use specdsm_protocol::SpecPolicy;

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
    out.push_str("# run: exec cycles and message counts of each Lab::run.\n");
    for app in AppId::ALL {
        for policy in SpecPolicy::ALL {
            let r = lab.run(app, policy);
            let _ = writeln!(
                out,
                "run {app} {policy} exec={} remote={} reads={} writes={} upgrades={} \
                 sent={} unused={} verified={} dropped={} winv={} premature={}",
                r.exec_cycles,
                r.remote_messages,
                r.dir_reads,
                r.dir_writes,
                r.dir_upgrades,
                r.spec.total_sent(),
                r.spec.total_unused(),
                r.spec.verified,
                r.spec.dropped,
                r.spec.swi_inval_sent,
                r.spec.swi_inval_premature,
            );
        }
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
        // Line-by-line report so the drifted number is obvious, also
        // when one side has lines the other lacks.
        let mut want_lines = want.lines();
        for g in got.lines() {
            let w = want_lines.next().unwrap_or("<none>");
            if g != w {
                eprintln!("golden mismatch:\n  expected: {w}\n  actual:   {g}");
            }
        }
        for w in want_lines {
            eprintln!("golden mismatch:\n  expected: {w}\n  actual:   <none>");
        }
        panic!(
            "model output drifted from {FIXTURE}; if intentional, regenerate with \
             UPDATE_GOLDEN=1 cargo test --test golden_stats"
        );
    }
}
