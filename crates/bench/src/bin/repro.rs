//! `repro` — regenerate every table and figure of the paper's
//! evaluation section.
//!
//! ```text
//! repro [EXPERIMENT ...] [--scale quick|default|paper] [--out DIR]
//!
//! EXPERIMENT: config fig6 fig7 fig8 table3 table4 fig9 table5 all
//!             detail ablation
//!             (default: all = the eight paper experiments)
//! ```
//!
//! Every argument is checked before any experiment runs: a bad name or
//! option, or an `--out` directory that cannot be created, exits with
//! status 2 and no output.
//!
//! Output goes to stdout and, with `--out`, one text file per
//! experiment in DIR. A file that cannot be written exits with status 1.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use specdsm_bench::{fig6, fig7, fig8, fig9, table3, table4, table5, Lab, Scale, TextTable};
use specdsm_protocol::SpecPolicy;
use specdsm_types::MachineConfig;
use specdsm_workloads::AppId;

/// The paper's evaluation, in output order: what `all` (or no
/// experiment at all) runs.
const PAPER_EXPERIMENTS: [&str; 8] = [
    "config", "fig6", "fig7", "fig8", "table3", "table4", "fig9", "table5",
];

/// Diagnostic experiments outside the paper set, run only by name.
const EXTRA_EXPERIMENTS: [&str; 2] = ["detail", "ablation"];

const USAGE: &str =
    "usage: repro [config|fig6|fig7|fig8|table3|table4|fig9|table5|all|detail|ablation ...] \
                     [--scale quick|default|paper] [--out DIR]";

/// A fully validated command line.
#[derive(Debug, PartialEq)]
struct Args {
    /// Experiments to run, in order, with `all` already expanded.
    experiments: Vec<String>,
    scale: Scale,
    out_dir: Option<PathBuf>,
    /// `--help` was given: print usage and run nothing.
    help: bool,
}

/// Parses and checks the whole command line up front, so a bad
/// argument is reported before any experiment starts.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut experiments: Vec<String> = Vec::new();
    let mut scale = Scale::Default;
    let mut out_dir: Option<PathBuf> = None;

    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => {
                let v = argv.next().unwrap_or_default();
                scale = match v.as_str() {
                    "quick" => Scale::Quick,
                    "default" => Scale::Default,
                    "paper" => Scale::Paper,
                    other => return Err(format!("unknown scale '{other}' (quick|default|paper)")),
                };
            }
            "--out" => {
                let dir = argv.next().ok_or("--out needs a directory")?;
                out_dir = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                return Ok(Args {
                    experiments: Vec::new(),
                    scale,
                    out_dir,
                    help: true,
                });
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}'"));
            }
            other => {
                let known = other == "all"
                    || PAPER_EXPERIMENTS.contains(&other)
                    || EXTRA_EXPERIMENTS.contains(&other);
                if !known {
                    return Err(format!("unknown experiment '{other}'"));
                }
                experiments.push(other.to_string());
            }
        }
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        experiments = PAPER_EXPERIMENTS.iter().map(ToString::to_string).collect();
    }
    Ok(Args {
        experiments,
        scale,
        out_dir,
        help: false,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if args.help {
        println!("{USAGE}");
        return;
    }
    if let Some(dir) = &args.out_dir {
        if let Err(e) = create_out_dir(dir) {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }

    let mut lab = Lab::new(args.scale);
    for exp in &args.experiments {
        let text = match exp.as_str() {
            "config" => render_config(),
            "fig6" => render_fig6(),
            "fig7" => render_fig7(&mut lab),
            "fig8" => render_fig8(&mut lab),
            "table3" => render_table3(&mut lab),
            "table4" => render_table4(&mut lab),
            "fig9" => render_fig9(&mut lab),
            "table5" => render_table5(&mut lab),
            "detail" => render_detail(&mut lab),
            "ablation" => render_ablation(args.scale),
            other => unreachable!("parse_args admitted unknown experiment '{other}'"),
        };
        println!("{text}");
        if let Some(dir) = &args.out_dir {
            let path = dir.join(format!("{exp}.txt"));
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("repro: cannot write '{}': {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// Creates the `--out` directory, or returns the one-line message
/// `main` prints before it exits.
fn create_out_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| {
        format!(
            "repro: cannot create output directory '{}': {e}",
            dir.display()
        )
    })
}

fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

fn render_detail(lab: &mut Lab) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Diagnostic detail per app/system ==");
    let mut t = TextTable::new([
        "app",
        "system",
        "exec",
        "avg req wait",
        "dir reads",
        "dir writes",
        "dir upgr",
        "remote msgs",
        "ni wait",
        "mem wait",
        "mem busy",
        "spec sent",
        "spec drop",
        "unused",
        "winv",
        "premature",
    ]);
    for app in AppId::ALL {
        for policy in SpecPolicy::ALL {
            let r = lab.run(app, policy).clone();
            t.row([
                app.to_string(),
                policy.to_string(),
                r.exec_cycles.to_string(),
                format!("{:.0}", r.avg_mem_wait()),
                r.dir_reads.to_string(),
                r.dir_writes.to_string(),
                r.dir_upgrades.to_string(),
                r.remote_messages.to_string(),
                r.ni_wait_cycles.to_string(),
                r.mem_wait_cycles.to_string(),
                r.mem_busy_cycles.to_string(),
                r.spec.total_sent().to_string(),
                r.spec.dropped.to_string(),
                r.spec.total_unused().to_string(),
                r.spec.swi_inval_sent.to_string(),
                r.spec.swi_inval_premature.to_string(),
            ]);
        }
    }
    let _ = write!(s, "{t}");
    s
}

fn render_ablation(scale: Scale) -> String {
    use specdsm_protocol::{System, SystemConfig};

    let mut s = String::new();
    let machine = MachineConfig::paper_machine();

    let run = |machine: MachineConfig, policy: SpecPolicy, depth: usize, app: AppId| {
        let w = app.build(&machine, scale);
        let cfg = SystemConfig {
            machine,
            policy,
            predictor_depth: depth,
            ..SystemConfig::default()
        };
        System::new(cfg, w.as_ref()).expect("valid").run()
    };

    // Ablation 1: online predictor depth in SWI-DSM. The paper uses
    // depth 1; deeper history trades learning speed for accuracy.
    let _ = writeln!(s, "== Ablation: online VMSP history depth (SWI-DSM) ==");
    let mut t = TextTable::new([
        "application",
        "d=1 exec %",
        "d=2 exec %",
        "d=4 exec %",
        "d=1 acc %",
        "d=2 acc %",
        "d=4 acc %",
    ]);
    for app in [AppId::Em3d, AppId::Unstructured, AppId::Appbt] {
        let base = run(machine.clone(), SpecPolicy::Base, 1, app).exec_cycles as f64;
        let mut cells = vec![app.to_string()];
        let runs: Vec<_> = [1usize, 2, 4]
            .iter()
            .map(|&d| run(machine.clone(), SpecPolicy::SwiFr, d, app))
            .collect();
        for r in &runs {
            cells.push(format!("{:.1}", 100.0 * r.exec_cycles as f64 / base));
        }
        for r in &runs {
            let acc = r.predictor.map_or(0.0, |p| p.accuracy());
            cells.push(pct(acc));
        }
        t.row(cells);
    }
    let _ = writeln!(s, "{t}");

    // Ablation 2: remote-to-local ratio. The analytic model (Figure 6,
    // bottom-right) predicts clusters (high rtl) gain the most from
    // speculation; verify with the real simulator by scaling the
    // network hop latency.
    let _ = writeln!(
        s,
        "== Ablation: speculation gain vs remote-to-local ratio (em3d, SWI-DSM) =="
    );
    let mut t2 = TextTable::new(["net hop", "rtl", "Base exec", "SWI exec", "speedup"]);
    for hop in [20u64, 80, 240] {
        let mut m = machine.clone();
        m.latency.net_hop = hop;
        let base = run(m.clone(), SpecPolicy::Base, 1, AppId::Em3d).exec_cycles;
        let swi = run(m.clone(), SpecPolicy::SwiFr, 1, AppId::Em3d).exec_cycles;
        t2.row([
            hop.to_string(),
            format!("{:.1}", m.remote_to_local_ratio()),
            base.to_string(),
            swi.to_string(),
            format!("{:.2}x", base as f64 / swi as f64),
        ]);
    }
    let _ = write!(s, "{t2}");
    s
}

fn render_config() -> String {
    let m = MachineConfig::paper_machine();
    let mut s = String::new();
    let _ = writeln!(s, "== Table 1: system configuration parameters ==");
    let mut t = TextTable::new(["parameter", "value"]);
    t.row(["Number of nodes", &m.num_nodes.to_string()]);
    t.row([
        "Local memory/remote cache access",
        &format!("{} cycles", m.latency.mem_access),
    ]);
    t.row(["Network latency", &format!("{} cycles", m.latency.net_hop)]);
    t.row([
        "Round-trip miss latency",
        &format!("{} cycles", m.remote_read_round_trip()),
    ]);
    t.row([
        "Remote-to-local access ratio (rtl)",
        &format!("~{:.1}", m.remote_to_local_ratio()),
    ]);
    t.row(["Coherence block size", &format!("{} bytes", m.block_bytes)]);
    let _ = writeln!(s, "{t}");
    let _ = writeln!(s, "== Table 2: applications and input data sets ==");
    let mut t2 = TextTable::new(["application", "paper input"]);
    for app in AppId::ALL {
        t2.row([app.to_string(), app.paper_input().to_string()]);
    }
    let _ = write!(s, "{t2}");
    s
}

fn render_fig6() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Figure 6: potential speedup in a speculative coherent DSM =="
    );
    for panel in fig6(10) {
        let _ = writeln!(s, "\n-- {} --", panel.title);
        let mut headers = vec!["c".to_string()];
        headers.extend(panel.series.iter().map(|ser| ser.label.clone()));
        let mut t = TextTable::new(headers);
        let steps = panel.series[0].points.len();
        for i in 0..steps {
            let mut row = vec![format!("{:.1}", panel.series[0].points[i].0)];
            row.extend(
                panel
                    .series
                    .iter()
                    .map(|ser| format!("{:.2}", ser.points[i].1)),
            );
            t.row(row);
        }
        let _ = write!(s, "{t}");
    }
    s
}

fn render_fig7(lab: &mut Lab) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Figure 7: base predictor accuracy comparison (d=1, %) =="
    );
    let mut t = TextTable::new(["application", "Cosmos", "MSP", "VMSP"]);
    for row in fig7(lab) {
        t.row([
            row.app.to_string(),
            pct(row.accuracy[0]),
            pct(row.accuracy[1]),
            pct(row.accuracy[2]),
        ]);
    }
    let _ = write!(s, "{t}");
    s
}

fn render_fig8(lab: &mut Lab) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Figure 8: predictor accuracy with varying history depth (%) =="
    );
    let mut t = TextTable::new([
        "application",
        "Cosmos d=1",
        "Cosmos d=2",
        "Cosmos d=4",
        "MSP d=1",
        "MSP d=2",
        "MSP d=4",
        "VMSP d=1",
        "VMSP d=2",
        "VMSP d=4",
    ]);
    for row in fig8(lab) {
        let mut cells = vec![row.app.to_string()];
        for p in 0..3 {
            for d in 0..3 {
                cells.push(pct(row.accuracy[p][d]));
            }
        }
        t.row(cells);
    }
    let _ = write!(s, "{t}");
    s
}

fn render_table3(lab: &mut Lab) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Table 3: messages predicted (and correctly predicted), d=1, % =="
    );
    let mut t = TextTable::new(["application", "Cosmos", "MSP", "VMSP"]);
    for row in table3(lab) {
        let cell = |i: usize| format!("{} ({})", pct(row.predicted[i].0), pct(row.predicted[i].1));
        t.row([row.app.to_string(), cell(0), cell(1), cell(2)]);
    }
    let _ = write!(s, "{t}");
    s
}

fn render_table4(lab: &mut Lab) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Table 4: predictor storage overhead ==");
    let _ = writeln!(
        s,
        "(pte = average pattern-table entries per allocated block; ovh = bytes per block at d=1)"
    );
    let mut t = TextTable::new([
        "application",
        "Cosmos pte d=1",
        "Cosmos pte d=4",
        "Cosmos ovh",
        "MSP pte d=1",
        "MSP pte d=4",
        "MSP ovh",
        "VMSP pte d=1",
        "VMSP pte d=4",
        "VMSP ovh",
    ]);
    for row in table4(lab) {
        let mut cells = vec![row.app.to_string()];
        for (d1, d4, ovh) in row.storage {
            cells.push(format!("{d1:.1}"));
            cells.push(format!("{d4:.1}"));
            cells.push(format!("{ovh:.1}"));
        }
        t.row(cells);
    }
    let _ = write!(s, "{t}");
    s
}

fn render_fig9(lab: &mut Lab) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Figure 9: execution time normalized to Base-DSM (%, comp + request) =="
    );
    let mut t = TextTable::new([
        "application",
        "Base comp",
        "Base req",
        "Base total",
        "FR comp",
        "FR req",
        "FR total",
        "SWI comp",
        "SWI req",
        "SWI total",
    ]);
    for row in fig9(lab) {
        let mut cells = vec![row.app.to_string()];
        for (comp, req) in row.bars {
            cells.push(format!("{comp:.1}"));
            cells.push(format!("{req:.1}"));
            cells.push(format!("{:.1}", comp + req));
        }
        t.row(cells);
    }
    let _ = write!(s, "{t}");
    let _ = writeln!(s);
    let _ = writeln!(s, "{}", summary_fig9(lab));
    s
}

fn summary_fig9(lab: &mut Lab) -> String {
    let rows = fig9(lab);
    let avg = |idx: usize| {
        let sum: f64 = rows.iter().map(|r| r.bars[idx].0 + r.bars[idx].1).sum();
        sum / rows.len() as f64
    };
    let best = |idx: usize| {
        rows.iter()
            .map(|r| r.bars[idx].0 + r.bars[idx].1)
            .fold(f64::INFINITY, f64::min)
    };
    format!(
        "Average execution time: FR-DSM {:.1}% (best {:.1}%), SWI-DSM {:.1}% (best {:.1}%) of Base-DSM\n\
         (paper: FR reduces execution time on average 8%, at best 17%; SWI on average 12%, at best 24%)",
        avg(1),
        best(1),
        avg(2),
        best(2)
    )
}

fn render_table5(lab: &mut Lab) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== Table 5: frequency of requests, speculations, and misspeculations =="
    );
    let _ = writeln!(s, "(sent/miss as % of Base-DSM reads or writes)");
    let mut t = TextTable::new([
        "application",
        "reads(k)",
        "writes(k)",
        "FR-DSM fr sent",
        "FR-DSM fr miss",
        "SWI fr sent",
        "SWI fr miss",
        "SWI swi sent",
        "SWI swi miss",
        "SWI winv sent",
        "SWI winv miss",
    ]);
    for row in table5(lab) {
        t.row([
            row.app.to_string(),
            format!("{:.0}", row.base_reads as f64 / 1000.0),
            format!("{:.0}", row.base_writes as f64 / 1000.0),
            pct(row.fr_dsm.0),
            pct(row.fr_dsm.1),
            pct(row.swi_dsm_reads.0),
            pct(row.swi_dsm_reads.1),
            pct(row.swi_dsm_reads.2),
            pct(row.swi_dsm_reads.3),
            pct(row.swi_dsm_invals.0),
            pct(row.swi_dsm_invals.1),
        ]);
    }
    let _ = write!(s, "{t}");
    // Also report the spec-read fractions the paper quotes in the text.
    let _ = writeln!(s);
    let mut t2 = TextTable::new(["application", "FR-DSM spec reads %", "SWI-DSM spec reads %"]);
    for app in AppId::ALL {
        let fr = lab.run(app, SpecPolicy::FirstRead).spec_read_fraction();
        let swi = lab.run(app, SpecPolicy::SwiFr).spec_read_fraction();
        t2.row([app.to_string(), pct(fr), pct(swi)]);
    }
    let _ = write!(s, "{t2}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn no_experiment_means_the_paper_set() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.experiments, PAPER_EXPERIMENTS);
        assert_eq!(args.scale, Scale::Default);
        assert_eq!(
            parse(&["fig7", "all"]).unwrap().experiments,
            PAPER_EXPERIMENTS
        );
    }

    #[test]
    fn every_name_is_checked_before_anything_runs() {
        let err = parse(&["fig9", "bogus"]).unwrap_err();
        assert_eq!(err, "unknown experiment 'bogus'");
        assert!(parse(&["--flag"]).is_err());
        let args = parse(&["detail", "ablation", "fig7"]).unwrap();
        assert_eq!(args.experiments, ["detail", "ablation", "fig7"]);
    }

    #[test]
    fn usage_lists_every_experiment() {
        for name in PAPER_EXPERIMENTS.iter().chain(&EXTRA_EXPERIMENTS) {
            assert!(USAGE.contains(name), "usage omits {name}");
        }
        assert!(parse(&["--help", "bogus"]).unwrap().help);
    }

    #[test]
    fn engine_options_are_unknown_arguments() {
        // The simulator has one engine: the former engine and worker
        // options are rejected like any other unknown option.
        assert_eq!(
            parse(&["--threads", "2"]).unwrap_err(),
            "unknown option '--threads'"
        );
        assert_eq!(
            parse(&["fig7", "--engine", "seq"]).unwrap_err(),
            "unknown option '--engine'"
        );
    }

    #[test]
    fn bad_options_are_rejected() {
        assert!(parse(&["--scale", "huge"]).is_err());
        assert!(parse(&["--out"]).is_err());
        let args = parse(&["table3", "--scale", "quick", "--out", "dir"]).unwrap();
        assert_eq!(args.scale, Scale::Quick);
        assert_eq!(args.out_dir, Some(PathBuf::from("dir")));
    }

    #[test]
    fn out_dir_under_a_regular_file_is_an_error() {
        let file = std::env::temp_dir().join(format!("repro-out-test-{}", std::process::id()));
        std::fs::write(&file, "").unwrap();
        let dir = file.join("x");
        let err = create_out_dir(&dir).unwrap_err();
        std::fs::remove_file(&file).unwrap();
        let expected = format!(
            "repro: cannot create output directory '{}': ",
            dir.display()
        );
        assert!(err.starts_with(&expected), "{err}");
        assert_eq!(err.lines().count(), 1);
    }
}
