//! Golden-file tests: pin the rendered text of the paper's Table 1, Table 2,
//! Table 3, Table 4, Figure 3 and Figure 8 at a small fixed scale, plus the
//! detailed pipeline's per-stage work counters.
//!
//! These tables fold in nearly every layer of the simulator — workload
//! generation, the emulator oracle, predictors, the detailed pipeline with
//! selective squash, and the report renderer — so any unintended behavioral
//! change anywhere shows up as a table diff. The work counters catch what
//! the tables cannot: a change that keeps every simulated result but makes
//! a stage do more work. To bless an intended change,
//! regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use control_independence::ci_explore::{ExploreReport, Sweep};
use control_independence::ci_obs::JsonValue;
use control_independence::experiments::{
    figure3, figure8, table1, table2, table3, table4, Scale, FIGURE3_WINDOWS,
};
use control_independence::prelude::{
    simulate_profiled, Engine, NoopProbe, NoopProfiler, PipelineConfig, Workload, WorkloadParams,
};
use std::path::PathBuf;

const SCALE: Scale = Scale {
    instructions: 10_000,
    seed: 0x5EED,
};

fn check_golden(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing {}; run with UPDATE_GOLDEN=1", path.display()));
    if expected != actual {
        panic!(
            "{}if intended, regenerate with UPDATE_GOLDEN=1",
            first_difference(name, &expected, actual)
        );
    }
}

/// Where `actual` first departs from the golden `expected`: the 1-based
/// line number with both versions of the line and, when the line is a list
/// of `name=value` fields (as in `work_counters.txt`), the first field that
/// differs. Lines split on `\n` alone, so a missing final newline or a
/// stray `\r` is a difference too.
fn first_difference(name: &str, expected: &str, actual: &str) -> String {
    let (mut want, mut got) = (expected.split('\n'), actual.split('\n'));
    for line in 1.. {
        let (w, g) = (want.next(), got.next());
        if w == g && w.is_some() {
            continue;
        }
        let show = |l: Option<&str>| l.map_or("<end of file>".to_owned(), |l| format!("{l:?}"));
        let mut report = format!(
            "{name} drifted from the golden file at line {line}:\n  expected: {}\n  actual:   {}\n",
            show(w),
            show(g)
        );
        let fields = w
            .unwrap_or_default()
            .split_whitespace()
            .zip(g.unwrap_or_default().split_whitespace());
        if let Some((wf, gf)) = fields
            .filter(|(wf, gf)| wf.contains('=') && gf.contains('='))
            .find(|(wf, gf)| wf != gf)
        {
            report.push_str(&format!("  first differing field: {wf} -> {gf}\n"));
        }
        return report;
    }
    unreachable!("differing texts differ on some line")
}

#[test]
fn drift_report_names_the_first_differing_line_and_field() {
    let expected = "go/base/w256 cycles=10 ready_examined=5 squashed=2\nnext\n";
    let actual = "go/base/w256 cycles=10 ready_examined=7 squashed=3\nnext\n";
    let report = first_difference("work_counters.txt", expected, actual);
    assert!(report.contains("at line 1:"), "{report}");
    assert!(report.contains("\"go/base/w256 cycles=10 ready_examined=5 squashed=2\""));
    assert!(report.contains("first differing field: ready_examined=5 -> ready_examined=7"));
    let truncated = first_difference("table1.txt", "a\nb", "a");
    assert!(truncated.contains("at line 2:"), "{truncated}");
    assert!(truncated.contains("actual:   <end of file>"), "{truncated}");
    assert!(!truncated.contains("field"), "{truncated}");
}

#[test]
fn table1_text_is_pinned() {
    check_golden("table1.txt", &table1(&Engine::serial(), &SCALE).render());
}

#[test]
fn table2_text_is_pinned() {
    check_golden("table2.txt", &table2(&Engine::serial(), &SCALE).render());
}

#[test]
fn table3_text_is_pinned() {
    check_golden("table3.txt", &table3(&Engine::serial(), &SCALE).render());
}

#[test]
fn table4_text_is_pinned() {
    check_golden("table4.txt", &table4(&Engine::serial(), &SCALE).render());
}

#[test]
fn figure3_text_is_pinned() {
    // The six idealized models over the paper's window sweep: the only
    // golden table produced by the `ci-ideal` engine.
    check_golden(
        "figure3.txt",
        &figure3(&Engine::serial(), &SCALE, &FIGURE3_WINDOWS).render(),
    );
}

#[test]
fn figure8_text_is_pinned() {
    check_golden("figure8.txt", &figure8(&Engine::serial(), &SCALE).render());
}

#[test]
fn explore_smoke_grid_is_pinned() {
    // The explorer's 3 (windows) × 3 (widths) × 2 (machines) smoke grid
    // over all five workloads: pins the sweep expansion, the grid's cell
    // results, and the Pareto/knee reduction in one artifact.
    let sweep = Sweep::parse("smoke-grid").expect("smoke-grid preset must parse");
    let report = ExploreReport::build(&Engine::serial(), &sweep, SCALE.instructions, SCALE.seed);
    let mut text = String::new();
    for table in report.tables() {
        text.push_str(&table.render());
        text.push('\n');
    }
    check_golden("explore.txt", &text);
}

#[test]
fn work_counters_are_pinned() {
    // One line per w256 cell of every workload on BASE, CI and CI-instant:
    // each `CycleActivity` counter as `name=value`. The counters are
    // deterministic, so a stage that starts scanning, examining or
    // discarding more entries fails here identically on every host, even
    // when every simulated result stays the same.
    type ConfigCtor = fn(usize) -> PipelineConfig;
    let configs: [(&str, ConfigCtor); 3] = [
        ("base", PipelineConfig::base),
        ("ci", PipelineConfig::ci),
        ("ci_i", PipelineConfig::ci_instant),
    ];
    let mut text = String::new();
    for workload in Workload::ALL {
        let program = workload.build(&WorkloadParams {
            scale: workload.scale_for(SCALE.instructions),
            seed: SCALE.seed,
        });
        for (name, make) in configs {
            let run = simulate_profiled(
                &program,
                make(256),
                SCALE.instructions,
                NoopProbe,
                NoopProfiler,
            )
            .expect("workloads are valid programs");
            let JsonValue::Obj(fields) = run.activity.to_json() else {
                unreachable!("CycleActivity::to_json is an object")
            };
            let counters: Vec<String> = fields
                .iter()
                .filter_map(|(k, v)| match v {
                    JsonValue::I64(n) => Some(format!("{k}={n}")),
                    _ => None, // the derived avg_occupancy
                })
                .collect();
            text.push_str(&format!(
                "{}/{name}/w256 {}\n",
                workload.name(),
                counters.join(" ")
            ));
        }
    }
    check_golden("work_counters.txt", &text);
}
