//! The model-checking phase of a repetition.
//!
//! After its simulated run, each repetition explores `mc`'s presets for
//! the workload's apps depth-first to a fixed schedule budget, under the
//! commute matrix `analysis` validates for the presets' apps. Between them
//! the two workloads explore every built-in preset plus `cross-group`, so
//! the `mc` layer is measured and gated although it has no workload of its
//! own: model checking has no commits, commit lag or sync rounds to report
//! beside the simulated workloads' metrics.

use std::sync::OnceLock;

use guesstimate_analysis::harness::{
    analyze_auction, analyze_event_planner, analyze_message_board, analyze_sudoku,
};
use guesstimate_analysis::{matrices_from_json, report_to_json};
use guesstimate_core::CommuteMatrix;
use guesstimate_mc::{explore, multigroup, ExploreConfig, Outcome, Preset, CROSS_GROUP};

use crate::gauge::{Clock, Timed};

/// Schedules explored per preset in one repetition.
pub const BUDGET: u64 = 250;

#[derive(Debug, Default, Clone)]
pub struct McRep {
    /// This thread's CPU time over the exploration, raw and scaled to the
    /// idle host.
    pub cpu: Timed,
    pub schedules: u64,
    pub steps: u64,
    pub pruned: u64,
    pub digest: u64,
}

impl McRep {
    fn add(&mut self, name: &str, out: &Outcome, violations: &mut Vec<String>) {
        self.schedules += out.schedules;
        self.steps += out.steps_executed;
        self.pruned += out.pruned;
        self.digest = self.digest.rotate_left(7).wrapping_add(
            out.schedules ^ out.steps_executed.rotate_left(17) ^ out.pruned.rotate_left(37),
        );
        if let Some((v, _)) = &out.violation {
            violations.push(format!("mc {name}: {v}"));
        }
        if out.truncated > 0 {
            violations.push(format!("mc {name}: {} schedules truncated", out.truncated));
        }
    }

    pub fn fingerprint(&self) -> String {
        format!(
            "mc(schedules={} steps={} pruned={} digest={:016x})",
            self.schedules, self.steps, self.pruned, self.digest
        )
    }
}

/// The matrix of the presets' apps, derived once per process: deriving it
/// is not the work this phase measures.
fn matrix() -> &'static CommuteMatrix {
    static MATRIX: OnceLock<CommuteMatrix> = OnceLock::new();
    MATRIX.get_or_init(|| {
        let reports: Vec<_> = [
            analyze_sudoku(),
            analyze_auction(),
            analyze_event_planner(),
            analyze_message_board(),
        ]
        .into_iter()
        .map(|a| a.report)
        .collect();
        matrices_from_json(&report_to_json(&reports))
            .expect("analysis emits a readable matrix archive")
    })
}

/// Explores each named preset (`cross-group` included) to [`BUDGET`]
/// schedules. Oracle violations and truncated schedules go to `violations`.
pub fn run(presets: &[&str], violations: &mut Vec<String>) -> McRep {
    let matrix = matrix();
    let cfg = ExploreConfig {
        max_schedules: BUDGET,
        ..ExploreConfig::default()
    };
    let mut rep = McRep::default();
    let mut clock = Clock::start();
    for (i, &name) in presets.iter().enumerate() {
        if i > 0 {
            clock.lap();
        }
        let out = if name == CROSS_GROUP {
            multigroup::explore(&cfg)
        } else {
            let preset = Preset::by_name(name).expect("a built-in preset");
            explore(preset, matrix, None, &cfg)
        };
        rep.add(name, &out, violations);
    }
    rep.cpu = clock.finish();
    rep
}
