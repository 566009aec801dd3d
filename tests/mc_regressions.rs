//! Model-checker regression schedules.
//!
//! `tests/schedules/` holds minimized, replayable schedule files produced
//! by the `mc` binary (see `docs/MODELCHECK.md`). Schedules *without* a
//! tamper block are interesting interleavings (message loss, late join,
//! cross-machine reorderings) that once exercised tricky protocol paths:
//! replaying them must stay oracle-clean. Schedules *with* a tamper block
//! — or recorded against a negative preset ([`guesstimate_mc::NEGATIVE`],
//! such as `miskeyed`) — are repros: replaying them must still produce a
//! deterministic oracle violation, proving the checker's detection power
//! has not regressed.

use guesstimate_core::CommuteMatrix;
use guesstimate_mc::{
    explore, minimize, replay, ExploreConfig, NamedScenario, Preset, Scenario, Schedule, Step,
    TamperSpec, Violation,
};

fn schedule_files() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/schedules");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/schedules exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no schedules checked in under {dir:?}");
    files
}

#[test]
fn checked_in_schedules_replay_as_recorded() {
    let matrix = CommuteMatrix::new();
    for path in schedule_files() {
        let text = std::fs::read_to_string(&path).expect("schedule file readable");
        let sched = Schedule::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let report = replay(&sched, &matrix).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let negative_preset = NamedScenario::by_name(&sched.preset)
            .expect("replay resolved the preset")
            .is_negative();
        if sched.tamper.is_some() || negative_preset {
            assert!(
                report.violation.is_some(),
                "{path:?}: repro schedule no longer reproduces a violation"
            );
        } else {
            assert!(
                report.violation.is_none(),
                "{path:?}: clean schedule now violates: {:?}",
                report.violation
            );
        }
        // Replay must be deterministic: a second run reaches the same verdict.
        let again = replay(&sched, &matrix).unwrap();
        assert_eq!(report.violation, again.violation, "{path:?}");
    }
}

/// End-to-end seeded-mutation check: corrupt the first Ops batch machine 1
/// receives by swapping the operation ids of the conflicting sudoku pair
/// (a deliberately reordered commit), and require the checker to detect
/// it, shrink it, and reproduce it deterministically from the shrunken
/// schedule.
#[test]
fn seeded_commit_reorder_is_detected_and_shrunk() {
    // The built-in preset must be used as-is: replay resolves the
    // schedule's preset *name*, so a locally shrunk variant would not
    // round-trip through the file format.
    let preset = *Preset::by_name("sudoku").expect("built-in preset");
    let tamper = Some(TamperSpec {
        victim: 1,
        nth: 1,
        swap: (0, 1),
    });
    let matrix = CommuteMatrix::new();
    let out = explore(&preset, &matrix, tamper, &ExploreConfig::default());
    let (violation, steps) = out
        .violation
        .expect("a reordered commit must trip the agreement oracles");
    let raw = Schedule {
        preset: preset.name.to_owned(),
        tamper,
        steps,
    };
    let min = minimize(&raw, &matrix);
    assert!(
        min.steps.len() <= raw.steps.len(),
        "minimization must never grow the schedule"
    );
    // The minimized schedule round-trips through its file format and
    // still fails, twice in a row.
    let reparsed = Schedule::from_json(&min.to_json()).expect("well-formed file");
    let first = replay(&reparsed, &matrix).expect("known preset");
    let second = replay(&reparsed, &matrix).expect("known preset");
    assert!(
        first.violation.is_some(),
        "minimized repro lost the violation (original: {violation})"
    );
    assert_eq!(
        first.violation, second.violation,
        "repro must be deterministic"
    );
}

/// Three-layer soundness demo, model-checker layer (the other two are the
/// analysis witness sanitizer and the runtime's paranoid apply-site
/// assert): the hidden `sneaky` preset injects a `mirror` operation whose
/// declared footprint omits its read of `src`. The witness-containment
/// oracle must report it, ddmin must shrink the repro, and the shrunken
/// schedule must replay deterministically.
#[test]
fn under_declared_read_is_caught_shrunk_and_replayable() {
    let preset = *Preset::by_name("sneaky").expect("hidden negative preset");
    assert!(
        guesstimate_mc::PRESETS.iter().all(|p| p.name != "sneaky"),
        "the negative preset must stay out of the positive suites"
    );
    let matrix = CommuteMatrix::new();
    let out = explore(&preset, &matrix, None, &ExploreConfig::default());
    let (violation, steps) = out
        .violation
        .expect("an undeclared read must trip the witness oracle");
    assert!(
        matches!(violation, Violation::WitnessEscape { .. }),
        "wrong oracle fired: {violation}"
    );
    assert!(
        violation.to_string().contains("src"),
        "the report names the leaked path: {violation}"
    );
    let raw = Schedule {
        preset: preset.name.to_owned(),
        tamper: None,
        steps,
    };
    let min = minimize(&raw, &matrix);
    assert!(min.steps.len() <= raw.steps.len());
    let reparsed = Schedule::from_json(&min.to_json()).expect("well-formed file");
    let first = replay(&reparsed, &matrix).expect("known preset");
    let second = replay(&reparsed, &matrix).expect("known preset");
    assert!(
        matches!(first.violation, Some(Violation::WitnessEscape { .. })),
        "minimized repro lost the violation: {:?}",
        first.violation
    );
    assert_eq!(
        first.violation, second.violation,
        "repro must be deterministic"
    );
}

/// Three-layer soundness demo for shard plans, model-checker layer (the
/// other two are the analysis sanitizer and the witness-backed escape
/// check in `analyze --shard-plan`): the hidden `miskeyed` preset installs
/// a shard plan whose `post` route keys by the *author* argument instead
/// of the topic, so the first committed post's `topics/news` write lands
/// outside its routed `KeyedBoard:0/ann` shard. The runtime containment
/// check records the escape, the `ShardEscape` oracle must report it,
/// ddmin must shrink the repro, and the shrunken schedule must replay
/// deterministically.
#[test]
fn mis_keyed_shard_plan_is_caught_shrunk_and_replayable() {
    let preset = *Preset::by_name("miskeyed").expect("hidden negative preset");
    assert!(
        guesstimate_mc::PRESETS.iter().all(|p| p.name != "miskeyed"),
        "the negative preset must stay out of the positive suites"
    );
    let matrix = CommuteMatrix::new();
    let out = explore(&preset, &matrix, None, &ExploreConfig::default());
    let (violation, steps) = out
        .violation
        .expect("a mis-keyed shard plan must trip the shard-escape oracle");
    assert!(
        matches!(violation, Violation::ShardEscape { .. }),
        "wrong oracle fired: {violation}"
    );
    let report = violation.to_string();
    assert!(
        report.contains("topics/") && report.contains("KeyedBoard:0/"),
        "the report names the escaping path and the routed shard: {violation}"
    );
    let raw = Schedule {
        preset: preset.name.to_owned(),
        tamper: None,
        steps,
    };
    let min = minimize(&raw, &matrix);
    assert!(min.steps.len() <= raw.steps.len());
    let reparsed = Schedule::from_json(&min.to_json()).expect("well-formed file");
    let first = replay(&reparsed, &matrix).expect("known preset");
    let second = replay(&reparsed, &matrix).expect("known preset");
    assert!(
        matches!(first.violation, Some(Violation::ShardEscape { .. })),
        "minimized repro lost the violation: {:?}",
        first.violation
    );
    assert_eq!(
        first.violation, second.violation,
        "repro must be deterministic"
    );
}

/// Regenerates `tests/schedules/miskeyed-shard-escape.json`: the minimized
/// shard-escape repro for the hidden `miskeyed` preset, checked in so the
/// replay suite proves the `ShardEscape` oracle's detection power has not
/// regressed. Run with `--ignored --nocapture` and paste the output into
/// the schedule file.
#[test]
#[ignore = "generator for the checked-in shard-escape schedule"]
fn generate_miskeyed_shard_escape_schedule() {
    let preset = *Preset::by_name("miskeyed").expect("hidden negative preset");
    let matrix = CommuteMatrix::new();
    let out = explore(&preset, &matrix, None, &ExploreConfig::default());
    let (violation, steps) = out.violation.expect("mis-keyed plan must violate");
    assert!(matches!(violation, Violation::ShardEscape { .. }));
    let raw = Schedule {
        preset: preset.name.to_owned(),
        tamper: None,
        steps,
    };
    let min = minimize(&raw, &matrix);
    let report = replay(&min, &matrix).expect("known preset");
    assert!(
        matches!(report.violation, Some(Violation::ShardEscape { .. })),
        "{:?}",
        report.violation
    );
    println!("{}", min.to_json());
}

/// Regenerates `tests/schedules/message-board-async-gap.json`: machine 1's
/// second async `like` (aseq 1) is delivered to machine 0 *before* its
/// first (aseq 0), forcing the per-sender reorder buffer to hold the gap
/// and release FIFO — then the run drains deterministically to a clean
/// quiescent state. Run with `--ignored --nocapture` and paste the output
/// into the schedule file.
#[test]
#[ignore = "generator for the checked-in async-gap schedule"]
fn generate_message_board_async_gap_schedule() {
    use guesstimate_core::MachineId;
    use guesstimate_mc::SingleGroup;
    use guesstimate_runtime::Msg;

    let matrix = CommuteMatrix::new();
    let scenario = SingleGroup::new(
        Preset::by_name("message_board").expect("built-in preset"),
        &matrix,
    );
    let mut built = scenario.build(None);
    let mut steps = Vec::new();

    let mut gap: Vec<(u64, u64)> = built
        .net
        .pending_msgs()
        .iter()
        .filter_map(|&s| {
            let p = built.net.pending_msg(s)?;
            match &p.msg {
                Msg::AsyncOp { aseq, .. }
                    if p.from == MachineId::new(1) && p.to == MachineId::new(0) =>
                {
                    Some((*aseq, s))
                }
                _ => None,
            }
        })
        .collect();
    gap.sort_unstable();
    gap.reverse(); // highest aseq first: a same-sender gap at machine 0
    assert_eq!(gap.len(), 2, "machine 1 broadcast two likes to machine 0");
    for &(_, seq) in &gap {
        assert!(built.net.deliver(seq));
        steps.push(Step::Deliver(seq));
    }

    let mut guard = 0u32;
    loop {
        guard += 1;
        assert!(guard < 100_000, "drain failed to converge");
        if let Some(&seq) = built.net.pending_msgs().first() {
            assert!(built.net.deliver(seq));
            steps.push(Step::Deliver(seq));
            continue;
        }
        if scenario.rounds_done(&built) {
            break;
        }
        assert!(built.net.fire_next_timer(), "drain stalled");
        steps.push(Step::Timer);
    }

    let sched = Schedule {
        preset: scenario.name().to_owned(),
        tamper: None,
        steps,
    };
    let report = replay(&sched, &matrix).expect("known preset");
    assert!(report.violation.is_none(), "{:?}", report.violation);
    println!("{}", sched.to_json());
}

/// Regenerates `tests/schedules/cross-group-coordinated-round.json`: the
/// multi-group cluster's coordinated cross round under an adversarial
/// delivery order — every post-prelude wave is delivered in *reverse*
/// seq order, so the `CrossSubmit`, the per-group markers and the local
/// round traffic interleave maximally — then drained to quiescence.
/// Replaying it must stay clean through the per-group prefix, committed
/// digest and cross-round oracles. Run with `--ignored --nocapture` and
/// paste the output into the schedule file.
#[test]
#[ignore = "generator for the checked-in cross-group schedule"]
fn generate_cross_group_coordinated_round_schedule() {
    let scenario = guesstimate_mc::CrossGroup::default();
    let mut built = scenario.build(None);
    let mut steps = Vec::new();
    let mut guard = 0u32;
    loop {
        guard += 1;
        assert!(guard < 100_000, "drain failed to converge");
        assert_eq!(scenario.check_step(&built), None);
        let pending = built.net.pending_msgs();
        if let Some(&seq) = pending.last() {
            assert!(built.net.deliver(seq));
            steps.push(Step::Deliver(seq));
            continue;
        }
        if scenario.rounds_done(&built) {
            break;
        }
        assert!(built.net.fire_next_timer(), "drain stalled");
        steps.push(Step::Timer);
    }
    assert_eq!(scenario.check_terminal(&built), None);

    let sched = Schedule {
        preset: scenario.name().to_owned(),
        tamper: None,
        steps,
    };
    let report = replay(&sched, &CommuteMatrix::new()).expect("known preset");
    assert!(report.violation.is_none(), "{:?}", report.violation);
    println!("{}", sched.to_json());
}
