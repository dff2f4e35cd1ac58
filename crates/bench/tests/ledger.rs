//! The committed `BENCH_*.json` files against the ledger: each loads
//! through the one loader, each line has exactly one case in the table
//! (in the case's direction and unit) and each case one line, and the
//! comparator holds lines the way `bench_gate` does. Nothing here builds
//! a case's input, so the test runs in milliseconds.

use panda_bench::ledger::{self, Better, Case, Ledger, Line, CASES, FILES};

fn loaded() -> Vec<(&'static str, Ledger)> {
    FILES
        .iter()
        .map(|&file| (file, Ledger::load(file).unwrap_or_else(|e| panic!("{e}"))))
        .collect()
}

#[test]
fn every_file_loads_with_its_header_and_finite_values() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut committed: Vec<String> = std::fs::read_dir(root)
        .expect("the repository root lists")
        .map(|entry| entry.expect("a directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    committed.sort();
    let mut held = FILES.to_vec();
    held.sort();
    assert_eq!(committed, held, "every committed BENCH file is held");
    for (file, ledger) in loaded() {
        for (field, text) in [
            ("hardware", &ledger.hardware),
            ("command", &ledger.command),
            ("base_rev", &ledger.base_rev),
        ] {
            assert!(!text.trim().is_empty(), "{file}: no {field}");
        }
        assert!(ledger.workers >= 1, "{file}: no workers");
        for line in &ledger.lines {
            assert!(
                line.value.is_finite() && line.value > 0.0,
                "{file}: {}: value {}",
                line.case,
                line.value
            );
        }
    }
}

#[test]
fn every_line_has_one_case_and_every_case_a_line() {
    let ledgers = loaded();
    for (file, ledger) in &ledgers {
        for line in &ledger.lines {
            let cases: Vec<&Case> = CASES
                .iter()
                .filter(|c| c.file == *file && c.name == line.case)
                .collect();
            assert_eq!(
                cases.len(),
                1,
                "{file}: line {:?} has {} cases",
                line.case,
                cases.len()
            );
            assert_eq!(
                (line.better, line.unit.as_str()),
                (cases[0].better(), cases[0].unit()),
                "{file}: line {:?} is not in its case's direction and unit",
                line.case
            );
        }
    }
    for case in CASES {
        let lines = ledgers
            .iter()
            .filter(|(file, _)| *file == case.file)
            .flat_map(|(_, ledger)| &ledger.lines)
            .filter(|line| line.case == case.name)
            .count();
        assert_eq!(
            lines, 1,
            "{}: case {:?} has {lines} lines",
            case.file, case.name
        );
    }
}

/// A line of value 100 for `case`, in its direction and unit.
fn line(case: &Case) -> Line {
    Line {
        case: case.name.into(),
        layer: None,
        unit: case.unit().into(),
        better: case.better(),
        value: 100.0,
        before: None,
        ratio: None,
        runs: None,
        base_rev: None,
        note: None,
    }
}

/// The comparator at factor 1.25 on `line` of `file`, measuring `measured`.
fn holds(file: &str, line: &Line, measured: f64) -> bool {
    ledger::hold(file, line, 1.25, |_: &Case| Ok(measured)).pass
}

#[test]
fn the_comparator_holds_each_direction_up_to_its_limit() {
    let lower = CASES.iter().find(|c| c.better() == Better::Lower);
    let higher = CASES.iter().find(|c| c.better() == Better::Higher);
    let (lower, higher) = (lower.expect("a call case"), higher.expect("a request case"));
    assert!(holds(lower.file, &line(lower), 125.0));
    assert!(!holds(lower.file, &line(lower), 125.1));
    assert!(holds(higher.file, &line(higher), 80.0));
    assert!(!holds(higher.file, &line(higher), 79.9));
    for case in [lower, higher] {
        let line = line(case);
        let name = case.name;
        assert!(!holds(case.file, &line, f64::NAN), "{name}: held a NaN");
        let unknown = Line {
            case: "no such case".into(),
            ..line.clone()
        };
        assert!(
            !holds(case.file, &unknown, 100.0),
            "held a line with no case"
        );
        assert!(
            !holds("BENCH_none.json", &line, 100.0),
            "{name}: held another file's case"
        );
        let flipped = Line {
            better: match line.better {
                Better::Lower => Better::Higher,
                Better::Higher => Better::Lower,
            },
            ..line.clone()
        };
        assert!(
            !holds(case.file, &flipped, 100.0),
            "{name}: held a line against its case's direction"
        );
        let unit = Line {
            unit: "ms".into(),
            ..line.clone()
        };
        assert!(
            !holds(case.file, &unit, 100.0),
            "{name}: held a line in another unit"
        );
    }
    let failed = ledger::hold(lower.file, &line(lower), 1.25, |_| Err("boom".into()));
    assert!(!failed.pass && failed.note == "boom");
}
