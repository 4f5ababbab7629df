//! The lint self-test: the repo's own tree must be clean, and the rules
//! must actually bite on seeded fixtures (a linter that passes
//! everything also "passes" the tree).

use qse_check::lint::{find_workspace_root, lint_tree};
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(here).expect("workspace root above crates/check")
}

#[test]
fn the_tree_is_lint_clean() {
    let violations = lint_tree(&workspace_root()).expect("tree readable");
    assert!(
        violations.is_empty(),
        "lint violations in the tree:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_linter_bites_on_a_seeded_unwrap() {
    // Guard against a silently over-permissive scanner: re-lint a real
    // library file with an injected unwrap and require a finding.
    let root = workspace_root();
    let path = root.join("crates/comm/src/universe.rs");
    let mut content = std::fs::read_to_string(&path).expect("readable");
    assert!(
        qse_check::lint_file("crates/comm/src/universe.rs", &content).is_empty(),
        "baseline file must be clean"
    );
    content.push_str("\nfn seeded() -> usize { None::<usize>.unwrap() }\n");
    let v = qse_check::lint_file("crates/comm/src/universe.rs", &content);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, qse_check::Rule::PanicInLib);
}

#[test]
fn the_linter_bites_on_a_seeded_uncommented_unsafe() {
    // R5 guard: each real unsafe-bearing file must be clean today, and an
    // `unsafe` seeded without a SAFETY comment must be caught in each.
    let root = workspace_root();
    for rel in [
        "crates/statevec/src/storage/soa.rs",
        "crates/util/src/parallel.rs",
        "crates/comm/src/universe.rs",
    ] {
        let content = std::fs::read_to_string(root.join(rel)).expect("readable");
        assert!(
            qse_check::lint_file(rel, &content).is_empty(),
            "baseline {rel} must be clean"
        );
        let seeded =
            format!("{content}\nfn seeded(p: *const u8) -> u8 {{\n    unsafe {{ *p }}\n}}\n");
        let v = qse_check::lint_file(rel, &seeded);
        assert_eq!(v.len(), 1, "{rel}: {v:?}");
        assert_eq!(v[0].rule, qse_check::Rule::UnsafeWithoutSafety, "{rel}");
    }
}

#[test]
fn the_linter_bites_on_a_seeded_truncating_cast() {
    // R6 guard: comm and statevec library files must be cast-clean, and
    // a seeded `u64 → usize` index cast must be caught.
    let root = workspace_root();
    for rel in ["crates/comm/src/universe.rs", "crates/statevec/src/dist.rs"] {
        let content = std::fs::read_to_string(root.join(rel)).expect("readable");
        assert!(
            qse_check::lint_file(rel, &content).is_empty(),
            "baseline {rel} must be clean"
        );
        let seeded = format!("{content}\nfn seeded(i: u64) -> usize {{\n    i as usize\n}}\n");
        let v = qse_check::lint_file(rel, &seeded);
        assert_eq!(v.len(), 1, "{rel}: {v:?}");
        assert_eq!(v[0].rule, qse_check::Rule::TruncatingCast, "{rel}");
    }
    // And an `as u32` in comm is equally caught.
    let v = qse_check::lint_file(
        "crates/comm/src/faults.rs",
        "fn seeded(i: u64) -> u32 { i as u32 }\n",
    );
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, qse_check::Rule::TruncatingCast);
}

#[test]
fn the_linter_bites_on_a_seeded_unbounded_net_read() {
    // R7 guard: the real serve transport files must be clean (every
    // client byte goes through BoundedLineReader), and a seeded
    // unbounded read must be caught in each.
    let root = workspace_root();
    for rel in ["crates/serve/src/net.rs", "crates/serve/src/protocol.rs"] {
        let content = std::fs::read_to_string(root.join(rel)).expect("readable");
        assert!(
            qse_check::lint_file(rel, &content).is_empty(),
            "baseline {rel} must be clean"
        );
        let seeded = format!(
            "{content}\nfn seeded(s: &mut std::net::TcpStream) -> Vec<u8> {{\n    \
             let mut buf = Vec::new();\n    let _ = s.read_to_end(&mut buf);\n    buf\n}}\n"
        );
        let v = qse_check::lint_file(rel, &seeded);
        assert_eq!(v.len(), 1, "{rel}: {v:?}");
        assert_eq!(v[0].rule, qse_check::Rule::UnboundedNetRead, "{rel}");
    }
}

#[test]
fn the_linter_bites_on_seeded_slice_staging() {
    // R8 guard: the distributed engine packs wire chunks straight from
    // storage. The real dist.rs must be clean, and the whole-slice
    // serialisation its exchange path used to stage through must be
    // caught if it comes back.
    let root = workspace_root();
    let rel = "crates/statevec/src/dist.rs";
    let content = std::fs::read_to_string(root.join(rel)).expect("readable");
    assert!(
        qse_check::lint_file(rel, &content).is_empty(),
        "baseline {rel} must be clean"
    );
    let seeded = format!(
        "{content}\nfn seeded(amps: &SoaStorage) -> Bytes {{\n    \
         let staged = amps.to_f64_vec();\n    f64s_to_bytes(&staged)\n}}\n"
    );
    let v = qse_check::lint_file(rel, &seeded);
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(
        v.iter().all(|x| x.rule == qse_check::Rule::SliceStaging),
        "{v:?}"
    );
}

#[test]
fn the_linter_bites_on_a_seeded_measure_assert() {
    // Same guard for R4: the real measure.rs must be clean, and an
    // `assert!`-as-error-handling seeded into it must be caught. This is
    // exactly the pattern the pre-fix `collapse` used.
    let root = workspace_root();
    let path = root.join("crates/statevec/src/measure.rs");
    let content = std::fs::read_to_string(&path).expect("readable");
    assert!(
        qse_check::lint_file("crates/statevec/src/measure.rs", &content).is_empty(),
        "baseline measure.rs must be clean"
    );
    let seeded = format!(
        "{content}\nfn seeded(p: f64) {{\n    \
         assert!(p > 1e-15, \"collapsing onto a zero-probability outcome\");\n}}\n"
    );
    let v = qse_check::lint_file("crates/statevec/src/measure.rs", &seeded);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, qse_check::Rule::AssertInMeasure);
    // The same seed outside a measure path is legitimate invariant
    // checking and stays clean.
    assert!(qse_check::lint_file(
        "crates/statevec/src/single.rs",
        "fn seeded(p: f64) { assert!(p > 1e-15); }\n"
    )
    .is_empty());
}
