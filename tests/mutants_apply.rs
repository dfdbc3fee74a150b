//! Every mutant in `MUTANTS` still applies: its exact text occurs exactly
//! once in its file. `scripts/mutants.sh` reports a mutant whose text moved
//! as `BROKEN` only when someone runs it; this test fails the suite instead,
//! so a refactor that moves a needle updates `MUTANTS` with it.

use std::path::Path;

#[test]
fn every_mutant_text_occurs_once_in_its_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let list = std::fs::read_to_string(root.join("MUTANTS")).expect("MUTANTS is readable");
    let mut mutants = 0;
    for line in list.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let [file, needle, replacement, fault] = fields[..] else {
            panic!("a MUTANTS line has four tab-separated fields: {line:?}");
        };
        assert!(
            !needle.is_empty() && needle != replacement && !fault.is_empty(),
            "{line:?}"
        );
        let text = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("{file} is readable: {e}"));
        let found = text.matches(needle).count();
        assert_eq!(
            found, 1,
            "{file}: {needle:?} occurs {found} times ({fault})"
        );
        mutants += 1;
    }
    assert!(mutants >= 5, "{mutants} mutants listed");
}
