//! The deterministic exhibits in EXPERIMENTS.md are what `figures`
//! prints today: each exhibit is rendered here and compared, byte for
//! byte, with the fenced block in EXPERIMENTS.md that opens with its
//! `# title` line. A change that moves an exhibit fails here until the
//! same change records the new table.

use rota_bench::exhibits;

/// Every fenced block of EXPERIMENTS.md, each line ending in `\n`.
fn fenced_blocks() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let text = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
    let mut blocks = Vec::new();
    let mut open: Option<String> = None;
    for line in text.lines() {
        if line.starts_with("```") {
            if let Some(block) = open.take() {
                blocks.push(block);
            } else {
                open = Some(String::new());
            }
        } else if let Some(block) = open.as_mut() {
            block.push_str(line);
            block.push('\n');
        }
    }
    blocks
}

fn assert_recorded(names: &[&str]) {
    let blocks = fenced_blocks();
    let rendered = exhibits(|name| names.contains(&name), false);
    assert!(!rendered.is_empty(), "{names:?} render nothing");
    for exhibit in rendered {
        let title = exhibit.lines().next().expect("a title line");
        let recorded = blocks
            .iter()
            .find(|block| block.lines().next() == Some(title))
            .unwrap_or_else(|| panic!("EXPERIMENTS.md has no block for `{title}`:\n{exhibit}"));
        assert_eq!(
            recorded, &exhibit,
            "EXPERIMENTS.md's `{title}` block differs from what `figures` prints"
        );
    }
}

#[test]
fn load_sweep_matches_e5_and_e6() {
    assert_recorded(&["e5", "e6"]);
}

#[test]
fn soundness_table_matches_e8() {
    assert_recorded(&["e8"]);
}

#[test]
fn churn_sweep_matches_e9() {
    assert_recorded(&["e9"]);
}

#[test]
fn segmentation_ablation_matches_e10() {
    assert_recorded(&["e10"]);
}
