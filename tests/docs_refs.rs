//! The documents' references resolve: every `DESIGN.md §N` cited outside
//! DESIGN.md names one of its headings, and every repository path the
//! documents name exists. ROADMAP.md and CHANGES.md are history and are
//! not checked.

use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = [
    "DESIGN.md",
    "EXPERIMENTS.md",
    "README.md",
    ".claude/skills/verify/SKILL.md",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every file under `dir`, recursively.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap().map(Result::unwrap) {
        let path = entry.path();
        if path.is_dir() {
            files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// The section numbers cited as `DESIGN §a`, `DESIGN.md §a, §b and §c`.
fn cited_sections(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("DESIGN") {
        let mut rest = text[at + "DESIGN".len()..].trim_start_matches(".md");
        loop {
            rest = rest.trim_start();
            let Some(tail) = rest.strip_prefix('§') else {
                break;
            };
            let end = tail
                .find(|c: char| !c.is_ascii_digit() && c != '.')
                .unwrap_or(tail.len());
            let section = tail[..end].trim_end_matches('.');
            if !section.is_empty() {
                out.push(section);
            }
            rest = tail[end..].trim_start_matches(',');
            rest = rest.trim_start().trim_start_matches("and");
        }
    }
    out
}

#[test]
fn design_section_citations_name_a_heading() {
    let design = fs::read_to_string(root().join("DESIGN.md")).unwrap();
    let headings: Vec<&str> = design
        .lines()
        .filter(|l| l.starts_with('#'))
        .filter_map(|l| l.trim_start_matches('#').split_whitespace().next())
        .map(|n| n.trim_end_matches('.'))
        .collect();
    let mut sources: Vec<PathBuf> = DOCS[1..].iter().map(|d| root().join(d)).collect();
    for dir in ["crates", "tests", ".github"] {
        files(&root().join(dir), &mut sources);
    }
    let mut dangling = Vec::new();
    for source in sources {
        let Ok(text) = fs::read_to_string(&source) else {
            continue; // not text
        };
        for section in cited_sections(&text) {
            if !headings.contains(&section) {
                dangling.push(format!("{}: §{section}", source.display()));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "DESIGN.md has no such heading: {dangling:#?}"
    );
}

/// `word` as a repository path, or `None` when it does not name one: a
/// relative path has a `/` and ends in `/` or a file extension the
/// repository uses. A `::item` suffix is dropped.
fn as_path(word: &str) -> Option<&str> {
    let word = word.split("::").next()?.trim_end_matches(['.', ':']);
    let plain = !word.starts_with('/') && !word.contains(['*', '{', '…', '<', ':']);
    let named = word.ends_with('/')
        || [".rs", ".md", ".dat", ".svg", ".toml", ".yml", ".json"]
            .iter()
            .any(|ext| word.ends_with(ext));
    (plain && named && word.contains('/')).then_some(word)
}

#[test]
fn named_paths_exist() {
    let root = root();
    let crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).unwrap();
        let words = text.split(|c: char| c.is_whitespace() || "`()[],;'\"|".contains(c));
        for path in words.filter_map(as_path) {
            // Repository-relative, or relative to `crates/` or to a crate.
            let found = root.join(path).exists()
                || root.join("crates").join(path).exists()
                || crates.iter().any(|c| c.join(path).exists());
            if !found {
                missing.push(format!("{doc}: {path}"));
            }
        }
    }
    assert!(missing.is_empty(), "no such path: {missing:#?}");
}
