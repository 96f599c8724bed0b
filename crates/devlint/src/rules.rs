//! The OD0xx rules. Every rule has a stable code, so suppressions
//! (`// devlint: allow(OD001)`) and CI baselines stay meaningful as the
//! rule set grows.
//!
//! | code  | checks |
//! |-------|--------|
//! | OD001 | `Ordering::Relaxed` without a nearby `// relaxed:` justification |
//! | OD002 | `unsafe` without a nearby `// SAFETY:` justification |
//! | OD003 | `unwrap`/`expect`/`panic!` in serve request-handling code |
//! | OD004 | non-path dependency in a `Cargo.toml` (hermetic-build policy) |
//! | OD005 | `#[deprecated]` item past (or without) its stated removal PR |
//! | OD006 | direct `std::fs` / `File::` use in VFS-covered storage code |
//! | OD007 | `pub fn X` beside a `pub fn X_with` / `X_budgeted` / `X_traced` / `X_with_options` / `X_parsed` / `X_directed` sibling |
//! | OD008 | a `pub fn` in `crates/*/src` that only its own file's unit tests name (workspace pass) |
//!
//! OD001/OD002 look for the justification in a comment on the same line
//! or within [`LOOKBACK`] lines above — the shape `rustc` shows in
//! context, and far enough for a short justification paragraph.

use std::collections::{HashMap, HashSet};

use crate::lexer::{classify, has_word, Line};
use crate::Diagnostic;

/// How many lines above a flagged token a justification comment may sit.
pub const LOOKBACK: usize = 8;

/// Name suffixes that mark a sibling of an existing public function
/// (OD007): one more entry point per capability instead of one entry
/// point taking the options.
const SIBLING_SUFFIXES: [&str; 6] = [
    "_with",
    "_budgeted",
    "_traced",
    "_with_options",
    "_parsed",
    "_directed",
];

/// How a `.rs` file should be linted, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceScope {
    /// Production source: all source rules apply.
    Production,
    /// Serve request-handling source: production rules plus OD003.
    ServeHandler,
    /// Test/bench/vendored source: source rules skipped entirely (tests
    /// weaken orderings on purpose — that is what mutation checks are).
    Exempt,
}

/// Classify a repo-relative path into a [`SourceScope`].
pub fn scope_for(path: &str) -> SourceScope {
    let p = path.replace('\\', "/");
    if p.starts_with("compat/")
        || p.contains("/tests/")
        || p.contains("/benches/")
        || p.starts_with("tests/")
        || p.starts_with("benches/")
    {
        return SourceScope::Exempt;
    }
    // The request path: everything a connection flows through between
    // accept and response. Panics here kill a worker mid-request.
    if p.starts_with("crates/serve/src/") {
        return SourceScope::ServeHandler;
    }
    SourceScope::Production
}

/// Is this file inside the storage layer that must route all I/O through
/// the VFS (OD006)? The repository crate and the MatchStats sidecar —
/// everything the crash-point explorer exercises. `vfs.rs` itself is the
/// one place the real syscalls are allowed to live.
pub fn vfs_covered(path: &str) -> bool {
    let p = path.replace('\\', "/");
    (p.starts_with("crates/repo/src/") && p != "crates/repo/src/vfs.rs")
        || p == "crates/core/src/stats.rs"
}

/// Lint one Rust source file. `current_pr` feeds OD005's "overdue"
/// decision — the driver derives it from `CHANGES.md` via
/// [`current_pr`].
pub fn lint_rust_source(
    path: &str,
    text: &str,
    scope: SourceScope,
    current_pr: usize,
) -> Vec<Diagnostic> {
    if scope == SourceScope::Exempt {
        return Vec::new();
    }
    let lines = classify(text);
    let mut out = Vec::new();
    let test_tail = test_tail(&lines);

    for (i, line) in lines.iter().take(test_tail).enumerate() {
        if line.code.contains("Ordering::Relaxed")
            && !justified(&lines, i, "relaxed:")
            && !suppressed(&lines, i, "OD001")
        {
            out.push(Diagnostic::new(
                "OD001",
                path,
                i + 1,
                "`Ordering::Relaxed` without a `// relaxed:` justification — \
                 state why no ordering is needed, or use a stronger ordering",
            ));
        }
        if has_word(&line.code, "unsafe")
            && !justified(&lines, i, "SAFETY:")
            && !suppressed(&lines, i, "OD002")
        {
            out.push(Diagnostic::new(
                "OD002",
                path,
                i + 1,
                "`unsafe` without a `// SAFETY:` comment stating the invariant \
                 that makes it sound",
            ));
        }
        if vfs_covered(path) && !suppressed(&lines, i, "OD006") {
            for token in ["std::fs::", "File::", "OpenOptions::new"] {
                if line.code.contains(token) {
                    out.push(Diagnostic::new(
                        "OD006",
                        path,
                        i + 1,
                        &format!(
                            "direct `{token}` in VFS-covered storage code — route the \
                             I/O through `optimatch_repo::vfs::Vfs` so fault injection \
                             and the crash-point explorer see it"
                        ),
                    ));
                }
            }
        }
        if scope == SourceScope::ServeHandler && !suppressed(&lines, i, "OD003") {
            for token in [".unwrap()", ".expect(", "panic!("] {
                if line.code.contains(token) {
                    out.push(Diagnostic::new(
                        "OD003",
                        path,
                        i + 1,
                        &format!(
                            "`{token}` in serve request-handling code — a panic here \
                             kills a worker mid-request; return an error response instead"
                        ),
                    ));
                }
            }
        }
    }

    out.extend(lint_siblings(path, &lines[..test_tail]));
    // OD005 scans the whole file (deprecations in test modules would be
    // odd, but an overdue one is overdue wherever it hides).
    out.extend(lint_deprecated(path, &lines, current_pr));
    out
}

/// OD007: one diagnostic at every `pub fn X<suffix>` whose file also
/// declares `pub fn X`, for the suffixes in [`SIBLING_SUFFIXES`].
fn lint_siblings(path: &str, lines: &[Line]) -> Vec<Diagnostic> {
    let decls: Vec<(usize, &str)> = lines
        .iter()
        .enumerate()
        .filter_map(|(i, l)| pub_fn_name(&l.code).map(|name| (i, name)))
        .collect();
    let mut out = Vec::new();
    for &(i, name) in &decls {
        let base = SIBLING_SUFFIXES
            .iter()
            .filter_map(|suffix| name.strip_suffix(suffix))
            .find(|base| decls.iter().any(|(_, n)| n == base));
        if let Some(base) = base {
            if !suppressed(lines, i, "OD007") {
                out.push(Diagnostic::new(
                    "OD007",
                    path,
                    i + 1,
                    &format!(
                        "`pub fn {name}` is a sibling of `pub fn {base}` — give the layer \
                         one entry point that takes the options instead of one function \
                         per option"
                    ),
                ));
            }
        }
    }
    out
}

/// Where a file's test code starts: everything from the first
/// `#[cfg(test)]` on is test code (tail test modules are the workspace
/// convention).
fn test_tail(lines: &[Line]) -> usize {
    lines
        .iter()
        .position(|l| l.code.contains("#[cfg(test)]"))
        .unwrap_or(lines.len())
}

/// OD008, a workspace pass over every `(path, text)` Rust file: one
/// diagnostic at each `pub fn` in a `crates/*/src` file whose name no
/// other file's code mentions and whose own file mentions it only at the
/// definition and in its test tail. Comments and strings do not count.
pub(crate) fn lint_test_only_fns(files: &[(String, String)]) -> Vec<Diagnostic> {
    let classified: Vec<(&str, Vec<Line>)> = files
        .iter()
        .map(|(path, text)| (path.as_str(), classify(text)))
        .collect();
    // How many files' code mentions each identifier.
    let mut mentions: HashMap<&str, usize> = HashMap::new();
    for (_, lines) in &classified {
        let words: HashSet<&str> = lines.iter().flat_map(|l| words(&l.code)).collect();
        for word in words {
            *mentions.entry(word).or_default() += 1;
        }
    }
    let mut out = Vec::new();
    for (path, lines) in &classified {
        if !(path.starts_with("crates/") && path.contains("/src/")) {
            continue;
        }
        let production = &lines[..test_tail(lines)];
        for (i, line) in production.iter().enumerate() {
            let Some(name) = pub_fn_name(&line.code) else {
                continue;
            };
            let only_here = mentions.get(name) == Some(&1);
            let only_at_definition = production
                .iter()
                .enumerate()
                .all(|(j, l)| j == i || !has_word(&l.code, name));
            if only_here && only_at_definition && !suppressed(lines, i, "OD008") {
                out.push(Diagnostic::new(
                    "OD008",
                    path,
                    i + 1,
                    &format!(
                        "`pub fn {name}` is named only by its own unit tests — delete it \
                         with the tests that check only it, or say why it stays"
                    ),
                ));
            }
        }
    }
    out
}

/// The identifiers in a line's code.
fn words(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The name a line declares with `pub fn`, if it opens with one.
fn pub_fn_name(code: &str) -> Option<&str> {
    let rest = code.trim_start().strip_prefix("pub fn ")?;
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    Some(&rest[..end]).filter(|name| !name.is_empty())
}

fn lint_deprecated(path: &str, lines: &[Line], current_pr: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !line.code.contains("#[deprecated") || suppressed(lines, i, "OD005") {
            continue;
        }
        // The `note` text is blanked (it is a string literal), so the
        // removal marker is read from the *comment* lines around the
        // attribute — the convention is `// remove in PR N` on or above
        // the `#[deprecated]` line.
        match removal_pr(lines, i) {
            Some(pr) if current_pr >= pr => out.push(Diagnostic::new(
                "OD005",
                path,
                i + 1,
                &format!(
                    "deprecated item was scheduled for removal in PR {pr} \
                     (current PR is {current_pr}) — delete it"
                ),
            )),
            Some(_) => {}
            None => out.push(Diagnostic::new(
                "OD005",
                path,
                i + 1,
                "`#[deprecated]` without a `// remove in PR N` comment — \
                 an open-ended deprecation never gets deleted",
            )),
        }
    }
    out
}

/// Find `remove in PR <N>` in the comments on line `i` or up to
/// [`LOOKBACK`] lines above it.
fn removal_pr(lines: &[Line], i: usize) -> Option<usize> {
    let from = i.saturating_sub(LOOKBACK);
    for line in lines[from..=i].iter().rev() {
        let lower = line.comment.to_lowercase();
        if let Some(at) = lower.find("remove in pr") {
            let digits: String = lower[at + "remove in pr".len()..]
                .chars()
                .skip_while(|c| c.is_whitespace())
                .take_while(|c| c.is_ascii_digit())
                .collect();
            return digits.parse().ok();
        }
    }
    None
}

/// Is there a justification `marker` in the comments on line `i` or up
/// to [`LOOKBACK`] lines above it?
fn justified(lines: &[Line], i: usize, marker: &str) -> bool {
    let from = i.saturating_sub(LOOKBACK);
    lines[from..=i].iter().any(|l| l.comment.contains(marker))
}

/// `// devlint: allow(ODxxx)` on the same line or the line above.
fn suppressed(lines: &[Line], i: usize, code: &str) -> bool {
    let needle = format!("devlint: allow({code})");
    lines[i.saturating_sub(1)..=i]
        .iter()
        .any(|l| l.comment.contains(&needle))
}

/// The current PR number: one more than the largest `N` among the
/// `CHANGES.md` lines that begin `PR N:`. Other lines (`FOUND:`,
/// `MENDED:`) and gaps in the numbering do not count. Callers pass the
/// lines.
pub fn current_pr(changes_md_lines: &[&str]) -> usize {
    changes_md_lines
        .iter()
        .filter_map(|l| {
            l.strip_prefix("PR ")?
                .split_once(':')?
                .0
                .parse::<usize>()
                .ok()
        })
        .max()
        .unwrap_or(0)
        + 1
}

/// Lint one `Cargo.toml` for the hermetic-build policy: every dependency
/// must resolve inside the repository (`path = …` or `workspace = true`).
pub fn lint_manifest(path: &str, text: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            in_deps = is_dependency_section(line);
            continue;
        }
        if !in_deps {
            continue;
        }
        // A dependency spec line: `name = …` or `name.workspace = true`.
        let Some((_name, spec)) = line.split_once('=') else {
            continue;
        };
        let ok = spec.contains("path")
            || spec.contains("workspace = true")
            || line.contains(".workspace");
        if !ok && !raw.contains("devlint: allow(OD004)") {
            out.push(Diagnostic::new(
                "OD004",
                path,
                i + 1,
                "non-path dependency — the build is hermetic; vendor it under \
                 `compat/` and depend on it by path",
            ));
        }
    }
    out
}

fn is_dependency_section(header: &str) -> bool {
    let h = header.trim_matches(|c| c == '[' || c == ']');
    matches!(
        h,
        "dependencies" | "dev-dependencies" | "build-dependencies" | "workspace.dependencies"
    ) || h.starts_with("dependencies.")
        || h.starts_with("dev-dependencies.")
        || h.starts_with("build-dependencies.")
        || h.starts_with("workspace.dependencies.")
        || h.starts_with("target.") && h.contains("dependencies")
}
