//! # optimatch-devlint
//!
//! The workspace linting itself: a clippy-style pass over this
//! repository's own source enforcing the contracts the concurrency and
//! hermetic-build policies rest on. Rules carry stable `OD0xx` codes
//! (see [`rules`]) and are suppressible per-site with
//! `// devlint: allow(OD001)` on or directly above the flagged line.
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p optimatch-devlint                  # report
//! cargo run -p optimatch-devlint -- --deny-warnings   # CI: exit 1 on any
//! ```
//!
//! Scope: `crates/**` and the top-level `src/` and `Cargo.toml` files.
//! Vendored code under `compat/`, test files, and benches are exempt
//! from the *source* rules (tests weaken orderings deliberately — that
//! is what the loom mutation checks are); every `Cargo.toml` in the
//! repository, vendored or not, is held to the dependency policy.
//!
//! No `syn`, no `toml` crate — a [`lexer`] that knows exactly enough
//! Rust (comments, strings, char-vs-lifetime) to keep the rules honest,
//! in keeping with the policy this crate enforces.

use std::path::{Path, PathBuf};

pub mod lexer;
pub mod rules;

pub use rules::{current_pr, lint_manifest, lint_rust_source, scope_for, SourceScope};

/// One finding, pointing at a repo-relative file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code (`OD001` …).
    pub code: &'static str,
    /// Repo-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human explanation, including what to do about it.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(code: &'static str, file: &str, line: usize, message: &str) -> Diagnostic {
        Diagnostic {
            code,
            file: file.to_string(),
            line,
            message: message.to_string(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "warning[{}]: {}:{}: {}",
            self.code, self.file, self.line, self.message
        )
    }
}

/// Lint the whole workspace rooted at `root`. Reads `CHANGES.md` for the
/// current PR number (one line per landed PR), walks every tracked
/// `.rs`/`Cargo.toml`, and returns the findings sorted by file and line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let changes = std::fs::read_to_string(root.join("CHANGES.md")).unwrap_or_default();
    let pr = current_pr(&changes.lines().collect::<Vec<_>>());

    let mut files = Vec::new();
    collect_files(root, root, &mut files)?;
    files.sort();

    let mut out = Vec::new();
    let mut sources = Vec::new();
    for rel in &files {
        let text = std::fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if rel_str.ends_with("Cargo.toml") {
            out.extend(lint_manifest(&rel_str, &text));
        } else {
            out.extend(lint_rust_source(&rel_str, &text, scope_for(&rel_str), pr));
            sources.push((rel_str, text));
        }
    }
    out.extend(rules::lint_test_only_fns(&sources));
    out.sort_by(|a, b| (&a.file, a.line, a.code).cmp(&(&b.file, b.line, b.code)));
    Ok(out)
}

/// Recursively collect lintable files, skipping build output, VCS
/// internals, and anything that is not ours to police.
fn collect_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "target" | ".git" | ".github" | "node_modules"
            ) {
                continue;
            }
            collect_files(root, &path, out)?;
        } else if name == "Cargo.toml" || name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rules::SourceScope;

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn od001_flags_unjustified_relaxed_and_accepts_justified() {
        let bad = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        let diags = lint_rust_source("crates/x/src/a.rs", bad, SourceScope::Production, 8);
        assert_eq!(codes(&diags), ["OD001"]);
        assert_eq!(diags[0].line, 1);

        let good = "fn f(c: &AtomicU64) {\n    // relaxed: independent counter.\n    c.fetch_add(1, Ordering::Relaxed);\n}";
        assert!(lint_rust_source("crates/x/src/a.rs", good, SourceScope::Production, 8).is_empty());
    }

    #[test]
    fn od001_suppression_works_on_line_or_above() {
        let s = "// devlint: allow(OD001)\nc.load(Ordering::Relaxed);";
        assert!(lint_rust_source("crates/x/src/a.rs", s, SourceScope::Production, 8).is_empty());
        let s = "c.load(Ordering::Relaxed); // devlint: allow(OD001)";
        assert!(lint_rust_source("crates/x/src/a.rs", s, SourceScope::Production, 8).is_empty());
    }

    #[test]
    fn od002_flags_safety_less_unsafe() {
        let bad = "pub fn g() { unsafe { do_thing() } }";
        assert_eq!(
            codes(&lint_rust_source(
                "crates/x/src/a.rs",
                bad,
                SourceScope::Production,
                8
            )),
            ["OD002"]
        );
        let good = "pub fn g() {\n    // SAFETY: do_thing has no invariants beyond a live ptr.\n    unsafe { do_thing() }\n}";
        assert!(lint_rust_source("crates/x/src/a.rs", good, SourceScope::Production, 8).is_empty());
    }

    #[test]
    fn od002_not_fooled_by_strings_or_identifiers() {
        let s = "let msg = \"unsafe code is bad\"; let x = unsafe_marker();";
        assert!(lint_rust_source("crates/x/src/a.rs", s, SourceScope::Production, 8).is_empty());
    }

    #[test]
    fn od003_only_fires_in_serve_handler_scope() {
        let s = "fn handle(r: &Request) -> Response { r.parse().unwrap() }";
        assert_eq!(
            codes(&lint_rust_source(
                "crates/serve/src/router.rs",
                s,
                SourceScope::ServeHandler,
                8
            )),
            ["OD003"]
        );
        assert!(lint_rust_source("crates/core/src/a.rs", s, SourceScope::Production, 8).is_empty());
    }

    #[test]
    fn od006_fires_only_in_vfs_covered_storage_code() {
        let s = "fn load(p: &Path) -> Vec<u8> { std::fs::read(p).unwrap() }";
        // Inside the repo crate (outside vfs.rs): flagged.
        assert_eq!(
            codes(&lint_rust_source(
                "crates/repo/src/store.rs",
                s,
                SourceScope::Production,
                8
            )),
            ["OD006"]
        );
        // The stats sidecar is covered too.
        assert_eq!(
            codes(&lint_rust_source(
                "crates/core/src/stats.rs",
                s,
                SourceScope::Production,
                8
            )),
            ["OD006"]
        );
        // vfs.rs is where the real syscalls are supposed to live.
        assert!(
            lint_rust_source("crates/repo/src/vfs.rs", s, SourceScope::Production, 8).is_empty()
        );
        // Everything else may use std::fs freely.
        assert!(
            lint_rust_source("crates/core/src/session.rs", s, SourceScope::Production, 8)
                .is_empty()
        );
        // Suppression works like every other rule.
        let allowed = "// devlint: allow(OD006)\nlet f = std::fs::File::open(p);";
        assert!(lint_rust_source(
            "crates/repo/src/store.rs",
            allowed,
            SourceScope::Production,
            8
        )
        .is_empty());
    }

    #[test]
    fn test_tail_is_exempt_from_source_rules() {
        let s = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.load(Ordering::Relaxed); unsafe { y() } }\n}";
        assert!(lint_rust_source("crates/x/src/a.rs", s, SourceScope::Production, 8).is_empty());
    }

    #[test]
    fn od004_flags_registry_dependencies() {
        let bad = "[dependencies]\nserde = \"1.0\"\nlocal = { path = \"../local\" }\nws.workspace = true\n";
        let diags = lint_manifest("crates/x/Cargo.toml", bad);
        assert_eq!(codes(&diags), ["OD004"]);
        assert_eq!(diags[0].line, 2);

        let good = "[dependencies]\nlocal = { path = \"../local\" }\n\n[dev-dependencies]\nws = { workspace = true }\n";
        assert!(lint_manifest("crates/x/Cargo.toml", good).is_empty());
    }

    #[test]
    fn od004_ignores_non_dependency_sections() {
        let s = "[package]\nname = \"x\"\nversion = \"0.1.0\"\n\n[lints.rust]\nunexpected_cfgs = { level = \"warn\" }\n";
        assert!(lint_manifest("crates/x/Cargo.toml", s).is_empty());
    }

    #[test]
    fn od005_overdue_and_markerless_deprecations() {
        let overdue = "// remove in PR 5\n#[deprecated(note = \"use new_thing\")]\npub fn old() {}";
        let diags = lint_rust_source("crates/x/src/a.rs", overdue, SourceScope::Production, 8);
        assert_eq!(codes(&diags), ["OD005"]);
        assert!(diags[0].message.contains("PR 5"));

        let not_yet =
            "// remove in PR 99\n#[deprecated(note = \"use new_thing\")]\npub fn old() {}";
        assert!(
            lint_rust_source("crates/x/src/a.rs", not_yet, SourceScope::Production, 8).is_empty()
        );

        let markerless = "#[deprecated]\npub fn old() {}";
        let diags = lint_rust_source("crates/x/src/a.rs", markerless, SourceScope::Production, 8);
        assert_eq!(codes(&diags), ["OD005"]);
        assert!(diags[0].message.contains("remove in PR"));
    }

    #[test]
    fn od007_flags_suffixed_siblings_of_a_public_fn() {
        // One diagnostic, at the suffixed sibling; a suffixed function
        // without a public base, or a non-public one, is fine.
        let fixture = concat!(
            "pub fn scan(w: &[Qep]) -> Report { scan_with(w, Options::new()) }\n",
            "pub fn scan_with(w: &[Qep], o: Options) -> Report { run(w, o) }\n",
            "pub fn find_traced(t: &Qep) {}\n",
            "pub fn render(p: &Plan) {}\n",
            "pub(crate) fn render_budgeted(p: &Plan) {}\n",
        );
        let diags = lint_rust_source(
            "crates/x/src/fixture.rs",
            fixture,
            SourceScope::Production,
            8,
        );
        assert_eq!(codes(&diags), ["OD007"]);
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].message.contains("`pub fn scan`"));

        for suffix in [
            "_budgeted",
            "_traced",
            "_with_options",
            "_parsed",
            "_directed",
        ] {
            let s = format!("pub fn find() {{}}\npub fn find{suffix}() {{}}\n");
            let diags = lint_rust_source("crates/x/src/a.rs", &s, SourceScope::Production, 8);
            assert_eq!(codes(&diags), ["OD007"], "{suffix}");
        }

        let allowed = "pub fn scan() {}\n// devlint: allow(OD007)\npub fn scan_with() {}\n";
        assert!(
            lint_rust_source("crates/x/src/a.rs", allowed, SourceScope::Production, 8).is_empty()
        );
        let in_tests = "pub fn scan() {}\n#[cfg(test)]\nmod tests {\n    pub fn scan_with() {}\n}";
        assert!(
            lint_rust_source("crates/x/src/a.rs", in_tests, SourceScope::Production, 8).is_empty()
        );
        assert!(
            lint_rust_source("crates/x/tests/a.rs", fixture, SourceScope::Exempt, 8).is_empty()
        );
    }

    #[test]
    fn od008_flags_a_pub_fn_that_only_its_own_tests_name() {
        let lib = concat!(
            "pub fn used_by_a_test_file() {}\n",
            "pub fn test_only() {}\n",
            "// Kept for fault tests. devlint: allow(OD008)\n",
            "pub fn allowed() {}\n",
            "pub fn called_here() {}\n",
            "fn caller() { called_here() }\n",
            "const NAME: &str = \"test_only\"; // test_only\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { super::test_only(); super::allowed(); }\n",
            "}\n",
        );
        let files = [
            ("crates/x/src/lib.rs", lib),
            (
                "crates/y/tests/it.rs",
                "pub fn helper() { x::used_by_a_test_file(); } // x::test_only()\n",
            ),
        ]
        .map(|(path, text)| (path.to_string(), text.to_string()));
        // Comments and strings are no callers; a `pub fn` outside
        // `crates/*/src` is not checked.
        let diags = rules::lint_test_only_fns(&files);
        assert_eq!(codes(&diags), ["OD008"]);
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].message.contains("`pub fn test_only`"));
    }

    #[test]
    fn current_pr_counts_changes_lines() {
        assert_eq!(current_pr(&[]), 1);
        assert_eq!(current_pr(&["PR 1: seed", "PR 2: more", ""]), 3);
        // FOUND/MENDED lines are not PRs, and a number with no line of
        // its own (3 here) leaves a gap that must not lower the count.
        let changes = [
            "PR 1: seed",
            "PR 2: more",
            "FOUND: `x` (crates/x/src/lib.rs) panics",
            "MENDED: `y` no longer panics",
            "PR 4: [perf_opt] faster",
            "FOUND: PR 9: a quoted line is no PR line",
        ];
        assert_eq!(current_pr(&changes), 5);
    }

    #[test]
    fn the_issue_fixture_produces_the_expected_codes() {
        // The acceptance fixture: an unjustified Relaxed, a SAFETY-less
        // unsafe, and an overdue deprecation in one file.
        let fixture = concat!(
            "static N: AtomicU64 = AtomicU64::new(0);\n",
            "pub fn bump() { N.fetch_add(1, Ordering::Relaxed); }\n",
            "pub fn peek() -> u64 { unsafe { *N.as_ptr() } }\n",
            "// remove in PR 3\n",
            "#[deprecated(note = \"use bump\")]\n",
            "pub fn incr() { bump(); }\n",
        );
        let diags = lint_rust_source(
            "crates/x/src/fixture.rs",
            fixture,
            SourceScope::Production,
            8,
        );
        assert_eq!(codes(&diags), ["OD001", "OD002", "OD005"]);
        assert_eq!(diags.iter().map(|d| d.line).collect::<Vec<_>>(), [2, 3, 5]);
    }

    /// The linter's reason to exist: the workspace itself is clean. This
    /// is the same invocation CI runs with `--deny-warnings`.
    #[test]
    fn the_workspace_lints_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let diags = lint_workspace(root).expect("walk workspace");
        assert!(
            diags.is_empty(),
            "workspace has devlint findings:\n{}",
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
