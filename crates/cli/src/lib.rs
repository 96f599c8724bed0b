//! Command implementations for the `optimatch` CLI.
//!
//! Each command is a plain function from parsed arguments to a rendered
//! `String`, so the whole surface is unit-testable without spawning
//! processes; `main.rs` only parses `argv` and prints.
//!
//! ```text
//! optimatch gen    --out DIR [--n N] [--seed S] [--study]
//! optimatch stats  DIR
//! optimatch tree   FILE.qep
//! optimatch rdf    FILE.qep [--format turtle|ntriples]
//! optimatch search SOURCE (--builtin NAME | --pattern FILE.json)
//! optimatch scan   SOURCE [--kb FILE.json] [--threads N] [--no-prune]
//! optimatch repo   build DIR OUT.repo | add REPO DIR | stats REPO | verify REPO
//! optimatch sparql FILE.qep QUERY.rq
//! optimatch kb-init FILE.json [--extended]
//! optimatch kb lint [FILE.json] [--builtin|--extended] [--workload PATH]
//!                   [--format text|json] [--deny-warnings]
//! optimatch serve  SOURCE [--kb FILE.json] [--addr HOST:PORT] [--workers N]
//!                   [--queue N] [--max-body BYTES] [--read-timeout-ms MS]
//!                   [--drain-ms MS] [--threads N] [--no-prune] [--fuel N]
//!                   [--deadline-ms MS]
//! optimatch ingest ADDR [FILE.qep ...] [--kb FILE.json]
//! optimatch diff   BEFORE.qep AFTER.qep [--format text|json] [--threshold X]
//! optimatch regress BEFORE.qep AFTER.qep [--kb FILE.json] [--threshold X]
//!                   [--format text|json] [--fuel N] [--deadline-ms MS] [--fail-fast]
//! ```
//!
//! `SOURCE` is a plan directory, a single plan file, or a persistent
//! workload repository (detected by its 8-byte `OPTIREPO` magic).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use optimatch_core::{
    builtin, EvalStats, KnowledgeBase, OpenOptions, OptImatch, Pattern, PlanOptions, ScanOptions,
    SessionManager, Source,
};
use optimatch_qep::{parse_qep, render_tree, workload_stats};
use optimatch_rdf::turtle::{to_turtle, PrefixMap};
use optimatch_workload::{
    generate_workload, study_workload, write_workload, GeneratorConfig, InjectionConfig,
    WorkloadConfig,
};

/// A CLI failure: message for the user, non-zero exit.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(s: String) -> CliError {
        CliError(s)
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Exit code for a scan that completed but contained incidents — distinct
/// from success (0) and hard failure (1), so scripts can tell "complete
/// but not exhaustive" apart from both.
pub const EXIT_DEGRADED: i32 = 2;

/// A successful command's rendered output, plus whether it completed
/// *degraded* (a scan contained incidents: every healthy unit ran, but
/// the report is not exhaustive). `main` maps `degraded` to
/// [`EXIT_DEGRADED`].
#[derive(Debug)]
pub struct CmdOutput {
    /// The text to print.
    pub text: String,
    /// True when the command completed with contained incidents.
    pub degraded: bool,
}

impl CmdOutput {
    fn clean(text: String) -> CmdOutput {
        CmdOutput {
            text,
            degraded: false,
        }
    }
}

/// Minimal flag parser: positional arguments plus `--key value` /
/// `--flag` options.
#[derive(Debug, Default)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// `--key value` options and bare `--flag`s (value empty).
    pub options: Vec<(String, String)>,
}

/// Options that never take a value. (`--builtin` is absent on purpose:
/// `search --builtin NAME` takes a value, so `kb lint --builtin` relies
/// on the parser's rule that a flag followed by another `--` option or
/// nothing keeps an empty value.)
const BOOL_FLAGS: &[&str] = &[
    "study",
    "no-prune",
    "no-optimize",
    "deny-warnings",
    "extended",
    "fail-fast",
    "record-stats",
    "timings",
];

impl Args {
    /// Parse raw arguments (without the program and subcommand names).
    pub fn parse(raw: &[String]) -> Args {
        let mut args = Args::default();
        let mut i = 0;
        while i < raw.len() {
            if let Some(key) = raw[i].strip_prefix("--") {
                let value = if BOOL_FLAGS.contains(&key) {
                    String::new()
                } else {
                    raw.get(i + 1)
                        .filter(|v| !v.starts_with("--"))
                        .cloned()
                        .unwrap_or_default()
                };
                let consumed = if value.is_empty() { 1 } else { 2 };
                args.options.push((key.to_string(), value));
                i += consumed;
            } else {
                args.positional.push(raw[i].clone());
                i += 1;
            }
        }
        args
    }

    /// The value of `--key`, if given.
    pub fn option(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// True when `--key` appeared (with or without a value).
    pub fn flag(&self, key: &str) -> bool {
        self.options.iter().any(|(k, _)| k == key)
    }

    /// Error on any option not in `known` — catches typos like
    /// `--no-prunee` that would otherwise be silently ignored.
    fn expect_options(&self, known: &[&str]) -> Result<(), CliError> {
        for (k, _) in &self.options {
            if !known.iter().any(|n| n == k) {
                return Err(CliError(format!("unknown option --{k}")));
            }
        }
        Ok(())
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.option(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("--{key}: bad value {v:?}"))),
        }
    }
}

/// Top-level dispatch; returns the text to print. Degraded completion is
/// dropped — use [`run_with_status`] when the exit code matters.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    run_with_status(argv).map(|o| o.text)
}

/// [`run`], but keeping the degraded-completion flag so `main` can exit
/// with [`EXIT_DEGRADED`] when a scan survived incidents.
pub fn run_with_status(argv: &[String]) -> Result<CmdOutput, CliError> {
    let Some(command) = argv.first() else {
        return Ok(CmdOutput::clean(usage()));
    };
    let args = Args::parse(&argv[1..]);
    match command.as_str() {
        "gen" => cmd_gen(&args).map(CmdOutput::clean),
        "stats" => cmd_stats(&args).map(CmdOutput::clean),
        "tree" => cmd_tree(&args).map(CmdOutput::clean),
        "rdf" => cmd_rdf(&args).map(CmdOutput::clean),
        "search" => cmd_search(&args),
        "scan" => cmd_scan(&args),
        "explain" => cmd_explain(&args).map(CmdOutput::clean),
        "cluster" => cmd_cluster(&args).map(CmdOutput::clean),
        "repo" => cmd_repo(&args).map(CmdOutput::clean),
        "diff" => cmd_diff(&args),
        "regress" => cmd_regress(&args),
        "sparql" => cmd_sparql(&args).map(CmdOutput::clean),
        "kb" => cmd_kb(&args).map(CmdOutput::clean),
        "kb-init" => cmd_kb_init(&args).map(CmdOutput::clean),
        "serve" => cmd_serve(&args).map(CmdOutput::clean),
        "ingest" => cmd_ingest(&args).map(CmdOutput::clean),
        "help" | "--help" | "-h" => Ok(CmdOutput::clean(usage())),
        other => err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

/// The help text.
pub fn usage() -> String {
    "optimatch — query performance problem determination (OptImatch, EDBT 2016)\n\
     \n\
     USAGE:\n\
     \x20 optimatch gen    --out DIR [--n N] [--seed S] [--study]   generate a workload\n\
     \x20 optimatch stats  DIR                                      workload statistics\n\
     \x20 optimatch tree   FILE.qep                                 render the plan tree\n\
     \x20 optimatch rdf    FILE.qep [--format turtle|ntriples]      dump the RDF transform\n\
     \x20 optimatch search SOURCE (--builtin NAME | --pattern F.json)  find a problem pattern\n\
     \x20                  [--fuel N] [--deadline-ms MS] [--fail-fast] [--no-optimize]\n\
     \x20 optimatch scan   SOURCE [--kb F.json] [--threads N] [--no-prune] [--format json]\n\
     \x20                  [--fuel N] [--deadline-ms MS] [--fail-fast]  knowledge-base scan\n\
     \x20                  [--no-optimize] [--timings]                 (--timings adds planner counters)\n\
     \x20 optimatch explain SOURCE (--builtin NAME | --pattern F.json)  render the planner's physical\n\
     \x20                  [--no-optimize]                             plan per QEP without evaluating\n\
     \x20 optimatch repo   build DIR OUT.repo                       snapshot a plan dir\n\
     \x20 optimatch repo   add REPO DIR                             ingest new plans\n\
     \x20 optimatch repo   stats REPO                               repository statistics\n\
     \x20 optimatch repo   verify REPO                              integrity check (exit 1 on damage)\n\
     \x20 optimatch cluster DIR [--k N]                             cost clusters x patterns\n\
     \x20 optimatch diff   BEFORE.qep AFTER.qep                     plan regression report\n\
     \x20                  [--format text|json] [--threshold X]     (exit 2 on regression)\n\
     \x20 optimatch regress BEFORE.qep AFTER.qep [--kb F.json]      KB delta diagnosis over an\n\
     \x20                  [--threshold X] [--format text|json]     aligned plan pair (exit 2\n\
     \x20                  [--fuel N] [--deadline-ms MS] [--fail-fast]  when findings/incidents)\n\
     \x20 optimatch sparql FILE.qep QUERY.rq                        ad-hoc SPARQL over a plan\n\
     \x20 optimatch kb-init FILE.json [--extended]                  write the built-in KB\n\
     \x20 optimatch kb lint [F.json] [--builtin|--extended]         static analysis over KB\n\
     \x20                   [--workload PATH] [--format text|json] [--deny-warnings]\n\
     \x20                                                            entries (exit 1 on errors;\n\
     \x20                                                            --workload adds dead-pattern\n\
     \x20                                                            detection)\n\
     \x20 optimatch serve  SOURCE [--kb F.json] [--addr HOST:PORT]   long-running HTTP diagnosis\n\
     \x20                   [--workers N] [--queue N] [--max-body BYTES]  service (POST /v1/diagnose,\n\
     \x20                   [--read-timeout-ms MS] [--drain-ms MS]    POST /v1/search, GET /v1/scan,\n\
     \x20                   [--threads N] [--no-prune] [--fuel N]     POST /v1/regress, GET /v1/stats,\n\
     \x20                   [--deadline-ms MS] [--record-stats]       GET /healthz, GET /metrics);\n\
     \x20                                                            drains on SIGINT/SIGTERM;\n\
     \x20                                                            --record-stats appends fired\n\
     \x20                                                            matches to REPO.stats, whose\n\
     \x20                                                            learned weights GET /v1/stats\n\
     \x20                                                            reports (rankings unchanged)\n\
     \x20 optimatch ingest ADDR [FILE.qep ...] [--kb F.json]         push plans (POST /v1/ingest)\n\
     \x20                                                            and/or a KB (POST /v1/kb) into\n\
     \x20                                                            a running repository-backed\n\
     \x20                                                            server; each accepted plan\n\
     \x20                                                            publishes a new generation\n\
     \n\
     SOURCE for search/scan is a plan directory, a single plan file, or a\n\
     persistent workload repository built with `repo build` — repository\n\
     files are auto-detected by their 8-byte OPTIREPO magic and give\n\
     warm-start sessions (no plan parsing, no RDF transform).\n\
     \n\
     --fuel/--deadline-ms bound each per-(pattern, QEP) evaluation; a unit\n\
     exceeding its budget (or panicking) is contained and reported as a\n\
     `warning: incident` line, and the command exits 2 (degraded) instead\n\
     of 0. --fail-fast aborts at the first incident with exit 1.\n\
     \n\
     Built-in pattern names: pattern-a-nljoin-tbscan, pattern-b-loj-join-order,\n\
     pattern-c-cardinality-collapse, pattern-d-sort-spill\n"
        .to_string()
}

fn cmd_gen(args: &Args) -> Result<String, CliError> {
    args.expect_options(&["out", "n", "seed", "study"])?;
    let out = args
        .option("out")
        .map(PathBuf::from)
        .ok_or_else(|| CliError("gen: --out DIR is required".into()))?;
    let seed: u64 = args.parse_num("seed", 0x0DB2)?;
    let workload = if args.flag("study") {
        study_workload(seed)
    } else {
        let n: usize = args.parse_num("n", 100)?;
        generate_workload(&WorkloadConfig {
            seed,
            num_qeps: n,
            generator: GeneratorConfig::default(),
            injection: InjectionConfig::paper_rates(),
        })
    };
    write_workload(&workload, &out).map_err(|e| CliError(e.to_string()))?;
    Ok(format!(
        "wrote {} QEPs (+ MANIFEST.tsv) to {}",
        workload.qeps.len(),
        out.display()
    ))
}

fn load_plans(args: &Args) -> Result<Vec<optimatch_qep::Qep>, CliError> {
    let path = args
        .positional
        .first()
        .map(PathBuf::from)
        .ok_or_else(|| CliError("expected a plan file or directory".into()))?;
    load_plans_from(&path)
}

fn load_plans_from(path: &Path) -> Result<Vec<optimatch_qep::Qep>, CliError> {
    if path.is_dir() {
        let w = optimatch_workload::load_workload(path).map_err(|e| CliError(e.to_string()))?;
        Ok(w.qeps)
    } else {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
        let qep = parse_qep(&text).map_err(|e| CliError(format!("{}: {e}", path.display())))?;
        Ok(vec![qep])
    }
}

/// Build a session from the first positional argument. Directories load
/// leniently: unparseable plan files are returned as warnings instead of
/// aborting, so one corrupt file cannot block a whole-workload analysis.
/// A file starting with the 8-byte repository magic (`OPTIREPO`) is
/// opened as a persistent workload repository — also leniently, with
/// damaged records reported as warnings; anything else is parsed as a
/// single plan file.
fn load_session(args: &Args) -> Result<(OptImatch, Source, Vec<String>), CliError> {
    let opened = open_session(args, false)?;
    let warnings = opened
        .skipped
        .iter()
        .map(|s| format!("skipped {s}"))
        .collect();
    Ok((opened.session, opened.source, warnings))
}

/// The open behind [`load_session`], also used directly by `serve` (which
/// additionally needs the [`optimatch_core::Opened::stats`] sidecar when
/// `--record-stats` is given).
fn open_session(args: &Args, record_stats: bool) -> Result<optimatch_core::Opened, CliError> {
    open_session_on(args, record_stats, None)
}

/// [`open_session`] with an optional injected filesystem for the durable
/// stores (`optimatch serve --max-repo-bytes` wraps the real disk in a
/// [`optimatch_core::vfs::CappedFs`] here).
fn open_session_on(
    args: &Args,
    record_stats: bool,
    vfs: Option<std::sync::Arc<dyn optimatch_core::vfs::Vfs>>,
) -> Result<optimatch_core::Opened, CliError> {
    let path = args
        .positional
        .first()
        .map(PathBuf::from)
        .ok_or_else(|| CliError("expected a plan file, directory, or repository".into()))?;
    let source = Source::detect(&path).map_err(|e| CliError(e.to_string()))?;
    // A single plan file stays strict: with exactly one input, "skip the
    // broken file" would mean silently analysing nothing.
    let mut options = match source {
        Source::File(_) => OpenOptions::new(),
        Source::Dir(_) | Source::Repo(_) => OpenOptions::new().lenient(),
    };
    if let Some(vfs) = vfs {
        options = options.vfs(vfs);
    }
    OptImatch::open(source, options.record_stats(record_stats)).map_err(|e| CliError(e.to_string()))
}

/// One `warning:` line per message, for the top of a report.
fn warning_lines(warnings: &[String]) -> String {
    let mut out = String::new();
    for w in warnings {
        let _ = writeln!(out, "warning: {w}");
    }
    out
}

fn cmd_stats(args: &Args) -> Result<String, CliError> {
    args.expect_options(&[])?;
    let plans = load_plans(args)?;
    Ok(format!("{}\n", workload_stats(plans.iter())))
}

fn cmd_tree(args: &Args) -> Result<String, CliError> {
    args.expect_options(&[])?;
    let plans = load_plans(args)?;
    let mut out = String::new();
    for qep in &plans {
        let _ = writeln!(out, "=== {} ===", qep.id);
        out.push_str(&render_tree(qep));
        out.push('\n');
    }
    Ok(out)
}

fn cmd_rdf(args: &Args) -> Result<String, CliError> {
    args.expect_options(&["format"])?;
    let plans = load_plans(args)?;
    let format = args.option("format").unwrap_or("turtle");
    let mut out = String::new();
    for qep in &plans {
        let graph = optimatch_core::transform_qep(qep);
        match format {
            "turtle" => {
                let mut pm = PrefixMap::new();
                pm.add("popURI", optimatch_core::vocab::POP_NS);
                pm.add("predURI", optimatch_core::vocab::PRED_NS);
                out.push_str(&to_turtle(&graph, &pm));
            }
            "ntriples" => out.push_str(&optimatch_rdf::ntriples::to_ntriples(&graph)),
            other => return err(format!("rdf: unknown --format {other:?}")),
        }
    }
    Ok(out)
}

fn resolve_pattern(args: &Args) -> Result<Pattern, CliError> {
    if let Some(name) = args.option("builtin") {
        return builtin::paper_entries()
            .into_iter()
            .find(|e| e.name == name)
            .map(|e| e.pattern)
            .ok_or_else(|| CliError(format!("unknown built-in pattern {name:?}")));
    }
    if let Some(file) = args.option("pattern") {
        let json = std::fs::read_to_string(file).map_err(|e| CliError(format!("{file}: {e}")))?;
        return Pattern::from_json(&json).map_err(|e| CliError(format!("{file}: {e}")));
    }
    err("search: give --builtin NAME or --pattern FILE.json")
}

/// The `--kb FILE.json` knowledge base, or the paper's built-in one.
fn resolve_kb(args: &Args) -> Result<KnowledgeBase, CliError> {
    match args.option("kb") {
        Some(file) => {
            KnowledgeBase::load(Path::new(file)).map_err(|e| CliError(format!("{file}: {e}")))
        }
        None => Ok(builtin::paper_kb()),
    }
}

/// Apply the shared budget flags (`--fuel`, `--deadline-ms`,
/// `--fail-fast`) to a [`ScanOptions`].
fn budget_options(args: &Args, mut options: ScanOptions) -> Result<ScanOptions, CliError> {
    if let Some(v) = args.option("fuel") {
        let fuel: u64 = v
            .parse()
            .map_err(|_| CliError(format!("--fuel: bad value {v:?}")))?;
        options = options.fuel(fuel);
    }
    if let Some(v) = args.option("deadline-ms") {
        let ms: u64 = v
            .parse()
            .map_err(|_| CliError(format!("--deadline-ms: bad value {v:?}")))?;
        options = options.deadline(std::time::Duration::from_millis(ms));
    }
    Ok(options.fail_fast(args.flag("fail-fast")))
}

/// One `warning: incident …` line per contained scan-unit failure.
fn incident_lines(incidents: &[optimatch_core::ScanIncident]) -> String {
    let mut out = String::new();
    for i in incidents {
        let _ = writeln!(out, "warning: incident {i}");
    }
    out
}

/// One `planner: …` line summarizing the trace counters of the last
/// operation (what `scan --timings` and `search` surface).
fn planner_line(planner: &EvalStats) -> String {
    format!(
        "planner: {} pattern(s) estimated, {} reorder(s), est {} vs actual {} rows, \
         index spo/pos/osp {}/{}/{}, {} backward path(s)\n",
        planner.patterns,
        planner.reorders,
        planner.estimated_rows,
        planner.actual_rows,
        planner.index_spo,
        planner.index_pos,
        planner.index_osp,
        planner.backward_paths,
    )
}

fn cmd_search(args: &Args) -> Result<CmdOutput, CliError> {
    args.expect_options(&[
        "builtin",
        "pattern",
        "fuel",
        "deadline-ms",
        "fail-fast",
        "no-optimize",
    ])?;
    let (session, _source, skipped) = load_session(args)?;
    let pattern = resolve_pattern(args)?;
    let options = budget_options(
        args,
        ScanOptions::default()
            .prune(false)
            .optimize(!args.flag("no-optimize")),
    )?;
    let started = std::time::Instant::now();
    let outcome = session
        .search_with(&pattern, &options)
        .map_err(|e| CliError(e.to_string()))?;
    let took = started.elapsed();
    let matches = outcome.matches;
    let mut out = warning_lines(&skipped);
    out.push_str(&incident_lines(&outcome.incidents));
    let _ = writeln!(
        out,
        "pattern {:?}: {} occurrence(s) in {} QEP(s)  [{:?}]",
        pattern.name,
        matches.len(),
        matches
            .iter()
            .map(|m| m.qep_id.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        took,
    );
    for m in &matches {
        let _ = write!(out, "  {}:", m.qep_id);
        for b in &m.bindings {
            let _ = write!(out, " ?{}={}", b.name, b.target.display());
        }
        out.push('\n');
    }
    Ok(CmdOutput {
        text: out,
        degraded: !outcome.incidents.is_empty(),
    })
}

fn cmd_scan(args: &Args) -> Result<CmdOutput, CliError> {
    args.expect_options(&[
        "kb",
        "threads",
        "no-prune",
        "no-optimize",
        "format",
        "fuel",
        "deadline-ms",
        "fail-fast",
        "timings",
    ])?;
    let (session, _source, skipped) = load_session(args)?;
    let kb = resolve_kb(args)?;
    let threads: usize = args.parse_num("threads", 1)?;
    let options = budget_options(
        args,
        ScanOptions::default()
            .threads(threads)
            .prune(!args.flag("no-prune"))
            .optimize(!args.flag("no-optimize")),
    )?;
    let started = std::time::Instant::now();
    let outcome = session
        .scan_with(&kb, options)
        .map_err(|e| CliError(e.to_string()))?;
    let took = started.elapsed();
    let degraded = outcome.is_degraded();
    let reports = outcome.reports;

    if args.option("format") == Some("json") {
        // The same serializer the HTTP service uses (`/v1/scan`,
        // `/v1/diagnose`), so the two surfaces stay byte-identical.
        return Ok(CmdOutput {
            text: optimatch_core::render_scan_json(&reports, &outcome.incidents),
            degraded,
        });
    }

    let mut out = warning_lines(&skipped);
    out.push_str(&incident_lines(&outcome.incidents));
    let flagged = reports
        .iter()
        .filter(|r| !r.recommendations.is_empty())
        .count();
    let _ = writeln!(
        out,
        "scanned {} QEP(s) against {} KB entr(ies): {} flagged  [{:?}]",
        reports.len(),
        kb.len(),
        flagged,
        took,
    );
    let stats = outcome.stats;
    let _ = writeln!(
        out,
        "pruning: {} of {} matcher runs skipped ({:.0}%), {} evaluated, {} matched, {} reused a query core",
        stats.pruned,
        stats.candidates,
        stats.prune_rate() * 100.0,
        stats.evaluated,
        stats.matched,
        stats.shared,
    );
    if args.flag("timings") {
        out.push_str(&planner_line(&outcome.planner));
    }
    if degraded {
        let _ = writeln!(
            out,
            "degraded: {} scan unit(s) failed and were contained; reports are not exhaustive",
            outcome.incidents.len(),
        );
    }
    for report in &reports {
        if report.recommendations.is_empty() {
            continue;
        }
        let _ = writeln!(out, "--- {} ---", report.qep_id);
        let _ = writeln!(out, "{}", report.message());
    }
    Ok(CmdOutput {
        text: out,
        degraded,
    })
}

/// `optimatch explain SOURCE (--builtin NAME | --pattern F.json)` —
/// render the planner's physical plan for the pattern against every
/// workload QEP, without evaluating any rows. `--no-optimize` shows the
/// source-order oracle plan instead, so the two renderings diff cleanly.
fn cmd_explain(args: &Args) -> Result<String, CliError> {
    args.expect_options(&["builtin", "pattern", "no-optimize"])?;
    let (session, _source, skipped) = load_session(args)?;
    let pattern = resolve_pattern(args)?;
    let options = PlanOptions::default().optimize(!args.flag("no-optimize"));
    let plans = session
        .explain(&pattern, options)
        .map_err(|e| CliError(e.to_string()))?;
    let mut out = warning_lines(&skipped);
    let _ = writeln!(
        out,
        "explain pattern {:?} over {} QEP(s) ({}):",
        pattern.name,
        plans.len(),
        if options.optimize {
            "optimized"
        } else {
            "source order"
        },
    );
    for (qep_id, plan) in &plans {
        let _ = writeln!(out, "--- {qep_id} ---");
        let _ = writeln!(out, "{plan}");
    }
    Ok(out)
}

/// `optimatch serve SOURCE ...` — load the workload once, then answer
/// HTTP diagnosis traffic until SIGINT/SIGTERM, then drain gracefully.
///
/// This function blocks for the server's whole lifetime, so unlike the
/// other commands it prints its startup banner eagerly (health probes and
/// the CI smoke test parse the `listening on` line to find the port) and
/// only *returns* the shutdown summary.
fn cmd_serve(args: &Args) -> Result<String, CliError> {
    args.expect_options(&[
        "kb",
        "addr",
        "workers",
        "queue",
        "max-body",
        "read-timeout-ms",
        "drain-ms",
        "threads",
        "no-prune",
        "fuel",
        "deadline-ms",
        "record-stats",
        "max-repo-bytes",
    ])?;
    // `--max-repo-bytes N` caps the durable footprint (repository +
    // sidecar) by wrapping the real disk in a `CappedFs`: growth past the
    // cap fails with ENOSPC, which the server turns into read-only
    // degradation instead of a 500. Useful for ops quotas and for
    // exercising the degradation path without filling a real disk.
    let vfs: Option<std::sync::Arc<dyn optimatch_core::vfs::Vfs>> =
        match args.option("max-repo-bytes") {
            Some(v) => {
                let cap: u64 = v
                    .parse()
                    .map_err(|_| CliError(format!("--max-repo-bytes: bad value {v:?}")))?;
                Some(std::sync::Arc::new(optimatch_core::vfs::CappedFs::new(
                    optimatch_core::vfs::std_fs(),
                    cap,
                )))
            }
            None => None,
        };
    let opened = open_session_on(args, args.flag("record-stats"), vfs.clone())?;
    let skipped: Vec<String> = opened
        .skipped
        .iter()
        .map(|s| format!("skipped {s}"))
        .collect();
    let (session, source, stats) = (opened.session, opened.source, opened.stats);
    let kb = resolve_kb(args)?;
    let threads: usize = args.parse_num("threads", 1)?;
    let scan = budget_options(
        args,
        ScanOptions::default()
            .threads(threads)
            .prune(!args.flag("no-prune")),
    )?;

    let mut options = optimatch_serve::ServeOptions::new().scan(scan);
    if let Some(addr) = args.option("addr") {
        options = options.addr(addr);
    }
    let workers = args.parse_num("workers", options.workers)?;
    let queue = args.parse_num("queue", options.queue)?;
    let max_body = args.parse_num("max-body", options.max_body)?;
    options = options.workers(workers).queue(queue).max_body(max_body);
    if let Some(v) = args.option("read-timeout-ms") {
        let ms: u64 = v
            .parse()
            .map_err(|_| CliError(format!("--read-timeout-ms: bad value {v:?}")))?;
        let t = std::time::Duration::from_millis(ms);
        options = options.read_timeout(t).write_timeout(t);
    }
    if let Some(v) = args.option("drain-ms") {
        let ms: u64 = v
            .parse()
            .map_err(|_| CliError(format!("--drain-ms: bad value {v:?}")))?;
        options = options.drain(std::time::Duration::from_millis(ms));
    }

    let qeps = session.len();
    let entries = kb.len();
    let workers = options.workers;
    // Only a repository-backed session can accept live ingestion; a dir
    // or single-file source still serves, but POST /v1/ingest returns 409.
    let repo_path = source.repo_path().map(Path::to_path_buf);
    let mut manager = SessionManager::new(session, kb, repo_path);
    if let Some(stats) = stats {
        manager = manager.with_stats(stats);
    }
    if let Some(vfs) = vfs {
        manager = manager.with_vfs(vfs);
    }
    let handle = optimatch_serve::Server::start(options, manager)
        .map_err(|e| CliError(format!("serve: {e}")))?;

    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout();
        let _ = write!(stdout, "{}", warning_lines(&skipped));
        let _ = writeln!(
            stdout,
            "optimatch-serve listening on http://{} ({qeps} QEP(s), {entries} KB entr(ies), {workers} worker(s))",
            handle.addr()
        );
        let _ = stdout.flush();
    }

    optimatch_serve::signal::install();
    while !optimatch_serve::signal::requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let report = handle.shutdown();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "shutting down: {} request(s) served, drained={} in {:?}",
        report.requests_total, report.drained, report.waited
    );
    if !report.drained {
        let _ = writeln!(
            out,
            "warning: {} request(s) still in flight past the drain deadline",
            report.stragglers
        );
    }
    Ok(out)
}

/// How many POST attempts `optimatch ingest` makes before giving up on a
/// retryable failure (a `503` or a transport error).
const INGEST_ATTEMPTS: u32 = 5;

/// Backoff base and cap for the retry schedule, in milliseconds.
const INGEST_BACKOFF_BASE_MS: u64 = 100;
const INGEST_BACKOFF_CAP_MS: u64 = 2_000;

/// The deterministic half of the retry policy: attempt `i` (0-based)
/// sleeps a jittered exponential delay in `[cap_i/2, cap_i]` where
/// `cap_i = min(base << i, cap)`. Full-jitter keeps a fleet of clients
/// retrying against one recovering server from thundering in lockstep;
/// the xorshift PRNG keeps the schedule dependency-free and, given a
/// seed, reproducible for tests.
fn backoff_delays(attempts: u32, base_ms: u64, cap_ms: u64, seed: u64) -> Vec<std::time::Duration> {
    let mut x = seed | 1; // xorshift must not start at 0
    (0..attempts)
        .map(|i| {
            let exp = base_ms.saturating_mul(1u64 << i.min(16)).min(cap_ms).max(1);
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::time::Duration::from_millis(exp / 2 + x % (exp / 2 + 1))
        })
        .collect()
}

/// Whether a response status is worth retrying: only `503` — the server
/// saying "overloaded or degraded, come back" (it sends `Retry-After`
/// with it). Client errors and hard server errors are final.
fn retryable_status(status: u16) -> bool {
    status == 503
}

/// POST with bounded retry: transport failures (refused/reset connects,
/// timeouts) and `503` responses are retried on the jittered exponential
/// schedule above; anything else returns immediately. Safe for both
/// ingest endpoints — re-sending a plan that actually landed is a `409`
/// duplicate, not a double append.
fn http_post(addr: &str, path: &str, body: &[u8]) -> Result<(u16, String), CliError> {
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(1);
    let delays = backoff_delays(
        INGEST_ATTEMPTS,
        INGEST_BACKOFF_BASE_MS,
        INGEST_BACKOFF_CAP_MS,
        seed,
    );
    let mut last: Option<CliError> = None;
    for (i, delay) in delays.iter().enumerate() {
        match http_post_once(addr, path, body) {
            Ok((status, resp)) if retryable_status(status) && i + 1 < delays.len() => {
                last = Some(CliError(format!(
                    "ingest: {addr} answered {status} (attempt {} of {INGEST_ATTEMPTS}):\n{resp}",
                    i + 1
                )));
                std::thread::sleep(*delay);
            }
            Ok(result) => return Ok(result),
            Err(e) => {
                if i + 1 >= delays.len() {
                    return Err(e);
                }
                last = Some(e);
                std::thread::sleep(*delay);
            }
        }
    }
    Err(last.unwrap_or_else(|| CliError("ingest: no attempts made".into())))
}

/// Minimal HTTP client for `optimatch ingest`: one POST per call over a
/// fresh connection (`Connection: close`), returning the status code and
/// body. Hand-rolled over [`std::net::TcpStream`] — the serving layer has
/// no client half, and the two endpoints only need this much.
fn http_post_once(addr: &str, path: &str, body: &[u8]) -> Result<(u16, String), CliError> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| CliError(format!("ingest: connect {addr}: {e}")))?;
    let timeout = Some(std::time::Duration::from_secs(30));
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| CliError(format!("ingest: send to {addr}: {e}")))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| CliError(format!("ingest: read from {addr}: {e}")))?;
    let text = String::from_utf8_lossy(&raw);
    let status: u16 = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| CliError(format!("ingest: malformed response from {addr}")))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.trim().to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Pull one scalar field out of a flat, compact JSON object — enough to
/// render ingest receipts without a full parser in the CLI.
fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pos = body.find(&format!("\"{key}\""))?;
    let rest = body[pos..].split_once(':')?.1.trim_start();
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

/// `optimatch ingest ADDR [FILE.qep ...] [--kb F.json]` — push plans and/or
/// a replacement knowledge base into a running `optimatch serve` instance.
/// The KB (when given) is swapped first so the pushed plans are scanned
/// against it from their first generation onward.
fn cmd_ingest(args: &Args) -> Result<String, CliError> {
    args.expect_options(&["kb"])?;
    let Some(addr) = args.positional.first() else {
        return err("ingest: expected ADDR [FILE.qep ...] [--kb F.json]");
    };
    let files = &args.positional[1..];
    if files.is_empty() && args.option("kb").is_none() {
        return err("ingest: give plan files, --kb F.json, or both");
    }

    let mut out = String::new();
    if let Some(file) = args.option("kb") {
        let body = std::fs::read(file).map_err(|e| CliError(format!("{file}: {e}")))?;
        let (status, resp) = http_post(addr, "/v1/kb", &body)?;
        if status != 200 {
            return err(format!("kb reload rejected ({status}):\n{resp}"));
        }
        let _ = writeln!(
            out,
            "kb reloaded: {} entr(ies), generation {}",
            json_field(&resp, "kb_entries").unwrap_or("?"),
            json_field(&resp, "generation").unwrap_or("?"),
        );
    }
    for file in files {
        let body = std::fs::read(file).map_err(|e| CliError(format!("{file}: {e}")))?;
        let (status, resp) = http_post(addr, "/v1/ingest", &body)?;
        if status != 200 {
            return err(format!("{file}: ingest failed ({status}):\n{resp}"));
        }
        let _ = writeln!(
            out,
            "ingested {} from {file}: generation {}, {} record(s) in repo",
            json_field(&resp, "qep_id").unwrap_or("?"),
            json_field(&resp, "generation").unwrap_or("?"),
            json_field(&resp, "repo_len").unwrap_or("?"),
        );
    }
    Ok(out)
}

fn cmd_cluster(args: &Args) -> Result<String, CliError> {
    args.expect_options(&["k", "kb"])?;
    use optimatch_core::cluster::{cluster_workload, correlate_patterns};
    use optimatch_core::transform::TransformedQep;
    let plans = load_plans(args)?;
    let k: usize = args.parse_num("k", 4)?;
    let kb = resolve_kb(args)?;
    let workload: Vec<TransformedQep> = plans.into_iter().map(TransformedQep::new).collect();
    let clustering = cluster_workload(&workload, k);
    let stats =
        correlate_patterns(&clustering, &kb, &workload).map_err(|e| CliError(e.to_string()))?;

    let mut out = String::new();
    for c in &clustering.clusters {
        let _ = writeln!(
            out,
            "cluster {}: {} plans, mean cost {:.1}, mean ops {:.0}",
            c.id,
            c.qep_ids.len(),
            c.mean_cost,
            c.mean_ops
        );
        for s in stats.iter().filter(|s| s.cluster == c.id && s.hits > 0) {
            let _ = writeln!(
                out,
                "    {}: {}/{} ({:.0}%, lift {:.2})",
                s.entry,
                s.hits,
                s.size,
                s.rate * 100.0,
                s.lift
            );
        }
    }
    Ok(out)
}

fn cmd_repo(args: &Args) -> Result<String, CliError> {
    args.expect_options(&[])?;
    let mut out = String::new();
    match args.positional.first().map(String::as_str) {
        Some("build") => {
            let [_, dir, repo] = args.positional.as_slice() else {
                return err("repo build: expected DIR OUT.repo");
            };
            let built = optimatch_core::build_repo(Path::new(dir), Path::new(repo))
                .map_err(|e| CliError(e.to_string()))?;
            for s in &built.skipped {
                let _ = writeln!(out, "warning: skipped {s}");
            }
            let _ = writeln!(out, "wrote {} record(s) to {repo}", built.records);
            Ok(out)
        }
        Some("add") => {
            let [_, repo, dir] = args.positional.as_slice() else {
                return err("repo add: expected REPO DIR");
            };
            let added = optimatch_core::add_to_repo(Path::new(repo), Path::new(dir))
                .map_err(|e| CliError(e.to_string()))?;
            for s in &added.skipped {
                let _ = writeln!(out, "warning: skipped {s}");
            }
            let _ = writeln!(
                out,
                "added {} record(s) to {repo} ({} already present)",
                added.added, added.already_present
            );
            Ok(out)
        }
        Some("stats") => {
            let [_, repo] = args.positional.as_slice() else {
                return err("repo stats: expected REPO");
            };
            let repository = optimatch_repo::Repository::open(Path::new(repo))
                .map_err(|e| CliError(e.to_string()))?;
            let s = repository.stats();
            let _ = writeln!(out, "{repo}: format v{}", s.version);
            let _ = writeln!(
                out,
                "  {} record(s), {} labeled, {} op(s), {} triple(s), {} term(s)",
                s.records, s.labeled, s.ops, s.triples, s.terms
            );
            Ok(out)
        }
        Some("verify") => {
            let [_, repo] = args.positional.as_slice() else {
                return err("repo verify: expected REPO");
            };
            let report = optimatch_repo::Repository::verify(Path::new(repo))
                .map_err(|e| CliError(e.to_string()))?;
            if report.is_ok() {
                Ok(format!(
                    "{repo}: OK — {} record(s), {} byte(s), format v{}\n",
                    report.records, report.bytes, report.version
                ))
            } else {
                let mut msg = format!(
                    "{repo}: {} problem(s), {} intact record(s):\n",
                    report.problems.len(),
                    report.records
                );
                for p in &report.problems {
                    let _ = writeln!(msg, "  {p}");
                }
                Err(CliError(msg))
            }
        }
        Some(other) => err(format!(
            "repo: unknown action {other:?} (expected build|add|stats|verify)"
        )),
        None => err("repo: expected an action (build|add|stats|verify)"),
    }
}

/// Load the two single-plan positional arguments shared by `diff` and
/// `regress`.
fn load_plan_pair(
    args: &Args,
    cmd: &str,
) -> Result<(optimatch_qep::Qep, optimatch_qep::Qep), CliError> {
    let [before_path, after_path] = args.positional.as_slice() else {
        return err(format!("{cmd}: expected BEFORE.qep AFTER.qep"));
    };
    let mut before = load_plans_from(Path::new(before_path))?;
    let mut after = load_plans_from(Path::new(after_path))?;
    if before.len() != 1 || after.len() != 1 {
        return err(format!("{cmd}: both arguments must be single plan files"));
    }
    Ok((before.remove(0), after.remove(0)))
}

/// Render a [`PlanDiff`](optimatch_qep::PlanDiff) as the machine-readable
/// document behind `optimatch diff --format json`. Unbounded per-operator
/// cost ratios (a before-cost of zero) are encoded with the finite
/// [`optimatch_qep::UNBOUNDED_CHANGE`] sentinel so the document is valid
/// JSON.
fn render_diff_json(d: &optimatch_qep::PlanDiff, threshold: f64) -> String {
    use optimatch_qep::finite_change;
    use serde::value::{Number, Value};
    let op_list = |ops: &[(u32, optimatch_qep::OpType)]| {
        Value::Array(
            ops.iter()
                .map(|(id, t)| {
                    Value::Object(vec![
                        ("id".to_string(), Value::Number(Number::Int(i64::from(*id)))),
                        ("type".to_string(), Value::String(t.to_string())),
                    ])
                })
                .collect(),
        )
    };
    let changed = Value::Array(
        d.changed_ops
            .iter()
            .map(|c| {
                Value::Object(vec![
                    (
                        "id".to_string(),
                        Value::Number(Number::Int(i64::from(c.id))),
                    ),
                    (
                        "type_before".to_string(),
                        Value::String(c.op_type.0.to_string()),
                    ),
                    (
                        "type_after".to_string(),
                        Value::String(c.op_type.1.to_string()),
                    ),
                    (
                        "cost_before".to_string(),
                        Value::Number(Number::Float(c.total_cost.0)),
                    ),
                    (
                        "cost_after".to_string(),
                        Value::Number(Number::Float(c.total_cost.1)),
                    ),
                    (
                        "cost_change".to_string(),
                        Value::Number(Number::Float(finite_change(c.cost_change()))),
                    ),
                    (
                        "cardinality_before".to_string(),
                        Value::Number(Number::Float(c.cardinality.0)),
                    ),
                    (
                        "cardinality_after".to_string(),
                        Value::Number(Number::Float(c.cardinality.1)),
                    ),
                ])
            })
            .collect(),
    );
    let strings = |v: &[String]| Value::Array(v.iter().map(|s| Value::String(s.clone())).collect());
    let doc = Value::Object(vec![
        (
            "total_cost_before".to_string(),
            Value::Number(Number::Float(d.total_cost.0)),
        ),
        (
            "total_cost_after".to_string(),
            Value::Number(Number::Float(d.total_cost.1)),
        ),
        (
            "cost_change".to_string(),
            Value::Number(Number::Float(finite_change(d.cost_change()))),
        ),
        (
            "cardinality_blowup".to_string(),
            Value::Bool(d.cardinality_blowup()),
        ),
        (
            "regression".to_string(),
            Value::Bool(d.is_regression(threshold)),
        ),
        ("removed_ops".to_string(), op_list(&d.removed_ops)),
        ("added_ops".to_string(), op_list(&d.added_ops)),
        ("changed_ops".to_string(), changed),
        ("dropped_objects".to_string(), strings(&d.dropped_objects)),
        ("new_objects".to_string(), strings(&d.new_objects)),
    ]);
    use serde::Serialize as _;
    let mut text = serde_json::to_string_pretty(&doc.serialize_to_value())
        .expect("plan diffs always serialize to JSON");
    text.push('\n');
    text
}

/// Cost-increase fraction above which `diff`/`regress` treat the plan
/// pair as a regression (10% by default; cardinality blow-ups always
/// count).
const DIFF_THRESHOLD_DEFAULT: f64 = 0.1;

fn cmd_diff(args: &Args) -> Result<CmdOutput, CliError> {
    args.expect_options(&["format", "threshold"])?;
    let (before, after) = load_plan_pair(args, "diff")?;
    let threshold: f64 = args.parse_num("threshold", DIFF_THRESHOLD_DEFAULT)?;
    let d = optimatch_qep::diff_qeps(&before, &after);
    // A detected regression exits EXIT_DEGRADED (2), so scripts can gate
    // deployments on `optimatch diff` without parsing its output.
    let degraded = d.is_regression(threshold);
    let text = match args.option("format").unwrap_or("text") {
        "json" => render_diff_json(&d, threshold),
        "text" => {
            if !d.is_changed() {
                "plans are identical\n".to_string()
            } else {
                let mut text = d.to_string();
                if degraded {
                    let _ = writeln!(
                        text,
                        "regression: cost change exceeds {:.0}% or cardinality blew up",
                        threshold * 100.0
                    );
                }
                text
            }
        }
        other => return err(format!("diff: unknown --format {other:?}")),
    };
    Ok(CmdOutput { text, degraded })
}

/// `optimatch regress BEFORE.qep AFTER.qep` — GALO-mode regression
/// diagnosis: align the two plans, run the KB over both, and report the
/// *delta* (patterns new or materially stronger on AFTER), anchored to
/// the aligned operators. Exits [`EXIT_DEGRADED`] when the diagnosis
/// found delta findings or contained incidents.
fn cmd_regress(args: &Args) -> Result<CmdOutput, CliError> {
    args.expect_options(&[
        "kb",
        "threshold",
        "format",
        "fuel",
        "deadline-ms",
        "fail-fast",
    ])?;
    let (before, after) = load_plan_pair(args, "regress")?;
    let kb = resolve_kb(args)?;
    let scan = budget_options(args, ScanOptions::default())?;
    let threshold: f64 = args.parse_num("threshold", 0.05)?;
    let options = optimatch_core::RegressOptions::default()
        .scan(scan)
        .threshold(threshold);
    let outcome = optimatch_core::regress(&kb, &before, &after, &options)
        .map_err(|e| CliError(e.to_string()))?;
    let degraded = outcome.is_degraded() || !outcome.findings.is_empty();
    let text = match args.option("format").unwrap_or("text") {
        "json" => outcome.render_json(),
        "text" => {
            let mut text = String::new();
            let _ = writeln!(
                text,
                "aligned {} operator pair(s) ({} renumbered, {} inserted, {} removed, {} type-changed)",
                outcome.alignment.pairs.len(),
                outcome.alignment.renumbered(),
                outcome.alignment.count(optimatch_qep::AlignClass::Inserted),
                outcome.alignment.count(optimatch_qep::AlignClass::Removed),
                outcome
                    .alignment
                    .count(optimatch_qep::AlignClass::TypeChanged),
            );
            text.push_str(&outcome.to_string());
            text
        }
        other => return err(format!("regress: unknown --format {other:?}")),
    };
    Ok(CmdOutput { text, degraded })
}

fn cmd_sparql(args: &Args) -> Result<String, CliError> {
    args.expect_options(&[])?;
    let [plan_path, query_path] = args.positional.as_slice() else {
        return err("sparql: expected FILE.qep QUERY.rq");
    };
    let plans = load_plans_from(Path::new(plan_path))?;
    let query =
        std::fs::read_to_string(query_path).map_err(|e| CliError(format!("{query_path}: {e}")))?;
    let mut out = String::new();
    for qep in &plans {
        let graph = optimatch_core::transform_qep(qep);
        let table =
            optimatch_sparql::execute(&graph, &query).map_err(|e| CliError(e.to_string()))?;
        let _ = writeln!(out, "=== {} ({} row(s)) ===", qep.id, table.len());
        out.push_str(&table.to_string());
    }
    Ok(out)
}

fn cmd_kb_init(args: &Args) -> Result<String, CliError> {
    args.expect_options(&["extended"])?;
    let file = args
        .positional
        .first()
        .ok_or_else(|| CliError("kb-init: expected an output FILE.json".into()))?;
    let kb = if args.flag("extended") {
        builtin::extended_kb()
    } else {
        builtin::paper_kb()
    };
    kb.save(Path::new(file))
        .map_err(|e| CliError(e.to_string()))?;
    Ok(format!("wrote {} entries to {file}", kb.len()))
}

/// `kb <action>` dispatch: `kb lint` runs the static-analysis suite;
/// `kb init` is an alias for `kb-init`.
fn cmd_kb(args: &Args) -> Result<String, CliError> {
    match args.positional.first().map(String::as_str) {
        Some("lint") => cmd_kb_lint(args),
        Some("init") => {
            let shifted = Args {
                positional: args.positional[1..].to_vec(),
                options: args.options.clone(),
            };
            cmd_kb_init(&shifted)
        }
        Some(other) => err(format!("kb: unknown action {other:?} (try `kb lint`)")),
        None => err("kb: expected an action (`lint` or `init`)"),
    }
}

/// `kb lint [FILE.json] [--builtin|--extended] [--workload PATH]
/// [--format text|json] [--deny-warnings]`.
///
/// Exit status is the point: errors (and, under `--deny-warnings`,
/// warnings) surface as a [`CliError`] carrying the full rendered
/// report, so `main` prints it and exits non-zero.
fn cmd_kb_lint(args: &Args) -> Result<String, CliError> {
    args.expect_options(&["builtin", "extended", "workload", "format", "deny-warnings"])?;
    if args.option("builtin").is_some_and(|v| !v.is_empty()) {
        return err("kb lint: --builtin takes no value (put it after positionals)");
    }

    // What to lint: an explicit KB file beats the builtin libraries.
    let entries = match args.positional.get(1) {
        Some(file) => optimatch_lint::load_kb_entries(Path::new(file))
            .map_err(|e| CliError(format!("kb lint: {e}")))?,
        None if args.flag("extended") => builtin::extended_entries(),
        None if args.flag("builtin") => builtin::paper_entries(),
        None => return err("kb lint: expected a KB FILE.json, --builtin, or --extended"),
    };

    let workload = match args.option("workload") {
        Some(path) => Some(
            optimatch_lint::load_workload(Path::new(path))
                .map_err(|e| CliError(format!("kb lint: {e}")))?,
        ),
        None => None,
    };
    let report = optimatch_lint::lint(&entries, workload.as_deref());

    let rendered = match args.option("format").unwrap_or("text") {
        "text" => report.render_text(),
        "json" => report.render_json(),
        other => return err(format!("kb lint: unknown format {other:?}")),
    };
    if report.has_failures(args.flag("deny-warnings")) {
        Err(CliError(rendered))
    } else {
        Ok(rendered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ok(argv: &[&str]) -> String {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        run(&argv).expect("command succeeds")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("optimatch-cli-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn arg_parser_splits_flags_and_positionals() {
        let a = Args::parse(&[
            "dir".into(),
            "--n".into(),
            "5".into(),
            "--study".into(),
            "more".into(),
        ]);
        assert_eq!(a.positional, vec!["dir", "more"]);
        assert_eq!(a.option("n"), Some("5"));
        assert!(a.flag("study"));
        assert!(!a.flag("missing"));
    }

    #[test]
    fn backoff_schedule_is_bounded_jittered_and_reproducible() {
        let delays = backoff_delays(5, 100, 2_000, 42);
        assert_eq!(delays.len(), 5);
        // Attempt i's cap is min(100 << i, 2000); jitter keeps each delay
        // within [cap/2, cap].
        for (i, d) in delays.iter().enumerate() {
            let cap = (100u64 << i).min(2_000);
            let ms = d.as_millis() as u64;
            assert!(
                ms >= cap / 2 && ms <= cap,
                "attempt {i}: {ms}ms vs cap {cap}ms"
            );
        }
        // Same seed, same schedule; different seed, (almost surely)
        // different jitter.
        assert_eq!(delays, backoff_delays(5, 100, 2_000, 42));
        // (An odd seed: `seed | 1` maps 42 and 43 to the same stream.)
        assert_ne!(delays, backoff_delays(5, 100, 2_000, 1_234_567));
        // A zero seed must not wedge the xorshift at zero.
        for d in backoff_delays(3, 100, 2_000, 0) {
            assert!(d.as_millis() > 0);
        }
    }

    #[test]
    fn only_503_is_a_retryable_status() {
        assert!(retryable_status(503));
        for status in [200, 207, 400, 409, 422, 500] {
            assert!(!retryable_status(status), "{status} must be final");
        }
    }

    #[test]
    fn unknown_options_are_rejected_not_ignored() {
        let argv: Vec<String> = ["scan", "somewhere", "--no-prunee"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&argv).expect_err("typo'd flag must not be silently ignored");
        assert!(err.0.contains("unknown option --no-prunee"), "{}", err.0);
    }

    #[test]
    fn gen_stats_tree_search_scan_pipeline() {
        let dir = temp_dir("pipeline");
        let out_dir = dir.join("wl");
        let msg = run_ok(&[
            "gen",
            "--out",
            out_dir.to_str().unwrap(),
            "--n",
            "8",
            "--seed",
            "3",
        ]);
        assert!(msg.contains("wrote 8 QEPs"));

        let stats = run_ok(&["stats", out_dir.to_str().unwrap()]);
        assert!(stats.contains("8 QEPs"));

        let search = run_ok(&[
            "search",
            out_dir.to_str().unwrap(),
            "--builtin",
            "pattern-a-nljoin-tbscan",
        ]);
        assert!(search.contains("pattern \"pattern-a-nljoin-tbscan\""));

        let scan = run_ok(&["scan", out_dir.to_str().unwrap(), "--threads", "2"]);
        assert!(scan.contains("scanned 8 QEP(s) against 4 KB entr(ies)"));
        assert!(scan.contains("pruning:"), "{scan}");
        // The paper KB's four entries have four distinct query cores.
        assert!(scan.contains(" matched, 0 reused a query core\n"), "{scan}");

        // Reports are identical with pruning disabled; only the counter
        // line changes (an unpruned scan skips nothing).
        let unpruned = run_ok(&["scan", out_dir.to_str().unwrap(), "--no-prune"]);
        assert!(unpruned.contains("pruning: 0 of"), "{unpruned}");
        let body = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("pruning:") && !l.starts_with("scanned"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(body(&scan), body(&unpruned));

        // tree over a single file.
        let a_file = std::fs::read_dir(&out_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().and_then(|e| e.to_str()) == Some("qep"))
            .expect("plan file exists");
        let tree = run_ok(&["tree", a_file.to_str().unwrap()]);
        assert!(tree.contains("RETURN"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_renders_plans_and_planner_flags_stay_observational() {
        let dir = temp_dir("explain");
        let out_dir = dir.join("wl");
        run_ok(&[
            "gen",
            "--out",
            out_dir.to_str().unwrap(),
            "--n",
            "6",
            "--seed",
            "7",
        ]);
        let src = out_dir.to_str().unwrap();

        let explain = run_ok(&["explain", src, "--builtin", "pattern-b-loj-join-order"]);
        assert!(
            explain
                .contains("explain pattern \"pattern-b-loj-join-order\" over 6 QEP(s) (optimized)"),
            "{explain}"
        );
        assert!(explain.contains("bgp ("), "{explain}");
        assert!(explain.contains("est="), "{explain}");

        let oracle = run_ok(&[
            "explain",
            src,
            "--builtin",
            "pattern-b-loj-join-order",
            "--no-optimize",
        ]);
        assert!(oracle.contains("(source order)"), "{oracle}");
        assert!(!oracle.contains("reordered"), "{oracle}");

        // `scan --timings` renders the planner counter line; with the
        // planner off the counters are all zero and reports are identical.
        let timed = run_ok(&["scan", src, "--timings"]);
        assert!(timed.contains("planner: "), "{timed}");
        let off = run_ok(&["scan", src, "--timings", "--no-optimize"]);
        assert!(
            off.contains("planner: 0 pattern(s) estimated, 0 reorder(s)"),
            "{off}"
        );
        let body = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("planner:") && !l.starts_with("scanned"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(body(&timed), body(&off));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rdf_and_sparql_commands() {
        let dir = temp_dir("rdf");
        let file = dir.join("fig1.qep");
        std::fs::write(
            &file,
            optimatch_qep::format_qep(&optimatch_qep::fixtures::fig1()),
        )
        .expect("writes");

        let ttl = run_ok(&["rdf", file.to_str().unwrap()]);
        assert!(ttl.contains("predURI:hasPopType"));
        let nt = run_ok(&["rdf", file.to_str().unwrap(), "--format", "ntriples"]);
        assert!(nt.contains("<http://optimatch/pred#hasPopType>"));

        let query = dir.join("q.rq");
        std::fs::write(
            &query,
            "PREFIX p: <http://optimatch/pred#>\nSELECT ?t WHERE { ?x p:hasPopType ?t . } ORDER BY ?t",
        )
        .expect("writes");
        let rows = run_ok(&["sparql", file.to_str().unwrap(), query.to_str().unwrap()]);
        assert!(rows.contains("NLJOIN"));
        assert!(rows.contains("5 row(s)"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_and_diff_commands() {
        let dir = temp_dir("clusterdiff");
        let out_dir = dir.join("wl");
        run_ok(&[
            "gen",
            "--out",
            out_dir.to_str().unwrap(),
            "--n",
            "12",
            "--seed",
            "9",
        ]);
        let report = run_ok(&["cluster", out_dir.to_str().unwrap(), "--k", "3"]);
        assert!(report.contains("cluster 0:"), "{report}");
        assert!(report.contains("mean cost"), "{report}");

        // diff: perturb one plan and compare.
        let a = dir.join("a.qep");
        let b = dir.join("b.qep");
        let mut q = optimatch_qep::fixtures::fig1();
        std::fs::write(&a, optimatch_qep::format_qep(&q)).expect("writes");
        q.ops.get_mut(&1).unwrap().total_cost *= 2.0;
        q.ops.get_mut(&2).unwrap().op_type = optimatch_qep::OpType::HsJoin;
        std::fs::write(&b, optimatch_qep::format_qep(&q)).expect("writes");
        let d = run_ok(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
        assert!(d.contains("total cost:"), "{d}");
        assert!(d.contains("NLJOIN -> HSJOIN"), "{d}");
        // Identical plans.
        let same = run_ok(&["diff", a.to_str().unwrap(), a.to_str().unwrap()]);
        assert!(same.contains("identical"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_threshold_gates_the_degraded_exit_and_json_parses() {
        let dir = temp_dir("diffjson");
        let a = dir.join("a.qep");
        let b = dir.join("b.qep");
        let mut q = optimatch_qep::fixtures::fig1();
        std::fs::write(&a, optimatch_qep::format_qep(&q)).expect("writes");
        q.ops.get_mut(&1).unwrap().total_cost *= 2.0;
        std::fs::write(&b, optimatch_qep::format_qep(&q)).expect("writes");
        let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());

        // A doubled root cost trips the default 10% threshold (exit 2)...
        let out = run_status(&["diff", a, b]);
        assert!(out.degraded, "{}", out.text);
        assert!(out.text.contains("regression:"), "{}", out.text);
        // ...but not a threshold above the observed +100%.
        let out = run_status(&["diff", a, b, "--threshold", "1.5"]);
        assert!(!out.degraded, "{}", out.text);
        // Identical plans are never a regression, even at threshold 0.
        let out = run_status(&["diff", a, a, "--threshold", "0"]);
        assert!(!out.degraded);

        // The JSON document parses, uses finite numbers, and carries the
        // regression verdict.
        let out = run_status(&["diff", a, b, "--format", "json"]);
        assert!(out.degraded);
        let doc: serde::value::Value = serde_json::from_str(&out.text).expect("valid JSON");
        assert_eq!(doc.get("regression").and_then(|v| v.as_bool()), Some(true));
        let change = doc.get("cost_change").and_then(|v| v.as_f64()).unwrap();
        assert!(change.is_finite() && change > 0.9, "{change}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn regress_command_reports_the_sort_spill_delta() {
        let dir = temp_dir("regress");
        let a = dir.join("before.qep");
        let b = dir.join("after.qep");
        std::fs::write(
            &a,
            optimatch_qep::format_qep(&optimatch_qep::fixtures::fig1()),
        )
        .expect("writes");
        std::fs::write(
            &b,
            optimatch_qep::format_qep(&optimatch_qep::fixtures::fig1_sort_spill()),
        )
        .expect("writes");
        let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());

        // Identical plans: clean exit, explicit empty-delta message.
        let out = run_status(&["regress", a, a]);
        assert!(!out.degraded, "{}", out.text);
        assert!(out.text.contains("no delta findings"), "{}", out.text);

        // The regressed pair: exit 2 and the new pattern named, anchored
        // at the inserted SORT.
        let out = run_status(&["regress", a, b]);
        assert!(out.degraded, "{}", out.text);
        assert!(out.text.contains("pattern-d-sort-spill"), "{}", out.text);
        assert!(out.text.contains("#9"), "{}", out.text);

        // JSON mode round-trips through the vendored parser.
        let out = run_status(&["regress", a, b, "--format", "json"]);
        let doc: serde::value::Value = serde_json::from_str(&out.text).expect("valid JSON");
        assert!(doc.get("findings").is_some(), "{}", out.text);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_json_output_is_parseable() {
        let dir = temp_dir("scanjson");
        let out_dir = dir.join("wl");
        run_ok(&[
            "gen",
            "--out",
            out_dir.to_str().unwrap(),
            "--n",
            "6",
            "--seed",
            "2",
        ]);
        let json = run_ok(&["scan", out_dir.to_str().unwrap(), "--format", "json"]);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let reports = parsed
            .get("reports")
            .and_then(|r| r.as_array())
            .expect("reports array");
        assert_eq!(reports.len(), 6);
        assert!(reports[0].get("qep_id").is_some());
        assert!(reports[0].get("recommendations").is_some());
        // A clean scan reports an empty incident list.
        let incidents = parsed
            .get("incidents")
            .and_then(|i| i.as_array())
            .expect("incidents array");
        assert!(incidents.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn run_status(argv: &[&str]) -> CmdOutput {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        run_with_status(&argv).expect("command succeeds")
    }

    #[test]
    fn fuel_starved_scan_degrades_with_incident_warnings() {
        let dir = temp_dir("scanfuel");
        let out_dir = dir.join("wl");
        run_ok(&[
            "gen",
            "--out",
            out_dir.to_str().unwrap(),
            "--n",
            "5",
            "--seed",
            "4",
        ]);
        let src = out_dir.to_str().unwrap();

        // Fuel 0: every evaluated unit trips; the scan still completes.
        let starved = run_status(&["scan", src, "--no-prune", "--fuel", "0"]);
        assert!(starved.degraded);
        assert!(
            starved.text.contains("warning: incident"),
            "{}",
            starved.text
        );
        assert!(starved.text.contains("fuel exhausted"), "{}", starved.text);
        assert!(starved.text.contains("degraded:"), "{}", starved.text);
        assert!(
            starved.text.contains("scanned 5 QEP(s)"),
            "{}",
            starved.text
        );

        // A huge budget is observational: same output as no budget at all
        // (modulo the wall-clock timing in the header).
        let strip_timing = |s: &str| {
            s.lines()
                .map(|l| l.split("  [").next().unwrap_or(l).to_string())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let unbudgeted = run_status(&["scan", src]);
        let budgeted = run_status(&["scan", src, "--fuel", "18446744073709551615"]);
        assert!(!budgeted.degraded);
        assert_eq!(strip_timing(&budgeted.text), strip_timing(&unbudgeted.text));

        // --fail-fast turns the first incident into a hard error.
        let argv: Vec<String> = ["scan", src, "--no-prune", "--fuel", "0", "--fail-fast"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = run(&argv).expect_err("fail-fast must abort");
        assert!(e.0.contains("scan aborted (fail-fast)"), "{}", e.0);

        // JSON output carries the incidents.
        let json = run_status(&["scan", src, "--no-prune", "--fuel", "0", "--format", "json"]);
        assert!(json.degraded);
        let parsed: serde_json::Value = serde_json::from_str(&json.text).expect("valid JSON");
        let incidents = parsed
            .get("incidents")
            .and_then(|i| i.as_array())
            .expect("incidents array");
        assert!(!incidents.is_empty());
        assert_eq!(
            incidents[0].get("cause").and_then(|c| c.as_str()),
            Some("fuel-exhausted")
        );

        // search honours the same budget flags.
        let search = run_status(&[
            "search",
            src,
            "--builtin",
            "pattern-a-nljoin-tbscan",
            "--fuel",
            "0",
        ]);
        assert!(search.degraded);
        assert!(search.text.contains("warning: incident"), "{}", search.text);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_plan_files_warn_instead_of_aborting() {
        let dir = temp_dir("lenient");
        let out_dir = dir.join("wl");
        std::fs::create_dir_all(&out_dir).unwrap();
        std::fs::write(
            out_dir.join("good.qep"),
            optimatch_qep::format_qep(&optimatch_qep::fixtures::fig1()),
        )
        .unwrap();
        std::fs::write(
            out_dir.join("bad.qep"),
            "Plan Details:\n1) FROBNICATE: (Not An Operator)\n",
        )
        .unwrap();

        let scan = run_ok(&["scan", out_dir.to_str().unwrap()]);
        assert!(scan.contains("warning: skipped"), "{scan}");
        assert!(scan.contains("bad.qep"), "{scan}");
        assert!(scan.contains("scanned 1 QEP(s)"), "{scan}");

        let search = run_ok(&[
            "search",
            out_dir.to_str().unwrap(),
            "--builtin",
            "pattern-a-nljoin-tbscan",
        ]);
        assert!(search.contains("warning: skipped"), "{search}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repo_build_scan_stats_verify_pipeline() {
        let dir = temp_dir("repo");
        let out_dir = dir.join("wl");
        run_ok(&[
            "gen",
            "--out",
            out_dir.to_str().unwrap(),
            "--n",
            "10",
            "--seed",
            "5",
        ]);
        let repo = dir.join("wl.optirepo");
        let built = run_ok(&[
            "repo",
            "build",
            out_dir.to_str().unwrap(),
            repo.to_str().unwrap(),
        ]);
        assert!(built.contains("wrote 10 record(s)"), "{built}");

        // Scanning the repository gives byte-identical output to scanning
        // the directory it was built from (modulo the wall-clock timing
        // in the header line, which is stripped before comparing).
        let strip_timing = |s: String| {
            s.lines()
                .map(|l| l.split("  [").next().unwrap_or(l).to_string())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let from_dir = strip_timing(run_ok(&["scan", out_dir.to_str().unwrap()]));
        let from_repo = strip_timing(run_ok(&["scan", repo.to_str().unwrap()]));
        assert_eq!(from_dir, from_repo);
        let json_dir = run_ok(&["scan", out_dir.to_str().unwrap(), "--format", "json"]);
        let json_repo = run_ok(&["scan", repo.to_str().unwrap(), "--format", "json"]);
        assert_eq!(json_dir, json_repo);

        // search works over the repository too.
        let search = run_ok(&[
            "search",
            repo.to_str().unwrap(),
            "--builtin",
            "pattern-a-nljoin-tbscan",
        ]);
        assert!(search.contains("pattern \"pattern-a-nljoin-tbscan\""));

        let stats = run_ok(&["repo", "stats", repo.to_str().unwrap()]);
        assert!(stats.contains("10 record(s)"), "{stats}");
        assert!(stats.contains("format v2"), "{stats}");

        let verify = run_ok(&["repo", "verify", repo.to_str().unwrap()]);
        assert!(verify.contains("OK"), "{verify}");

        // add: a fresh directory of extra plans ingests incrementally.
        let extra_dir = dir.join("extra");
        run_ok(&[
            "gen",
            "--out",
            extra_dir.to_str().unwrap(),
            "--n",
            "13",
            "--seed",
            "5",
        ]);
        let added = run_ok(&[
            "repo",
            "add",
            repo.to_str().unwrap(),
            extra_dir.to_str().unwrap(),
        ]);
        // Same seed ⇒ the first 10 ids already exist; 3 are new.
        assert!(added.contains("added 3 record(s)"), "{added}");
        assert!(added.contains("10 already present"), "{added}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repo_verify_fails_on_corruption_and_scan_warns() {
        let dir = temp_dir("repocorrupt");
        let out_dir = dir.join("wl");
        run_ok(&[
            "gen",
            "--out",
            out_dir.to_str().unwrap(),
            "--n",
            "4",
            "--seed",
            "7",
        ]);
        let repo = dir.join("wl.optirepo");
        run_ok(&[
            "repo",
            "build",
            out_dir.to_str().unwrap(),
            repo.to_str().unwrap(),
        ]);

        // Flip one byte in the middle of the record region.
        let mut bytes = std::fs::read(&repo).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&repo, &bytes).unwrap();

        // verify exits nonzero (a CliError) naming the problem.
        let argv: Vec<String> = ["repo", "verify", repo.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = run(&argv).expect_err("verify must fail on a corrupt repository");
        assert!(e.0.contains("problem(s)"), "{}", e.0);

        // scan is lenient: warns about the damaged record, scans the rest.
        let scan = run_ok(&["scan", repo.to_str().unwrap()]);
        assert!(scan.contains("warning: skipped record"), "{scan}");
        assert!(scan.contains("scanned 3 QEP(s)"), "{scan}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_footer_offset_is_an_error_not_a_panic() {
        let dir = temp_dir("repohostile");
        let out_dir = dir.join("wl");
        let (wl, repo) = (out_dir.to_str().unwrap(), dir.join("wl.optirepo"));
        run_ok(&["gen", "--out", wl, "--n", "3", "--seed", "7"]);
        run_ok(&["repo", "build", wl, repo.to_str().unwrap()]);

        // The trailer's footer offset points past any file.
        let mut bytes = std::fs::read(&repo).unwrap();
        let trailer = bytes.len() - 16;
        bytes[trailer..trailer + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&repo, &bytes).unwrap();

        let run_err = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            run(&argv).expect_err("command fails").0
        };
        let verify = run_err(&["repo", "verify", repo.to_str().unwrap()]);
        assert!(verify.contains("out of bounds"), "{verify}");
        let stats = run_err(&["repo", "stats", repo.to_str().unwrap()]);
        assert!(stats.contains("out of bounds"), "{stats}");

        // scan opens leniently: it names the bad footer and recovers the
        // intact records by sequential scan.
        let scan = run_ok(&["scan", repo.to_str().unwrap()]);
        assert!(scan.contains("out of bounds"), "{scan}");
        assert!(scan.contains("scanned 3 QEP(s)"), "{scan}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repo_action_errors_are_user_facing() {
        let run_err = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            run(&argv).expect_err("command fails")
        };
        assert!(run_err(&["repo"]).0.contains("expected an action"));
        assert!(run_err(&["repo", "explode"]).0.contains("unknown action"));
        assert!(run_err(&["repo", "build", "just-one-arg"])
            .0
            .contains("expected DIR OUT.repo"));
        assert!(run_err(&["repo", "verify", "/nonexistent-repo-xyz"])
            .0
            .contains("i/o error"));
    }

    #[test]
    fn kb_init_writes_loadable_kb() {
        let dir = temp_dir("kbinit");
        let file = dir.join("kb.json");
        let msg = run_ok(&["kb-init", file.to_str().unwrap()]);
        assert!(msg.contains("wrote 4 entries"));
        let kb = KnowledgeBase::load(&file).expect("loads");
        assert_eq!(kb.len(), 4);

        // --extended writes the seven-entry library; `kb init` aliases.
        let ext = dir.join("ext.json");
        let msg = run_ok(&["kb", "init", ext.to_str().unwrap(), "--extended"]);
        assert!(msg.contains("wrote 7 entries"));
        assert_eq!(KnowledgeBase::load(&ext).expect("loads").len(), 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kb_lint_passes_builtin_libraries() {
        // The builtin KBs must stay clean even under --deny-warnings
        // (notes — recursive-path cost — are allowed).
        for flags in [&["--builtin"][..], &["--extended"][..]] {
            let mut argv = vec!["kb", "lint"];
            argv.extend_from_slice(flags);
            argv.push("--deny-warnings");
            let out = run_ok(&argv);
            assert!(out.contains("kb lint:"), "{out}");
            assert!(!out.contains("error["), "{out}");
            assert!(!out.contains("warning["), "{out}");
        }
    }

    #[test]
    fn kb_lint_fails_on_contradictory_pattern() {
        let dir = temp_dir("kblint-contradiction");
        let file = dir.join("kb.json");
        let mut entry = builtin::pattern_c();
        // hasEstimateCardinality < 0.001 already present; force > 1000.
        entry.pattern.pops[0] = entry.pattern.pops[0].clone().prop(
            "hasEstimateCardinality",
            optimatch_core::Sign::Gt,
            "1000",
        );
        std::fs::write(&file, serde_json::to_string(&vec![entry]).unwrap()).unwrap();
        let argv: Vec<String> = ["kb", "lint", file.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = run(&argv).expect_err("contradiction must fail the lint");
        assert!(e.0.contains("error[OL007]"), "{}", e.0);
        assert!(e.0.contains("contradictory conditions"), "{}", e.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kb_lint_fails_on_undefined_template_alias() {
        let dir = temp_dir("kblint-alias");
        let file = dir.join("kb.json");
        let mut entry = builtin::pattern_a();
        entry.recommendation = "Fix @TOP, also consult @NOSUCH.".into();
        std::fs::write(&file, serde_json::to_string(&vec![entry]).unwrap()).unwrap();
        let argv: Vec<String> = ["kb", "lint", file.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = run(&argv).expect_err("undefined alias must fail the lint");
        assert!(e.0.contains("error[OL201]"), "{}", e.0);
        assert!(e.0.contains("@NOSUCH"), "{}", e.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kb_lint_detects_dead_patterns_with_workload() {
        let dir = temp_dir("kblint-dead");
        let plans = dir.join("wl");
        run_ok(&[
            "gen",
            "--out",
            plans.to_str().unwrap(),
            "--n",
            "6",
            "--seed",
            "7",
        ]);
        let file = dir.join("kb.json");
        // An entry no generated plan can satisfy: a ZZJOIN (the generator
        // never emits one).
        let dead = optimatch_core::KnowledgeBaseEntry {
            name: "needs-zzjoin".into(),
            description: String::new(),
            pattern: Pattern::new("needs-zzjoin", "")
                .with_pop(optimatch_core::PatternPop::new(1, "ZZJOIN").alias("TOP")),
            recommendation: "Review @TOP.".into(),
            prototype: Default::default(),
        };
        std::fs::write(&file, serde_json::to_string(&vec![dead]).unwrap()).unwrap();
        let argv: Vec<String> = [
            "kb",
            "lint",
            file.to_str().unwrap(),
            "--workload",
            plans.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let e = run(&argv).expect_err("dead pattern must fail the lint");
        assert!(e.0.contains("error[OL203]"), "{}", e.0);
        assert!(e.0.contains("dead pattern"), "{}", e.0);

        // The builtin KB against the same workload lints without a load
        // failure either way — a small workload may leave some builtin
        // patterns dead (non-zero exit), but the report always renders
        // with the workload size in the summary.
        let argv: Vec<String> = [
            "kb",
            "lint",
            "--workload",
            plans.to_str().unwrap(),
            "--builtin",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let rendered = match run(&argv) {
            Ok(out) => out,
            Err(e) => e.0,
        };
        assert!(rendered.contains("workload QEPs"), "{rendered}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kb_lint_renders_json() {
        let out = run_ok(&["kb", "lint", "--extended", "--format", "json"]);
        assert!(out.contains("\"diagnostics\":["), "{out}");
        assert!(out.contains("\"summary\":"), "{out}");
        assert!(out.contains("\"OL104\""), "{out}");
    }

    #[test]
    fn kb_lint_argument_errors() {
        let run_err = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            run(&argv).expect_err("command fails")
        };
        assert!(run_err(&["kb"]).0.contains("expected an action"));
        assert!(run_err(&["kb", "frob"]).0.contains("unknown action"));
        assert!(run_err(&["kb", "lint"]).0.contains("--builtin"));
        assert!(run_err(&["kb", "lint", "--builtin", "--format", "yaml"])
            .0
            .contains("unknown format"));
        // `--builtin` accidentally swallowing a positional is diagnosed.
        assert!(run_err(&["kb", "lint", "--builtin", "stray.json"])
            .0
            .contains("takes no value"));
    }

    #[test]
    fn errors_are_user_facing() {
        let run_err = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            run(&argv).expect_err("command fails")
        };
        assert!(run_err(&["frobnicate"]).0.contains("unknown command"));
        assert!(run_err(&["gen"]).0.contains("--out"));
        assert!(run_err(&["search", "/nonexistent-dir-xyz"])
            .0
            .contains("nonexistent"));
        assert!(run_err(&["tree"]).0.contains("expected a plan"));
        assert!(run_err(&["search", ".", "--builtin", "nope"])
            .0
            .contains("unknown built-in"));
    }

    #[test]
    fn help_lists_commands() {
        let help = run_ok(&["help"]);
        for cmd in [
            "gen", "stats", "tree", "rdf", "search", "scan", "sparql", "kb-init", "kb lint",
        ] {
            assert!(help.contains(cmd), "missing {cmd}");
        }
        // No command at all also prints usage.
        assert_eq!(run(&[]).unwrap(), usage());
    }
}
