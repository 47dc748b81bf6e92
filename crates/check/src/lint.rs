//! Scope-aware, flow-aware static lint pass over the workspace sources
//! (engine v3).
//!
//! The engine has three layers, all dependency-free (the build is
//! offline): [`crate::lex`] turns each file into a token stream with
//! line spans — raw strings, nested block comments, char-vs-lifetime,
//! `r#` idents all handled — [`crate::items`] recovers the item
//! shape on top of it: module/fn/impl nesting, `#[cfg(test)]`
//! inheritance, `# Panics` doc contracts, enum definitions, `type Msg`
//! protocol declarations, and `match` arms — and, new in v3, a flow
//! layer: [`crate::expr`] parses fn bodies into statement trees,
//! [`crate::cfg`] lowers them to per-fn control-flow graphs, and
//! [`crate::flow`] runs a worklist taint analysis over them with fn
//! summaries iterated to fixpoint through each crate's call graph.
//! Rules run over tokens, scopes, and dataflow facts instead of
//! needle-matching blanked text, which kills the v1 false-negative
//! classes (needles split across lines, test masks lost across nested
//! `mod` blocks), the v1 false positives (needles inside identifiers or
//! literals), and the v2 blind spot of taint that crosses statements or
//! helper fns.
//!
//! ## Rules
//!
//! * **`no-panic`** — non-test library code must not contain
//!   `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `todo!`, or
//!   `unimplemented!`. A crashed simulation loses a whole experiment;
//!   fallible lookups return `Result` (see `lems_net::NetError`).
//!   `assert!`-family guards are allowed: they document invariants
//!   rather than handle input. Two exemptions: binary entry points
//!   (`src/main.rs`, `src/bin/**`) and the `lems-bench` driver crate
//!   may fail fast; and a panic site inside a function whose doc
//!   comment carries a `# Panics` section is vetted by that documented
//!   contract (the inverse of `clippy::missing_panics_doc`).
//! * **`no-wall-clock`** (v3) — crates that run *inside* the simulation
//!   (`sim`, `syntax`, `locindep`, `mst`) must not read `SystemTime`,
//!   `Instant`, or `thread_rng`: all time comes from `sim::time` and
//!   all randomness from the seeded `sim::rng`, or replays diverge.
//!   Since v3 this is the syntactic backstop behind `determinism-taint`.
//! * **`no-hash-collections`** (v3) — actor decision paths (files named
//!   `actors.rs`) must use ordered collections (`BTreeMap`/`BTreeSet`):
//!   hash-order iteration is nondeterministic across runs/platforms.
//!   Since v3 this is the syntactic backstop behind `determinism-taint`,
//!   which follows actual iteration-order taint in every sim-driven
//!   file, not just `actors.rs`.
//! * **`no-partial-cmp-sort`** — a `.sort*(…)` call whose comparator
//!   mentions `partial_cmp` panics on NaN or invites
//!   `unwrap_or(Ordering::Equal)` hacks that destroy total order; use
//!   `f64::total_cmp` or an `Ord` key. Applies to test code too, and —
//!   new in v2 — across line breaks inside the call.
//! * **`no-unbounded-run`** — outside the `sim` crate, drive
//!   simulations with `run_to_quiescence_bounded(budget)`, never the
//!   unbounded `run_to_quiescence()`. Applies to test code too.
//! * **`no-ambient-parallelism`** — sim-driven crates must not reach
//!   for `rayon`, `par_iter`, `thread::spawn`, or
//!   `available_parallelism` without a vetted allowlist entry.
//! * **`rng-fork-discipline`** — (semantic, v2) every RNG in a
//!   sim-driven crate must descend from the deployment's seeded fork
//!   tree. A taint pass over the per-crate item graph flags bare
//!   `SimRng::seed(…)` roots in non-test code that are not immediately
//!   `.fork(label)`-chained, and — by iterating fn summaries (does this
//!   fn return a bare root?) to fixpoint — call sites of helpers that
//!   launder such roots through a return value. `sim/src/rng.rs` itself
//!   is the trusted module and exempt.
//! * **`event-match-exhaustive`** — (semantic, v2) for every protocol
//!   enum named by a non-test `type Msg = E;` actor impl, the handler
//!   file's non-test `match`es over `E` must name every variant: a
//!   catch-all arm silently swallowing unnamed variants is exactly how
//!   a new event kind gets dropped on the floor. Variants never
//!   constructed anywhere in the scanned sources are flagged as dead.
//!   Intentionally ignored variants are spelled `E::A { .. } | … => {}`
//!   so the ignore list is visible and compiler-checked.
//! * **`determinism-taint`** — (flow, v3 engine) in non-test code of
//!   sim-driven crates, no value derived from a nondeterminism source —
//!   wall-clock reads, `HashMap`/`HashSet` iteration order, ambient
//!   randomness — may reach an emission or scheduling sink (`send`,
//!   `record`, `set_timer`, RNG `fork`, …). The taint analysis follows
//!   `let` chains, loop-carried accumulation, and helper-fn summaries,
//!   so laundering through a wrapper fn does not hide the flow. The
//!   trusted `sim/src/rng.rs` module is exempt.
//! * **`store-mutation-discipline`** — (flow, v3 engine) durable
//!   mailbox/ledger state may only be mutated inside
//!   `lems_core::{store,mailbox}`; everywhere else, a mutating call on
//!   a `Mailbox`-classed value (or a `Mailbox`-valued map, or a bare
//!   `Mailbox::new`) bypasses the `MailStore` trait — exactly the
//!   invariant the WAL recovery proofs assume.
//! * **`no-ignored-store-errors`** — (flow, v3 engine) a `Result` from
//!   a WAL/segment operation (`append`, `sync`, `create`, `read`, …)
//!   that is dropped as a bare statement, `let _ =`-discarded, or
//!   `.ok()`-swallowed in non-test code is a violation: a swallowed
//!   store error silently diverges the durable state from the log.
//!
//! Vetted exceptions live in `lint-allow.txt` at the workspace root;
//! see [`Allowlist`] for the `rule@version` entry format. Entries that
//! no longer match any source line — or that pin an outdated rule
//! version — are *stale* and fail the pass, so the list cannot rot.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::expr::{call_sites, Stmt, StmtKind};
use crate::flow::{self, FnCtx, FnUnit, Summary, TaintConfig, TypeClass, ROOT_MASK};
use crate::items::{ParsedFile, ScopeKind};
use crate::lex::{Tok, TokKind};

/// Rule identifier: no panicking constructs in non-test library code.
pub const RULE_NO_PANIC: &str = "no-panic";
/// Rule identifier: no wall-clock or ambient randomness in sim-driven code.
pub const RULE_NO_WALL_CLOCK: &str = "no-wall-clock";
/// Rule identifier: no hash-ordered collections in actor decision paths.
pub const RULE_NO_HASH: &str = "no-hash-collections";
/// Rule identifier: no sorting through `partial_cmp` (use `total_cmp`/`Ord`).
pub const RULE_NO_PARTIAL_CMP_SORT: &str = "no-partial-cmp-sort";
/// Rule identifier: no unbounded `run_to_quiescence()` outside the sim crate.
pub const RULE_NO_UNBOUNDED_RUN: &str = "no-unbounded-run";
/// Rule identifier: no unaudited thread fan-out in sim-driven crates.
pub const RULE_NO_AMBIENT_PAR: &str = "no-ambient-parallelism";
/// Rule identifier: RNG draws must descend from the seeded fork tree.
pub const RULE_RNG_FORK: &str = "rng-fork-discipline";
/// Rule identifier: protocol-enum matches must name every variant.
pub const RULE_EVENT_MATCH: &str = "event-match-exhaustive";
/// Rule identifier: nondeterminism sources must not reach emission sinks.
pub const RULE_DETERMINISM_TAINT: &str = "determinism-taint";
/// Rule identifier: durable state mutates only through `MailStore`.
pub const RULE_STORE_MUTATION: &str = "store-mutation-discipline";
/// Rule identifier: store/WAL `Result`s must be consumed.
pub const RULE_IGNORED_STORE_ERR: &str = "no-ignored-store-errors";

/// Every rule id with its current version. Allowlist entries pin a
/// version (`rule@version`); when a rule's analysis changes enough that
/// old waivers need re-vetting, its version bumps here and the stale
/// entries fail the pass until re-audited.
pub fn rule_versions() -> &'static [(&'static str, u32)] {
    &[
        (RULE_NO_PANIC, 2),
        (RULE_NO_WALL_CLOCK, 3),
        (RULE_NO_HASH, 3),
        (RULE_NO_PARTIAL_CMP_SORT, 2),
        (RULE_NO_UNBOUNDED_RUN, 2),
        (RULE_NO_AMBIENT_PAR, 2),
        (RULE_RNG_FORK, 1),
        (RULE_EVENT_MATCH, 1),
        (RULE_DETERMINISM_TAINT, 1),
        (RULE_STORE_MUTATION, 1),
        (RULE_IGNORED_STORE_ERR, 1),
    ]
}

fn version_of(rule: &str) -> u32 {
    rule_versions()
        .iter()
        .find(|&&(r, _)| r == rule)
        .map_or(0, |&(_, v)| v)
}

/// Crates whose code runs under the deterministic simulation clock.
const SIM_DRIVEN_CRATES: &[&str] = &["sim", "syntax", "locindep", "mst"];

/// The trusted RNG module: defines the seeded fork tree itself.
const RNG_MODULE: &str = "crates/sim/src/rng.rs";

/// The trusted profiler module: its wall-clock side channel (`Wall`) is
/// the one deliberate `Instant` in the sim crate, and by construction it
/// never flows into simulation state or exported bytes —
/// `tests/prof_digest.rs` pins that trace digests are identical with
/// profiling on and off.
const PROF_MODULE: &str = "crates/sim/src/prof.rs";

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// The rule that fired (`RULE_*` constant).
    pub rule: &'static str,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Rule-specific explanation of why this site was flagged.
    pub note: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} — {}",
            self.path, self.line, self.rule, self.excerpt, self.note
        )
    }
}

/// Vetted exceptions, loaded from `lint-allow.txt`.
///
/// Format, one exception per line:
///
/// ```text
/// # comment
/// <rule>@<version> <path-suffix> <substring of the offending line>
/// ```
///
/// A violation is waived when all four match: the rule id, the entry's
/// pinned version equals the rule's *current* version, the violation's
/// path ends with `<path-suffix>`, and the raw source line contains the
/// substring. Entries that never waive anything — including entries
/// pinning an outdated rule version — are *stale* and fail the pass.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

#[derive(Clone, Debug)]
struct AllowEntry {
    rule: String,
    version: u32,
    path_suffix: String,
    needle: String,
    used: std::cell::Cell<u32>,
}

impl Allowlist {
    /// An empty allowlist (everything reported).
    pub fn empty() -> Self {
        Allowlist::default()
    }

    /// Parses the allowlist format; unparseable lines are errors.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line when an entry is
    /// malformed, names an unknown rule, or omits the `@version` pin.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let (rule_field, path, needle) = match (parts.next(), parts.next(), parts.next()) {
                (Some(r), Some(p), Some(n)) if !n.trim().is_empty() => {
                    (r.to_owned(), p.to_owned(), n.trim().to_owned())
                }
                _ => {
                    return Err(format!(
                        "lint-allow.txt:{}: expected `<rule>@<version> <path-suffix> <needle>`",
                        i + 1
                    ))
                }
            };
            let Some((rule, ver)) = rule_field.split_once('@') else {
                return Err(format!(
                    "lint-allow.txt:{}: entry must pin a rule version (`{rule_field}@N`)",
                    i + 1
                ));
            };
            let Ok(version) = ver.parse::<u32>() else {
                return Err(format!(
                    "lint-allow.txt:{}: bad version `{ver}` in `{rule_field}`",
                    i + 1
                ));
            };
            if !rule_versions().iter().any(|&(r, _)| r == rule) {
                return Err(format!("lint-allow.txt:{}: unknown rule `{rule}`", i + 1));
            }
            entries.push(AllowEntry {
                rule: rule.to_owned(),
                version,
                path_suffix: path,
                needle,
                used: std::cell::Cell::new(0),
            });
        }
        Ok(Allowlist { entries })
    }

    /// Loads `lint-allow.txt` from `root`; a missing file is an empty list.
    ///
    /// # Errors
    ///
    /// Returns a message on unreadable files or malformed entries.
    pub fn load(root: &Path) -> Result<Self, String> {
        match fs::read_to_string(root.join("lint-allow.txt")) {
            Ok(text) => Self::parse(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Self::empty()),
            Err(e) => Err(format!("reading lint-allow.txt: {e}")),
        }
    }

    /// Number of exceptions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no exceptions are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn waives(&self, v: &Violation, raw_line: &str) -> bool {
        self.entries.iter().any(|e| {
            e.rule == v.rule
                && e.version == version_of(v.rule)
                && v.path.ends_with(&e.path_suffix)
                && raw_line.contains(&e.needle)
                && {
                    e.used.set(e.used.get() + 1);
                    true
                }
        })
    }

    /// Entries that waived nothing in the last run (stale exceptions —
    /// vetted code gone, or the entry pins an outdated rule version).
    /// An entry pinning an outdated version says so, naming the current
    /// version to re-vet against.
    pub fn unused(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| e.used.get() == 0)
            .map(|e| {
                let cur = version_of(&e.rule);
                let hint = if e.version == cur {
                    String::new()
                } else {
                    format!(" (rule is now at v{cur}; re-vet and re-pin)")
                };
                format!(
                    "{}@{} {} {}{hint}",
                    e.rule, e.version, e.path_suffix, e.needle
                )
            })
            .collect()
    }
}

/// Wall-time and coverage of one rule pass, for the `--json` report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleTiming {
    /// The rule id.
    pub rule: &'static str,
    /// Wall time of the pass, microseconds.
    pub wall_us: u64,
    /// Files the pass actually looked at (rules scoped to sim-driven
    /// crates or actor files scan fewer than the whole workspace).
    pub files_scanned: usize,
}

/// Outcome of a lint run.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Violations not covered by the allowlist.
    pub violations: Vec<Violation>,
    /// Allowlist entries that matched nothing. These fail the pass: a
    /// stale exception means the vetted code is gone and the waiver now
    /// silently covers whatever lands on that line next.
    pub stale_allows: Vec<String>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Per-rule wall time + coverage, in `rule_versions()` order.
    pub timings: Vec<RuleTiming>,
}

impl LintReport {
    /// True when the run found nothing to report — no violations *and*
    /// no stale allowlist entries.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale_allows.is_empty()
    }
}

fn crate_of(rel_path: &str) -> Option<&str> {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
}

/// One file prepared for analysis.
struct Ctx {
    rel: String,
    krate: String,
    sim_driven: bool,
    actor_file: bool,
    panic_exempt: bool,
    pf: ParsedFile,
    lines: Vec<String>,
}

impl Ctx {
    fn new(rel: &str, source: &str) -> Ctx {
        let krate = crate_of(rel).unwrap_or("").to_owned();
        Ctx {
            sim_driven: SIM_DRIVEN_CRATES.contains(&krate.as_str()),
            actor_file: rel.ends_with("/actors.rs"),
            panic_exempt: krate == "bench"
                || rel.contains("/src/bin/")
                || rel.ends_with("/src/main.rs"),
            pf: ParsedFile::parse(source),
            lines: source.lines().map(str::to_owned).collect(),
            rel: rel.to_owned(),
            krate,
        }
    }

    fn violation(&self, rule: &'static str, line: u32, note: String) -> Violation {
        Violation {
            path: self.rel.clone(),
            line,
            rule,
            excerpt: self
                .lines
                .get(line.saturating_sub(1) as usize)
                .map(|l| l.trim().to_owned())
                .unwrap_or_default(),
            note,
        }
    }
}

/// Next non-comment token index after `i`.
fn nc_next(toks: &[Tok], i: usize) -> Option<usize> {
    toks.iter()
        .enumerate()
        .skip(i + 1)
        .find(|(_, t)| t.kind != TokKind::Comment)
        .map(|(j, _)| j)
}

/// Previous non-comment token index before `i`.
fn nc_prev(toks: &[Tok], i: usize) -> Option<usize> {
    toks[..i].iter().rposition(|t| t.kind != TokKind::Comment)
}

/// Index of the `)` matching the `(` at `open`, or `toks.len()`.
fn close_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

/// True when `toks[i]` begins the path `a::b`; returns the index of `b`.
fn path2(toks: &[Tok], i: usize, a: &str, b: &str) -> Option<usize> {
    if !toks[i].is_ident(a) {
        return None;
    }
    let c1 = nc_next(toks, i)?;
    let c2 = nc_next(toks, c1)?;
    let name = nc_next(toks, c2)?;
    (toks[c1].is_punct(':') && toks[c2].is_punct(':') && toks[name].is_ident(b)).then_some(name)
}

/// `no-partial-cmp-sort`: applies to test code too — a NaN-panicking
/// comparator is as hazardous in a test as in the library.
fn partial_cmp_rule(ctx: &Ctx) -> Vec<Violation> {
    let toks = &ctx.pf.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !t.text.starts_with("sort") {
            continue;
        }
        let prev_dot = nc_prev(toks, i).is_some_and(|j| toks[j].is_punct('.'));
        let Some(open) = nc_next(toks, i).filter(|&j| toks[j].is_punct('(')) else {
            continue;
        };
        if !prev_dot {
            continue;
        }
        let close = close_paren(toks, open);
        if toks[open..close].iter().any(|a| a.is_ident("partial_cmp")) {
            out.push(
                ctx.violation(
                    RULE_NO_PARTIAL_CMP_SORT,
                    t.line,
                    "sort comparator built on partial_cmp: panics on NaN or silently breaks \
                 total order; use total_cmp or an Ord key"
                        .to_owned(),
                ),
            );
        }
    }
    out
}

/// `no-unbounded-run`: applies to test code too — an unbounded drive
/// hangs a test run just as hard.
fn unbounded_run_rule(ctx: &Ctx) -> Vec<Violation> {
    if ctx.krate == "sim" {
        return Vec::new();
    }
    let toks = &ctx.pf.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_ident("run_to_quiescence")
            && nc_next(toks, i).is_some_and(|j| toks[j].is_punct('('))
        {
            out.push(
                ctx.violation(
                    RULE_NO_UNBOUNDED_RUN,
                    t.line,
                    "unbounded simulation drive: use run_to_quiescence_bounded(budget) so \
                 non-converging retry loops fail instead of hanging"
                        .to_owned(),
                ),
            );
        }
    }
    out
}

/// `no-panic`: panic sites in non-test, non-exempt library code.
fn no_panic_rule(ctx: &Ctx) -> Vec<Violation> {
    if ctx.panic_exempt {
        return Vec::new();
    }
    let toks = &ctx.pf.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || ctx.pf.is_test_at(i) {
            continue;
        }
        let next_is = |c: char| nc_next(toks, i).is_some_and(|j| toks[j].is_punct(c));
        let prev_is = |c: char| nc_prev(toks, i).is_some_and(|j| toks[j].is_punct(c));
        let bang_macro = ["panic", "unreachable", "todo", "unimplemented"]
            .contains(&t.text.as_str())
            && next_is('!');
        let method =
            ["unwrap", "expect"].contains(&t.text.as_str()) && prev_is('.') && next_is('(');
        if (bang_macro || method) && !ctx.pf.panics_documented_at(i) {
            out.push(
                ctx.violation(
                    RULE_NO_PANIC,
                    t.line,
                    "panic site in non-test library code with no `# Panics` doc contract \
                 on the enclosing fn"
                        .to_owned(),
                ),
            );
        }
    }
    out
}

/// `no-wall-clock` (v3): the syntactic backstop behind
/// `determinism-taint` — any mention of a wall-clock/ambient-randomness
/// source in non-test sim-driven code, flow or no flow.
fn wall_clock_rule(ctx: &Ctx) -> Vec<Violation> {
    if !ctx.sim_driven || ctx.rel.ends_with(PROF_MODULE) {
        return Vec::new();
    }
    let toks = &ctx.pf.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && ["SystemTime", "Instant", "thread_rng"].contains(&t.text.as_str())
            && !ctx.pf.is_test_at(i)
        {
            out.push(
                ctx.violation(
                    RULE_NO_WALL_CLOCK,
                    t.line,
                    "wall-clock/ambient-randomness source in a sim-driven crate: time comes \
                 from sim::time, randomness from the seeded sim::rng"
                        .to_owned(),
                ),
            );
        }
    }
    out
}

/// `no-hash-collections` (v3): the syntactic backstop for actor files;
/// `determinism-taint` follows actual iteration-order flow everywhere
/// else.
fn hash_rule(ctx: &Ctx) -> Vec<Violation> {
    if !ctx.actor_file {
        return Vec::new();
    }
    let toks = &ctx.pf.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && ["HashMap", "HashSet"].contains(&t.text.as_str())
            && !ctx.pf.is_test_at(i)
        {
            out.push(
                ctx.violation(
                    RULE_NO_HASH,
                    t.line,
                    "hash-ordered collection in an actor decision path: iteration order is \
                 nondeterministic; use BTreeMap/BTreeSet"
                        .to_owned(),
                ),
            );
        }
    }
    out
}

/// `no-ambient-parallelism`: unaudited thread fan-out in sim-driven
/// non-test code.
fn ambient_par_rule(ctx: &Ctx) -> Vec<Violation> {
    if !ctx.sim_driven {
        return Vec::new();
    }
    let toks = &ctx.pf.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || ctx.pf.is_test_at(i) {
            continue;
        }
        let par_ident = [
            "rayon",
            "par_iter",
            "into_par_iter",
            "available_parallelism",
        ]
        .contains(&t.text.as_str());
        let thread_spawn = path2(toks, i, "thread", "spawn").is_some();
        if par_ident || thread_spawn {
            out.push(
                ctx.violation(
                    RULE_NO_AMBIENT_PAR,
                    t.line,
                    "unaudited thread fan-out in a sim-driven crate: parallel merges must \
                 be vetted order-independent (see lint-allow.txt)"
                        .to_owned(),
                ),
            );
        }
    }
    out
}

/// `rng-fork-discipline`: the taint pass over each sim-driven crate's
/// item graph. See the module docs for the rule statement.
fn rng_rule(ctxs: &[Ctx]) -> Vec<Violation> {
    /// Per-crate summary of a non-test fn whose signature returns `SimRng`.
    struct FnInfo {
        file: usize,
        name: String,
        body: (usize, usize),
    }
    let mut by_crate: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, c) in ctxs.iter().enumerate() {
        if c.sim_driven && !c.rel.ends_with(RNG_MODULE) && c.rel.starts_with("crates/") {
            by_crate.entry(&c.krate).or_default().push(i);
        }
    }

    let mut out = Vec::new();
    for files in by_crate.values() {
        // Direct sites: bare `SimRng::seed(…)` not `.fork(…)`-chained.
        // (tok index per file, and whether the site is in test code.)
        let mut bare_sites: Vec<(usize, usize)> = Vec::new();
        for &fi in files {
            let toks = &ctxs[fi].pf.tokens;
            for i in 0..toks.len() {
                let Some(seed) = path2(toks, i, "SimRng", "seed") else {
                    continue;
                };
                let Some(open) = nc_next(toks, seed).filter(|&j| toks[j].is_punct('(')) else {
                    continue;
                };
                let close = close_paren(toks, open);
                let chained = nc_next(toks, close)
                    .filter(|&j| toks[j].is_punct('.'))
                    .and_then(|j| nc_next(toks, j))
                    .is_some_and(|j| toks[j].is_ident("fork"));
                if !chained {
                    bare_sites.push((fi, i));
                }
            }
        }
        for &(fi, i) in &bare_sites {
            if !ctxs[fi].pf.is_test_at(i) {
                out.push(
                    ctxs[fi].violation(
                        RULE_RNG_FORK,
                        ctxs[fi].pf.tokens[i].line,
                        "fresh RNG root: SimRng::seed(..) without .fork(label) does not descend \
                     from the deployment's seeded fork tree, so replays diverge"
                            .to_owned(),
                    ),
                );
            }
        }

        // Fn summaries: which non-test fns return a bare root? Seeded by
        // fns whose body holds a bare site; propagated through calls to
        // other bare-root-returning fns, to fixpoint.
        let mut fns: Vec<FnInfo> = Vec::new();
        for &fi in files {
            for s in &ctxs[fi].pf.scopes {
                if s.kind == ScopeKind::Fn && !s.is_test && returns_simrng(&ctxs[fi].pf, s.sig) {
                    fns.push(FnInfo {
                        file: fi,
                        name: s.name.clone(),
                        body: s.body,
                    });
                }
            }
        }
        // Seed: fns whose body holds a bare site; propagate through the
        // crate's name-keyed call graph to fixpoint on the shared flow
        // framework (the same skeleton `determinism-taint` runs on).
        let bare_fns = flow::summary_fixpoint(
            &fns,
            |f| f.name.as_str(),
            |f| {
                bare_sites
                    .iter()
                    .any(|&(fi, i)| fi == f.file && f.body.0 <= i && i < f.body.1)
            },
            |f| {
                call_sites(&ctxs[f.file].pf.tokens, f.body)
                    .into_iter()
                    .map(|c| c.name)
                    .collect()
            },
        );

        // Call sites of bare-root-returning fns, outside test code.
        for &fi in files {
            let toks = &ctxs[fi].pf.tokens;
            for i in 0..toks.len() {
                let Some(name) = call_of(toks, i) else {
                    continue;
                };
                if bare_fns.contains(name) && !ctxs[fi].pf.is_test_at(i) {
                    out.push(ctxs[fi].violation(
                        RULE_RNG_FORK,
                        toks[i].line,
                        format!(
                            "`{name}` returns an unforked RNG root (taint traced to a bare \
                             SimRng::seed site); draws through it sit outside the fork tree"
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// When `toks[i]` is the callee ident of a call (`name(` not preceded
/// by `fn`), returns the name.
fn call_of(toks: &[Tok], i: usize) -> Option<&str> {
    if toks[i].kind != TokKind::Ident {
        return None;
    }
    let open = nc_next(toks, i)?;
    if !toks[open].is_punct('(') {
        return None;
    }
    if nc_prev(toks, i).is_some_and(|j| toks[j].is_ident("fn")) {
        return None;
    }
    Some(&toks[i].text)
}

/// True when a fn signature's return type mentions `SimRng`.
fn returns_simrng(pf: &ParsedFile, sig: (usize, usize)) -> bool {
    let toks = &pf.tokens;
    let mut arrow = None;
    for i in sig.0..sig.1.min(toks.len()) {
        if toks[i].is_punct('-') && toks.get(i + 1).is_some_and(|t| t.is_punct('>')) {
            arrow = Some(i + 2);
            break;
        }
    }
    arrow.is_some_and(|start| {
        toks[start..sig.1.min(toks.len())]
            .iter()
            .any(|t| t.is_ident("SimRng"))
    })
}

/// `event-match-exhaustive`: protocol-enum variants vs handler `match`
/// arms, plus dead-variant detection. See the module docs.
fn event_rule(ctxs: &[Ctx]) -> Vec<Violation> {
    let mut by_crate: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, c) in ctxs.iter().enumerate() {
        if c.rel.starts_with("crates/") {
            by_crate.entry(&c.krate).or_default().push(i);
        }
    }

    let mut out = Vec::new();
    for files in by_crate.values() {
        // Non-test enum definitions of this crate, by name.
        let mut enums: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        for &fi in files {
            for (ei, e) in ctxs[fi].pf.enums.iter().enumerate() {
                if !e.is_test {
                    enums.entry(&e.name).or_insert((fi, ei));
                }
            }
        }

        let mut dead_checked: BTreeSet<&str> = BTreeSet::new();
        for &fi in files {
            let declared: BTreeSet<&str> =
                ctxs[fi].pf.msg_types.iter().map(String::as_str).collect();
            for tname in declared {
                let Some(&(ef, ei)) = enums.get(tname) else {
                    continue; // struct protocol (e.g. an envelope type)
                };
                let variants = &ctxs[ef].pf.enums[ei].variants;

                // Handler matches: non-test matches in the declaring
                // file whose arms name `T::…` paths.
                for m in &ctxs[fi].pf.matches {
                    if ctxs[fi].pf.is_test_at(m.tok) {
                        continue;
                    }
                    let toks = &ctxs[fi].pf.tokens;
                    let mut named: BTreeSet<&str> = BTreeSet::new();
                    let mut catch_all_line = None;
                    for arm in &m.arms {
                        if arm.catch_all && catch_all_line.is_none() {
                            catch_all_line = Some(arm.line);
                        }
                        for i in arm.pat.0..arm.pat.1 {
                            for (vname, _) in variants {
                                if path2(toks, i, tname, vname).is_some() {
                                    named.insert(vname);
                                }
                            }
                        }
                    }
                    if named.is_empty() {
                        continue; // not a match over this enum
                    }
                    let missing: Vec<&str> = variants
                        .iter()
                        .map(|(v, _)| v.as_str())
                        .filter(|v| !named.contains(v))
                        .collect();
                    if missing.is_empty() {
                        continue;
                    }
                    let list = missing.join(", ");
                    if let Some(line) = catch_all_line {
                        out.push(ctxs[fi].violation(
                            RULE_EVENT_MATCH,
                            line,
                            format!(
                                "match on {tname} swallows variants through this catch-all \
                                 arm: {list}; name them explicitly (`{tname}::X {{ .. }} | \
                                 … => {{}}`) so new event kinds cannot vanish silently"
                            ),
                        ));
                    } else {
                        out.push(ctxs[fi].violation(
                            RULE_EVENT_MATCH,
                            m.line,
                            format!("match on {tname} does not handle: {list}"),
                        ));
                    }
                }

                // Dead variants: never constructed in expression position
                // anywhere in the scanned set (crate-crossing drivers
                // included).
                if dead_checked.insert(tname) {
                    for (vname, vline) in variants {
                        let constructed = ctxs.iter().any(|c| {
                            let toks = &c.pf.tokens;
                            (0..toks.len()).any(|i| {
                                path2(toks, i, tname, vname).is_some_and(|vi| !c.pf.in_pattern(vi))
                            })
                        });
                        if !constructed {
                            out.push(ctxs[ef].violation(
                                RULE_EVENT_MATCH,
                                *vline,
                                format!(
                                    "dead variant: {tname}::{vname} is never constructed in \
                                     the scanned sources — no actor can ever receive it"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Taint configuration for `determinism-taint`: the workspace's
/// nondeterminism sources and its emission/scheduling sinks.
const TAINT_CONFIG: TaintConfig<'static> = TaintConfig {
    wall_idents: &["SystemTime", "Instant"],
    rand_idents: &["thread_rng"],
    sinks: &[
        "send",
        "send_self",
        "send_at",
        "set_timer",
        "inject",
        "schedule_crash",
        "schedule_recover",
        "record",
        "open_keyed",
        "fork",
    ],
};

/// Files allowed to mutate durable mailbox/ledger state directly: the
/// module that *defines* the discipline.
const STORE_TRUSTED: &[&str] = &["crates/core/src/store.rs", "crates/core/src/mailbox.rs"];

/// Mutating methods on a `Mailbox` value.
const MAILBOX_MUTATORS: &[&str] = &[
    "deposit",
    "drain",
    "remove",
    "expire_older_than",
    "restore_ledger",
];

/// Mutating methods on a `Mailbox`-valued map (the ledger itself).
const MAP_MUTATORS: &[&str] = &[
    "insert",
    "remove",
    "entry",
    "clear",
    "get_mut",
    "values_mut",
    "retain",
];

/// WAL/segment operations whose `Result` must be consumed.
const FALLIBLE_STORE_OPS: &[&str] = &[
    "create",
    "append",
    "sync",
    "truncate",
    "delete",
    "read",
    "replay",
    "read_segment",
    "reopen",
];

/// Shared flow-layer preparation: every fn parsed, lowered to a CFG,
/// and class-annotated, plus per-crate struct-field class tables (with
/// `core`'s fields visible from every crate, since `StoreState` and
/// `Mailbox` cross crate boundaries).
struct FlowPrep {
    units: Vec<FnUnit>,
    fields: BTreeMap<String, BTreeMap<String, TypeClass>>,
}

impl FlowPrep {
    fn build(ctxs: &[Ctx]) -> FlowPrep {
        let mut fields: BTreeMap<String, BTreeMap<String, TypeClass>> = BTreeMap::new();
        let mut storeio_by_file: Vec<BTreeSet<String>> = Vec::with_capacity(ctxs.len());
        for ctx in ctxs {
            let sg = flow::storeio_generics(&ctx.pf.tokens);
            if ctx.rel.starts_with("crates/") {
                let table = flow::field_classes(&ctx.pf.tokens, &sg);
                let slot = fields.entry(ctx.krate.clone()).or_default();
                for (k, v) in table {
                    slot.entry(k).or_insert(v);
                }
            }
            storeio_by_file.push(sg);
        }
        let core: Vec<(String, TypeClass)> = fields
            .get("core")
            .map(|t| t.iter().map(|(k, &v)| (k.clone(), v)).collect())
            .unwrap_or_default();
        for ctx in ctxs {
            fields.entry(ctx.krate.clone()).or_default();
        }
        for (krate, table) in &mut fields {
            if krate != "core" {
                for (k, v) in &core {
                    table.entry(k.clone()).or_insert(*v);
                }
            }
        }
        let mut units = Vec::new();
        for (i, ctx) in ctxs.iter().enumerate() {
            if !ctx.rel.starts_with("crates/") {
                continue;
            }
            if let Some(table) = fields.get(&ctx.krate) {
                units.extend(flow::fn_units(i, &ctx.pf, table, &storeio_by_file[i]));
            }
        }
        FlowPrep { units, fields }
    }

    fn fcx<'a>(&'a self, ctxs: &'a [Ctx], u: &'a FnUnit) -> Option<FnCtx<'a>> {
        let c = &ctxs[u.file];
        let fields = self.fields.get(&c.krate)?;
        Some(FnCtx {
            toks: &c.pf.tokens,
            body: &u.body,
            cfg: &u.cfg,
            params: &u.params,
            classes: &u.classes,
            fields,
        })
    }
}

/// `determinism-taint`: worklist taint from nondeterminism sources to
/// emission/scheduling sinks, with helper-fn summaries per crate.
fn determinism_rule(ctxs: &[Ctx], prep: &FlowPrep) -> Vec<Violation> {
    let mut by_crate: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (ui, u) in prep.units.iter().enumerate() {
        let c = &ctxs[u.file];
        if c.sim_driven
            && !c.rel.ends_with(RNG_MODULE)
            && !c.rel.ends_with(PROF_MODULE)
            && !u.is_test
        {
            by_crate.entry(&c.krate).or_default().push(ui);
        }
    }
    let mut out = Vec::new();
    for uis in by_crate.values() {
        // Iterate fn summaries to fixpoint through the crate's call
        // graph, so taint laundered through helpers still lands.
        let mut summaries: BTreeMap<String, Summary> = BTreeMap::new();
        loop {
            let mut changed = false;
            for &ui in uis {
                let u = &prep.units[ui];
                let Some(fcx) = prep.fcx(ctxs, u) else {
                    continue;
                };
                let f = flow::taint_fn(&fcx, &summaries, &TAINT_CONFIG);
                let prev = summaries.get(&u.name).copied().unwrap_or_default();
                let merged = Summary {
                    ret_roots: prev.ret_roots | f.summary.ret_roots,
                    param_to_ret: prev.param_to_ret | f.summary.param_to_ret,
                    param_to_sink: prev.param_to_sink | f.summary.param_to_sink,
                };
                if merged != prev {
                    summaries.insert(u.name.clone(), merged);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for &ui in uis {
            let u = &prep.units[ui];
            let Some(fcx) = prep.fcx(ctxs, u) else {
                continue;
            };
            let toks = &ctxs[u.file].pf.tokens;
            let mut seen = BTreeSet::new();
            for hit in flow::taint_fn(&fcx, &summaries, &TAINT_CONFIG).hits {
                if !seen.insert(hit.at) {
                    continue;
                }
                let roots = flow::root_names(hit.bits & ROOT_MASK).join(", ");
                out.push(ctxs[u.file].violation(
                    RULE_DETERMINISM_TAINT,
                    toks[hit.at].line,
                    format!(
                        "nondeterministic value ({roots}) flows into `{}`: anything emitted \
                         or scheduled must derive from sim time, the seeded RNG, or ordered \
                         collections, or replays diverge",
                        hit.sink
                    ),
                ));
            }
        }
    }
    out
}

/// `store-mutation-discipline`: direct durable-state mutation outside
/// the trusted `lems_core::{store,mailbox}` modules.
fn store_mutation_rule(ctxs: &[Ctx], prep: &FlowPrep) -> Vec<Violation> {
    let mut out = Vec::new();
    for u in &prep.units {
        if u.is_test {
            continue;
        }
        let c = &ctxs[u.file];
        if !c.rel.starts_with("crates/") || STORE_TRUSTED.iter().any(|t| c.rel.ends_with(t)) {
            continue;
        }
        let Some(fields) = prep.fields.get(&c.krate) else {
            continue;
        };
        let toks = &c.pf.tokens;
        let class_of = |name: &str| {
            u.classes
                .get(name)
                .copied()
                .or_else(|| fields.get(name).copied())
                .unwrap_or(TypeClass::Other)
        };
        for call in call_sites(toks, u.body_range) {
            let recv_class = call
                .recv
                .map_or(TypeClass::Other, |r| class_of(&toks[r].text));
            let name = call.name.as_str();
            if MAILBOX_MUTATORS.contains(&name) && recv_class == TypeClass::Mailbox {
                out.push(c.violation(
                    RULE_STORE_MUTATION,
                    toks[call.at].line,
                    format!(
                        "direct Mailbox mutation (`.{name}`) outside lems_core::{{store,\
                         mailbox}}: durable state must move through MailStore methods or \
                         crash recovery diverges from the Ideal model"
                    ),
                ));
            } else if MAP_MUTATORS.contains(&name) && recv_class == TypeClass::MailboxMap {
                out.push(c.violation(
                    RULE_STORE_MUTATION,
                    toks[call.at].line,
                    format!(
                        "direct ledger mutation (`.{name}` on a Mailbox map) outside \
                         lems_core::{{store,mailbox}}: route the operation through MailStore"
                    ),
                ));
            } else if name == "new" && call.path_qual.as_deref() == Some("Mailbox") {
                out.push(
                    c.violation(
                        RULE_STORE_MUTATION,
                        toks[call.at].line,
                        "Mailbox::new outside lems_core::{store,mailbox}: mailboxes are created \
                     by the store on first deposit, never ad hoc"
                            .to_owned(),
                    ),
                );
            }
        }
    }
    out
}

/// True when no unclosed bracket opens between `lo` and `at` — i.e. the
/// token at `at` sits at the statement's own nesting depth, not inside
/// another call's argument list.
fn at_depth0(toks: &[Tok], lo: usize, at: usize) -> bool {
    let mut depth = 0i32;
    for t in toks.iter().take(at).skip(lo) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        }
    }
    depth == 0
}

/// `no-ignored-store-errors`: a WAL/segment `Result` dropped, `let _ =`
/// discarded, or `.ok()`-swallowed in non-test code.
fn ignored_store_errors_rule(ctxs: &[Ctx], prep: &FlowPrep) -> Vec<Violation> {
    let mut out = Vec::new();
    for u in &prep.units {
        if u.is_test {
            continue;
        }
        let c = &ctxs[u.file];
        if !c.rel.starts_with("crates/") {
            continue;
        }
        let Some(fields) = prep.fields.get(&c.krate) else {
            continue;
        };
        let toks = &c.pf.tokens;
        let class_of = |name: &str| {
            u.classes
                .get(name)
                .copied()
                .or_else(|| fields.get(name).copied())
                .unwrap_or(TypeClass::Other)
        };
        let mut stmts: Vec<&Stmt> = Vec::new();
        u.body.walk(&mut |s| stmts.push(s));
        for call in call_sites(toks, u.body_range) {
            let name = call.name.as_str();
            let recv_class = call
                .recv
                .map_or(TypeClass::Other, |r| class_of(&toks[r].text));
            let is_method_op = FALLIBLE_STORE_OPS.contains(&name)
                && matches!(recv_class, TypeClass::StoreIo | TypeClass::Wal);
            let is_path_op = (name == "open"
                && matches!(
                    call.path_qual.as_deref(),
                    Some("Wal" | "WalStore" | "FileSegments")
                ))
                || name == "replay_segment";
            if !is_method_op && !is_path_op {
                continue;
            }
            let close = call.args.1; // index of the call's `)`
            match nc_next(toks, close) {
                Some(j) if toks[j].is_punct('?') => continue, // propagated
                Some(j) if toks[j].is_punct('.') => {
                    // Chained. `.ok()` with nothing after it converts
                    // the Result to an Option and drops the error.
                    let swallowed = nc_next(toks, j)
                        .filter(|&m| toks[m].is_ident("ok"))
                        .and_then(|m| nc_next(toks, m))
                        .filter(|&p| toks[p].is_punct('('))
                        .map(|p| close_paren(toks, p))
                        .is_some_and(|ocl| {
                            !nc_next(toks, ocl)
                                .is_some_and(|p| toks[p].is_punct('.') || toks[p].is_punct('?'))
                        });
                    if swallowed {
                        out.push(c.violation(
                            RULE_IGNORED_STORE_ERR,
                            toks[call.at].line,
                            format!(
                                "`.ok()` swallows the StoreError from `{name}`: a store \
                                 failure must surface (propagate with `?` or count it via \
                                 io_errors), not vanish into an Option"
                            ),
                        ));
                    }
                    continue;
                }
                _ => {}
            }
            // Not chained, not propagated: flag the two discard shapes.
            let Some(stmt) = stmts
                .iter()
                .filter(|s| s.range.0 <= call.at && call.at < s.range.1)
                .min_by_key(|s| s.range.1 - s.range.0)
            else {
                continue;
            };
            match &stmt.kind {
                StmtKind::Let {
                    pat,
                    init: Some(init),
                    ..
                } => {
                    let wildcard = pat.1 == pat.0 + 1 && toks[pat.0].is_ident("_");
                    if wildcard && at_depth0(toks, init.0, call.at) {
                        out.push(c.violation(
                            RULE_IGNORED_STORE_ERR,
                            toks[call.at].line,
                            format!(
                                "`let _ =` discards the Result of `{name}`: handle or \
                                 propagate the StoreError — a silently failed store op \
                                 diverges durable state from the log"
                            ),
                        ));
                    }
                }
                StmtKind::Expr { range } => {
                    let ends_semi =
                        range.1 >= 1 && range.1 <= toks.len() && toks[range.1 - 1].is_punct(';');
                    if ends_semi && at_depth0(toks, range.0, call.at) {
                        out.push(c.violation(
                            RULE_IGNORED_STORE_ERR,
                            toks[call.at].line,
                            format!(
                                "Result of `{name}` dropped as a bare statement: handle or \
                                 propagate the StoreError — a silently failed store op \
                                 diverges durable state from the log"
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Analyses a set of sources together (cross-file rules see the whole
/// set). Each entry is `(workspace-relative path, source text)`.
pub fn analyze_sources(files: &[(&str, &str)]) -> Vec<Violation> {
    analyze_sources_timed(files).0
}

/// Microseconds elapsed since `t0`, saturating.
fn elapsed_us(t0: std::time::Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// [`analyze_sources`] plus per-rule wall-time/coverage counters, in
/// [`rule_versions`] order. The flow-layer preparation (statement
/// parsing, CFG lowering, class tables) is charged to the first flow
/// rule, `determinism-taint`.
pub fn analyze_sources_timed(files: &[(&str, &str)]) -> (Vec<Violation>, Vec<RuleTiming>) {
    use std::time::Instant;
    let ctxs: Vec<Ctx> = files.iter().map(|&(rel, src)| Ctx::new(rel, src)).collect();
    let n_all = ctxs.len();
    let n_crates = ctxs.iter().filter(|c| c.rel.starts_with("crates/")).count();
    let n_sim = ctxs.iter().filter(|c| c.sim_driven).count();
    let n_actor = ctxs.iter().filter(|c| c.actor_file).count();
    let n_taint = ctxs
        .iter()
        .filter(|c| c.sim_driven && !c.rel.ends_with(RNG_MODULE) && !c.rel.ends_with(PROF_MODULE))
        .count();

    let mut out: Vec<Violation> = Vec::new();
    let mut timings: Vec<RuleTiming> = Vec::new();
    let pass = |rule: &'static str,
                files_scanned: usize,
                out: &mut Vec<Violation>,
                timings: &mut Vec<RuleTiming>,
                f: &dyn Fn(&[Ctx]) -> Vec<Violation>| {
        let t0 = Instant::now();
        let vs = f(&ctxs);
        timings.push(RuleTiming {
            rule,
            wall_us: elapsed_us(t0),
            files_scanned,
        });
        out.extend(vs);
    };

    let per_file = |f: fn(&Ctx) -> Vec<Violation>| {
        move |cs: &[Ctx]| cs.iter().flat_map(f).collect::<Vec<Violation>>()
    };
    pass(
        RULE_NO_PANIC,
        n_all,
        &mut out,
        &mut timings,
        &per_file(no_panic_rule),
    );
    pass(
        RULE_NO_WALL_CLOCK,
        n_sim,
        &mut out,
        &mut timings,
        &per_file(wall_clock_rule),
    );
    pass(
        RULE_NO_HASH,
        n_actor,
        &mut out,
        &mut timings,
        &per_file(hash_rule),
    );
    pass(
        RULE_NO_PARTIAL_CMP_SORT,
        n_all,
        &mut out,
        &mut timings,
        &per_file(partial_cmp_rule),
    );
    pass(
        RULE_NO_UNBOUNDED_RUN,
        n_all,
        &mut out,
        &mut timings,
        &per_file(unbounded_run_rule),
    );
    pass(
        RULE_NO_AMBIENT_PAR,
        n_sim,
        &mut out,
        &mut timings,
        &per_file(ambient_par_rule),
    );
    pass(RULE_RNG_FORK, n_taint, &mut out, &mut timings, &rng_rule);
    pass(
        RULE_EVENT_MATCH,
        n_crates,
        &mut out,
        &mut timings,
        &event_rule,
    );

    // Flow rules share one prep; its cost lands on determinism-taint.
    let t0 = Instant::now();
    let prep = FlowPrep::build(&ctxs);
    let vs = determinism_rule(&ctxs, &prep);
    timings.push(RuleTiming {
        rule: RULE_DETERMINISM_TAINT,
        wall_us: elapsed_us(t0),
        files_scanned: n_taint,
    });
    out.extend(vs);

    let t0 = Instant::now();
    let vs = store_mutation_rule(&ctxs, &prep);
    timings.push(RuleTiming {
        rule: RULE_STORE_MUTATION,
        wall_us: elapsed_us(t0),
        files_scanned: n_crates,
    });
    out.extend(vs);

    let t0 = Instant::now();
    let vs = ignored_store_errors_rule(&ctxs, &prep);
    timings.push(RuleTiming {
        rule: RULE_IGNORED_STORE_ERR,
        wall_us: elapsed_us(t0),
        files_scanned: n_crates,
    });
    out.extend(vs);

    out.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    (out, timings)
}

/// Scans one file's contents; `rel_path` is workspace-relative with
/// forward slashes (e.g. `crates/sim/src/actor.rs`). Cross-file rules
/// run with just this file in view.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Violation> {
    analyze_sources(&[(rel_path, source)])
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `crates/*/src` tree under `root`, applying `allow`.
///
/// # Errors
///
/// Returns I/O errors from walking or reading the tree.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> io::Result<LintReport> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut sources: Vec<(String, String)> = Vec::new();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        for file in files {
            let text = fs::read_to_string(&file)?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            sources.push((rel, text));
        }
    }

    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(r, s)| (r.as_str(), s.as_str()))
        .collect();
    let (violations, timings) = analyze_sources_timed(&refs);
    let mut report = LintReport {
        files_scanned: sources.len(),
        timings,
        ..LintReport::default()
    };
    for v in violations {
        let raw = sources
            .iter()
            .find(|(r, _)| *r == v.path)
            .and_then(|(_, s)| s.lines().nth(v.line.saturating_sub(1) as usize))
            .unwrap_or("");
        if !allow.waives(&v, raw) {
            report.violations.push(v);
        }
    }
    report.stale_allows = allow.unused();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_unwrap_and_panic_in_lib_code() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\nfn g() {\n    panic!(\"boom\");\n}\n";
        let vs = scan_source("crates/core/src/lib.rs", src);
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].rule, RULE_NO_PANIC);
        assert_eq!(vs[0].line, 2);
        assert_eq!(vs[1].line, 5);
    }

    #[test]
    fn expect_and_todo_and_unreachable_fire() {
        let src = "fn f() {\n    let _ = std::env::var(\"X\").expect(\"set\");\n    todo!()\n}\nfn h() { unreachable!() }\n";
        let vs = scan_source("crates/net/src/x.rs", src);
        let lines: Vec<u32> = vs.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![2, 3, 5]);
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0) + x.unwrap_or_default() + x.unwrap_or_else(|| 1)\n}\n";
        assert!(scan_source("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn comments_strings_and_doc_examples_are_ignored() {
        let src = concat!(
            "//! Doc: call `.unwrap()` freely in examples.\n",
            "/// ```\n",
            "/// let x = maybe().unwrap();\n",
            "/// ```\n",
            "fn f() {\n",
            "    // panic!(\"not real\")\n",
            "    let s = \".unwrap() panic! SystemTime\";\n",
            "    let c = '\\'';\n",
            "    let _ = (s, c); /* .expect( */\n",
            "}\n",
        );
        assert!(scan_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = concat!(
            "pub fn lib() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() {\n",
            "        Some(1).unwrap();\n",
            "        panic!(\"fine in tests\");\n",
            "    }\n",
            "}\n",
        );
        assert!(scan_source("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn code_after_a_test_block_is_still_linted() {
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests { fn t() { Some(1).unwrap(); } }\n",
            "pub fn lib(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        let vs = scan_source("crates/core/src/lib.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 3);
    }

    #[test]
    fn nested_test_mods_stay_exempt_but_siblings_do_not() {
        // The v1 line mask lost track of nesting like this; the scope
        // tree carries #[cfg(test)] down arbitrarily deep.
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    mod inner {\n",
            "        mod deeper {\n",
            "            fn helper() { Some(1).unwrap(); }\n",
            "        }\n",
            "    }\n",
            "}\n",
            "pub fn lib(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        let vs = scan_source("crates/core/src/lib.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 9);
    }

    #[test]
    fn panics_doc_contract_exempts_the_documented_fn() {
        let src = concat!(
            "/// Looks up a bound name.\n",
            "///\n",
            "/// # Panics\n",
            "///\n",
            "/// Panics when `name` was never registered.\n",
            "pub fn lookup(m: &Map, name: &str) -> u32 {\n",
            "    *m.get(name).expect(\"unknown name\")\n",
            "}\n",
            "pub fn bare(m: &Map, name: &str) -> u32 {\n",
            "    *m.get(name).expect(\"unknown name\")\n",
            "}\n",
        );
        let vs = scan_source("crates/core/src/lib.rs", src);
        assert_eq!(vs.len(), 1, "only the undocumented fn fires");
        assert_eq!(vs[0].line, 10);
    }

    #[test]
    fn wall_clock_fires_only_in_sim_driven_crates() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n    let r = rand::thread_rng();\n    let _ = (t, r);\n}\n";
        let in_sim = scan_source("crates/syntax/src/x.rs", src);
        assert_eq!(in_sim.len(), 2);
        assert!(in_sim.iter().all(|v| v.rule == RULE_NO_WALL_CLOCK));
        // The eval crate post-processes results outside the simulation.
        assert!(scan_source("crates/eval/src/x.rs", src).is_empty());
    }

    #[test]
    fn hash_collections_fire_only_in_actor_files() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\n";
        let vs = scan_source("crates/syntax/src/actors.rs", src);
        assert_eq!(vs.len(), 2);
        assert!(vs.iter().all(|v| v.rule == RULE_NO_HASH));
        assert!(scan_source("crates/syntax/src/assign.rs", src).is_empty());
    }

    #[test]
    fn binaries_and_bench_drivers_are_panic_exempt() {
        let src = "fn main() { run().expect(\"setup\"); }\n";
        assert!(scan_source("crates/bench/src/cache_exp.rs", src).is_empty());
        assert!(scan_source("crates/check/src/main.rs", src).is_empty());
        assert!(scan_source("crates/bench/src/bin/repro-all.rs", src).is_empty());
        // ...but the wall-clock rule still applies to sim-driven binaries.
        let clock = "fn main() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(scan_source("crates/sim/src/bin/x.rs", clock).len(), 1);
    }

    #[test]
    fn partial_cmp_sort_fires_even_in_test_code() {
        let src = concat!(
            "fn f(mut v: Vec<f64>) {\n",
            "    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t(mut v: Vec<(f64, u32)>) {\n",
            "        v.sort_by_key(|x| x.1);\n",
            "        v.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap());\n",
            "    }\n",
            "}\n",
        );
        let vs: Vec<_> = scan_source("crates/eval/src/x.rs", src)
            .into_iter()
            .filter(|v| v.rule == RULE_NO_PARTIAL_CMP_SORT)
            .collect();
        let lines: Vec<u32> = vs.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![2, 8]);
    }

    #[test]
    fn partial_cmp_sort_caught_across_line_breaks() {
        // v1 matched needle-per-line and missed exactly this layout.
        let src = concat!(
            "fn f(mut v: Vec<f64>) {\n",
            "    v.sort_by(|a, b| {\n",
            "        a.partial_cmp(b)\n",
            "            .unwrap_or(std::cmp::Ordering::Equal)\n",
            "    });\n",
            "}\n",
        );
        let vs: Vec<_> = scan_source("crates/eval/src/x.rs", src)
            .into_iter()
            .filter(|v| v.rule == RULE_NO_PARTIAL_CMP_SORT)
            .collect();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 2, "reported at the .sort_by call");
    }

    #[test]
    fn total_cmp_sorts_and_partial_cmp_impls_do_not_fire() {
        let src = concat!(
            "fn f(mut v: Vec<f64>) {\n",
            "    v.sort_by(f64::total_cmp);\n",
            "    v.sort_by(|a, b| a.total_cmp(b));\n",
            "}\n",
            "impl PartialOrd for W {\n",
            "    fn partial_cmp(&self, o: &W) -> Option<Ordering> { self.0.partial_cmp(&o.0) }\n",
            "}\n",
        );
        assert!(scan_source("crates/eval/src/x.rs", src)
            .iter()
            .all(|v| v.rule != RULE_NO_PARTIAL_CMP_SORT));
    }

    #[test]
    fn unbounded_run_fires_outside_sim_crate_including_tests() {
        let src = concat!(
            "pub fn drive(sim: &mut S) {\n",
            "    sim.run_to_quiescence();\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t(sim: &mut S) {\n",
            "        sim.run_to_quiescence();\n",
            "        assert!(sim.run_to_quiescence_bounded(1_000));\n",
            "    }\n",
            "}\n",
        );
        let vs: Vec<_> = scan_source("crates/syntax/src/x.rs", src)
            .into_iter()
            .filter(|v| v.rule == RULE_NO_UNBOUNDED_RUN)
            .collect();
        let lines: Vec<u32> = vs.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![2, 7]);
        // The sim crate defines (and may call) the unbounded variant.
        assert!(scan_source("crates/sim/src/x.rs", src)
            .iter()
            .all(|v| v.rule != RULE_NO_UNBOUNDED_RUN));
    }

    #[test]
    fn ambient_parallelism_fires_only_in_sim_driven_crates() {
        let src = concat!(
            "use rayon::prelude::*;\n",
            "fn f(v: &[u32]) -> Vec<u32> {\n",
            "    let h = std::thread::spawn(|| 1);\n",
            "    let _ = (h, std::thread::available_parallelism());\n",
            "    v.par_iter().map(|&x| x + 1).collect()\n",
            "}\n",
        );
        let vs = scan_source("crates/syntax/src/x.rs", src);
        assert_eq!(vs.len(), 4);
        assert!(vs.iter().all(|v| v.rule == RULE_NO_AMBIENT_PAR));
        // Non-sim-driven crates (net, bench, check) fan out freely.
        assert!(scan_source("crates/net/src/x.rs", src).is_empty());
    }

    #[test]
    fn token_boundaries_respected() {
        let src = "fn f() { my_thread_rng(); not_a_panic!simulated(); }\n";
        assert!(scan_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "fn f() -> &'static str { r#\"contains .unwrap() and panic!\"# }\n";
        assert!(scan_source("crates/core/src/lib.rs", src).is_empty());
    }

    // --- rng-fork-discipline ---

    #[test]
    fn bare_seed_site_fires_in_sim_driven_lib_code() {
        let src = concat!(
            "use lems_sim::rng::SimRng;\n",
            "pub fn jitter(seed: u64) -> u64 {\n",
            "    let mut rng = SimRng::seed(seed);\n",
            "    rng.range(0, 10)\n",
            "}\n",
        );
        let vs = scan_source("crates/syntax/src/x.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, RULE_RNG_FORK);
        assert_eq!(vs[0].line, 3);
    }

    #[test]
    fn forked_root_and_test_seeds_are_fine() {
        let src = concat!(
            "use lems_sim::rng::SimRng;\n",
            "pub fn build(seed: u64) -> SimRng {\n",
            "    SimRng::seed(seed).fork(\"deploy\")\n",
            "}\n",
            "pub fn build_split(seed: u64) -> SimRng {\n",
            "    SimRng::seed(seed)\n",
            "        .fork(\"deploy\")\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { let _ = super::SimRng::seed(7); }\n",
            "}\n",
        );
        assert!(scan_source("crates/syntax/src/x.rs", src).is_empty());
    }

    #[test]
    fn seed_outside_sim_driven_crates_is_fine() {
        let src = "pub fn f() -> SimRng { SimRng::seed(1) }\n";
        assert!(scan_source("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn taint_propagates_through_root_returning_helpers() {
        let src = concat!(
            "use lems_sim::rng::SimRng;\n",
            "fn fresh() -> SimRng {\n",
            "    SimRng::seed(42)\n",
            "}\n",
            "pub fn shuffle_order(xs: &mut Vec<u32>) {\n",
            "    let mut rng = fresh();\n",
            "    rng.shuffle(xs);\n",
            "}\n",
        );
        let vs = scan_source("crates/locindep/src/x.rs", src);
        assert_eq!(vs.len(), 2, "the bare root and the laundering call site");
        assert!(vs.iter().all(|v| v.rule == RULE_RNG_FORK));
        let lines: Vec<u32> = vs.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![3, 6]);
        assert!(vs[1].note.contains("fresh"));
    }

    #[test]
    fn rng_module_itself_is_exempt() {
        let src = "pub fn reseed() -> SimRng { SimRng::seed(0) }\n";
        assert!(scan_source("crates/sim/src/rng.rs", src).is_empty());
    }

    #[test]
    fn prof_module_wall_side_channel_is_exempt() {
        // The profiler's wall-clock side channel is the one sanctioned
        // `Instant` in the sim crate; the same source anywhere else in a
        // sim-driven crate still fires.
        let src = "pub fn tick() { let _ = std::time::Instant::now(); }\n";
        assert!(scan_source("crates/sim/src/prof.rs", src).is_empty());
        let vs = scan_source("crates/sim/src/actor.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, RULE_NO_WALL_CLOCK);
    }

    // --- event-match-exhaustive ---

    const PROTO: &str = concat!(
        "pub enum MailMsg {\n",
        "    Submit { body: u32 },\n",
        "    SubmitAck,\n",
        "    Notify,\n",
        "}\n",
        "fn traffic(n: &mut Node) {\n",
        "    n.send(MailMsg::Submit { body: 1 });\n",
        "    n.send(MailMsg::SubmitAck);\n",
        "    n.send(MailMsg::Notify);\n",
        "}\n",
    );

    #[test]
    fn wildcard_swallowed_variant_is_flagged() {
        let src = format!(
            "{PROTO}impl Actor for Host {{\n    type Msg = MailMsg;\n    fn on_message(&mut self, m: MailMsg) {{\n        match m {{\n            MailMsg::Submit {{ .. }} => {{}}\n            MailMsg::SubmitAck => {{}}\n            _ => {{}}\n        }}\n    }}\n}}\n"
        );
        let vs = scan_source("crates/syntax/src/actors.rs", &src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, RULE_EVENT_MATCH);
        assert!(
            vs[0].note.contains("Notify"),
            "note names the swallowed variant"
        );
        assert_eq!(vs[0].line, 17, "reported at the catch-all arm");
    }

    #[test]
    fn explicit_ignore_arms_lint_clean() {
        let src = format!(
            "{PROTO}impl Actor for Host {{\n    type Msg = MailMsg;\n    fn on_message(&mut self, m: MailMsg) {{\n        match m {{\n            MailMsg::Submit {{ .. }} => {{}}\n            MailMsg::SubmitAck | MailMsg::Notify => {{}}\n        }}\n    }}\n}}\n"
        );
        assert!(scan_source("crates/syntax/src/actors.rs", &src).is_empty());
    }

    #[test]
    fn unhandled_variant_without_catch_all_is_flagged() {
        let src = format!(
            "{PROTO}impl Actor for Host {{\n    type Msg = MailMsg;\n    fn on_message(&mut self, m: MailMsg) {{\n        match m {{\n            MailMsg::Submit {{ .. }} => {{}}\n            MailMsg::SubmitAck => {{}}\n        }}\n    }}\n}}\n"
        );
        let vs = scan_source("crates/syntax/src/actors.rs", &src);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].note.contains("does not handle"));
        assert!(vs[0].note.contains("Notify"));
    }

    #[test]
    fn dead_variant_is_flagged_at_its_definition() {
        // Notify is handled but nothing ever constructs it.
        let src = concat!(
            "pub enum MailMsg {\n",
            "    Submit,\n",
            "    Notify,\n",
            "}\n",
            "fn traffic(n: &mut Node) { n.send(MailMsg::Submit); }\n",
            "impl Actor for Host {\n",
            "    type Msg = MailMsg;\n",
            "    fn on_message(&mut self, m: MailMsg) {\n",
            "        match m { MailMsg::Submit => {}, MailMsg::Notify => {} }\n",
            "    }\n",
            "}\n",
        );
        let vs = scan_source("crates/syntax/src/actors.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, RULE_EVENT_MATCH);
        assert_eq!(vs[0].line, 3);
        assert!(vs[0].note.contains("dead variant"));
    }

    #[test]
    fn test_scope_matches_and_plain_enums_are_ignored() {
        // A wildcard match in a test mod, and a match over an enum that
        // is not a `type Msg` protocol, are both out of scope.
        let src = concat!(
            "pub enum Color { Red, Green }\n",
            "pub fn pick(c: Color) -> u32 { match c { Color::Red => 1, _ => 2 } }\n",
            "pub enum MailMsg { Submit }\n",
            "fn traffic(n: &mut N) { n.send(MailMsg::Submit); }\n",
            "impl Actor for Host {\n",
            "    type Msg = MailMsg;\n",
            "    fn on_message(&mut self, m: MailMsg) { match m { MailMsg::Submit => {} } }\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t(m: super::MailMsg) { match m { _ => {} } }\n",
            "}\n",
        );
        assert!(scan_source("crates/syntax/src/actors.rs", src).is_empty());
    }

    // --- allowlist v2 ---

    #[test]
    fn allowlist_waives_and_reports_stale_entries() {
        let allow = Allowlist::parse(
            "# vetted\nno-panic@2 crates/core/src/lib.rs expect(\"generated names\nno-panic@2 crates/net/src/never.rs nothing here\n",
        )
        .unwrap();
        let v = Violation {
            path: "crates/core/src/lib.rs".into(),
            line: 1,
            rule: RULE_NO_PANIC,
            excerpt: String::new(),
            note: String::new(),
        };
        assert!(allow.waives(
            &v,
            "let x = name.parse().expect(\"generated names are valid\");"
        ));
        assert!(!allow.waives(&v, "let x = other.unwrap();"));
        assert_eq!(allow.unused().len(), 1);
    }

    #[test]
    fn version_mismatched_entries_never_waive_and_go_stale() {
        let allow = Allowlist::parse("no-panic@1 crates/core/src/lib.rs .expect(\"x\")\n").unwrap();
        let v = Violation {
            path: "crates/core/src/lib.rs".into(),
            line: 1,
            rule: RULE_NO_PANIC,
            excerpt: String::new(),
            note: String::new(),
        };
        assert!(
            !allow.waives(&v, "m.get(k).expect(\"x\")"),
            "v1-pinned entry must not waive a v2 finding"
        );
        assert_eq!(
            allow.unused(),
            vec![
                "no-panic@1 crates/core/src/lib.rs .expect(\"x\") \
                 (rule is now at v2; re-vet and re-pin)"
            ],
            "stale message names the current version to re-pin against"
        );
    }

    #[test]
    fn stale_allowlist_entries_fail_the_pass() {
        let clean = LintReport::default();
        assert!(clean.is_clean());
        let stale = LintReport {
            stale_allows: vec!["no-panic@2 crates/net/src/never.rs nothing".into()],
            ..LintReport::default()
        };
        assert!(!stale.is_clean());
    }

    #[test]
    fn allowlist_rejects_malformed_lines() {
        assert!(Allowlist::parse("no-panic onlytwo").is_err());
        assert!(
            Allowlist::parse("no-panic crates/x/src/lib.rs needle").is_err(),
            "version pin is mandatory"
        );
        assert!(
            Allowlist::parse("no-panik@2 crates/x/src/lib.rs needle").is_err(),
            "unknown rules are typos, not waivers"
        );
        assert!(Allowlist::parse("").unwrap().is_empty());
    }

    #[test]
    fn lint_workspace_on_this_repo_smoke() {
        // The real tree must scan without I/O errors; cleanliness is
        // asserted by the CI invocation, not here (tests must not depend
        // on the allowlist's current contents).
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = lint_workspace(&root, &Allowlist::empty()).unwrap();
        assert!(report.files_scanned > 30);
    }

    // ---- determinism-taint negative fixtures -------------------------

    fn taint_findings(rel: &str, src: &str) -> Vec<Violation> {
        scan_source(rel, src)
            .into_iter()
            .filter(|v| v.rule == RULE_DETERMINISM_TAINT)
            .collect()
    }

    #[test]
    fn wall_clock_taint_through_helper_fn_reaches_send() {
        // The syntactic no-wall-clock backstop flags the Instant site;
        // the taint rule must ALSO catch the flow into the sink, two
        // fns away, where the backstop sees nothing.
        let src = concat!(
            "fn stamp() -> u64 {\n",
            "    let t = std::time::Instant::now();\n",
            "    t.elapsed().as_nanos() as u64\n",
            "}\n",
            "impl Host {\n",
            "    fn beat(&mut self, ctx: &mut Ctx) {\n",
            "        let v = stamp();\n",
            "        self.send(ctx, v);\n",
            "    }\n",
            "}\n",
        );
        let vs = taint_findings("crates/mst/src/x.rs", src);
        assert_eq!(vs.len(), 1, "taint flows through the helper summary");
        assert_eq!(vs[0].line, 8);
        assert!(vs[0].note.contains("wall-clock"));
    }

    #[test]
    fn laundering_through_identity_wrapper_still_fires() {
        let src = concat!(
            "fn launder(x: u64) -> u64 {\n",
            "    x\n",
            "}\n",
            "impl Host {\n",
            "    fn beat(&mut self, ctx: &mut Ctx) {\n",
            "        let t = std::time::Instant::now().elapsed().as_nanos() as u64;\n",
            "        let v = launder(t);\n",
            "        self.send(ctx, v);\n",
            "    }\n",
            "}\n",
        );
        let vs = taint_findings("crates/syntax/src/x.rs", src);
        assert_eq!(vs.len(), 1, "param-to-ret summary defeats laundering");
        assert_eq!(vs[0].line, 8);
    }

    #[test]
    fn hash_iteration_order_taints_scheduled_values() {
        let src = concat!(
            "use std::collections::HashMap;\n",
            "impl Host {\n",
            "    fn fanout(&mut self, ctx: &mut Ctx) {\n",
            "        let peers: HashMap<u64, u64> = HashMap::new();\n",
            "        for (p, w) in peers.iter() {\n",
            "            self.send(ctx, *p, *w);\n",
            "        }\n",
            "    }\n",
            "}\n",
        );
        let vs = taint_findings("crates/locindep/src/x.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 6);
        assert!(vs[0].note.contains("hash-iteration-order"));
    }

    #[test]
    fn untainted_and_keyed_flows_stay_clean() {
        // Ordered iteration, keyed hash access, and sim-time values are
        // all legitimate inputs to a sink.
        let src = concat!(
            "use std::collections::{BTreeMap, HashMap};\n",
            "impl Host {\n",
            "    fn fanout(&mut self, ctx: &mut Ctx, now: SimTime) {\n",
            "        let peers: BTreeMap<u64, u64> = BTreeMap::new();\n",
            "        for (p, w) in peers.iter() {\n",
            "            self.send(ctx, *p, *w);\n",
            "        }\n",
            "        let cache: HashMap<u64, u64> = HashMap::new();\n",
            "        if let Some(v) = cache.get(&7) {\n",
            "            self.send_at(ctx, now, *v);\n",
            "        }\n",
            "    }\n",
            "}\n",
        );
        assert!(taint_findings("crates/mst/src/x.rs", src).is_empty());
    }

    #[test]
    fn taint_rule_skips_test_code_and_non_sim_crates() {
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t(h: &mut Host, ctx: &mut Ctx) {\n",
            "        let t = std::time::Instant::now().elapsed().as_nanos() as u64;\n",
            "        h.send(ctx, t);\n",
            "    }\n",
            "}\n",
        );
        assert!(taint_findings("crates/syntax/src/x.rs", src).is_empty());
        let lib_src = concat!(
            "fn emit(h: &mut Host, ctx: &mut Ctx) {\n",
            "    let t = std::time::Instant::now().elapsed().as_nanos() as u64;\n",
            "    h.send(ctx, t);\n",
            "}\n",
        );
        // The eval crate post-processes results outside the simulation.
        assert!(taint_findings("crates/eval/src/x.rs", lib_src).is_empty());
    }

    // ---- store-mutation-discipline negative fixtures -----------------

    fn store_findings(rel: &str, src: &str) -> Vec<Violation> {
        scan_source(rel, src)
            .into_iter()
            .filter(|v| v.rule == RULE_STORE_MUTATION)
            .collect()
    }

    #[test]
    fn mailbox_mutation_behind_free_fn_is_flagged() {
        // Hiding the mutation in a helper that takes `&mut Mailbox`
        // does not launder it: the param class follows the type.
        let src = concat!(
            "use lems_core::mailbox::Mailbox;\n",
            "fn purge(mb: &mut Mailbox, id: MessageId) {\n",
            "    mb.remove(id);\n",
            "}\n",
        );
        let vs = store_findings("crates/syntax/src/x.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 3);
    }

    #[test]
    fn mailbox_map_mutation_and_ad_hoc_construction_are_flagged() {
        let src = concat!(
            "use std::collections::BTreeMap;\n",
            "fn seed(boxes: &mut BTreeMap<MailName, Mailbox>, owner: MailName) {\n",
            "    boxes.entry(owner.clone()).or_insert_with(|| Mailbox::new(owner));\n",
            "}\n",
        );
        let vs = store_findings("crates/store/src/x.rs", src);
        assert_eq!(vs.len(), 2, "both the map entry and Mailbox::new fire");
        assert!(vs.iter().all(|v| v.line == 3));
    }

    #[test]
    fn trusted_store_module_and_mailstore_calls_are_clean() {
        let src = concat!(
            "use lems_core::mailbox::Mailbox;\n",
            "fn purge(mb: &mut Mailbox, id: MessageId) {\n",
            "    mb.remove(id);\n",
            "}\n",
        );
        // The same code inside lems_core::store is the implementation.
        assert!(store_findings("crates/core/src/store.rs", src).is_empty());
        // Routing through the MailStore trait is the sanctioned path.
        let routed = concat!(
            "use lems_core::store::MailStore;\n",
            "fn purge(store: &mut dyn MailStore, owner: &MailName, id: MessageId) {\n",
            "    store.remove(owner, id);\n",
            "}\n",
        );
        assert!(store_findings("crates/syntax/src/x.rs", routed).is_empty());
    }

    // ---- no-ignored-store-errors negative fixtures -------------------

    fn ignored_findings(rel: &str, src: &str) -> Vec<Violation> {
        scan_source(rel, src)
            .into_iter()
            .filter(|v| v.rule == RULE_IGNORED_STORE_ERR)
            .collect()
    }

    #[test]
    fn ok_swallowed_wal_sync_is_flagged() {
        let src = concat!(
            "fn flush<S: SegmentIo>(io: &mut S) {\n",
            "    io.sync(0).ok();\n",
            "}\n",
        );
        let vs = ignored_findings("crates/store/src/x.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 2);
        assert!(vs[0].note.contains("swallows"));
    }

    #[test]
    fn discarded_and_dropped_store_results_are_flagged() {
        let src = concat!(
            "fn churn<S: SegmentIo>(io: &mut S, data: &[u8]) {\n",
            "    let _ = io.append(0, data);\n",
            "    io.truncate(0, 0);\n",
            "}\n",
        );
        let vs = ignored_findings("crates/store/src/x.rs", src);
        let lines: Vec<u32> = vs.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![2, 3]);
    }

    #[test]
    fn propagated_and_inspected_store_results_are_clean() {
        let src = concat!(
            "fn flush<S: SegmentIo>(io: &mut S, data: &[u8]) -> Result<(), StoreError> {\n",
            "    io.append(0, data)?;\n",
            "    let r = io.sync(0);\n",
            "    note_io(&r);\n",
            "    io.read(0).ok().map(|b| b.len());\n",
            "    io.sync(0)\n",
            "}\n",
        );
        assert!(ignored_findings("crates/store/src/x.rs", src).is_empty());
    }

    #[test]
    fn ignored_store_errors_skips_test_code() {
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t<S: SegmentIo>(io: &mut S) {\n",
            "        io.sync(0).ok();\n",
            "        let _ = io.truncate(0, 0);\n",
            "    }\n",
            "}\n",
        );
        assert!(ignored_findings("crates/store/src/x.rs", src).is_empty());
    }
}
