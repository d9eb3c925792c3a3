//! The lint passes: token-stream rules, file classification, allow
//! comments, and per-file scanning.

use crate::callgraph::FnFacts;
use crate::cfg::{lower, Step};
use crate::dataflow::{self, Env, VarFact, VarFlow, HASH_ITER_METHODS};
use crate::diag::{Diagnostic, Lint, Suppressed};
use crate::lexer::{lex, Comment, Token, TokenKind};
use crate::parser::{parse, Ast, Block as AstBlock, StmtKind, TokRange};
use std::collections::HashMap;

/// How a file participates in linting, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `src/` of a library crate: all lints apply.
    LibrarySrc,
    /// `src/` of a binary/tool crate, benches, examples: float hygiene,
    /// atomic orderings, thread creation and constructor discipline only
    /// (panics are acceptable at the process boundary).
    BinSrc,
    /// Tests: constructor discipline only.
    TestCode,
    /// Not linted (shims, fixtures, generated output).
    Skip,
}

/// Crates whose `src/` is treated as [`FileClass::BinSrc`].
const BIN_CRATES: &[&str] = &["cli", "experiments", "bench", "check"];

/// Rust keywords, used to avoid misreading syntax as expressions.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "macro", "match", "mod",
    "move", "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait",
    "true", "type", "union", "unsafe", "use", "where", "while", "yield",
];

/// Doc-comment substrings accepted as paper anchors.
const PAPER_ANCHORS: &[&str] = &[
    "Theorem",
    "Proposition",
    "Lemma",
    "Corollary",
    "Definition",
    "Observation",
    "Eq.",
    "Eq (",
    "§",
    "Section",
];

/// Files whose public items must cite the paper.
const ANCHOR_FILES: &[&str] = &[
    "crates/core/src/xmeasure.rs",
    "crates/core/src/hecr.rs",
    "crates/core/src/speedup.rs",
    "crates/core/src/xengine.rs",
];

/// Classifies a forward-slash path relative to the workspace root.
pub fn classify(rel: &str) -> FileClass {
    if rel.starts_with("shims/")
        || rel.starts_with("target/")
        || rel.contains("/fixtures/")
        || rel.contains("/target/")
    {
        return FileClass::Skip;
    }
    if rel.starts_with("examples/") || rel.contains("/benches/") {
        return FileClass::BinSrc;
    }
    if rel.starts_with("tests/") || rel.contains("/tests/") {
        return FileClass::TestCode;
    }
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some((krate, tail)) = rest.split_once('/') {
            if tail.starts_with("src/") {
                return if BIN_CRATES.contains(&krate) {
                    FileClass::BinSrc
                } else {
                    FileClass::LibrarySrc
                };
            }
        }
    }
    FileClass::Skip
}

/// Result of scanning one file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Findings that stand (not allow-suppressed).
    pub diagnostics: Vec<Diagnostic>,
    /// Findings an allow comment waived, with the stated reason.
    pub suppressed: Vec<Suppressed>,
    /// Per-function facts for the cross-file call-graph pass (library
    /// sources only).
    pub fn_facts: Vec<FnFacts>,
}

/// Scans one file's source, returning its diagnostics. Counter-name
/// discipline is inert in this entry point (no registry); the full
/// runner uses [`scan_file_with_registry`].
pub fn scan_file(rel: &str, src: &str) -> FileScan {
    scan_file_with_registry(rel, src, None)
}

/// Scans one file's source with the metric-name registry loaded from
/// `crates/obs/src/counters.rs` (`None` disables counter-name
/// discipline — e.g. in a tree without the obs crate).
pub fn scan_file_with_registry(rel: &str, src: &str, registry: Option<&[String]>) -> FileScan {
    let class = classify(rel);
    if class == FileClass::Skip {
        return FileScan::default();
    }
    let lexed = lex(src);
    let mask = test_mask(&lexed.tokens);
    let (allows, mut raw) = parse_allows(rel, &lexed.comments);

    let cx = Cx {
        rel,
        tokens: &lexed.tokens,
        in_test: &mask,
    };

    let ast = parse(&lexed.tokens);
    if matches!(class, FileClass::LibrarySrc | FileClass::BinSrc) {
        cx.float_eq(&mut raw);
        let chained = cx.partial_cmp_unwrap(&mut raw);
        // Stronger-than-Relaxed atomic orderings encode happens-before
        // arguments; they must be justified wherever they appear.
        cx.atomic_ordering(&lexed.comments, &mut raw);
        // hetero-par owns thread creation; everyone else, the sweep
        // drivers and tools included, goes through its pool so fan-out
        // stays deterministic and panic-contained.
        if !rel.starts_with("crates/par/src/") {
            cx.thread_spawn_outside_par(&mut raw);
        }
        if class == FileClass::LibrarySrc {
            cx.naked_sum(&mut raw);
            cx.unwrap_expect(&mut raw, &chained);
            cx.panics(&mut raw);
            cx.print_in_lib(&mut raw);
            // The simulator crate owns SimTime and validates inside
            // `new` itself; everyone else must use the fallible API.
            if !rel.starts_with("crates/sim/src/") {
                cx.sim_time_unchecked(&mut raw);
            }
            // hetero-obs owns wall-clock reads; libraries take time as
            // data so their behaviour is reproducible.
            if !rel.starts_with("crates/obs/src/") {
                cx.wall_clock(&mut raw);
            }
            // The certified fast-kernel modules own approximation; the
            // rest of the library keeps the strict, bit-reproducible
            // evaluation order.
            if !rel.starts_with("crates/simd/src/") && rel != "crates/core/src/fastnum.rs" {
                cx.approx_math_outside_kernel(&mut raw);
            }
            // Retry loops must carry a compile-visible bound; one
            // persistent fault must never become a livelock.
            cx.unbounded_retry(&mut raw);
            // Literal metric names in library code must come from the
            // registry, so `obsdiff` baselines never silently fork.
            if let Some(reg) = registry {
                cx.counter_name_discipline(reg, &mut raw);
            }
            cx.dataflow_lints(&ast, &mut raw);
            cx.indexing(&mut raw);
            cx.crate_policy(src, &mut raw);
            cx.paper_anchor(src, &mut raw);
        }
    }
    cx.constructor_discipline(&mut raw);
    let fn_facts = if class == FileClass::LibrarySrc {
        cx.collect_fn_facts(&ast, src, &allows)
    } else {
        Vec::new()
    };

    // Apply allow comments: a suppression covers its own line and the
    // following line, so it can sit inline or immediately above.
    let mut out = FileScan {
        fn_facts,
        ..FileScan::default()
    };
    for diag in raw {
        match allows.get(&(diag.line, diag.lint)) {
            Some(reason) if diag.lint != Lint::AllowMissingReason => {
                out.suppressed.push(Suppressed {
                    diag,
                    reason: reason.clone(),
                })
            }
            _ => out.diagnostics.push(diag),
        }
    }
    out.diagnostics.sort_by_key(|d| (d.line, d.col));
    out
}

/// Parses `// hetero-check: allow(<lints>) — <reason>` comments. Returns
/// the suppression map keyed by (covered line, lint) plus diagnostics for
/// malformed comments.
fn parse_allows(
    rel: &str,
    comments: &[Comment],
) -> (HashMap<(u32, Lint), String>, Vec<Diagnostic>) {
    let mut map = HashMap::new();
    let mut diags = Vec::new();
    for c in comments {
        // Suppressions must be plain `//` comments; doc comments merely
        // *describing* the syntax are not suppressions.
        if c.text.starts_with("///") || c.text.starts_with("//!") {
            continue;
        }
        let Some(at) = c.text.find("hetero-check:") else {
            continue;
        };
        let rest = c.text[at + "hetero-check:".len()..].trim_start();
        let mut bad = |msg: String| {
            diags.push(Diagnostic {
                lint: Lint::AllowMissingReason,
                level: Lint::AllowMissingReason.level(),
                file: rel.to_string(),
                line: c.line,
                col: 1,
                message: msg,
            });
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            bad(
                "malformed hetero-check comment; expected `hetero-check: allow(<lint>) — <reason>`"
                    .into(),
            );
            continue;
        };
        let Some(close) = args.find(')') else {
            bad("unclosed `allow(` in hetero-check comment".into());
            continue;
        };
        let mut lints = Vec::new();
        let mut unknown = false;
        for id in args[..close].split(',') {
            let id = id.trim();
            match Lint::from_name(id) {
                Some(l) => lints.push(l),
                None => {
                    bad(format!("unknown lint `{id}` in allow comment"));
                    unknown = true;
                }
            }
        }
        if unknown {
            continue;
        }
        let reason = args[close + 1..]
            .trim_start()
            .trim_start_matches(['—', '–', '-', ':'])
            .trim();
        if reason.is_empty() {
            bad("allow comment has no justification; write `allow(<lint>) — <reason>`".into());
            continue;
        }
        for lint in lints {
            map.insert((c.line, lint), reason.to_string());
            map.insert((c.line + 1, lint), reason.to_string());
        }
    }
    (map, diags)
}

/// Marks tokens belonging to `#[test]` / `#[cfg(test)]` items so the
/// panic-freedom and float lints skip test-only code embedded in `src/`.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text != "#" || tokens.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        // Walk the attribute, noting whether it mentions `test` (and is
        // not a `cfg(not(test))`).
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut has_test = false;
        let mut has_not = false;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "test" if tokens[j].kind == TokenKind::Ident => has_test = true,
                "not" if tokens[j].kind == TokenKind::Ident => has_not = true,
                _ => {}
            }
            j += 1;
        }
        if !has_test || has_not {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then mark through the end of the
        // annotated item (`;` at depth 0, or the matching close brace).
        let mut k = j + 1;
        while k + 1 < tokens.len() && tokens[k].text == "#" && tokens[k + 1].text == "[" {
            let mut d = 0i32;
            while k < tokens.len() {
                match tokens[k].text.as_str() {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        let mut d = 0i32;
        let mut end = k;
        while end < tokens.len() {
            match tokens[end].text.as_str() {
                "{" | "(" | "[" => d += 1,
                "}" | ")" | "]" => {
                    d -= 1;
                    if d == 0 && tokens[end].text == "}" {
                        break;
                    }
                }
                ";" if d == 0 => break,
                _ => {}
            }
            end += 1;
        }
        let end = end.min(tokens.len().saturating_sub(1));
        for m in mask.iter_mut().take(end + 1).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

struct Cx<'a> {
    rel: &'a str,
    tokens: &'a [Token],
    in_test: &'a [bool],
}

impl<'a> Cx<'a> {
    fn emit(&self, out: &mut Vec<Diagnostic>, lint: Lint, tok: &Token, message: String) {
        out.push(Diagnostic {
            lint,
            level: lint.level(),
            file: self.rel.to_string(),
            line: tok.line,
            col: tok.col,
            message,
        });
    }

    fn live(&self, i: usize) -> bool {
        !self.in_test.get(i).copied().unwrap_or(false)
    }

    fn text(&self, i: usize) -> &str {
        self.tokens.get(i).map(|t| t.text.as_str()).unwrap_or("")
    }

    fn is_ident(&self, i: usize) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident)
    }

    /// `==` / `!=` with a float literal on either side.
    fn float_eq(&self, out: &mut Vec<Diagnostic>) {
        for (i, tok) in self.tokens.iter().enumerate() {
            if !self.live(i) || !matches!(tok.text.as_str(), "==" | "!=") {
                continue;
            }
            let float_neighbour = [i.wrapping_sub(1), i + 1].iter().any(|&j| {
                self.tokens
                    .get(j)
                    .is_some_and(|t| t.kind == TokenKind::Float)
            });
            if float_neighbour {
                self.emit(
                    out,
                    Lint::FloatEq,
                    tok,
                    "exact float comparison; use a named epsilon, or document the exact \
                     sentinel with `// hetero-check: allow(float-eq) — <why exactness holds>`"
                        .into(),
                );
            }
        }
    }

    /// `partial_cmp(..)` chained into `unwrap` / `expect` / `unwrap_or*`.
    /// Returns the token indices of the chained method names so the
    /// generic unwrap/expect pass does not double-report them.
    fn partial_cmp_unwrap(&self, out: &mut Vec<Diagnostic>) -> Vec<usize> {
        let mut chained = Vec::new();
        for (i, tok) in self.tokens.iter().enumerate() {
            if !self.live(i) || tok.text != "partial_cmp" || tok.kind != TokenKind::Ident {
                continue;
            }
            if self.text(i + 1) != "(" {
                continue;
            }
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < self.tokens.len() {
                match self.text(j) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if self.text(j + 1) == "."
                && matches!(
                    self.text(j + 2),
                    "unwrap" | "expect" | "unwrap_or" | "unwrap_or_else"
                )
            {
                chained.push(j + 2);
                self.emit(
                    out,
                    Lint::PartialCmpUnwrap,
                    tok,
                    format!(
                        "partial_cmp(..).{}(..) is not a total order over floats; \
                         sort with f64::total_cmp (or Ord::cmp for exact types)",
                        self.text(j + 2)
                    ),
                );
            }
        }
        chained
    }

    /// Bare `.sum()` in the numerical kernels (core, symfunc).
    fn naked_sum(&self, out: &mut Vec<Diagnostic>) {
        if !(self.rel.starts_with("crates/core/src/")
            || self.rel.starts_with("crates/symfunc/src/"))
        {
            return;
        }
        for (i, tok) in self.tokens.iter().enumerate() {
            if !self.live(i) || tok.text != "." {
                continue;
            }
            if self.text(i + 1) != "sum" || !self.is_ident(i + 1) {
                continue;
            }
            // `.sum::<T>()` with a non-float T is fine; `.sum::<f64>()`
            // and untyped `.sum()` (which may resolve to f64) are not.
            match self.text(i + 2) {
                "::" => {
                    let ty = self.text(i + 4);
                    if ty != "f64" && ty != "f32" {
                        continue;
                    }
                }
                "(" => {}
                _ => continue,
            }
            self.emit(
                out,
                Lint::NakedSum,
                &self.tokens[i + 1],
                "bare float summation accumulates rounding error in the kernels; \
                 route through hetero_core::numeric::kahan_sum (or annotate an \
                 integer sum with an allow comment)"
                    .into(),
            );
        }
    }

    /// `.unwrap()` / `.expect(..)` in library code.
    fn unwrap_expect(&self, out: &mut Vec<Diagnostic>, chained: &[usize]) {
        for (i, tok) in self.tokens.iter().enumerate() {
            if !self.live(i) || tok.text != "." {
                continue;
            }
            let name = self.text(i + 1);
            if !matches!(name, "unwrap" | "expect") || !self.is_ident(i + 1) {
                continue;
            }
            if self.text(i + 2) != "(" || chained.contains(&(i + 1)) {
                continue;
            }
            let lint = if name == "unwrap" {
                Lint::Unwrap
            } else {
                Lint::Expect
            };
            self.emit(
                out,
                lint,
                &self.tokens[i + 1],
                format!(
                    "`.{name}()` can panic in library code; return a Result, make the \
                     invariant unrepresentable, or justify it with \
                     `// hetero-check: allow({})` — <why it cannot fire>",
                    lint.name()
                ),
            );
        }
    }

    /// `panic!` family in library code.
    fn panics(&self, out: &mut Vec<Diagnostic>) {
        for (i, tok) in self.tokens.iter().enumerate() {
            if !self.live(i)
                || tok.kind != TokenKind::Ident
                || !matches!(
                    tok.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
            {
                continue;
            }
            if self.text(i + 1) != "!" {
                continue;
            }
            self.emit(
                out,
                Lint::Panic,
                tok,
                format!(
                    "`{}!` aborts library callers; return an error or prove the branch \
                     impossible (allow comment with justification if it is)",
                    tok.text
                ),
            );
        }
    }

    /// `println!` / `eprintln!` / `print!` / `eprint!` in library code.
    /// Libraries must return data and let binaries decide how to present
    /// it; ad-hoc printing bypasses the structured observability layer
    /// (`hetero-obs`) and corrupts machine-readable CLI output.
    fn print_in_lib(&self, out: &mut Vec<Diagnostic>) {
        for (i, tok) in self.tokens.iter().enumerate() {
            if !self.live(i)
                || tok.kind != TokenKind::Ident
                || !matches!(
                    tok.text.as_str(),
                    "println" | "print" | "eprintln" | "eprint"
                )
            {
                continue;
            }
            if self.text(i + 1) != "!" {
                continue;
            }
            // `writeln!`-style targets are fine; a preceding `.` means this
            // is a method/field named e.g. `print`, not the macro.
            if i > 0 && self.text(i - 1) == "." {
                continue;
            }
            self.emit(
                out,
                Lint::PrintInLib,
                tok,
                format!(
                    "`{}!` in library code writes to the process's stdio behind the \
                     caller's back; return the text, or record it through hetero-obs",
                    tok.text
                ),
            );
        }
    }

    /// `SimTime::new` panics on non-finite input; library code outside
    /// the simulator crate (which owns and validates the type) must use
    /// `SimTime::try_new` and propagate the typed error instead —
    /// fault-injected schedules make non-finite times reachable.
    fn sim_time_unchecked(&self, out: &mut Vec<Diagnostic>) {
        for (i, tok) in self.tokens.iter().enumerate() {
            if !self.live(i) || tok.kind != TokenKind::Ident || tok.text != "SimTime" {
                continue;
            }
            if self.text(i + 1) != "::" || self.text(i + 2) != "new" {
                continue;
            }
            // `new` must be a call, not a path segment like
            // `SimTime::new_unchecked` (the lexer splits idents, so this
            // is just the `(` check).
            if self.text(i + 3) != "(" {
                continue;
            }
            self.emit(
                out,
                Lint::SimTimeUnchecked,
                tok,
                "`SimTime::new` panics on non-finite input; outside hetero-sim use \
                 `SimTime::try_new` and propagate the error — fault-injected \
                 schedules make non-finite times reachable"
                    .to_string(),
            );
        }
    }

    /// Ad-hoc thread creation outside `crates/par`: `thread::spawn`,
    /// `thread::scope`, `thread::Builder` and raw `crossbeam` scopes
    /// bypass the worker pool's seeded determinism, panic containment,
    /// and `HETERO_THREADS` sizing, so libraries, the sweep drivers and
    /// the tools must fan out through `hetero_par::Pool` instead.
    /// (`thread::available_parallelism` and friends stay legal — only
    /// the spawning entry points are gated.)
    fn thread_spawn_outside_par(&self, out: &mut Vec<Diagnostic>) {
        for (i, tok) in self.tokens.iter().enumerate() {
            if !self.live(i) || tok.kind != TokenKind::Ident {
                continue;
            }
            // `thread::scope(` also covers `crossbeam::thread::scope(`.
            let spawn = tok.text == "thread"
                && self.text(i + 1) == "::"
                && match self.text(i + 2) {
                    "spawn" | "scope" => self.text(i + 3) == "(",
                    "Builder" => true,
                    _ => false,
                };
            let scope = tok.text == "crossbeam"
                && self.text(i + 1) == "::"
                && self.text(i + 2) == "scope"
                && self.text(i + 3) == "(";
            if spawn || scope {
                self.emit(
                    out,
                    Lint::ThreadSpawnOutsidePar,
                    tok,
                    "ad-hoc threads bypass the pool's determinism and panic \
                     containment; fan out through `hetero_par::Pool::map` \
                     instead of spawning here"
                        .to_string(),
                );
            }
        }
    }

    /// Approximate-math primitives outside the certified fast-kernel
    /// modules. Raw SIMD intrinsics (`_mm*` / `__m*`), reciprocal
    /// approximations (`rcp*`-named calls and constants), and Newton
    /// refinement loops are only legal in `crates/simd` and
    /// `crates/core/src/fastnum.rs`, where every kernel states an
    /// analytic error budget and is proptest-certified against the
    /// exact oracle (DESIGN.md §17). Anywhere else, an unannounced
    /// approximation silently erodes the strict mode's bit-reproducible
    /// contract.
    fn approx_math_outside_kernel(&self, out: &mut Vec<Diagnostic>) {
        for (i, tok) in self.tokens.iter().enumerate() {
            if !self.live(i) || tok.kind != TokenKind::Ident {
                continue;
            }
            let t = tok.text.as_str();
            let lower = t.to_ascii_lowercase();
            let simd = t.starts_with("_mm") || t.starts_with("__m");
            let rcp = lower == "rcp"
                || lower.starts_with("rcp_")
                || lower.ends_with("_rcp")
                || lower.contains("_rcp_");
            let newton = lower.contains("newton");
            if !(simd || rcp || newton) {
                continue;
            }
            let what = if simd {
                "raw SIMD intrinsics"
            } else if rcp {
                "reciprocal approximation"
            } else {
                "Newton refinement"
            };
            self.emit(
                out,
                Lint::ApproxMathOutsideKernel,
                tok,
                format!(
                    "{what} (`{t}`) belongs in the certified fast-kernel modules \
                     (crates/simd, crates/core/src/fastnum.rs), where an error \
                     budget is stated and proptest-certified; call the strict \
                     kernels or `NumericMode::Fast` entry points instead"
                ),
            );
        }
    }

    /// `Instant::now` / `SystemTime::now` in library code. Wall-clock
    /// reads make behaviour time-dependent; only `crates/obs` (which is
    /// scoped out by the caller) may measure real time.
    fn wall_clock(&self, out: &mut Vec<Diagnostic>) {
        for (i, tok) in self.tokens.iter().enumerate() {
            if !self.live(i)
                || tok.kind != TokenKind::Ident
                || !matches!(tok.text.as_str(), "Instant" | "SystemTime")
            {
                continue;
            }
            if self.text(i + 1) != "::" || self.text(i + 2) != "now" || self.text(i + 3) != "(" {
                continue;
            }
            self.emit(
                out,
                Lint::WallClockInLib,
                tok,
                format!(
                    "`{}::now()` makes library behaviour wall-clock dependent; take \
                     time as a parameter, use SimTime, or measure through hetero-obs",
                    tok.text
                ),
            );
        }
    }

    /// A `loop` / `while` in library code whose body issues a
    /// retransmit/retry call with no compile-visible bound. The fault
    /// executor keeps its losses finite as *data* (`losses_left`
    /// budgets); every retry loop must show the same shape — a
    /// `max`/`remaining`/`budget`-style identifier in the condition or
    /// body — or carry a justified allow naming the termination
    /// argument. An unbounded retransmit loop turns one persistent
    /// fault into a livelock that no deadline test can catch.
    fn unbounded_retry(&self, out: &mut Vec<Diagnostic>) {
        const RETRYISH: &[&str] = &["retry", "retries", "retransmit", "resend"];
        const BOUNDISH: &[&str] = &[
            "max",
            "budget",
            "limit",
            "bound",
            "remaining",
            "left",
            "attempts",
        ];
        for (i, tok) in self.tokens.iter().enumerate() {
            if !self.live(i)
                || tok.kind != TokenKind::Ident
                || !matches!(tok.text.as_str(), "loop" | "while")
            {
                continue;
            }
            // A preceding `.` means a method/field named `loop`-ish,
            // not the keyword.
            if i > 0 && self.text(i - 1) == "." {
                continue;
            }
            // Condition tokens run from the keyword to the body's `{`;
            // the body is the brace-matched block after it.
            let Some(open) = (i + 1..self.tokens.len()).find(|&j| self.text(j) == "{") else {
                continue;
            };
            let mut depth = 0i32;
            let mut close = open;
            while close < self.tokens.len() {
                match self.text(close) {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                close += 1;
            }
            let lower = |j: usize| self.text(j).to_ascii_lowercase();
            let retries = (open + 1..close).any(|j| {
                self.is_ident(j)
                    && self.text(j + 1) == "("
                    && RETRYISH.iter().any(|r| lower(j).contains(r))
            });
            if !retries {
                continue;
            }
            let bounded = (i + 1..close)
                .any(|j| self.is_ident(j) && BOUNDISH.iter().any(|b| lower(j).contains(b)));
            if bounded {
                continue;
            }
            self.emit(
                out,
                Lint::UnboundedRetry,
                tok,
                format!(
                    "`{}` retransmits with no compile-visible bound; thread a \
                     max/remaining budget through the condition or body, or justify \
                     the termination argument with \
                     `// hetero-check: allow(unbounded-retry)` — <why it drains>",
                    tok.text
                ),
            );
        }
    }

    /// `hetero_obs::{count, gauge_max, observe, observe_hist, sketch,
    /// timed}` called with a string-literal metric name that is not in
    /// `hetero_obs::counters::REGISTRY`. Dynamic names (variables,
    /// `format!`) are out of scope — the lint is purely syntactic, like
    /// the rest of the pass.
    fn counter_name_discipline(&self, registry: &[String], out: &mut Vec<Diagnostic>) {
        const RECORDERS: &[&str] = &[
            "count",
            "gauge_max",
            "observe",
            "observe_hist",
            "sketch",
            "timed",
        ];
        for (i, tok) in self.tokens.iter().enumerate() {
            if !self.live(i) || tok.kind != TokenKind::Ident || tok.text != "hetero_obs" {
                continue;
            }
            if self.text(i + 1) != "::" || !RECORDERS.contains(&self.text(i + 2)) {
                continue;
            }
            if self.text(i + 3) != "(" {
                continue;
            }
            let Some(arg) = self.tokens.get(i + 4) else {
                continue;
            };
            if arg.kind != TokenKind::Str || !arg.text.starts_with('"') {
                continue;
            }
            let name = arg.text.trim_matches('"');
            if registry.iter().any(|r| r == name) {
                continue;
            }
            self.emit(
                out,
                Lint::CounterNameDiscipline,
                arg,
                format!(
                    "metric name \"{name}\" is not in hetero_obs::counters::REGISTRY; \
                     register it there (or reuse a registered name) so obsdiff \
                     baselines cover it"
                ),
            );
        }
    }

    /// Non-`Relaxed` atomic orderings (`SeqCst`/`Acquire`/`Release`/
    /// `AcqRel`) need a `// ordering:` comment on the same or previous
    /// line stating the happens-before edge they establish.
    fn atomic_ordering(&self, comments: &[Comment], out: &mut Vec<Diagnostic>) {
        let justified: Vec<u32> = comments
            .iter()
            .filter(|c| c.text.contains("ordering:"))
            .map(|c| c.line)
            .collect();
        for (i, tok) in self.tokens.iter().enumerate() {
            if !self.live(i)
                || tok.kind != TokenKind::Ident
                || !matches!(
                    tok.text.as_str(),
                    "SeqCst" | "Acquire" | "Release" | "AcqRel"
                )
            {
                continue;
            }
            // Only the atomic `Ordering` path, never `cmp::Ordering`
            // variants (`Less`/`Greater`) or unrelated identifiers.
            if i < 2 || self.text(i - 1) != "::" || self.text(i - 2) != "Ordering" {
                continue;
            }
            if justified.contains(&tok.line) || justified.contains(&tok.line.saturating_sub(1)) {
                continue;
            }
            self.emit(
                out,
                Lint::AtomicOrdering,
                tok,
                format!(
                    "`Ordering::{}` without a `// ordering:` justification; state the \
                     happens-before edge it establishes, or relax to `Relaxed`",
                    tok.text
                ),
            );
        }
    }

    fn emit_at(&self, out: &mut Vec<Diagnostic>, lint: Lint, line: u32, col: u32, message: String) {
        out.push(Diagnostic {
            lint,
            level: lint.level(),
            file: self.rel.to_string(),
            line,
            col,
            message,
        });
    }

    /// Whether an expression range carries float evidence: a float
    /// literal, an `f64`/`f32` token, or an identifier the dataflow
    /// proved float-valued.
    fn float_evidence(&self, flow: &VarFlow<'_>, (start, end): TokRange, env: &Env) -> bool {
        let _ = flow;
        for i in start..end {
            let Some(tok) = self.tokens.get(i) else { break };
            match tok.kind {
                TokenKind::Float => return true,
                TokenKind::Ident => {
                    if matches!(tok.text.as_str(), "f64" | "f32") {
                        return true;
                    }
                    let fact = env.get(tok.text.as_str()).copied().unwrap_or_default();
                    if fact.any(VarFact::FLOAT_SCALAR.union(VarFact::FLOAT_CONTAINER)) {
                        return true;
                    }
                }
                _ => {}
            }
        }
        false
    }

    /// Whether the range contains a `!`-invocation of an output or
    /// formatting macro.
    fn output_macro_in(&self, (start, end): TokRange) -> bool {
        (start..end).any(|i| {
            self.is_ident(i)
                && matches!(
                    self.text(i),
                    "write" | "writeln" | "print" | "println" | "eprint" | "eprintln" | "format"
                )
                && self.text(i + 1) == "!"
        })
    }

    /// The leaf expression ranges of a statement the range-based deep
    /// lints inspect.
    fn leaf_ranges(kind: &StmtKind) -> Vec<TokRange> {
        match kind {
            StmtKind::Let { ty, init, .. } => {
                let mut v = Vec::new();
                if let Some(t) = ty {
                    v.push(*t);
                }
                if let Some(i) = init {
                    v.push(*i);
                }
                v
            }
            StmtKind::Assign { target, value, .. } => vec![*target, *value],
            StmtKind::Expr(r) => vec![*r],
            _ => Vec::new(),
        }
    }

    /// The deep dataflow lints: naked float accumulation and
    /// nondeterministic hash iteration.
    fn dataflow_lints(&self, ast: &Ast, out: &mut Vec<Diagnostic>) {
        let flow = VarFlow::new(self.tokens);
        // core/symfunc float sums are already gated by `naked-sum`;
        // float-accum extends the same rule to every other library crate.
        let in_kernel =
            self.rel.starts_with("crates/core/src/") || self.rel.starts_with("crates/symfunc/src/");
        for f in &ast.fns {
            let Some(body) = &f.body else { continue };
            if !self.live(f.body_range.0) {
                continue; // test-only function
            }
            let cfg = lower(body);
            let init = VarFlow::init_env(&f.params);
            dataflow::visit(&cfg, &flow, init, |step, depth, env| match step {
                Step::Stmt(stmt) => {
                    if let StmtKind::Assign { target, op, value } = &stmt.kind {
                        if matches!(op.as_str(), "+=" | "-=") && depth >= 1 {
                            let root_fact = (target.0..target.1)
                                .find(|&i| self.is_ident(i))
                                .and_then(|i| env.get(self.text(i)))
                                .copied()
                                .unwrap_or_default();
                            let target_float = root_fact
                                .any(VarFact::FLOAT_SCALAR.union(VarFact::FLOAT_CONTAINER));
                            if target_float || self.float_evidence(&flow, *value, env) {
                                self.emit_at(
                                    out,
                                    Lint::FloatAccum,
                                    stmt.line,
                                    stmt.col,
                                    format!(
                                        "naked float accumulation (`{op}`) in a loop is \
                                         order-sensitive; accumulate through KahanSum / \
                                         hetero_core::numeric::kahan_sum"
                                    ),
                                );
                            }
                        }
                    }
                    for r in Self::leaf_ranges(&stmt.kind) {
                        if !in_kernel {
                            self.float_sum_in_range(&flow, r, env, stmt.line, stmt.col, out);
                        }
                        self.nondet_use_in_range(&flow, r, env, stmt.line, stmt.col, out);
                    }
                }
                Step::ForHeader(stmt) => {
                    if let StmtKind::For { iter, body, .. } = &stmt.kind {
                        let hash_rooted = flow.hash_iteration_root(*iter, env).is_some();
                        let unordered = flow.init_flags(*iter, env).has(VarFact::UNORDERED);
                        if hash_rooted || unordered {
                            if let Some(why) = self.order_sensitive(&flow, body, env) {
                                self.emit_at(
                                    out,
                                    Lint::NondetIteration,
                                    stmt.line,
                                    stmt.col,
                                    format!(
                                        "iteration order here is nondeterministic and the \
                                         loop body {why}; use BTreeMap/BTreeSet or sort \
                                         before the order-sensitive use"
                                    ),
                                );
                            }
                        }
                    }
                }
                Step::Cond(_) => {}
            });
        }
    }

    /// Float `.sum()` reductions outside the compensated helpers.
    fn float_sum_in_range(
        &self,
        flow: &VarFlow<'_>,
        r: TokRange,
        env: &Env,
        line: u32,
        col: u32,
        out: &mut Vec<Diagnostic>,
    ) {
        for i in r.0..r.1 {
            if self.text(i) != "." || self.text(i + 1) != "sum" || !self.is_ident(i + 1) {
                continue;
            }
            let fires = match self.text(i + 2) {
                "::" => matches!(self.text(i + 4), "f64" | "f32"),
                "(" => self.float_evidence(flow, r, env),
                _ => false,
            };
            if fires {
                self.emit_at(
                    out,
                    Lint::FloatAccum,
                    line,
                    col,
                    "bare float `.sum()` accumulates rounding error in iteration \
                     order; route through hetero_core::numeric::kahan_sum"
                        .into(),
                );
                return;
            }
        }
    }

    /// Order-sensitive uses of hash-derived data inside one expression:
    /// a hash iteration chained straight into a reduction, or an
    /// unsorted hash-derived value flowing into output/appends.
    fn nondet_use_in_range(
        &self,
        flow: &VarFlow<'_>,
        r: TokRange,
        env: &Env,
        line: u32,
        col: u32,
        out: &mut Vec<Diagnostic>,
    ) {
        let _ = flow;
        for i in r.0..r.1 {
            if !self.is_ident(i) {
                continue;
            }
            let fact = env.get(self.text(i)).copied().unwrap_or_default();
            if fact.has(VarFact::HASH_CONTAINER)
                && self.text(i + 1) == "."
                && HASH_ITER_METHODS.contains(&self.text(i + 2))
            {
                // Chained reduction: `m.values().sum()` / `.fold(..)`.
                let reduced = (i + 3..r.1).any(|j| {
                    self.text(j) == "."
                        && matches!(self.text(j + 1), "sum" | "fold" | "product")
                        && self.is_ident(j + 1)
                });
                if reduced {
                    self.emit_at(
                        out,
                        Lint::NondetIteration,
                        line,
                        col,
                        "hash iteration feeds a reduction; float reductions are \
                         order-sensitive — use a BTree collection or sort first"
                            .into(),
                    );
                    return;
                }
            }
            if fact.has(VarFact::UNORDERED)
                && (self.output_macro_in(r)
                    || ((i + 1..r.1.min(i + 3)).any(|j| self.text(j) == ".")
                        && matches!(self.text(i + 2), "push" | "extend")))
            {
                self.emit_at(
                    out,
                    Lint::NondetIteration,
                    line,
                    col,
                    "unsorted hash-derived data flows into output; sort the \
                     collect before presenting it"
                        .into(),
                );
                return;
            }
        }
    }

    /// Whether a loop body (over a nondeterministic order) does anything
    /// order-sensitive. Integer counters and inserts into maps/sets are
    /// order-free; float accumulation, appends, and output are not.
    fn order_sensitive(
        &self,
        flow: &VarFlow<'_>,
        block: &AstBlock,
        env: &Env,
    ) -> Option<&'static str> {
        for stmt in &block.stmts {
            match &stmt.kind {
                StmtKind::Assign { target, op, value } => {
                    if matches!(op.as_str(), "+=" | "-=" | "*=" | "/=") {
                        let root_float = (target.0..target.1)
                            .find(|&i| self.is_ident(i))
                            .and_then(|i| env.get(self.text(i)))
                            .copied()
                            .unwrap_or_default()
                            .any(VarFact::FLOAT_SCALAR.union(VarFact::FLOAT_CONTAINER));
                        if root_float || self.float_evidence(flow, *value, env) {
                            return Some("accumulates floats in that order");
                        }
                    }
                    if self.output_macro_in(*value) {
                        return Some("emits output in that order");
                    }
                }
                StmtKind::Let { init, .. } => {
                    if let Some(r) = init {
                        if self.output_macro_in(*r) {
                            return Some("emits output in that order");
                        }
                    }
                }
                StmtKind::Expr(r) => {
                    if self.output_macro_in(*r) {
                        return Some("emits output in that order");
                    }
                    let appends = (r.0..r.1).any(|i| {
                        self.text(i) == "."
                            && matches!(self.text(i + 1), "push" | "extend")
                            && self.is_ident(i + 1)
                            && self.text(i + 2) == "("
                    });
                    if appends {
                        return Some("appends to an ordered collection in that order");
                    }
                }
                StmtKind::For { body, .. }
                | StmtKind::While { body, .. }
                | StmtKind::Loop { body } => {
                    if let Some(why) = self.order_sensitive(flow, body, env) {
                        return Some(why);
                    }
                }
                StmtKind::If { then, els, .. } => {
                    if let Some(why) = self.order_sensitive(flow, then, env) {
                        return Some(why);
                    }
                    if let Some(e) = els {
                        if let Some(why) = self.order_sensitive(flow, e, env) {
                            return Some(why);
                        }
                    }
                }
                StmtKind::Match { arms, .. } => {
                    for arm in arms {
                        if let Some(why) = self.order_sensitive(flow, arm, env) {
                            return Some(why);
                        }
                    }
                }
                StmtKind::Nested(inner) => {
                    if let Some(why) = self.order_sensitive(flow, inner, env) {
                        return Some(why);
                    }
                }
            }
        }
        None
    }

    /// Harvests the per-function facts the call-graph pass consumes.
    fn collect_fn_facts(
        &self,
        ast: &Ast,
        src: &str,
        allows: &HashMap<(u32, Lint), String>,
    ) -> Vec<FnFacts> {
        let Some(krate) = self
            .rel
            .strip_prefix("crates/")
            .and_then(|r| r.split_once('/'))
            .map(|(k, _)| k.to_string())
        else {
            return Vec::new();
        };
        let lines: Vec<&str> = src.lines().collect();
        let mut facts = Vec::new();
        for f in &ast.fns {
            if f.body.is_none() || !self.live(f.body_range.0) {
                continue;
            }
            // Contiguous doc block above the declaration.
            let mut doc_panics = false;
            let mut l = f.line as usize - 1;
            while l >= 1 {
                let t = lines.get(l - 1).map(|s| s.trim_start()).unwrap_or("");
                if t.starts_with("///") {
                    if t.contains("# Panics") {
                        doc_panics = true;
                    }
                } else if !(t.starts_with("#[") || t.starts_with("//") || t == "pub") {
                    break;
                }
                l -= 1;
            }
            let mut strong: Option<String> = None;
            let mut indexing = false;
            let mut calls: Vec<String> = Vec::new();
            let (bstart, bend) = f.body_range;
            for i in bstart..bend.min(self.tokens.len()) {
                if !self.live(i) {
                    continue;
                }
                let tok = &self.tokens[i];
                match tok.kind {
                    TokenKind::Punct if tok.text == "." => {
                        let name = self.text(i + 1);
                        if matches!(name, "unwrap" | "expect")
                            && self.is_ident(i + 1)
                            && self.text(i + 2) == "("
                        {
                            let line = self.tokens[i + 1].line;
                            let justified = [Lint::Unwrap, Lint::Expect, Lint::PartialCmpUnwrap]
                                .iter()
                                .any(|l| allows.contains_key(&(line, *l)));
                            if !justified && strong.is_none() {
                                strong = Some(format!("calls `.{name}()` at line {line}"));
                            }
                        }
                    }
                    TokenKind::Punct if tok.text == "[" && i > bstart => {
                        let prev = &self.tokens[i - 1];
                        let indexable = match prev.kind {
                            TokenKind::Ident => !KEYWORDS.contains(&prev.text.as_str()),
                            TokenKind::Punct => matches!(prev.text.as_str(), ")" | "]"),
                            _ => false,
                        };
                        if indexable && !allows.contains_key(&(tok.line, Lint::Indexing)) {
                            indexing = true;
                        }
                    }
                    TokenKind::Ident => {
                        if matches!(
                            tok.text.as_str(),
                            "panic" | "unreachable" | "todo" | "unimplemented"
                        ) && self.text(i + 1) == "!"
                        {
                            if !allows.contains_key(&(tok.line, Lint::Panic)) && strong.is_none() {
                                strong =
                                    Some(format!("invokes `{}!` at line {}", tok.text, tok.line));
                            }
                        } else if self.text(i + 1) == "(" && !KEYWORDS.contains(&tok.text.as_str())
                        {
                            let key = if i > 0 && self.text(i - 1) == "." {
                                format!(".{}", tok.text)
                            } else if i > 1 && self.text(i - 1) == "::" && self.is_ident(i - 2) {
                                format!("{}::{}", self.text(i - 2), tok.text)
                            } else {
                                tok.text.clone()
                            };
                            if !calls.contains(&key) {
                                calls.push(key);
                            }
                        }
                    }
                    _ => {}
                }
            }
            facts.push(FnFacts {
                file: self.rel.to_string(),
                krate: krate.clone(),
                name: f.name.clone(),
                qual: f.qual.clone(),
                is_pub: f.is_pub,
                line: f.line,
                col: f.col,
                doc_panics,
                strong,
                indexing,
                calls,
                allow_reason: allows.get(&(f.line, Lint::PanicPropagation)).cloned(),
            });
        }
        facts
    }

    /// Expression indexing (advisory).
    fn indexing(&self, out: &mut Vec<Diagnostic>) {
        for (i, tok) in self.tokens.iter().enumerate() {
            if !self.live(i) || tok.text != "[" || i == 0 {
                continue;
            }
            let prev = &self.tokens[i - 1];
            let indexable = match prev.kind {
                TokenKind::Ident => !KEYWORDS.contains(&prev.text.as_str()),
                TokenKind::Punct => matches!(prev.text.as_str(), ")" | "]"),
                _ => false,
            };
            if indexable {
                self.emit(
                    out,
                    Lint::Indexing,
                    tok,
                    "slice indexing panics when out of bounds; prefer .get()/iterators \
                     where the index is not locally provable"
                        .into(),
                );
            }
        }
    }

    /// Library lib.rs must carry the policy headers.
    fn crate_policy(&self, src: &str, out: &mut Vec<Diagnostic>) {
        if !self.rel.ends_with("/src/lib.rs") {
            return;
        }
        let anchor = Token {
            kind: TokenKind::Punct,
            text: String::new(),
            line: 1,
            col: 1,
        };
        if !src.contains("#![forbid(unsafe_code)]") {
            self.emit(
                out,
                Lint::CratePolicy,
                &anchor,
                "library crate must declare `#![forbid(unsafe_code)]`".into(),
            );
        }
        if !src.contains("#![warn(missing_docs)]") && !src.contains("#![deny(missing_docs)]") {
            self.emit(
                out,
                Lint::CratePolicy,
                &anchor,
                "library crate must declare `#![warn(missing_docs)]`".into(),
            );
        }
    }

    /// Public items in the formula modules must cite the paper.
    fn paper_anchor(&self, src: &str, out: &mut Vec<Diagnostic>) {
        if !ANCHOR_FILES.contains(&self.rel) {
            return;
        }
        let lines: Vec<&str> = src.lines().collect();
        for (i, tok) in self.tokens.iter().enumerate() {
            if !self.live(i) || tok.kind != TokenKind::Ident || tok.text != "pub" {
                continue;
            }
            if self.text(i + 1) == "(" {
                continue; // pub(crate) etc. — not public API
            }
            let item = (1..=3).map(|d| self.text(i + d)).find(|t| {
                matches!(
                    *t,
                    "fn" | "struct" | "enum" | "const" | "type" | "static" | "trait"
                )
            });
            if item.is_none() {
                continue;
            }
            // Gather the contiguous doc block above the item.
            let mut doc = String::new();
            let mut l = tok.line as usize - 1; // index of the line above
            while l >= 1 {
                let t = lines.get(l - 1).map(|s| s.trim_start()).unwrap_or("");
                if t.starts_with("///") {
                    doc.push_str(t);
                    doc.push('\n');
                } else if !(t.starts_with("#[") || t.starts_with("//")) {
                    break;
                }
                l -= 1;
            }
            if !PAPER_ANCHORS.iter().any(|a| doc.contains(a)) {
                self.emit(
                    out,
                    Lint::PaperAnchor,
                    tok,
                    "public formula item must cite its source in the paper \
                     (Theorem/Proposition/Lemma/Corollary/Eq./§) in its doc comment"
                        .into(),
                );
            }
        }
    }

    /// `Profile { .. }` / `Params { .. }` literals outside their modules.
    fn constructor_discipline(&self, out: &mut Vec<Diagnostic>) {
        for (i, tok) in self.tokens.iter().enumerate() {
            if tok.kind != TokenKind::Ident || !matches!(tok.text.as_str(), "Profile" | "Params") {
                continue;
            }
            let home = match tok.text.as_str() {
                "Profile" => "crates/core/src/profile.rs",
                _ => "crates/core/src/params.rs",
            };
            if self.rel == home || self.text(i + 1) != "{" {
                continue;
            }
            // `-> Params {` is a return type followed by the function
            // body, not a struct literal.
            if i > 0
                && matches!(
                    self.text(i - 1),
                    "struct" | "enum" | "union" | "impl" | "for" | "trait" | "mod" | "->"
                )
            {
                continue;
            }
            self.emit(
                out,
                Lint::ConstructorDiscipline,
                tok,
                format!(
                    "construct `{0}` through its validated constructors \
                     ({0}::new / from_unsorted), never a struct literal",
                    tok.text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Lint;

    fn lints_of(rel: &str, src: &str) -> Vec<(Lint, u32)> {
        scan_file(rel, src)
            .diagnostics
            .iter()
            .map(|d| (d.lint, d.line))
            .collect()
    }

    const LIB: &str = "crates/core/src/demo.rs";

    #[test]
    fn classification_by_path() {
        assert_eq!(classify("crates/core/src/lib.rs"), FileClass::LibrarySrc);
        assert_eq!(classify("crates/cli/src/main.rs"), FileClass::BinSrc);
        assert_eq!(classify("crates/core/tests/props.rs"), FileClass::TestCode);
        assert_eq!(classify("crates/bench/benches/x.rs"), FileClass::BinSrc);
        assert_eq!(classify("shims/rand/src/lib.rs"), FileClass::Skip);
        assert_eq!(
            classify("crates/check/tests/fixtures/a/crates/x/src/lib.rs"),
            FileClass::Skip
        );
    }

    #[test]
    fn float_eq_fires_on_literals_only() {
        let found = lints_of(LIB, "fn f(x: f64) -> bool { x == 0.0 }");
        assert!(found.contains(&(Lint::FloatEq, 1)));
        let clean = lints_of(LIB, "fn f(x: usize) -> bool { x == 0 }");
        assert!(clean.iter().all(|(l, _)| *l != Lint::FloatEq));
    }

    #[test]
    fn partial_cmp_chain_detected_once() {
        let src = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        let found = lints_of(LIB, src);
        assert!(found.contains(&(Lint::PartialCmpUnwrap, 1)));
        // The chained unwrap is reported by the specific lint, not both.
        assert!(found.iter().all(|(l, _)| *l != Lint::Unwrap));
    }

    #[test]
    fn naked_sum_scoped_to_kernels() {
        let src = "fn f(v: &[f64]) -> f64 { v.iter().sum() }";
        assert!(lints_of("crates/core/src/m.rs", src)
            .iter()
            .any(|(l, _)| *l == Lint::NakedSum));
        assert!(lints_of("crates/linalg/src/m.rs", src)
            .iter()
            .all(|(l, _)| *l != Lint::NakedSum));
        // Integer turbofish sums are fine.
        let int = "fn f(v: &[usize]) -> usize { v.iter().sum::<usize>() }";
        assert!(lints_of("crates/core/src/m.rs", int)
            .iter()
            .all(|(l, _)| *l != Lint::NakedSum));
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(x: Option<u8>) { x.unwrap(); }\n}";
        assert!(lints_of(LIB, src).is_empty());
        let live = "fn f(x: Option<u8>) { x.unwrap(); }";
        assert!(lints_of(LIB, live).iter().any(|(l, _)| *l == Lint::Unwrap));
    }

    #[test]
    fn sim_time_unchecked_scoped_outside_the_simulator() {
        let src = "fn f() -> SimTime { SimTime::new(1.0) }";
        assert!(lints_of("crates/protocol/src/m.rs", src)
            .iter()
            .any(|(l, _)| *l == Lint::SimTimeUnchecked));
        // The simulator crate owns and validates the type.
        assert!(lints_of("crates/sim/src/m.rs", src)
            .iter()
            .all(|(l, _)| *l != Lint::SimTimeUnchecked));
        // Test code and the fallible API are exempt.
        let test = "#[cfg(test)]\nmod tests {\n fn f() -> SimTime { SimTime::new(1.0) }\n}";
        assert!(lints_of("crates/protocol/src/m.rs", test)
            .iter()
            .all(|(l, _)| *l != Lint::SimTimeUnchecked));
        let try_new = "fn f() -> Result<SimTime, NonFiniteTime> { SimTime::try_new(1.0) }";
        assert!(lints_of("crates/protocol/src/m.rs", try_new)
            .iter()
            .all(|(l, _)| *l != Lint::SimTimeUnchecked));
    }

    #[test]
    fn thread_spawn_scoped_outside_par() {
        let spawn = "pub fn f() { std::thread::spawn(|| {}); }";
        assert!(lints_of("crates/core/src/m.rs", spawn)
            .iter()
            .any(|(l, _)| *l == Lint::ThreadSpawnOutsidePar));
        let bare = "pub fn f() { thread::spawn(|| {}); }";
        assert!(lints_of("crates/core/src/m.rs", bare)
            .iter()
            .any(|(l, _)| *l == Lint::ThreadSpawnOutsidePar));
        let scope = "pub fn f() { crossbeam::scope(|s| {}).ok(); }";
        assert!(lints_of("crates/clustergen/src/m.rs", scope)
            .iter()
            .any(|(l, _)| *l == Lint::ThreadSpawnOutsidePar));
        let nested = "pub fn f() { crossbeam::thread::scope(|s| {}).ok(); }";
        assert!(lints_of("crates/clustergen/src/m.rs", nested)
            .iter()
            .any(|(l, _)| *l == Lint::ThreadSpawnOutsidePar));
        // The std scoped-thread and builder forms spawn just the same.
        let std_scope = "pub fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        assert!(lints_of("crates/protocol/src/m.rs", std_scope)
            .iter()
            .any(|(l, _)| *l == Lint::ThreadSpawnOutsidePar));
        let builder = "pub fn f() { std::thread::Builder::new().spawn(|| {}).ok(); }";
        assert!(lints_of("crates/protocol/src/m.rs", builder)
            .iter()
            .any(|(l, _)| *l == Lint::ThreadSpawnOutsidePar));
        // Binary crates fan out through the pool too: the sweep drivers
        // in `crates/experiments` are where ad-hoc threads would go.
        for form in [spawn, std_scope, builder] {
            assert!(lints_of("crates/experiments/src/variance.rs", form)
                .iter()
                .any(|(l, _)| *l == Lint::ThreadSpawnOutsidePar));
        }
        // The pool crate owns thread creation.
        assert!(lints_of("crates/par/src/pool.rs", spawn)
            .iter()
            .all(|(l, _)| *l != Lint::ThreadSpawnOutsidePar));
        // Non-spawning thread APIs stay legal everywhere.
        let probe = "pub fn f() -> usize { std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }";
        assert!(lints_of("crates/core/src/m.rs", probe)
            .iter()
            .all(|(l, _)| *l != Lint::ThreadSpawnOutsidePar));
        // Test modules are exempt, as for every lint.
        let test = "#[cfg(test)]\nmod tests {\n fn f() { std::thread::spawn(|| {}); }\n}";
        assert!(lints_of("crates/core/src/m.rs", test)
            .iter()
            .all(|(l, _)| *l != Lint::ThreadSpawnOutsidePar));
    }

    #[test]
    fn approx_math_gated_to_the_kernel_modules() {
        let rcp = "pub fn f(d: f64) -> f64 { rcp_seed(d) }";
        assert!(lints_of("crates/core/src/m.rs", rcp)
            .iter()
            .any(|(l, _)| *l == Lint::ApproxMathOutsideKernel));
        let newton = "pub fn f(r: f64, d: f64) -> f64 { newton_refine(r, d) }";
        assert!(lints_of("crates/protocol/src/m.rs", newton)
            .iter()
            .any(|(l, _)| *l == Lint::ApproxMathOutsideKernel));
        let simd = "pub fn f(d: __m512d) -> __m512d { _mm512_rcp14_pd(d) }";
        assert!(
            lints_of("crates/obs/src/m.rs", simd)
                .iter()
                .filter(|(l, _)| *l == Lint::ApproxMathOutsideKernel)
                .count()
                >= 3,
            "type and intrinsic idents all fire"
        );
        // The two designated modules are exempt.
        assert!(lints_of("crates/simd/src/lib.rs", rcp)
            .iter()
            .all(|(l, _)| *l != Lint::ApproxMathOutsideKernel));
        assert!(lints_of("crates/core/src/fastnum.rs", rcp)
            .iter()
            .all(|(l, _)| *l != Lint::ApproxMathOutsideKernel));
        // Benign identifiers that merely contain the letters stay legal.
        let benign = "pub fn f(percept: f64) -> f64 { intercept(percept) }";
        assert!(lints_of("crates/core/src/m.rs", benign)
            .iter()
            .all(|(l, _)| *l != Lint::ApproxMathOutsideKernel));
        // Test modules are exempt, as for every lint.
        let test = "#[cfg(test)]\nmod tests {\n fn f() { rcp_seed(1.0); }\n}";
        assert!(lints_of("crates/core/src/m.rs", test)
            .iter()
            .all(|(l, _)| *l != Lint::ApproxMathOutsideKernel));
    }

    #[test]
    fn print_in_lib_fires_on_macros_only() {
        let src = "pub fn f(x: f64) { println!(\"{x}\"); }";
        assert!(lints_of(LIB, src)
            .iter()
            .any(|(l, _)| *l == Lint::PrintInLib));
        let eprint = "pub fn f(x: f64) { eprintln!(\"{x}\"); }";
        assert!(lints_of(LIB, eprint)
            .iter()
            .any(|(l, _)| *l == Lint::PrintInLib));
        // A method named `print` is not the macro.
        let method = "pub fn f(d: &Doc) { d.print(); }";
        assert!(lints_of(LIB, method)
            .iter()
            .all(|(l, _)| *l != Lint::PrintInLib));
        // `writeln!` to a buffer is the sanctioned idiom.
        let writeln = "pub fn f(out: &mut String, x: f64) { let _ = writeln!(out, \"{x}\"); }";
        assert!(lints_of(LIB, writeln)
            .iter()
            .all(|(l, _)| *l != Lint::PrintInLib));
        // Binaries may print; that is their job.
        let bin = "fn main() { println!(\"hi\"); }";
        assert!(lints_of("crates/cli/src/main.rs", bin)
            .iter()
            .all(|(l, _)| *l != Lint::PrintInLib));
        // Test modules are exempt like every other lint.
        let test = "#[cfg(test)]\nmod tests {\n fn f() { println!(\"dbg\"); }\n}";
        assert!(lints_of(LIB, test).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_with_reason() {
        let src = "fn f(x: Option<u8>) {\n    // hetero-check: allow(unwrap) — checked above\n    x.unwrap();\n}";
        let scan = scan_file(LIB, src);
        assert!(scan.diagnostics.is_empty());
        assert_eq!(scan.suppressed.len(), 1);
        assert_eq!(scan.suppressed[0].reason, "checked above");
    }

    #[test]
    fn allow_comment_without_reason_is_flagged() {
        let src = "fn f(x: Option<u8>) {\n    x.unwrap(); // hetero-check: allow(unwrap)\n}";
        let found = lints_of(LIB, src);
        assert!(found.iter().any(|(l, _)| *l == Lint::AllowMissingReason));
        // And the unwrap still stands.
        assert!(found.iter().any(|(l, _)| *l == Lint::Unwrap));
    }

    #[test]
    fn constructor_discipline_outside_home_module() {
        let src = "fn f() { let p = Profile { rhos: vec![] }; }";
        assert!(lints_of("crates/sim/src/lib.rs", src)
            .iter()
            .any(|(l, _)| *l == Lint::ConstructorDiscipline));
        // The defining module itself is exempt.
        assert!(
            lints_of("crates/core/src/profile.rs", src)
                .iter()
                .all(|(l, _)| *l != Lint::ConstructorDiscipline),
            "home module may build its own struct"
        );
        // impl blocks are not literals.
        assert!(lints_of("crates/sim/src/lib.rs", "impl Profile { }")
            .iter()
            .all(|(l, _)| *l != Lint::ConstructorDiscipline));
    }

    #[test]
    fn paper_anchor_on_formula_modules() {
        let with = "/// Computes X (Theorem 1).\npub fn x() {}\n";
        let without = "/// Computes something.\npub fn x() {}\n";
        assert!(lints_of("crates/core/src/xmeasure.rs", with)
            .iter()
            .all(|(l, _)| *l != Lint::PaperAnchor));
        assert!(lints_of("crates/core/src/xmeasure.rs", without)
            .iter()
            .any(|(l, _)| *l == Lint::PaperAnchor));
        // Other files are not anchor-checked.
        assert!(lints_of("crates/core/src/profile.rs", without)
            .iter()
            .all(|(l, _)| *l != Lint::PaperAnchor));
    }

    #[test]
    fn crate_policy_checks_lib_headers() {
        let bad = "pub fn f() {}";
        let found = lints_of("crates/demo/src/lib.rs", bad);
        assert_eq!(
            found
                .iter()
                .filter(|(l, _)| *l == Lint::CratePolicy)
                .count(),
            2
        );
        let good = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}";
        assert!(lints_of("crates/demo/src/lib.rs", good)
            .iter()
            .all(|(l, _)| *l != Lint::CratePolicy));
    }

    #[test]
    fn float_accum_needs_proven_float_in_a_loop() {
        // Proven float accumulator in a loop fires.
        let src = "pub fn f(xs: &[f64]) -> f64 { let mut s = 0.0; for x in xs { s += x; } s }";
        assert!(lints_of("crates/linalg/src/m.rs", src)
            .iter()
            .any(|(l, _)| *l == Lint::FloatAccum));
        // Integer accumulation stays silent.
        let int = "pub fn f(xs: &[u64]) -> u64 { let mut s = 0; for x in xs { s += x; } s }";
        assert!(lints_of("crates/linalg/src/m.rs", int)
            .iter()
            .all(|(l, _)| *l != Lint::FloatAccum));
        // Outside a loop a single `+=` is not an accumulation chain.
        let straight = "pub fn f(mut s: f64, x: f64) -> f64 { s += x; s }";
        assert!(lints_of("crates/linalg/src/m.rs", straight)
            .iter()
            .all(|(l, _)| *l != Lint::FloatAccum));
        // An explicit non-float ascription defeats float-ish initialisers.
        let ascribed = "pub fn f(w: &[f64]) { let mut n: Vec<u64> = w.iter().map(|x| *x as u64).collect(); for i in 0..n.len() { n[i] += 1; } }";
        assert!(lints_of("crates/linalg/src/m.rs", ascribed)
            .iter()
            .all(|(l, _)| *l != Lint::FloatAccum));
        // Float `.sum()` fires outside the kernels (there `naked-sum` owns it).
        let sum = "pub fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }";
        assert!(lints_of("crates/linalg/src/m.rs", sum)
            .iter()
            .any(|(l, _)| *l == Lint::FloatAccum));
        assert!(lints_of("crates/core/src/m.rs", sum)
            .iter()
            .all(|(l, _)| *l != Lint::FloatAccum));
    }

    #[test]
    fn nondet_iteration_needs_order_sensitivity() {
        // Hash iteration accumulating floats fires.
        let hot = "pub fn f(m: &HashMap<u32, f64>) -> f64 { let mut s = 0.0; for v in m.values() { s += v; } s }";
        assert!(lints_of("crates/sim/src/m.rs", hot)
            .iter()
            .any(|(l, _)| *l == Lint::NondetIteration));
        // Hash iteration chained into a reduction fires.
        let chain =
            "pub fn f(m: &HashMap<u32, f64>) -> f64 { m.values().fold(0.0, |a, b| a.max(*b)) }";
        assert!(lints_of("crates/sim/src/m.rs", chain)
            .iter()
            .any(|(l, _)| *l == Lint::NondetIteration));
        // Order-free bodies (integer counting) stay silent.
        let count = "pub fn f(m: &HashMap<u32, u32>) -> u64 { let mut n = 0; for _v in m.values() { n += 1; } n }";
        assert!(lints_of("crates/sim/src/m.rs", count)
            .iter()
            .all(|(l, _)| *l != Lint::NondetIteration));
        // A sorted collect launders the order.
        let sorted = "pub fn f(m: &HashMap<u32, u32>, out: &mut String) { let mut v: Vec<_> = m.keys().collect(); v.sort(); for k in v { let _ = writeln!(out, \"{k}\"); } }";
        assert!(lints_of("crates/sim/src/m.rs", sorted)
            .iter()
            .all(|(l, _)| *l != Lint::NondetIteration));
        // Unsorted hash-derived data into output fires.
        let unsorted = "pub fn f(m: &HashMap<u32, u32>, out: &mut String) { let v: Vec<_> = m.keys().collect(); for k in v { let _ = writeln!(out, \"{k}\"); } }";
        assert!(lints_of("crates/sim/src/m.rs", unsorted)
            .iter()
            .any(|(l, _)| *l == Lint::NondetIteration));
    }

    #[test]
    fn wall_clock_scoped_outside_obs() {
        let src = "pub fn f() -> Instant { Instant::now() }";
        assert!(lints_of("crates/core/src/m.rs", src)
            .iter()
            .any(|(l, _)| *l == Lint::WallClockInLib));
        let sys = "pub fn f() { let _ = SystemTime::now(); }";
        assert!(lints_of("crates/protocol/src/m.rs", sys)
            .iter()
            .any(|(l, _)| *l == Lint::WallClockInLib));
        // The observability crate owns real time.
        assert!(lints_of("crates/obs/src/m.rs", src)
            .iter()
            .all(|(l, _)| *l != Lint::WallClockInLib));
        // Binaries may read the clock.
        assert!(lints_of("crates/cli/src/main.rs", src)
            .iter()
            .all(|(l, _)| *l != Lint::WallClockInLib));
        // A `use` statement alone does not fire; only the call does.
        let import = "use std::time::Instant;\npub fn f(t: Instant) -> Instant { t }";
        assert!(lints_of("crates/core/src/m.rs", import)
            .iter()
            .all(|(l, _)| *l != Lint::WallClockInLib));
    }

    #[test]
    fn atomic_ordering_needs_justification() {
        let bare = "pub fn f(x: &AtomicBool) { x.store(true, Ordering::SeqCst); }";
        assert!(lints_of("crates/obs/src/m.rs", bare)
            .iter()
            .any(|(l, _)| *l == Lint::AtomicOrdering));
        let justified = "pub fn f(x: &AtomicBool) {\n    // ordering: publishes init to readers\n    x.store(true, Ordering::SeqCst);\n}";
        assert!(lints_of("crates/obs/src/m.rs", justified)
            .iter()
            .all(|(l, _)| *l != Lint::AtomicOrdering));
        // Relaxed needs no justification.
        let relaxed = "pub fn f(x: &AtomicBool) { x.store(true, Ordering::Relaxed); }";
        assert!(lints_of("crates/obs/src/m.rs", relaxed)
            .iter()
            .all(|(l, _)| *l != Lint::AtomicOrdering));
        // `cmp::Ordering::Less` never fires.
        let cmp = "pub fn f(a: u32, b: u32) -> bool { a.cmp(&b) == Ordering::Less }";
        assert!(lints_of("crates/core/src/m.rs", cmp)
            .iter()
            .all(|(l, _)| *l != Lint::AtomicOrdering));
    }

    #[test]
    fn fn_facts_feed_the_call_graph() {
        let src = "/// Docs.\npub fn risky(x: Option<u8>) -> u8 { x.unwrap() }\n\n/// Docs.\n///\n/// # Panics\n/// Panics when `x` is `None`.\npub fn documented(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let scan = scan_file("crates/core/src/m.rs", src);
        let risky = scan.fn_facts.iter().find(|f| f.name == "risky").unwrap();
        assert!(risky.strong.is_some());
        assert!(!risky.doc_panics);
        let documented = scan
            .fn_facts
            .iter()
            .find(|f| f.name == "documented")
            .unwrap();
        assert!(documented.doc_panics);
        // Allow-justified unwraps are not strong facts.
        let allowed = "pub fn safe(x: Option<u8>) -> u8 {\n    // hetero-check: allow(unwrap) — checked by caller\n    x.unwrap()\n}";
        let scan = scan_file("crates/core/src/m.rs", allowed);
        assert!(scan.fn_facts[0].strong.is_none());
        // Calls are harvested with their shape.
        let calls = "pub fn top(p: &Pool) { helper(); Pool::build(); p.map(); }";
        let scan = scan_file("crates/core/src/m.rs", calls);
        let keys = &scan.fn_facts[0].calls;
        assert!(keys.contains(&"helper".to_string()));
        assert!(keys.contains(&"Pool::build".to_string()));
        assert!(keys.contains(&".map".to_string()));
    }

    #[test]
    fn indexing_is_advisory() {
        let src = "fn f(v: &[f64]) -> f64 { v[0] }";
        let scan = scan_file(LIB, src);
        let idx: Vec<_> = scan
            .diagnostics
            .iter()
            .filter(|d| d.lint == Lint::Indexing)
            .collect();
        assert_eq!(idx.len(), 1);
        assert_eq!(idx[0].level, crate::diag::Level::Warn);
    }

    fn names_of(rel: &str, src: &str, registry: &[&str]) -> Vec<(Lint, u32)> {
        let reg: Vec<String> = registry.iter().map(|s| s.to_string()).collect();
        scan_file_with_registry(rel, src, Some(&reg))
            .diagnostics
            .iter()
            .map(|d| (d.lint, d.line))
            .collect()
    }

    #[test]
    fn counter_name_discipline_checks_literals_against_the_registry() {
        let src = "pub fn f() { hetero_obs::count(\"a.b\", 1); }";
        let found = names_of(LIB, src, &["a.b"]);
        assert!(found.iter().all(|(l, _)| *l != Lint::CounterNameDiscipline));
        let found = names_of(LIB, src, &["other"]);
        assert!(found.contains(&(Lint::CounterNameDiscipline, 1)));
        // Every recorder entry point is covered.
        let sketch = "pub fn f() { hetero_obs::sketch(\"x.y\", 2.0); }";
        assert!(names_of(LIB, sketch, &[]).contains(&(Lint::CounterNameDiscipline, 1)));
    }

    #[test]
    fn counter_name_discipline_skips_dynamic_names_and_binaries() {
        // Non-literal names cannot be checked statically: stay silent.
        let dynamic = "pub fn f(n: &str) { hetero_obs::count(n, 1); }";
        assert!(names_of(LIB, dynamic, &[])
            .iter()
            .all(|(l, _)| *l != Lint::CounterNameDiscipline));
        // Binaries may record ad-hoc names.
        let src = "pub fn f() { hetero_obs::count(\"ad.hoc\", 1); }";
        assert!(names_of("crates/cli/src/main.rs", src, &[])
            .iter()
            .all(|(l, _)| *l != Lint::CounterNameDiscipline));
        // No registry on disk: the lint is inert rather than noisy.
        assert!(lints_of(LIB, src)
            .iter()
            .all(|(l, _)| *l != Lint::CounterNameDiscipline));
    }

    #[test]
    fn counter_name_discipline_honours_allow_comments() {
        let src = "pub fn f() {\n    // hetero-check: allow(counter-name-discipline) — migration shim\n    hetero_obs::count(\"legacy.name\", 1);\n}";
        let reg: Vec<String> = Vec::new();
        let scan = scan_file_with_registry(LIB, src, Some(&reg));
        assert!(scan
            .diagnostics
            .iter()
            .all(|d| d.lint != Lint::CounterNameDiscipline));
        assert!(scan
            .suppressed
            .iter()
            .any(|s| s.diag.lint == Lint::CounterNameDiscipline));
    }
}
