//! `hetero-check --explain <lint>`: per-lint documentation pages.
//!
//! Each page answers: what the lint matches, why the workspace forbids
//! it, how to fix a finding, and (where relevant) the paper anchor the
//! rule protects. Pages are a static table so `--explain` works offline
//! and identically everywhere.

use crate::diag::{Lint, ALL_LINTS};

/// One documentation page.
pub struct Page {
    /// The lint documented.
    pub lint: Lint,
    /// What the lint matches.
    pub what: &'static str,
    /// Why the workspace forbids it.
    pub why: &'static str,
    /// How to fix a finding.
    pub fix: &'static str,
    /// Paper anchor, if the rule protects a specific result.
    pub anchor: Option<&'static str>,
}

/// The full catalog, in [`ALL_LINTS`] order.
pub const PAGES: &[Page] = &[
    Page {
        lint: Lint::FloatEq,
        what: "`==` or `!=` comparing against a float literal.",
        why: "Exact float equality is almost never the intended predicate; \
              rounding in a different accumulation order silently flips it.",
        fix: "Compare with an explicit tolerance, or justify an exact \
              sentinel with an allow comment.",
        anchor: Some(
            "X-measure values are compared across batched and scalar paths; \
             Theorem 2 reproduction requires tolerance-free *ordering*, not \
             equality tests.",
        ),
    },
    Page {
        lint: Lint::PartialCmpUnwrap,
        what: "`partial_cmp(..)` chained into `unwrap`/`expect`/`unwrap_or*`.",
        why: "NaN makes the comparator panic or silently misorder, which \
              breaks sorts that schedule work.",
        fix: "Use `f64::total_cmp` or handle the `None` arm explicitly.",
        anchor: None,
    },
    Page {
        lint: Lint::NakedSum,
        what: "Bare `.sum()` over floats in the numerical kernels \
               (`crates/core`, `crates/symfunc`).",
        why: "Naive summation accumulates rounding error dependent on \
              element order; the kernels must be bit-stable.",
        fix: "Route through `hetero_core::numeric::kahan_sum` or a \
              `KahanSum` accumulator.",
        anchor: Some(
            "Rosenberg–Chiang X-measure sums (Eq. 1) must match the \
             scalar recurrence bit-for-bit.",
        ),
    },
    Page {
        lint: Lint::Unwrap,
        what: "`.unwrap()` in library code.",
        why: "Library panics tear down callers that could have handled the \
              error; panic paths also bypass determinism bookkeeping.",
        fix: "Return `Result`/`Option`, or justify an invariant with an \
              allow comment naming the invariant.",
        anchor: None,
    },
    Page {
        lint: Lint::Expect,
        what: "`.expect(..)` in library code.",
        why: "Same contract as `unwrap`: libraries return errors, binaries \
              decide how to die.",
        fix: "Return `Result`/`Option`, or justify the invariant inline.",
        anchor: None,
    },
    Page {
        lint: Lint::Panic,
        what: "`panic!` / `unreachable!` / `todo!` / `unimplemented!` in \
               library code.",
        why: "Explicit panics in libraries are API landmines; `todo!` is \
              unfinished work shipping as a crash.",
        fix: "Return an error variant; keep `unreachable!` only behind a \
              justified allow naming the exhaustiveness argument.",
        anchor: None,
    },
    Page {
        lint: Lint::Indexing,
        what: "Slice/array indexing (`xs[i]`) in library code (advisory).",
        why: "Out-of-bounds indexing panics; iterators or `get` make the \
              bound explicit. Advisory because checked indexing is \
              pervasive and usually correct.",
        fix: "Prefer iterators, `get`, or destructuring; leave as-is when \
              the bound is locally obvious.",
        anchor: None,
    },
    Page {
        lint: Lint::CratePolicy,
        what: "A library crate missing `#![forbid(unsafe_code)]` or \
               `#![warn(missing_docs)]`.",
        why: "The workspace guarantees safe, documented libraries; the \
              headers make the guarantee machine-checked.",
        fix: "Add both attributes at the top of `lib.rs`.",
        anchor: None,
    },
    Page {
        lint: Lint::PaperAnchor,
        what: "A public item in the formula modules (xmeasure, hecr, \
               speedup) without a paper citation in its docs.",
        why: "Every formula must be traceable to the equation or theorem \
              it implements, or drift is unreviewable.",
        fix: "Cite the anchor, e.g. `(Rosenberg–Chiang, Eq. 1)`, in the \
              doc comment.",
        anchor: Some("The repo reproduces IPPS 2010 §3–§5; anchors are the audit trail."),
    },
    Page {
        lint: Lint::ConstructorDiscipline,
        what: "`Profile { .. }` / `Params { .. }` struct literals outside \
               their defining modules.",
        why: "The constructors validate invariants (positive rates, sorted \
              profiles); literals bypass validation.",
        fix: "Build through the validated constructor.",
        anchor: None,
    },
    Page {
        lint: Lint::PrintInLib,
        what: "`println!`-family macros in library code.",
        why: "Libraries return data or record metrics through `hetero-obs`; \
              stray stdio corrupts pinned CLI output.",
        fix: "Return the value, or record a counter/span via `hetero-obs`.",
        anchor: None,
    },
    Page {
        lint: Lint::AllowMissingReason,
        what: "A `// hetero-check: allow(..)` comment without a `— reason`.",
        why: "Suppressions without justification rot; the reason is the \
              review record.",
        fix: "Append `— <why this is sound>` to the allow comment.",
        anchor: None,
    },
    Page {
        lint: Lint::SimTimeUnchecked,
        what: "Panicking `SimTime::new` outside `crates/sim`.",
        why: "Out-of-range times must surface as errors at the boundary, \
              not panics deep in a run.",
        fix: "Use the fallible constructor and propagate the error.",
        anchor: None,
    },
    Page {
        lint: Lint::ThreadSpawnOutsidePar,
        what: "`std::thread::spawn`, `std::thread::scope`, \
               `std::thread::Builder` or another scoped-thread spawner \
               outside `crates/par`, in library, binary, bench or example \
               code.",
        why: "Ad-hoc threads bypass the pool's deterministic in-order \
              delivery and panic containment.",
        fix: "Submit work through `hetero_par::Pool`.",
        anchor: Some(
            "Parallel X-measure batches must be byte-identical at any \
             `HETERO_THREADS`; only the pool guarantees that.",
        ),
    },
    Page {
        lint: Lint::FloatAccum,
        what: "A dataflow-proven `f64`/`f32` accumulator updated with \
               `+=`/`-=` inside a loop, or a float `.sum()` reduction, \
               outside the compensated-summation helpers.",
        why: "Naive accumulation order changes the rounding error; results \
              then differ between scalar, batched, and replanned paths.",
        fix: "Accumulate through `KahanSum`/`hetero_core::numeric::\
              kahan_sum` (or `neumaier_sum`), or justify a provably \
              order-fixed loop with an allow comment.",
        anchor: Some(
            "Theorem 2's optimal-schedule recurrence is the reference; \
             every other path must reproduce its bits.",
        ),
    },
    Page {
        lint: Lint::NondetIteration,
        what: "Iteration over a `HashMap`/`HashSet` whose results flow \
               into float math, output, or an unsorted collect.",
        why: "Hash iteration order varies run to run; anything \
              order-sensitive downstream becomes nondeterministic.",
        fix: "Use `BTreeMap`/`BTreeSet`, or collect and sort before the \
              order-sensitive use.",
        anchor: Some(
            "Pinned CLI goldens and cross-run reproducibility of the \
             X-measure tables depend on stable iteration everywhere.",
        ),
    },
    Page {
        lint: Lint::WallClockInLib,
        what: "`Instant::now` / `SystemTime::now` in library code outside \
               `crates/obs`.",
        why: "Wall-clock reads make library behaviour time-dependent and \
              unreproducible; timing belongs to the observability layer.",
        fix: "Take time as a parameter, use `SimTime`, or move the \
              measurement into `hetero-obs` spans.",
        anchor: None,
    },
    Page {
        lint: Lint::AtomicOrdering,
        what: "A non-`Relaxed` atomic memory ordering (`SeqCst`, \
               `Acquire`, `Release`, `AcqRel`) without a `// ordering:` \
               justification comment on the same or previous line.",
        why: "Stronger orderings encode a happens-before argument; \
              undocumented ones are unreviewable and often cargo-culted.",
        fix: "State the synchronisation edge in a `// ordering: ...` \
              comment, or relax to `Relaxed` if none is needed.",
        anchor: None,
    },
    Page {
        lint: Lint::PanicPropagation,
        what: "A public fn in `crates/core`/`protocol`/`sim` that may \
               panic — directly or through its callees — without a \
               `# Panics` doc section.",
        why: "Callers of the core APIs must know every panic path; the \
              call-graph pass finds the ones local lints cannot see.",
        fix: "Document the contract under `# Panics`, make the panic \
              unreachable, or return an error instead.",
        anchor: None,
    },
    Page {
        lint: Lint::CounterNameDiscipline,
        what: "A string-literal metric name passed to a `hetero_obs` \
               recorder (`count`, `gauge_max`, `observe`, `observe_hist`, \
               `sketch`, `timed`) in library code that is not listed in \
               `hetero_obs::counters::REGISTRY`.",
        why: "The registry is the contract `obsdiff` and the JSONL \
              consumers key on; an unregistered name silently forks the \
              metric namespace and its runs can never be diffed against \
              a baseline.",
        fix: "Add the name to `REGISTRY` in `crates/obs/src/counters.rs` \
              (with a comment saying who records it), or reuse an \
              existing registered name.",
        anchor: None,
    },
    Page {
        lint: Lint::UnboundedRetry,
        what: "A `loop`/`while` in library code whose body calls a \
               retransmit/retry routine with no compile-visible bound \
               (no `max`/`remaining`/`budget`-style identifier in the \
               condition or body).",
        why: "Under injected result loss a retransmit loop with no budget \
              turns one persistent fault into a livelock; the simulator \
              then spins forever instead of reporting a missed deadline. \
              Every retry in the workspace is budgeted as data \
              (`losses_left`, `max_retries`), and loops must show the \
              same shape.",
        fix: "Thread the budget through the loop (`while left > 0`, \
              `for _ in 0..max_rounds`), or justify a by-construction \
              termination argument with an allow comment.",
        anchor: Some(
            "The PR 9 resilience sweep compares protocol families under \
             identical fault plans; an unbounded retry loop in any family \
             would hang the sweep rather than lose the comparison.",
        ),
    },
    Page {
        lint: Lint::ApproxMathOutsideKernel,
        what: "An approximate-math primitive in library code outside the \
               certified fast-kernel modules: a raw SIMD intrinsic \
               (`_mm*`/`__m*`), a reciprocal-approximation call or \
               constant (`rcp*`), or a Newton-refinement identifier.",
        why: "Strict mode promises a bit-reproducible evaluation order; \
              fast mode is legal only where an analytic error budget is \
              stated and proptest-certified against the exact oracle. \
              Approximation smuggled into any other module erodes both \
              contracts at once: goldens drift and no certificate covers \
              the error.",
        fix: "Move the kernel into `crates/simd` or \
              `crates/core/src/fastnum.rs` with a documented budget \
              (DESIGN.md \u{a7}17), or call the strict kernels / a \
              `NumericMode` entry point instead.",
        anchor: Some(
            "The PR 10 fast numeric mode breaks the Theorem 2 divider \
             ceiling with reciprocal-Newton kernels; the certificates \
             only hold because every approximation site lives inside the \
             two audited modules.",
        ),
    },
];

/// Renders the page for `name`, or `None` if the lint is unknown.
pub fn render(name: &str) -> Option<String> {
    let lint = Lint::from_name(name)?;
    let page = PAGES.iter().find(|p| p.lint == lint)?;
    let mut out = String::new();
    out.push_str(&format!(
        "{} ({})\n\n",
        page.lint.name(),
        page.lint.level().label()
    ));
    out.push_str(&format!("What:\n  {}\n\n", reflow(page.what)));
    out.push_str(&format!("Why:\n  {}\n\n", reflow(page.why)));
    out.push_str(&format!("Fix:\n  {}\n", reflow(page.fix)));
    if let Some(anchor) = page.anchor {
        out.push_str(&format!("\nPaper anchor:\n  {}\n", reflow(anchor)));
    }
    Some(out)
}

/// Lists every lint with its one-line "what" (for `--explain` errors).
pub fn catalog() -> String {
    let mut out = String::from("known lints:\n");
    for lint in ALL_LINTS {
        out.push_str(&format!("  {}\n", lint.name()));
    }
    out
}

fn reflow(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_lint_has_a_page() {
        for lint in ALL_LINTS {
            assert!(
                PAGES.iter().any(|p| p.lint == *lint),
                "missing --explain page for {}",
                lint.name()
            );
            assert!(render(lint.name()).is_some());
        }
    }

    #[test]
    fn pages_match_all_lints_exactly() {
        assert_eq!(PAGES.len(), ALL_LINTS.len());
    }

    #[test]
    fn unknown_lint_renders_nothing() {
        assert!(render("not-a-lint").is_none());
        assert!(catalog().contains("float-accum"));
    }

    #[test]
    fn rendered_page_has_all_sections() {
        let page = render("float-accum").unwrap();
        assert!(page.contains("What:"));
        assert!(page.contains("Why:"));
        assert!(page.contains("Fix:"));
        assert!(page.contains("Paper anchor:"));
    }
}
