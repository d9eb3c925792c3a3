//! Lint identifiers, severity levels, and the diagnostic record.

use std::fmt;

/// Stable lint identifiers. The string form (`Lint::name`) is the public
/// contract: it appears in diagnostics, JSON output, allow comments, and
/// the baseline file, and must never change meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lint {
    /// `==` / `!=` against a float literal.
    FloatEq,
    /// `partial_cmp(..)` chained into `unwrap` / `expect` / `unwrap_or*`.
    PartialCmpUnwrap,
    /// Bare `.sum()` over floats in the numerical kernels.
    NakedSum,
    /// `.unwrap()` in library code.
    Unwrap,
    /// `.expect(..)` in library code.
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` in library code.
    Panic,
    /// Slice/array indexing in library code (advisory).
    Indexing,
    /// Missing `#![forbid(unsafe_code)]` / `#![warn(missing_docs)]` headers.
    CratePolicy,
    /// Public formula items without a paper citation in their docs.
    PaperAnchor,
    /// `Profile { .. }` / `Params { .. }` literals outside their modules.
    ConstructorDiscipline,
    /// `println!` / `eprintln!` / `print!` / `eprint!` in library code.
    PrintInLib,
    /// An allow comment without a justification.
    AllowMissingReason,
    /// Panicking `SimTime::new` outside the simulator crate.
    SimTimeUnchecked,
    /// `std::thread::spawn` / `thread::scope` / `thread::Builder` (or any
    /// other scoped-thread spawner) in library, binary, bench or example
    /// code outside `crates/par` (ad-hoc threads bypass the pool's
    /// determinism and panic-containment contracts).
    ThreadSpawnOutsidePar,
    /// Naked `f64`/`f32` accumulation in a loop (dataflow-proven float
    /// `+=`/`-=`/`.sum()` not routed through `KahanSum`/`neumaier_sum`).
    FloatAccum,
    /// `HashMap`/`HashSet` iteration flowing into float math, output, or
    /// collected without a sort (nondeterministic order).
    NondetIteration,
    /// `Instant::now` / `SystemTime::now` in library code outside
    /// `crates/obs`.
    WallClockInLib,
    /// Non-`Relaxed` atomic memory ordering without a `// ordering:`
    /// justification comment.
    AtomicOrdering,
    /// A public API in `core`/`protocol`/`sim` that may panic (by
    /// call-graph propagation) without a `# Panics` doc section.
    PanicPropagation,
    /// A literal metric name passed to a `hetero_obs` recorder that is
    /// not listed in `hetero_obs::counters::REGISTRY`.
    CounterNameDiscipline,
    /// A `loop`/`while` in library code whose body retransmits or
    /// retries without a compile-visible bound (no `max`/`remaining`/
    /// `budget`-style identifier in the condition or body).
    UnboundedRetry,
    /// Approximate-math primitives (reciprocal seeds, Newton refinement,
    /// raw SIMD intrinsics) outside the certified fast-kernel modules
    /// (`crates/simd`, `crates/core/src/fastnum.rs`). Approximation is
    /// only legal where an error budget is stated and proptest-certified.
    ApproxMathOutsideKernel,
}

/// Every lint, in reporting order.
pub const ALL_LINTS: &[Lint] = &[
    Lint::FloatEq,
    Lint::PartialCmpUnwrap,
    Lint::NakedSum,
    Lint::Unwrap,
    Lint::Expect,
    Lint::Panic,
    Lint::Indexing,
    Lint::CratePolicy,
    Lint::PaperAnchor,
    Lint::ConstructorDiscipline,
    Lint::PrintInLib,
    Lint::AllowMissingReason,
    Lint::SimTimeUnchecked,
    Lint::ThreadSpawnOutsidePar,
    Lint::FloatAccum,
    Lint::NondetIteration,
    Lint::WallClockInLib,
    Lint::AtomicOrdering,
    Lint::PanicPropagation,
    Lint::CounterNameDiscipline,
    Lint::UnboundedRetry,
    Lint::ApproxMathOutsideKernel,
];

impl Lint {
    /// The stable string ID used in output, allow comments, and baselines.
    pub fn name(self) -> &'static str {
        match self {
            Lint::FloatEq => "float-eq",
            Lint::PartialCmpUnwrap => "partial-cmp-unwrap",
            Lint::NakedSum => "naked-sum",
            Lint::Unwrap => "unwrap",
            Lint::Expect => "expect",
            Lint::Panic => "panic",
            Lint::Indexing => "indexing",
            Lint::CratePolicy => "crate-policy",
            Lint::PaperAnchor => "paper-anchor",
            Lint::ConstructorDiscipline => "constructor-discipline",
            Lint::PrintInLib => "print-in-lib",
            Lint::AllowMissingReason => "allow-missing-reason",
            Lint::SimTimeUnchecked => "sim-time-unchecked",
            Lint::ThreadSpawnOutsidePar => "thread-spawn-outside-par",
            Lint::FloatAccum => "float-accum",
            Lint::NondetIteration => "nondet-iteration",
            Lint::WallClockInLib => "wall-clock-in-lib",
            Lint::AtomicOrdering => "atomic-ordering",
            Lint::PanicPropagation => "panic-propagation",
            Lint::CounterNameDiscipline => "counter-name-discipline",
            Lint::UnboundedRetry => "unbounded-retry",
            Lint::ApproxMathOutsideKernel => "approx-math-outside-kernel",
        }
    }

    /// Parses a stable lint ID (as written in allow comments).
    pub fn from_name(name: &str) -> Option<Lint> {
        ALL_LINTS.iter().copied().find(|l| l.name() == name)
    }

    /// Default severity. `indexing` is advisory because idiomatic
    /// bounds-checked indexing is pervasive and usually correct; the
    /// remaining lints gate the build.
    pub fn level(self) -> Level {
        match self {
            Lint::Indexing => Level::Warn,
            _ => Level::Deny,
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether a diagnostic gates the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Reported; fails the run (unless baselined or allowed).
    Deny,
    /// Reported; informational unless `--deny-warnings`.
    Warn,
}

impl Level {
    /// Lowercase label used in output.
    pub fn label(self) -> &'static str {
        match self {
            Level::Deny => "deny",
            Level::Warn => "warn",
        }
    }
}

/// One finding at a source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: Lint,
    /// Severity (normally `lint.level()`).
    pub level: Level,
    /// Path relative to the workspace root, with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

/// A diagnostic that an allow comment suppressed.
#[derive(Debug, Clone)]
pub struct Suppressed {
    /// The suppressed finding.
    pub diag: Diagnostic,
    /// The justification from the allow comment.
    pub reason: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}({}): {}",
            self.file,
            self.line,
            self.col,
            self.level.label(),
            self.lint,
            self.message
        )
    }
}
