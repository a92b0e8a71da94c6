//! `svtox-fault` — deterministic, seeded fault injection.
//!
//! A fault *plan* names **where** a fault fires (an injection [`Site`]:
//! exec task dispatch, queue pop, file read/truncate, the budget clock,
//! the search-loop leaf) and **when** (a [`Trigger`]: the nth hit of the
//! site, every nth hit, or a probability drawn from a seeded xoshiro
//! stream). The plan compiles into a [`Fault`] handle that the hardened
//! layers consult at each injection point.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** [`Fault::disabled_ref`] hands out a
//!    `'static` handle whose every query is one `Option` check on a
//!    `None` — the same pattern `svtox-obs` uses for its disabled
//!    handle. Production call sites pay one predictable branch.
//! 2. **Deterministic.** Probability triggers draw from a per-rule
//!    xoshiro stream derived from the plan seed, and count-based
//!    triggers use per-site atomic hit counters, so a single-threaded
//!    run replays bit-identically and a multi-threaded run injects the
//!    same *total* fault load for a given seed.
//! 3. **Dependency leaf.** `svtox-exec` (and everything above it) wires
//!    this crate in, so it depends on nothing — it carries its own
//!    minimal SplitMix64/xoshiro256++ pair, stream-compatible with the
//!    reference implementations in `svtox-exec`.
//!
//! Injected panics carry the payload prefix [`PANIC_PREFIX`] so harnesses
//! can tell an injected fault from a genuine bug.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};

mod rng;

use rng::Xoshiro256pp;

/// The payload prefix of every panic raised by [`Fault::inject_panic`].
pub const PANIC_PREFIX: &str = "injected fault";

/// An injection point in the stack.
///
/// Each variant is one named place where a hardened layer asks the fault
/// registry whether to misbehave. The textual names (used by
/// [`FaultPlan::parse`] and in panic payloads) are dotted
/// `layer.point` identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// `exec.dispatch` — just before a pool worker executes a task; an
    /// injected fault panics the task body (recoverable via task retry).
    ExecDispatch,
    /// `exec.pop` — after a worker pops a chunk from the task queue; an
    /// injected fault kills the whole worker (recoverable via respawn).
    ExecPop,
    /// `io.read` — a file read fails with an I/O error.
    FileRead,
    /// `io.truncate` — a file read silently returns a truncated prefix.
    FileTruncate,
    /// `clock.skew` — the budget clock misreads, collapsing the time
    /// budget to zero at construction.
    BudgetClock,
    /// `core.leaf` — after the search loop evaluates a leaf; an injected
    /// fault cancels the run's budget token (a mid-search kill).
    CoreLeaf,
    /// `io.write` — a file append/write fails with an I/O error (journal
    /// records, checkpoint lines).
    FileWrite,
    /// `io.fsync` — a durability sync fails with an I/O error after the
    /// data was already buffered.
    FileFsync,
    /// `io.rename` — an atomic replace (write-temp-then-rename rotation)
    /// fails with an I/O error.
    FileRename,
}

impl Site {
    /// Every site, in parse/display order.
    pub const ALL: [Site; 9] = [
        Site::ExecDispatch,
        Site::ExecPop,
        Site::FileRead,
        Site::FileTruncate,
        Site::BudgetClock,
        Site::CoreLeaf,
        Site::FileWrite,
        Site::FileFsync,
        Site::FileRename,
    ];

    /// The dotted `layer.point` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Site::ExecDispatch => "exec.dispatch",
            Site::ExecPop => "exec.pop",
            Site::FileRead => "io.read",
            Site::FileTruncate => "io.truncate",
            Site::BudgetClock => "clock.skew",
            Site::CoreLeaf => "core.leaf",
            Site::FileWrite => "io.write",
            Site::FileFsync => "io.fsync",
            Site::FileRename => "io.rename",
        }
    }

    /// Parses a dotted site name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Site> {
        Site::ALL.iter().copied().find(|s| s.name() == name)
    }

    fn index(self) -> usize {
        match self {
            Site::ExecDispatch => 0,
            Site::ExecPop => 1,
            Site::FileRead => 2,
            Site::FileTruncate => 3,
            Site::BudgetClock => 4,
            Site::CoreLeaf => 5,
            Site::FileWrite => 6,
            Site::FileFsync => 7,
            Site::FileRename => 8,
        }
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// When a rule fires, relative to the hit count of its site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fires exactly on the nth hit (1-based).
    Nth(u64),
    /// Fires on every nth hit (1-based: `EveryNth(3)` fires on hits
    /// 3, 6, 9, …).
    EveryNth(u64),
    /// Fires independently on each hit with probability `p`, drawn from
    /// the rule's seeded xoshiro stream.
    Probability(f64),
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::Nth(n) => write!(f, "nth={n}"),
            Trigger::EveryNth(n) => write!(f, "every={n}"),
            Trigger::Probability(p) => write!(f, "p={p}"),
        }
    }
}

/// One `site × trigger` pairing inside a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Where the rule applies.
    pub site: Site,
    /// When it fires.
    pub trigger: Trigger,
}

/// A malformed fault-plan specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(String);

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// A seeded set of fault rules, ready to compile into a [`Fault`] handle.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (compiles to an enabled handle that never fires).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule.
    #[must_use]
    pub fn with_rule(mut self, site: Site, trigger: Trigger) -> Self {
        self.rules.push(FaultRule { site, trigger });
        self
    }

    /// The plan seed (feeds every probability trigger's stream).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The rules, in insertion order.
    #[must_use]
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Parses a plan from its textual form.
    ///
    /// Grammar: a comma- or semicolon-separated list of
    /// `site:trigger` pairs, where `site` is a dotted [`Site`] name and
    /// `trigger` is `nth=N`, `every=N`, or `p=F` (probability in
    /// `[0, 1]`). Example: `"exec.dispatch:p=0.25,core.leaf:nth=7"`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] naming the offending clause on unknown
    /// sites, unknown trigger keys, or out-of-range values.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, PlanError> {
        let mut plan = FaultPlan::new(seed);
        for clause in spec.split([',', ';']) {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (site_name, trig) = clause
                .split_once(':')
                .ok_or_else(|| PlanError(format!("clause `{clause}` is missing `site:trigger`")))?;
            let site = Site::from_name(site_name.trim())
                .ok_or_else(|| PlanError(format!("unknown site `{}`", site_name.trim())))?;
            let (key, value) = trig
                .split_once('=')
                .ok_or_else(|| PlanError(format!("trigger `{trig}` is missing `key=value`")))?;
            let value = value.trim();
            let trigger = match key.trim() {
                "nth" => Trigger::Nth(parse_count(clause, value)?),
                "every" => Trigger::EveryNth(parse_count(clause, value)?),
                "p" => {
                    let p: f64 = value
                        .parse()
                        .map_err(|_| PlanError(format!("`{clause}`: `{value}` is not a number")))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(PlanError(format!(
                            "`{clause}`: probability {p} outside [0, 1]"
                        )));
                    }
                    Trigger::Probability(p)
                }
                other => return Err(PlanError(format!("unknown trigger key `{other}`"))),
            };
            plan.rules.push(FaultRule { site, trigger });
        }
        Ok(plan)
    }
}

fn parse_count(clause: &str, value: &str) -> Result<u64, PlanError> {
    let n: u64 = value
        .parse()
        .map_err(|_| PlanError(format!("`{clause}`: `{value}` is not a count")))?;
    if n == 0 {
        return Err(PlanError(format!("`{clause}`: count must be >= 1")));
    }
    Ok(n)
}

struct RuleState {
    rule: FaultRule,
    rng: Mutex<Xoshiro256pp>,
}

impl RuleState {
    fn fires(&self, hit: u64) -> bool {
        match self.rule.trigger {
            Trigger::Nth(n) => hit == n,
            Trigger::EveryNth(n) => hit.is_multiple_of(n),
            Trigger::Probability(p) => self
                .rng
                .lock()
                .expect("fault rule rng lock is never poisoned")
                .gen_bool(p),
        }
    }
}

struct Inner {
    hits: [AtomicU64; 9],
    fired: [AtomicU64; 9],
    rules: Vec<RuleState>,
}

/// A cheap, cloneable fault-injection handle.
///
/// Enabled handles ([`Fault::new`]) evaluate the plan's rules at each
/// query; the disabled handle ([`Fault::disabled`] /
/// [`Fault::disabled_ref`]) answers every query with a single branch.
#[derive(Clone)]
pub struct Fault(Option<Arc<Inner>>);

impl fmt::Debug for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => f.write_str("Fault(disabled)"),
            Some(inner) => f
                .debug_struct("Fault")
                .field("rules", &inner.rules.len())
                .finish(),
        }
    }
}

impl Fault {
    /// A disabled handle: never fires, one branch per query.
    #[must_use]
    pub fn disabled() -> Self {
        Fault(None)
    }

    /// A `'static` disabled handle for call sites that thread a
    /// `&Fault` but have no plan.
    #[must_use]
    pub fn disabled_ref() -> &'static Fault {
        static DISABLED: OnceLock<Fault> = OnceLock::new();
        DISABLED.get_or_init(Fault::disabled)
    }

    /// Compiles a plan into an enabled handle.
    ///
    /// Each probability rule gets its own xoshiro stream derived from
    /// `(plan seed, rule index)`, so reordering unrelated rules does not
    /// perturb a rule's draw sequence.
    #[must_use]
    pub fn new(plan: &FaultPlan) -> Self {
        let rules = plan
            .rules
            .iter()
            .enumerate()
            .map(|(i, &rule)| RuleState {
                rule,
                rng: Mutex::new(Xoshiro256pp::seed_from_u64(rng::derive_seed(
                    plan.seed, i as u64,
                ))),
            })
            .collect();
        Fault(Some(Arc::new(Inner {
            hits: Default::default(),
            fired: Default::default(),
            rules,
        })))
    }

    /// Whether this handle carries a plan at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records a hit on `site` and reports whether any rule fires.
    ///
    /// Disabled handles return `false` after one branch.
    pub fn fires(&self, site: Site) -> bool {
        let Some(inner) = &self.0 else { return false };
        let hit = inner.hits[site.index()].fetch_add(1, Ordering::Relaxed) + 1;
        let fired = inner
            .rules
            .iter()
            .filter(|r| r.rule.site == site)
            .any(|r| r.fires(hit));
        if fired {
            inner.fired[site.index()].fetch_add(1, Ordering::Relaxed);
        }
        fired
    }

    /// Panics with an [`PANIC_PREFIX`]-tagged payload if `site` fires.
    ///
    /// # Panics
    ///
    /// That is the point: panics when a rule for `site` fires.
    pub fn inject_panic(&self, site: Site) {
        if self.fires(site) {
            let hit = self.hits(site);
            panic!("{PANIC_PREFIX} at {site} (hit {hit})");
        }
    }

    /// Total hits recorded on `site` (0 for disabled handles).
    #[must_use]
    pub fn hits(&self, site: Site) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.hits[site.index()].load(Ordering::Relaxed))
    }

    /// Total times `site` actually fired (0 for disabled handles).
    #[must_use]
    pub fn fired(&self, site: Site) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.fired[site.index()].load(Ordering::Relaxed))
    }

    /// A fault-aware `fs::read_to_string`.
    ///
    /// An [`Site::FileRead`] fire turns into an I/O error; a
    /// [`Site::FileTruncate`] fire silently halves the returned text
    /// (on a char boundary) — the "partially written file" failure mode.
    ///
    /// # Errors
    ///
    /// Propagates real I/O errors, plus the injected one.
    pub fn read_to_string(&self, path: &Path) -> io::Result<String> {
        if self.fires(Site::FileRead) {
            return Err(io::Error::other(format!(
                "{PANIC_PREFIX} at {}: {}",
                Site::FileRead,
                path.display()
            )));
        }
        let text = std::fs::read_to_string(path)?;
        if self.fires(Site::FileTruncate) {
            let mut cut = text.len() / 2;
            while cut > 0 && !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return Ok(text[..cut].to_string());
        }
        Ok(text)
    }

    /// Records a hit on an I/O `site` and, if a rule fires, returns the
    /// injected error as an `Err` a write path can propagate.
    ///
    /// This is the write-side counterpart of [`Fault::read_to_string`]:
    /// journal appends guard each `write_all` with
    /// `check_io(Site::FileWrite, ..)`, durability syncs with
    /// [`Site::FileFsync`], and atomic rotations with
    /// [`Site::FileRename`].
    ///
    /// # Errors
    ///
    /// Returns the injected, [`PANIC_PREFIX`]-tagged error when a rule
    /// for `site` fires; `Ok(())` otherwise.
    pub fn check_io(&self, site: Site, what: &str) -> io::Result<()> {
        if self.fires(site) {
            return Err(io::Error::other(format!(
                "{PANIC_PREFIX} at {site}: {what}"
            )));
        }
        Ok(())
    }

    /// Whether a panic payload came from [`Fault::inject_panic`].
    #[must_use]
    pub fn is_injected_panic(message: &str) -> bool {
        message.starts_with(PANIC_PREFIX)
    }
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that swallows the panics
/// [`Fault::inject_panic`] raises — where faults are injected on purpose
/// they are working fluid, not a crash worth a backtrace on stderr — and
/// hands every other panic to the previous hook unchanged.
pub fn silence_injected_panics() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(Fault::is_injected_panic);
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_fires_and_counts_nothing() {
        let fault = Fault::disabled();
        for site in Site::ALL {
            assert!(!fault.fires(site));
        }
        assert_eq!(fault.hits(Site::ExecDispatch), 0);
        assert!(!fault.is_enabled());
        assert!(Fault::disabled_ref().0.is_none());
    }

    #[test]
    fn nth_fires_exactly_once_on_the_nth_hit() {
        let fault = Fault::new(&FaultPlan::new(1).with_rule(Site::CoreLeaf, Trigger::Nth(3)));
        let fires: Vec<bool> = (0..6).map(|_| fault.fires(Site::CoreLeaf)).collect();
        assert_eq!(fires, [false, false, true, false, false, false]);
        assert_eq!(fault.hits(Site::CoreLeaf), 6);
        assert_eq!(fault.fired(Site::CoreLeaf), 1);
    }

    #[test]
    fn every_nth_fires_periodically() {
        let fault = Fault::new(&FaultPlan::new(1).with_rule(Site::ExecPop, Trigger::EveryNth(2)));
        let fires: Vec<bool> = (0..6).map(|_| fault.fires(Site::ExecPop)).collect();
        assert_eq!(fires, [false, true, false, true, false, true]);
    }

    #[test]
    fn sites_are_counted_independently() {
        let fault = Fault::new(&FaultPlan::new(1).with_rule(Site::FileRead, Trigger::Nth(1)));
        assert!(!fault.fires(Site::ExecDispatch));
        assert!(fault.fires(Site::FileRead), "first io.read hit fires");
        assert!(!fault.fires(Site::FileRead));
        assert_eq!(fault.hits(Site::ExecDispatch), 1);
        assert_eq!(fault.fired(Site::ExecDispatch), 0);
    }

    #[test]
    fn probability_stream_is_seed_deterministic() {
        let plan =
            |seed| FaultPlan::new(seed).with_rule(Site::ExecDispatch, Trigger::Probability(0.5));
        let draws = |seed| {
            let fault = Fault::new(&plan(seed));
            (0..64)
                .map(|_| fault.fires(Site::ExecDispatch))
                .collect::<Vec<bool>>()
        };
        assert_eq!(draws(7), draws(7), "same seed, same stream");
        assert_ne!(draws(7), draws(8), "different seed, different stream");
        let hits = draws(7).iter().filter(|&&b| b).count();
        assert!((16..=48).contains(&hits), "p=0.5 gave {hits}/64");
    }

    #[test]
    fn probability_extremes_are_exact() {
        let never =
            Fault::new(&FaultPlan::new(1).with_rule(Site::CoreLeaf, Trigger::Probability(0.0)));
        let always =
            Fault::new(&FaultPlan::new(1).with_rule(Site::CoreLeaf, Trigger::Probability(1.0)));
        for _ in 0..32 {
            assert!(!never.fires(Site::CoreLeaf));
            assert!(always.fires(Site::CoreLeaf));
        }
    }

    #[test]
    fn plan_parser_round_trips_the_grammar() {
        let plan = FaultPlan::parse("exec.dispatch:p=0.25, core.leaf:nth=7; io.read:every=3", 9)
            .expect("valid spec");
        assert_eq!(plan.seed(), 9);
        assert_eq!(
            plan.rules(),
            [
                FaultRule {
                    site: Site::ExecDispatch,
                    trigger: Trigger::Probability(0.25)
                },
                FaultRule {
                    site: Site::CoreLeaf,
                    trigger: Trigger::Nth(7)
                },
                FaultRule {
                    site: Site::FileRead,
                    trigger: Trigger::EveryNth(3)
                },
            ]
        );
        assert_eq!(FaultPlan::parse("", 0).expect("empty is fine").rules(), []);
    }

    #[test]
    fn plan_parser_names_the_offending_clause() {
        for (spec, needle) in [
            ("exec.dispatch", "missing `site:trigger`"),
            ("exec.nope:nth=1", "unknown site"),
            ("exec.dispatch:often", "missing `key=value`"),
            ("exec.dispatch:when=3", "unknown trigger key"),
            ("exec.dispatch:nth=0", "count must be >= 1"),
            ("exec.dispatch:p=1.5", "outside [0, 1]"),
            ("exec.dispatch:p=lots", "not a number"),
        ] {
            let err = FaultPlan::parse(spec, 0).expect_err(spec).to_string();
            assert!(err.contains(needle), "`{spec}` gave `{err}`");
        }
    }

    #[test]
    fn injected_panics_are_recognizable() {
        let fault = Fault::new(&FaultPlan::new(1).with_rule(Site::ExecDispatch, Trigger::Nth(1)));
        let payload = std::panic::catch_unwind(|| fault.inject_panic(Site::ExecDispatch))
            .expect_err("nth=1 fires on the first hit");
        let message = payload
            .downcast_ref::<String>()
            .expect("formatted payload")
            .clone();
        assert!(Fault::is_injected_panic(&message), "payload: {message}");
        assert!(message.contains("exec.dispatch"));
    }

    #[test]
    fn the_quiet_hook_passes_only_real_panics_on() {
        // Record what reaches the previous hook, then keep the default
        // output for every other test of this binary.
        static SEEN: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|m| (*m).to_string())
                })
                .unwrap_or_default();
            SEEN.lock().unwrap_or_else(|e| e.into_inner()).push(message);
            default(info);
        }));
        silence_injected_panics();
        silence_injected_panics();
        let fault = Fault::new(&FaultPlan::new(1).with_rule(Site::ExecPop, Trigger::Nth(1)));
        assert!(std::panic::catch_unwind(|| fault.inject_panic(Site::ExecPop)).is_err());
        assert!(std::panic::catch_unwind(|| panic!("a real quiet-hook probe")).is_err());
        let seen = SEEN.lock().unwrap_or_else(|e| e.into_inner()).clone();
        assert!(
            seen.iter().any(|m| m == "a real quiet-hook probe"),
            "{seen:?}"
        );
        assert!(
            !seen.iter().any(|m| Fault::is_injected_panic(m)),
            "{seen:?}"
        );
    }

    #[test]
    fn io_sites_parse_and_check_io_injects_typed_errors() {
        let plan = FaultPlan::parse("io.write:every=2, io.fsync:nth=1; io.rename:nth=2", 3)
            .expect("valid spec");
        let fault = Fault::new(&plan);

        assert!(fault.check_io(Site::FileWrite, "journal append").is_ok());
        let err = fault
            .check_io(Site::FileWrite, "journal append")
            .expect_err("every=2 fires on the second hit");
        assert!(Fault::is_injected_panic(&err.to_string()));
        assert!(err.to_string().contains("io.write"), "err: {err}");

        let err = fault
            .check_io(Site::FileFsync, "journal sync")
            .expect_err("nth=1 fires immediately");
        assert!(err.to_string().contains("io.fsync"));

        assert!(fault.check_io(Site::FileRename, "rotate").is_ok());
        assert!(fault.check_io(Site::FileRename, "rotate").is_err());
        assert_eq!(fault.fired(Site::FileRename), 1);

        // Disabled handles answer with one branch and never error.
        assert!(Fault::disabled().check_io(Site::FileWrite, "x").is_ok());
    }

    #[test]
    fn truncating_reader_halves_on_a_char_boundary() {
        let dir = std::env::temp_dir().join(format!("svtox-fault-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("read.txt");
        std::fs::write(&path, "héllo wörld").expect("write fixture");

        let fault = Fault::new(&FaultPlan::new(1).with_rule(Site::FileTruncate, Trigger::Nth(1)));
        let text = fault.read_to_string(&path).expect("truncation is silent");
        assert!(text.len() < "héllo wörld".len());
        assert!("héllo wörld".starts_with(&text));

        let fault = Fault::new(&FaultPlan::new(1).with_rule(Site::FileRead, Trigger::Nth(1)));
        let err = fault
            .read_to_string(&path)
            .expect_err("read fault is an error");
        assert!(Fault::is_injected_panic(&err.to_string()));

        let clean = Fault::disabled();
        assert_eq!(
            clean.read_to_string(&path).expect("clean read"),
            "héllo wörld"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
