//! Zero-dependency fault-injection harness.
//!
//! Production code marks *named sites* with [`point`]:
//!
//! ```rust
//! sama_obs::fault::point("search.expand");
//! ```
//!
//! With no plan installed the call is one relaxed atomic load — cheap
//! enough for hot loops. A [`FaultPlan`] arms sites with actions:
//!
//! * `panic` — unwind with an identifiable payload (proving the
//!   caller's isolation, e.g. `catch_unwind` in the batch pool);
//! * `delay=MS` — sleep, simulating a slow peer / IO stall (proving
//!   deadline enforcement end-to-end).
//!
//! Plans come from the `SAMA_FAULTS` environment variable (the CI
//! chaos leg) or programmatically via [`install`] (unit tests). The
//! grammar, entries separated by `,`:
//!
//! ```text
//! SAMA_FAULTS = site:action[:every=N] [, site:action[:every=N] ...]
//! action      = panic | delay=MS | delay:MS
//! ```
//!
//! `every=N` fires the action on every N-th hit of the site (default
//! every hit). Example: `SAMA_FAULTS=search.expand:panic:every=7`.
//!
//! Armed sites, by layer:
//!
//! | site | hit on |
//! |------|--------|
//! | `index.load` | index deserialization / mmap open |
//! | `engine.answer` | top of a single query evaluation |
//! | `search.expand` | candidate expansion in the top-k search |
//! | `cluster.align` | per-cluster alignment |
//! | `batch.worker` | per-query slot inside the batch worker pool |
//! | `serve.accept` | HTTP connection accept/dispatch |
//! | `serve.read` | HTTP request read, once per request |
//! | `serve.write` | HTTP response write, once per response |
//! | `serve.handler` | query handler, inside the per-request `catch_unwind` |
//!
//! Because the plan is process-global, tests that install plans must
//! serialize themselves (e.g. behind a shared mutex) and should call
//! [`install`] with an explicit plan — including [`FaultPlan::none`]
//! for clean baselines — so an env-armed CI run cannot leak faults
//! into comparisons. [`reset_to_env`] restores the environment plan.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};
use std::time::Duration;

/// What an armed fault site does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with the payload `"injected fault: <site>"`.
    Panic,
    /// Sleep for the given duration, then continue.
    Delay(Duration),
}

/// One armed site of a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultRule {
    site: String,
    action: FaultAction,
    /// Fire on every N-th hit (1 = every hit).
    every: u64,
    hits: AtomicU64,
}

impl FaultRule {
    /// Arm `site` with `action` on every `every`-th hit.
    pub fn new(site: impl Into<String>, action: FaultAction, every: u64) -> Self {
        FaultRule {
            site: site.into(),
            action,
            every: every.max(1),
            hits: AtomicU64::new(0),
        }
    }

    /// Record a hit; `Some(action)` if the rule fires on it.
    fn hit(&self) -> Option<FaultAction> {
        let n = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        n.is_multiple_of(self.every).then_some(self.action)
    }
}

/// A set of armed fault sites. Cloning resets hit counters.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// The empty plan: no site ever fires. Installing it explicitly
    /// shields a test from whatever `SAMA_FAULTS` carries.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Plan with a single armed site.
    pub fn single(site: impl Into<String>, action: FaultAction, every: u64) -> Self {
        FaultPlan {
            rules: vec![FaultRule::new(site, action, every)],
        }
    }

    /// `true` if no site is armed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The armed site names, in plan order.
    pub fn sites(&self) -> Vec<&str> {
        self.rules.iter().map(|r| r.site.as_str()).collect()
    }

    /// Parse the `SAMA_FAULTS` grammar (see the module docs). An empty
    /// or all-whitespace spec yields the empty plan.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut rules = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let mut parts = entry.split(':');
            let site = parts
                .next()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| format!("fault entry {entry:?}: missing site name"))?;
            let action_word = parts
                .next()
                .ok_or_else(|| format!("fault entry {entry:?}: missing action"))?;
            let mut every = 1u64;
            let mut action = match action_word {
                "panic" => FaultAction::Panic,
                word if word.starts_with("delay=") => {
                    let ms: u64 = word["delay=".len()..]
                        .parse()
                        .map_err(|_| format!("fault entry {entry:?}: bad delay milliseconds"))?;
                    FaultAction::Delay(Duration::from_millis(ms))
                }
                // `site:delay:MS` — the colon-separated spelling.
                "delay" => {
                    let ms: u64 = parts
                        .next()
                        .ok_or_else(|| format!("fault entry {entry:?}: delay needs milliseconds"))?
                        .parse()
                        .map_err(|_| format!("fault entry {entry:?}: bad delay milliseconds"))?;
                    FaultAction::Delay(Duration::from_millis(ms))
                }
                other => {
                    return Err(format!(
                        "fault entry {entry:?}: unknown action {other:?} \
                         (expected panic | delay=MS)"
                    ))
                }
            };
            for param in parts {
                if let Some(n) = param.strip_prefix("every=") {
                    every = n
                        .parse::<u64>()
                        .map_err(|_| format!("fault entry {entry:?}: bad every=N"))?
                        .max(1);
                } else if let (FaultAction::Delay(_), Ok(ms)) = (action, param.parse::<u64>()) {
                    // Tolerate `delay:5:every=2` style where the number
                    // already matched above; ignore duplicates.
                    action = FaultAction::Delay(Duration::from_millis(ms));
                } else {
                    return Err(format!(
                        "fault entry {entry:?}: unknown parameter {param:?}"
                    ));
                }
            }
            rules.push(FaultRule::new(site, action, every));
        }
        Ok(FaultPlan { rules })
    }
}

/// `false` once we know no plan is armed — the only cost production
/// pays per [`point`] call.
static ARMED: AtomicBool = AtomicBool::new(true);

/// Explicit override installed by [`install`]; `None` = fall back to
/// the environment plan.
static OVERRIDE: RwLock<Option<FaultPlan>> = RwLock::new(None);

/// The plan parsed from `SAMA_FAULTS` at first use. A malformed spec
/// is reported once on stderr and treated as empty (a chaos harness
/// must not take the process down by itself).
fn env_plan() -> &'static FaultPlan {
    static ENV: OnceLock<FaultPlan> = OnceLock::new();
    ENV.get_or_init(|| match std::env::var("SAMA_FAULTS") {
        Ok(spec) => FaultPlan::parse(&spec).unwrap_or_else(|err| {
            eprintln!("warning: ignoring SAMA_FAULTS: {err}");
            FaultPlan::none()
        }),
        Err(_) => FaultPlan::none(),
    })
}

fn recompute_armed() {
    let armed = match OVERRIDE.read().unwrap_or_else(|e| e.into_inner()).as_ref() {
        Some(plan) => !plan.is_empty(),
        None => !env_plan().is_empty(),
    };
    ARMED.store(armed, Ordering::Relaxed);
}

/// Install `plan` process-wide, replacing any previous plan *and* the
/// environment plan. Hit counters start at zero.
pub fn install(plan: FaultPlan) {
    *OVERRIDE.write().unwrap_or_else(|e| e.into_inner()) = Some(plan);
    recompute_armed();
}

/// Drop any installed plan and fall back to the `SAMA_FAULTS`
/// environment plan (whose hit counters keep their positions).
pub fn reset_to_env() {
    *OVERRIDE.write().unwrap_or_else(|e| e.into_inner()) = None;
    recompute_armed();
}

/// `true` while any fault site is armed (plan or environment).
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// A named fault site. No-op (one relaxed load) unless a plan arms
/// this site, in which case the armed action fires on its schedule.
///
/// # Panics
///
/// By design, when an armed `panic` rule fires: the payload is
/// `"injected fault: <site>"`.
#[inline]
pub fn point(site: &str) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    point_armed(site);
}

#[cold]
fn point_armed(site: &str) {
    let fired = {
        let guard = OVERRIDE.read().unwrap_or_else(|e| e.into_inner());
        let plan = match guard.as_ref() {
            Some(plan) => plan,
            None => env_plan(),
        };
        if plan.is_empty() {
            // First call after startup with nothing armed: disarm the
            // fast path for the rest of the process (until install()).
            drop(guard);
            recompute_armed();
            return;
        }
        plan.rules
            .iter()
            .filter(|r| r.site == site)
            .find_map(FaultRule::hit)
        // Guard dropped here — never panic or sleep while holding it.
    };
    match fired {
        Some(FaultAction::Panic) => panic!("injected fault: {site}"),
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The plan is process-global; serialize the tests of this module.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn parse_grammar() {
        let plan = FaultPlan::parse("search.expand:panic:every=7").unwrap();
        assert_eq!(plan.sites(), vec!["search.expand"]);
        assert_eq!(plan.rules[0].every, 7);
        assert_eq!(plan.rules[0].action, FaultAction::Panic);

        let plan = FaultPlan::parse("a:delay=5, b:delay:12:every=2").unwrap();
        assert_eq!(
            plan.rules[0].action,
            FaultAction::Delay(Duration::from_millis(5))
        );
        assert_eq!(
            plan.rules[1].action,
            FaultAction::Delay(Duration::from_millis(12))
        );
        assert_eq!(plan.rules[1].every, 2);

        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("x").is_err());
        assert!(FaultPlan::parse("x:explode").is_err());
        assert!(FaultPlan::parse("x:panic:every=zero").is_err());
    }

    #[test]
    fn panic_fires_on_schedule() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(FaultPlan::single("unit.site", FaultAction::Panic, 3));
        assert!(armed());
        point("unit.site"); // hit 1
        point("other.site"); // not armed
        point("unit.site"); // hit 2
        let result = std::panic::catch_unwind(|| point("unit.site")); // hit 3
        assert!(result.is_err(), "third hit must panic");
        point("unit.site"); // hit 4 — counter continues, no fire
        install(FaultPlan::none());
        point("unit.site"); // disarmed
        reset_to_env();
    }

    #[test]
    fn empty_plan_disarms_fast_path() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(FaultPlan::none());
        point("anything");
        assert!(!armed());
        reset_to_env();
    }
}
