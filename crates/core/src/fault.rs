//! Deterministic fault injection: declarative, virtual-time fault
//! plans and the runtime engine that arms them at the transport's
//! seams.
//!
//! A [`FaultPlan`] is a list of scheduled [`FaultEvent`]s — "at 5 ms,
//! tear the CMA window", "drop the next two DONE packets", "rank 1
//! stops polling for 10 ms". The plan is pure data (built in code or
//! parsed from the `NEMESIS_FAULT_PLAN` grammar) and fully
//! deterministic: the same plan against the same traffic produces the
//! same fault sequence, which is what lets the chaos sweep assert
//! byte-identity instead of sampling.
//!
//! The [`FaultEngine`] is the runtime half, owned by
//! [`Nemesis`](crate::comm::Nemesis): injection sites query it at
//! their seam (packet enqueue, rail drive, CMA window read, progress
//! poll) and it consumes event budgets under a lock. When the config
//! carries no plan the engine is a `None` and every query is a single
//! branch — the fault-free hot path stays bit-identical to the seed.
//!
//! ## Plan grammar (`NEMESIS_FAULT_PLAN`)
//!
//! Semicolon-separated events, each `name[@at][:key=value,...]`:
//!
//! ```text
//! rail-fail:rail=knem,times=2; window-revoke@5ms; drop-done:count=2
//! stall@2ms:rank=1,for=10ms;   slow-rail:rail=knem,extra=1ms,for=50ms
//! ```
//!
//! * `name` — `rail-fail`, `window-revoke`, `drop-rts`, `dup-rts`,
//!   `drop-done`, `dup-done`, `stall`, `slow-rail`.
//! * `@at` — virtual time the event arms (default `0`). Times accept
//!   `ns`/`us`/`ms`/`s` suffixes; bare numbers are picoseconds.
//! * `rail=` — `cma` | `knem` | `vmsplice` | `shm` | `knem2` (the
//!   striped [`RailKind`](crate::lmt::RailKind) codes; `knem2` is the
//!   second I/OAT channel's rail).
//! * `times=` / `count=` — event budget (default 1).
//! * `rank=` + `for=` — stall target and duration (`for=forever` for
//!   an unbounded window; also valid for `slow-rail`).

use std::sync::Mutex;

use nemesis_model::sync::lock;
use nemesis_sim::Ps;

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time at which the fault arms.
    pub at: Ps,
    /// What happens.
    pub kind: FaultKind,
}

/// The fault classes the engine can inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Abort a striped rail of this kind-code the next `times` times a
    /// receiver drives it. Only the KNEM/I-OAT rail is abortable (it is
    /// receiver-driven; its bytes can be discarded before they land) —
    /// the striped op ignores armed failures for other kinds.
    RailFail {
        /// [`RailKind`](crate::lmt::RailKind) code (see module doc).
        rail: u8,
        /// How many rail drives abort (`u32::MAX` ≈ every pair once,
        /// since the rail-health registry gates marking per pair).
        times: u32,
    },
    /// Tear the next CMA window read: the receiver must treat every
    /// byte read so far as suspect and re-read the whole range through
    /// a fresh pipeline over the (still valid) anchor window.
    WindowRevoke,
    /// Drop the next `count` RTS packets at the enqueue seam.
    DropRts {
        /// Packets to drop.
        count: u32,
    },
    /// Deliver the next `count` RTS packets twice.
    DupRts {
        /// Packets to duplicate.
        count: u32,
    },
    /// Drop the next `count` DONE packets at the enqueue seam.
    DropDone {
        /// Packets to drop.
        count: u32,
    },
    /// Deliver the next `count` DONE packets twice.
    DupDone {
        /// Packets to duplicate.
        count: u32,
    },
    /// `rank` stops polling its progress engine for `dur` (it resumes
    /// by itself — the peer-health machinery must tolerate the outage
    /// and re-admit the peer afterwards).
    Stall {
        /// The rank that goes silent.
        rank: usize,
        /// Outage length (`Ps::MAX` = forever).
        dur: Ps,
    },
    /// Every progress step of rails of this kind costs `extra` more
    /// virtual time while armed — a degraded, not dead, mechanism.
    SlowRail {
        /// [`RailKind`](crate::lmt::RailKind) code.
        rail: u8,
        /// Added latency per step.
        extra: Ps,
        /// How long the slowdown lasts (`Ps::MAX` = forever).
        dur: Ps,
    },
}

/// A deterministic, virtual-time-scheduled fault schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The scheduled events, in no particular order (each carries its
    /// own arm time).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The compatibility constructor for the retired
    /// `stripe_fault_rail` knob: fail the KNEM/I-OAT rail on first
    /// drive, once per directed pair (the registry gates the marking,
    /// so an unbounded budget reproduces the old once-per-pair
    /// semantics exactly).
    pub fn knem_rail_failure() -> Self {
        Self {
            events: vec![FaultEvent {
                at: 0,
                kind: FaultKind::RailFail {
                    rail: 1,
                    times: u32::MAX,
                },
            }],
        }
    }

    /// Parse the `NEMESIS_FAULT_PLAN` grammar (see the module doc).
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut events = Vec::new();
        for raw in s.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            events.push(parse_event(raw)?);
        }
        Ok(Self { events })
    }

    /// Resolve the default plan from `NEMESIS_FAULT_PLAN` (unset or
    /// empty = no injection); a malformed plan fails loudly, like the
    /// other `NEMESIS_*` hooks.
    pub fn from_env() -> Option<Self> {
        match std::env::var("NEMESIS_FAULT_PLAN") {
            Err(_) => None,
            Ok(s) if s.trim().is_empty() => None,
            Ok(s) => match Self::parse(&s) {
                Ok(p) => Some(p),
                Err(e) => panic!("NEMESIS_FAULT_PLAN={s:?}: {e}"),
            },
        }
    }
}

/// Parse one `name[@at][:key=value,...]` event.
fn parse_event(raw: &str) -> Result<FaultEvent, String> {
    let (head, params) = match raw.split_once(':') {
        Some((h, p)) => (h.trim(), p),
        None => (raw, ""),
    };
    let (name, at) = match head.split_once('@') {
        Some((n, t)) => (n.trim(), parse_time(t.trim())?),
        None => (head, 0),
    };
    let mut rail = None;
    let mut times = None;
    let mut count = None;
    let mut rank = None;
    let mut dur = None;
    let mut extra = None;
    for kv in params.split(',') {
        let kv = kv.trim();
        if kv.is_empty() {
            continue;
        }
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("parameter {kv:?} is not key=value"))?;
        let (k, v) = (k.trim(), v.trim());
        match k {
            "rail" => rail = Some(parse_rail(v)?),
            "times" => times = Some(parse_u32(v)?),
            "count" => count = Some(parse_u32(v)?),
            "rank" => rank = Some(v.parse::<usize>().map_err(|_| format!("bad rank {v:?}"))?),
            "for" => {
                dur = Some(if v == "forever" {
                    Ps::MAX
                } else {
                    parse_time(v)?
                })
            }
            "extra" => extra = Some(parse_time(v)?),
            other => return Err(format!("unknown parameter {other:?} in {raw:?}")),
        }
    }
    let kind = match name {
        "rail-fail" => FaultKind::RailFail {
            rail: rail.unwrap_or(1),
            times: times.unwrap_or(1),
        },
        "window-revoke" => FaultKind::WindowRevoke,
        "drop-rts" => FaultKind::DropRts {
            count: count.unwrap_or(1),
        },
        "dup-rts" => FaultKind::DupRts {
            count: count.unwrap_or(1),
        },
        "drop-done" => FaultKind::DropDone {
            count: count.unwrap_or(1),
        },
        "dup-done" => FaultKind::DupDone {
            count: count.unwrap_or(1),
        },
        "stall" => FaultKind::Stall {
            rank: rank.ok_or_else(|| format!("stall needs rank= in {raw:?}"))?,
            dur: dur.ok_or_else(|| format!("stall needs for= in {raw:?}"))?,
        },
        "slow-rail" => FaultKind::SlowRail {
            rail: rail.unwrap_or(1),
            extra: extra.ok_or_else(|| format!("slow-rail needs extra= in {raw:?}"))?,
            dur: dur.unwrap_or(Ps::MAX),
        },
        other => {
            return Err(format!(
                "unknown fault {other:?} (expected rail-fail | window-revoke | drop-rts | \
                 dup-rts | drop-done | dup-done | stall | slow-rail)"
            ))
        }
    };
    Ok(FaultEvent { at, kind })
}

/// Rail name → [`RailKind`](crate::lmt::RailKind) code.
fn parse_rail(v: &str) -> Result<u8, String> {
    match v {
        "cma" => Ok(0),
        "knem" => Ok(1),
        "vmsplice" => Ok(2),
        "shm" => Ok(3),
        "knem2" => Ok(4),
        other => Err(format!(
            "unknown rail {other:?} (expected cma | knem | vmsplice | shm | knem2)"
        )),
    }
}

fn parse_u32(v: &str) -> Result<u32, String> {
    v.parse::<u32>().map_err(|_| format!("bad count {v:?}"))
}

/// Parse a time: bare picoseconds, or a `ns`/`us`/`ms`/`s` suffix
/// (1 s = 10^12 ps — the simulator's clock).
fn parse_time(s: &str) -> Result<Ps, String> {
    let (digits, mult): (&str, Ps) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000_000)
    } else if let Some(d) = s.strip_suffix("ps") {
        (d, 1)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000_000)
    } else {
        (s, 1)
    };
    let v: Ps = digits
        .trim()
        .parse()
        .map_err(|_| format!("bad time {s:?}"))?;
    v.checked_mul(mult)
        .ok_or_else(|| format!("time {s:?} overflows"))
}

/// What the enqueue seam does with a control packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketAction {
    /// Normal delivery.
    Deliver,
    /// Silently discard (the packet never reaches the peer's queue).
    Drop,
    /// Enqueue the packet twice.
    Duplicate,
}

/// Budget tracking for one countable event class.
#[derive(Debug, Default)]
struct Budget {
    /// `(arm_time, remaining)` per scheduled event.
    slots: Vec<(Ps, u32)>,
}

impl Budget {
    /// Consume one unit from the earliest armed slot.
    fn take(&mut self, now: Ps) -> bool {
        for (at, left) in &mut self.slots {
            if *at <= now && *left > 0 {
                *left -= 1;
                return true;
            }
        }
        false
    }

    /// Whether an armed slot has budget left (non-consuming).
    fn armed(&self, now: Ps) -> bool {
        self.slots.iter().any(|&(at, left)| at <= now && left > 0)
    }

    /// Consume one unit regardless of arm time (pairs with a prior
    /// [`Budget::armed`] check).
    fn consume(&mut self) {
        for (_, left) in &mut self.slots {
            if *left > 0 {
                *left -= 1;
                return;
            }
        }
    }
}

/// Mutable engine state, behind the lock.
#[derive(Debug, Default)]
struct EngineState {
    /// Rail-abort budgets, one [`Budget`] per rail code (index = code).
    rail_fail: [Budget; 4],
    /// One-shot window revocations still pending.
    window_revoke: Budget,
    drop_rts: Budget,
    dup_rts: Budget,
    drop_done: Budget,
    dup_done: Budget,
    /// `(from, until, rank)` stall windows.
    stalls: Vec<(Ps, Ps, usize)>,
    /// `(from, until, rail_code, extra)` slowdown windows.
    slow: Vec<(Ps, Ps, u8, Ps)>,
}

/// The runtime fault injector; owned by
/// [`Nemesis`](crate::comm::Nemesis), queried at every seam. `None`
/// inner state = no plan = every query is one branch.
#[derive(Debug)]
pub struct FaultEngine {
    inner: Option<Mutex<EngineState>>,
}

impl FaultEngine {
    /// Build the engine from the configured plan.
    pub fn new(plan: Option<&FaultPlan>) -> Self {
        let Some(plan) = plan else {
            return Self { inner: None };
        };
        let mut st = EngineState::default();
        for ev in &plan.events {
            match ev.kind {
                FaultKind::RailFail { rail, times } => {
                    st.rail_fail[rail.min(3) as usize]
                        .slots
                        .push((ev.at, times));
                }
                FaultKind::WindowRevoke => st.window_revoke.slots.push((ev.at, 1)),
                FaultKind::DropRts { count } => st.drop_rts.slots.push((ev.at, count)),
                FaultKind::DupRts { count } => st.dup_rts.slots.push((ev.at, count)),
                FaultKind::DropDone { count } => st.drop_done.slots.push((ev.at, count)),
                FaultKind::DupDone { count } => st.dup_done.slots.push((ev.at, count)),
                FaultKind::Stall { rank, dur } => {
                    st.stalls.push((ev.at, ev.at.saturating_add(dur), rank));
                }
                FaultKind::SlowRail { rail, extra, dur } => {
                    st.slow
                        .push((ev.at, ev.at.saturating_add(dur), rail, extra));
                }
            }
        }
        Self {
            inner: Some(Mutex::new(st)),
        }
    }

    /// Whether any plan is loaded. Recovery bookkeeping (retry clocks,
    /// dedup sets, health cells) is only armed when this is true, so
    /// the fault-free path stays identical to the seed.
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// Consult the drop/duplicate budgets for one control packet
    /// (`is_rts` selects the RTS budgets, else DONE). Drops outrank
    /// duplicates when both are armed.
    pub fn packet_action(&self, is_rts: bool, now: Ps) -> PacketAction {
        let Some(inner) = &self.inner else {
            return PacketAction::Deliver;
        };
        let st = &mut *lock(inner);
        let (drop, dup) = if is_rts {
            (&mut st.drop_rts, &mut st.dup_rts)
        } else {
            (&mut st.drop_done, &mut st.dup_done)
        };
        if drop.take(now) {
            PacketAction::Drop
        } else if dup.take(now) {
            PacketAction::Duplicate
        } else {
            PacketAction::Deliver
        }
    }

    /// Whether a rail-abort is armed for this rail code (non-consuming
    /// — the caller decides whether the abort actually applies, e.g.
    /// the per-pair registry gate, then calls
    /// [`consume_rail_fail`](Self::consume_rail_fail)).
    pub fn rail_fail_armed(&self, rail: u8, now: Ps) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        lock(inner).rail_fail[rail.min(3) as usize].armed(now)
    }

    /// Spend one unit of the rail-abort budget.
    pub fn consume_rail_fail(&self, rail: u8) {
        if let Some(inner) = &self.inner {
            lock(inner).rail_fail[rail.min(3) as usize].consume();
        }
    }

    /// Consume a pending window revocation, if one is armed. The CMA
    /// receive op calls this per drive; `true` means the read it just
    /// issued is torn and the range must be re-read.
    pub fn take_window_revoke(&self, now: Ps) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        lock(inner).window_revoke.take(now)
    }

    /// Whether `rank` is inside a stall window (non-consuming; the
    /// rank resumes when the window closes).
    pub fn stalled(&self, rank: usize, now: Ps) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        lock(inner)
            .stalls
            .iter()
            .any(|&(from, until, r)| r == rank && from <= now && now < until)
    }

    /// Extra per-step latency for rails of this kind right now (0 when
    /// no slowdown window is open).
    pub fn slow_extra(&self, rail: u8, now: Ps) -> Ps {
        let Some(inner) = &self.inner else {
            return 0;
        };
        lock(inner)
            .slow
            .iter()
            .filter(|&&(from, until, r, _)| r == rail && from <= now && now < until)
            .map(|&(_, _, _, extra)| extra)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let p = FaultPlan::parse(
            "rail-fail:rail=knem,times=2; window-revoke@5ms; drop-done:count=2; \
             dup-rts@1us; stall@2ms:rank=1,for=10ms; slow-rail:rail=shm,extra=1ms,for=forever",
        )
        .unwrap();
        assert_eq!(
            p.events,
            vec![
                FaultEvent {
                    at: 0,
                    kind: FaultKind::RailFail { rail: 1, times: 2 }
                },
                FaultEvent {
                    at: 5_000_000_000,
                    kind: FaultKind::WindowRevoke
                },
                FaultEvent {
                    at: 0,
                    kind: FaultKind::DropDone { count: 2 }
                },
                FaultEvent {
                    at: 1_000_000,
                    kind: FaultKind::DupRts { count: 1 }
                },
                FaultEvent {
                    at: 2_000_000_000,
                    kind: FaultKind::Stall {
                        rank: 1,
                        dur: 10_000_000_000
                    }
                },
                FaultEvent {
                    at: 0,
                    kind: FaultKind::SlowRail {
                        rail: 3,
                        extra: 1_000_000_000,
                        dur: Ps::MAX
                    }
                },
            ]
        );
    }

    #[test]
    fn empty_plan_and_whitespace_are_fine() {
        assert_eq!(FaultPlan::parse("").unwrap().events, vec![]);
        assert_eq!(FaultPlan::parse(" ; ; ").unwrap().events, vec![]);
    }

    #[test]
    fn rejects_malformed_events() {
        assert!(FaultPlan::parse("explode").is_err());
        assert!(FaultPlan::parse("rail-fail:rail=floppy").is_err());
        assert!(
            FaultPlan::parse("stall:rank=1").is_err(),
            "stall needs for="
        );
        assert!(FaultPlan::parse("drop-rts:count=x").is_err());
        assert!(FaultPlan::parse("window-revoke@never").is_err());
        assert!(FaultPlan::parse("drop-rts:blah").is_err());
    }

    #[test]
    fn engine_consumes_budgets_in_virtual_time() {
        let plan = FaultPlan::parse("drop-done@1ms:count=1; dup-done:count=1").unwrap();
        let eng = FaultEngine::new(Some(&plan));
        assert!(eng.active());
        // Before 1 ms only the duplicate budget is armed.
        assert_eq!(eng.packet_action(false, 0), PacketAction::Duplicate);
        assert_eq!(eng.packet_action(false, 0), PacketAction::Deliver);
        // Past 1 ms the drop fires once, then the budget is spent.
        assert_eq!(eng.packet_action(false, 2_000_000_000), PacketAction::Drop);
        assert_eq!(
            eng.packet_action(false, 2_000_000_000),
            PacketAction::Deliver
        );
        // RTS budgets are independent of DONE budgets.
        assert_eq!(
            eng.packet_action(true, 2_000_000_000),
            PacketAction::Deliver
        );
    }

    #[test]
    fn engine_without_plan_is_inert() {
        let eng = FaultEngine::new(None);
        assert!(!eng.active());
        assert_eq!(eng.packet_action(true, 0), PacketAction::Deliver);
        assert!(!eng.rail_fail_armed(1, u64::MAX));
        assert!(!eng.take_window_revoke(u64::MAX));
        assert!(!eng.stalled(0, u64::MAX));
        assert_eq!(eng.slow_extra(1, u64::MAX), 0);
    }

    #[test]
    fn stall_and_slow_windows_open_and_close() {
        let plan =
            FaultPlan::parse("stall@1ms:rank=1,for=2ms; slow-rail@1ms:rail=knem,extra=5us,for=2ms")
                .unwrap();
        let eng = FaultEngine::new(Some(&plan));
        let ms = 1_000_000_000;
        assert!(!eng.stalled(1, 0));
        assert!(eng.stalled(1, 2 * ms));
        assert!(!eng.stalled(0, 2 * ms), "only the named rank stalls");
        assert!(!eng.stalled(1, 3 * ms), "window closed: the rank resumes");
        assert_eq!(eng.slow_extra(1, 0), 0);
        assert_eq!(eng.slow_extra(1, 2 * ms), 5_000_000);
        assert_eq!(eng.slow_extra(0, 2 * ms), 0);
        assert_eq!(eng.slow_extra(1, 3 * ms), 0);
    }

    #[test]
    fn compat_constructor_matches_the_old_knob() {
        let p = FaultPlan::knem_rail_failure();
        let eng = FaultEngine::new(Some(&p));
        assert!(eng.rail_fail_armed(1, 0));
        eng.consume_rail_fail(1);
        // Unbounded budget: still armed for the next pair.
        assert!(eng.rail_fail_armed(1, 0));
        assert!(!eng.rail_fail_armed(0, 0), "only the KNEM rail is armed");
    }
}
