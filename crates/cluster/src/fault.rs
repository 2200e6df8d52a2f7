//! Deterministic, seed-driven fault injection for the cluster tier.
//!
//! Every robustness path in this crate — connect retry, reconnect-and-
//! resend, IO deadlines, rebalance rollback, supervision rebuild — can be
//! exercised *on purpose* by arming a [`FaultPlan`] through the
//! [`CNE_FAULT_PLAN`][FAULT_PLAN_ENV] environment variable (or
//! programmatically via [`FaultInjector::from_plan`]). The plan is pure
//! data: a seed plus a handful of one-shot directives, each of which
//! fires exactly once at a deterministic point, so a failing chaos run is
//! reproduced by re-running with the same plan string (the armed plan and
//! its seed are printed to stderr when the injector first fires).
//!
//! # Plan grammar
//!
//! Semicolon-separated `key=value` directives, all optional:
//!
//! ```text
//! seed=42;kill=bootstrap:new0;drop=3;corrupt=5;delay=2:300;torn=1;stall=3:1500
//! ```
//!
//! | directive | effect |
//! |---|---|
//! | `seed=N` | seeds the deterministic choices below (corrupted byte, torn cut point) |
//! | `kill=STEP:TARGET` | when a rebalance enters step `STEP` (lower-case [`RebalanceStep`] name), kill the targeted worker process. `TARGET` is `oldI` (current table index `I`) or `newI` (incoming worker `I`); repeatable |
//! | `drop=K` | swallow the Kth coordinator request frame instead of sending it — the response read hits the IO deadline and the reconnect-and-resend path runs |
//! | `corrupt=K` | flip one seed-chosen payload byte of the Kth coordinator request frame — the worker rejects the frame and drops the connection, same recovery path |
//! | `delay=K:MS` | sleep `MS` milliseconds before sending the Kth coordinator request frame |
//! | `torn=K` | truncate the Kth shard-snapshot file the coordinator writes, at a seed-chosen cut — models a crash between write and fsync; the adopting worker's checksum validation rejects it |
//! | `stall=K:MS` | **worker-side**: hold the Kth response this worker process writes for `MS` milliseconds — with `MS` past the coordinator's IO deadline this is the stalled-socket leg |
//!
//! Frame counting (`drop`/`corrupt`/`delay`) covers coordinator *request*
//! frames sent through the retried exchange path; handshake frames are
//! exempt so a directive's index stays stable across reconnects. Every
//! coordinator path sends from one thread in a fixed order (the round-2
//! fan-out writes its requests in worker order before reading any
//! response), so which exchange the Kth frame lands on is deterministic.
//!
//! [`RebalanceStep`]: crate::RebalanceStep

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Environment variable a [`FaultPlan`] is read from, by both the
/// coordinator process ([`FaultInjector::from_env`], consulted by the
/// default [`ClusterConfig`](crate::ClusterConfig)) and every worker
/// process it spawns (workers inherit the environment and apply the
/// worker-side directives themselves).
pub const FAULT_PLAN_ENV: &str = "CNE_FAULT_PLAN";

/// Which worker a `kill` directive targets while a rebalance is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillTarget {
    /// A worker in the coordinator's current (pre-commit) table.
    Old(usize),
    /// An incoming worker spawned by the rebalance in flight.
    New(usize),
}

/// A parsed fault plan: a seed plus one-shot fault directives. See the
/// [module docs](self) for the grammar and the effect of each directive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seeds the deterministic choices (corrupted byte, torn cut point).
    pub seed: u64,
    /// `(rebalance step name, target)` pairs; each fires once when a
    /// rebalance enters the named step.
    pub kill: Vec<(String, KillTarget)>,
    /// Swallow the Kth coordinator request frame (1-based).
    pub drop_frame: Option<u64>,
    /// Corrupt one payload byte of the Kth coordinator request frame.
    pub corrupt_frame: Option<u64>,
    /// Sleep before sending the Kth coordinator request frame.
    pub delay_frame: Option<(u64, Duration)>,
    /// Truncate the Kth shard-snapshot file written (1-based).
    pub torn_write: Option<u64>,
    /// Worker-side: hold this process's Kth response for the duration.
    pub stall: Option<(u64, Duration)>,
    /// The plan string as parsed, kept verbatim for the reproduction
    /// banner.
    pub source: String,
}

impl FaultPlan {
    /// Parses the [module-doc](self) grammar.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed directive —
    /// a fault plan with a typo must fail loudly, not silently test
    /// nothing.
    pub fn parse(text: &str) -> std::result::Result<Self, String> {
        let mut plan = Self {
            source: text.to_string(),
            ..Self::default()
        };
        for directive in text.split(';').filter(|d| !d.trim().is_empty()) {
            let (key, value) = directive
                .split_once('=')
                .ok_or_else(|| format!("directive `{directive}` is not key=value"))?;
            let bad = |detail: &str| format!("directive `{directive}`: {detail}");
            let parse_u64 =
                |s: &str, what: &str| s.parse::<u64>().map_err(|_| bad(&format!("bad {what}")));
            match key.trim() {
                "seed" => plan.seed = parse_u64(value, "seed")?,
                "kill" => {
                    let (step, target) = value
                        .split_once(':')
                        .ok_or_else(|| bad("expected STEP:TARGET"))?;
                    let target = target.trim();
                    let parsed = if let Some(i) = target.strip_prefix("old") {
                        KillTarget::Old(i.parse().map_err(|_| bad("bad old-worker index"))?)
                    } else if let Some(i) = target.strip_prefix("new") {
                        KillTarget::New(i.parse().map_err(|_| bad("bad new-worker index"))?)
                    } else {
                        return Err(bad("target must be oldI or newI"));
                    };
                    plan.kill.push((step.trim().to_ascii_lowercase(), parsed));
                }
                "drop" => plan.drop_frame = Some(parse_u64(value, "frame index")?),
                "corrupt" => plan.corrupt_frame = Some(parse_u64(value, "frame index")?),
                "delay" => {
                    let (k, ms) = value.split_once(':').ok_or_else(|| bad("expected K:MS"))?;
                    plan.delay_frame = Some((
                        parse_u64(k, "frame index")?,
                        Duration::from_millis(parse_u64(ms, "delay ms")?),
                    ));
                }
                "torn" => plan.torn_write = Some(parse_u64(value, "write index")?),
                "stall" => {
                    let (k, ms) = value.split_once(':').ok_or_else(|| bad("expected K:MS"))?;
                    plan.stall = Some((
                        parse_u64(k, "response index")?,
                        Duration::from_millis(parse_u64(ms, "stall ms")?),
                    ));
                }
                other => return Err(format!("unknown fault directive `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Whether any directive is armed (an all-default plan injects
    /// nothing and costs nothing on the hot paths).
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.kill.is_empty()
            || self.drop_frame.is_some()
            || self.corrupt_frame.is_some()
            || self.delay_frame.is_some()
            || self.torn_write.is_some()
            || self.stall.is_some()
    }
}

/// What the injector decided about one outbound frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFate {
    /// Send the (possibly perturbed) bytes.
    Send,
    /// Swallow the frame entirely; the sender proceeds to its read and
    /// the IO deadline does the rest.
    Drop,
}

/// The runtime side of a [`FaultPlan`]: counters that decide *when* each
/// one-shot directive fires, shared via `Arc` across every connection of
/// one coordinator. Constructed once per plan; an injector built from an
/// empty plan is inert.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Coordinator request frames sent so far (handshakes exempt).
    frames: AtomicU64,
    /// Shard-snapshot files written so far.
    writes: AtomicU64,
    /// Worker-side responses written so far (worker processes only).
    responses: AtomicU64,
    /// Indices into `plan.kill` that have already fired.
    kills_fired: Mutex<Vec<bool>>,
    /// Whether the reproduction banner has been printed.
    announced: AtomicBool,
}

impl FaultInjector {
    /// Wraps a plan in a fresh injector (all counters at zero).
    #[must_use]
    pub fn from_plan(plan: FaultPlan) -> Arc<Self> {
        let fired = vec![false; plan.kill.len()];
        Arc::new(Self {
            plan,
            kills_fired: Mutex::new(fired),
            ..Self::default()
        })
    }

    /// Reads [`FAULT_PLAN_ENV`] and arms whatever it holds; an unset
    /// variable yields an inert injector.
    ///
    /// # Panics
    ///
    /// Panics on a malformed plan string: a chaos run with a typo in its
    /// plan must fail loudly instead of silently testing nothing.
    #[must_use]
    pub fn from_env() -> Arc<Self> {
        match std::env::var(FAULT_PLAN_ENV) {
            Ok(text) => Self::from_plan(
                FaultPlan::parse(&text).unwrap_or_else(|e| panic!("{FAULT_PLAN_ENV}: {e}")),
            ),
            Err(_) => Arc::new(Self::default()),
        }
    }

    /// Whether any directive is armed.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// The armed plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Prints the reproduction banner once per injector: the seed and
    /// the verbatim plan string, so any failure downstream of an
    /// injected fault can be replayed exactly.
    fn announce(&self) {
        if self.is_active() && !self.announced.swap(true, Ordering::Relaxed) {
            eprintln!(
                "cluster: fault plan armed (seed={}): {}",
                self.plan.seed, self.plan.source
            );
        }
    }

    /// Counts one outbound coordinator request frame and applies any
    /// armed frame directive to it: may sleep (`delay`), flip a payload
    /// byte in place (`corrupt`), or order the frame swallowed (`drop`).
    pub fn outbound_frame(&self, frame: &mut [u8]) -> FrameFate {
        if !self.is_active() {
            return FrameFate::Send;
        }
        let nth = self.frames.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some((k, pause)) = self.plan.delay_frame {
            if nth == k {
                self.announce();
                std::thread::sleep(pause);
            }
        }
        if self.plan.corrupt_frame == Some(nth) {
            self.announce();
            // Flip a seed-chosen byte past the kind + length prefix —
            // landing on the frame checksum or the payload, either of
            // which the receiver's integrity check rejects before decode
            // (`frame checksum mismatch`), dropping the connection and
            // driving the reconnect-and-resend path. Kind and length are
            // left intact so the receiver still reads a complete frame —
            // a torn-stream desync is the torn-write leg's job, not this
            // one's.
            let h = splitmix64(self.plan.seed ^ nth);
            let at = if frame.len() > 5 {
                5 + (h as usize % (frame.len() - 5))
            } else {
                0
            };
            frame[at] ^= ((h >> 8) as u8) | 1;
        }
        if self.plan.drop_frame == Some(nth) {
            self.announce();
            return FrameFate::Drop;
        }
        FrameFate::Send
    }

    /// Counts one shard-snapshot file write of `len` bytes; `Some(keep)`
    /// means this write is the torn one and only the first `keep` bytes
    /// may land on disk.
    pub fn torn_write(&self, len: usize) -> Option<usize> {
        self.plan.torn_write?;
        let nth = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.torn_write == Some(nth) && len > 1 {
            self.announce();
            // A seed-chosen cut strictly inside the image: never empty
            // (that would be a missing file, a different failure), never
            // complete.
            let h = splitmix64(self.plan.seed ^ 0x70524e_u64 ^ nth);
            Some(1 + (h as usize % (len - 1)))
        } else {
            None
        }
    }

    /// All armed kill directives for the rebalance step named `step`
    /// that have not fired yet; marks them fired.
    pub fn kills_due(&self, step: &str) -> Vec<KillTarget> {
        if self.plan.kill.is_empty() {
            return Vec::new();
        }
        let mut fired = self.kills_fired.lock().expect("fault injector poisoned");
        let mut due = Vec::new();
        for (i, (at, target)) in self.plan.kill.iter().enumerate() {
            if !fired[i] && at == step {
                fired[i] = true;
                due.push(*target);
            }
        }
        if !due.is_empty() {
            self.announce();
        }
        due
    }

    /// Worker-side: counts one response about to be written and sleeps
    /// through an armed `stall` directive when this is the Kth.
    pub fn stall_before_response(&self) {
        let Some((k, pause)) = self.plan.stall else {
            return;
        };
        let nth = self.responses.fetch_add(1, Ordering::Relaxed) + 1;
        if nth == k {
            self.announce();
            std::thread::sleep(pause);
        }
    }
}

/// The process-global injector a **worker** consults: parsed from
/// [`FAULT_PLAN_ENV`] once, on first use. Workers inherit the
/// coordinator's environment, so arming a plan there arms the
/// worker-side directives (`stall`) everywhere at once.
pub(crate) fn worker_injector() -> &'static FaultInjector {
    static INJECTOR: OnceLock<Arc<FaultInjector>> = OnceLock::new();
    INJECTOR.get_or_init(FaultInjector::from_env)
}

/// SplitMix64: the deterministic hash behind every seed-derived choice.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_grammar_round_trips_every_directive() {
        let plan =
            FaultPlan::parse("seed=42;kill=bootstrap:new0;kill=quiesce:old2;drop=3;corrupt=5;delay=2:300;torn=1;stall=3:1500")
                .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(
            plan.kill,
            vec![
                ("bootstrap".into(), KillTarget::New(0)),
                ("quiesce".into(), KillTarget::Old(2)),
            ]
        );
        assert_eq!(plan.drop_frame, Some(3));
        assert_eq!(plan.corrupt_frame, Some(5));
        assert_eq!(plan.delay_frame, Some((2, Duration::from_millis(300))));
        assert_eq!(plan.torn_write, Some(1));
        assert_eq!(plan.stall, Some((3, Duration::from_millis(1500))));
        assert!(plan.is_active());
        assert!(!FaultPlan::parse("").unwrap().is_active());
        assert!(!FaultPlan::parse("seed=7").unwrap().is_active());
    }

    #[test]
    fn malformed_plans_are_rejected_loudly() {
        for bad in [
            "bogus=1",
            "kill=nostep",
            "kill=quiesce:worker3",
            "drop=abc",
            "delay=3",
            "stall=1:xs",
            "seed",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn directives_fire_exactly_once_at_their_index() {
        let plan = FaultPlan::parse("seed=9;drop=2;corrupt=3").unwrap();
        let inj = FaultInjector::from_plan(plan);
        let mut frame1 = sample_frame();
        assert_eq!(inj.outbound_frame(&mut frame1), FrameFate::Send);
        assert_eq!(frame1, sample_frame(), "frame 1 untouched");
        let mut frame2 = sample_frame();
        assert_eq!(inj.outbound_frame(&mut frame2), FrameFate::Drop);
        let mut frame3 = sample_frame();
        assert_eq!(inj.outbound_frame(&mut frame3), FrameFate::Send);
        assert_ne!(frame3, sample_frame(), "frame 3 corrupted");
        assert_eq!(
            frame3.len(),
            sample_frame().len(),
            "corruption flips bytes, never resizes"
        );
        let mut frame4 = sample_frame();
        assert_eq!(inj.outbound_frame(&mut frame4), FrameFate::Send);
        assert_eq!(frame4, sample_frame(), "one-shot: frame 4 untouched");
    }

    #[test]
    fn corruption_is_reproducible_from_the_seed() {
        let corrupt = |seed: u64| {
            let inj = FaultInjector::from_plan(
                FaultPlan::parse(&format!("seed={seed};corrupt=1")).unwrap(),
            );
            let mut frame = sample_frame();
            let _ = inj.outbound_frame(&mut frame);
            frame
        };
        assert_eq!(corrupt(7), corrupt(7), "same seed, same corruption");
        assert_ne!(corrupt(7), corrupt(8), "different seed, different bytes");
    }

    #[test]
    fn torn_write_keeps_a_strict_prefix() {
        let inj = FaultInjector::from_plan(FaultPlan::parse("seed=3;torn=2").unwrap());
        assert_eq!(inj.torn_write(1000), None, "write 1 lands intact");
        let keep = inj.torn_write(1000).expect("write 2 is torn");
        assert!((1..1000).contains(&keep), "strict prefix, got {keep}");
        assert_eq!(inj.torn_write(1000), None, "one-shot");
    }

    #[test]
    fn kills_fire_once_per_directive_and_only_at_their_step() {
        let inj = FaultInjector::from_plan(
            FaultPlan::parse("kill=bootstrap:new1;kill=bootstrap:old0;kill=cutover:old1").unwrap(),
        );
        assert!(inj.kills_due("quiesce").is_empty());
        assert_eq!(
            inj.kills_due("bootstrap"),
            vec![KillTarget::New(1), KillTarget::Old(0)]
        );
        assert!(inj.kills_due("bootstrap").is_empty(), "one-shot");
        assert_eq!(inj.kills_due("cutover"), vec![KillTarget::Old(1)]);
    }

    /// A representative frame image (kind + length prefix + payload).
    fn sample_frame() -> Vec<u8> {
        crate::wire::Message::Update {
            batch_seq: 1,
            deltas: vec![bigraph::GraphDelta::AddEdge { upper: 3, lower: 9 }],
        }
        .to_frame_bytes()
    }
}
