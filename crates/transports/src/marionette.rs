//! marionette — programmable network-traffic obfuscation driven by a
//! probabilistic automaton expressed in a domain-specific language.
//!
//! Marionette's defining feature is that the *user programs* the cover
//! traffic: a DSL describes protocol states (e.g. an FTP session) and
//! probabilistic transitions, each with an action (send a cover message,
//! receive one, or smuggle a bounded payload chunk inside a cover
//! message). The flexibility is also the performance story: payload only
//! moves when the automaton happens to traverse payload-carrying
//! transitions, at cover-protocol pacing — which is why marionette is the
//! slowest PT in every one of the paper's experiments (§4.2: 20.8 s
//! median access, 8× vanilla Tor; Figure 9: > 30 s overhead).
//!
//! Implemented pieces:
//!
//! * a parser for the transition DSL (see [`Automaton::parse`]);
//! * validation: per-state probabilities sum to 1, the payload state is
//!   reachable;
//! * a deterministic interpreter; the transport model **derives** its
//!   goodput ceiling and ramp-up latency by executing the automaton —
//!   nothing about marionette's slowness is hard-coded.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use ptperf_sim::{Location, SimDuration, SimRng};
use ptperf_web::Channel;

use crate::common::{own_host_channel, EstablishScratch};
use crate::ids::PtId;
use crate::transport::{AccessOptions, Deployment, PluggableTransport};

/// An automaton action attached to a transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send a fixed cover message of `bytes` (no payload).
    Send {
        /// Cover-message label (for traces).
        name: String,
        /// Cover bytes on the wire.
        bytes: u32,
    },
    /// Wait to receive a cover message of `bytes`.
    Recv {
        /// Cover-message label.
        name: String,
        /// Cover bytes on the wire.
        bytes: u32,
    },
    /// Send a cover message smuggling up to `max_payload` payload bytes.
    SendPayload {
        /// Maximum smuggled payload per traversal.
        max_payload: u32,
    },
}

/// A probabilistic transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Source state.
    pub from: String,
    /// Destination state.
    pub to: String,
    /// Probability of taking this transition from `from`.
    pub prob: f64,
    /// The action performed.
    pub action: Action,
}

/// DSL parse/validation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum DslError {
    /// A line did not match `FROM -> TO: action(args) PROB`.
    BadLine(usize),
    /// Unknown action name.
    UnknownAction(String),
    /// Probabilities out of a state do not sum to ~1.
    BadProbabilities(String),
    /// No transition carries payload.
    NoPayloadPath,
    /// The payload-carrying state is unreachable from `start`.
    PayloadUnreachable,
    /// The automaton has no transitions at all.
    Empty,
}

impl std::fmt::Display for DslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DslError::BadLine(n) => write!(f, "cannot parse DSL line {n}"),
            DslError::UnknownAction(a) => write!(f, "unknown action '{a}'"),
            DslError::BadProbabilities(s) => {
                write!(f, "probabilities out of state '{s}' do not sum to 1")
            }
            DslError::NoPayloadPath => write!(f, "no transition carries payload"),
            DslError::PayloadUnreachable => write!(f, "payload state unreachable from start"),
            DslError::Empty => write!(f, "automaton has no transitions"),
        }
    }
}

impl std::error::Error for DslError {}

/// A parsed marionette automaton.
#[derive(Debug, Clone)]
pub struct Automaton {
    transitions: Vec<Transition>,
    by_state: BTreeMap<String, Vec<usize>>,
}

impl Automaton {
    /// Parses the DSL. Grammar, one transition per line:
    ///
    /// ```text
    /// start -> banner: send(ftp_banner, 220) 1.0
    /// banner -> auth: recv(user_cmd, 64) 1.0
    /// auth -> data: send(ok, 128) 1.0
    /// data -> data: send_payload(4096) 0.8
    /// data -> idle: send(noop, 64) 0.2
    /// idle -> data: recv(ack, 32) 1.0
    /// ```
    ///
    /// `#`-prefixed lines and blank lines are ignored. Execution starts in
    /// state `start`.
    pub fn parse(src: &str) -> Result<Automaton, DslError> {
        let mut transitions = Vec::new();
        for (lineno, raw) in src.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (fromto, rest) = line.split_once(':').ok_or(DslError::BadLine(lineno + 1))?;
            let (from, to) = fromto
                .split_once("->")
                .ok_or(DslError::BadLine(lineno + 1))?;
            let rest = rest.trim();
            let (action_txt, prob_txt) =
                rest.rsplit_once(' ').ok_or(DslError::BadLine(lineno + 1))?;
            let prob: f64 = prob_txt
                .trim()
                .parse()
                .map_err(|_| DslError::BadLine(lineno + 1))?;
            let action = parse_action(action_txt.trim(), lineno + 1)?;
            transitions.push(Transition {
                from: from.trim().to_string(),
                to: to.trim().to_string(),
                prob,
                action,
            });
        }
        if transitions.is_empty() {
            return Err(DslError::Empty);
        }
        let mut by_state: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, t) in transitions.iter().enumerate() {
            by_state.entry(t.from.clone()).or_default().push(i);
        }
        // Validate probabilities.
        for (state, idxs) in &by_state {
            let sum: f64 = idxs.iter().map(|&i| transitions[i].prob).sum();
            if (sum - 1.0).abs() > 1e-6 {
                return Err(DslError::BadProbabilities(state.clone()));
            }
        }
        // Validate payload existence + reachability from `start`.
        let payload_states: Vec<&str> = transitions
            .iter()
            .filter(|t| matches!(t.action, Action::SendPayload { .. }))
            .map(|t| t.from.as_str())
            .collect();
        if payload_states.is_empty() {
            return Err(DslError::NoPayloadPath);
        }
        let mut reachable = vec!["start".to_string()];
        let mut frontier = vec!["start".to_string()];
        while let Some(s) = frontier.pop() {
            if let Some(idxs) = by_state.get(&s) {
                for &i in idxs {
                    let to = &transitions[i].to;
                    if !reachable.contains(to) {
                        reachable.push(to.clone());
                        frontier.push(to.clone());
                    }
                }
            }
        }
        if !payload_states
            .iter()
            .any(|s| reachable.iter().any(|r| r == s))
        {
            return Err(DslError::PayloadUnreachable);
        }
        Ok(Automaton {
            transitions,
            by_state,
        })
    }

    /// The built-in FTP-flavoured model marionette ships with (a cover
    /// session: banner, auth, then a data loop that smuggles payload in
    /// most iterations).
    pub fn default_ftp() -> Automaton {
        Automaton::parse(
            "# marionette default FTP cover model\n\
             start -> banner: send(ftp_banner, 220) 1.0\n\
             banner -> user: recv(user_cmd, 64) 1.0\n\
             user -> pass: send(need_pass, 128) 1.0\n\
             pass -> ready: recv(pass_cmd, 64) 1.0\n\
             ready -> data: send(login_ok, 96) 1.0\n\
             data -> data: send_payload(8192) 0.78\n\
             data -> idle: send(noop, 64) 0.12\n\
             data -> list: recv(list_cmd, 48) 0.10\n\
             idle -> data: recv(ack, 32) 1.0\n\
             list -> data: send(listing, 512) 1.0\n",
        )
        .expect("built-in model must parse")
    }

    /// Executes one transition from `state`; returns `(next_state,
    /// action)`. States with no outgoing transitions restart at `start`
    /// (cover session re-establishment).
    pub fn step<'a>(&'a self, state: &str, rng: &mut SimRng) -> (&'a str, &'a Action) {
        let idxs = match self.by_state.get(state) {
            Some(v) => v,
            None => &self.by_state["start"],
        };
        let mut roll = rng.next_f64();
        for &i in idxs {
            roll -= self.transitions[i].prob;
            if roll <= 0.0 {
                return (&self.transitions[i].to, &self.transitions[i].action);
            }
        }
        let &last = idxs.last().unwrap();
        (&self.transitions[last].to, &self.transitions[last].action)
    }

    /// Derived steady-state performance of the automaton, by executing it.
    ///
    /// * `goodput_bps`: smuggled payload bytes per second at the cover
    ///   pacing (`transition_delay` per traversal);
    /// * `ramp_up`: time from `start` until the first payload-capable
    ///   transition fires (averaged).
    pub fn derive_performance(
        &self,
        transition_delay: SimDuration,
        rng: &mut SimRng,
    ) -> DerivedPerformance {
        const STEPS: usize = 5_000;
        const RAMP_TRIALS: usize = 50;

        let mut payload_bytes = 0u64;
        let mut state = "start".to_string();
        for _ in 0..STEPS {
            let (next, action) = self.step(&state, rng);
            if let Action::SendPayload { max_payload } = action {
                payload_bytes += u64::from(*max_payload);
            }
            state = next.to_string();
        }
        let total_time = transition_delay.as_secs_f64() * STEPS as f64;
        let goodput_bps = payload_bytes as f64 / total_time;

        let mut ramp_transitions = 0usize;
        for _ in 0..RAMP_TRIALS {
            let mut state = "start".to_string();
            for step_count in 1..10_000usize {
                let (next, action) = self.step(&state, rng);
                if matches!(action, Action::SendPayload { .. }) {
                    ramp_transitions += step_count;
                    break;
                }
                state = next.to_string();
            }
        }
        let ramp_up = transition_delay.mul_f64(ramp_transitions as f64 / RAMP_TRIALS as f64);

        DerivedPerformance {
            goodput_bps,
            ramp_up,
        }
    }
}

fn parse_action(txt: &str, lineno: usize) -> Result<Action, DslError> {
    let (name, args) = txt
        .strip_suffix(')')
        .and_then(|t| t.split_once('('))
        .ok_or(DslError::BadLine(lineno))?;
    let args: Vec<&str> = args.split(',').map(str::trim).collect();
    match name {
        "send" | "recv" => {
            if args.len() != 2 {
                return Err(DslError::BadLine(lineno));
            }
            let bytes: u32 = args[1].parse().map_err(|_| DslError::BadLine(lineno))?;
            let label = args[0].to_string();
            Ok(if name == "send" {
                Action::Send { name: label, bytes }
            } else {
                Action::Recv { name: label, bytes }
            })
        }
        "send_payload" => {
            if args.len() != 1 {
                return Err(DslError::BadLine(lineno));
            }
            let max_payload: u32 = args[0].parse().map_err(|_| DslError::BadLine(lineno))?;
            Ok(Action::SendPayload { max_payload })
        }
        other => Err(DslError::UnknownAction(other.to_string())),
    }
}

/// Performance figures derived by executing an automaton.
#[derive(Debug, Clone, Copy)]
pub struct DerivedPerformance {
    /// Payload goodput ceiling, bytes per second.
    pub goodput_bps: f64,
    /// Expected time from session start to the first payload transition.
    pub ramp_up: SimDuration,
}

/// Round trips to the marionette server before the tunnel carries data:
/// TCP, then the cover-model session establishment.
pub const HANDSHAKE_ROUND_TRIPS: u32 = 2;

/// The marionette transport model.
///
/// Clones share one automaton. [`Marionette::default`] parses and
/// derives the built-in FTP model once per process and hands out
/// clones of that value, so instantiating the default transport costs
/// a reference-count bump, not a re-derivation.
#[derive(Clone)]
pub struct Marionette {
    automaton: Arc<Automaton>,
    transition_delay: SimDuration,
    // Derived once at construction: executing 5k automaton transitions
    // per establish() would dominate experiment runtime for statistics
    // that do not change between sessions.
    derived: DerivedPerformance,
}

impl Default for Marionette {
    fn default() -> Self {
        static FTP: OnceLock<Marionette> = OnceLock::new();
        FTP.get_or_init(|| {
            // FTP-style covers pace at command cadence.
            Marionette::with_automaton(Automaton::default_ftp(), SimDuration::from_millis(60))
        })
        .clone()
    }
}

impl Marionette {
    /// A marionette driven by a custom automaton.
    pub fn with_automaton(automaton: Automaton, transition_delay: SimDuration) -> Marionette {
        // A fixed derivation seed: the statistics are averages over
        // thousands of transitions, so per-session noise is negligible.
        let mut rng = SimRng::new(0x6d61_7269_6f6e);
        let derived = automaton.derive_performance(transition_delay, &mut rng);
        Marionette {
            automaton: Arc::new(automaton),
            transition_delay,
            derived,
        }
    }

    /// The automaton in use.
    pub fn automaton(&self) -> &Automaton {
        &self.automaton
    }

    /// Cover-protocol pacing: time per automaton transition. Fixed at
    /// construction, since [`Marionette::derived`] is computed from it.
    pub fn transition_delay(&self) -> SimDuration {
        self.transition_delay
    }

    /// The cached performance derivation.
    pub fn derived(&self) -> DerivedPerformance {
        self.derived
    }
}

impl PluggableTransport for Marionette {
    fn id(&self) -> PtId {
        PtId::Marionette
    }

    fn establish_with(
        &self,
        dep: &Deployment,
        opts: &AccessOptions,
        dest: Location,
        rng: &mut SimRng,
        scratch: &mut EstablishScratch,
    ) -> Channel {
        let perf = self.derived;
        let mut ch = own_host_channel(
            PtId::Marionette,
            HANDSHAKE_ROUND_TRIPS,
            dep,
            opts,
            dest,
            rng,
            scratch,
        );
        ch.setup += perf.ramp_up;
        // Payload only moves through payload transitions: the derived
        // goodput is the hard ceiling, and the circuit build + every
        // request ride the automaton's pacing. The Tor circuit build
        // (several round trips of small control messages) crawls through
        // the automaton too — reflected in a large per-request extra.
        ch.rate_cap = Some(perf.goodput_bps);
        ch.per_request_extra =
            perf.ramp_up * 8 + SimDuration::from_secs_f64(rng.lognormal(12.0, 0.45));
        ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_parses_and_validates() {
        let a = Automaton::default_ftp();
        assert!(a.transitions.len() >= 8);
    }

    #[test]
    fn rejects_bad_probabilities() {
        let err = Automaton::parse(
            "start -> a: send(x, 10) 0.5\n\
             a -> a: send_payload(100) 1.0\n",
        )
        .unwrap_err();
        assert_eq!(err, DslError::BadProbabilities("start".into()));
    }

    #[test]
    fn rejects_missing_payload() {
        let err = Automaton::parse("start -> start: send(x, 10) 1.0\n").unwrap_err();
        assert_eq!(err, DslError::NoPayloadPath);
    }

    #[test]
    fn rejects_unreachable_payload() {
        let err = Automaton::parse(
            "start -> start: send(x, 10) 1.0\n\
             island -> island: send_payload(100) 1.0\n",
        )
        .unwrap_err();
        assert_eq!(err, DslError::PayloadUnreachable);
    }

    #[test]
    fn rejects_syntax_errors() {
        assert_eq!(
            Automaton::parse("this is not a transition\n").unwrap_err(),
            DslError::BadLine(1)
        );
        assert_eq!(
            Automaton::parse("a -> b: explode(1) 1.0\n").unwrap_err(),
            DslError::UnknownAction("explode".into())
        );
        assert_eq!(Automaton::parse("").unwrap_err(), DslError::Empty);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let a = Automaton::parse(
            "# comment\n\
             \n\
             start -> d: send(hello, 10) 1.0\n\
             d -> d: send_payload(64) 1.0\n",
        )
        .unwrap();
        assert_eq!(a.transitions.len(), 2);
    }

    #[test]
    fn step_follows_probabilities() {
        let a = Automaton::parse(
            "start -> left: send(l, 1) 0.9\n\
             start -> right: send(r, 1) 0.1\n\
             left -> left: send_payload(10) 1.0\n\
             right -> right: send_payload(10) 1.0\n",
        )
        .unwrap();
        let mut rng = SimRng::new(1);
        let lefts = (0..5_000)
            .filter(|_| {
                let (to, _) = a.step("start", &mut rng);
                to == "left"
            })
            .count();
        let frac = lefts as f64 / 5_000.0;
        assert!((frac - 0.9).abs() < 0.03, "frac {frac}");
    }

    #[test]
    fn derived_goodput_matches_hand_calculation() {
        // Payload on every transition: goodput = max_payload / delay.
        let a = Automaton::parse("start -> start: send_payload(1000) 1.0\n").unwrap();
        let mut rng = SimRng::new(2);
        let perf = a.derive_performance(SimDuration::from_millis(100), &mut rng);
        assert!(
            (perf.goodput_bps - 10_000.0).abs() < 1.0,
            "{}",
            perf.goodput_bps
        );
    }

    #[test]
    fn default_model_is_slow() {
        let mut rng = SimRng::new(3);
        let perf =
            Automaton::default_ftp().derive_performance(SimDuration::from_millis(90), &mut rng);
        // ~0.78 payload transitions × 8 KiB per 90 ms ⇒ well under 100 kB/s.
        assert!(perf.goodput_bps < 100_000.0, "{}", perf.goodput_bps);
        assert!(perf.goodput_bps > 20_000.0, "{}", perf.goodput_bps);
        assert!(perf.ramp_up > SimDuration::from_millis(300));
    }

    #[test]
    fn default_shares_one_automaton_derived_like_a_fresh_build() {
        let (a, b) = (Marionette::default(), Marionette::default());
        assert!(std::ptr::eq(a.automaton(), b.automaton()));
        let bits = |m: &Marionette| {
            let d = m.derived();
            (d.goodput_bps.to_bits(), d.ramp_up)
        };
        let fresh = std::thread::spawn(|| {
            Marionette::with_automaton(Automaton::default_ftp(), SimDuration::from_millis(60))
        })
        .join()
        .unwrap();
        assert_eq!(bits(&a), bits(&fresh));
        assert_eq!(bits(&b), bits(&fresh));
        assert_eq!(a.transition_delay(), fresh.transition_delay());
    }

    #[test]
    fn establish_is_the_slowest_transport() {
        let dep = Deployment::standard(1, Location::Frankfurt);
        let opts = AccessOptions::new(Location::London);
        let mut rng = SimRng::new(13);
        let ch = Marionette::default().establish(&dep, &opts, Location::NewYork, &mut rng);
        assert!(ch.rate_cap.unwrap() < 100_000.0);
        assert!(ch.per_request_extra > SimDuration::from_secs(4));
    }
}
