//! Seeded request plans.
//!
//! Every request line a run sends is a pure function of `(workload, seed)`:
//! the service only ever receives lines built here. Every `place` line pins
//! its seed (derived seeds would depend on arrival order across
//! connections), and no cache-miss key is ever sent twice (the service
//! dedupes identical queued misses into hits).

use apls_circuit::benchmarks;
use apls_portfolio::PortfolioEngine;
use apls_service::JobSpec;
use std::collections::HashMap;

/// SplitMix64: a tiny, fully specified generator, so plans never depend on
/// another crate's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HitFloor,
    SmallMix,
    LargeSolve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HitFloor, Workload::SmallMix, Workload::LargeSolve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HitFloor => "hit_floor",
            Workload::SmallMix => "small_mix",
            Workload::LargeSolve => "large_solve",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The bundled circuits the workload places.
    pub fn circuits(self) -> &'static [&'static str] {
        match self {
            Workload::HitFloor => &ALL_CIRCUITS,
            Workload::SmallMix => &SMALL_CIRCUITS,
            Workload::LargeSolve => &LARGE_CIRCUITS,
        }
    }
}

/// Every bundled circuit (9–110 modules); each has an `.apls` twin under
/// `examples/circuits/`.
pub const ALL_CIRCUITS: [&str; 7] = [
    "miller_opamp_fig6",
    "miller_v2",
    "comparator_v2",
    "folded_cascode",
    "buffer",
    "biasynth",
    "lnamixbias",
];
/// The circuits of at most 22 modules.
pub const SMALL_CIRCUITS: [&str; 4] =
    ["miller_opamp_fig6", "miller_v2", "comparator_v2", "folded_cascode"];
/// The circuits of 46–110 modules.
pub const LARGE_CIRCUITS: [&str; 3] = ["buffer", "biasynth", "lnamixbias"];

/// Module count above which a circuit counts as large in per-layer splits.
pub const SMALL_MAX_MODULES: usize = 22;

/// The ping request; every workload measures the protocol floor with it.
pub const PING_LINE: &str = "{\"op\":\"ping\"}\n";
/// `hit_floor` sends a ping as every 16th request, `small_mix` as every
/// 4th (its requests are slower, so it needs more pings for a steady median).
const PING_EVERY: [usize; 2] = [16, 4];
/// `large_solve` sends this many pings after each solve on the connection.
pub const PINGS_PER_SOLVE: usize = 16;

/// Seeds per circuit in the `hit_floor` key set.
const HIT_FLOOR_SEEDS: usize = 2;
/// `small_mix`: of every 10 place requests, 3 repeat a key the connection
/// already received (certain hits).
const HIT_BLOCK: usize = 10;
const HITS_PER_BLOCK: usize = 3;
/// Share of `small_mix` misses sent `stream:true`.
const SMALL_MIX_STREAM_SHARE: f64 = 0.25;
/// `hit_floor`: upper bound on the requests its connection can send per
/// second; the closed loop stops at the deadline, the plan only has to be
/// long enough.
const HIT_FLOOR_MAX_RATE: usize = 10_000;
/// `small_mix`: whole miss cycles per connection and second of run time.
/// Each connection sends a fixed number of complete cycles (about the run
/// time at HEAD on a 2-core x86-64 box), so every run does the same work.
const SMALL_MIX_CYCLES_PER_SECOND: f64 = 0.7;

/// `large_solve` jobs, longest first (measured single-job times at HEAD on
/// a 2-core x86-64 box: 5.6 s down to 0.03 s), so that two connections
/// draining one pass finish it nearly together. `true` = fast schedule.
pub const LARGE_SOLVE_PASS: [(&str, PortfolioEngine, bool); 15] = [
    ("lnamixbias", PortfolioEngine::SequencePair, false),
    ("lnamixbias", PortfolioEngine::HbTree, false),
    ("lnamixbias", PortfolioEngine::Hier, false),
    ("biasynth", PortfolioEngine::SequencePair, false),
    ("buffer", PortfolioEngine::SequencePair, false),
    ("biasynth", PortfolioEngine::HbTree, false),
    ("biasynth", PortfolioEngine::Hier, false),
    ("buffer", PortfolioEngine::HbTree, false),
    ("lnamixbias", PortfolioEngine::Deterministic, false),
    ("buffer", PortfolioEngine::Hier, false),
    ("lnamixbias", PortfolioEngine::Tempering, true),
    ("buffer", PortfolioEngine::Tempering, true),
    ("biasynth", PortfolioEngine::Deterministic, false),
    ("biasynth", PortfolioEngine::Tempering, true),
    ("buffer", PortfolioEngine::Deterministic, false),
];
/// Upper bound on `large_solve` passes (each takes ~8 s at HEAD).
const MAX_PASSES: usize = 8;

/// One distinct result-cache key: a circuit, a config and a pinned seed.
#[derive(Debug, Clone)]
pub struct Key {
    pub circuit: &'static str,
    pub seed: u64,
    /// The plain bundled request for the key (seed pinned).
    pub spec: JobSpec,
    /// Index of that request's line in [`Plan::lines`].
    pub line: usize,
}

/// One request of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Ping,
    Place {
        /// Index into [`Plan::keys`].
        key: usize,
        /// Index into [`Plan::lines`].
        line: usize,
        /// Whether the plan guarantees a cache hit.
        hit: bool,
        /// Whether the line asks for a streamed response.
        stream: bool,
    },
}

/// Everything one run sends.
#[derive(Debug, Clone)]
pub struct Plan {
    pub keys: Vec<Key>,
    /// Every distinct request line, newline-terminated.
    pub lines: Vec<String>,
    /// Set-up requests (`hit_floor` priming misses).
    pub prime: Vec<Step>,
    /// Per-connection closed-loop schedules (`hit_floor`, `small_mix`), or
    /// the passes both connections drain together (`large_solve`).
    pub schedules: Vec<Vec<Step>>,
    /// The circuit name an answer echoes for each bundled name (the
    /// circuit's own name, e.g. `miller_opamp` for `miller_opamp_fig6`).
    pub echo: HashMap<&'static str, String>,
}

impl Plan {
    /// Builds the plan of `workload` for a run of about `seconds` seconds.
    /// `examples` maps a bundled circuit name to its `.apls` text.
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: u64,
        examples: &dyn Fn(&str) -> String,
    ) -> Plan {
        let echo = workload
            .circuits()
            .iter()
            .map(|&name| (name, benchmarks::by_name(name).map_or_else(String::new, |c| c.name)))
            .collect();
        let mut plan = Plan {
            keys: Vec::new(),
            lines: Vec::new(),
            prime: Vec::new(),
            schedules: Vec::new(),
            echo,
        };
        let mut rng = Rng::new(seed ^ 0x00B3_AC4E_5EED_0001);
        // Seeds are unique per run and never collide across keys.
        let seed_base = rng.next_u64() & 0xFFFF_FFFF_0000_0000;
        match workload {
            Workload::HitFloor => {
                let mut targets = Vec::new();
                for &circuit in &ALL_CIRCUITS {
                    let text = examples(circuit);
                    for _ in 0..HIT_FLOOR_SEEDS {
                        let key_seed = seed_base + plan.keys.len() as u64;
                        let spec = JobSpec::bundled(circuit)
                            .with_seed(key_seed)
                            .with_restarts(1)
                            .with_fast(true);
                        let key = plan.add_key(circuit, key_seed, spec.clone());
                        let bundled = plan.keys[key].line;
                        let mut inline = spec.clone();
                        inline.circuit = apls_service::CircuitSource::Inline(text.clone());
                        let inline = plan.add_line(&inline);
                        // Priming multiplexes streamed misses on the one
                        // connection, tagged by key.
                        let prime = plan.add_line(&spec.clone().with_stream(key as u64 + 1));
                        plan.prime.push(Step::Place { key, line: prime, hit: false, stream: true });
                        targets.push((key, bundled));
                        targets.push((key, inline));
                    }
                }
                // Whole cycles over (key × {bundled, inline}) in a fresh
                // seeded order each, so every prefix stays near-uniform.
                let steps = HIT_FLOOR_MAX_RATE * seconds as usize;
                let mut schedule = Vec::with_capacity(steps);
                let mut order = targets.clone();
                while schedule.len() < steps {
                    rng.shuffle(&mut order);
                    for &(key, line) in &order {
                        if schedule.len() % PING_EVERY[0] == PING_EVERY[0] - 1 {
                            schedule.push(Step::Ping);
                        }
                        schedule.push(Step::Place { key, line, hit: true, stream: false });
                    }
                }
                plan.schedules.push(schedule);
            }
            Workload::SmallMix => {
                let engine_sets: Vec<Vec<PortfolioEngine>> = PortfolioEngine::ALL
                    .iter()
                    .map(|&e| vec![e])
                    .chain(std::iter::once(PortfolioEngine::ALL.to_vec()))
                    .collect();
                // Misses cycle through every (circuit, engine set, restarts)
                // combination, and every block of HIT_BLOCK place requests
                // holds exactly HITS_PER_BLOCK hits, so each run sends the
                // same mix; only seeds and order vary.
                let combos = SMALL_CIRCUITS.len() * engine_sets.len() * 2;
                let cycles =
                    ((seconds as f64 * SMALL_MIX_CYCLES_PER_SECOND).round() as usize).max(1);
                for connection in 0..2u64 {
                    let mut schedule = Vec::new();
                    // (key, plain line) of every miss this connection sent
                    let mut received: Vec<(usize, usize)> = Vec::new();
                    let mut order: Vec<usize> = (0..combos).collect();
                    let mut block = [false; HIT_BLOCK];
                    block[..HITS_PER_BLOCK].fill(true);
                    let mut places = 0usize;
                    for i in 0.. {
                        if received.len() == cycles * combos {
                            break;
                        }
                        if i % PING_EVERY[1] == PING_EVERY[1] - 1 {
                            schedule.push(Step::Ping);
                            continue;
                        }
                        if places.is_multiple_of(HIT_BLOCK) {
                            rng.shuffle(&mut block);
                        }
                        places += 1;
                        if block[(places - 1) % HIT_BLOCK] && !received.is_empty() {
                            let (key, line) = received[rng.below(received.len())];
                            schedule.push(Step::Place { key, line, hit: true, stream: false });
                            continue;
                        }
                        if received.len().is_multiple_of(combos) {
                            rng.shuffle(&mut order);
                        }
                        let combo = order[received.len() % combos];
                        let circuit = SMALL_CIRCUITS[combo % SMALL_CIRCUITS.len()];
                        let engines =
                            engine_sets[combo / SMALL_CIRCUITS.len() % engine_sets.len()].clone();
                        let restarts = 1 + combo / (SMALL_CIRCUITS.len() * engine_sets.len());
                        let key_seed = seed_base + (connection << 31) + i as u64;
                        let spec = JobSpec::bundled(circuit)
                            .with_seed(key_seed)
                            .with_restarts(restarts)
                            .with_engines(engines)
                            .with_fast(true);
                        let key = plan.add_key(circuit, key_seed, spec.clone());
                        let plain = plan.keys[key].line;
                        let stream = rng.chance(SMALL_MIX_STREAM_SHARE);
                        let line = if stream {
                            plan.add_line(&spec.clone().with_stream(i as u64 + 1))
                        } else {
                            plain
                        };
                        schedule.push(Step::Place { key, line, hit: false, stream });
                        received.push((key, plain));
                    }
                    plan.schedules.push(schedule);
                }
            }
            Workload::LargeSolve => {
                for pass in 0..MAX_PASSES {
                    let mut schedule = Vec::with_capacity(LARGE_SOLVE_PASS.len());
                    for (j, &(circuit, engine, fast)) in LARGE_SOLVE_PASS.iter().enumerate() {
                        let key_seed = seed_base + (pass * LARGE_SOLVE_PASS.len() + j) as u64;
                        let spec = JobSpec::bundled(circuit)
                            .with_seed(key_seed)
                            .with_restarts(1)
                            .with_engines(vec![engine])
                            .with_fast(fast);
                        let key = plan.add_key(circuit, key_seed, spec);
                        let line = plan.keys[key].line;
                        schedule.push(Step::Place { key, line, hit: false, stream: false });
                    }
                    plan.schedules.push(schedule);
                }
            }
        }
        plan
    }

    /// Adds a key together with its plain request line.
    fn add_key(&mut self, circuit: &'static str, seed: u64, spec: JobSpec) -> usize {
        let line = self.add_line(&spec);
        self.keys.push(Key { circuit, seed, spec, line });
        self.keys.len() - 1
    }

    fn add_line(&mut self, spec: &JobSpec) -> usize {
        self.lines.push(format!("{}\n", spec.to_json_line()));
        self.lines.len() - 1
    }

    /// The exact bytes of `step`.
    pub fn line(&self, step: Step) -> &str {
        match step {
            Step::Ping => PING_LINE,
            Step::Place { line, .. } => &self.lines[line],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_examples(name: &str) -> String {
        format!("apls 1\ncircuit \"{name}\"\n")
    }

    fn sent_bytes(plan: &Plan) -> String {
        let mut out = String::new();
        for step in plan.prime.iter().chain(plan.schedules.iter().flatten()) {
            out.push_str(plan.line(*step));
        }
        out
    }

    #[test]
    fn the_same_seed_gives_byte_identical_request_lines() {
        for workload in Workload::ALL {
            let a = Plan::new(workload, 7, 1, &fake_examples);
            let b = Plan::new(workload, 7, 1, &fake_examples);
            let c = Plan::new(workload, 8, 1, &fake_examples);
            assert_eq!(sent_bytes(&a), sent_bytes(&b), "{}", workload.name());
            assert_ne!(sent_bytes(&a), sent_bytes(&c), "{}", workload.name());
        }
    }

    #[test]
    fn no_miss_key_is_sent_twice_and_every_place_pins_its_seed() {
        for workload in Workload::ALL {
            let plan = Plan::new(workload, 3, 1, &fake_examples);
            let mut missed = std::collections::HashSet::new();
            for step in plan.prime.iter().chain(plan.schedules.iter().flatten()) {
                if let Step::Place { key, line, hit, .. } = *step {
                    assert!(plan.lines[line].contains(&format!("\"seed\":{}", plan.keys[key].seed)));
                    if !hit {
                        assert!(
                            missed.insert(key),
                            "{}: miss key {key} sent twice",
                            workload.name()
                        );
                    }
                }
            }
            let seeds: std::collections::HashSet<u64> = plan.keys.iter().map(|k| k.seed).collect();
            assert_eq!(seeds.len(), plan.keys.len(), "{}: seeds must be distinct", workload.name());
        }
    }

    #[test]
    fn small_mix_repeats_only_keys_the_same_connection_already_received() {
        let plan = Plan::new(Workload::SmallMix, 11, 1, &fake_examples);
        for schedule in &plan.schedules {
            let mut seen = std::collections::HashSet::new();
            for step in schedule {
                if let Step::Place { key, hit, .. } = *step {
                    if hit {
                        assert!(seen.contains(&key));
                    } else {
                        seen.insert(key);
                    }
                }
            }
        }
    }
}
