//! The seeded workload generator.
//!
//! Inputs are made here, from the benchmark's own PRNG, rather than by
//! `lightmamba_serve::traffic`: a change to the program can then never
//! change what the benchmark sends it. The same `(workload, seed,
//! seconds)` always yields byte-identical requests and arrival times.

/// Vocabulary of the benchmark model; every token is drawn below it.
pub const VOCAB: u32 = 2048;

/// Length of each `prefix_open` system prompt.
pub const SYSTEM_PROMPT_LEN: usize = 192;

/// Distinct system prompts in `prefix_open` (twice the prefix cache).
pub const SYSTEM_PROMPTS: usize = 8;

/// `batch_frontend` burst size per second of `--seconds`: 160 requests
/// at 25 s, drained in about 20 s on a 2-CPU host.
const BATCH_REQUESTS_PER_SECOND: f64 = 6.4;

/// The benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, Poisson 5 req/s, short chats on w4a4.
    ChatOpen,
    /// Open loop, Poisson 4 req/s, shared 192-token system prompts on
    /// w4a4 with a 4-entry prefix cache.
    PrefixOpen,
    /// Closed burst through the streaming frontend, long outputs.
    BatchFrontend,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::ChatOpen,
        Workload::PrefixOpen,
        Workload::BatchFrontend,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChatOpen => "chat_open",
            Workload::PrefixOpen => "prefix_open",
            Workload::BatchFrontend => "batch_frontend",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ChatOpen => {
                "decode-dominated small batches under light queueing; no shared prefix, so the \
                 prefix cache is bypassed"
            }
            Workload::PrefixOpen => {
                "prefill-dominated TTFT through prefix lookup, harvest, restore and LRU \
                 eviction; working set twice the cache"
            }
            Workload::BatchFrontend => {
                "full throughput-bound batches through the frontend channels, pool sharding \
                 and per-token event fan-out"
            }
        }
    }

    /// Backend names the workload's engine registers, in model-id order;
    /// requests cycle through them.
    ///
    /// The burst alternates fp and w4a4, and its full batches run both
    /// sub-batches every step. The open loops run on w4a4 alone: at their
    /// light load most steps hold one sequence, and fp steps take about
    /// 2.5 times as long, so with fp requests in the mix the median
    /// inter-token gap would flip from seed to seed between a w4a4-only
    /// mode and a slower mixed one.
    pub fn backends(self) -> &'static [&'static str] {
        match self {
            Workload::ChatOpen | Workload::PrefixOpen => &["w4a4"],
            Workload::BatchFrontend => &["fp", "w4a4"],
        }
    }

    /// Open-loop arrival rate in requests per second; `None` for the
    /// closed burst.
    pub fn rate(self) -> Option<f64> {
        match self {
            Workload::ChatOpen => Some(5.0),
            Workload::PrefixOpen => Some(4.0),
            Workload::BatchFrontend => None,
        }
    }

    /// TTFT limit of the workload's SLO in ms; `None` when only the
    /// inter-token gap is limited (the closed burst queues by design).
    /// The `prefix_open` limit lies between a prefix hit's TTFT (a few
    /// prefill steps) and a miss's (the whole 192-token system prompt),
    /// so its attainment falls if the prefix cache stops serving hits.
    pub fn slo_ttft_ms(self) -> Option<f64> {
        match self {
            Workload::ChatOpen => Some(250.0),
            Workload::PrefixOpen => Some(100.0),
            Workload::BatchFrontend => None,
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqSpec {
    /// When the request is due, in microseconds after the run starts
    /// (0 for every request of the closed burst).
    pub due_us: u64,
    /// Index into [`Workload::backends`].
    pub model: usize,
    /// Prompt tokens.
    pub prompt: Vec<u32>,
    /// Tokens to generate.
    pub max_new: usize,
    /// Leading prompt tokens shared with other requests.
    pub shared_prefix: Option<usize>,
}

/// SplitMix64: small, fast, and fixed forever by this file.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// `n` integers in `lo..=hi`, one drawn from each of `n` equal
    /// strata of the range, in seeded order.
    pub fn stratified(&mut self, n: usize, lo: usize, hi: usize) -> Vec<usize> {
        let span = (hi - lo + 1) as f64;
        let mut v: Vec<usize> = (0..n)
            .map(|k| lo + ((k as f64 + self.unit()) / n as f64 * span) as usize)
            .collect();
        // Fisher-Yates.
        for i in (1..n).rev() {
            v.swap(i, self.range(0, i));
        }
        v
    }

    fn tokens(&mut self, n: usize) -> Vec<u32> {
        (0..n)
            .map(|_| (self.next_u64() % VOCAB as u64) as u32)
            .collect()
    }
}

/// Generates the workload's requests for a run of `seconds`, sorted by
/// due time.
///
/// Open-loop arrivals are a Poisson process conditioned on its mean
/// count: exactly `rate × seconds` requests at sorted uniform times, so
/// the offered load is the same for every seed and only its burstiness
/// varies. Lengths and system-prompt picks are stratified draws in
/// seeded order: every seed gets nearly the same mix, so seeds differ in
/// order and content rather than in how much work they bring.
pub fn generate(w: Workload, seed: u64, seconds: u64) -> Vec<ReqSpec> {
    let mut rng = Rng::new(seed, w as u64 + 1);
    let n = match w.rate() {
        Some(rate) => (rate * seconds as f64).round() as usize,
        None => (BATCH_REQUESTS_PER_SECOND * seconds as f64).round() as usize,
    }
    .max(1);
    let mut due: Vec<u64> = match w.rate() {
        Some(_) => (0..n)
            .map(|_| (rng.unit() * seconds as f64 * 1e6) as u64)
            .collect(),
        None => vec![0; n],
    };
    due.sort_unstable();

    let (prompt_lens, max_new) = match w {
        Workload::ChatOpen => ((8, 48), (8, 48)),
        Workload::PrefixOpen => ((4, 16), (8, 24)),
        Workload::BatchFrontend => ((16, 64), (96, 191)),
    };
    let prompt_lens = rng.stratified(n, prompt_lens.0, prompt_lens.1);
    let max_new = rng.stratified(n, max_new.0, max_new.1);
    let mut reqs: Vec<ReqSpec> = (0..n)
        .map(|i| ReqSpec {
            due_us: due[i],
            model: i % w.backends().len(),
            prompt: rng.tokens(prompt_lens[i]),
            max_new: max_new[i],
            shared_prefix: None,
        })
        .collect();

    if w == Workload::PrefixOpen {
        // Each prompt is a system prompt plus the drawn tail. Zipf(2)
        // popularity, prompt k picked ∝ (k+1)^-2: hits then make up
        // about three quarters of requests, so the median TTFT sits
        // inside the hit population and the 90th percentile inside the
        // miss population for every seed, instead of either flipping
        // between the two modes.
        let systems: Vec<Vec<u32>> = (0..SYSTEM_PROMPTS)
            .map(|_| rng.tokens(SYSTEM_PROMPT_LEN))
            .collect();
        let weights: Vec<f64> = (0..SYSTEM_PROMPTS)
            .map(|k| ((k + 1) as f64).powf(-2.0))
            .collect();
        let total: f64 = weights.iter().sum();
        let picks = rng.stratified(n, 0, 999_999);
        for (r, pick) in reqs.iter_mut().zip(picks) {
            let mut u = pick as f64 / 1e6 * total;
            let mut k = 0;
            while k + 1 < SYSTEM_PROMPTS && u >= weights[k] {
                u -= weights[k];
                k += 1;
            }
            let mut prompt = systems[k].clone();
            prompt.append(&mut r.prompt);
            r.prompt = prompt;
            r.shared_prefix = Some(SYSTEM_PROMPT_LEN);
        }
    }
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Canonical byte encoding of a request list (due times included), for
    /// identity checks.
    fn to_bytes(reqs: &[ReqSpec]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in reqs {
            out.extend_from_slice(&r.due_us.to_le_bytes());
            out.extend_from_slice(&(r.model as u64).to_le_bytes());
            out.extend_from_slice(&(r.max_new as u64).to_le_bytes());
            out.extend_from_slice(&(r.shared_prefix.map_or(u64::MAX, |p| p as u64)).to_le_bytes());
            out.extend_from_slice(&(r.prompt.len() as u64).to_le_bytes());
            for t in &r.prompt {
                out.extend_from_slice(&t.to_le_bytes());
            }
        }
        out
    }

    fn schedule(reqs: &[ReqSpec]) -> Vec<u64> {
        reqs.iter().map(|r| r.due_us).collect()
    }

    #[test]
    fn one_seed_gives_byte_identical_inputs_and_another_seed_does_not() {
        for w in Workload::ALL {
            let a = generate(w, 11, 5);
            let b = generate(w, 11, 5);
            assert_eq!(to_bytes(&a), to_bytes(&b), "{}", w.name());
            assert_eq!(schedule(&a), schedule(&b), "{}", w.name());
            let c = generate(w, 12, 5);
            assert_ne!(to_bytes(&a), to_bytes(&c), "{}", w.name());
            if w.rate().is_some() {
                assert_ne!(schedule(&a), schedule(&c), "{}", w.name());
            }
        }
    }

    #[test]
    fn requests_have_the_documented_shapes() {
        let chat = generate(Workload::ChatOpen, 3, 20);
        assert_eq!(chat.len(), 100);
        assert!(chat.windows(2).all(|p| p[0].due_us <= p[1].due_us));
        assert!(chat.iter().all(|r| (8..=48).contains(&r.prompt.len())
            && (8..=48).contains(&r.max_new)
            && r.due_us < 20_000_000));
        assert!(chat.iter().all(|r| r.model == 0));

        let prefix = generate(Workload::PrefixOpen, 3, 20);
        assert_eq!(prefix.len(), 80);
        let mut systems: Vec<&[u32]> = prefix
            .iter()
            .map(|r| &r.prompt[..SYSTEM_PROMPT_LEN])
            .collect();
        systems.sort_unstable();
        systems.dedup();
        assert!(systems.len() <= SYSTEM_PROMPTS && systems.len() > 4);
        assert!(prefix.iter().all(|r| {
            let tail = r.prompt.len() - SYSTEM_PROMPT_LEN;
            (4..=16).contains(&tail) && (8..=24).contains(&r.max_new)
        }));

        let batch = generate(Workload::BatchFrontend, 3, 20);
        assert_eq!(batch.len(), 128);
        assert!(batch.iter().all(|r| r.due_us == 0
            && (16..=64).contains(&r.prompt.len())
            && (96..=191).contains(&r.max_new)));
        assert!(batch.iter().flat_map(|r| &r.prompt).all(|&t| t < VOCAB));
    }
}
