//! Per-layer numbers read from a traced run's phase spans, and the
//! accelerator lane that prices its sub-batches with the cycle model.

use std::collections::HashMap;

use lightmamba_accel::arch::{AcceleratorConfig, HwPrecision};
use lightmamba_accel::platform::Platform;
use lightmamba_accel::sim::DecodeSimulator;
use lightmamba_model::{MambaConfig, ModelPreset};
use lightmamba_serve::observe::EngineObs;

/// Engine phases reported per step. `evict` sums the cancel, expire,
/// doom and preempt spans; `advance_self` is `advance` minus its
/// `sub_batch` children.
pub const PHASES: [&str; 5] = ["evict", "admit", "advance_self", "sample", "retire"];

/// Sums over every span of a traced run.
#[derive(Debug, Default)]
pub struct SpanStats {
    /// `step` spans.
    pub steps: u64,
    /// Each `step` span's duration, in µs.
    pub step_us: Vec<f64>,
    /// Σ of the `batch` argument of `step` spans.
    pub batch_sum: f64,
    /// Σ self time per entry of [`PHASES`], in ns.
    pub phase_ns: [u64; 5],
    /// Σ `sub_batch` time, in ns.
    pub sub_batch_ns: u64,
    /// Σ `sub_batch` time per model id, in ns.
    pub model_ns: Vec<u64>,
    /// Σ `sub_batch` tokens per model id.
    pub model_tokens: Vec<u64>,
    /// Every sub-batch as `(model id, tokens)`.
    pub sub_batches: Vec<(usize, u64)>,
    /// Start of the first and end of the last `step` span, in ns.
    pub first_start_ns: u64,
    /// See [`SpanStats::first_start_ns`].
    pub last_end_ns: u64,
    /// Spans the recorder dropped.
    pub dropped: u64,
}

impl SpanStats {
    /// Reads every span `obs` recorded, for an engine of `n_models`
    /// backends.
    pub fn read(obs: &EngineObs, n_models: usize) -> SpanStats {
        let mut s = SpanStats {
            model_ns: vec![0; n_models],
            model_tokens: vec![0; n_models],
            first_start_ns: u64::MAX,
            dropped: obs.spans.dropped(),
            ..SpanStats::default()
        };
        let mut advance_ns = 0;
        for span in obs.spans.spans() {
            let phase = match span.name {
                "step" => {
                    s.steps += 1;
                    s.step_us.push(span.dur_ns as f64 / 1e3);
                    s.batch_sum += arg(span.args, "batch");
                    s.first_start_ns = s.first_start_ns.min(span.start_ns);
                    s.last_end_ns = s.last_end_ns.max(span.start_ns + span.dur_ns);
                    continue;
                }
                "sub_batch" => {
                    let model = arg(span.args, "model") as usize;
                    let tokens = arg(span.args, "tokens") as u64;
                    s.sub_batch_ns += span.dur_ns;
                    if model < n_models {
                        s.model_ns[model] += span.dur_ns;
                        s.model_tokens[model] += tokens;
                    }
                    s.sub_batches.push((model, tokens));
                    continue;
                }
                "advance" => {
                    advance_ns += span.dur_ns;
                    continue;
                }
                "cancel" | "expire" | "doom" | "preempt" => 0,
                "admit" => 1,
                "sample" => 3,
                "retire" => 4,
                _ => continue,
            };
            s.phase_ns[phase] += span.dur_ns;
        }
        s.phase_ns[2] = advance_ns.saturating_sub(s.sub_batch_ns);
        s
    }

    /// Mean self time of phase `i` per step, in µs.
    pub fn phase_us(&self, i: usize) -> f64 {
        self.phase_ns[i] as f64 / 1e3 / self.steps.max(1) as f64
    }

    /// Σ of the phase self times and `sub_batch` time, in µs.
    pub fn covered_us(&self) -> f64 {
        (self.phase_ns.iter().sum::<u64>() + self.sub_batch_ns) as f64 / 1e3
    }
}

fn arg(args: [(&'static str, f64); 2], key: &str) -> f64 {
    args.iter()
        .find(|(k, _)| *k == key)
        .map_or(0.0, |(_, v)| *v)
}

/// The paper's accelerator design points, by name.
pub fn platforms() -> [(&'static str, Platform, DesignPoint); 2] {
    [
        (
            "vck190",
            Platform::vck190(),
            AcceleratorConfig::lightmamba_w4a4,
        ),
        ("u280", Platform::u280(), AcceleratorConfig::lightmamba_u280),
    ]
}

/// Builds a platform's W4A4 accelerator configuration.
pub type DesignPoint = fn(&Platform, &MambaConfig) -> AcceleratorConfig;

/// Projected accelerator seconds for a run's sub-batches on `platform`,
/// pricing each with the cycle model of the paper's Mamba2-2.7B design
/// point at that backend's precision (a step costs the sum of its
/// sub-batches, each streaming its own weights once).
pub fn projected_seconds(
    platform: &Platform,
    design_point: DesignPoint,
    backends: &[&str],
    sub_batches: &[(usize, u64)],
) -> f64 {
    let design = MambaConfig::preset(ModelPreset::B2_7);
    let sims: Vec<DecodeSimulator> = backends
        .iter()
        .map(|&name| {
            let mut cfg = design_point(platform, &design);
            if name == "fp" {
                cfg.precision = HwPrecision::Fp16;
                cfg.pot_requant = false;
            }
            DecodeSimulator::new(platform.clone(), design.clone(), cfg)
        })
        .collect();
    let mut memo: HashMap<(usize, u64), f64> = HashMap::new();
    sub_batches
        .iter()
        .filter(|&&(model, tokens)| model < sims.len() && tokens > 0)
        .map(|&(model, tokens)| {
            *memo.entry((model, tokens)).or_insert_with(|| {
                let sim = &sims[model];
                sim.batch_report(tokens as usize).cycles_per_step / sim.platform().freq_hz
            })
        })
        .sum()
}
