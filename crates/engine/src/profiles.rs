//! Model / hardware latency profiles for the simulated serving engine.
//!
//! The paper's end-to-end numbers are measured on real GPUs (H100, RTX 4090,
//! Apple M3 Max, iPhone 14 Pro Max). This reproduction replaces the GPU with
//! a calibrated latency model (no accelerator is available here): each profile
//! states how long one decoding step takes at a given batch size and how long
//! prefill takes per prompt token. The engine then *actually spends* that
//! time on a worker thread, so CPU/GPU overlap is real concurrency, just
//! against a synthetic GPU.
//!
//! The absolute values are taken from published throughput figures for the
//! corresponding model/hardware pairs and are only meant to be plausible;
//! every experiment reports relative behaviour.

use std::time::Duration;

/// A latency profile for one (model, hardware) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Human-readable name, e.g. `"Llama-3.1-8B on H100"`.
    pub name: String,
    /// Base time for one decoding step at batch size 1.
    pub decode_base: Duration,
    /// Additional decoding time per extra sequence in the batch (crude linear
    /// model of batching efficiency).
    pub decode_per_extra_seq: Duration,
    /// Prefill time per prompt token (for the whole batch, amortized).
    pub prefill_per_token: Duration,
    /// Multiplier applied to all durations (benchmarks use < 1.0 to keep the
    /// harness fast; 1.0 reproduces realistic wall-clock times).
    pub time_scale: f64,
}

impl ModelProfile {
    /// Time the simulated GPU spends on one decoding step for `batch_size`
    /// concurrent sequences.
    pub(crate) fn decode_step_time(&self, batch_size: usize) -> Duration {
        let extra = batch_size.saturating_sub(1) as u32;
        let raw = self.decode_base + self.decode_per_extra_seq * extra;
        raw.mul_f64(self.time_scale.max(0.0))
    }

    /// Time the simulated GPU spends prefilling a prompt of `prompt_tokens`
    /// tokens.
    pub(crate) fn prefill_time(&self, prompt_tokens: usize) -> Duration {
        (self.prefill_per_token * prompt_tokens as u32).mul_f64(self.time_scale.max(0.0))
    }

    /// Returns a copy of the profile with a different time scale.
    pub fn scaled(&self, time_scale: f64) -> ModelProfile {
        ModelProfile {
            time_scale,
            ..self.clone()
        }
    }

    /// Llama-3.1-8B-Instruct served on an NVIDIA H100 (the §4.2 setting):
    /// ≈6 ms per output token at batch 1, mild degradation with batch size.
    pub fn llama31_8b_h100() -> ModelProfile {
        ModelProfile {
            name: "Llama-3.1-8B (H100)".into(),
            decode_base: Duration::from_micros(6000),
            decode_per_extra_seq: Duration::from_micros(200),
            prefill_per_token: Duration::from_micros(60),
            time_scale: 1.0,
        }
    }

    /// DeepSeek-V2-Lite 16B MoE on an H100 (Table 1's second row): faster per
    /// token thanks to the MoE's smaller active parameter count.
    pub fn deepseek_v2_lite_h100() -> ModelProfile {
        ModelProfile {
            name: "DeepSeek-V2-Lite-16B-MoE (H100)".into(),
            decode_base: Duration::from_micros(4500),
            decode_per_extra_seq: Duration::from_micros(150),
            prefill_per_token: Duration::from_micros(55),
            time_scale: 1.0,
        }
    }

    /// 4-bit Llama-3.1-8B running in a browser on an Apple M3 Max
    /// (Figure 12, WebLLM): ≈30 ms per output token.
    pub fn llama31_8b_4bit_m3max() -> ModelProfile {
        ModelProfile {
            name: "Llama-3.1-8B 4-bit (M3 Max, WebLLM)".into(),
            decode_base: Duration::from_micros(29_700),
            decode_per_extra_seq: Duration::from_micros(2_000),
            prefill_per_token: Duration::from_micros(2_700),
            time_scale: 1.0,
        }
    }

    /// 4-bit Qwen-2.5-0.5B on an iPhone 14 Pro Max (Figure 12): ≈47 ms per
    /// output token.
    pub fn qwen25_05b_iphone() -> ModelProfile {
        ModelProfile {
            name: "Qwen-2.5-0.5B 4-bit (iPhone 14 Pro Max)".into(),
            decode_base: Duration::from_micros(47_300),
            decode_per_extra_seq: Duration::from_micros(4_000),
            prefill_per_token: Duration::from_micros(1_900),
            time_scale: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_time_grows_with_batch_size() {
        let p = ModelProfile::llama31_8b_h100();
        assert!(p.decode_step_time(32) > p.decode_step_time(1));
        assert_eq!(p.decode_step_time(1), Duration::from_micros(6000));
    }

    #[test]
    fn time_scale_shrinks_durations() {
        let p = ModelProfile::llama31_8b_h100().scaled(0.01);
        assert_eq!(p.decode_step_time(1), Duration::from_micros(60));
        assert_eq!(p.prefill_time(100), Duration::from_micros(60));
    }

    #[test]
    fn device_profiles_are_ordered_sensibly() {
        // Server GPU is faster than laptop, which is faster than phone.
        let h100 = ModelProfile::llama31_8b_h100().decode_step_time(1);
        let m3 = ModelProfile::llama31_8b_4bit_m3max().decode_step_time(1);
        let iphone = ModelProfile::qwen25_05b_iphone().decode_step_time(1);
        assert!(h100 < m3);
        assert!(m3 < iphone);
    }
}
