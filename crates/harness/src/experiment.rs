//! The [`Experiment`] trait the sweep runner drives, and the trial
//! input/output types shared with the manifest.

use unxpec::cpu::ExecMode;
use unxpec::experiments::seeding::{fnv1a64, fnv_mix};
use unxpec::experiments::Scale;

/// Everything a single trial receives: the derived seed, the scale,
/// and which variant of the experiment to run.
#[derive(Debug, Clone)]
pub struct TrialCtx {
    /// The trial's deterministic RNG seed, derived from the sweep's
    /// root seed and the trial identity (never from execution order).
    pub seed: u64,
    /// Sample counts for the trial.
    pub scale: Scale,
    /// The experiment variant (one of [`Experiment::variants`]).
    pub variant: String,
    /// Execution mode for the trial's simulated cores (two-speed
    /// fast-forward or all-detailed). Participates in the cell digest,
    /// so cached results never mix modes.
    pub mode: ExecMode,
}

/// What one trial produces.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutput {
    /// The experiment's rendered (Display) output.
    pub rendered: String,
    /// Named headline metrics, aggregated across the seed axis by the
    /// sweep runner. Order is significant: the first trial of a
    /// (experiment, variant) cell fixes the aggregate row order.
    pub metrics: Vec<(String, f64)>,
    /// Whether any simulated run inside the trial ended on its cycle or
    /// instruction limit (`RunResult::hit_limit`) rather than a clean
    /// halt. The sweep surfaces such trials as typed timeouts instead
    /// of silently aggregating truncated numbers.
    pub truncated: bool,
    /// Free-form diagnostics lines (fault schedules, trailing telemetry
    /// events) carried into the sweep's per-failure diagnostics bundle.
    /// Not part of the output digest: diagnostics describe *how* a
    /// trial ran, not *what* it computed.
    pub diagnostics: Vec<String>,
}

impl TrialOutput {
    /// Wraps a rendered result with its headline metrics.
    pub fn new(rendered: String, metrics: Vec<(&str, f64)>) -> Self {
        TrialOutput {
            rendered,
            metrics: metrics
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            truncated: false,
            diagnostics: Vec::new(),
        }
    }

    /// Marks the output as produced by a limit-truncated run.
    pub fn with_truncated(mut self, truncated: bool) -> Self {
        self.truncated = truncated;
        self
    }

    /// Attaches diagnostics lines for the failure bundle.
    pub fn with_diagnostics(mut self, diagnostics: Vec<String>) -> Self {
        self.diagnostics = diagnostics;
        self
    }
}

/// FNV-1a digest over a trial's rendered output and metric bits — the
/// value the manifest records and the parallel-equals-serial tests
/// compare. The `truncated` flag is mixed in only when set, so every
/// digest recorded before the flag existed is unchanged.
pub fn output_digest(out: &TrialOutput) -> u64 {
    let mut h = fnv1a64(&out.rendered);
    for (name, value) in &out.metrics {
        h = fnv_mix(fnv_mix(h, fnv1a64(name)), value.to_bits());
    }
    if out.truncated {
        h = fnv_mix(h, fnv1a64("truncated"));
    }
    h
}

/// One experiment the harness can run.
///
/// Implementations must be deterministic in `(ctx.seed, ctx.scale,
/// ctx.variant)`: two trials with equal contexts must produce equal
/// [`TrialOutput`]s regardless of which worker runs them or in what
/// order. That property — not any scheduling discipline — is what
/// makes parallel sweeps reproduce serial ones.
pub trait Experiment: Send + Sync {
    /// The experiment's registry name (e.g. `"rollback"`).
    fn name(&self) -> &str;

    /// The variants the experiment supports; the sweep enumerates one
    /// trial per variant per seed. Defaults to a single `"default"`.
    fn variants(&self) -> Vec<String> {
        vec!["default".to_string()]
    }

    /// Runs one trial.
    fn run(&self, ctx: &TrialCtx) -> TrialOutput;
}

/// An [`Experiment`] built from a closure — how the builtin registry
/// adapts the free-function drivers in [`unxpec::experiments`], and
/// how tests inject counting or panicking experiments.
pub struct FnExperiment {
    name: String,
    variants: Vec<String>,
    run: Box<dyn Fn(&TrialCtx) -> TrialOutput + Send + Sync>,
}

impl FnExperiment {
    /// Builds a named experiment over `run`.
    pub fn new(
        name: &str,
        variants: &[&str],
        run: impl Fn(&TrialCtx) -> TrialOutput + Send + Sync + 'static,
    ) -> Self {
        FnExperiment {
            name: name.to_string(),
            variants: variants.iter().map(|v| v.to_string()).collect(),
            run: Box::new(run),
        }
    }
}

impl Experiment for FnExperiment {
    fn name(&self) -> &str {
        &self.name
    }

    fn variants(&self) -> Vec<String> {
        self.variants.clone()
    }

    fn run(&self, ctx: &TrialCtx) -> TrialOutput {
        (self.run)(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_sensitive_to_rendered_and_metrics() {
        let a = TrialOutput::new("x".into(), vec![("m", 1.0)]);
        let b = TrialOutput::new("y".into(), vec![("m", 1.0)]);
        let c = TrialOutput::new("x".into(), vec![("m", 2.0)]);
        assert_ne!(output_digest(&a), output_digest(&b));
        assert_ne!(output_digest(&a), output_digest(&c));
        assert_eq!(output_digest(&a), output_digest(&a.clone()));
    }

    #[test]
    fn fn_experiment_defaults() {
        let e = FnExperiment::new("t", &["only"], |ctx| {
            TrialOutput::new(format!("seed {}", ctx.seed), vec![])
        });
        assert_eq!(e.name(), "t");
        assert_eq!(e.variants(), vec!["only".to_string()]);
        let out = e.run(&TrialCtx {
            seed: 9,
            scale: Scale::quick(),
            variant: "only".into(),
            mode: ExecMode::Detailed,
        });
        assert_eq!(out.rendered, "seed 9");
    }
}
