//! The artifact's evaluation configurations (paper artifact appendix:
//! `CONFIGS="memoir ade ..."`), mapped to pass options and interpreter
//! defaults.

use ade_core::AdeOptions;
use ade_interp::ExecConfig;
use ade_ir::{MapSel, Module, SetSel};

/// The named configurations from the paper's artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConfigKind {
    /// Baseline MEMOIR compiler (hash defaults, no ADE).
    Memoir,
    /// Full ADE.
    Ade,
    /// MEMOIR with Abseil-style swiss tables as the default.
    MemoirAbseil,
    /// ADE with swiss tables as the default for non-enumerated
    /// collections.
    AdeAbseil,
    /// ADE with redundant translation elimination disabled (§III-C).
    AdeNoRedundant,
    /// ADE with propagation disabled (§III-E).
    AdeNoPropagation,
    /// ADE with sharing (and therefore propagation) disabled (§III-D).
    AdeNoSharing,
    /// ADE selecting `SparseBitSet` for enumerated sets.
    AdeSparse,
    /// ADE selecting `SparseBitSet` only for *nested* enumerated sets
    /// (RQ4, requires the PTA benchmark).
    AdeNestedSparse,
}

impl ConfigKind {
    /// All configurations, in the artifact's order.
    pub const ALL: [ConfigKind; 9] = [
        ConfigKind::Memoir,
        ConfigKind::Ade,
        ConfigKind::MemoirAbseil,
        ConfigKind::AdeAbseil,
        ConfigKind::AdeNoRedundant,
        ConfigKind::AdeNoPropagation,
        ConfigKind::AdeNoSharing,
        ConfigKind::AdeSparse,
        ConfigKind::AdeNestedSparse,
    ];

    /// The artifact's configuration name.
    pub fn name(self) -> &'static str {
        match self {
            ConfigKind::Memoir => "memoir",
            ConfigKind::Ade => "ade",
            ConfigKind::MemoirAbseil => "memoir-abseil",
            ConfigKind::AdeAbseil => "ade-abseil",
            ConfigKind::AdeNoRedundant => "ade-noredundant",
            ConfigKind::AdeNoPropagation => "ade-nopropagation",
            ConfigKind::AdeNoSharing => "ade-nosharing",
            ConfigKind::AdeSparse => "ade-sparse",
            ConfigKind::AdeNestedSparse => "ade-nested-sparse",
        }
    }

    /// Looks a configuration up by its artifact name.
    pub fn from_name(name: &str) -> Option<ConfigKind> {
        ConfigKind::ALL.iter().copied().find(|c| c.name() == name)
    }
}

/// A fully resolved configuration: whether/how to run ADE plus the
/// interpreter's selection defaults.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which artifact configuration this is.
    pub kind: ConfigKind,
    /// ADE pass options, `None` for the MEMOIR baselines.
    pub ade: Option<AdeOptions>,
    /// Interpreter defaults for `Auto` selections.
    pub exec: ExecConfig,
}

impl Config {
    /// Resolves an artifact configuration.
    pub fn new(kind: ConfigKind) -> Config {
        let mut exec = ExecConfig::default();
        let ade = match kind {
            ConfigKind::Memoir | ConfigKind::MemoirAbseil => None,
            ConfigKind::Ade | ConfigKind::AdeAbseil => Some(AdeOptions::default()),
            ConfigKind::AdeNoRedundant => Some(AdeOptions::without_rte()),
            ConfigKind::AdeNoPropagation => Some(AdeOptions::without_propagation()),
            ConfigKind::AdeNoSharing => Some(AdeOptions::without_sharing()),
            ConfigKind::AdeSparse => Some(AdeOptions {
                enumerated_set_impl: SetSel::SparseBit,
                ..AdeOptions::default()
            }),
            ConfigKind::AdeNestedSparse => Some(AdeOptions {
                nested_set_impl: Some(SetSel::SparseBit),
                ..AdeOptions::default()
            }),
        };
        if matches!(kind, ConfigKind::MemoirAbseil | ConfigKind::AdeAbseil) {
            exec.defaults.set = SetSel::Swiss;
            exec.defaults.map = MapSel::Swiss;
        }
        Config { kind, ade, exec }
    }

    /// Applies this configuration's compilation pipeline to a module and
    /// returns the pass report (if ADE ran).
    pub fn compile(&self, module: &mut Module) -> Option<ade_core::AdeReport> {
        self.compile_traced(module, &ade_obs::Tracer::disabled())
    }

    /// [`Config::compile`] with pass spans and decision events on
    /// `tracer` (a no-op for the MEMOIR baselines, which run no pass).
    pub fn compile_traced(
        &self,
        module: &mut Module,
        tracer: &ade_obs::Tracer,
    ) -> Option<ade_core::AdeReport> {
        self.ade
            .as_ref()
            .map(|options| ade_core::run_ade_traced(module, options, tracer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in ConfigKind::ALL {
            assert_eq!(ConfigKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ConfigKind::from_name("nope"), None);
    }

    #[test]
    fn memoir_has_no_pass_and_hash_defaults() {
        let c = Config::new(ConfigKind::Memoir);
        assert!(c.ade.is_none());
        assert_eq!(c.exec.defaults.set, SetSel::Hash);
    }

    #[test]
    fn abseil_configs_default_to_swiss() {
        let c = Config::new(ConfigKind::MemoirAbseil);
        assert_eq!(c.exec.defaults.set, SetSel::Swiss);
        assert_eq!(c.exec.defaults.map, MapSel::Swiss);
        let c = Config::new(ConfigKind::AdeAbseil);
        assert!(c.ade.is_some());
        assert_eq!(c.exec.defaults.set, SetSel::Swiss);
    }

    #[test]
    fn ablations_flip_the_right_knobs() {
        assert!(
            !Config::new(ConfigKind::AdeNoRedundant)
                .ade
                .expect("ade")
                .rte
        );
        let nosharing = Config::new(ConfigKind::AdeNoSharing).ade.expect("ade");
        assert!(!nosharing.sharing && !nosharing.propagation);
        let sparse = Config::new(ConfigKind::AdeSparse).ade.expect("ade");
        assert_eq!(sparse.enumerated_set_impl, SetSel::SparseBit);
        let nested = Config::new(ConfigKind::AdeNestedSparse).ade.expect("ade");
        assert_eq!(nested.nested_set_impl, Some(SetSel::SparseBit));
        assert_eq!(nested.enumerated_set_impl, SetSel::Bit);
    }
}
