//! Optimizer options, ablation switches and statistics.

/// Which rewrite rules and passes are enabled. Disabling individual rules
/// is used by the ablation benchmarks (experiment E9) to measure how much
/// each rule contributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field names mirror the paper's rule names
pub struct RuleSet {
    pub subst: bool,
    pub remove: bool,
    pub reduce: bool,
    pub eta_reduce: bool,
    pub fold: bool,
    pub case_subst: bool,
    pub y_remove: bool,
    pub y_reduce: bool,
    /// Enable the expansion (inlining) pass.
    pub expand: bool,
}

impl RuleSet {
    /// Everything on (the production configuration).
    pub const ALL: RuleSet = RuleSet {
        subst: true,
        remove: true,
        reduce: true,
        eta_reduce: true,
        fold: true,
        case_subst: true,
        y_remove: true,
        y_reduce: true,
        expand: true,
    };

    /// Reduction rules only, no inlining.
    pub const REDUCE_ONLY: RuleSet = RuleSet {
        expand: false,
        ..RuleSet::ALL
    };

    /// Everything off (identity optimizer).
    pub const NONE: RuleSet = RuleSet {
        subst: false,
        remove: false,
        reduce: false,
        eta_reduce: false,
        fold: false,
        case_subst: false,
        y_remove: false,
        y_reduce: false,
        expand: false,
    };

    /// Turn one named rule off (for ablation sweeps).
    pub fn without(mut self, rule: &str) -> RuleSet {
        match rule {
            "subst" => self.subst = false,
            "remove" => self.remove = false,
            "reduce" => self.reduce = false,
            "eta-reduce" => self.eta_reduce = false,
            "fold" => self.fold = false,
            "case-subst" => self.case_subst = false,
            "Y-remove" => self.y_remove = false,
            "Y-reduce" => self.y_reduce = false,
            "expand" => self.expand = false,
            other => panic!("unknown rule {other:?}"),
        }
        self
    }
}

impl Default for RuleSet {
    fn default() -> Self {
        RuleSet::ALL
    }
}

/// Optimizer configuration.
#[derive(Debug, Clone, Copy)]
pub struct OptOptions {
    /// Maximum abstract-machine cost of a body inlined at several call
    /// sites (Appel-style inlining threshold).
    pub inline_limit: u32,
    /// Accumulated-penalty bound: the optimization stops when the penalty
    /// (tree growth caused by expansion) reaches this limit (paper §3).
    pub penalty_limit: u64,
    /// Hard bound on reduction/expansion rounds.
    pub max_rounds: u32,
    /// Rule-enable switches.
    pub rules: RuleSet,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions {
            inline_limit: 60,
            penalty_limit: 20_000,
            max_rounds: 16,
            rules: RuleSet::ALL,
        }
    }
}

/// What one reduce(+expand) round of the driver did. The sequence of
/// these is the reduce/expand alternation the paper's §5 termination
/// argument reasons about: reductions strictly shrink the tree, expansion
/// growth is charged against the penalty budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// 1-based round number.
    pub round: u32,
    /// Reduction-rule firings in this round's reduce-to-fixpoint pass.
    pub reductions: u64,
    /// Call sites inlined by this round's expansion pass (0 when the
    /// round stopped before expanding).
    pub inlined: u64,
    /// Tree growth charged to the penalty budget by this round.
    pub growth: u64,
}

/// Per-rule application counts and driver statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names mirror the paper's rule names
pub struct OptStats {
    pub subst: u64,
    pub remove: u64,
    pub reduce: u64,
    pub eta_reduce: u64,
    pub fold: u64,
    pub case_subst: u64,
    pub y_remove: u64,
    pub y_reduce: u64,
    /// Firings of primitive-carried rewrite rules (the §4.2 query rules).
    pub rewrites: u64,
    /// Number of call sites inlined by the expansion pass.
    pub inlined: u64,
    /// Reduction/expansion rounds executed.
    pub rounds: u32,
    /// Final accumulated penalty.
    pub penalty: u64,
    /// Tree size before optimization.
    pub size_before: usize,
    /// Tree size after optimization.
    pub size_after: usize,
    /// Per-round breakdown of the reduce/expand alternation, in order.
    /// `per_round.len() == rounds as usize` after a driver run.
    pub per_round: Vec<RoundStats>,
}

impl OptStats {
    /// Total number of rule applications: the eight reduction rules plus
    /// primitive-carried rewrites.
    pub fn total_reductions(&self) -> u64 {
        self.rewrites
            + self.subst
            + self.remove
            + self.reduce
            + self.eta_reduce
            + self.fold
            + self.case_subst
            + self.y_remove
            + self.y_reduce
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_disables_named_rule() {
        let r = RuleSet::ALL.without("fold").without("expand");
        assert!(!r.fold);
        assert!(!r.expand);
        assert!(r.subst);
    }

    #[test]
    #[should_panic(expected = "unknown rule")]
    fn without_unknown_panics() {
        let _ = RuleSet::ALL.without("nonsense");
    }

    #[test]
    fn totals_add_up() {
        let s = OptStats {
            subst: 2,
            fold: 3,
            rewrites: 1,
            ..Default::default()
        };
        assert_eq!(s.total_reductions(), 6);
    }
}
