//! Property tests tying the optimizer to the abstract machine:
//! optimization must preserve evaluation results, well-formedness and the
//! unique binding rule, never increase the executed instruction count, and
//! commute with the PTML codec.

use proptest::prelude::*;
use tycoon::core::gen::{gen_program, GenConfig};
use tycoon::core::wellformed::check_app;
use tycoon::opt::{optimize, OptOptions, RuleSet};
use tycoon::store::ptml;
use tycoon::store::Store;
use tycoon::vm::{RVal, Vm};

fn run(ctx: &tycoon::core::Ctx, app: &tycoon::core::App) -> RVal {
    let vm = Vm::new();
    let block = vm.compile_program(ctx, app).expect("closed program");
    let mut store = Store::new();
    vm.run_program(&mut store, block, 10_000_000)
        .expect("terminates")
        .result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn optimization_preserves_results(seed in 0u64..10_000, steps in 4usize..24) {
        let (mut ctx, app) = gen_program(seed, GenConfig { steps, ..Default::default() });
        let before = run(&ctx, &app);
        let (optimized, _) = optimize(&mut ctx, app, &OptOptions::default());
        check_app(&ctx, &optimized).expect("optimized program well-formed");
        let after = run(&ctx, &optimized);
        prop_assert!(before.identical(&after), "{before:?} vs {after:?}");
    }

    #[test]
    fn optimization_never_slows_programs(seed in 0u64..10_000) {
        let (mut ctx, app) = gen_program(seed, GenConfig::default());
        let vm = Vm::new();
        let block = vm.compile_program(&ctx, &app).unwrap();
        let mut store = Store::new();
        let base = vm.run_program(&mut store, block, 10_000_000).unwrap();

        let (optimized, _) = optimize(&mut ctx, app, &OptOptions::default());
        let vm2 = Vm::new();
        let block2 = vm2.compile_program(&ctx, &optimized).unwrap();
        let mut store2 = Store::new();
        let opt = vm2.run_program(&mut store2, block2, 10_000_000).unwrap();
        prop_assert!(opt.stats.instrs <= base.stats.instrs);
        prop_assert!(opt.stats.calls <= base.stats.calls);
    }

    #[test]
    fn every_rule_subset_is_sound(seed in 0u64..2_000, disabled in 0usize..9) {
        let rule = [
            "subst", "remove", "reduce", "eta-reduce", "fold",
            "case-subst", "Y-remove", "Y-reduce", "expand",
        ][disabled];
        let (mut ctx, app) = gen_program(seed, GenConfig::default());
        let before = run(&ctx, &app);
        let opts = OptOptions { rules: RuleSet::ALL.without(rule), ..Default::default() };
        let (optimized, _) = optimize(&mut ctx, app, &opts);
        check_app(&ctx, &optimized).expect("well-formed");
        let after = run(&ctx, &optimized);
        prop_assert!(before.identical(&after), "rule {rule}: {before:?} vs {after:?}");
    }

    #[test]
    fn ptml_roundtrips_optimized_code(seed in 0u64..5_000) {
        let (mut ctx, app) = gen_program(seed, GenConfig::default());
        let (optimized, _) = optimize(&mut ctx, app, &OptOptions::default());
        let bytes = ptml::encode_app(&ctx, &optimized);
        let (decoded, _) = ptml::decode_app(&mut ctx, &bytes).expect("decodes");
        prop_assert_eq!(optimized.size(), decoded.size());
        check_app(&ctx, &decoded).expect("decoded well-formed");
        let a = run(&ctx, &optimized);
        let b = run(&ctx, &decoded);
        prop_assert!(a.identical(&b));
    }

    #[test]
    fn optimizer_is_idempotent(seed in 0u64..5_000) {
        let (mut ctx, app) = gen_program(seed, GenConfig::default());
        let (once, _) = optimize(&mut ctx, app, &OptOptions::default());
        let (twice, stats) = optimize(&mut ctx, once.clone(), &OptOptions::default());
        prop_assert_eq!(once, twice);
        prop_assert_eq!(stats.inlined, 0);
    }
}
