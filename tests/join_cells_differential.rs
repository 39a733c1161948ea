//! Differential check of the compiler's join points and promoted cells
//! against their fallbacks: every generated program with `var` cells,
//! join points and loops must compute what its twin computes — the same
//! program with each cell also stored into a tuple and each join
//! continuation also passed through an identity procedure, which forces
//! store arrays and closures — and what its own `tml-opt`-optimized
//! version computes.

use tycoon::core::gen::{gen_state_program, GenConfig};
use tycoon::core::{App, Ctx};
use tycoon::opt::{optimize, OptOptions};
use tycoon::store::Store;
use tycoon::vm::{Instr, RVal, Vm, VmError};

/// The result, or the kind of trap.
fn run(ctx: &Ctx, app: &App) -> (Result<RVal, String>, Census) {
    let vm = Vm::new();
    let block = vm.compile_program(ctx, app).expect("compiles");
    let census = Census::of(&vm);
    let mut store = Store::new();
    let out = match vm.run_program(&mut store, block, 1_000_000) {
        Ok(o) => Ok(o.result),
        Err(VmError::Trap(_)) => Err("trap".to_string()),
        Err(e) => Err(format!("{e:?}")),
    };
    (out, census)
}

/// Store-cell allocations and closure creations in the compiled code.
#[derive(Default, Clone, Copy)]
struct Census {
    cells: usize,
    closures: usize,
}

impl Census {
    fn of(vm: &Vm) -> Census {
        let mut c = Census::default();
        for b in 0..vm.code.len() as u32 {
            for i in &vm.code.block(b).instrs {
                match i {
                    Instr::Alloc { .. } => c.cells += 1,
                    Instr::Close { .. } | Instr::CloseGroup { .. } => c.closures += 1,
                    _ => {}
                }
            }
        }
        c
    }
}

fn same(a: &Result<RVal, String>, b: &Result<RVal, String>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x.identical(y),
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

fn optimized(mut ctx: Ctx, app: App) -> Result<RVal, String> {
    let (opt, _) = optimize(&mut ctx, app, &OptOptions::default());
    run(&ctx, &opt).0
}

#[test]
fn promoted_cells_and_join_points_agree_with_their_fallbacks() {
    let (mut twin_cells, mut twin_closures) = (0, 0);
    for seed in 0..300 {
        let config = GenConfig {
            steps: 4 + (seed as usize % 16),
            ..Default::default()
        };
        let (ctx, app) = gen_state_program(seed, config, false);
        let (tctx, twin) = gen_state_program(seed, config, true);
        let (got, kept) = run(&ctx, &app);
        let (want, fell_back) = run(&tctx, &twin);
        assert!(same(&got, &want), "seed {seed}: {got:?} vs twin {want:?}");
        // Nothing in the original escapes: every cell and join point
        // stays in its block.
        assert_eq!(
            (kept.cells, kept.closures),
            (0, 0),
            "seed {seed}: original allocates"
        );
        twin_cells += fell_back.cells;
        twin_closures += fell_back.closures;
        let opt = optimized(ctx, app);
        assert!(
            same(&got, &opt),
            "seed {seed}: {got:?} vs optimized {opt:?}"
        );
        let topt = optimized(tctx, twin);
        assert!(
            same(&want, &topt),
            "seed {seed}: twin {want:?} vs optimized {topt:?}"
        );
    }
    // The twins exercise the fallbacks.
    assert!(
        twin_cells > 100 && twin_closures > 100,
        "{twin_cells} {twin_closures}"
    );
}
