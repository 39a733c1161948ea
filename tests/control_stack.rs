//! The machine's control stack: return continuations of non-tail calls
//! live in frames, which the machine drops by truncating vectors.
//!
//! * Deep recursion unwinds without host recursion: a raise a million
//!   calls deep reaches its handler, and a run that exhausts its fuel a
//!   million calls deep returns `OutOfFuel`, both on the test thread and
//!   on a thread with a 2 MiB stack (a server executor's default).
//! * A procedure that captures its continuation at every level takes the
//!   heap path; the chain of copies is dropped in a loop as well.
//! * A procedure that closes over a continuation closure or loop group
//!   holding stack continuations gets heap copies too, so it can be
//!   stored and called after the frames it names have returned.
//! * The stack relies on TML's rule 3 (continuations never escape): the
//!   front end's and the optimizer's output obey it, and a program that
//!   breaks it gets a typed trap, never a panic. Rule 3 is a syntactic
//!   check, necessary but not sufficient: a well-formed handler installed
//!   with `pushHandler` can outlive the frame its continuation names. The
//!   front end lowers `try` to a fresh `cₑ` and emits no `pushHandler`,
//!   and the optimizer introduces none, which the test checks as well.

use tycoon::core::gen::{gen_state_program, GenConfig};
use tycoon::core::parse::parse_app;
use tycoon::core::term::{App, Value};
use tycoon::core::wellformed::{check_abs, check_app};
use tycoon::core::Ctx;
use tycoon::lang::stanford::suite;
use tycoon::lang::{Session, SessionConfig};
use tycoon::opt::{optimize, OptOptions};
use tycoon::reflect::{optimize_all, ReflectOptions};
use tycoon::store::ptml::decode_abs;
use tycoon::store::{Object, Store};
use tycoon::vm::machine::Machine;
use tycoon::vm::rval::StackCont;
use tycoon::vm::{RVal, Vm, VmError};

const DEEP: &str = "
module deep export boom, guarded, sum
let boom(n: Int): Int = if n == 0 then raise 7 else n + boom(n - 1) end
let guarded(n: Int): Int = try boom(n) handle e -> -1 end
let sum(n: Int): Int = if n == 0 then 0 else n + sum(n - 1) end
end";

/// Run `f` on a thread with a 2 MiB stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic, no abort")
}

/// `deep.guarded(1_000_000)` and `deep.sum(1_000_000)` with too little
/// fuel, in an optimized session, shown with `{:?}` (values stay on the
/// thread that made them).
fn deep_calls() -> (String, String) {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    s.load_str(DEEP).unwrap();
    optimize_all(&mut s, &ReflectOptions::default()).unwrap();
    let guarded = s.call("deep.guarded", vec![RVal::Int(1_000_000)]).unwrap();
    let sum = RVal::from_sval(&s.globals["deep.sum"]);
    let mut m = Machine::new(&s.vm.code, &s.vm.externs, &mut s.store, 1_000_000);
    let starved = m.call_value_checked(sum, vec![RVal::Int(1_000_000)]);
    (format!("{:?}", guarded.result), format!("{starved:?}"))
}

#[test]
fn deep_recursion_unwinds_without_host_recursion() {
    for (result, starved) in [deep_calls(), on_small_stack(deep_calls)] {
        assert_eq!(result, "-1");
        assert_eq!(starved, "Err(OutOfFuel)");
    }
}

/// A procedure at every level capturing the level's continuation: each
/// capture copies one frame to the heap, and `g` returns through the
/// copy. Returns the result and the heap closures made.
fn capturing_chain(depth: i64) -> (Option<i64>, u64) {
    let src = format!(
        "(Y proc(^c0 ^f ^c) (c \
           cont() (f {depth} cont(e) (halt -1) cont(r) (halt r)) \
           proc(n ^ce ^cc) (= n 0 cont() (cc 0) cont() \
             (- n 1 ce cont(m) (f m ce cont(r) \
               (cont(g) (g r ce cc) proc(x ^ce2 ^cc2) (+ x 1 ce2 cc)))))))"
    );
    let mut ctx = Ctx::new();
    let parsed = parse_app(&mut ctx, &src).unwrap();
    let mut vm = Vm::new();
    let block = vm.compile_program(&ctx, &parsed.app).unwrap();
    let out = vm
        .run_program(&mut Store::new(), block, 100_000_000)
        .unwrap();
    (out.result.as_int(), out.stats.closures)
}

#[test]
fn continuations_captured_at_every_level_keep_the_heap_path() {
    let (result, closures) = capturing_chain(10);
    assert_eq!(result, Some(10));
    // A procedure per level, and one copy of each frame below the
    // deepest: the outermost one has two exits, so two copies.
    assert_eq!(closures, 10 + 11);
    let (result, _) = on_small_stack(|| capturing_chain(200_000));
    assert_eq!(result, Some(200_000));
}

/// Assert that `app` is well-formed and installs no handler of its own.
fn second_class(ctx: &Ctx, app: &App) {
    check_app(ctx, app).unwrap();
    app.walk(&mut |a| {
        if let Value::Prim(p) = a.func {
            let name = ctx.prims.name(p);
            assert!(!name.ends_with("Handler"), "{name} in generated code");
        }
    });
}

#[test]
fn front_end_and_optimizer_output_keeps_continuations_second_class() {
    let mut s = Session::new(SessionConfig::default()).unwrap();
    for p in suite() {
        s.load_str(p.src).unwrap();
    }
    let check_all = |s: &mut Session| {
        let blobs: Vec<Vec<u8>> = s
            .store
            .iter()
            .filter_map(|(_, obj)| match obj {
                Object::Ptml(b) => Some(b.clone()),
                _ => None,
            })
            .collect();
        assert!(blobs.len() > 10);
        for b in &blobs {
            let (abs, _) = decode_abs(&mut s.ctx, b).unwrap();
            check_abs(&s.ctx, &abs).unwrap();
            second_class(&s.ctx, &abs.body);
        }
    };
    // The standard library and the Stanford suite as the front end
    // emits them, then every `optimize_all` product beside them.
    check_all(&mut s);
    optimize_all(&mut s, &ReflectOptions::default()).unwrap();
    check_all(&mut s);
    for seed in 0..40 {
        for twin in [false, true] {
            let (mut ctx, app) = gen_state_program(seed, GenConfig::default(), twin);
            second_class(&ctx, &app);
            let (opt, _) = optimize(&mut ctx, app, &OptOptions::default());
            check_app(&ctx, &opt).unwrap_or_else(|e| panic!("seed {seed}/{twin}: {e}"));
            second_class(&ctx, &opt);
        }
    }
}

/// A program in which `g` leaves a procedure in `a[0]` that closes over a
/// continuation closure or loop group built by `body`, then returns 6.
/// The caller then calls that procedure with 7, after `g`'s frame has
/// returned; it returns once more through `g`'s continuation, with 7.
fn stored_after_return(body: &str) -> String {
    format!(
        "(new 1 0 cont(a) \
           (cont(g) (g 5 cont(e) (halt -1) cont(r) \
              ([] a 0 cont(e) (halt -2) cont(p) \
                (= r 6 cont() (p 7 cont(e) (halt -3) cont(z) (halt -4)) \
                       cont() (halt r)))) \
            proc(x ^ce ^cc) {body}))"
    )
}

#[test]
fn procedures_closing_over_continuation_closures_get_heap_copies() {
    // A loop that falls back to a closure group: the procedure closes
    // over its member, which holds `g`'s return continuation.
    let group = stored_after_return(
        "(Y proc(^c0 ^loop ^c) (c cont() (loop x) \
           cont(i) (= i 5 \
             cont() ([:=] a 0 proc(y ^ce2 ^cc2) (loop y) ce cont(u) (cc 6)) \
             cont() (cc i))))",
    );
    // A join point whose scope jumps to the enclosing loop, so it is a
    // continuation closure, not a frame: the procedure closes over it.
    let join = stored_after_return(
        "(Y proc(^c0 ^loop ^c) (c cont() (loop x) \
           cont(i) (proc(^h) \
             (= i 5 \
               cont() ([:=] a 0 proc(y ^ce2 ^cc2) (h y) ce cont(u) (loop 6)) \
               cont() (h i)) \
             cont(v) (cc v))))",
    );
    for src in [group, join] {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, &src).unwrap();
        check_app(&ctx, &parsed.app).unwrap();
        assert_eq!(run(&src).unwrap().as_int(), Some(7), "{src}");
    }
}

/// Compile and run raw TML.
fn run(src: &str) -> Result<RVal, VmError> {
    let mut ctx = Ctx::new();
    let parsed = parse_app(&mut ctx, src).unwrap();
    let mut vm = Vm::new();
    let block = vm.compile_program(&ctx, &parsed.app).unwrap();
    let out = vm.run_program(&mut Store::new(), block, 100_000);
    out.map(|o| o.result)
}

#[test]
fn escaping_continuations_trap_typed() {
    let stale = |r: Result<RVal, VmError>| match r {
        Err(VmError::Trap(m)) => assert!(m.contains("after its frame returned"), "{m}"),
        other => panic!("expected a stale-continuation trap, got {other:?}"),
    };
    // A continuation returned as a value, then invoked: rule 3 rejects
    // the program, and the machine traps at the invocation.
    let returned = "(cont(f) (f 1 cont(e) (halt -1) cont(k) (k 5)) proc(x ^ce ^cc) (cc cc))";
    let mut ctx = Ctx::new();
    let parsed = parse_app(&mut ctx, returned).unwrap();
    assert!(check_app(&ctx, &parsed.app).is_err());
    stale(run(returned));
    // A continuation captured by a handler and invoked after its frame
    // returned: well-formed text, a trap at run time.
    stale(run(
        "(cont(f) (f 1 cont(e) (halt -1) cont(r) (raise 9)) \
                proc(x ^ce ^cc) (pushHandler cont(e) (cc e) cont() (cc x)))",
    ));
    // A stack continuation forged by the embedder names no frame.
    let mut store = Store::new();
    let vm = Vm::new();
    let mut m = Machine::new(&vm.code, &vm.externs, &mut store, 1_000);
    let forged = RVal::Cont(StackCont {
        depth: 3,
        gen: 0,
        exit: 0,
    });
    match m.call_value_checked(forged, vec![RVal::Int(1)]) {
        Err(VmError::Trap(m)) => assert!(m.contains("after its frame returned"), "{m}"),
        other => panic!("expected a trap, got {other:?}"),
    }
}
