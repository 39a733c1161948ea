//! Extension primitives registered purely through the public [`Registry`]
//! API — no edits inside `tml-vm` or `tml-opt` — behave like built-ins in
//! every layer: compile (inline codegen hook or generic `call-prim`
//! dispatch), optimize (fold hook), persist (PTML by name), reload,
//! relink and execute. Loading the same image under a registry *without*
//! the extension degrades the affected closures to typed skips instead of
//! failing the boot.

use tycoon::core::emit::{ArithOp, EmitCtx, EmitError, MachOp};
use tycoon::core::prim::PrimCost;
use tycoon::core::{
    Abs, App, EffectClass, FoldOutcome, Lit, PrimAttrs, PrimDef, Registry, Signature, Value,
};
use tycoon::lang::{Session, SessionConfig};
use tycoon::reflect::{relink_image_code, session_from_store_with};
use tycoon::store::ptml::encode_abs;
use tycoon::store::{snapshot, ClosureObj, Object, SVal};
use tycoon::vm::RVal;

/// Codegen hook for `ext.dec`: `(ext.dec x ce cc)` lowers to one inline
/// subtraction, exactly as a built-in arithmetic primitive would.
fn cg_dec(e: &mut dyn EmitCtx, app: &App) -> Result<(), EmitError> {
    let [x, ce, cc] = app.args.as_slice() else {
        return Err(EmitError::BadShape(format!(
            "expected 3 args, got {}",
            app.args.len()
        )));
    };
    let a = e.operand(x)?;
    let b = e.operand(&Value::int(1))?;
    let dst = e.fresh_reg();
    let on_ok = e.value_cont(cc, dst)?;
    let on_err = e.value_cont(ce, dst)?;
    e.emit(MachOp::Arith {
        op: ArithOp::Sub,
        dst,
        a,
        b,
        on_err,
        on_ok,
    })
}

/// Fold hook for `ext.dec`: a constant argument reduces the call to an
/// invocation of the success continuation on the decremented literal.
fn fold_dec(app: &App) -> FoldOutcome {
    match app.args.as_slice() {
        [Value::Lit(Lit::Int(n)), _, cc] => FoldOutcome::Replaced(App::new(
            cc.clone(),
            vec![Value::Lit(Lit::Int(n.wrapping_sub(1)))],
        )),
        _ => FoldOutcome::Unchanged,
    }
}

/// The extension package: one primitive with an inline lowering + fold
/// (`ext.dec`) and one with neither, so it compiles to the generic
/// `call-prim` dispatch and executes through the host-function table
/// (`ext.gcd`).
fn register_ext(r: &mut Registry) {
    r.register(PrimDef {
        name: "ext.dec".to_string(),
        signature: Signature::exact(1, 2),
        attrs: PrimAttrs {
            effects: EffectClass::Pure,
            ..Default::default()
        },
        fold: Some(fold_dec),
        rewrite: None,
        validate: None,
        cost: PrimCost::Const(1),
        codegen: Some(cg_dec),
    })
    .unwrap();
    r.register(PrimDef {
        name: "ext.gcd".to_string(),
        signature: Signature::exact(2, 2),
        attrs: PrimAttrs {
            effects: EffectClass::Pure,
            ..Default::default()
        },
        fold: None,
        rewrite: None,
        validate: None,
        cost: PrimCost::Const(8),
        codegen: None,
    })
    .unwrap();
}

fn ext_registry() -> Registry {
    Registry::standard().with(register_ext)
}

fn install_gcd_extern(s: &mut Session) {
    s.vm.externs.register("ext.gcd", |_, args| match args {
        [RVal::Int(a), RVal::Int(b)] => {
            let (mut a, mut b) = (a.abs(), b.abs());
            while b != 0 {
                (a, b) = (b, a % b);
            }
            Ok(RVal::Int(a))
        }
        _ => Err(RVal::Str("ext.gcd: type".into())),
    });
}

fn ext_session() -> Session {
    let mut s = Session::with_registry(SessionConfig::default(), ext_registry()).unwrap();
    install_gcd_extern(&mut s);
    s
}

/// `proc(x ce cc) (ext.dec x ce cont(d)(ext.gcd d 12 ce cc))` — one call
/// through each extension primitive.
fn build_run(s: &mut Session) -> Abs {
    let dec = Value::Prim(s.ctx.prims.lookup("ext.dec").unwrap());
    let gcd = Value::Prim(s.ctx.prims.lookup("ext.gcd").unwrap());
    let x = s.ctx.names.fresh("x");
    let d = s.ctx.names.fresh("d");
    let ce = s.ctx.names.fresh_cont("ce");
    let cc = s.ctx.names.fresh_cont("cc");
    let inner = App::new(
        gcd,
        vec![
            Value::Var(d),
            Value::int(12),
            Value::Var(ce),
            Value::Var(cc),
        ],
    );
    let body = App::new(
        dec,
        vec![
            Value::Var(x),
            Value::Var(ce),
            Value::from(Abs::new(vec![d], inner)),
        ],
    );
    Abs::new(vec![x, ce, cc], body)
}

/// Compile `abs`, attach its PTML, and install it as a closure rooted
/// under `name` — the same persistent shape the language front end
/// produces, built through public APIs only.
fn install_fn(s: &mut Session, name: &str, abs: &Abs) -> tycoon::core::Oid {
    tycoon::core::wellformed::check_abs(&s.ctx, abs).unwrap();
    let bytes = encode_abs(&s.ctx, abs);
    let ptml = s.store.alloc(Object::Ptml(bytes));
    let compiled = s.vm.compile_proc(&s.ctx, abs).unwrap();
    assert!(compiled.captures.is_empty(), "test function must be closed");
    let oid = s.store.alloc(Object::Closure(ClosureObj {
        bindings: Vec::new(),
        ptml: Some(ptml),
    }));
    s.vm.code.link(oid, compiled.block, &[]);
    s.globals.insert(name.to_string(), SVal::Ref(oid));
    s.store.set_root(name.to_string(), oid);
    oid
}

fn call_oid(s: &mut Session, oid: tycoon::core::Oid, args: Vec<RVal>) -> Result<RVal, String> {
    s.call_value(RVal::from_sval(&SVal::Ref(oid)), args)
        .map(|r| r.result)
        .map_err(|e| format!("{e:?}"))
}

#[test]
fn extension_prims_round_trip_through_every_layer() {
    // Session 1: compile and run through both extension primitives.
    let mut s = ext_session();
    let abs = build_run(&mut s);
    let oid = install_fn(&mut s, "ext.run", &abs);
    // gcd(dec 9, 12) = gcd(8, 12) = 4.
    assert_eq!(call_oid(&mut s, oid, vec![RVal::Int(9)]), Ok(RVal::Int(4)));
    assert_eq!(call_oid(&mut s, oid, vec![RVal::Int(31)]), Ok(RVal::Int(6)));

    // Persist, reload under the same registry, relink, re-run: the PTML
    // prim-name section resolves `ext.dec` / `ext.gcd` against the live
    // registry of the loading session.
    let bytes = snapshot::to_bytes(&s.store);
    drop(s);
    let store = snapshot::from_bytes(&bytes).unwrap();
    let mut s2 = session_from_store_with(store, SessionConfig::default(), ext_registry());
    install_gcd_extern(&mut s2);
    let report = relink_image_code(&mut s2).unwrap();
    assert_eq!(report.skipped, 0, "{report:?}");
    assert!(report.relinked > 0, "{report:?}");
    let oid = s2.store.root("ext.run").unwrap();
    assert_eq!(call_oid(&mut s2, oid, vec![RVal::Int(9)]), Ok(RVal::Int(4)));
}

#[test]
fn extension_fold_hook_fires_in_the_optimizer() {
    // `proc(ce cc) (ext.dec 8 ce cc)`: the fold hook must reduce the call
    // to `(cc 7)` — the primitive disappears from the optimized term.
    let mut s = ext_session();
    let dec = Value::Prim(s.ctx.prims.lookup("ext.dec").unwrap());
    let ce = s.ctx.names.fresh_cont("ce");
    let cc = s.ctx.names.fresh_cont("cc");
    let body = App::new(dec, vec![Value::int(8), Value::Var(ce), Value::Var(cc)]);
    let abs = Abs::new(vec![ce, cc], body);
    tycoon::core::wellformed::check_abs(&s.ctx, &abs).unwrap();

    let (opt, stats) =
        tycoon::opt::optimize_abs(&mut s.ctx, abs.clone(), &tycoon::opt::OptOptions::default());
    assert!(stats.fold > 0, "{stats:?}");
    let mut prim_calls = 0;
    opt.body.walk(&mut |a| {
        if a.func.as_prim().is_some() {
            prim_calls += 1;
        }
    });
    assert_eq!(prim_calls, 0, "fold must eliminate the ext.dec call");

    // Both forms execute to 7.
    let before = install_fn(&mut s, "ext.before", &abs);
    let after = install_fn(&mut s, "ext.after", &opt);
    assert_eq!(call_oid(&mut s, before, vec![]), Ok(RVal::Int(7)));
    assert_eq!(call_oid(&mut s, after, vec![]), Ok(RVal::Int(7)));
}

#[test]
fn image_with_unknown_prims_degrades_to_typed_skips() {
    // Persist a world containing extension code, then boot it under a
    // registry that does NOT carry the extension: the affected closure is
    // skipped (degraded = 1, `reflect.relink.unknown_prim` counter), the
    // rest of the image relinks and runs, and nothing panics.
    let mut s = ext_session();
    let abs = build_run(&mut s);
    install_fn(&mut s, "ext.run", &abs);
    let bytes = snapshot::to_bytes(&s.store);
    drop(s);

    let rec = tycoon::trace::global();
    rec.set_enabled(true);
    let unknown_before = rec.counter("reflect.relink.unknown_prim").get();
    let store = snapshot::from_bytes(&bytes).unwrap();
    let mut s2 = session_from_store_with(store, SessionConfig::default(), Registry::standard());
    let report = relink_image_code(&mut s2).unwrap();
    rec.set_enabled(false);

    assert!(report.skipped >= 1, "{report:?}");
    assert!(report.relinked > 0, "stdlib must still relink: {report:?}");
    let oid = s2.store.root("ext.run").unwrap();
    assert_eq!(s2.store.attr(oid, "degraded"), Some(1));
    assert!(
        rec.counter("reflect.relink.unknown_prim").get() > unknown_before,
        "unknown-prim skip must be counted"
    );
    // Calling the degraded closure traps; the rest of the world runs.
    assert!(call_oid(&mut s2, oid, vec![RVal::Int(9)]).is_err());
    let int_abs = s2.globals.get("int.abs").cloned();
    if let Some(SVal::Ref(abs_oid)) = int_abs {
        assert_eq!(
            call_oid(&mut s2, abs_oid, vec![RVal::Int(-3)]),
            Ok(RVal::Int(3))
        );
    }
}
