//! Test twin of `examples/code_shipping.rs`: PTML + named bindings as a
//! wire format between independent sessions (the §6 "code shipping"
//! outlook).

use tycoon::lang::Session;
use tycoon::store::{ptml, ClosureObj, Object, SVal};
use tycoon::vm::RVal;

/// Extract `(ptml bytes, binding names)` for a globally bound function.
fn export_function(s: &Session, name: &str) -> (Vec<u8>, Vec<String>) {
    let SVal::Ref(oid) = *s.global(name).expect("bound") else {
        panic!("{name} is not a closure");
    };
    let Object::Closure(clo) = s.store.get(oid).expect("closure") else {
        panic!("{name} is not a closure object");
    };
    let Object::Ptml(bytes) = s.store.get(clo.ptml.expect("PTML")).expect("ptml") else {
        panic!("broken PTML attachment");
    };
    (
        bytes.clone(),
        clo.bindings.iter().map(|(n, _)| n.clone()).collect(),
    )
}

/// Install shipped bytes into a session under `name`, rebinding against
/// the *receiver's* globals.
fn import_function(s: &mut Session, name: &str, bytes: Vec<u8>) {
    let (abs, free) = ptml::decode_abs(&mut s.ctx, &bytes).expect("wire decodes");
    let compiled = s.vm.compile_proc(&s.ctx, &abs).expect("recompiles");
    let by_var: std::collections::HashMap<_, _> =
        free.iter().map(|(n, v)| (*v, n.clone())).collect();
    let mut env = Vec::new();
    let mut bindings = Vec::new();
    for v in &compiled.captures {
        let n = &by_var[v];
        let val = s
            .globals
            .get(n)
            .cloned()
            .expect("receiver resolves binding");
        env.push(val.clone());
        bindings.push((n.clone(), val));
    }
    let ptml_oid = s.store.alloc(Object::Ptml(bytes));
    let oid = s.store.alloc(Object::Closure(ClosureObj {
        bindings,
        ptml: Some(ptml_oid),
    }));
    s.vm.code.link(oid, compiled.block, &env);
    s.globals.insert(name.to_string(), SVal::Ref(oid));
}

#[test]
fn shipped_code_computes_identically() {
    let mut sender = Session::default_session().unwrap();
    sender
        .load_str(
            "module price export total\n\
             let total(amount: Int, qty: Int): Int =\n\
               let gross = amount * qty in\n\
               if gross > 1000 then gross - gross / 10 else gross end\n\
             end",
        )
        .unwrap();
    let expected: Vec<RVal> = [(5, 3), (200, 7), (1000, 2)]
        .iter()
        .map(|(a, q)| {
            sender
                .call("price.total", vec![RVal::Int(*a), RVal::Int(*q)])
                .unwrap()
                .result
        })
        .collect();
    let (bytes, names) = export_function(&sender, "price.total");
    assert!(names.iter().all(|n| n.starts_with("int.")), "{names:?}");
    drop(sender);

    let mut receiver = Session::default_session().unwrap();
    import_function(&mut receiver, "shipped.total", bytes);
    for ((a, q), want) in [(5i64, 3i64), (200, 7), (1000, 2)].iter().zip(expected) {
        let got = receiver
            .call("shipped.total", vec![RVal::Int(*a), RVal::Int(*q)])
            .unwrap()
            .result;
        assert_eq!(got, want, "({a}, {q})");
    }
}

#[test]
fn shipped_code_can_be_reoptimized_by_the_receiver() {
    let mut sender = Session::default_session().unwrap();
    sender
        .load_str("module m export sq\nlet sq(x: Int): Int = x * x + 1\nend")
        .unwrap();
    let (bytes, _) = export_function(&sender, "m.sq");
    drop(sender);

    let mut receiver = Session::default_session().unwrap();
    import_function(&mut receiver, "shipped.sq", bytes);
    let plain = receiver.call("shipped.sq", vec![RVal::Int(9)]).unwrap();
    let v = receiver.globals.get("shipped.sq").cloned().unwrap();
    let optimized = tycoon::reflect::optimize_value(
        &mut receiver,
        &v,
        &tycoon::reflect::ReflectOptions::default(),
    )
    .unwrap();
    let fast = receiver
        .call_value(RVal::from_sval(&optimized), vec![RVal::Int(9)])
        .unwrap();
    assert_eq!(plain.result, fast.result);
    assert!(fast.stats.instrs < plain.stats.instrs);
}

#[test]
fn wire_format_rejects_tampering() {
    let mut sender = Session::default_session().unwrap();
    sender
        .load_str("module m export f\nlet f(x: Int): Int = x + 1\nend")
        .unwrap();
    let (bytes, _) = export_function(&sender, "m.f");
    let mut receiver = Session::default_session().unwrap();
    // Any truncation must be detected by the codec, never panic.
    for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
        assert!(ptml::decode_abs(&mut receiver.ctx, &bytes[..cut]).is_err());
    }
}
