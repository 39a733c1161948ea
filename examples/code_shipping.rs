//! Code shipping (the paper's §6 outlook: "we are also very interested in
//! exploiting TML for other tasks in data-intensive applications, like
//! code shipping in distributed systems [Mathiske et al. 1995]").
//!
//! A "client" session compiles a query predicate, extracts its portable
//! representation — PTML bytes plus named R-value bindings — and ships it
//! to a "server" session (a separate store, separate code table, separate
//! name/prim context), which rebinds the names against *its own* globals,
//! recompiles, and runs the function against its own data. The server
//! runs on a `DurableStore`: installing the shipped function is
//! write-ahead-logged through the store-access seam, so after a commit,
//! a checkpoint and a full server restart the shipped code is still
//! there, linked from its persistent PTML at its first call.
//!
//! ```sh
//! cargo run --example code_shipping
//! ```

use tycoon::core::Registry;
use tycoon::lang::{Session, SessionConfig};
use tycoon::reflect::{relink_image_code, session_from_access_with, TermBuilder};
use tycoon::store::{DurableOptions, DurableStore, Object, SVal};
use tycoon::vm::RVal;

fn main() {
    let dir = std::env::temp_dir().join(format!("tycoon_ship_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let image = dir.join("server.img");

    // --- Client: author and compile the function to ship. -----------------
    // The client is transient; a plain in-memory session is all it needs.
    let mut client = Session::default_session().expect("client session");
    client
        .load_str(
            "module score export rate\n\
             let rate(x: Int): Int =\n\
               if x > 100 then x * 2 else\n\
                 if x > 10 then x + 50 else x end\n\
               end\n\
             end",
        )
        .expect("client module loads");
    let check = client
        .call("score.rate", vec![RVal::Int(42)])
        .expect("client runs")
        .result;
    println!("client: score.rate(42) = {check:?}");

    // Extract the wire format: PTML bytes + binding names.
    let SVal::Ref(oid) = *client.global("score.rate").expect("bound") else {
        panic!("expected closure");
    };
    let Object::Closure(clo) = client.store.get(oid).expect("closure") else {
        panic!("expected closure object");
    };
    let ptml_oid = clo.ptml.expect("PTML attached");
    let Object::Ptml(wire_bytes) = client.store.get(ptml_oid).expect("ptml") else {
        panic!("expected ptml object");
    };
    let wire_bytes = wire_bytes.clone();
    let binding_names: Vec<String> = clo.bindings.iter().map(|(n, _)| n.clone()).collect();
    println!(
        "client: shipping {} bytes of PTML, {} named bindings: {:?}",
        wire_bytes.len(),
        binding_names.len(),
        binding_names
    );
    drop(client); // the client's store, code table and context are gone

    // --- Server: receive, rebind, recompile, run — durably. ----------------
    let store = DurableStore::create(&image, DurableOptions::default()).expect("server store");
    let mut server = Session::on_store(store, SessionConfig::default(), Registry::standard())
        .expect("server session");
    let (abs, free) =
        tycoon::store::ptml::decode_abs(&mut server.ctx, &wire_bytes).expect("wire format decodes");
    println!(
        "server: decoded function with {} free identifier(s)",
        free.len()
    );

    // Rebind free identifiers against the *server's* globals.
    let compiled = server
        .vm
        .compile_proc(&server.ctx, &abs)
        .expect("recompiles");
    let by_var: std::collections::HashMap<_, _> =
        free.iter().map(|(n, v)| (*v, n.clone())).collect();
    let mut env = Vec::new();
    let mut bindings = Vec::new();
    for v in &compiled.captures {
        let name = &by_var[v];
        let val = server
            .globals
            .get(name)
            .cloned()
            .unwrap_or_else(|| panic!("server cannot resolve {name}"));
        env.push(val.clone());
        bindings.push((name.clone(), val));
    }
    // Installation goes through the logged interface: the PTML blob, the
    // closure and the root naming it are all redo records.
    let shipped_ptml = server.store.alloc(Object::Ptml(wire_bytes)).expect("alloc");
    let shipped = server
        .store
        .alloc(Object::Closure(tycoon::store::ClosureObj {
            bindings,
            ptml: Some(shipped_ptml),
        }))
        .expect("alloc");
    server.vm.code.link(shipped, compiled.block, &env);
    server
        .store
        .set_root("shipped.rate", shipped)
        .expect("root");
    server
        .globals
        .insert("shipped.rate".into(), SVal::Ref(shipped));

    for x in [5i64, 42, 1000] {
        let r = server
            .call("shipped.rate", vec![RVal::Int(x)])
            .expect("shipped code runs");
        println!("server: shipped.rate({x}) = {:?}", r.result);
    }

    // The shipped code is a first-class citizen: it can even be
    // reflectively optimized on the server against server-side bindings —
    // through the same seam, so the optimized product is durable too.
    let optimized = tycoon::reflect::optimize_value(
        &mut server,
        &SVal::Ref(shipped),
        &tycoon::reflect::ReflectOptions::default(),
    )
    .expect("server-side reflective optimization");
    let fast = server
        .call_value(RVal::from_sval(&optimized), vec![RVal::Int(42)])
        .expect("optimized shipped code runs");
    println!(
        "server: optimized shipped code: rate(42) = {:?} ({} instructions)",
        fast.result, fast.stats.instrs
    );

    // Make it durable and restart the server process image.
    server.store.commit().expect("commit");
    server.store.checkpoint().expect("checkpoint");
    drop(server);

    let (store, report) = DurableStore::open(&image, DurableOptions::default()).expect("reopen");
    assert_eq!(report.redo_records, 0, "checkpoint consolidated the log");
    let mut restarted =
        session_from_access_with(store, SessionConfig::default(), Registry::standard());
    let relink = relink_image_code(&mut restarted).expect("relink");
    let shipped = restarted
        .store
        .store()
        .root("shipped.rate")
        .expect("shipped root survives the restart");
    let r = restarted
        .call_value(RVal::Ref(shipped), vec![RVal::Int(42)])
        .expect("shipped code runs after restart");
    println!(
        "server (restarted): checked {} closure(s), linked {}; shipped.rate(42) = {:?}",
        relink.relinked, r.stats.linked, r.result
    );
    assert_eq!(r.result, check);

    // Round-trip sanity: the restarted server can re-ship it too.
    let mut tb = TermBuilder::new(&mut restarted.ctx, restarted.store.store());
    let reship = tb.build(shipped, 0).expect("re-shippable");
    println!(
        "server: re-shippable — persistent function has {} TML nodes",
        reship.body.size()
    );

    std::fs::remove_dir_all(&dir).ok();
}
