//! Embedded queries in the source language (the paper's §4.2 vision,
//! end-to-end): TL functions contain `select … from … where` expressions;
//! views are ordinary functions returning relations; reflective runtime
//! optimization expands the views and merges the selections — the
//! integrated program and query optimizer of figure 4.
//!
//! ```sh
//! cargo run --release --example tl_queries
//! ```

use tycoon::lang::Session;
use tycoon::query::QuerySession;
use tycoon::reflect::{optimize_named, ReflectOptions};
use tycoon::vm::RVal;

const SRC: &str = "
module shop export setup, discounted, cheap_discounted, names
-- schema: (id, price, discounted)
let setup(n: Int): Rel =
  let r = rel.make(3) in
  (for i = 0 upto n - 1 do
     rel.insert(r, tuple(i, i * 7 % 200, i % 3 == 0))
   end;
   r)

-- A view: the discounted items.
let discounted(r: Rel): Rel = select x from x in r where x.2 == true

-- A query over the view: cheap discounted items. Statically this is a
-- call through an abstraction barrier; after reflective optimization it
-- is a single merged scan.
let cheap_discounted(r: Rel): Rel =
  select y from y in discounted(r) where y.1 < 50

-- Projection through the same view.
let names(r: Rel): Rel = select y.0 from y in discounted(r)
end";

fn main() {
    let mut s = Session::default_session().expect("session");
    s.enable_queries().expect("query subsystem");
    s.load_str(SRC).expect("module loads");

    let r = s
        .call("shop.setup", vec![RVal::Int(3000)])
        .expect("setup")
        .result;

    let count = |s: &mut Session, rel: RVal| -> i64 {
        match s.call("rel.count", vec![rel]).expect("count").result {
            RVal::Int(n) => n,
            other => panic!("expected int, got {other:?}"),
        }
    };

    // Unoptimized: view call + re-scan of the intermediate relation.
    let plain = s
        .call("shop.cheap_discounted", vec![r.clone()])
        .expect("runs");
    let plain_n = count(&mut s, plain.result.clone());
    println!(
        "naive view query : {plain_n} rows   [{} instructions, {} transfers]",
        plain.stats.instrs, plain.stats.calls
    );

    // Reflective optimization (fig. 4): the query rules ride the query
    // primitives enabled above into the one optimizer loop.
    let optimized = optimize_named(&mut s, "shop.cheap_discounted", &ReflectOptions::default())
        .expect("reflect.optimize with query rules");
    let fast = s
        .call_value(RVal::from_sval(&optimized), vec![r.clone()])
        .expect("optimized runs");
    let fast_n = count(&mut s, fast.result.clone());
    println!(
        "merged view query: {fast_n} rows   [{} instructions, {} transfers]",
        fast.stats.instrs, fast.stats.calls
    );
    assert_eq!(plain_n, fast_n);
    println!(
        "\nview expanded + selections merged: {:.2}x fewer transfers, {:.2}x fewer instructions",
        plain.stats.calls as f64 / fast.stats.calls as f64,
        plain.stats.instrs as f64 / fast.stats.instrs as f64,
    );

    // Projection through the view works the same way.
    let names = s.call("shop.names", vec![r]).expect("projection runs");
    println!(
        "\nprojection through the view: {} ids",
        count(&mut s, names.result)
    );
}
