//! The session: compilation, linking, the persistent store and execution
//! tied together (the paper's figure 3 architecture).
//!
//! Loading a module runs the full pipeline per function:
//!
//! ```text
//! parse → check/lower → CPS convert → (optional local optimization)
//!       → PTML encode (attached to the function, paper §4)
//!       → bytecode compile
//!       → persistent closure with R-value bindings, linked two-phase
//!         (so intra-module recursion resolves)
//! ```
//!
//! The session owns the *global binding environment* mapping fully
//! qualified names (`int.add`, `complex.x`) to store values; those are
//! exactly the R-value bindings recorded in each closure.

use crate::ast::Type;
use crate::cps::convert_fun;
use crate::error::LangError;
use crate::parser::parse_program;
use crate::stdlib::STDLIB_SRC;
use crate::types::{check_module, LowerMode, TypeEnv};
use std::collections::HashMap;
use tml_core::{Ctx, Oid, VarId};
use tml_opt::{optimize_abs, OptOptions};
use tml_store::ptml::encode_abs;
use tml_store::{ClosureObj, ModuleObj, Object, SVal, Store, StoreAccess};
use tml_vm::machine::ExecStats;
use tml_vm::{Machine, RVal, Vm};

/// Static optimization applied at module load time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptMode {
    /// No optimization (raw CPS conversion output).
    None,
    /// Local compile-time optimization: the TML optimizer runs on each
    /// function in isolation, without binding information — the paper's E1
    /// configuration.
    Local,
}

/// Session configuration.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Operator lowering (library calls vs direct primitives).
    pub lower: LowerMode,
    /// Static optimization mode.
    pub opt: OptMode,
    /// Optimizer options for both static and reflective optimization.
    pub opt_options: OptOptions,
    /// Attach PTML to compiled functions (the paper's default; switching it
    /// off halves the persistent code size — experiment E3).
    pub attach_ptml: bool,
    /// Instruction budget per [`Session::call`].
    pub fuel: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            lower: LowerMode::Library,
            opt: OptMode::None,
            opt_options: OptOptions::default(),
            attach_ptml: true,
            fuel: 2_000_000_000,
        }
    }
}

/// The result of a [`Session::call`].
#[derive(Debug, Clone)]
pub struct CallResult {
    /// The function's result.
    pub result: RVal,
    /// Machine counters for the call.
    pub stats: ExecStats,
    /// `io.print` output produced during the call.
    pub output: Vec<String>,
}

/// A loaded, linked, runnable TL universe.
///
/// Generic over the store-access seam: the default `S = Store` is the
/// plain in-memory heap, while `S = DurableStore` gives a durable
/// session whose every store mutation (module linking, execution,
/// garbage collection) is write-ahead logged and survives a crash.
pub struct Session<S: StoreAccess = Store> {
    /// The TML context.
    pub ctx: Ctx,
    /// The abstract machine (code table + extension primitives).
    pub vm: Vm,
    /// The persistent object store, behind the access seam.
    pub store: S,
    /// Global type environment.
    pub types: TypeEnv,
    /// Global binding environment: fully qualified name → store value.
    pub globals: HashMap<String, SVal>,
    /// Configuration.
    pub config: SessionConfig,
    /// Names of loaded modules, in load order.
    pub modules: Vec<String>,
}

impl Session {
    /// Create a session and load the standard library.
    pub fn new(config: SessionConfig) -> Result<Session, LangError> {
        Session::with_registry(config, tml_core::Registry::standard())
    }

    /// Create a session whose primitive world is an explicitly built
    /// [`tml_core::Registry`] — the single construction path shared with
    /// the image loader and the `tmlc` driver. Primitives registered
    /// through the registry's public API behave exactly like built-ins in
    /// every layer (compile, optimize, persist, execute).
    pub fn with_registry(
        config: SessionConfig,
        registry: tml_core::Registry,
    ) -> Result<Session, LangError> {
        Session::on_store(Store::new(), config, registry)
    }

    /// Shorthand for a default-configured session.
    pub fn default_session() -> Result<Session, LangError> {
        Session::new(SessionConfig::default())
    }
}

impl<S: StoreAccess> Session<S> {
    /// Create a session over an explicit store backend (fresh — the
    /// standard library is loaded through the seam, so on a durable
    /// backend it is logged like any other module). Reopening an
    /// existing image goes through `tml-reflect`'s session rebuild
    /// instead, which relinks persistent closures rather than reloading
    /// sources.
    pub fn on_store(
        store: S,
        config: SessionConfig,
        registry: tml_core::Registry,
    ) -> Result<Session<S>, LangError> {
        let mut s = Session {
            ctx: Ctx::from_registry(registry),
            vm: Vm::new(),
            store,
            types: TypeEnv::new(),
            globals: HashMap::new(),
            config,
            modules: Vec::new(),
        };
        s.load_str(STDLIB_SRC)?;
        Ok(s)
    }

    /// Parse and load every module in `src`.
    pub fn load_str(&mut self, src: &str) -> Result<(), LangError> {
        for module in parse_program(src)? {
            self.load_module(&module)?;
        }
        Ok(())
    }

    fn load_module(&mut self, module: &crate::ast::Module) -> Result<(), LangError> {
        if self.modules.iter().any(|m| m == &module.name) {
            return Err(LangError::DuplicateModule(module.name.clone()));
        }
        let (lowered, export_types) = check_module(&self.types, module, self.config.lower)?;

        // Compile every function.
        struct Pending {
            full_name: String,
            block: u32,
            captures: Vec<String>,
            ptml: Option<Oid>,
        }
        let mut pending = Vec::with_capacity(lowered.funs.len());
        for fun in &lowered.funs {
            let cps = convert_fun(&mut self.ctx, fun)?;
            let mut abs = cps.abs;
            if self.config.opt == OptMode::Local {
                let (optimized, _) = optimize_abs(&mut self.ctx, abs, &self.config.opt_options);
                abs = optimized;
            }
            let ptml = if self.config.attach_ptml {
                let bytes = encode_abs(&self.ctx, &abs);
                Some(self.store.alloc(Object::Ptml(bytes))?)
            } else {
                None
            };
            let compiled = self
                .vm
                .compile_proc(&self.ctx, &abs)
                .map_err(|e| LangError::Compile(e.to_string()))?;
            let by_var: HashMap<VarId, &str> =
                cps.globals.iter().map(|(n, v)| (*v, n.as_str())).collect();
            let captures = compiled
                .captures
                .iter()
                .map(|v| {
                    by_var.get(v).map(|n| n.to_string()).ok_or_else(|| {
                        LangError::Compile(format!(
                            "capture {} is not a known global",
                            self.ctx.names.display(*v)
                        ))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            pending.push(Pending {
                full_name: format!("{}.{}", module.name, fun.name),
                block: compiled.block,
                captures,
                ptml,
            });
        }

        // Phase 1: allocate closures so intra-module references resolve.
        let mut local: HashMap<String, SVal> = HashMap::new();
        let mut oids = Vec::with_capacity(pending.len());
        for p in &pending {
            let oid = self.store.alloc(Object::Closure(ClosureObj {
                bindings: Vec::new(),
                ptml: p.ptml,
            }))?;
            local.insert(p.full_name.clone(), SVal::Ref(oid));
            oids.push(oid);
        }
        // Phase 2: resolve R-value bindings, record them and link each
        // closure to its block with the environment they give.
        for (p, &oid) in pending.iter().zip(&oids) {
            let mut bindings = Vec::with_capacity(p.captures.len());
            for name in &p.captures {
                let val = local
                    .get(name)
                    .or_else(|| self.globals.get(name))
                    .cloned()
                    .ok_or_else(|| LangError::Unresolved(name.clone()))?;
                bindings.push((name.clone(), val));
            }
            self.store.mutate(oid, &mut |obj| {
                match obj {
                    Object::Closure(c) => c.bindings = bindings.clone(),
                    _ => unreachable!("just allocated"),
                }
                Ok(())
            })?;
            self.vm
                .code
                .link(oid, p.block, bindings.iter().map(|(_, v)| v));
        }

        // Module record and global registration (exports only).
        let mut record = ModuleObj {
            name: module.name.clone(),
            exports: Default::default(),
        };
        for e in &module.exports {
            let full = format!("{}.{e}", module.name);
            let val = local.get(&full).expect("exports checked").clone();
            record.exports.insert(e.clone(), val.clone());
            self.globals.insert(full, val);
        }
        let module_oid = self.store.alloc(Object::Module(record))?;
        self.store.set_root(&module.name, module_oid)?;
        self.globals
            .insert(module.name.clone(), SVal::Ref(module_oid));
        self.types.insert(module.name.clone(), Type::Dyn);
        for (name, ty) in export_types {
            self.types.insert(name, ty);
        }
        self.modules.push(module.name.clone());
        Ok(())
    }

    /// Look up a global binding.
    pub fn global(&self, name: &str) -> Option<&SVal> {
        self.globals.get(name)
    }

    /// Call a loaded function (by qualified name) with the given arguments.
    pub fn call(&mut self, name: &str, args: Vec<RVal>) -> Result<CallResult, LangError> {
        let target = self
            .globals
            .get(name)
            .cloned()
            .ok_or_else(|| LangError::Unresolved(name.to_string()))?;
        self.call_value(RVal::from_sval(&target), args)
    }

    /// Call an arbitrary procedure value.
    pub fn call_value(&mut self, target: RVal, args: Vec<RVal>) -> Result<CallResult, LangError> {
        let mut machine = Machine::new(
            &self.vm.code,
            &self.vm.externs,
            &mut self.store,
            self.config.fuel,
        );
        match machine.call_value_checked(target, args) {
            Ok(Ok(result)) => Ok(CallResult {
                result,
                stats: machine.stats,
                output: machine.output().to_vec(),
            }),
            Ok(Err(exc)) => Err(LangError::Exception(format!("{exc:?}"))),
            // Transaction aborts stay typed: the caller (server executor,
            // txn layer) matches on the StoreError to decide whether to
            // retry the request, so they must not be flattened into the
            // stringly Exception channel.
            Err(tml_vm::machine::VmError::Aborted(e)) => Err(LangError::Store(e)),
            // Other machine-level failures keep their historical shape:
            // a TML exception string, as the flattening wrapper produced.
            Err(e) => Err(LangError::Exception(format!(
                "{:?}",
                RVal::Str(format!("vm:{e}").into())
            ))),
        }
    }

    /// Collect store garbage, rooting the session's global bindings in
    /// addition to the store's named roots. On a durable backend every
    /// reclaimed object is logged as a free, so the collection survives
    /// crash recovery.
    pub fn collect_garbage(&mut self) -> Result<tml_store::gc::GcStats, LangError> {
        let extra: Vec<tml_core::Oid> =
            self.globals.values().filter_map(SVal::as_ref_oid).collect();
        Ok(self.store.collect(&extra)?)
    }

    /// Total approximate size of the executable code generated so far.
    pub fn code_bytes(&self) -> usize {
        self.vm.code.byte_size()
    }

    /// Total bytes of PTML attachments in the store.
    pub fn ptml_bytes(&self) -> usize {
        self.store.stats().ptml_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stdlib::stdlib_exports;

    fn session(lower: LowerMode, opt: OptMode) -> Session {
        Session::new(SessionConfig {
            lower,
            opt,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn stdlib_loads_and_links() {
        let s = Session::default_session().unwrap();
        for (name, _) in stdlib_exports() {
            assert!(s.global(name).is_some(), "missing {name}");
        }
        assert!(s.store.root("int").is_some());
    }

    #[test]
    fn stdlib_functions_execute() {
        let mut s = Session::default_session().unwrap();
        let r = s
            .call("int.add", vec![RVal::Int(2), RVal::Int(40)])
            .unwrap();
        assert_eq!(r.result, RVal::Int(42));
        let r = s
            .call("int.max", vec![RVal::Int(2), RVal::Int(40)])
            .unwrap();
        assert_eq!(r.result, RVal::Int(40));
        let r = s.call("real.sqrt", vec![RVal::Real(25.0)]).unwrap();
        assert_eq!(r.result, RVal::Real(5.0));
    }

    #[test]
    fn user_module_with_operators() {
        for lower in [LowerMode::Library, LowerMode::Direct] {
            let mut s = session(lower, OptMode::None);
            s.load_str("module m export sq\nlet sq(a: Int): Int = a * a + 1\nend")
                .unwrap();
            let r = s.call("m.sq", vec![RVal::Int(6)]).unwrap();
            assert_eq!(r.result, RVal::Int(37), "mode {lower:?}");
        }
    }

    #[test]
    fn library_mode_costs_more_instructions_than_direct() {
        let mut lib = session(LowerMode::Library, OptMode::None);
        let mut dir = session(LowerMode::Direct, OptMode::None);
        let src = "module m export f\n\
                   let f(n: Int): Int = var s := 0 in \
                     (var i := 0 in while i < n do (s := s + i; i := i + 1) end; s)\n\
                   end";
        lib.load_str(src).unwrap();
        dir.load_str(src).unwrap();
        let rl = lib.call("m.f", vec![RVal::Int(200)]).unwrap();
        let rd = dir.call("m.f", vec![RVal::Int(200)]).unwrap();
        assert_eq!(rl.result, rd.result);
        // This loop mixes library calls with direct cell operations, so the
        // gap is below the suite-wide ≥2× (arithmetic-dominated programs
        // like fib exceed it; see the E1/E2 experiments).
        assert!(
            rl.stats.instrs * 10 > rd.stats.instrs * 14,
            "library {} vs direct {} instructions",
            rl.stats.instrs,
            rd.stats.instrs
        );
    }

    #[test]
    fn recursion_and_conditionals() {
        let mut s = Session::default_session().unwrap();
        s.load_str(
            "module m export fib\n\
             let fib(n: Int): Int = if n < 2 then n else fib(n - 1) + fib(n - 2) end\n\
             end",
        )
        .unwrap();
        let r = s.call("m.fib", vec![RVal::Int(15)]).unwrap();
        assert_eq!(r.result, RVal::Int(610));
    }

    #[test]
    fn exceptions_surface_and_are_handled() {
        let mut s = Session::default_session().unwrap();
        s.load_str(
            "module m export boom, safe\n\
             let boom(a: Int): Int = if a < 0 then raise 99 else a end\n\
             let safe(a: Int): Int = try boom(a) handle e -> 0 - 1 end\n\
             end",
        )
        .unwrap();
        let ok = s.call("m.boom", vec![RVal::Int(5)]).unwrap();
        assert_eq!(ok.result, RVal::Int(5));
        let err = s.call("m.boom", vec![RVal::Int(-5)]);
        assert!(matches!(err, Err(LangError::Exception(m)) if m.contains("99")));
        let handled = s.call("m.safe", vec![RVal::Int(-5)]).unwrap();
        assert_eq!(handled.result, RVal::Int(-1));
    }

    #[test]
    fn division_by_zero_is_catchable() {
        let mut s = Session::default_session().unwrap();
        s.load_str(
            "module m export f\n\
             let f(a: Int): Int = try 10 / a handle e -> 0 - 7 end\n\
             end",
        )
        .unwrap();
        assert_eq!(
            s.call("m.f", vec![RVal::Int(2)]).unwrap().result,
            RVal::Int(5)
        );
        assert_eq!(
            s.call("m.f", vec![RVal::Int(0)]).unwrap().result,
            RVal::Int(-7)
        );
    }

    #[test]
    fn closures_carry_ptml_and_bindings() {
        let s = Session::default_session().unwrap();
        let SVal::Ref(oid) = s.global("int.min").unwrap() else {
            panic!("expected ref");
        };
        let Object::Closure(c) = s.store.get(*oid).unwrap() else {
            panic!("expected closure");
        };
        assert!(c.ptml.is_some());
        // int.min calls int.lt — recorded as an R-value binding.
        assert!(
            c.bindings.iter().any(|(n, _)| n == "int.lt"),
            "{:?}",
            c.bindings
        );
    }

    #[test]
    fn ptml_can_be_disabled() {
        let s = Session::new(SessionConfig {
            attach_ptml: false,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(s.ptml_bytes(), 0);
        assert!(s.code_bytes() > 0);
    }

    #[test]
    fn duplicate_module_rejected() {
        let mut s = Session::default_session().unwrap();
        let src = "module m export f\nlet f(a: Int): Int = a\nend";
        s.load_str(src).unwrap();
        assert!(matches!(
            s.load_str(src),
            Err(LangError::DuplicateModule(_))
        ));
    }

    #[test]
    fn unresolved_global_rejected_at_type_time() {
        let mut s = Session::default_session().unwrap();
        let src = "module m export f\nlet f(a: Int): Int = ghost.fn(a)\nend";
        assert!(s.load_str(src).is_err());
    }

    #[test]
    fn loops_and_mutable_state() {
        let mut s = Session::default_session().unwrap();
        s.load_str(
            "module m export sum\n\
             let sum(n: Int): Int = var s := 0 in \
               (for i = 1 upto n do s := s + i end; s)\n\
             end",
        )
        .unwrap();
        let r = s.call("m.sum", vec![RVal::Int(100)]).unwrap();
        assert_eq!(r.result, RVal::Int(5050));
    }

    #[test]
    fn print_output_captured() {
        let mut s = Session::default_session().unwrap();
        s.load_str("module m export f\nlet f(a: Int): Unit = io.print(a)\nend")
            .unwrap();
        let r = s.call("m.f", vec![RVal::Int(7)]).unwrap();
        assert_eq!(r.output, vec!["7"]);
    }

    #[test]
    fn local_static_optimization_keeps_results() {
        let src = "module m export f\n\
                   let f(n: Int): Int = (1 + 2) * n + (10 / 2)\n\
                   end";
        let mut plain = session(LowerMode::Library, OptMode::None);
        let mut opt = session(LowerMode::Library, OptMode::Local);
        plain.load_str(src).unwrap();
        opt.load_str(src).unwrap();
        let a = plain.call("m.f", vec![RVal::Int(9)]).unwrap();
        let b = opt.call("m.f", vec![RVal::Int(9)]).unwrap();
        assert_eq!(a.result, b.result);
        assert_eq!(a.result, RVal::Int(32));
    }

    #[test]
    fn garbage_collection_keeps_sessions_runnable() {
        let mut s = Session::default_session().unwrap();
        s.load_str(
            "module m export sum\n\
             let sum(n: Int): Int = var s := 0 in \
               (for i = 1 upto n do s := s + i end; s)\n\
             end",
        )
        .unwrap();
        // The `var` cell is a store object; after the call it is garbage.
        let r1 = s.call("m.sum", vec![RVal::Int(50)]).unwrap();
        let before = s.store.live();
        let stats = s.collect_garbage().unwrap();
        assert!(stats.freed > 0, "the var cell should be collected");
        assert!(s.store.live() < before);
        // Everything still runs after collection.
        let r2 = s.call("m.sum", vec![RVal::Int(50)]).unwrap();
        assert_eq!(r1.result, r2.result);
    }

    #[test]
    fn higher_order_functions() {
        let mut s = Session::default_session().unwrap();
        s.load_str(
            "module m export twice, inc, go\n\
             let inc(x: Int): Int = x + 1\n\
             let twice(f: Fun(Int): Int, x: Int): Int = f(f(x))\n\
             let go(x: Int): Int = twice(inc, x)\n\
             end",
        )
        .unwrap();
        let r = s.call("m.go", vec![RVal::Int(40)]).unwrap();
        assert_eq!(r.result, RVal::Int(42));
    }
}
