//! Bytecode disassembler: human-readable listings of compiled blocks,
//! used by the `tmlc` CLI (`--dump-code`) and in debugging sessions.

use crate::instr::{CodeBlock, CodeTable, ContRef, GroupCap, Instr, Src};
use std::fmt::Write;

fn src(s: Src) -> String {
    match s {
        Src::Slot(i) => format!("s{i}"),
        Src::Env(i) => format!("e{i}"),
        Src::Const(i) => format!("k{i}"),
    }
}

fn cont(c: &ContRef) -> String {
    match c {
        ContRef::Label(l) => format!("@{l}"),
        ContRef::Closure(s) => format!("call {}", src(*s)),
    }
}

fn srcs(ss: &[Src]) -> String {
    ss.iter().map(|s| src(*s)).collect::<Vec<_>>().join(" ")
}

/// Render one instruction.
pub fn instr(i: &Instr) -> String {
    match i {
        Instr::Mov { dst, src: s } => format!("mov      s{dst}, {}", src(*s)),
        Instr::Close {
            dst,
            code,
            captures,
            ..
        } => {
            format!("close    s{dst}, #{code} [{}]", srcs(captures))
        }
        Instr::Push { exits, captures } => {
            let exits: Vec<String> = exits.iter().map(|(c, d)| format!("s{d}=#{c}")).collect();
            format!("push     {} [{}]", exits.join(" "), srcs(captures))
        }
        Instr::CloseGroup { dsts, parts, .. } => {
            let mut out = String::from("closegrp ");
            for (j, (dst, (code, caps))) in dsts.iter().zip(parts.iter()).enumerate() {
                if j > 0 {
                    out.push_str("; ");
                }
                let caps: Vec<String> = caps
                    .iter()
                    .map(|c| match c {
                        GroupCap::Ext(s) => src(*s),
                        GroupCap::Member(m) => format!("grp{m}"),
                    })
                    .collect();
                let _ = write!(out, "s{dst}=#{code}[{}]", caps.join(" "));
            }
            out
        }
        Instr::Arith {
            op,
            dst,
            a,
            b,
            on_err,
            on_ok,
        } => format!(
            "{:<8} s{dst}, {}, {}  ok:{} err:{}",
            format!("{op:?}").to_lowercase(),
            src(*a),
            src(*b),
            cont(on_ok),
            cont(on_err)
        ),
        Instr::Branch {
            op,
            a,
            b,
            then_,
            else_,
        } => format!(
            "br.{:<5} {}, {}  then:{} else:{}",
            format!("{op:?}").to_lowercase(),
            src(*a),
            src(*b),
            cont(then_),
            cont(else_)
        ),
        Instr::Bit {
            op,
            dst,
            a,
            b,
            on_ok,
        } => format!(
            "bit.{:<4} s{dst}, {}, {}  ok:{}",
            format!("{op:?}").to_lowercase(),
            src(*a),
            src(*b),
            cont(on_ok)
        ),
        Instr::Conv { op, dst, a, on_ok } => format!(
            "conv.{:<8} s{dst}, {}  ok:{}",
            format!("{op:?}").to_lowercase(),
            src(*a),
            cont(on_ok)
        ),
        Instr::BTest { a, then_, else_ } => {
            format!(
                "btest    {}  then:{} else:{}",
                src(*a),
                cont(then_),
                cont(else_)
            )
        }
        Instr::Switch {
            scrut,
            tags,
            targets,
            default,
        } => {
            let mut out = format!("switch   {} ", src(*scrut));
            for (t, c) in tags.iter().zip(targets.iter()) {
                let _ = write!(out, "[{}→{}]", src(*t), cont(c));
            }
            if let Some(d) = default {
                let _ = write!(out, " else:{}", cont(d));
            }
            out
        }
        Instr::Alloc {
            kind,
            dst,
            args,
            on_ok,
        } => format!(
            "alloc.{:<6} s{dst} [{}]  ok:{}",
            format!("{kind:?}").to_lowercase(),
            srcs(args),
            cont(on_ok)
        ),
        Instr::Idx {
            byte,
            dst,
            arr,
            index,
            on_err,
            on_ok,
        } => format!(
            "{}        s{dst}, {}[{}]  ok:{} err:{}",
            if *byte { "bld" } else { "ld " },
            src(*arr),
            src(*index),
            cont(on_ok),
            cont(on_err)
        ),
        Instr::IdxSet {
            byte,
            dst,
            arr,
            index,
            value,
            on_err,
            on_ok,
        } => format!(
            "{}        {}[{}] := {}  (unit→s{dst})  ok:{} err:{}",
            if *byte { "bst" } else { "st " },
            src(*arr),
            src(*index),
            src(*value),
            cont(on_ok),
            cont(on_err)
        ),
        Instr::Size { dst, arr, on_ok } => {
            format!("size     s{dst}, {}  ok:{}", src(*arr), cont(on_ok))
        }
        Instr::MoveBlk {
            byte,
            dst,
            args,
            on_err,
            on_ok,
        } => format!(
            "{}     (unit→s{dst}) [{}]  ok:{} err:{}",
            if *byte { "bmove" } else { "move " },
            srcs(&args[..]),
            cont(on_ok),
            cont(on_err)
        ),
        Instr::Extern {
            name,
            dst,
            args,
            on_err,
            on_ok,
        } => format!(
            "extern   #{name} s{dst} [{}]  ok:{} err:{}",
            srcs(args),
            cont(on_ok),
            cont(on_err)
        ),
        Instr::CallPrim {
            prim,
            dst,
            args,
            on_err,
            on_ok,
        } => format!(
            "callprim #{prim} s{dst} [{}]  ok:{} err:{}",
            srcs(args),
            cont(on_ok),
            cont(on_err)
        ),
        Instr::Call { target, args } => format!("call     {} [{}]", src(*target), srcs(args)),
        Instr::Jump { target } => format!("jump     @{target}"),
        Instr::Halt { src: s } => format!("halt     {}", src(*s)),
        Instr::Print { dst, src: s, on_ok } => {
            format!("print    {} (unit→s{dst})  ok:{}", src(*s), cont(on_ok))
        }
        Instr::NativeRet { ok } => format!("nret     {}", if *ok { "ok" } else { "err" }),
    }
}

/// Render a block with its pools.
pub fn block(ix: u32, b: &CodeBlock) -> String {
    let mut out = format!(
        "block #{ix} {} (params={}, slots={}, ~{} bytes)\n",
        b.name,
        b.nparams,
        b.nslots,
        b.byte_size()
    );
    if !b.consts.is_empty() {
        let _ = writeln!(
            out,
            "  consts: {}",
            b.consts
                .iter()
                .enumerate()
                .map(|(i, c)| format!("k{i}={c:?}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    if !b.extern_names.is_empty() {
        let _ = writeln!(
            out,
            "  externs: {}",
            b.extern_names
                .iter()
                .enumerate()
                .map(|(i, n)| format!("#{i}={n}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    for (pc, i) in b.instrs.iter().enumerate() {
        let _ = writeln!(out, "  {pc:>4}: {}", instr(i));
    }
    out
}

/// Render the whole code table.
pub fn table(t: &CodeTable) -> String {
    let mut out = String::new();
    for (ix, b) in t.iter() {
        out.push_str(&block(ix, b));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tml_core::parse::parse_app;
    use tml_core::Ctx;

    fn compile(src_text: &str) -> CodeTable {
        let mut ctx = Ctx::new();
        let parsed = parse_app(&mut ctx, src_text).unwrap();
        let vm = crate::Vm::new();
        vm.compile_program(&ctx, &parsed.app).unwrap();
        vm.code
    }

    #[test]
    fn disassembles_every_instruction_shape() {
        let code = compile(
            "(cont(f) \
               (f 1 cont(e)(halt e) cont(t) \
                 (array t 2 cont(a) \
                   ([:=] a 0 9 cont(e2)(halt e2) cont(u) \
                     (== t 1 2 cont()(halt 1) cont()(halt 2) cont()(halt t))))) \
               proc(x ce cc) (+ x 1 ce cc))",
        );
        let text = table(&code);
        for needle in [
            "close",
            "push",
            "call",
            "alloc.array",
            "st ",
            "switch",
            "halt",
            "add",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn block_header_reports_sizes() {
        let code = compile("(halt 13)");
        let text = table(&code);
        assert!(text.contains("params=0"), "{text}");
        assert!(text.contains("k0=13"), "{text}");
    }

    #[test]
    fn y_loops_render_as_jumps() {
        let code = compile(
            "(Y proc(^c0 ^f ^c) (c cont() (f 1) \
               cont(i) (> i 3 cont()(halt i) cont()(f i))))",
        );
        let text = table(&code);
        assert!(text.contains("jump"), "{text}");
        assert!(text.contains("br.gt"), "{text}");
    }

    #[test]
    fn escaping_y_groups_render() {
        let code = compile(
            "(cont(g) \
               (Y proc(^c0 ^f ^c) (c \
                 cont() (g f cont(e)(halt e) cont(t)(halt t)) \
                 cont(i) (f i))) \
               proc(x ce cc) (cc x))",
        );
        let text = table(&code);
        assert!(text.contains("closegrp"), "{text}");
    }
}
