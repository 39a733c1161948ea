//! Experiment E3 (paper §6): persistent code size with and without PTML
//! attachments.
//!
//! "Due to the space requirements for the additional persistent encoding
//! of the TML tree for each function, the code size doubles at the same
//! time (1.2MB vs 600kB for the complete Tycoon system)."
//!
//! We measure, per Stanford program and for the whole session (standard
//! library included), the approximate encoded size of the executable
//! bytecode versus bytecode + PTML. Both come from one session, once
//! every closure is linked through the shared linker, as its first call
//! would link it.

use tml_lang::stanford::suite;
use tml_lang::Session;

fn sizes(src: &str) -> (usize, usize) {
    let mut s = Session::default_session().expect("session");
    s.load_str(src).expect("loads");
    s.link_all().expect("every closure links");
    (s.code_bytes(), s.code_bytes() + s.ptml_bytes())
}

fn main() {
    println!("E3 — persistent code size: executable code vs code + PTML\n");
    println!(
        "{:<10} {:>14} {:>16} {:>8}",
        "program", "code bytes", "code+PTML bytes", "ratio"
    );
    println!("{}", "-".repeat(52));
    let mut total_without = 0usize;
    let mut total_with = 0usize;
    for p in suite() {
        let (without, with) = sizes(p.src);
        println!(
            "{:<10} {:>14} {:>16} {:>7.2}x",
            p.name,
            without,
            with,
            with as f64 / without as f64
        );
        total_without += without;
        total_with += with;
    }
    println!("{}", "-".repeat(52));
    println!(
        "{:<10} {:>14} {:>16} {:>7.2}x",
        "TOTAL",
        total_without,
        total_with,
        total_with as f64 / total_without as f64
    );
    println!(
        "\npaper §6: \"the code size doubles\" (1.2MB with PTML vs 600kB without, ratio 2.00x)."
    );
}
