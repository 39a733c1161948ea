//! Integration tests for the `tmlc` command line.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

fn tmlc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tmlc"))
}

/// Write a shared source file once per test process. Tests run in
/// parallel and spawn `tmlc` children that read these files, so they must
/// never be rewritten (a truncating rewrite races a concurrent reader).
fn source_file(cell: &'static OnceLock<PathBuf>, name: &str, src: &str) -> PathBuf {
    cell.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("tmlc_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, src).unwrap();
        path
    })
    .clone()
}

fn demo_file() -> PathBuf {
    static DEMO: OnceLock<PathBuf> = OnceLock::new();
    source_file(
        &DEMO,
        "demo.tl",
        "module demo export main\n\
         let main(n: Int): Int =\n\
           var s := 0 in\n\
           (for i = 1 upto n do s := s + i * i end; s)\n\
         end\n",
    )
}

/// A fresh per-test directory. An image is several files (catalog,
/// `.p<gen>` pages, `.wal`, `.bak`), so tests remove the whole directory.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tmlc_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn run_computes_and_prints_result() {
    let out = tmlc()
        .args(["run"])
        .arg(demo_file())
        .args(["--arg", "10"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "385");
}

#[test]
fn dynamic_flag_reduces_instructions() {
    let count = |dynamic: bool| -> u64 {
        let mut cmd = tmlc();
        cmd.args(["run"])
            .arg(demo_file())
            .args(["--arg", "10", "--stats"]);
        if dynamic {
            cmd.arg("--dynamic");
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        stderr
            .split("instructions=")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no stats in {stderr:?}"))
    };
    let plain = count(false);
    let dynamic = count(true);
    assert!(dynamic < plain, "{dynamic} vs {plain}");
}

#[test]
fn eval_runs_raw_tml() {
    let out = tmlc()
        .args(["eval", "(* 6 7 cont(e)(halt e) cont(t)(halt t))"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "42");
}

#[test]
fn tml_dump_contains_the_function() {
    let out = tmlc()
        .args(["tml"])
        .arg(demo_file())
        .args(["--fn", "demo.main"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("; demo.main"), "{text}");
    assert!(text.contains("proc("), "{text}");
}

#[test]
fn code_dump_disassembles() {
    let out = tmlc().args(["code"]).arg(demo_file()).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("block #"), "{text}");
    assert!(text.contains("halt") || text.contains("call"), "{text}");
}

#[test]
fn snapshot_and_info_roundtrip() {
    let dir = scratch_dir("img");
    let image = dir.join("image.tys");
    let out = tmlc()
        .args(["snapshot"])
        .arg(demo_file())
        .args(["-o"])
        .arg(&image)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = tmlc().args(["info"]).arg(&image).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("demo"), "{text}");
    assert!(text.contains("closure"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

fn geom_file() -> PathBuf {
    static GEOM: OnceLock<PathBuf> = OnceLock::new();
    source_file(
        &GEOM,
        "geom.tl",
        "module complex export new, x, y\n\
         let new(a: Real, b: Real): Tuple = tuple(a, b)\n\
         let x(c: Tuple): Real = c.0\n\
         let y(c: Tuple): Real = c.1\n\
         end\n\
         module geom export abs\n\
         let abs(c: Tuple): Real =\n\
           real.sqrt(complex.x(c) * complex.x(c) + complex.y(c) * complex.y(c))\n\
         end\n",
    )
}

#[test]
fn profile_reports_opcode_histogram_and_counters() {
    let out = tmlc()
        .args(["profile"])
        .arg(demo_file())
        .args(["demo.main", "--arg", "10"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("=> 385"), "{text}");
    assert!(text.contains("opcodes (top"), "{text}");
    assert!(text.contains("instructions "), "{text}");
}

#[test]
fn profile_json_is_a_registry_export() {
    let out = tmlc()
        .args(["profile"])
        .arg(demo_file())
        .args(["demo.main", "--arg", "10", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("{\"version\":3,"), "{text}");
    assert!(text.contains("\"vm.instrs\":"), "{text}");
    assert!(text.contains("\"counters\":{"), "{text}");
}

#[test]
fn explain_prints_provenance_and_verifies_replay() {
    let out = tmlc()
        .args(["explain"])
        .arg(geom_file())
        .args(["geom.abs", "--verify"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rule subst"), "{text}");
    assert!(text.contains("expand inline"), "{text}");
    assert!(text.contains("stop after"), "{text}");
    assert!(text.contains("verify: replay of"), "{text}");
    assert!(text.contains("reproduces the optimized term"), "{text}");
}

/// Query rules ride the query primitives every `tmlc` image session
/// installs: explaining a view query shows the merge-select firing, and
/// the provenance replay reproduces it.
#[test]
fn explain_verifies_a_merge_select_firing() {
    let dir = scratch_dir("explain_query");
    let src = dir.join("views.tl");
    std::fs::write(
        &src,
        "module db export both, main\n\
         let adults(r: Rel): Rel = select x from x in r where x.1 > 20\n\
         let both(r: Rel): Rel = select y from y in adults(r) where y.2 == true\n\
         let main(n: Int): Int = n\n\
         end\n",
    )
    .unwrap();
    let image = dir.join("views.img");
    let out = tmlc()
        .args(["run"])
        .arg(&src)
        .args(["--entry", "db.main", "--arg", "1", "--durable"])
        .arg(&image)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = tmlc()
        .args(["explain"])
        .arg(&image)
        .args(["db.both", "--verify"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rule merge-select @select"), "{text}");
    assert!(text.contains("verify: replay of"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_json_carries_rule_events() {
    let out = tmlc()
        .args(["explain"])
        .arg(geom_file())
        .args(["geom.abs", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"type\":\"rule-fired\""), "{text}");
    assert!(text.contains("\"type\":\"expand-decision\""), "{text}");
    assert!(text.contains("\"type\":\"opt-stop\""), "{text}");
}

#[test]
fn profile_runs_from_a_snapshot_image() {
    let dir = scratch_dir("prof");
    let image = dir.join("image.tys");
    let out = tmlc()
        .args(["snapshot"])
        .arg(geom_file())
        .args(["-o"])
        .arg(&image)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = tmlc()
        .args(["explain"])
        .arg(&image)
        .args(["geom.abs"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rule "), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn info_json_exposes_store_gauges() {
    let dir = scratch_dir("infoj");
    let image = dir.join("image.tys");
    let out = tmlc()
        .args(["snapshot"])
        .arg(demo_file())
        .args(["-o"])
        .arg(&image)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = tmlc()
        .args(["info", "--json"])
        .arg(&image)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"store.objects\":"), "{text}");
    assert!(text.contains("\"store.closures\":"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Minimal JSON validator: recursive descent over value syntax, no
/// construction. Returns true when `s` is exactly one valid JSON value —
/// what `jq` would accept — so tests can assert emitted documents parse
/// without a JSON dependency.
fn json_is_valid(s: &str) -> bool {
    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
            i += 1;
        }
        i
    }
    fn value(b: &[u8], i: usize) -> Option<usize> {
        let i = skip_ws(b, i);
        match b.get(i)? {
            b'{' => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b'}') {
                    return Some(i + 1);
                }
                loop {
                    i = string(b, skip_ws(b, i))?;
                    i = skip_ws(b, i);
                    if b.get(i) != Some(&b':') {
                        return None;
                    }
                    i = value(b, i + 1)?;
                    i = skip_ws(b, i);
                    match b.get(i)? {
                        b',' => i += 1,
                        b'}' => return Some(i + 1),
                        _ => return None,
                    }
                }
            }
            b'[' => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b']') {
                    return Some(i + 1);
                }
                loop {
                    i = value(b, i)?;
                    i = skip_ws(b, i);
                    match b.get(i)? {
                        b',' => i += 1,
                        b']' => return Some(i + 1),
                        _ => return None,
                    }
                }
            }
            b'"' => string(b, i),
            b't' => b[i..].starts_with(b"true").then_some(i + 4),
            b'f' => b[i..].starts_with(b"false").then_some(i + 5),
            b'n' => b[i..].starts_with(b"null").then_some(i + 4),
            _ => number(b, i),
        }
    }
    fn string(b: &[u8], mut i: usize) -> Option<usize> {
        if b.get(i) != Some(&b'"') {
            return None;
        }
        i += 1;
        while let Some(&c) = b.get(i) {
            match c {
                b'"' => return Some(i + 1),
                b'\\' => i += 2,
                _ => i += 1,
            }
        }
        None
    }
    fn number(b: &[u8], mut i: usize) -> Option<usize> {
        let start = i;
        if b.get(i) == Some(&b'-') {
            i += 1;
        }
        while i < b.len()
            && (b[i].is_ascii_digit() || matches!(b[i], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            i += 1;
        }
        (i > start && b[start..i].iter().any(|c| c.is_ascii_digit())).then_some(i)
    }
    let b = s.as_bytes();
    match value(b, 0) {
        Some(end) => skip_ws(b, end) == b.len(),
        None => false,
    }
}

#[test]
fn profile_chrome_export_is_valid_json_with_span_events() {
    let dir = std::env::temp_dir().join(format!("tmlc_chrome_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let chrome = dir.join("out.json");
    let flame = dir.join("out.folded");
    let out = tmlc()
        .args(["profile"])
        .arg(demo_file())
        .args(["demo.main", "--arg", "10", "--chrome"])
        .arg(&chrome)
        .arg("--flame")
        .arg(&flame)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&chrome).unwrap();
    assert!(
        json_is_valid(&json),
        "chrome export is not valid JSON: {json}"
    );
    assert!(json.contains("\"traceEvents\":["), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "{json}");
    assert!(json.contains("\"name\":\"vm.run\""), "{json}");
    // The folded flamegraph holds `stack count` lines for the same spans.
    let folded = std::fs::read_to_string(&flame).unwrap();
    assert!(
        folded.lines().any(|l| {
            let mut parts = l.rsplitn(2, ' ');
            let count_ok = parts.next().is_some_and(|n| n.parse::<u64>().is_ok());
            count_ok && parts.next().is_some_and(|s| s.contains("vm.run"))
        }),
        "{folded}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_reports_percentiles_per_subsystem() {
    let out = tmlc()
        .args(["stats"])
        .arg(demo_file())
        .args(["demo.main", "--arg", "10", "--runs", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("=> 385"), "{text}");
    assert!(text.contains("time by subsystem:"), "{text}");
    for subsystem in ["opt", "vm", "store", "reflect"] {
        assert!(
            text.contains(&format!("  {subsystem}")),
            "no {subsystem} row in {text}"
        );
    }
    assert!(text.contains("p50"), "{text}");
    assert!(text.contains("p99"), "{text}");
    // The acceptance paths: optimizer, VM, WAL commit, reflect cache fill.
    assert!(text.contains("opt.optimize_all"), "{text}");
    assert!(text.contains("vm.run"), "{text}");
    assert!(text.contains("store.wal.commit_flush"), "{text}");
    assert!(text.contains("reflect.cache.miss_fill"), "{text}");
}

#[test]
fn info_json_is_deterministic_with_sorted_keys() {
    let dir = scratch_dir("det");
    let image = dir.join("image.tys");
    let out = tmlc()
        .args(["snapshot"])
        .arg(demo_file())
        .args(["-o"])
        .arg(&image)
        .output()
        .unwrap();
    assert!(out.status.success());
    let run = || {
        let out = tmlc()
            .args(["info", "--json"])
            .arg(&image)
            .output()
            .unwrap();
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "info --json must be byte-identical across runs");
    assert!(json_is_valid(a.trim()), "{a}");
    // Gauge keys inside the counters object are emitted sorted.
    let counters = a
        .split("\"counters\":{")
        .nth(1)
        .and_then(|s| s.split('}').next())
        .unwrap_or_else(|| panic!("no counters object in {a}"));
    let keys: Vec<&str> = counters
        .split(',')
        .filter_map(|kv| kv.split(':').next())
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "counter keys not sorted in {a}");
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end `--durable` round trip: a run against a fresh durable image
/// persists the program; a second run executes straight from the image
/// with no source file; `info --json` on the paged image is deterministic,
/// sorted, and carries the `store.page.*` / `store.buffer.*` gauges; and
/// `fsck` reports a healthy image with a `pages` section.
#[test]
fn durable_run_persists_and_info_reports_page_gauges() {
    let dir = std::env::temp_dir().join(format!("tmlc_durable_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let image = dir.join("db.img");
    let out = tmlc()
        .args(["run"])
        .arg(demo_file())
        .args(["--durable"])
        .arg(&image)
        .args(["--arg", "10"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "385");
    // Second run: no source file — the program lives in the image.
    let out = tmlc()
        .args(["run", "--durable"])
        .arg(&image)
        .args(["--entry", "demo.main", "--arg", "20"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "2870");
    // info --json: deterministic, sorted, with the paged-store gauges.
    let run = || {
        let out = tmlc()
            .args(["info", "--json"])
            .arg(&image)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "info --json must be byte-identical across runs");
    assert!(json_is_valid(a.trim()), "{a}");
    for gauge in [
        "store.page.gen",
        "store.page.pages",
        "store.page.records",
        "store.page.live_bytes",
        "store.buffer.resident",
        "store.buffer.hits",
    ] {
        assert!(a.contains(&format!("\"{gauge}\"")), "no {gauge} in {a}");
    }
    let counters = a
        .split("\"counters\":{")
        .nth(1)
        .and_then(|s| s.split('}').next())
        .unwrap_or_else(|| panic!("no counters object in {a}"));
    let keys: Vec<&str> = counters
        .split(',')
        .filter_map(|kv| kv.split(':').next())
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "counter keys not sorted in {a}");
    // fsck: healthy, format 5 (TYCAT2), with a pages section.
    let out = tmlc().args(["fsck"]).arg(&image).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("\"format\": 5"), "{report}");
    assert!(report.contains("\"pages\": {"), "{report}");
    assert!(report.contains("\"ok\": true"), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = tmlc().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_entry_reports_error() {
    let dir = std::env::temp_dir().join(format!("tmlc_noentry_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lib.tl");
    std::fs::write(&path, "module lib export f\nlet f(a: Int): Int = a\nend\n").unwrap();
    let out = tmlc().args(["run"]).arg(&path).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no entry point"));
}

#[test]
fn fsck_passes_a_healthy_image() {
    let dir = scratch_dir("fsck_ok");
    let image = dir.join("image.tys");
    let out = tmlc()
        .args(["snapshot"])
        .arg(geom_file())
        .args(["-o"])
        .arg(&image)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = tmlc().args(["fsck"]).arg(&image).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"ok\": true"), "{text}");
    assert!(text.contains("\"format\": 5"), "{text}");
    assert!(text.contains("\"dangling_roots\": []"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsck_flags_a_corrupt_image_and_repair_restores_it() {
    let dir = std::env::temp_dir().join(format!("tmlc_fsck_bad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let image = dir.join("world.tys");
    // Snapshot twice: the second replaces the first image outright, and
    // its closing checkpoint leaves a good .bak next to the primary.
    for _ in 0..2 {
        let out = tmlc()
            .args(["snapshot"])
            .arg(geom_file())
            .args(["-o"])
            .arg(&image)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Flip a byte in the middle of the primary catalog: the CRC catches it.
    let mut bytes = std::fs::read(&image).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&image, &bytes).unwrap();

    let out = tmlc().args(["fsck"]).arg(&image).output().unwrap();
    assert!(!out.status.success(), "corrupt image must fail fsck");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"ok\": false"), "{text}");

    // --repair recovers from the backup into a fresh image...
    let repaired = dir.join("repaired.tys");
    let out = tmlc()
        .args(["fsck"])
        .arg(&image)
        .args(["--repair", "-o"])
        .arg(&repaired)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"repair\": {"), "{text}");
    assert!(text.contains("\"source\": \"backup\""), "{text}");

    // ...and the repaired image passes a clean fsck.
    let out = tmlc().args(["fsck"]).arg(&repaired).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"ok\": true"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_of_a_damaged_image_traces_the_catalog_recovery() {
    let dir = scratch_dir("recovery");
    let image = dir.join("world.tys");
    let out = tmlc()
        .args(["snapshot"])
        .arg(demo_file())
        .args(["-o"])
        .arg(&image)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut bytes = std::fs::read(&image).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&image, &bytes).unwrap();

    let out = tmlc()
        .args(["profile"])
        .arg(&image)
        .args(["demo.main", "--arg", "3", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("loaded from backup"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("\"type\":\"recovery\",\"source\":\"backup\""),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn opt_reports_its_work_and_rejects_a_removed_option() {
    let out = tmlc().args(["opt"]).arg(demo_file()).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("optimized"), "{text}");
    let out = tmlc()
        .args(["opt"])
        .arg(demo_file())
        .args(["--jobs", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option --jobs"), "{err}");
}
