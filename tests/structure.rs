//! Structural claims about the source tree, checked on its text: one
//! entry point per pipeline, one Lloyd loop, one scheduling loop, one
//! JSON module, one bench harness, no `unsafe`, and a CI that runs
//! `cargo test` whole. Each test is one predicate over the files
//! it names; the shim modules kept for the end-to-end benchmark's old
//! signatures (`shim.rs`) are exempt where the claim is about the live
//! API.

use std::fs;
use std::path::{Path, PathBuf};

/// The repository root (this package's manifest directory).
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `*.rs` file under `dirs` (relative to the root), recursively,
/// in path order.
fn rust_files(dirs: &[&str]) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    for dir in dirs {
        walk(&root().join(dir), &mut out);
    }
    out.sort();
    out
}

/// The `src` directory of every workspace crate under `crates/`.
fn crate_srcs() -> Vec<String> {
    let mut dirs: Vec<String> = fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .flatten()
        .filter(|e| e.path().join("src").is_dir())
        .map(|e| format!("crates/{}/src", e.file_name().to_string_lossy()))
        .collect();
    dirs.sort();
    dirs
}

fn is_shim(path: &Path) -> bool {
    path.file_name().is_some_and(|n| n == "shim.rs")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// `path` relative to the root, for messages.
fn rel(path: &Path) -> String {
    path.strip_prefix(root())
        .unwrap_or(path)
        .display()
        .to_string()
}

/// The file's lines up to and including the first line that opens its
/// test module (`#[cfg(test)]` at the start of the line, after
/// indentation when `indented`): the non-test part.
fn non_test(text: &str, indented: bool) -> Vec<&str> {
    let mut out = Vec::new();
    for line in text.lines() {
        out.push(line);
        let head = if indented { line.trim_start() } else { line };
        if head.starts_with("#[cfg(test)]") {
            break;
        }
    }
    out
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `needle` occurs in `line` as a whole word (`grep -w`).
fn has_word(line: &str, needle: &str) -> bool {
    let bytes = line.as_bytes();
    line.match_indices(needle).any(|(i, _)| {
        let before = i == 0 || !is_word_byte(bytes[i - 1]);
        let end = i + needle.len();
        let after = end == bytes.len() || !is_word_byte(bytes[end]);
        before && after
    })
}

/// The identifier that starts at byte `i` of `text` (`\w*`).
fn ident_at(text: &str, i: usize) -> &str {
    let len = text.as_bytes()[i..]
        .iter()
        .take_while(|&&b| is_word_byte(b))
        .count();
    &text[i..i + len]
}

/// The name after each `pub fn ` in `text`.
fn pub_fn_names(text: &str) -> Vec<&str> {
    text.match_indices("pub fn ")
        .map(|(i, m)| ident_at(text, i + m.len()))
        .collect()
}

#[test]
fn the_simulator_has_two_entry_points() {
    // `simulate` and `simulate_epochs`: a run's other facts (faults,
    // streamed source, pool, observation) are values of its plan and
    // context, not function names.
    let mut found = Vec::new();
    for path in rust_files(&["crates/sim/src", "crates/replay/src"]) {
        if is_shim(&path) {
            continue;
        }
        for line in read(&path).lines() {
            let Some(rest) = line.trim_start().strip_prefix("pub fn ") else {
                continue;
            };
            let name = ident_at(rest, 0);
            if name.starts_with("simulate")
                || name.starts_with("replay_")
                || name.ends_with("_observed")
            {
                found.push(format!("{}: {name}", rel(&path)));
            }
        }
    }
    assert_eq!(found.len(), 2, "simulation entry points: {found:?}");
}

#[test]
fn formation_has_one_entry_point() {
    // `form(&FormPlan, &mut FormContext, rng)`: the source, faults, draw
    // discipline and telemetry are values of its plan and context.
    let mut found = Vec::new();
    for path in rust_files(&["crates/core/src"]) {
        if is_shim(&path) {
            continue;
        }
        let text = read(&path);
        for name in pub_fn_names(&text) {
            if name == "form" || name.starts_with("form_groups") {
                found.push(format!("{}: {name}", rel(&path)));
            }
        }
    }
    assert_eq!(found.len(), 1, "formation entry points: {found:?}");
}

#[test]
fn telemetry_is_an_argument_not_a_twin() {
    // A twin is a `pub fn *_observed` whose parameter list takes the
    // bundle. The two left are on the benchmark's surface: it calls the
    // one-argument `retire` and the plain `reform_partial`, so they fold
    // when it is ported.
    let mut twins = Vec::new();
    let mut dirs = crate_srcs();
    dirs.push("src".into());
    let dirs: Vec<&str> = dirs.iter().map(String::as_str).collect();
    for path in rust_files(&dirs) {
        if is_shim(&path) {
            continue;
        }
        let text = read(&path);
        for (i, m) in text.match_indices("pub fn ") {
            let start = i + m.len();
            let name = ident_at(&text, start);
            if !name.ends_with("_observed") {
                continue;
            }
            let mut rest = &text[start + name.len()..];
            if rest.starts_with('<') {
                match rest.find('>') {
                    Some(end) => rest = &rest[end + 1..],
                    None => continue,
                }
            }
            let Some(params) = rest.strip_prefix('(') else {
                continue;
            };
            let params = &params[..params.find(')').unwrap_or(params.len())];
            if params.contains("Option<&mut Obs>") {
                twins.push(name.to_string());
            }
        }
    }
    twins.sort();
    assert_eq!(twins, ["reform_partial_observed", "retire_observed"]);
}

#[test]
fn kmeans_has_one_lloyd_loop() {
    // Plain, warm-started, masked and capped K-means differ only in the
    // assignment step; only the reference oracle's `*_rows` helpers keep
    // their own update and repair.
    let dirs = crate_srcs();
    let dirs: Vec<&str> = dirs.iter().map(String::as_str).collect();
    let files = rust_files(&dirs);
    for stem in ["update_center", "repair_empty"] {
        let mut defs = Vec::new();
        for path in &files {
            let text = read(path);
            for (i, m) in text.match_indices("fn ") {
                let name = ident_at(&text, i + m.len());
                if name.contains(stem) && !name.ends_with("_rows") {
                    defs.push(format!("{}: {name}", rel(path)));
                }
            }
        }
        assert_eq!(defs.len(), 1, "definitions of {stem}: {defs:?}");
    }
    for path in rust_files(&["crates/core/src"]) {
        for (n, line) in read(&path).lines().enumerate() {
            assert!(
                !line.contains("for round in"),
                "a Lloyd loop came back to {}:{}",
                rel(&path),
                n + 1
            );
        }
    }
}

#[test]
fn landmark_selection_has_no_map_and_fans_nothing_out() {
    let path = root().join("crates/core/src/landmarks.rs");
    let text = read(&path);
    for (n, line) in non_test(&text, false).into_iter().enumerate() {
        assert!(
            !line.contains("HashMap") && !line.contains("ecg_par::"),
            "landmarks.rs:{} outside its tests: {line}",
            n + 1
        );
    }
}

#[test]
fn ecg_par_has_one_scheduling_loop() {
    let text = read(&root().join("crates/par/src/lib.rs"));
    let loops = non_test(&text, false)
        .into_iter()
        .filter(|line| line.contains("thread::scope("))
        .count();
    assert_eq!(loops, 1, "scheduling loops in ecg-par");
}

#[test]
fn the_simulator_library_holds_no_reference_simulator() {
    // The references live in the tests: no whole-map pass and no scan
    // lookup outside them.
    let mut hits = Vec::new();
    for path in rust_files(&["crates/sim/src"]) {
        let text = read(&path);
        for (n, line) in non_test(&text, true).into_iter().enumerate() {
            let banned = ["simulate_time_major", "Timeline", "Lookup::Scan"];
            if banned.iter().any(|word| has_word(line, word)) {
                hits.push(format!("{}:{}: {line}", rel(&path), n + 1));
            }
        }
    }
    assert!(hits.is_empty(), "reference-simulator names: {hits:#?}");
}

#[test]
fn one_module_knows_the_json_format() {
    // Escaping, number formatting and parsing live in
    // `crates/obs/src/json.rs`; no other non-test code writes a `"key":`
    // literal by hand.
    let escapers: Vec<String> = rust_files(&["crates", "src"])
        .into_iter()
        .filter(|path| read(path).contains(r"\u{:04x}"))
        .map(|path| rel(&path))
        .collect();
    assert_eq!(escapers, ["crates/obs/src/json.rs"]);
    assert!(!root().join("crates/faults/src/jsonparse.rs").exists());

    let json = root().join("crates/obs/src/json.rs");
    let mut dirs = crate_srcs();
    dirs.push("src".into());
    let dirs: Vec<&str> = dirs.iter().map(String::as_str).collect();
    let mut literals = Vec::new();
    for path in rust_files(&dirs) {
        if path == json {
            continue;
        }
        for (n, line) in read(&path).lines().enumerate() {
            if line.trim_start().starts_with("#[cfg(test)]") {
                break;
            }
            if !line.trim_start().starts_with("//") && line.contains(r#"\":"#) {
                literals.push(format!("{}:{}: {line}", rel(&path), n + 1));
            }
        }
    }
    assert!(literals.is_empty(), "hand-written JSON keys: {literals:#?}");
}

#[test]
fn the_library_has_no_unsafe_code() {
    // `benchmark/` (clock and allocator FFI) is a workspace of its own,
    // and test files may count allocations through `GlobalAlloc`.
    const FORBID: &str = "#![forbid(unsafe_code)]";
    let mut dirs = crate_srcs();
    dirs.push("src".into());
    let dirs: Vec<&str> = dirs.iter().map(String::as_str).collect();
    let mut hits = Vec::new();
    for path in rust_files(&dirs) {
        for (n, line) in read(&path).lines().enumerate() {
            if has_word(line, "unsafe") && !line.contains(FORBID) {
                hits.push(format!("{}:{}: {line}", rel(&path), n + 1));
            }
        }
    }
    assert!(hits.is_empty(), "unsafe in the library: {hits:#?}");

    let missing: Vec<&str> = dirs
        .iter()
        .copied()
        .filter(|dir| !read(&root().join(dir).join("lib.rs")).contains(FORBID))
        .collect();
    assert!(
        missing.is_empty(),
        "crate roots without {FORBID}: {missing:?}"
    );
}

#[test]
fn the_benches_have_one_harness() {
    // `bench_hotpaths` and `bench_scale` time their own cells: no
    // manifest pulls in a benchmarking crate or declares a `cargo bench`
    // target.
    let mut manifests = vec![root().join("Cargo.toml")];
    let mut bench_dirs = Vec::new();
    for entry in fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .flatten()
    {
        manifests.push(entry.path().join("Cargo.toml"));
        if entry.path().join("benches").exists() {
            bench_dirs.push(rel(&entry.path().join("benches")));
        }
    }
    let mut hits = Vec::new();
    for path in manifests.iter().filter(|path| path.exists()) {
        for (n, line) in read(path).lines().enumerate() {
            if line.to_lowercase().contains("criterion")
                || line.trim_start().starts_with("[[bench]]")
            {
                hits.push(format!("{}:{}: {line}", rel(path), n + 1));
            }
        }
    }
    assert!(hits.is_empty(), "second bench harness: {hits:#?}");
    assert!(bench_dirs.is_empty(), "cargo bench targets: {bench_dirs:?}");
    // Both timing binaries read the clock through the one sampler.
    let clocks: Vec<String> = rust_files(&["crates/bench/src"])
        .iter()
        .flat_map(|path| {
            read(path)
                .matches("Instant::now")
                .map(|_| rel(path))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(
        clocks,
        ["crates/bench/src/sampler.rs"],
        "clock reads outside the sampler"
    );
}

/// `ci.yml`'s lines, each with the job it sits in (`None` above `jobs:`).
fn ci_lines() -> Vec<(Option<String>, String)> {
    let text = read(&root().join(".github/workflows/ci.yml"));
    let mut job = None;
    let mut in_jobs = false;
    let mut out = Vec::new();
    for line in text.lines() {
        if line == "jobs:" {
            in_jobs = true;
        } else if in_jobs && indent(line) == 2 && !line.trim().starts_with('#') {
            job = line.trim().strip_suffix(':').map(str::to_owned);
        }
        out.push((job.clone(), line.to_owned()));
    }
    out
}

fn indent(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// The commands of `ci.yml`'s `run:` steps, one per shell line (a line
/// continued with a backslash, or a block folded by `>`, is one), each
/// with the line it starts on and whether it sits in a `for` loop over
/// thread counts.
fn ci_commands() -> Vec<(usize, String, bool)> {
    let lines = ci_lines();
    let mut commands = Vec::new();
    let mut n = 0;
    while n < lines.len() {
        let line = &lines[n].1;
        let key = line.trim_start();
        let Some(script) = key.strip_prefix("- ").unwrap_or(key).strip_prefix("run:") else {
            n += 1;
            continue;
        };
        let script = script.trim();
        let mut body: Vec<(usize, String)> = Vec::new();
        if script == "|" || script == ">" {
            let key = indent(line);
            n += 1;
            while n < lines.len() && (lines[n].1.trim().is_empty() || indent(&lines[n].1) > key) {
                body.push((n + 1, lines[n].1.trim().to_owned()));
                n += 1;
            }
            if script == ">" {
                let joined = body
                    .iter()
                    .map(|(_, l)| l.as_str())
                    .collect::<Vec<_>>()
                    .join(" ");
                body = vec![(body.first().map_or(n, |(at, _)| *at), joined)];
            }
        } else {
            body.push((n + 1, script.to_owned()));
            n += 1;
        }
        let mut in_loop = false;
        let mut pending: Option<(usize, String)> = None;
        for (at, text) in body {
            if text.starts_with("for ") && text.contains("threads") {
                in_loop = true;
            } else if text == "done" || text.starts_with("done ") {
                in_loop = false;
            }
            let (start, mut command) = pending.take().unwrap_or((at, String::new()));
            command.push_str(text.trim_end_matches('\\'));
            command.push(' ');
            if text.ends_with('\\') {
                pending = Some((start, command));
            } else {
                commands.push((start, command, in_loop));
            }
        }
    }
    commands
}

/// The test-name filters of a `cargo test` command: its arguments that
/// are neither options nor option values.
fn cargo_test_filters(command: &str) -> Vec<&str> {
    const VALUED: [&str; 9] = [
        "-p",
        "--package",
        "--exclude",
        "--test",
        "--bin",
        "--example",
        "--manifest-path",
        "--features",
        "--target-dir",
    ];
    let Some((_, rest)) = command.split_once("cargo test") else {
        return Vec::new();
    };
    let mut filters = Vec::new();
    let mut args = rest.split_whitespace();
    while let Some(arg) = args.next() {
        if matches!(arg, "&&" | ";" | "|" | "||") {
            break;
        } else if VALUED.contains(&arg) {
            args.next();
        } else if !arg.starts_with('-') {
            filters.push(arg);
        }
    }
    filters
}

#[test]
fn ci_is_cargo_test_plus_the_runs_that_need_a_fresh_build() {
    // Every predicate is a Rust test (which tier-1 runs), and CI runs
    // the suites whole on an `ECG_THREADS` matrix. Only the steps over
    // `benchmark/` output, in `benchmark-smoke`, read a document with a
    // script.
    let mut hits = Vec::new();
    for (n, (job, line)) in ci_lines().iter().enumerate() {
        let code = line.split(" #").next().unwrap_or("");
        if code.trim_start().starts_with('#') || job.as_deref() == Some("benchmark-smoke") {
            continue;
        }
        for tool in ["python3", "grep", "diff", "awk"] {
            if has_word(code, tool) {
                hits.push(format!("ci.yml:{}: {tool}: {line}", n + 1));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "scripted predicates outside benchmark-smoke: {hits:#?}"
    );

    // No `cargo test` names the tests it runs or loops over thread counts.
    let mut runs = 0;
    for (at, command, in_loop) in ci_commands() {
        if !command.contains("cargo test") {
            continue;
        }
        runs += 1;
        let filters = cargo_test_filters(&command);
        if !filters.is_empty() {
            hits.push(format!("ci.yml:{at}: filters {filters:?}: {command}"));
        }
        if in_loop {
            hits.push(format!("ci.yml:{at}: in a thread loop: {command}"));
        }
    }
    assert!(runs > 0, "ci.yml runs no cargo test");
    assert!(hits.is_empty(), "filtered or looped cargo test: {hits:#?}");
}
