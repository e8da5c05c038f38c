//! Structural claims about the source tree, checked on its text: one
//! entry point per pipeline, one Lloyd loop, one scheduling loop, one
//! JSON module, one bench harness, no `unsafe`. Each test is one predicate over the files
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
