//! The determinism-contract rule drivers (D001–D007) and waiver engine.
//!
//! Every rule enforces a repo-specific invariant of the minex determinism
//! contract: results must be byte-identical from run to run and from host
//! to host. The rules are
//! deliberately *lexical* — a lexer-level analysis over one file at a
//! time, with a file-local binding tracker standing in for type
//! inference. That makes them fast, dependency-free, and predictable; the
//! cost is a small set of documented heuristics (see each rule) and the
//! waiver escape hatch for sites the analysis cannot prove safe:
//!
//! ```text
//! // minex-lint: allow(D001) min over a total-order key is order-insensitive
//! ```
//!
//! A waiver covers findings of its rule on the same line or the line
//! directly below, must carry a non-empty justification, and is itself an
//! error (`W001`) if nothing consumes it — waivers cannot rot.

use crate::lexer::{lex, Comment, Token, TokenKind};

/// A single lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule id (`D001`..`D007`, or `W001`/`W002` for waiver
    /// accounting errors).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-indexed source line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Which rules apply to a file, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// D001: no unordered `HashMap`/`HashSet` iteration. Result-affecting
    /// crates only (`congest`, `core`, `algo`, `graphs`, `decomp`).
    pub d001: bool,
    /// D002: no `Instant::now`/`SystemTime` wall-clock reads. Everything
    /// except the `bench`/`serve` timing crates.
    pub d002: bool,
    /// D003: no `thread::current`/`available_parallelism` thread
    /// introspection. Same scope as D002.
    pub d003: bool,
    /// D004: no `f32`/`f64` anywhere in the congest crate's `src/` —
    /// message payloads and `RunStats` are integer-only by design. (The
    /// crate's timing tests may measure seconds; they are not payloads.)
    pub d004: bool,
    /// D005: no unseeded randomness, anywhere.
    pub d005: bool,
    /// D006: no `sort_by` + `partial_cmp`, no comparator-free `.sort()`
    /// (the house idiom is `sort_unstable*`), anywhere.
    pub d006: bool,
    /// D007: no `BinaryHeap` in result-affecting crates outside
    /// `crates/graphs/src/reference.rs` — the one sanctioned heap is the
    /// sequential reference Dijkstra there.
    pub d007: bool,
}

/// The five crates whose output feeds the determinism contract.
pub const RESULT_CRATES: [&str; 5] = ["congest", "core", "algo", "graphs", "decomp"];

/// Crates whose whole job is wall-clock measurement and load generation;
/// D002/D003 do not apply there.
pub const TIMING_CRATES: [&str; 2] = ["bench", "serve"];

/// Rule ids in order, with one-line summaries (for `minex-lint rules`).
pub const RULES: [(&str, &str); 9] = [
    (
        "D001",
        "no HashMap/HashSet iteration in result-affecting crates (collect-and-sort or waive)",
    ),
    (
        "D002",
        "no Instant::now/SystemTime outside the bench/serve timing crates",
    ),
    (
        "D003",
        "no thread::current/available_parallelism outside the bench/serve crates",
    ),
    (
        "D004",
        "no f32/f64 in the congest crate (payloads and RunStats are integer-scaled)",
    ),
    (
        "D005",
        "no unseeded RNG (thread_rng, OsRng, from_entropy, getrandom)",
    ),
    (
        "D006",
        "no sort_by+partial_cmp and no comparator-free .sort() (use sort_unstable*)",
    ),
    (
        "D007",
        "no BinaryHeap in result-affecting crates outside graphs::reference (the one reference Dijkstra)",
    ),
    (
        "W001",
        "a waiver no finding consumed (stale waivers are errors)",
    ),
    (
        "W002",
        "a malformed waiver (unknown rule id or missing justification)",
    ),
];

/// Decides the rule [`Scope`] for a workspace-relative path, or `None` if
/// the file is not linted at all (vendored stand-ins, build artifacts,
/// the linter's own deliberately-violating fixture corpus).
pub fn scope_for(rel_path: &str) -> Option<Scope> {
    let p = rel_path.replace('\\', "/");
    if !p.ends_with(".rs") {
        return None;
    }
    if p.starts_with("vendor/") || p.starts_with("target/") || p.contains("/target/") {
        return None;
    }
    if p.starts_with("crates/lint/tests/fixtures/") {
        return None;
    }
    let crate_name = if let Some(rest) = p.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("")
    } else if p.starts_with("src/") || p.starts_with("tests/") || p.starts_with("examples/") {
        "facade"
    } else {
        return None;
    };
    let result_crate = RESULT_CRATES.contains(&crate_name);
    let timing_crate = TIMING_CRATES.contains(&crate_name);
    Some(Scope {
        d001: result_crate,
        d002: !timing_crate,
        d003: !timing_crate,
        d004: crate_name == "congest" && p.starts_with("crates/congest/src/"),
        d005: true,
        d006: true,
        d007: result_crate && p != "crates/graphs/src/reference.rs",
    })
}

/// Lints one file's source under `scope`; `rel_path` is used only for
/// reporting. Returns findings with waivers already applied (suppressed
/// sites removed, unused/malformed waivers reported as `W001`/`W002`).
pub fn lint_source(rel_path: &str, src: &str, scope: Scope) -> Vec<Finding> {
    lint_source_with_stats(rel_path, src, scope).0
}

/// Like [`lint_source`], additionally returning how many waivers
/// suppressed at least one finding (the "consumed" count the reports
/// show — waiver accounting is part of the tool's contract).
pub fn lint_source_with_stats(rel_path: &str, src: &str, scope: Scope) -> (Vec<Finding>, usize) {
    let (tokens, comments) = lex(src);
    let cx = FileCx::new(rel_path, &tokens);
    let mut findings = Vec::new();
    if scope.d001 {
        d001_map_iteration(&cx, &mut findings);
    }
    if scope.d002 {
        d002_wall_clock(&cx, &mut findings);
    }
    if scope.d003 {
        d003_thread_introspection(&cx, &mut findings);
    }
    if scope.d004 {
        d004_floats(&cx, &mut findings);
    }
    if scope.d005 {
        d005_unseeded_rng(&cx, &mut findings);
    }
    if scope.d006 {
        d006_sorts(&cx, &mut findings);
    }
    if scope.d007 {
        d007_binary_heap(&cx, &mut findings);
    }
    apply_waivers(rel_path, &comments, findings)
}

// ---------------------------------------------------------------------------
// Shared per-file context: token stream plus cheap structural indexes.
// ---------------------------------------------------------------------------

struct FileCx<'a> {
    file: &'a str,
    tokens: &'a [Token],
    /// For each token, whether it sits inside a `use …;` statement (D002/
    /// D003/D005 flag call sites, not imports — an unused import is
    /// rustc's problem).
    in_use: Vec<bool>,
}

impl<'a> FileCx<'a> {
    fn new(file: &'a str, tokens: &'a [Token]) -> Self {
        let mut in_use = vec![false; tokens.len()];
        let mut inside = false;
        for (i, t) in tokens.iter().enumerate() {
            if !inside && t.is_ident("use") {
                inside = true;
            }
            in_use[i] = inside;
            if inside && t.is_punct(';') {
                inside = false;
            }
        }

        FileCx {
            file,
            tokens,
            in_use,
        }
    }

    fn finding(&self, rule: &'static str, i: usize, message: String) -> Finding {
        Finding {
            rule,
            file: self.file.to_string(),
            line: self.tokens[i].line,
            message,
        }
    }
}

// ---------------------------------------------------------------------------
// D001 — unordered map/set iteration.
// ---------------------------------------------------------------------------

/// Iteration methods whose visit order is the hash order.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// How a tracked binding holds its map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MapKind {
    /// The binding *is* a `HashMap`/`HashSet`: flag `name.iter()`, never
    /// `name[idx]` (indexing a map is a keyed lookup).
    Direct,
    /// The binding is an indexable container *of* maps (`Vec<HashMap<…>>`):
    /// flag `name[i].iter()`, never `name.iter()` (that walks the Vec).
    Container,
}

/// D001: no iteration over `HashMap`/`HashSet` in result-affecting code.
///
/// Heuristic type tracking, file-local: any `name: HashMap<…>` /
/// `name: HashSet<…>` annotation (let, field, param, struct literal) or
/// `name = HashMap::new()`-style initializer registers `name` as a map
/// binding; `Vec<… HashMap …>` registers an indexable container of maps.
/// Iteration sites over registered bindings are flagged unless they use
/// the collect-and-sort idiom (the iteration statement `collect`s into a
/// `let` binding that is sorted within the next few statements) or carry
/// a waiver.
fn d001_map_iteration(cx: &FileCx<'_>, out: &mut Vec<Finding>) {
    let toks = cx.tokens;
    let bindings = collect_map_bindings(toks);
    if bindings.is_empty() {
        return;
    }
    let lookup = |name: &str| -> Option<MapKind> {
        bindings
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, kind)| kind)
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        // `for PAT in [&mut] [self.]name {` — direct iteration of a map.
        if t.is_ident("for") {
            if let Some(f) = match_for_in(cx, i, &lookup) {
                out.push(f);
            }
        }
        if t.kind == TokenKind::Ident {
            if let Some(kind) = lookup(&t.text) {
                // Skip declaration/struct-literal sites (`name: …`), but
                // not paths (`name::…` can't be a value binding anyway).
                let next_is_colon = toks.get(i + 1).is_some_and(|n| n.is_punct(':'));
                if !next_is_colon {
                    if let Some((method_idx, method)) = match_map_method(toks, i, kind) {
                        if !is_collect_and_sort(toks, i, method_idx) {
                            out.push(cx.finding(
                                "D001",
                                method_idx,
                                format!(
                                    "`{}.{}()` iterates a Hash{} in hash order; collect-and-sort, \
                                     switch to an ordered structure, or waive with a justification",
                                    t.text,
                                    method,
                                    if method == "keys" || method == "into_keys" {
                                        "Map/HashSet key set"
                                    } else {
                                        "Map/HashSet"
                                    },
                                ),
                            ));
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

/// Registers map bindings from `name: TYPE` annotations and
/// `name = HashMap::new()`-style initializers.
fn collect_map_bindings(toks: &[Token]) -> Vec<(String, MapKind)> {
    let mut out: Vec<(String, MapKind)> = Vec::new();
    let mut push = |name: &str, kind: MapKind| {
        if !out.iter().any(|(n, _)| n == name) {
            out.push((name.to_string(), kind));
        }
    };
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokenKind::Ident
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(kind) = classify_type(toks, i + 2) {
                push(&toks[i].text, kind);
            }
            i += 2;
            continue;
        }
        // `let [mut] name = <map initializer>` without an annotation.
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if toks.get(j).map(|t| t.kind) == Some(TokenKind::Ident)
                && toks.get(j + 1).is_some_and(|t| t.is_punct('='))
            {
                if let Some(kind) = classify_type(toks, j + 2) {
                    push(&toks[j].text, kind);
                }
            }
        }
        i += 1;
    }
    out
}

/// Classifies the type (or initializer expression) starting at `start`:
/// `Some(Direct)` if it leads with `HashMap`/`HashSet`, `Some(Container)`
/// if it leads with `Vec`/`VecDeque`/`vec!` whose arguments mention one,
/// `None` otherwise.
fn classify_type(toks: &[Token], start: usize) -> Option<MapKind> {
    let mut i = start;
    // Strip leading `&`, `mut`, lifetimes, and `std::collections::` paths.
    loop {
        match toks.get(i) {
            Some(t) if t.is_punct('&') => i += 1,
            Some(t) if t.kind == TokenKind::Lifetime => i += 1,
            Some(t) if t.is_ident("mut") => i += 1,
            // Path segments before the type head: `std::collections::`.
            Some(t) if t.is_ident("std") || t.is_ident("collections") || t.is_punct(':') => {
                i += 1;
            }
            _ => break,
        }
    }
    let head = toks.get(i)?;
    if head.is_ident("HashMap") || head.is_ident("HashSet") {
        return Some(MapKind::Direct);
    }
    let container = head.is_ident("Vec") || head.is_ident("VecDeque") || head.is_ident("vec");
    if !container {
        return None;
    }
    // Look inside the container's bracket/angle group for a map mention.
    let mut depth = 0isize;
    let mut j = i + 1;
    let mut opened = false;
    while let Some(t) = toks.get(j) {
        if t.is_punct('<') || t.is_punct('[') || t.is_punct('(') {
            depth += 1;
            opened = true;
        } else if t.is_punct('>') || t.is_punct(']') || t.is_punct(')') {
            depth -= 1;
            if depth <= 0 {
                break;
            }
        } else if depth > 0 && (t.is_ident("HashMap") || t.is_ident("HashSet")) {
            return Some(MapKind::Container);
        } else if !opened && (t.is_punct(';') || t.is_punct('=') || t.is_punct(',')) {
            break;
        }
        if j > i + 64 {
            break; // bounded lookahead: types this long aren't ours
        }
        j += 1;
    }
    None
}

/// Matches `name[idx].method(` (Container) or `name.method(` (Direct)
/// starting at the binding ident `i`; also accepts a `self.`/receiver `.`
/// before `name` (the caller already matched `name` itself). Returns the
/// method-token index and name.
fn match_map_method(toks: &[Token], i: usize, kind: MapKind) -> Option<(usize, &'static str)> {
    let mut j = i + 1;
    match kind {
        MapKind::Container => {
            // Require an index group: `name[…]`.
            if !toks.get(j).is_some_and(|t| t.is_punct('[')) {
                return None;
            }
            let mut depth = 0isize;
            while let Some(t) = toks.get(j) {
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        MapKind::Direct => {
            // An index group on a map is a keyed lookup, not iteration.
            if toks.get(j).is_some_and(|t| t.is_punct('[')) {
                return None;
            }
        }
    }
    if !toks.get(j).is_some_and(|t| t.is_punct('.')) {
        return None;
    }
    let m = toks.get(j + 1)?;
    if m.kind != TokenKind::Ident || !toks.get(j + 2).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    ITER_METHODS
        .iter()
        .find(|&&name| m.text == name)
        .map(|&name| (j + 1, name))
}

/// Matches `for PAT in [&][mut] [self.]name {` where `name` is a Direct
/// map binding.
fn match_for_in(
    cx: &FileCx<'_>,
    for_idx: usize,
    lookup: &dyn Fn(&str) -> Option<MapKind>,
) -> Option<Finding> {
    let toks = cx.tokens;
    // Find the `in` at pattern depth 0, within a short window.
    let mut depth = 0isize;
    let mut j = for_idx + 1;
    let in_idx = loop {
        let t = toks.get(j)?;
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_ident("in") {
            break j;
        } else if t.is_punct('{') || t.is_punct(';') || j > for_idx + 24 {
            return None;
        }
        j += 1;
    };
    let mut k = in_idx + 1;
    while toks
        .get(k)
        .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
    {
        k += 1;
    }
    if toks.get(k).is_some_and(|t| t.is_ident("self"))
        && toks.get(k + 1).is_some_and(|t| t.is_punct('.'))
    {
        k += 2;
    }
    let name = toks.get(k)?;
    if name.kind != TokenKind::Ident || lookup(&name.text) != Some(MapKind::Direct) {
        return None;
    }
    if !toks.get(k + 1).is_some_and(|t| t.is_punct('{')) {
        return None; // `for x in map.keys()` etc. is the method matcher's job
    }
    Some(cx.finding(
        "D001",
        k,
        format!(
            "`for … in {}` iterates a HashMap/HashSet in hash order; collect-and-sort, \
             switch to an ordered structure, or waive with a justification",
            name.text
        ),
    ))
}

/// The collect-and-sort idiom: the iteration's statement is a
/// `let [mut] NAME … = ….collect…;` and `NAME.sort*` appears within the
/// next few statements. Hash order then never escapes: the collected
/// vector is fully re-ordered before use.
fn is_collect_and_sort(toks: &[Token], bind_idx: usize, method_idx: usize) -> bool {
    // Statement start: nearest `;`/`{`/`}` to the left of the binding.
    let mut s = bind_idx;
    while s > 0 {
        let t = &toks[s - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        s -= 1;
    }
    if !toks.get(s).is_some_and(|t| t.is_ident("let")) {
        return false;
    }
    let mut n = s + 1;
    if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
        n += 1;
    }
    let target = match toks.get(n) {
        Some(t) if t.kind == TokenKind::Ident => t.text.as_str(),
        _ => return false,
    };
    // Statement end: `;` at bracket depth 0 from the method token on.
    let mut depth = 0isize;
    let mut e = method_idx;
    let mut saw_collect = false;
    while let Some(t) = toks.get(e) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth <= 0 && t.is_punct(';') {
            break;
        } else if t.is_ident("collect") {
            saw_collect = true;
        }
        e += 1;
    }
    if !saw_collect {
        return false;
    }
    // `NAME.sort*` within a bounded window after the statement.
    let mut j = e;
    while let Some(t) = toks.get(j) {
        if j > e + 240 {
            return false;
        }
        if t.is_ident(target)
            && toks.get(j + 1).is_some_and(|p| p.is_punct('.'))
            && toks
                .get(j + 2)
                .is_some_and(|m| m.kind == TokenKind::Ident && m.text.starts_with("sort"))
        {
            return true;
        }
        j += 1;
    }
    false
}

// ---------------------------------------------------------------------------
// D002 / D003 / D004 / D005 — token-pattern rules.
// ---------------------------------------------------------------------------

/// D002: wall-clock reads. Rounds are the only clock results may depend
/// on; `Instant::now`/`SystemTime` belong to the bench/serve crates.
fn d002_wall_clock(cx: &FileCx<'_>, out: &mut Vec<Finding>) {
    let toks = cx.tokens;
    for i in 0..toks.len() {
        if cx.in_use[i] {
            continue;
        }
        if toks[i].is_ident("Instant") && path_then(toks, i, "now") {
            out.push(cx.finding(
                "D002",
                i,
                "`Instant::now()` reads the wall clock in a result-affecting crate; move timing \
                 to the bench/serve crates or waive with a justification"
                    .to_string(),
            ));
        } else if toks[i].is_ident("SystemTime") {
            out.push(cx.finding(
                "D002",
                i,
                "`SystemTime` reads the wall clock in a result-affecting crate; move timing to \
                 the bench/serve crates or waive with a justification"
                    .to_string(),
            ));
        }
    }
}

/// D003: thread-environment introspection. Nothing that affects a result
/// may depend on the host's core count or on which thread runs it.
fn d003_thread_introspection(cx: &FileCx<'_>, out: &mut Vec<Finding>) {
    let toks = cx.tokens;
    for i in 0..toks.len() {
        if cx.in_use[i] {
            continue;
        }
        let hit = if toks[i].is_ident("available_parallelism") {
            Some("`available_parallelism()`")
        } else if toks[i].is_ident("thread") && path_then(toks, i, "current") {
            Some("`thread::current()`")
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(cx.finding(
                "D003",
                i,
                format!(
                    "{what} probes the host's thread environment in a result-affecting \
                     crate; move it to the bench/serve crates or waive with a justification"
                ),
            ));
        }
    }
}

/// D004: floating point in the congest crate. Message payloads and
/// `RunStats` are integer-scaled by design — floats would make message
/// bit-counts and aggregate stats platform/rounding sensitive.
fn d004_floats(cx: &FileCx<'_>, out: &mut Vec<Finding>) {
    for (i, t) in cx.tokens.iter().enumerate() {
        let hit = match t.kind {
            TokenKind::Ident if t.text == "f32" || t.text == "f64" => true,
            TokenKind::Number if t.text.ends_with("f32") || t.text.ends_with("f64") => true,
            _ => false,
        };
        if hit {
            out.push(cx.finding(
                "D004",
                i,
                format!(
                    "`{}` in the congest crate: payloads and RunStats are integer-scaled by \
                     design (weights carry the scaling); use integers or waive with a \
                     justification",
                    t.text
                ),
            ));
        }
    }
}

/// D005: unseeded randomness. Every RNG in the tree is a `StdRng` seeded
/// from an explicit constant; ambient entropy breaks replayability.
fn d005_unseeded_rng(cx: &FileCx<'_>, out: &mut Vec<Finding>) {
    const BANNED: [&str; 5] = [
        "thread_rng",
        "OsRng",
        "from_entropy",
        "getrandom",
        "random_seed",
    ];
    for (i, t) in cx.tokens.iter().enumerate() {
        if cx.in_use[i] || t.kind != TokenKind::Ident {
            continue;
        }
        if BANNED.contains(&t.text.as_str()) {
            out.push(cx.finding(
                "D005",
                i,
                format!(
                    "`{}` draws ambient entropy; every RNG must be an explicitly seeded StdRng \
                     (`StdRng::seed_from_u64(…)`)",
                    t.text
                ),
            ));
        }
    }
}

/// D006: sort hygiene. `sort_by(… partial_cmp …)` silently reorders on
/// NaN and ties; comparator-free `.sort()` is a stable sort where the
/// house idiom is `sort_unstable*` (total orders on plain data — same
/// result, no allocation).
fn d006_sorts(cx: &FileCx<'_>, out: &mut Vec<Finding>) {
    let toks = cx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_ident("sort_by") && toks.get(i + 1).is_some_and(|p| p.is_punct('(')) {
            // Scan the sort_by(...) argument for partial_cmp.
            let mut depth = 0isize;
            let mut j = i + 1;
            while let Some(a) = toks.get(j) {
                if a.is_punct('(') {
                    depth += 1;
                } else if a.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if a.is_ident("partial_cmp") {
                    out.push(cx.finding(
                        "D006",
                        j,
                        "`sort_by` with `partial_cmp` is order-unstable on incomparable values; \
                         use integer keys with `sort_unstable_by_key` or `total_cmp`"
                            .to_string(),
                    ));
                    break;
                }
                j += 1;
            }
        }
        if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|m| m.is_ident("sort"))
            && toks.get(i + 2).is_some_and(|p| p.is_punct('('))
            && toks.get(i + 3).is_some_and(|p| p.is_punct(')'))
        {
            out.push(
                cx.finding(
                    "D006",
                    i + 1,
                    "comparator-free `.sort()`: the house idiom is `.sort_unstable()` (identical \
                 order for totally ordered elements, no allocation)"
                        .to_string(),
                ),
            );
        }
    }
}

/// D007: `BinaryHeap` in result-affecting code. The one sanctioned heap
/// is the sequential Dijkstra in `crates/graphs/src/reference.rs`, the
/// reference every distributed SSSP tier is checked against. A heap
/// anywhere else makes a result depend on a second pop order (ties between
/// equal keys) and sidesteps the shared distance-sentinel arithmetic
/// (`minex_graphs::dist`). Imports are skipped (D002-style): the
/// construction or type-position site is what gets flagged.
fn d007_binary_heap(cx: &FileCx<'_>, out: &mut Vec<Finding>) {
    for (i, t) in cx.tokens.iter().enumerate() {
        if cx.in_use[i] {
            continue;
        }
        if t.is_ident("BinaryHeap") {
            out.push(
                cx.finding(
                    "D007",
                    i,
                    "`BinaryHeap` in a result-affecting crate: the sanctioned heap is the \
                 reference Dijkstra in `graphs::reference`; call `traversal::dijkstra` \
                 (or use `dist`-aware arithmetic) or waive with a justification"
                        .to_string(),
                ),
            );
        }
    }
}

/// True if tokens at `i` form `IDENT :: name`.
fn path_then(toks: &[Token], i: usize, name: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident(name))
}

// ---------------------------------------------------------------------------
// Waivers.
// ---------------------------------------------------------------------------

/// A parsed `// minex-lint: allow(Dnnn) <reason>` marker.
#[derive(Debug)]
struct Waiver {
    rule: String,
    line: u32,
    used: bool,
}

const WAIVER_TAG: &str = "minex-lint:";

/// Suppresses findings covered by waivers and appends waiver-accounting
/// findings (`W001` unused, `W002` malformed). Returns the surviving
/// findings and the number of waivers consumed.
fn apply_waivers(
    file: &str,
    comments: &[Comment],
    findings: Vec<Finding>,
) -> (Vec<Finding>, usize) {
    let mut waivers: Vec<Waiver> = Vec::new();
    let mut out: Vec<Finding> = Vec::new();
    for c in comments {
        // The marker must *start* the comment (`// minex-lint: …`, leading
        // whitespace aside). Doc comments and prose that merely mention
        // the syntax are not waivers.
        let trimmed = c.text.trim_start();
        let Some(tail) = trimmed.strip_prefix(WAIVER_TAG) else {
            continue;
        };
        let rest = tail.trim();
        match parse_waiver(rest) {
            Ok((rule, _reason)) => waivers.push(Waiver {
                rule,
                line: c.line,
                used: false,
            }),
            Err(why) => out.push(Finding {
                rule: "W002",
                file: file.to_string(),
                line: c.line,
                message: format!(
                    "malformed waiver: {why} (syntax: `minex-lint: allow(Dnnn) <reason>`)"
                ),
            }),
        }
    }
    for f in findings {
        let waived = waivers
            .iter_mut()
            .find(|w| w.rule == f.rule && (w.line == f.line || w.line + 1 == f.line));
        match waived {
            Some(w) => w.used = true,
            None => out.push(f),
        }
    }
    for w in &waivers {
        if !w.used {
            out.push(Finding {
                rule: "W001",
                file: file.to_string(),
                line: w.line,
                message: format!(
                    "unused waiver for {}: nothing on this or the next line triggers the rule — \
                     remove the waiver or re-justify it",
                    w.rule
                ),
            });
        }
    }
    out.sort_unstable_by_key(|f| (f.line, f.rule));
    let used = waivers.iter().filter(|w| w.used).count();
    (out, used)
}

/// Parses `allow(Dnnn) <reason>`; the reason is mandatory — an
/// unjustified waiver is indistinguishable from a silenced bug.
fn parse_waiver(rest: &str) -> Result<(String, String), String> {
    let rest = rest
        .strip_prefix("allow")
        .ok_or_else(|| "expected `allow(…)`".to_string())?;
    let rest = rest.trim_start();
    let inner = rest
        .strip_prefix('(')
        .ok_or_else(|| "expected `(` after `allow`".to_string())?;
    let close = inner
        .find(')')
        .ok_or_else(|| "unclosed `allow(`".to_string())?;
    let rule = inner[..close].trim().to_string();
    if !RULES
        .iter()
        .any(|&(id, _)| id == rule && id.starts_with('D'))
    {
        return Err(format!("unknown rule id `{rule}`"));
    }
    let reason = inner[close + 1..].trim();
    if reason.is_empty() {
        return Err(format!("waiver for {rule} has no justification"));
    }
    Ok((rule, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        lint_source(
            "crates/congest/src/test.rs",
            src,
            Scope {
                d001: true,
                d002: true,
                d003: true,
                d004: true,
                d005: true,
                d006: true,
                d007: true,
            },
        )
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        findings(src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn d001_direct_map_iteration_flagged() {
        let src = "fn f() { let mut m: HashMap<u32, u64> = HashMap::new(); \
                   for (k, v) in m.iter() { use_it(k, v); } }";
        assert_eq!(rules_of(src), vec!["D001"]);
    }

    #[test]
    fn d001_for_in_over_map_flagged() {
        let src = "fn f() { let mut groups: std::collections::HashMap<usize, Vec<usize>> = \
                   Default::default(); for (_, nodes) in groups { eat(nodes); } }";
        assert_eq!(rules_of(src), vec!["D001"]);
    }

    #[test]
    fn d001_lookups_are_fine() {
        let src = "fn f(m: &HashMap<u32, u64>) -> bool { m.contains_key(&3) && m[&1] > 0 }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn d001_vec_of_maps_outer_iteration_is_fine_inner_flagged() {
        let src = "struct S { pending: Vec<HashMap<u32, u64>> } impl S { \
                   fn a(&self) -> bool { self.pending.iter().all(HashMap::is_empty) } \
                   fn b(&self, li: usize) -> Option<u32> { \
                   self.pending[li].iter().min_by_key(|x| x.1).map(|x| *x.0) } }";
        assert_eq!(rules_of(src), vec!["D001"]);
    }

    #[test]
    fn d001_collect_and_sort_is_the_sanctioned_idiom() {
        let src = "fn f(m: HashMap<usize, Vec<u32>>) -> Vec<(usize, Vec<u32>)> { \
                   let mut sorted: Vec<_> = m.into_iter().collect(); \
                   sorted.sort_by_key(|(k, _)| *k); sorted }";
        // into_iter is not in ITER_METHODS (IntoIterator is how
        // collect-and-sort starts); into_values/into_keys are, and the
        // idiom still exempts them:
        assert!(rules_of(src).is_empty());
        let src2 = "fn f(m: HashMap<usize, u32>) -> Vec<u32> { \
                    let mut vals: Vec<u32> = m.into_values().collect(); \
                    vals.sort_unstable(); vals }";
        assert!(rules_of(src2).is_empty());
    }

    #[test]
    fn d001_collect_without_sort_is_flagged() {
        let src = "fn f(m: HashMap<usize, u32>) -> Vec<u32> { \
                    let vals: Vec<u32> = m.into_values().collect(); vals }";
        assert_eq!(rules_of(src), vec!["D001"]);
    }

    #[test]
    fn d002_instant_now_flagged_import_ignored() {
        let src = "use std::time::Instant; fn f() { let t = Instant::now(); drop(t); }";
        assert_eq!(rules_of(src), vec!["D002"]);
    }

    #[test]
    fn d003_flags_probes_in_every_fn() {
        // No fn name is exempt, not even the former resolution point.
        let src = "impl C { pub fn resolved_threads(&self) -> usize { \
                   std::thread::available_parallelism().map_or(1, |p| p.get()) } }";
        assert_eq!(rules_of(src), vec!["D003"]);
        let src2 = "fn elsewhere() -> usize { \
                    std::thread::available_parallelism().map_or(1, |p| p.get()) }";
        assert_eq!(rules_of(src2), vec!["D003"]);
        let src3 = "use std::thread::available_parallelism; fn f() {}";
        assert!(rules_of(src3).is_empty());
    }

    #[test]
    fn d004_floats_in_congest() {
        assert_eq!(rules_of("fn f(x: f64) -> f64 { x }"), vec!["D004", "D004"]);
        assert_eq!(rules_of("const K: u64 = 3; fn f() -> u64 { K }").len(), 0);
        assert_eq!(
            rules_of("fn f() { let x = 1.0f64; drop(x); }"),
            vec!["D004"]
        );
    }

    #[test]
    fn d005_ambient_entropy() {
        assert_eq!(
            rules_of("fn f() { let mut rng = thread_rng(); }"),
            vec!["D005"]
        );
        assert!(rules_of("fn f() { let mut rng = StdRng::seed_from_u64(7); }").is_empty());
    }

    #[test]
    fn d006_sort_hygiene() {
        assert_eq!(
            rules_of("fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }"),
            // partial_cmp inside sort_by; the f64 params also trip D004
            // in this congest-scoped test context.
            vec!["D004", "D006"]
        );
        assert_eq!(
            rules_of("fn f(v: &mut Vec<u32>) { v.sort(); }"),
            vec!["D006"]
        );
        assert!(rules_of("fn f(v: &mut Vec<u32>) { v.sort_unstable(); }").is_empty());
    }

    #[test]
    fn d007_binary_heap_flagged_import_ignored() {
        let src = "use std::collections::BinaryHeap; \
                   fn f() { let mut h: BinaryHeap<u64> = BinaryHeap::new(); h.push(3); }";
        assert_eq!(rules_of(src), vec!["D007", "D007"]);
        assert!(rules_of(
            "fn f() { let mut q = std::collections::VecDeque::new(); q.push_back(1); }"
        )
        .is_empty());
    }

    #[test]
    fn waivers_suppress_and_account() {
        let src = "fn f() { let m: HashMap<u32, u64> = HashMap::new();\n\
                   // minex-lint: allow(D001) min over a total-order key is order-insensitive\n\
                   let x = m.values().min(); drop(x); }";
        assert!(rules_of(src).is_empty());
        let unused = "// minex-lint: allow(D002) nothing here reads a clock\nfn f() {}";
        assert_eq!(rules_of(unused), vec!["W001"]);
        let malformed = "// minex-lint: allow(D001)\nfn f() {}";
        assert_eq!(rules_of(malformed), vec!["W002"]);
        let unknown = "// minex-lint: allow(D999) who knows\nfn f() {}";
        assert_eq!(rules_of(unknown), vec!["W002"]);
    }

    #[test]
    fn scope_routing() {
        assert!(scope_for("vendor/rand/src/lib.rs").is_none());
        assert!(scope_for("crates/lint/tests/fixtures/d001_flag.rs").is_none());
        assert!(scope_for("README.md").is_none());
        let congest = scope_for("crates/congest/src/runtime.rs").unwrap();
        assert!(congest.d001 && congest.d004 && congest.d007);
        let bench = scope_for("crates/bench/src/lib.rs").unwrap();
        assert!(!bench.d001 && !bench.d002 && !bench.d003 && bench.d005 && bench.d006);
        assert!(!bench.d007);
        let facade = scope_for("tests/smoke.rs").unwrap();
        assert!(!facade.d001 && facade.d002);
        let lint = scope_for("crates/lint/src/rules.rs").unwrap();
        assert!(!lint.d001 && lint.d002 && !lint.d004);
        // The one sanctioned heap: the reference Dijkstra oracle.
        let reference = scope_for("crates/graphs/src/reference.rs").unwrap();
        assert!(reference.d001 && !reference.d007);
        let traversal = scope_for("crates/graphs/src/traversal.rs").unwrap();
        assert!(traversal.d007);
    }
}
