//! Workspace-scope analysis context: a name-resolved-within-workspace
//! call graph over every file's parsed items, plus each function's panic
//! sites — the substrate of the one interprocedural rule, `panic-surface`
//! ([`crate::surface`]).
//!
//! Name resolution is deliberately approximate (DESIGN.md §16): a method
//! call `.name(…)` resolves to *every* workspace `impl`/`trait` function
//! named `name` (trait-object and generic dispatch are over-approximated
//! by name); a free call `name(…)` resolves to every workspace free
//! function named `name`; a qualified call `Q::name(…)` resolves through
//! `Q` when `Q` is a workspace `impl`/`trait` qualifier, through the free
//! functions when `Q` looks like a module path segment, and is opaque
//! otherwise (std / external types). Calls mediated by macros
//! (`format!`, `vec!`) and blanket trait impls (`.to_string()`) resolve
//! to nothing — the token stream never contains the expanded callee.

use std::collections::{BTreeMap, BTreeSet};

use crate::context::FileData;
use crate::items::{self, ItemKind};
use crate::lexer::TokenKind;

/// One function node in the call graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index into [`WorkspaceCtx::files`].
    pub file: usize,
    /// Declared name.
    pub name: String,
    /// Enclosing `impl` self-type or `trait` name, `None` for free fns.
    pub qualifier: Option<String>,
    /// True when the fn and every enclosing module are bare `pub`.
    pub is_pub: bool,
    /// True when the first parameter is (some form of) `self` — only
    /// such fns are candidates for `.name(…)` method-call resolution.
    pub has_self: bool,
    /// True when the definition lies in test-only code.
    pub is_test: bool,
    /// Token index of the name ident.
    pub name_tok: usize,
    /// Token range of the body braces (inclusive), when present.
    pub body: Option<(usize, usize)>,
}

/// How a panicking token can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()` / `.expect(…)`.
    Unwrap,
    /// `panic!` / `todo!` / `unreachable!` / `unimplemented!`.
    Macro,
    /// Slice / array / map indexing `x[…]`.
    Index,
}

impl PanicKind {
    /// Human-readable site description.
    pub fn describe(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "`.unwrap()`/`.expect()`",
            PanicKind::Macro => "a panicking macro",
            PanicKind::Index => "`[…]` indexing",
        }
    }
}

/// A direct panic site inside one function body.
#[derive(Debug, Clone, Copy)]
pub struct PanicSite {
    /// Token index in the owning file.
    pub tok: usize,
    /// Mechanism.
    pub kind: PanicKind,
    /// True when the site lies inside a `catch_unwind(…)` argument.
    pub shielded: bool,
}

/// A call site with its workspace-resolved callees.
#[derive(Debug)]
pub struct CallSite {
    /// Token index of the callee name in the owning file.
    pub tok: usize,
    /// Display form for diagnostics (`name`, `.name`, or `Q::name`).
    pub display: String,
    /// True when the call lies inside a `catch_unwind(…)` argument.
    pub shielded: bool,
    /// Resolved callee fn ids (empty = opaque: std or macro-mediated).
    pub callees: Vec<usize>,
}

/// The workspace analysis context the panic-surface pass runs over.
#[derive(Debug)]
pub struct WorkspaceCtx {
    /// Parsed files, in discovery order.
    pub files: Vec<FileData>,
    /// All functions.
    pub fns: Vec<FnNode>,
    /// Per-fn resolved call sites (parallel to `fns`).
    pub calls: Vec<Vec<CallSite>>,
    /// Per-fn direct panic sites (parallel to `fns`).
    pub panics: Vec<Vec<PanicSite>>,
}

/// Call-name classification before resolution.
enum RawCallee {
    Method(String),
    Free(String),
    Qualified(String, String),
}

/// Keywords that must never be read as callee or receiver names.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "in", "loop", "match", "return", "break", "continue", "let",
    "mut", "ref", "move", "as", "fn", "impl", "dyn", "where", "unsafe", "async", "await", "box",
    "do", "yield", "use", "pub", "const", "static", "struct", "enum", "trait", "mod", "type",
];

impl WorkspaceCtx {
    /// Builds the full workspace context from parsed files.
    pub fn build(files: Vec<FileData>) -> Self {
        let mut fns = Vec::new();
        for (fi, fd) in files.iter().enumerate() {
            collect_fns(fd, fi, &mut fns);
        }

        // name → fn-id indexes for resolution
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut frees: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut quals: BTreeSet<&str> = BTreeSet::new();
        for (id, f) in fns.iter().enumerate() {
            match &f.qualifier {
                Some(q) => {
                    // associated fns without `self` (constructors, parsers)
                    // cannot be called in method position — keeping them
                    // out of the method index stops e.g. `.parse::<u32>()`
                    // from resolving to a workspace `Type::parse(&str)`
                    if f.has_self {
                        methods.entry(&f.name).or_default().push(id);
                    }
                    by_qual.entry((q, &f.name)).or_default().push(id);
                    quals.insert(q);
                }
                None => frees.entry(&f.name).or_default().push(id),
            }
        }

        let mut calls = Vec::with_capacity(fns.len());
        let mut panics = Vec::with_capacity(fns.len());
        for f in &fns {
            let fd = &files[f.file];
            let Some((open, close)) = f.body else {
                calls.push(Vec::new());
                panics.push(Vec::new());
                continue;
            };
            let shields = shield_ranges(fd, open, close);
            let shielded = |tok: usize| shields.iter().any(|&(a, b)| a <= tok && tok < b);
            panics.push(scan_panics(fd, open, close, &shielded));
            let raw = scan_calls(fd, open, close, f.qualifier.as_deref());
            let resolved = raw
                .into_iter()
                .map(|(tok, callee)| {
                    let (display, callees) = match callee {
                        RawCallee::Method(n) => (
                            format!(".{n}"),
                            methods.get(n.as_str()).cloned().unwrap_or_default(),
                        ),
                        RawCallee::Free(n) => (
                            n.clone(),
                            frees.get(n.as_str()).cloned().unwrap_or_default(),
                        ),
                        RawCallee::Qualified(q, n) => {
                            let ids = if quals.contains(q.as_str()) {
                                by_qual
                                    .get(&(q.as_str(), n.as_str()))
                                    .cloned()
                                    .unwrap_or_default()
                            } else {
                                // module-qualified free call (`flow::run(…)`)
                                // when the segment is not a known self-type;
                                // opaque when nothing matches (std paths)
                                frees.get(n.as_str()).cloned().unwrap_or_default()
                            };
                            (format!("{q}::{n}"), ids)
                        }
                    };
                    CallSite {
                        tok,
                        display,
                        shielded: shielded(tok),
                        callees,
                    }
                })
                .collect();
            calls.push(resolved);
        }

        Self {
            files,
            fns,
            calls,
            panics,
        }
    }

    /// Fn ids whose `crate::name` matches a `crate::fn` or
    /// `crate::Type::fn` root spec.
    pub fn find_roots(&self, spec: &str) -> Vec<usize> {
        let parts: Vec<&str> = spec.split("::").collect();
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                let crate_ok = parts
                    .first()
                    .is_some_and(|c| self.files[f.file].file.crate_name == *c);
                match parts.len() {
                    2 => crate_ok && f.name == parts[1],
                    3 => crate_ok && f.qualifier.as_deref() == Some(parts[1]) && f.name == parts[2],
                    _ => false,
                }
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// `"path:line"` of a fn's definition, for diagnostics.
    pub fn fn_location(&self, id: usize) -> (String, usize) {
        let f = &self.fns[id];
        let fd = &self.files[f.file];
        (fd.file.rel_path.clone(), fd.token_line(f.name_tok))
    }

    /// `"Type::name"` or `"name"`.
    pub fn fn_display(&self, id: usize) -> String {
        let f = &self.fns[id];
        match &f.qualifier {
            Some(q) => format!("{q}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// Panic reachability over unshielded edges: returns, per fn, whether
    /// a panic site is transitively reachable, plus a witness (a direct
    /// site or the first panicking callee) for chain reconstruction.
    pub fn panic_reachability(&self) -> (Vec<bool>, Vec<Option<Witness>>) {
        let n = self.fns.len();
        let mut reaches = vec![false; n];
        let mut witness: Vec<Option<Witness>> = (0..n).map(|_| None).collect();
        // seed with direct sites
        for id in 0..n {
            if let Some(site) = self.panics[id].iter().find(|p| !p.shielded) {
                reaches[id] = true;
                witness[id] = Some(Witness::Direct(site.tok, site.kind));
            }
        }
        // reverse edges for the worklist
        let mut rev: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // callee -> (caller, call tok)
        for (caller, sites) in self.calls.iter().enumerate() {
            for s in sites {
                if s.shielded {
                    continue;
                }
                for &callee in &s.callees {
                    rev[callee].push((caller, s.tok));
                }
            }
        }
        let mut work: Vec<usize> = (0..n).filter(|&i| reaches[i]).collect();
        while let Some(id) = work.pop() {
            for &(caller, tok) in &rev[id] {
                if !reaches[caller] {
                    reaches[caller] = true;
                    witness[caller] = Some(Witness::Via(tok, id));
                    work.push(caller);
                }
            }
        }
        (reaches, witness)
    }

    /// Reconstructs a call chain from `id` to a concrete panic site:
    /// `a → b → c: `[…]` indexing at path:line`.
    pub fn witness_chain(&self, mut id: usize, witness: &[Option<Witness>]) -> String {
        let mut names = vec![self.fn_display(id)];
        let mut guard = 0;
        loop {
            guard += 1;
            if guard > 64 {
                names.push("…".to_string());
                return names.join(" → ");
            }
            match witness.get(id).and_then(|w| w.as_ref()) {
                Some(Witness::Via(_, callee)) => {
                    id = *callee;
                    names.push(self.fn_display(id));
                }
                Some(Witness::Direct(tok, kind)) => {
                    let fd = &self.files[self.fns[id].file];
                    return format!(
                        "{}: {} at {}:{}",
                        names.join(" → "),
                        kind.describe(),
                        fd.file.rel_path,
                        fd.token_line(*tok)
                    );
                }
                None => return names.join(" → "),
            }
        }
    }
}

/// Why a fn counts as panic-reachable.
#[derive(Debug, Clone, Copy)]
pub enum Witness {
    /// A direct panic site (call-site token, mechanism).
    Direct(usize, PanicKind),
    /// The first discovered panicking callee (call token, callee id).
    Via(usize, usize),
}

/// Walks the item forest collecting fn nodes with their qualifier and
/// effective visibility.
fn collect_fns(fd: &FileData, file_idx: usize, out: &mut Vec<FnNode>) {
    items::walk(&fd.items, &mut |item, stack| {
        if item.kind != ItemKind::Fn {
            return;
        }
        // the name ident follows the `fn` keyword inside the item extent
        let mut name_tok = item.start;
        for i in item.start..item.end {
            if fd.ident_is(i, "fn") {
                name_tok = i + 1;
                break;
            }
        }
        let qualifier = stack
            .iter()
            .rev()
            .find(|p| matches!(p.kind, ItemKind::Impl | ItemKind::Trait))
            .map(|p| p.name.clone());
        // `self` as first parameter, allowing `&`, a lifetime, and `mut`
        // before it (`&'a mut self`, `mut self`, `self: Arc<Self>`, …)
        let has_self = {
            let mut j = fd.next_code(name_tok + 1);
            // skip generic params between name and `(`
            if fd.punct_is(j, "<") {
                let mut angle = 0i32;
                while j < item.end {
                    match fd.text(j) {
                        "<" => angle += 1,
                        "<<" => angle += 2,
                        ">" => angle -= 1,
                        ">>" => angle -= 2,
                        _ => {}
                    }
                    j += 1;
                    if angle <= 0 {
                        break;
                    }
                }
                j = fd.next_code(j);
            }
            if fd.punct_is(j, "(") {
                let mut k = fd.next_code(j + 1);
                while fd.punct_is(k, "&")
                    || fd
                        .tokens
                        .get(k)
                        .is_some_and(|t| t.kind == TokenKind::Lifetime)
                    || fd.ident_is(k, "mut")
                {
                    k = fd.next_code(k + 1);
                }
                fd.ident_is(k, "self")
            } else {
                false
            }
        };
        // public = the fn is `pub` and no enclosing module hides it (trait
        // methods inherit the trait's visibility)
        let in_trait = stack.last().is_some_and(|p| p.kind == ItemKind::Trait);
        let own_pub = item.is_pub || (in_trait && stack.last().is_some_and(|p| p.is_pub));
        let is_pub = own_pub
            && stack
                .iter()
                .filter(|p| p.kind == ItemKind::Mod)
                .all(|p| p.is_pub);
        let offset = fd.tokens.get(name_tok).map_or(0, |t| t.span.start);
        out.push(FnNode {
            file: file_idx,
            name: fd.text(name_tok).to_string(),
            qualifier,
            is_pub,
            has_self,
            is_test: fd.in_test_code(offset),
            name_tok,
            body: item.body,
        });
    });
}

/// Token ranges (half-open) of `catch_unwind(…)` arguments within a body.
fn shield_ranges(fd: &FileData, open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in open..close {
        if fd.ident_is(i, "catch_unwind") {
            let paren = fd.next_code(i + 1);
            if fd.punct_is(paren, "(") {
                let mut depth = 0i32;
                let mut j = paren;
                while j <= close {
                    if fd.tokens[j].kind == TokenKind::Punct {
                        match fd.text(j) {
                            "(" => depth += 1,
                            ")" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    j += 1;
                }
                out.push((paren, j + 1));
            }
        }
    }
    out
}

/// Whether token `i` calls `.unwrap()` / `.expect(` or a panic-family
/// macro, comments skipped. The leading dot tells the method call from a
/// local named `unwrap`; a name after `::` (`std::panic::catch_unwind`) is
/// a path, not the macro.
pub(crate) fn panic_call(fd: &FileData, i: usize) -> Option<PanicKind> {
    const PANIC_MACROS: &[&str] = &["panic", "todo", "unreachable", "unimplemented"];
    if !fd.is_ident(i) {
        return None;
    }
    let text = fd.text(i);
    let prev = fd.prev_code(i).map_or("", |p| fd.text(p));
    if matches!(text, "unwrap" | "expect") && prev == "." && fd.punct_is(fd.next_code(i + 1), "(") {
        Some(PanicKind::Unwrap)
    } else if PANIC_MACROS.contains(&text) && fd.punct_is(i + 1, "!") && prev != "::" {
        Some(PanicKind::Macro)
    } else {
        None
    }
}

/// Direct panic sites in a body: [`panic_call`]s and `[…]` indexing (an
/// ident / `)` / `]` immediately before the bracket distinguishes indexing
/// from array literals and types).
fn scan_panics(
    fd: &FileData,
    open: usize,
    close: usize,
    shielded: &dyn Fn(usize) -> bool,
) -> Vec<PanicSite> {
    let mut out = Vec::new();
    let mut push = |tok: usize, kind: PanicKind| {
        out.push(PanicSite {
            tok,
            kind,
            shielded: shielded(tok),
        })
    };
    for i in (open + 1)..close {
        let t = &fd.tokens[i];
        match t.kind {
            TokenKind::Ident => {
                if let Some(kind) = panic_call(fd, i) {
                    push(i, kind);
                }
            }
            TokenKind::Punct if fd.text(i) == "[" => {
                let Some(p) = fd.prev_code(i) else { continue };
                let prev = &fd.tokens[p];
                let is_recv = (prev.kind == TokenKind::Ident && !KEYWORDS.contains(&fd.text(p)))
                    || (prev.kind == TokenKind::Punct && matches!(fd.text(p), ")" | "]"));
                if is_recv {
                    push(i, PanicKind::Index);
                }
            }
            _ => {}
        }
    }
    out
}

/// Method names of the std atomic API (suppressed as call edges when an
/// explicit memory ordering appears in the argument list).
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_update",
    "fetch_max",
    "fetch_min",
];

/// True when the parenthesized argument list starting at `open` names a
/// memory ordering (`Relaxed`, `Acquire`, …).
fn args_mention_ordering(fd: &FileData, open: usize, close: usize) -> bool {
    const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    let mut depth = 0i32;
    let mut j = open;
    while j <= close {
        if fd.tokens[j].kind == TokenKind::Punct {
            match fd.text(j) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return false;
                    }
                }
                _ => {}
            }
        } else if fd.is_ident(j) && ORDERINGS.contains(&fd.text(j)) {
            return true;
        }
        j += 1;
    }
    false
}

/// Call sites in a body, classified but unresolved.
fn scan_calls(
    fd: &FileData,
    open: usize,
    close: usize,
    self_qual: Option<&str>,
) -> Vec<(usize, RawCallee)> {
    let mut out = Vec::new();
    for i in (open + 1)..close {
        if !fd.is_ident(i) || KEYWORDS.contains(&fd.text(i)) {
            continue;
        }
        // `name(` — or `name::<T>(` through a turbofish
        let after = fd.next_code(i + 1);
        let is_call = if fd.punct_is(after, "(") {
            true
        } else if fd.punct_is(after, "::") && fd.punct_is(fd.next_code(after + 1), "<") {
            let mut angle = 0i32;
            let mut j = fd.next_code(after + 1);
            let mut found = false;
            while j <= close {
                match fd.text(j) {
                    "<" => angle += 1,
                    "<<" => angle += 2,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    _ => {}
                }
                if angle <= 0 {
                    found = fd.punct_is(fd.next_code(j + 1), "(");
                    break;
                }
                j += 1;
            }
            found
        } else {
            false
        };
        if !is_call {
            continue;
        }
        let name = fd.text(i).to_string();
        // `.load(Ordering::Relaxed)` and friends are std atomic operations,
        // not workspace calls — a workspace fn that happens to be named
        // `load` or `store` must not become a callee of every atomic op
        if ATOMIC_OPS.contains(&name.as_str())
            && fd.prev_code(i).is_some_and(|p| fd.punct_is(p, "."))
            && fd.punct_is(after, "(")
            && args_mention_ordering(fd, after, close)
        {
            continue;
        }
        let callee = match fd.prev_code(i) {
            Some(p) if fd.punct_is(p, ".") => RawCallee::Method(name),
            Some(p) if fd.punct_is(p, "::") => {
                match fd.prev_code(p) {
                    Some(q) if fd.is_ident(q) => {
                        let qual = fd.text(q);
                        let qual = if qual == "Self" || qual == "self" {
                            self_qual.unwrap_or(qual)
                        } else {
                            qual
                        };
                        RawCallee::Qualified(qual.to_string(), name)
                    }
                    // `<T as Trait>::name(…)` and `>::name(` — treat as a
                    // method-style call: resolve by name across impls
                    _ => RawCallee::Method(name),
                }
            }
            // `fn name(` is a nested definition, not a call
            Some(p) if fd.ident_is(p, "fn") => continue,
            _ => RawCallee::Free(name),
        };
        out.push((i, callee));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::classify;

    fn ws(files: &[(&str, &str)]) -> WorkspaceCtx {
        let data = files
            .iter()
            .map(|(path, src)| FileData::new(classify(path).unwrap(), src.to_string()))
            .collect();
        WorkspaceCtx::build(data)
    }

    fn fn_id(ws: &WorkspaceCtx, name: &str) -> usize {
        ws.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn free_call_edges_resolve_across_files() {
        let w = ws(&[
            ("crates/a/src/lib.rs", "pub fn top() { helper(); }"),
            ("crates/b/src/lib.rs", "pub fn helper() { x.unwrap(); }"),
        ]);
        let top = fn_id(&w, "top");
        let helper = fn_id(&w, "helper");
        assert_eq!(w.calls[top].len(), 1);
        assert_eq!(w.calls[top][0].callees, vec![helper]);
        let (reaches, _) = w.panic_reachability();
        assert!(reaches[top] && reaches[helper]);
    }

    #[test]
    fn method_calls_over_approximate_by_name() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct A; struct B;\n\
             impl A { fn run(&self) {} }\n\
             impl B { fn run(&self) { panic!(\"boom\") } }\n\
             pub fn go(x: &A) { x.run(); }",
        )]);
        let go = fn_id(&w, "go");
        assert_eq!(w.calls[go][0].callees.len(), 2, "both impls resolve");
        let (reaches, _) = w.panic_reachability();
        assert!(reaches[go], "over-approximation: any impl panicking taints");
    }

    #[test]
    fn qualified_calls_resolve_through_impl_and_modules() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub struct Q;\n\
             impl Q { pub fn mk() -> Q { Q } fn own(&self) { Self::mk(); } }\n\
             pub fn direct() { Q::mk(); util::helper(); }\n\
             pub mod util { pub fn helper() {} }",
        )]);
        let direct = fn_id(&w, "direct");
        let mk = fn_id(&w, "mk");
        let helper = fn_id(&w, "helper");
        assert_eq!(w.calls[direct][0].callees, vec![mk]);
        assert_eq!(w.calls[direct][1].callees, vec![helper]);
        let own = fn_id(&w, "own");
        assert_eq!(w.calls[own][0].callees, vec![mk], "Self:: resolves");
    }

    #[test]
    fn catch_unwind_cuts_edges_and_sites() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn risky() { x.unwrap(); }\n\
             pub fn guarded() { let _ = catch_unwind(AssertUnwindSafe(|| risky())); }\n\
             pub fn open() { risky(); }",
        )]);
        let (reaches, _) = w.panic_reachability();
        assert!(reaches[fn_id(&w, "risky")]);
        assert!(!reaches[fn_id(&w, "guarded")], "shielded edge is cut");
        assert!(reaches[fn_id(&w, "open")]);
    }

    #[test]
    fn indexing_is_a_panic_site_but_literals_are_not() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn idx(xs: &[f64], i: usize) -> f64 { xs[i] }\n\
             pub fn lit() -> [u8; 2] { [1, 2] }\n\
             pub fn ty(x: [u8; 4]) -> Vec<u8> { x.to_vec() }",
        )]);
        let (reaches, _) = w.panic_reachability();
        assert!(reaches[fn_id(&w, "idx")]);
        assert!(!reaches[fn_id(&w, "lit")]);
        assert!(!reaches[fn_id(&w, "ty")]);
    }

    #[test]
    fn test_code_is_marked() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn live() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }",
        )]);
        assert!(!w.fns[fn_id(&w, "live")].is_test);
        assert!(w.fns[fn_id(&w, "t")].is_test);
    }

    #[test]
    fn witness_chain_names_the_path() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn a() { b(); }\nfn b() { c(); }\nfn c() { panic!(\"x\") }",
        )]);
        let (reaches, wit) = w.panic_reachability();
        let a = fn_id(&w, "a");
        assert!(reaches[a]);
        let chain = w.witness_chain(a, &wit);
        assert!(chain.starts_with("a → b → c:"), "{chain}");
        assert!(chain.contains("panicking macro"), "{chain}");
    }
}
