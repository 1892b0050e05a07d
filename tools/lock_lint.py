#!/usr/bin/env python3
"""Whole-program lock-order linter for the erq lock hierarchy.

Every Mutex in src/ must declare its position in the global
lock hierarchy (src/common/lock_order.h): an ERQ_ACQUIRED_AFTER(
lock_order::kRank) annotation naming its own rank anchor, plus a matching
`{lock_order::kRank}` brace initializer that hands the same rank to the
runtime validator.  This tool cross-checks those declarations against the
lock acquisitions the code actually performs:

  1.  Registry pass — every mutex declaration is parsed; unannotated
      mutexes, unknown rank anchors, and annotation/initializer mismatches
      are errors.  Raw std::mutex / std::lock_guard use outside
      src/common/thread_annotations.h is an error (it would bypass the
      hierarchy entirely).

  2.  Acquisition-graph pass — a lexical scan of every function body
      records MutexLock scopes and the calls made while those scopes are
      open.  Per-function lock effects ("calling f may acquire mutexes
      {A, B}") are propagated over the call graph to a fixpoint, so a
      lock held across a call into another module (the historical
      Persistence::AttachCaqp inversion) produces the same edge as a
      lexically nested acquisition.  Virtual calls
      (listener hooks) fan out to every override of the same name.

  3.  Checks — an edge A -> B where level(B) <= level(A) contradicts the
      hierarchy; a declared ERQ_ACQUIRED_BEFORE edge must ascend; any
      cycle in the acquisition graph is reported; acquiring a mutex while
      already holding it is a self-deadlock.

The scan is lexical (no libclang in the build image), which is exactly
why the hierarchy discipline exists: lockable state is always a named
`Mutex` member acquired through the RAII guard, so the
patterns the scanner understands are the only patterns the codebase is
allowed to use.  An expression the scanner cannot resolve is itself an
error, not a silent skip.

Exit status: 0 clean, 1 violations found, 2 on usage/internal errors.
"""

import argparse
import json
import os
import re
import sys
from collections import defaultdict

# ---------------------------------------------------------------------------
# Source sanitizing
# ---------------------------------------------------------------------------

def sanitize(text):
    """Blanks comments, string/char literal contents, and preprocessor
    lines, preserving every newline so offsets keep their line numbers."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            else:
                out.append("\n" if c == "\n" else " ")
            i += 1
    text = "".join(out)
    # Drop preprocessor lines (including continuations) after comment
    # stripping so #ifdef branches with unbalanced braces cannot confuse
    # the scope tracker.
    lines = text.split("\n")
    in_pp = False
    for idx, line in enumerate(lines):
        stripped = line.lstrip()
        if in_pp or stripped.startswith("#"):
            in_pp = line.rstrip().endswith("\\")
            lines[idx] = ""
    return "\n".join(lines)


ERQ_MACRO_CALL_RE = re.compile(r"\bERQ_[A-Z_]+\s*\(([^()]|\([^()]*\))*\)")
ERQ_MACRO_BARE_RE = re.compile(r"\bERQ_[A-Z_]+\b")


def strip_erq_macros(stmt):
    stmt = ERQ_MACRO_CALL_RE.sub(" ", stmt)
    return ERQ_MACRO_BARE_RE.sub(" ", stmt)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class ClassInfo:
    def __init__(self, qualified):
        self.qualified = qualified          # e.g. "Persistence::Mirror"
        self.members = {}                   # member name -> type text
        self.methods = {}                   # name -> {"virtual": bool, "ret": str}
        self.nested = set()                 # qualified names of nested classes


class FunctionInfo:
    def __init__(self, key):
        self.key = key                      # (class_qualified or "", name)
        self.params = {}                    # name -> type text
        self.locals = {}                    # name -> type text
        self.events = []                    # ("acquire"|"call", ...)
        self.file = None
        self.line = None


class Model:
    def __init__(self):
        self.classes = {}                   # qualified -> ClassInfo
        self.simple_index = defaultdict(list)   # simple name -> [qualified]
        self.functions = {}                 # key -> FunctionInfo
        self.free_functions = set()         # names with a definition or decl
        self.virtual_index = defaultdict(set)   # method name -> {fn key}
        self.mutexes = {}                   # "Class::member" -> dict
        self.errors = []

    def get_class(self, qualified):
        if qualified not in self.classes:
            self.classes[qualified] = ClassInfo(qualified)
            self.simple_index[qualified.split("::")[-1]].append(qualified)
        return self.classes[qualified]

    def get_function(self, key):
        if key not in self.functions:
            self.functions[key] = FunctionInfo(key)
        return self.functions[key]


# ---------------------------------------------------------------------------
# Pass 1: lexical scan
# ---------------------------------------------------------------------------

MUTEX_DECL_RE = re.compile(r"\b(Mutex)\s+(\w+)\b")
ACQUIRED_AFTER_RE = re.compile(r"ERQ_ACQUIRED_AFTER\s*\(\s*lock_order::(\w+)\s*\)")
ACQUIRED_BEFORE_RE = re.compile(r"ERQ_ACQUIRED_BEFORE\s*\(([^)]*)\)")
RANK_INIT_RE = re.compile(r"\{\s*lock_order::(\w+)\s*\}")
LOCK_GUARD_RE = re.compile(
    r"\b(MutexLock)\s+\w+\s*\(\s*&\s*([\w>\-.]+)\s*\)")
# An EpochReadGuard pins epoch-based reclamation for its whole scope. The
# linter models it as a pseudo-lock (id "<epoch>") so that acquiring ANY
# mutex inside the guard scope — directly or through a call — is an error:
# a blocked epoch reader stalls reclamation for every writer.
EPOCH_GUARD_RE = re.compile(
    r"\bEpochReadGuard\s+\w+\s*\(\s*&\s*([\w>\-.]+)\s*\)")
EPOCH_SENTINEL = "<epoch>"
CALL_RE = re.compile(
    r"((?:[\w:]+(?:->|\.))*)((?:\w+::)*[\w~]+)\s*\(")
CLASS_HEAD_RE = re.compile(r"\b(class|struct|union)\s+([A-Za-z_]\w*)\b[^;=()]*$")
ENUM_HEAD_RE = re.compile(r"\benum\b")
NAMESPACE_HEAD_RE = re.compile(r"\bnamespace\b(?:\s+([\w:]+))?\s*$")
FUNC_NAME_RE = re.compile(r"((?:[A-Za-z_]\w*::)*~?[A-Za-z_]\w*)\s*\(")
LOCAL_DECL_RE = re.compile(
    r"^\s*(?:const\s+|static\s+|constexpr\s+|mutable\s+)*"
    r"([A-Za-z_][\w:]*(?:\s*<[^;={}]*>)?(?:\s*[*&]+|\s))\s*(\w+)\s*(?:=|\(|;|$)")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?([\w:<>,*&\s]+?)[&*\s]+(\w+)\s*:")
MEMBER_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+|const\s+|constexpr\s+|inline\s+)*"
    r"([A-Za-z_][\w:]*(?:\s*<.*>)?(?:\s*[*&]+(?:\s*const\b)?|\s+))\s*(\w+)\s*(\{.*\}|=.*)?\s*$")

ACCESS_SPEC_RE = re.compile(r"^\s*(?:(?:public|private|protected)\s*:\s*)+")

CALL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "decltype", "new", "delete", "catch", "assert", "defined", "throw",
    "operator", "noexcept",
}

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|lock_guard|unique_lock|"
    r"scoped_lock|shared_lock|condition_variable)\b")
RAW_MUTEX_EXEMPT = "src/common/thread_annotations.h"


class FileScanner:
    """One-pass lexical scanner producing declarations and per-function
    acquire/call events in `model`."""

    def __init__(self, model, rel, text):
        self.model = model
        self.rel = rel
        self.text = text
        self.line = 1
        # Scope stack entries:
        #   ("namespace", name) ("class", qualified) ("function", fninfo)
        #   ("block", None) ("enum", None)
        self.scopes = [("file", None)]
        # Active lock scopes inside the innermost function:
        # list of (expr, guard_kind, line, scope_depth)
        self.locks = []

    # -- helpers ----------------------------------------------------------

    def current_class(self):
        for kind, val in reversed(self.scopes):
            if kind == "class":
                return val
        return None

    def current_function(self):
        for kind, val in reversed(self.scopes):
            if kind == "function":
                return val
            if kind in ("class", "namespace", "file"):
                return None
        return None

    def scan(self):
        text = self.text
        i, n = 0, len(text)
        buf = []
        paren = 0
        stmt_line = 1
        has_content = False
        while i < n:
            c = text[i]
            if not has_content and not c.isspace():
                stmt_line = self.line
                has_content = True
            if c == "\n":
                self.line += 1
                buf.append(" ")
                i += 1
                continue
            if c == "(":
                paren += 1
                buf.append(c)
                i += 1
                continue
            if c == ")":
                paren = max(0, paren - 1)
                buf.append(c)
                i += 1
                continue
            if c == ";" and paren == 0:
                self.on_statement("".join(buf), stmt_line)
                buf = []
                has_content = False
                i += 1
                continue
            if c == "{":
                if paren > 0 or self.brace_is_initializer("".join(buf)):
                    # Braced initializer / lambda body inside an argument
                    # list: splice the contents (braces included) into the
                    # statement text.
                    buf.append("{")
                    j, depth = i + 1, 1
                    while j < n and depth > 0:
                        if text[j] == "{":
                            depth += 1
                        elif text[j] == "}":
                            depth -= 1
                        elif text[j] == "\n":
                            self.line += 1
                        buf.append(text[j])
                        j += 1
                    i = j
                    continue
                self.on_open("".join(buf), stmt_line)
                buf = []
                has_content = False
                i += 1
                continue
            if c == "}":
                self.on_fragment("".join(buf), stmt_line)
                buf = []
                has_content = False
                self.on_close()
                i += 1
                continue
            buf.append(c)
            i += 1
        if buf:
            self.on_statement("".join(buf), stmt_line)

    def brace_is_initializer(self, buf):
        """True when a '{' at paren depth 0 starts a braced initializer
        (member default init, return Status{...}) rather than a scope."""
        stripped = strip_erq_macros(buf).strip()
        if not stripped:
            return False
        kind = self.scopes[-1][0]
        if kind == "class":
            # In a class body only nested types and method bodies open real
            # scopes; everything else brace-initializes a member.
            return not (CLASS_HEAD_RE.search(stripped)
                        or ENUM_HEAD_RE.search(stripped)
                        or "(" in stripped)
        if kind in ("function", "block"):
            # `return X{...}` / `T v{...}`: an identifier directly before
            # the brace means aggregate init, not a control-flow block.
            return bool(re.search(r"[\w>]\s*$", stripped)) and not re.search(
                r"\b(else|do|try)\s*$", stripped)
        return False

    # -- scope transitions -------------------------------------------------

    def on_open(self, buf, stmt_line):
        stripped = strip_erq_macros(buf).strip()
        kind = self.scopes[-1][0]
        m = NAMESPACE_HEAD_RE.search(stripped)
        if m:
            self.scopes.append(("namespace", m.group(1) or ""))
            return
        m = CLASS_HEAD_RE.search(stripped)
        if m and kind in ("file", "namespace", "class"):
            name = m.group(2)
            outer = self.current_class()
            qualified = f"{outer}::{name}" if outer else name
            info = self.model.get_class(qualified)
            if outer:
                self.model.get_class(outer).nested.add(qualified)
            # Record base classes for documentation purposes only; virtual
            # dispatch is resolved by method-name union.
            del info
            self.scopes.append(("class", qualified))
            return
        if ENUM_HEAD_RE.search(stripped) and kind in ("file", "namespace",
                                                      "class"):
            self.scopes.append(("enum", None))
            return
        if kind in ("file", "namespace", "class") and "(" in stripped:
            fn = self.open_function(stripped, stmt_line)
            self.scopes.append(("function", fn))
            return
        if kind in ("function", "block"):
            # Control-flow block: the header (if/for/while condition) may
            # contain calls; process it before descending.
            self.on_fragment(buf, stmt_line)
            self.scopes.append(("block", None))
            return
        self.scopes.append(("block", None))

    def open_function(self, signature, stmt_line):
        m = FUNC_NAME_RE.search(signature)
        key = ("", None)
        if m:
            qname = m.group(1)
            parts = qname.split("::")
            name = parts[-1]
            cls = self.current_class()
            if len(parts) > 1:
                cls = self.resolve_class_name("::".join(parts[:-1]), cls)
            if cls:
                key = (cls, name)
            else:
                key = ("", name)
                self.model.free_functions.add(name)
        fn = self.model.get_function(key) if key[1] else FunctionInfo(key)
        fn.file = self.rel
        fn.line = fn.line or stmt_line
        if key[1] and key[0]:
            info = self.model.get_class(key[0])
            flags = info.methods.setdefault(key[1], {"virtual": False, "ret": ""})
            if re.search(r"\b(virtual|override|final)\b", signature):
                flags["virtual"] = True
                self.model.virtual_index[key[1]].add(key)
        # Parameters: "Type name" pairs inside the outermost parens.
        pm = re.search(r"\(([^)]*)\)", signature[m.end() - 1:] if m else signature)
        if pm:
            for param in pm.group(1).split(","):
                param = param.strip()
                pm2 = re.match(r"(.+?[\s*&])(\w+)\s*(=.*)?$", param)
                if pm2:
                    fn.params[pm2.group(2)] = pm2.group(1)
        return fn

    def on_close(self):
        if len(self.scopes) > 1:
            kind, _ = self.scopes.pop()
            depth = len(self.scopes)
            if kind in ("function", "block"):
                self.locks = [lk for lk in self.locks if lk[3] <= depth]
            if kind == "function":
                self.locks = [lk for lk in self.locks
                              if lk[3] < depth or
                              self.current_function() is not None]
                if self.current_function() is None:
                    self.locks = []

    # -- statements --------------------------------------------------------

    def on_statement(self, buf, stmt_line):
        kind = self.scopes[-1][0]
        if kind == "class":
            self.class_statement(buf, stmt_line)
        elif kind in ("function", "block"):
            fn = self.current_function()
            if fn is not None:
                self.function_statement(fn, buf, stmt_line, full=True)
        if RAW_MUTEX_RE.search(buf) and self.rel != RAW_MUTEX_EXEMPT:
            self.model.errors.append(
                (self.rel, stmt_line,
                 "raw std synchronization primitive "
                 f"'{RAW_MUTEX_RE.search(buf).group(0)}' bypasses the lock "
                 "hierarchy; use erq::Mutex from "
                 "common/thread_annotations.h"))

    def on_fragment(self, buf, stmt_line):
        if not buf.strip():
            return
        fn = self.current_function()
        if fn is not None and self.scopes[-1][0] in ("function", "block"):
            self.function_statement(fn, buf, stmt_line, full=False)

    def class_statement(self, buf, stmt_line):
        cls = self.current_class()
        info = self.model.get_class(cls)
        m = MUTEX_DECL_RE.search(buf)
        if m and "(" not in strip_erq_macros(buf.split(m.group(2))[0]):
            self.record_mutex(cls, m.group(1), m.group(2), buf, stmt_line)
            return
        stripped = strip_erq_macros(buf).strip()
        if "(" in stripped:
            fm = FUNC_NAME_RE.search(stripped)
            if fm and "::" not in fm.group(1):
                name = fm.group(1)
                flags = info.methods.setdefault(name,
                                                {"virtual": False, "ret": ""})
                flags["ret"] = stripped[:fm.start()].strip()
                if re.search(r"\b(virtual|override|final)\b", stripped):
                    flags["virtual"] = True
                    self.model.virtual_index[name].add((cls, name))
            return
        stripped = ACCESS_SPEC_RE.sub("", stripped)
        mm = MEMBER_DECL_RE.match(stripped)
        if mm:
            info.members[mm.group(2)] = mm.group(1)

    def record_mutex(self, cls, mutex_kind, member, buf, stmt_line):
        qualified = f"{cls}::{member}"
        after = ACQUIRED_AFTER_RE.search(buf)
        before = ACQUIRED_BEFORE_RE.search(buf)
        init = RANK_INIT_RE.search(buf)
        before_anchors = []
        if before:
            before_anchors = re.findall(r"lock_order::(\w+)", before.group(1))
        self.model.mutexes[qualified] = {
            "kind": mutex_kind,
            "file": self.rel,
            "line": stmt_line,
            "after": after.group(1) if after else None,
            "before": before_anchors,
            "init": init.group(1) if init else None,
        }
        info = self.model.get_class(cls)
        info.members[member] = mutex_kind

    def function_statement(self, fn, buf, stmt_line, full):
        text = buf
        # Lock acquisitions (and blank them so `lock(` is not a call).
        for m in LOCK_GUARD_RE.finditer(text):
            held = [(lk[0], lk[1], lk[2]) for lk in self.locks]
            self.locks.append((m.group(2), m.group(1), stmt_line,
                               len(self.scopes)))
            fn.events.append(("acquire", m.group(2), m.group(1), stmt_line,
                              held, self.rel))
        text = LOCK_GUARD_RE.sub(lambda m: " " * len(m.group(0)), text)
        # Epoch critical sections: pushed as the "<epoch>" pseudo-lock so
        # any mutex acquired while the guard is live produces an
        # ("<epoch>", mutex) edge (see check_edges).
        for m in EPOCH_GUARD_RE.finditer(text):
            held = [(lk[0], lk[1], lk[2]) for lk in self.locks]
            self.locks.append((EPOCH_SENTINEL, "EpochReadGuard", stmt_line,
                               len(self.scopes)))
            fn.events.append(("acquire", EPOCH_SENTINEL, "EpochReadGuard",
                              stmt_line, held, self.rel))
        text = EPOCH_GUARD_RE.sub(lambda m: " " * len(m.group(0)), text)
        stripped = strip_erq_macros(text)
        if full:
            lm = LOCAL_DECL_RE.match(stripped)
            if lm and lm.group(2) not in CALL_KEYWORDS:
                fn.locals.setdefault(lm.group(2), lm.group(1))
        for rm in RANGE_FOR_RE.finditer(stripped):
            fn.locals.setdefault(rm.group(2), rm.group(1))
        for cm in CALL_RE.finditer(stripped):
            name = cm.group(2).split("::")[-1]
            if name in CALL_KEYWORDS:
                continue
            if re.fullmatch(r"[A-Z0-9_]+", name) and len(name) > 2:
                continue  # macro-style identifier
            prev = stripped[:cm.start()].rstrip()
            receiver = cm.group(1)
            explicit_cls = ("::".join(cm.group(2).split("::")[:-1])
                            if "::" in cm.group(2) else "")
            if not receiver and not explicit_cls and prev and (
                    prev[-1].isalnum() or prev[-1] in "_>&*"):
                continue  # `Type name(...)` declaration, not a call
            held = [(lk[0], lk[1], lk[2]) for lk in self.locks]
            fn.events.append(("call", receiver, explicit_cls, name,
                              stmt_line, held, self.rel))

    def resolve_class_name(self, name, context_cls):
        """Maps a possibly-unqualified class name to a registered
        qualified class name, preferring nesting inside `context_cls`."""
        if name in self.model.classes:
            return name
        simple = name.split("::")[-1]
        candidates = self.model.simple_index.get(simple, [])
        if context_cls:
            for cand in candidates:
                if cand.startswith(context_cls + "::") or cand == context_cls:
                    return cand
        if len(candidates) == 1:
            return candidates[0]
        return name  # unresolved; registered lazily if defined later


# ---------------------------------------------------------------------------
# Pass 2: resolution and checks
# ---------------------------------------------------------------------------

class Analyzer:
    def __init__(self, model, ranks):
        self.model = model
        self.ranks = ranks          # anchor name -> (level, display)
        self.effects = {}           # fn key -> {mutex: witness}
        self.errors = list(model.errors)

    # -- type resolution ---------------------------------------------------

    def type_to_class(self, type_text, context_cls):
        if not type_text:
            return None
        tokens = re.findall(r"[A-Za-z_]\w*", type_text)
        known = [t for t in tokens if t in self.model.simple_index]
        if not known:
            return None
        # Innermost template argument wins: unique_ptr<Persistence> is a
        # Persistence for receiver purposes.
        simple = known[-1]
        candidates = self.model.simple_index[simple]
        if context_cls:
            outer = context_cls
            while outer:
                for cand in candidates:
                    if cand == f"{outer}::{simple}":
                        return cand
                outer = "::".join(outer.split("::")[:-1])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_receiver(self, fn, receiver, context_cls):
        """Resolves `a.b->c.` chains to the class of the final element."""
        parts = [p for p in re.split(r"->|\.", receiver) if p]
        cls = context_cls
        current = None
        for idx, part in enumerate(parts):
            part = part.strip()
            if "::" in part:
                known = self.type_to_class(part, context_cls)
                current = known
                cls = known
                continue
            type_text = None
            if idx == 0:
                type_text = (fn.locals.get(part) or fn.params.get(part))
                if type_text is None and context_cls:
                    type_text = self.lookup_member(context_cls, part)
            elif current:
                type_text = self.lookup_member(current, part)
            if type_text is None:
                return None
            current = self.type_to_class(type_text, context_cls)
            if current is None:
                return None
            cls = current
        return current

    def lookup_member(self, cls, name):
        seen = set()
        while cls and cls not in seen:
            seen.add(cls)
            info = self.model.classes.get(cls)
            if info and name in info.members:
                return info.members[name]
            cls = "::".join(cls.split("::")[:-1])
        return None

    def resolve_call(self, fn, receiver, explicit_cls, name):
        """Returns the set of function keys a call may reach."""
        model = self.model
        targets = set()
        cls = None
        context_cls = fn.key[0] or None
        if explicit_cls:
            resolved = self.type_to_class(explicit_cls, context_cls)
            cls = resolved
        elif receiver:
            cls = self.resolve_receiver(fn, receiver, context_cls)
        else:
            # Bare call: own class (searching enclosing classes), else a
            # known free function.
            search = context_cls
            while search:
                info = model.classes.get(search)
                if info and name in info.methods:
                    cls = search
                    break
                search = "::".join(search.split("::")[:-1])
            if cls is None and ("", name) in model.functions:
                targets.add(("", name))
        if cls:
            key = (cls, name)
            info = model.classes.get(cls)
            is_virtual = bool(info and name in info.methods
                              and info.methods[name]["virtual"])
            if key in model.functions or (info and name in info.methods):
                targets.add(key)
            if is_virtual or key in model.virtual_index.get(name, set()):
                targets |= model.virtual_index.get(name, set())
        elif receiver is not None and not receiver and not explicit_cls:
            pass
        # Static-accessor chains (`PersistMetrics::Get().x->f()`) resolve via
        # the explicit class; anything still unresolved is skipped — the
        # mutexes it could touch are all reachable through resolved names.
        return {t for t in targets if t in model.functions
                or (t[0] and t[0] in model.classes)}

    def resolve_lock_expr(self, fn, expr, file, line):
        """Maps `mu_` / `p->mu_` to a registered mutex id."""
        if expr == EPOCH_SENTINEL:
            return EPOCH_SENTINEL
        context_cls = fn.key[0] or None
        parts = [p for p in re.split(r"->|\.", expr) if p]
        member = parts[-1]
        if len(parts) == 1:
            cls = context_cls
            while cls:
                if f"{cls}::{member}" in self.model.mutexes:
                    return f"{cls}::{member}"
                cls = "::".join(cls.split("::")[:-1])
        else:
            owner = self.resolve_receiver(fn, "".join(
                p + "->" for p in parts[:-1]), context_cls)
            if owner and f"{owner}::{member}" in self.model.mutexes:
                return f"{owner}::{member}"
        self.errors.append(
            (file, line,
             f"cannot resolve lock expression '&{expr}' in "
             f"{self.fn_name(fn.key)} to a declared Mutex "
             "member; the lock linter requires guards to name a registered "
             "mutex"))
        return None

    @staticmethod
    def fn_name(key):
        return f"{key[0]}::{key[1]}" if key[0] else (key[1] or "<anonymous>")

    # -- effects fixpoint --------------------------------------------------

    def compute(self):
        model = self.model
        # Resolve every event once.
        resolved = {}               # fn key -> list of resolved events
        for key, fn in model.functions.items():
            events = []
            for ev in fn.events:
                if ev[0] == "acquire":
                    _, expr, guard, line, held, file = ev
                    mutex = self.resolve_lock_expr(fn, expr, file, line)
                    held_ids = [self.try_lock_expr(fn, h[0]) for h in held]
                    events.append(("acquire", mutex, guard, line,
                                   [h for h in held_ids if h], file))
                else:
                    _, receiver, explicit_cls, name, line, held, file = ev
                    targets = self.resolve_call(fn, receiver, explicit_cls,
                                                name)
                    if not targets:
                        continue
                    held_ids = [self.try_lock_expr(fn, h[0]) for h in held]
                    events.append(("call", targets, name, line,
                                   [h for h in held_ids if h], file))
            resolved[key] = events
        self.resolved = resolved

        # Fixpoint: effects[f] = direct acquires ∪ effects of callees.
        effects = {key: {} for key in model.functions}
        changed = True
        while changed:
            changed = False
            for key, events in resolved.items():
                eff = effects[key]
                for ev in events:
                    if ev[0] == "acquire" and ev[1]:
                        if ev[1] not in eff:
                            eff[ev[1]] = ("direct", ev[3], ev[5])
                            changed = True
                    elif ev[0] == "call":
                        for target in ev[1]:
                            for mutex, _ in effects.get(target, {}).items():
                                if mutex not in eff:
                                    eff[mutex] = ("call", target, ev[3],
                                                  ev[5])
                                    changed = True
        self.effects = effects

    def try_lock_expr(self, fn, expr):
        """Like resolve_lock_expr but silent (held locks were already
        diagnosed at their own acquisition site)."""
        if expr == EPOCH_SENTINEL:
            return EPOCH_SENTINEL
        context_cls = fn.key[0] or None
        parts = [p for p in re.split(r"->|\.", expr) if p]
        member = parts[-1]
        if len(parts) == 1:
            cls = context_cls
            while cls:
                if f"{cls}::{member}" in self.model.mutexes:
                    return f"{cls}::{member}"
                cls = "::".join(cls.split("::")[:-1])
            return None
        owner = self.resolve_receiver(fn, "".join(
            p + "->" for p in parts[:-1]), context_cls)
        if owner and f"{owner}::{member}" in self.model.mutexes:
            return f"{owner}::{member}"
        return None

    def effect_chain(self, fn_key, mutex, limit=8):
        """Human-readable provenance: f -> g -> mutex."""
        chain = []
        key = fn_key
        for _ in range(limit):
            wit = self.effects.get(key, {}).get(mutex)
            if wit is None:
                break
            if wit[0] == "direct":
                chain.append(f"{self.fn_name(key)} acquires it at "
                             f"{wit[2]}:{wit[1]}")
                return chain
            chain.append(f"{self.fn_name(key)} calls "
                         f"{self.fn_name(wit[1])} ({wit[3]}:{wit[2]})")
            key = wit[1]
        return chain

    # -- checks ------------------------------------------------------------

    def level_of(self, mutex_id):
        decl = self.model.mutexes.get(mutex_id)
        if not decl or not decl["after"]:
            return None
        rank = self.ranks.get(decl["after"])
        return rank[0] if rank else None

    def check_declarations(self):
        for mutex_id, decl in sorted(self.model.mutexes.items()):
            where = (decl["file"], decl["line"])
            if decl["after"] is None:
                self.errors.append((*where,
                    f"mutex '{mutex_id}' lacks a lock hierarchy annotation: "
                    "declare ERQ_ACQUIRED_AFTER(lock_order::k<Rank>) and "
                    "initialize with {lock_order::k<Rank>} "
                    "(see src/common/lock_order.h)"))
                continue
            if decl["after"] not in self.ranks:
                self.errors.append((*where,
                    f"mutex '{mutex_id}' names unknown rank anchor "
                    f"'lock_order::{decl['after']}' (not defined in "
                    "src/common/lock_order.h)"))
                continue
            if decl["init"] is None:
                self.errors.append((*where,
                    f"mutex '{mutex_id}' declares rank "
                    f"{decl['after']} but has no "
                    f"{{lock_order::{decl['after']}}} initializer, so the "
                    "runtime validator cannot see its level"))
            elif decl["init"] != decl["after"]:
                self.errors.append((*where,
                    f"mutex '{mutex_id}': ERQ_ACQUIRED_AFTER names "
                    f"{decl['after']} but the initializer passes "
                    f"lock_order::{decl['init']}; the static and runtime "
                    "ranks must match"))
            own_level = self.ranks[decl["after"]][0]
            for anchor in decl["before"]:
                if anchor not in self.ranks:
                    self.errors.append((*where,
                        f"mutex '{mutex_id}' ERQ_ACQUIRED_BEFORE names "
                        f"unknown rank anchor 'lock_order::{anchor}'"))
                elif self.ranks[anchor][0] <= own_level:
                    self.errors.append((*where,
                        f"declared order contradiction: '{mutex_id}' (level "
                        f"{own_level}) is ERQ_ACQUIRED_BEFORE "
                        f"{anchor} (level {self.ranks[anchor][0]}), but "
                        "levels must strictly ascend"))

    def check_edges(self):
        edges = {}
        for key, events in self.resolved.items():
            for ev in events:
                if ev[0] == "acquire" and ev[1]:
                    for held in ev[4]:
                        edges.setdefault((held, ev[1]),
                                         (key, ev[3], ev[5], None))
                elif ev[0] == "call":
                    for target in ev[1]:
                        for mutex in self.effects.get(target, {}):
                            for held in ev[4]:
                                edges.setdefault(
                                    (held, mutex),
                                    (key, ev[3], ev[5], target))
        self.edges = edges
        for (a, b), (fn_key, line, file, via) in sorted(edges.items()):
            if a == EPOCH_SENTINEL or b == EPOCH_SENTINEL:
                # Entering an epoch while holding a mutex is fine (Enter
                # never blocks), and nested pins are harmless; only a
                # mutex acquired *inside* the guard scope is an error.
                if a == EPOCH_SENTINEL and b != EPOCH_SENTINEL:
                    detail = ""
                    if via is not None:
                        steps = self.effect_chain(via, b)
                        if steps:
                            detail = ("; call path: " + " -> ".join(
                                [self.fn_name(fn_key)] + steps))
                    self.errors.append((file, line,
                        f"epoch-guard violation: mutex '{b}' acquired "
                        "inside an EpochReadGuard critical section in "
                        f"{self.fn_name(fn_key)}; epoch readers must never "
                        "block (a stalled reader pins every retired "
                        "snapshot) — move the acquisition outside the guard "
                        f"scope{detail}"))
                continue
            la, lb = self.level_of(a), self.level_of(b)
            if la is None or lb is None:
                continue  # unannotated mutexes already reported
            if a == b:
                chain = ""
                if via is not None:
                    chain = " via " + " -> ".join(
                        self.effect_chain(via, b)) if self.effect_chain(
                            via, b) else ""
                self.errors.append((file, line,
                    f"self-deadlock: '{a}' is acquired while already held "
                    f"in {self.fn_name(fn_key)}{chain}"))
            elif lb <= la:
                detail = ""
                if via is not None:
                    steps = self.effect_chain(via, b)
                    if steps:
                        detail = ("; call path: " +
                                  " -> ".join([self.fn_name(fn_key)] + steps))
                self.errors.append((file, line,
                    f"lock-order violation: '{b}' (level {lb}) acquired "
                    f"while holding '{a}' (level {la}); the hierarchy "
                    "requires strictly ascending levels"
                    f"{detail}"))

    def check_cycles(self):
        graph = defaultdict(set)
        for (a, b) in self.edges:
            # The "<epoch>" pseudo-lock never blocks, so it cannot
            # participate in a deadlock cycle; its edges are diagnosed
            # separately in check_edges.
            if a != b and EPOCH_SENTINEL not in (a, b):
                graph[a].add(b)
        seen_cycles = set()
        state = {}

        def dfs(node, stack):
            state[node] = 1
            stack.append(node)
            for nxt in sorted(graph.get(node, ())):
                if state.get(nxt) == 1:
                    cycle = tuple(stack[stack.index(nxt):])
                    lo = min(range(len(cycle)), key=lambda i: cycle[i])
                    canon = cycle[lo:] + cycle[:lo]
                    if canon not in seen_cycles:
                        seen_cycles.add(canon)
                        decl = self.model.mutexes.get(canon[0], {})
                        self.errors.append((
                            decl.get("file", "<unknown>"),
                            decl.get("line", 0),
                            "lock cycle: " +
                            " -> ".join(canon + (canon[0],))))
                elif state.get(nxt, 0) == 0:
                    dfs(nxt, stack)
            stack.pop()
            state[node] = 2

        for node in sorted(graph):
            if state.get(node, 0) == 0:
                dfs(node, [])


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def parse_ranks(root):
    path = os.path.join(root, "src", "common", "lock_order.h")
    if not os.path.exists(path):
        return None, f"{path}: rank table not found (src/common/lock_order.h)"
    ranks = {}
    with open(path, encoding="utf-8") as f:
        text = f.read()
    for m in re.finditer(
            r"inline\s+constexpr\s+LockRank\s+(k\w+)\s*\{\s*(\d+)\s*,\s*"
            r'"([^"]*)"', text):
        ranks[m.group(1)] = (int(m.group(2)), m.group(3))
    if not ranks:
        return None, f"{path}: no LockRank anchors found"
    return ranks, None


def iter_sources(root):
    src = os.path.join(root, "src")
    for dirpath, _, filenames in os.walk(src):
        for name in sorted(filenames):
            if name.endswith((".h", ".cc")):
                full = os.path.join(dirpath, name)
                yield full, os.path.relpath(full, root)


def check_compile_commands(root, build_dir, errors):
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(db_path):
        errors.append((db_path, 0,
                       "compile_commands.json not found; configure with "
                       "CMAKE_EXPORT_COMPILE_COMMANDS=ON (the project "
                       "enables it unconditionally — pass the real build "
                       "directory via --build-dir)"))
        return
    with open(db_path, encoding="utf-8") as f:
        entries = json.load(f)
    compiled = {os.path.realpath(e["file"]) for e in entries}
    for full, rel in iter_sources(root):
        if full.endswith(".cc") and os.path.realpath(full) not in compiled:
            errors.append((rel, 0,
                           "translation unit is not in "
                           "compile_commands.json — it is invisible to the "
                           "compiler, clang-tidy, and the thread-safety "
                           "analysis; add it to a CMake target"))


def run(root, build_dir=None, verbose=False):
    ranks, err = parse_ranks(root)
    if err:
        print(f"lock_lint: error: {err}", file=sys.stderr)
        return 2
    levels = defaultdict(list)
    model = Model()
    for anchor, (level, _) in ranks.items():
        levels[level].append(anchor)
    for level, anchors in sorted(levels.items()):
        if len(anchors) > 1:
            model.errors.append(
                ("src/common/lock_order.h", 0,
                 f"rank anchors {', '.join(sorted(anchors))} share level "
                 f"{level}; levels must be unique"))

    for full, rel in iter_sources(root):
        with open(full, encoding="utf-8") as f:
            text = f.read()
        FileScanner(model, rel, sanitize(text)).scan()

    analyzer = Analyzer(model, ranks)
    analyzer.check_declarations()
    analyzer.compute()
    analyzer.check_edges()
    analyzer.check_cycles()

    if build_dir:
        check_compile_commands(root, build_dir, analyzer.errors)

    errors = sorted(set(analyzer.errors))
    for file, line, message in errors:
        print(f"{file}:{line}: error: {message}")
    n_edges = len(getattr(analyzer, "edges", {}))
    if verbose:
        for (a, b), (fn_key, line, file, _) in sorted(analyzer.edges.items()):
            print(f"lock_lint: edge {a} -> {b} "
                  f"({file}:{line} in {Analyzer.fn_name(fn_key)})",
                  file=sys.stderr)
    if errors:
        print(f"lock_lint: {len(errors)} error(s) across "
              f"{len(model.mutexes)} mutexes, {n_edges} acquisition edges",
              file=sys.stderr)
        return 1
    print(f"lock_lint: OK ({len(model.mutexes)} mutexes, "
          f"{n_edges} acquisition edges, 0 violations)", file=sys.stderr)
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Static lock-order linter for the erq lock hierarchy")
    parser.add_argument("--root", default=None,
                        help="project root (defaults to the repo containing "
                             "this script)")
    parser.add_argument("--build-dir", default=None,
                        help="CMake build dir; when given, every src/ .cc "
                             "must appear in its compile_commands.json")
    parser.add_argument("--verbose", action="store_true",
                        help="print the full acquisition-edge list")
    args = parser.parse_args(argv)
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"lock_lint: error: no src/ under {root}", file=sys.stderr)
        return 2
    return run(root, args.build_dir, args.verbose)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
