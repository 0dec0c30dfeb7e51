"""Static BSP-contract linter — the compile-time half of the sanitizer.

GraphIt-style compilers get to *reject* operator bodies that break the
bulk-synchronous contract; raw Gunrock documents it and hopes.  ``repro
lint`` reports every rule of :mod:`.rules`.  The findings come from the
one functor analysis in :mod:`.effects`; this module owns the rest:
``lint: allow(...)`` suppression comments, path walking, and the
``lint_*`` entry points.  ``repro analyze`` prints the same filtered list
and adds the fusion verdicts.
"""

from __future__ import annotations

import io
import os
import re
import tokenize
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .effects import analyze_module_source
from .rules import Rule, Violation

_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\(([^)]*)\)")


def _allow_tokens(lines: Iterable[Tuple[int, str]]) -> Dict[int, Set[str]]:
    allowed: Dict[int, Set[str]] = {}
    for lineno, text in lines:
        m = _ALLOW_RE.search(text)
        if m:
            allowed[lineno] = {n.strip() for n in m.group(1).split(",")
                               if n.strip()}
    return allowed


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule tokens allowed on that line (1-based).

    A token is either a rule name (``raw-write``) or a rule id
    (``GR001``); :func:`_token_matches` treats them interchangeably.
    """
    return _allow_tokens(enumerate(source.splitlines(), start=1))


def _comment_suppressions(source: str) -> Dict[int, Set[str]]:
    """:func:`_suppressions` read from comments only, not string literals.
    Tokenizing costs more than the line scan, so only the stale check
    calls it, and only on a file with stale candidates."""
    try:
        comments = [(tok.start[0], tok.string) for tok in
                    tokenize.generate_tokens(io.StringIO(source).readline)
                    if tok.type == tokenize.COMMENT]
    except (tokenize.TokenError, SyntaxError):
        return _suppressions(source)
    return _allow_tokens(comments)


def _token_matches(token: str, rule: Rule) -> bool:
    return token == rule.name or token == rule.id


def filter_suppressed(violations: List[Violation],
                      allowed: Dict[int, Set[str]],
                      used: Optional[Set[tuple]] = None) -> List[Violation]:
    """Drop violations covered by an ``allow(...)`` token on the violating
    line or the line above.  When ``used`` is given, every (line, token)
    pair that actually suppressed something is recorded there — the
    ``repro analyze --strict`` stale-suppression check is the complement.
    """
    kept: List[Violation] = []
    for v in violations:
        hit = None
        for line in (v.line, v.line - 1):
            for token in allowed.get(line, ()):
                if _token_matches(token, v.rule):
                    hit = (line, token)
                    break
            if hit:
                break
        if hit:
            if used is not None:
                used.add(hit)
        else:
            kept.append(v)
    return kept


def lint_source(source: str, filename: str = "<string>") -> List[Violation]:
    """Lint one module's source text; returns unsuppressed violations."""
    violations = analyze_module_source(source, filename).violations
    return filter_suppressed(violations, _suppressions(source))


def lint_file(path: str) -> List[Violation]:
    with open(path, "r", encoding="utf-8") as fh:
        return lint_source(fh.read(), filename=path)


def iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    for path in paths:
        if not os.path.exists(path):
            raise FileNotFoundError(f"lint path does not exist: {path}")
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = [d for d in dirnames
                               if d not in ("__pycache__", ".git")]
                for fn in sorted(filenames):
                    if fn.endswith(".py"):
                        yield os.path.join(dirpath, fn)
        elif path.endswith(".py"):
            yield path


def lint_paths(paths: Sequence[str]) -> List[Violation]:
    """Lint every ``.py`` file under the given files/directories."""
    violations: List[Violation] = []
    for path in iter_python_files(paths):
        violations.extend(lint_file(path))
    return violations
