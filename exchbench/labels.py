"""A child-label checker written with Python ``re`` alone.

It tokenizes the serialized document with one regular expression, keeps
a stack of open elements, and matches each closed element's children
word (space-separated labels, ``#data`` for text, the method name for an
``int:fun``) against the benchmark's own copy of the receiver's content
models.  Nothing here imports the program.
"""

from __future__ import annotations

import re
from typing import Dict, Optional

TAG = re.compile(r"<(/?)([A-Za-z_][\w:.\-]*)([^>]*?)(/?)>|([^<]+)")
METHOD = re.compile(r'methodName="([^"]*)"')
WRAPPERS = ("int:params", "int:param")

#: Content models over space-terminated tokens, keyed by element label
#: (elements) or ``fun:<name>`` (the parameter word of a kept call).
DATA = r"(?:#data )?"
MAGAZINE = {
    "magazine": r"(?:article )*",
    "article": r"title date temp (?:TimeOut |(?:exhibit )*)",
    "title": DATA, "date": DATA, "temp": DATA, "city": DATA,
    "exhibit": r"title date ",
    "fun:TimeOut": DATA,
}


def digest_models(n: int) -> Dict[str, str]:
    return {
        "digest": r"(?:region )*",
        "region": r"name (?:(?:temp|warn) )*warn (?:(?:temp|warn) ){%d}" % n,
        "name": DATA, "temp": DATA, "warn": DATA, "city": DATA,
    }


def check(xml: str, models: Dict[str, str]) -> Optional[str]:
    """None when every children word fits its model, else the first misfit."""
    compiled = {label: re.compile(model) for label, model in models.items()}
    stack = []  # [label, word parts]
    for match in TAG.finditer(xml):
        closing, name, attrs, empty, text = match.groups()
        if text is not None:
            if text.strip() and stack:
                stack[-1][1].append("#data ")
            continue
        if name in WRAPPERS:
            continue
        if name == "int:fun":
            if closing:
                name = stack[-1][0]
            else:
                method = METHOD.search(attrs)
                if method is None:
                    return "int:fun without methodName"
                name = "fun:" + method.group(1)
        if not closing:
            if stack:
                stack[-1][1].append(name[4:] + " " if name.startswith("fun:") else name + " ")
            stack.append([name, []])
            if not empty:
                continue
        label, parts = stack.pop()
        if label != name:
            return "tag </%s> closes <%s>" % (name, label)
        model = compiled.get(label)
        word = "".join(parts)
        if model is None:
            return "no content model for %r" % label
        if model.fullmatch(word) is None:
            return "%s has children word %r" % (label, word.strip())
    return "unclosed element %r" % stack[-1][0] if stack else None
