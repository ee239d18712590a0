"""Seeded inputs and their expected outputs, built apart from the program.

Every document is written as text from templates that follow the Active
XML wire syntax (``int:fun`` / ``int:params`` / ``int:param``) and the
pretty layout the serializer emits.  The expected enforced document is
built the same way, with every call the target forbids replaced by the
answer of the service that serves it, so the checks never ask the
program what the right answer is.

A document is a list of *units* (magazine articles, digest regions),
each described by a tuple of fields; the same fields render the source
unit and its expected enforced form, and edits change fields.

The schemas are the program's inputs, so they are built with its
``SchemaBuilder``; the label checker in :mod:`exchbench.labels` carries
its own copy of the receiver content models.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple
from xml.sax.saxutils import escape

from repro.doc.builder import call, el
from repro.schema.model import Schema, SchemaBuilder

HEAD = '<?xml version="1.0"?>\n'
INT_NS = "http://www.activexml.com/ns/int"
FORECAST_URL = "http://www.forecast.com/soap"
FORECAST_NS = "urn:xmethods-weather"
TIMEOUT_URL = "http://www.timeout.com/paris"
TIMEOUT_NS = "urn:timeout-program"
ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"

#: magazine: articles per document (about 2 MiB of input).
MAGAZINE_ARTICLES = 3600
#: digest: regions per document, children per region, and n of the
#: target ``name.(temp|warn)*.warn.(temp|warn)^n`` (about 0.6 MiB).
DIGEST_REGIONS = 60
DIGEST_WIDTH = 64
DIGEST_N = 9


def token(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(length))


def fun_xml(pad: str, name: str, url: str, ns: str, param_lines: List[str]) -> List[str]:
    """One ``int:fun`` element laid out as the serializer lays it out."""
    lines = ['%s<int:fun endpointURL="%s" methodName="%s" namespaceURI="%s">'
             % (pad, url, name, ns),
             pad + "  <int:params>",
             pad + "    <int:param>"]
    lines.extend(param_lines)
    lines += [pad + "    </int:param>", pad + "  </int:params>", pad + "</int:fun>"]
    return lines


def city_call(pad: str, name: str, city: str) -> List[str]:
    return fun_xml(pad, name, FORECAST_URL, FORECAST_NS,
                   [pad + "      <city>%s</city>" % escape(city)])


def document_xml(root: str, units: List[List[str]]) -> str:
    lines = ['<%s xmlns:int="%s">' % (root, INT_NS)]
    for unit in units:
        lines.extend(unit)
    lines.append("</%s>" % root)
    return HEAD + "\n".join(lines)


# -- the benchmark's services -----------------------------------------------


def temp_of(city: str) -> str:
    """``Get_Temp``: a pure function of the city."""
    return "%d" % (sum(map(ord, city)) % 41 - 5)


def warn_of(city: str) -> str:
    return "level-%d" % (sum(map(ord, city)) % 5)


def forecast_kind(city: str) -> str:
    """What ``Forecast`` answers for this city: a ``temp``, a ``warn``, or
    a ``Get_Temp`` call (on the city :func:`forecast_city`)."""
    return ("temp", "warn", "Get_Temp")[sum(map(ord, city)) % 3]


def forecast_city(city: str) -> str:
    return city + "-f"


def make_invoker() -> Callable:
    """The benchmark's invoker: synthetic services, pure in their input.

    ``Forecast`` returns a ``Get_Temp`` call for a third of the cities,
    so a digest at k=2 materializes calls that services returned.
    """

    def invoker(fc):
        city = fc.params[0].children[0].value
        if fc.name == "Get_Temp":
            return (el("temp", temp_of(city)),)
        if fc.name == "Get_Warn":
            return (el("warn", warn_of(city)),)
        if fc.name == "Forecast":
            kind = forecast_kind(city)
            if kind == "Get_Temp":
                return (call("Get_Temp", el("city", forecast_city(city)),
                             endpoint=FORECAST_URL, namespace=FORECAST_NS),)
            return (el(kind, temp_of(city) if kind == "temp" else warn_of(city)),)
        raise ValueError("unexpected call %r" % fc.name)

    return invoker


# -- magazine ---------------------------------------------------------------


def magazine_schemas() -> Tuple[Schema, Schema]:
    """(sender, receiver): the paper's newspaper lifted under ``article*``."""

    def base() -> SchemaBuilder:
        return (SchemaBuilder()
                .element("magazine", "article*")
                .element("title", "data").element("date", "data")
                .element("temp", "data").element("city", "data")
                .element("exhibit", "title.date")
                .function("Get_Temp", "city", "temp")
                .function("TimeOut", "data", "exhibit*")
                .root("magazine"))

    sender = base().element(
        "article", "title.date.(Get_Temp | temp).(TimeOut | exhibit*)").build()
    receiver = base().element(
        "article", "title.date.temp.(TimeOut | exhibit*)").build()
    return sender, receiver


def article_fields(rng: random.Random, _shape: random.Random) -> Tuple[str, str, str, str]:
    """(title, date, city, exhibits) of one random article."""
    date = "%02d/%02d/2002" % (rng.randint(1, 28), rng.randint(1, 12))
    return token(rng, rng.randint(16, 32)), date, token(rng, 10), token(rng, rng.randint(8, 24))


def article_lines(fields: Tuple[str, str, str, str], temp: Optional[str] = None) -> List[str]:
    """One article: with its ``Get_Temp`` call, or with ``temp`` in its place."""
    title, date, city, exhibits = fields
    lines = ["  <article>", "    <title>%s</title>" % escape(title),
             "    <date>%s</date>" % escape(date)]
    if temp is None:
        lines += city_call("    ", "Get_Temp", city)
    else:
        lines.append("    <temp>%s</temp>" % escape(temp))
    lines += fun_xml("    ", "TimeOut", TIMEOUT_URL, TIMEOUT_NS, ["          " + escape(exhibits)])
    lines.append("  </article>")
    return lines


def article_edit(fields, rng: random.Random):
    """A retitle or a new ``Get_Temp`` city: (new fields, child index,
    operation, new node or parameter)."""
    title, date, city, exhibits = fields
    if rng.random() < 0.5:
        title = token(rng, 24)
        return (title, date, city, exhibits), 0, "replace", el("title", title)
    city = token(rng, 10)
    return (title, date, city, exhibits), 2, "update-call", el("city", city)


# -- digest -----------------------------------------------------------------


def digest_schemas(n: int = DIGEST_N) -> Tuple[Schema, Schema]:
    """(sender, receiver): calls anywhere vs the nondeterministic target."""

    def base() -> SchemaBuilder:
        return (SchemaBuilder()
                .element("digest", "region*")
                .element("name", "data").element("temp", "data")
                .element("warn", "data").element("city", "data")
                .function("Get_Temp", "city", "temp")
                .function("Get_Warn", "city", "warn")
                .function("Forecast", "city", "temp | warn | Get_Temp")
                .root("digest"))

    sender = base().element(
        "region", "name.(temp | warn | Get_Temp | Get_Warn | Forecast)*").build()
    tail = ".".join(["(temp | warn)"] * n)
    receiver = base().element("region", "name.(temp | warn)*.warn." + tail).build()
    return sender, receiver


def region_fields(rng: random.Random, shape: random.Random, width: int = DIGEST_WIDTH,
                  n: int = DIGEST_N):
    """(name, children): a random children word whose (n+1)-th symbol
    from the end is ``warn`` or ``Get_Warn``, as the target requires.
    Each child is (kind, value), the value of a call being its city.

    The words come from ``shape``, which does not depend on the seed:
    the game's work per region varies a lot from word to word, and a
    benchmark whose work changed with the seed could not be steady.
    Names, values and cities come from ``rng``."""
    kinds = [shape.choice(("temp", "warn", "Get_Temp", "Get_Warn", "Forecast"))
             for _ in range(width)]
    kinds[width - n - 1] = shape.choice(("warn", "Get_Warn"))
    children = tuple((kind, token(rng, 6 if kind in ("temp", "warn") else 8)) for kind in kinds)
    return token(rng, 12), children


def answer(kind: str, city: str) -> Tuple[str, str, int]:
    """(label, value, calls made) a digest call materializes into."""
    if kind == "Get_Warn":
        return "warn", warn_of(city), 1
    if kind == "Get_Temp":
        return "temp", temp_of(city), 1
    kind = forecast_kind(city)
    if kind == "Get_Temp":
        return "temp", temp_of(forecast_city(city)), 2
    return kind, temp_of(city) if kind == "temp" else warn_of(city), 1


def region_lines(fields, enforced: bool = False) -> List[str]:
    name, children = fields
    lines = ["  <region>", "    <name>%s</name>" % escape(name)]
    for kind, value in children:
        if kind in ("temp", "warn"):
            lines.append("    <%s>%s</%s>" % (kind, escape(value), kind))
        elif enforced:
            label, data, _calls = answer(kind, value)
            lines.append("    <%s>%s</%s>" % (label, escape(data), label))
        else:
            lines += city_call("    ", kind, value)
    lines.append("  </region>")
    return lines


def region_calls(fields) -> int:
    return sum(answer(kind, value)[2] for kind, value in fields[1]
               if kind not in ("temp", "warn"))


def region_edit(fields, rng: random.Random):
    """A new value for a leaf or a new city for a call."""
    name, children = fields
    position = rng.randrange(len(children))
    kind, _value = children[position]
    updated = list(children)
    if kind in ("temp", "warn"):
        value = token(rng, 6)
        updated[position] = (kind, value)
        return (name, tuple(updated)), position + 1, "replace", el(kind, value)
    city = token(rng, 8)
    updated[position] = (kind, city)
    return (name, tuple(updated)), position + 1, "update-call", el("city", city)


# -- workloads --------------------------------------------------------------


@dataclass
class Kind:
    """How one workload's documents are made, rendered and edited."""

    root: str
    schemas: Callable[[], Tuple[Schema, Schema]]
    k: int
    units: int
    fields: Callable[[random.Random, random.Random], tuple]
    source: Callable[[tuple], List[str]]
    expected: Callable[[tuple], List[str]]
    calls: Callable[[tuple], int]
    edit: Callable


KINDS: Dict[str, Kind] = {
    "magazine": Kind("magazine", magazine_schemas, 1, MAGAZINE_ARTICLES, article_fields,
                     article_lines, lambda f: article_lines(f, temp_of(f[2])),
                     lambda f: 1, article_edit),
    "digest": Kind("digest", digest_schemas, 2, DIGEST_REGIONS, region_fields,
                   region_lines, lambda f: region_lines(f, enforced=True),
                   region_calls, region_edit),
}


@dataclass
class Workload:
    """One generated document with everything needed to check its output."""

    kind: Kind
    fields: List[tuple]
    xml: str
    expected: str
    calls: int

    @property
    def nbytes(self) -> int:
        return len(self.xml.encode("utf-8"))


def generate(name: str, seed: int, units: Optional[int] = None, part: str = "") -> Workload:
    """The seeded document of a workload (``part`` names an independent
    stream of the same seed, such as the edit session's document)."""
    kind = KINDS[name]
    rng = random.Random("%s|%d|%s" % (name, seed, part))
    shape = random.Random("%s|shape|%s" % (name, part))
    fields = [kind.fields(rng, shape) for _ in range(kind.units if units is None else units)]
    return Workload(kind, fields, document_xml(kind.root, [kind.source(f) for f in fields]),
                    document_xml(kind.root, [kind.expected(f) for f in fields]),
                    sum(kind.calls(f) for f in fields))


class EditModel:
    """The benchmark's own view of an edited document: the fields of each
    unit and its expected enforced lines, updated per edit."""

    def __init__(self, root: str, fields, render: Callable[[tuple], List[str]],
                 edit: Callable):
        self.root = root
        self.fields = list(fields)
        self.render = render
        self.make_edit = edit
        self.units = [render(f) for f in self.fields]

    def edit(self, rng: random.Random):
        """A seeded edit of one unit: (unit index, the program's edit)."""
        from repro.incremental.edits import replace, update_call

        index = rng.randrange(len(self.fields))
        fields, child, operation, node = self.make_edit(self.fields[index], rng)
        self.fields[index] = fields
        self.units[index] = self.render(fields)
        if operation == "replace":
            return index, replace((index, child), node)
        return index, update_call((index, child), (node,))

    def unit_xml(self, index: int) -> str:
        return "\n".join(self.units[index])

    def expected(self) -> str:
        return document_xml(self.root, self.units)
