"""Seeded input generators for the benchmark workloads.

Every generator takes a seed and an output directory, writes the files the
odrleval CLI reads, and returns the answers it planted. The answers come from
the construction (which event was built to break which clause, which pair was
built to be contained), never from odrleval, so the checker in ``run.py`` can
catch a wrong answer.

The seed draws the logs (event values, timestamps, which slot holds which
event) and the bounds of the negotiate pairs. The structure of every input --
rule shapes, event counts, violation counts, witness-domain sizes -- is fixed,
and so are the names and the audit-log policy. odrleval keeps conditions in
frozensets, whose iteration order (and so the work a match does before it
stops) follows the hashes of the constants; fixed names keep that order, and
so the work per operation, the same for every seed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from random import Random

DT, ACTION, ACTOR, ASSET = "Datetime", "Action", "Actor", "Asset"
RES, PAGES, PURPOSE, REGION = "Print.Resolution", "Book.Pages", "Purpose", "Region"

# The demo's six features plus one identifier-set and one string feature.
SCHEMA = {
    "format": "feature-schema/1",
    "features": [
        {"index": 0, "name": DT, "datatype": "timestamp", "component": "rule"},
        {"index": 1, "name": ACTION, "datatype": "identifier", "component": "action"},
        {"index": 2, "name": ACTOR, "datatype": "identifier", "component": "party",
         "partyRole": "assignee"},
        {"index": 3, "name": ASSET, "datatype": "identifier", "component": "asset"},
        {"index": 4, "name": RES, "datatype": "numeric", "component": "refines",
         "refines": ACTION},
        {"index": 5, "name": PAGES, "datatype": "numeric", "component": "refines",
         "refines": ASSET},
        {"index": 6, "name": PURPOSE, "datatype": "identifier-set", "component": "rule"},
        {"index": 7, "name": REGION, "datatype": "string", "component": "rule"},
    ],
}
COLUMNS = [f["name"] for f in SCHEMA["features"]]

# A three-level action hierarchy: Use > {Reproduce, Play, Transform} > leaves.
VOCABULARY = {
    "format": "action-vocabulary/1",
    "includedIn": [
        ["Reproduce", "Use"], ["Play", "Use"], ["Transform", "Use"],
        ["Print", "Reproduce"], ["Copy", "Reproduce"],
        ["Display", "Play"], ["Stream", "Play"],
        ["Modify", "Transform"], ["Annotate", "Transform"],
    ],
}
_CHILDREN: dict = {}
for _child, _parent in VOCABULARY["includedIn"]:
    _CHILDREN.setdefault(_parent, []).append(_child)

N_EVENTS = 2_000   # events per audit-log log

NORMAL_PURPOSES = ("research", "archive", "education", "review")
NORMAL_REGIONS = ("eu", "us", "apac", "latam")
T0 = 1_700_000_000


def descendants(action: str) -> list:
    """The action and every action included in it, parents first."""
    out = [action]
    for child in _CHILDREN.get(action, ()):
        out += descendants(child)
    return out


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")


# ---------------------------------------------------------------------------
# Rules: pins plus extra conditions, rendered to ODRL or canonical policy/1
# ---------------------------------------------------------------------------

def rule(uid, action, actor, asset, *extra) -> dict:
    """``extra`` holds (feature, op, value) triples."""
    return {"uid": uid, "action": action, "actor": actor, "asset": asset,
            "extra": list(extra)}


def _odrl_constraint(feature, op, value) -> dict:
    return {"leftOperand": feature, "operator": op, "rightOperand": value}


def odrl_rule(r: dict, **sub) -> dict:
    """ODRL JSON-LD rule: refinements of Action and Asset sit on the action and
    the target, everything else is a rule-wide constraint."""
    on_action = [_odrl_constraint(*c) for c in r["extra"] if c[0] == RES]
    on_asset = [_odrl_constraint(*c) for c in r["extra"] if c[0] == PAGES]
    wide = [_odrl_constraint(*c) for c in r["extra"] if c[0] not in (RES, PAGES)]
    out = {
        "uid": r["uid"],
        "assignee": r["actor"],
        "action": ({"value": r["action"], "refinement": on_action}
                   if on_action else r["action"]),
        "target": ({"value": r["asset"], "refinement": on_asset}
                   if on_asset else r["asset"]),
    }
    if wide:
        out["constraint"] = wide
    out.update(sub)
    return out


def canonical_rule(r: dict) -> dict:
    conditions = [{"feature": ACTION, "op": "eq", "value": r["action"]},
                  {"feature": ACTOR, "op": "eq", "value": r["actor"]},
                  {"feature": ASSET, "op": "eq", "value": r["asset"]}]
    conditions += [{"feature": f, "op": op, "value": v} for f, op, v in r["extra"]]
    return {"label": r["uid"], "conditions": conditions}


def canonical_policy(permissions, prohibitions=(), obligations=()) -> dict:
    return {"format": "policy/1", "kind": "lite",
            "permissions": [canonical_rule(r) for r in permissions],
            "prohibitions": [canonical_rule(r) for r in prohibitions],
            "obligations": [canonical_rule(r) for r in obligations]}


def saturated(r: dict) -> list:
    """Copies of a permission for every action its action includes; the copy
    label follows odrleval's ``label@action`` convention."""
    return [dict(r, action=a, uid=r["uid"] if a == r["action"] else f"{r['uid']}@{a}")
            for a in descendants(r["action"])]


# ---------------------------------------------------------------------------
# audit-log and sql-offload: one ODRL policy, its lite projection, one log
# ---------------------------------------------------------------------------

def audit_log(seed: int, out_dir: Path) -> dict:
    """Write schema, vocabulary, ODRL policy, lite projection and a log of
    N_EVENTS events.

    Returns the file paths, the event count, the findings ``evaluate`` must
    report as (clause, rule labels, witness timestamp or None), and the lite
    answers for the SQL path (timestamps per clause, obligation flag).
    """
    rng = Random(seed)
    a = {k: f"actor-{k:02d}" for k in range(1, 11)}
    s = {k: f"asset-{k:02d}" for k in range(1, 11)}
    assets = list(s.values())
    intruder = "intruder-01"
    t_start = T0 - 86_400
    bound = {2: 400, 4: 550, 7: 650, 9: 500}
    res5 = 900
    r1 = ["eu", "us"]
    r10 = ["apac", "eu", "latam"]

    perms = {
        "p1": rule("p1", "Use", a[1], s[1], (REGION, "isAnyOf", r1), (DT, "gteq", t_start)),
        "p2": rule("p2", "Reproduce", a[2], s[2], (PAGES, "lteq", bound[2])),
        "p3": rule("p3", "Play", a[3], s[3], (DT, "gteq", t_start)),
        "p4": rule("p4", "Transform", a[4], s[4], (PAGES, "lteq", bound[4])),
        "p5": rule("p5", "Print", a[5], s[5], (RES, "lteq", res5)),
        "p6": rule("p6", "Display", a[6], s[6]),
        "p7": rule("p7", "Modify", a[7], s[7], (PAGES, "lteq", bound[7])),
        "p8": rule("p8", "Copy", a[8], s[8]),
        "p9": rule("p9", "Annotate", a[9], s[9], (PAGES, "lteq", bound[9])),
        "p10": rule("p10", "Stream", a[10], s[10], (REGION, "isAnyOf", r10)),
        "d1": rule("d1", "Attribute", a[5], s[5]),
        "m1": rule("m1", "Pay", a[6], s[6]),
    }
    prohibitions = [
        rule("f1", "Print", a[2], s[2], (RES, "gt", 1200)),
        rule("f2", "Stream", a[1], s[1], (PURPOSE, "hasPart", ["marketing"])),
        rule("f3", "Modify", a[7], s[7], (REGION, "eq", "embargo")),
    ]
    remedied = rule("fr1", "Display", a[6], s[6], (PAGES, "gt", 800))
    obligations = [
        rule("o1", "Copy", a[8], s[8]),
        rule("o2", "Annotate", a[9], s[9], (PAGES, "gt", 900)),
        rule("o3", "Stream", a[3], s[3]),
    ]

    # Slots are event positions in time order; timestamps are unique and
    # increasing, so a witness is identified by its timestamp.
    slots: list = [None] * N_EVENTS
    free = set(range(N_EVENTS))

    def take(k, lo=0, hi=N_EVENTS):
        chosen = rng.sample(sorted(i for i in free if lo <= i < hi), k)
        free.difference_update(chosen)
        return sorted(chosen)

    copies = [c for key in ("p1", "p2", "p3", "p4", "p6", "p7", "p8", "p9", "p10")
              for c in saturated(perms[key])]
    by_pins = {(c["action"], c["actor"], c["asset"]): c for c in copies}
    # Planted events: 32 p5 events, 2 of them before the first event of its
    # duty d1; 4 fr1 events, 2 of them after the last event of its remedy m1;
    # 10 unpermitted events; 2 events per prohibition. With the unmet
    # obligation o2 that is 21 findings, about 1% of the events.
    first_duty = take(1, N_EVENTS // 4, N_EVENTS // 2)[0]
    late_p5 = take(2, 0, first_duty)
    for i in late_p5 + take(30, first_duty):
        slots[i] = ("p5", None)
    for i in [first_duty] + take(1, first_duty):
        slots[i] = ("d1", None)
    last_remedy = take(1, N_EVENTS // 2, 3 * N_EVENTS // 4)[0]
    unremedied = take(2, last_remedy)
    for i in take(2, 0, last_remedy) + unremedied:
        slots[i] = ("fr1", None)
    for i in take(1, 0, last_remedy) + [last_remedy]:
        slots[i] = ("m1", None)
    unpermitted = take(10)
    for i in unpermitted:
        slots[i] = ("intruder", None)
    forbidden = {f["uid"]: take(2) for f in prohibitions}
    for uid, idx in forbidden.items():
        for i in idx:
            slots[i] = (uid, None)
    for o in (obligations[0], obligations[2]):  # o2 stays unmet
        slots[take(1)[0]] = ("copy", by_pins[(o["action"], o["actor"], o["asset"])])
    for i in sorted(free):
        slots[i] = ("copy", rng.choice(copies))

    leaves = [x for x in descendants("Use") if x not in _CHILDREN]
    timestamps = []
    rows = []
    for i, (kind, copy) in enumerate(slots):
        ts = T0 + 60 * i + rng.randint(0, 59)
        timestamps.append(ts)
        if kind == "copy":
            row = _event(rng, ts, copy)
        elif kind in perms:
            row = _event(rng, ts, perms[kind])
        elif kind == "intruder":
            row = _event(rng, ts, rule("", rng.choice(leaves), intruder,
                                       rng.choice(assets)))
        elif kind == "f1":
            row = _event(rng, ts, by_pins[("Print", a[2], s[2])])
            row[RES] = rng.randint(1201, 2400)
        elif kind == "f2":
            row = _event(rng, ts, by_pins[("Stream", a[1], s[1])])
            row[PURPOSE] = "|".join(sorted({"marketing", rng.choice(NORMAL_PURPOSES)}))
        elif kind == "f3":
            row = _event(rng, ts, by_pins[("Modify", a[7], s[7])])
            row[REGION] = "embargo"
        else:  # fr1: permitted by p6, forbidden unless remedied later
            row = _event(rng, ts, perms["p6"])
            row[PAGES] = rng.randint(801, 999)
        rows.append(row)

    ts = timestamps.__getitem__
    findings = [("permissions", (), ts(i)) for i in unpermitted]
    findings += [("prohibitions", (uid,), ts(i))
                 for uid, idx in forbidden.items() for i in idx]
    findings += [("obligations", ("o2",), None)]
    findings += [("permission-duties", ("p5", "d1"), ts(i)) for i in late_p5]
    findings += [("prohibition-remedies", ("fr1", "m1"), ts(i)) for i in unremedied]

    policy = {
        "@context": "http://www.w3.org/ns/odrl.jsonld",
        "@type": "Set",
        "uid": "audit-policy",
        "permission": [odrl_rule(perms["p5"], duty=[odrl_rule(perms["d1"])])]
        + [odrl_rule(r) for k, r in perms.items() if k != "p5"],
        "prohibition": [odrl_rule(f) for f in prohibitions]
        + [odrl_rule(remedied, remedy=[odrl_rule(perms["m1"])])],
        "obligation": [odrl_rule(o) for o in obligations],
    }
    lite = canonical_policy(
        [c for r in perms.values() for c in saturated(r)], prohibitions, obligations)

    out_dir.mkdir(parents=True, exist_ok=True)
    files = {k: out_dir / f"{k}.json" for k in ("schema", "vocab", "policy", "lite")}
    files["world"] = out_dir / "world.csv"
    _write_json(files["schema"], SCHEMA)
    _write_json(files["vocab"], VOCABULARY)
    _write_json(files["policy"], policy)
    _write_json(files["lite"], lite)
    with files["world"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COLUMNS)
        for t, row in zip(timestamps, rows):
            row[DT] = t
            writer.writerow(["null" if row[c] is None else row[c] for c in COLUMNS])
    return {
        "files": {k: str(v) for k, v in files.items()},
        "events": N_EVENTS,
        "findings": sorted(findings, key=repr),
        "lite": {
            "permissions-violation": sorted(ts(i) for i in unpermitted),
            "prohibitions-violation": sorted(ts(i) for idx in forbidden.values()
                                             for i in idx),
            "obligations-violation": [1],
        },
    }


def _event(rng: Random, ts: int, r: dict) -> dict:
    """An event matching rule ``r`` and, by the value ranges used here, no
    planted prohibition, remedied prohibition or unmet obligation."""
    limits = {f: v for f, op, v in r["extra"] if op == "lteq"}
    regions = next((v for f, op, v in r["extra"] if f == REGION), NORMAL_REGIONS)
    row = {DT: ts, ACTION: r["action"], ACTOR: r["actor"], ASSET: r["asset"]}
    if RES in limits or r["action"] == "Print":
        row[RES] = rng.randint(72, limits.get(RES, 1200))
    else:
        row[RES] = None
    if PAGES in limits or rng.random() < 0.8:
        row[PAGES] = rng.randint(1, limits.get(PAGES, 750))
    else:
        row[PAGES] = None
    row[PURPOSE] = (None if rng.random() < 0.1 else
                    "|".join(sorted(rng.sample(NORMAL_PURPOSES, rng.randint(1, 2)))))
    row[REGION] = rng.choice(regions)
    return row


# ---------------------------------------------------------------------------
# negotiate: requester/provider pairs of canonical policies
# ---------------------------------------------------------------------------

# One slot per pair: (mode, construction, rules per policy, inconsistent).
# Half the pairs are asymmetric, half are contained (no conflict, so the
# decision scans the whole witness domain), a fifth carry an overlapping
# prohibition and run with --normalize. The rule count sets the witness
# domain size: about 5*10^2 probe events for 2 rules, 1.5*10^3 for 3 and
# 10^4 for 4, where rule 0 also carries a timestamp bound.
NEGOTIATE_SCHEDULE = (
    ("symmetric", "narrow", 3, False),
    ("asymmetric", "contained", 2, False),
    ("symmetric", "equivalent", 2, False),
    ("asymmetric", "contained", 4, False),
    ("symmetric", "widen", 3, True),
    ("asymmetric", "gap", 2, False),
    ("symmetric", "equivalent", 3, False),
    ("asymmetric", "obligation", 3, False),
    ("symmetric", "equivalent", 2, False),
    ("asymmetric", "contained", 4, False),
    ("symmetric", "widen", 2, False),
    ("asymmetric", "contained", 3, True),
    ("symmetric", "equivalent", 3, True),
    ("asymmetric", "gap", 3, False),
    ("symmetric", "narrow", 2, False),
    ("asymmetric", "obligation", 2, False),
    ("symmetric", "equivalent", 2, False),
    ("asymmetric", "contained", 4, False),
    ("symmetric", "widen", 3, False),
    ("asymmetric", "gap", 3, True),
)

NEGOTIATE_ACTIONS = ("Print", "Copy", "Display", "Stream", "Modify", "Annotate")


def negotiate(seed: int, out_dir: Path) -> dict:
    """Write one requester/provider pair per NEGOTIATE_SCHEDULE slot and the
    schema.

    Each pair's planted answer is its conflict flag, the cause and the
    failing directions the construction implies. ``nominal_events`` is the
    size of the probe product over the pair's constants as defined at the
    time this benchmark was written; it is fixed by the construction and is
    the work unit of ``events_per_s``.
    """
    rng = Random(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    schema_path = out_dir / "schema.json"
    _write_json(schema_path, SCHEMA)
    pairs = []
    for i, (mode, kind, k, inconsistent) in enumerate(NEGOTIATE_SCHEDULE):
        requester, provider, answer = _pair(rng, kind, k, inconsistent)
        paths = []
        for side, doc in (("requester", requester), ("provider", provider)):
            path = out_dir / f"pair{i:03d}-{side}.json"
            _write_json(path, doc)
            paths.append(str(path))
        if mode == "asymmetric":
            answer = answer["forward"]
        else:
            directions = [d for d, key in (("requester-to-provider", "forward"),
                                           ("provider-to-requester", "backward"))
                          if answer[key]["conflict"]]
            first = answer["forward"] if answer["forward"]["conflict"] else answer["backward"]
            answer = {"conflict": bool(directions), "cause": first["cause"],
                      "failingDirections": directions}
        pairs.append({
            "requester": paths[0], "provider": paths[1], "mode": mode,
            "normalize": inconsistent, "answer": answer,
            "nominal_events": _nominal_events([requester, provider]),
        })
    return {"schema": str(schema_path), "pairs": pairs}


def _pair(rng: Random, kind: str, k: int, inconsistent: bool):
    """Requester and provider documents plus the verdict per direction."""
    actions = NEGOTIATE_ACTIONS[:k]
    actors = [f"actor-{j}" for j in range(k)]
    assets = [f"asset-{j}" for j in range(k)]
    # Page bounds, distinct across the pair so the probe count is fixed, and
    # increasing per rule: obligation bounds below the requester's bound, the
    # provider's wider bound above it.
    drawn = rng.sample(range(20, 4000, 3), 6 * k)
    pages = [sorted(drawn[6 * j:6 * j + 6]) for j in range(k)]
    # A timestamp bound on rule 0 of the largest pairs, the same on both sides.
    t0 = rng.randrange(T0, T0 + 10**6) if k >= 4 else None
    lower, lo_o, hi_o, mid, req_hi, prov_hi = range(6)   # indices into pages[j]

    def make(j, hi, uid=None, extra=()):
        cons = [(PAGES, "lteq", hi)]
        if j == 0 and t0 is not None:
            cons.append((DT, "gteq", t0))
        return rule(uid or f"p{j}", actions[j], actors[j], assets[j], *cons, *extra)

    requester = [make(j, pages[j][req_hi]) for j in range(k)]
    same = [make(j, pages[j][req_hi]) for j in range(k)]
    wide = [make(j, pages[j][prov_hi]) for j in range(k)]
    req_obl = [make(0, pages[0][lo_o], "o0")]
    no_conflict = {"conflict": False, "cause": None}
    perm_gap = {"conflict": True, "cause": "permissions-not-contained"}
    if kind == "contained":
        provider = list(wide)
        prov_obl = [make(0, pages[0][hi_o], "o0")]
        answer = {"forward": no_conflict}
    elif kind == "gap":
        provider = list(wide)
        provider[1] = make(1, pages[1][mid])
        prov_obl = list(req_obl)
        answer = {"forward": perm_gap}
    elif kind == "obligation":
        provider = list(wide)
        prov_obl = [make(0, pages[0][lower], "o0")]
        answer = {"forward": {"conflict": True, "cause": "obligation-not-agreed"}}
    elif kind == "equivalent":
        # Rule 1 split at an inner bound: the union is the requester's rule.
        provider = same[:1] + same[2:] + [
            make(1, pages[1][mid], "p1a"),
            make(1, pages[1][req_hi], "p1b", extra=[(PAGES, "gt", pages[1][mid])])]
        prov_obl = list(req_obl)
        answer = {"forward": no_conflict, "backward": no_conflict}
    elif kind == "widen":
        provider = list(wide)
        prov_obl = list(req_obl)
        answer = {"forward": no_conflict, "backward": perm_gap}
    else:  # narrow
        provider = same[:1] + same[2:] + [make(1, pages[1][mid])]
        prov_obl = list(req_obl)
        answer = {"forward": perm_gap, "backward": no_conflict}
    prohibitions = []
    if inconsistent:
        # Overlaps the last rule of both sides alike, away from rule 0 (the
        # obligations) and rule 1 (the gap or split), so normalizing removes
        # the same region on both sides and keeps the verdict.
        j = k - 1
        prohibitions = [rule("f0", actions[j], actors[j], assets[j],
                             (PAGES, "gt", pages[j][lo_o]))]
    return (canonical_policy(requester, prohibitions, req_obl),
            canonical_policy(provider, prohibitions, prov_obl), answer)


def _nominal_events(policies) -> int:
    """Product over features of the probe count the constants induce:
    identifiers n + fresh (+ null), numbers 2n + 2, timestamps 2n + 1."""
    constants: dict = {}
    for doc in policies:
        for key in ("permissions", "prohibitions", "obligations"):
            for r in doc[key]:
                for c in r["conditions"]:
                    constants.setdefault(c["feature"], set()).add(c["value"])
    n = 1
    for feature, values in constants.items():
        if feature == ACTION:
            n *= len(values) + 1
        elif feature in (ACTOR, ASSET):
            n *= len(values) + 2
        elif feature == DT:
            n *= 2 * len(values) + 1
        else:
            n *= 2 * len(values) + 2
    return n
